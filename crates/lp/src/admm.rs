//! ADMM for the TE path LP, following Appendix C of the paper.
//!
//! The constrained problem (Eq. 1) is rewritten with auxiliary per-(path,
//! edge) variables `z_pe`, slacks `s1_d` (demand rows) and `s3_e` (capacity
//! rows), and multipliers `λ = (λ1, λ3, λ4)`. Appendix C iterates four
//! steps — the per-demand **F-update** (a k-dimensional box-clamped
//! quadratic with Hessian `ρ(vol²·diag(L_p) + 11ᵀ)`, closed form via
//! Sherman-Morrison), the per-edge **z-update** (Hessian `ρ(I + 11ᵀ)`, also
//! Sherman-Morrison), the closed-form non-negative **slack** projections and
//! the **dual ascent** — each of which decomposes into independent
//! per-demand or per-edge subproblems (the parallelism §3.4 exploits on
//! GPUs; here each sweep is a plain loop on the calling thread, and the
//! axis a CPU caller may split is the window's lanes).
//!
//! # No per-(path, edge) state: `z` and `λ4` are per-edge scalars
//!
//! With `v_d` the demand's volume and `n_e` the number of paths on edge
//! `e`, the z-update's closed form is
//! `z_pe = F_p·v_d + λ4_pe/ρ + κ_e`, where
//! `κ_e = (−λ3_e − ρ(s3_e − c_e))/ρ − corr_e` depends on the edge only. The
//! dual ascent that follows, `λ4_pe ← λ4_pe + ρ(F_p·v_d − z_pe)`, therefore
//! leaves `−ρκ_e` on *every* path of the edge (the sharing-ADMM identity),
//! so by induction from `λ4 = 0`
//!
//! * `λ4_pe ≡ μ_e` and `z_pe ≡ F_p·v_d + δ_e` for per-edge scalars
//!   `μ_e`, `δ_e`;
//! * with `S_e = Σ_{p∋e} F_p·v_d` and `a_e = −λ3_e − ρ(s3_e − c_e) + μ_e`
//!   the z-update is `δ_e = (a_e − ρS_e) / (ρ(1 + n_e))`, the capacity row
//!   sees `Σ_p z_pe = S_e + n_e·δ_e`, the ascent is `μ_e ← μ_e − ρδ_e` and
//!   its residual `|F_p·v_d − z_pe| = |δ_e|`;
//! * the F-update's incidence term is
//!   `Σ_{e∈p}(−λ4_pe·v + ρ·v·z_pe) = v·Σ_{e∈p} ν_e + ρv²|p|·F_p` with
//!   `ν_e = ρδ_e − μ_e`;
//! * the z-block's step is `|Δz_pe| = |ΔF_p·v_d + Δδ_e|`, whose maximum over
//!   an edge is attained at the largest or smallest `ΔF_p·v_d` on it.
//!
//! So the solver stores `μ`, `δ`, `ν` per edge and the last F-step per
//! path, and nothing whose size is the incidence non-zero count. These are
//! the same real-arithmetic iterates as Appendix C's, rounded differently
//! (~1e-12): `tests/batch_equivalence.rs` checks them against a literal
//! per-entry twin (`tests/common/twin.rs`), which also asserts the identity.
//!
//! An iteration is **two sweeps**, each a loop on the calling thread:
//!
//! 1. **demand sweep** — per demand, the F-update, then that demand's
//!    `s1` projection and `λ1` ascent (they read only the demand's own new
//!    `F`);
//! 2. **edge sweep** — per edge, one walk of its paths for `S_e` and the
//!    extreme F-steps, then `δ_e`, the `s3` projection, and the `λ3`/`μ_e`
//!    ascents and `ν_e` in closed form.
//!
//! Used in two roles, matching the paper: *warm-started for 2–5 iterations*
//! as Teal's feasibility repair (§3.4), and *cold-started to convergence* as
//! the large-instance substitute for the Gurobi "LP-all" baseline (the
//! crate docs in `lib.rs` list what replaces Gurobi).
//!
//! # One solver ([`AdmmBatchSolver`])
//!
//! Appendix C's decomposition is independent not only across demands and
//! edges but also across *traffic matrices*: no ADMM quantity ever couples
//! two matrices. The whole implementation is a structure-of-arrays batch
//! solver minted from one shared [`AdmmSkeleton`]; a per-matrix solve is
//! the same solver with a single lane ([`AdmmSkeleton::solve`] is the
//! one-shot form).
//!
//! * **SoA layout.** Every state family is stored `[row][lane]` — per-path
//!   `F` and its last step, per-demand `s1`/`λ1`, per-edge
//!   `s3`/`λ3`/`μ`/`δ`/`ν` — so for a batch of `B` matrices, row `i` of
//!   matrix `b` lives at `i * B + b`. Batch lanes of one subproblem are
//!   contiguous, so each per-demand / per-edge subproblem walks the
//!   incidence index **once** and repairs the whole window in that single
//!   pass, instead of `B` passes re-reading the index per matrix.
//! * **Per-edge exchange.** The two sweeps talk only through per-path rows
//!   (`F`, its step: written by the demand sweep, read by the edge sweep)
//!   and per-edge rows (`ν`: the reverse).
//! * **Flat incidence arena.** The shared index is two flat CSR-style
//!   arenas (path-major edge ids, edge-major path ids) — no per-path or
//!   per-edge `Vec`s — so each sweep's incidence walk is one linear scan of
//!   a contiguous `u32` slice; see [`AdmmIndex`] for the layout.
//! * **Serial.** One solve never leaves the calling thread: a sweep's rows
//!   split over a CPU pool need two dispatches per iteration, and the
//!   hand-offs did not pay for themselves at the sizes served. Lanes are
//!   what commute without a barrier, so a caller that wants a second core
//!   runs `run_batch_into` on a sub-slice of the window — the same lanes,
//!   bitwise.
//! * **Convergence mask.** Early stopping stays *per matrix*: once a
//!   lane's residual drops below `tol` it is masked out of every later
//!   sweep (its state freezes; its iteration count is recorded), while
//!   unconverged lanes keep iterating — exactly what `B` independent
//!   batch-of-1 runs do (`tests/batch_equivalence.rs` checks it bitwise).
//!   Until the *first* lane freezes the sweeps run their all-lanes-active
//!   instantiation, whose commit loops carry no mask test at all; under the
//!   paper's fixed-iteration fine-tuning (`tol = 0`) the masked one is
//!   never entered. Both are one source text, so they cannot drift apart.
//! * **Arena reuse (allocation-free steady state).** Every byte of mutable
//!   solver state — the SoA families, sweep scratch, residual rows —
//!   lives in a caller-owned [`BatchArena`] of grow-only
//!   buffers, none of which scales with the incidence non-zero count. A
//!   serving loop that keeps one arena (plus its output
//!   `Vec<Allocation>`/`Vec<AdmmReport>`) and rebinds the solver per window
//!   with [`AdmmSkeleton::remint_batch_solver`] performs **zero heap
//!   allocations** from the second window onwards (asserted, with the
//!   first window's byte footprint, by `tests/steady_state_alloc.rs`). See
//!   [`BatchArena`] for the ownership rules: one solve at a time, one arena
//!   per thread, safe to carry across topology changes and weight swaps.

use crate::problem::{Allocation, Objective};
use std::sync::Arc;
use teal_topology::{PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// ADMM hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdmmConfig {
    /// Penalty coefficient ρ.
    pub rho: f64,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Stop early when the max primal residual drops below this (0 disables
    /// early stopping — the paper's fine-tuning always runs a fixed count).
    pub tol: f64,
}

impl AdmmConfig {
    /// The paper's fine-tuning setting: 2 iterations for topologies under
    /// 100 nodes, 5 otherwise (§4).
    pub fn fine_tune(num_nodes: usize) -> Self {
        AdmmConfig {
            rho: 1.0,
            max_iters: if num_nodes < 100 { 2 } else { 5 },
            tol: 0.0,
        }
    }

    /// The same configuration with a different iteration budget — the
    /// per-window form of the §3.4 quality/latency knob: a scheduler under
    /// deadline pressure re-issues the window's config with a smaller
    /// `max_iters` (the iteration count is already the only loop bound).
    pub fn with_max_iters(self, max_iters: usize) -> Self {
        AdmmConfig { max_iters, ..self }
    }

    /// Solve-to-convergence setting used as the LP-all substitute.
    pub fn to_convergence() -> Self {
        AdmmConfig {
            rho: 1.0,
            max_iters: 4000,
            tol: 1e-5,
        }
    }
}

/// Iteration report.
#[derive(Clone, Copy, Debug)]
pub struct AdmmReport {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Final max primal (feasibility) residual, normalized units. Infinite
    /// when no iteration ran.
    pub primal_residual: f64,
    /// Final dual residual (ρ · max step size of the F/z blocks): the
    /// stationarity half of the convergence test — the all-zero point has
    /// zero primal residual but a large dual one. Infinite when no
    /// iteration ran.
    pub dual_residual: f64,
}

impl AdmmReport {
    /// The combined convergence residual the `tol` stop tests against:
    /// `max(primal, dual)`.
    pub fn residual(&self) -> f64 {
        self.primal_residual.max(self.dual_residual)
    }
}

/// Immutable path-edge incidence indexing shared by every solver built for
/// one `(topology, path set)` pair. Building it walks every hop of every
/// candidate path, which dominates solver-construction cost — hoisting it
/// behind an `Arc` is what makes per-traffic-matrix solver construction
/// an O(paths) copy instead of an O(nnz) rebuild.
/// The index is a pair of flat CSR-style arenas over the same incidence
/// non-zeros, one per sweep, with no per-path or per-edge `Vec`
/// allocations:
///
/// * **Path-major** (`entry_edge`): walking every hop of every candidate
///   path in order, so path `p`'s edges are the contiguous range
///   `entry_edge[path_start[p]..path_start[p + 1]]` — the demand sweep's
///   gather of `ν_e` over a path is one linear scan.
/// * **Edge-major** (`pos_path`): the same non-zeros regrouped so edge `e`
///   owns the contiguous range `pos_path[edge_start[e]..edge_start[e + 1]]`
///   (ascending path ids) — the edge sweep's sum over an edge's paths is
///   one linear scan.
///
/// Solver *state* is indexed by path, demand or edge only; nothing is
/// stored per non-zero.
struct AdmmIndex {
    /// Range of each path in `entry_edge`: `path_start[p]..path_start[p + 1]`.
    path_start: Vec<usize>,
    /// Range of each edge in `pos_path`: `edge_start[e]..edge_start[e + 1]`.
    edge_start: Vec<usize>,
    /// Path id of each non-zero, edge-major.
    pos_path: Vec<u32>,
    /// Edge id of each non-zero, path-major.
    entry_edge: Vec<u32>,
}

impl AdmmIndex {
    /// Build both arenas straight from the path set with two counting
    /// passes — O(nnz), no intermediate `Vec<Vec>` structures.
    fn new(paths: &PathSet, num_edges: usize) -> Self {
        let nnz: usize = paths.paths().iter().map(|p| p.edges.len()).sum();
        let mut entry_edge = Vec::with_capacity(nnz);
        let mut path_start = Vec::with_capacity(paths.num_paths() + 1);
        path_start.push(0);
        for path in paths.paths() {
            entry_edge.extend(path.edges.iter().map(|&e| e as u32));
            path_start.push(entry_edge.len());
        }

        // Counting sort of the non-zeros into edge-major order; ascending
        // path ids within each edge, matching the path-major walk.
        let mut edge_start = vec![0usize; num_edges + 1];
        for &e in &entry_edge {
            edge_start[e as usize + 1] += 1;
        }
        for e in 0..num_edges {
            edge_start[e + 1] += edge_start[e];
        }
        let mut cursor = edge_start[..num_edges].to_vec();
        let mut pos_path = vec![0u32; nnz];
        for (p, span) in path_start.windows(2).enumerate() {
            for &e in &entry_edge[span[0]..span[1]] {
                pos_path[cursor[e as usize]] = p as u32;
                cursor[e as usize] += 1;
            }
        }
        AdmmIndex {
            path_start,
            edge_start,
            pos_path,
            entry_edge,
        }
    }
}

/// Everything about an ADMM deployment that does *not* depend on the traffic
/// matrix: the incidence index, normalized capacities, and the per-path
/// objective discounts. Build once per `(topology, path set, objective)`
/// and mint a cheap [`AdmmBatchSolver`] per window of traffic matrices with
/// [`AdmmSkeleton::batch_solver`] — the zero-rebuild serving path.
#[derive(Clone)]
pub struct AdmmSkeleton {
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Capacity normalizer (1 / mean capacity).
    alpha: f64,
    /// Normalized capacities per edge.
    caps: Arc<Vec<f64>>,
    /// Per-path objective multiplier (1 for `TotalFlow`; latency discount
    /// for `DelayPenalizedFlow`).
    discount: Arc<Vec<f64>>,
    index: Arc<AdmmIndex>,
}

impl AdmmSkeleton {
    /// Build the per-topology solver state under a linear objective
    /// (`TotalFlow` or `DelayPenalizedFlow`; `MinMaxLinkUtil` uses
    /// [`crate::pathlp::solve_mlu`] instead).
    pub fn new(topo: &Topology, paths: &PathSet, obj: Objective) -> Self {
        assert!(
            !matches!(obj, Objective::MinMaxLinkUtil),
            "ADMM handles linear objectives; use solve_mlu for MLU"
        );
        let num_edges = topo.num_edges();
        // Normalize volumes/capacities by the mean capacity so ρ=1 is well
        // conditioned on every topology.
        let mean_cap = topo.total_capacity() / num_edges.max(1) as f64;
        let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
        let caps: Vec<f64> = topo.edges().iter().map(|e| e.capacity * alpha).collect();

        let discount: Vec<f64> = match obj {
            Objective::DelayPenalizedFlow(gamma) => {
                let max_w = paths
                    .paths()
                    .iter()
                    .map(|p| p.weight)
                    .fold(0.0f64, f64::max)
                    .max(1e-12);
                paths
                    .paths()
                    .iter()
                    .map(|p| (1.0 - gamma * p.weight / max_w).max(0.0))
                    .collect()
            }
            _ => vec![1.0; paths.num_paths()],
        };

        AdmmSkeleton {
            num_demands: paths.num_demands(),
            k: paths.k(),
            num_edges,
            alpha,
            caps: Arc::new(caps),
            discount: Arc::new(discount),
            index: Arc::new(AdmmIndex::new(paths, num_edges)),
        }
    }

    /// Rebind to a topology with altered capacities (e.g. failed links
    /// zeroed) while sharing the incidence index and discounts: only the
    /// capacity vector is recomputed, so failure overrides stay cheap.
    pub fn with_topology(&self, topo: &Topology) -> AdmmSkeleton {
        assert_eq!(
            topo.num_edges(),
            self.num_edges,
            "override edge count mismatch"
        );
        let mean_cap = topo.total_capacity() / self.num_edges.max(1) as f64;
        let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
        let caps: Vec<f64> = topo.edges().iter().map(|e| e.capacity * alpha).collect();
        AdmmSkeleton {
            alpha,
            caps: Arc::new(caps),
            ..self.clone()
        }
    }

    /// One-shot per-matrix solve for non-serving callers (LP baselines,
    /// experiments, tests): a batch of one on a throwaway solver and arena.
    /// Serving loops keep a solver and a [`BatchArena`] and call
    /// [`AdmmBatchSolver::run_batch_into`] instead.
    pub fn solve(
        &self,
        tm: &TrafficMatrix,
        init: &Allocation,
        cfg: AdmmConfig,
    ) -> (Allocation, AdmmReport) {
        let (mut outs, mut reports) = (Vec::new(), Vec::new());
        self.batch_solver(std::slice::from_ref(tm)).run_batch_into(
            std::slice::from_ref(init),
            cfg,
            &mut BatchArena::new(),
            &mut outs,
            &mut reports,
        );
        match (outs.pop(), reports.pop()) {
            (Some(out), Some(report)) => (out, report),
            _ => unreachable!("a batch of one yields one allocation and one report"),
        }
    }

    /// Mint the batched solver for a whole window of traffic matrices:
    /// per-lane normalized volumes are laid out structure-of-arrays
    /// (`[demand][lane]`), everything else is shared with the skeleton.
    /// O(batch × demands), no incidence rebuild. Steady-state
    /// servers keep the returned solver and rebind it to each new window
    /// with [`AdmmSkeleton::remint_batch_solver`] instead of minting fresh.
    pub fn batch_solver(&self, tms: &[TrafficMatrix]) -> AdmmBatchSolver {
        let mut solver = AdmmBatchSolver {
            batch: 0,
            num_demands: 0,
            k: 0,
            num_edges: 0,
            vols: Vec::new(),
            caps: Arc::clone(&self.caps),
            discount: Arc::clone(&self.discount),
            index: Arc::clone(&self.index),
        };
        self.remint_batch_solver(&mut solver, tms);
        solver
    }

    /// Rebind an existing [`AdmmBatchSolver`] to a new window, reusing its
    /// volume buffer (grow-only — allocation-free once it has reached the
    /// largest window shape seen). The solver may have been
    /// minted from a *different* skeleton (another topology, or this one
    /// with failure-overridden capacities): every shared handle is replaced,
    /// so the result is indistinguishable from [`AdmmSkeleton::batch_solver`].
    pub fn remint_batch_solver(&self, solver: &mut AdmmBatchSolver, tms: &[TrafficMatrix]) {
        assert!(!tms.is_empty(), "batch_solver requires at least one matrix");
        let nb = tms.len();
        solver.batch = nb;
        solver.num_demands = self.num_demands;
        solver.k = self.k;
        solver.num_edges = self.num_edges;
        solver.caps = Arc::clone(&self.caps);
        solver.discount = Arc::clone(&self.discount);
        solver.index = Arc::clone(&self.index);
        solver.vols.clear();
        solver.vols.resize(self.num_demands * nb, 0.0);
        for (b, tm) in tms.iter().enumerate() {
            assert_eq!(tm.len(), self.num_demands, "traffic matrix arity mismatch");
            for (d, v) in tm.demands().iter().enumerate() {
                solver.vols[d * nb + b] = v * self.alpha;
            }
        }
    }
}

/// Structure-of-arrays ADMM state for a batch of matrices: each per-matrix
/// array of length `L` becomes `L × batch` with lanes contiguous
/// (`value[i * batch + b]`). Rows are paths (`f`, `fstep`), demands (`s1`,
/// `l1`) or edges (the rest) — never incidence non-zeros.
#[derive(Default)]
struct BatchState {
    f: Vec<f64>,
    /// `ΔF_p` of the last F-update (the edge sweep's z-step needs it).
    fstep: Vec<f64>,
    s1: Vec<f64>,
    l1: Vec<f64>,
    s3: Vec<f64>,
    l3: Vec<f64>,
    /// `μ_e`: the value `λ4_pe` takes on every path of edge `e`.
    mu: Vec<f64>,
    /// `δ_e = z_pe − F_p·v_d`, likewise uniform over the edge's paths.
    delta: Vec<f64>,
    /// `ν_e = ρδ_e − μ_e`, what the F-update gathers along a path.
    nu: Vec<f64>,
}

impl BatchState {
    /// Resize every family to the given window shape and zero it. Buffers
    /// only ever grow, so once the largest window shape has been seen this
    /// performs no heap allocation.
    fn reset_for(&mut self, np: usize, nd: usize, ne: usize, nb: usize) {
        for (buf, len) in [
            (&mut self.f, np * nb),
            (&mut self.fstep, np * nb),
            (&mut self.s1, nd * nb),
            (&mut self.l1, nd * nb),
            (&mut self.s3, ne * nb),
            (&mut self.l3, ne * nb),
            (&mut self.mu, ne * nb),
            (&mut self.delta, ne * nb),
            (&mut self.nu, ne * nb),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

/// Reusable scratch for [`AdmmBatchSolver::run_batch_into`]: the SoA
/// [`BatchState`], per-lane bookkeeping and the sweeps' working rows.
/// Every buffer is grow-only, so a
/// server that keeps one arena per dispatch lane reaches an
/// **allocation-free steady state**: from the second window of a given
/// shape onwards, a full fine-tuning run performs zero heap allocations
/// (asserted by `tests/steady_state_alloc.rs`).
///
/// # Lifecycle and ownership
///
/// An arena is plain mutable scratch — it carries no results across
/// windows, only capacity. Exactly one solve may use it at a time (`&mut`
/// enforces this); different threads must use different arenas. It is not
/// tied to any skeleton or topology: reusing one arena across topologies,
/// capacity overrides, or weight swaps is safe and merely re-grows buffers
/// on shape changes.
pub struct BatchArena {
    st: BatchState,
    active: Vec<bool>,
    iterations: Vec<usize>,
    residual: Vec<f64>,
    /// The iteration's lane maxima, `[F-step | z-step | primal]`
    /// (`3 × batch`), zeroed and rewritten by every iteration's sweeps.
    steps: Vec<f64>,
    /// Per-lane primal/dual residuals captured at each lane's *last active*
    /// iteration (`steps` is overwritten every iteration, including for
    /// lanes already frozen by the convergence mask).
    primal_final: Vec<f64>,
    dual_final: Vec<f64>,
    /// The demand sweep's `(2k + 4) × batch` working rows; the edge sweep
    /// reuses the first three.
    scratch: Vec<f64>,
}

impl Default for BatchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchArena {
    /// An empty arena; buffers grow to fit the first solve that uses it.
    pub fn new() -> Self {
        BatchArena {
            st: BatchState::default(),
            active: Vec::new(),
            iterations: Vec::new(),
            residual: Vec::new(),
            steps: Vec::new(),
            primal_final: Vec::new(),
            dual_final: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Size every buffer for one window of `solver`.
    fn prepare(&mut self, solver: &AdmmBatchSolver) {
        let nb = solver.batch;
        let np = solver.num_demands * solver.k;
        self.st
            .reset_for(np, solver.num_demands, solver.num_edges, nb);
        self.active.clear();
        self.active.resize(nb, true);
        self.iterations.clear();
        self.iterations.resize(nb, 0);
        for buf in [
            &mut self.residual,
            &mut self.primal_final,
            &mut self.dual_final,
        ] {
            buf.clear();
            buf.resize(nb, f64::INFINITY);
        }
        self.steps.clear();
        self.steps.resize(3 * nb, 0.0);
        self.scratch.clear();
        self.scratch.resize((2 * solver.k + 4) * nb, 0.0);
    }
}

/// Lane row `i` of an `[row][lane]` family.
#[inline(always)]
fn row(data: &[f64], i: usize, nb: usize) -> &[f64] {
    &data[i * nb..][..nb]
}

/// Mutable lane row `i` of an `[row][lane]` family.
#[inline(always)]
fn row_mut(data: &mut [f64], i: usize, nb: usize) -> &mut [f64] {
    &mut data[i * nb..][..nb]
}

/// One slack row `sum + s = cap`: the non-negative projection
/// `s ← max(0, cap − sum − λ/ρ)`, then the dual ascent `λ ← λ + ρg` on the
/// row's new residual `g`. Returns `|g|`.
#[inline(always)]
fn slack_ascent(cap: f64, sum: f64, rho: f64, s: &mut f64, l: &mut f64) -> f64 {
    *s = (cap - sum - *l / rho).max(0.0);
    let g = sum + *s - cap;
    *l += rho * g;
    g.abs()
}

/// The ADMM solver: repairs a whole window of traffic matrices in **one
/// pass over the shared incidence index per sweep**, instead of re-reading
/// the index once per matrix. Minted by [`AdmmSkeleton::batch_solver`]; see
/// the module docs for the per-edge form of the iteration, the SoA layout
/// and per-matrix convergence-mask semantics.
///
/// Lanes are independent: a batch of `B` produces bitwise the allocations,
/// iteration counts, and residuals of `B` batch-of-1 runs (the per-lane
/// arithmetic is identical, operation for operation) — property-tested in
/// `tests/batch_equivalence.rs`, with a pinned golden hash and a literal
/// Appendix C twin guarding the arithmetic itself.
pub struct AdmmBatchSolver {
    batch: usize,
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Normalized demand volumes, `[demand][lane]`.
    vols: Vec<f64>,
    /// Normalized capacities per edge (shared across lanes).
    caps: Arc<Vec<f64>>,
    /// Per-path objective multiplier (shared across lanes); a path's
    /// objective coefficient in lane `b` is `vols[d][b] * discount[p]`.
    discount: Arc<Vec<f64>>,
    /// Shared incidence index.
    index: Arc<AdmmIndex>,
}

impl AdmmBatchSolver {
    /// Number of matrices in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Run ADMM on every lane from its own warm start (each projected onto
    /// the demand constraints first). With `cfg.tol > 0`, lanes stop
    /// independently once their residual clears the bar (the convergence
    /// mask); the rest keep sweeping. Every byte of working state lives in
    /// the caller's [`BatchArena`] and the refined allocations and
    /// per-matrix reports land in the caller's `outs`/`reports` (reused in
    /// place when shapes match, else replaced). With a retained arena and
    /// output buffers, the second and later windows of a steady-state
    /// serving loop perform **zero heap allocations** end to end. Results
    /// never depend on what the arena served before.
    pub fn run_batch_into(
        &self,
        inits: &[Allocation],
        cfg: AdmmConfig,
        arena: &mut BatchArena,
        outs: &mut Vec<Allocation>,
        reports: &mut Vec<AdmmReport>,
    ) {
        assert_eq!(inits.len(), self.batch, "init count != batch size");
        let nb = self.batch;
        let k = self.k;
        let np = self.num_demands * k;
        arena.prepare(self);
        let BatchArena {
            st,
            active,
            iterations,
            residual,
            steps,
            primal_final,
            dual_final,
            scratch,
        } = arena;

        // Warm-start copy plus the per-lane demand projection, done directly
        // in the SoA lanes: same clamp / sum / rescale order as
        // `Allocation::project_demand_constraints`, so the start is bitwise
        // identical to projecting each init and copying it in, without a
        // clone per init.
        for (b, init) in inits.iter().enumerate() {
            assert_eq!(init.num_demands(), self.num_demands);
            assert_eq!(init.k(), k);
            for (p, &v) in init.splits().iter().enumerate() {
                st.f[p * nb + b] = v;
            }
        }
        for d in 0..self.num_demands {
            for b in 0..nb {
                let mut sum = 0.0;
                for j in 0..k {
                    let v = &mut st.f[(d * k + j) * nb + b];
                    if !v.is_finite() || *v < 0.0 {
                        *v = 0.0;
                    }
                    sum += *v;
                }
                if sum > 1.0 {
                    for j in 0..k {
                        st.f[(d * k + j) * nb + b] /= sum;
                    }
                }
            }
        }
        // Near-consistent start: z matches the warm-started flows (δ = 0,
        // as `reset_for` left it, with μ = ν = 0), slacks absorb the
        // residual capacities.
        for d in 0..self.num_demands {
            for b in 0..nb {
                let mut sum = 0.0;
                for j in 0..k {
                    sum += st.f[(d * k + j) * nb + b];
                }
                st.s1[d * nb + b] = (1.0 - sum).max(0.0);
            }
        }
        for e in 0..self.num_edges {
            let s3_e = row_mut(&mut st.s3, e, nb);
            for &p in &self.index.pos_path[self.index.edge_start[e]..self.index.edge_start[e + 1]] {
                let p = p as usize;
                let flows = row(&st.f, p, nb).iter().zip(row(&self.vols, p / k, nb));
                for (sv, (&fv, &vol)) in s3_e.iter_mut().zip(flows) {
                    *sv += fv * vol;
                }
            }
            for sv in s3_e {
                *sv = (self.caps[e] - *sv).max(0.0);
            }
        }

        let rho = cfg.rho;
        for _ in 0..cfg.max_iters {
            let live = active.iter().filter(|&&a| a).count();
            if live == 0 {
                break;
            }
            // All-lanes-active fast path: until the first lane freezes
            // (never, under the paper's fixed-iteration fine-tuning), the
            // sweeps run the instantiation compiled without the mask test.
            let sweeps = if live == nb {
                Self::sweep::<false>
            } else {
                Self::sweep::<true>
            };
            sweeps(self, st, active, rho, scratch, steps);
            let (df, rest) = steps.split_at(nb);
            let (dz, primal) = rest.split_at(nb);
            for b in 0..nb {
                if !active[b] {
                    continue;
                }
                iterations[b] += 1;
                // Two-sided convergence test: feasibility (primal) plus a
                // stationary iterate (dual ~ ρ · step) — primal alone is
                // satisfied by the all-zero point.
                primal_final[b] = primal[b];
                dual_final[b] = rho * df[b].max(dz[b]);
                residual[b] = primal_final[b].max(dual_final[b]);
                if cfg.tol > 0.0 && residual[b] < cfg.tol {
                    active[b] = false;
                }
            }
        }

        outs.truncate(nb);
        reports.clear();
        for b in 0..nb {
            if b == outs.len() {
                outs.push(Allocation::zeros(self.num_demands, k));
            } else if outs[b].k() != k || outs[b].splits().len() != np {
                outs[b] = Allocation::zeros(self.num_demands, k);
            }
            let out = &mut outs[b];
            for (p, s) in out.splits_mut().iter_mut().enumerate() {
                *s = st.f[p * nb + b];
            }
            out.project_demand_constraints();
            reports.push(AdmmReport {
                iterations: iterations[b],
                primal_residual: primal_final[b],
                dual_residual: dual_final[b],
            });
        }
    }

    /// One ADMM iteration: the demand sweep, then the edge sweep, both on
    /// the calling thread. They keep the iteration's lane maxima in `steps`
    /// (`[F-step | z-step | primal]`, `3 × batch`), zeroed here first.
    /// `MASKED` compiles the convergence-mask test into the commit loops;
    /// the `false` instantiation ignores `active` and commits every lane.
    fn sweep<const MASKED: bool>(
        &self,
        st: &mut BatchState,
        active: &[bool],
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        steps.fill(0.0);
        self.demand_sweep::<MASKED>(st, active, rho, scratch, steps);
        self.edge_sweep::<MASKED>(st, active, rho, scratch, steps);
    }

    /// Per demand, the F-update (one walk of each path's edges gathers ν
    /// for every lane), then the demand's own s1 projection and λ1 ascent
    /// on the new F. Writes `F`, its step, `s1`, `λ1`; reads `ν`.
    ///
    /// Out of line on purpose, like [`Self::edge_sweep`]: inlined into one
    /// body the two loops ran `run_batch_into` ≈ 20 % slower at 8 lanes
    /// (same process, 1,024 and 256 nodes).
    #[inline(never)]
    fn demand_sweep<const MASKED: bool>(
        &self,
        st: &mut BatchState,
        active: &[bool],
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        let idx = &*self.index;
        let (f, fstep): (&mut [f64], &mut [f64]) = (&mut st.f, &mut st.fstep);
        let (s1, l1): (&mut [f64], &mut [f64]) = (&mut st.s1, &mut st.l1);
        let nu: &[f64] = &st.nu;
        let (ldf, rest) = steps.split_at_mut(nb);
        let lpr = &mut rest[nb..2 * nb];
        let (b, tile) = scratch.split_at_mut(k * nb);
        let (diag, tile) = tile.split_at_mut(k * nb);
        let (sum_binv, tile) = tile.split_at_mut(nb);
        let (sum_inv, tile) = tile.split_at_mut(nb);
        let (corr, tile) = tile.split_at_mut(nb);
        let sum = &mut tile[..nb];
        for d in 0..self.num_demands {
            let vols_d = row(&self.vols, d, nb);
            let s1_d = row_mut(s1, d, nb);
            let l1_d = row_mut(l1, d, nb);
            for j in 0..k {
                let p = d * k + j;
                let bj = row_mut(b, j, nb);
                let ents = &idx.entry_edge[idx.path_start[p]..idx.path_start[p + 1]];
                bj.fill(0.0);
                for &e in ents {
                    for (bv, &nv) in bj.iter_mut().zip(row(nu, e as usize, nb)) {
                        *bv += nv;
                    }
                }
                let len = ents.len() as f64;
                let disc = self.discount[p];
                let fp = row(f, p, nb);
                for ((bv, dj), ((&vol, &fv), (&l1v, &s1v))) in bj
                    .iter_mut()
                    .zip(row_mut(diag, j, nb))
                    .zip(vols_d.iter().zip(fp).zip(l1_d.iter().zip(&*s1_d)))
                {
                    *dj = rho * vol * vol * len;
                    *bv = vol * disc - l1v - rho * (s1v - 1.0) + vol * *bv + *dj * fv;
                }
            }
            sum_binv.fill(0.0);
            sum_inv.fill(0.0);
            for j in 0..k {
                for ((sb, si), (&bv, &dv)) in sum_binv
                    .iter_mut()
                    .zip(sum_inv.iter_mut())
                    .zip(row(b, j, nb).iter().zip(row(diag, j, nb)))
                {
                    *sb += bv / dv;
                    *si += 1.0 / dv;
                }
            }
            // Sherman-Morrison solve of (diag + rho*11^T) x = b.
            for ((cv, &sb), &si) in corr.iter_mut().zip(&*sum_binv).zip(&*sum_inv) {
                *cv = rho * sb / (1.0 + rho * si);
            }
            sum.fill(0.0);
            for j in 0..k {
                let bj = row(b, j, nb);
                let dj = row(diag, j, nb);
                let fp = row_mut(f, d * k + j, nb);
                let sp = row_mut(fstep, d * k + j, nb);
                for lane in 0..nb {
                    if MASKED && !active[lane] {
                        continue;
                    }
                    let x = if vols_d[lane] <= 0.0 {
                        0.0
                    } else {
                        ((bj[lane] - corr[lane]) / dj[lane]).clamp(0.0, 1.0)
                    };
                    sp[lane] = x - fp[lane];
                    fp[lane] = x;
                    ldf[lane] = ldf[lane].max(sp[lane].abs());
                    sum[lane] += x;
                }
            }
            for lane in 0..nb {
                if MASKED && !active[lane] {
                    continue;
                }
                let g = slack_ascent(1.0, sum[lane], rho, &mut s1_d[lane], &mut l1_d[lane]);
                lpr[lane] = lpr[lane].max(g);
            }
        }
    }

    /// Per edge, one walk of its paths for `S_e` and the extreme F-steps,
    /// then `δ_e`, `s3`, `λ3`, `μ_e` and `ν_e` in closed form. Writes the
    /// per-edge families; reads `F` and its step.
    #[inline(never)]
    fn edge_sweep<const MASKED: bool>(
        &self,
        st: &mut BatchState,
        active: &[bool],
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        let idx = &*self.index;
        let (f, fstep): (&[f64], &[f64]) = (&st.f, &st.fstep);
        let (s3, l3): (&mut [f64], &mut [f64]) = (&mut st.s3, &mut st.l3);
        let (mu, delta): (&mut [f64], &mut [f64]) = (&mut st.mu, &mut st.delta);
        let nu: &mut [f64] = &mut st.nu;
        let (ldz, lpr) = steps[nb..].split_at_mut(nb);
        let lpr = &mut lpr[..nb];
        let (flow, tile) = scratch.split_at_mut(nb);
        let (hi, tile) = tile.split_at_mut(nb);
        let lo = &mut tile[..nb];
        for e in 0..self.num_edges {
            let cap = self.caps[e];
            let s3_e = row_mut(s3, e, nb);
            let l3_e = row_mut(l3, e, nb);
            let on_edge = &idx.pos_path[idx.edge_start[e]..idx.edge_start[e + 1]];
            if on_edge.is_empty() {
                // No path crosses the edge: there is no z to update,
                // only the slack row `s3 = c`.
                for lane in 0..nb {
                    if MASKED && !active[lane] {
                        continue;
                    }
                    let g = slack_ascent(cap, 0.0, rho, &mut s3_e[lane], &mut l3_e[lane]);
                    lpr[lane] = lpr[lane].max(g);
                }
                continue;
            }
            flow.fill(0.0);
            hi.fill(f64::NEG_INFINITY);
            lo.fill(f64::INFINITY);
            for &p in on_edge {
                let p = p as usize;
                let path = row(f, p, nb).iter().zip(row(fstep, p, nb));
                for (((sv, hv), lv), ((&fv, &step), &vol)) in flow
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(lo.iter_mut())
                    .zip(path.zip(row(&self.vols, p / k, nb)))
                {
                    *sv += fv * vol;
                    let moved = step * vol;
                    *hv = hv.max(moved);
                    *lv = lv.min(moved);
                }
            }
            let n = on_edge.len() as f64;
            let mu_e = row_mut(mu, e, nb);
            let delta_e = row_mut(delta, e, nb);
            let nu_e = row_mut(nu, e, nb);
            for lane in 0..nb {
                if MASKED && !active[lane] {
                    continue;
                }
                let a = -l3_e[lane] - rho * (s3_e[lane] - cap) + mu_e[lane];
                let d = (a - rho * flow[lane]) / (rho * (1.0 + n));
                // |Δz_pe| = |ΔF_p·v + Δδ_e| peaks at an extreme F-step.
                let dd = d - delta_e[lane];
                ldz[lane] = ldz[lane]
                    .max((hi[lane] + dd).abs())
                    .max((lo[lane] + dd).abs());
                delta_e[lane] = d;
                let g = slack_ascent(
                    cap,
                    flow[lane] + n * d,
                    rho,
                    &mut s3_e[lane],
                    &mut l3_e[lane],
                );
                // λ4 ascent on F_p·v − z_pe = −δ_e, every path alike.
                mu_e[lane] -= rho * d;
                nu_e[lane] = rho * d - mu_e[lane];
                lpr[lane] = lpr[lane].max(g).max(d.abs());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::evaluate;
    use crate::problem::TeInstance;
    use crate::simplex;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    fn diamond() -> Topology {
        let mut t = Topology::new("d", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.5);
        t.add_link(2, 3, 10.0, 1.5);
        t.add_link(0, 3, 5.0, 4.0);
        t
    }

    /// Exact optimum of the same LP via simplex, for comparison.
    fn simplex_optimum(inst: &TeInstance) -> f64 {
        let k = inst.k();
        let vc = inst.value_coefficients(Objective::TotalFlow);
        let mut rows = Vec::new();
        for d in 0..inst.num_demands() {
            let coeffs = (0..k).map(|j| (d * k + j, 1.0)).collect();
            rows.push(simplex::Row { coeffs, rhs: 1.0 });
        }
        for e in 0..inst.topo.num_edges() {
            let plist = inst.paths.paths_on_edge(e);
            if plist.is_empty() {
                continue;
            }
            let coeffs = plist
                .iter()
                .map(|&p| (p as usize, inst.tm.demand(p as usize / k)))
                .collect();
            rows.push(simplex::Row {
                coeffs,
                rhs: inst.topo.edge(e).capacity,
            });
        }
        let r = simplex::solve(&vc, &rows, 50_000);
        assert_eq!(r.status, simplex::SimplexStatus::Optimal);
        r.objective
    }

    /// One-shot batch-of-1 solve of `inst` under `TotalFlow`.
    fn solve(inst: &TeInstance, init: &Allocation, cfg: AdmmConfig) -> (Allocation, AdmmReport) {
        AdmmSkeleton::new(inst.topo, inst.paths, Objective::TotalFlow).solve(inst.tm, init, cfg)
    }

    #[test]
    fn admm_converges_to_lp_optimum_single_demand() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        // Demand exceeds single-path capacity: optimum uses all 25 units of
        // cut capacity.
        let tm = TrafficMatrix::new(vec![30.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, report) = solve(
            &inst,
            &Allocation::zeros(1, 4),
            AdmmConfig::to_convergence(),
        );
        let stats = evaluate(&inst, &alloc);
        let opt = simplex_optimum(&inst);
        assert!(
            stats.realized_flow > 0.95 * opt,
            "admm {} vs simplex {} (residual {})",
            stats.realized_flow,
            opt,
            report.primal_residual
        );
        assert!(alloc.demand_feasible(1e-6));
    }

    #[test]
    fn admm_matches_simplex_multi_demand() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize), (3usize, 0usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![12.0, 9.0, 15.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, _) = solve(
            &inst,
            &Allocation::zeros(3, 4),
            AdmmConfig::to_convergence(),
        );
        let got = evaluate(&inst, &alloc).realized_flow;
        let opt = simplex_optimum(&inst);
        assert!(got > 0.93 * opt, "admm {got} vs simplex {opt}");
    }

    #[test]
    fn few_iterations_reduce_violations_of_bad_start() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![40.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        // Grossly infeasible warm start: everything on every path.
        let bad = Allocation::from_splits(4, vec![1.0, 1.0, 1.0, 1.0]);
        let mut bad_proj = bad.clone();
        bad_proj.project_demand_constraints();
        let before = evaluate(&inst, &bad_proj).total_overuse;
        let (tuned, _) = solve(
            &inst,
            &bad,
            AdmmConfig {
                rho: 1.0,
                max_iters: 5,
                tol: 0.0,
            },
        );
        let after = evaluate(&inst, &tuned).total_overuse;
        assert!(after < before, "overuse before {before}, after {after}");
    }

    #[test]
    fn warm_start_speeds_convergence() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![18.0, 6.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        // Near-optimal warm start.
        let (near_opt, _) = solve(
            &inst,
            &Allocation::zeros(2, 4),
            AdmmConfig::to_convergence(),
        );
        let opt_flow = evaluate(&inst, &near_opt).realized_flow;
        let cfg5 = AdmmConfig {
            rho: 1.0,
            max_iters: 5,
            tol: 0.0,
        };
        let (from_warm, _) = solve(&inst, &near_opt, cfg5);
        let warm_flow = evaluate(&inst, &from_warm).realized_flow;
        // Five fine-tuning iterations on a near-optimal warm start must
        // preserve near-optimality (the property §3.4 relies on).
        assert!(
            warm_flow >= 0.90 * opt_flow,
            "warm 5-iter flow {warm_flow} degraded from optimum {opt_flow}"
        );
    }

    #[test]
    fn zero_demand_yields_zero_allocation() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![0.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, _) = solve(
            &inst,
            &Allocation::shortest_path(1, 4),
            AdmmConfig::to_convergence(),
        );
        assert!(alloc.splits().iter().all(|&v| v == 0.0));
    }
}
