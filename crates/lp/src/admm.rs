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
//! An edge that no candidate path crosses (`n_e = 0`) has a capacity row
//! with no variable in it: from the first iteration its slack stays at
//! `s3_e = c_e`, its dual at `λ3_e = 0` and its residual at exactly 0, so
//! it gets no row at all. The index keeps **one row per crossed edge**
//! (with 2,048 gravity pairs, 30 % of `large_wan(1024)`'s edges carry no
//! candidate path), and every per-edge family, sweep and capacity below is
//! per row.
//!
//! The solver therefore stores `μ` and `δ` per row and the last F-step per
//! path (in the window's own allocations, see "Arena reuse" below), and
//! nothing whose size is the incidence non-zero count.
//! `ν = ρδ − μ` is recomputed where the demand sweep gathers it, from the
//! same operands the edge sweep would have stored it from, so no bit
//! moves. These are
//! the same real-arithmetic iterates as Appendix C's, rounded differently
//! (~1e-12): `tests/batch_equivalence.rs` checks them against a literal
//! per-entry twin (`tests/common/twin.rs`), which also asserts the identity.
//!
//! An iteration is **two sweeps**, each a loop on the calling thread:
//!
//! 1. **demand sweep** — per demand, the F-update, then that demand's
//!    `s1` projection and `λ1` ascent (they read only the demand's own new
//!    `F`);
//! 2. **edge sweep** — per row (crossed edge), one walk of its paths for
//!    `S_e` and the extreme F-steps, then `δ_e`, the `s3` projection, and
//!    the `λ3`/`μ_e` ascents in closed form.
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
//!   `F`, per-demand `s1`/`λ1`, per crossed edge `s3`/`λ3`/`μ`/`δ` — so
//!   for a batch of `B` matrices, row `i` of matrix `b` lives at
//!   `i * B + b`. The per-path F-step's lane rows are `B` wide too, but are
//!   laid in blocks across the window's allocations (see "Arena reuse").
//!   Batch lanes of one subproblem are contiguous, so each per-demand /
//!   per-edge subproblem walks the incidence index **once** and repairs the
//!   whole window in that single pass, instead of `B` passes re-reading the
//!   index per matrix.
//! * **Per-edge exchange.** The two sweeps talk only through per-path rows
//!   (`F` in the arena and its step in the allocations: written by the
//!   demand sweep, read by the edge sweep) and per-edge rows (`μ`, `δ`:
//!   the reverse).
//! * **Flat incidence arena.** The shared index is two flat CSR-style
//!   arenas (path-major row ids, row-major path ids) — no per-path or
//!   per-edge `Vec`s — so each sweep's incidence walk is one linear scan of
//!   a contiguous `u32` slice; the row-major one is the path set's own
//!   edge→path arena, held, not copied. See `AdmmIndex` for the layout.
//! * **Serial.** One solve never leaves the calling thread: a sweep's rows
//!   split over a CPU pool need two dispatches per iteration, and the
//!   hand-offs did not pay for themselves at the sizes served. Lanes are
//!   what commute without a barrier, so a caller that wants a second core
//!   runs `run_batch_in_place` on a sub-slice of the window — the same
//!   lanes, bitwise, at `tol = 0`.
//! * **One iteration count per window.** Every lane of a window runs the
//!   same number of iterations. With `tol > 0` the window stops at the
//!   first iteration where every lane's residual is below `tol`, so each
//!   lane is bitwise its own batch-of-1 run of that many iterations
//!   (`tests/batch_equivalence.rs` checks it). The paper's fine-tuning
//!   runs a fixed count (`tol = 0`), and there a batch of `B` is bitwise
//!   `B` batch-of-1 runs; the one-shot `tol > 0` callers (LP-all,
//!   Figure 2's racers) solve a batch of one.
//! * **Arena reuse (allocation-free steady state).** Every byte of mutable
//!   solver state — the SoA families, sweep scratch, step maxima —
//!   lives in a caller-owned [`BatchArena`] of grow-only
//!   buffers, none of which scales with the incidence non-zero count, or
//!   in the window's own allocations. The solve copies the warm starts
//!   into `F` at entry and writes the refined splits over them at exit
//!   ([`AdmmBatchSolver::run_batch_in_place`]), so a window has no second
//!   set of output allocations, and in between their `B · paths` values
//!   are dead: the F-step's `[path][lane]` rows live there. With
//!   `q = ⌊paths / B⌋`, allocation `j` holds rows `j·q .. (j+1)·q`, row `p`
//!   at offset `(p − j·q)·B`; the fewer than `B` rows left over live in
//!   the arena's small tail. A serving loop that keeps one arena (plus
//!   its `Vec<AdmmReport>`) and rebinds the solver per window with
//!   [`AdmmSkeleton::remint_batch_solver`] performs **zero heap
//!   allocations** from the second window onwards (asserted, with the
//!   first window's exact byte footprint, by `tests/steady_state_alloc.rs`).
//!   See [`BatchArena`] for the ownership rules: one solve at a time, one
//!   arena per thread, safe to carry across topology changes and weight
//!   swaps.

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
    /// Stop a window early once every lane's [`AdmmReport::residual`] is
    /// below this (0 disables early stopping — the paper's fine-tuning
    /// always runs a fixed count).
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
/// allocations. It has one *row* per crossed edge (`live` maps rows back to
/// topology edge ids); an edge no path crosses has none. Offsets are `u32`,
/// like the path set's.
///
/// * **Path-major** (`entry_row`): walking every hop of every candidate
///   path in order, so path `p`'s rows are the contiguous range
///   `entry_row[path_start[p]..path_start[p + 1]]` — the demand sweep's
///   gather of `ν_e` over a path is one linear scan. `path_start` is the
///   path set's own path-major offsets ([`PathSet::path_edge_offsets`],
///   shared through its `Arc`): one entry per hop, in hop order.
/// * **Row-major** (`pos_path`): the same non-zeros regrouped so row `r`
///   owns the contiguous range `pos_path[row_start[r]..row_start[r + 1]]`
///   (ascending path ids, never empty) — the edge sweep's sum over an
///   edge's paths is one linear scan. This is the path set's edge→path
///   arena itself ([`PathSet::edge_path_arena`]), shared through its `Arc`:
///   rows are the crossed edges in ascending order and an uncrossed edge's
///   span is empty, so `row_start[r]` is the path set's offset of edge
///   `live[r]`.
///
/// Solver *state* is indexed by path, demand or row only; nothing is
/// stored per non-zero. What the index owns is `entry_row` (4 B per
/// non-zero) and, per row, `row_start` and `live` (4 B each, plus
/// `row_start`'s closing offset).
struct AdmmIndex {
    /// Range of each path in `entry_row`: `path_start[p]..path_start[p + 1]`,
    /// the path set's path-major offsets.
    path_start: Arc<[u32]>,
    /// Range of each row in `pos_path`: `row_start[r]..row_start[r + 1]`.
    row_start: Vec<u32>,
    /// Path id of each non-zero, row-major: the path set's `e2p`.
    pos_path: Arc<[u32]>,
    /// Row id of each non-zero, path-major.
    entry_row: Vec<u32>,
    /// Topology edge id of each row, ascending: the crossed edges.
    live: Vec<u32>,
}

impl AdmmIndex {
    /// Rows from the path set's edge→path offsets, then one walk of every
    /// path's edges renumbered to rows — O(nnz + edges).
    fn new(paths: &PathSet) -> Self {
        let (e2p_off, e2p) = paths.edge_path_arena();
        let rows = e2p_off.windows(2).filter(|s| s[0] < s[1]).count();
        let mut row_of = vec![u32::MAX; paths.num_edges()];
        let mut live = Vec::with_capacity(rows);
        let mut row_start = Vec::with_capacity(rows + 1);
        row_start.push(0);
        for (e, span) in e2p_off.windows(2).enumerate() {
            if span[0] < span[1] {
                row_of[e] = live.len() as u32;
                live.push(e as u32);
                row_start.push(span[1]);
            }
        }
        let mut entry_row = Vec::with_capacity(e2p.len());
        for path in paths.paths() {
            entry_row.extend(path.edges.iter().map(|&e| row_of[e]));
        }
        AdmmIndex {
            path_start: Arc::clone(paths.path_edge_offsets()),
            row_start,
            pos_path: Arc::clone(e2p),
            entry_row,
            live,
        }
    }

    /// The path ids of row `r`, ascending.
    fn row_paths(&self, r: usize) -> &[u32] {
        &self.pos_path[self.row_start[r] as usize..self.row_start[r + 1] as usize]
    }

    /// The rows path `p` crosses, in path order.
    fn path_rows(&self, p: usize) -> &[u32] {
        &self.entry_row[self.path_start[p] as usize..self.path_start[p + 1] as usize]
    }

    /// The `1 / mean capacity` normalizer of `topo` and its normalized
    /// capacities, one per row. O(edges).
    fn row_caps(&self, topo: &Topology) -> (f64, Vec<f64>) {
        let mean_cap = topo.total_capacity() / topo.num_edges().max(1) as f64;
        let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
        let edges = topo.edges();
        let caps = self
            .live
            .iter()
            .map(|&e| edges[e as usize].capacity * alpha)
            .collect();
        (alpha, caps)
    }
}

/// Everything about an ADMM deployment that does *not* depend on the traffic
/// matrix: the incidence index, normalized capacities, and the per-path
/// objective discounts. Build once per `(topology, path set, objective)`
/// and mint a cheap [`AdmmBatchSolver`] per window of traffic matrices with
/// [`AdmmSkeleton::batch_solver`] — the zero-rebuild serving path.
///
/// What it owns, beyond its own fields: per row (crossed edge) an `f64`
/// capacity and the index's two `u32`s, per non-zero the index's `u32` row
/// id, and per path an `f64` discount only under `DelayPenalizedFlow` —
/// `TotalFlow` stores none, and no per-path offsets (the index shares the
/// path set's). Plus one `Arc` block each for the capacities and the
/// index.
#[derive(Clone)]
pub struct AdmmSkeleton {
    num_demands: usize,
    k: usize,
    num_edges: usize,
    /// Capacity normalizer (1 / mean capacity).
    alpha: f64,
    /// Normalized capacities per row (crossed edge).
    caps: Arc<Vec<f64>>,
    /// Per-path latency discount under `DelayPenalizedFlow`; `None` under
    /// `TotalFlow`, whose every path has objective multiplier 1.
    discount: Option<Arc<Vec<f64>>>,
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
        let index = AdmmIndex::new(paths);
        // Normalize volumes/capacities by the mean capacity so ρ=1 is well
        // conditioned on every topology.
        let (alpha, caps) = index.row_caps(topo);

        let discount = match obj {
            Objective::DelayPenalizedFlow(gamma) => {
                Some(Arc::new(crate::flow::latency_discounts(paths, gamma)))
            }
            _ => None,
        };

        AdmmSkeleton {
            num_demands: paths.num_demands(),
            k: paths.k(),
            num_edges,
            alpha,
            caps: Arc::new(caps),
            discount,
            index: Arc::new(index),
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
        let (alpha, caps) = self.index.row_caps(topo);
        AdmmSkeleton {
            alpha,
            caps: Arc::new(caps),
            ..self.clone()
        }
    }

    /// One-shot per-matrix solve for non-serving callers (LP baselines,
    /// experiments, tests): a batch of one on a throwaway solver and arena.
    /// Serving loops keep a solver and a [`BatchArena`] and call
    /// [`AdmmBatchSolver::run_batch_in_place`] instead.
    pub fn solve(
        &self,
        tm: &TrafficMatrix,
        init: &Allocation,
        cfg: AdmmConfig,
    ) -> (Allocation, AdmmReport) {
        let mut out = init.clone();
        let mut reports = Vec::new();
        self.batch_solver(std::slice::from_ref(tm))
            .run_batch_in_place(
                std::slice::from_mut(&mut out),
                cfg,
                &mut BatchArena::new(),
                &mut reports,
            );
        match reports.pop() {
            Some(report) => (out, report),
            None => unreachable!("a batch of one yields one report"),
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
            vols: Vec::new(),
            caps: Arc::clone(&self.caps),
            discount: self.discount.clone(),
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
        solver.caps = Arc::clone(&self.caps);
        solver.discount = self.discount.clone();
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
/// (`value[i * batch + b]`). Rows are paths (`f`), demands (`s1`, `l1`) or
/// crossed edges (the rest) — never incidence non-zeros, and never an edge
/// no path crosses. `ν = ρδ − μ` is recomputed, not stored, and the F-step
/// lives in [`StepRows`].
#[derive(Default)]
struct BatchState {
    f: Vec<f64>,
    s1: Vec<f64>,
    l1: Vec<f64>,
    s3: Vec<f64>,
    l3: Vec<f64>,
    /// `μ_e`: the value `λ4_pe` takes on every path of edge `e`.
    mu: Vec<f64>,
    /// `δ_e = z_pe − F_p·v_d`, likewise uniform over the edge's paths.
    delta: Vec<f64>,
}

impl BatchState {
    /// Resize every family to the given window shape and zero it. Buffers
    /// only ever grow, so once the largest window shape has been seen this
    /// performs no heap allocation.
    fn reset_for(&mut self, np: usize, nd: usize, ne: usize, nb: usize) {
        for (buf, len) in [
            (&mut self.f, np * nb),
            (&mut self.s1, nd * nb),
            (&mut self.l1, nd * nb),
            (&mut self.s3, ne * nb),
            (&mut self.l3, ne * nb),
            (&mut self.mu, ne * nb),
            (&mut self.delta, ne * nb),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

/// Reusable scratch for [`AdmmBatchSolver::run_batch_in_place`]: the SoA
/// `BatchState` (lane rows per path, demand and crossed edge; `ν = ρδ − μ`
/// is recomputed), the iteration's lane maxima, the sweeps' working rows
/// and the F-step's tail. The F-step's other rows borrow the window's
/// allocations for the length of the solve (see the module docs' "Arena
/// reuse"), so the arena holds one per-path family, `F`. The tail reserves `batch²`
/// values, so a later, narrower window never grows it.
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
/// enforces this); different threads must use different arenas (the
/// serving engine keeps one in a private thread-local per serving thread).
/// It is not tied to any skeleton or topology: reusing one arena across
/// topologies, capacity overrides, or weight swaps is safe and merely
/// re-grows buffers on shape changes.
pub struct BatchArena {
    st: BatchState,
    /// The iteration's lane maxima, `[F-step | z-step | primal]`
    /// (`3 × batch`), zeroed and rewritten by every iteration's sweeps; the
    /// last iteration's are the reports' residuals.
    steps: Vec<f64>,
    /// The demand sweep's `(2k + 4) × batch` working rows; the edge sweep
    /// reuses the first three.
    scratch: Vec<f64>,
    /// The F-step rows the allocations cannot hold: `paths mod batch` of
    /// them (every row when `batch > paths`). Capacity `batch²` or more.
    tail: Vec<f64>,
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
            steps: Vec::new(),
            scratch: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Size every buffer for one window of `solver`.
    fn prepare(&mut self, solver: &AdmmBatchSolver) {
        let nb = solver.batch;
        let np = solver.num_demands * solver.k;
        self.st
            .reset_for(np, solver.num_demands, solver.caps.len(), nb);
        self.steps.clear();
        self.steps.resize(3 * nb, 0.0);
        self.scratch.clear();
        self.scratch.resize((2 * solver.k + 4) * nb, 0.0);
        self.tail.clear();
        self.tail.reserve_exact(nb * nb);
        self.tail.resize(np % nb * nb, 0.0);
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

/// The F-step's `[path][lane]` rows (`ΔF_p` of the last F-update, which the
/// edge sweep's z-step needs) for the length of one solve: with
/// `q = ⌊np / nb⌋`, allocation `j` holds rows `j·q .. (j+1)·q`, row `p` at
/// offset `(p − j·q)·nb`, and the `np mod nb` rows left over are the
/// arena's tail. The allocations' values are dead between the warm-start
/// copy and the write-back, and the first demand sweep writes every row
/// before the first edge sweep reads one.
struct StepRows<'a> {
    allocs: &'a mut [Allocation],
    tail: &'a mut [f64],
    /// Rows per allocation, `q`, and division by it.
    per: usize,
    by_per: DivBy,
    /// The first row in the tail, `nb·q`.
    split: usize,
    nb: usize,
}

impl<'a> StepRows<'a> {
    fn new(allocs: &'a mut [Allocation], tail: &'a mut [f64], np: usize) -> Self {
        let nb = allocs.len();
        let per = np / nb;
        StepRows {
            // With fewer paths than lanes, every row is in the tail.
            allocs: if per == 0 { &mut allocs[..0] } else { allocs },
            tail,
            per,
            by_per: DivBy::new(per.max(1)),
            split: nb * per,
            nb,
        }
    }

    /// Path `p`'s row. Its allocation `p / q` is a multiply, not a division
    /// and not a cursor: an edge's paths spread over every allocation, so a
    /// cursor restarted per edge would cross a block boundary every few
    /// non-zeros. `p / q` names no allocation exactly when `p` is in the
    /// tail.
    #[inline(always)]
    fn row(&self, p: usize) -> &[f64] {
        let j = self.by_per.of(p);
        let (rows, at) = match self.allocs.get(j) {
            Some(alloc) => (alloc.splits(), p - j * self.per),
            None => (&*self.tail, p - self.split),
        };
        &rows[at * self.nb..][..self.nb]
    }

    /// [`Self::row`], mutable.
    #[inline(always)]
    fn row_mut(&mut self, p: usize) -> &mut [f64] {
        let j = self.by_per.of(p);
        let (rows, at) = match self.allocs.get_mut(j) {
            Some(alloc) => (alloc.splits_mut(), p - j * self.per),
            None => (&mut *self.tail, p - self.split),
        };
        &mut rows[at * self.nb..][..self.nb]
    }
}

/// Exact `⌊n / d⌋` for `n < 2³²` and `d ≤ 2³¹` by one multiply-high
/// instead of a division: with `c = ⌈2⁶³ / d⌉`, `⌊n / d⌋ = ⌊c·n / 2⁶³⌋`,
/// because `c·d − 2⁶³ < d` and `(d − 1)·n < 2⁶³` (the argument of Lemire,
/// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019,
/// Theorem 1). Path ids are `u32`.
#[derive(Clone, Copy)]
struct DivBy(u64);

impl DivBy {
    fn new(d: usize) -> Self {
        assert!((1..=1 << 31).contains(&d), "divisor {d} out of range");
        DivBy((1u64 << 63).div_ceil(d as u64))
    }

    #[inline(always)]
    fn of(self, n: usize) -> usize {
        debug_assert!(n <= u32::MAX as usize);
        ((u128::from(self.0) * n as u128) >> 63) as usize
    }
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
/// and the window's one iteration count.
///
/// Lanes are independent: each lane of a window that ran `n` iterations is
/// bitwise the allocation and residuals of its own batch-of-1 run of `n`
/// iterations (the per-lane arithmetic is identical, operation for
/// operation), so at `tol = 0` a batch of `B` is `B` batch-of-1 runs —
/// property-tested in `tests/batch_equivalence.rs`, with pinned golden
/// hashes and a literal Appendix C twin guarding the arithmetic itself.
pub struct AdmmBatchSolver {
    batch: usize,
    num_demands: usize,
    k: usize,
    /// Normalized demand volumes, `[demand][lane]`.
    vols: Vec<f64>,
    /// Normalized capacities per row (crossed edge), shared across lanes.
    caps: Arc<Vec<f64>>,
    /// Per-path objective multiplier (shared across lanes); a path's
    /// objective coefficient in lane `b` is `vols[d][b] * discount[p]`, or
    /// `vols[d][b]` when there is none (`TotalFlow`).
    discount: Option<Arc<Vec<f64>>>,
    /// Shared incidence index.
    index: Arc<AdmmIndex>,
}

impl AdmmBatchSolver {
    /// Number of matrices in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Run ADMM on every lane from its own warm start (each projected onto
    /// the demand constraints first) and write the refined allocation over
    /// it. The window runs `cfg.max_iters` iterations or, with
    /// `cfg.tol > 0`, stops after the first one at which every lane's
    /// [`AdmmReport::residual`] is below `cfg.tol`. Every
    /// byte of working state lives in the caller's [`BatchArena`] or, from
    /// entry to return, in `allocs`: their contents belong to the solver
    /// in between (it keeps the F-step there), and the per-matrix reports
    /// land in the caller's `reports`. With a retained
    /// arena and report buffer, the second and later windows of a
    /// steady-state serving loop perform **zero heap allocations** end to
    /// end. Results never depend on what the arena served before.
    pub fn run_batch_in_place(
        &self,
        allocs: &mut [Allocation],
        cfg: AdmmConfig,
        arena: &mut BatchArena,
        reports: &mut Vec<AdmmReport>,
    ) {
        assert_eq!(allocs.len(), self.batch, "allocation count != batch size");
        let nb = self.batch;
        let k = self.k;
        let np = self.num_demands * k;
        let idx = &*self.index;
        arena.prepare(self);
        let BatchArena {
            st,
            steps,
            scratch,
            tail,
        } = arena;

        // Each warm start, projected onto the demand constraints, is copied
        // into `F`. Near-consistent start: z matches the warm-started flows
        // (δ = 0, as `reset_for` left it, with μ = 0), slacks absorb the
        // residual demands and capacities.
        for (b, init) in allocs.iter_mut().enumerate() {
            assert_eq!(init.num_demands(), self.num_demands);
            assert_eq!(init.k(), k);
            init.project_demand_constraints();
            for (d, splits) in init.splits().chunks_exact(k).enumerate() {
                let mut sum = 0.0;
                for (j, &v) in splits.iter().enumerate() {
                    st.f[(d * k + j) * nb + b] = v;
                    sum += v;
                }
                st.s1[d * nb + b] = (1.0 - sum).max(0.0);
            }
        }
        let by_k = DivBy::new(k);
        for (r, &cap) in self.caps.iter().enumerate() {
            let s3_r = row_mut(&mut st.s3, r, nb);
            for &p in idx.row_paths(r) {
                let p = p as usize;
                let flows = row(&st.f, p, nb)
                    .iter()
                    .zip(row(&self.vols, by_k.of(p), nb));
                for (sv, (&fv, &vol)) in s3_r.iter_mut().zip(flows) {
                    *sv += fv * vol;
                }
            }
            for sv in s3_r {
                *sv = (cap - *sv).max(0.0);
            }
        }

        // The warm starts are in `F`: the allocations hold the F-step until
        // the write-back below.
        let mut fstep = StepRows::new(allocs, tail, np);
        let rho = cfg.rho;
        // Lane `b`'s report after `iterations` sweeps, from the last one's
        // lane maxima: feasibility (primal) plus a stationary iterate (dual
        // ~ ρ · step), since primal alone is satisfied by the all-zero point.
        let report = |steps: &[f64], b: usize, iterations: usize| {
            if iterations == 0 {
                return AdmmReport {
                    iterations,
                    primal_residual: f64::INFINITY,
                    dual_residual: f64::INFINITY,
                };
            }
            AdmmReport {
                iterations,
                primal_residual: steps[2 * nb + b],
                dual_residual: rho * steps[b].max(steps[nb + b]),
            }
        };
        let mut iterations = 0;
        while iterations < cfg.max_iters {
            self.sweep(st, &mut fstep, rho, scratch, steps);
            iterations += 1;
            if cfg.tol > 0.0 && (0..nb).all(|b| report(steps, b, iterations).residual() < cfg.tol) {
                break;
            }
        }

        reports.clear();
        for (b, out) in allocs.iter_mut().enumerate() {
            for (p, s) in out.splits_mut().iter_mut().enumerate() {
                *s = st.f[p * nb + b];
            }
            out.project_demand_constraints();
            reports.push(report(steps, b, iterations));
        }
    }

    /// [`AdmmBatchSolver::run_batch_in_place`] on copies of `inits`, written
    /// into `outs` (its allocations reused where their shape matches), for
    /// a caller that keeps its warm starts. The repo benchmark's ADMM probe
    /// is the one caller outside the tests.
    pub fn run_batch_into(
        &self,
        inits: &[Allocation],
        cfg: AdmmConfig,
        arena: &mut BatchArena,
        outs: &mut Vec<Allocation>,
        reports: &mut Vec<AdmmReport>,
    ) {
        outs.truncate(inits.len());
        for (b, init) in inits.iter().enumerate() {
            match outs.get_mut(b) {
                Some(out) if out.k() == init.k() && out.splits().len() == init.splits().len() => {
                    out.splits_mut().copy_from_slice(init.splits())
                }
                Some(out) => *out = init.clone(),
                None => outs.push(init.clone()),
            }
        }
        self.run_batch_in_place(outs, cfg, arena, reports);
    }

    /// One ADMM iteration: the demand sweep, then the edge sweep, both on
    /// the calling thread. They keep the iteration's lane maxima in `steps`
    /// (`[F-step | z-step | primal]`, `3 × batch`), zeroed here first.
    fn sweep(
        &self,
        st: &mut BatchState,
        fstep: &mut StepRows,
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        steps.fill(0.0);
        self.demand_sweep(st, fstep, rho, scratch, steps);
        self.edge_sweep(st, fstep, rho, scratch, steps);
    }

    /// Per demand, the F-update (one walk of each path's rows gathers
    /// `ν = ρδ − μ` for every lane), then the demand's own s1 projection and
    /// λ1 ascent on the new F. Writes `F`, its step, `s1`, `λ1`; reads `μ`
    /// and `δ`.
    ///
    /// Out of line on purpose, like [`Self::edge_sweep`]: inlined into one
    /// body the two loops ran the solve ≈ 20 % slower at 8 lanes
    /// (same process, 1,024 and 256 nodes).
    #[inline(never)]
    fn demand_sweep(
        &self,
        st: &mut BatchState,
        fstep: &mut StepRows,
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        let nb = self.batch;
        let k = self.k;
        let idx = &*self.index;
        let f = &mut st.f;
        let (s1, l1): (&mut [f64], &mut [f64]) = (&mut st.s1, &mut st.l1);
        let (mu, delta): (&[f64], &[f64]) = (&st.mu, &st.delta);
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
                let ents = idx.path_rows(p);
                bj.fill(0.0);
                for &r in ents {
                    let r = r as usize;
                    for (bv, (&dv, &mv)) in bj
                        .iter_mut()
                        .zip(row(delta, r, nb).iter().zip(row(mu, r, nb)))
                    {
                        *bv += rho * dv - mv;
                    }
                }
                let len = ents.len() as f64;
                // `TotalFlow` has no discounts: `vol * 1.0 == vol` exactly.
                let disc = self.discount.as_ref().map_or(1.0, |d| d[p]);
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
                let sp = fstep.row_mut(d * k + j);
                for lane in 0..nb {
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
                let g = slack_ascent(1.0, sum[lane], rho, &mut s1_d[lane], &mut l1_d[lane]);
                lpr[lane] = lpr[lane].max(g);
            }
        }
    }

    /// Per row (crossed edge), one walk of its paths for `S_e` and the
    /// extreme F-steps, then `δ_e`, `s3`, `λ3` and `μ_e` in closed form.
    /// Writes the per-row families; reads `F` and its step.
    #[inline(never)]
    fn edge_sweep(
        &self,
        st: &mut BatchState,
        fstep: &StepRows,
        rho: f64,
        scratch: &mut [f64],
        steps: &mut [f64],
    ) {
        let nb = self.batch;
        let idx = &*self.index;
        let by_k = DivBy::new(self.k);
        let f = &st.f;
        let (s3, l3): (&mut [f64], &mut [f64]) = (&mut st.s3, &mut st.l3);
        let (mu, delta): (&mut [f64], &mut [f64]) = (&mut st.mu, &mut st.delta);
        let (ldz, lpr) = steps[nb..].split_at_mut(nb);
        let lpr = &mut lpr[..nb];
        let (flow, tile) = scratch.split_at_mut(nb);
        let (hi, tile) = tile.split_at_mut(nb);
        let lo = &mut tile[..nb];
        for (r, &cap) in self.caps.iter().enumerate() {
            let s3_r = row_mut(s3, r, nb);
            let l3_r = row_mut(l3, r, nb);
            let on_edge = idx.row_paths(r);
            flow.fill(0.0);
            hi.fill(f64::NEG_INFINITY);
            lo.fill(f64::INFINITY);
            for &p in on_edge {
                let p = p as usize;
                let path = row(f, p, nb).iter().zip(fstep.row(p));
                for (((sv, hv), lv), ((&fv, &step), &vol)) in flow
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(lo.iter_mut())
                    .zip(path.zip(row(&self.vols, by_k.of(p), nb)))
                {
                    *sv += fv * vol;
                    let moved = step * vol;
                    *hv = hv.max(moved);
                    *lv = lv.min(moved);
                }
            }
            let n = on_edge.len() as f64;
            let mu_r = row_mut(mu, r, nb);
            let delta_r = row_mut(delta, r, nb);
            for lane in 0..nb {
                let a = -l3_r[lane] - rho * (s3_r[lane] - cap) + mu_r[lane];
                let d = (a - rho * flow[lane]) / (rho * (1.0 + n));
                // |Δz_pe| = |ΔF_p·v + Δδ_e| peaks at an extreme F-step.
                let dd = d - delta_r[lane];
                ldz[lane] = ldz[lane]
                    .max((hi[lane] + dd).abs())
                    .max((lo[lane] + dd).abs());
                delta_r[lane] = d;
                let g = slack_ascent(
                    cap,
                    flow[lane] + n * d,
                    rho,
                    &mut s3_r[lane],
                    &mut l3_r[lane],
                );
                // λ4 ascent on F_p·v − z_pe = −δ_e, every path alike.
                mu_r[lane] -= rho * d;
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
    fn div_by_is_exact_for_u32_numerators() {
        let top = u32::MAX as usize;
        for d in (1..=70).chain([1_000, 65_537, 1 << 20, (1 << 31) - 1, 1 << 31]) {
            let by = DivBy::new(d);
            for n in (0..20_000).chain(top - 20_000..=top) {
                assert_eq!(by.of(n), n / d, "{n} / {d}");
            }
        }
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
