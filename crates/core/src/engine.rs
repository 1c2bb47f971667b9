//! The deployed Teal engine (§3.1, Figure 3): one neural forward pass
//! followed by 2–5 warm-started ADMM iterations.
//!
//! [`ServingContext`] owns everything fixed per topology — the trained
//! model, the engine configuration, and a prebuilt [`AdmmSkeleton`]
//! (incidence index + normalized capacities). Nothing is rebuilt per
//! traffic matrix: every window remints an O(batch × paths) solver from
//! the shared skeleton, and `allocate` is a window of one. All methods
//! take `&self`, so one context wrapped in an `Arc` safely serves
//! concurrent `allocate` calls from many threads.
//!
//! `allocate` measures the wall-clock time of the full pipeline — the number
//! reported as Teal's computation time in the paper's figures. Because the
//! forward pass is a fixed sequence of matrix products and ADMM runs a fixed
//! iteration count, the runtime is independent of the traffic values (the
//! stability highlighted in Figure 7a). Every entry point serves a whole
//! window in two stages; the first is the window's one
//! parallel axis, a `teal_nn::pool` scoped fan-out. The forward stage is one
//! pool job whose index is the matrix: the matrices of a window commute and
//! share no write, so each runs its own forward pass on serial kernels and
//! lands in its own slot
//! (a window of one is single-core — on every shape measured, splitting one
//! matrix's kernels across cores cost more in hand-offs than it returned).
//! The ADMM stage is one batched sweep ([`teal_lp::AdmmBatchSolver`]): every
//! fine-tuning iteration repairs the whole window in a single pass over the
//! shared incidence index, on the calling thread — no per-matrix solver
//! loop remains on the serving hot path, and the stage submits no pool job.
//! Malformed requests surface as [`AllocError`] values instead of panics
//! (`teal-serve` refuses a mis-sized matrix at submit with the same
//! [`Env::check_demands`] text); [`ServingContext::allocate`] is the one
//! panicking convenience. A panic inside a window is not caught here.
//!
//! The ADMM stage of every window runs in its thread's one arena: a private
//! thread-local holding the [`teal_lp::BatchArena`], the reminted batch
//! solver and the per-matrix report buffer. Whichever entry point a window
//! comes through, every byte of ADMM solver state is reused from the
//! thread's second window onwards, and a thread never holds two arenas.
//! A [`BatchScratch`] carries only the last window's [`SolveReport`]: a
//! caller that reads it (the `teal-serve` shards) keeps one and passes it
//! to [`ServingContext::try_allocate_batch_with`] or
//! [`ServingContext::try_allocate_batch_on_with`]; the scratch-less
//! [`ServingContext::try_allocate_batch`] and
//! [`ServingContext::try_allocate_batch_on`] serve the same bits. ADMM
//! writes its refined splits over the forward stage's allocations, so that
//! one `Vec<Allocation>` is the reply. (The caller owns and consumes it, so
//! the *fully* allocation-free steady state, asserted by `teal-lp`'s
//! counting-allocator test, belongs to callers that retain their
//! allocations and drive `AdmmBatchSolver::run_batch_in_place` directly.)
//! See [`BatchScratch`] for the rules the thread's arena follows.

use crate::env::Env;
use crate::model::PolicyModel;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, Objective};
use teal_nn::checkpoint::CheckpointError;
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// Why a (batched) allocation request could not be served: input the
/// `try_` serving entry points refuse before any compute runs. A panic in
/// either stage is not an `AllocError`; it reaches the caller as itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Request `index` in the batch is malformed (a traffic matrix sized
    /// for a different topology; see [`Env::check_demands`]).
    BadRequest {
        /// Position of the offending matrix in the submitted batch.
        index: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// The failure-override topology does not match the serving
    /// environment — a server-side configuration fault affecting the whole
    /// batch, never any single request's doing.
    BadTopology(String),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::BadRequest { index, reason } => {
                write!(f, "bad request at batch index {index}: {reason}")
            }
            AllocError::BadTopology(m) => write!(f, "bad topology override: {m}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// ADMM fine-tuning; every window runs its `max_iters` (the paper's
    /// per-topology count is [`AdmmConfig::fine_tune`]). `None` disables
    /// ADMM entirely (used for the MLU/latency objectives in §5.5 and the
    /// w/o-ADMM ablation).
    pub admm: Option<AdmmConfig>,
    /// The objective the model was trained for (ADMM uses its linear
    /// coefficients; MLU implies `admm = None`).
    pub objective: Objective,
}

impl EngineConfig {
    /// The paper's deployment defaults for a topology of `num_nodes` nodes.
    pub fn paper_default(num_nodes: usize) -> Self {
        EngineConfig {
            admm: Some(AdmmConfig::fine_tune(num_nodes)),
            objective: Objective::TotalFlow,
        }
    }

    /// No fine-tuning (ablation / non-linear objectives).
    pub fn without_admm(objective: Objective) -> Self {
        EngineConfig {
            admm: None,
            objective,
        }
    }
}

/// What a caller keeps between windows: the last window's [`SolveReport`].
/// The ADMM working state — a [`teal_lp::BatchArena`] (lane rows per path,
/// demand and crossed edge), the reminted batch solver and the per-matrix
/// report buffer — is the serving thread's. A window's allocations are its
/// own: the forward stage's, refined in place and returned to the caller.
///
/// # The thread's arena
///
/// * One window per thread at a time: a window borrows its thread's arena
///   for the ADMM stage alone, which never calls back into the engine.
///   Concurrent dispatchers each run on their own thread, so each has its
///   own arena.
/// * Grow-only: buffers reach the largest window shape the thread has
///   served and keep that capacity for the thread's life.
/// * **Weight-swap safe:** the arena holds no model or topology state —
///   only capacity. Windows against a hot-swapped context, another
///   topology or a failure override reuse it, and results are identical to
///   a cold arena's.
/// * A window that panicked leaves the arena safe to reuse: unwinding
///   releases the borrow, and every buffer is fully reset at the start of
///   the next window.
#[derive(Default)]
pub struct BatchScratch {
    /// Aggregated solver introspection of the last window (see
    /// [`SolveReport`]); `None` before the first window or when ADMM is
    /// disabled.
    last_solve: Option<SolveReport>,
}

/// The ADMM stage's working state, one per thread (see [`BatchScratch`]).
#[derive(Default)]
struct AdmmArena {
    arena: teal_lp::BatchArena,
    solver: Option<teal_lp::AdmmBatchSolver>,
    reports: Vec<teal_lp::AdmmReport>,
}

thread_local! {
    static ADMM_ARENA: RefCell<AdmmArena> = RefCell::default();
}

/// Per-window solver introspection: what the ADMM fine-tuning stage
/// actually did for one batched window — the §3.4 quality/latency knob
/// made measurable. Aggregated over the window's lanes from the per-matrix
/// [`teal_lp::AdmmReport`]s; `Copy`, so recording it is allocation-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveReport {
    /// Matrices in the window (ADMM lanes).
    pub lanes: usize,
    /// Iterations the window ran: one count for every lane.
    pub iterations: usize,
    /// Worst final primal (feasibility) residual across lanes.
    pub max_primal_residual: f64,
    /// Worst final dual (stationarity) residual across lanes.
    pub max_dual_residual: f64,
}

impl SolveReport {
    fn from_reports(reports: &[teal_lp::AdmmReport]) -> Option<Self> {
        let first = reports.first()?;
        let mut agg = SolveReport {
            lanes: reports.len(),
            iterations: first.iterations,
            max_primal_residual: 0.0,
            max_dual_residual: 0.0,
        };
        for r in reports {
            agg.max_primal_residual = agg.max_primal_residual.max(r.primal_residual);
            agg.max_dual_residual = agg.max_dual_residual.max(r.dual_residual);
        }
        Some(agg)
    }
}

impl BatchScratch {
    /// A scratch that has served no window yet.
    pub fn new() -> Self {
        BatchScratch { last_solve: None }
    }

    /// Aggregated [`SolveReport`] of the last window served through this
    /// scratch — how many iterations the ADMM stage ran. `None`
    /// before the first window, when fine-tuning is disabled, or after a
    /// window that failed before the solve.
    pub fn solve_report(&self) -> Option<SolveReport> {
        self.last_solve
    }
}

/// Per-topology serving state: a trained model plus the precomputed ADMM
/// skeleton, ready to serve allocations concurrently.
pub struct ServingContext<M: PolicyModel> {
    model: M,
    cfg: EngineConfig,
    /// Prebuilt per-topology ADMM state (absent when fine-tuning is off).
    skeleton: Option<AdmmSkeleton>,
}

impl<M: PolicyModel> ServingContext<M> {
    /// Wrap a (trained) model, precomputing the ADMM skeleton once.
    pub fn new(model: M, cfg: EngineConfig) -> Self {
        let skeleton = cfg.admm.map(|_| {
            let env = model.env();
            AdmmSkeleton::new(env.topo(), env.paths(), cfg.objective)
        });
        ServingContext {
            model,
            cfg,
            skeleton,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The configuration this context serves under.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The environment.
    pub fn env(&self) -> &Arc<Env> {
        self.model.env()
    }

    /// Rebuild this context around `model` (same environment, new weights),
    /// reusing the prebuilt ADMM skeleton — the hot-swap hook used by the
    /// `teal-serve` registry. Swapping weights never pays the per-topology
    /// skeleton construction again.
    pub fn with_model(&self, model: M) -> Self {
        assert!(
            Arc::ptr_eq(model.env(), self.model.env()),
            "with_model requires a model built for the same environment"
        );
        ServingContext {
            model,
            cfg: self.cfg,
            skeleton: self.skeleton.clone(),
        }
    }

    /// Hot model-weight swap from checkpoint text (see
    /// [`teal_nn::checkpoint`]): clone the current model, load the new
    /// parameters into the clone, and return a fresh context sharing this
    /// one's skeleton. The existing context is untouched, so in-flight
    /// requests holding an `Arc` to it keep serving the old weights until
    /// they finish — no torn reads, no mixed-weights responses.
    pub fn with_checkpoint_str(&self, data: &str) -> Result<Self, CheckpointError>
    where
        M: Clone,
    {
        let mut model = self.model.clone();
        teal_nn::checkpoint::load_str(model.store_mut(), data)?;
        Ok(self.with_model(model))
    }

    /// Allocate one traffic matrix on the trained topology: a window of
    /// one through [`ServingContext::try_allocate_batch`]. Returns the
    /// allocation and the measured computation time. Panics on a malformed
    /// matrix; callers that must survive bad requests use the
    /// `try_allocate_batch*` entry points.
    pub fn allocate(&self, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let (mut allocs, dt) = self
            .try_allocate_batch(std::slice::from_ref(tm))
            .unwrap_or_else(|e| panic!("allocate: {e}"));
        let alloc = allocs
            .pop()
            .unwrap_or_else(|| unreachable!("a window of one returns one allocation"));
        (alloc, dt)
    }

    /// Allocate a window of traffic matrices: one forward pass per matrix,
    /// the matrices spread over the pool, then one batched ADMM sweep
    /// fine-tuning the whole window in a single pass per iteration over the
    /// shared incidence index. Returns the
    /// allocations (aligned with `tms`) and the total wall-clock time. A
    /// malformed matrix comes back as an [`AllocError`] naming the offender
    /// before any compute runs; a panic in either stage reaches the caller
    /// as that panic (the `teal-serve` shard's `catch_unwind` is the one
    /// place it becomes a reply). The ADMM stage runs in the thread's
    /// arena (see [`BatchScratch`]), so repeat calls reuse it; a caller
    /// that reads the window's [`SolveReport`] calls
    /// [`ServingContext::try_allocate_batch_with`].
    pub fn try_allocate_batch(
        &self,
        tms: &[TrafficMatrix],
    ) -> Result<(Vec<Allocation>, Duration), AllocError> {
        self.allocate_batch_inner_with(tms, None, &mut BatchScratch::new())
    }

    /// [`ServingContext::try_allocate_batch`] against a topology with
    /// altered capacities (e.g. failed links zeroed) *without retraining* —
    /// the §5.3 scenario. Paths stay the ones precomputed on the original
    /// topology; only the capacity vector of the ADMM skeleton is rebuilt,
    /// and candidate paths crossing a zero-capacity link are masked out of
    /// the final allocation (flow on a dead link can never be delivered —
    /// the §5.3 recovery invariant).
    pub fn try_allocate_batch_on(
        &self,
        topo: &Topology,
        tms: &[TrafficMatrix],
    ) -> Result<(Vec<Allocation>, Duration), AllocError> {
        self.allocate_batch_inner_with(tms, Some(topo), &mut BatchScratch::new())
    }

    /// [`ServingContext::try_allocate_batch`] with a caller-owned
    /// [`BatchScratch`], which receives the window's [`SolveReport`]. The
    /// ADMM stage runs in the thread's arena either way: from the thread's
    /// second window onwards the only per-window minting left on the
    /// fine-tune stage is the returned allocations themselves, which the
    /// caller consumes. Results are identical to the scratch-less entry
    /// point.
    pub fn try_allocate_batch_with(
        &self,
        tms: &[TrafficMatrix],
        scratch: &mut BatchScratch,
    ) -> Result<(Vec<Allocation>, Duration), AllocError> {
        self.allocate_batch_inner_with(tms, None, scratch)
    }

    /// [`ServingContext::try_allocate_batch_on`] with a caller-owned
    /// [`BatchScratch`]: the §5.3 failure-recovery path (capacities of
    /// failed links zeroed, no retraining) served out of the thread's
    /// arena. The solver is simply reminted against the failure-overridden
    /// skeleton, so a failure burst serves at steady-state cost, and
    /// override and plain windows alternate freely on one thread (reminting
    /// rebinds every shared handle) — a `teal-serve` shard serves both
    /// kinds out of its one scratch.
    pub fn try_allocate_batch_on_with(
        &self,
        topo: &Topology,
        tms: &[TrafficMatrix],
        scratch: &mut BatchScratch,
    ) -> Result<(Vec<Allocation>, Duration), AllocError> {
        self.allocate_batch_inner_with(tms, Some(topo), scratch)
    }

    fn allocate_batch_inner_with(
        &self,
        tms: &[TrafficMatrix],
        topo_override: Option<&Topology>,
        scratch: &mut BatchScratch,
    ) -> Result<(Vec<Allocation>, Duration), AllocError> {
        // Cleared up front so a failed, empty or ADMM-less window never
        // leaves a stale report behind for callers polling `solve_report`.
        scratch.last_solve = None;
        if tms.is_empty() {
            return Ok((Vec::new(), Duration::ZERO));
        }
        let start = Instant::now();
        let env = self.model.env();
        // Validate every request up front: one bad matrix must not take the
        // whole batch (or the dispatcher) down mid-compute.
        for (index, tm) in tms.iter().enumerate() {
            env.check_demands(tm)
                .map_err(|reason| AllocError::BadRequest { index, reason })?;
        }
        if let Some(topo) = topo_override {
            if topo.num_edges() != env.topo().num_edges() {
                return Err(AllocError::BadTopology(format!(
                    "override topology has {} edges, environment expects {}",
                    topo.num_edges(),
                    env.topo().num_edges()
                )));
            }
        }
        // Forward stage: the matrices of a window commute and share no
        // write, so one matrix is the unit of work and the window is one
        // pool job indexed by matrix, each result landing in its own slot.
        // Kernels are serial: one matrix's activations stay cache-resident
        // on the core that runs it. A window of one, a one-thread process
        // and a lane under `with_thread_cap(1, ..)` run inline; any other
        // window's helpers are spawned and joined inside this call. A
        // panicking matrix reaches the caller as its original panic either
        // way.
        let slots: Vec<OnceLock<Allocation>> = tms.iter().map(|_| OnceLock::new()).collect();
        teal_nn::pool::run(tms.len(), &|i| {
            let input = env.model_input(&tms[i], topo_override);
            // The pool claims each index exactly once, so the slot is empty.
            let _ = slots[i].set(self.model.allocate_deterministic(&input));
        });
        // A reply vector of its own, not the slots' buffer collected in
        // place: that shrinks it with a realloc whenever the slot bytes are
        // not a whole number of allocations, so the per-window allocation
        // count would depend on the window's size.
        let mut out: Vec<Allocation> = Vec::with_capacity(tms.len());
        out.extend(slots.into_iter().map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| unreachable!("pool::run runs every index before it returns"))
        }));
        if let (Some(admm_cfg), Some(skel)) = (self.cfg.admm, &self.skeleton) {
            let override_skel;
            let skel = match topo_override {
                Some(topo) => {
                    override_skel = skel.with_topology(topo);
                    &override_skel
                }
                None => skel,
            };
            // One batched sweep repairs the whole window per iteration,
            // on this thread, so no outer per-matrix loop is needed. The
            // solver is reminted into the thread's arena, the sweep runs in
            // it — the allocation-free ADMM steady state — and the refined
            // splits overwrite the forward stage's.
            scratch.last_solve = ADMM_ARENA.with_borrow_mut(|admm| {
                let solver: &teal_lp::AdmmBatchSolver = match &mut admm.solver {
                    Some(solver) => {
                        skel.remint_batch_solver(solver, tms);
                        solver
                    }
                    empty => empty.insert(skel.batch_solver(tms)),
                };
                solver.run_batch_in_place(&mut out, admm_cfg, &mut admm.arena, &mut admm.reports);
                SolveReport::from_reports(&admm.reports)
            });
        }
        let dead = match topo_override {
            Some(topo) => dead_path_ids(env, topo),
            None => Vec::new(),
        };
        for alloc in &mut out {
            alloc.project_demand_constraints();
            for &p in &dead {
                alloc.splits_mut()[p as usize] = 0.0;
            }
        }
        Ok((out, start.elapsed()))
    }
}

/// Candidate paths crossing a zero-capacity (failed) link of `topo`. Flow
/// placed on them could never be delivered; the serving path zeroes their
/// splits after fine-tuning (§5.3's recovery invariant).
fn dead_path_ids(env: &Env, topo: &Topology) -> Vec<u32> {
    // The dead edges' rows of the edge→path index, merged: a failed link is
    // two edges of thousands, so this reads tens of ids, not every candidate
    // path's edge list. Ascending, each id once.
    let mut dead: Vec<u32> = topo
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, edge)| edge.capacity <= 0.0)
        .flat_map(|(e, _)| env.paths().paths_on_edge(e).iter().copied())
        .collect();
    dead.sort_unstable();
    dead.dedup();
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{TealConfig, TealModel};
    use teal_topology::{b4, PathSet};

    fn engine() -> ServingContext<TealModel> {
        let env = Arc::new(Env::for_topology(b4()));
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        ServingContext::new(model, EngineConfig::paper_default(12))
    }

    /// `tm` served alone on the failure-modified `topo`.
    fn allocate_on(
        eng: &ServingContext<TealModel>,
        topo: &Topology,
        tm: &TrafficMatrix,
    ) -> Allocation {
        let (mut allocs, _) = eng
            .try_allocate_batch_on(topo, std::slice::from_ref(tm))
            .expect("window of one");
        allocs.remove(0)
    }

    #[test]
    fn allocate_is_demand_feasible() {
        let eng = engine();
        let tm = TrafficMatrix::new(vec![20.0; eng.env().num_demands()]);
        let (alloc, dt) = eng.allocate(&tm);
        assert!(alloc.demand_feasible(1e-6));
        assert!(dt.as_nanos() > 0);
    }

    #[test]
    fn every_model_variant_serves_its_per_matrix_reference_with_and_without_admm() {
        // Every Figure 14 arm is one of these models served by this engine,
        // with or without ADMM. The reference is the engine's definition
        // spelled out one matrix at a time: the deterministic forward pass,
        // (ADMM on) one skeleton solve, then the demand projection. Equal
        // bit for bit on calibrated traffic, through the serving entry point
        // (`try_allocate_batch_with`, what the daemon calls) and through
        // `try_allocate_batch_on` given the unfailed topology (what every
        // figure's `TealScheme` calls).
        use crate::ablation::{GlobalPolicyModel, NaiveDnnModel, NaiveGnnModel};
        use teal_traffic::{TrafficConfig, TrafficModel};

        fn check<M: PolicyModel>(make: impl Fn() -> M, tms: &[TrafficMatrix]) {
            let bits = |a: &Allocation| a.splits().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for cfg in [
                EngineConfig::paper_default(12),
                EngineConfig::without_admm(Objective::TotalFlow),
            ] {
                let ctx = ServingContext::new(make(), cfg);
                let env = ctx.env();
                let skel = AdmmSkeleton::new(env.topo(), env.paths(), Objective::TotalFlow);
                let want: Vec<Allocation> = tms
                    .iter()
                    .map(|tm| {
                        let mut want = ctx
                            .model()
                            .allocate_deterministic(&env.model_input(tm, None));
                        if cfg.admm.is_some() {
                            want = skel.solve(tm, &want, AdmmConfig::fine_tune(12)).0;
                        }
                        want.project_demand_constraints();
                        want
                    })
                    .collect();
                let served = [
                    ("try_allocate_batch", ctx.try_allocate_batch(tms)),
                    (
                        "try_allocate_batch_with",
                        ctx.try_allocate_batch_with(tms, &mut BatchScratch::new()),
                    ),
                    (
                        "try_allocate_batch_on",
                        ctx.try_allocate_batch_on(env.topo(), tms),
                    ),
                ];
                for (entry, got) in served {
                    let (got, _) = got.expect("window");
                    assert_eq!(got.len(), tms.len());
                    for (i, (alloc, want)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            bits(alloc) == bits(want),
                            "{} (ADMM {}) via {entry}: matrix {i} differs from its reference",
                            ctx.model().name(),
                            cfg.admm.is_some()
                        );
                    }
                }
            }
        }

        let env = Arc::new(Env::for_topology(b4()));
        let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 5);
        traffic.calibrate(env.topo(), env.paths());
        let tms = traffic.series(0, 4);
        let cfg = TealConfig {
            gnn_layers: 3,
            ..TealConfig::default()
        };
        check(|| TealModel::new(Arc::clone(&env), cfg), &tms);
        check(|| NaiveDnnModel::new(Arc::clone(&env), 32, 3, 3), &tms);
        check(|| NaiveGnnModel::new(Arc::clone(&env), 16, 2, 3), &tms);
        check(
            || GlobalPolicyModel::new(Arc::clone(&env), cfg, 16, usize::MAX).expect("fits"),
            &tms,
        );
    }

    #[test]
    fn admm_reduces_overuse_versus_raw_model() {
        let env = Arc::new(Env::for_topology(b4()));
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        // Heavy demands so the untrained softmax output oversubscribes.
        let tm = TrafficMatrix::new(vec![150.0; env.num_demands()]);
        let raw = model.allocate_deterministic(&env.model_input(&tm, None));
        let inst = env.instance(&tm);
        let raw_overuse = teal_lp::evaluate(&inst, &raw).total_overuse;

        let eng = ServingContext::new(model, EngineConfig::paper_default(12));
        let (tuned, _) = eng.allocate(&tm);
        let tuned_overuse = teal_lp::evaluate(&inst, &tuned).total_overuse;
        assert!(
            tuned_overuse < raw_overuse,
            "ADMM should reduce overuse: raw {raw_overuse}, tuned {tuned_overuse}"
        );
    }

    #[test]
    fn failure_override_changes_output() {
        let eng = engine();
        let tm = TrafficMatrix::new(vec![20.0; eng.env().num_demands()]);
        let (base, _) = eng.allocate(&tm);
        let failed = eng.env().topo().with_failed_link(0, 1);
        let after = allocate_on(&eng, &failed, &tm);
        assert_ne!(base, after);
    }

    #[test]
    fn dead_path_ids_equal_the_full_scan() {
        // The scan the edge→path gather replaced: every candidate path's
        // edge list against the dead edges.
        fn scan(env: &Env, topo: &Topology) -> Vec<u32> {
            let paths = env.paths().paths().iter().enumerate();
            paths
                .filter(|(_, path)| path.edges.iter().any(|&e| topo.edge(e).capacity <= 0.0))
                .map(|(p, _)| p as u32)
                .collect()
        }
        let all = Env::for_topology(b4());
        let one = all.topo().with_failed_link(0, 1);
        let two = one.with_failed_link(4, 5);
        assert!(dead_path_ids(&all, all.topo()).is_empty());
        for failed in [&one, &two] {
            let dead = dead_path_ids(&all, failed);
            assert!(!dead.is_empty() && dead.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(dead, scan(&all, failed));
        }
        assert!(dead_path_ids(&all, &two).len() > dead_path_ids(&all, &one).len());

        // One demand's candidates leave most of B4 untouched: failing a link
        // none of them crosses kills nothing.
        let topo = b4();
        let few = Env::new(topo.clone(), PathSet::compute(&topo, &[(0, 1)], 4));
        let crossed = |a, b| {
            !few.paths()
                .paths_on_edge(topo.find_edge(a, b).unwrap())
                .is_empty()
        };
        let unused = topo
            .edges()
            .iter()
            .find(|e| !crossed(e.src, e.dst) && !crossed(e.dst, e.src))
            .expect("four paths cannot cover B4");
        let failed = topo.with_failed_link(unused.src, unused.dst);
        assert_eq!(dead_path_ids(&few, &failed), Vec::<u32>::new());
        assert_eq!(scan(&few, &failed), Vec::<u32>::new());
    }

    #[test]
    fn runtime_is_stable_across_demand_values() {
        // Figure 7a's claim: computation is independent of traffic values.
        let eng = engine();
        let nd = eng.env().num_demands();
        let light = TrafficMatrix::new(vec![0.01; nd]);
        let heavy = TrafficMatrix::new(vec![500.0; nd]);
        let (_, t1) = eng.allocate(&light);
        let (_, t2) = eng.allocate(&heavy);
        // Generous factor-20 bound: identical op counts, only measurement
        // noise differs (CI machines can be jittery).
        let (a, b) = (t1.as_secs_f64(), t2.as_secs_f64());
        let ratio = if a > b { a / b } else { b / a };
        assert!(ratio < 20.0, "runtime ratio {ratio} too unstable");
    }

    #[test]
    fn batch_matches_sequential_allocation() {
        let eng = engine();
        let nd = eng.env().num_demands();
        let tms: Vec<TrafficMatrix> = (0..5)
            .map(|i| TrafficMatrix::new(vec![10.0 + 17.0 * i as f64; nd]))
            .collect();
        let (batched, _) = eng.try_allocate_batch(&tms).expect("window");
        assert_eq!(batched.len(), tms.len());
        for (tm, b) in tms.iter().zip(&batched) {
            let (seq, _) = eng.allocate(tm);
            assert!(b.demand_feasible(1e-6));
            assert_eq!(b, &seq, "batched diverged from sequential");
        }
    }

    #[test]
    fn batch_early_stopping_matches_sequential() {
        // tol > 0: lanes with different demand scales would converge at
        // different iterations, and the window stops when the last one
        // does, before the cap. Each lane must match its sequential
        // allocation run for the window's iteration count.
        let env = Arc::new(Env::for_topology(b4()));
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let serving = |admm| {
            ServingContext::new(
                model.clone(),
                EngineConfig {
                    admm: Some(admm),
                    objective: Objective::TotalFlow,
                },
            )
        };
        let to_tol = AdmmConfig {
            rho: 1.0,
            max_iters: 200,
            tol: 0.1,
        };
        let nd = env.num_demands();
        let tms: Vec<TrafficMatrix> = (0..7)
            .map(|i| TrafficMatrix::new(vec![0.5 + 40.0 * i as f64; nd]))
            .collect();
        let mut scratch = BatchScratch::new();
        let (batched, _) = serving(to_tol)
            .try_allocate_batch_with(&tms, &mut scratch)
            .expect("window");
        let n = scratch.solve_report().expect("solve report").iterations;
        assert!(n < to_tol.max_iters, "the window never stopped early");
        let fixed = serving(AdmmConfig {
            max_iters: n,
            tol: 0.0,
            ..to_tol
        });
        for (tm, b) in tms.iter().zip(&batched) {
            let (seq, _) = fixed.allocate(tm);
            assert_eq!(b, &seq, "early-stopped batched diverged from sequential");
        }
    }

    #[test]
    fn zero_capacity_edges_carry_no_flow_batched() {
        // The §5.3 recovery invariant on the batched path: after links fail
        // (capacity zeroed), no allocation may place flow on a dead edge —
        // and batched must still equal sequential on the degraded topology.
        let eng = engine();
        let env = eng.env();
        let nd = env.num_demands();
        let failed = env
            .topo()
            .with_failed_link(0, 1)
            .with_failed_link(2, 3)
            .with_failed_link(5, 7);
        let dead: Vec<usize> = failed
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.capacity <= 0.0)
            .map(|(i, _)| i)
            .collect();
        assert!(!dead.is_empty());
        let tms: Vec<TrafficMatrix> = (0..4)
            .map(|i| TrafficMatrix::new(vec![15.0 + 9.0 * i as f64; nd]))
            .collect();
        let (batched, _) = eng.try_allocate_batch_on(&failed, &tms).expect("window");
        for (tm, alloc) in tms.iter().zip(&batched) {
            let seq = allocate_on(&eng, &failed, tm);
            assert_eq!(alloc, &seq, "batched diverged from sequential");
            let inst = env.instance_on(&failed, tm);
            let stats = teal_lp::evaluate(&inst, alloc);
            for &e in &dead {
                assert_eq!(
                    stats.edge_loads[e], 0.0,
                    "flow placed on zero-capacity edge {e}"
                );
            }
            assert!(alloc.demand_feasible(1e-6));
        }
    }

    #[test]
    fn malformed_batch_is_an_error_not_a_panic() {
        // One bad matrix in a window must surface as a per-request error
        // naming the offender (the daemon maps it to BadRequest), not crash
        // the batch.
        let eng = engine();
        let nd = eng.env().num_demands();
        let tms = vec![
            TrafficMatrix::new(vec![10.0; nd]),
            TrafficMatrix::new(vec![10.0; nd + 3]),
            TrafficMatrix::new(vec![10.0; nd]),
        ];
        match eng.try_allocate_batch(&tms) {
            Err(AllocError::BadRequest { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected BadRequest at index 1, got {other:?}"),
        }
        // The well-formed window still serves.
        let good = vec![tms[0].clone(), tms[2].clone()];
        let (allocs, _) = eng
            .try_allocate_batch(&good)
            .expect("well-formed batch must serve");
        assert_eq!(allocs.len(), 2);
    }

    #[test]
    fn batch_on_failed_topology_matches_sequential() {
        let eng = engine();
        let nd = eng.env().num_demands();
        let failed = eng.env().topo().with_failed_link(0, 1);
        let tms: Vec<TrafficMatrix> = (0..3)
            .map(|i| TrafficMatrix::new(vec![8.0 + i as f64; nd]))
            .collect();
        let (batched, _) = eng.try_allocate_batch_on(&failed, &tms).expect("window");
        for (tm, b) in tms.iter().zip(&batched) {
            let seq = allocate_on(&eng, &failed, tm);
            assert_eq!(b, &seq, "batched diverged from sequential");
        }
    }

    #[test]
    fn checkpoint_swap_changes_weights_without_touching_original() {
        let env = Arc::new(Env::for_topology(b4()));
        let cfg_model = TealConfig {
            gnn_layers: 3,
            ..TealConfig::default()
        };
        let old = ServingContext::new(
            TealModel::new(Arc::clone(&env), cfg_model),
            EngineConfig::paper_default(12),
        );
        let tm = TrafficMatrix::new(vec![20.0; env.num_demands()]);
        let (before, _) = old.allocate(&tm);

        // Same architecture, different seed → a genuinely different model.
        let donor = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                seed: 99,
                ..cfg_model
            },
        );
        let ckpt = teal_nn::checkpoint::to_string(donor.store());
        let swapped = old.with_checkpoint_str(&ckpt).expect("swap");

        // New context serves the donor's weights exactly.
        let reference = ServingContext::new(donor, EngineConfig::paper_default(12));
        let (want, _) = reference.allocate(&tm);
        let (got, _) = swapped.allocate(&tm);
        assert_eq!(got, want, "swapped context must serve the new weights");
        // Old context is untouched (in-flight requests stay consistent).
        let (after, _) = old.allocate(&tm);
        assert_eq!(before, after, "original context mutated by swap");
        assert_ne!(got, after, "swap had no effect");
    }

    #[test]
    fn scratch_reuse_across_windows_and_hot_swap_matches_fresh() {
        // One thread's arena serving windows of varying size, with a hot
        // checkpoint swap between windows 1 and 2: every window must match a
        // cold arena's (a one-shot call on a fresh thread) exactly, and
        // nothing may leak from the pre-swap context through the arena into
        // the post-swap one.
        let env = Arc::new(Env::for_topology(b4()));
        let cfg_model = TealConfig {
            gnn_layers: 3,
            ..TealConfig::default()
        };
        let ctx_old = ServingContext::new(
            TealModel::new(Arc::clone(&env), cfg_model),
            EngineConfig::paper_default(12),
        );
        let donor = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                seed: 99,
                ..cfg_model
            },
        );
        let ckpt = teal_nn::checkpoint::to_string(donor.store());
        let ctx_new = ctx_old.with_checkpoint_str(&ckpt).expect("hot swap");

        let nd = env.num_demands();
        let mut scratch = BatchScratch::new();
        let sizes = [5usize, 3, 5, 7];
        for (w, &nb) in sizes.iter().enumerate() {
            let ctx = if w < 2 { &ctx_old } else { &ctx_new };
            let tms: Vec<TrafficMatrix> = (0..nb)
                .map(|i| TrafficMatrix::new(vec![4.0 + 3.0 * (w * 7 + i) as f64; nd]))
                .collect();
            let (got, _) = ctx
                .try_allocate_batch_with(&tms, &mut scratch)
                .expect("scratch window");
            let (want, _) = on_fresh_thread(|| ctx.try_allocate_batch(&tms)).expect("cold window");
            assert_eq!(got.len(), want.len());
            for (b, (g, f)) in got.iter().zip(&want).enumerate() {
                for (x, y) in g.splits().iter().zip(f.splits()) {
                    assert!(x == y, "window {w} lane {b}: warm arena {x} vs cold {y}");
                }
            }
        }
        let report = scratch.solve_report().expect("solve report");
        assert_eq!(report.lanes, *sizes.last().unwrap());

        // An empty window ran no solve: the scratch must not go on
        // describing the window before it.
        let (none, _) = ctx_new
            .try_allocate_batch_with(&[], &mut scratch)
            .expect("empty window");
        assert!(none.is_empty());
        assert_eq!(scratch.solve_report(), None, "stale solve report");
    }

    /// Run `f` on a freshly spawned thread, whose ADMM arena is cold.
    // A cold thread is the fixture, so the test starts its own.
    #[allow(clippy::disallowed_methods)]
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
    }

    #[test]
    fn windows_are_bit_identical_across_thread_caps() {
        // The forward stage is one pool job indexed by matrix: which thread
        // runs a matrix must not move a bit. The same windows — plain and
        // failed-link alternating on one thread's arena — served inline
        // (cap 1) and with whatever helpers the process has.
        let eng = engine();
        let nd = eng.env().num_demands();
        let failed = eng.env().topo().with_failed_link(0, 1);
        let windows: Vec<Vec<TrafficMatrix>> = [8usize, 1, 5, 3]
            .iter()
            .enumerate()
            .map(|(w, &nb)| {
                (0..nb)
                    .map(|i| TrafficMatrix::new(vec![6.0 + 5.0 * (w * 8 + i) as f64; nd]))
                    .collect()
            })
            .collect();
        let serve = || -> Vec<Vec<Allocation>> {
            let mut scratch = BatchScratch::new();
            windows
                .iter()
                .enumerate()
                .map(|(w, tms)| {
                    let topo = (w % 2 == 1).then_some(&failed);
                    let (allocs, _) = eng
                        .allocate_batch_inner_with(tms, topo, &mut scratch)
                        .expect("window");
                    allocs
                })
                .collect()
        };
        let inline = teal_nn::pool::with_thread_cap(1, serve);
        assert_eq!(inline, serve(), "thread cap moved an allocation");
    }

    /// Render a caught panic payload.
    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic".to_string()
        }
    }

    /// `TealModel`, except that a *marked* matrix (first demand exactly
    /// zero) panics in its forward pass.
    struct Tripped(TealModel);

    impl PolicyModel for Tripped {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn env(&self) -> &Arc<Env> {
            self.0.env()
        }
        fn forward(
            &self,
            g: &mut teal_nn::Graph,
            input: &crate::env::ModelInput,
        ) -> crate::model::Forward {
            self.0.forward(g, input)
        }
        fn store(&self) -> &teal_nn::ParamStore {
            self.0.store()
        }
        fn store_mut(&mut self) -> &mut teal_nn::ParamStore {
            self.0.store_mut()
        }
        fn allocate_deterministic(&self, input: &crate::env::ModelInput) -> Allocation {
            assert!(input.path_init.data()[0] != 0.0, "marked matrix");
            self.0.allocate_deterministic(input)
        }
    }

    #[test]
    fn forward_panic_reaches_caller_and_scratch_survives() {
        // A matrix that panics in the forward job — on the submitting thread
        // or a pool helper — must reach the caller as the original panic
        // (the serving shard's per-request degrade keys on it), and the
        // thread's arena must serve the next window as a cold arena (a fresh
        // thread's) would.
        let env = Arc::new(Env::for_topology(b4()));
        let cfg_model = TealConfig {
            gnn_layers: 3,
            ..TealConfig::default()
        };
        let ctx = ServingContext::new(
            Tripped(TealModel::new(Arc::clone(&env), cfg_model)),
            EngineConfig::paper_default(12),
        );
        let nd = env.num_demands();
        let window = |base: f64| -> Vec<TrafficMatrix> {
            (0..5)
                .map(|i| TrafficMatrix::new(vec![base + 4.0 * i as f64; nd]))
                .collect()
        };
        let mut scratch = BatchScratch::new();
        ctx.try_allocate_batch_with(&window(3.0), &mut scratch)
            .expect("clean window");

        let mut tripped = window(9.0);
        let mut demands = vec![7.0; nd];
        demands[0] = 0.0;
        tripped[3] = TrafficMatrix::new(demands);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.try_allocate_batch_with(&tripped, &mut scratch)
        }));
        let payload = caught.expect_err("the marked matrix must panic the window");
        assert!(
            panic_text(payload).contains("marked matrix"),
            "original panic payload lost"
        );

        let next = window(20.0);
        let (got, _) = ctx
            .try_allocate_batch_with(&next, &mut scratch)
            .expect("window after the panic");
        let (want, _) = on_fresh_thread(|| ctx.try_allocate_batch(&next)).expect("cold arena");
        assert_eq!(got, want, "arena reused after a panicked window diverged");
    }

    #[test]
    // Two callers racing on one context are the fixture.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_contexts_agree_with_sequential() {
        let ctx = Arc::new(engine());
        let nd = ctx.env().num_demands();
        let tm_a = TrafficMatrix::new(vec![25.0; nd]);
        let tm_b = TrafficMatrix::new(vec![60.0; nd]);
        let (seq_a, _) = ctx.allocate(&tm_a);
        let (seq_b, _) = ctx.allocate(&tm_b);

        let ctx2 = Arc::clone(&ctx);
        let (par_a, par_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| ctx.allocate(&tm_a).0);
            let hb = s.spawn(move || ctx2.allocate(&tm_b).0);
            (ha.join().expect("thread a"), hb.join().expect("thread b"))
        });
        assert_eq!(seq_a, par_a, "concurrent allocate diverged on matrix A");
        assert_eq!(seq_b, par_b, "concurrent allocate diverged on matrix B");
    }
}
