//! Uniform `Scheme` interface over Teal and every baseline, with wall-clock
//! timing — the "computation time" measured throughout §5.

use std::sync::Arc;
use std::time::{Duration, Instant};
use teal_baselines::{
    solve_lp_top, solve_ncflow, solve_pop, solve_teavar, NcflowConfig, PopConfig, TeavarConfig,
};
use teal_core::{Env, PolicyModel, ServingContext};
use teal_lp::{fleischer, solve_lp, Allocation, LpConfig, Objective, TeInstance};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// A TE scheme: maps a traffic matrix (on a possibly failure-modified
/// topology) to an allocation, reporting its measured computation time.
pub trait Scheme {
    /// Display name used in tables/figures.
    fn name(&self) -> &str;

    /// Compute an allocation. `topo` carries current capacities (failed
    /// links zeroed); candidate paths are the precomputed ones.
    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration);

    /// Compute allocations for a batch of matrices, reporting the total
    /// computation time. The default runs the per-matrix path sequentially
    /// and sums the times each call *reports* (so schemes that model their
    /// latency keep consistent timing across the per-matrix and batched
    /// harnesses); schemes with a genuinely batched data path (Teal)
    /// override it with a measured batched run.
    fn allocate_batch(
        &mut self,
        topo: &Topology,
        tms: &[TrafficMatrix],
    ) -> (Vec<Allocation>, Duration) {
        let mut out = Vec::with_capacity(tms.len());
        let mut total = Duration::ZERO;
        for tm in tms {
            let (alloc, dt) = self.allocate(topo, tm);
            total += dt;
            out.push(alloc);
        }
        (out, total)
    }
}

fn timed<F: FnOnce() -> Allocation>(f: F) -> (Allocation, Duration) {
    let t0 = Instant::now();
    let a = f();
    (a, t0.elapsed())
}

/// LP-all: the full path LP (exact simplex on small instances, ADMM to
/// convergence on large ones — our Gurobi substitute).
pub struct LpAllScheme {
    env: Arc<Env>,
    /// Objective to optimize.
    pub objective: Objective,
    /// Solver settings.
    pub cfg: LpConfig,
}

impl LpAllScheme {
    /// LP-all with default settings.
    pub fn new(env: Arc<Env>, objective: Objective) -> Self {
        LpAllScheme {
            env,
            objective,
            cfg: LpConfig::default(),
        }
    }
}

impl Scheme for LpAllScheme {
    fn name(&self) -> &str {
        "LP-all"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| solve_lp(&inst, self.objective, &self.cfg).0)
    }
}

/// LP-top: demand pinning with α = 10%.
pub struct LpTopScheme {
    env: Arc<Env>,
    /// Objective to optimize.
    pub objective: Objective,
    /// Fraction of demands receiving the LP treatment.
    pub alpha: f64,
    /// Solver settings.
    pub cfg: LpConfig,
}

impl LpTopScheme {
    /// The paper's α = 10% configuration.
    pub fn new(env: Arc<Env>, objective: Objective) -> Self {
        LpTopScheme {
            env,
            objective,
            alpha: 0.10,
            cfg: LpConfig::default(),
        }
    }
}

impl Scheme for LpTopScheme {
    fn name(&self) -> &str {
        "LP-top"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| solve_lp_top(&inst, self.objective, self.alpha, &self.cfg))
    }
}

/// NCFlow-like cluster decomposition.
pub struct NcflowScheme {
    env: Arc<Env>,
    /// Objective to optimize.
    pub objective: Objective,
    /// Decomposition settings.
    pub cfg: NcflowConfig,
}

impl NcflowScheme {
    /// Cluster count per the paper's sqrt-scale heuristic.
    pub fn new(env: Arc<Env>, objective: Objective) -> Self {
        let cfg = NcflowConfig::paper_default(env.topo().num_nodes());
        NcflowScheme {
            env,
            objective,
            cfg,
        }
    }
}

impl Scheme for NcflowScheme {
    fn name(&self) -> &str {
        "NCFlow"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| solve_ncflow(&inst, self.objective, &self.cfg))
    }
}

/// POP capacity-split replicas.
pub struct PopScheme {
    env: Arc<Env>,
    /// Objective to optimize.
    pub objective: Objective,
    /// Replica settings.
    pub cfg: PopConfig,
}

impl PopScheme {
    /// Replica count per the paper's topology-size rule.
    pub fn new(env: Arc<Env>, objective: Objective) -> Self {
        let cfg = PopConfig::paper_default(env.topo().name());
        PopScheme {
            env,
            objective,
            cfg,
        }
    }
}

impl Scheme for PopScheme {
    fn name(&self) -> &str {
        "POP"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| solve_pop(&inst, self.objective, &self.cfg))
    }
}

/// TEAVAR*: failure-aware robust allocation (small topologies only).
pub struct TeavarScheme {
    env: Arc<Env>,
    /// Risk settings.
    pub cfg: TeavarConfig,
}

impl TeavarScheme {
    /// Default risk penalty.
    pub fn new(env: Arc<Env>) -> Self {
        TeavarScheme {
            env,
            cfg: TeavarConfig::default(),
        }
    }
}

impl Scheme for TeavarScheme {
    fn name(&self) -> &str {
        "TEAVAR*"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| solve_teavar(&inst, &self.cfg))
    }
}

/// Fleischer's combinatorial approximation (§2.1).
pub struct FleischerScheme {
    env: Arc<Env>,
    /// Accuracy parameter.
    pub epsilon: f64,
    /// Step budget.
    pub max_steps: usize,
}

impl FleischerScheme {
    /// ε = 0.1 with a generous step budget.
    pub fn new(env: Arc<Env>) -> Self {
        FleischerScheme {
            env,
            epsilon: 0.1,
            max_steps: 2_000_000,
        }
    }
}

impl Scheme for FleischerScheme {
    fn name(&self) -> &str {
        "Fleischer"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        timed(|| fleischer::solve(&inst, self.epsilon, self.max_steps).0)
    }
}

/// Shortest-path-only routing (lower-bound sanity baseline).
pub struct ShortestPathScheme {
    env: Arc<Env>,
}

impl ShortestPathScheme {
    /// Route everything on the first candidate path.
    pub fn new(env: Arc<Env>) -> Self {
        ShortestPathScheme { env }
    }
}

impl Scheme for ShortestPathScheme {
    fn name(&self) -> &str {
        "ShortestPath"
    }

    fn allocate(&mut self, _topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let env = &self.env;
        timed(|| Allocation::shortest_path(tm.len(), env.k()))
    }
}

/// Teal: one forward pass + warm-started ADMM.
pub struct TealScheme<M: PolicyModel> {
    engine: ServingContext<M>,
}

impl<M: PolicyModel> TealScheme<M> {
    /// Wrap a trained engine.
    pub fn new(engine: ServingContext<M>) -> Self {
        TealScheme { engine }
    }

    /// Access the engine.
    pub fn engine(&self) -> &ServingContext<M> {
        &self.engine
    }
}

impl<M: PolicyModel> Scheme for TealScheme<M> {
    fn name(&self) -> &str {
        "Teal"
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        self.engine.allocate_on(topo, tm)
    }

    fn allocate_batch(
        &mut self,
        topo: &Topology,
        tms: &[TrafficMatrix],
    ) -> (Vec<Allocation>, Duration) {
        self.engine.allocate_batch_on(topo, tms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_core::{EngineConfig, TealConfig, TealModel};
    use teal_lp::evaluate;
    use teal_topology::b4;

    fn setup() -> (Arc<Env>, TrafficMatrix) {
        let env = Arc::new(Env::for_topology(b4()));
        let tm = TrafficMatrix::new(vec![8.0; env.num_demands()]);
        (env, tm)
    }

    #[test]
    fn all_schemes_produce_feasible_allocations() {
        let (env, tm) = setup();
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let engine = ServingContext::new(model, EngineConfig::paper_default(12));
        let mut schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow)),
            Box::new(LpTopScheme::new(Arc::clone(&env), Objective::TotalFlow)),
            Box::new(NcflowScheme::new(Arc::clone(&env), Objective::TotalFlow)),
            Box::new(PopScheme::new(Arc::clone(&env), Objective::TotalFlow)),
            Box::new(TeavarScheme::new(Arc::clone(&env))),
            Box::new(FleischerScheme::new(Arc::clone(&env))),
            Box::new(ShortestPathScheme::new(Arc::clone(&env))),
            Box::new(TealScheme::new(engine)),
        ];
        for s in &mut schemes {
            let (alloc, dt) = s.allocate(env.topo(), &tm);
            assert!(alloc.demand_feasible(1e-6), "{} infeasible", s.name());
            assert!(dt.as_nanos() > 0, "{} reported zero time", s.name());
            let inst = env.instance(&tm);
            let f = evaluate(&inst, &alloc).realized_flow;
            assert!(f >= 0.0, "{} negative flow", s.name());
        }
    }

    #[test]
    fn teal_batched_scheme_matches_sequential() {
        let (env, _) = setup();
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let engine = ServingContext::new(model, EngineConfig::paper_default(12));
        let mut scheme = TealScheme::new(engine);
        let tms: Vec<TrafficMatrix> = (0..4)
            .map(|i| TrafficMatrix::new(vec![6.0 + 11.0 * i as f64; env.num_demands()]))
            .collect();
        let (batched, dt) = scheme.allocate_batch(env.topo(), &tms);
        assert!(dt.as_nanos() > 0);
        for (tm, b) in tms.iter().zip(&batched) {
            let (seq, _) = scheme.allocate(env.topo(), tm);
            for (x, y) in b.splits().iter().zip(seq.splits()) {
                assert!((x - y).abs() <= 1e-6, "batched {x} vs sequential {y}");
            }
        }
    }

    #[test]
    fn lp_all_dominates_shortest_path() {
        let (env, _) = setup();
        // Saturating demands make multipath matter.
        let tm = TrafficMatrix::new(vec![60.0; env.num_demands()]);
        let mut lp = LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow);
        let mut sp = ShortestPathScheme::new(Arc::clone(&env));
        let (a_lp, _) = lp.allocate(env.topo(), &tm);
        let (a_sp, _) = sp.allocate(env.topo(), &tm);
        let inst = env.instance(&tm);
        assert!(
            evaluate(&inst, &a_lp).realized_flow >= evaluate(&inst, &a_sp).realized_flow,
            "LP-all must dominate shortest-path routing"
        );
    }
}
