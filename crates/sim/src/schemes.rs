//! Uniform `Scheme` interface over Teal and every baseline, with wall-clock
//! timing — the "computation time" measured throughout §5.

use std::sync::Arc;
use std::time::{Duration, Instant};
use teal_baselines::{solve_lp_top, solve_ncflow, solve_pop, solve_teavar};
use teal_core::{Env, PolicyModel, ServingContext};
use teal_lp::{solve_lp, Allocation, Objective, TeInstance};
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
    /// and sums the times each call reports; schemes with a genuinely
    /// batched data path (Teal) override it with a measured batched run.
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

/// The solver a [`Baseline`] runs: exactly the baselines §5's figures
/// evaluate, each at the one setting §5.1 gives it, a constant in that
/// solver's module. NCFlow and POP solve [`Objective::TotalFlow`] and read
/// their cluster and replica counts off the topology they are given, whose
/// failed-link twin keeps its name and node count.
#[derive(Clone, Copy, Debug)]
pub enum Solver {
    /// LP-all: the full path LP (exact simplex on small instances, ADMM to
    /// convergence on large ones — our Gurobi substitute).
    LpAll(Objective),
    /// LP-top: demand pinning with α = 10%.
    LpTop(Objective),
    /// NCFlow-like cluster decomposition, √n clusters.
    Ncflow,
    /// POP capacity-split replicas, the replica count by topology family.
    Pop,
    /// TEAVAR*: failure-aware robust allocation (small topologies only).
    Teavar,
}

/// A baseline TE scheme: one [`Solver`] over an environment's candidate
/// paths.
pub struct Baseline {
    env: Arc<Env>,
    solver: Solver,
}

impl Baseline {
    /// `solver` over `env`'s candidate paths.
    pub fn new(env: Arc<Env>, solver: Solver) -> Self {
        Baseline { env, solver }
    }
}

impl Scheme for Baseline {
    fn name(&self) -> &str {
        match self.solver {
            Solver::LpAll(_) => "LP-all",
            Solver::LpTop(_) => "LP-top",
            Solver::Ncflow => "NCFlow",
            Solver::Pop => "POP",
            Solver::Teavar => "TEAVAR*",
        }
    }

    fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
        let inst = TeInstance::new(topo, self.env.paths(), tm);
        let t0 = Instant::now();
        let alloc = match self.solver {
            Solver::LpAll(obj) => solve_lp(&inst, obj),
            Solver::LpTop(obj) => solve_lp_top(&inst, obj),
            Solver::Ncflow => solve_ncflow(&inst),
            Solver::Pop => solve_pop(&inst),
            Solver::Teavar => solve_teavar(&inst),
        };
        (alloc, t0.elapsed())
    }
}

/// Teal: one forward pass + warm-started ADMM. Repeat windows reuse the
/// calling thread's ADMM arena.
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
        let (mut allocs, dt) = self.allocate_batch(topo, std::slice::from_ref(tm));
        (allocs.remove(0), dt)
    }

    fn allocate_batch(
        &mut self,
        topo: &Topology,
        tms: &[TrafficMatrix],
    ) -> (Vec<Allocation>, Duration) {
        self.engine
            .try_allocate_batch_on(topo, tms)
            .unwrap_or_else(|e| panic!("Teal: {e}"))
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
        let mut schemes: Vec<Box<dyn Scheme>> = [
            Solver::LpAll(Objective::TotalFlow),
            Solver::LpTop(Objective::TotalFlow),
            Solver::Ncflow,
            Solver::Pop,
            Solver::Teavar,
        ]
        .into_iter()
        .map(|solver| Box::new(Baseline::new(Arc::clone(&env), solver)) as Box<dyn Scheme>)
        .collect();
        schemes.push(Box::new(TealScheme::new(engine)));
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

    fn bits(alloc: &Allocation) -> Vec<u64> {
        alloc.splits().iter().map(|v| v.to_bits()).collect()
    }

    /// Each baseline allocates exactly what a direct call of its solver
    /// returns. Each solver reads its §5.1 setting itself: the 15-node Kdl
    /// instance puts POP on 8 replicas and NCFlow on 4 clusters, B4 on 1
    /// and 3, and `tests/baseline_bits.rs` pins what those settings
    /// allocate.
    #[test]
    fn every_baseline_runs_its_solver() {
        use teal_topology::{generate, PathSet, TopoKind};
        let kdl = {
            let topo = generate(TopoKind::Kdl, 0.02, 5);
            let mut pairs = topo.all_pairs();
            pairs.truncate(40);
            let paths = PathSet::compute(&topo, &pairs, 4);
            Arc::new(Env::new(topo, paths))
        };
        let obj = Objective::TotalFlow;
        let mlu = Objective::MinMaxLinkUtil;
        for env in [setup().0, kdl] {
            let nd = env.num_demands();
            let tm = TrafficMatrix::new((0..nd).map(|d| 1.0 + 3.0 * (d * 7 % 11) as f64).collect());
            let inst = env.instance(&tm);
            let direct = [
                (Solver::LpAll(obj), solve_lp(&inst, obj)),
                (Solver::LpAll(mlu), solve_lp(&inst, mlu)),
                (Solver::LpTop(obj), solve_lp_top(&inst, obj)),
                (Solver::Ncflow, solve_ncflow(&inst)),
                (Solver::Pop, solve_pop(&inst)),
                (Solver::Teavar, solve_teavar(&inst)),
            ];
            for (solver, want) in direct {
                let mut baseline = Baseline::new(Arc::clone(&env), solver);
                let (got, _) = baseline.allocate(env.topo(), &tm);
                let name = baseline.name();
                assert_eq!(bits(&got), bits(&want), "{name} on {}", env.topo().name());
            }
        }
    }

    #[test]
    fn lp_all_dominates_shortest_path() {
        let (env, _) = setup();
        // Saturating demands make multipath matter.
        let tm = TrafficMatrix::new(vec![60.0; env.num_demands()]);
        let mut lp = Baseline::new(Arc::clone(&env), Solver::LpAll(Objective::TotalFlow));
        let (a_lp, _) = lp.allocate(env.topo(), &tm);
        let a_sp = Allocation::shortest_path(env.num_demands(), env.k());
        let inst = env.instance(&tm);
        assert!(
            evaluate(&inst, &a_lp).realized_flow >= evaluate(&inst, &a_sp).realized_flow,
            "LP-all must dominate shortest-path routing"
        );
    }
}
