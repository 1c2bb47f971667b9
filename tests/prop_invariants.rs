//! Property-based tests (proptest) on the core invariants of the TE stack.

use proptest::prelude::*;

use teal::core::{mu_to_allocations, Env, FlowSim, PolicyModel, TealConfig, TealModel};
use teal::lp::simplex::{self, Row, SimplexStatus};
use teal::lp::{evaluate, pathlp, AdmmConfig, AdmmSkeleton, Allocation, Objective, TeInstance};
use teal::nn::{Graph, Tensor};
use teal::topology::{generate, PathSet, TopoKind, Topology};
use teal::traffic::TrafficMatrix;

/// A small random connected topology for property tests.
fn random_topo(seed: u64, n: usize) -> Topology {
    // Ring + chords keeps it connected and gives path diversity.
    let mut t = Topology::new("prop", n);
    for i in 0..n {
        t.add_link(i, (i + 1) % n, 50.0 + (seed % 7) as f64 * 10.0, 1.0);
    }
    let mut s = seed;
    for _ in 0..n / 2 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (s >> 16) as usize % n;
        let b = (s >> 32) as usize % n;
        if a != b && !t.has_link(a, b) {
            t.add_link(a, b, 40.0, 1.5);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simplex solution always satisfies every constraint and never
    /// loses to the origin.
    #[test]
    fn simplex_feasible_and_signed(seed in 0u64..500) {
        let n = 3 + (seed % 4) as usize;
        let mut s = seed;
        let mut next = || { s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493); (s >> 33) as f64 / (1u64 << 31) as f64 };
        let c: Vec<f64> = (0..n).map(|_| next() * 4.0 - 1.0).collect();
        let mut rows: Vec<Row> = (0..n).map(|j| Row { coeffs: vec![(j, 1.0)], rhs: 3.0 }).collect();
        rows.push(Row { coeffs: (0..n).map(|j| (j, 1.0 + next())).collect(), rhs: 2.0 + next() * 4.0 });
        let r = simplex::solve(&c, &rows, 10_000);
        prop_assert_eq!(r.status, SimplexStatus::Optimal);
        prop_assert!(r.objective >= -1e-9, "optimum below origin value");
        for row in &rows {
            let lhs: f64 = row.coeffs.iter().map(|&(j, v)| v * r.x[j]).sum();
            prop_assert!(lhs <= row.rhs + 1e-6);
        }
        for x in &r.x { prop_assert!(*x >= -1e-9); }
    }

    /// Projection onto the demand simplex is idempotent and feasible.
    #[test]
    fn projection_idempotent(splits in proptest::collection::vec(-2.0f64..3.0, 16)) {
        let mut a = Allocation::from_splits(4, splits);
        a.project_demand_constraints();
        prop_assert!(a.demand_feasible(1e-9));
        let once = a.clone();
        a.project_demand_constraints();
        // Idempotent up to floating-point rescaling noise.
        for (x, y) in a.splits().iter().zip(once.splits()) {
            prop_assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    /// The probability-simplex projection returns a point on the simplex.
    #[test]
    fn simplex_projection_on_simplex(v in proptest::collection::vec(-5.0f64..5.0, 1..8)) {
        let mut x = v;
        pathlp::project_simplex(&mut x);
        let sum: f64 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
        prop_assert!(x.iter().all(|u| *u >= -1e-12));
    }

    /// Realized flow never exceeds intended flow or total demand, and
    /// scaling all demands down never decreases the satisfied fraction.
    #[test]
    fn flow_semantics_bounds(seed in 0u64..200, volume in 1.0f64..200.0) {
        let topo = random_topo(seed, 6);
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![volume; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let mut alloc = Allocation::shortest_path(pairs.len(), 4);
        for d in 0..pairs.len() {
            alloc.set_demand_splits(d, &[0.4, 0.3, 0.2, 0.1]);
        }
        let stats = evaluate(&inst, &alloc);
        prop_assert!(stats.realized_flow <= stats.intended_flow + 1e-9);
        prop_assert!(stats.realized_flow <= stats.total_demand + 1e-9);
        prop_assert!(stats.satisfied_pct() <= 100.0 + 1e-9);

        let tm_small = TrafficMatrix::new(vec![volume * 0.25; pairs.len()]);
        let inst_small = TeInstance::new(&topo, &paths, &tm_small);
        let small = evaluate(&inst_small, &alloc);
        prop_assert!(small.satisfied_pct() >= stats.satisfied_pct() - 1e-6,
            "lighter load reduced satisfaction: {} vs {}", small.satisfied_pct(), stats.satisfied_pct());
    }

    /// ADMM output is always demand-feasible, and fine-tuning a feasible
    /// warm start keeps the objective within a sane band.
    #[test]
    fn admm_output_feasible(seed in 0u64..100, volume in 10.0f64..300.0) {
        let topo = random_topo(seed, 5);
        let pairs: Vec<(usize, usize)> = vec![(0, 2), (1, 3), (4, 0)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![volume, volume * 0.5, volume * 0.25]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (out, rep) = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow).solve(
            &tm,
            &Allocation::zeros(3, 4),
            AdmmConfig { rho: 1.0, max_iters: 200, tol: 1e-4 },
        );
        prop_assert!(out.demand_feasible(1e-6));
        prop_assert!(rep.primal_residual.is_finite());
        let flow = evaluate(&inst, &out).realized_flow;
        prop_assert!(flow >= 0.0 && flow <= tm.total() + 1e-6);
    }

    /// Yen's paths are simple, weight-ordered, and connect the endpoints.
    #[test]
    fn yen_paths_invariants(seed in 0u64..300) {
        let topo = random_topo(seed, 7);
        let s = (seed % 7) as usize;
        let t = ((seed / 7) % 7) as usize;
        prop_assume!(s != t);
        let paths = teal::topology::k_shortest_paths(&topo, s, t, 4);
        prop_assert!(!paths.is_empty());
        for w in paths.windows(2) {
            prop_assert!(w[0].weight <= w[1].weight + 1e-9);
        }
        for p in &paths {
            prop_assert!(p.is_simple());
            prop_assert_eq!(p.nodes[0], s);
            prop_assert_eq!(*p.nodes.last().unwrap(), t);
            // Edge chain is consistent with the node list.
            for (i, &e) in p.edges.iter().enumerate() {
                prop_assert_eq!(topo.edge(e).src, p.nodes[i]);
                prop_assert_eq!(topo.edge(e).dst, p.nodes[i + 1]);
            }
        }
    }

    /// The incremental counterfactual reward always matches a full
    /// recomputation.
    #[test]
    fn counterfactual_equals_full(seed in 0u64..60) {
        let topo = random_topo(seed, 6);
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let env = Env::new(topo, paths);
        let tm = TrafficMatrix::new(
            (0..pairs.len()).map(|i| 5.0 + (i % 4) as f64 * 7.0).collect(),
        );
        let mut alloc = Allocation::zeros(pairs.len(), 4);
        for d in 0..pairs.len() {
            alloc.set_demand_splits(d, &[0.25, 0.25, 0.25, 0.25]);
        }
        let mut sim = FlowSim::new(&env, &tm, None);
        sim.set_allocation(&alloc);
        let d = (seed as usize * 13) % pairs.len();
        let new_splits = [0.9, 0.1, 0.0, 0.0];
        let incr = sim.counterfactual_reward(d, &new_splits);
        let mut changed = alloc.clone();
        changed.set_demand_splits(d, &new_splits);
        let mut sim2 = FlowSim::new(&env, &tm, None);
        let full = sim2.full_reward(&changed);
        prop_assert!((incr - full).abs() < 1e-7 * (1.0 + full.abs()),
            "incremental {} vs full {}", incr, full);
    }

    /// Autograd: d/dx sum(softmax(Wx)) gradients stay finite for random
    /// inputs, and softmax rows stay on the probability simplex.
    #[test]
    fn autograd_numerics_stay_finite(vals in proptest::collection::vec(-10.0f32..10.0, 12)) {
        let mut g = Graph::new();
        let x = g.param(Tensor::from_vec(3, 4, vals));
        let s = g.softmax_rows(x);
        let sq = g.mul(s, s);
        let loss = g.sum_all(sq);
        g.backward(loss);
        prop_assert!(g.grad(x).all_finite());
        let v = g.value(s);
        for r in 0..3 {
            let sum: f32 = v.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    /// Batched inference equals the sequential path: the stacked input
    /// training and the benchmark use (`infer_mu` over `batch_input`) must
    /// reproduce per-matrix `allocate_deterministic` — what a serving window
    /// runs per pool task — bit for bit on random topologies, traffic, and
    /// batch sizes (every forward kernel is row-wise).
    #[test]
    fn batched_allocation_equals_sequential(seed in 0u64..30, volume in 1.0f64..150.0) {
        let topo = random_topo(seed, 6);
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let env = std::sync::Arc::new(Env::new(topo, paths));
        let model = TealModel::new(
            std::sync::Arc::clone(&env),
            TealConfig { gnn_layers: 3, seed, ..TealConfig::default() },
        );
        let batch = 2 + (seed % 3) as usize;
        let tms: Vec<TrafficMatrix> = (0..batch)
            .map(|b| {
                TrafficMatrix::new(
                    (0..pairs.len())
                        .map(|d| volume * (0.2 + ((b * 7 + d) % 5) as f64 * 0.4))
                        .collect(),
                )
            })
            .collect();
        let input = env.batch_input(&tms, None);
        let batched = mu_to_allocations(&model.infer_mu(&input), input.batch);
        prop_assert_eq!(batched.len(), tms.len());
        for (tm, b) in tms.iter().zip(&batched) {
            let seq = model.allocate_deterministic(&env.model_input(tm, None));
            prop_assert_eq!(b, &seq, "stacked forward diverged from per-matrix");
        }
    }

    /// Traffic generation: non-negative demands and scale-invariance of the
    /// heavy-tail share statistic.
    #[test]
    fn traffic_invariants(seed in 0u64..100) {
        let pairs: Vec<(usize, usize)> = (0..120).map(|i| (i, i + 120)).collect();
        let model = teal::traffic::TrafficModel::new(
            &pairs,
            teal::traffic::TrafficConfig::default(),
            seed,
        );
        let tms = model.series(0, 4);
        for tm in &tms {
            prop_assert!(tm.demands().iter().all(|d| d.is_finite() && *d >= 0.0));
            let share = tm.top_share(0.10);
            prop_assert!((0.0..=1.0).contains(&share));
            // Heavy tail: the top decile must dominate.
            prop_assert!(share > 0.5, "top-10% share only {}", share);
        }
    }
}

#[test]
fn env_incidence_consistent_on_generated_topologies() {
    for kind in [TopoKind::B4, TopoKind::Swan] {
        let topo = generate(
            kind,
            0.3_f64.max(if kind == TopoKind::B4 { 1.0 } else { 0.3 }),
            3,
        );
        let pairs: Vec<(usize, usize)> = topo.all_pairs().into_iter().take(50).collect();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let env = Env::new(topo, paths);
        let a = env.incidence();
        assert_eq!(a.fwd.rows(), env.paths().num_paths());
        // Every path's nnz count equals its hop count.
        let total_hops: usize = env.paths().paths().iter().map(|p| p.len()).sum();
        assert_eq!(a.fwd.nnz(), total_hops);
    }
}
