//! Every [`FlowStats`] value pinned to its bits.
//!
//! `data/flow_stats_golden.txt` holds one line per case: the case name, the
//! `to_bits` of every `FlowStats` scalar, and an FNV-1a hash of the bits of
//! `edge_loads`. The cases cross three topologies (B4, Swan(0.3) and
//! `large_wan(256)` on gravity pairs), four allocations (uniform, shortest
//! path, seeded random with zero splits, ADMM fine-tuned), the plain and a
//! one-failed-link topology (the allocation stays the one computed on the
//! plain graph, as after a failure) and γ ∈ {0.5, 0.9}. Traffic is a
//! calibrated series matrix scaled ×1.5, with every seventh demand zeroed.
//! A change to the reconciliation that moves one output bit fails here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_lp::{evaluate_with_gamma, AdmmConfig, AdmmSkeleton, Allocation, Objective, TeInstance};
use teal_topology::{b4, generate, gravity_pairs, large_wan, PathSet, TopoKind, Topology};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

/// FNV-1a over the little-endian bytes of every word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One calibrated matrix, pushed past capacity, with zero-volume demands.
fn traffic(topo: &Topology, paths: &PathSet, seed: u64) -> TrafficMatrix {
    let mut model = TrafficModel::new(paths.pairs(), TrafficConfig::default(), seed);
    model.calibrate(topo, paths);
    let tm = model.series(3, 1).remove(0);
    let demands = tm.demands().iter().enumerate();
    TrafficMatrix::new(
        demands
            .map(|(d, &v)| if d % 7 == 3 { 0.0 } else { 1.5 * v })
            .collect(),
    )
}

/// The four allocations every topology is scored with.
fn allocations(
    topo: &Topology,
    paths: &PathSet,
    tm: &TrafficMatrix,
) -> Vec<(&'static str, Allocation)> {
    let (nd, k) = (paths.num_demands(), paths.k());
    let uniform = Allocation::from_splits(k, vec![1.0 / k as f64; nd * k]);
    let mut rng = StdRng::seed_from_u64(0x601d_f10e);
    let random = Allocation::from_splits(
        k,
        (0..nd * k)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.25 {
                    0.0
                } else {
                    rng.gen_range(0.0..0.6)
                }
            })
            .collect(),
    );
    let skel = AdmmSkeleton::new(topo, paths, Objective::TotalFlow);
    let tuned = skel
        .solve(tm, &random, AdmmConfig::fine_tune(topo.num_nodes()))
        .0;
    vec![
        ("uniform", uniform),
        ("shortest", Allocation::shortest_path(nd, k)),
        ("random", random),
        ("admm", tuned),
    ]
}

/// The golden text: one line per (topology, allocation, failure, γ).
fn golden_lines() -> String {
    let wan = large_wan(256, 7);
    let wan_pairs = gravity_pairs(&wan, 512, 6);
    let swan = generate(TopoKind::Swan, 0.3, 7);
    let swan_pairs = swan.all_pairs();
    let mut out = String::new();
    for (name, topo, pairs) in [
        ("b4", b4(), b4().all_pairs()),
        ("swan", swan, swan_pairs),
        ("wan256", wan, wan_pairs),
    ] {
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = traffic(&topo, &paths, 11);
        let failed_edge = topo.edge(0);
        let failed = topo.with_failed_link(failed_edge.src, failed_edge.dst);
        for (alloc_name, alloc) in allocations(&topo, &paths, &tm) {
            for (state, graph) in [("plain", &topo), ("failed", &failed)] {
                for gamma in [0.5, 0.9] {
                    let inst = TeInstance::new(graph, &paths, &tm);
                    let s = evaluate_with_gamma(&inst, &alloc, gamma);
                    out.push_str(&format!(
                        "{name} {alloc_name} {state} {gamma} {:016x} {:016x} {:016x} {:016x} \
                         {:016x} {:016x} {:016x}\n",
                        s.intended_flow.to_bits(),
                        s.realized_flow.to_bits(),
                        s.total_demand.to_bits(),
                        s.max_link_util.to_bits(),
                        s.delay_penalized_flow.to_bits(),
                        s.total_overuse.to_bits(),
                        fnv(s.edge_loads.iter().map(|l| l.to_bits())),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn flow_stats_golden() {
    let golden = include_str!("data/flow_stats_golden.txt");
    let got = golden_lines();
    assert_eq!(got.lines().count(), golden.lines().count(), "case count");
    for (g, w) in got.lines().zip(golden.lines()) {
        assert_eq!(g, w, "FlowStats bits moved");
    }
}
