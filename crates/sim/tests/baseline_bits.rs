//! Every baseline's allocation pinned to its bits.
//!
//! Each `Solver` runs through `Baseline::new(..).allocate(..)`, the way the
//! figure drivers serve it, on two topologies:
//! - B4 (all 132 pairs: NCFlow at 3 clusters, POP at 1 replica);
//! - a 15-node Kdl, `generate(Kdl, 0.02, 5)` with its first 40 pairs
//!   (NCFlow at 4 clusters, POP at 8 replicas).
//!
//! The traffic is calibrated `TrafficModel` traffic (seed 11, interval 0).
//! Each solver allocates once on the plain topology and once on a twin with
//! one failed link, and the FNV-1a hash of every split's `f64` bits, both
//! allocations in that order, is pinned per solver and topology. A change to
//! a solver, to the setting it runs at or to where that setting is read
//! that moves one bit of one split fails here.

use std::sync::Arc;
use teal_core::Env;
use teal_lp::Objective;
use teal_sim::{Baseline, Scheme, Solver};
use teal_topology::{b4, generate, PathSet, TopoKind, Topology};
use teal_traffic::{TrafficConfig, TrafficModel};

/// The environment and its calibrated interval-0 matrix.
fn testbed(topo: Topology, pairs: usize) -> (Arc<Env>, teal_traffic::TrafficMatrix) {
    let mut all = topo.all_pairs();
    all.truncate(pairs);
    let paths = PathSet::compute(&topo, &all, 4);
    let env = Arc::new(Env::new(topo, paths));
    let mut traffic = TrafficModel::new(env.paths().pairs(), TrafficConfig::default(), 11);
    traffic.calibrate(env.topo(), env.paths());
    let tm = traffic.series(0, 1).remove(0);
    (env, tm)
}

/// FNV-1a over the `f64` bits of every split of the plain and the
/// failed-link allocation.
fn allocation_hash(env: &Arc<Env>, tm: &teal_traffic::TrafficMatrix, solver: Solver) -> u64 {
    let link = &env.topo().edges()[0];
    let failed = env.topo().with_failed_link(link.src, link.dst);
    let mut baseline = Baseline::new(Arc::clone(env), solver);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for topo in [env.topo(), &failed] {
        let (alloc, _) = baseline.allocate(topo, tm);
        for byte in alloc
            .splits()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Check every solver's hash on one testbed, reporting all mismatches.
fn assert_pinned(env: &Arc<Env>, tm: &teal_traffic::TrafficMatrix, want: [(Solver, u64); 6]) {
    let mut wrong = Vec::new();
    for (solver, pinned) in want {
        let got = allocation_hash(env, tm, solver);
        if got != pinned {
            wrong.push(format!(
                "{solver:?}: got {got:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}: {wrong:#?}", env.topo().name());
}

#[test]
fn b4_baselines_are_pinned() {
    let topo = b4();
    let pairs = topo.all_pairs().len();
    let (env, tm) = testbed(topo, pairs);
    assert_pinned(
        &env,
        &tm,
        [
            (Solver::LpAll(Objective::TotalFlow), 0x3653_3798_0445_fe23),
            (
                Solver::LpAll(Objective::MinMaxLinkUtil),
                0xb2d1_8567_eae8_629d,
            ),
            (Solver::LpTop(Objective::TotalFlow), 0x1a4b_2fbe_773c_3a88),
            (Solver::Ncflow, 0xf388_ec72_7f0c_7110),
            (Solver::Pop, 0x3653_3798_0445_fe23),
            (Solver::Teavar, 0x9611_4dfa_b899_f992),
        ],
    );
}

#[test]
fn kdl_baselines_are_pinned() {
    let (env, tm) = testbed(generate(TopoKind::Kdl, 0.02, 5), 40);
    assert_pinned(
        &env,
        &tm,
        [
            (Solver::LpAll(Objective::TotalFlow), 0x1e28_d7a3_5e7a_f485),
            (
                Solver::LpAll(Objective::MinMaxLinkUtil),
                0xfa44_ec78_ebe9_63dd,
            ),
            (Solver::LpTop(Objective::TotalFlow), 0x323d_9ce1_36d3_7625),
            (Solver::Ncflow, 0x53a4_7a6a_9706_9fed),
            (Solver::Pop, 0x7397_c9c3_e5cf_4f4c),
            (Solver::Teavar, 0x76db_52f2_d280_a894),
        ],
    );
}
