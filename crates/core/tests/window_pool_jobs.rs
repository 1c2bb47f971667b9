//! Dispatches per window, pinned with no wall clock: a serving window
//! submits exactly **one** `teal_nn::pool` job — the forward pass, indexed
//! by matrix. ADMM runs on the calling thread and submits none.
//!
//! `teal_nn::pool::stats()` is process-wide, so this binary holds a single
//! `#[test]` (as the counting-allocator suites do) and nothing else can
//! move the counter. It pins `TEAL_NN_THREADS=4` before the first job (the
//! cap is read once per process) so a stage that fans out cannot hide
//! behind a one-CPU host's inline path.

use std::sync::Arc;
use teal_core::{BatchScratch, EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_topology::b4;
use teal_traffic::TrafficMatrix;

#[test]
fn a_window_submits_one_pool_job() {
    std::env::set_var("TEAL_NN_THREADS", "4");
    assert_eq!(teal_nn::pool::max_threads(), 4, "thread cap already frozen");

    let env = Arc::new(Env::for_topology(b4()));
    let ctx = ServingContext::new(
        TealModel::new(Arc::clone(&env), TealConfig::default()),
        EngineConfig::paper_default(12),
    );
    let nd = env.num_demands();
    let failed = env.topo().with_failed_link(0, 1);
    let mut scratch = BatchScratch::new();
    for (w, &nb) in [8usize, 1, 8, 1, 1, 8].iter().enumerate() {
        let tms: Vec<TrafficMatrix> = (0..nb)
            .map(|i| TrafficMatrix::new(vec![6.0 + 5.0 * (w * 8 + i) as f64; nd]))
            .collect();
        let before = teal_nn::pool::stats().jobs;
        let served = if w % 2 == 1 {
            ctx.try_allocate_batch_on_with(&failed, &tms, &mut scratch)
        } else {
            ctx.try_allocate_batch_with(&tms, &mut scratch)
        };
        let jobs = teal_nn::pool::stats().jobs - before;
        let (allocs, _) = served.expect("window");
        assert_eq!(allocs.len(), nb);
        // The ADMM stage did run: the one job is not an ADMM-less window's.
        let report = scratch.solve_report().expect("ADMM report");
        assert!(report.mean_iterations() >= 1.0);
        assert_eq!(
            jobs, 1,
            "window {w} ({nb} matrices) submitted {jobs} pool jobs; \
             the forward pass is the only stage that may submit one"
        );
    }
}
