//! Deadline-aware scheduling end to end: EDF drain order (and its
//! inversion telemetry, pinned at zero), the deadline-capped
//! linger window, deadline pressure leaving the configured ADMM iteration
//! count alone, and the stage-accounting guarantees of multi-chunk drains.

use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_lp::{AdmmConfig, Objective};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, SubmitRequest};
use teal_topology::b4;
use teal_traffic::TrafficMatrix;

fn model_cfg(seed: u64) -> TealConfig {
    TealConfig {
        gnn_layers: 2,
        seed,
        ..TealConfig::default()
    }
}

fn context(env: &Arc<Env>, seed: u64) -> ServingContext<TealModel> {
    ServingContext::new(
        TealModel::new(Arc::clone(env), model_cfg(seed)),
        EngineConfig::paper_default(env.topo().num_nodes()),
    )
}

/// A context whose ADMM count is the paper's *large-topology* 5 even on
/// b4, so a window cut to the small-topology 2 would show.
fn context_budget5(env: &Arc<Env>) -> ServingContext<TealModel> {
    ServingContext::new(
        TealModel::new(Arc::clone(env), model_cfg(3)),
        EngineConfig {
            admm: Some(AdmmConfig {
                rho: 1.0,
                max_iters: 5,
                tol: 0.0,
            }),
            objective: Objective::TotalFlow,
        },
    )
}

/// One drain holding both plain and deadline'd requests, the looser
/// deadline submitted first: the EDF drain must serve every request
/// without a deadline inversion. (That the counter *can* go non-zero on an
/// out-of-order group is shown by the `deadline_inversions` unit test in
/// `daemon.rs`.)
#[test]
fn edf_drain_serves_without_deadline_inversions() {
    let env = Arc::new(Env::for_topology(b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            // Long linger + big batch: everything below lands in ONE
            // drain, so the drain order alone decides serving order.
            linger: Duration::from_millis(150),
            max_batch: 64,
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    let mut tickets = Vec::new();
    for _ in 0..6 {
        tickets.push(daemon.submit(SubmitRequest::new("b4", tm.clone())));
    }
    // Looser deadline submitted *before* the tighter one: arrival order
    // would serve 60 s before 30 s (an inversion); EDF swaps them.
    tickets.push(
        daemon.submit(SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_secs(60))),
    );
    tickets.push(
        daemon.submit(SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_secs(30))),
    );
    for (i, t) in tickets.into_iter().enumerate() {
        t.wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("request {i} not served: {e}"));
    }
    let stats = daemon.stats();
    assert_eq!(stats.completed, 8, "lost requests");
    assert_eq!(stats.expired, 0, "generous deadlines expired");
    assert_eq!(
        stats.deadline_inversions, 0,
        "EDF drain must never serve a tighter deadline after a looser one"
    );
}

/// The linger window must not burn a deadline'd request's budget: with a
/// 10-second linger and a 200 ms deadline, the drain has to fire at the
/// request's budget midpoint (~100 ms), leaving half the budget to solve —
/// the request is *served*, not expired.
#[test]
fn linger_is_capped_by_deadline_budget() {
    let env = Arc::new(Env::for_topology(b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    let reply = daemon
        .submit(SubmitRequest::new("b4", tm).with_deadline(Duration::from_millis(200)))
        .wait_timeout(Duration::from_secs(5))
        .expect("deadline'd request must be served, not expired by the linger");
    // Queue-wait ≈ the budget midpoint (100 ms), nowhere near the 10 s
    // linger; generous slop for CI scheduling noise.
    assert!(
        reply.stages.queue_wait < Duration::from_millis(190),
        "linger ignored the deadline cap: queue-wait {:?}",
        reply.stages.queue_wait
    );
    let stats = daemon.stats();
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.completed, 1);
}

/// Deadline pressure does not touch the ADMM iteration count: the shard's
/// queue-wait history says it is slow (every lone plain request waits out
/// the 80 ms linger), and a deadline'd request then arrives with less
/// headroom than that, yet every lane of every window runs the configured
/// 5 iterations.
#[test]
fn deadline_pressure_keeps_the_configured_iterations() {
    let env = Arc::new(Env::for_topology(b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context_budget5(&env));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(80),
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    for _ in 0..6 {
        daemon.allocate("b4", tm.clone()).expect("plain serve");
    }
    // A 120 ms deadline: the deadline-capped linger drains at ~60 ms,
    // leaving ~60 ms of headroom against a queue-wait p99 of ~80 ms.
    let reply = daemon
        .submit(SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_millis(120)))
        .wait_timeout(Duration::from_secs(10))
        .expect("deadline'd request served");
    assert!(reply.batch_size >= 1);
    let stats = daemon.stats();
    let admm = stats.per_topology[0].admm.as_ref().expect("ADMM ran");
    assert_eq!(admm.lanes, 7, "every request is one lane: {admm:?}");
    assert_eq!(
        (admm.min_lane_iterations, admm.max_lane_iterations),
        (5, 5),
        "a lane ran other than the configured 5 iterations: {admm:?}"
    );
    assert_eq!(admm.iterations, admm.lanes * 5, "{admm:?}");
}

/// Multi-chunk drains must still partition end-to-end latency exactly into
/// queue-wait + solve + write. A busy shard accumulates 6 requests, then
/// drains them into 3 chunks of `max_batch = 2`; before the fix the
/// drain-time stamp ended queue-wait for *all* chunks at once, leaving the
/// later chunks' wait-for-their-turn unaccounted.
#[test]
fn multi_chunk_drain_stages_partition_latency_exactly() {
    let env = Arc::new(Env::for_topology(b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            max_batch: 2,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    // First request busies the shard; the next 6 queue up behind it and
    // drain together into 3 chunks.
    let head = daemon.submit(SubmitRequest::new("b4", tm.clone()));
    let tickets: Vec<_> = (0..6)
        .map(|_| daemon.submit(SubmitRequest::new("b4", tm.clone())))
        .collect();
    let mut replies = vec![head
        .wait_timeout(Duration::from_secs(30))
        .expect("head served")];
    for t in tickets {
        replies.push(t.wait_timeout(Duration::from_secs(30)).expect("served"));
    }
    assert!(
        replies.iter().any(|r| r.batch_size == 2),
        "no coalesced chunk formed — the drain never went multi-chunk"
    );
    for (i, r) in replies.iter().enumerate() {
        let sum = r.stages.queue_wait + r.stages.solve + r.stages.write;
        assert_eq!(
            sum, r.latency,
            "request {i}: stages {:?} do not partition e2e latency {:?}",
            r.stages, r.latency
        );
    }
    let stats = daemon.stats();
    let served: usize = stats
        .batch_sizes
        .iter()
        .map(|&(size, n)| size * n as usize)
        .sum();
    assert_eq!(served, 7, "batch-size histogram lost requests");
}

/// Batch-size telemetry counts post-expiry, post-grouping chunk sizes: a
/// request that expires at drain time must not inflate the size of the
/// batch that actually went through the solver.
#[test]
fn batch_size_histogram_excludes_expired_requests() {
    let env = Arc::new(Env::for_topology(b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(200),
            max_batch: 128,
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    // 16 plain requests pile up inside the linger window...
    let tickets: Vec<_> = (0..16)
        .map(|_| daemon.submit(SubmitRequest::new("b4", tm.clone())))
        .collect();
    // ...then a request whose 1 ns budget is unmeetable: the deadline cap
    // fires the drain immediately, and the budget is already gone by the
    // time the shard wakes — it expires at drain, deterministically.
    let doomed =
        daemon.submit(SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_nanos(1)));
    assert!(
        doomed.wait_timeout(Duration::from_secs(30)).is_err(),
        "1 ns budget cannot be served"
    );
    for t in tickets {
        t.wait_timeout(Duration::from_secs(30)).expect("served");
    }
    let stats = daemon.stats();
    assert_eq!(stats.expired, 1);
    let served: usize = stats
        .batch_sizes
        .iter()
        .map(|&(size, n)| size * n as usize)
        .sum();
    assert_eq!(
        served, 16,
        "expired request leaked into the batch-size histogram: {:?}",
        stats.batch_sizes
    );
    assert!(
        stats.batch_sizes.iter().all(|&(size, _)| size <= 16),
        "a recorded batch counted the expired request: {:?}",
        stats.batch_sizes
    );
}
