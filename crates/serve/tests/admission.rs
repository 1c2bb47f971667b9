//! In-process admission-control semantics: bounded waits
//! ([`Ticket::wait_timeout`]), enqueue-time sheds, queue-full sheds for
//! deadline'd requests, and failure-aware coalescing equivalence.

use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, ServeError, SubmitRequest};
use teal_traffic::TrafficMatrix;

fn context(env: &Arc<Env>, seed: u64) -> ServingContext<TealModel> {
    ServingContext::new(
        TealModel::new(
            Arc::clone(env),
            TealConfig {
                gnn_layers: 3,
                seed,
                ..TealConfig::default()
            },
        ),
        EngineConfig::paper_default(env.topo().num_nodes()),
    )
}

#[test]
fn timed_out_wait_does_not_leak_the_queue_gauge() {
    // A caller abandoning its ticket must not corrupt the daemon's
    // accounting: the request is still drained (gauge back to zero) and
    // still answered into its slot.
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    // A long linger holds the request in the queue well past the wait.
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(300),
            max_batch: 64,
            ..ServeConfig::default()
        },
    );
    let tm = TrafficMatrix::new(vec![10.0; env.num_demands()]);
    let ticket = daemon.submit(SubmitRequest::new("b4", tm.clone()));
    assert!(daemon.stats().queue_depth >= 1, "request not gauged in");
    match ticket.wait_timeout(Duration::from_millis(10)) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected wait_timeout to bound the wait, got {other:?}"),
    }
    // The shard still serves the abandoned request; once it drains, the
    // gauge must return to zero — nothing about the caller's timeout may
    // leak it.
    daemon.shutdown();
    let stats = daemon.stats();
    assert_eq!(stats.queue_depth, 0, "abandoned ticket leaked the gauge");
    assert_eq!(stats.completed, 1, "abandoned request was never served");

    // And a wait_timeout with room to spare returns the reply itself.
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::with_defaults(registry);
    let reply = daemon
        .submit(SubmitRequest::new("b4", tm))
        .wait_timeout(Duration::from_secs(30))
        .expect("bounded wait with budget must serve");
    assert!(reply.batch_size >= 1);
}

#[test]
fn full_queue_sheds_deadlined_requests_but_backpressures_plain_ones() {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    // Tiny queue and a linger long enough to keep it full while we probe.
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(400),
            max_batch: 64,
            queue_capacity: 2,
        },
    );
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    let t1 = daemon.submit(SubmitRequest::new("b4", tm.clone()));
    let t2 = daemon.submit(SubmitRequest::new("b4", tm.clone()));
    // Queue is now at capacity (2) inside the linger window: a deadline'd
    // request must be shed immediately as Overloaded, not block.
    let start = std::time::Instant::now();
    let shed = daemon
        .submit(SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_secs(10)))
        .wait();
    assert!(
        start.elapsed() < Duration::from_millis(200),
        "deadline'd submit blocked on a full queue"
    );
    match shed {
        Err(ServeError::Overloaded(msg)) => {
            assert!(msg.contains("queue full"), "wrong shed diagnosis: {msg}")
        }
        other => panic!("expected Overloaded shed, got {other:?}"),
    }
    // The two queued requests still serve.
    t1.wait().expect("queued request served");
    t2.wait().expect("queued request served");
    let stats = daemon.stats();
    assert!(stats.shed >= 1, "shed not counted: {stats:?}");
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn failure_coalescing_matches_direct_overrides() {
    // A window mixing plain traffic with two distinct failure scenarios
    // must sub-batch by signature: every reply equals its direct
    // counterpart (1e-6 — coalesced batches), and link order/duplication
    // in the request must not split a scenario's sub-batch. Then the same
    // three kinds as alternating singleton windows on one shard, bitwise.
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let ref_ctx = context(&env, 2);
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 2));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let nd = env.num_demands();
    let tms: Vec<TrafficMatrix> = (0..12)
        .map(|i| TrafficMatrix::new(vec![3.0 + 4.0 * i as f64; nd]))
        .collect();
    let topo_a = env.topo().with_failed_link(0, 1);
    let topo_b = env.topo().with_failed_link(2, 3).with_failed_link(0, 1);

    // Submit the whole window back-to-back so one drain sees all of it:
    // 4 plain, 4 on scenario A, 4 on scenario B — B's links given in
    // different orders (and once duplicated) to exercise canonicalization.
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let req = SubmitRequest::new("b4", tms[i].clone());
            let req = match i % 3 {
                0 => req,
                1 => req.with_failed_link(1, 0),
                _ => match i {
                    2 => req.with_failed_links([(2, 3), (0, 1)]),
                    5 => req.with_failed_links([(0, 1), (2, 3)]),
                    8 => req.with_failed_links([(1, 0), (3, 2), (0, 1)]),
                    _ => req.with_failed_links([(3, 2), (1, 0)]),
                },
            };
            daemon.submit(req)
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let reply = t.wait().expect("window request served");
        let one = std::slice::from_ref(&tms[i]);
        let (mut want, _) = match i % 3 {
            0 => ref_ctx.try_allocate_batch(one),
            1 => ref_ctx.try_allocate_batch_on(&topo_a, one),
            _ => ref_ctx.try_allocate_batch_on(&topo_b, one),
        }
        .expect("reference window");
        let want = want.remove(0);
        let d = reply
            .allocation
            .splits()
            .iter()
            .zip(want.splits())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(d <= 1e-6, "request {i}: {d:.2e} from direct override path");
        // Canonicalized scenarios must coalesce: every lane of scenario B
        // shared one sub-batch despite different link orderings.
        if i % 3 == 2 {
            assert!(
                reply.batch_size >= 2,
                "request {i} (scenario B) served alone — signature canonicalization broken \
                 (batch {})",
                reply.batch_size
            );
        }
    }

    // The one-arena guarantee: plain → failure A → plain → failure B
    // windows alternate on the shard's single scratch (zero linger, each
    // request awaited, so every window is a singleton), and every reply is
    // bitwise-equal to the direct call on a fresh context whose scratch
    // never served any other window.
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 2));
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    for (i, tm) in tms.iter().enumerate() {
        let req = SubmitRequest::new("b4", tm.clone());
        let one = std::slice::from_ref(tm);
        let fresh = context(&env, 2);
        let (req, want) = match i % 4 {
            1 => (
                req.with_failed_link(0, 1),
                fresh.try_allocate_batch_on(&topo_a, one),
            ),
            3 => (
                req.with_failed_links([(2, 3), (0, 1)]),
                fresh.try_allocate_batch_on(&topo_b, one),
            ),
            _ => (req, fresh.try_allocate_batch(one)),
        };
        let reply = daemon
            .submit(req)
            .wait()
            .expect("interleaved window served");
        assert_eq!(reply.batch_size, 1, "window {i} was not a singleton");
        assert_eq!(
            reply.allocation,
            want.expect("direct call").0[0],
            "window {i} (kind {}) not bitwise-equal to its direct call",
            i % 4
        );
    }
}
