//! The acceptance test of the serving daemon: ≥ 64 concurrent requests
//! across ≥ 2 topologies, answered identically (1e-6) to sequential
//! `ServingContext` calls, with a mid-run hot weight swap that drops no
//! response and mixes no weights. Plus property tests that coalesced
//! responses match the direct path under concurrent submission.

use proptest::prelude::*;
use std::sync::Arc;
use teal_core::{
    EngineConfig, Env, Forward, ModelInput, PolicyModel, ServingContext, TealConfig, TealModel,
};
use teal_lp::Allocation;
use teal_nn::{Graph, ParamStore};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, ServeError, SubmitRequest};
use teal_topology::{generate, TopoKind};
use teal_traffic::TrafficMatrix;

/// Fast model config for tests (3 GNN layers instead of 6).
fn model_cfg(seed: u64) -> TealConfig {
    TealConfig {
        gnn_layers: 3,
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

/// Max |split difference| between two allocations.
fn max_diff(a: &Allocation, b: &Allocation) -> f64 {
    a.splits()
        .iter()
        .zip(b.splits())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn sixty_four_concurrent_requests_two_topologies_with_hot_swap() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 8; // 64 requests total in the first wave

    let env_b4 = Arc::new(Env::for_topology(teal_topology::b4()));
    let env_swan = Arc::new(Env::for_topology(generate(TopoKind::Swan, 0.3, 7)));

    // References: the weights serving "b4" before and after the swap, and
    // the (never-swapped) "swan" weights.
    let ref_b4_old = context(&env_b4, 0);
    let donor = TealModel::new(Arc::clone(&env_b4), model_cfg(42));
    let ckpt = teal_nn::checkpoint::to_string(donor.store());
    let ref_b4_new = ref_b4_old
        .with_checkpoint_str(&ckpt)
        .expect("reference swap");
    let ref_swan = context(&env_swan, 5);

    // Per-request traffic: distinct matrices so coalescing mistakes
    // (reordered or crossed responses) cannot cancel out.
    let tms_b4: Vec<TrafficMatrix> = (0..THREADS * PER_THREAD)
        .map(|i| TrafficMatrix::new(vec![4.0 + 3.0 * i as f64; env_b4.num_demands()]))
        .collect();
    let tms_swan: Vec<TrafficMatrix> = (0..THREADS * PER_THREAD)
        .map(|i| TrafficMatrix::new(vec![2.0 + 5.0 * i as f64; env_swan.num_demands()]))
        .collect();
    let seq_b4_old: Vec<Allocation> = tms_b4.iter().map(|tm| ref_b4_old.allocate(tm).0).collect();
    let seq_b4_new: Vec<Allocation> = tms_b4.iter().map(|tm| ref_b4_new.allocate(tm).0).collect();
    let seq_swan: Vec<Allocation> = tms_swan.iter().map(|tm| ref_swan.allocate(tm).0).collect();
    // The swap must be observable, or "old OR new" proves nothing.
    assert!(
        max_diff(&seq_b4_old[0], &seq_b4_new[0]) > 1e-6,
        "donor weights indistinguishable from the originals"
    );

    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env_b4, 0));
    registry.insert("swan", context(&env_swan, 5));
    let daemon = ServeDaemon::start(registry, ServeConfig::default());

    // Wave 1: 64 requests from 8 threads, alternating topologies, with a
    // hot swap of the b4 weights racing the traffic.
    let results: Vec<(usize, bool, Allocation, usize)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let daemon = &daemon;
            let tms_b4 = &tms_b4;
            let tms_swan = &tms_swan;
            handles.push(s.spawn(move || {
                let mut out = Vec::new();
                for j in 0..PER_THREAD {
                    let i = t * PER_THREAD + j;
                    let (topo, tm) = if i.is_multiple_of(2) {
                        ("b4", tms_b4[i].clone())
                    } else {
                        ("swan", tms_swan[i].clone())
                    };
                    let reply = daemon.allocate(topo, tm).expect("request dropped");
                    assert!(reply.batch_size >= 1);
                    out.push((i, topo == "b4", reply.allocation, reply.batch_size));
                }
                out
            }));
        }
        let swapper = s.spawn(|| {
            // Land the swap in the middle of the wave.
            std::thread::sleep(std::time::Duration::from_millis(5));
            daemon
                .registry()
                .swap_checkpoint_str("b4", &ckpt)
                .expect("hot swap failed");
        });
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        swapper.join().expect("swap thread");
        all
    });

    assert_eq!(
        results.len(),
        THREADS * PER_THREAD,
        "a response was dropped"
    );
    let mut coalesced = 0usize;
    for (i, is_b4, alloc, batch_size) in &results {
        if *is_b4 {
            // Old weights or new weights — never a mixture, never crossed.
            let d_old = max_diff(alloc, &seq_b4_old[*i]);
            let d_new = max_diff(alloc, &seq_b4_new[*i]);
            assert!(
                d_old <= 1e-6 || d_new <= 1e-6,
                "request {i}: diff {d_old:.2e} vs old, {d_new:.2e} vs new — mixed weights?"
            );
        } else {
            let d = max_diff(alloc, &seq_swan[*i]);
            assert!(d <= 1e-6, "swan request {i}: diff {d:.2e} vs sequential");
        }
        if *batch_size > 1 {
            coalesced += 1;
        }
    }

    // Wave 2: the swap has returned, so every new b4 response must serve
    // the new weights exactly.
    for i in 0..8 {
        let reply = daemon.allocate("b4", tms_b4[i].clone()).expect("post-swap");
        let d = max_diff(&reply.allocation, &seq_b4_new[i]);
        assert!(
            d <= 1e-6,
            "post-swap request {i} not on new weights ({d:.2e})"
        );
    }

    let stats = daemon.stats();
    assert_eq!(stats.completed, (THREADS * PER_THREAD + 8) as u64);
    assert_eq!(stats.queue_depth, 0);
    let b4_stats = stats
        .per_topology
        .iter()
        .find(|t| t.topology == "b4")
        .expect("b4 telemetry");
    assert!(b4_stats.p50 <= b4_stats.p99);
    assert!(b4_stats.p99 > std::time::Duration::ZERO);
    // On any scheduler some portion of 64 near-simultaneous requests must
    // have shared a forward pass; log it for the curious.
    eprintln!(
        "coalesced {coalesced}/{} requests; mean batch {:.2}; b4 p50 {:?} p99 {:?}",
        results.len(),
        stats.mean_batch_size(),
        b4_stats.p50,
        b4_stats.p99
    );
}

#[test]
fn unknown_topology_is_an_error_not_a_hang() {
    let registry: ModelRegistry<TealModel> = ModelRegistry::new();
    let daemon = ServeDaemon::with_defaults(registry);
    let tm = TrafficMatrix::new(vec![1.0; 10]);
    match daemon.allocate("nowhere", tm) {
        Err(teal_serve::ServeError::UnknownTopology(id)) => assert_eq!(id, "nowhere"),
        other => panic!("expected UnknownTopology, got {other:?}"),
    }
}

#[test]
fn malformed_request_errors_without_killing_the_daemon() {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    // Generous linger so the back-to-back submissions below always land in
    // one drain, even if a loaded CI runner preempts this thread mid-burst
    // (the batch_size assertion depends on the four sharing a chunk).
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: std::time::Duration::from_secs(1),
            ..ServeConfig::default()
        },
    );
    let good_tm = TrafficMatrix::new(vec![12.0; env.num_demands()]);
    let bad_tm = TrafficMatrix::new(vec![1.0; 3]); // wrong demand count

    // Three good requests and a bad one share the drain; the offender must
    // be evicted by index and the innocents re-batched together — not
    // serialized into singletons, and not failed.
    let goods: Vec<_> = (0..3)
        .map(|_| daemon.submit(SubmitRequest::new("b4", good_tm.clone())))
        .collect();
    let bad = daemon.submit(SubmitRequest::new("b4", bad_tm));
    for good in goods {
        let reply = good
            .wait()
            .expect("well-formed request must survive the batch");
        assert_eq!(
            reply.batch_size, 3,
            "innocent requests must be re-batched after evicting the offender"
        );
    }
    match bad.wait() {
        // The engine's `AllocError` diagnosis (not a caught-panic message)
        // must reach the client: a malformed matrix is a typed per-request
        // error, so assert the arity explanation survived.
        Err(teal_serve::ServeError::BadRequest(msg)) => {
            assert!(
                msg.contains("demands"),
                "expected the engine's arity diagnosis, got {msg:?}"
            );
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The dispatcher must still be alive and serving.
    daemon
        .allocate("b4", good_tm)
        .expect("daemon died after a malformed request");
}

/// `TealModel`, except that a *marked* matrix (first demand exactly zero)
/// panics inside `allocate_deterministic` — on whichever thread the window's
/// forward job ran it, a pool helper included — a fault the engine does not
/// classify, so only the shard's `catch_unwind` arm stands between it and
/// the dispatcher thread.
struct TrippedModel(TealModel);

impl PolicyModel for TrippedModel {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn env(&self) -> &Arc<Env> {
        self.0.env()
    }
    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        self.0.forward(g, input)
    }
    fn store(&self) -> &ParamStore {
        self.0.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.0.store_mut()
    }
    fn allocate_deterministic(&self, input: &ModelInput) -> Allocation {
        assert!(
            input.path_init.data()[0] != 0.0,
            "marked matrix in the window"
        );
        self.0.allocate_deterministic(input)
    }
}

#[test]
fn unclassified_panic_degrades_to_per_request_serving() {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let ref_ctx = context(&env, 0);
    let registry = ModelRegistry::new();
    registry.insert(
        "b4",
        ServingContext::new(
            TrippedModel(TealModel::new(Arc::clone(&env), model_cfg(0))),
            EngineConfig::paper_default(env.topo().num_nodes()),
        ),
    );
    // Generous linger: each burst below must land in one drain.
    let daemon = ServeDaemon::start(
        registry,
        ServeConfig {
            linger: std::time::Duration::from_secs(1),
            ..ServeConfig::default()
        },
    );
    let nd = env.num_demands();
    let tm = |i: usize| TrafficMatrix::new(vec![3.0 + 2.0 * i as f64; nd]);
    let marked = {
        let mut demands = vec![7.0; nd];
        demands[0] = 0.0;
        TrafficMatrix::new(demands)
    };
    let submit = |tm: TrafficMatrix, tenant: &str| {
        daemon.submit(SubmitRequest::new("b4", tm).with_tenant(tenant))
    };

    // A clean window is solved as one batch...
    let clean = [(0, "gold"), (1, "gold"), (2, "bronze")].map(|(i, tenant)| submit(tm(i), tenant));
    let (want, _) = ref_ctx
        .try_allocate_batch(&[tm(0), tm(1), tm(2)])
        .expect("direct batch");
    for (ticket, want) in clean.into_iter().zip(want) {
        let reply = ticket.wait().expect("clean window served");
        assert_eq!(reply.batch_size, 3);
        assert_eq!(reply.allocation, want, "batched arm diverged from direct");
    }

    // ...and a window holding the marked matrix panics as a batch, so each
    // request is retried alone by the same loop: the innocents are
    // served (bitwise what a direct window of one gives), only the marked
    // request fails, and as a server fault, not a bad request.
    let mixed = [
        (Some(3), "gold"),
        (Some(4), "bronze"),
        (None, "gold"),
        (Some(5), "gold"),
        (Some(6), "bronze"),
    ];
    let tickets: Vec<_> = mixed
        .iter()
        .map(|&(i, tenant)| submit(i.map_or_else(|| marked.clone(), tm), tenant))
        .collect();
    let (mut served, mut failed) = (3, 0);
    for (ticket, (i, _)) in tickets.into_iter().zip(mixed) {
        match (ticket.wait(), i) {
            (Ok(reply), Some(i)) => {
                let (want, _) = ref_ctx
                    .try_allocate_batch(std::slice::from_ref(&tm(i)))
                    .expect("direct window of one");
                assert_eq!(reply.batch_size, 1, "request {i} was not retried alone");
                assert_eq!(reply.allocation, want[0], "degraded request {i} diverged");
                served += 1;
            }
            (Err(ServeError::Internal(msg)), None) => {
                assert!(msg.contains("panicked"), "wrong diagnosis: {msg}");
                failed += 1;
            }
            (other, i) => panic!("request {i:?}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!((served, failed), (7, 1));

    // Accounting is conserved across both windows: every submission completed
    // once, every served request sits in its own tenant's row, and every
    // solver window (one batched, four degraded) is charged to a tenant.
    let stats = daemon.stats();
    assert_eq!(stats.completed, served + failed, "lost or double-counted");
    assert_eq!(stats.queue_depth, 0);
    let topo = &stats.per_topology[0];
    assert_eq!((topo.requests, topo.batches), (7, 5));
    let row = |name: &str| {
        let t = stats.tenants.iter().find(|t| t.tenant == name);
        t.map(|t| (t.requests, t.windows))
    };
    assert_eq!(row("gold"), Some((4, 3)));
    assert_eq!(row("bronze"), Some((3, 2)));
    assert_eq!(stats.tenants.len(), 2);
}

#[test]
fn racing_submit_and_shutdown_never_strands_a_ticket() {
    // The submit/shutdown race: a request that passes the shutdown check
    // concurrently with `shutdown()` being set must never be enqueued after
    // a shard's final drain and dropped without a response. After shutdown
    // and all submitters have returned, every ticket must already hold a
    // reply — a served allocation or a typed `ShuttingDown` — never hang.
    const THREADS: usize = 6;
    const PER_THREAD: usize = 20;
    for round in 0..3u64 {
        let env = Arc::new(Env::for_topology(teal_topology::b4()));
        let registry = ModelRegistry::new();
        registry.insert("b4", context(&env, round));
        let daemon = ServeDaemon::start(
            registry,
            ServeConfig {
                linger: std::time::Duration::ZERO,
                ..ServeConfig::default()
            },
        );
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let (mut served, mut refused) = (0usize, 0usize);
        std::thread::scope(|s| {
            let daemon = &daemon;
            let tm = &tm;
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                handles.push(s.spawn(move || {
                    (0..PER_THREAD)
                        .map(|_| daemon.submit(SubmitRequest::new("b4", tm.clone())))
                        .collect::<Vec<_>>()
                }));
            }
            // Land the shutdown mid-storm, racing the submits above.
            let stopper = s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                daemon.shutdown();
            });
            let tickets: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect();
            stopper.join().expect("shutdown thread");
            // Shutdown has returned and no submitter is in flight: a
            // correct daemon has already fulfilled every single slot.
            for (i, t) in tickets.iter().enumerate() {
                assert!(t.is_ready(), "round {round}: ticket {i} stranded");
            }
            for t in tickets {
                match t.wait() {
                    Ok(_) => served += 1,
                    Err(teal_serve::ServeError::ShuttingDown) => refused += 1,
                    Err(e) => panic!("round {round}: unexpected error {e}"),
                }
            }
        });
        assert_eq!(served + refused, THREADS * PER_THREAD);
        let stats = daemon.stats();
        assert_eq!(stats.queue_depth, 0, "round {round}: queue gauge leaked");
        eprintln!("round {round}: served {served}, refused {refused}");
    }
}

#[test]
fn shutdown_serves_queued_requests_then_rejects() {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = ServeDaemon::with_defaults(registry);
    let tm = TrafficMatrix::new(vec![10.0; env.num_demands()]);
    let tickets: Vec<_> = (0..4)
        .map(|_| daemon.submit(SubmitRequest::new("b4", tm.clone())))
        .collect();
    daemon.shutdown();
    for t in tickets {
        t.wait().expect("queued request dropped by shutdown");
    }
    assert!(matches!(
        daemon.allocate("b4", tm),
        Err(teal_serve::ServeError::ShuttingDown)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Coalesced daemon responses equal direct `ServingContext::allocate`
    /// for the same matrices, under concurrent submission from 4 threads
    /// and randomized traffic, linger windows, and batch caps.
    #[test]
    fn coalesced_equals_direct_under_concurrency(
        seed in 0u64..1000,
        scale in 1.0f64..80.0,
        max_batch in 1usize..24,
        linger_us in 0u64..400,
    ) {
        let env = Arc::new(Env::for_topology(teal_topology::b4()));
        let ctx = context(&env, seed % 3);
        let tms: Vec<TrafficMatrix> = (0..12)
            .map(|i| {
                TrafficMatrix::new(
                    (0..env.num_demands())
                        .map(|d| scale * (1.0 + ((seed as usize + d * 7 + i * 13) % 10) as f64))
                        .collect(),
                )
            })
            .collect();
        let direct: Vec<Allocation> = tms.iter().map(|tm| ctx.allocate(tm).0).collect();

        let registry = ModelRegistry::new();
        registry.insert("b4", context(&env, seed % 3));
        let daemon = ServeDaemon::start(
            registry,
            ServeConfig {
                max_batch,
                linger: std::time::Duration::from_micros(linger_us),
                queue_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let served: Vec<(usize, Allocation)> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..4 {
                let daemon = &daemon;
                let tms = &tms;
                handles.push(s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, tm) in tms.iter().enumerate().filter(|(i, _)| i % 4 == t) {
                        out.push((i, daemon.allocate("b4", tm.clone()).expect("served").allocation));
                    }
                    out
                }));
            }
            handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
        });
        prop_assert_eq!(served.len(), tms.len());
        for (i, alloc) in &served {
            let d = max_diff(alloc, &direct[*i]);
            prop_assert!(d <= 1e-6, "request {} diverged from direct path: {:.2e}", i, d);
        }
    }
}
