//! Loopback socket soak (the CI job): N client connections × M pipelined
//! requests × 2 topologies, with a mid-soak hot checkpoint swap, a
//! failure-override burst and one hostile connection (a NaN-demand
//! REQUEST), asserting **zero lost tickets** — every
//! submitted request gets exactly one reply, the daemon's accounting
//! balances, and no gauge leaks.
//!
//! The soak body is shared by two arms: the 4-connection soak every test
//! run includes, and an `#[ignore]`d 256-connection soak that CI runs as
//! its own release step.

mod common;

use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, PolicyModel, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, SubmitRequest, TealClient, TealServer};
use teal_topology::{generate, TopoKind};
use teal_traffic::TrafficMatrix;

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

/// The full soak: `clients` connections each pipelining `per_client`
/// requests across two topologies, racing a hot checkpoint swap, then
/// auditing the scraped stats down to per-lane ADMM iteration counts.
/// `prom_artifact` gates the CI Prometheus snapshot so only one arm
/// writes `TEAL_PROM_PATH` when several soaks share a test binary.
fn soak(clients: usize, per_client: usize, prom_artifact: bool) {
    let env_b4 = Arc::new(Env::for_topology(teal_topology::b4()));
    let env_swan = Arc::new(Env::for_topology(generate(TopoKind::Swan, 0.3, 7)));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env_b4, 0));
    registry.insert("swan", context(&env_swan, 5));
    let daemon = Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // Donor weights for the mid-soak hot swap.
    let donor = TealModel::new(Arc::clone(&env_b4), model_cfg(42));
    let ckpt = teal_nn::checkpoint::to_string(donor.store());

    // A real link per topology for the failure bursts (SWAN's edge set is
    // generated, so hardcoding node pairs would trip submit validation).
    let fail_b4 = {
        let e = &env_b4.topo().edges()[0];
        (e.src, e.dst)
    };
    let fail_swan = {
        let e = &env_swan.topo().edges()[0];
        (e.src, e.dst)
    };

    let served: usize = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let env_b4 = Arc::clone(&env_b4);
            let env_swan = Arc::clone(&env_swan);
            handles.push(s.spawn(move || {
                let client = TealClient::connect(addr).expect("soak client connect");
                let tickets: Vec<_> = (0..per_client)
                    .map(|j| {
                        let i = c * per_client + j;
                        let (topo, nd, fail) = if i.is_multiple_of(2) {
                            ("b4", env_b4.num_demands(), fail_b4)
                        } else {
                            ("swan", env_swan.num_demands(), fail_swan)
                        };
                        let tm = TrafficMatrix::new(vec![1.0 + (i % 29) as f64; nd]);
                        let req = SubmitRequest::new(topo, tm);
                        // Every 6th request is a failure-override burst
                        // rider (§5.3 served mid-soak), every 8th carries a
                        // generous deadline — both must behave like plain
                        // traffic under load.
                        let req = if i % 6 == 3 {
                            req.with_failed_link(fail.0, fail.1)
                        } else if i % 8 == 5 {
                            req.with_deadline(Duration::from_secs(60))
                        } else {
                            req
                        };
                        client.submit(&req)
                    })
                    .collect();
                let mut ok = 0usize;
                for (j, t) in tickets.into_iter().enumerate() {
                    // Zero lost tickets: every wait returns a reply. Under
                    // a healthy soak every reply is a served allocation
                    // (deadlines are generous and overrides are valid).
                    let reply = t
                        .wait_timeout(Duration::from_secs(120))
                        .unwrap_or_else(|e| panic!("client {c} ticket {j} lost: {e}"));
                    assert!(reply.batch_size >= 1);
                    assert!(reply.allocation.demand_feasible(1e-6));
                    ok += 1;
                }
                // Nothing the server ever sent this client went unclaimed.
                assert_eq!(client.unmatched_replies(), 0, "client {c} unmatched");
                ok
            }));
        }
        // Mid-soak hot swap of the b4 weights, racing the pipelines.
        let swapper = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            daemon
                .registry()
                .swap_checkpoint_str("b4", &ckpt)
                .expect("mid-soak hot swap");
        });
        // Mid-soak hostile peer: a REQUEST carrying a NaN demand. Only its
        // own connection may be hung up — every standing assertion below
        // (zero lost tickets, balanced accounting) still has to hold.
        let hostile = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(10));
            let tm = TrafficMatrix::new(vec![1.0; env_b4.num_demands()]);
            let req = SubmitRequest::new("b4", tm);
            let got = common::send_hostile_demand(addr, &req, f64::NAN);
            assert_eq!(got, 0, "server answered a NaN-demand request");
        });
        let total = handles.into_iter().map(|h| h.join().expect("client")).sum();
        swapper.join().expect("swap thread");
        hostile.join().expect("hostile peer thread");
        total
    });

    assert_eq!(served, clients * per_client, "lost tickets in the soak");
    // Scrape the snapshot over TCP (the v2 STATS frame) and assert on the
    // scraped copy — the wire path and the in-process path must agree on
    // everything that is stable between two snapshot calls.
    let stats = {
        let scraper = TealClient::connect(addr).expect("stats scrape connect");
        let scraped = scraper.stats().expect("stats scrape over TCP");
        let local = daemon.stats();
        assert_eq!(scraped.completed, local.completed);
        assert_eq!(scraped.per_topology.len(), local.per_topology.len());
        for (s, l) in scraped.per_topology.iter().zip(&local.per_topology) {
            assert_eq!(s.topology, l.topology);
            assert_eq!(s.requests, l.requests);
            assert_eq!(s.batches, l.batches);
            assert_eq!(s.admm, l.admm, "ADMM stats diverged across the wire");
        }
        scraped
    };
    assert_eq!(
        stats.completed,
        (clients * per_client) as u64,
        "daemon accounting does not balance: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0, "queue gauge leaked: {stats:?}");
    assert_eq!(stats.shed, 0, "healthy soak shed requests: {stats:?}");
    assert_eq!(stats.expired, 0, "healthy soak expired requests: {stats:?}");
    // Both directions of the id bookkeeping held up: the server never saw
    // a completion for a connection slot it had already retired.
    assert_eq!(
        stats.unmatched_replies, 0,
        "server-side unmatched replies: {stats:?}"
    );
    eprintln!(
        "soak: {} requests over {clients} connections, mean batch {:.2}, max queue {}",
        served,
        stats.mean_batch_size(),
        stats.max_queue_depth
    );
    for (env, t) in [
        (&env_b4, &stats.per_topology[0]),
        (&env_swan, &stats.per_topology[1]),
    ] {
        eprintln!(
            "  {}: {} requests / {} batches, p50 {:?} p99 {:?}",
            t.topology, t.requests, t.batches, t.p50, t.p99
        );
        eprintln!(
            "    stages: queue-wait p50 {:?} p99 {:?} · solve p50 {:?} p99 {:?} · write p50 {:?} p99 {:?}",
            t.queue_wait.p50, t.queue_wait.p99, t.solve.p50, t.solve.p99, t.write.p50, t.write.p99
        );
        // Stage breakdown: every request did real solver work, so the
        // solve-time histogram cannot be empty or degenerate.
        assert!(
            t.solve.p99 > Duration::ZERO,
            "{}: solve p99 is zero — stage spans not recorded: {t:?}",
            t.topology
        );
        // Solver introspection: both soak topologies are < 100 nodes, so
        // `AdmmConfig::fine_tune` gives the paper's small-topology budget
        // with tol = 0 — every lane must run *exactly* the configured
        // iteration count, and none can freeze early.
        let budget = EngineConfig::paper_default(env.topo().num_nodes())
            .admm
            .expect("paper default runs ADMM")
            .max_iters as u64;
        let admm = t
            .admm
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no ADMM stats despite served batches", t.topology));
        eprintln!(
            "    admm: {} windows / {} lanes, {:.2} iters/lane (budget {budget}), {} frozen, residual p/d {:.3e}/{:.3e}",
            admm.windows,
            admm.lanes,
            admm.mean_iterations(),
            admm.frozen_lanes,
            admm.last_primal_residual,
            admm.last_dual_residual
        );
        assert_eq!(admm.lanes, t.requests, "every request rides one lane");
        assert_eq!(
            admm.min_lane_iterations, budget,
            "{}: lane ran fewer iterations than the configured budget",
            t.topology
        );
        assert_eq!(
            admm.max_lane_iterations, budget,
            "{}: lane ran more iterations than the configured budget",
            t.topology
        );
        // Per-window ADMM accounting: with tol = 0 every lane of every
        // window runs its window's budget exactly, so the iteration total
        // must equal the sum of lanes × budget *per window* — which is
        // what `budgeted_iterations` accumulates.
        assert_eq!(
            admm.iterations, admm.budgeted_iterations,
            "{}: iteration total does not sum per-window budgets",
            t.topology
        );
        assert_eq!(
            admm.iterations,
            admm.lanes * budget,
            "{}: iteration total does not match lanes × budget",
            t.topology
        );
        // Generous 60 s deadlines never trip the pressure policy: every
        // window must have run the full budget and no downgrade recorded.
        assert_eq!(
            admm.budget_downgrades, 0,
            "{}: healthy soak downgraded a window's budget",
            t.topology
        );
        assert_eq!(
            admm.windows_by_budget,
            vec![(budget, admm.windows)],
            "{}: per-budget window counts do not account for every window",
            t.topology
        );
        assert_eq!(
            admm.frozen_lanes, 0,
            "{}: tol = 0 can never freeze a lane early",
            t.topology
        );
    }
    // EDF drain order: no served window may ever run a tighter deadline
    // after a looser one.
    assert_eq!(
        stats.deadline_inversions, 0,
        "EDF drain produced deadline inversions: {stats:?}"
    );
    // Untagged soak traffic all lands on the default tenant, and every
    // completed request must be accounted there.
    assert_eq!(
        stats.tenants.len(),
        1,
        "untagged traffic minted extra tenants: {:?}",
        stats.tenants
    );
    assert_eq!(stats.tenants[0].tenant, teal_serve::DEFAULT_TENANT);
    assert_eq!(
        stats.tenants[0].requests,
        (clients * per_client) as u64,
        "per-tenant request accounting does not balance: {:?}",
        stats.tenants
    );
    let total_batches: u64 = stats.per_topology.iter().map(|t| t.batches).sum();
    assert_eq!(
        stats.tenants[0].windows, total_batches,
        "per-tenant window accounting does not match served batches: {:?}",
        stats.tenants
    );
    assert!(
        !stats.slow.is_empty() && stats.slow[0].latency >= stats.slow[stats.slow.len() - 1].latency,
        "slow-exemplar ring empty or unsorted: {:?}",
        stats.slow
    );
    // The scraped snapshot must render as well-formed Prometheus text —
    // two topologies is where non-contiguous families would show.
    let text = stats.to_prometheus();
    common::prom_well_formed(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    // CI artifact: that text, when the workflow asks for it.
    if prom_artifact {
        if let Ok(path) = std::env::var("TEAL_PROM_PATH") {
            std::fs::write(&path, text).expect("write Prometheus snapshot");
            eprintln!("  wrote Prometheus snapshot to {path}");
        }
    }
}

/// One epoll thread multiplexing every connection.
#[test]
fn loopback_soak_zero_lost_tickets() {
    soak(4, 48, true);
}

/// The connection-scale arm CI runs as its own release step: 256
/// concurrent connections through the single event-loop thread, still
/// racing the hot swap and the failure bursts, still zero lost tickets.
/// `#[ignore]`d because 512 solver requests are too slow for a debug run.
#[test]
#[ignore = "release-mode CI soak: 256 connections through one epoll thread"]
fn event_loop_soak_256_connections() {
    soak(256, 2, false);
}
