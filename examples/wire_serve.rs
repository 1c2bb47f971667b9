//! The TCP serving loop end to end: bind a `TealServer` on loopback,
//! connect a pipelined `TealClient`, and submit a mixed window — plain
//! requests, deadline'd requests (admission control), and failed-link
//! requests (the paper's §5.3 failure recovery, served without
//! retraining) — then read the sheds/expiries off the serving telemetry.
//!
//! Run with: `cargo run --release --example wire_serve`

use std::sync::Arc;
use std::time::Duration;
use teal::core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal::serve::{ModelRegistry, ServeDaemon, SubmitRequest, TealClient, TealServer};
use teal::topology::b4;
use teal::traffic::TrafficMatrix;

fn main() {
    // --- 1. Serving core: registry + daemon, exactly as in-process.
    let env = Arc::new(Env::for_topology(b4()));
    let model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let registry = ModelRegistry::new();
    registry.insert(
        "b4",
        ServingContext::new(model, EngineConfig::paper_default(env.topo().num_nodes())),
    );
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));

    // --- 2. Wire front end: a real TCP socket (ephemeral loopback port).
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
    println!("serving on {}", server.local_addr());
    let client = TealClient::connect(server.local_addr()).expect("connect");

    let tm = |i: usize| TrafficMatrix::new(vec![5.0 + 2.0 * i as f64; env.num_demands()]);

    // --- 3. A pipelined mixed window: 4 plain, 2 deadline'd, 2 on a
    // degraded topology (link 0-1 failed). Replies return out of order by
    // request id; tickets redeem in any order.
    let mut tickets = Vec::new();
    for i in 0..4 {
        tickets.push(("plain", client.submit(&SubmitRequest::new("b4", tm(i)))));
    }
    for i in 4..6 {
        tickets.push((
            "deadline 500ms",
            client
                .submit(&SubmitRequest::new("b4", tm(i)).with_deadline(Duration::from_millis(500))),
        ));
    }
    for i in 6..8 {
        tickets.push((
            "link 0-1 failed",
            client.submit(&SubmitRequest::new("b4", tm(i)).with_failed_link(0, 1)),
        ));
    }
    for (kind, ticket) in tickets {
        match ticket.wait() {
            Ok(reply) => println!(
                "{kind:>16}: batch of {:>2}, {:?}",
                reply.batch_size, reply.latency
            ),
            Err(e) => println!("{kind:>16}: {e}"),
        }
    }

    // --- 4. Admission control in action: a request whose budget is
    // already spent is shed instead of queued.
    let shed = client
        .submit(&SubmitRequest::new("b4", tm(0)).with_deadline(Duration::ZERO))
        .wait();
    println!("zero-budget request: {:?}", shed.err());

    // --- 5. Telemetry across the socket boundary: scrape the live
    // snapshot over the *same* connection (a v2 STATS frame, pipelined
    // like any request) — no side channel into the daemon needed.
    let stats = client.stats().expect("stats scrape over TCP");
    println!(
        "completed {} | shed {} | expired {} | mean batch {:.1}",
        stats.completed,
        stats.shed,
        stats.expired,
        stats.mean_batch_size()
    );
    for t in &stats.per_topology {
        println!("  {}: p50 {:?} p99 {:?}", t.topology, t.e2e.p50, t.e2e.p99);
        println!(
            "    stages p99: queue-wait {:?} | solve {:?} | write {:?}",
            t.queue_wait.p99, t.solve.p99, t.write.p99
        );
        if let Some(admm) = &t.admm {
            println!(
                "    admm: {} windows / {} lanes, {:.2} iters/lane",
                admm.windows,
                admm.lanes,
                admm.mean_iterations()
            );
        }
    }
    // Each reply also carried its own stage breakdown (`reply.stages`);
    // the scraped snapshot aggregates the same spans into histograms.
}
