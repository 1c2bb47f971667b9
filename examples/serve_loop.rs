//! Quickstart for the `teal-serve` daemon: register two topologies, submit
//! a burst of concurrent requests that coalesce into shared forward
//! passes, hot-swap model weights without dropping traffic, and read the
//! serving telemetry.
//!
//! Run with: `cargo run --release --example serve_loop`

use std::sync::Arc;
use teal::core::{EngineConfig, Env, PolicyModel, ServingContext, TealConfig, TealModel};
use teal::nn::checkpoint;
use teal::serve::{ModelRegistry, ServeConfig, ServeDaemon, SubmitRequest};
use teal::topology::{b4, generate, TopoKind};
use teal::traffic::{TrafficConfig, TrafficModel};

fn context(env: &Arc<Env>, seed: u64) -> ServingContext<TealModel> {
    let model = TealModel::new(
        Arc::clone(env),
        TealConfig {
            seed,
            ..TealConfig::default()
        },
    );
    ServingContext::new(model, EngineConfig::paper_default(env.topo().num_nodes()))
}

fn main() {
    // --- 1. One serving context per topology, all behind one registry.
    let env_b4 = Arc::new(Env::for_topology(b4()));
    let env_swan = Arc::new(Env::for_topology(generate(TopoKind::Swan, 0.3, 7)));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env_b4, 0));
    registry.insert("swan", context(&env_swan, 1));
    println!("registered topologies: {:?}", registry.ids());

    // --- 2. Start the daemon (dispatcher thread + micro-batch coalescer).
    let daemon = ServeDaemon::start(registry, ServeConfig::default());

    // --- 3. A burst of concurrent clients. Tickets are submitted first and
    // redeemed after, so requests pile up and share forward passes.
    let mut traffic = TrafficModel::new(&env_b4.topo().all_pairs(), TrafficConfig::default(), 7);
    traffic.calibrate(env_b4.topo(), env_b4.paths());
    let tms = traffic.series(0, 16);
    let mut swan_traffic =
        TrafficModel::new(&env_swan.topo().all_pairs(), TrafficConfig::default(), 9);
    swan_traffic.calibrate(env_swan.topo(), env_swan.paths());
    let swan_tms = swan_traffic.series(0, 16);

    std::thread::scope(|s| {
        for client in 0..4 {
            let daemon = &daemon;
            let (tms, swan_tms) = (&tms, &swan_tms);
            s.spawn(move || {
                let tickets: Vec<_> = (0..8)
                    .map(|j| {
                        let i = client * 8 + j;
                        if i % 2 == 0 {
                            daemon.submit(SubmitRequest::new("b4", tms[i / 2].clone()))
                        } else {
                            daemon.submit(SubmitRequest::new("swan", swan_tms[i / 2].clone()))
                        }
                    })
                    .collect();
                for (j, ticket) in tickets.into_iter().enumerate() {
                    let reply = ticket.wait().expect("request served");
                    if j == 0 {
                        println!(
                            "client {client}: first reply in {:?} (coalesced batch of {})",
                            reply.latency, reply.batch_size
                        );
                    }
                }
            });
        }
    });

    // --- 4. Hot model-weight swap: retrain offline, checkpoint, swap in.
    // In-flight requests keep the weights they snapshotted; new requests
    // get the new model. No restart, no dropped traffic.
    let retrained = TealModel::new(Arc::clone(&env_b4), TealConfig::default());
    let ckpt = checkpoint::to_string(retrained.store());
    daemon
        .registry()
        .swap_checkpoint_str("b4", &ckpt)
        .expect("hot swap");
    println!(
        "hot-swapped b4 weights ({} bytes of checkpoint)",
        ckpt.len()
    );
    let reply = daemon
        .allocate("b4", tms[0].clone())
        .expect("post-swap request");
    println!("post-swap allocation served in {:?}", reply.latency);

    // --- 5. Telemetry: per-topology latency percentiles, the per-stage
    // breakdown (queue-wait / solve / write), solver introspection, and
    // the thread-pool occupancy gauges.
    let stats = daemon.stats();
    println!(
        "served {} requests, mean coalesced batch {:.2}, max queue depth {}",
        stats.completed,
        stats.mean_batch_size(),
        stats.max_queue_depth
    );
    for t in &stats.per_topology {
        println!(
            "  {:>6}: {:>3} requests / {:>2} batches  p50 {:?}  p99 {:?}",
            t.topology, t.requests, t.batches, t.p50, t.p99
        );
        println!(
            "          stages p99: queue-wait {:?} | solve {:?} | write {:?}",
            t.queue_wait.p99, t.solve.p99, t.write.p99
        );
        if let Some(admm) = &t.admm {
            println!(
                "          admm: {} windows / {} lanes, {:.2} iters/lane, {} frozen, residual p/d {:.3e}/{:.3e}",
                admm.windows,
                admm.lanes,
                admm.mean_iterations(),
                admm.frozen_lanes,
                admm.last_primal_residual,
                admm.last_dual_residual
            );
        }
    }
    if let Some(slow) = stats.slow.first() {
        println!(
            "slowest request: {:?} on {} (queue-wait {:?}, solve {:?}, batch of {})",
            slow.latency, slow.topology, slow.stages.queue_wait, slow.stages.solve, slow.batch_size
        );
    }
    println!(
        "nn pool: {} jobs, {} caller / {} helper chunks, {} helper slots refused",
        stats.pool.jobs,
        stats.pool.caller_chunks,
        stats.pool.helper_chunks,
        stats.pool.capped_skips
    );

    // --- 6. The same snapshot renders as Prometheus exposition text for a
    // scraper (`TelemetrySnapshot::to_prometheus`); print a taste.
    let prom = stats.to_prometheus();
    let taste: Vec<&str> = prom
        .lines()
        .filter(|l| l.starts_with("teal_serve_stage_seconds") && l.contains("0.99"))
        .collect();
    println!(
        "prometheus ({} lines total), stage p99 series:",
        prom.lines().count()
    );
    for line in taste {
        println!("  {line}");
    }
}
