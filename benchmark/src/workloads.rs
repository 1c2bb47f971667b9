//! The five workloads, each as an untraced run (end-to-end metrics) and a
//! traced run (per-layer metrics). A traced run spends most of its time on
//! the workload's own operations, first with tracing off and then under
//! spans; the rest fills the ledger rows that load does not reach (the
//! driver wants every per-layer metric from every workload) with short
//! measurements of single layers on the same system.

use crate::checks;
use crate::inputs::{self, Key, Rng};
use crate::layers;
use crate::library;
use crate::probes;
use crate::report::{Metrics, Outcome};
use crate::socket::{self, Closed, Expect, Load, References, OUTSTANDING};
use crate::span::{Tracer, NONE};
use crate::spec::{Pattern, Workload};
use crate::stats;
use crate::system::{self, ServeSystem, CONNECTIONS, SOCKET_POOL};
use std::time::{Duration, Instant};
use teal_serve::SubmitRequest;

/// Untimed part at the start of every socket load phase.
const SOCKET_WARMUP: Duration = Duration::from_secs(1);

/// How a traced run's seconds are spent: the workload's own operations
/// with tracing off (its `loadgen.*` timings, and the base of
/// `loadgen.trace_overhead_pct`), the same under spans, the layer pass of a
/// socket workload, and the sequential probes.
const UNTRACED_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.4;
const LAYER_PASS_SHARE: f64 = 0.1;
const PROBE_SHARE: f64 = 0.1;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Run one workload. Returns what it measured and, for a traced run, the
/// spans to write out.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<Tracer>) {
    match (w.pattern.is_library(), trace) {
        (true, false) => (library::run(w, seed, seconds), None),
        (false, false) => (run_socket(w, seed, seconds), None),
        (true, true) => {
            let (outcome, tracer) = trace_library(w, seed, seconds);
            (outcome, Some(tracer))
        }
        (false, true) => {
            let (outcome, tracer) = trace_socket(w, seed, seconds);
            (outcome, Some(tracer))
        }
    }
}

/// Each connection's request cycle for a closed loop over `topos`
/// topologies: consecutive requests alternate topologies, the seed orders
/// the matrices, and `prepare` finishes each request.
fn cycles(
    sys: &ServeSystem,
    seed: u64,
    topos: usize,
    prepare: impl Fn(SubmitRequest) -> SubmitRequest,
) -> Vec<Vec<(Key, SubmitRequest)>> {
    let mut rng = Rng::new(seed, 0xc1c1e);
    (0..CONNECTIONS)
        .map(|conn| {
            let order = rng.permutation(SOCKET_POOL);
            (0..SOCKET_POOL * topos)
                .map(|i| {
                    let key = Key {
                        topo: (i + conn) % topos,
                        tm: order[i / topos],
                        sig: None,
                    };
                    (key, prepare(socket::request(sys, key)))
                })
                .collect()
        })
        .collect()
}

/// Drive a socket workload's own load pattern against `sys` for `timed`
/// (after the warm-up).
fn drive(
    w: &Workload,
    sys: &ServeSystem,
    refs: &References,
    seed: u64,
    warmup: Duration,
    timed: Duration,
    trace: Option<Instant>,
) -> Load {
    match w.pattern {
        Pattern::ClosedLoop => {
            // Plain requests over every topology.
            let cycles = cycles(sys, seed, sys.topos.len(), |r| r);
            let phase = Closed {
                cycles: &cycles,
                expect: Expect::Served,
                scrape_every: None,
                outstanding: OUTSTANDING,
                warmup,
                timed,
            };
            socket::closed_loop(sys, refs, &phase, trace)
        }
        Pattern::OpenLoop => {
            let horizon = warmup + timed;
            let schedule = inputs::open_schedule(
                seed,
                horizon.as_secs_f64(),
                sys.topos.len(),
                SOCKET_POOL,
                CONNECTIONS,
            );
            socket::open_loop(sys, refs, &schedule, warmup, horizon, trace)
        }
        Pattern::Frontend => {
            // Full-size B4 requests whose budget is already spent.
            let cycles = cycles(sys, seed, 1, |r| r.with_deadline(Duration::ZERO));
            let phase = Closed {
                cycles: &cycles,
                expect: Expect::Shed,
                scrape_every: Some(32),
                outstanding: OUTSTANDING,
                warmup,
                timed,
            };
            let before = socket::windows(&sys.daemon.stats());
            let mut load = socket::closed_loop(sys, refs, &phase, trace);
            let after = socket::windows(&sys.daemon.stats());
            load.checker.record(checks::ensure(before == after, || {
                format!(
                    "{} solver windows ran during the front-end load",
                    after - before
                )
            }));
            // Nothing was served while it was timed; afterwards the same
            // server must still serve, and those allocations are this
            // workload's output fingerprint.
            socket::serve_sample(sys, refs, &mut load);
            load
        }
        Pattern::Windows | Pattern::SingleFailover => {
            unreachable!("library workloads have no socket load")
        }
    }
}

/// Untraced run of a socket workload.
fn run_socket(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let mut off = Tracer::new(false, Instant::now());
    let (sys, setups) = system::repeat_setup(|| system::build_b4_swan(seed, &mut off, NONE));
    let refs = References::build(&sys, w.pattern == Pattern::OpenLoop);
    let mut load = drive(w, &sys, &refs, seed, SOCKET_WARMUP, secs(seconds), None);
    load.checker
        .record(socket::balance(&sys.daemon.stats(), load.requests_sent));
    out.end_to_end(&setups, &load.quality);
    load_timings(w, &load, false, &mut out);
    out.checker.merge(load.checker);
    out
}

/// The timings of an untraced socket load, as `loadgen.*` metrics or as
/// facts, and the counts behind them.
fn load_timings(w: &Workload, load: &Load, as_metrics: bool, out: &mut Outcome) {
    out.timings(
        w,
        &load.slices,
        load.timed_s,
        &load.latencies_ms,
        load.deadline_met_share(),
        as_metrics,
    );
    out.fact("operations", load.answered);
    out.fact("deadlined_requests", load.deadlined);
    out.fact("requests_sent", load.requests_sent);
    out.fact("late_sends", load.late);
    out.fact(
        "loop",
        if w.pattern == Pattern::OpenLoop {
            "open, 1 sender, 2 connections, loopback, server and generator in one process"
        } else {
            "closed, 2 connections x 8 outstanding, loopback, server and clients in one process"
        },
    );
}

/// Set-up stage metrics: total time of each stage's spans.
fn setup_metrics(tracer: &Tracer, metrics: &mut Metrics) {
    for (span_name, metric) in [
        ("topology.gen.build", "topology.gen.build_ms"),
        ("topology.paths.ksp", "topology.paths.ksp_ms"),
        ("traffic.gen.series", "traffic.gen.series_ms"),
        ("core.env.build", "core.env.build_ms"),
        ("core.model.init", "core.model.init_ms"),
        ("lp.admm.skeleton_build", "lp.admm.skeleton_build_ms"),
        ("serve.daemon.start", "serve.daemon.start_ms"),
        ("serve.client.connect", "serve.client.connect_ms"),
    ] {
        metrics.set(metric, tracer.durations_ms(span_name).iter().sum());
    }
}

/// Everything the serving stack contributes to the ledger on `sys`: stage
/// timings of the replies `served` holds, the sequential probes, the codec
/// and the daemon's counters. `requests_sent` is every `REQUEST` the run
/// sent before the probes, for the balance check.
fn serving_metrics(
    sys: &ServeSystem,
    refs: &References,
    served: &Load,
    requests_sent: u64,
    probe_budget: Duration,
    threads_before: usize,
    out: &mut Outcome,
) {
    let threads = system::thread_count().saturating_sub(threads_before);
    let probe_requests = probes::sequential(sys, &mut out.metrics, &mut out.checker, probe_budget);
    probes::wire_codec(sys, refs, &mut out.metrics);
    let snapshot = sys.daemon.stats();
    out.checker
        .record(socket::balance(&snapshot, requests_sent + probe_requests));

    let m = &mut out.metrics;
    let stage = |values: &[f64]| stats::summarize(values, 99.0);
    let (queue, solve, wire) = (
        stage(&served.stages.queue_wait),
        stage(&served.stages.solve),
        stage(&served.stages.wire_overhead),
    );
    m.set("serve.daemon.queue_wait_p50_ms", queue.p50);
    m.set("serve.daemon.queue_wait_p99_ms", queue.tail);
    m.set("serve.daemon.solve_p50_ms", solve.p50);
    m.set("serve.daemon.solve_p99_ms", solve.tail);
    m.set(
        "serve.daemon.write_p50_ms",
        stats::median(&served.stages.write),
    );
    m.set("serve.net.wire_overhead_p50_ms", wire.p50);
    m.set("serve.net.wire_overhead_p99_ms", wire.tail);
    m.set("serve.client.submit_us", stats::median(&served.submit_us));
    m.set("serve.daemon.batch_size_mean", snapshot.mean_batch_size());
    m.set("serve.daemon.windows", socket::windows(&snapshot) as f64);
    m.set("serve.daemon.shed", snapshot.shed as f64);
    m.set("serve.daemon.expired", snapshot.expired as f64);
    m.set(
        "serve.daemon.budget_downgrades",
        snapshot
            .per_topology
            .iter()
            .filter_map(|t| t.admm.as_ref())
            .map(|a| a.budget_downgrades)
            .sum::<u64>() as f64,
    );
    m.set(
        "serve.daemon.deadline_inversions",
        snapshot.deadline_inversions as f64,
    );
    m.set("serve.server.threads", threads as f64);
    m.set(
        "serve.client.unmatched_replies",
        sys.clients
            .iter()
            .map(|c| c.unmatched_replies())
            .sum::<u64>() as f64,
    );
    out.fact("stage_samples", queue.samples);
    out.fact("stage_tail_percentile", queue.tail_percentile);
}

/// Traced run of a library workload.
fn trace_library(w: &Workload, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    let root = tracer.open("setup", 0, NONE);
    let (context, plan) = library::build(w, seed, &mut tracer, root);
    tracer.close(root);
    out.metrics.set(
        "topology.paths.path_edge_nnz",
        context.env.incidence().fwd.nnz() as f64,
    );

    // The workload itself, tracing off: its timings.
    let untraced_s = seconds * UNTRACED_SHARE;
    let timed = library::drive(w, &context, &plan, seed, untraced_s, &mut out.checker);
    // No call carries a deadline.
    out.timings(w, &timed.slices, untraced_s, &timed.latencies_ms, 1.0, true);
    out.metrics.set("loadgen.late_share", 0.0);

    // Its windows again, each as the public call and then re-composed
    // under spans.
    let (windows, failed) = library::layer_inputs(&plan);
    let pass = layers::pass(
        &context.ctx,
        &windows,
        failed,
        secs(seconds * TRACED_SHARE),
        epoch,
        &mut out.metrics,
        &mut out.checker,
    );
    out.metrics
        .set("loadgen.trace_overhead_pct", pass.trace_overhead_pct);
    out.metrics
        .set("loadgen.traced_ops", pass.traced_windows as f64);
    tracer.merge(pass.tracer);

    // The serving rows of the ledger: a daemon and server around the same
    // context, a few requests one at a time, then the probes.
    teal_nn::pool::worker_count();
    let threads_before = system::thread_count();
    let serve_root = tracer.open("setup", 1, NONE);
    let sys = system::serve(vec![(w.name, context)], seed, &mut tracer, serve_root);
    tracer.close(serve_root);
    setup_metrics(&tracer, &mut out.metrics);
    let refs = References::build(&sys, false);
    let mut served = Load::new(refs.inputs(), None);
    socket::serve_sample(&sys, &refs, &mut served);
    serving_metrics(
        &sys,
        &refs,
        &served,
        served.requests_sent,
        secs(seconds * PROBE_SHARE),
        threads_before,
        &mut out,
    );
    out.checker.merge(served.checker);
    (out, tracer)
}

/// Traced run of a socket workload.
fn trace_socket(w: &Workload, seed: u64, seconds: f64) -> (Outcome, Tracer) {
    let mut out = Outcome::new();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(true, epoch);
    teal_nn::pool::worker_count();
    let threads_before = system::thread_count();
    let root = tracer.open("setup", 0, NONE);
    let sys = system::build_b4_swan(seed, &mut tracer, root);
    tracer.close(root);
    setup_metrics(&tracer, &mut out.metrics);
    out.metrics.set(
        "topology.paths.path_edge_nnz",
        sys.topos
            .iter()
            .map(|t| t.env().incidence().fwd.nnz())
            .sum::<usize>() as f64,
    );
    let refs = References::build(&sys, w.pattern == Pattern::OpenLoop);

    // The workload's own load, tracing off (its timings), then under spans.
    let untraced = drive(
        w,
        &sys,
        &refs,
        seed,
        SOCKET_WARMUP,
        secs(seconds * UNTRACED_SHARE),
        None,
    );
    load_timings(w, &untraced, true, &mut out);
    let own = drive(
        w,
        &sys,
        &refs,
        seed ^ 1,
        SOCKET_WARMUP,
        secs(seconds * TRACED_SHARE),
        Some(epoch),
    );
    let (untraced_p50, traced_p50) = (
        stats::median(&untraced.latencies_ms),
        stats::median(&own.latencies_ms),
    );
    out.metrics.set(
        "loadgen.trace_overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
    );
    out.metrics.set(
        "loadgen.late_share",
        own.late as f64 / own.answered.max(1) as f64,
    );
    out.metrics.set("loadgen.traced_ops", own.answered as f64);

    // What the daemon's solve stage is made of: the layer pass on the first
    // topology's 8-matrix windows.
    let topo = &sys.topos[0];
    let windows: Vec<_> = topo.pool.chunks(8).map(<[_]>::to_vec).collect();
    let pass = layers::pass(
        &topo.ctx,
        &windows,
        &topo.failed[0],
        secs(seconds * LAYER_PASS_SHARE),
        epoch,
        &mut out.metrics,
        &mut out.checker,
    );
    tracer.merge(pass.tracer);

    serving_metrics(
        &sys,
        &refs,
        &own,
        untraced.requests_sent + own.requests_sent,
        secs(seconds * PROBE_SHARE),
        threads_before,
        &mut out,
    );
    out.checker.merge(untraced.checker);
    out.checker.merge(own.checker);
    tracer.merge(own.tracer);
    (out, tracer)
}
