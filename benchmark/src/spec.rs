//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics with the end-to-end
//! number each should move, and every constant a workload is sized by.
//! `BENCHMARK.json` at the repository root is this table rendered (a unit
//! test keeps the two equal); `README.md` explains it.

use crate::json;

/// Kernel threads (`TEAL_NN_THREADS`), pinned so a run measures the same
/// parallelism wherever it runs. One, not the authoring box's 2 CPUs: with
/// two kernel threads on two virtual CPUs anything else that runs (the
/// kernel, the harness) takes a core from one of them, and ten-seed
/// spreads of window latency were 6-19%; with one they are 1-3% on a quiet
/// hour and 6-12% on a busy one.
pub const NN_THREADS: &str = "1";

/// Generator seed of every topology. Topologies are the system under test,
/// not an input: the run seed must not move kernel sizes between runs.
pub const TOPOLOGY_SEED: u64 = 7;

/// Generator seed of the traffic pools. Paper-style log-normal demand makes
/// satisfied demand swing between 10% and 46% across generator seeds on
/// one topology, which would drown any regression of the output
/// fingerprint. The run seed instead draws which matrices share a window,
/// the failed links, the request mix and the arrival schedule.
pub const TRAFFIC_SEED: u64 = 7;

/// How a workload loads the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// One caller driving `ServingContext` directly: 8-matrix windows.
    Windows,
    /// One caller, batch-of-1 calls alternating plain and failed-link.
    SingleFailover,
    /// `TealClient`s against `ServeDaemon` + `TealServer` over loopback,
    /// server and clients in this process: saturating closed loop.
    ClosedLoop,
    /// The same server under a constant-rate open loop.
    OpenLoop,
    /// The same server refusing every request at admission.
    Frontend,
}

impl Pattern {
    /// Library workloads bypass `teal-serve`.
    pub fn is_library(self) -> bool {
        matches!(self, Pattern::Windows | Pattern::SingleFailover)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub pattern: Pattern,
    /// Percentile `loadgen.op_tail_ms` is read at (lower if a short run
    /// cannot support it; the run says which was used).
    pub tail_percentile: f64,
}

/// Arrival rate of `b4swan_socket_open_mixed`, requests per second:
/// about 40% of what `b4swan_socket_closed` sustained when the benchmark
/// was written, rounded to 100/s. A constant, never derived at run time.
pub const OPEN_LOOP_RATE_PER_S: f64 = 200.0;

/// Budget carried by the deadline'd fifth of the open-loop mix.
pub const OPEN_LOOP_DEADLINE_MS: f64 = 20.0;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wan1024_window",
        why: "Paper-scale point: 8-matrix windows on a 1,024-node WAN, one caller. Forward pass and ADMM do all the work and serving none, so kernel changes show here and wire changes must not.",
        pattern: Pattern::Windows,
        tail_percentile: 90.0,
    },
    Workload {
        name: "wan256_single_failover",
        why: "Batch-of-1 calls alternating plain and failed-link on a 256-node WAN: per-call glue, input build, skeleton rebind and remint dominate, so a batch-tuned change that taxes single requests shows.",
        pattern: Pattern::SingleFailover,
        tail_percentile: 95.0,
    },
    Workload {
        name: "b4swan_socket_closed",
        why: "Saturating closed loop: 2 connections x 8 outstanding plain requests over B4 and Swan through daemon and epoll server; windows fill, so coalescing, shard dispatch and small-model compute set the rate.",
        pattern: Pattern::ClosedLoop,
        tail_percentile: 99.0,
    },
    Workload {
        name: "b4swan_socket_open_mixed",
        why: "Open loop at a constant 200 requests/s, timed from due time: 70% plain, 20% with a 20 ms deadline, 10% failed-link, 3 tenants. Small batches, linger, EDF and admission run; queueing shows in the tail.",
        pattern: Pattern::OpenLoop,
        tail_percentile: 95.0,
    },
    Workload {
        name: "b4_socket_frontend",
        why: "Closed loop of full-size requests with a zero budget, shed at admission, and a STATS scrape every 32nd operation: no model compute runs, so codec, loopback, epoll loop and telemetry do all the work.",
        pattern: Pattern::Frontend,
        tail_percentile: 99.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics are never gated).
    pub bound: Option<f64>,
    /// The same bound in the metric's own unit, where the issue fixed it
    /// that way; `--compare` applies this one.
    pub absolute_bound: Option<f64>,
    /// What it means (end-to-end) or which end-to-end metric it should
    /// move, on which workload (per-layer).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        absolute_bound: None,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        absolute_bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// The issue's rule: no bound is wider than a tenth; a timing that does not
/// repeat within it is demoted to a reported per-layer metric instead.
pub const TENTH: f64 = 0.10;

/// `setup_s` alone is wider, at the contract's cap: the contract makes it
/// an end-to-end metric of every benchmark ("give it the largest bound"),
/// so it cannot be demoted, and on the authoring box its median over ten
/// runs moved by up to 21% between sweeps an hour apart.
pub const SETUP_BOUND: f64 = 0.25;

/// What the driver gates. Every workload reports every one.
pub const END_TO_END: [Metric; 3] = [
    e2e("setup_s", "s", Lower, SETUP_BOUND,
        "seed to first operation possible: topology, k-shortest paths, traffic, Env, model, ADMM skeleton, daemon and server start, connect; median of at least 5 set-ups"),
    Metric {
        absolute_bound: Some(0.01),
        ..e2e("satisfied_demand_pct", "%", Higher, 0.0001,
            "mean teal_lp::evaluate(..).satisfied_pct() over the first allocation served for each distinct plain input; an output fingerprint that repeats exactly (a ten-thousandth of the median is under 0.01 points on every workload)")
    },
    e2e("peak_rss_mib", "MiB", Lower, TENTH,
        "VmHWM of the benchmark process (server, clients and generator) at workload end"),
];

/// What single layers do, measured from outside around their public
/// functions in the traced run. Every workload reports every one, on its
/// own topology and inputs; `note` names what each should move.
pub const PER_LAYER: [Metric; 72] = [
    layer("topology.gen.build_ms", "ms", Lower, "setup_s everywhere (small)"),
    layer("topology.paths.ksp_ms", "ms", Lower, "setup_s on wan1024_window (most of it)"),
    layer("topology.paths.path_edge_nnz", "count", Lower, "size of the incidence every spmm and ADMM sweep walks"),
    layer("traffic.gen.series_ms", "ms", Lower, "setup_s"),
    layer("core.env.build_ms", "ms", Lower, "setup_s"),
    layer("core.model.init_ms", "ms", Lower, "setup_s"),
    layer("lp.admm.skeleton_build_ms", "ms", Lower, "setup_s"),
    layer("serve.daemon.start_ms", "ms", Lower, "setup_s on socket workloads"),
    layer("serve.client.connect_ms", "ms", Lower, "setup_s on socket workloads"),
    layer("core.env.batch_input_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover; little on wan1024_window"),
    layer("core.model.infer_mu_ms", "ms", Lower, "loadgen.op_p50_ms and loadgen.ops_per_s on wan1024_window; loadgen.ops_per_s on b4swan_socket_closed; nothing on b4_socket_frontend"),
    layer("core.model.mu_to_allocations_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover"),
    layer("core.model.forward_share", "ratio", Lower, "share of a window spent before ADMM; says which of the two to attack"),
    layer("lp.admm.with_topology_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover (failed-link calls)"),
    layer("lp.admm.remint_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover"),
    layer("lp.admm.run_batch_ms", "ms", Lower, "loadgen.op_p50_ms on wan1024_window"),
    layer("lp.admm.iterations_per_lane", "count", Lower, "must repeat exactly; run_batch_ms scales with it"),
    layer("lp.admm.primal_residual", "norm", Lower, "worst final primal residual of a window; satisfied_demand_pct"),
    layer("lp.admm.overuse_removed_share", "ratio", Higher, "1 - total_overuse after/before fine-tuning; satisfied_demand_pct"),
    layer("lp.problem.project_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover"),
    layer("lp.flow.evaluate_ms", "ms", Lower, "checking cost only, outside timed regions"),
    layer("core.engine.dead_paths_ms", "ms", Lower, "loadgen.op_p50_ms on wan256_single_failover (failed-link calls)"),
    layer("core.engine.glue_ms", "ms", Lower, "whole call minus the layers above; loadgen.op_p50_ms on wan256_single_failover"),
    layer("core.engine.layer_sum_ratio", "ratio", Lower, "sum of layer self times / traced window; checked within 0.95..1.05"),
    layer("core.engine.window_ms", "ms", Lower, "the public call itself in the traced run; equals loadgen.op_p50_ms on library workloads"),
    layer("core.engine.allocs_per_window", "count", Lower, "yardstick for allocation-free windows; loadgen.op_p50_ms on wan256_single_failover"),
    layer("core.engine.alloc_bytes_per_window", "bytes", Lower, "as above, and peak_rss_mib"),
    layer("nn.pool.jobs_per_window", "count", Lower, "hand-offs to the worker pool per window"),
    layer("nn.pool.helper_chunk_share", "ratio", Higher, "share of kernel chunks a pool worker ran: 0 with the one kernel thread the benchmark pins, the yardstick once a same-run 1/2-thread ratio is measured"),
    layer("nn.sparse.spmm_batch_fwd_ms", "ms", Lower, "core.model.infer_mu_ms (Csr::spmm_batch on the incidence, batch 4, model width)"),
    layer("nn.sparse.spmm_batch_bwd_ms", "ms", Lower, "core.model.infer_mu_ms (transposed incidence)"),
    layer("nn.sparse.spmm_nnz", "count", Lower, "non-zeros walked per spmm_batch call"),
    layer("nn.sparse.spmm_bytes_moved", "bytes", Lower, "computed from shapes, not measured: index, value, gather and store traffic of one call"),
    layer("serve.wire.encode_request_us", "us", Lower, "loadgen.ops_per_s and loadgen.op_p50_ms on b4_socket_frontend"),
    layer("serve.wire.decode_request_us", "us", Lower, "loadgen.ops_per_s and loadgen.op_p50_ms on b4_socket_frontend"),
    layer("serve.wire.encode_reply_us", "us", Lower, "loadgen.ops_per_s on b4swan_socket_closed (small)"),
    layer("serve.wire.decode_reply_us", "us", Lower, "loadgen.ops_per_s on b4swan_socket_closed (small)"),
    layer("serve.wire.frame_decoder_us", "us", Lower, "loadgen.op_p50_ms on b4_socket_frontend (one request frame fed in 1 KiB pieces)"),
    layer("serve.wire.write_queue_us", "us", Lower, "loadgen.op_p50_ms on b4_socket_frontend (push_reply + flush to a sink)"),
    layer("serve.wire.encode_stats_us", "us", Lower, "loadgen.op_tail_ms on b4_socket_frontend (every 32nd operation)"),
    layer("serve.wire.decode_stats_us", "us", Lower, "loadgen.op_tail_ms on b4_socket_frontend"),
    layer("serve.wire.request_frame_bytes", "bytes", Lower, "loopback bytes per request"),
    layer("serve.wire.reply_frame_bytes", "bytes", Lower, "loopback bytes per served reply"),
    layer("serve.wire.stats_frame_bytes", "bytes", Lower, "loopback bytes per scrape"),
    layer("serve.daemon.queue_wait_p50_ms", "ms", Lower, "loadgen.op_p50_ms on b4swan_socket_open_mixed"),
    layer("serve.daemon.queue_wait_p99_ms", "ms", Lower, "loadgen.op_tail_ms and loadgen.deadline_met_share on b4swan_socket_open_mixed"),
    layer("serve.daemon.solve_p50_ms", "ms", Lower, "loadgen.ops_per_s and loadgen.op_p50_ms on b4swan_socket_closed"),
    layer("serve.daemon.solve_p99_ms", "ms", Lower, "loadgen.op_tail_ms on b4swan_socket_closed"),
    layer("serve.daemon.write_p50_ms", "ms", Lower, "loadgen.op_p50_ms on socket workloads (small)"),
    layer("serve.daemon.batch_size_mean", "count", Higher, "loadgen.ops_per_s up and loadgen.op_p50_ms up together on b4swan_socket_closed"),
    layer("serve.daemon.windows", "count", Lower, "solver windows run; must not advance during b4_socket_frontend's timed phase"),
    layer("serve.daemon.shed", "count", Lower, "loadgen.deadline_met_share on b4swan_socket_open_mixed"),
    layer("serve.daemon.expired", "count", Lower, "loadgen.deadline_met_share on b4swan_socket_open_mixed"),
    layer("serve.daemon.budget_downgrades", "count", Lower, "windows run under the pressured ADMM budget"),
    layer("serve.daemon.deadline_inversions", "count", Lower, "0 under EDF drain"),
    layer("serve.daemon.inproc_request_p50_ms", "ms", Lower, "the same request through ServeDaemon::submit, no socket: what the wire adds is loadgen.op_p50_ms minus this"),
    layer("serve.net.wire_overhead_p50_ms", "ms", Lower, "client round trip minus reply.latency; loadgen.op_p50_ms on b4_socket_frontend"),
    layer("serve.net.wire_overhead_p99_ms", "ms", Lower, "loadgen.op_tail_ms on b4swan_socket_open_mixed"),
    layer("serve.net.shed_roundtrip_p50_us", "us", Lower, "loadgen.op_p50_ms on b4_socket_frontend"),
    layer("serve.server.threads", "count", Lower, "threads the daemon, server and clients added (/proc/self/task delta)"),
    layer("serve.client.submit_us", "us", Lower, "loadgen.ops_per_s on b4_socket_frontend (encode + write under the writer lock)"),
    layer("serve.client.unmatched_replies", "count", Lower, "must be 0"),
    layer("serve.telemetry.stats_inproc_us", "us", Lower, "loadgen.op_tail_ms on b4_socket_frontend (snapshot build)"),
    layer("serve.telemetry.stats_scrape_p50_us", "us", Lower, "loadgen.op_tail_ms on b4_socket_frontend (scrape round trip)"),
    layer("serve.telemetry.to_prometheus_us", "us", Lower, "scrape export cost; no end-to-end metric here moves with it"),
    layer("loadgen.op_p50_ms", "ms", Lower, "median operation latency in the median 1 s slice, tracing off: one try_allocate_batch*_with call, or submit to reply (closed loop) / due time to reply (open loop); demoted from end-to-end: ten-seed spread 1-19%"),
    layer("loadgen.ops_per_s", "1/s", Higher, "traffic matrices answered (front end: requests refused and scrapes answered) per second in the median 1 s slice, tracing off; the open loop's is its arrival rate; demoted from end-to-end: ten-seed spread 1-16%"),
    layer("loadgen.op_tail_ms", "ms", Lower, "operation latency at the workload\'s tail percentile, tracing off; demoted from end-to-end: ten-seed spread 6-33%"),
    layer("loadgen.deadline_met_share", "ratio", Higher, "b4swan_socket_open_mixed: 20 ms-deadline requests served and verified within it (shed, expired, late = miss), 1 where no request carries a deadline; demoted from end-to-end: a run times about 300 of them, and the share moved by 0.5-2% between seeds against a bound of 0.01"),
    layer("loadgen.late_share", "ratio", Lower, "requests sent more than 1 ms after their due time (open loop; 0 in closed loops)"),
    layer("loadgen.trace_overhead_pct", "%", Lower, "traced vs untraced median operation in the same run"),
    layer("loadgen.traced_ops", "count", Higher, "operations behind the traced numbers"),
];

/// The program and arguments the driver runs, before its own
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let strings = |v: &[&str]| {
        v.iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(m.bound.unwrap_or(0.0)),
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// The workloads as a markdown table, for `README.md`.
pub fn workloads_table() -> String {
    let mut out = String::from("| workload | pattern | tail | why |\n|---|---|---|---|\n");
    for w in &WORKLOADS {
        out += &format!(
            "| `{}` | {:?} | p{} | {} |\n",
            w.name, w.pattern, w.tail_percentile, w.why
        );
    }
    out
}

/// The end-to-end metrics as a markdown table, for `README.md`.
pub fn end_to_end_table() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let relative = 100.0 * m.bound.unwrap_or(0.0);
        let bound = match m.absolute_bound {
            Some(absolute) => {
                format!("{absolute} points ({relative}% of the median for the driver)")
            }
            None => format!("{relative}%"),
        };
        out += &format!(
            "| `{}` | {} | {} | {bound} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
    out
}

/// The per-layer metrics as a markdown table, for `README.md`.
pub fn per_layer_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
    out
}

/// `--describe`: the three tables.
pub fn describe() -> String {
    [workloads_table(), end_to_end_table(), per_layer_table()].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        // The issue's rule: nothing is wider than a tenth, except the one
        // metric the contract does not let a benchmark demote.
        for m in &END_TO_END {
            let cap = if m.name == "setup_s" { 0.25 } else { TENTH };
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= cap), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            json::parse(&committed).unwrap(),
            json::parse(&benchmark_json()).unwrap(),
            "regenerate with `--print-benchmark-json`"
        );
    }

    #[test]
    fn readme_carries_these_tables() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("README.md beside Cargo.toml");
        for table in [workloads_table(), end_to_end_table(), per_layer_table()] {
            assert!(
                readme.contains(&table),
                "paste `--describe` into README.md:\n{table}"
            );
        }
    }
}
