//! The library workloads: one caller, one retained `BatchScratch`, closed
//! loop over `ServingContext::try_allocate_batch*_with`.

use crate::checks::{self, Checker, Quality};
use crate::inputs::Rng;
use crate::report::Outcome;
use crate::span::{SpanId, Tracer, NONE};
use crate::spec::{Pattern, Workload};
use crate::stats;
use crate::system::{self, Context};
use std::hint::black_box;
use std::time::{Duration, Instant};
use teal_core::{AllocError, BatchScratch};
use teal_lp::Allocation;
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// One call: the window it submits and, for a failed-link call, which
/// degraded topology it runs on.
pub struct Op {
    pub tms: Vec<TrafficMatrix>,
    pub failed: Option<usize>,
}

/// The cycle of calls a library workload repeats.
pub struct Plan {
    pub ops: Vec<Op>,
    pub failed: Vec<Topology>,
    pub dead_paths: Vec<Vec<u32>>,
    /// Calls made before timing starts.
    pub warmup: usize,
}

/// The system and plan of a library workload, built from the seed.
pub fn build(w: &Workload, seed: u64, tracer: &mut Tracer, parent: SpanId) -> (Context, Plan) {
    let mut rng = Rng::new(seed, 0x11b);
    let (context, ops, failures, warmup) = match w.pattern {
        // 16 distinct windows of 8 matrices; the seed deals the pool into
        // windows. One failed link is drawn for the layer pass only.
        Pattern::Windows => {
            let context = system::build_wan(1024, 128, tracer, parent);
            let order = rng.permutation(context.pool.len());
            let ops = order
                .chunks(8)
                .map(|window| Op {
                    tms: window.iter().map(|&i| context.pool[i].clone()).collect(),
                    failed: None,
                })
                .collect();
            (context, ops, 1, 8)
        }
        // Batch-of-1 calls alternating plain and failed-link, the latter
        // cycling over 4 seeded failed links; 64 distinct calls.
        Pattern::SingleFailover => {
            let context = system::build_wan(256, 32, tracer, parent);
            let order = rng.permutation(context.pool.len());
            let ops = (0..64)
                .map(|i| Op {
                    tms: vec![context.pool[order[(i / 2) % order.len()]].clone()],
                    failed: (i % 2 == 1).then_some((i / 2) % 4),
                })
                .collect();
            (context, ops, 4, 16)
        }
        other => unreachable!("{other:?} is not a library pattern"),
    };
    let topo = context.env.topo();
    let failed: Vec<Topology> = system::draw_failed_links(topo, &mut rng, failures)
        .into_iter()
        .map(|(a, b)| topo.with_failed_link(a, b))
        .collect();
    let dead_paths = failed
        .iter()
        .map(|t| system::dead_path_ids(&context.env, t))
        .collect();
    let plan = Plan {
        ops,
        failed,
        dead_paths,
        warmup,
    };
    (context, plan)
}

fn call(
    context: &Context,
    plan: &Plan,
    op: &Op,
    scratch: &mut BatchScratch,
) -> Result<(Vec<Allocation>, Duration), AllocError> {
    match op.failed {
        None => context.ctx.try_allocate_batch_with(&op.tms, scratch),
        Some(f) => context
            .ctx
            .try_allocate_batch_on_with(&plan.failed[f], &op.tms, scratch),
    }
}

/// What the workload's loop measured.
pub struct Timed {
    pub slices: stats::Slices,
    pub latencies_ms: Vec<f64>,
    pub matrices: usize,
    /// The output fingerprint of what it served.
    pub quality: Quality,
}

/// The workload itself: warm up, then one caller cycling through the
/// plan's calls back to back for `seconds`, and for at least one full cycle
/// so the output fingerprint covers every distinct input whatever
/// `--seconds` says. Every result is checked, outside the timed region.
pub fn drive(
    w: &Workload,
    context: &Context,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
) -> Timed {
    let mut scratch = BatchScratch::new();
    for i in 0..plan.warmup {
        let _ = black_box(call(
            context,
            plan,
            &plan.ops[i % plan.ops.len()],
            &mut scratch,
        ));
    }

    let lanes = plan.ops[0].tms.len();
    let mut first_served: Vec<Option<Vec<Allocation>>> = plan.ops.iter().map(|_| None).collect();
    let mut timed = Timed {
        slices: stats::Slices::default(),
        latencies_ms: Vec::new(),
        matrices: 0,
        quality: Quality::new(plan.ops.len() * lanes),
    };
    let mut rng = Rng::new(seed, 0x511ce);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || timed.latencies_ms.len() < plan.ops.len() {
        let index = timed.latencies_ms.len() % plan.ops.len();
        let op = &plan.ops[index];
        let begun_s = start.elapsed().as_secs_f64();
        let result = call(context, plan, op, &mut scratch);
        let done_s = start.elapsed().as_secs_f64();
        timed.latencies_ms.push((done_s - begun_s) * 1e3);
        timed.slices.record(begun_s, done_s, op.tms.len(), &mut rng);
        timed.matrices += op.tms.len();

        // Checking is outside the timed region.
        let verdict = match result {
            Err(e) => Err(format!("{}: call {index} failed: {e}", w.name)),
            Ok((allocs, _)) => match &first_served[index] {
                Some(first) => checks::ensure(*first == allocs, || {
                    format!("call {index} is not deterministic across repeats")
                }),
                None => {
                    let dead = op.failed.map_or(&[][..], |f| &plan.dead_paths[f]);
                    let verdict = checks::ensure(allocs.len() == op.tms.len(), || {
                        format!("call {index} returned {} allocations", allocs.len())
                    })
                    .and_then(|()| {
                        allocs
                            .iter()
                            .try_for_each(|a| checks::allocation(a, None, dead))
                    });
                    // The fingerprint covers plain calls only: every run
                    // makes all of them, whereas which links fail is the
                    // seed's choice.
                    if verdict.is_ok() && op.failed.is_none() {
                        for (lane, (tm, alloc)) in op.tms.iter().zip(&allocs).enumerate() {
                            timed.quality.set(
                                index * lanes + lane,
                                checks::satisfied_pct(&context.env, tm, alloc),
                            );
                        }
                    }
                    first_served[index] = Some(allocs);
                    verdict
                }
            },
        };
        checker.record(verdict);
    }
    reference_checks(context, plan, &first_served, checker);
    timed
}

/// The untraced run of a library workload.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let mut off = Tracer::new(false, Instant::now());
    let ((context, plan), setups) = system::repeat_setup(|| build(w, seed, &mut off, NONE));
    let timed = drive(w, &context, &plan, seed, seconds, &mut out.checker);
    out.end_to_end(&setups, &timed.quality);
    // No call carries a deadline.
    out.timings(w, &timed.slices, seconds, &timed.latencies_ms, 1.0, false);
    out.fact("operations", timed.latencies_ms.len());
    out.fact("matrices", timed.matrices);
    out.fact("loop", "closed, one caller, in process");
    out
}

/// The retained-scratch results must equal the scratch-less entry points
/// on the same inputs (one plain call, one failed-link call if any).
fn reference_checks(
    context: &Context,
    plan: &Plan,
    first_served: &[Option<Vec<Allocation>>],
    checker: &mut Checker,
) {
    let plain = plan.ops.iter().position(|op| op.failed.is_none());
    let failed = plan.ops.iter().position(|op| op.failed.is_some());
    for index in plain.into_iter().chain(failed) {
        let op = &plan.ops[index];
        let fresh = match op.failed {
            None => context.ctx.try_allocate_batch(&op.tms),
            Some(f) => context.ctx.try_allocate_batch_on(&plan.failed[f], &op.tms),
        };
        checker.record(match (fresh, &first_served[index]) {
            (Ok((fresh, _)), Some(served)) => fresh
                .iter()
                .zip(served)
                .try_for_each(|(a, b)| checks::close(a, b)),
            (Err(e), _) => Err(format!("reference call {index} failed: {e}")),
            (_, None) => Err(format!("call {index} was never served")),
        });
    }
}

/// Windows and failed topology the layer pass runs on for a library plan.
pub fn layer_inputs(plan: &Plan) -> (Vec<Vec<TrafficMatrix>>, &Topology) {
    let windows = plan
        .ops
        .iter()
        .filter(|op| op.failed.is_none())
        .map(|op| op.tms.clone())
        .collect();
    (windows, &plan.failed[0])
}
