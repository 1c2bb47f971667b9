//! The per-layer ledger of the compute path, taken from outside.
//!
//! One serving window is re-composed from the public functions
//! `try_allocate_batch*_with` itself calls — `Env::batch_input` per
//! 4-matrix sub-batch, `TealModel::infer_mu`, `mu_to_allocations`,
//! `AdmmSkeleton::{with_topology, remint_batch_solver}`,
//! `AdmmBatchSolver::run_batch_into`,
//! `Allocation::project_demand_constraints` — with a span around each, and
//! its result must equal the public call's to 1e-6. Plain and failed-link
//! windows alternate with the untraced public call on the same inputs, so
//! the same pass yields the tracing overhead and the glue the engine adds.

use crate::checks::{self, Checker};
use crate::report::Metrics;
use crate::span::{self, SpanId, Tracer, NONE};
use crate::stats;
use crate::system::dead_path_ids;
use std::hint::black_box;
use std::time::{Duration, Instant};
use teal_core::{mu_to_allocations, BatchScratch, Env, ServingContext, TealModel};
use teal_lp::{AdmmBatchSolver, AdmmReport, AdmmSkeleton, Allocation, BatchArena};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// Matrices per forward-pass sub-batch: `ServingContext::SUB_BATCH`, which
/// is private; the 1e-6 equality check fails if the two drift apart.
const SUB_BATCH: usize = 4;

/// Retained solver state of the re-composed window, as a dispatch lane's
/// `BatchScratch` retains it.
#[derive(Default)]
struct Lane {
    arena: BatchArena,
    solver: Option<AdmmBatchSolver>,
    outs: Vec<Allocation>,
    reports: Vec<AdmmReport>,
}

/// What one re-composed window produced besides its spans.
struct Recomposed {
    root: SpanId,
    raw: Vec<Allocation>,
    out: Vec<Allocation>,
}

fn recompose(
    ctx: &ServingContext<TealModel>,
    skeleton: &AdmmSkeleton,
    lane: &mut Lane,
    tms: &[TrafficMatrix],
    failed: Option<&Topology>,
    tracer: &mut Tracer,
    op: u64,
) -> Recomposed {
    let env = ctx.env();
    let root = tracer.open("core.engine.window", op, NONE);
    let mut raw = Vec::with_capacity(tms.len());
    for chunk in tms.chunks(SUB_BATCH) {
        let input = tracer.time("core.env.batch_input", op, root, || {
            env.batch_input(chunk, failed)
        });
        let mu = tracer.time("core.model.infer_mu", op, root, || {
            ctx.model().infer_mu(&input)
        });
        raw.extend(tracer.time("core.model.mu_to_allocations", op, root, || {
            mu_to_allocations(&mu, input.batch)
        }));
    }
    let out = match ctx.config().admm {
        Some(cfg) => {
            let degraded = failed.map(|topo| {
                tracer.time("lp.admm.with_topology", op, root, || {
                    skeleton.with_topology(topo)
                })
            });
            let skeleton = degraded.as_ref().unwrap_or(skeleton);
            tracer.time("lp.admm.remint", op, root, || match lane.solver.as_mut() {
                Some(solver) => skeleton.remint_batch_solver(solver, tms),
                None => lane.solver = Some(skeleton.batch_solver(tms)),
            });
            let solver = lane.solver.as_ref().expect("minted above");
            tracer.time("lp.admm.run_batch", op, root, || {
                solver.run_batch_into(
                    &raw,
                    cfg,
                    &mut lane.arena,
                    &mut lane.outs,
                    &mut lane.reports,
                )
            });
            std::mem::take(&mut lane.outs)
        }
        None => raw.clone(),
    };
    let dead = match failed {
        Some(topo) => tracer.time("core.engine.dead_paths", op, root, || {
            dead_path_ids(env, topo)
        }),
        None => Vec::new(),
    };
    let mut out = out;
    tracer.time("lp.problem.project", op, root, || {
        for alloc in &mut out {
            alloc.project_demand_constraints();
            for &p in &dead {
                alloc.splits_mut()[p as usize] = 0.0;
            }
        }
    });
    tracer.close(root);
    Recomposed { root, raw, out }
}

/// Per traced window (row, in `roots` order), the ms spent in each of
/// `layers` (column): one scan of the spans.
fn layer_table(tracer: &Tracer, roots: &[SpanId], layers: &[(&str, &str)]) -> Vec<Vec<f64>> {
    let mut table = vec![vec![0.0; layers.len()]; roots.len()];
    for s in tracer.spans() {
        let row = roots.iter().position(|&r| r == s.parent);
        let column = layers.iter().position(|(name, _)| *name == s.name);
        if let (Some(row), Some(column)) = (row, column) {
            table[row][column] += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
    }
    table
}

/// Duration (ms) of each traced window.
fn root_ms(tracer: &Tracer, roots: &[SpanId]) -> Vec<f64> {
    roots
        .iter()
        .filter_map(|&r| tracer.span(r))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Median of each column of a [`layer_table`].
fn column_medians(table: &[Vec<f64>], columns: usize) -> Vec<f64> {
    (0..columns)
        .map(|c| stats::median(&table.iter().map(|row| row[c]).collect::<Vec<_>>()))
        .collect()
}

/// Layers a plain window is made of, in call order.
const PLAIN_LAYERS: [(&str, &str); 6] = [
    ("core.env.batch_input", "core.env.batch_input_ms"),
    ("core.model.infer_mu", "core.model.infer_mu_ms"),
    (
        "core.model.mu_to_allocations",
        "core.model.mu_to_allocations_ms",
    ),
    ("lp.admm.remint", "lp.admm.remint_ms"),
    ("lp.admm.run_batch", "lp.admm.run_batch_ms"),
    ("lp.problem.project", "lp.problem.project_ms"),
];

/// Layers only a failed-link window has.
const FAILED_LAYERS: [(&str, &str); 2] = [
    ("lp.admm.with_topology", "lp.admm.with_topology_ms"),
    ("core.engine.dead_paths", "core.engine.dead_paths_ms"),
];

/// What a layer pass hands back besides the metrics it set.
pub struct Pass {
    /// Plain windows re-composed under spans.
    pub traced_windows: usize,
    /// Median re-composed window against median public call, %.
    pub trace_overhead_pct: f64,
    /// The pass's spans (offsets from `epoch`), for the caller's trace.
    pub tracer: Tracer,
}

/// Run the layer pass over `windows` for about `budget`, alternating plain
/// and failed-link rounds, and report every compute-path layer metric.
pub fn pass(
    ctx: &ServingContext<TealModel>,
    windows: &[Vec<TrafficMatrix>],
    failed: &Topology,
    budget: Duration,
    epoch: Instant,
    metrics: &mut Metrics,
    checker: &mut Checker,
) -> Pass {
    // A tracer of its own, so the sums below scan this pass's spans only.
    let mut tracer = Tracer::new(true, epoch);
    let env = ctx.env();
    let skeleton = AdmmSkeleton::new(env.topo(), env.paths(), ctx.config().objective);
    let mut scratch = BatchScratch::new();
    let mut lane = Lane::default();
    let (mut plain_roots, mut failed_roots) = (Vec::new(), Vec::new());
    let (mut public_ms, mut jobs, mut helper_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Recomposed> = None;
    let mut last_reports = Vec::new();

    // Fill the scratch, the lane and the worker pool before anything counts.
    for tms in windows.iter().take(2) {
        let _ = black_box(ctx.try_allocate_batch_with(tms, &mut scratch));
        let _ = black_box(ctx.try_allocate_batch_on_with(failed, tms, &mut scratch));
        let mut off = Tracer::new(false, Instant::now());
        black_box(recompose(ctx, &skeleton, &mut lane, tms, None, &mut off, 0));
    }

    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < budget || op < 2 {
        let tms = &windows[op as usize % windows.len()];
        for override_topo in [None, Some(failed)] {
            // The untraced public call on the same inputs...
            let pool_before = teal_nn::pool::stats();
            let t = Instant::now();
            let public = match override_topo {
                None => ctx.try_allocate_batch_with(tms, &mut scratch),
                Some(topo) => ctx.try_allocate_batch_on_with(topo, tms, &mut scratch),
            };
            let public_elapsed = t.elapsed();
            let pool_after = teal_nn::pool::stats();
            // ...then the same window re-composed under spans.
            let traced = recompose(
                ctx,
                &skeleton,
                &mut lane,
                tms,
                override_topo,
                &mut tracer,
                op,
            );
            checker.record(match &public {
                Ok((allocs, _)) => allocs
                    .iter()
                    .zip(&traced.out)
                    .try_for_each(|(a, b)| checks::close(a, b))
                    .and_then(|()| {
                        checks::ensure(allocs.len() == traced.out.len(), || {
                            "re-composed window has a different lane count".into()
                        })
                    }),
                Err(e) => Err(format!("public call failed in the layer pass: {e}")),
            });
            if override_topo.is_none() {
                public_ms.push(public_elapsed.as_secs_f64() * 1e3);
                let helper = pool_after.helper_chunks - pool_before.helper_chunks;
                let caller = pool_after.caller_chunks - pool_before.caller_chunks;
                jobs.push((pool_after.jobs - pool_before.jobs) as f64);
                helper_share.push(helper as f64 / (helper + caller).max(1) as f64);
                plain_roots.push(traced.root);
                last_reports.clone_from(&lane.reports);
                first.get_or_insert(traced);
            } else {
                failed_roots.push(traced.root);
            }
        }
        op += 1;
    }

    let plain = layer_table(&tracer, &plain_roots, &PLAIN_LAYERS);
    let plain_medians = column_medians(&plain, PLAIN_LAYERS.len());
    for ((_, metric), median) in PLAIN_LAYERS.iter().zip(&plain_medians) {
        metrics.set(metric, *median);
    }
    let degraded = layer_table(&tracer, &failed_roots, &FAILED_LAYERS);
    for ((_, metric), median) in FAILED_LAYERS
        .iter()
        .zip(column_medians(&degraded, FAILED_LAYERS.len()))
    {
        metrics.set(metric, median);
    }

    // The first three layers are the forward pass.
    let window_ms = root_ms(&tracer, &plain_roots);
    let forward: Vec<f64> = plain
        .iter()
        .zip(&window_ms)
        .map(|(row, window)| row[..3].iter().sum::<f64>() / window)
        .collect();
    metrics.set("core.model.forward_share", stats::median(&forward));

    // Sum of layer self times over the traced window, every traced window.
    let self_ns = span::self_times(tracer.spans());
    let all_roots: Vec<SpanId> = plain_roots.iter().chain(&failed_roots).copied().collect();
    let ratios: Vec<f64> = all_roots
        .iter()
        .map(|&root| {
            let layers: u64 = tracer
                .spans()
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.parent == root)
                .map(|(_, own)| own)
                .sum();
            let s = tracer.span(root).expect("root recorded");
            layers as f64 / (s.end_ns - s.start_ns) as f64
        })
        .collect();
    let layer_sum_ratio = stats::median(&ratios);
    metrics.set("core.engine.layer_sum_ratio", layer_sum_ratio);
    checker.record(checks::ensure(
        (0.95..=1.05).contains(&layer_sum_ratio),
        || format!("layer self times sum to {layer_sum_ratio:.3} of the traced window"),
    ));

    let public_p50 = stats::median(&public_ms);
    metrics.set("core.engine.window_ms", public_p50);
    metrics.set(
        "core.engine.glue_ms",
        public_p50 - plain_medians.iter().sum::<f64>(),
    );
    metrics.set("nn.pool.jobs_per_window", stats::median(&jobs));
    metrics.set("nn.pool.helper_chunk_share", stats::mean(&helper_share));

    let lanes = last_reports.len().max(1) as f64;
    metrics.set(
        "lp.admm.iterations_per_lane",
        last_reports
            .iter()
            .map(|r| r.iterations as f64)
            .sum::<f64>()
            / lanes,
    );
    metrics.set(
        "lp.admm.primal_residual",
        last_reports
            .iter()
            .map(|r| r.primal_residual)
            .fold(0.0, f64::max),
    );

    // Fine-tuning must not add overuse: compare the model's raw output
    // with the served allocation on the first window, lane by lane.
    let first = first.expect("at least one plain window ran");
    let mut evaluate_ms = Vec::new();
    let (mut before, mut after) = (0.0, 0.0);
    for ((tm, raw), out) in windows[0].iter().zip(&first.raw).zip(&first.out) {
        let inst = env.instance(tm);
        let t = Instant::now();
        before += teal_lp::evaluate(&inst, raw).total_overuse;
        evaluate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        after += teal_lp::evaluate(&inst, out).total_overuse;
    }
    let removed = if before > 0.0 {
        1.0 - after / before
    } else {
        0.0
    };
    metrics.set("lp.admm.overuse_removed_share", removed);
    metrics.set("lp.flow.evaluate_ms", stats::median(&evaluate_ms));
    checker.record(checks::ensure(removed >= 0.0, || {
        format!("fine-tuning added overuse: {before} before, {after} after")
    }));

    // Heap traffic of one steady-state public call, counted on its own.
    let (_, allocs, bytes) = crate::alloc::counted(|| {
        black_box(ctx.try_allocate_batch_with(&windows[0], &mut scratch)).is_ok()
    });
    metrics.set("core.engine.allocs_per_window", allocs as f64);
    metrics.set("core.engine.alloc_bytes_per_window", bytes as f64);

    spmm(env, metrics);

    Pass {
        traced_windows: plain_roots.len(),
        trace_overhead_pct: 100.0 * (stats::median(&window_ms) - public_p50) / public_p50,
        tracer,
    }
}

/// `Csr::spmm_batch` on the incidence and its transpose at the model's
/// final width, batch 4: the kernel under `infer_mu`.
fn spmm(env: &Env, metrics: &mut Metrics) {
    const BATCH: usize = 4;
    let width = teal_core::TealConfig::default().gnn_layers;
    let incidence = env.incidence();
    let time = |csr: &teal_nn::Csr| {
        let x = teal_nn::Tensor::full(csr.cols() * BATCH, width, 0.5);
        black_box(csr.spmm_batch(&x, BATCH));
        let samples: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(csr.spmm_batch(black_box(&x), BATCH));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&samples)
    };
    metrics.set("nn.sparse.spmm_batch_fwd_ms", time(&incidence.fwd));
    metrics.set("nn.sparse.spmm_batch_bwd_ms", time(&incidence.bwd));
    let fwd = &incidence.fwd;
    metrics.set("nn.sparse.spmm_nnz", (fwd.nnz() * BATCH) as f64);
    // Computed from shapes: per non-zero a column index, a value and a
    // gathered row of `width` floats; per output row its `width` floats;
    // plus the row pointers.
    let bytes =
        BATCH * (fwd.nnz() * (8 + 4 * width) + fwd.rows() * 4 * width) + (fwd.rows() + 1) * 8;
    metrics.set("nn.sparse.spmm_bytes_moved", bytes as f64);
}
