//! Online and offline evaluation loops (§5.1 "Metrics").
//!
//! *Online* satisfied demand accounts for TE-control delay: "the current
//! flow allocation will persist until the TE scheme finishes computing a new
//! allocation". We simulate a wall clock: a scheme starts computing on the
//! newest traffic matrix whenever it is idle; until the result lands, stale
//! routes serve the live traffic. A scheme slower than the TE interval
//! therefore skips matrices entirely (the every-other/every-third pattern of
//! Figure 18).
//!
//! *Offline* satisfied demand (§5.6) assumes instantaneous computation and
//! scores pure allocation quality. [`run_offline`] is the one offline fold:
//! it hands a scheme its matrices in chunks and returns each matrix's
//! [`FlowStats`], so every offline figure — satisfied demand, MLU,
//! delay-penalized flow, and every ablation arm — reads one definition of
//! its metric.
//!
//! Every satisfied percentage here, online or offline, is
//! [`FlowStats::satisfied_pct`]; a sub-slot served partly by stale and
//! partly by fresh routes mixes the two percentages by time weight.
//!
//! Because our substrates differ from the paper's testbed in absolute speed,
//! experiment configs choose the TE interval so that solver runtimes occupy
//! a comparable fraction of the interval as in the paper (see
//! `Harness::online_interval` in `teal-bench`); no measured time is ever
//! scaled or faked.

use crate::schemes::Scheme;
use std::time::Duration;
use teal_core::Env;
use teal_lp::{evaluate, Allocation, FlowStats, TeInstance};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// One interval's outcome in an online run.
#[derive(Clone, Debug)]
pub struct IntervalRecord {
    /// Interval index.
    pub interval: usize,
    /// Time-weighted satisfied demand, percent.
    pub satisfied_pct: f64,
    /// Whether a newly computed allocation became active in this interval.
    pub updated: bool,
    /// Computation time of the job started this interval (if the scheme was
    /// idle and started one).
    pub comp_time: Option<Duration>,
}

/// Result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineResult {
    /// Per-interval records.
    pub intervals: Vec<IntervalRecord>,
}

impl OnlineResult {
    /// Mean satisfied demand over all intervals, percent.
    pub fn mean_satisfied_pct(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals.iter().map(|r| r.satisfied_pct).sum::<f64>() / self.intervals.len() as f64
    }

    /// All computation times observed.
    pub fn comp_times(&self) -> Vec<Duration> {
        self.intervals.iter().filter_map(|r| r.comp_time).collect()
    }

    /// Mean computation time in seconds (0 if none recorded).
    pub fn mean_comp_time_s(&self) -> f64 {
        let times = self.comp_times();
        if times.is_empty() {
            return 0.0;
        }
        times.iter().map(|t| t.as_secs_f64()).sum::<f64>() / times.len() as f64
    }

    /// Per-interval satisfied percentages.
    pub fn satisfied_series(&self) -> Vec<f64> {
        self.intervals.iter().map(|r| r.satisfied_pct).collect()
    }
}

/// Run the online control loop over a traffic series on a fixed topology.
/// `interval` is the TE period (5 minutes in production), and one traffic
/// matrix lands per interval. When the scheme is idle at an interval
/// boundary it starts computing on that interval's matrix; until the result
/// lands, the previous routes serve the live traffic, and an interval in
/// which the result lands mixes the two by time weight.
pub fn run_online(
    env: &Env,
    topo: &Topology,
    tms: &[TrafficMatrix],
    scheme: &mut dyn Scheme,
    interval: Duration,
) -> OnlineResult {
    let interval_s = interval.as_secs_f64().max(1e-9);
    // Routes in effect before the first computation completes.
    let mut active = Allocation::shortest_path(env.num_demands(), env.k());
    // (allocation, finish time) of the job in flight.
    let mut pending: Option<(Allocation, f64)> = None;
    let mut records = Vec::with_capacity(tms.len());

    for (i, tm) in tms.iter().enumerate() {
        let t_start = i as f64 * interval_s;
        let t_end = t_start + interval_s;
        let mut comp_time = None;

        // Idle? Start computing on the freshest matrix.
        if pending.is_none() {
            let (alloc, dt) = scheme.allocate(topo, tm);
            comp_time = Some(dt);
            pending = Some((alloc, t_start + dt.as_secs_f64()));
        }

        // Score the interval with the allocation active at each instant. A
        // job started in an earlier interval still lands mid-interval.
        let inst = TeInstance::new(topo, env.paths(), tm);
        let mut updated = false;
        let satisfied_pct = match pending.take() {
            Some((fresh, finish)) if finish <= t_start => {
                active = fresh;
                updated = true;
                evaluate(&inst, &active).satisfied_pct()
            }
            Some((fresh, finish)) if finish < t_end => {
                // Lands mid-interval: time-weighted stale/fresh mix.
                let w_old = (finish - t_start) / interval_s;
                let mixed = mixed_pct(&inst, &active, &fresh, w_old);
                active = fresh;
                updated = true;
                mixed
            }
            still_pending => {
                pending = still_pending;
                evaluate(&inst, &active).satisfied_pct()
            }
        };
        records.push(IntervalRecord {
            interval: i,
            satisfied_pct,
            updated,
            comp_time,
        });
    }
    OnlineResult { intervals: records }
}

/// Offline evaluation (§5.6): every matrix gets a fresh allocation applied
/// instantly. Matrices are handed to the scheme in chunks of `batch`
/// through [`Scheme::allocate_batch`] (for Teal, one forward pass per
/// matrix spread over cores, then one batched ADMM sweep). Returns each
/// matrix's [`evaluate`] stats, in order, and one computation time per
/// chunk (`tms.len().div_ceil(batch)` of them). The stats do not depend on
/// `batch`.
pub fn run_offline(
    env: &Env,
    topo: &Topology,
    tms: &[TrafficMatrix],
    scheme: &mut dyn Scheme,
    batch: usize,
) -> (Vec<FlowStats>, Vec<Duration>) {
    let batch = batch.max(1);
    let mut stats = Vec::with_capacity(tms.len());
    let mut chunk_times = Vec::with_capacity(tms.len().div_ceil(batch));
    for chunk in tms.chunks(batch) {
        let (allocs, dt) = scheme.allocate_batch(topo, chunk);
        chunk_times.push(dt);
        for (tm, alloc) in chunk.iter().zip(&allocs) {
            stats.push(evaluate(&TeInstance::new(topo, env.paths(), tm), alloc));
        }
    }
    (stats, chunk_times)
}

/// Figure 8/9-style failure experiment: links fail at the start of an
/// interval; the pre-failure allocation keeps serving (dropping flows on
/// dead links) until the scheme finishes recomputing on the failed topology.
/// Returns the time-weighted satisfied percentage for that interval.
pub fn run_failure_interval(
    env: &Env,
    failed_topo: &Topology,
    tm: &TrafficMatrix,
    scheme: &mut dyn Scheme,
    pre_failure_alloc: &Allocation,
    interval: Duration,
) -> f64 {
    let interval_s = interval.as_secs_f64().max(1e-9);
    let (new_alloc, dt) = scheme.allocate(failed_topo, tm);
    let inst = TeInstance::new(failed_topo, env.paths(), tm);
    let w_old = (dt.as_secs_f64() / interval_s).min(1.0);
    mixed_pct(&inst, pre_failure_alloc, &new_alloc, w_old)
}

/// Satisfied percentage of a stretch served by `old` for its first `w_old`
/// share of time and by `new` for the rest: the two
/// [`FlowStats::satisfied_pct`] values mixed by time weight. Capped at 100,
/// because `w·a + (1 − w)·b` of two percentages at 100 can round a hair
/// above it.
fn mixed_pct(inst: &TeInstance, old: &Allocation, new: &Allocation, w_old: f64) -> f64 {
    let pct = |alloc| evaluate(inst, alloc).satisfied_pct();
    (w_old * pct(old) + (1.0 - w_old) * pct(new)).min(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{Baseline, Scheme, Solver, TealScheme};
    use std::sync::Arc;
    use teal_core::{EngineConfig, ServingContext, TealConfig, TealModel};
    use teal_lp::Objective;
    use teal_topology::b4;
    use teal_traffic::{TrafficConfig, TrafficModel};

    fn setup(n: usize) -> (Arc<Env>, Vec<TrafficMatrix>) {
        let env = Arc::new(Env::for_topology(b4()));
        let tms = (0..n)
            .map(|i| TrafficMatrix::new(vec![5.0 + i as f64; env.num_demands()]))
            .collect();
        (env, tms)
    }

    fn lp_all(env: &Arc<Env>) -> Baseline {
        Baseline::new(Arc::clone(env), Solver::LpAll(Objective::TotalFlow))
    }

    fn satisfied(stats: &[FlowStats]) -> Vec<f64> {
        stats.iter().map(FlowStats::satisfied_pct).collect()
    }

    #[test]
    fn offline_stats_do_not_depend_on_the_chunk_size() {
        let env = Arc::new(Env::for_topology(b4()));
        let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 3);
        traffic.calibrate(env.topo(), env.paths());
        let tms = traffic.series(0, 8);
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let mut schemes: [Box<dyn Scheme>; 2] = [
            Box::new(lp_all(&env)),
            Box::new(TealScheme::new(ServingContext::new(
                model,
                EngineConfig::paper_default(12),
            ))),
        ];
        let bits = |s: &FlowStats| {
            [
                s.intended_flow,
                s.realized_flow,
                s.total_demand,
                s.max_link_util,
                s.delay_penalized_flow,
                s.total_overuse,
            ]
            .map(f64::to_bits)
        };
        for scheme in &mut schemes {
            let mut per_batch = Vec::new();
            for batch in [1, 3, 8] {
                let (stats, chunk_times) =
                    run_offline(&env, env.topo(), &tms, scheme.as_mut(), batch);
                assert_eq!(chunk_times.len(), tms.len().div_ceil(batch));
                per_batch.push(stats.iter().map(bits).collect::<Vec<_>>());
            }
            assert_eq!(per_batch[0].len(), tms.len());
            assert_eq!(
                per_batch[0],
                per_batch[1],
                "{}: batch 1 vs 3",
                scheme.name()
            );
            assert_eq!(
                per_batch[0],
                per_batch[2],
                "{}: batch 1 vs 8",
                scheme.name()
            );
        }
    }

    #[test]
    fn online_with_generous_interval_matches_offline() {
        let (env, tms) = setup(4);
        let mut s1 = lp_all(&env);
        let on = run_online(&env, env.topo(), &tms, &mut s1, Duration::from_secs(3600));
        let mut s2 = lp_all(&env);
        let off = satisfied(&run_offline(&env, env.topo(), &tms, &mut s2, 1).0);
        // With an hour-long interval the sub-second solver is effectively
        // instantaneous; online ≈ offline except the first interval's warmup.
        for (rec, o) in on.intervals.iter().zip(&off).skip(1) {
            assert!(
                (rec.satisfied_pct - o).abs() < 1.0,
                "interval {}: online {} vs offline {}",
                rec.interval,
                rec.satisfied_pct,
                o
            );
        }
    }

    #[test]
    fn slow_scheme_suffers_online() {
        /// A deliberately slow wrapper to exercise staleness accounting.
        struct Slow<S: Scheme>(S, Duration);
        impl<S: Scheme> Scheme for Slow<S> {
            fn name(&self) -> &str {
                "Slow"
            }
            fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
                let (a, dt) = self.0.allocate(topo, tm);
                (a, dt + self.1)
            }
        }
        let (env, tms) = setup(6);
        let interval = Duration::from_millis(200);
        let mut fast = lp_all(&env);
        let fast_res = run_online(&env, env.topo(), &tms, &mut fast, interval);
        let mut slow = Slow(lp_all(&env), Duration::from_millis(500));
        let slow_res = run_online(&env, env.topo(), &tms, &mut slow, interval);
        assert!(
            slow_res.mean_satisfied_pct() <= fast_res.mean_satisfied_pct() + 1e-9,
            "staleness must not help: slow {} vs fast {}",
            slow_res.mean_satisfied_pct(),
            fast_res.mean_satisfied_pct()
        );
        // The slow scheme must skip some matrices.
        let slow_updates = slow_res.intervals.iter().filter(|r| r.updated).count();
        let fast_updates = fast_res.intervals.iter().filter(|r| r.updated).count();
        assert!(slow_updates < fast_updates);
    }

    #[test]
    fn online_records_are_pinned() {
        // A 200 ms solver on a 150 ms interval: every other interval starts
        // a job, and each job lands mid-way through the next interval
        // (intervals 1, 3 and 5 mix stale and fresh routes). A synthetic
        // runtime makes the records exact: the bits are pinned.
        struct FixedTime<S: Scheme>(S, Duration);
        impl<S: Scheme> Scheme for FixedTime<S> {
            fn name(&self) -> &str {
                "FixedTime"
            }
            fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
                (self.0.allocate(topo, tm).0, self.1)
            }
        }
        let (env, tms) = setup(6);
        let dt = Duration::from_millis(200);
        let mut scheme = FixedTime(lp_all(&env), dt);
        let res = run_online(
            &env,
            env.topo(),
            &tms,
            &mut scheme,
            Duration::from_millis(150),
        );
        let got: Vec<(u64, bool, Option<Duration>)> = res
            .intervals
            .iter()
            .map(|r| (r.satisfied_pct.to_bits(), r.updated, r.comp_time))
            .collect();
        let hundred = 100f64.to_bits();
        assert_eq!(
            got,
            [
                (hundred, false, Some(dt)),
                (hundred, true, None),
                (hundred, false, Some(dt)),
                (hundred, true, None),
                (0x4058_a9ce_01b9_51e3, false, Some(dt)),
                (0x4058_7786_2d65_6c52, true, None),
            ]
        );
    }

    #[test]
    fn failure_interval_bounded() {
        let (env, tms) = setup(1);
        let failed = env.topo().with_failed_link(0, 1);
        let mut scheme = lp_all(&env);
        let pre = Allocation::shortest_path(env.num_demands(), env.k());
        let pct = run_failure_interval(
            &env,
            &failed,
            &tms[0],
            &mut scheme,
            &pre,
            Duration::from_secs(300),
        );
        assert!((0.0..=100.0).contains(&pct));
    }
}
