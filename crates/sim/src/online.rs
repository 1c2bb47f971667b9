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
//! scores pure allocation quality.
//!
//! Because our substrates differ from the paper's testbed in absolute speed,
//! experiment configs choose the TE interval so that solver runtimes occupy
//! a comparable fraction of the interval as in the paper (see
//! `Harness::online_interval` in `teal-bench`); no measured time is ever
//! scaled or faked.

use crate::schemes::Scheme;
use std::time::Duration;
use teal_core::Env;
use teal_lp::{evaluate, Allocation, TeInstance};
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
/// `interval` is the TE period (5 minutes in production). One traffic
/// matrix lands per interval; this is exactly
/// [`run_online_batched`] with singleton windows.
pub fn run_online(
    env: &Env,
    topo: &Topology,
    tms: &[TrafficMatrix],
    scheme: &mut dyn Scheme,
    interval: Duration,
) -> OnlineResult {
    let windows: Vec<&[TrafficMatrix]> = tms.chunks(1).collect();
    run_online_batched(env, topo, &windows, scheme, interval)
}

/// Online control loop where **several traffic matrices can fall due in one
/// TE interval** — sharded demand sets, sub-interval traffic samples, or
/// multiple tenants on one fabric. `windows[i]` holds the matrices landing
/// at the start of interval `i`, each governing an equal sub-slot of the
/// interval.
///
/// When the scheme is idle at an interval boundary it computes on the whole
/// newest window in *one* call: a single matrix goes through the per-matrix
/// path, while `> 1` matrices go through [`Scheme::allocate_batch`] — for
/// Teal, one coalesced forward pass plus parallel ADMM (the PR-1 follow-up
/// wiring the online loop onto the batched serving path). When the result
/// lands, sub-slot `j` is served by the allocation computed for its own
/// matrix; until then stale routes persist, exactly like the single-matrix
/// loop. Singleton windows reproduce [`run_online`] bit-for-bit.
pub fn run_online_batched<W: AsRef<[TrafficMatrix]>>(
    env: &Env,
    topo: &Topology,
    windows: &[W],
    scheme: &mut dyn Scheme,
    interval: Duration,
) -> OnlineResult {
    let interval_s = interval.as_secs_f64().max(1e-9);
    // Routes in effect before the first computation completes.
    let mut active = Allocation::shortest_path(env.num_demands(), env.k());
    // (per-sub-slot allocations, finish time, interval the job started in)
    let mut pending: Option<(Vec<Allocation>, f64, usize)> = None;
    let mut records = Vec::with_capacity(windows.len());

    for (i, window) in windows.iter().enumerate() {
        let window = window.as_ref();
        assert!(!window.is_empty(), "interval {i} has no traffic matrices");
        let t_start = i as f64 * interval_s;
        let mut comp_time = None;

        // Idle? Start computing on the freshest window — batched when more
        // than one matrix falls due.
        if pending.is_none() {
            let (allocs, dt) = if window.len() == 1 {
                let (alloc, dt) = scheme.allocate(topo, &window[0]);
                (vec![alloc], dt)
            } else {
                scheme.allocate_batch(topo, window)
            };
            comp_time = Some(dt);
            pending = Some((allocs, t_start + dt.as_secs_f64(), i));
        }

        // Integrate realized flow over the interval's equal sub-slots with
        // the allocation active at each instant. A pending job computed on
        // an *earlier* window still promotes mid-interval — its last
        // allocation becomes the stale route for the remainder.
        let slot_s = interval_s / window.len() as f64;
        let mut updated = false;
        let mut satisfied_sum = 0.0;
        // Once a job computed on *this* window lands, each remaining
        // sub-slot is served by the allocation computed for its own matrix.
        let mut landed_here: Option<Vec<Allocation>> = None;
        for (j, tm) in window.iter().enumerate() {
            let s_start = t_start + j as f64 * slot_s;
            let s_end = s_start + slot_s;
            let inst = TeInstance::new(topo, env.paths(), tm);
            let total = tm.total().max(1e-12);
            if let Some(allocs) = &landed_here {
                if let Some(a) = allocs.get(j) {
                    active = a.clone();
                }
            }
            let fresh_for_slot = |allocs: &[Allocation], started: usize| -> Allocation {
                // A job computed on this interval's window carries one
                // allocation per sub-slot; a job from an older window
                // promotes its freshest allocation.
                let pick = if started == i { allocs.get(j) } else { None };
                pick.unwrap_or_else(|| allocs.last().expect("nonempty batch"))
                    .clone()
            };
            let slot_satisfied = match pending.take() {
                Some((allocs, finish, started)) if finish <= s_start => {
                    active = fresh_for_slot(&allocs, started);
                    if started == i {
                        landed_here = Some(allocs);
                    }
                    updated = true;
                    100.0 * evaluate(&inst, &active).realized_flow / total
                }
                Some((allocs, finish, started)) if finish < s_end => {
                    // Lands mid-sub-slot: time-weighted stale/fresh mix.
                    let w_old = (finish - s_start) / slot_s;
                    let fresh = fresh_for_slot(&allocs, started);
                    let old_flow = evaluate(&inst, &active).realized_flow;
                    let new_flow = evaluate(&inst, &fresh).realized_flow;
                    let mixed = 100.0 * (w_old * old_flow + (1.0 - w_old) * new_flow) / total;
                    active = fresh;
                    if started == i {
                        landed_here = Some(allocs);
                    }
                    updated = true;
                    mixed
                }
                still_pending => {
                    pending = still_pending;
                    100.0 * evaluate(&inst, &active).realized_flow / total
                }
            };
            satisfied_sum += slot_satisfied.clamp(0.0, 100.0);
        }
        records.push(IntervalRecord {
            interval: i,
            satisfied_pct: satisfied_sum / window.len() as f64,
            updated,
            comp_time,
        });
    }
    OnlineResult { intervals: records }
}

/// Offline evaluation (§5.6): every matrix gets a fresh allocation applied
/// instantly. Returns per-matrix satisfied percentages and computation times.
pub fn run_offline(
    env: &Env,
    topo: &Topology,
    tms: &[TrafficMatrix],
    scheme: &mut dyn Scheme,
) -> (Vec<f64>, Vec<Duration>) {
    let mut satisfied = Vec::with_capacity(tms.len());
    let mut times = Vec::with_capacity(tms.len());
    for tm in tms {
        let (alloc, dt) = scheme.allocate(topo, tm);
        let inst = TeInstance::new(topo, env.paths(), tm);
        let total = tm.total().max(1e-12);
        satisfied.push((100.0 * evaluate(&inst, &alloc).realized_flow / total).min(100.0));
        times.push(dt);
    }
    (satisfied, times)
}

/// Batched offline evaluation: matrices are handed to the scheme in chunks
/// of `batch`, exercising the batched serving path (for Teal, one forward
/// pass per matrix spread over cores, then one batched ADMM sweep). Returns
/// per-matrix satisfied percentages and the total computation time across
/// all matrices; per-matrix time is the amortized `total / tms.len()`.
pub fn run_offline_batched(
    env: &Env,
    topo: &Topology,
    tms: &[TrafficMatrix],
    scheme: &mut dyn Scheme,
    batch: usize,
) -> (Vec<f64>, Duration) {
    let mut satisfied = Vec::with_capacity(tms.len());
    let mut total_time = Duration::ZERO;
    for chunk in tms.chunks(batch.max(1)) {
        let (allocs, dt) = scheme.allocate_batch(topo, chunk);
        total_time += dt;
        for (tm, alloc) in chunk.iter().zip(&allocs) {
            let inst = TeInstance::new(topo, env.paths(), tm);
            let total = tm.total().max(1e-12);
            satisfied.push((100.0 * evaluate(&inst, alloc).realized_flow / total).min(100.0));
        }
    }
    (satisfied, total_time)
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
    let total = tm.total().max(1e-12);
    let old_flow = evaluate(&inst, pre_failure_alloc).realized_flow;
    let new_flow = evaluate(&inst, &new_alloc).realized_flow;
    let w_old = (dt.as_secs_f64() / interval_s).min(1.0);
    (100.0 * (w_old * old_flow + (1.0 - w_old) * new_flow) / total).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{LpAllScheme, Scheme, ShortestPathScheme};
    use std::sync::Arc;
    use teal_lp::Objective;
    use teal_topology::b4;

    fn setup(n: usize) -> (Arc<Env>, Vec<TrafficMatrix>) {
        let env = Arc::new(Env::for_topology(b4()));
        let tms = (0..n)
            .map(|i| TrafficMatrix::new(vec![5.0 + i as f64; env.num_demands()]))
            .collect();
        (env, tms)
    }

    #[test]
    fn online_with_generous_interval_matches_offline() {
        let (env, tms) = setup(4);
        let mut s1 = LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow);
        let on = run_online(&env, env.topo(), &tms, &mut s1, Duration::from_secs(3600));
        let mut s2 = LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow);
        let (off, _) = run_offline(&env, env.topo(), &tms, &mut s2);
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
        let mut fast = LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow);
        let fast_res = run_online(&env, env.topo(), &tms, &mut fast, interval);
        let mut slow = Slow(
            LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow),
            Duration::from_millis(500),
        );
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

    /// Deterministic wrapper: real allocations, synthetic fixed runtime —
    /// makes online staleness accounting exactly reproducible.
    struct FixedTime<S: Scheme>(S, Duration);
    impl<S: Scheme> Scheme for FixedTime<S> {
        fn name(&self) -> &str {
            "FixedTime"
        }
        fn allocate(&mut self, topo: &Topology, tm: &TrafficMatrix) -> (Allocation, Duration) {
            (self.0.allocate(topo, tm).0, self.1)
        }
        fn allocate_batch(
            &mut self,
            topo: &Topology,
            tms: &[TrafficMatrix],
        ) -> (Vec<Allocation>, Duration) {
            (self.0.allocate_batch(topo, tms).0, self.1)
        }
    }

    #[test]
    fn singleton_windows_reduce_to_run_online() {
        // Regression for the PR that rewired run_online onto the batched
        // loop: one matrix per interval must reproduce the single-matrix
        // semantics exactly, including staleness (200ms solver vs 150ms
        // interval forces skipped updates).
        let (env, tms) = setup(6);
        let interval = Duration::from_millis(150);
        let dt = Duration::from_millis(200);
        let mut s1 = FixedTime(LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow), dt);
        let direct = run_online(&env, env.topo(), &tms, &mut s1, interval);
        let windows: Vec<Vec<TrafficMatrix>> = tms.iter().map(|tm| vec![tm.clone()]).collect();
        let mut s2 = FixedTime(LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow), dt);
        let batched = run_online_batched(&env, env.topo(), &windows, &mut s2, interval);
        assert_eq!(direct.intervals.len(), batched.intervals.len());
        for (a, b) in direct.intervals.iter().zip(&batched.intervals) {
            assert_eq!(a.satisfied_pct, b.satisfied_pct, "interval {}", a.interval);
            assert_eq!(a.updated, b.updated, "interval {}", a.interval);
            assert_eq!(a.comp_time, b.comp_time, "interval {}", a.interval);
        }
    }

    #[test]
    fn instant_batched_online_matches_offline_per_slot() {
        // With zero computation time every sub-slot is served by the fresh
        // allocation computed for its own matrix, so each interval's
        // satisfied demand is the mean of the offline values of its window.
        let (env, tms) = setup(6);
        let windows: Vec<Vec<TrafficMatrix>> = tms.chunks(2).map(|c| c.to_vec()).collect();
        let mut s1 = FixedTime(
            LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow),
            Duration::ZERO,
        );
        let online = run_online_batched(
            &env,
            env.topo(),
            &windows,
            &mut s1,
            Duration::from_secs(300),
        );
        let mut s2 = LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow);
        let (offline, _) = run_offline(&env, env.topo(), &tms, &mut s2);
        for (i, rec) in online.intervals.iter().enumerate() {
            let want = (offline[2 * i] + offline[2 * i + 1]) / 2.0;
            assert!(
                (rec.satisfied_pct - want).abs() < 1e-9,
                "interval {i}: online {} vs offline mean {want}",
                rec.satisfied_pct
            );
            assert!(rec.updated, "interval {i} must promote instantly");
        }
    }

    #[test]
    fn multi_matrix_staleness_does_not_help() {
        let (env, tms) = setup(8);
        let windows: Vec<Vec<TrafficMatrix>> = tms.chunks(2).map(|c| c.to_vec()).collect();
        let interval = Duration::from_millis(200);
        let mut fast = FixedTime(
            LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow),
            Duration::from_millis(10),
        );
        let fast_res = run_online_batched(&env, env.topo(), &windows, &mut fast, interval);
        let mut slow = FixedTime(
            LpAllScheme::new(Arc::clone(&env), Objective::TotalFlow),
            Duration::from_millis(500),
        );
        let slow_res = run_online_batched(&env, env.topo(), &windows, &mut slow, interval);
        assert!(
            slow_res.mean_satisfied_pct() <= fast_res.mean_satisfied_pct() + 1e-9,
            "staleness must not help: slow {} vs fast {}",
            slow_res.mean_satisfied_pct(),
            fast_res.mean_satisfied_pct()
        );
        let slow_updates = slow_res.intervals.iter().filter(|r| r.updated).count();
        let fast_updates = fast_res.intervals.iter().filter(|r| r.updated).count();
        assert!(slow_updates < fast_updates, "slow scheme must skip windows");
    }

    #[test]
    fn failure_interval_bounded() {
        let (env, tms) = setup(1);
        let failed = env.topo().with_failed_link(0, 1);
        let mut scheme = ShortestPathScheme::new(Arc::clone(&env));
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
