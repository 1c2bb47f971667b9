//! Concurrent-racing LP solving, reproducing Figure 2.
//!
//! §2.1: "To exploit multiple CPU threads, LP solvers often resort to
//! concurrently running independent instances of different optimization
//! algorithms, where each instance executes serially on a separate thread;
//! the solution is yielded by whichever instance completes first." The
//! consequence is the famously marginal multicore speedup the paper measures
//! on Gurobi (3.8x at 16 threads).
//!
//! We reproduce the mechanism's arithmetic: `t` threads stand for `t`
//! serial solver instances whose configurations differ (ADMM penalty ρ),
//! each timed alone, and the race ends when the fastest of them converges.
//! Extra threads help only insofar as one of the alternative configurations
//! happens to converge faster — exactly the sublinear behaviour of Figure 2.

use crate::admm::{AdmmConfig, AdmmSkeleton};
use crate::problem::{Allocation, Objective, TeInstance};
use std::time::{Duration, Instant};

/// Candidate ρ values assigned round-robin to racing instances. The first is
/// the default; alternatives are plausible but usually slower, so extra
/// threads yield diminishing returns.
const RHO_LADDER: [f64; 8] = [1.0, 0.5, 2.0, 0.25, 4.0, 0.125, 8.0, 16.0];

/// One racer's configuration: rung `t` of the ρ ladder, run to `tol`.
fn racer_config(t: usize, tol: f64) -> AdmmConfig {
    AdmmConfig {
        rho: RHO_LADDER[t % RHO_LADDER.len()],
        max_iters: 20_000,
        tol,
    }
}

/// Measure each racing configuration's *serial* solve time, one at a time.
///
/// On a `t`-core machine, Gurobi-style concurrent racing finishes when the
/// fastest of the first `t` configurations converges; with dedicated cores
/// that wall-clock time is `min` over those serial times. This helper makes
/// Figure 2 reproducible on machines with few cores (including the 1-core
/// CI boxes this reproduction targets): measure once per configuration, then
/// derive the race outcome for any thread count as a prefix minimum.
pub fn measure_racers(
    inst: &TeInstance,
    obj: Objective,
    num_configs: usize,
    tol: f64,
) -> Vec<Duration> {
    let skel = AdmmSkeleton::new(inst.topo, inst.paths, obj);
    let init = Allocation::zeros(inst.num_demands(), inst.k());
    (0..num_configs.min(RHO_LADDER.len()))
        .map(|t| {
            let start = Instant::now();
            skel.solve(inst.tm, &init, racer_config(t, tol));
            start.elapsed()
        })
        .collect()
}

/// Wall-clock time a concurrent race would take with `threads` dedicated
/// cores, from per-configuration serial measurements.
pub fn race_time_with_threads(racer_times: &[Duration], threads: usize) -> Duration {
    racer_times
        .iter()
        .take(threads.max(1).min(racer_times.len()))
        .min()
        .copied()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    /// One serial time per configuration; the derived race time is their
    /// prefix minimum, so more threads never make the race slower.
    #[test]
    fn race_time_is_prefix_minimum_of_racer_times() {
        let mut topo = Topology::new("d", 4);
        topo.add_link(0, 1, 10.0, 1.0);
        topo.add_link(1, 3, 10.0, 1.0);
        topo.add_link(0, 2, 10.0, 1.5);
        topo.add_link(2, 3, 10.0, 1.5);
        let paths = PathSet::compute(&topo, &[(0, 3)], 4);
        let tm = TrafficMatrix::new(vec![25.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let times = measure_racers(&inst, Objective::TotalFlow, 3, 1e-4);
        assert_eq!(times.len(), 3);
        for t in 1..=4 {
            let want = times.iter().take(t).min().copied();
            assert_eq!(Some(race_time_with_threads(&times, t)), want);
        }
        assert_eq!(race_time_with_threads(&times, 0), times[0]);
        assert_eq!(race_time_with_threads(&[], 2), Duration::ZERO);
    }
}
