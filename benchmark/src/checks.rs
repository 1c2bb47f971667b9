//! Output checks. Every operation is attempted once and fails at most
//! once; a violated check fails its operation, is remembered with a reason,
//! and makes the run incorrect.

use teal_core::Env;
use teal_lp::Allocation;
use teal_traffic::TrafficMatrix;

/// Tolerance of every numeric comparison (the repository's own
/// equivalence suites use the same).
pub const TOL: f64 = 1e-6;

/// Failure reasons kept for the report (the count is never capped).
const MAX_REASONS: usize = 8;

#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    /// Count one operation (or run-level check) and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(reason);
            }
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// `Ok` when `cond` holds, else the lazily built reason.
pub fn ensure(cond: bool, reason: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(reason())
    }
}

/// A served allocation must be demand-feasible, put nothing on a path
/// that crosses a failed link, and match the reference (the same input
/// through a direct library call) when one is given.
pub fn allocation(
    alloc: &Allocation,
    reference: Option<&Allocation>,
    dead_paths: &[u32],
) -> Result<(), String> {
    ensure(alloc.demand_feasible(TOL), || {
        "allocation is not demand-feasible to 1e-6".into()
    })?;
    for &p in dead_paths {
        let split = alloc.splits().get(p as usize).copied().unwrap_or(f64::NAN);
        ensure(split == 0.0, || {
            format!("split {split} on path {p}, which crosses a failed link")
        })?;
    }
    match reference {
        Some(reference) => close(alloc, reference),
        None => Ok(()),
    }
}

/// Two allocations equal to [`TOL`], split by split.
pub fn close(a: &Allocation, b: &Allocation) -> Result<(), String> {
    ensure(a.splits().len() == b.splits().len(), || {
        format!(
            "allocation has {} splits, reference {}",
            a.splits().len(),
            b.splits().len()
        )
    })?;
    // `f64::max` drops a NaN operand; this fold keeps a NaN difference once
    // it has seen one, and NaN fails the comparison below.
    let worst = a
        .splits()
        .iter()
        .zip(b.splits())
        .map(|(x, y)| (x - y).abs())
        .fold(
            0.0f64,
            |worst, d| if d > worst || d.is_nan() { d } else { worst },
        );
    ensure(worst <= TOL, || {
        format!("allocation differs from its reference by {worst:e}")
    })
}

/// Satisfied demand (%) of `alloc` for `tm` on the intact topology.
pub fn satisfied_pct(env: &Env, tm: &TrafficMatrix, alloc: &Allocation) -> f64 {
    teal_lp::evaluate(&env.instance(tm), alloc).satisfied_pct()
}

/// The output fingerprint: satisfied demand of the first allocation served
/// for each distinct input, averaged in input order so the mean does not
/// depend on which thread or batch served what.
pub struct Quality {
    per_input: Vec<Option<f64>>,
}

impl Quality {
    pub fn new(inputs: usize) -> Self {
        Quality {
            per_input: vec![None; inputs],
        }
    }

    pub fn seen(&self, input: usize) -> bool {
        self.per_input[input].is_some()
    }

    pub fn set(&mut self, input: usize, pct: f64) {
        self.per_input[input].get_or_insert(pct);
    }

    pub fn merge(&mut self, other: &Quality) {
        for (mine, theirs) in self.per_input.iter_mut().zip(&other.per_input) {
            if mine.is_none() {
                *mine = *theirs;
            }
        }
    }

    /// Mean over the inputs served at least once, and how many those are.
    pub fn mean(&self) -> (f64, usize) {
        let served: Vec<f64> = self.per_input.iter().flatten().copied().collect();
        (crate::stats::mean(&served), served.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_accepts_within_tolerance_and_refuses_drift_length_and_nan() {
        let reference = Allocation::from_splits(2, vec![0.25, 0.75, 1.0, 0.0]);
        let near = Allocation::from_splits(2, vec![0.25 + 5e-7, 0.75, 1.0, 0.0]);
        let far = Allocation::from_splits(2, vec![0.25 + 5e-6, 0.75, 1.0, 0.0]);
        let short = Allocation::from_splits(2, vec![0.25, 0.75]);
        assert!(close(&reference, &reference).is_ok());
        assert!(close(&near, &reference).is_ok());
        assert!(close(&far, &reference).is_err());
        assert!(close(&short, &reference).is_err());
        // A NaN split anywhere fails, whichever side and position it is on.
        for at in 0..4 {
            let mut splits = reference.splits().to_vec();
            splits[at] = f64::NAN;
            let broken = Allocation::from_splits(2, splits);
            assert!(close(&broken, &reference).is_err(), "NaN at {at}");
            assert!(close(&reference, &broken).is_err(), "NaN at {at}");
        }
    }
}
