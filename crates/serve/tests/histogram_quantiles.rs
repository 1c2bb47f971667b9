//! Property coverage for [`LatencyHistogram`]: quantile estimates against
//! an exact nearest-rank reference over random latency streams (the
//! documented half-sub-bucket error bound).

use proptest::prelude::*;
use std::time::Duration;
use teal_serve::LatencyHistogram;

/// Exact nearest-rank quantile over raw nanosecond samples, mirroring the
/// histogram's target rank `max(ceil(q·n), 1)`.
fn nearest_rank(sorted_ns: &[u64], q: f64) -> u64 {
    assert!(!sorted_ns.is_empty());
    let n = sorted_ns.len() as f64;
    let rank = ((q.clamp(0.0, 1.0) * n).ceil() as usize).max(1);
    sorted_ns[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantile_matches_nearest_rank_within_half_sub_bucket(
        ns in proptest::collection::vec(1u64..1_000_000_000, 1..400),
        q_mil in 0u32..1001,
    ) {
        let q = f64::from(q_mil) / 1000.0;
        let mut h = LatencyHistogram::default();
        for &v in &ns {
            h.record(Duration::from_nanos(v));
        }
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        let truth = nearest_rank(&sorted, q) as f64;
        let est = h.quantile(q).as_nanos() as f64;
        // Documented bound: the histogram has 4 sub-buckets per octave and
        // reports each bucket's geometric midpoint (capped at the observed
        // max), so the estimate sits within half a sub-bucket — a factor
        // of 2^(1/8) ≈ 1.0905 — of the true nearest-rank sample. A couple
        // of nanoseconds of absolute slack absorbs float truncation in
        // bucket indexing and the final `as u64` cast.
        let half_sub = 2f64.powf(1.0 / 8.0) * 1.000_000_1;
        prop_assert!(
            est <= truth * half_sub + 2.0,
            "q={q}: estimate {est}ns above nearest-rank {truth}ns × 2^(1/8)"
        );
        prop_assert!(
            est >= truth / half_sub - 2.0,
            "q={q}: estimate {est}ns below nearest-rank {truth}ns / 2^(1/8)"
        );
    }
}
