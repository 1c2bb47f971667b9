//! Demand perturbations for the robustness experiments in §5.4.
//!
//! * [`temporal_fluctuation`] reproduces Figure 10a's setup: "For each
//!   demand, we calculate the variance in its changes between consecutive
//!   time slots, and multiply it by a factor of 2, 5, 10, and 20 to
//!   instantiate the variance of a zero-mean normal distribution. Next, we
//!   randomly draw a sample from this normal distribution and add it to each
//!   demand in every time slot."
//! * [`spatial_redistribution`] reproduces Figure 10b's setup: "We reassign
//!   the top 10% of demands, which originally account for 88.4% of the total
//!   volume, such that they constitute 80%, 60%, 40%, and 20% instead."

use crate::gen::gauss;
use crate::matrix::{inter_interval_variance, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Add zero-mean normal noise with per-demand variance `factor` times the
/// series' inter-interval variance. Demands are clamped at zero.
pub fn temporal_fluctuation(
    series: &[TrafficMatrix],
    factor: f64,
    seed: u64,
) -> Vec<TrafficMatrix> {
    assert!(factor >= 0.0);
    let var = inter_interval_variance(series);
    let std: Vec<f64> = var.iter().map(|v| (v * factor).sqrt()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0f1c_7001);
    series
        .iter()
        .map(|tm| {
            tm.demands()
                .iter()
                .zip(&std)
                .map(|(&d, &s)| (d + s * gauss(&mut rng)).max(0.0))
                .collect()
        })
        .collect()
}

/// Rescale each matrix so the demands that are *currently* in the top decile
/// carry `target_share` of the total volume, preserving the total.
pub fn spatial_redistribution(series: &[TrafficMatrix], target_share: f64) -> Vec<TrafficMatrix> {
    assert!((0.0..1.0).contains(&target_share) || (target_share - 1.0).abs() < 1e-12);
    series
        .iter()
        .map(|tm| {
            let total = tm.total();
            if total <= 0.0 {
                return tm.clone();
            }
            let top = tm.top_indices(0.10);
            let top_set: std::collections::HashSet<usize> = top.iter().copied().collect();
            let top_vol: f64 = top.iter().map(|&i| tm.demand(i)).sum();
            let rest_vol = total - top_vol;
            if top_vol <= 0.0 || rest_vol <= 0.0 {
                return tm.clone();
            }
            let top_scale = target_share * total / top_vol;
            let rest_scale = (1.0 - target_share) * total / rest_vol;
            tm.demands()
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    if top_set.contains(&i) {
                        d * top_scale
                    } else {
                        d * rest_scale
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Vec<TrafficMatrix> {
        (0..10)
            .map(|t| {
                TrafficMatrix::new(vec![
                    100.0 + (t as f64) * 3.0,
                    10.0 + (t as f64 * 1.3).sin().abs(),
                    1.0,
                    50.0,
                    2.0,
                    3.0,
                    4.0,
                    5.0,
                    6.0,
                    7.0,
                ])
            })
            .collect()
    }

    #[test]
    fn fluctuation_zero_factor_is_identity() {
        let s = sample_series();
        let p = temporal_fluctuation(&s, 0.0, 1);
        for (a, b) in s.iter().zip(&p) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn fluctuation_grows_with_factor() {
        let s = sample_series();
        let diff = |a: &[TrafficMatrix], b: &[TrafficMatrix]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| {
                    x.demands()
                        .iter()
                        .zip(y.demands())
                        .map(|(u, v)| (u - v).abs())
                        .sum::<f64>()
                })
                .sum()
        };
        let d2 = diff(&s, &temporal_fluctuation(&s, 2.0, 7));
        let d20 = diff(&s, &temporal_fluctuation(&s, 20.0, 7));
        assert!(d20 > d2, "20x fluctuation {d20} should exceed 2x {d2}");
    }

    #[test]
    fn fluctuation_never_negative() {
        let s = sample_series();
        for tm in temporal_fluctuation(&s, 50.0, 3) {
            assert!(tm.demands().iter().all(|d| *d >= 0.0));
        }
    }

    #[test]
    fn redistribution_hits_target_share_and_preserves_total() {
        let s = sample_series();
        for target in [0.8, 0.6, 0.4, 0.2] {
            let p = spatial_redistribution(&s, target);
            for (orig, tm) in s.iter().zip(&p) {
                assert!((tm.total() - orig.total()).abs() < 1e-9 * orig.total());
                // The originally-top demands now carry the target share.
                let top = orig.top_indices(0.10);
                let share: f64 = top.iter().map(|&i| tm.demand(i)).sum::<f64>() / tm.total();
                assert!(
                    (share - target).abs() < 1e-9,
                    "share {share} target {target}"
                );
            }
        }
    }
}
