//! Traffic matrices and demand bookkeeping.
//!
//! A [`TrafficMatrix`] stores one volume per demand, aligned with an external
//! ordered pair list (the same order used by `PathSet`). The paper's traffic
//! statistics of record — total volume and the share carried by the top 10%
//! of demands (88.4% in the SWAN trace) — are computed here.
//!
//! A matrix is a read-only input: the forward pass, ADMM and every baseline
//! only read it. So its demands live in one shared, immutable buffer, a
//! clone is a reference count (a window cut from a series holds no second
//! copy), and the one writer, [`TrafficMatrix::scale`], writes a fresh
//! buffer that no earlier clone sees.

use std::cmp::Ordering;
use std::sync::Arc;

/// One interval's traffic demands, aligned with a demand-pair list.
///
/// The demands are one shared, immutable buffer: `Clone` is O(1) and
/// shares it, and [`scale`](Self::scale) writes a fresh one.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMatrix {
    demands: Arc<[f64]>,
}

impl TrafficMatrix {
    /// Wrap a demand vector, copied once into the shared buffer. All
    /// volumes must be finite and non-negative.
    pub fn new(demands: Vec<f64>) -> Self {
        Self::shared(demands.into())
    }

    /// Wrap a buffer its creator filled in place. All volumes must be
    /// finite and non-negative.
    pub(crate) fn shared(demands: Arc<[f64]>) -> Self {
        assert!(
            demands.iter().all(|d| d.is_finite() && *d >= 0.0),
            "demands must be finite and non-negative"
        );
        TrafficMatrix { demands }
    }

    /// Number of demands.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// True when there are no demands.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Demand volumes in pair order.
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Volume of one demand.
    pub fn demand(&self, d: usize) -> f64 {
        self.demands[d]
    }

    /// Total traffic volume.
    pub fn total(&self) -> f64 {
        self.demands.iter().sum()
    }

    /// Multiply every demand by a constant, into a fresh buffer: clones
    /// taken before the call keep the old volumes.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor >= 0.0);
        self.demands = self.demands.iter().map(|d| d * factor).collect();
    }

    /// Indices of the top `frac` fraction of demands by volume
    /// (at least one if non-empty), sorted descending by volume.
    pub fn top_indices(&self, frac: f64) -> Vec<usize> {
        assert!((0.0..=1.0).contains(&frac));
        let mut idx: Vec<usize> = (0..self.demands.len()).collect();
        idx.sort_by(|&a, &b| {
            self.demands[b]
                .partial_cmp(&self.demands[a])
                .unwrap_or(Ordering::Equal)
        });
        let n = ((self.demands.len() as f64 * frac).ceil() as usize)
            .max(1)
            .min(self.demands.len());
        idx.truncate(n);
        idx
    }

    /// Fraction of total volume carried by the top `frac` of demands.
    /// The SWAN trace's headline statistic is `top_share(0.10) ≈ 0.884`.
    pub fn top_share(&self, frac: f64) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        let top: f64 = self
            .top_indices(frac)
            .iter()
            .map(|&i| self.demands[i])
            .sum();
        top / total
    }
}

/// Collects the volumes straight into the shared buffer: an iterator of
/// known length (a slice's, a range's, mapped) allocates it once. All
/// volumes must be finite and non-negative.
impl FromIterator<f64> for TrafficMatrix {
    fn from_iter<I: IntoIterator<Item = f64>>(demands: I) -> Self {
        Self::shared(demands.into_iter().collect())
    }
}

/// Per-demand variance of changes between consecutive intervals, the
/// statistic the paper's temporal-fluctuation experiment (§5.4) scales up.
pub fn inter_interval_variance(series: &[TrafficMatrix]) -> Vec<f64> {
    assert!(series.len() >= 2, "need at least two intervals");
    let n = series[0].len();
    let mut var = vec![0.0f64; n];
    let mut mean = vec![0.0f64; n];
    let steps = (series.len() - 1) as f64;
    for w in series.windows(2) {
        for (d, m) in mean.iter_mut().enumerate() {
            *m += (w[1].demand(d) - w[0].demand(d)) / steps;
        }
    }
    for w in series.windows(2) {
        for d in 0..n {
            let delta = w[1].demand(d) - w[0].demand(d) - mean[d];
            var[d] += delta * delta / steps;
        }
    }
    var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_scaling() {
        let mut tm = TrafficMatrix::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(tm.total(), 6.0);
        tm.scale(2.0);
        assert_eq!(tm.total(), 12.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_rejected() {
        let _ = TrafficMatrix::new(vec![-1.0]);
    }

    #[test]
    fn clones_share_one_demand_buffer() {
        let tm = TrafficMatrix::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(tm.clone().demands().as_ptr(), tm.demands().as_ptr());

        let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i, i + 64)).collect();
        let model = crate::TrafficModel::new(&pairs, crate::TrafficConfig::default(), 3);
        let series = model.series(0, 8);
        let window = series[2..6].to_vec();
        for (a, b) in window.iter().zip(&series[2..6]) {
            assert_eq!(a.demands().as_ptr(), b.demands().as_ptr());
        }
    }

    #[test]
    fn scale_copies_on_write() {
        let tm = TrafficMatrix::new(vec![0.1, 2.5, 3.0e-7, 0.0, 1.0 / 3.0]);
        let bits: Vec<u64> = tm.demands().iter().map(|d| d.to_bits()).collect();
        let ptr = tm.demands().as_ptr();
        let mut doubled = tm.clone();
        assert_eq!(doubled.demands().as_ptr(), ptr, "shared until the write");
        doubled.scale(2.0);
        assert_eq!(tm.demands().as_ptr(), ptr);
        assert_ne!(doubled.demands().as_ptr(), ptr);
        let after: Vec<u64> = tm.demands().iter().map(|d| d.to_bits()).collect();
        assert_eq!(after, bits);
        for (d, s) in tm.demands().iter().zip(doubled.demands()) {
            assert_eq!(s.to_bits(), (d * 2.0).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn collected_demands_are_checked_like_new() {
        let _: TrafficMatrix = [1.0, f64::NAN].into_iter().collect();
    }

    #[test]
    fn top_indices_sorted_by_volume() {
        let tm = TrafficMatrix::new(vec![5.0, 1.0, 10.0, 3.0]);
        assert_eq!(tm.top_indices(0.5), vec![2, 0]);
        assert_eq!(tm.top_indices(0.25), vec![2]);
    }

    #[test]
    fn top_share_extremes() {
        let tm = TrafficMatrix::new(vec![100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((tm.top_share(0.1) - 1.0).abs() < 1e-12);
        let uniform = TrafficMatrix::new(vec![1.0; 10]);
        assert!((uniform.top_share(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_series_is_zero() {
        let series = vec![TrafficMatrix::new(vec![2.0, 3.0]); 5];
        let var = inter_interval_variance(&series);
        assert!(var.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn variance_detects_oscillation() {
        let a = TrafficMatrix::new(vec![0.0]);
        let b = TrafficMatrix::new(vec![2.0]);
        let series = vec![a.clone(), b.clone(), a.clone(), b, a];
        let var = inter_interval_variance(&series);
        assert!(var[0] > 0.5);
    }
}
