//! Synthetic traffic generation replacing the proprietary SWAN trace.
//!
//! The paper trains and evaluates on 20 days of 5-minute traffic matrices
//! from Microsoft's inter-datacenter WAN. The generator here reproduces the
//! trace's two load-bearing properties:
//!
//! 1. **Heavy spatial skew** — the top 10% of demands carry ≈88.4% of total
//!    volume (§5.1). Per-demand base volumes are log-normal with σ chosen
//!    analytically: the top-decile mass share of LogNormal(μ,σ) is
//!    Φ(σ − z₀.₉), and σ ≈ 2.476 gives 0.884.
//! 2. **Smooth temporal evolution with diurnal structure** — demands evolve
//!    by a multiplicative AR(1) process in log space plus a sinusoidal
//!    day/night factor, so consecutive matrices are similar but not equal
//!    (what the online evaluation in §5.1 relies on).
//!
//! Demand volumes are finally calibrated against the topology so that "the
//! best-performing TE scheme satisfies a majority of traffic demand" (§5.1):
//! we scale total volume such that shortest-path routing would load the
//! busiest links at a fixed multiple of capacity.
//!
//! Every setting of the model is a constant of this module; the seed is the
//! one input.

use crate::matrix::TrafficMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use teal_pool::setup_workers;
use teal_topology::{NodeId, PathSet, Topology};

/// AR(1) steps each demand's stream runs before interval 0, to reach the
/// stationary distribution.
const BURN_IN: usize = 32;

/// AR(1) steps a [`TrafficModel::series`] needs per helper thread: about a
/// millisecond of work, an order of magnitude over the spawn, so B4's 132
/// demands stay on the caller.
const HELPER_STEPS: usize = 1 << 15;

/// Log-normal σ of per-demand base volumes (2.476 ⇒ top-10% ≈ 88.4%).
const SIGMA: f64 = 2.476;

/// Amplitude of the diurnal factor `1 + A·sin(..)`.
const DIURNAL_AMPLITUDE: f64 = 0.25;

// Below 1, the diurnal factor stays positive; a demand's other factors
// (scale, base volume, AR noise) are positive or exponentials, so no demand
// goes negative.
const _: () = assert!(DIURNAL_AMPLITUDE < 1.0);

/// Intervals per diurnal cycle (288 × 5 min = 24 h).
const DIURNAL_PERIOD: usize = 288;

/// AR(1) persistence of log-demand noise, in [0, 1).
const AR_RHO: f64 = 0.9;

/// Standard deviation of the AR(1) innovation in log space.
const AR_NOISE: f64 = 0.08;

/// p95 link utilization under shortest-path routing that
/// [`TrafficModel::calibrate`] targets. At 1 the optimum falls just short of
/// satisfying everything, as in the paper.
const TARGET_UTILIZATION: f64 = 1.0;

/// The traffic model's settings, which are all fixed: this fieldless marker
/// exists only so that [`TrafficModel::new`] keeps its three-argument form,
/// which the repository benchmark calls as
/// `TrafficModel::new(&pairs, TrafficConfig::default(), seed)`.
#[derive(Clone, Debug, Default)]
pub struct TrafficConfig {}

/// A seeded traffic generator bound to one demand-pair list.
#[derive(Clone, Debug)]
pub struct TrafficModel {
    pairs: Vec<(NodeId, NodeId)>,
    /// Time-invariant per-demand base volume (the "gravity" of the pair).
    base: Vec<f64>,
    /// Global scale applied on top of the base volumes.
    scale: f64,
    seed: u64,
}

impl TrafficModel {
    /// Build the model for an ordered demand-pair list; the
    /// [`TrafficConfig`] marker carries nothing.
    pub fn new(pairs: &[(NodeId, NodeId)], _: TrafficConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7f1c_0001);
        let base = pairs
            .iter()
            .map(|_| (SIGMA * gauss(&mut rng)).exp())
            .collect();
        TrafficModel {
            pairs: pairs.to_vec(),
            base,
            scale: 1.0,
            seed,
        }
    }

    /// The demand pairs this model generates for.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Current global scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Calibrate the global scale against a topology: scale total volume so
    /// that shortest-path routing yields a p95 directed-link utilization of
    /// `TARGET_UTILIZATION` = 1.
    pub fn calibrate(&mut self, topo: &Topology, paths: &PathSet) {
        assert_eq!(
            paths.pairs(),
            self.pairs.as_slice(),
            "path set / pair list mismatch"
        );
        let mut load = vec![0.0f64; topo.num_edges()];
        for (d, &b) in self.base.iter().enumerate() {
            // Paths are sorted by weight, so slot 0 is the shortest path.
            let sp = &paths.paths_for(d)[0];
            for &e in &sp.edges {
                load[e] += b;
            }
        }
        let mut utils: Vec<f64> = load
            .iter()
            .zip(topo.edges())
            .filter(|(_, e)| e.capacity > 0.0)
            .map(|(l, e)| l / e.capacity)
            .collect();
        if utils.is_empty() {
            return;
        }
        utils.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let p95 = utils[((utils.len() - 1) as f64 * 0.95).round() as usize];
        if p95 > 0.0 {
            self.scale = TARGET_UTILIZATION / p95;
        }
    }

    /// Generate `len` consecutive traffic matrices starting at interval
    /// `start`. Deterministic in `(seed, start, len)` — the same window can
    /// be regenerated at will, which the train/val/test split relies on.
    /// Each matrix's buffer is allocated once and filled in place: the
    /// workers write the very buffer the matrix then shares.
    ///
    /// Runs on [`setup_workers`] threads, like `PathSet::compute`: the
    /// demands' streams are independent, so the output is the same bits on
    /// any number of them.
    pub fn series(&self, start: usize, len: usize) -> Vec<TrafficMatrix> {
        let steps = self.pairs.len() * (BURN_IN + start + len);
        let threads = setup_workers().min(steps / HELPER_STEPS + 1);
        self.series_on(threads, start, len)
    }

    /// [`series`](Self::series) on `threads` workers of [`teal_pool::map`],
    /// the caller being one: each takes a contiguous range of demands and
    /// writes its own columns of every matrix, so no write is shared.
    fn series_on(&self, threads: usize, start: usize, len: usize) -> Vec<TrafficMatrix> {
        let n = self.pairs.len();
        let diurnal: Vec<f64> = (start..start + len)
            .map(|interval| {
                1.0 + DIURNAL_AMPLITUDE
                    * (2.0 * std::f64::consts::PI * interval as f64 / DIURNAL_PERIOD as f64).sin()
            })
            .collect();
        let mut out: Vec<Arc<[f64]>> = (0..len).map(|_| (0..n).map(|_| 0.0).collect()).collect();
        let threads = threads.clamp(1, n.max(1));
        // Each buffer is fresh and so unshared: `make_mut` copies nothing.
        let mut rest: Vec<&mut [f64]> = out.iter_mut().map(Arc::make_mut).collect();
        let mut parts = Vec::with_capacity(threads);
        for w in 0..threads {
            let demands = n * w / threads..n * (w + 1) / threads;
            let (columns, tail) = rest
                .into_iter()
                .map(|row| row.split_at_mut(demands.len()))
                .unzip();
            rest = tail;
            parts.push((demands, columns));
        }
        teal_pool::map(threads, parts, &|(demands, columns)| {
            self.fill(demands, start, &diurnal, columns)
        });
        out.into_iter().map(TrafficMatrix::shared).collect()
    }

    /// One worker's share of a series: the streams of `demands`, one after
    /// another, into `columns[t][k]` for the `k`-th of them at step `t`.
    ///
    /// Each demand gets an independent AR(1) log-noise stream, seeded per
    /// demand so the series is reproducible from any starting interval: burn
    /// in to the stationary distribution, then advance to `start`. The RNG
    /// comes out positioned where the series continues.
    fn fill(
        &self,
        demands: Range<usize>,
        start: usize,
        diurnal: &[f64],
        mut columns: Vec<&mut [f64]>,
    ) {
        for (k, d) in demands.enumerate() {
            let mut r = StdRng::seed_from_u64(self.seed ^ (d as u64).wrapping_mul(0x9e37_79b9));
            let mut x = 0.0f64;
            for _ in 0..(BURN_IN + start) {
                x = AR_RHO * x + gauss(&mut r) * AR_NOISE;
            }
            for (t, (column, &diurnal)) in columns.iter_mut().zip(diurnal).enumerate() {
                if t > 0 {
                    x = AR_RHO * x + gauss(&mut r) * AR_NOISE;
                }
                column[k] = self.scale * self.base[d] * diurnal * x.exp();
            }
        }
    }
}

/// Standard train/validation/test windows. The paper uses 700/100/200
/// consecutive intervals; `shrink` scales all three for CPU-budget runs.
#[derive(Clone, Copy, Debug)]
pub struct SplitSpec {
    /// Number of training intervals.
    pub train: usize,
    /// Number of validation intervals.
    pub val: usize,
    /// Number of test intervals.
    pub test: usize,
}

impl SplitSpec {
    /// The paper's 700/100/200 split scaled by `shrink` in (0, 1].
    pub fn paper(shrink: f64) -> Self {
        assert!(shrink > 0.0 && shrink <= 1.0);
        let s = |n: usize| ((n as f64 * shrink).round() as usize).max(2);
        SplitSpec {
            train: s(700),
            val: s(100),
            test: s(200),
        }
    }

    /// Generate the three disjoint consecutive windows.
    pub fn generate(
        &self,
        model: &TrafficModel,
    ) -> (Vec<TrafficMatrix>, Vec<TrafficMatrix>, Vec<TrafficMatrix>) {
        let train = model.series(0, self.train);
        let val = model.series(self.train, self.val);
        let test = model.series(self.train + self.val, self.test);
        (train, val, test)
    }
}

/// One Box-Muller standard-normal sample, for the generator and the
/// perturbations (the same transform as `teal_nn::rng::normal`; this crate
/// stays independent of the NN substrate).
pub(crate) fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::{b4, PathSet};

    fn model_for_b4() -> (teal_topology::Topology, PathSet, TrafficModel) {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 17);
        model.calibrate(&topo, &paths);
        (topo, paths, model)
    }

    #[test]
    fn heavy_tail_matches_swan_statistic() {
        // With only 132 demands the share is noisy; average over many seeds.
        let mut shares = Vec::new();
        for seed in 0..30 {
            let pairs: Vec<(usize, usize)> = (0..500).map(|i| (i, i + 500)).collect();
            let m = TrafficModel::new(&pairs, TrafficConfig::default(), seed);
            let tm = m.series(0, 1).remove(0);
            shares.push(tm.top_share(0.10));
        }
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        assert!(
            (mean - 0.884).abs() < 0.06,
            "top-10% share {mean}, expected ~0.884"
        );
    }

    #[test]
    fn series_deterministic_and_seamless() {
        let (_, _, model) = model_for_b4();
        let full = model.series(0, 10);
        let head = model.series(0, 4);
        let tail = model.series(4, 6);
        for (a, b) in full[..4].iter().zip(&head) {
            assert_eq!(a, b);
        }
        for (a, b) in full[4..].iter().zip(&tail) {
            for (x, y) in a.demands().iter().zip(b.demands()) {
                assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn series_bits_are_pinned() {
        // FNV-1a over every demand's bits, printed by this function at the
        // commit before the burn-in and the stream fast-forward shared one
        // pass over each demand's RNG.
        fn hash(series: &[TrafficMatrix]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in series
                .iter()
                .flat_map(|tm| tm.demands())
                .flat_map(|v| v.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let (_, _, model) = model_for_b4();
        assert_eq!(hash(&model.series(0, 4)), 0x3495_8e45_f5af_ffad);
        assert_eq!(hash(&model.series(4, 6)), 0xefbf_c4f8_7d6a_a965);
    }

    #[test]
    fn series_is_identical_for_every_worker_count() {
        // Each worker writes only its own demands' columns, so how many there
        // are cannot show: uneven splits (2,048 / 3, 132 / 5), a window that
        // starts mid-stream, one matrix, none.
        let pairs: Vec<(usize, usize)> = (0..2048).map(|i| (i, i + 2048)).collect();
        let synthetic = TrafficModel::new(&pairs, TrafficConfig::default(), 5);
        let (_, _, b4) = model_for_b4();
        for model in [&synthetic, &b4] {
            for (start, len) in [(0, 16), (7, 16), (3, 1), (3, 0)] {
                let one = model.series_on(1, start, len);
                assert_eq!(one.len(), len);
                for threads in [2, 3, 5] {
                    assert!(
                        model.series_on(threads, start, len) == one,
                        "{threads} workers, start {start}, len {len}"
                    );
                }
                assert!(model.series(start, len) == one);
            }
        }
    }

    #[test]
    fn calibration_hits_target() {
        let (topo, paths, model) = model_for_b4();
        // Recompute the p95 utilization with the calibrated scale.
        let tm_base: Vec<f64> = model.base.iter().map(|b| b * model.scale()).collect();
        let mut load = vec![0.0f64; topo.num_edges()];
        for (d, v) in tm_base.iter().enumerate() {
            for &e in &paths.paths_for(d)[0].edges {
                load[e] += v;
            }
        }
        let mut utils: Vec<f64> = load
            .iter()
            .zip(topo.edges())
            .map(|(l, e)| l / e.capacity)
            .collect();
        utils.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = utils[((utils.len() - 1) as f64 * 0.95).round() as usize];
        assert!((p95 - 1.0).abs() < 0.05, "p95 {p95}");
    }

    #[test]
    fn consecutive_intervals_are_correlated() {
        let (_, _, model) = model_for_b4();
        let series = model.series(0, 20);
        // Relative change between consecutive matrices should be modest.
        for w in series.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let rel: f64 = a
                .demands()
                .iter()
                .zip(b.demands())
                .filter(|(x, _)| **x > 0.0)
                .map(|(x, y)| ((y - x) / x).abs())
                .sum::<f64>()
                / a.len() as f64;
            assert!(rel < 0.6, "mean relative change {rel} too large");
        }
    }

    #[test]
    fn split_windows_are_disjoint_and_sized() {
        let (_, _, model) = model_for_b4();
        let spec = SplitSpec::paper(0.02); // 14/2/4
        let (train, val, test) = spec.generate(&model);
        assert_eq!(train.len(), 14);
        assert_eq!(val.len(), 2);
        assert_eq!(test.len(), 4);
        assert_ne!(train.last().unwrap(), &val[0]);
    }
}
