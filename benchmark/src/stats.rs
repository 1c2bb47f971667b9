//! Order statistics for the benchmark: nearest-rank percentiles, the
//! "highest percentile the sample supports" rule, and the run-to-run
//! spread (`--compare`, and the steadiness numbers in the README).

use crate::inputs::Rng;

/// Percentiles a tail metric may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail must have this many samples beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
/// Empty samples read 0 so a bypassed layer reports "no time spent".
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n >= 1`. The
/// small epsilon keeps `99.9% of 10,000` at 9,990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least ten samples beyond it in a
/// sample of `n`; the median when even p75 is unsupported.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0])
}

/// The percentile a tail metric with nominal percentile `nominal` is
/// actually read at for `n` samples: never above what the sample supports.
pub fn tail_percentile(n: usize, nominal: f64) -> f64 {
    nominal.min(highest_supported(n))
}

/// Sort in place (total order; the samples are finite timings).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median and tail of a latency sample, with what backs them.
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    /// Percentile `tail` was read at (nominal, or lower if unsupported).
    pub tail_percentile: f64,
    pub samples: usize,
}

/// Summarise an unsorted sample at the median and a nominal tail.
pub fn summarize(values: &[f64], nominal_tail: f64) -> Summary {
    let mut v = values.to_vec();
    sort(&mut v);
    let tail_percentile = tail_percentile(v.len(), nominal_tail);
    Summary {
        p50: percentile(&v, 50.0),
        tail: percentile(&v, tail_percentile),
        tail_percentile,
        samples: v.len(),
    }
}

/// Latency samples one load-generator thread keeps. Beyond it the sample
/// is a uniform reservoir of everything seen, so a run's memory does not
/// grow with how many operations it managed to complete.
pub const RESERVOIR: usize = 1 << 17;

/// Add the `seen`-th value (1-based) to a uniform reservoir sample of at
/// most [`RESERVOIR`] values (Vitter's algorithm R); exact below the cap.
pub fn reservoir_push(samples: &mut Vec<f64>, seen: usize, value: f64, rng: &mut Rng) {
    if samples.len() < RESERVOIR {
        samples.push(value);
    } else {
        let slot = rng.below(seen);
        if slot < RESERVOIR {
            samples[slot] = value;
        }
    }
}

/// Length of one slice of a timed phase, seconds.
pub const SLICE_S: f64 = 1.0;

/// Latency samples one slice keeps per load-generator thread (a uniform
/// reservoir beyond that).
const SLICE_SAMPLES: usize = 2048;

#[derive(Clone, Default)]
struct Slice {
    /// Operations that completed in the slice, and a sample of their
    /// latencies.
    ops: usize,
    latencies_ms: Vec<f64>,
    /// Matrices answered, each operation's credited to the slices it ran in
    /// in proportion to the time it spent in each: a 75 ms window that
    /// straddles a boundary would otherwise move a 1 s slice's count by 8%.
    matrices: f64,
}

/// A timed phase cut into [`SLICE_S`]-second slices. The end-to-end latency
/// and throughput of a run are those of its *median slice*: the authoring
/// box loses a core to its neighbours for seconds at a time, which drags a
/// whole-run figure by however long that lasted, while the median slice
/// moves only when most of the run was disturbed. A change that makes the
/// program slower is slower in every slice.
#[derive(Clone, Default)]
pub struct Slices {
    slices: Vec<Slice>,
}

impl Slices {
    /// One operation answering `matrices`, begun and done at these offsets
    /// (seconds) into the timed phase.
    pub fn record(&mut self, begun_s: f64, done_s: f64, matrices: usize, rng: &mut Rng) {
        let begun_s = begun_s.max(0.0);
        let done_s = done_s.max(begun_s);
        let (first, last) = ((begun_s / SLICE_S) as usize, (done_s / SLICE_S) as usize);
        if self.slices.len() <= last {
            self.slices.resize(last + 1, Slice::default());
        }
        if first == last {
            self.slices[last].matrices += matrices as f64;
        } else {
            for (i, slice) in self
                .slices
                .iter_mut()
                .enumerate()
                .take(last + 1)
                .skip(first)
            {
                let inside = done_s.min((i + 1) as f64 * SLICE_S) - begun_s.max(i as f64 * SLICE_S);
                slice.matrices += matrices as f64 * inside / (done_s - begun_s);
            }
        }
        let slice = &mut self.slices[last];
        slice.ops += 1;
        if slice.latencies_ms.len() < SLICE_SAMPLES {
            slice.latencies_ms.push((done_s - begun_s) * 1e3);
        } else {
            let slot = rng.below(slice.ops);
            if slot < SLICE_SAMPLES {
                slice.latencies_ms[slot] = (done_s - begun_s) * 1e3;
            }
        }
    }

    /// Fold in another thread's slices of the same phase.
    pub fn merge(&mut self, other: Slices) {
        if self.slices.len() < other.slices.len() {
            self.slices.resize(other.slices.len(), Slice::default());
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.ops += theirs.ops;
            mine.matrices += theirs.matrices;
            mine.latencies_ms.extend(theirs.latencies_ms);
        }
    }

    /// Slices that lie wholly inside a timed phase of `timed_s` seconds and
    /// completed something. A run shorter than one slice is one slice.
    fn whole(&self, timed_s: f64) -> &[Slice] {
        let whole = ((timed_s / SLICE_S) as usize).clamp(1, self.slices.len().max(1));
        &self.slices[..whole.min(self.slices.len())]
    }

    /// Median over the whole slices of each slice's median latency, ms.
    pub fn p50_ms(&self, timed_s: f64) -> f64 {
        let medians: Vec<f64> = self
            .whole(timed_s)
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| median(&s.latencies_ms))
            .collect();
        median(&medians)
    }

    /// Median over the whole slices of matrices answered per second.
    pub fn matrices_per_s(&self, timed_s: f64) -> f64 {
        let slice_s = SLICE_S.min(timed_s);
        let rates: Vec<f64> = self
            .whole(timed_s)
            .iter()
            .map(|s| s.matrices / slice_s)
            .collect();
        median(&rates)
    }

    /// Each whole slice's median latency (ms) and rate, for the results file.
    pub fn list_p50_ms(&self, timed_s: f64) -> String {
        let v: Vec<f64> = self
            .whole(timed_s)
            .iter()
            .map(|s| median(&s.latencies_ms))
            .collect();
        list(&v)
    }

    pub fn list_per_s(&self, timed_s: f64) -> String {
        let slice_s = SLICE_S.min(timed_s);
        let v: Vec<f64> = self
            .whole(timed_s)
            .iter()
            .map(|s| s.matrices / slice_s)
            .collect();
        list(&v)
    }

    /// How many whole slices the two medians above are taken over.
    pub fn count(&self, timed_s: f64) -> usize {
        self.whole(timed_s).len()
    }
}

/// Values to five significant digits, space separated, for a fact line.
pub fn list(values: &[f64]) -> String {
    let strings: Vec<String> = values.iter().map(|v| format!("{v:.5e}")).collect();
    strings.join(" ")
}

/// The latency ladder of an unsorted sample, for the results file:
/// `p50=.. p90=.. p95=.. p99=.. max=..` (ms), whatever the gated tail is.
pub fn ladder(values: &[f64]) -> String {
    let mut v = values.to_vec();
    sort(&mut v);
    let mut out: Vec<String> = [50.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("p{p}={:.4}", percentile(&v, p)))
        .collect();
    out.push(format!("max={:.4}", v.last().copied().unwrap_or(0.0)));
    out.join(" ")
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here match
/// the ones the driver computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance in the values' own unit. 0 for fewer than two.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, _, q3)| q3 - q1)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a relative bound is judged against. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 leaves 1% beyond: 1,000 samples is the first supported size.
        assert_eq!(highest_supported(999), 95.0);
        assert_eq!(highest_supported(1_000), 99.0);
        assert_eq!(highest_supported(10_000), 99.9);
        // p95 needs 200, p90 needs 100, p75 needs 40.
        assert_eq!(highest_supported(200), 95.0);
        assert_eq!(highest_supported(199), 90.0);
        assert_eq!(highest_supported(100), 90.0);
        assert_eq!(highest_supported(99), 75.0);
        assert_eq!(highest_supported(39), 50.0);
        assert_eq!(highest_supported(0), 50.0);
    }

    #[test]
    fn tail_percentile_never_exceeds_nominal_or_support() {
        assert_eq!(tail_percentile(5_000, 90.0), 90.0);
        assert_eq!(tail_percentile(150, 99.0), 90.0);
        let s = summarize(&(1..=150).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert_eq!(s.tail_percentile, 90.0);
        assert_eq!(s.tail, 135.0);
        assert_eq!(s.samples, 150);
    }

    #[test]
    fn reservoir_is_exact_below_the_cap_and_bounded_and_uniform_beyond() {
        let mut rng = Rng::new(1, 2);
        let mut samples = Vec::new();
        for seen in 1..=RESERVOIR {
            reservoir_push(&mut samples, seen, seen as f64, &mut rng);
        }
        assert_eq!(samples.len(), RESERVOIR);
        assert!(samples
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i + 1) as f64));
        // Four times the cap: every quarter of the stream keeps about a
        // quarter of the slots.
        for seen in RESERVOIR + 1..=4 * RESERVOIR {
            reservoir_push(&mut samples, seen, seen as f64, &mut rng);
        }
        assert_eq!(samples.len(), RESERVOIR);
        let first_quarter = samples.iter().filter(|&&v| v <= RESERVOIR as f64).count();
        let share = first_quarter as f64 / RESERVOIR as f64;
        assert!((share - 0.25).abs() < 0.01, "share {share}");
    }

    #[test]
    fn a_run_reads_as_its_median_slice() {
        let mut rng = Rng::new(1, 2);
        let mut slices = Slices::default();
        // Five seconds of back-to-back 0.25 s operations answering 8
        // matrices each; those of the fourth second take twice as long
        // (a neighbour took the core).
        let mut at = 0.0;
        while at < 5.0 {
            let took = if (3.0..4.0).contains(&at) { 0.5 } else { 0.25 };
            slices.record(at, at + took, 8, &mut rng);
            at += took;
        }
        assert_eq!(slices.count(5.0), 5);
        assert!((slices.p50_ms(5.0) - 250.0).abs() < 1e-9);
        assert!((slices.matrices_per_s(5.0) - 32.0).abs() < 1e-9);
        // The disturbed slice is there, it just is not the median one.
        assert_eq!(slices.list_per_s(5.0).split(' ').nth(3), Some("1.60000e1"));
        // A partial last slice is left out; a run shorter than a slice is one.
        assert_eq!(slices.count(4.5), 4);
        assert_eq!(slices.count(0.3), 1);
    }

    #[test]
    fn work_is_credited_to_the_slices_it_ran_in() {
        let mut rng = Rng::new(1, 2);
        let mut slices = Slices::default();
        // 8 matrices over 0.75..1.25 s: half to each slice; the latency
        // sample goes where the operation completed.
        slices.record(0.75, 1.25, 8, &mut rng);
        assert_eq!(slices.list_per_s(2.0), "4.00000e0 4.00000e0");
        assert_eq!(slices.list_p50_ms(2.0), "0.00000e0 5.00000e2");
        let mut other = Slices::default();
        other.record(0.0, 0.5, 2, &mut rng);
        slices.merge(other);
        assert_eq!(slices.list_per_s(2.0), "6.00000e0 4.00000e0");
        assert_eq!(slices.list_p50_ms(2.0), "5.00000e2 5.00000e2");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
