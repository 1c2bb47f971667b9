//! `--compare A.json B.json`: judge results file B against A, one row per
//! end-to-end metric x workload with the bounds of `spec::END_TO_END`
//! (`BENCHMARK.json` is that table rendered; a unit test keeps them equal),
//! and one row per workload for failed operations, whose bound is zero.
//! The demoted timings ([`DEMOTED`]) get a row too, from the traced runs
//! and marked `reported`: they show a regression, they gate nothing.

use crate::json::{self, Value};
use crate::spec::{self, Better, Metric, Pattern, Workload};
use crate::stats;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's run-to-run spread is wider than the bound: the runs
    /// cannot tell, which is not the same as "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much a metric may worsen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of A's median.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

impl Bound {
    /// The bound `--compare` applies to `m`: the absolute one where the
    /// table has one.
    fn of(m: &Metric) -> Bound {
        match (m.absolute_bound, m.bound) {
            (Some(absolute), _) => Bound::Absolute(absolute),
            (None, Some(relative)) => Bound::Relative(relative),
            (None, None) => unreachable!("{} is not an end-to-end metric", m.name),
        }
    }
}

/// By how much B's median is worse than A's (negative = better) and the
/// wider of the two sides' interquartile spreads, both in the terms of
/// `bound`: shares of the side's own median, or the metric's unit.
fn worse_and_spread(a: &[f64], b: &[f64], better: Better, bound: Bound) -> (f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let delta = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    match bound {
        Bound::Absolute(_) => (delta, stats::iqr(a).max(stats::iqr(b))),
        Bound::Relative(_) => {
            let worse = if ma != 0.0 {
                delta / ma.abs()
            } else if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            (worse, stats::spread(a).max(stats::spread(b)))
        }
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (worse, spread) = worse_and_spread(a, b, better, bound);
    let (Bound::Relative(limit) | Bound::Absolute(limit)) = bound;
    if spread > limit {
        Verdict::Unresolved
    } else if worse > limit {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The issue's end-to-end timings. None repeated within a tenth over ten
/// seeds on the authoring box at the longest run the driver's time allows
/// (`README.md`, "Steadiness"), so by the issue's rule they are per-layer
/// metrics: a traced run reports them, measured with tracing off, and the
/// driver gates none. Each is printed against the bound the issue gave it.
const DEMOTED: [(&str, Bound); 4] = [
    ("loadgen.op_p50_ms", Bound::Relative(spec::TENTH)),
    ("loadgen.ops_per_s", Bound::Relative(spec::TENTH)),
    ("loadgen.op_tail_ms", Bound::Relative(spec::TENTH)),
    ("loadgen.deadline_met_share", Bound::Absolute(0.01)),
];

/// Whether a demoted metric says something on `w`: the open loop's
/// throughput is its arrival rate by construction, and only the open loop
/// has deadlines.
fn demoted_on(metric: &str, w: &Workload) -> bool {
    match metric {
        "loadgen.ops_per_s" => w.pattern != Pattern::OpenLoop,
        "loadgen.deadline_met_share" => w.pattern == Pattern::OpenLoop,
        _ => true,
    }
}

/// Failed operations have a bound of zero: B regresses when any of its runs
/// was incorrect or its failed share exceeds A's.
pub fn failed_verdict(a: &Failures, b: &Failures) -> Verdict {
    if b.incorrect_runs > 0 || b.share() > a.share() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Operation counts over every run (traced or not) of one workload.
#[derive(Debug, Default, PartialEq)]
pub struct Failures {
    pub attempted: f64,
    pub failed: f64,
    pub incorrect_runs: usize,
}

impl Failures {
    fn share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The result lines of `workload`'s runs in a results file, each with
/// whether it was a traced run.
fn results<'a>(file: &'a Value, workload: &str) -> Vec<(bool, &'a Value)> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            let traced = run.get("trace") == Some(&Value::Bool(true));
            Some((traced, run.get("result")?))
        })
        .collect()
}

/// Values of `metric` over the untraced (or the traced) runs of
/// `workload`. A run without a number there (a metric that came out NaN is
/// written `null`) is an error: a file must not be judged on its surviving
/// runs only.
fn values(file: &Value, workload: &str, metric: &str, traced: bool) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = results(file, workload)
        .into_iter()
        .filter(|(t, _)| *t == traced)
        .map(|(_, result)| {
            result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload} {metric}: a run has no value"))
        })
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        let kind = if traced { "traced" } else { "untraced" };
        return Err(format!("{workload} {metric}: no {kind} run"));
    }
    Ok(values)
}

fn failures(file: &Value, workload: &str) -> Result<Failures, String> {
    let mut total = Failures::default();
    for (_, result) in results(file, workload) {
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}: a run has no {key:?}"))
        };
        total.attempted += count("attempted")?;
        total.failed += count("failed")?;
        total.incorrect_runs += usize::from(result.get("correct") != Some(&Value::Bool(true)));
    }
    if total.attempted == 0.0 {
        return Err(format!("{workload}: no run"));
    }
    Ok(total)
}

/// One printed row: medians, how much worse B is, the bound, the verdict.
fn row(
    workload: &str,
    metric: &str,
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: Bound,
) -> Verdict {
    let (worse, _) = worse_and_spread(a, b, better, bound);
    let (worse, limit) = match bound {
        Bound::Relative(limit) => (
            format!("{:.2}%", 100.0 * worse),
            format!("{}%", 100.0 * limit),
        ),
        Bound::Absolute(limit) => (format!("{worse:.4}"), format!("{limit}")),
    };
    print!(
        "{workload:<26} {metric:<28} {:>14.6} {:>14.6} {worse:>11} {limit:>9}  ",
        stats::median(a),
        stats::median(b),
    );
    verdict(a, b, better, bound)
}

/// Print the comparison; `Ok(true)` when every judged row is `ok`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut all_ok = true;
    println!(
        "{:<26} {:<28} {:>14} {:>14} {:>11} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (va, vb) = (
                values(&a, w.name, m.name, false)?,
                values(&b, w.name, m.name, false)?,
            );
            let v = row(w.name, m.name, &va, &vb, m.better, Bound::of(m));
            all_ok &= v == Verdict::Ok;
            println!("{}", v.as_str());
        }
        let (fa, fb) = (failures(&a, w.name)?, failures(&b, w.name)?);
        let v = failed_verdict(&fa, &fb);
        all_ok &= v == Verdict::Ok;
        println!(
            "{:<26} {:<28} {:>14} {:>14} {:>11} {:>9}  {}",
            w.name,
            "failed/attempted",
            format!("{}/{}", fa.failed, fa.attempted),
            format!("{}/{}", fb.failed, fb.attempted),
            format!("{} runs", fb.incorrect_runs),
            "0",
            v.as_str()
        );
        for (name, bound) in DEMOTED.into_iter().filter(|(name, _)| demoted_on(name, w)) {
            let m = spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .expect("a demoted metric is a per-layer metric");
            // A file without traced runs is judged on the rest.
            let (Ok(va), Ok(vb)) = (
                values(&a, w.name, name, true),
                values(&b, w.name, name, true),
            ) else {
                continue;
            };
            let v = row(w.name, name, &va, &vb, m.better, bound);
            println!("reported: {}", v.as_str());
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tenth = Bound::Relative(0.10);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        // Lower is better: +12% is a regression at a 10% bound, -20% is fine.
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, tenth),
            Verdict::Regressed
        );
        assert_eq!(verdict(&steady, &faster, Better::Lower, tenth), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, Bound::Relative(0.15)),
            Verdict::Ok
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(&steady, &faster, Better::Higher, tenth),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Higher, tenth),
            Verdict::Ok
        );
        // A side that does not repeat within the bound decides nothing.
        let noisy = [80.0, 120.0, 100.0, 90.0, 115.0];
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, tenth),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &slower, Better::Lower, tenth),
            Verdict::Unresolved
        );
        // Single runs have no spread: only the medians speak.
        assert_eq!(
            verdict(&[100.0], &[109.0], Better::Lower, tenth),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[111.0], Better::Lower, tenth),
            Verdict::Regressed
        );
    }

    #[test]
    fn an_absolute_bound_is_in_the_metrics_own_unit() {
        // 0.01 points of satisfied demand at a 30% baseline: a relative 1%
        // would have let 0.3 points through.
        let hundredth = Bound::Absolute(0.01);
        assert_eq!(
            verdict(&[30.0, 30.0], &[29.995, 29.995], Better::Higher, hundredth),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[30.0, 30.0], &[29.98, 29.98], Better::Higher, hundredth),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[30.0, 30.0], &[30.2, 30.2], Better::Higher, hundredth),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[30.0, 30.05, 29.95], &[30.0; 3], Better::Higher, hundredth),
            Verdict::Unresolved
        );
    }

    fn file(runs: &str) -> Value {
        json::parse(&format!(r#"{{"workloads": {{"w": [{runs}]}}}}"#)).unwrap()
    }

    #[test]
    fn reads_untraced_runs_only_and_refuses_a_missing_value() {
        let f = file(
            r#"{"trace": false, "result": {"metrics": {"m": {"value": 1.5, "unit": "ms"}}}},
               {"trace": true, "result": {"metrics": {"m": {"value": 9.0, "unit": "ms"}}}},
               {"trace": false, "result": {"metrics": {"m": {"value": 2.5, "unit": "ms"}}}}"#,
        );
        assert_eq!(values(&f, "w", "m", false), Ok(vec![1.5, 2.5]));
        assert_eq!(values(&f, "w", "m", true), Ok(vec![9.0]));
        assert!(values(&f, "w", "other", false).is_err());
        assert!(values(&f, "missing", "m", false).is_err());
        // NaN is written as null: the run is not dropped, the file is refused.
        let f = file(
            r#"{"trace": false, "result": {"metrics": {"m": {"value": 1.5, "unit": "ms"}}}},
               {"trace": false, "result": {"metrics": {"m": {"value": null, "unit": "ms"}}}}"#,
        );
        assert!(values(&f, "w", "m", false).is_err());
    }

    #[test]
    fn demoted_metrics_are_per_layer_metrics_of_their_own_workloads() {
        for (name, _) in DEMOTED {
            assert!(spec::PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        let open = spec::workload("b4swan_socket_open_mixed").unwrap();
        let closed = spec::workload("b4swan_socket_closed").unwrap();
        assert!(demoted_on("loadgen.deadline_met_share", open));
        assert!(!demoted_on("loadgen.deadline_met_share", closed));
        assert!(!demoted_on("loadgen.ops_per_s", open));
        assert!(demoted_on("loadgen.ops_per_s", closed));
        assert!(demoted_on("loadgen.op_tail_ms", open));
    }

    #[test]
    fn failed_operations_have_a_bound_of_zero() {
        let run = |correct: bool, failed: u32| {
            format!(
                r#"{{"trace": false, "result": {{"correct": {correct}, "attempted": 1000, "failed": {failed}, "metrics": {{}}}}}}"#
            )
        };
        let clean = failures(&file(&[run(true, 0), run(true, 0)].join(",")), "w").unwrap();
        assert_eq!(
            clean,
            Failures {
                attempted: 2000.0,
                failed: 0.0,
                incorrect_runs: 0
            }
        );
        assert_eq!(failed_verdict(&clean, &clean), Verdict::Ok);
        // One failed operation in B, or one incorrect run, regresses.
        let one_failed = failures(&file(&[run(true, 0), run(true, 1)].join(",")), "w").unwrap();
        assert_eq!(failed_verdict(&clean, &one_failed), Verdict::Regressed);
        let incorrect = failures(&file(&[run(true, 0), run(false, 0)].join(",")), "w").unwrap();
        assert_eq!(failed_verdict(&clean, &incorrect), Verdict::Regressed);
        // No worse than a parent that already failed as often.
        assert_eq!(failed_verdict(&one_failed, &one_failed), Verdict::Ok);
        assert!(failures(&file(""), "w").is_err());
    }
}
