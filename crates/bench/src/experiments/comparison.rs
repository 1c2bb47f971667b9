//! Figures 6, 7, 13, 18 — the headline Teal-vs-baselines comparisons.

use super::{lineup, offline_means, timed_table, Harness};
use crate::table::{emit, Cell, Table};
use teal_lp::FlowStats;
use teal_sim::{metrics, run_online};
use teal_topology::TopoKind;

/// Figure 6: average computation time and online satisfied demand across
/// topologies.
pub fn fig6(h: &mut Harness) {
    let kinds = [
        TopoKind::Swan,
        TopoKind::UsCarrier,
        TopoKind::Kdl,
        TopoKind::Asn,
    ];
    let mut t = timed_table(
        "Figure 6: computation time (a) and online satisfied demand (b)",
        ("avg satisfied (%)", "satisfied_pct"),
    );
    for kind in kinds {
        let include_lp_all = kind != TopoKind::Asn;
        let interval = h.online_interval(kind);
        let schemes = lineup(h, kind, include_lp_all);
        let bed = h.bed(kind);
        let (env, bed_name) = (&bed.env, bed.name());
        for mut s in schemes {
            let res = run_online(env, env.topo(), &bed.test, s.as_mut(), interval);
            t.row(vec![
                bed_name.as_str().into(),
                s.name().into(),
                Cell::Secs(res.mean_comp_time_s()),
                Cell::Pct(res.mean_satisfied_pct()),
            ]);
        }
    }
    emit("fig6", &t);
}

/// Figure 7: CDFs of computation time and satisfied demand on the ASN
/// testbed.
pub fn fig7(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let interval = h.online_interval(kind);
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let (env, tms) = (&bed.env, &bed.test);
    let mut t = Table::text(
        "Figure 7: per-matrix distributions on ASN (computation time / satisfied %)",
        &[
            "scheme", "time p10", "time p50", "time p90", "sat p10", "sat p50", "sat p90",
        ],
    );
    // The per-matrix series behind the percentiles, for plotting the CDFs.
    let mut series = Table::csv(&["scheme", "comp_time_s", "satisfied_pct"]);
    for mut s in schemes {
        let res = run_online(env, env.topo(), tms, s.as_mut(), interval);
        let times: Vec<f64> = res.comp_times().iter().map(|d| d.as_secs_f64()).collect();
        let sats = res.satisfied_series();
        let mut row = vec![s.name().into()];
        row.extend([0.10, 0.50, 0.90].map(|p| Cell::Secs(metrics::percentile(&times, p))));
        row.extend([0.10, 0.50, 0.90].map(|p| Cell::Pct(metrics::percentile(&sats, p))));
        t.row(row);
        for (&tt, &ss) in times.iter().zip(&sats) {
            series.row(vec![s.name().into(), Cell::Secs(tt), Cell::Pct(ss)]);
        }
    }
    emit("fig7", &t);
    emit("fig7", &series);
}

/// Figure 13: offline satisfied demand (no computation delay) on Kdl & ASN.
pub fn fig13(h: &mut Harness) {
    let mut t = timed_table(
        "Figure 13: offline satisfied demand (%) vs computation time",
        ("offline satisfied (%)", "offline_satisfied_pct"),
    );
    for kind in [TopoKind::Kdl, TopoKind::Asn] {
        let include_lp_all = kind != TopoKind::Asn;
        let schemes = lineup(h, kind, include_lp_all);
        let bed = h.bed(kind);
        let bed_name = bed.name();
        for mut s in schemes {
            let (mean_time, sat) =
                offline_means(&bed.env, &bed.test, s.as_mut(), FlowStats::satisfied_pct);
            t.row(vec![
                bed_name.as_str().into(),
                s.name().into(),
                Cell::Secs(mean_time),
                Cell::Pct(sat),
            ]);
        }
    }
    emit("fig13", &t);
}

/// Figure 18: allocation performance over time (per-interval satisfied
/// demand under the online control loop) on the ASN testbed.
pub fn fig18(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let interval = h.online_interval(kind);
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = &bed.env;
    // Extend the series so slow schemes visibly reuse stale routes; start
    // past the train/val windows so the model has not seen these matrices.
    let test_start = bed.train.len() + bed.val.len();
    let tms = bed.traffic.series(test_start, bed.test.len().max(16));
    let mut names = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for mut s in schemes {
        let res = run_online(env, env.topo(), &tms, s.as_mut(), interval);
        names.push(s.name().to_string());
        series.push(res.satisfied_series());
    }
    let mut columns = vec![("interval", "interval")];
    columns.extend(names.iter().map(|n| (n.as_str(), n.as_str())));
    let mut t = Table::new(
        "Figure 18: satisfied demand (%) per '5-minute' interval on ASN",
        &columns,
    );
    for i in 0..tms.len() {
        let mut row = vec![i.to_string().into()];
        row.extend(series.iter().map(|s| Cell::Pct(s[i])));
        t.row(row);
    }
    emit("fig18", &t);
}
