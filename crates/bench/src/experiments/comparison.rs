//! Figures 6, 7, 13, 18 — the headline Teal-vs-baselines comparisons.

use super::{lineup, offline_means, Harness};
use crate::table::{emit, emit_csv, Table};
use std::sync::Arc;
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
    let mut t = Table::new(
        "Figure 6: computation time (a) and online satisfied demand (b)",
        &["topology", "scheme", "avg comp time", "avg satisfied (%)"],
    );
    let mut rows_csv = Vec::new();
    for kind in kinds {
        let include_lp_all = kind != TopoKind::Asn;
        let interval = h.online_interval(kind);
        let schemes = lineup(h, kind, include_lp_all);
        let bed = h.bed(kind);
        let env = Arc::clone(&bed.env);
        let tms = bed.test.clone();
        let bed_name = bed.name();
        for mut s in schemes {
            let res = run_online(&env, env.topo(), &tms, s.as_mut(), interval);
            let ct = res.mean_comp_time_s();
            let sat = res.mean_satisfied_pct();
            t.row(vec![
                bed_name.clone(),
                s.name().to_string(),
                metrics::fmt_secs(ct),
                format!("{sat:.1}"),
            ]);
            rows_csv.push(format!("{},{},{:.6},{:.2}", bed_name, s.name(), ct, sat));
        }
    }
    emit("fig6", &t.render());
    emit_csv(
        "fig6",
        "topology,scheme,comp_time_s,satisfied_pct",
        &rows_csv,
    );
}

/// Figure 7: CDFs of computation time and satisfied demand on the ASN
/// testbed.
pub fn fig7(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let interval = h.online_interval(kind);
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let tms = bed.test.clone();
    let mut t = Table::new(
        "Figure 7: per-matrix distributions on ASN (computation time / satisfied %)",
        &[
            "scheme", "time p10", "time p50", "time p90", "sat p10", "sat p50", "sat p90",
        ],
    );
    let mut rows_csv = Vec::new();
    for mut s in schemes {
        let res = run_online(&env, env.topo(), &tms, s.as_mut(), interval);
        let times: Vec<f64> = res.comp_times().iter().map(|d| d.as_secs_f64()).collect();
        let sats = res.satisfied_series();
        t.row(vec![
            s.name().to_string(),
            metrics::fmt_secs(metrics::percentile(&times, 0.10)),
            metrics::fmt_secs(metrics::percentile(&times, 0.50)),
            metrics::fmt_secs(metrics::percentile(&times, 0.90)),
            format!("{:.1}", metrics::percentile(&sats, 0.10)),
            format!("{:.1}", metrics::percentile(&sats, 0.50)),
            format!("{:.1}", metrics::percentile(&sats, 0.90)),
        ]);
        for (tt, ss) in times.iter().zip(&sats) {
            rows_csv.push(format!("{},{:.6},{:.2}", s.name(), tt, ss));
        }
    }
    emit("fig7", &t.render());
    emit_csv("fig7", "scheme,comp_time_s,satisfied_pct", &rows_csv);
}

/// Figure 13: offline satisfied demand (no computation delay) on Kdl & ASN.
pub fn fig13(h: &mut Harness) {
    let mut t = Table::new(
        "Figure 13: offline satisfied demand (%) vs computation time",
        &[
            "topology",
            "scheme",
            "avg comp time",
            "offline satisfied (%)",
        ],
    );
    let mut rows_csv = Vec::new();
    for kind in [TopoKind::Kdl, TopoKind::Asn] {
        let include_lp_all = kind != TopoKind::Asn;
        let schemes = lineup(h, kind, include_lp_all);
        let bed = h.bed(kind);
        let env = Arc::clone(&bed.env);
        let tms = bed.test.clone();
        let bed_name = bed.name();
        for mut s in schemes {
            let (mean_time, sat) = offline_means(&env, &tms, s.as_mut(), FlowStats::satisfied_pct);
            t.row(vec![
                bed_name.clone(),
                s.name().to_string(),
                metrics::fmt_secs(mean_time),
                format!("{sat:.1}"),
            ]);
            rows_csv.push(format!(
                "{},{},{:.6},{:.2}",
                bed_name,
                s.name(),
                mean_time,
                sat
            ));
        }
    }
    emit("fig13", &t.render());
    emit_csv(
        "fig13",
        "topology,scheme,comp_time_s,offline_satisfied_pct",
        &rows_csv,
    );
}

/// Figure 18: allocation performance over time (per-interval satisfied
/// demand under the online control loop) on the ASN testbed.
pub fn fig18(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let interval = h.online_interval(kind);
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    // Extend the series so slow schemes visibly reuse stale routes; start
    // past the train/val windows so the model has not seen these matrices.
    let test_start = bed.train.len() + bed.val.len();
    let tms = bed.traffic.series(test_start, bed.test.len().max(16));
    let mut names = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for mut s in schemes {
        let res = run_online(&env, env.topo(), &tms, s.as_mut(), interval);
        names.push(s.name().to_string());
        series.push(res.satisfied_series());
    }
    let mut header: Vec<&str> = vec!["interval"];
    for n in &names {
        header.push(n);
    }
    let mut t = Table::new(
        "Figure 18: satisfied demand (%) per '5-minute' interval on ASN",
        &header,
    );
    let mut rows_csv = Vec::new();
    for i in 0..tms.len() {
        let mut row = vec![i.to_string()];
        let mut csv = i.to_string();
        for s in &series {
            row.push(format!("{:.1}", s[i]));
            csv.push_str(&format!(",{:.2}", s[i]));
        }
        t.row(row);
        rows_csv.push(csv);
    }
    emit("fig18", &t.render());
    emit_csv("fig18", &format!("interval,{}", names.join(",")), &rows_csv);
}
