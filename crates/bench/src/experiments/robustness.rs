//! Figure 10 — robustness to temporal and spatial demand changes (§5.4).

use super::{lineup, Harness};
use crate::table::{emit, emit_csv, Table};
use std::sync::Arc;
use teal_sim::run_online;
use teal_topology::TopoKind;
use teal_traffic::{spatial_redistribution, temporal_fluctuation};

/// Figure 10a: temporal fluctuations scaled 1x/2x/5x/10x/20x. The Teal
/// model is *not* retrained — the point is generalization to unseen
/// dynamics.
pub fn fig10a(h: &mut Harness) {
    let kind = TopoKind::Kdl;
    let interval = h.online_interval(kind);
    let factors = [1.0f64, 2.0, 5.0, 10.0, 20.0];
    let mut t = Table::new(
        "Figure 10a: satisfied demand (%) under temporal fluctuation",
        &["scheme", "1x", "2x", "5x", "10x", "20x"],
    );
    let mut rows_csv = Vec::new();
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let base = bed.test.clone();
    for mut s in schemes {
        let mut cells = vec![s.name().to_string()];
        let mut csv = s.name().to_string();
        for (fi, &f) in factors.iter().enumerate() {
            let tms = if f <= 1.0 {
                base.clone()
            } else {
                temporal_fluctuation(&base, f, fi as u64)
            };
            let res = run_online(&env, env.topo(), &tms, s.as_mut(), interval);
            let m = res.mean_satisfied_pct();
            cells.push(format!("{m:.1}"));
            csv.push_str(&format!(",{m:.2}"));
        }
        t.row(cells);
        rows_csv.push(csv);
    }
    emit("fig10a", &t.render());
    emit_csv("fig10a", "scheme,x1,x2,x5,x10,x20", &rows_csv);
}

/// Figure 10b: spatial redistribution — the top decile's share of volume is
/// forced from its natural ~88.4% down to 80/60/40/20%.
pub fn fig10b(h: &mut Harness) {
    let kind = TopoKind::Kdl;
    let interval = h.online_interval(kind);
    let shares = [0.884f64, 0.80, 0.60, 0.40, 0.20];
    let mut t = Table::new(
        "Figure 10b: satisfied demand (%) vs top-decile volume share",
        &["scheme", "88.4%", "80%", "60%", "40%", "20%"],
    );
    let mut rows_csv = Vec::new();
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let base = bed.test.clone();
    for mut s in schemes {
        let mut cells = vec![s.name().to_string()];
        let mut csv = s.name().to_string();
        for &share in &shares {
            let tms = if (share - 0.884).abs() < 1e-9 {
                base.clone()
            } else {
                spatial_redistribution(&base, share)
            };
            let res = run_online(&env, env.topo(), &tms, s.as_mut(), interval);
            let m = res.mean_satisfied_pct();
            cells.push(format!("{m:.1}"));
            csv.push_str(&format!(",{m:.2}"));
        }
        t.row(cells);
        rows_csv.push(csv);
    }
    emit("fig10b", &t.render());
    emit_csv("fig10b", "scheme,s884,s80,s60,s40,s20", &rows_csv);
}
