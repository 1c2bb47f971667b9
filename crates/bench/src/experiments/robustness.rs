//! Figure 10 — robustness to temporal and spatial demand changes (§5.4).

use super::{lineup, scheme_by_condition, Harness};
use std::sync::Arc;
use teal_sim::run_online;
use teal_topology::TopoKind;
use teal_traffic::{spatial_redistribution, temporal_fluctuation, TrafficMatrix};

/// One column of Figure 10: its (text, CSV) header and the perturbed test
/// traffic it serves.
type Perturbed = ((&'static str, &'static str), Vec<TrafficMatrix>);

/// Figure 10's shape on the Kdl testbed: LP-top, NCFlow, POP and Teal
/// served online on each perturbation of the test traffic in turn. The
/// Teal model is *not* retrained — the point is generalization to unseen
/// dynamics.
fn fig10(
    h: &mut Harness,
    id: &str,
    title: &str,
    perturb: impl FnOnce(&[TrafficMatrix]) -> Vec<Perturbed>,
) {
    let kind = TopoKind::Kdl;
    let interval = h.online_interval(kind);
    let schemes = lineup(h, kind, false);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let conditions = perturb(&bed.test);
    scheme_by_condition(id, title, &conditions, schemes, |s, tms| {
        run_online(&env, env.topo(), tms, s, interval).mean_satisfied_pct()
    });
}

/// Figure 10a: temporal fluctuations scaled 1x/2x/5x/10x/20x.
pub fn fig10a(h: &mut Harness) {
    fig10(
        h,
        "fig10a",
        "Figure 10a: satisfied demand (%) under temporal fluctuation",
        |base| {
            let scaled = |factor, seed| temporal_fluctuation(base, factor, seed);
            vec![
                (("1x", "x1"), base.to_vec()),
                (("2x", "x2"), scaled(2.0, 1)),
                (("5x", "x5"), scaled(5.0, 2)),
                (("10x", "x10"), scaled(10.0, 3)),
                (("20x", "x20"), scaled(20.0, 4)),
            ]
        },
    );
}

/// Figure 10b: spatial redistribution — the top decile's share of volume is
/// forced from its natural ~88.4% down to 80/60/40/20%.
pub fn fig10b(h: &mut Harness) {
    fig10(
        h,
        "fig10b",
        "Figure 10b: satisfied demand (%) vs top-decile volume share",
        |base| {
            let shared = |share| spatial_redistribution(base, share);
            vec![
                (("88.4%", "s884"), base.to_vec()),
                (("80%", "s80"), shared(0.80)),
                (("60%", "s60"), shared(0.60)),
                (("40%", "s40"), shared(0.40)),
                (("20%", "s20"), shared(0.20)),
            ]
        },
    );
}
