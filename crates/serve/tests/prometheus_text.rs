//! The Prometheus text a live daemon renders, checked against the
//! exposition format — in particular that peer-supplied ids stay inside
//! their label quotes.

mod common;

use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeDaemon, SubmitRequest};
use teal_topology::b4;
use teal_traffic::TrafficMatrix;

/// A tenant id is whatever bytes the peer put in its REQUEST. One that
/// closes its own quotes and appends a forged sample must come out as an
/// escaped label value, not as a second `teal_serve_shed_total` series.
#[test]
fn hostile_tenant_id_cannot_forge_a_sample() {
    const HOSTILE: &str = "a\"} 1\nteal_serve_shed_total 999";
    let env = Arc::new(Env::for_topology(b4()));
    let model = TealModel::new(
        Arc::clone(&env),
        TealConfig {
            gnn_layers: 2,
            ..TealConfig::default()
        },
    );
    let registry = ModelRegistry::new();
    registry.insert(
        "b4",
        ServingContext::new(model, EngineConfig::paper_default(12)),
    );
    let daemon = ServeDaemon::with_defaults(registry);
    let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
    daemon
        .submit(SubmitRequest::new("b4", tm).with_tenant(HOSTILE))
        .wait()
        .expect("served");

    let stats = daemon.stats();
    assert_eq!(stats.tenants.len(), 1);
    assert_eq!(
        stats.tenants[0].tenant, HOSTILE,
        "the snapshot keeps the id verbatim"
    );
    let text = stats.to_prometheus();
    common::prom_well_formed(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let shed_samples: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("teal_serve_shed_total"))
        .collect();
    assert_eq!(
        shed_samples,
        ["teal_serve_shed_total 0"],
        "forged series in:\n{text}"
    );
}
