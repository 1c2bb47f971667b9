//! Shared experiment testbeds: topology + paths + calibrated traffic +
//! (optionally) a trained Teal model.
//!
//! The paper's full-scale experiments (1,739-node ASN, full-mesh demands,
//! a week of GPU training) exceed a CPU session, so every testbed is
//! parameterized by a topology `scale` and a demand cap. The defaults below
//! are chosen so the complete harness runs on a laptop-class machine while
//! preserving each topology's structural identity; every experiment
//! prints the spec it ran under next to its results.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use teal_core::{train_coma, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::{SplitSpec, TrafficConfig, TrafficMatrix, TrafficModel};

/// Testbed construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TestbedSpec {
    /// Which evaluation network.
    pub kind: TopoKind,
    /// Topology scale in (0, 1].
    pub scale: f64,
    /// Maximum number of demand pairs (sampled seeded if the full mesh is
    /// larger). The paper uses the full mesh; this is our CPU-budget knob.
    pub max_demands: usize,
    /// Shrink factor for the 700/100/200 train/val/test split.
    pub split_shrink: f64,
    /// Master seed.
    pub seed: u64,
}

impl TestbedSpec {
    /// CPU-affordable defaults per topology (the stand-ins for the paper's
    /// full-scale testbeds). B4 runs at full scale.
    pub fn default_for(kind: TopoKind) -> Self {
        let (scale, max_demands) = match kind {
            TopoKind::B4 => (1.0, usize::MAX),
            TopoKind::Swan => (0.6, 2400),
            TopoKind::UsCarrier => (0.45, 2400),
            TopoKind::Kdl => (0.11, 2400),
            TopoKind::Asn => (0.10, 3000),
        };
        TestbedSpec {
            kind,
            scale,
            max_demands,
            split_shrink: 0.04,
            seed: 42,
        }
    }

    /// A smaller variant for quick smoke runs.
    pub fn fast_for(kind: TopoKind) -> Self {
        let base = Self::default_for(kind);
        TestbedSpec {
            scale: (base.scale * 0.6).min(1.0),
            max_demands: base.max_demands.min(600),
            split_shrink: 0.02,
            ..base
        }
    }
}

/// A ready-to-run experiment environment.
pub struct Testbed {
    /// Construction parameters.
    pub spec: TestbedSpec,
    /// Environment (topology + paths + incidence).
    pub env: Arc<Env>,
    /// The calibrated traffic generator.
    pub traffic: TrafficModel,
    /// Training window.
    pub train: Vec<TrafficMatrix>,
    /// Validation window.
    pub val: Vec<TrafficMatrix>,
    /// Test window.
    pub test: Vec<TrafficMatrix>,
}

impl Testbed {
    /// Build a testbed: generate the topology, sample (or enumerate) demand
    /// pairs, compute 4 shortest paths, calibrate traffic, and generate the
    /// train/val/test windows.
    pub fn build(spec: TestbedSpec) -> Testbed {
        let topo = generate(spec.kind, spec.scale, spec.seed);
        let mut pairs = topo.all_pairs();
        if pairs.len() > spec.max_demands {
            let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed ^ 0xbed_0001);
            pairs.shuffle(&mut rng);
            pairs.truncate(spec.max_demands);
            pairs.sort_unstable();
        }
        let paths = PathSet::compute(&topo, &pairs, 4);
        let mut traffic = TrafficModel::new(&pairs, TrafficConfig::default(), spec.seed);
        traffic.calibrate(&topo, &paths);
        let env = Arc::new(Env::new(topo, paths));
        let (train, val, test) = SplitSpec::paper(spec.split_shrink).generate(&traffic);
        Testbed {
            spec,
            env,
            traffic,
            train,
            val,
            test,
        }
    }

    /// Display name like "ASN(x0.10)".
    pub fn name(&self) -> String {
        if (self.spec.scale - 1.0).abs() < 1e-9 {
            self.spec.kind.name().to_string()
        } else {
            format!("{}(x{:.2})", self.spec.kind.name(), self.spec.scale)
        }
    }
}

/// Training budget for Teal models inside experiments.
#[derive(Clone, Copy, Debug)]
pub struct TrainBudget {
    /// COMA* epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Upper bound on agents receiving counterfactual evaluation per step.
    pub max_agents_per_step: usize,
}

impl Default for TrainBudget {
    fn default() -> Self {
        TrainBudget {
            epochs: 6,
            lr: 3e-3,
            max_agents_per_step: 600,
        }
    }
}

/// Train a Teal model on a testbed and wrap it in a deployment engine with
/// the paper's ADMM setting.
pub fn train_teal_engine(
    bed: &Testbed,
    model_cfg: TealConfig,
    budget: TrainBudget,
) -> ServingContext<TealModel> {
    let mut model = TealModel::new(Arc::clone(&bed.env), model_cfg);
    let nd = bed.env.num_demands().max(1);
    let cfg = ComaConfig {
        epochs: budget.epochs,
        lr: budget.lr,
        agent_fraction: (budget.max_agents_per_step as f64 / nd as f64).min(1.0),
        ..ComaConfig::default()
    };
    let _report = train_coma(&mut model, &bed.train, &bed.val, &cfg);
    let engine_cfg = EngineConfig::paper_default(bed.env.topo().num_nodes());
    ServingContext::new(model, engine_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b4_testbed_builds() {
        let bed = Testbed::build(TestbedSpec {
            split_shrink: 0.01,
            ..TestbedSpec::default_for(TopoKind::B4)
        });
        assert_eq!(bed.env.topo().num_nodes(), 12);
        assert_eq!(bed.env.num_demands(), 132);
        assert_eq!(bed.train.len(), 7);
        assert!(bed.name() == "B4");
    }

    #[test]
    fn demand_cap_enforced() {
        let bed = Testbed::build(TestbedSpec {
            kind: TopoKind::Swan,
            scale: 0.3,
            max_demands: 200,
            split_shrink: 0.01,
            seed: 7,
        });
        assert_eq!(bed.env.num_demands(), 200);
        assert!(bed.name().starts_with("SWAN(x0.30"));
    }

    #[test]
    fn quick_training_runs() {
        let bed = Testbed::build(TestbedSpec {
            kind: TopoKind::B4,
            scale: 1.0,
            max_demands: usize::MAX,
            split_shrink: 0.005,
            seed: 1,
        });
        let engine = train_teal_engine(
            &bed,
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
            TrainBudget {
                epochs: 1,
                lr: 3e-3,
                max_agents_per_step: 50,
            },
        );
        let (alloc, _) = engine.allocate(&bed.test[0]);
        assert!(alloc.demand_feasible(1e-6));
    }
}
