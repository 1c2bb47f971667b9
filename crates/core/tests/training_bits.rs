//! Every trained weight pinned to its bits, for the four COMA\* arms of
//! Figure 14 and for the direct-loss trainer.
//!
//! Each run trains on B4 with calibrated traffic (`TrafficModel` seed 3,
//! `series(0, 8)`: six matrices to train on, two to validate on) for two
//! epochs (COMA\* at the default `ComaConfig`, direct loss at learning rate
//! 1e-2), then hashes the bits of every stored parameter, in registration
//! order, with FNV-1a. A change to a forward pass, a backward rule, the
//! way gradients reach the store, the clip or the optimizer that moves one
//! bit of one weight fails here. Each run also checks that training moved
//! the weights off their initial bits, so a pin cannot be an untrained
//! model's.

use std::sync::Arc;
use teal_core::ablation::{GlobalPolicyModel, NaiveDnnModel, NaiveGnnModel};
use teal_core::{
    train_coma, train_direct, ComaConfig, DirectConfig, Env, PolicyModel, TealConfig, TealModel,
};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

/// FNV-1a over the little-endian bytes of every parameter's `f32` bits.
fn weight_hash(model: &dyn PolicyModel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for t in model.store().snapshot() {
        for byte in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// B4 and its calibrated series, split six to train and two to validate.
fn b4_series() -> (Arc<Env>, Vec<TrafficMatrix>, Vec<TrafficMatrix>) {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let mut traffic = TrafficModel::new(env.paths().pairs(), TrafficConfig::default(), 3);
    traffic.calibrate(env.topo(), env.paths());
    let mut train = traffic.series(0, 8);
    let val = train.split_off(6);
    (env, train, val)
}

/// The Teal configuration every Teal-based run here shares.
fn teal_config() -> TealConfig {
    TealConfig {
        gnn_layers: 4,
        ..TealConfig::default()
    }
}

/// Build a model for B4, train it on the series, and assert that its
/// weights left their initial bits and hash to `want`.
fn assert_trained_bits<M: PolicyModel>(
    build: impl FnOnce(Arc<Env>) -> M,
    train: impl FnOnce(&mut M, &[TrafficMatrix], &[TrafficMatrix]),
    want: u64,
) {
    let (env, train_set, val_set) = b4_series();
    let mut model = build(env);
    let untrained = weight_hash(&model);
    train(&mut model, &train_set, &val_set);
    let (name, got) = (model.name(), weight_hash(&model));
    assert_ne!(
        got, untrained,
        "{name}: training left the weights untrained"
    );
    assert_eq!(got, want, "{name}: trained weights {got:016x}");
}

/// Two COMA\* epochs at the default configuration.
fn coma<M: PolicyModel>(model: &mut M, train: &[TrafficMatrix], val: &[TrafficMatrix]) {
    let cfg = ComaConfig {
        epochs: 2,
        ..ComaConfig::default()
    };
    train_coma(model, train, val, &cfg);
}

#[test]
fn teal_coma_bits() {
    let build = |env| TealModel::new(env, teal_config());
    assert_trained_bits(build, coma, 0x3dea_b040_d5f6_af75);
}

#[test]
fn naive_dnn_coma_bits() {
    let build = |env| NaiveDnnModel::new(env, 32, 3, 3);
    assert_trained_bits(build, coma, 0xbb3f_e7eb_af20_b434);
}

#[test]
fn naive_gnn_coma_bits() {
    let build = |env| NaiveGnnModel::new(env, 16, 2, 3);
    assert_trained_bits(build, coma, 0xeb57_a132_c419_56f3);
}

#[test]
fn global_policy_coma_bits() {
    let build = |env| {
        GlobalPolicyModel::new(env, teal_config(), 16, usize::MAX)
            .expect("the size guard admits B4")
    };
    assert_trained_bits(build, coma, 0xc8d1_6c89_8788_6d83);
}

#[test]
fn teal_direct_loss_bits() {
    let build = |env| TealModel::new(env, teal_config());
    let direct = |model: &mut TealModel, train: &[TrafficMatrix], val: &[TrafficMatrix]| {
        let cfg = DirectConfig {
            epochs: 2,
            lr: 1e-2,
        };
        train_direct(model, train, val, &cfg);
    };
    assert_trained_bits(build, direct, 0xc52b_4c1c_e51b_7c74);
}
