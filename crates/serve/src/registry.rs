//! Multi-topology model registry with snapshot reads and hot weight swap.
//!
//! One WAN operator runs TE over many topologies (production fabric,
//! regional slices, what-if failure variants); each gets its own trained
//! model and prebuilt [`ServingContext`]. The registry maps a topology id to
//! an `Arc<ServingContext>` and is built from *commutative* operations in
//! the scalable-commutativity sense: `get` is a snapshot read (clone the
//! `Arc`, drop the lock before any compute), `insert`/`swap` atomically
//! replace the pointer, and none of them serialize against in-flight
//! allocations. A request that snapshotted the old context before a swap
//! finishes on the old weights; one that snapshots after gets the new —
//! never a mix.

use crate::sync::{Arc, RwLock};
use std::collections::HashMap;
use teal_core::{PolicyModel, ServingContext};

use crate::ServeError;

/// Topology id → serving context, behind snapshot reads.
pub struct ModelRegistry<M: PolicyModel> {
    inner: RwLock<HashMap<String, Arc<ServingContext<M>>>>,
}

impl<M: PolicyModel> Default for ModelRegistry<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: PolicyModel> ModelRegistry<M> {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            inner: RwLock::new(HashMap::new()),
        }
    }

    /// Register (or replace) the context serving `id`, returning the
    /// previous one if any. In-flight requests holding the old `Arc` are
    /// unaffected.
    pub fn insert(
        &self,
        id: impl Into<String>,
        ctx: ServingContext<M>,
    ) -> Option<Arc<ServingContext<M>>> {
        let mut map = self.inner.write();
        map.insert(id.into(), Arc::new(ctx))
    }

    /// Snapshot read: the current context for `id`. The lock is released
    /// before the caller computes anything, so concurrent `get`s and swaps
    /// commute.
    pub fn get(&self, id: &str) -> Option<Arc<ServingContext<M>>> {
        let map = self.inner.read();
        map.get(id).cloned()
    }

    /// Atomically replace the context of an *existing* topology, returning
    /// the retired one. Errors if `id` was never registered (a swap must
    /// not silently create a topology the dispatcher doesn't expect).
    pub fn swap(
        &self,
        id: &str,
        ctx: ServingContext<M>,
    ) -> Result<Arc<ServingContext<M>>, ServeError> {
        let mut map = self.inner.write();
        match map.get_mut(id) {
            Some(slot) => Ok(std::mem::replace(slot, Arc::new(ctx))),
            None => Err(ServeError::UnknownTopology(id.to_string())),
        }
    }

    /// Hot model-weight swap: load checkpoint text into a clone of the
    /// current model (reusing the prebuilt ADMM skeleton) and atomically
    /// publish the result. The expensive part — parsing and context
    /// construction — happens *outside* the write lock; only the pointer
    /// replacement is serialized.
    pub fn swap_checkpoint_str(&self, id: &str, data: &str) -> Result<(), ServeError>
    where
        M: Clone,
    {
        let current = self
            .get(id)
            .ok_or_else(|| ServeError::UnknownTopology(id.to_string()))?;
        let next = current
            .with_checkpoint_str(data)
            .map_err(|e| ServeError::Checkpoint(e.to_string()))?;
        self.swap(id, next)?;
        Ok(())
    }

    /// Registered topology ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        let map = self.inner.read();
        let mut ids: Vec<String> = map.keys().cloned().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use teal_core::{EngineConfig, Env, TealConfig, TealModel};
    use teal_topology::b4;
    use teal_traffic::TrafficMatrix;

    fn ctx(seed: u64) -> ServingContext<TealModel> {
        let env = StdArc::new(Env::for_topology(b4()));
        let model = TealModel::new(
            StdArc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                seed,
                ..TealConfig::default()
            },
        );
        ServingContext::new(model, EngineConfig::paper_default(12))
    }

    #[test]
    fn insert_get_swap_roundtrip() {
        let reg: ModelRegistry<TealModel> = ModelRegistry::new();
        assert!(reg.ids().is_empty());
        assert!(reg.get("b4").is_none());
        reg.insert("b4", ctx(0));
        assert_eq!(reg.ids(), vec!["b4".to_string()]);
        let before = reg.get("b4").expect("registered");
        let old = reg.swap("b4", ctx(7)).expect("swap");
        assert!(
            StdArc::ptr_eq(&before, &old),
            "swap must return the retired context"
        );
        let after = reg.get("b4").expect("still registered");
        assert!(!StdArc::ptr_eq(&before, &after));
    }

    #[test]
    fn swap_unknown_topology_errors() {
        let reg: ModelRegistry<TealModel> = ModelRegistry::new();
        assert!(matches!(
            reg.swap("nope", ctx(0)),
            Err(ServeError::UnknownTopology(_))
        ));
        assert!(matches!(
            reg.swap_checkpoint_str("nope", ""),
            Err(ServeError::UnknownTopology(_))
        ));
    }

    #[test]
    fn swap_checkpoint_publishes_new_weights() {
        let reg: ModelRegistry<TealModel> = ModelRegistry::new();
        reg.insert("b4", ctx(0));
        let env = reg.get("b4").unwrap().env().clone();
        let tm = TrafficMatrix::new(vec![15.0; env.num_demands()]);
        let (before, _) = reg.get("b4").unwrap().allocate(&tm);

        let donor = ctx(42);
        let ckpt = teal_nn::checkpoint::to_string(donor.model().store());
        reg.swap_checkpoint_str("b4", &ckpt).expect("hot swap");
        let (after, _) = reg.get("b4").unwrap().allocate(&tm);
        let (want, _) = donor.allocate(&tm);
        assert_eq!(after, want, "registry must serve the donor weights");
        assert_ne!(before, after);
    }
}
