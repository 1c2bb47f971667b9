//! The per-topology environment Teal trains and runs against.
//!
//! An [`Env`] bundles everything that is fixed across traffic matrices: the
//! topology, the precomputed candidate paths, the path-edge incidence (as a
//! CSR pair for FlowGNN's message passing), and normalization constants.
//! Per-traffic-matrix inputs are produced by [`Env::model_input`].

use std::sync::Arc;
use teal_lp::TeInstance;
use teal_nn::{Csr, CsrPair, Tensor};
use teal_topology::{PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// Fixed per-topology state shared by the model, trainer, and engine.
#[derive(Clone)]
pub struct Env {
    topo: Topology,
    paths: PathSet,
    /// Path-edge incidence `A` (`num_paths x num_edges`) with its transpose.
    incidence: CsrPair,
    /// Mean link capacity, used to normalize capacities and volumes.
    mean_cap: f64,
}

impl Env {
    /// Build the environment (computes the incidence structure once).
    pub fn new(topo: Topology, paths: PathSet) -> Self {
        let incidence = incidence_of(&paths);
        let mean_cap = topo.total_capacity() / topo.num_edges().max(1) as f64;
        Env {
            topo,
            paths,
            incidence,
            mean_cap: mean_cap.max(1e-12),
        }
    }

    /// Convenience: compute 4 shortest paths for every ordered pair.
    pub fn for_topology(topo: Topology) -> Self {
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        Env::new(topo, paths)
    }

    /// The WAN graph.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The candidate paths.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// The path-edge incidence CSR pair.
    pub fn incidence(&self) -> &CsrPair {
        &self.incidence
    }

    /// Mean link capacity (normalization constant).
    pub fn mean_cap(&self) -> f64 {
        self.mean_cap
    }

    /// Demands per matrix.
    pub fn num_demands(&self) -> usize {
        self.paths.num_demands()
    }

    /// Candidate paths per demand.
    pub fn k(&self) -> usize {
        self.paths.k()
    }

    /// Borrow an LP instance for a traffic matrix on the env's own topology.
    pub fn instance<'a>(&'a self, tm: &'a TrafficMatrix) -> TeInstance<'a> {
        TeInstance::new(&self.topo, &self.paths, tm)
    }

    /// LP instance against an alternative topology (e.g. with failed links);
    /// the path set stays the one precomputed on the original topology,
    /// matching the paper's failure model.
    pub fn instance_on<'a>(&'a self, topo: &'a Topology, tm: &'a TrafficMatrix) -> TeInstance<'a> {
        TeInstance::new(topo, &self.paths, tm)
    }

    /// Per-traffic-matrix model inputs: normalized PathNode and EdgeNode
    /// initializations (§3.2 — PathNodes start from the demand volume, and
    /// EdgeNodes from the link capacity). An optional topology override
    /// injects failed-link capacities without retraining. Equivalent to
    /// [`Env::batch_input`] with a single matrix.
    pub fn model_input(&self, tm: &TrafficMatrix, topo_override: Option<&Topology>) -> ModelInput {
        self.batch_input(std::slice::from_ref(tm), topo_override)
    }

    /// Batched model inputs: one forward pass consumes a whole minibatch of
    /// traffic matrices. Per-matrix blocks are stacked vertically (batch ⊗
    /// rows), so `path_init` is `[batch * num_paths, 1]` and `edge_init` is
    /// `[batch * num_edges, 1]`; the edge block is replicated per matrix
    /// (capacities are shared across the batch).
    pub fn batch_input(
        &self,
        tms: &[TrafficMatrix],
        topo_override: Option<&Topology>,
    ) -> ModelInput {
        assert!(
            !tms.is_empty(),
            "batch_input requires at least one traffic matrix"
        );
        let topo = topo_override.unwrap_or(&self.topo);
        assert_eq!(
            topo.num_edges(),
            self.topo.num_edges(),
            "override edge count mismatch"
        );
        let batch = tms.len();
        let k = self.k();
        let inv = 1.0 / self.mean_cap;
        let mut path_init = Vec::with_capacity(batch * self.paths.num_paths());
        for tm in tms {
            assert_eq!(
                tm.len(),
                self.num_demands(),
                "traffic matrix arity mismatch"
            );
            for d in 0..self.num_demands() {
                let v = (tm.demand(d) * inv) as f32;
                for _ in 0..k {
                    path_init.push(v);
                }
            }
        }
        let edge_block: Vec<f32> = topo
            .edges()
            .iter()
            .map(|e| (e.capacity * inv) as f32)
            .collect();
        let mut edge_init = Vec::with_capacity(batch * edge_block.len());
        for _ in 0..batch {
            edge_init.extend_from_slice(&edge_block);
        }
        ModelInput {
            path_init: Tensor::from_vec(path_init.len(), 1, path_init),
            edge_init: Tensor::from_vec(edge_init.len(), 1, edge_init),
            batch,
        }
    }
}

/// The path-edge incidence `A` (`num_paths x num_edges`, `A[p][e] = 1` iff
/// edge `e` lies on path `p`) and its transpose, written straight from the
/// two orders the [`PathSet`] already holds: a path's edge list, sorted, is a
/// row of `A` (a simple path crosses no edge twice), and
/// [`PathSet::paths_on_edge`], ascending as it is, is a row of `Aᵀ`. The
/// arrays equal `CsrPair::from_triplets(paths.incidence_triplets())`'s entry
/// for entry — the column order fixes the f32 summation order of every SpMM.
fn incidence_of(paths: &PathSet) -> CsrPair {
    let (num_paths, num_edges) = (paths.num_paths(), paths.num_edges());
    let mut row_ptr = Vec::with_capacity(num_paths + 1);
    let mut col_idx: Vec<u32> = Vec::new();
    row_ptr.push(0);
    for path in paths.paths() {
        let lo = col_idx.len();
        col_idx.extend(path.edges.iter().map(|&e| e as u32));
        col_idx[lo..].sort_unstable();
        row_ptr.push(col_idx.len());
    }
    let nnz = col_idx.len();
    let fwd = Csr::from_sorted_rows(num_paths, num_edges, row_ptr, col_idx, vec![1.0; nnz]);

    let mut row_ptr = Vec::with_capacity(num_edges + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    row_ptr.push(0);
    for e in 0..num_edges {
        col_idx.extend_from_slice(paths.paths_on_edge(e));
        row_ptr.push(col_idx.len());
    }
    let bwd = Csr::from_sorted_rows(num_edges, num_paths, row_ptr, col_idx, vec![1.0; nnz]);
    CsrPair {
        fwd: Arc::new(fwd),
        bwd: Arc::new(bwd),
    }
}

/// Model-input tensors for a minibatch of traffic matrices. Per-matrix
/// blocks are stacked vertically; `batch == 1` reproduces the original
/// single-matrix layout exactly.
#[derive(Clone, Debug)]
pub struct ModelInput {
    /// `[batch * num_paths, 1]` — demand volume of the path's demand
    /// (normalized), one block per traffic matrix.
    pub path_init: Tensor,
    /// `[batch * num_edges, 1]` — link capacity (normalized), replicated
    /// per traffic matrix.
    pub edge_init: Tensor,
    /// Number of traffic matrices stacked in this input.
    pub batch: usize,
}

impl ModelInput {
    /// Extract the single-matrix input of batch element `b`.
    pub fn element(&self, b: usize) -> ModelInput {
        assert!(
            b < self.batch,
            "batch element {b} out of range {}",
            self.batch
        );
        let p = self.path_init.rows() / self.batch;
        let e = self.edge_init.rows() / self.batch;
        ModelInput {
            path_init: Tensor::from_vec(p, 1, self.path_init.data()[b * p..(b + 1) * p].to_vec()),
            edge_init: Tensor::from_vec(e, 1, self.edge_init.data()[b * e..(b + 1) * e].to_vec()),
            batch: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::{b4, generate, gravity_pairs, large_wan, TopoKind};

    #[test]
    fn env_shapes_consistent() {
        let env = Env::for_topology(b4());
        assert_eq!(env.num_demands(), 132);
        assert_eq!(env.k(), 4);
        assert_eq!(env.incidence().fwd.rows(), env.paths().num_paths());
        assert_eq!(env.incidence().fwd.cols(), env.topo().num_edges());
    }

    #[test]
    fn incidence_equals_the_triplet_build() {
        // A three-node line has one simple path per pair, so `k = 4` pads
        // every demand cyclically: four path ids over the same edges.
        let mut line = Topology::new("line", 3);
        line.add_link(0, 1, 1.0, 1.0);
        line.add_link(1, 2, 1.0, 1.0);
        let wan = large_wan(256, 7);
        let wan_pairs = gravity_pairs(&wan, 512, 6);
        let swan = generate(TopoKind::Swan, 0.3, 7);
        for (topo, pairs) in [
            (b4(), b4().all_pairs()),
            (swan.clone(), swan.all_pairs()),
            (wan, wan_pairs),
            (line, vec![(0, 2), (2, 0)]),
        ] {
            let paths = PathSet::compute(&topo, &pairs, 4);
            let want = CsrPair::from_triplets(
                paths.num_paths(),
                topo.num_edges(),
                &paths.incidence_triplets(),
            );
            let got = incidence_of(&paths);
            assert_eq!(*got.fwd, *want.fwd, "{}: A", topo.name());
            assert_eq!(*got.bwd, *want.bwd, "{}: A^T", topo.name());
        }
    }

    #[test]
    fn model_input_shapes_and_normalization() {
        let env = Env::for_topology(b4());
        let tm = TrafficMatrix::new(vec![env.mean_cap(); env.num_demands()]);
        let input = env.model_input(&tm, None);
        assert_eq!(input.path_init.shape(), (env.paths().num_paths(), 1));
        assert_eq!(input.edge_init.shape(), (env.topo().num_edges(), 1));
        // A demand equal to the mean capacity normalizes to 1.
        assert!((input.path_init.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn batch_input_stacks_per_matrix_blocks() {
        let env = Env::for_topology(b4());
        let tm_a = TrafficMatrix::new(vec![env.mean_cap(); env.num_demands()]);
        let tm_b = TrafficMatrix::new(vec![2.0 * env.mean_cap(); env.num_demands()]);
        let batched = env.batch_input(&[tm_a.clone(), tm_b.clone()], None);
        assert_eq!(batched.batch, 2);
        let p = env.paths().num_paths();
        let e = env.topo().num_edges();
        assert_eq!(batched.path_init.shape(), (2 * p, 1));
        assert_eq!(batched.edge_init.shape(), (2 * e, 1));
        // Each block matches the single-matrix input exactly.
        let single_a = env.model_input(&tm_a, None);
        let single_b = env.model_input(&tm_b, None);
        assert_eq!(&batched.path_init.data()[..p], single_a.path_init.data());
        assert_eq!(&batched.path_init.data()[p..], single_b.path_init.data());
        assert_eq!(&batched.edge_init.data()[..e], single_a.edge_init.data());
        assert_eq!(&batched.edge_init.data()[e..], single_b.edge_init.data());
        // Element extraction round-trips.
        let elem = batched.element(1);
        assert_eq!(elem.batch, 1);
        assert_eq!(elem.path_init, single_b.path_init);
        assert_eq!(elem.edge_init, single_b.edge_init);
    }

    #[test]
    fn failure_override_changes_edge_init_only() {
        let env = Env::for_topology(b4());
        let tm = TrafficMatrix::new(vec![1.0; env.num_demands()]);
        let failed = env.topo().with_failed_link(0, 1);
        let base = env.model_input(&tm, None);
        let after = env.model_input(&tm, Some(&failed));
        assert_eq!(base.path_init, after.path_init);
        assert_ne!(base.edge_init, after.edge_init);
        let e = env.topo().find_edge(0, 1).unwrap();
        assert_eq!(after.edge_init.get(e, 0), 0.0);
    }
}
