//! Test oracle: Yen's algorithm over the *unbounded* masked Dijkstra, kept
//! verbatim from before the searches became goal-directed. Every spur search
//! here floods outward from the spur node until `dst` pops, so it is slow
//! and obviously correct; [`super::k_shortest_paths_with`] must return the
//! same paths — edges, `weight.to_bits()`, order — on every input.
//! The only additions are the two work counters the ledger test reads, and
//! node lists read off the edges ([`Path::nodes`]) where a [`Path`] stored
//! them. The heap entry compares floats and is private to this file, so the
//! twin shares nothing with the packed key it checks.

use super::Path;
use crate::graph::{EdgeId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch buffers for [`k_shortest_paths_with`] and the masked
/// Dijkstra underneath it.
///
/// Ban and mark sets are epoch-stamped arrays: membership is `stamp[i] ==
/// epoch`, and "clearing" a set is one counter increment. Distance and
/// predecessor arrays are reset via a touched-node list, so each Dijkstra run
/// costs O(visited) to clean up rather than O(n). One scratch per worker
/// thread makes the 1,000-node KSP precompute allocation-free in steady state.
pub struct KspScratch {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
    pub edge_ban: Vec<u32>,
    pub node_ban: Vec<u32>,
    node_mark: Vec<u32>,
    epoch: u32,
    /// Masked Dijkstra runs so far.
    pub searches: u64,
    /// Heap pops over all runs so far.
    pub pops: u64,
}

impl KspScratch {
    /// Scratch sized for `topo`. A scratch may be reused across topologies;
    /// buffers grow on demand.
    pub fn new(topo: &Topology) -> KspScratch {
        KspScratch {
            dist: vec![f64::INFINITY; topo.num_nodes()],
            prev: vec![None; topo.num_nodes()],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            edge_ban: vec![0; topo.num_edges()],
            node_ban: vec![0; topo.num_nodes()],
            node_mark: vec![0; topo.num_nodes()],
            epoch: 0,
            searches: 0,
            pops: 0,
        }
    }

    fn fit(&mut self, topo: &Topology) {
        let n = topo.num_nodes();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
            self.node_ban.resize(n, 0);
            self.node_mark.resize(n, 0);
        }
        if self.edge_ban.len() < topo.num_edges() {
            self.edge_ban.resize(topo.num_edges(), 0);
        }
    }

    /// A fresh epoch value; stamps from prior epochs are implicitly cleared.
    pub fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: zero every stamp so stale values cannot alias.
            self.edge_ban.iter_mut().for_each(|v| *v = 0);
            self.node_ban.iter_mut().for_each(|v| *v = 0);
            self.node_mark.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Masked Dijkstra over scratch buffers. Edges/nodes whose stamp equals
/// `ban_epoch` are masked out; passing a fresh epoch with nothing stamped
/// runs unmasked.
pub fn dijkstra_scratch(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    scratch: &mut KspScratch,
    ban_epoch: u32,
) -> Option<Path> {
    let KspScratch {
        dist,
        prev,
        touched,
        heap,
        edge_ban,
        node_ban,
        searches,
        pops,
        ..
    } = scratch;
    *searches += 1;
    // Reset state touched by the previous run.
    for &v in touched.iter() {
        dist[v] = f64::INFINITY;
        prev[v] = None;
    }
    touched.clear();
    heap.clear();

    dist[src] = 0.0;
    touched.push(src);
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        *pops += 1;
        if node == dst {
            break;
        }
        if d > dist[node] {
            continue;
        }
        for &(next, eid) in topo.neighbors(node) {
            if edge_ban[eid] == ban_epoch || node_ban[next] == ban_epoch {
                continue;
            }
            let nd = d + topo.edge(eid).weight;
            if nd < dist[next] {
                if dist[next].is_infinite() {
                    touched.push(next);
                }
                dist[next] = nd;
                prev[next] = Some((node, eid));
                heap.push(HeapEntry {
                    dist: nd,
                    node: next,
                });
            }
        }
    }
    if !dist[dst].is_finite() {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, e) = prev[cur]?;
        edges.push(e);
        cur = p;
    }
    edges.reverse();
    Some(Path {
        edges,
        weight: dist[dst],
    })
}

/// [`k_shortest_paths`] with caller-provided scratch, so a precompute loop
/// over many pairs reuses one set of buffers per worker thread.
pub fn k_shortest_paths_with(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    scratch: &mut KspScratch,
) -> Vec<Path> {
    scratch.fit(topo);
    let unmasked = scratch.next_epoch();
    let Some(first) = dijkstra_scratch(topo, src, dst, scratch, unmasked) else {
        return Vec::new();
    };
    let mut accepted: Vec<Path> = vec![first];
    // Candidate pool; may contain duplicates which we filter on insert.
    let mut candidates: Vec<Path> = Vec::new();

    while accepted.len() < k {
        let prev = accepted.last().unwrap().clone();
        let prev_nodes: Vec<NodeId> = prev.nodes(topo).collect();
        for i in 0..prev.edges.len() {
            let spur_node = prev_nodes[i];
            let root_nodes = &prev_nodes[..=i];
            let root_edges = &prev.edges[..i];
            let root_weight: f64 = root_edges.iter().map(|&e| topo.edge(e).weight).sum();

            let ban = scratch.next_epoch();
            // Ban the next edge of every accepted path sharing this root.
            for p in &accepted {
                let p_nodes: Vec<NodeId> = p.nodes(topo).collect();
                if p_nodes.len() > i && p_nodes[..=i] == *root_nodes {
                    if let Some(&e) = p.edges.get(i) {
                        scratch.edge_ban[e] = ban;
                    }
                }
            }
            // Ban root nodes (except the spur) to keep paths simple.
            for &v in &root_nodes[..i] {
                scratch.node_ban[v] = ban;
            }

            if let Some(spur) = dijkstra_scratch(topo, spur_node, dst, scratch, ban) {
                // Simplicity check without materializing the joined path: the
                // root and spur are each simple, so only cross-duplicates
                // between them can occur.
                let mark = scratch.next_epoch();
                for &v in &root_nodes[..i] {
                    scratch.node_mark[v] = mark;
                }
                let simple = spur.nodes(topo).all(|v| scratch.node_mark[v] != mark);
                if simple {
                    let mut edges = root_edges.to_vec();
                    edges.extend_from_slice(&spur.edges);
                    let cand = Path {
                        edges,
                        weight: root_weight + spur.weight,
                    };
                    if !accepted.iter().any(|p| p.edges == cand.edges)
                        && !candidates.iter().any(|p| p.edges == cand.edges)
                    {
                        candidates.push(cand);
                    }
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the lightest candidate (tie-break by edge list for determinism).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.weight
                    .partial_cmp(&b.weight)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.edges.cmp(&b.edges))
            })
            .map(|(i, _)| i)
            .unwrap();
        accepted.push(candidates.swap_remove(best));
    }
    accepted
}
