//! WAN topology representation.
//!
//! A topology is a directed graph: every physical (bidirectional) WAN link
//! contributes two directed edges, each with its own capacity, matching the
//! formulation in Appendix A of the paper where capacities are per directed
//! link. Nodes carry optional planar coordinates (used by the geometric
//! generators and by the latency-penalized objective).
//!
//! A `Topology` stores each fact once: the edge table, each node's
//! out-adjacency as `(neighbor, edge id)` pairs, the coordinates and the
//! name — and a failed-link twin clones just these. There is no `(src, dst)`
//! index: [`Topology::find_edge`] scans the source's out-adjacency,
//! O(out-degree), and none of its callers runs per window.

/// Index of a node.
pub type NodeId = usize;
/// Index of a directed edge.
pub type EdgeId = usize;

/// A directed WAN link.
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in arbitrary bandwidth units (e.g. Gbps).
    pub capacity: f64,
    /// Routing weight (propagation latency / distance).
    pub weight: f64,
}

/// A WAN topology: nodes, directed edges, adjacency.
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    edges: Vec<Edge>,
    /// Out-adjacency: for each node, `(neighbor, edge id)` pairs; its
    /// length is the node count.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    /// Optional planar coordinates per node.
    coords: Vec<(f64, f64)>,
}

impl Topology {
    /// Create an empty topology with `n` nodes at the origin.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        Topology {
            name: name.into(),
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            coords: vec![(0.0, 0.0); n],
        }
    }

    /// Human-readable topology name (e.g. "B4").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All directed edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// One edge by id.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Out-adjacency of a node as `(neighbor, edge id)` pairs.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[n]
    }

    /// Edge id for a `(src, dst)` pair if present (`None` for a node id out
    /// of range): a scan of `src`'s out-adjacency, O(out-degree). There is at
    /// most one such edge.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.adj
            .get(src)?
            .iter()
            .find(|&&(next, _)| next == dst)
            .map(|&(_, e)| e)
    }

    /// Set a node's planar coordinates.
    pub fn set_coords(&mut self, n: NodeId, x: f64, y: f64) {
        self.coords[n] = (x, y);
    }

    /// A node's planar coordinates.
    pub fn coords(&self, n: NodeId) -> (f64, f64) {
        self.coords[n]
    }

    /// Add a single directed edge. Panics on duplicates or self-loops.
    pub fn add_directed_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
        weight: f64,
    ) -> EdgeId {
        assert!(
            src < self.num_nodes() && dst < self.num_nodes(),
            "edge endpoint out of range"
        );
        assert_ne!(src, dst, "self-loops are not allowed");
        assert!(
            self.find_edge(src, dst).is_none(),
            "duplicate edge {src}->{dst}"
        );
        assert!(
            capacity >= 0.0 && weight >= 0.0,
            "negative capacity or weight"
        );
        let id = self.edges.len();
        self.edges.push(Edge {
            src,
            dst,
            capacity,
            weight,
        });
        self.adj[src].push((dst, id));
        id
    }

    /// Add a bidirectional link as two directed edges with equal
    /// capacity/weight. Returns the two edge ids.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        weight: f64,
    ) -> (EdgeId, EdgeId) {
        let e1 = self.add_directed_edge(a, b, capacity, weight);
        let e2 = self.add_directed_edge(b, a, capacity, weight);
        (e1, e2)
    }

    /// True if a directed edge joins `a` and `b` in either direction.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.link_edges(a, b).next().is_some()
    }

    /// The directed edges of the link between `a` and `b`: `a → b`, then
    /// `b → a`, each if present. [`Self::find_edge`] both ways, O(out-degree
    /// of `a` and `b`).
    pub fn link_edges(&self, a: NodeId, b: NodeId) -> impl Iterator<Item = EdgeId> {
        [self.find_edge(a, b), self.find_edge(b, a)]
            .into_iter()
            .flatten()
    }

    /// Capacity vector indexed by edge id.
    pub fn capacities(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.capacity).collect()
    }

    /// Total capacity over all directed edges.
    pub fn total_capacity(&self) -> f64 {
        self.edges.iter().map(|e| e.capacity).sum()
    }

    /// Multiply every capacity by `factor` (used for calibration and by POP's
    /// `1/k`-capacity replicas).
    pub fn scale_capacities(&mut self, factor: f64) {
        assert!(factor >= 0.0);
        for e in &mut self.edges {
            e.capacity *= factor;
        }
    }

    /// Return a copy with the given directed edges' capacities set to zero.
    ///
    /// Link failures are modeled exactly as in the paper (§3.1 footnote 1):
    /// "link failures can be viewed as an extreme scenario of capacity
    /// change, where the capacity of a failed link is reduced to zero."
    pub fn with_failed_edges(&self, failed: &[EdgeId]) -> Topology {
        let mut t = self.clone();
        for &e in failed {
            t.edges[e].capacity = 0.0;
        }
        t
    }

    /// Return a copy with every edge's capacity replaced from `caps`
    /// (indexed by edge id). Used by solvers that iterate over residual
    /// capacities.
    pub fn with_capacities(&self, caps: &[f64]) -> Topology {
        assert_eq!(
            caps.len(),
            self.edges.len(),
            "capacity vector length mismatch"
        );
        let mut t = self.clone();
        for (e, &c) in t.edges.iter_mut().zip(caps) {
            assert!(c >= 0.0, "negative capacity");
            e.capacity = c;
        }
        t
    }

    /// Fail a bidirectional link (both directed edges between `a` and `b`).
    pub fn with_failed_link(&self, a: NodeId, b: NodeId) -> Topology {
        self.with_failed_edges(&self.link_edges(a, b).collect::<Vec<_>>())
    }

    /// True when every node can reach every other node over directed edges
    /// (ignoring capacities).
    pub fn is_strongly_connected(&self) -> bool {
        // Node 0 reaches every node, and every node reaches node 0.
        let mut rev_adj = vec![Vec::new(); self.num_nodes()];
        for (id, e) in self.edges.iter().enumerate() {
            rev_adj[e.dst].push((e.src, id));
        }
        self.num_nodes() == 0 || (reaches_all(&self.adj) && reaches_all(&rev_adj))
    }

    /// All ordered node pairs `(s, t)` with `s != t` — the demand universe.
    pub fn all_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.num_nodes();
        let mut out = Vec::with_capacity(n * (n - 1));
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    out.push((s, t));
                }
            }
        }
        out
    }
}

/// Whether a depth-first walk of `adj` from node 0 reaches every node.
fn reaches_all(adj: &[Vec<(NodeId, EdgeId)>]) -> bool {
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(n) = stack.pop() {
        for &(m, _) in &adj[n] {
            if !seen[m] {
                seen[m] = true;
                stack.push(m);
            }
        }
    }
    seen.into_iter().all(|v| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new("tri", 3);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 2, 20.0, 1.0);
        t.add_link(0, 2, 30.0, 2.0);
        t
    }

    #[test]
    fn links_create_two_directed_edges() {
        let t = triangle();
        assert_eq!(t.num_edges(), 6);
        assert!(t.find_edge(0, 1).is_some());
        assert!(t.find_edge(1, 0).is_some());
        assert!(t.has_link(2, 0));
        assert!(!t.has_link(0, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let mut t = triangle();
        t.add_directed_edge(0, 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::new("x", 2);
        t.add_directed_edge(0, 0, 1.0, 1.0);
    }

    #[test]
    fn connectivity() {
        let t = triangle();
        assert!(t.is_strongly_connected());
        let mut u = Topology::new("dis", 4);
        u.add_link(0, 1, 1.0, 1.0);
        u.add_link(2, 3, 1.0, 1.0);
        assert!(!u.is_strongly_connected());
    }

    #[test]
    fn failures_zero_capacity_without_removing_edges() {
        let t = triangle();
        let f = t.with_failed_link(0, 1);
        assert_eq!(f.num_edges(), t.num_edges());
        let e = t.find_edge(0, 1).unwrap();
        assert_eq!(f.edge(e).capacity, 0.0);
        assert_eq!(t.edge(e).capacity, 10.0);
        // Still "connected" topologically — failures only change capacity.
        assert!(f.is_strongly_connected());
    }

    #[test]
    fn capacity_scaling() {
        let mut t = triangle();
        let before = t.total_capacity();
        t.scale_capacities(0.5);
        assert!((t.total_capacity() - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn all_pairs_count() {
        let t = triangle();
        assert_eq!(t.all_pairs().len(), 6);
    }
}
