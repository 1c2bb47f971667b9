//! Shortest paths and the precomputed candidate-path sets used by the path
//! formulation of TE.
//!
//! Production TE (and the paper, §2) splits each demand across 4 precomputed
//! shortest paths. [`PathSet::compute`] runs Yen's k-shortest-simple-paths
//! algorithm per demand pair, in parallel across pairs; if a pair admits
//! fewer than `k` simple paths, the available paths are repeated cyclically
//! so every demand has exactly `k` slots (split ratios on duplicates simply
//! add on the same physical path).
//!
//! # What a `Path` and a `PathSet` store
//!
//! A [`Path`] is its edge ids and its weight: the nodes it visits are the
//! first edge's `src` and then every edge's `dst`, read off the topology by
//! [`Path::nodes`]. A [`PathSet`] holds its pairs, `pairs × k` paths and one
//! edge→path arena, whose path ids the ADMM index shares through an `Arc`.
//!
//! # Guarantee
//!
//! Each pair's result is a pure function of `(topo, src, dst, k)`: it does
//! not depend on the thread count, on what a [`KspScratch`] was used for
//! before, or on the order pairs are visited in. It is bit-for-bit what
//! Yen's algorithm over a plain `(dist, node)`-ordered masked Dijkstra
//! returns — edges, hence nodes, and the left-folded `f64` weight — and the test
//! oracle (`paths/oracle.rs`, that plain algorithm) holds it to that.
//!
//! # Goal-directed spur searches, and why they stay exact
//!
//! Yen's inner loop runs one masked shortest-path search per spur node,
//! about ten per pair. A plain Dijkstra floods a third of a 1,000-node WAN
//! before it reaches `dst`; here every search is bounded by a reverse
//! shortest-path tree `h(v) = d(v → dst)` on the *unmasked* graph, built once
//! per destination over in-edges, next hops kept beside the distances. Each
//! search first settles the weight `D*` of the masked optimum, then runs the
//! same `(dist, node)`-ordered Dijkstra as before, skipping any relaxation
//! with `nd + h[next] > D*·(1 + 1e-9)`. The returned path is unchanged
//! because:
//!
//! 1. `h` is a consistent lower bound on the masked distance to `dst`, so a
//!    skipped relaxation can never be the tight one for a node on a path of
//!    weight ≤ `D*` — and every node on the returned path, and every
//!    predecessor that could tie for its `prev[]`, lies on such a path;
//! 2. the bound is strict with float slack (`1e-9` against ~`1e-13` of
//!    accumulated rounding between left- and right-folded sums), so ties
//!    and ulp-level differences are never pruned;
//! 3. the heap order is total, so removing entries does not reorder the
//!    rest: the surviving nodes pop in the same order with the same `dist`
//!    and `prev`;
//! 4. the Dijkstra is the only pass that chooses a path, and points 1–3
//!    hold for *any* bound at or above the optimum — so where `D*` comes
//!    from cannot matter, only that it is never too small.
//!
//! Point 4 is what lets `D*` be read rather than searched for. **All of a
//! spur search's banned edges leave the spur node** (Yen's bans the next edge
//! of each accepted path sharing the root; the root's earlier nodes are
//! banned as nodes), so one scan of the spur node's unbanned exits gives a
//! sandwich: `min(w + h[next])` is a lower bound on the masked optimum, and
//! the lightest exit whose *tree* path to `dst` meets no banned node and does
//! not return to the spur node is a feasible path, hence an upper bound. When
//! the two meet — three searches in four at 1,024 nodes — that is `D*` and no
//! heap is touched; when there is no exit there is no path; otherwise a
//! distance-only A\* on `g + h` finds `D*`, dropping pushes above the upper
//! bound. Either way `D*` is the optimum to within rounding, which point 2's
//! slack absorbs.
//!
//! The scan has a goal-side twin. When no exit's tree path is feasible the
//! A\* would run uncapped, and if there is in fact no masked path it pops
//! every node it can reach to prove it. The commonest such case needs no
//! search: a masked path must *enter* `dst` through an in-arc that is not
//! banned and does not leave a banned node, so when one scan of `dst`'s
//! in-arcs finds none — a spur search at the only neighbour of a leaf
//! destination — the answer is `None`, which is exactly what the exhausted
//! A\* returns. No path is chosen on that branch, so none can change.
//!
//! Do not simplify this into plain A\*, bidirectional search or "follow the
//! tree while it is unbanned": each picks a different path among
//! equal-weight ones (B4 has exact ties) and changes the path sets.
//!
//! # Spur positions that cannot matter
//!
//! Lawler's refinement (below) skips the spur positions that would repeat a
//! query. A second rule skips the ones whose answer could never be used.
//! While `accepted` holds fewer than `k` paths, only `need = k − accepted`
//! more picks will ever be made, and each takes the pool's lightest
//! candidate. The exit scan's `lower` bounds the spur path's weight from
//! below before any heap is touched. If `need` pooled candidates are already
//! *strictly* lighter than `root + lower`, every remaining pick is lighter
//! too — a pick removes one of them and lowers `need` with it, and pushes
//! only add to the pool — so the path this position would find is pooled and
//! never picked. The position is skipped, and with it its optimum, its
//! bounded Dijkstra and its candidate allocation: nearly half of all
//! positions at 1,024 nodes. A candidate that *is* picked was found at a
//! position the rule let through (had it been skipped, the candidate was
//! already too heavy ever to be picked), so it carries the same nodes, weight
//! bits and deviation index as without the rule.
//!
//! The test is strict, with the same `1e-9` slack as the search bound and
//! for the same reason: a path that *ties* the cutoff is still in the
//! running, because the pick breaks weight ties by edge list, so it must be
//! searched. The oracle applies neither this rule nor Lawler's: it expands
//! every position of every accepted path, so agreeing with it bit for bit
//! shows that the skipped positions were dead.
//!
//! # Other details that matter at paper scale (754–1,739 nodes, §6)
//!
//! * [`KspScratch`] keeps the distance/predecessor arrays, the binary heap,
//!   the trees' bucket queue, epoch-stamped ban arrays, the reverse tree and
//!   each search's result alive across searches; a [`Path`] is allocated
//!   only for a candidate that is new, so a spur search that re-derives a
//!   known one is allocation-free. (Allocator churn, not arithmetic, was most of the
//!   cost on B4-sized graphs.)
//! * The three hot loops (tree build, A\*, bounded Dijkstra) walk CSR
//!   adjacency with the edge weight inline, rebuilt once per worker by
//!   `KspScratch::bind`. The two searches pop a binary heap keyed on
//!   `(dist.to_bits(), node)`. The tree build, two thirds of KSP's time
//!   under a heap, pops a ring of buckets instead (`BucketQueue`): one
//!   lightest arc wide, or `heaviest / n` where the arcs span more than `n`
//!   of the lightest, only the cursor's bucket sorted, and the same pop
//!   order as the heap for any non-negative weights, so `h` and `hop` keep
//!   their bits. The searches keep the heap: the same queue
//!   under them made Swan's KSP slower.
//! * The tree build writes `h` and `hop` for every node but does not queue a
//!   node whose single in-arc comes from the node being popped (a stub site
//!   behind its one neighbour — 290 of 1,024 nodes): popping it could only
//!   re-relax that neighbour, already settled at a distance no greater,
//!   zero weights included. By point 3's argument the rest of the build pops
//!   in the same order, so `h` and `hop` are bit-identical.
//! * Lawler's refinement: each candidate records the spur index it deviated
//!   at, and spur positions before it — which would repeat a query already
//!   issued for its parent — are skipped.
//! * Yen's works on edges alone: the spur node at position `i` is the `src`
//!   of the path's `i`-th edge, and two paths share a root exactly when
//!   their first `i` edges are equal (they start at one source, and no two
//!   edges join the same ordered pair).
//! * The candidate pool is kept sorted, heaviest first, so the pick is a
//!   `pop` and the cutoff of the rule above is one index away.
//! * The edge→path incidence is flattened at construction into a CSR-style
//!   offsets+indices pair ([`PathSet::paths_on_edge`]), the one copy of it
//!   ([`PathSet::edge_path_arena`]), and the path-major direction gets its
//!   offsets ([`PathSet::path_edge_offsets`]), shared by every path-major
//!   array built over the set.

use crate::graph::{EdgeId, NodeId, Topology};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;

/// A simple path through the topology: its edges, source to destination,
/// and their summed weight. The nodes are not stored; see [`Path::nodes`].
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Directed edge ids, each starting where the one before it ends.
    pub edges: Vec<EdgeId>,
    /// Total routing weight (latency proxy).
    pub weight: f64,
}

impl Path {
    /// Number of hops (edges).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the degenerate empty path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The visited nodes in `topo` (the path's topology or a failed-link
    /// twin of it): the first edge's `src`, then every edge's `dst`. A
    /// zero-hop path, which only a `src == dst` query to
    /// [`k_shortest_paths`] returns and no [`PathSet`] holds, yields none.
    pub fn nodes<'a>(&'a self, topo: &'a Topology) -> impl Iterator<Item = NodeId> + 'a {
        let src = self.edges.first().map(|&e| topo.edge(e).src);
        src.into_iter()
            .chain(self.edges.iter().map(|&e| topo.edge(e).dst))
    }

    /// True when no node of [`Self::nodes`] repeats.
    pub fn is_simple(&self, topo: &Topology) -> bool {
        let mut seen = HashSet::new();
        self.nodes(topo).all(|v| seen.insert(v))
    }
}

/// Min-heap of `(dist, node)`, tie-broken on the node id for determinism.
///
/// Entries are keyed on `(dist.to_bits(), node)`: for the keys these heaps
/// hold — sums of non-negative weights from `+0.0`, so never negative, `-0.0`
/// or NaN — the bit pattern orders exactly as the number does, which makes
/// this the same total order as comparing the floats and one integer compare
/// instead of a `partial_cmp` chain.
#[derive(Default)]
struct MinHeap(BinaryHeap<Reverse<(u64, u32)>>);

impl MinHeap {
    fn clear(&mut self) {
        self.0.clear();
    }

    fn push(&mut self, dist: f64, node: NodeId) {
        debug_assert!(dist.is_sign_positive(), "heap key {dist}");
        self.0.push(Reverse((dist.to_bits(), node as u32)));
    }

    fn pop(&mut self) -> Option<(f64, NodeId)> {
        let Reverse((bits, node)) = self.0.pop()?;
        Some((f64::from_bits(bits), node as usize))
    }
}

/// End of a bucket's list in [`BucketQueue::heads`] and its entries.
const NIL: u32 = u32::MAX;

/// The reverse trees' queue, a Dial ring: it pops in exactly [`MinHeap`]'s
/// `(dist.to_bits(), node)` order for non-negative keys, as long as no key
/// pushed is more than the heaviest arc past the heaviest key popped since
/// the last clear (true of any Dijkstra over the bound topology's arcs).
///
/// Buckets are one width wide: the lightest positive arc, or `heaviest / n`
/// on an `n`-node topology whose arcs span more than `n` of its lightest
/// (more buckets than a tree has keys would mostly be empty, and the cursor
/// steps through every one). Key `d` lands in bucket
/// `max(⌊d · (1 / width)⌋, cursor)`. That index never falls as `d` grows, so
/// every key in a bucket past the cursor is heavier than every key in the
/// cursor's own: only that one bucket must be in order. It is sorted
/// heaviest first when the cursor reaches it, so a pop is a `Vec::pop`, and
/// a push that lands in it (across an arc lighter than the width, or rounded
/// onto a bucket edge) is inserted in order. A waiting key is at most
/// `⌈heaviest / width⌉` buckets past the cursor, one more where rounding
/// tips a key over a bucket edge, so absolute bucket `b` lives in slot
/// `b mod slots` of a ring of `⌈heaviest / width⌉ + 2` slots rounded up to a
/// power of two: at most `2 (n + 3)`, and 128 on the 1,024-node
/// `large_wan`, whose arcs span 98 of its lightest. The buckets past the
/// cursor are lists threaded through one flat entry array, and the cursor's
/// bucket holds ids into it, so the storage is three grow-only `Vec`s, sized
/// once per topology (see [`Self::fit`]).
#[derive(Default)]
struct BucketQueue {
    /// `1 / width`; 0 when the topology has no positive arc (one bucket).
    scale: f64,
    /// `slots - 1`: absolute bucket `b` is `heads[b & mask]`.
    mask: usize,
    /// The cursor's bucket: ids into `entries`, heaviest key first.
    current: Vec<u32>,
    /// The cursor's absolute bucket index.
    cursor: usize,
    /// The newest entry of each bucket past the cursor, or [`NIL`].
    heads: Vec<u32>,
    /// `(key bits, node, next entry of the same bucket)`.
    entries: Vec<(u64, u32, u32)>,
    /// Entries still in buckets past the cursor.
    waiting: usize,
}

impl BucketQueue {
    /// Size the buckets and the ring for `nodes` nodes joined by arcs from
    /// `lightest` (the lightest positive arc, infinite if there is none) to
    /// `heaviest`, and reserve what one tree over `arcs` arcs can use: a
    /// tree expands each node once, so it relaxes each arc at most once and
    /// pushes at most `arcs + 1` keys.
    fn fit(&mut self, lightest: f64, heaviest: f64, nodes: usize, arcs: usize) {
        self.scale = lightest.recip().min(nodes.max(1) as f64 / heaviest);
        // NaN (an infinite arc, so `scale` is 0) casts to 0: one bucket.
        let reach = (heaviest * self.scale).ceil() as usize + 2;
        let slots = reach.next_power_of_two();
        self.mask = slots - 1;
        self.heads.clear();
        self.heads.resize(slots, NIL);
        self.clear();
        self.current.reserve(arcs + 1);
        self.entries.reserve(arcs + 1);
    }

    fn clear(&mut self) {
        self.current.clear();
        self.cursor = 0;
        // A drained queue's buckets are all empty already.
        if self.waiting > 0 {
            self.heads.fill(NIL);
        }
        self.entries.clear();
        self.waiting = 0;
    }

    fn push(&mut self, dist: f64, node: NodeId) {
        debug_assert!(dist.is_sign_positive(), "queue key {dist}");
        let bucket = ((dist * self.scale) as usize).max(self.cursor);
        debug_assert!(
            bucket - self.cursor <= self.mask,
            "queue key {dist} past the ring"
        );
        let id = self.entries.len() as u32;
        if bucket == self.cursor {
            self.entries.push((dist.to_bits(), node as u32, NIL));
            self.insert(id);
            return;
        }
        let head = &mut self.heads[bucket & self.mask];
        self.entries.push((dist.to_bits(), node as u32, *head));
        *head = id;
        self.waiting += 1;
    }

    fn pop(&mut self) -> Option<(f64, NodeId)> {
        if self.current.is_empty() && self.waiting > 0 {
            self.advance();
        }
        let (bits, node, _) = self.entries[self.current.pop()? as usize];
        Some((f64::from_bits(bits), node as usize))
    }

    /// Entry `id`'s key.
    fn key(&self, id: u32) -> (u64, u32) {
        let (bits, node, _) = self.entries[id as usize];
        (bits, node)
    }

    /// Put entry `id` into `current` in order, scanning from the lightest end.
    fn insert(&mut self, id: u32) {
        let key = self.key(id);
        let mut at = self.current.len();
        self.current.push(id);
        while at > 0 && self.key(self.current[at - 1]) < key {
            self.current[at] = self.current[at - 1];
            at -= 1;
        }
        self.current[at] = id;
    }

    /// Move the cursor to the next bucket that holds entries (there is one,
    /// less than a ring ahead) and insertion-sort them into `current`.
    fn advance(&mut self) {
        self.cursor += 1;
        while self.heads[self.cursor & self.mask] == NIL {
            self.cursor += 1;
        }
        let mut at = std::mem::replace(&mut self.heads[self.cursor & self.mask], NIL);
        while at != NIL {
            let next = self.entries[at as usize].2;
            self.insert(at);
            self.waiting -= 1;
            at = next;
        }
    }
}

/// One adjacency entry of the bound topology with the edge weight inline, so
/// a relaxation reads one 16-byte record instead of chasing `Vec<Vec<_>>`
/// and then the edge table.
#[derive(Clone, Copy, Default)]
struct Adj {
    /// The far end: the head of an out-edge, the tail of an in-edge.
    node: u32,
    edge: u32,
    weight: f64,
}

/// Relative slack on the pruning bound: far above the rounding that
/// separates a left-folded from a right-folded sum of the same edge weights
/// (~`2 · hops · 2⁻⁵³`), far below any real difference between path weights.
const BOUND_SLACK: f64 = 1e-9;

/// Bump a [`Counts`] field in test builds; expands to nothing otherwise.
macro_rules! count {
    ($field:expr) => {
        #[cfg(test)]
        {
            $field += 1;
        }
    };
}

/// Work counts of one scratch, for the ledger test. Plain fields owned by
/// one worker: the search loops write nothing shared.
#[cfg(test)]
#[derive(Debug, Default)]
struct Counts {
    /// Reverse trees built.
    trees: u64,
    /// Masked searches run (each an optimum plus a bounded Dijkstra).
    searches: u64,
    /// Spur positions skipped: their lower bound is above the weight of the
    /// last candidate that can still be picked.
    pruned: u64,
    /// Searches whose optimum a scan settled — read off the tree, no exit
    /// at all, or a sealed `dst` — so at most the bounded Dijkstra touched
    /// the heap.
    shortcuts: u64,
    /// Queue pops: tree builds, A\* passes and bounded Dijkstras together.
    pops: u64,
    /// The tree builds' share of `pops`, off the [`BucketQueue`].
    tree_pops: u64,
}

/// Reusable scratch buffers for [`k_shortest_paths_with`] and the masked
/// searches underneath it.
///
/// Ban sets are epoch-stamped arrays: membership is `stamp[i] == epoch`,
/// and "clearing" a set is one counter increment. Distance and
/// predecessor arrays are reset via a touched-node list, so each search
/// costs O(visited) to clean up rather than O(n). The scratch also holds the
/// adjacency of the topology it was last bound to and the reverse
/// shortest-path tree of its current destination; both are rebuilt by every
/// public call, so nothing a scratch did before can leak into a result. The
/// reverse trees run on a bucket queue, sized when the topology is bound,
/// and the spur searches on a binary heap. One scratch per worker thread
/// makes the 1,000-node KSP precompute allocation-free in steady state: once
/// a scratch has built one tree of a topology, building more allocates
/// nothing.
pub struct KspScratch {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    touched: Vec<NodeId>,
    heap: MinHeap,
    tree_queue: BucketQueue,
    edge_ban: Vec<u32>,
    node_ban: Vec<u32>,
    epoch: u32,
    /// The last successful search's path walked backwards: its edges from
    /// the one into `dst` to the one out of the search's source.
    walk_edges: Vec<EdgeId>,
    /// CSR adjacency of the bound topology. The out-edges of `v` are
    /// `out_adj[out_off[v]..out_off[v + 1]]` in [`Topology::neighbors`] order
    /// (which of two equal relaxations lands first is part of the result);
    /// the in-edges of `v` are `in_adj[in_off[v]..in_off[v + 1]]` by
    /// ascending edge id.
    out_off: Vec<u32>,
    out_adj: Vec<Adj>,
    in_off: Vec<u32>,
    in_adj: Vec<Adj>,
    /// `h[v]` = shortest distance from `v` to `target` on the unmasked bound
    /// topology, `INFINITY` where `target` is unreachable.
    h: Vec<f64>,
    /// `hop[v]` = the node after `v` on the tree path that realises `h[v]`;
    /// meaningless for `target` itself and where `h[v]` is infinite.
    hop: Vec<u32>,
    /// The destination `h` was built for; `None` right after [`Self::bind`].
    target: Option<NodeId>,
    #[cfg(test)]
    counts: Counts,
}

impl KspScratch {
    /// Scratch sized for `topo`. A scratch may be reused across topologies;
    /// buffers grow on demand.
    pub fn new(topo: &Topology) -> KspScratch {
        KspScratch {
            dist: vec![f64::INFINITY; topo.num_nodes()],
            prev: vec![None; topo.num_nodes()],
            touched: Vec::new(),
            heap: MinHeap::default(),
            tree_queue: BucketQueue::default(),
            edge_ban: vec![0; topo.num_edges()],
            node_ban: vec![0; topo.num_nodes()],
            epoch: 0,
            walk_edges: Vec::new(),
            out_off: Vec::new(),
            out_adj: Vec::new(),
            in_off: Vec::new(),
            in_adj: Vec::new(),
            h: Vec::new(),
            hop: Vec::new(),
            target: None,
            #[cfg(test)]
            counts: Counts::default(),
        }
    }

    /// Fit the buffers and the tree queue to `topo` and rebuild its
    /// adjacency, O(E). Forgets the current reverse tree: the caller must
    /// [`aim`](Self::aim) before the next search, so a tree can never
    /// outlive the graph it was built on (a failed-link twin shares node ids
    /// but is a different graph).
    fn bind(&mut self, topo: &Topology) {
        let n = topo.num_nodes();
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
            self.node_ban.resize(n, 0);
        }
        if self.edge_ban.len() < topo.num_edges() {
            self.edge_ban.resize(topo.num_edges(), 0);
        }
        self.out_off.clear();
        self.out_adj.clear();
        self.out_off.push(0);
        for v in 0..n {
            self.out_adj
                .extend(topo.neighbors(v).iter().map(|&(next, eid)| Adj {
                    node: next as u32,
                    edge: eid as u32,
                    weight: topo.edge(eid).weight,
                }));
            self.out_off.push(self.out_adj.len() as u32);
        }
        // Counting sort of the edges by destination: after the inclusive
        // prefix sum `in_off[v]` is the end of `v`'s run, and filling from the
        // back with a pre-decrement leaves it at the start.
        self.in_off.clear();
        self.in_off.resize(n + 1, 0);
        for e in topo.edges() {
            self.in_off[e.dst] += 1;
        }
        for v in 1..=n {
            self.in_off[v] += self.in_off[v - 1];
        }
        self.in_adj.clear();
        self.in_adj.resize(topo.num_edges(), Adj::default());
        let (mut lightest, mut heaviest) = (f64::INFINITY, 0.0f64);
        for (eid, e) in topo.edges().iter().enumerate().rev() {
            if e.weight > 0.0 {
                lightest = lightest.min(e.weight);
            }
            heaviest = heaviest.max(e.weight);
            self.in_off[e.dst] -= 1;
            self.in_adj[self.in_off[e.dst] as usize] = Adj {
                node: e.src as u32,
                edge: eid as u32,
                weight: e.weight,
            };
        }
        self.tree_queue.fit(lightest, heaviest, n, topo.num_edges());
        self.target = None;
    }

    /// Build the reverse shortest-path tree of `dst` on the bound topology:
    /// a full Dijkstra over in-edges, distances and next hops. Every node's
    /// `h` and `hop` are written; a node with nobody to improve is not queued.
    fn aim(&mut self, dst: NodeId) {
        let KspScratch {
            tree_queue,
            in_off,
            in_adj,
            h,
            hop,
            target,
            #[cfg(test)]
            counts,
            ..
        } = self;
        let n = in_off.len() - 1;
        h.clear();
        h.resize(n, f64::INFINITY);
        hop.clear();
        hop.resize(n, u32::MAX);
        tree_queue.clear();
        h[dst] = 0.0;
        tree_queue.push(0.0, dst);
        while let Some((d, node)) = tree_queue.pop() {
            count!(counts.pops);
            count!(counts.tree_pops);
            if d > h[node] {
                continue;
            }
            let (lo, hi) = (in_off[node] as usize, in_off[node + 1] as usize);
            for arc in &in_adj[lo..hi] {
                let from = arc.node as usize;
                let nd = d + arc.weight;
                if nd < h[from] {
                    h[from] = nd;
                    hop[from] = node as u32;
                    // A node whose single in-arc comes from `node` is a dead
                    // end: popping it could only re-relax `node`, which is
                    // settled at `d <= nd`.
                    let into = &in_adj[in_off[from] as usize..in_off[from + 1] as usize];
                    if !matches!(into, [only] if only.node as usize == node) {
                        tree_queue.push(nd, from);
                    }
                }
            }
        }
        *target = Some(dst);
        count!(counts.trees);
    }

    /// A fresh epoch value; stamps from prior epochs are implicitly cleared.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: zero every stamp so stale values cannot alias.
            self.edge_ban.iter_mut().for_each(|v| *v = 0);
            self.node_ban.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Stamp a fresh epoch with Yen's bans for the spur search at position
    /// `i` of the newest accepted path: the next edge of every accepted path
    /// sharing its root (its first `i` edges), and the root's nodes before
    /// the spur node (the spur path cannot revisit them, so root + spur is
    /// simple by construction). Every banned edge leaves the spur node — the invariant
    /// [`exit_bounds`] reads the tree under.
    fn ban_root(&mut self, topo: &Topology, accepted: &[Path], i: usize) -> u32 {
        let ban = self.next_epoch();
        let root_edges = &accepted.last().expect("a path to deviate from").edges[..i];
        for p in accepted {
            if let Some(&e) = p.edges.get(i) {
                if p.edges[..i] == *root_edges {
                    self.edge_ban[e] = ban;
                }
            }
        }
        for &e in root_edges {
            self.node_ban[topo.edge(e).src] = ban;
        }
        ban
    }

    /// Undo the previous search's writes to `dist`/`prev` and seed `src`.
    fn restart(&mut self, src: NodeId, key: f64) {
        for &v in &self.touched {
            self.dist[v] = f64::INFINITY;
            self.prev[v] = None;
        }
        self.touched.clear();
        self.heap.clear();
        self.dist[src] = 0.0;
        self.touched.push(src);
        self.heap.push(key, src);
    }

    /// `root_edges` followed by the last search's path, as a [`Path`] of
    /// `weight`.
    fn joined(&self, root_edges: &[EdgeId], weight: f64) -> Path {
        let mut edges = Vec::with_capacity(root_edges.len() + self.walk_edges.len());
        edges.extend_from_slice(root_edges);
        edges.extend(self.walk_edges.iter().rev());
        Path { edges, weight }
    }

    /// Whether `root_edges` followed by the last search's path is `edges`.
    fn joins_to(&self, root_edges: &[EdgeId], edges: &[EdgeId]) -> bool {
        edges.len() == root_edges.len() + self.walk_edges.len()
            && edges[..root_edges.len()] == *root_edges
            && edges[root_edges.len()..]
                .iter()
                .eq(self.walk_edges.iter().rev())
    }
}

/// Bounds on the weight of the lightest masked `src → dst` path from one scan
/// of `src`'s unbanned exits, `(lower, upper)`; the scratch's reverse tree
/// must be aimed at `dst`. For `src == dst` the pair bounds a round trip and
/// no caller reads it.
///
/// `lower` is the lightest `w + h[next]`: every masked path leaves through
/// one of these exits and `h` bounds the rest of it from below. `upper` is
/// the lightest exit whose *tree* path to `dst` meets no banned node and does
/// not come back to `src`: every banned edge leaves `src` (see
/// [`KspScratch::ban_root`]), so that path is feasible as it stands.
/// `INFINITY` stands for "no such exit" on either side.
///
/// One scan serves a spur position twice: [`yen`] reads `lower` to decide
/// whether the position can matter at all, then hands the pair to [`search`]
/// and so to [`masked_optimum`], which does not scan again.
fn exit_bounds(src: NodeId, dst: NodeId, scratch: &KspScratch, ban_epoch: u32) -> (f64, f64) {
    let KspScratch {
        edge_ban,
        node_ban,
        out_off,
        out_adj,
        h,
        hop,
        ..
    } = scratch;
    let (mut lower, mut upper) = (f64::INFINITY, f64::INFINITY);
    for arc in &out_adj[out_off[src] as usize..out_off[src + 1] as usize] {
        let next = arc.node as usize;
        if edge_ban[arc.edge as usize] == ban_epoch
            || node_ban[next] == ban_epoch
            || h[next].is_infinite()
        {
            continue;
        }
        let via = arc.weight + h[next];
        lower = lower.min(via);
        if via < upper {
            let mut v = next;
            while v != dst && v != src && node_ban[v] != ban_epoch {
                v = hop[v] as usize;
            }
            if v == dst {
                upper = via;
            }
        }
    }
    (lower, upper)
}

/// Whether no masked path can enter `dst`: each of its in-arcs is a banned
/// edge or leaves a banned node. The goal-side twin of [`exit_bounds`] — a
/// spur search at the only neighbour of a leaf destination, say.
fn goal_sealed(dst: NodeId, scratch: &KspScratch, ban_epoch: u32) -> bool {
    let KspScratch {
        edge_ban,
        node_ban,
        in_off,
        in_adj,
        ..
    } = scratch;
    in_adj[in_off[dst] as usize..in_off[dst + 1] as usize]
        .iter()
        .all(|arc| {
            edge_ban[arc.edge as usize] == ban_epoch || node_ban[arc.node as usize] == ban_epoch
        })
}

/// Weight of the lightest masked `src → dst` path, to within
/// [`BOUND_SLACK`]; the scratch's reverse tree must be aimed at `dst` and
/// `(lower, upper)` be its [`exit_bounds`] under `ban_epoch` (not read when
/// `src == dst`).
///
/// Most spur searches never touch the heap: when the bounds meet, the tree
/// already holds the answer, and when no exit's tree path is feasible and
/// `dst` is [`goal_sealed`] there is none. Otherwise [`astar`] finds it,
/// pruned by the upper bound.
fn masked_optimum(
    src: NodeId,
    dst: NodeId,
    scratch: &mut KspScratch,
    ban_epoch: u32,
    (lower, upper): (f64, f64),
) -> Option<f64> {
    if src == dst {
        return Some(0.0);
    }
    if lower == upper {
        count!(scratch.counts.shortcuts);
        return lower.is_finite().then_some(lower);
    }
    if upper.is_infinite() && goal_sealed(dst, scratch, ban_epoch) {
        count!(scratch.counts.shortcuts);
        return None;
    }
    astar(src, dst, scratch, ban_epoch, upper * (1.0 + BOUND_SLACK))
}

/// Weight of the lightest masked `src → dst` path, by A\* on `g + h` over the
/// scratch's reverse tree (which must be aimed at `dst`), never pushing a
/// node whose `g + h` exceeds `cap` — any value at or above the optimum, so
/// no node of an optimal path is lost. Distances only: which of several
/// equal-weight paths A\* walks is irrelevant here.
fn astar(
    src: NodeId,
    dst: NodeId,
    scratch: &mut KspScratch,
    ban_epoch: u32,
    cap: f64,
) -> Option<f64> {
    scratch.restart(src, scratch.h[src]);
    let KspScratch {
        dist,
        touched,
        heap,
        edge_ban,
        node_ban,
        out_off,
        out_adj,
        h,
        #[cfg(test)]
        counts,
        ..
    } = scratch;
    while let Some((f, node)) = heap.pop() {
        count!(counts.pops);
        let g = dist[node];
        if node == dst {
            return Some(g);
        }
        if f > g + h[node] {
            continue;
        }
        for arc in &out_adj[out_off[node] as usize..out_off[node + 1] as usize] {
            let next = arc.node as usize;
            if edge_ban[arc.edge as usize] == ban_epoch
                || node_ban[next] == ban_epoch
                || h[next].is_infinite()
            {
                continue;
            }
            let ng = g + arc.weight;
            let nf = ng + h[next];
            if nf <= cap && ng < dist[next] {
                if dist[next].is_infinite() {
                    touched.push(next);
                }
                dist[next] = ng;
                heap.push(nf, next);
            }
        }
    }
    None
}

/// Masked shortest path over scratch buffers. Edges/nodes whose stamp equals
/// `ban_epoch` are masked out; passing a fresh epoch with nothing stamped
/// runs unmasked. The scratch's reverse tree must be aimed at `dst`, and
/// `bounds` be the [`exit_bounds`] of `src` under the same bans.
///
/// Finds exactly the path a plain `(dist, node)`-ordered Dijkstra with early
/// exit at `dst` finds — see the module docs for why the pruning below
/// cannot change `prev[]` along it. Returns its weight and leaves the path
/// itself in the scratch (see [`KspScratch::joined`]), so the thousands of
/// spur searches that only re-derive a known candidate allocate nothing.
fn search(
    src: NodeId,
    dst: NodeId,
    scratch: &mut KspScratch,
    ban_epoch: u32,
    bounds: (f64, f64),
) -> Option<f64> {
    count!(scratch.counts.searches);
    let optimum = masked_optimum(src, dst, scratch, ban_epoch, bounds)?;
    let bound = optimum * (1.0 + BOUND_SLACK);
    scratch.restart(src, 0.0);
    let KspScratch {
        dist,
        prev,
        touched,
        heap,
        edge_ban,
        node_ban,
        out_off,
        out_adj,
        h,
        walk_edges,
        #[cfg(test)]
        counts,
        ..
    } = scratch;
    while let Some((d, node)) = heap.pop() {
        count!(counts.pops);
        if node == dst {
            break;
        }
        if d > dist[node] {
            continue;
        }
        for arc in &out_adj[out_off[node] as usize..out_off[node + 1] as usize] {
            let (next, eid) = (arc.node as usize, arc.edge as usize);
            if edge_ban[eid] == ban_epoch || node_ban[next] == ban_epoch {
                continue;
            }
            let nd = d + arc.weight;
            // The only difference from the plain search: this relaxation
            // cannot lie on a path of weight ≤ the optimum.
            if nd + h[next] > bound {
                continue;
            }
            if nd < dist[next] {
                if dist[next].is_infinite() {
                    touched.push(next);
                }
                dist[next] = nd;
                prev[next] = Some((node, eid));
                heap.push(nd, next);
            }
        }
    }
    walk_edges.clear();
    let mut cur = dst;
    while cur != src {
        let (p, e) = prev[cur]?;
        walk_edges.push(e);
        cur = p;
    }
    Some(dist[dst])
}

/// Plain shortest path.
pub fn dijkstra(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    k_shortest_paths(topo, src, dst, 1).pop()
}

/// Hop counts from `src` to every node (BFS, unit weights).
pub fn bfs_hops(topo: &Topology, src: NodeId) -> Vec<Option<usize>> {
    let n = topo.num_nodes();
    let mut hops = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    hops[src] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let d = hops[u].unwrap();
        for &(v, _) in topo.neighbors(u) {
            if hops[v].is_none() {
                hops[v] = Some(d + 1);
                queue.push_back(v);
            }
        }
    }
    hops
}

/// Yen's algorithm: up to `k` loop-free shortest paths from `src` to `dst`.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut scratch = KspScratch::new(topo);
    k_shortest_paths_with(topo, src, dst, k, &mut scratch)
}

/// [`k_shortest_paths`] with caller-provided scratch, so a loop over many
/// queries reuses one set of buffers. The result does not depend on what
/// the scratch was used for before.
pub fn k_shortest_paths_with(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    scratch: &mut KspScratch,
) -> Vec<Path> {
    scratch.bind(topo);
    scratch.aim(dst);
    yen(topo, src, dst, k, scratch)
}

/// The candidate pool's order: by weight, ties by edge list, so it is total
/// (the pool holds no edge list twice) and the pick is deterministic.
fn pool_order(a: &Path, b: &Path) -> Ordering {
    a.weight
        .partial_cmp(&b.weight)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.edges.cmp(&b.edges))
}

/// Yen's algorithm over a scratch bound to `topo` and aimed at `dst`.
fn yen(topo: &Topology, src: NodeId, dst: NodeId, k: usize, scratch: &mut KspScratch) -> Vec<Path> {
    debug_assert_eq!(scratch.target, Some(dst));
    if k == 0 {
        return Vec::new();
    }
    let unmasked = scratch.next_epoch();
    let bounds = exit_bounds(src, dst, scratch, unmasked);
    let Some(weight) = search(src, dst, scratch, unmasked, bounds) else {
        return Vec::new();
    };
    let mut accepted: Vec<Path> = vec![scratch.joined(&[], weight)];
    // Candidate pool, heaviest first in `pool_order`, each candidate with
    // its deviation index (the spur position that produced it); duplicates
    // are filtered on insert.
    let mut candidates: Vec<(Path, usize)> = Vec::new();
    // Deviation index of the newest accepted path. Lawler: a spur position
    // before it has the same root and the same bans as when the path's
    // parent was expanded there, so it would only re-derive a candidate
    // that is already pooled or accepted.
    let mut deviation = 0;

    while accepted.len() < k {
        let prev = accepted.last().unwrap();
        // Picks still to be made, this expansion's included.
        let need = k - accepted.len();
        for i in deviation..prev.edges.len() {
            let spur_node = topo.edge(prev.edges[i]).src;
            let root_edges = &prev.edges[..i];
            let root_weight: f64 = root_edges.iter().map(|&e| topo.edge(e).weight).sum();

            let ban = scratch.ban_root(topo, &accepted, i);
            let bounds = exit_bounds(spur_node, dst, scratch, ban);
            // Every pick takes the pool's lightest, so with `need` strictly
            // lighter candidates pooled whatever this position finds is
            // never picked. A tie with the cutoff is searched: the edge
            // lists decide it.
            if candidates.len() >= need {
                let cutoff = candidates[candidates.len() - need].0.weight;
                if root_weight + bounds.0 > cutoff * (1.0 + BOUND_SLACK) {
                    count!(scratch.counts.pruned);
                    continue;
                }
            }
            if let Some(spur_weight) = search(spur_node, dst, scratch, ban, bounds) {
                let known = |p: &Path| scratch.joins_to(root_edges, &p.edges);
                if !accepted.iter().any(known) && !candidates.iter().any(|(p, _)| known(p)) {
                    let weight = root_weight + spur_weight;
                    let found = scratch.joined(root_edges, weight);
                    let at = candidates
                        .partition_point(|(p, _)| pool_order(p, &found) == Ordering::Greater);
                    candidates.insert(at, (found, i));
                }
            }
        }
        let Some((path, at)) = candidates.pop() else {
            break;
        };
        accepted.push(path);
        deviation = at;
    }
    accepted
}

/// Precomputed candidate paths for a set of demand pairs.
///
/// Alongside the paths themselves, a set flattens the incidence once per
/// direction into shared `Arc<[u32]>` arrays, so an index over the set
/// holds them instead of copying them:
/// * **edge→path**: `e2p_off` offsets into `e2p` path ids — solvers query
///   [`paths_on_edge`](PathSet::paths_on_edge) as a slice, and the ADMM
///   index and FlowGNN's transposed incidence (`teal_core::Env`) hold both
///   arrays through [`edge_path_arena`](PathSet::edge_path_arena);
/// * **path→edge**: `p2e_off`, the prefix sums of the path lengths, which
///   offset any path-major array with one entry per hop. Each path's edge
///   list is that direction's data; FlowGNN's incidence (its edges sorted)
///   and the ADMM index (its edges renumbered to rows) each keep one such
///   array and share these offsets through
///   [`path_edge_offsets`](PathSet::path_edge_offsets).
#[derive(Clone, Debug)]
pub struct PathSet {
    k: usize,
    pairs: Vec<(NodeId, NodeId)>,
    /// `pairs.len() * k` paths, demand-major. Pairs with fewer than `k`
    /// simple paths repeat theirs cyclically.
    paths: Vec<Path>,
    /// Edge-major offsets, one per edge of the topology the set was
    /// computed on plus one: paths crossing edge `e` live at
    /// `e2p[e2p_off[e]..e2p_off[e + 1]]`, ascending.
    e2p_off: Arc<[u32]>,
    /// Flat path-id arena indexed by `e2p_off`.
    e2p: Arc<[u32]>,
    /// Path-major offsets, one per path plus one: path `p`'s hops are
    /// positions `p2e_off[p]..p2e_off[p + 1]` of a path-major array.
    p2e_off: Arc<[u32]>,
}

impl PathSet {
    /// Compute `k` shortest paths per pair, in parallel across pairs.
    /// Panics on a pair with `src == dst`: it has no path of one hop or more.
    pub fn compute(topo: &Topology, pairs: &[(NodeId, NodeId)], k: usize) -> PathSet {
        assert!(k >= 1);
        assert!(pairs.iter().all(|(s, t)| s != t), "a pair has src == dst");
        let chunk_results = parallel_paths(topo, pairs, k, teal_pool::setup_workers());
        let mut paths = Vec::with_capacity(pairs.len() * k);
        for (pair, mut found) in pairs.iter().zip(chunk_results) {
            assert!(
                !found.is_empty(),
                "no path between {} and {} — topology must be connected",
                pair.0,
                pair.1
            );
            let base = found.len();
            for i in base..k {
                let repeat = found[i % base].clone();
                found.push(repeat);
            }
            paths.extend(found.into_iter().take(k));
        }
        PathSet::new(k, pairs.to_vec(), paths, topo.num_edges())
    }

    /// The paths of `demands`, in that order, as a set of their own, without
    /// running KSP. A pair's paths are a pure function of the pair and read
    /// no capacity (see `parallel_paths`), so this equals
    /// [`compute`](Self::compute) over the chosen pairs on this set's
    /// topology or on any twin of it that differs only in capacities.
    pub fn select(&self, demands: &[usize]) -> PathSet {
        let pairs = demands.iter().map(|&d| self.pairs[d]).collect();
        let paths = demands.iter().flat_map(|&d| self.paths_for(d));
        PathSet::new(self.k, pairs, paths.cloned().collect(), self.num_edges())
    }

    /// The set over `paths` (demand-major, `k` per pair), with both
    /// incidence arenas flattened over a topology of `num_edges` edges.
    fn new(k: usize, pairs: Vec<(NodeId, NodeId)>, paths: Vec<Path>, num_edges: usize) -> PathSet {
        // Flatten the edge→path incidence with a counting sort: path-major
        // fill keeps each edge's path-id list ascending.
        let mut e2p_off = vec![0u32; num_edges + 1];
        for p in &paths {
            for &e in &p.edges {
                e2p_off[e + 1] += 1;
            }
        }
        for e in 0..num_edges {
            e2p_off[e + 1] += e2p_off[e];
        }
        let mut cursor: Vec<u32> = e2p_off[..num_edges].to_vec();
        let mut e2p = vec![0u32; e2p_off[num_edges] as usize];
        for (p_idx, p) in paths.iter().enumerate() {
            for &e in &p.edges {
                e2p[cursor[e] as usize] = p_idx as u32;
                cursor[e] += 1;
            }
        }
        let mut p2e_off = Vec::with_capacity(paths.len() + 1);
        p2e_off.push(0u32);
        for p in &paths {
            p2e_off.push(p2e_off[p2e_off.len() - 1] + p.len() as u32);
        }

        PathSet {
            k,
            pairs,
            paths,
            e2p_off: e2p_off.into(),
            e2p: e2p.into(),
            p2e_off: p2e_off.into(),
        }
    }

    /// Paths per demand (always exactly `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The demand pairs, in order.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of demands.
    pub fn num_demands(&self) -> usize {
        self.pairs.len()
    }

    /// Total number of path slots (`num_demands * k`).
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Directed edge count of the topology this set was computed on.
    pub fn num_edges(&self) -> usize {
        self.e2p_off.len() - 1
    }

    /// All paths, demand-major.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The `k` candidate paths of demand `d`.
    pub fn paths_for(&self, d: usize) -> &[Path] {
        &self.paths[d * self.k..(d + 1) * self.k]
    }

    /// The `(path, edge)` entries of the path-edge incidence matrix `A`
    /// (`num_paths` x `num_edges`), `A[p][e] = 1` iff edge `e` lies on path
    /// `p`, path-major in hop order. This is the bipartite structure
    /// FlowGNN's GNN layers message-pass over (§3.2).
    pub fn incidence_entries(&self) -> Vec<(usize, usize)> {
        let mut t = Vec::new();
        for (p_idx, p) in self.paths.iter().enumerate() {
            for &e in &p.edges {
                t.push((p_idx, e));
            }
        }
        t
    }

    /// Path ids crossing directed edge `e`, ascending. Precomputed once at
    /// construction — the inverse of each path's edge list, as a borrow.
    pub fn paths_on_edge(&self, e: EdgeId) -> &[u32] {
        let lo = self.e2p_off[e] as usize;
        let hi = self.e2p_off[e + 1] as usize;
        &self.e2p[lo..hi]
    }

    /// The whole edge→path arena: `num_edges + 1` offsets and the path ids
    /// they index, shared so an index over the set holds them uncopied.
    pub fn edge_path_arena(&self) -> (&Arc<[u32]>, &Arc<[u32]>) {
        (&self.e2p_off, &self.e2p)
    }

    /// The path-major offsets: `num_paths + 1` prefix sums of the path
    /// lengths, so path `p`'s hops are positions
    /// `offsets[p]..offsets[p + 1]` of any path-major per-hop array. Shared
    /// so every such array over the set holds them uncopied.
    pub fn path_edge_offsets(&self) -> &Arc<[u32]> {
        &self.p2e_off
    }
}

/// Pairs a worker claims at a time. Small enough that the last claims
/// balance the workers, large enough that the shared claim counter is
/// touched once per few milliseconds of work.
const CLAIM: usize = 32;

/// Indices of `pairs` grouped by destination (input order within a group),
/// so consecutive visits share one reverse tree.
fn by_destination(pairs: &[(NodeId, NodeId)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&i| (pairs[i].1, i));
    order
}

/// The run of `order` owned by the claim window starting at `lo`: every
/// destination group whose *first* pair lies in the window, whole. A leading
/// run that continues the previous window's destination belongs to that
/// window, and the last group runs past the window's end, so the spans of
/// successive windows tile `order` and no destination's tree is built twice.
fn claim_span(pairs: &[(NodeId, NodeId)], order: &[usize], lo: usize) -> Range<usize> {
    // The first position at or after `at` where a destination group starts.
    let group_start = |mut at: usize| {
        while 0 < at && at < order.len() && pairs[order[at]].1 == pairs[order[at - 1]].1 {
            at += 1;
        }
        at
    };
    group_start(lo)..group_start(order.len().min(lo + CLAIM))
}

/// One worker's loop: claim the next window of `order`, search each pair of
/// its [`claim_span`], collect `(input index, paths)`. Returns when the
/// claims run out.
fn drain_claims(
    topo: &Topology,
    pairs: &[(NodeId, NodeId)],
    order: &[usize],
    k: usize,
    next: &AtomicUsize,
    scratch: &mut KspScratch,
) -> Vec<(usize, Vec<Path>)> {
    scratch.bind(topo);
    let mut found = Vec::new();
    loop {
        let lo = next.fetch_add(CLAIM, Relaxed);
        if lo >= order.len() {
            return found;
        }
        for &i in &order[claim_span(pairs, order, lo)] {
            let (src, dst) = pairs[i];
            if scratch.target != Some(dst) {
                scratch.aim(dst);
            }
            found.push((i, yen(topo, src, dst, k, scratch)));
        }
    }
}

/// Run Yen's per pair on up to `threads` workers of [`teal_pool::map`] (the
/// caller is one of them), returning results in input order.
///
/// Pairs are visited [`by_destination`] so one reverse tree serves all of a
/// destination's pairs. Each worker owns one [`KspScratch`] and its own
/// result list; the only shared write is the claim counter, so the per-pair
/// work is conflict-free and — each pair's result being a pure function of
/// the pair — the output is independent of `threads` and of who claims what.
fn parallel_paths(
    topo: &Topology,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    threads: usize,
) -> Vec<Vec<Path>> {
    let order = by_destination(pairs);
    let next = AtomicUsize::new(0);
    let workers = threads.min(pairs.len().div_ceil(CLAIM)).max(1);
    let per_worker = teal_pool::map(workers, vec![(); workers], &|()| {
        drain_claims(topo, pairs, &order, k, &next, &mut KspScratch::new(topo))
    });
    let mut out: Vec<Vec<Path>> = vec![Vec::new(); pairs.len()];
    for (i, paths) in per_worker.into_iter().flatten() {
        out[i] = paths;
    }
    out
}
