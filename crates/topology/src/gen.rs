//! Seeded topology generators reproducing the five evaluation networks.
//!
//! The paper evaluates on B4, SWAN, UsCarrier, Kdl and an AS-level "ASN"
//! graph (Table 1). The raw files for three of these are external data we do
//! not ship (Topology Zoo, CAIDA) and SWAN is private, so each generator
//! synthesizes a graph matching the published structural profile:
//!
//! * **B4** — the public 12-node / 19-link inter-datacenter WAN, hardcoded;
//! * **SWAN-like** — O(100) nodes, moderate-diameter geometric graph;
//! * **UsCarrier-like / Kdl-like** — sparse, chain-like carrier networks
//!   generated on a long thin strip (Euclidean MST + shortcut links), which
//!   reproduces their unusually high diameters (35 and 58 in Table 3);
//! * **ASN-like** — interconnected star clusters (hub-and-spoke ASes with a
//!   dense hub mesh), reproducing the low diameter (8) despite 1,739 nodes.
//!
//! Every generator accepts a `scale` in (0, 1] that shrinks the node count
//! while preserving structure, so the full pipeline (training included) can
//! run on CPU within a session; the benchmark harness records the scale used.

use crate::graph::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which evaluation network to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopoKind {
    /// Google's B4 (12 nodes, 19 links) — exact, not scaled.
    B4,
    /// Microsoft SWAN-like (O(100) nodes).
    Swan,
    /// Topology-Zoo UsCarrier-like (158 nodes, 189 links).
    UsCarrier,
    /// Topology-Zoo Kdl-like (754 nodes, 895 links).
    Kdl,
    /// CAIDA AS-level-like (1,739 nodes, 4,279 links, star clusters).
    Asn,
}

impl TopoKind {
    /// All five evaluation networks, in the paper's size order.
    pub fn all() -> [TopoKind; 5] {
        [
            TopoKind::B4,
            TopoKind::Swan,
            TopoKind::UsCarrier,
            TopoKind::Kdl,
            TopoKind::Asn,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            TopoKind::B4 => "B4",
            TopoKind::Swan => "SWAN",
            TopoKind::UsCarrier => "UsCarrier",
            TopoKind::Kdl => "Kdl",
            TopoKind::Asn => "ASN",
        }
    }

    /// Full-scale node count from Table 1 (SWAN uses 100 for "O(100)").
    pub fn full_nodes(&self) -> usize {
        match self {
            TopoKind::B4 => 12,
            TopoKind::Swan => 100,
            TopoKind::UsCarrier => 158,
            TopoKind::Kdl => 754,
            TopoKind::Asn => 1739,
        }
    }

    /// Full-scale undirected link count (Table 1 counts directed edges;
    /// these are half of those figures).
    pub fn full_links(&self) -> usize {
        match self {
            TopoKind::B4 => 19,
            TopoKind::Swan => 150,
            TopoKind::UsCarrier => 189,
            TopoKind::Kdl => 895,
            TopoKind::Asn => 4279,
        }
    }
}

/// Generate a topology of the given kind at `scale` in (0, 1].
pub fn generate(kind: TopoKind, scale: f64, seed: u64) -> Topology {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    match kind {
        TopoKind::B4 => b4(),
        TopoKind::Swan => {
            geometric_square("SWAN", scaled(kind, scale), link_target(kind, scale), seed)
        }
        TopoKind::UsCarrier => geometric_strip(
            "UsCarrier",
            scaled(kind, scale),
            link_target(kind, scale),
            4.5,
            0.22,
            seed,
        ),
        TopoKind::Kdl => geometric_strip(
            "Kdl",
            scaled(kind, scale),
            link_target(kind, scale),
            4.5,
            0.12,
            seed,
        ),
        TopoKind::Asn => star_clusters("ASN", scaled(kind, scale), link_target(kind, scale), seed),
    }
}

fn scaled(kind: TopoKind, scale: f64) -> usize {
    ((kind.full_nodes() as f64 * scale).round() as usize).max(6)
}

fn link_target(kind: TopoKind, scale: f64) -> usize {
    let n = scaled(kind, scale);
    // Preserve the full-scale link/node ratio.
    let ratio = kind.full_links() as f64 / kind.full_nodes() as f64;
    ((n as f64 * ratio).round() as usize).max(n)
}

/// Sample a link capacity: log-uniform over [100, 400] units, quantized to
/// 25 to mimic discrete circuit sizes.
fn sample_capacity(rng: &mut StdRng) -> f64 {
    let lo: f64 = 100.0;
    let hi: f64 = 400.0;
    let u: f64 = rng.gen();
    let c = lo * (hi / lo).powf(u);
    (c / 25.0).round() * 25.0
}

/// Google's B4 WAN: 12 datacenter sites, 19 inter-site links, per the
/// published topology figure. Capacities are deterministic so B4 experiments
/// are exactly reproducible without a seed.
pub fn b4() -> Topology {
    let mut t = Topology::new("B4", 12);
    // Approximate site coordinates (used only for latency weights).
    let coords = [
        (0.0, 2.0), // 0
        (0.5, 1.0), // 1
        (1.0, 2.5), // 2
        (1.5, 1.5), // 3
        (2.0, 0.5), // 4
        (2.5, 2.0), // 5
        (3.5, 1.0), // 6
        (4.5, 1.8), // 7
        (5.5, 1.0), // 8
        (6.5, 1.8), // 9
        (7.0, 0.8), // 10
        (7.5, 1.8), // 11
    ];
    for (i, &(x, y)) in coords.iter().enumerate() {
        t.set_coords(i, x, y);
    }
    let links: [(usize, usize, f64); 19] = [
        (0, 1, 200.0),
        (0, 2, 200.0),
        (1, 2, 100.0),
        (1, 3, 200.0),
        (2, 3, 200.0),
        (2, 5, 100.0),
        (3, 4, 200.0),
        (3, 5, 200.0),
        (4, 5, 100.0),
        (4, 6, 200.0),
        (5, 7, 200.0),
        (5, 8, 100.0),
        (6, 7, 200.0),
        (6, 8, 200.0),
        (7, 9, 200.0),
        (8, 9, 100.0),
        (8, 10, 200.0),
        (9, 11, 200.0),
        (10, 11, 200.0),
    ];
    for &(a, b, cap) in &links {
        let (ax, ay) = t.coords(a);
        let (bx, by) = t.coords(b);
        let w = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(0.1);
        t.add_link(a, b, cap, w);
    }
    debug_assert!(t.is_strongly_connected());
    t
}

/// Geometric graph on the unit square: Euclidean MST plus the shortest
/// remaining candidate links until `target_links` is reached.
fn geometric_square(name: &str, n: usize, target_links: usize, seed: u64) -> Topology {
    geometric(name, n, target_links, 1.0, 0.3, seed)
}

/// Geometric graph on a long strip (aspect ratio `stretch` : 1), producing
/// chain-like carrier topologies with high diameter.
fn geometric_strip(
    name: &str,
    n: usize,
    target_links: usize,
    stretch: f64,
    express_frac: f64,
    seed: u64,
) -> Topology {
    geometric(name, n, target_links, stretch, express_frac, seed)
}

fn geometric(
    name: &str,
    n: usize,
    target_links: usize,
    stretch: f64,
    express_frac: f64,
    seed: u64,
) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea1_0001);
    let mut t = Topology::new(name, n);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>() * stretch, rng.gen::<f64>()))
        .collect();
    for (i, &(x, y)) in pts.iter().enumerate() {
        t.set_coords(i, x, y);
    }
    let dist = |a: usize, b: usize| -> f64 {
        let (ax, ay) = pts[a];
        let (bx, by) = pts[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(1e-6)
    };

    // Prim's MST guarantees connectivity with n-1 links.
    let mut in_tree = vec![false; n];
    let mut best = vec![(f64::INFINITY, 0usize); n];
    in_tree[0] = true;
    for (v, b) in best.iter_mut().enumerate().skip(1) {
        *b = (dist(0, v), 0);
    }
    let mut mst_links = Vec::with_capacity(n - 1);
    for _ in 1..n {
        let (v, _) = best
            .iter()
            .enumerate()
            .filter(|(v, _)| !in_tree[*v])
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
            .map(|(v, &(d, _))| (v, d))
            .unwrap();
        in_tree[v] = true;
        mst_links.push((best[v].1, v));
        for u in 0..n {
            if !in_tree[u] {
                let d = dist(v, u);
                if d < best[u].0 {
                    best[u] = (d, v);
                }
            }
        }
    }
    for (a, b) in mst_links {
        t.add_link(a, b, sample_capacity(&mut rng), dist(a, b));
    }

    // Add non-tree links until the target is met: mostly the shortest
    // remaining candidates (local redundancy), plus a fraction of "express"
    // links between distant nodes — carrier networks run long-haul express
    // circuits, and these keep the hop diameter near the real networks'
    // despite the MST's winding local structure.
    let extra = target_links.saturating_sub(n - 1);
    if extra > 0 {
        let express = (extra as f64 * express_frac).round() as usize;
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if !t.has_link(a, b) {
                    candidates.push((dist(a, b), a, b));
                }
            }
        }
        candidates.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for &(d, a, b) in candidates.iter().take(extra - express) {
            t.add_link(a, b, sample_capacity(&mut rng), d);
        }
        // Express links: sample distant pairs uniformly.
        let mut added = 0;
        let mut guard = 0;
        while added < express && guard < express * 200 {
            guard += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !t.has_link(a, b) && dist(a, b) > stretch * 0.15 {
                t.add_link(a, b, sample_capacity(&mut rng) * 2.0, dist(a, b));
                added += 1;
            }
        }
    }
    debug_assert!(t.is_strongly_connected());
    t
}

/// Interconnected star clusters modeling the AS-level graph: a minority of
/// hub nodes forms a dense random mesh; every leaf attaches to one or two
/// hubs. Hub-hub links get a capacity boost, as inter-AS backbones would.
fn star_clusters(name: &str, n: usize, target_links: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea1_0002);
    let mut t = Topology::new(name, n);
    let hubs = (n / 20).max(3); // ~5% of nodes are cluster heads
    for i in 0..n {
        t.set_coords(i, rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0);
    }
    let wdist = |t: &Topology, a: usize, b: usize| -> f64 {
        let (ax, ay) = t.coords(a);
        let (bx, by) = t.coords(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(0.05)
    };

    let mut links = 0usize;
    // Hub ring for guaranteed connectivity.
    for h in 0..hubs {
        let next = (h + 1) % hubs;
        if !t.has_link(h, next) {
            let w = wdist(&t, h, next);
            t.add_link(h, next, sample_capacity(&mut rng) * 4.0, w);
            links += 1;
        }
    }
    // Every leaf homes to one hub; a third of leaves dual-home.
    for leaf in hubs..n {
        let h1 = rng.gen_range(0..hubs);
        let w = wdist(&t, leaf, h1);
        t.add_link(leaf, h1, sample_capacity(&mut rng), w);
        links += 1;
        if rng.gen::<f64>() < 0.34 {
            let h2 = rng.gen_range(0..hubs);
            if h2 != h1 && !t.has_link(leaf, h2) {
                let w2 = wdist(&t, leaf, h2);
                t.add_link(leaf, h2, sample_capacity(&mut rng), w2);
                links += 1;
            }
        }
    }
    // Spend the remaining budget on a dense hub-hub mesh.
    let mut guard = 0;
    while links < target_links && guard < target_links * 50 {
        guard += 1;
        let a = rng.gen_range(0..hubs);
        let b = rng.gen_range(0..hubs);
        if a != b && !t.has_link(a, b) {
            let w = wdist(&t, a, b);
            t.add_link(a, b, sample_capacity(&mut rng) * 4.0, w);
            links += 1;
        }
    }
    debug_assert!(t.is_strongly_connected());
    t
}

#[cfg(test)]
thread_local! {
    /// What the express-mesh loop of this thread's last [`large_wan`] did:
    /// `(draws, hub pairs left open)`.
    static MESH_LOOP: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Deterministic large-WAN generator with a scale-free/HOT-style degree
/// distribution, for paper-scale experiments (256–1,739 nodes, Table 1's
/// Kdl/ASN regime).
///
/// Growth model: nodes arrive at random planar positions and attach to the
/// existing graph by minimizing `distance / sqrt(degree)` — the
/// "heuristically optimal topology" trade-off between link cost (distance)
/// and traffic aggregation (degree). Rich nodes get richer, yielding a
/// heavy-tailed degree distribution with geographic locality; a post-growth
/// express mesh over the top-degree hubs keeps the hop diameter low like the
/// real AS graph. The mesh is sampled by rejection and ends on the draw that
/// meets the link budget or links the last open hub pair, whichever comes
/// first — up to a few hundred nodes the hubs run out of pairs before the
/// budget is met. Capacities follow the usual log-uniform circuit sizes,
/// tiered up on hub-hub links. Connectivity holds by construction (every
/// node attaches to the existing component), and the whole build is a pure
/// function of `(n, seed)`.
pub fn large_wan(n: usize, seed: u64) -> Topology {
    assert!(n >= 8, "large_wan needs at least 8 nodes");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea1_0003);
    let mut t = Topology::new(format!("LargeWAN-{n}"), n);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0))
        .collect();
    for (i, &(x, y)) in pts.iter().enumerate() {
        t.set_coords(i, x, y);
    }
    let dist = |a: usize, b: usize| -> f64 {
        let (ax, ay) = pts[a];
        let (bx, by) = pts[b];
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt().max(0.05)
    };

    // `sqrt_deg[v]` is `sqrt(deg[v])`, kept where `deg` changes, so the
    // growth scan's million-odd scores divide by a stored root.
    let mut deg = vec![0usize; n];
    let mut sqrt_deg = vec![0.0f64; n];
    let add = |t: &mut Topology,
               deg: &mut [usize],
               sqrt_deg: &mut [f64],
               rng: &mut StdRng,
               a: usize,
               b: usize| {
        t.add_link(a, b, sample_capacity(rng), dist(a, b));
        for v in [a, b] {
            deg[v] += 1;
            sqrt_deg[v] = (deg[v] as f64).sqrt();
        }
    };

    // Seed clique: 4 mutually linked sites.
    const M0: usize = 4;
    for a in 0..M0 {
        for b in (a + 1)..M0 {
            add(&mut t, &mut deg, &mut sqrt_deg, &mut rng, a, b);
        }
    }

    // HOT growth: each arrival links to the 1–3 best-scoring existing nodes.
    for i in M0..n {
        // 1–3 uplinks per arrival: stubs, dual-homed sites, rare tri-homed.
        let m = 1 + rng.gen_range(0..2usize) + usize::from(rng.gen::<f64>() < 0.2);
        // The `m` lowest `(score, j)` in ascending order, from one pass:
        // linking `j` moves no score but `j`'s own, and `j` is not linked
        // twice, so these are the picks of `m` successive scans. At least
        // `M0 > 3` earlier nodes exist, so every slot fills.
        let mut best = [(f64::INFINITY, usize::MAX); 3];
        for (j, &root) in sqrt_deg[..i].iter().enumerate() {
            let scored = (dist(i, j) / root, j);
            if scored < best[m - 1] {
                best[m - 1] = scored;
                let mut at = m - 1;
                while at > 0 && best[at] < best[at - 1] {
                    best.swap(at, at - 1);
                    at -= 1;
                }
            }
        }
        for &(_, j) in &best[..m] {
            add(&mut t, &mut deg, &mut sqrt_deg, &mut rng, i, j);
        }
    }

    // Express mesh between the highest-degree hubs until the link budget
    // (~2.4 links per node, the ASN regime) is met or every hub pair is
    // linked. Hub-hub circuits carry aggregated transit, so their capacities
    // are tiered up 4x.
    let target_links = (n as f64 * 2.4).round() as usize;
    let mut hubs: Vec<usize> = (0..n).collect();
    hubs.sort_by(|&a, &b| deg[b].cmp(&deg[a]).then(a.cmp(&b)));
    hubs.truncate((n / 12).max(4));
    // Hub pairs the sampler can still link; at zero it can only reject.
    let mut open = (0..hubs.len())
        .flat_map(|x| (0..x).map(move |y| (x, y)))
        .filter(|&(x, y)| !t.has_link(hubs[x], hubs[y]))
        .count();
    let mut links = t.num_edges() / 2;
    let mut guard = 0;
    while links < target_links && open > 0 && guard < target_links * 100 {
        guard += 1;
        let a = hubs[rng.gen_range(0..hubs.len())];
        let b = hubs[rng.gen_range(0..hubs.len())];
        if a != b && !t.has_link(a, b) {
            t.add_link(a, b, sample_capacity(&mut rng) * 4.0, dist(a, b));
            deg[a] += 1;
            deg[b] += 1;
            links += 1;
            open -= 1;
        }
    }
    #[cfg(test)]
    MESH_LOOP.with(|cell| cell.set((guard, open)));
    debug_assert!(t.is_strongly_connected());
    t
}

/// Deterministic gravity-model demand sampling: `count` distinct ordered
/// pairs drawn with probability proportional to the product of endpoint
/// attachment capacity (each node's total outgoing link capacity), matching
/// how the paper's traffic matrices concentrate on well-provisioned sites.
/// All-pairs demand sets are quadratic in `n` and infeasible at 1,000+
/// nodes; this is the precompute-once subsample the scale pipeline runs on.
pub fn gravity_pairs(topo: &Topology, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let n = topo.num_nodes();
    assert!(n >= 2, "need at least two nodes");
    let max_pairs = n * (n - 1);
    let count = count.min(max_pairs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea1_0004);

    // Node weight = total outgoing capacity; cumulative table for sampling.
    let mut w = vec![0.0f64; n];
    for e in topo.edges() {
        w[e.src] += e.capacity;
    }
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &wi in &w {
        acc += wi.max(1.0);
        cum.push(acc);
    }
    let total = acc;
    let draw = |rng: &mut StdRng| -> usize {
        let x = rng.gen::<f64>() * total;
        cum.partition_point(|&c| c <= x).min(n - 1)
    };

    let mut seen = std::collections::HashSet::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 400 {
        guard += 1;
        let s = draw(&mut rng);
        let t = draw(&mut rng);
        if s != t && seen.insert((s, t)) {
            out.push((s, t));
        }
    }
    // Degenerate weight distributions can stall rejection sampling; fill the
    // remainder deterministically.
    'fill: for s in 0..n {
        if out.len() >= count {
            break 'fill;
        }
        for t in 0..n {
            if out.len() >= count {
                break 'fill;
            }
            if s != t && seen.insert((s, t)) {
                out.push((s, t));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn b4_matches_table1() {
        let t = b4();
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.num_edges(), 38); // 19 links -> 38 directed edges
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn full_scale_counts_match_table1() {
        for kind in [TopoKind::Swan, TopoKind::UsCarrier] {
            let t = generate(kind, 1.0, 42);
            assert_eq!(t.num_nodes(), kind.full_nodes(), "{:?} nodes", kind);
            assert!(
                t.num_edges() >= 2 * kind.full_nodes() - 2,
                "{:?} should at least be a tree",
                kind
            );
        }
    }

    #[test]
    fn scaled_generation_shrinks() {
        let t = generate(TopoKind::Kdl, 0.2, 1);
        assert_eq!(t.num_nodes(), 151);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = generate(TopoKind::Swan, 0.5, 9);
        let b = generate(TopoKind::Swan, 0.5, 9);
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn strip_topologies_have_high_diameter() {
        let us = generate(TopoKind::UsCarrier, 1.0, 3);
        let asn = generate(TopoKind::Asn, 0.3, 3);
        let d_us = stats::hop_diameter(&us);
        let d_asn = stats::hop_diameter(&asn);
        // Chain-like carrier network must be much deeper than the star-cluster
        // AS graph, as in Table 3 (35 vs 8).
        assert!(d_us > 2 * d_asn, "UsCarrier diameter {d_us} vs ASN {d_asn}");
        assert!(d_asn <= 8, "ASN-like diameter should be small, got {d_asn}");
    }

    #[test]
    fn capacities_positive_and_quantized() {
        let t = generate(TopoKind::Swan, 1.0, 7);
        for e in t.edges() {
            assert!(e.capacity >= 100.0);
            assert!((e.capacity / 25.0).fract().abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        let _ = generate(TopoKind::Swan, 0.0, 1);
    }

    #[test]
    fn large_wan_same_seed_bitwise_identical() {
        let a = large_wan(256, 17);
        let b = large_wan(256, 17);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea, eb); // src, dst, capacity, weight — exact
        }
        for n in 0..a.num_nodes() {
            assert_eq!(a.coords(n), b.coords(n));
        }
        // Path sets over the same pairs are bitwise identical too.
        let pairs = gravity_pairs(&a, 96, 5);
        assert_eq!(pairs, gravity_pairs(&b, 96, 5));
        let pa = crate::paths::PathSet::compute(&a, &pairs, 4);
        let pb = crate::paths::PathSet::compute(&b, &pairs, 4);
        for (x, y) in pa.paths().iter().zip(pb.paths()) {
            assert!(x.nodes(&a).eq(y.nodes(&b)));
            assert_eq!(x.edges, y.edges);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
    }

    /// FNV-1a over every edge's (src, dst, capacity bits, weight bits).
    fn edge_bits_hash(t: &Topology) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in t.edges() {
            let words = [
                e.src as u64,
                e.dst as u64,
                e.capacity.to_bits(),
                e.weight.to_bits(),
            ];
            for b in words.iter().flat_map(|w| w.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn large_wan_edge_list_pinned() {
        // Printed at the commit before the growth loop stopped probing
        // `has_link`: the generator's output must not have moved.
        let t = large_wan(1024, 7);
        assert_eq!(t.num_edges(), 4916);
        assert_eq!(edge_bits_hash(&t), 0xf8c0_3a32_3a70_c6a9);
    }

    #[test]
    fn large_wan_bits_are_pinned() {
        // Printed at the commit before the growth scan kept `sqrt(deg)` per
        // node and one distance row per arrival.
        assert_eq!(edge_bits_hash(&large_wan(64, 7)), 0x0602_095e_1c7c_54e5);
        assert_eq!(edge_bits_hash(&large_wan(256, 7)), 0x13a2_7acb_ab7f_16ad);
    }

    #[test]
    fn large_wan_128_bits_are_pinned() {
        // Printed at the commit before the mesh loop learnt to stop: the size
        // the tests use most, and one whose hubs run out of pairs.
        assert_eq!(edge_bits_hash(&large_wan(128, 7)), 0x16ed_afa2_bbc8_c0ad);
    }

    #[test]
    fn mesh_loop_ends_with_the_last_hub_pair() {
        // Draws, not timings. Up to 256 nodes the hubs are fully meshed short
        // of the link budget, and the loop leaves on the draw that links the
        // last pair instead of rejecting until the guard (budget x 100) runs
        // out; from 512 the budget ends it as before.
        for (n, draws_pinned) in [(64, 36), (128, 228), (256, 1_043), (512, 598), (1024, 864)] {
            let t = large_wan(n, 7);
            let (draws, open) = MESH_LOOP.with(|cell| cell.get());
            let (links, budget) = (t.num_edges() / 2, (n as f64 * 2.4).round() as usize);
            println!("large_wan({n}): {draws} mesh draws, {open} hub pairs open, {links} of {budget} links");
            if n <= 256 {
                assert_eq!(open, 0, "n = {n}");
                assert!(links < budget, "n = {n}");
                assert!(draws * 40 < budget * 100, "n = {n}: {draws} draws");
            } else {
                assert!(open > 0, "n = {n}");
                assert_eq!(links, budget, "n = {n}");
            }
            assert_eq!(draws, draws_pinned, "n = {n}");
        }
    }

    #[test]
    fn large_wan_distinct_seeds_differ() {
        let a = large_wan(256, 1);
        let b = large_wan(256, 2);
        let differs = a.num_edges() != b.num_edges()
            || a.edges().iter().zip(b.edges()).any(|(ea, eb)| ea != eb);
        assert!(differs, "distinct seeds produced identical topologies");
    }

    #[test]
    fn large_wan_structure_and_invariants() {
        for &(n, seed) in &[(256usize, 7u64), (400, 11)] {
            let t = large_wan(n, seed);
            assert_eq!(t.num_nodes(), n);
            assert!(t.is_strongly_connected());
            // Link budget near 2.4 per node (directed edges are double).
            let links = t.num_edges() / 2;
            assert!(
                links >= 2 * n && links <= 3 * n,
                "n={n}: {links} links out of budget"
            );
            // Scale-free flavor: a heavy tail well above the median degree.
            let mut deg = vec![0usize; n];
            for e in t.edges() {
                deg[e.src] += 1;
            }
            let max = *deg.iter().max().unwrap();
            let mut sorted = deg.clone();
            sorted.sort_unstable();
            let median = sorted[n / 2];
            assert!(
                max >= 6 * median.max(1),
                "no hubs: max degree {max}, median {median}"
            );
            // Generated paths satisfy the structural invariants.
            let pairs = gravity_pairs(&t, 2 * n, seed);
            let ps = crate::paths::PathSet::compute(&t, &pairs, 4);
            stats::check_path_set(&t, &ps).unwrap();
        }
    }

    #[test]
    fn gravity_pairs_valid_and_deterministic() {
        let t = large_wan(128, 3);
        let p1 = gravity_pairs(&t, 300, 9);
        let p2 = gravity_pairs(&t, 300, 9);
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 300);
        let mut seen = std::collections::HashSet::new();
        for &(s, d) in &p1 {
            assert!(s < 128 && d < 128 && s != d);
            assert!(seen.insert((s, d)), "duplicate pair");
        }
        // Distinct seeds sample different windows.
        assert_ne!(p1, gravity_pairs(&t, 300, 10));
        // Requesting more than n*(n-1) pairs saturates instead of looping.
        let small = large_wan(8, 1);
        assert_eq!(gravity_pairs(&small, 10_000, 1).len(), 8 * 7);
    }
}
