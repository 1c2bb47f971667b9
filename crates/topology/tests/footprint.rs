//! Footprint ledger: the live heap a generated topology, its failed-link
//! twin and a path set add, byte for byte, against what the `graph.rs` and
//! `paths.rs` module docs say a `Topology`, a `Path` and a `PathSet` store.
//! A generator's growth slack, a lookup index, a
//! second copy of a path's nodes or of the edge→path arena shows up here as
//! bytes no term accounts for. The set's three incidence arrays (`e2p_off`,
//! `e2p`, the path-major `p2e_off`) are each an `Arc<[u32]>`.
//!
//! It counts live bytes (allocations minus frees) across *all* threads,
//! with the workspace's metering allocator (`teal-meter`), because
//! `PathSet::compute` runs on scoped workers, so it is its own binary with
//! no test harness: nothing else runs while it measures. It prints one
//! ledger line (`--nocapture` is not needed, but harmless).

use std::alloc::Layout;
use std::mem::size_of;
use teal_meter::live_added;
use teal_topology::{b4, gravity_pairs, large_wan, Edge, EdgeId, NodeId, Path, PathSet, Topology};

#[global_allocator]
static METER: teal_meter::Meter = teal_meter::Meter;

/// The heap block of an `Arc<[u32]>` of `n` ids: two counts, then the ids.
fn arc_u32s(n: usize) -> usize {
    Layout::new::<[usize; 2]>()
        .extend(Layout::array::<u32>(n).unwrap())
        .unwrap()
        .0
        .pad_to_align()
        .size()
}

/// What a `Topology` stores: the edge table, adjacency entries (one per
/// edge), per node an adjacency `Vec` header, and the name's bytes.
fn topology_bytes(t: &Topology) -> usize {
    let adjacency: usize = (0..t.num_nodes()).map(|v| t.neighbors(v).len()).sum();
    let per_node = size_of::<Vec<(NodeId, EdgeId)>>();
    t.num_edges() * size_of::<Edge>()
        + adjacency * size_of::<(NodeId, EdgeId)>()
        + t.num_nodes() * per_node
        + t.name().len()
}

fn main() {
    // The first scoped spawn allocates process-lifetime state (the main
    // thread's handle); a B4 path set with more than one claim spawns.
    drop(PathSet::compute(&b4(), &b4().all_pairs(), 4));

    let (small, small_bytes) = live_added(b4);
    let small_want = topology_bytes(&small);
    let (t, t_bytes) = live_added(|| large_wan(256, 7));
    let (n, e) = (t.num_nodes(), t.num_edges());
    let link = &t.edges()[e / 2];
    let (twin, twin_bytes) = live_added(|| t.with_failed_link(link.src, link.dst));
    assert_eq!(twin.edge(e / 2).capacity, 0.0);
    let twin_want = topology_bytes(&t);
    let adjacency: usize = (0..n).map(|v| t.neighbors(v).len()).sum();
    let per_node = size_of::<Vec<(NodeId, EdgeId)>>();

    let pairs = gravity_pairs(&t, 512, 6);
    let (paths, paths_bytes) = live_added(|| PathSet::compute(&t, &pairs, 4));
    let nnz: usize = paths.paths().iter().map(Path::len).sum();
    let e2p = arc_u32s(nnz);
    let e2p_off = arc_u32s(e + 1);
    let p2e_off = arc_u32s(paths.num_paths() + 1);
    let paths_want = paths.num_paths() * size_of::<Path>()
        + nnz * size_of::<EdgeId>()
        + e2p
        + e2p_off
        + p2e_off
        + pairs.len() * size_of::<(NodeId, NodeId)>();

    println!(
        "footprint: B4 generated {small_bytes} B (want {small_want}); {} generated \
         {t_bytes} B, failed-link twin {twin_bytes} B (want {twin_want}: {e} edges x {}, \
         {adjacency} adjacency entries x {}, {n} nodes x {per_node}, {} name bytes); \
         path set of {} pairs {paths_bytes} B (want {paths_want}: {} paths x {}, {nnz} hops x {}, \
         e2p {e2p}, e2p_off {e2p_off}, p2e_off {p2e_off}, pairs {})",
        t.name(),
        size_of::<Edge>(),
        size_of::<(NodeId, EdgeId)>(),
        t.name().len(),
        pairs.len(),
        paths.num_paths(),
        size_of::<Path>(),
        size_of::<EdgeId>(),
        pairs.len() * size_of::<(NodeId, NodeId)>(),
    );
    assert_eq!(small_bytes, small_want, "generated B4");
    assert_eq!(t_bytes, twin_want, "generated large_wan(256, 7)");
    assert_eq!(twin_bytes, twin_want, "failed-link twin");
    assert_eq!(paths_bytes, paths_want, "path set");
}
