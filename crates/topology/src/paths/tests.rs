// `claims_never_split_a_destination` races bare `drain_claims` workers on
// threads of its own, outside `parallel_paths`.
#![allow(clippy::disallowed_methods)]

use super::*;
use crate::gen::{b4, generate, gravity_pairs, large_wan, TopoKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use teal_meter::thread_calls;

// Counts this binary's allocations for `trees_allocate_nothing_once_bound`.
#[global_allocator]
static METER: teal_meter::Meter = teal_meter::Meter;

/// 4-node diamond: 0-1-3 (weights 1+1), 0-2-3 (1+2), 0-3 direct (5).
fn diamond() -> Topology {
    let mut t = Topology::new("diamond", 4);
    t.add_link(0, 1, 10.0, 1.0);
    t.add_link(1, 3, 10.0, 1.0);
    t.add_link(0, 2, 10.0, 1.0);
    t.add_link(2, 3, 10.0, 2.0);
    t.add_link(0, 3, 10.0, 5.0);
    t
}

/// The nodes `p` visits in `topo`, collected.
fn nodes(topo: &Topology, p: &Path) -> Vec<NodeId> {
    p.nodes(topo).collect()
}

/// Exact equality of two path lists on `topo`: nodes (read off the edges),
/// edges, weight bits, order.
fn same_paths(topo: &Topology, got: &[Path], want: &[Path]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} paths, oracle has {}", got.len(), want.len()));
    }
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        if !g.nodes(topo).eq(w.nodes(topo))
            || g.edges != w.edges
            || g.weight.to_bits() != w.weight.to_bits()
        {
            return Err(format!("path {j}: {g:?}, oracle has {w:?}"));
        }
    }
    Ok(())
}

/// The oracle's answer for one query, on a fresh oracle scratch.
fn oracle_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    oracle::k_shortest_paths_with(topo, src, dst, k, &mut oracle::KspScratch::new(topo))
}

/// [`masked_optimum`] under the exit scan [`yen`] would hand it.
fn scanned_optimum(src: NodeId, dst: NodeId, scratch: &mut KspScratch, ban: u32) -> Option<f64> {
    let bounds = exit_bounds(src, dst, scratch, ban);
    masked_optimum(src, dst, scratch, ban, bounds)
}

/// [`search`] under the exit scan [`yen`] would hand it.
fn scanned_search(src: NodeId, dst: NodeId, scratch: &mut KspScratch, ban: u32) -> Option<f64> {
    let bounds = exit_bounds(src, dst, scratch, ban);
    search(src, dst, scratch, ban, bounds)
}

/// FNV-1a over every path's node count, nodes (read off its edges in
/// `topo`), edges and weight bits. The pinned values below were printed by
/// this function at the commit before the searches became goal-directed,
/// when every path stored its node list.
fn path_hash(topo: &Topology, paths: &[Path]) -> u64 {
    fn mix(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in paths {
        mix(&mut h, p.nodes(topo).count() as u64);
        for n in p.nodes(topo) {
            mix(&mut h, n as u64);
        }
        for &e in &p.edges {
            mix(&mut h, e as u64);
        }
        mix(&mut h, p.weight.to_bits());
    }
    h
}

/// Random directed graph built to provoke tie-breaks: every ordered pair gets
/// its own edge with probability `density`, so edges are asymmetric and some
/// pairs are unreachable; weights are small integers (equal-weight paths
/// everywhere), zero included when `zero_weights` is set.
fn tie_heavy_graph(seed: u64, n: usize, density: f64, zero_weights: bool) -> Topology {
    let lightest = if zero_weights { 0 } else { 1 };
    random_graph("ties", seed, n, density, |rng| {
        f64::from(rng.gen_range(lightest..4u32))
    })
}

/// Random directed graph: every ordered pair gets its own edge with
/// probability `density`, weighted by `weight`.
fn random_graph(
    name: &str,
    seed: u64,
    n: usize,
    density: f64,
    mut weight: impl FnMut(&mut StdRng) -> f64,
) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new(name, n);
    for a in 0..n {
        for b in 0..n {
            if a != b && rng.gen::<f64>() < density {
                let w = weight(&mut rng);
                t.add_directed_edge(a, b, 1.0, w);
            }
        }
    }
    t
}

/// Arcs from 1e-9 to 1e3, log-uniform, the first two at the two ends: twelve
/// orders of magnitude, so the tree queue's buckets are `1e3 / n` wide, far
/// wider than the lightest arc.
fn spread_graph(seed: u64, n: usize) -> Topology {
    let mut drawn = 0;
    random_graph("spread", seed, n, 0.2, |rng| {
        drawn += 1;
        match drawn {
            1 => 1e-9,
            2 => 1e3,
            _ => 10f64.powf(rng.gen_range(-9.0..3.0)),
        }
    })
}

/// Every arc weighs zero: the tree queue has no positive width and holds
/// every key in its first bucket, in order.
fn zero_graph(seed: u64, n: usize) -> Topology {
    random_graph("zeros", seed, n, 0.25, |_| 0.0)
}

#[test]
fn dijkstra_picks_lightest() {
    let t = diamond();
    let p = dijkstra(&t, 0, 3).unwrap();
    assert_eq!(nodes(&t, &p), vec![0, 1, 3]);
    assert!((p.weight - 2.0).abs() < 1e-9);
}

#[test]
fn dijkstra_unreachable_none() {
    let mut t = Topology::new("d", 3);
    t.add_link(0, 1, 1.0, 1.0);
    assert!(dijkstra(&t, 0, 2).is_none());
}

#[test]
fn masked_search_respects_bans() {
    let t = diamond();
    let e01 = t.find_edge(0, 1).unwrap();
    let mut scratch = KspScratch::new(&t);
    scratch.bind(&t);
    scratch.aim(3);
    let mut plain = oracle::KspScratch::new(&t);

    // Ban the 0->1 edge: best route becomes 0-2-3 (weight 3).
    let ban = scratch.next_epoch();
    scratch.edge_ban[e01] = ban;
    let w = scanned_search(0, 3, &mut scratch, ban).unwrap();
    let p = scratch.joined(&[], w);
    assert_eq!(nodes(&t, &p), vec![0, 2, 3]);
    let ban = plain.next_epoch();
    plain.edge_ban[e01] = ban;
    let q = oracle::dijkstra_scratch(&t, 0, 3, &mut plain, ban).unwrap();
    assert_eq!(p, q);

    // Ban node 1 instead: same result.
    let ban = scratch.next_epoch();
    scratch.node_ban[1] = ban;
    let w = scanned_search(0, 3, &mut scratch, ban).unwrap();
    let p = scratch.joined(&[], w);
    assert_eq!(nodes(&t, &p), vec![0, 2, 3]);
    let ban = plain.next_epoch();
    plain.node_ban[1] = ban;
    let q = oracle::dijkstra_scratch(&t, 0, 3, &mut plain, ban).unwrap();
    assert_eq!(p, q);
}

#[test]
fn yen_orders_by_weight() {
    let t = diamond();
    let ps = k_shortest_paths(&t, 0, 3, 3);
    assert_eq!(ps.len(), 3);
    assert_eq!(nodes(&t, &ps[0]), vec![0, 1, 3]); // weight 2
    assert_eq!(nodes(&t, &ps[1]), vec![0, 2, 3]); // weight 3
    assert_eq!(nodes(&t, &ps[2]), vec![0, 3]); // weight 5
    assert!(ps.windows(2).all(|w| w[0].weight <= w[1].weight));
    assert!(ps.iter().all(|p| p.is_simple(&t)));
}

#[test]
fn yen_handles_fewer_than_k() {
    let mut t = Topology::new("line", 3);
    t.add_link(0, 1, 1.0, 1.0);
    t.add_link(1, 2, 1.0, 1.0);
    let ps = k_shortest_paths(&t, 0, 2, 4);
    assert_eq!(ps.len(), 1); // only one simple path exists
}

#[test]
fn one_way_chain_is_routable() {
    // 0 -> 1 -> 2 with no way back: a reverse tree built on out-edges finds
    // nothing reachable from 2 and would report no path at all.
    let mut t = Topology::new("chain", 3);
    t.add_directed_edge(0, 1, 1.0, 1.0);
    t.add_directed_edge(1, 2, 1.0, 1.0);
    let ps = k_shortest_paths(&t, 0, 2, 2);
    assert_eq!(ps.len(), 1);
    assert_eq!(nodes(&t, &ps[0]), vec![0, 1, 2]);
    assert!(k_shortest_paths(&t, 2, 0, 2).is_empty());
}

#[test]
fn scratch_reuse_matches_fresh_scratch() {
    // One scratch across many (src, dst, k) queries must give the same
    // answers as a fresh scratch per query.
    let t = diamond();
    let mut shared = KspScratch::new(&t);
    for s in 0..4 {
        for d in 0..4 {
            if s == d {
                continue;
            }
            for k in 1..=4 {
                let a = k_shortest_paths_with(&t, s, d, k, &mut shared);
                same_paths(&t, &a, &k_shortest_paths(&t, s, d, k)).unwrap();
            }
        }
    }
}

#[test]
fn scratch_reuse_across_topologies_matches_fresh_scratch() {
    // Same node ids and the same destination, different graphs: a reverse
    // tree keyed on the destination alone would carry over and mis-bound
    // the second graph's searches.
    let a = tie_heavy_graph(1, 12, 0.3, false);
    let b = tie_heavy_graph(2, 12, 0.3, false);
    let wan = large_wan(64, 3);
    let (x, y) = {
        let e = &wan.edges()[0];
        (e.src, e.dst)
    };
    let failed = wan.with_failed_link(x, y);
    let mut shared = KspScratch::new(&a);
    for dst in 0..12 {
        for src in 0..12 {
            for topo in [&a, &b, &wan, &failed] {
                let got = k_shortest_paths_with(topo, src, dst, 4, &mut shared);
                same_paths(topo, &got, &k_shortest_paths(topo, src, dst, 4)).unwrap();
            }
        }
    }
}

#[test]
fn pathset_pads_to_k() {
    let mut t = Topology::new("line", 3);
    t.add_link(0, 1, 1.0, 1.0);
    t.add_link(1, 2, 1.0, 1.0);
    let ps = PathSet::compute(&t, &[(0, 2), (2, 0)], 4);
    assert_eq!(ps.num_demands(), 2);
    assert_eq!(ps.num_paths(), 8);
    // All 4 slots of demand 0 are the same physical path.
    let d0 = ps.paths_for(0);
    assert!(d0.iter().all(|p| p.edges == d0[0].edges));
}

#[test]
fn incidence_matches_paths() {
    let t = diamond();
    let ps = PathSet::compute(&t, &[(0, 3)], 4);
    let entries = ps.incidence_entries();
    let total_edges: usize = ps.paths().iter().map(|p| p.len()).sum();
    assert_eq!(entries.len(), total_edges);
    for (p_idx, e) in entries {
        assert!(ps.paths()[p_idx].edges.contains(&e));
    }
    // The path-major offsets are the prefix sums of the path lengths.
    let off = ps.path_edge_offsets();
    assert_eq!(off.len(), ps.num_paths() + 1);
    assert_eq!(off[0], 0);
    for (p, w) in off.windows(2).enumerate() {
        assert_eq!((w[1] - w[0]) as usize, ps.paths()[p].len());
    }
}

#[test]
fn flat_edge_index_is_exact_inverse() {
    let t = diamond();
    let ps = PathSet::compute(&t, &[(0, 3), (3, 0)], 4);
    assert_eq!(ps.num_edges(), t.num_edges());
    let mut listed = 0usize;
    for e in 0..t.num_edges() {
        let plist = ps.paths_on_edge(e);
        // Ascending and deduplicated by construction.
        assert!(plist.windows(2).all(|w| w[0] < w[1]));
        for &p in plist {
            assert!(ps.paths()[p as usize].edges.contains(&e));
        }
        listed += plist.len();
    }
    // Every (path, edge) incidence appears exactly once.
    let expected: usize = ps.paths().iter().map(|p| p.len()).sum();
    assert_eq!(listed, expected);
}

#[test]
fn select_equals_compute_over_the_chosen_pairs() {
    let topo = b4();
    let full = PathSet::compute(&topo, &topo.all_pairs(), 4);
    let link = &topo.edges()[0];
    let failed = topo.with_failed_link(link.src, link.dst);
    let chosen = [7, 0, 131, 64, 65, 12];
    let pairs: Vec<(NodeId, NodeId)> = chosen.iter().map(|&d| full.pairs()[d]).collect();
    let got = full.select(&chosen);
    for t in [&topo, &failed] {
        let want = PathSet::compute(t, &pairs, 4);
        assert_eq!(got.k(), want.k());
        assert_eq!(got.pairs(), want.pairs());
        assert_eq!(got.paths(), want.paths());
        assert_eq!(got.edge_path_arena(), want.edge_path_arena());
        assert_eq!(got.path_edge_offsets(), want.path_edge_offsets());
    }
}

#[test]
fn bfs_hops_simple() {
    let t = diamond();
    let hops = bfs_hops(&t, 0);
    assert_eq!(hops[0], Some(0));
    assert_eq!(hops[3], Some(1)); // direct link exists
}

#[test]
fn parallel_matches_serial() {
    // 870 pairs = 28 claims, so every forced worker count really runs that
    // many workers; each must reproduce the one-query-at-a-time answers,
    // in input order, whoever claims what.
    let t = generate(TopoKind::Swan, 0.3, 7);
    let mut pairs = t.all_pairs();
    pairs.reverse(); // not already grouped by destination
    let serial: Vec<Vec<Path>> = pairs
        .iter()
        .map(|&(s, d)| k_shortest_paths(&t, s, d, 4))
        .collect();
    for threads in [1, 2, 3, 5] {
        let got = parallel_paths(&t, &pairs, 4, threads);
        assert_eq!(got.len(), serial.len());
        for (g, w) in got.iter().zip(&serial) {
            same_paths(&t, g, w).unwrap_or_else(|e| panic!("{threads} workers: {e}"));
        }
    }
}

#[test]
fn claims_never_split_a_destination() {
    let swan = generate(TopoKind::Swan, 0.3, 7);
    let mut swan_pairs = swan.all_pairs();
    swan_pairs.reverse();
    let wan = large_wan(256, 7);
    let wan_pairs = gravity_pairs(&wan, 512, 6);
    for (topo, pairs) in [(&swan, &swan_pairs), (&wan, &wan_pairs)] {
        let order = by_destination(pairs);
        let dst = |at: usize| pairs[order[at]].1;
        let groups = 1
            + (1..order.len())
                .filter(|&at| dst(at) != dst(at - 1))
                .count();

        // The spans of successive windows tile `order`, cutting only where
        // the destination changes.
        let mut covered = 0;
        for lo in (0..order.len()).step_by(CLAIM) {
            let span = claim_span(pairs, &order, lo);
            assert_eq!(span.start, covered, "window at {lo}");
            let cut = span.start;
            assert!(cut == 0 || cut == order.len() || dst(cut) != dst(cut - 1));
            covered = span.end;
        }
        assert_eq!(covered, order.len());

        // So whoever claims what, every pair is searched once and a tree is
        // built once per destination.
        for threads in [1, 2, 3, 5] {
            let next = AtomicUsize::new(0);
            let work = || {
                let mut scratch = KspScratch::new(topo);
                let found = drain_claims(topo, pairs, &order, 4, &next, &mut scratch);
                (found, scratch.counts.trees)
            };
            let per_worker: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            let trees: u64 = per_worker.iter().map(|(_, trees)| trees).sum();
            assert_eq!(trees, groups as u64, "{threads} workers");
            let mut seen: Vec<usize> = per_worker
                .iter()
                .flat_map(|(found, _)| found.iter().map(|&(i, _)| i))
                .collect();
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..pairs.len()), "{threads} workers");
        }
    }
}

#[test]
fn pinned_path_hashes() {
    let t = b4();
    let ps = PathSet::compute(&t, &t.all_pairs(), 4);
    assert_eq!(path_hash(&t, ps.paths()), 0xd241_71e8_1928_0267, "B4");
    let t = generate(TopoKind::Swan, 0.3, 7);
    let ps = PathSet::compute(&t, &t.all_pairs(), 4);
    assert_eq!(path_hash(&t, ps.paths()), 0xdf66_0829_7ab5_648a, "Swan 0.3");
    let t = large_wan(256, 7);
    let ps = PathSet::compute(&t, &gravity_pairs(&t, 512, 6), 4);
    assert_eq!(
        path_hash(&t, ps.paths()),
        0xf0be_1ad1_4342_ceef,
        "large_wan(256)"
    );
}

/// What one worker does for a whole `PathSet::compute`, checked equal to
/// the oracle pair by pair, and the oracle's cost for the same pairs:
/// `(goal-directed counts, oracle searches, oracle pops)`.
fn work_counts(topo: &Topology, pairs: &[(NodeId, NodeId)]) -> (Counts, u64, u64) {
    let order = by_destination(pairs);
    let mut scratch = KspScratch::new(topo);
    let found = drain_claims(topo, pairs, &order, 4, &AtomicUsize::new(0), &mut scratch);
    let mut plain = oracle::KspScratch::new(topo);
    for (i, got) in found {
        let (s, d) = pairs[i];
        let want = oracle::k_shortest_paths_with(topo, s, d, 4, &mut plain);
        same_paths(topo, &got, &want).unwrap_or_else(|e| panic!("pair {s}->{d}: {e}"));
    }
    (scratch.counts, plain.searches, plain.pops)
}

#[test]
fn searches_stay_goal_directed() {
    // Counts, not timings: the same pairs cost the flooding oracle several
    // times the heap pops and half as many searches again, and most searches
    // read their optimum off the tree. Fails if the bound stops pruning, the
    // exit scan stops settling or hopeless spur positions are searched again.
    let t = large_wan(256, 7);
    let (ours, searches, pops) = work_counts(&t, &gravity_pairs(&t, 512, 6));
    println!("large_wan(256), 512 pairs: {ours:?}; oracle searches {searches}, pops {pops}");
    assert!(
        ours.searches * 3 < searches * 2,
        "{} searches vs oracle {searches}",
        ours.searches
    );
    assert!(ours.pops * 9 < pops, "{} pops vs oracle {pops}", ours.pops);
    assert!(
        ours.shortcuts * 3 >= ours.searches * 2,
        "{} of {} searches short-cut",
        ours.shortcuts,
        ours.searches
    );
}

#[test]
#[ignore = "1,024-node oracle run: seconds in release, far longer unoptimised"]
fn paper_scale_pinned_hash_and_counts() {
    let t = large_wan(1024, 7);
    let pairs = gravity_pairs(&t, 2048, 6);
    let ps = PathSet::compute(&t, &pairs, 4);
    assert_eq!(path_hash(&t, ps.paths()), 0x1c3c_dbeb_4694_b5fc);
    let nnz: usize = ps.paths().iter().map(|p| p.edges.len()).sum();
    assert_eq!(nnz, 32_041);
    let (ours, searches, pops) = work_counts(&t, &pairs);
    println!("large_wan(1024), 2048 pairs: {ours:?}; oracle searches {searches}, pops {pops}");
    assert_eq!(ours.trees, 444);
    // The counts from when the trees popped a binary heap: the bucket
    // queue pops the same keys in the same order.
    assert_eq!(ours.pops, 495_597);
    assert_eq!(ours.tree_pops, 396_529);
    assert!(
        ours.searches * 3 < searches * 2,
        "{} searches vs oracle {searches}",
        ours.searches
    );
    assert!(ours.pops * 17 < pops, "{} pops vs oracle {pops}", ours.pops);
    assert!(
        ours.shortcuts * 3 >= ours.searches * 2,
        "{} of {} searches short-cut",
        ours.shortcuts,
        ours.searches
    );
}

#[test]
fn pruning_only_removes_searches() {
    // Every spur position Lawler's rule leaves is either searched or pruned,
    // so the two together are the searches of the commit before the rule
    // (its `Counts.searches`, printed there): none added, and — the paths
    // being the oracle's — none that mattered skipped.
    let swan = generate(TopoKind::Swan, 0.3, 7);
    let wan = large_wan(256, 7);
    let cases = [
        ("B4", b4(), b4().all_pairs(), 1_175),
        ("Swan 0.3", swan.clone(), swan.all_pairs(), 11_818),
        (
            "large_wan(256)",
            wan.clone(),
            gravity_pairs(&wan, 512, 6),
            3_993,
        ),
    ];
    for (name, t, pairs, parent_searches) in cases {
        let (ours, ..) = work_counts(&t, &pairs);
        println!("{name}: {ours:?}");
        assert_eq!(ours.searches + ours.pruned, parent_searches, "{name}");
        assert!(ours.pruned > 0, "{name}: the rule never applied");
    }
}

#[test]
fn no_paths_asked_for_none_returned() {
    // The oracle is Yen's as first written — it pushes the shortest path
    // before it looks at `k` — so it is consulted from `k = 1` up.
    let t = diamond();
    for s in 0..4 {
        for d in 0..4 {
            assert!(k_shortest_paths(&t, s, d, 0).is_empty(), "{s}->{d}");
            same_paths(
                &t,
                &k_shortest_paths(&t, s, d, 1),
                &oracle_paths(&t, s, d, 1),
            )
            .unwrap();
        }
    }
}

#[test]
fn spur_tying_the_cutoff_is_searched() {
    // k = 2 from s: after s-a-d (2) the spur at s pools s-b-d (4), and one
    // more pick remains. The spur at a can do no better than s-a-c-d.
    let (s, a, b, c, d) = (0, 1, 2, 3, 4);
    let build = |c_d: f64| {
        let mut t = Topology::new("tie", 5);
        t.add_directed_edge(s, a, 1.0, 1.0);
        t.add_directed_edge(a, d, 1.0, 1.0);
        t.add_directed_edge(s, b, 1.0, 2.0);
        t.add_directed_edge(b, d, 1.0, 2.0);
        t.add_directed_edge(a, c, 1.0, 1.0);
        t.add_directed_edge(c, d, 1.0, c_d);
        t
    };
    let second = |t: &Topology| {
        let mut scratch = KspScratch::new(t);
        let got = k_shortest_paths_with(t, s, d, 2, &mut scratch);
        same_paths(t, &got, &oracle_paths(t, s, d, 2)).unwrap();
        (nodes(t, &got[1]), scratch.counts.pruned)
    };

    // At 4 it ties the pooled candidate exactly and its edge list [0, 4, 5]
    // sorts before [2, 3]: it must be searched, pooled and picked. A
    // non-strict test (`>=`) would skip it.
    assert_eq!(second(&build(2.0)), (vec![s, a, c, d], 0));
    // One heavier and it cannot be picked: skipped, same answer as the oracle.
    assert_eq!(second(&build(3.0)), (vec![s, b, d], 1));
}

#[test]
fn tie_heavy_graphs_match_oracle_under_pruning() {
    // Equal weights everywhere, so candidates tie the cutoff all the time;
    // every ordered pair and `k`, with and without zero weights.
    let mut pruned = 0;
    for seed in 0..12 {
        let t = tie_heavy_graph(seed, 10, 0.35, seed % 2 == 0);
        let mut shared = KspScratch::new(&t);
        for s in 0..10 {
            for d in 0..10 {
                for k in 1..=6 {
                    let got = k_shortest_paths_with(&t, s, d, k, &mut shared);
                    same_paths(&t, &got, &oracle_paths(&t, s, d, k))
                        .unwrap_or_else(|e| panic!("seed {seed} k {k} pair {s}->{d}: {e}"));
                }
            }
        }
        pruned += shared.counts.pruned;
    }
    assert!(pruned > 0, "the rule never applied");
}

/// The sandwich's optimum against the A\* alone (no cap) under one ban set.
fn optimum_matches_astar(scratch: &mut KspScratch, src: NodeId, dst: NodeId, ban: u32) {
    let alone = astar(src, dst, scratch, ban, f64::INFINITY);
    let got = scanned_optimum(src, dst, scratch, ban);
    match (got, alone) {
        (None, None) => {}
        (Some(g), Some(a)) if (g - a).abs() <= a * BOUND_SLACK => {}
        _ => panic!("{src}->{dst}: sandwich {got:?}, A* alone {alone:?}"),
    }
}

/// [`optimum_matches_astar`] at every spur position of every accepted path
/// of every pair, Lawler-skipped ones included, under the bans Yen's stamps
/// there: `(positions replayed, settled without the heap)`.
fn replay_spurs(t: &Topology, pairs: &[(NodeId, NodeId)]) -> (u64, u64) {
    let mut scratch = KspScratch::new(t);
    scratch.bind(t);
    let (mut spurs, mut settled) = (0, 0);
    for &(src, dst) in pairs {
        scratch.aim(dst);
        let accepted = yen(t, src, dst, 4, &mut scratch);
        for (j, prev) in accepted.iter().enumerate() {
            for (i, spur) in prev.nodes(t).enumerate().take(prev.len()) {
                let ban = scratch.ban_root(t, &accepted[..=j], i);
                let before = scratch.counts.shortcuts;
                optimum_matches_astar(&mut scratch, spur, dst, ban);
                settled += scratch.counts.shortcuts - before;
                spurs += 1;
            }
        }
    }
    (spurs, settled)
}

#[test]
fn sandwich_matches_astar_at_every_spur() {
    // B4 has exact ties; the generated WAN has the leaf destinations whose
    // sealed searches answer `None` without a heap (`None ≡ None` included).
    // Both arms ran: some spurs short-cut, some fell back to the heap.
    let t = b4();
    let (spurs, settled) = replay_spurs(&t, &t.all_pairs());
    println!("B4: {spurs} spur positions replayed, {settled} settled by a scan");
    assert!(0 < settled && settled < spurs);
    let t = large_wan(256, 7);
    let (spurs, settled) = replay_spurs(&t, &gravity_pairs(&t, 512, 6));
    println!("large_wan(256): {spurs} spur positions replayed, {settled} settled by a scan");
    assert!(0 < settled && settled < spurs);
}

#[test]
fn sealed_goal_is_refused_without_a_heap() {
    // s - u - dst with a detour s - x - u: `dst` is a leaf behind `u`.
    let (s, u, x, y, dst) = (0, 1, 2, 3, 4);
    let mut t = Topology::new("leaf", 5);
    t.add_link(s, u, 1.0, 1.0);
    t.add_link(u, dst, 1.0, 1.0);
    t.add_link(s, x, 1.0, 1.0);
    t.add_link(x, u, 1.0, 1.0);
    let mut scratch = KspScratch::new(&t);
    scratch.bind(&t);
    scratch.aim(dst);
    let accepted = yen(&t, s, dst, 1, &mut scratch);
    assert_eq!(nodes(&t, &accepted[0]), vec![s, u, dst]);

    // Spur at u: Yen's bans u -> dst and the root node s. The exit to x is
    // open but its tree path comes straight back to u, so the exit scan has
    // a lower bound and no upper one — and every way into dst is banned.
    let ban = scratch.ban_root(&t, &accepted, 1);
    assert_eq!(exit_bounds(u, dst, &scratch, ban), (3.0, f64::INFINITY));
    assert!(goal_sealed(dst, &scratch, ban));
    let (pops, settled) = (scratch.counts.pops, scratch.counts.shortcuts);
    assert_eq!(scanned_optimum(u, dst, &mut scratch, ban), None);
    assert_eq!(scratch.counts.pops, pops, "no heap");
    assert_eq!(scratch.counts.shortcuts, settled + 1);
    assert_eq!(astar(u, dst, &mut scratch, ban, f64::INFINITY), None);
    assert_eq!(scanned_search(u, dst, &mut scratch, ban), None);

    // With only the root node banned, dst's one open in-arc leaves the spur
    // node itself: not sealed, and the exit scan reads the answer.
    let ban = scratch.next_epoch();
    scratch.node_ban[s] = ban;
    assert!(!goal_sealed(dst, &scratch, ban));
    assert_eq!(scanned_optimum(u, dst, &mut scratch, ban), Some(1.0));

    // The twin: a second way in, x - y - dst, longer than x's tree path
    // through u. Same bans, same one-sided exit scan, but dst is open, so the
    // search falls back to the heap and finds the way round.
    t.add_link(x, y, 1.0, 2.0);
    t.add_link(y, dst, 1.0, 2.0);
    scratch.bind(&t);
    scratch.aim(dst);
    let accepted = yen(&t, s, dst, 1, &mut scratch);
    assert_eq!(nodes(&t, &accepted[0]), vec![s, u, dst]);
    let ban = scratch.ban_root(&t, &accepted, 1);
    assert_eq!(exit_bounds(u, dst, &scratch, ban), (3.0, f64::INFINITY));
    assert!(!goal_sealed(dst, &scratch, ban));
    let settled = scratch.counts.shortcuts;
    let got = scanned_optimum(u, dst, &mut scratch, ban);
    assert_eq!(
        scratch.counts.shortcuts, settled,
        "must fall back to the heap"
    );
    assert_eq!(got, Some(5.0));
    assert_eq!(got, astar(u, dst, &mut scratch, ban, f64::INFINITY));
}

/// `(h, hop, pops)` of `dst`'s reverse tree by the plain algorithm: every
/// improved node is queued, dead ends included.
fn full_reverse_tree(scratch: &KspScratch, dst: NodeId) -> (Vec<f64>, Vec<u32>, u64) {
    let n = scratch.in_off.len() - 1;
    let (mut h, mut hop) = (vec![f64::INFINITY; n], vec![u32::MAX; n]);
    let mut heap = MinHeap::default();
    let mut pops = 0;
    h[dst] = 0.0;
    heap.push(0.0, dst);
    while let Some((d, node)) = heap.pop() {
        pops += 1;
        if d > h[node] {
            continue;
        }
        let (lo, hi) = (scratch.in_off[node], scratch.in_off[node + 1]);
        for arc in &scratch.in_adj[lo as usize..hi as usize] {
            let from = arc.node as usize;
            let nd = d + arc.weight;
            if nd < h[from] {
                h[from] = nd;
                hop[from] = node as u32;
                heap.push(nd, from);
            }
        }
    }
    (h, hop, pops)
}

#[test]
fn reverse_tree_equals_full_dijkstra() {
    // Not queueing a dead-end node changes no distance and no next hop, bit
    // for bit: symmetric graphs with leaves, asymmetric ones with zero
    // weights, a one-way chain where every node has in-degree one, arcs
    // twelve orders of magnitude apart, arcs that all weigh zero, and a
    // carrier whose arcs span more buckets than it has nodes. The bucket
    // queue's ring never has more than `2 (n + 3)` slots.
    let mut chain = Topology::new("chain", 6);
    for v in 0..5 {
        chain.add_directed_edge(v, v + 1, 1.0, 1.0);
    }
    let topos = [
        b4(),
        generate(TopoKind::Swan, 0.3, 7),
        large_wan(256, 7),
        tie_heavy_graph(3, 12, 0.3, true),
        tie_heavy_graph(4, 12, 0.15, true),
        chain,
        spread_graph(8, 40),
        zero_graph(9, 16),
        generate(TopoKind::UsCarrier, 1.0, 42),
    ];
    let (mut ours, mut plain) = (0, 0);
    for t in &topos {
        let mut scratch = KspScratch::new(t);
        scratch.bind(t);
        for dst in 0..t.num_nodes() {
            scratch.aim(dst);
            let (h, hop, pops) = full_reverse_tree(&scratch, dst);
            let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scratch.h), bits(&h), "{} dst {dst}", t.name());
            assert_eq!(scratch.hop, hop, "{} dst {dst}", t.name());
            assert!(
                scratch.tree_queue.heads.len() <= 2 * (t.num_nodes() + 3),
                "{} dst {dst}",
                t.name()
            );
            plain += pops;
        }
        ours += scratch.counts.pops;
    }
    assert!(
        ours < plain,
        "the rule never applied: {ours} pops vs {plain}"
    );
}

#[test]
fn trees_allocate_nothing_once_bound() {
    // The first tree sizes `h` and `hop`; `bind` has reserved the tree
    // queue for the most keys any tree of the topology can push. So every
    // further tree, from any destination, allocates nothing.
    for t in [
        b4(),
        large_wan(256, 7),
        tie_heavy_graph(3, 12, 0.3, true),
        spread_graph(8, 40),
        zero_graph(9, 16),
    ] {
        let mut scratch = KspScratch::new(&t);
        scratch.bind(&t);
        scratch.aim(0);
        let before = thread_calls();
        for dst in (0..t.num_nodes()).rev() {
            scratch.aim(dst);
        }
        assert_eq!(thread_calls() - before, 0, "{}", t.name());
    }
}

/// The tree build as it was before the bucket queue, on the spur searches'
/// binary heap (less its counters): the reference `tree_build_pairs` times
/// and checks [`KspScratch::aim`] against.
fn heap_aim(scratch: &mut KspScratch, dst: NodeId) {
    let KspScratch {
        heap,
        in_off,
        in_adj,
        h,
        hop,
        target,
        ..
    } = scratch;
    let n = in_off.len() - 1;
    h.clear();
    h.resize(n, f64::INFINITY);
    hop.clear();
    hop.resize(n, u32::MAX);
    heap.clear();
    h[dst] = 0.0;
    heap.push(0.0, dst);
    while let Some((d, node)) = heap.pop() {
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
                    heap.push(nd, from);
                }
            }
        }
    }
    *target = Some(dst);
}

/// `(q1, median, q3)` of `xs`.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let at = |q: usize| xs[(xs.len() - 1) * q / 4];
    (at(1), at(2), at(3))
}

#[test]
#[ignore = "timing probe over paper-scale topologies: meaningful in release only"]
fn tree_build_pairs() {
    // The reverse trees `PathSet::compute` builds for 2,048 gravity pairs,
    // on one thread: the bucket queue against the heap, in alternating pairs
    // of whole sweeps. `large_wan(1024)` (444 trees) and the four generated
    // evaluation topologies at full scale, whose arcs span up to ~3,100 of
    // their lightest. Asserts only equal bits.
    let t = large_wan(1024, 7);
    assert_eq!(tree_destinations(&t).len(), 444);
    tree_pairs("large_wan(1024)", &t);
    for kind in [
        TopoKind::Swan,
        TopoKind::UsCarrier,
        TopoKind::Kdl,
        TopoKind::Asn,
    ] {
        tree_pairs(kind.name(), &generate(kind, 1.0, 42));
    }
}

/// The distinct destinations of 2,048 gravity pairs on `t`, ascending.
fn tree_destinations(t: &Topology) -> Vec<NodeId> {
    let mut dsts: Vec<NodeId> = gravity_pairs(t, 2048, 6).iter().map(|p| p.1).collect();
    dsts.sort_unstable();
    dsts.dedup();
    dsts
}

/// One topology of [`tree_build_pairs`]: checks the two builds' bits tree by
/// tree, then times 15 alternating pairs of sweeps and prints quartiles, the
/// median ratio and how far the trees reach in buckets.
fn tree_pairs(name: &str, t: &Topology) {
    let dsts = tree_destinations(t);
    let (mut bucket, mut heap) = (KspScratch::new(t), KspScratch::new(t));
    bucket.bind(t);
    heap.bind(t);
    let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut reach = 0.0f64;
    for &dst in &dsts {
        bucket.aim(dst);
        heap_aim(&mut heap, dst);
        assert_eq!(bits(&bucket.h), bits(&heap.h), "{name} dst {dst}");
        assert_eq!(bucket.hop, heap.hop, "{name} dst {dst}");
        let farthest = bucket
            .h
            .iter()
            .filter(|d| d.is_finite())
            .fold(0.0, |a, &d| d.max(a));
        reach = reach.max(farthest * bucket.tree_queue.scale);
    }
    let sweep = |scratch: &mut KspScratch, build: fn(&mut KspScratch, NodeId)| {
        let start = Instant::now();
        for &dst in &dsts {
            build(scratch, dst);
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    let (mut with_buckets, mut with_heap) = (Vec::new(), Vec::new());
    for pair in 0..15 {
        if pair % 2 == 0 {
            with_buckets.push(sweep(&mut bucket, KspScratch::aim));
            with_heap.push(sweep(&mut heap, heap_aim));
        } else {
            with_heap.push(sweep(&mut heap, heap_aim));
            with_buckets.push(sweep(&mut bucket, KspScratch::aim));
        }
    }
    let faster = with_buckets
        .iter()
        .zip(&with_heap)
        .filter(|(b, h)| b < h)
        .count();
    let (b, h) = (quartiles(&with_buckets), quartiles(&with_heap));
    println!(
        "tree_build_pairs: {} trees of {name}, one thread, 15 pairs: \
         bucket queue {:.2}/{:.2}/{:.2} ms, binary heap {:.2}/{:.2}/{:.2} ms (q1/median/q3), \
         median ratio {:.3}, buckets faster in {faster} of 15; \
         trees reach {reach:.0} buckets, ring of {} slots",
        dsts.len(),
        b.0,
        b.1,
        b.2,
        h.0,
        h.1,
        h.2,
        b.1 / h.1,
        bucket.tree_queue.heads.len(),
    );
}

#[test]
fn sandwich_falls_back_and_reports_no_exit() {
    // r -> s -> a, and from a either back through r to t (the tree path,
    // weight 2) or straight to t (4); s -> b -> t is the long way round (10).
    let (r, s, a, b, dst) = (0, 1, 2, 3, 4);
    let mut t = Topology::new("detour", 5);
    t.add_directed_edge(r, s, 1.0, 1.0);
    t.add_directed_edge(s, a, 1.0, 1.0);
    t.add_directed_edge(a, r, 1.0, 1.0);
    t.add_directed_edge(r, dst, 1.0, 1.0);
    let a_dst = t.add_directed_edge(a, dst, 1.0, 4.0);
    t.add_directed_edge(s, b, 1.0, 5.0);
    t.add_directed_edge(b, dst, 1.0, 5.0);
    let mut scratch = KspScratch::new(&t);
    scratch.bind(&t);
    scratch.aim(dst);
    assert_eq!(scanned_optimum(dst, dst, &mut scratch, 0), Some(0.0));

    // Spur at s with root node r banned: the lightest exit's tree path
    // (a -> r -> t) crosses r, the lightest clear one is via b, and the
    // optimum (s -> a -> t, 5) lies strictly between.
    let ban = scratch.next_epoch();
    scratch.node_ban[r] = ban;
    assert_eq!(exit_bounds(s, dst, &scratch, ban), (3.0, 10.0));
    let settled = scratch.counts.shortcuts;
    assert_eq!(scanned_optimum(s, dst, &mut scratch, ban), Some(5.0));
    assert_eq!(
        scratch.counts.shortcuts, settled,
        "must fall back to the heap"
    );
    optimum_matches_astar(&mut scratch, s, dst, ban);
    let w = scanned_search(s, dst, &mut scratch, ban).unwrap();
    assert_eq!(nodes(&t, &scratch.joined(&[], w)), vec![s, a, dst]);

    // Spur at r, nothing banned but the edge r -> t: the only other exit's
    // tree path (s -> a -> r -> t) comes back to r, so there is no upper
    // bound at all and the A* runs uncapped.
    let ban = scratch.next_epoch();
    scratch.edge_ban[t.find_edge(r, dst).unwrap()] = ban;
    assert_eq!(exit_bounds(r, dst, &scratch, ban), (4.0, f64::INFINITY));
    assert_eq!(scanned_optimum(r, dst, &mut scratch, ban), Some(6.0));

    // Spur at a with r banned and a -> t banned: no exit, no heap.
    let ban = scratch.next_epoch();
    scratch.node_ban[r] = ban;
    scratch.edge_ban[a_dst] = ban;
    let settled = scratch.counts.shortcuts;
    assert_eq!(scanned_optimum(a, dst, &mut scratch, ban), None);
    assert_eq!(scratch.counts.shortcuts, settled + 1);
    assert_eq!(scanned_search(a, dst, &mut scratch, ban), None);

    // And the whole of Yen's on it is the oracle's.
    for src in [r, s, a, b] {
        same_paths(
            &t,
            &k_shortest_paths(&t, src, dst, 4),
            &oracle_paths(&t, src, dst, 4),
        )
        .unwrap();
    }
}

#[test]
fn find_edge_and_has_link_equal_a_linear_scan() {
    // The adjacency scan against the edge table itself, for every ordered
    // node pair and one id past the last node (a submitted failed link may
    // name one): symmetric WANs, a failed-link twin (same edges, one pair at
    // zero capacity) and a one-way-heavy graph where `has_link` differs
    // from `find_edge` in one direction.
    let wan = large_wan(256, 7);
    let failed = {
        let e = &wan.edges()[wan.num_edges() / 2];
        wan.with_failed_link(e.src, e.dst)
    };
    let topos = [
        b4(),
        generate(TopoKind::Swan, 0.3, 7),
        wan,
        failed,
        tie_heavy_graph(5, 24, 0.3, true),
    ];
    for t in &topos {
        let scan = |a: NodeId, b: NodeId| t.edges().iter().position(|e| (e.src, e.dst) == (a, b));
        for a in 0..=t.num_nodes() {
            for b in 0..=t.num_nodes() {
                assert_eq!(t.find_edge(a, b), scan(a, b), "{} {a}->{b}", t.name());
                let either = scan(a, b).is_some() || scan(b, a).is_some();
                assert_eq!(t.has_link(a, b), either, "{} {a}-{b}", t.name());
            }
        }
    }
}

#[test]
fn zero_hop_path_yields_no_nodes() {
    // Only a `src == dst` query returns one: no edges, weight zero, and its
    // edges name no node. The oracle returns the same path.
    let t = diamond();
    let ps = k_shortest_paths(&t, 2, 2, 3);
    assert_eq!(
        ps,
        vec![Path {
            edges: Vec::new(),
            weight: 0.0
        }]
    );
    assert_eq!(ps[0].nodes(&t).count(), 0);
    assert!(ps[0].is_simple(&t));
    same_paths(&t, &ps, &oracle_paths(&t, 2, 2, 3)).unwrap();
}

#[test]
#[should_panic(expected = "src == dst")]
fn path_set_refuses_a_zero_hop_pair() {
    let t = diamond();
    let _ = PathSet::compute(&t, &[(0, 3), (1, 1)], 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every query on a tie-heavy asymmetric graph — reachable or not,
    /// `src == dst` included — equals the oracle exactly, through the
    /// single-query entry point and through the parallel driver.
    #[test]
    fn queries_match_oracle(
        seed in 0u64..1_000_000,
        n in 2usize..13,
        density in 0.1f64..0.6,
        zero in 0u8..2,
        k in 1usize..7,
    ) {
        let t = tie_heavy_graph(seed, n, density, zero == 1);
        let mut shared = KspScratch::new(&t);
        let mut pairs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                let want = oracle_paths(&t, s, d, k);
                let got = k_shortest_paths_with(&t, s, d, k, &mut shared);
                if let Err(e) = same_paths(&t, &got, &want) {
                    prop_assert!(false, "seed {} n {} k {} pair {}->{}: {}", seed, n, k, s, d, e);
                }
                pairs.push((s, d));
            }
        }
        let driven = parallel_paths(&t, &pairs, k, 3);
        for (&(s, d), got) in pairs.iter().zip(&driven) {
            if let Err(e) = same_paths(&t, got, &oracle_paths(&t, s, d, k)) {
                prop_assert!(false, "driver: seed {} n {} k {} pair {}->{}: {}", seed, n, k, s, d, e);
            }
        }
    }

    /// Symmetric generated WANs with real-valued weights: the float slack on
    /// the bound must not prune a tight relaxation.
    #[test]
    fn generated_wans_match_oracle(seed in 0u64..1_000_000, n in 16usize..96, k in 1usize..7) {
        let t = large_wan(n, seed);
        let pairs = gravity_pairs(&t, 3 * n, seed ^ 0x55);
        let driven = parallel_paths(&t, &pairs, k, 2);
        for (&(s, d), got) in pairs.iter().zip(&driven) {
            if let Err(e) = same_paths(&t, got, &oracle_paths(&t, s, d, k)) {
                prop_assert!(false, "seed {} n {} k {} pair {}->{}: {}", seed, n, k, s, d, e);
            }
        }
    }
}

/// One draw of [`bucket_queue_pops_in_heap_order`]'s next key, from the
/// heaviest key popped since the last clear, the keys pushed since then and
/// the arc range: never more than `heaviest` past `top`, as in a Dijkstra.
fn next_key(rng: &mut StdRng, top: f64, pushed: &[f64], lightest: f64, heaviest: f64) -> f64 {
    let key = match rng.gen_range(0..7u32) {
        // A zero-weight arc: the cursor's own bucket.
        0 => top,
        // One ulp on.
        1 => f64::from_bits(top.to_bits() + 1),
        2 => top + lightest,
        3 => top + heaviest,
        4 => top + heaviest * rng.gen::<f64>(),
        // Equal keys, and keys behind the cursor.
        5 if !pushed.is_empty() => pushed[rng.gen_range(0..pushed.len())],
        _ => top * rng.gen::<f64>(),
    };
    key.min(top + heaviest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The trees' bucket queue and a [`MinHeap`] fed the same pushes, pops
    /// and clears pop the same keys and nodes, bit for bit: equal keys, zero
    /// and one-ulp increments, steps of exactly the lightest and the heaviest
    /// arc, keys pushed behind the cursor, and cursors many rings past the
    /// start. Arc ranges: a ring of 8 slots, `large_wan`'s, one too wide for
    /// 1,000 buckets of its lightest arc, and no positive arc at all.
    #[test]
    fn bucket_queue_pops_in_heap_order(seed in 0u64..1_000_000, shape in 0usize..4, ops in 1usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lightest, heaviest) = [(1.0, 4.0), (0.05, 4.9), (1e-9, 1e3), (f64::INFINITY, 0.0)][shape];
        let mut queue = BucketQueue::default();
        queue.fit(lightest, heaviest, 1000, 0);
        let mut heap = MinHeap::default();
        let bits = |x: Option<(f64, NodeId)>| x.map(|(d, n)| (d.to_bits(), n));
        let (mut top, mut pushed) = (0.0f64, Vec::new());
        for op in 0..ops {
            let roll = rng.gen::<f64>();
            if roll < 0.01 {
                queue.clear();
                heap.clear();
                top = 0.0;
                pushed.clear();
            } else if roll < 0.6 {
                let key = next_key(&mut rng, top, &pushed, lightest.min(1.0), heaviest);
                let node = rng.gen_range(0..6usize);
                queue.push(key, node);
                heap.push(key, node);
                pushed.push(key);
            } else {
                let (got, want) = (queue.pop(), heap.pop());
                prop_assert_eq!(bits(got), bits(want), "seed {} shape {} op {}", seed, shape, op);
                if let Some((d, _)) = want {
                    top = top.max(d);
                }
            }
            prop_assert!(queue.heads.len() <= 2 * (1000 + 3));
        }
        loop {
            let (got, want) = (queue.pop(), heap.pop());
            prop_assert_eq!(bits(got), bits(want), "seed {} shape {} draining", seed, shape);
            if want.is_none() {
                break;
            }
        }
    }
}
