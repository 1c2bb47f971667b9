//! Topology statistics reported in Table 3 and Figure 17 of the paper.

use crate::graph::Topology;
use crate::paths::{bfs_hops, PathSet};

/// Hop-count diameter (longest shortest path over all reachable pairs).
pub fn hop_diameter(topo: &Topology) -> usize {
    let mut diam = 0;
    for s in 0..topo.num_nodes() {
        for h in bfs_hops(topo, s).into_iter().flatten() {
            diam = diam.max(h);
        }
    }
    diam
}

/// Mean shortest-path length in hops over all ordered reachable pairs.
pub fn mean_shortest_path(topo: &Topology) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    for s in 0..topo.num_nodes() {
        for (t, h) in bfs_hops(topo, s).into_iter().enumerate() {
            if t != s {
                if let Some(h) = h {
                    total += h;
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Figure 17: for each directed edge, the percentage of demands that are
/// routable on it, i.e. the edge lies on at least one of the demand's
/// preconfigured paths.
///
/// Read off the edge→path arena: an edge's path ids are ascending and
/// demand-major, so its demands are the runs of equal `path / k`.
pub fn routable_demand_share(topo: &Topology, paths: &PathSet) -> Vec<f64> {
    let k = paths.k() as u32;
    let nd = paths.num_demands().max(1) as f64;
    (0..topo.num_edges())
        .map(|e| {
            let demands = paths.paths_on_edge(e).chunk_by(|a, b| a / k == b / k);
            100.0 * demands.count() as f64 / nd
        })
        .collect()
}

/// Structural invariants every generated `(topology, path set)` pair must
/// satisfy. Returns the first violation as a message, `Ok(())` otherwise.
///
/// Checks: the topology is strongly connected; every path slot is
/// non-empty, walks existing edges contiguously, is simple, connects its
/// demand pair (nodes read off its edges, [`crate::Path::nodes`]), and
/// carries the exact sum of its edge weights. The generator regression
/// tests run this over `large_wan` outputs at several seeds and scales.
pub fn check_path_set(topo: &Topology, paths: &PathSet) -> Result<(), String> {
    if !topo.is_strongly_connected() {
        return Err("topology is not strongly connected".into());
    }
    if paths.num_edges() != topo.num_edges() {
        return Err(format!(
            "path set records {} edges, topology has {}",
            paths.num_edges(),
            topo.num_edges()
        ));
    }
    for (d, &(s, t)) in paths.pairs().iter().enumerate() {
        for (j, p) in paths.paths_for(d).iter().enumerate() {
            let tag = |msg: &str| format!("demand {d} ({s}->{t}) path {j}: {msg}");
            if p.is_empty() {
                return Err(tag("empty path"));
            }
            if p.edges.iter().any(|&e| e >= topo.num_edges()) {
                return Err(tag("edge id out of range"));
            }
            if p.edges
                .windows(2)
                .any(|w| topo.edge(w[0]).dst != topo.edge(w[1]).src)
            {
                return Err(tag("an edge does not start where the one before it ends"));
            }
            if !p.is_simple(topo) {
                return Err(tag("path revisits a node"));
            }
            if p.nodes(topo).next() != Some(s) || p.nodes(topo).last() != Some(t) {
                return Err(tag("endpoints do not match the demand pair"));
            }
            let mut weight = 0.0;
            for &e in &p.edges {
                weight += topo.edge(e).weight;
            }
            if (weight - p.weight).abs() > 1e-9 * weight.max(1.0) {
                return Err(tag("stored weight disagrees with edge weights"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::b4;
    use crate::graph::Topology;
    use crate::paths::PathSet;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new("line", n);
        for i in 0..n - 1 {
            t.add_link(i, i + 1, 10.0, 1.0);
        }
        t
    }

    #[test]
    fn diameter_of_line() {
        assert_eq!(hop_diameter(&line(5)), 4);
    }

    #[test]
    fn mean_sp_of_line3() {
        // pairs: (0,1)=1 (0,2)=2 (1,0)=1 (1,2)=1 (2,0)=2 (2,1)=1 -> mean 8/6
        let m = mean_shortest_path(&line(3));
        assert!((m - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn b4_diameter_reasonable() {
        let t = b4();
        let d = hop_diameter(&t);
        assert!((3..=7).contains(&d), "B4 diameter {d}");
    }

    #[test]
    fn routable_share_bounds() {
        let t = b4();
        let ps = PathSet::compute(&t, &t.all_pairs(), 4);
        let share = routable_demand_share(&t, &ps);
        assert_eq!(share.len(), t.num_edges());
        for s in share {
            assert!((0.0..=100.0).contains(&s));
        }
    }
}
