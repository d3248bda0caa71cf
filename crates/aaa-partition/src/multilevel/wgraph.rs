//! Working representation for the multilevel hierarchy: a weighted graph
//! with vertex weights (collapsed fine vertices) and combined edge weights.

use aaa_graph::GraphStore;
use rustc_hash::FxHashMap;

/// Weighted graph used during coarsening. Vertex `v` represents
/// `vwgt[v]` original vertices; parallel fine edges are merged with summed
/// weights; no self edges are stored.
#[derive(Debug, Clone)]
pub(crate) struct WGraph {
    pub vwgt: Vec<u64>,
    pub adj: Vec<Vec<(u32, u64)>>,
}

impl WGraph {
    pub(crate) fn from_store<G: GraphStore>(g: &G) -> Self {
        let n = g.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for v in g.vertices() {
            adj[v as usize] = g.successors(v).map(|(t, w)| (t, w as u64)).collect();
        }
        Self { vwgt: vec![1; n], adj }
    }

    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.vwgt.len()
    }

    pub(crate) fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }
}

/// Maximum allowed part load for balance factor `epsilon`.
pub(crate) fn max_load(total: u64, k: usize, epsilon: f64) -> u64 {
    let ideal = total as f64 / k as f64;
    (ideal * (1.0 + epsilon)).ceil() as u64 + 1
}

/// Builds the coarse graph for a fine graph and a fine→coarse map.
pub(crate) fn coarsen(fine: &WGraph, map: &[u32]) -> WGraph {
    let nc = map.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut vwgt = vec![0u64; nc];
    for (v, &c) in map.iter().enumerate() {
        vwgt[c as usize] += fine.vwgt[v];
    }
    // Group fine vertices by coarse id so each coarse adjacency is built
    // from its members alone.
    let mut members = vec![Vec::new(); nc];
    for (v, &c) in map.iter().enumerate() {
        members[c as usize].push(v as u32);
    }
    let adj = (0..nc).map(|c| {
        let mut acc: FxHashMap<u32, u64> = FxHashMap::default();
        for &v in &members[c] {
            for &(t, w) in &fine.adj[v as usize] {
                let ct = map[t as usize];
                if ct as usize != c {
                    *acc.entry(ct).or_insert(0) += w;
                }
            }
        }
        let mut list: Vec<(u32, u64)> = acc.into_iter().collect();
        list.sort_unstable(); // deterministic order regardless of hash state
        list
    });
    WGraph { vwgt, adj: adj.collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::AdjGraph;

    fn path4() -> WGraph {
        // 0-1-2-3 path, unit weights.
        let mut g = AdjGraph::with_vertices(4);
        for i in 0..3 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        WGraph::from_store(&g)
    }

    #[test]
    fn from_store_mirrors_structure() {
        let wg = path4();
        assert_eq!(wg.n(), 4);
        assert_eq!(wg.total_vwgt(), 4);
        assert_eq!(wg.adj[1].len(), 2);
    }

    #[test]
    fn coarsen_merges_pairs() {
        let wg = path4();
        // Match (0,1) -> 0 and (2,3) -> 1.
        let coarse = coarsen(&wg, &[0, 0, 1, 1]);
        assert_eq!(coarse.n(), 2);
        assert_eq!(coarse.vwgt, vec![2, 2]);
        // Single surviving edge 1-2 becomes coarse edge 0-1 of weight 1.
        assert_eq!(coarse.adj[0], vec![(1, 1)]);
        assert_eq!(coarse.adj[1], vec![(0, 1)]);
    }

    #[test]
    fn coarsen_sums_parallel_edges() {
        // Square 0-1-2-3-0: matching (0,1) and (2,3) leaves two cross edges
        // (1-2 and 3-0) that merge into one coarse edge of weight 2.
        let mut g = AdjGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let coarse = coarsen(&WGraph::from_store(&g), &[0, 0, 1, 1]);
        assert_eq!(coarse.adj[0], vec![(1, 2)]);
    }

    #[test]
    fn max_load_bounds() {
        assert!(max_load(100, 4, 0.0) >= 25);
        assert!(max_load(100, 4, 0.05) >= 26);
        assert!(max_load(0, 4, 0.05) >= 1);
    }
}
