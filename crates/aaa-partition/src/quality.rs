//! Partition quality metrics: cut size, balance, boundary structure.
//!
//! These are the quantities the paper's analysis is written in terms of —
//! cut-edges drive communication volume (§IV.C) and vertex balance drives
//! computational load (§IV.C.1a). Figure 7 is reproduced entirely from
//! these functions.

use crate::Partition;
use aaa_graph::{edges, GraphStore, VertexId};

/// Number of cut edges (edges whose endpoints lie in different parts).
pub fn cut_edges<G: GraphStore>(g: &G, p: &Partition) -> usize {
    edges(g).filter(|&(u, v, _)| p.part_of(u) != p.part_of(v)).count()
}

/// Total weight of cut edges.
pub fn cut_weight<G: GraphStore>(g: &G, p: &Partition) -> u64 {
    edges(g).filter(|&(u, v, _)| p.part_of(u) != p.part_of(v)).map(|(_, _, w)| w as u64).sum()
}

/// Per-part cut size: number of cut edges incident to each part.
/// (The paper calls this the "cut-size of a sub-graph".)
pub fn per_part_cut<G: GraphStore>(g: &G, p: &Partition) -> Vec<usize> {
    let mut cut = vec![0usize; p.k()];
    for (u, v, _) in edges(g) {
        let (pu, pv) = (p.part_of(u), p.part_of(v));
        if pu != pv {
            cut[pu as usize] += 1;
            cut[pv as usize] += 1;
        }
    }
    cut
}

/// Vertex balance: `max part size / ceil(n / k)`. 1.0 is perfect; higher
/// means the largest part is overloaded. Returns 1.0 for empty partitions.
pub fn vertex_balance(p: &Partition) -> f64 {
    if p.is_empty() {
        return 1.0;
    }
    let sizes = p.part_sizes();
    let max = *sizes.iter().max().unwrap() as f64;
    let ideal = (p.len() as f64 / p.k() as f64).ceil();
    if ideal == 0.0 {
        1.0
    } else {
        max / ideal
    }
}

/// Edge balance: `max part edge-endpoints / ideal`. Edges internal to a part
/// count twice for that part; cut edges count once for each side. Gauges
/// communication/computation skew from edge distribution.
pub fn edge_balance<G: GraphStore>(g: &G, p: &Partition) -> f64 {
    if g.num_edges() == 0 || p.k() == 0 {
        return 1.0;
    }
    let mut load = vec![0usize; p.k()];
    for (u, v, _) in edges(g) {
        load[p.part_of(u) as usize] += 1;
        load[p.part_of(v) as usize] += 1;
    }
    let max = *load.iter().max().unwrap() as f64;
    let ideal = (2.0 * g.num_edges() as f64 / p.k() as f64).max(1.0);
    max / ideal
}

/// Boundary vertices of each part: vertices with at least one neighbor in a
/// different part. These are the vertices whose distance vectors are
/// exchanged each recombination step.
pub fn boundary_vertices<G: GraphStore>(g: &G, p: &Partition) -> Vec<Vec<VertexId>> {
    let mut out = vec![Vec::new(); p.k()];
    for v in g.vertices() {
        let pv = p.part_of(v);
        if g.successors(v).any(|(t, _)| p.part_of(t) != pv) {
            out[pv as usize].push(v);
        }
    }
    out
}

/// Counts how many *new* cut edges `edges` would add under partition `p`
/// (endpoints outside `p`'s range are ignored). Used by Figure 7 to score
/// processor-assignment strategies.
pub fn new_cut_edges(p: &Partition, edges: &[(VertexId, VertexId)]) -> usize {
    edges
        .iter()
        .filter(|&&(u, v)| {
            (u as usize) < p.len() && (v as usize) < p.len() && p.part_of(u) != p.part_of(v)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use aaa_graph::AdjGraph;

    fn square() -> AdjGraph {
        // 0-1, 1-2, 2-3, 3-0 (cycle)
        let mut g = AdjGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v, 2).unwrap();
        }
        g
    }

    #[test]
    fn cut_metrics_on_split_square() {
        let g = square();
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(cut_edges(&g, &p), 2); // 1-2 and 3-0
        assert_eq!(cut_weight(&g, &p), 4);
        assert_eq!(per_part_cut(&g, &p), vec![2, 2]);
    }

    #[test]
    fn balance_metrics() {
        let p = Partition::new(vec![0, 0, 0, 1], 2).unwrap();
        assert!((vertex_balance(&p) - 1.5).abs() < 1e-12);
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        assert!((vertex_balance(&p) - 1.0).abs() < 1e-12);
        let g = square();
        assert!((edge_balance(&g, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_vertices_of_split_square() {
        let g = square();
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        let b = boundary_vertices(&g, &p);
        assert_eq!(b[0], vec![0, 1]);
        assert_eq!(b[1], vec![2, 3]);
        // One part only: nothing is boundary.
        let p1 = Partition::new(vec![0, 0, 0, 0], 1).unwrap();
        assert!(boundary_vertices(&g, &p1).iter().all(|b| b.is_empty()));
    }

    #[test]
    fn new_cut_edges_counts_cross_part_pairs() {
        let p = Partition::new(vec![0, 1, 0], 2).unwrap();
        let edges = [(0, 1), (0, 2), (1, 2), (0, 9)];
        // (0,1) cut, (0,2) same, (1,2) cut, (0,9) out of range -> ignored
        assert_eq!(new_cut_edges(&p, &edges), 2);
    }

    #[test]
    fn empty_partition_degenerates_gracefully() {
        let p = Partition::new(vec![], 3).unwrap();
        assert_eq!(vertex_balance(&p), 1.0);
        let g = AdjGraph::new();
        assert_eq!(cut_edges(&g, &p), 0);
        assert_eq!(edge_balance(&g, &p), 1.0);
    }
}
