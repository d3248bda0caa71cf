//! Immutable compressed-sparse-row snapshot of a graph.
//!
//! The compute-heavy phases (per-source Dijkstra in the IA phase, reference
//! APSP) traverse the graph millions of times; CSR keeps each vertex's
//! neighbor list contiguous for cache-friendly scans, per the HPC guidance
//! of minimizing cache misses on hot loops.

use crate::{AdjGraph, VertexId, Weight};

/// Compressed-sparse-row view: `offsets[v]..offsets[v+1]` indexes the
/// neighbor/weight arrays of vertex `v`. Undirected edges appear once per
/// direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Snapshots an adjacency graph.
    pub fn from_adj(g: &AdjGraph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.num_edges());
        let mut weights = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for v in 0..n as VertexId {
            for &(t, w) in g.neighbors(v) {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets, weights }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbor ids of `v` as a contiguous slice.
    #[inline]
    pub fn targets(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Edge weights of `v`, parallel to [`Csr::targets`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        &self.weights[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.targets(v).iter().copied().zip(self.weights(v).iter().copied())
    }
}

impl From<&AdjGraph> for Csr {
    fn from(g: &AdjGraph) -> Self {
        Csr::from_adj(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_adjacency() {
        let mut g = AdjGraph::with_vertices(4);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 5).unwrap();
        g.add_edge(0, 3, 2).unwrap();
        let csr = Csr::from_adj(&g);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(2), 1);
        let mut nbrs: Vec<_> = csr.neighbors(0).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(1, 1), (3, 2)]);
        assert_eq!(csr.targets(2), &[1]);
        assert_eq!(csr.weights(2), &[5]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = AdjGraph::with_vertices(3);
        let csr = Csr::from_adj(&g);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.degree(1), 0);
        assert!(csr.neighbors(1).next().is_none());
    }
}
