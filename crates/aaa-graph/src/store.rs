//! The [`GraphStore`] contract every graph backend meets, and its
//! implementations for the two plain in-memory backends: the mutable
//! adjacency graph and its CSR snapshot. Both keep neighbor lists sorted by
//! id, so the contract holds for free. The reference kernels ([`crate::sssp`],
//! [`crate::apsp`], [`crate::closeness`], [`crate::centrality`]) take any
//! backend through it.

use crate::{AdjGraph, Csr, VertexId, Weight};

/// Read-only access to an undirected, positively-weighted graph.
///
/// Contract every backend upholds:
/// * vertex ids are dense in `0..num_vertices()`;
/// * [`GraphStore::successors`] yields neighbors in strictly increasing id
///   order, each with its positive weight;
/// * adjacency is symmetric (`t ∈ succ(v)` ⟺ `v ∈ succ(t)`, equal weight).
pub trait GraphStore {
    /// Sorted successor iterator (a GAT so slice-backed stores can borrow).
    type Succ<'a>: Iterator<Item = (VertexId, Weight)>
    where
        Self: 'a;

    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> usize;

    /// Degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Successors of `v` in strictly increasing id order.
    fn successors(&self, v: VertexId) -> Self::Succ<'_>;

    /// Iterator over the dense vertex-id space.
    fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices() as VertexId
    }
}

/// Each undirected edge exactly once as `(u, v, w)` with `u < v`, ordered
/// by `(u, v)` — the backend-generic analogue of `AdjGraph::edges`.
pub fn edges<G: GraphStore>(g: &G) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
    g.vertices().flat_map(move |u| {
        g.successors(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
    })
}

impl GraphStore for AdjGraph {
    type Succ<'a> = std::iter::Copied<std::slice::Iter<'a, (VertexId, Weight)>>;

    #[inline]
    fn num_vertices(&self) -> usize {
        AdjGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        AdjGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        AdjGraph::degree(self, v)
    }

    #[inline]
    fn successors(&self, v: VertexId) -> Self::Succ<'_> {
        self.neighbors(v).iter().copied()
    }
}

impl GraphStore for Csr {
    type Succ<'a> = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, VertexId>>,
        std::iter::Copied<std::slice::Iter<'a, Weight>>,
    >;

    #[inline]
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        Csr::degree(self, v)
    }

    #[inline]
    fn successors(&self, v: VertexId) -> Self::Succ<'_> {
        self.targets(v).iter().copied().zip(self.weights(v).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(6);
        for (u, v, w) in [(0, 3, 2), (0, 1, 1), (1, 4, 5), (2, 5, 1), (3, 4, 7)] {
            g.add_edge(u, v, w).unwrap();
        }
        g
    }

    fn rows<G: GraphStore>(g: &G) -> Vec<Vec<(VertexId, Weight)>> {
        g.vertices().map(|v| g.successors(v).collect()).collect()
    }

    #[test]
    fn adjacency_and_csr_agree_on_successors() {
        let g = sample();
        let csr = Csr::from_adj(&g);
        assert_eq!(rows(&g), rows(&csr));
        for v in GraphStore::vertices(&g) {
            assert_eq!(GraphStore::degree(&g, v), GraphStore::degree(&csr, v));
        }
        assert_eq!(GraphStore::num_edges(&g), GraphStore::num_edges(&csr));
    }

    #[test]
    fn edges_helper_matches_adjgraph_edges() {
        let mut g = AdjGraph::with_vertices(5);
        for (u, v, w) in [(0, 1, 1), (0, 4, 2), (2, 3, 3), (1, 4, 4)] {
            g.add_edge(u, v, w).unwrap();
        }
        let from_trait: Vec<_> = edges(&g).collect();
        let from_inherent: Vec<_> = g.edges().collect();
        assert_eq!(from_trait, from_inherent);
    }

    #[test]
    fn provided_methods() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(GraphStore::vertices(&g).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
