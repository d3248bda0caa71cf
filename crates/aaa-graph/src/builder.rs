//! Convenience builder for assembling graphs from edge streams.

use crate::{AdjGraph, GraphError, VertexId, Weight};

/// Accumulates edges (deduplicating, keeping minimum weights) and produces an
/// [`AdjGraph`]. Unlike [`AdjGraph::add_edge`], feeding the same pair twice
/// is not an error here — generators and file readers use this.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder with `n` initial vertices.
    pub fn with_vertices(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Ensures the builder has at least `n` vertices.
    pub fn grow_to(&mut self, n: usize) -> &mut Self {
        self.n = self.n.max(n);
        self
    }

    /// Number of vertices currently declared.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Queues an undirected edge; vertices are grown on demand.
    /// Self-loops are silently dropped (real-world edge lists contain them).
    pub fn edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        if u != v {
            self.n = self.n.max(u.max(v) as usize + 1);
            self.edges.push((u, v, w));
        }
        self
    }

    /// Builds the graph. Duplicate pairs keep the minimum weight.
    /// Zero-weight edges are rejected.
    pub fn build(self) -> Result<AdjGraph, GraphError> {
        let mut g = AdjGraph::with_vertices(self.n);
        for (u, v, w) in self.edges {
            g.add_or_min_edge(u, v, w)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_grows() {
        let mut b = GraphBuilder::with_vertices(2);
        b.edge(0, 1, 3).edge(1, 0, 2).edge(4, 2, 1).edge(3, 3, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert!(g.has_edge(2, 4));
        // self-loop (3,3) dropped
        assert_eq!(g.degree(3), 0);
        g.validate().unwrap();
    }

    #[test]
    fn zero_weight_rejected_at_build() {
        let mut b = GraphBuilder::default();
        b.edge(0, 1, 0);
        assert!(b.build().is_err());
    }
}
