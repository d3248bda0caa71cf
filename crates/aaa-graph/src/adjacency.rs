//! Growable undirected weighted adjacency-list graph.
//!
//! This is the mutable graph representation used everywhere a graph can
//! change: the dynamic-update streams of the paper (vertex additions, edge
//! additions/deletions, weight changes) all operate on [`AdjGraph`].
//! Compute-heavy read-only phases snapshot it into a [`crate::Csr`].

use crate::{GraphError, VertexId, Weight};

/// An undirected, weighted graph stored as per-vertex adjacency lists.
///
/// Invariants maintained by every mutating method:
/// * no self-loops,
/// * no parallel edges (at most one `(u, v)` entry),
/// * symmetric adjacency: `v ∈ adj(u)` iff `u ∈ adj(v)` with equal weight,
/// * all edge weights are strictly positive,
/// * each neighbor list is sorted by target id, so every backend
///   (adjacency, CSR) yields the same successor order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjGraph {
    adj: Vec<Vec<(VertexId, Weight)>>,
    num_edges: usize,
}

impl AdjGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], num_edges: 0 }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Appends `k` isolated vertices, returning the id of the first.
    pub fn add_vertices(&mut self, k: usize) -> VertexId {
        let first = self.adj.len() as VertexId;
        self.adj.resize_with(self.adj.len() + k, Vec::new);
        first
    }

    #[inline]
    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.adj.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, len: self.adj.len() })
        }
    }

    /// Position of `t` in the sorted neighbor list of `v`: `Ok(i)` if
    /// present at `i`, `Err(i)` with the insertion point otherwise.
    #[inline]
    fn neighbor_pos(&self, v: VertexId, t: VertexId) -> Result<usize, usize> {
        self.adj[v as usize].binary_search_by_key(&t, |&(n, _)| n)
    }

    /// Adds the undirected edge `(u, v)` with weight `w`.
    ///
    /// Rejects self-loops, duplicates, zero weights and out-of-range ids.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        let Err(i) = self.neighbor_pos(u, v) else {
            return Err(GraphError::DuplicateEdge { u, v });
        };
        let Err(j) = self.neighbor_pos(v, u) else {
            return Err(GraphError::DuplicateEdge { u, v });
        };
        self.adj[u as usize].insert(i, (v, w));
        self.adj[v as usize].insert(j, (u, w));
        self.num_edges += 1;
        Ok(())
    }

    /// Adds `(u, v, w)` if absent; if present keeps the smaller weight.
    /// Returns `true` if the graph changed. Used by generators that may
    /// propose the same pair twice.
    pub fn add_or_min_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        w: Weight,
    ) -> Result<bool, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        match self.edge_weight(u, v) {
            None => {
                self.add_edge(u, v, w)?;
                Ok(true)
            }
            Some(old) if w < old => {
                self.set_weight(u, v, w)?;
                Ok(true)
            }
            Some(_) => Ok(false),
        }
    }

    /// Removes the undirected edge `(u, v)`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        match (self.neighbor_pos(u, v), self.neighbor_pos(v, u)) {
            (Ok(i), Ok(j)) => {
                self.adj[u as usize].remove(i);
                self.adj[v as usize].remove(j);
                self.num_edges -= 1;
                Ok(())
            }
            _ => Err(GraphError::MissingEdge { u, v }),
        }
    }

    /// Changes the weight of an existing edge.
    pub fn set_weight(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        match (self.neighbor_pos(u, v), self.neighbor_pos(v, u)) {
            (Ok(i), Ok(j)) => {
                self.adj[u as usize][i].1 = w;
                self.adj[v as usize][j].1 = w;
                Ok(())
            }
            _ => Err(GraphError::MissingEdge { u, v }),
        }
    }

    /// True if the edge `(u, v)` exists. O(log deg(u)).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj.get(u as usize).is_some_and(|l| l.binary_search_by_key(&v, |&(n, _)| n).is_ok())
    }

    /// Weight of edge `(u, v)` if present. O(log deg(u)).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let l = self.adj.get(u as usize)?;
        l.binary_search_by_key(&v, |&(n, _)| n).ok().map(|i| l[i].1)
    }

    /// Neighbors of `v` with weights, sorted by neighbor id. Panics on
    /// out-of-range `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, Weight)] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adj.len() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v, w)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, l)| {
            let u = u as VertexId;
            l.iter().filter_map(move |&(v, w)| if u < v { Some((u, v, w)) } else { None })
        })
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_weight(&self) -> u64 {
        self.edges().map(|(_, _, w)| w as u64).sum()
    }

    /// Validates all structural invariants. Intended for tests and debug
    /// assertions; O(V + E·deg).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.adj.len();
        let mut directed = 0usize;
        for (u, l) in self.adj.iter().enumerate() {
            if !l.windows(2).all(|p| p[0].0 < p[1].0) {
                return Err(format!("neighbor list of {u} is not sorted by id"));
            }
            let mut seen = Vec::with_capacity(l.len());
            for &(v, w) in l {
                if v as usize >= n {
                    return Err(format!("vertex {u} has out-of-range neighbor {v}"));
                }
                if v as usize == u {
                    return Err(format!("self-loop on {u}"));
                }
                if w == 0 {
                    return Err(format!("zero-weight edge ({u}, {v})"));
                }
                if seen.contains(&v) {
                    return Err(format!("parallel edge ({u}, {v})"));
                }
                seen.push(v);
                match self.edge_weight(v, u as VertexId) {
                    Some(back) if back == w => {}
                    Some(back) => {
                        return Err(format!("asymmetric weight ({u},{v}): {w} vs {back}"))
                    }
                    None => return Err(format!("missing reverse edge ({v}, {u})")),
                }
                directed += 1;
            }
        }
        if directed != 2 * self.num_edges {
            return Err(format!(
                "edge count mismatch: counted {} directed arcs, expected {}",
                directed,
                2 * self.num_edges
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        g.add_edge(0, 2, 3).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge_weight(2, 1), Some(2));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 2));
        g.validate().unwrap();
    }

    #[test]
    fn rejects_self_loop_duplicate_zero_weight() {
        let mut g = AdjGraph::with_vertices(2);
        assert_eq!(g.add_edge(0, 0, 1), Err(GraphError::SelfLoop { vertex: 0 }));
        assert_eq!(g.add_edge(0, 1, 0), Err(GraphError::ZeroWeight { u: 0, v: 1 }));
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(g.add_edge(1, 0, 2), Err(GraphError::DuplicateEdge { u: 1, v: 0 }));
        assert_eq!(g.add_edge(0, 5, 1), Err(GraphError::VertexOutOfRange { vertex: 5, len: 2 }));
    }

    #[test]
    fn add_or_min_edge_keeps_minimum() {
        let mut g = AdjGraph::with_vertices(2);
        assert!(g.add_or_min_edge(0, 1, 5).unwrap());
        assert!(!g.add_or_min_edge(0, 1, 7).unwrap());
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert!(g.add_or_min_edge(1, 0, 2).unwrap());
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn remove_and_set_weight() {
        let mut g = triangle();
        g.set_weight(0, 1, 9).unwrap();
        assert_eq!(g.edge_weight(1, 0), Some(9));
        g.remove_edge(1, 2).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.remove_edge(1, 2), Err(GraphError::MissingEdge { u: 1, v: 2 }));
        g.validate().unwrap();
    }

    #[test]
    fn vertex_addition_grows_graph() {
        let mut g = triangle();
        let v = g.add_vertices(1);
        assert_eq!(v, 3);
        g.add_edge(v, 0, 4).unwrap();
        assert_eq!(g.degree(v), 1);
        let first = g.add_vertices(3);
        assert_eq!(first, 4);
        assert_eq!(g.num_vertices(), 7);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 3), (1, 2, 2)]);
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn neighbor_lists_stay_sorted() {
        let mut g = AdjGraph::with_vertices(6);
        // Insert around vertex 0 in scrambled order; list must come out sorted.
        for v in [4, 1, 5, 2, 3] {
            g.add_edge(0, v, v).unwrap();
        }
        assert_eq!(g.neighbors(0), &[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        // Order-preserving removal keeps the invariant.
        g.remove_edge(0, 3).unwrap();
        assert_eq!(g.neighbors(0), &[(1, 1), (2, 2), (4, 4), (5, 5)]);
        g.add_or_min_edge(0, 3, 7).unwrap();
        assert_eq!(g.neighbors(0).iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph_behaves() {
        let g = AdjGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
        g.validate().unwrap();
    }
}
