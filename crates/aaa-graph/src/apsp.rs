//! Reference all-pairs shortest paths.
//!
//! `apsp_dijkstra` is the production reference (parallel over sources, the
//! same structure as the paper's IA phase applied to the whole graph);
//! `floyd_warshall` is a second, independent implementation used to
//! cross-check it in property tests.

use crate::{dist_add, Dist, GraphStore, VertexId, INF};
use rayon::prelude::*;

/// A dense row-major `n × n` distance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistMatrix {
    n: usize,
    data: Vec<Dist>,
}

impl DistMatrix {
    /// Creates an `n × n` matrix filled with `INF` except a zero diagonal.
    pub fn new(n: usize) -> Self {
        let mut data = vec![INF; n * n];
        for v in 0..n {
            data[v * n + v] = 0;
        }
        Self { n, data }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v`.
    #[inline]
    pub fn get(&self, u: VertexId, v: VertexId) -> Dist {
        self.data[u as usize * self.n + v as usize]
    }

    /// Sets the distance from `u` to `v`.
    #[inline]
    pub fn set(&mut self, u: VertexId, v: VertexId, d: Dist) {
        self.data[u as usize * self.n + v as usize] = d;
    }

    /// Row of distances from `u`.
    #[inline]
    pub fn row(&self, u: VertexId) -> &[Dist] {
        &self.data[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// Mutable row of distances from `u`.
    #[inline]
    pub fn row_mut(&mut self, u: VertexId) -> &mut [Dist] {
        &mut self.data[u as usize * self.n..(u as usize + 1) * self.n]
    }
}

/// APSP by running Dijkstra from every source, parallel over sources.
pub fn apsp_dijkstra<G: GraphStore + Sync>(g: &G) -> DistMatrix {
    let n = g.num_vertices();
    let mut m = DistMatrix::new(n);
    // Split the backing storage into rows so rayon can fill them in place.
    m.data.par_chunks_mut(n.max(1)).enumerate().for_each(|(s, row)| {
        if s < n {
            crate::sssp::dijkstra_into(g, s as VertexId, row);
        }
    });
    m
}

/// APSP by the Floyd–Warshall algorithm. O(n³); only for cross-checking on
/// small graphs.
pub fn floyd_warshall<G: GraphStore>(g: &G) -> DistMatrix {
    let n = g.num_vertices();
    let mut m = DistMatrix::new(n);
    for u in 0..n as VertexId {
        for (v, w) in g.successors(u) {
            if (w as Dist) < m.get(u, v) {
                m.set(u, v, w as Dist);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = m.data[i * n + k];
            if dik == INF {
                continue;
            }
            // Split borrows: row k is read, row i is written.
            let (head, tail) = m.data.split_at_mut(i.max(k) * n);
            let (row_i, row_k) = if i < k {
                (&mut head[i * n..i * n + n], &tail[..n])
            } else if k < i {
                (&mut tail[..n], &head[k * n..k * n + n])
            } else {
                continue; // i == k never improves anything
            };
            for j in 0..n {
                let via = dist_add(dik, row_k[j]);
                if via < row_i[j] {
                    row_i[j] = via;
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjGraph, Csr};

    fn sample() -> Csr {
        // 0-1 (1), 1-2 (2), 2-3 (1), 0-3 (7): best 0->3 is 4 via 1,2.
        let mut g = AdjGraph::with_vertices(5);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        g.add_edge(2, 3, 1).unwrap();
        g.add_edge(0, 3, 7).unwrap();
        Csr::from_adj(&g)
    }

    #[test]
    fn dijkstra_apsp_is_correct() {
        let m = apsp_dijkstra(&sample());
        assert_eq!(m.get(0, 3), 4);
        assert_eq!(m.get(3, 0), 4);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 4), INF);
        assert_eq!(m.get(4, 4), 0);
    }

    #[test]
    fn floyd_warshall_matches_dijkstra() {
        let g = sample();
        assert_eq!(apsp_dijkstra(&g), floyd_warshall(&g));
    }

    #[test]
    fn symmetric_on_undirected_graphs() {
        let g = sample();
        let m = apsp_dijkstra(&g);
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(m.get(u, v), m.get(v, u));
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let e = Csr::from_adj(&AdjGraph::new());
        assert_eq!(apsp_dijkstra(&e).n(), 0);
        let s = Csr::from_adj(&AdjGraph::with_vertices(1));
        let m = apsp_dijkstra(&s);
        assert_eq!(m.get(0, 0), 0);
    }
}
