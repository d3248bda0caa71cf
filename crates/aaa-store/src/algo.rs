//! Graph algorithms generic over any [`GraphStore`] backend.
//!
//! These mirror the CSR reference kernels in `aaa-graph::sssp` /
//! `aaa-graph::closeness` exactly — distances are integers and closeness
//! reuses [`aaa_graph::closeness::closeness_from_row`], so every backend
//! produces bit-identical results (the equivalence suite relies on this).

use crate::GraphStore;
use aaa_graph::closeness::closeness_from_row;
use aaa_graph::{dist_add, Dist, VertexId, INF};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// BFS hop counts from `source` (`INF` when unreachable). One source at a
/// time: the reference that `aaa_graph::sssp::bfs_rows`, which walks many
/// sources together, is tested against.
pub fn bfs_hops<G: GraphStore>(g: &G, source: VertexId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    if dist.is_empty() {
        return dist;
    }
    dist[source as usize] = 0;
    let mut queue = vec![source];
    // Every vertex enters the queue at most once, so a cursor into the
    // growing list is the whole FIFO.
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let d = dist[v as usize];
        for (t, _) in g.successors(v) {
            if dist[t as usize] == INF {
                dist[t as usize] = d + 1;
                queue.push(t);
            }
        }
    }
    dist
}

/// Dijkstra from `source`, writing into a caller-provided buffer (reset to
/// `INF`); the hot loop for closeness over any backend.
pub fn dijkstra_into<G: GraphStore>(g: &G, source: VertexId, dist: &mut [Dist]) {
    debug_assert_eq!(dist.len(), g.num_vertices());
    dist.fill(INF);
    if g.num_vertices() == 0 {
        return;
    }
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for (t, w) in g.successors(v) {
            let nd = dist_add(d, w as Dist);
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse((nd, t)));
            }
        }
    }
}

/// Dijkstra from `source` over any backend.
pub fn dijkstra<G: GraphStore>(g: &G, source: VertexId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    dijkstra_into(g, source, &mut dist);
    dist
}

/// Exact closeness of every vertex via parallel per-source Dijkstra.
/// Matches `aaa_graph::closeness::closeness_exact` value-for-value.
pub fn closeness_exact<G: GraphStore + Sync>(g: &G) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n)
        .into_par_iter()
        .map_init(
            || vec![INF; n],
            |buf, s| {
                dijkstra_into(g, s as VertexId, buf);
                closeness_from_row(buf)
            },
        )
        .collect()
}

/// Exact Brandes betweenness over any backend, with deterministic
/// `(distance, id)` tie-breaks — bit-identical to
/// `aaa_graph::centrality::betweenness_exact_det` on the same edge set.
///
/// Per-source rows are computed in parallel and lent to
/// [`aaa_graph::centrality::betweenness_from_rows`], which runs them
/// through the batched kernel and sums the dependency vectors sequentially
/// in increasing source order, so the result is a bit-exact function of
/// the graph alone (no reduction-order dependence). This is the
/// `recompute_exact` oracle for the engine's incremental betweenness
/// metric.
pub fn betweenness_exact<G: GraphStore + Sync>(g: &G) -> Vec<f64> {
    let n = g.num_vertices();
    let rows: Vec<Vec<Dist>> = (0..n).into_par_iter().map(|s| dijkstra(g, s as VertexId)).collect();
    aaa_graph::centrality::betweenness_from_rows(
        n,
        |s| rows[s as usize].as_slice(),
        |v| g.successors(v),
    )
}

/// Worklist (Bellman-Ford-style) single-source relaxation to a fixed point.
///
/// This is the anytime-convergence kernel used on graphs too large for the
/// engine's dense distance-vector state: each round relaxes the frontier of
/// vertices whose distance improved, and the fixed point equals the
/// Dijkstra distances. Returns `(distances, rounds)`.
pub fn sssp_fixed_point<G: GraphStore>(g: &G, source: VertexId) -> (Vec<Dist>, usize) {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    if n == 0 {
        return (dist, 0);
    }
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut queued = vec![false; n];
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            queued[v as usize] = false;
            let d = dist[v as usize];
            for (t, w) in g.successors(v) {
                let nd = dist_add(d, w as Dist);
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    if !queued[t as usize] {
                        queued[t as usize] = true;
                        next.push(t);
                    }
                }
            }
        }
        frontier = next;
    }
    (dist, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompressedGraph;
    use aaa_graph::AdjGraph;

    fn weighted_sample() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(6);
        for (u, v, w) in [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 2), (4, 5, 1)] {
            g.add_edge(u, v, w).unwrap();
        }
        g
    }

    #[test]
    fn matches_csr_reference_kernels() {
        let g = weighted_sample();
        let csr = aaa_graph::Csr::from_adj(&g);
        for s in 0..6 {
            assert_eq!(dijkstra(&g, s), aaa_graph::sssp::dijkstra(&csr, s));
            assert_eq!(bfs_hops(&g, s), aaa_graph::sssp::bfs(&csr, s));
        }
        assert_eq!(closeness_exact(&g), aaa_graph::closeness::closeness_exact(&csr));
    }

    #[test]
    fn betweenness_exact_matches_deterministic_oracle_bitwise() {
        let g = weighted_sample();
        let csr = aaa_graph::Csr::from_adj(&g);
        let oracle = aaa_graph::centrality::betweenness_exact_det(&csr);
        assert_eq!(betweenness_exact(&g), oracle);
        let c = CompressedGraph::from_store(&g).unwrap();
        assert_eq!(betweenness_exact(&c), oracle);
        assert!(betweenness_exact(&AdjGraph::new()).is_empty());
    }

    #[test]
    fn fixed_point_equals_dijkstra_on_all_backends() {
        let g = weighted_sample();
        let c = CompressedGraph::from_store(&g).unwrap();
        for s in 0..6 {
            let exact = dijkstra(&g, s);
            let (fp, rounds) = sssp_fixed_point(&c, s);
            assert_eq!(fp, exact, "source {s}");
            assert!(rounds >= 1);
        }
    }

    #[test]
    fn empty_graph() {
        let g = AdjGraph::new();
        assert!(dijkstra(&g, 0).is_empty());
        assert!(bfs_hops(&g, 0).is_empty());
        assert_eq!(sssp_fixed_point(&g, 0).1, 0);
    }
}
