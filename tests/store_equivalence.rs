//! Backend equivalence for the graph store.
//!
//! Both [`GraphStore`] backends — adjacency lists and their CSR snapshot —
//! must present the *same* graph: identical degrees, identical sorted
//! successor lists, identical BFS, Dijkstra and all-pairs distances,
//! bit-identical closeness and betweenness.

use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::centrality::betweenness_exact_det;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::sssp::{bfs, dijkstra};
use anytime_anywhere::graph::{AdjGraph, Csr, GraphBuilder, GraphStore};
use proptest::prelude::*;

/// An arbitrary simple weighted graph with `n ∈ [2, 40]` vertices.
fn arb_graph() -> impl Strategy<Value = AdjGraph> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..10), 0..(3 * n));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::with_vertices(n);
            for (u, v, w) in edges {
                b.edge(u, v, w);
            }
            b.build().expect("builder output is always valid")
        })
    })
}

fn rows<G: GraphStore>(g: &G) -> Vec<Vec<(u32, u32)>> {
    g.vertices().map(|v| g.successors(v).collect()).collect()
}

/// Asserts two backends present the same graph through every trait surface.
fn assert_equivalent<A: GraphStore + Sync, B: GraphStore + Sync>(a: &A, b: &B) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    for v in a.vertices() {
        assert_eq!(a.degree(v), b.degree(v), "degree of {v}");
    }
    assert_eq!(rows(a), rows(b), "successor lists");
    for v in a.vertices().take(8) {
        assert_eq!(bfs(a, v), bfs(b, v), "bfs from {v}");
        assert_eq!(dijkstra(a, v), dijkstra(b, v), "dijkstra from {v}");
    }
    assert_eq!(apsp_dijkstra(a), apsp_dijkstra(b), "all-pairs distances");
    // Closeness and betweenness are bit-identical across backends (integer
    // distances, one reduction order), so exact equality is the contract,
    // not an approximation.
    assert_eq!(closeness_exact(a), closeness_exact(b));
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(betweenness_exact_det(a)), bits(betweenness_exact_det(b)), "betweenness");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_backends_present_the_same_graph(g in arb_graph()) {
        let csr = Csr::from_adj(&g);
        assert_equivalent(&g, &csr);

        // Sorted-successor invariant (both backends: their rows are equal).
        for (v, row) in rows(&csr).iter().enumerate() {
            prop_assert!(row.windows(2).all(|p| p[0].0 < p[1].0), "row {v} sorted strictly");
        }
    }
}
