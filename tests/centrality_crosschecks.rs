//! Cross-checks between the SNA measures on generated graphs — the kind of
//! sanity invariants a downstream SNA user relies on.

use anytime_anywhere::graph::centrality::betweenness_exact_det;
use anytime_anywhere::graph::closeness::{closeness_exact, top_k};
use anytime_anywhere::graph::generators::*;
use anytime_anywhere::graph::Csr;

#[test]
fn hubs_dominate_every_centrality_on_scale_free_graphs() {
    let g = barabasi_albert(400, 2, WeightModel::Unit, 3).unwrap();
    let csr = Csr::from_adj(&g);
    let hub = (0..400u32).max_by_key(|&v| csr.degree(v)).unwrap();

    let close = closeness_exact(&csr);
    let betw = betweenness_exact_det(&csr);

    // The top-degree hub should rank inside the top 5 of every measure.
    for (name, values) in [("closeness", &close), ("betweenness", &betw)] {
        let top = top_k(values, 5);
        assert!(top.contains(&hub), "{name}: hub {hub} not in top-5 {top:?}");
    }
}

#[test]
fn betweenness_total_is_bounded_by_pair_count() {
    // Σ betweenness ≤ number of ordered intermediate pair assignments:
    // each unordered pair contributes a total dependency ≤ (path length),
    // but a crude bound suffices: every pair (s,t) distributes exactly
    // (number of intermediate vertices on its shortest paths) ≤ n.
    let g = barabasi_albert(150, 2, WeightModel::Unit, 6).unwrap();
    let csr = Csr::from_adj(&g);
    let b = betweenness_exact_det(&csr);
    let n = 150.0f64;
    let total: f64 = b.iter().sum();
    assert!(total <= n * n * n);
    assert!(b.iter().all(|&x| x >= -1e-9));
}

#[test]
fn centrality_functions_handle_degenerate_graphs() {
    use anytime_anywhere::graph::AdjGraph;
    let empty = Csr::from_adj(&AdjGraph::new());
    assert!(betweenness_exact_det(&empty).is_empty());
    assert!(closeness_exact(&empty).is_empty());
    let single = Csr::from_adj(&AdjGraph::with_vertices(1));
    assert_eq!(betweenness_exact_det(&single), vec![0.0]);
    assert_eq!(closeness_exact(&single), vec![0.0]);
}
