//! Closeness centrality (the paper's Eq. 1) and comparison utilities.
//!
//! The paper defines `C(v) = 1 / Σ_u d(v, u)`. On disconnected graphs that
//! sum is infinite; like most SNA tools we sum over *reachable* vertices
//! only and document the convention. A vertex that reaches nothing has
//! centrality 0.

use crate::{Dist, GraphStore, INF};
use rayon::prelude::*;

/// Closeness of a single vertex given its distance row.
///
/// `1 / Σ d(v,u)` over reachable `u ≠ v`; 0.0 if nothing is reachable.
pub fn closeness_from_row(row: &[Dist]) -> f64 {
    let mut sum: u64 = 0;
    let mut reachable = 0u64;
    for &d in row {
        if d != INF && d != 0 {
            sum += d as u64;
            reachable += 1;
        }
    }
    if reachable == 0 || sum == 0 {
        0.0
    } else {
        1.0 / sum as f64
    }
}

/// Exact closeness for a graph on any backend, computed via parallel
/// Dijkstra without materializing the full matrix (used at paper scale
/// where n² is large). Integer distances and one reduction per row make
/// the values bit-identical across backends.
pub fn closeness_exact<G: GraphStore + Sync>(g: &G) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n)
        .into_par_iter()
        .map_init(
            || vec![INF; n],
            |buf, s| {
                crate::sssp::dijkstra_into(g, s as u32, buf);
                closeness_from_row(buf)
            },
        )
        .collect()
}

/// Mean absolute relative error between an estimate and the exact values.
/// Pairs where both are zero contribute zero; an exact zero with a nonzero
/// estimate contributes the absolute estimate.
pub fn mean_relative_error(estimate: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimate.len(), exact.len(), "length mismatch");
    if exact.is_empty() {
        return 0.0;
    }
    let total: f64 = estimate
        .iter()
        .zip(exact)
        .map(|(&e, &x)| if x == 0.0 { e.abs() } else { (e - x).abs() / x })
        .sum();
    total / exact.len() as f64
}

/// Indices of the top-`k` vertices by centrality, ties broken by id.
/// `total_cmp` keeps the order total (and therefore deterministic) even
/// on pathological values — `partial_cmp`'s `Equal` fallback for NaN made
/// the comparator inconsistent, which `sort_by` may answer with an
/// arbitrary permutation. The maintained top-k index in `aaa-core` must
/// agree with this oracle exactly on every input.
pub fn top_k(centrality: &[f64], k: usize) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..centrality.len() as u32).collect();
    idx.sort_by(|&a, &b| centrality[b as usize].total_cmp(&centrality[a as usize]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjGraph, Csr};

    fn star() -> Csr {
        // Star with center 0 and leaves 1..=4, unit weights.
        let mut g = AdjGraph::with_vertices(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf, 1).unwrap();
        }
        Csr::from_adj(&g)
    }

    #[test]
    fn star_center_is_most_central() {
        let c = closeness_exact(&star());
        // Center: 4 neighbors at distance 1 -> 1/4.
        assert!((c[0] - 0.25).abs() < 1e-12);
        // Leaf: 1 + 2+2+2 = 7 -> 1/7.
        assert!((c[1] - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(top_k(&c, 1), vec![0]);
    }

    #[test]
    fn isolated_vertex_has_zero_closeness() {
        let g = Csr::from_adj(&AdjGraph::with_vertices(3));
        let c = closeness_exact(&g);
        assert_eq!(c, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn error_metric_basics() {
        assert_eq!(mean_relative_error(&[], &[]), 0.0);
        assert!((mean_relative_error(&[1.0, 2.0], &[1.0, 2.0])).abs() < 1e-12);
        let e = mean_relative_error(&[0.5, 2.0], &[1.0, 2.0]);
        assert!((e - 0.25).abs() < 1e-12);
        // exact zero, estimate nonzero
        let e = mean_relative_error(&[0.5], &[0.0]);
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top_k_breaks_ties_by_id() {
        let c = vec![0.3, 0.5, 0.5, 0.1];
        assert_eq!(top_k(&c, 3), vec![1, 2, 0]);
        assert_eq!(top_k(&c, 10).len(), 4);
    }

    #[test]
    fn top_k_is_deterministic_on_all_equal_values() {
        // A run of equal values must come back in id order — the tie rule
        // holds on every path, not just between distinct values.
        let c = vec![0.25; 9];
        assert_eq!(top_k(&c, 5), vec![0, 1, 2, 3, 4]);
        // Mixed ties: each equal-value group is ordered by id.
        let c = vec![0.5, 0.1, 0.5, 0.1, 0.9];
        assert_eq!(top_k(&c, 5), vec![4, 0, 2, 1, 3]);
    }

    #[test]
    fn top_k_orders_totally_even_with_nans() {
        // total_cmp sorts NaN after every finite value (for positive
        // NaNs), so the order stays a deterministic total order rather
        // than an arbitrary permutation from an inconsistent comparator.
        let c = vec![0.2, f64::NAN, 0.7, f64::NAN, 0.2];
        assert_eq!(top_k(&c, 5), vec![1, 3, 2, 0, 4]);
    }
}
