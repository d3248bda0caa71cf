//! Graph substrate for the anytime-anywhere reproduction.
//!
//! This crate provides everything the engine in `aaa-core` needs from a graph
//! library, built from scratch:
//!
//! * [`AdjGraph`] — a growable, undirected, weighted adjacency-list graph
//!   that supports the dynamic updates the paper studies (vertex and edge
//!   additions/removals).
//! * [`Csr`] — an immutable compressed-sparse-row snapshot for cache-friendly
//!   traversal in the compute-heavy phases.
//! * [`generators`] — scale-free (Barabási–Albert), Erdős–Rényi,
//!   Watts–Strogatz, R-MAT and planted-partition (SBM) generators, replacing
//!   the Pajek generator used in the paper's evaluation.
//! * [`community`] — a Louvain modularity implementation, replacing Pajek's
//!   Louvain community extraction used to produce community-structured
//!   vertex-addition batches (§V.B.2 of the paper).
//! * [`GraphStore`] — the read-only backend contract (sorted, symmetric
//!   successor lists), met by both of the above and by `aaa-store`'s
//!   compressed graph.
//! * Reference algorithms ([`sssp`], [`apsp`], [`closeness`],
//!   [`centrality`]), one body each, generic over [`GraphStore`]: the ground
//!   truth of the test suites and the Baseline Restart comparisons, and the
//!   engine's witness searches.
//! * [`io`] — edge-list and (minimal) Pajek `.net` readers/writers.
//!
//! Distances are `u32` with [`INF`] as "unreachable"; arithmetic goes through
//! [`dist_add`] which saturates at `INF` so relaxations can never overflow.

pub mod adjacency;
pub mod apsp;
pub mod builder;
pub mod centrality;
pub mod closeness;
pub mod community;
pub mod csr;
pub mod error;
pub mod generators;
pub mod io;
pub mod sssp;
pub mod stats;
mod store;

pub use adjacency::AdjGraph;
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use error::GraphError;
pub use store::{edges, GraphStore};

/// Vertex identifier. Dense, zero-based.
pub type VertexId = u32;

/// Edge weight. The paper's graphs are weighted (its companion papers handle
/// edge-weight changes); unweighted graphs use weight 1.
pub type Weight = u32;

/// A shortest-path distance estimate.
pub type Dist = u32;

/// Partition / processor identifier.
pub type PartId = u32;

/// "Unreachable" distance. All distance arithmetic saturates here.
pub const INF: Dist = u32::MAX;

/// Saturating min-plus addition: `INF + anything = INF`.
///
/// This is the single arithmetic primitive of the distance-vector routing
/// relaxations in `aaa-core`; keeping it saturating makes the triangle
/// relaxation `d(a,t) <- min(d(a,t), d(a,b) + d(b,t))` safe without branches
/// at every call site.
#[inline(always)]
pub fn dist_add(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_add_saturates_at_inf() {
        assert_eq!(dist_add(INF, 0), INF);
        assert_eq!(dist_add(INF, 5), INF);
        assert_eq!(dist_add(5, INF), INF);
        assert_eq!(dist_add(INF, INF), INF);
    }

    #[test]
    fn dist_add_is_plain_addition_below_saturation() {
        assert_eq!(dist_add(2, 3), 5);
        assert_eq!(dist_add(0, 0), 0);
        assert_eq!(dist_add(INF - 1, 1), INF);
    }
}
