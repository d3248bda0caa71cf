//! Multilevel k-way graph partitioner (METIS substitute).
//!
//! The classic three-stage scheme of Karypis & Kumar, implemented from
//! scratch:
//!
//! 1. **Coarsening** (`matching`) — repeated heavy-edge matching collapses
//!    the graph until it is small;
//! 2. **Initial partitioning** (`initial`) — greedy graph growing assigns
//!    the coarsest vertices to k balanced parts;
//! 3. **Uncoarsening + refinement** (`refine`) — the partition is projected
//!    back level by level, with boundary FM-style refinement at each level.
//!
//! With [`MultilevelConfig::parallel`] set, the coarse-graph construction
//! runs on rayon — the role ParMETIS plays in the paper's DD phase.

mod initial;
mod matching;
mod refine;
mod wgraph;

pub(crate) use wgraph::WGraph;

use crate::{Partition, PartitionError, Partitioner};
use aaa_graph::{GraphStore, PartId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tuning knobs for the multilevel partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Stop coarsening once the graph has at most `coarsen_to × k` vertices.
    pub coarsen_to_per_part: usize,
    /// Allowed imbalance: a part may hold up to `(1 + epsilon) × ideal`.
    pub epsilon: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed (matching order, seed selection, tie-breaks).
    pub seed: u64,
    /// Build coarse graphs with rayon (the ParMETIS-substitute path).
    pub parallel: bool,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self { coarsen_to_per_part: 24, epsilon: 0.05, refine_passes: 6, seed: 0, parallel: false }
    }
}

/// The multilevel k-way partitioner.
#[derive(Debug, Clone, Default)]
pub struct MultilevelPartitioner {
    pub config: MultilevelConfig,
}

impl MultilevelPartitioner {
    /// Creates a partitioner with the given seed, other knobs default.
    pub fn seeded(seed: u64) -> Self {
        Self { config: MultilevelConfig { seed, ..MultilevelConfig::default() } }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        let n = g.num_vertices();
        if k == 1 {
            return Partition::new(vec![0; n], 1);
        }
        if n <= k {
            // Each vertex its own part; extra parts stay empty.
            return Partition::new((0..n as PartId).collect(), k);
        }
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // --- Coarsening ---------------------------------------------------
        let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new(); // (finer graph, fine->coarse map)
        let mut current = WGraph::from_store(g);
        let stop_at = (cfg.coarsen_to_per_part * k).max(64);
        while current.n() > stop_at {
            let map = matching::heavy_edge_matching(&current, &mut rng);
            let coarse = wgraph::coarsen(&current, &map, cfg.parallel);
            // Diminishing returns: stop if the graph barely shrank.
            if coarse.n() as f64 > 0.95 * current.n() as f64 {
                break;
            }
            levels.push((current, map));
            current = coarse;
        }

        // --- Initial partition on the coarsest graph ----------------------
        let max_load = wgraph::max_load(current.total_vwgt(), k, cfg.epsilon);
        let mut labels = initial::greedy_graph_growing(&current, k, &mut rng);
        refine::refine(&current, &mut labels, k, max_load, cfg.refine_passes, &mut rng);

        // --- Uncoarsen + refine at every level -----------------------------
        while let Some((finer, map)) = levels.pop() {
            let mut fine_labels = vec![0 as PartId; finer.n()];
            for (v, l) in fine_labels.iter_mut().enumerate() {
                *l = labels[map[v] as usize];
            }
            labels = fine_labels;
            refine::refine(&finer, &mut labels, k, max_load, cfg.refine_passes, &mut rng);
        }
        Partition::new(labels, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cut_edges, vertex_balance};
    use aaa_graph::generators::{
        barabasi_albert, planted_partition, PlantedPartition, WeightModel,
    };
    use aaa_graph::AdjGraph;

    #[test]
    fn trivial_cases() {
        let g = AdjGraph::with_vertices(5);
        let p = MultilevelPartitioner::default().partition(&g, 1).unwrap();
        assert!(p.assignment().iter().all(|&x| x == 0));
        let p = MultilevelPartitioner::default().partition(&g, 8).unwrap();
        assert_eq!(p.part_sizes()[..5], [1, 1, 1, 1, 1]);
        assert!(MultilevelPartitioner::default().partition(&g, 0).is_err());
    }

    #[test]
    fn splits_two_cliques_cleanly() {
        // Two K10s joined by one edge: the optimal bisection cuts 1 edge.
        let mut g = AdjGraph::with_vertices(20);
        for c in 0..2u32 {
            let base = c * 10;
            for u in 0..10 {
                for v in (u + 1)..10 {
                    g.add_edge(base + u, base + v, 1).unwrap();
                }
            }
        }
        g.add_edge(0, 10, 1).unwrap();
        let p = MultilevelPartitioner::seeded(3).partition(&g, 2).unwrap();
        assert_eq!(cut_edges(&g, &p), 1);
        assert!((vertex_balance(&p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_random_on_community_graphs() {
        let m = PlantedPartition { communities: 8, size: 64, p_in: 0.2, p_out: 0.005 };
        let (g, _) = planted_partition(&m, WeightModel::Unit, 5).unwrap();
        let ml = MultilevelPartitioner::seeded(1).partition(&g, 8).unwrap();
        let rnd = crate::simple::RandomPartitioner { seed: 1 }.partition(&g, 8).unwrap();
        let (cut_ml, cut_rnd) = (cut_edges(&g, &ml), cut_edges(&g, &rnd));
        assert!((cut_ml as f64) < 0.5 * cut_rnd as f64, "multilevel {cut_ml} vs random {cut_rnd}");
        assert!(vertex_balance(&ml) <= 1.0 + 0.1, "balance {}", vertex_balance(&ml));
    }

    #[test]
    fn balanced_on_scale_free_graphs() {
        let g = barabasi_albert(2000, 3, WeightModel::Unit, 9).unwrap();
        for k in [2usize, 4, 16] {
            let p = MultilevelPartitioner::seeded(2).partition(&g, k).unwrap();
            assert_eq!(p.len(), 2000);
            let b = vertex_balance(&p);
            assert!(b <= 1.12, "k={k} balance {b}");
        }
    }

    #[test]
    fn parallel_path_produces_valid_partition() {
        let g = barabasi_albert(1500, 3, WeightModel::Unit, 4).unwrap();
        let cfg = MultilevelConfig { parallel: true, ..Default::default() };
        let p = MultilevelPartitioner { config: cfg }.partition(&g, 8).unwrap();
        assert_eq!(p.len(), 1500);
        assert!(vertex_balance(&p) <= 1.12);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = barabasi_albert(800, 2, WeightModel::Unit, 6).unwrap();
        let a = MultilevelPartitioner::seeded(7).partition(&g, 4).unwrap();
        let b = MultilevelPartitioner::seeded(7).partition(&g, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut g = AdjGraph::with_vertices(300);
        // Three disjoint paths of 100.
        for c in 0..3u32 {
            let base = c * 100;
            for i in 0..99 {
                g.add_edge(base + i, base + i + 1, 1).unwrap();
            }
        }
        let p = MultilevelPartitioner::seeded(1).partition(&g, 3).unwrap();
        assert_eq!(p.len(), 300);
        assert!(vertex_balance(&p) <= 1.12);
    }
}
