//! Simple partitioners: block, round-robin, hash, random.
//!
//! These are the non-cut-aware baselines. Round-robin in particular is the
//! assignment discipline behind the paper's RoundRobin-PS strategy.

use crate::{Partition, PartitionError, Partitioner};
use aaa_graph::{GraphStore, PartId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Contiguous blocks: vertices `[i·n/k, (i+1)·n/k)` go to part `i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPartitioner;

impl Partitioner for BlockPartitioner {
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        let n = g.num_vertices();
        let per = n.div_ceil(k).max(1);
        let assignment = (0..n).map(|v| ((v / per).min(k - 1)) as PartId).collect();
        Partition::new(assignment, k)
    }
}

/// Round-robin: vertex `v` goes to part `v mod k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        let assignment = (0..g.num_vertices()).map(|v| (v % k) as PartId).collect();
        Partition::new(assignment, k)
    }
}

/// Deterministic hash: scrambles ids so adjacent ids land apart.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        let assignment = (0..g.num_vertices() as u64)
            .map(|v| {
                // SplitMix64 finalizer: cheap, well-distributed.
                let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((x ^ (x >> 31)) % k as u64) as PartId
            })
            .collect();
        Partition::new(assignment, k)
    }
}

/// Uniform random assignment with a seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    pub seed: u64,
}

impl Partitioner for RandomPartitioner {
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let assignment = (0..g.num_vertices()).map(|_| rng.gen_range(0..k) as PartId).collect();
        Partition::new(assignment, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_balance;

    fn graph(n: usize) -> aaa_graph::AdjGraph {
        aaa_graph::AdjGraph::with_vertices(n)
    }

    #[test]
    fn block_partitions_are_contiguous_and_balanced() {
        let p = BlockPartitioner.partition(&graph(10), 3).unwrap();
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(9), 2);
        assert!(vertex_balance(&p) <= 1.0 + 1e-9);
        // Monotone non-decreasing labels.
        let a = p.assignment();
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let p = RoundRobinPartitioner.partition(&graph(10), 4).unwrap();
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn hash_is_deterministic_and_covers_parts() {
        let a = HashPartitioner.partition(&graph(1000), 8).unwrap();
        let b = HashPartitioner.partition(&graph(1000), 8).unwrap();
        assert_eq!(a, b);
        assert!(a.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn random_respects_seed() {
        let a = RandomPartitioner { seed: 1 }.partition(&graph(100), 4).unwrap();
        let b = RandomPartitioner { seed: 1 }.partition(&graph(100), 4).unwrap();
        let c = RandomPartitioner { seed: 2 }.partition(&graph(100), 4).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn more_parts_than_vertices_is_allowed() {
        let p = RoundRobinPartitioner.partition(&graph(2), 5).unwrap();
        assert_eq!(p.k(), 5);
        assert_eq!(p.part_sizes()[4], 0);
        let p = BlockPartitioner.partition(&graph(2), 5).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_parts_rejected_everywhere() {
        let g = graph(3);
        assert!(BlockPartitioner.partition(&g, 0).is_err());
        assert!(RoundRobinPartitioner.partition(&g, 0).is_err());
        assert!(HashPartitioner.partition(&g, 0).is_err());
        assert!(RandomPartitioner { seed: 0 }.partition(&g, 0).is_err());
    }
}
