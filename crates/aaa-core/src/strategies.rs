//! Processor-assignment strategies for dynamic vertex additions
//! (§IV.C.1a of the paper).
//!
//! * [`AssignStrategy::RoundRobin`] — RoundRobin-PS: distribute new vertices
//!   cyclically; O(k), ignores relationships between them.
//! * [`AssignStrategy::CutEdge`] — CutEdge-PS: treat the new vertices and
//!   the edges *among them* as an independent graph, partition it with the
//!   multilevel (METIS-substitute) partitioner, map part `i` → processor
//!   `i`. As in the paper, several seeded partitions are computed and the
//!   one with the fewest cut edges wins ("each processor computes the METIS
//!   partition … and the partition with the lower number of cut-edges is
//!   chosen", §V.A).
//! * [`AssignStrategy::Repartition`] — Repartition-S: repartition the whole
//!   graph instead (handled by the engine; see
//!   `AnytimeEngine::apply_vertex_additions`).

use crate::changes::VertexBatch;
use crate::error::CoreError;
use aaa_graph::{AdjGraph, PartId, VertexId};
use aaa_partition::{cut_edges, MultilevelPartitioner, Partition, Partitioner};

/// How newly added vertices are assigned to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignStrategy {
    /// RoundRobin-PS.
    RoundRobin,
    /// CutEdge-PS. `tries` seeded partitions are scored; best cut wins.
    /// `tries = 0` means [`CUTEDGE_TRIES`].
    CutEdge { seed: u64, tries: usize },
    /// Repartition-S: repartition the entire graph (no per-vertex
    /// assignment; the engine migrates partial results).
    Repartition { seed: u64 },
}

impl AssignStrategy {
    /// Short human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            AssignStrategy::RoundRobin => "RoundRobin-PS",
            AssignStrategy::CutEdge { .. } => "CutEdge-PS",
            AssignStrategy::Repartition { .. } => "Repartition-S",
        }
    }
}

/// Round-robin assignment of `count` vertices over `p` processors,
/// starting at `start` (the engine carries the cursor across batches so
/// successive batches keep rotating).
pub fn round_robin_assign(count: usize, p: usize, start: usize) -> Vec<PartId> {
    (0..count).map(|i| ((start + i) % p) as PartId).collect()
}

/// Seeded attempts of CutEdge-PS when the caller names none (`tries = 0`).
/// The paper scores one partition per processor and keeps the best; four
/// is where the cut stops improving on the batches the figures use.
pub const CUTEDGE_TRIES: usize = 4;

/// CutEdge-PS assignment: partitions the batch-internal graph into `p`
/// parts minimizing cut edges, best of `tries` seeded attempts
/// ([`CUTEDGE_TRIES`] when 0); batch vertex `i` goes to the processor of
/// its part. Isolated batch vertices end up balanced by the partitioner.
pub fn cut_edge_assign(
    batch: &VertexBatch,
    base: VertexId,
    p: usize,
    seed: u64,
    tries: usize,
) -> Result<Vec<PartId>, CoreError> {
    let k = batch.len();
    let mut g = AdjGraph::with_vertices(k);
    for (a, b, w) in batch.internal_edges(base) {
        // Batch validation already rejects duplicates/self-loops; keep the
        // min on the defensive path anyway.
        g.add_or_min_edge(a, b, w)?;
    }
    let tries = if tries == 0 { CUTEDGE_TRIES } else { tries };
    let parts = (0..tries as u64)
        .map(|t| MultilevelPartitioner::seeded(seed.wrapping_add(t)).partition(&g, p))
        .collect::<Result<Vec<Partition>, _>>()?;
    // The first of the smallest cuts, as a strict `<` scan would keep it.
    let best = parts.iter().min_by_key(|part| cut_edges(&g, part)).expect("at least one try");
    Ok(best.assignment().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::NewVertex;

    #[test]
    fn round_robin_cycles_with_cursor() {
        assert_eq!(round_robin_assign(5, 3, 0), vec![0, 1, 2, 0, 1]);
        assert_eq!(round_robin_assign(4, 3, 2), vec![2, 0, 1, 2]);
        assert!(round_robin_assign(0, 3, 1).is_empty());
    }

    #[test]
    fn cut_edge_keeps_batch_communities_together() {
        // Two internal cliques of 4; CutEdge-PS over 2 procs should not
        // split them (0 internal cut edges achievable).
        let base = 100;
        let mut vertices: Vec<NewVertex> = (0..8).map(|_| NewVertex { edges: vec![] }).collect();
        for c in 0..2u32 {
            let ids: Vec<u32> = (0..4).map(|i| c * 4 + i).collect();
            for (ai, &a) in ids.iter().enumerate() {
                for &b in &ids[ai + 1..] {
                    vertices[b as usize].edges.push((base + a, 1));
                }
            }
        }
        let batch = VertexBatch { vertices };
        batch.validate(base as usize).unwrap();
        let assign = cut_edge_assign(&batch, base, 2, 0, 3).unwrap();
        assert_eq!(assign.len(), 8);
        // Each clique lands on a single processor.
        assert!(assign[0..4].iter().all(|&p| p == assign[0]));
        assert!(assign[4..8].iter().all(|&p| p == assign[4]));
        assert_ne!(assign[0], assign[4]);
    }

    #[test]
    fn cut_edge_handles_edgeless_batch() {
        let batch = VertexBatch { vertices: (0..6).map(|_| NewVertex { edges: vec![] }).collect() };
        let assign = cut_edge_assign(&batch, 10, 3, 1, 2).unwrap();
        assert_eq!(assign.len(), 6);
        assert!(assign.iter().all(|&p| p < 3));
    }

    #[test]
    fn strategy_names() {
        assert_eq!(AssignStrategy::RoundRobin.name(), "RoundRobin-PS");
        assert_eq!(AssignStrategy::CutEdge { seed: 0, tries: 1 }.name(), "CutEdge-PS");
        assert_eq!(AssignStrategy::Repartition { seed: 0 }.name(), "Repartition-S");
    }
}
