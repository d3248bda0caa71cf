//! Constraint-driven strategy selection.
//!
//! Line 16 of the paper's recombination template (Fig. 1) is
//! "Choose Recombination strategy(ies) based on the constraints": the
//! framework is supposed to pick how to incorporate a change from a set of
//! constraints (user thresholds, system state, change magnitude) rather
//! than hard-coding one strategy. This module provides that chooser —
//! [`choose_strategy`] — encoding the decision rule the paper's §V.B.4
//! summary derives empirically:
//!
//! * small batches, or changes arriving continuously → anywhere vertex
//!   addition (CutEdge-PS when the batch has internal community structure,
//!   RoundRobin-PS otherwise);
//! * large single-step batches → Repartition-S.

use crate::changes::VertexBatch;
use crate::strategies::{AssignStrategy, CUTEDGE_TRIES};

/// If `batch.len() / graph_vertices` exceeds this, repartition. The paper's
/// crossovers (Figs. 5–6) sit around 3–6 k of 50 k vertices; 0.05 is the
/// midpoint.
pub const REPARTITION_FRACTION: f64 = 0.05;

/// Minimum ratio of batch-internal edges to batch vertices for CutEdge-PS to
/// be worth its partitioning overhead. Below it the batch has no
/// exploitable community structure and RoundRobin-PS is strictly cheaper.
pub const CUTEDGE_INTERNAL_RATIO: f64 = 0.5;

/// Chooses the assignment strategy for `batch` arriving on a graph of
/// `graph_vertices` vertices. The partitioning strategies run under seed 0.
pub fn choose_strategy(batch: &VertexBatch, graph_vertices: usize) -> AssignStrategy {
    if graph_vertices > 0 {
        let fraction = batch.len() as f64 / graph_vertices as f64;
        if fraction > REPARTITION_FRACTION {
            return AssignStrategy::Repartition { seed: 0 };
        }
    }
    let base = graph_vertices as u32;
    let internal = batch.internal_edges(base).len();
    if !batch.is_empty() && internal as f64 / batch.len() as f64 >= CUTEDGE_INTERNAL_RATIO {
        AssignStrategy::CutEdge { seed: 0, tries: CUTEDGE_TRIES }
    } else {
        AssignStrategy::RoundRobin
    }
}

/// Safety bound on recombination steps per convergence run, the same for
/// both drivers: the engine's run loop stops unconverged after this many
/// RC steps and a socket run after this many rounds; a supervised run
/// degrades with `DegradedReason::StepBudgetExhausted`.
pub const MAX_RC_STEPS: usize = 10_000;

/// Retry/backoff policy for the supervised convergence loop
/// (`AnytimeEngine::run_supervised`).
///
/// Attempts count *consecutive* faulty barriers: a clean RC step resets the
/// counter, so a long run under a low fault rate is not starved by its
/// cumulative fault total. Backoff is charged to the **simulated** clock
/// (`sim_comm_us`) — it models the waiting a real supervised MPI runtime
/// would do, without slowing the in-process harness down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive faulty barriers tolerated before falling back to the
    /// last checkpoint (or degrading, if fallbacks are exhausted too).
    pub max_attempts: u32,
    /// Checkpoint fallbacks allowed before the loop gives up and returns a
    /// degraded-mode answer.
    pub max_fallbacks: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 8, max_fallbacks: 1 }
    }
}

impl RetryPolicy {
    /// Extra simulated time charged when a rank stall is detected — the
    /// supervisor's per-superstep deadline that expired before it declared
    /// the rank slow (µs).
    pub const STALL_DEADLINE_US: f64 = 5_000.0;

    /// Simulated backoff before retry number `attempt` (1-based): 200 µs,
    /// doubling per further consecutive retry, on the runtime's one
    /// clamped-exponent schedule — no run of faulty barriers overflows it.
    pub fn backoff_us(attempt: u32) -> f64 {
        aaa_runtime::chaos::backoff(200.0, 2.0, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::NewVertex;

    #[allow(clippy::needless_range_loop)]
    fn batch_with_internal(count: usize, internal_edges: usize) -> VertexBatch {
        let base = 1000u32; // callers use graph_vertices = 1000
        let mut vertices: Vec<NewVertex> =
            (0..count).map(|_| NewVertex { edges: vec![] }).collect();
        let mut placed = 0;
        'outer: for i in 1..count {
            for j in 0..i {
                if placed >= internal_edges {
                    break 'outer;
                }
                vertices[i].edges.push((base + j as u32, 1));
                placed += 1;
            }
        }
        VertexBatch { vertices }
    }

    #[test]
    fn large_batches_repartition() {
        let batch = batch_with_internal(100, 0);
        assert!(matches!(choose_strategy(&batch, 1000), AssignStrategy::Repartition { .. }));
    }

    #[test]
    fn small_structured_batches_use_cutedge() {
        let batch = batch_with_internal(20, 30);
        assert!(matches!(choose_strategy(&batch, 1000), AssignStrategy::CutEdge { .. }));
    }

    #[test]
    fn small_unstructured_batches_use_round_robin() {
        let batch = batch_with_internal(20, 2);
        assert!(matches!(choose_strategy(&batch, 1000), AssignStrategy::RoundRobin));
    }

    #[test]
    fn empty_graph_never_divides_by_zero() {
        let batch = batch_with_internal(5, 0);
        let _ = choose_strategy(&batch, 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let backoff_us = RetryPolicy::backoff_us;
        assert!((backoff_us(1) - 200.0).abs() < 1e-9);
        assert!((backoff_us(2) - 400.0).abs() < 1e-9);
        assert!((backoff_us(4) - 1600.0).abs() < 1e-9);
        // Exponent clamps at 16: attempt 18 and attempt 100 cost the same.
        assert_eq!(backoff_us(18), backoff_us(100));
        assert!(backoff_us(100).is_finite());
        // attempt 0 is treated as the first retry.
        assert_eq!(backoff_us(0), backoff_us(1));
    }
}
