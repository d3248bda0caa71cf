//! The **ingest layer**: a typed, coalescing change log in front of the
//! compute loop.
//!
//! Every dynamic mutation — edge additions/removals/reweights, vertex
//! batches, vertex removals — enters the engine through one door:
//! [`ChangeLog::submit`]. Submission validates the change against the
//! graph *as it will look* once everything already queued has applied
//! (the pending overlay), so a validated stream can always drain without
//! errors. Queued changes are coalesced where the net effect allows it:
//!
//! * `AddEdge` followed by `RemoveEdge` of the same pair **annihilate**
//!   (any `SetWeight`s of that pair in between are dropped too);
//! * `SetWeight` after `AddEdge`/`SetWeight` of the same pair **folds**
//!   into the earlier entry (last weight wins);
//! * consecutive `AddVertices` batches with the same assignment strategy
//!   **merge** into one batch (ids line up because batch targets are
//!   interpreted against the post-pending vertex base);
//! * consecutive `RemoveVertices` **merge** (deduplicated).
//!
//! `RemoveEdge` followed by `AddEdge` is *not* coalesced — the removal
//! must still *invalidate* at drain time (raise every cell a path over the
//! old edge may have witnessed; nothing restarts), and folding the pair
//! into a reweight would skip that whenever the new weight is the higher
//! one. Coalescing scans stop at `AddVertices`/`RemoveVertices`
//! barriers: those change which edges exist, so edge ops must not be
//! reordered across them.
//!
//! The compute layer drains the log at RC-step barriers
//! (`AnytimeEngine::drain_changes`), applying each change through the
//! same execution paths the old ad-hoc mutators used.

use crate::changes::{DynamicChange, VertexBatch};
use crate::error::CoreError;
use crate::strategies::AssignStrategy;
use aaa_graph::{AdjGraph, GraphError, VertexId};
use std::collections::VecDeque;

/// One queued change plus the vertex-assignment strategy it was submitted
/// with (`None` for non-batch changes, or a batch routed through the
/// engine's auto policy at drain time).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingChange {
    pub change: DynamicChange,
    pub strategy: Option<AssignStrategy>,
}

/// Ingest counters. On a stream where every drain succeeds,
/// `submitted == coalesced + applied + pending`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Changes accepted by [`ChangeLog::submit`].
    pub submitted: u64,
    /// Entries absorbed by coalescing instead of (or after) queueing.
    pub coalesced: u64,
    /// Changes executed against the engine by drains.
    pub applied: u64,
    /// Drain batches that applied at least one change.
    pub drains: u64,
}

/// The coalescing change queue. See the module docs for semantics.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    queue: VecDeque<PendingChange>,
    stats: IngestStats,
}

impl ChangeLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued (not yet applied) changes, oldest first.
    pub fn pending(&self) -> &VecDeque<PendingChange> {
        &self.queue
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Pops the oldest pending change for execution. The caller (the
    /// engine's drain) records the outcome via [`ChangeLog::record_applied`].
    pub fn pop(&mut self) -> Option<PendingChange> {
        self.queue.pop_front()
    }

    /// Marks one popped change as executed.
    pub fn record_applied(&mut self) {
        self.stats.applied += 1;
    }

    /// Marks one drain batch complete.
    pub fn record_drain(&mut self) {
        self.stats.drains += 1;
    }

    /// Validates and enqueues (or coalesces) a change. `graph` is the
    /// engine's *current* graph; validation runs against it plus the
    /// pending overlay, mirroring the execution paths' own checks, so a
    /// change accepted here cannot fail at drain time.
    ///
    /// Empty batches and empty removal lists are accepted and discarded
    /// (they would be no-ops, exactly as the direct mutators treat them).
    pub fn submit(
        &mut self,
        graph: &AdjGraph,
        change: DynamicChange,
        strategy: Option<AssignStrategy>,
    ) -> Result<(), CoreError> {
        match change {
            DynamicChange::AddVertices(batch) => self.submit_batch(graph, batch, strategy),
            DynamicChange::RemoveVertices(victims) => self.submit_removal(graph, victims),
            DynamicChange::AddEdge { u, v, w } => self.submit_add_edge(graph, u, v, w),
            DynamicChange::RemoveEdge { u, v } => self.submit_remove_edge(graph, u, v),
            DynamicChange::SetWeight { u, v, w } => self.submit_set_weight(graph, u, v, w),
        }
    }

    // -----------------------------------------------------------------
    // Pending overlay
    // -----------------------------------------------------------------

    /// Vertex count once every queued change has applied. (Vertex removal
    /// is logical — ids stay valid — so only additions move the count.)
    pub fn projected_vertices(&self, graph: &AdjGraph) -> usize {
        graph.num_vertices()
            + self
                .queue
                .iter()
                .map(|pc| match &pc.change {
                    DynamicChange::AddVertices(b) => b.len(),
                    _ => 0,
                })
                .sum::<usize>()
    }

    /// Whether edge `(u, v)` will exist once the queue has drained:
    /// replays the queue, in order, over the graph's current answer.
    fn edge_will_exist(&self, graph: &AdjGraph, u: VertexId, v: VertexId) -> bool {
        let mut exists = graph.has_edge(u, v);
        let mut base = graph.num_vertices() as VertexId;
        let pair = (u.min(v), u.max(v));
        for pc in &self.queue {
            match &pc.change {
                DynamicChange::AddEdge { u: a, v: b, .. } => {
                    if (u32::min(*a, *b), u32::max(*a, *b)) == pair {
                        exists = true;
                    }
                }
                DynamicChange::RemoveEdge { u: a, v: b } => {
                    if (u32::min(*a, *b), u32::max(*a, *b)) == pair {
                        exists = false;
                    }
                }
                DynamicChange::RemoveVertices(vs) => {
                    if vs.contains(&u) || vs.contains(&v) {
                        exists = false;
                    }
                }
                DynamicChange::AddVertices(batch) => {
                    for (a, b, _) in batch.global_edges(base) {
                        if (u32::min(a, b), u32::max(a, b)) == pair {
                            exists = true;
                        }
                    }
                    base += batch.len() as VertexId;
                }
                DynamicChange::SetWeight { .. } => {}
            }
        }
        exists
    }

    /// Index one past the last `AddVertices`/`RemoveVertices` entry — the
    /// barrier edge-op coalescing must not scan across.
    fn barrier_index(&self) -> usize {
        self.queue
            .iter()
            .rposition(|pc| {
                matches!(
                    pc.change,
                    DynamicChange::AddVertices(_) | DynamicChange::RemoveVertices(_)
                )
            })
            .map(|i| i + 1)
            .unwrap_or(0)
    }

    // -----------------------------------------------------------------
    // Per-variant submit paths
    // -----------------------------------------------------------------

    fn check_vertex(&self, graph: &AdjGraph, v: VertexId) -> Result<(), CoreError> {
        let n = self.projected_vertices(graph);
        if (v as usize) < n {
            Ok(())
        } else {
            Err(CoreError::Graph(GraphError::VertexOutOfRange { vertex: v, len: n }))
        }
    }

    fn submit_add_edge(
        &mut self,
        graph: &AdjGraph,
        u: VertexId,
        v: VertexId,
        w: u32,
    ) -> Result<(), CoreError> {
        self.check_vertex(graph, u)?;
        self.check_vertex(graph, v)?;
        if u == v {
            return Err(CoreError::Graph(GraphError::SelfLoop { vertex: u }));
        }
        if w == 0 {
            return Err(CoreError::Graph(GraphError::ZeroWeight { u, v }));
        }
        if self.edge_will_exist(graph, u, v) {
            return Err(CoreError::Graph(GraphError::DuplicateEdge { u, v }));
        }
        self.stats.submitted += 1;
        // A RemoveEdge of the same pair may sit in the queue; the pair is
        // deliberately *not* annihilated in that direction (the removal
        // must still invalidate the old edge's paths at drain time — a
        // selective raise, not a restart — before this edge is relaxed in).
        self.queue.push_back(PendingChange {
            change: DynamicChange::AddEdge { u, v, w },
            strategy: None,
        });
        Ok(())
    }

    fn submit_set_weight(
        &mut self,
        graph: &AdjGraph,
        u: VertexId,
        v: VertexId,
        w: u32,
    ) -> Result<(), CoreError> {
        self.check_vertex(graph, u)?;
        self.check_vertex(graph, v)?;
        if w == 0 {
            return Err(CoreError::Graph(GraphError::ZeroWeight { u, v }));
        }
        if !self.edge_will_exist(graph, u, v) {
            return Err(CoreError::Graph(GraphError::MissingEdge { u, v }));
        }
        self.stats.submitted += 1;
        let pair = (u.min(v), u.max(v));
        let barrier = self.barrier_index();
        for i in (barrier..self.queue.len()).rev() {
            match &mut self.queue[i].change {
                DynamicChange::AddEdge { u: a, v: b, w: wq }
                | DynamicChange::SetWeight { u: a, v: b, w: wq }
                    if (u32::min(*a, *b), u32::max(*a, *b)) == pair =>
                {
                    *wq = w; // fold: last weight wins
                    self.stats.coalesced += 1;
                    return Ok(());
                }
                // A RemoveEdge of the pair cannot precede us here — the
                // edge exists post-queue, so any removal was already
                // superseded by a later AddEdge we would have hit first.
                _ => {}
            }
        }
        self.queue.push_back(PendingChange {
            change: DynamicChange::SetWeight { u, v, w },
            strategy: None,
        });
        Ok(())
    }

    fn submit_remove_edge(
        &mut self,
        graph: &AdjGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), CoreError> {
        self.check_vertex(graph, u)?;
        self.check_vertex(graph, v)?;
        if !self.edge_will_exist(graph, u, v) {
            return Err(CoreError::Graph(GraphError::MissingEdge { u, v }));
        }
        self.stats.submitted += 1;
        let pair = (u.min(v), u.max(v));
        let barrier = self.barrier_index();
        // Walk back to the barrier: SetWeights of the pair are dead (the
        // removal supersedes them); a queued AddEdge of the pair
        // annihilates with the submitted removal.
        let mut i = self.queue.len();
        while i > barrier {
            i -= 1;
            match &self.queue[i].change {
                DynamicChange::SetWeight { u: a, v: b, .. }
                    if (u32::min(*a, *b), u32::max(*a, *b)) == pair =>
                {
                    self.queue.remove(i);
                    self.stats.coalesced += 1;
                }
                DynamicChange::AddEdge { u: a, v: b, .. }
                    if (u32::min(*a, *b), u32::max(*a, *b)) == pair =>
                {
                    self.queue.remove(i);
                    self.stats.coalesced += 2;
                    return Ok(());
                }
                _ => {}
            }
        }
        self.queue.push_back(PendingChange {
            change: DynamicChange::RemoveEdge { u, v },
            strategy: None,
        });
        Ok(())
    }

    fn submit_batch(
        &mut self,
        graph: &AdjGraph,
        batch: VertexBatch,
        strategy: Option<AssignStrategy>,
    ) -> Result<(), CoreError> {
        if batch.is_empty() {
            return Ok(()); // no-op, same as the direct path
        }
        batch.validate(self.projected_vertices(graph))?;
        self.stats.submitted += 1;
        // Fold into an immediately preceding batch with the same strategy.
        // Safe because batch targets are global post-pending ids either
        // way; only the (heuristic) internal/external split for CutEdge
        // scoring can differ, never the resulting graph.
        if let Some(tail) = self.queue.back_mut() {
            if tail.strategy == strategy {
                if let DynamicChange::AddVertices(prev) = &mut tail.change {
                    prev.vertices.extend(batch.vertices);
                    self.stats.coalesced += 1;
                    return Ok(());
                }
            }
        }
        self.queue.push_back(PendingChange { change: DynamicChange::AddVertices(batch), strategy });
        Ok(())
    }

    fn submit_removal(
        &mut self,
        graph: &AdjGraph,
        victims: Vec<VertexId>,
    ) -> Result<(), CoreError> {
        if victims.is_empty() {
            return Ok(());
        }
        let n = self.projected_vertices(graph);
        for &v in &victims {
            if v as usize >= n {
                return Err(CoreError::InvalidChange(format!(
                    "cannot remove vertex {v}: graph has {n} vertices"
                )));
            }
        }
        self.stats.submitted += 1;
        if let Some(tail) = self.queue.back_mut() {
            if let DynamicChange::RemoveVertices(prev) = &mut tail.change {
                for v in victims {
                    if !prev.contains(&v) {
                        prev.push(v);
                    }
                }
                self.stats.coalesced += 1;
                return Ok(());
            }
        }
        self.queue.push_back(PendingChange {
            change: DynamicChange::RemoveVertices(victims),
            strategy: None,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::NewVertex;

    fn graph() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(4);
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        g
    }

    fn pending_kinds(log: &ChangeLog) -> Vec<&'static str> {
        log.pending()
            .iter()
            .map(|pc| match pc.change {
                DynamicChange::AddVertices(_) => "addv",
                DynamicChange::RemoveVertices(_) => "rmv",
                DynamicChange::AddEdge { .. } => "adde",
                DynamicChange::RemoveEdge { .. } => "rme",
                DynamicChange::SetWeight { .. } => "setw",
            })
            .collect()
    }

    #[test]
    fn validation_mirrors_the_execution_paths() {
        let g = graph();
        let mut log = ChangeLog::new();
        // Out of range / self-loop / zero weight / duplicate / missing.
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 0, v: 9, w: 1 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 2, v: 2, w: 1 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 0, v: 2, w: 0 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 1, v: 0, w: 5 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::RemoveEdge { u: 0, v: 3 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::SetWeight { u: 0, v: 3, w: 2 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::SetWeight { u: 0, v: 1, w: 0 }, None).is_err());
        assert!(log.submit(&g, DynamicChange::RemoveVertices(vec![99]), None).is_err());
        assert!(log.is_empty(), "rejected changes never queue");
        assert_eq!(log.stats().submitted, 0);
    }

    #[test]
    fn validation_sees_the_pending_overlay() {
        let g = graph();
        let mut log = ChangeLog::new();
        // Queue an edge: a duplicate submit must now fail even though the
        // graph itself does not have the edge yet.
        log.submit(&g, DynamicChange::AddEdge { u: 0, v: 3, w: 1 }, None).unwrap();
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 3, v: 0, w: 2 }, None).is_err());
        // A queued removal makes the edge missing for SetWeight...
        log.submit(&g, DynamicChange::RemoveEdge { u: 1, v: 2 }, None).unwrap();
        assert!(log.submit(&g, DynamicChange::SetWeight { u: 1, v: 2, w: 9 }, None).is_err());
        // ...and re-adding it is legal again (remove→add not coalesced).
        log.submit(&g, DynamicChange::AddEdge { u: 1, v: 2, w: 7 }, None).unwrap();
        assert_eq!(pending_kinds(&log), vec!["adde", "rme", "adde"]);
        // Pending batches extend the id range.
        let batch = VertexBatch { vertices: vec![NewVertex { edges: vec![(0, 1)] }] };
        log.submit(&g, DynamicChange::AddVertices(batch), Some(AssignStrategy::RoundRobin))
            .unwrap();
        assert_eq!(log.projected_vertices(&g), 5);
        log.submit(&g, DynamicChange::AddEdge { u: 4, v: 2, w: 1 }, None).unwrap();
        assert!(log.submit(&g, DynamicChange::AddEdge { u: 5, v: 2, w: 1 }, None).is_err());
    }

    #[test]
    fn add_then_remove_annihilates_with_intervening_setweights() {
        let g = graph();
        let mut log = ChangeLog::new();
        log.submit(&g, DynamicChange::AddEdge { u: 0, v: 2, w: 4 }, None).unwrap();
        log.submit(&g, DynamicChange::AddEdge { u: 0, v: 3, w: 4 }, None).unwrap();
        log.submit(&g, DynamicChange::SetWeight { u: 0, v: 2, w: 6 }, None).unwrap();
        // SetWeight folded into the queued AddEdge, so only two entries.
        assert_eq!(pending_kinds(&log), vec!["adde", "adde"]);
        log.submit(&g, DynamicChange::RemoveEdge { u: 2, v: 0 }, None).unwrap();
        assert_eq!(pending_kinds(&log), vec!["adde"], "add+remove annihilated");
        let s = log.stats();
        assert_eq!(s.submitted, 4);
        assert_eq!(s.coalesced + log.len() as u64, s.submitted);
    }

    #[test]
    fn setweight_merging_keeps_the_last_weight() {
        let g = graph();
        let mut log = ChangeLog::new();
        log.submit(&g, DynamicChange::SetWeight { u: 0, v: 1, w: 5 }, None).unwrap();
        log.submit(&g, DynamicChange::SetWeight { u: 1, v: 0, w: 8 }, None).unwrap();
        assert_eq!(log.len(), 1);
        match log.pending()[0].change {
            DynamicChange::SetWeight { w, .. } => assert_eq!(w, 8),
            _ => panic!("expected SetWeight"),
        }
        assert_eq!(log.stats().coalesced, 1);
    }

    #[test]
    fn batches_fold_only_with_matching_strategy() {
        let g = graph();
        let mut log = ChangeLog::new();
        let nv = |t: VertexId| NewVertex { edges: vec![(t, 1)] };
        let b1 = VertexBatch { vertices: vec![nv(0)] };
        let b2 = VertexBatch { vertices: vec![nv(1)] };
        let b3 = VertexBatch { vertices: vec![nv(2)] };
        log.submit(&g, DynamicChange::AddVertices(b1), Some(AssignStrategy::RoundRobin)).unwrap();
        log.submit(&g, DynamicChange::AddVertices(b2), Some(AssignStrategy::RoundRobin)).unwrap();
        assert_eq!(log.len(), 1, "same strategy folds");
        log.submit(
            &g,
            DynamicChange::AddVertices(b3),
            Some(AssignStrategy::Repartition { seed: 1 }),
        )
        .unwrap();
        assert_eq!(log.len(), 2, "different strategy does not fold");
        match &log.pending()[0].change {
            DynamicChange::AddVertices(b) => assert_eq!(b.len(), 2),
            _ => panic!("expected AddVertices"),
        }
        // Empty batches are accepted and dropped.
        log.submit(&g, DynamicChange::AddVertices(VertexBatch::default()), None).unwrap();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn removals_merge_and_dedupe() {
        let g = graph();
        let mut log = ChangeLog::new();
        log.submit(&g, DynamicChange::RemoveVertices(vec![1, 2]), None).unwrap();
        log.submit(&g, DynamicChange::RemoveVertices(vec![2, 3]), None).unwrap();
        assert_eq!(log.len(), 1);
        match &log.pending()[0].change {
            DynamicChange::RemoveVertices(vs) => assert_eq!(vs, &vec![1, 2, 3]),
            _ => panic!("expected RemoveVertices"),
        }
        log.submit(&g, DynamicChange::RemoveVertices(Vec::new()), None).unwrap();
        assert_eq!(log.stats().submitted, 2, "empty removal is a no-op");
    }

    #[test]
    fn barriers_stop_edge_coalescing() {
        let g = graph();
        let mut log = ChangeLog::new();
        log.submit(&g, DynamicChange::AddEdge { u: 0, v: 2, w: 4 }, None).unwrap();
        let batch = VertexBatch { vertices: vec![NewVertex { edges: vec![(0, 1)] }] };
        log.submit(&g, DynamicChange::AddVertices(batch), None).unwrap();
        // The edge op after the barrier must not fold into (or annihilate
        // with) the AddEdge before it.
        log.submit(&g, DynamicChange::SetWeight { u: 0, v: 2, w: 9 }, None).unwrap();
        assert_eq!(pending_kinds(&log), vec!["adde", "addv", "setw"]);
        log.submit(&g, DynamicChange::RemoveEdge { u: 0, v: 2 }, None).unwrap();
        assert_eq!(pending_kinds(&log), vec!["adde", "addv", "rme"], "setw died, adde survives");
    }
}
