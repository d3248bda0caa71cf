//! The ingest → compute → publish pipeline's serving contract: strictly
//! increasing epochs, sound and tightening certified bounds, snapshot
//! isolation for concurrent readers, and coalescing-equivalence between
//! the submitted-stream path and the direct mutators.

use anytime_anywhere::core::changes::{preferential_batch, DynamicChange};
use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, BoundsMode, EngineConfig, MetricKind, NewVertex, PublishedView,
    VertexBatch, ViewDelta, WireFormat,
};
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::sssp::bfs;
use anytime_anywhere::graph::{AdjGraph, Csr, INF};
use anytime_anywhere::serve::ServeHandle;
use std::sync::Arc;

fn engine(n: usize, procs: usize, seed: u64) -> AnytimeEngine {
    let g = barabasi_albert(n, 2, WeightModel::Unit, seed).unwrap();
    AnytimeEngine::new(g, EngineConfig::deterministic(procs)).unwrap()
}

/// The first `count` vertex pairs (skipping `avoid`) with no edge between
/// them — deterministic, and stable under vertex-addition batches (those
/// only attach new vertices).
fn non_edges(g: &anytime_anywhere::graph::AdjGraph, count: usize, avoid: u32) -> Vec<(u32, u32)> {
    let n = g.num_vertices() as u32;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if u != avoid && v != avoid && !g.has_edge(u, v) {
                out.push((u, v));
                if out.len() == count {
                    return out;
                }
            }
        }
    }
    out
}

#[test]
fn epoch_ids_are_strictly_increasing_across_every_publishing_path() {
    let mut e = engine(120, 4, 5);
    let h = ServeHandle::attach(&e);
    let mut last = 0u64;
    let mut observe = |h: &ServeHandle, what: &str| {
        let epoch = h.epoch();
        assert!(epoch > last, "{what}: epoch {epoch} did not advance past {last}");
        last = epoch;
    };
    observe(&h, "construction");
    e.rc_step();
    observe(&h, "rc step");
    let (eu, ev) = non_edges(e.graph(), 1, u32::MAX)[0];
    let batch = preferential_batch(e.graph(), 6, 2, 9);
    e.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    observe(&h, "vertex batch drain");
    e.add_edge(eu, ev, 2).unwrap();
    observe(&h, "edge add drain");
    e.submit(DynamicChange::SetWeight { u: eu, v: ev, w: 1 }).unwrap();
    assert_eq!(e.pending_changes(), 1);
    e.drain_changes().unwrap();
    observe(&h, "explicit drain");
    e.run_to_convergence();
    observe(&h, "convergence");
    e.rebalance(3).unwrap();
    observe(&h, "rebalance");
    assert_eq!(e.epochs_published(), last);
}

#[test]
fn published_views_remain_valid_snapshots_after_the_engine_moves_on() {
    let mut e = engine(100, 3, 8);
    let h = ServeHandle::attach(&e);
    let early = h.view();
    e.run_to_convergence();
    let late = h.view();
    // The early epoch is frozen: same answer as when it was published,
    // untouched by later epochs.
    assert!(early.epoch < late.epoch);
    assert_eq!(early.num_vertices(), late.num_vertices());
    assert!(late.converged);
    assert!(!early.converged);
}

#[test]
fn certified_bounds_cover_the_exact_answer_and_tighten_per_epoch() {
    let g = barabasi_albert(90, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 13).unwrap();
    let mut cfg = EngineConfig::deterministic(4);
    cfg.publish_bounds = BoundsMode::Certified;
    let mut e = AnytimeEngine::new(g, cfg).unwrap();
    let h = ServeHandle::attach(&e);

    // Collect one view per epoch of a quiescing (no further changes) run.
    let mut views: Vec<Arc<PublishedView>> = vec![h.view()];
    while e.rc_step() {
        views.push(h.view());
    }
    views.push(h.view());
    let oracle = e.closeness(); // exact at convergence

    for (i, view) in views.iter().enumerate() {
        assert!(view.has_bounds());
        for (v, exact) in oracle.iter().enumerate() {
            let c = view.closeness()[v];
            let b = view.error_bound(v as u32).unwrap();
            assert!(
                (c - exact).abs() <= b + 1e-9,
                "epoch {i}: |{c} - {exact}| > bound {b} at vertex {v}"
            );
        }
    }
    // On a quiescing run the graph never changes, so every per-vertex
    // bound is non-increasing across epochs.
    for w in views.windows(2) {
        for v in 0..w[0].num_vertices() {
            assert!(
                w[1].error_bound(v as u32).unwrap() <= w[0].error_bound(v as u32).unwrap() + 1e-12,
                "bound widened at vertex {v}"
            );
        }
    }
    // With unit weights the hop bound is exact, so at convergence the
    // certified interval collapses to zero width.
    let mut cfg = EngineConfig::deterministic(4);
    cfg.publish_bounds = BoundsMode::Certified;
    let mut unit =
        AnytimeEngine::new(barabasi_albert(90, 2, WeightModel::Unit, 13).unwrap(), cfg).unwrap();
    let hu = ServeHandle::attach(&unit);
    unit.run_to_convergence();
    let last = hu.view();
    for v in 0..last.num_vertices() {
        assert!(last.error_bound(v as u32).unwrap() < 1e-9);
    }
}

/// A `Certified` + `[Betweenness]` engine publishing by delta, its twin
/// with the delta path disabled, and a follower that only ever applies the
/// first one's `last_view_delta()`.
struct Lockstep {
    delta: AnytimeEngine,
    full: AnytimeEngine,
    follower: PublishedView,
    /// Drain epochs the delta engine published thin.
    thin_drains: usize,
}

impl Lockstep {
    fn config() -> EngineConfig {
        let mut cfg = EngineConfig::deterministic(3);
        cfg.publish_bounds = BoundsMode::Certified;
        cfg.metrics = vec![MetricKind::Betweenness];
        cfg.wire = WireFormat::Delta;
        cfg
    }

    /// Runs `op` — which mints exactly one epoch — on both engines, lets
    /// the follower catch up, and holds all three views to each other and
    /// to the exact answer for the graph as it is now.
    fn barrier(&mut self, what: &str, op: impl Fn(&mut AnytimeEngine)) {
        let before = self.delta.epochs_published();
        op(&mut self.delta);
        op(&mut self.full);
        assert_eq!(self.delta.epochs_published(), before + 1, "{what}: one epoch per barrier");
        self.follow(what);
    }

    fn follow(&mut self, what: &str) {
        let delta = self.delta.last_view_delta().expect("an epoch was published");
        let shipped = ViewDelta::from_msg(&delta.to_msg()).expect("decodes");
        self.follower = shipped.apply_to(&self.follower).expect("fits the follower's view");
        let (a, b) = (self.delta.published(), self.full.published());
        assert_eq!(&self.follower, a.as_ref(), "{what}: follower");
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for other in [b.as_ref(), &self.follower] {
            assert_eq!(bits(a.closeness()), bits(other.closeness()), "{what}: closeness");
            assert_eq!(bits(a.bounds()), bits(other.bounds()), "{what}: bounds");
            assert_eq!(
                bits(a.metric_values(MetricKind::Betweenness).unwrap()),
                bits(other.metric_values(MetricKind::Betweenness).unwrap()),
                "{what}: betweenness"
            );
        }
        let exact = closeness_exact(&Csr::from_adj(self.delta.graph()));
        assert_eq!(a.num_vertices(), exact.len(), "{what}");
        for (v, exact) in exact.iter().enumerate() {
            let (c, bound) = (a.closeness()[v], a.error_bound(v as u32).unwrap());
            assert!((c - exact).abs() <= bound + 1e-12, "{what}: |{c} - {exact}| > {bound} at {v}");
        }
    }

    /// Submits `burst` to both engines and drains it at one barrier.
    fn drain(&mut self, what: &str, burst: &[(DynamicChange, AssignStrategy)]) {
        self.barrier(what, |e| {
            for (change, strategy) in burst {
                e.submit_with_strategy(change.clone(), *strategy).expect("valid change");
            }
            assert!(e.drain_changes().expect("drains") > 0);
        });
        let delta = self.delta.last_view_delta().unwrap();
        self.thin_drains += usize::from(!delta.full);
    }

    fn rc_step(&mut self) {
        self.barrier("rc step", |e| {
            e.rc_step();
        });
    }
}

/// The delta path under certified bounds: an epoch re-states only the rows
/// whose published bits moved, and still every epoch is bit-identical to
/// the forced-full twin's and to a follower's —
/// across additions under every strategy, a bridge removed, reweights that
/// do and do not move a weight extreme, a vertex removed, an edge there and
/// back, a recovered rank and a checkpoint restore.
#[test]
fn certified_delta_epochs_match_the_full_path_and_a_follower_at_every_epoch() {
    use AssignStrategy::{CutEdge, Repartition, RoundRobin};
    let g = barabasi_albert(48, 2, WeightModel::UniformRange { lo: 1, hi: 3 }, 21).unwrap();
    let delta = AnytimeEngine::new(g.clone(), Lockstep::config()).unwrap();
    let mut full = AnytimeEngine::new(g, Lockstep::config()).unwrap();
    full.set_force_full_publish(true);
    let follower = PublishedView::empty();
    let mut t = Lockstep { delta, full, follower, thin_drains: 0 };
    t.follow("construction");
    t.rc_step();

    let pendant = |at: u32| {
        DynamicChange::AddVertices(VertexBatch {
            vertices: vec![NewVertex { edges: vec![(at, 2)] }],
        })
    };
    let batch =
        |g: &AdjGraph, k, seed| DynamicChange::AddVertices(preferential_batch(g, k, 2, seed));
    let [(eu, ev), (fu, fv)] = non_edges(t.delta.graph(), 2, u32::MAX)[..] else {
        panic!("a 48-vertex BA graph has non-edges")
    };

    // Vertex 48 hangs off vertex 5 by a bridge; an edge joins two old rows.
    t.drain(
        "pendant + edge",
        &[(pendant(5), RoundRobin), (DynamicChange::AddEdge { u: eu, v: ev, w: 1 }, RoundRobin)],
    );
    t.rc_step();
    // Repartition-S relaxes nothing at the drain: old rows come within
    // reach of the new vertices with their DV rows unmoved.
    t.drain("repartition batch", &[(batch(t.delta.graph(), 3, 7), Repartition { seed: 1 })]);
    t.drain("cut-edge batch", &[(batch(t.delta.graph(), 2, 8), CutEdge { seed: 0, tries: 2 })]);
    t.rc_step();
    // The bridge goes: vertex 48 is cut off from every row.
    t.drain("bridge removed", &[(DynamicChange::RemoveEdge { u: 48, v: 5 }, RoundRobin)]);
    let snapshot = t.delta.snapshot();
    let (ru, rv, rw) = t.delta.graph().edges().find(|e| e.2 == 2).expect("a weight-2 edge");
    t.drain(
        "reweight inside the extremes",
        &[(DynamicChange::SetWeight { u: ru, v: rv, w: rw + 1 }, RoundRobin)],
    );
    t.rc_step();
    let full_before = t.delta.publish_stats().full_epochs;
    t.drain("w_max moves", &[(DynamicChange::SetWeight { u: ru, v: rv, w: 9 }, RoundRobin)]);
    assert_eq!(t.delta.publish_stats().full_epochs, full_before, "a thin epoch of what moved");
    t.drain(
        "mixed burst",
        &[
            (DynamicChange::RemoveVertices(vec![7]), RoundRobin),
            (DynamicChange::RemoveEdge { u: eu, v: ev }, RoundRobin),
            (DynamicChange::AddEdge { u: eu, v: ev, w: 2 }, RoundRobin),
            (pendant(3), RoundRobin),
        ],
    );
    t.rc_step();

    // A rank rewound to the snapshot (which predates decremental changes,
    // so it restarts from its IA rows): its rows are epoch-dirty, so a thin
    // epoch.
    t.barrier("recover rank", |e| e.recover_rank(1, &snapshot).expect("recovers"));
    assert!(!t.delta.last_view_delta().unwrap().full);
    t.rc_step();
    t.drain("after recovery", &[(DynamicChange::RemoveEdge { u: eu, v: ev }, RoundRobin)]);

    // Every drain took the thin path, and so did the rewind: the first
    // epoch was the only full one.
    let stats = t.delta.publish_stats();
    assert!(t.thin_drains >= 7, "only {} thin drain epochs", t.thin_drains);
    assert_eq!(stats.full_epochs, 1, "{stats:?}");

    // Checkpoint restore: new engines, a new first epoch, the same follower.
    let restore = |e: &mut AnytimeEngine| {
        AnytimeEngine::from_snapshot(&e.snapshot(), Lockstep::config()).expect("restores")
    };
    (t.delta, t.full) = (restore(&mut t.delta), restore(&mut t.full));
    t.full.set_force_full_publish(true);
    t.follow("restore");
    t.drain(
        "after restore",
        &[
            (batch(t.delta.graph(), 2, 9), RoundRobin),
            (DynamicChange::AddEdge { u: fu, v: fv, w: 1 }, RoundRobin),
        ],
    );
    assert!(!t.delta.last_view_delta().unwrap().full);
    while !t.delta.published().converged {
        t.rc_step();
    }

    // What stands at the end is each row's interval, walked afresh from
    // its hop row and the weight extremes (DESIGN.md §7).
    let (rows, last) = (t.delta.distances(), t.delta.published());
    let g = Csr::from_adj(t.delta.graph());
    let weights: Vec<u64> = t.delta.graph().edges().map(|e| e.2 as u64).collect();
    let (w_min, w_max) = (*weights.iter().min().unwrap(), *weights.iter().max().unwrap());
    for v in 0..last.num_vertices() as u32 {
        let (mut upper, mut lower) = (0u64, 0u64);
        for (u, (&h, &d)) in bfs(&g, v).iter().zip(rows.row(v)).enumerate() {
            if u as u32 != v && h != INF {
                upper += (d as u64).min(w_max * h as u64);
                lower += w_min * h as u64;
            }
        }
        let (lo, hi) =
            if upper == 0 { (0.0, 0.0) } else { (1.0 / upper as f64, 1.0 / lower as f64) };
        assert_eq!(last.error_bound(v).unwrap().to_bits(), (hi - lo).to_bits(), "vertex {v}");
    }
}

#[test]
fn concurrent_readers_see_complete_monotone_and_fresh_views() {
    let mut e = engine(200, 4, 21);
    let h = ServeHandle::attach(&e);
    let n = e.graph().num_vertices();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let h = h.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let view = h.view();
                    assert!(view.epoch >= last, "epoch went backwards");
                    last = view.epoch;
                    // Complete, never torn: every vertex of the epoch
                    // answers, and top-k agrees with the same snapshot.
                    assert!(view.num_vertices() >= n);
                    assert!(view.point((view.num_vertices() - 1) as u32).is_some());
                    let k = view.top_k(3);
                    assert_eq!(k.len(), 3.min(view.num_vertices()));
                    if view.converged && view.changes_applied > 0 {
                        return last;
                    }
                }
            })
        })
        .collect();
    // Writer: converge, grow the graph mid-serving, re-converge.
    e.run_to_convergence();
    let batch = preferential_batch(e.graph(), 10, 2, 3);
    e.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    let summary = e.run_to_convergence();
    assert!(summary.converged);
    let final_epoch = e.epochs_published();
    for r in readers {
        let seen = r.join().expect("reader panicked");
        // Never stale beyond the latest epoch: the reader's exit view is
        // one the engine actually published, at most the final epoch.
        assert!(seen <= final_epoch);
    }
    // The handle itself is fully fresh once the writer is done.
    assert_eq!(h.epoch(), final_epoch);
}

#[test]
fn submitted_stream_converges_to_the_same_answer_as_direct_mutators() {
    let direct = &mut engine(130, 4, 17);
    let streamed = &mut engine(130, 4, 17);

    // Two edges absent from the seed graph, away from the vertex we
    // remove; vertex batches never touch old-old pairs, so they stay
    // absent until we add them.
    let pairs = non_edges(direct.graph(), 2, 40);
    let ((a0, a1), (b0, b1)) = (pairs[0], pairs[1]);

    // Direct path: one mutator call per change, applied immediately.
    let batch = preferential_batch(direct.graph(), 8, 2, 2);
    direct.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
    direct.add_edge(a0, a1, 3).unwrap();
    direct.set_edge_weight(a0, a1, 1).unwrap();
    direct.add_edge(b0, b1, 2).unwrap();
    direct.remove_edge(b0, b1).unwrap();
    direct.remove_vertices(&[40]).unwrap();
    direct.run_to_convergence();

    // Streamed path: the same changes submitted up front, coalesced in
    // the log, drained at the first RC barrier.
    streamed
        .submit_with_strategy(DynamicChange::AddVertices(batch), AssignStrategy::RoundRobin)
        .unwrap();
    streamed.submit(DynamicChange::AddEdge { u: a0, v: a1, w: 3 }).unwrap();
    streamed.submit(DynamicChange::SetWeight { u: a0, v: a1, w: 1 }).unwrap();
    streamed.submit(DynamicChange::AddEdge { u: b0, v: b1, w: 2 }).unwrap();
    streamed.submit(DynamicChange::RemoveEdge { u: b0, v: b1 }).unwrap();
    streamed.submit(DynamicChange::RemoveVertices(vec![40])).unwrap();
    let stats_before = streamed.ingest_stats();
    assert_eq!(stats_before.submitted, 6);
    assert!(streamed.pending_changes() < 6, "reweight and add+remove coalesce in the log");
    streamed.run_to_convergence();

    let stats = streamed.ingest_stats();
    assert!(stats.coalesced > 0);
    assert_eq!(stats.submitted, stats.coalesced + stats.applied);
    assert_eq!(streamed.pending_changes(), 0);
    // Same graph, same unique fixed point, same answer.
    assert_eq!(direct.graph().num_vertices(), streamed.graph().num_vertices());
    assert_eq!(direct.distances(), streamed.distances());
    assert_eq!(direct.closeness(), streamed.closeness());
    // Coalescing means the compute layer executed fewer changes.
    assert!(streamed.changes_applied() < direct.changes_applied());
}

#[test]
fn submit_validates_against_the_projected_graph() {
    let mut e = engine(50, 2, 30);
    // Out of range, self-loop, zero weight: rejected at submit time.
    assert!(e.submit(DynamicChange::AddEdge { u: 0, v: 500, w: 1 }).is_err());
    assert!(e.submit(DynamicChange::AddEdge { u: 3, v: 3, w: 1 }).is_err());
    assert!(e.submit(DynamicChange::RemoveVertices(vec![50])).is_err());
    // A new vertex only exists in the projection — but edges to it are
    // valid once the batch ahead of them in the queue lands.
    let batch = preferential_batch(e.graph(), 2, 2, 7);
    e.submit_with_strategy(DynamicChange::AddVertices(batch), AssignStrategy::RoundRobin).unwrap();
    e.submit(DynamicChange::AddEdge { u: 0, v: 50, w: 2 }).unwrap();
    assert!(e.submit(DynamicChange::AddEdge { u: 0, v: 52, w: 2 }).is_err(), "beyond projection");
    e.drain_changes().unwrap();
    assert!(e.graph().has_edge(0, 50));
    let summary = e.run_to_convergence();
    assert!(summary.converged);
}
