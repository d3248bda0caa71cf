//! Property suite for epoch-delta view publication: across randomized
//! change streams, growth over chunk boundaries, restores, rebalances and
//! vertex removals, a view published by the `O(changed)` delta path must
//! be **bit-identical** to one rebuilt from scratch — closeness, bounds,
//! and top-k for every k — and the follower reconstruction from encoded
//! [`ViewDelta`]s must land on the same bits. Epoch ids stay monotone
//! under concurrent readers throughout.

use aaa_core::{
    AnytimeEngine, AssignStrategy, BoundsMode, DynamicChange, EngineConfig, MetricKind, NetMsg,
    NewVertex, PublishedView, Publisher, VertexBatch, ViewDelta, TOPK_SERVE_CAP,
};
use aaa_graph::AdjGraph;
use proptest::prelude::*;
use std::sync::Arc;

/// The shim has no float strategies; derive closeness-like values from
/// raw integers (distinct enough to churn the top-k, with deliberate
/// collisions so id tie-breaks fire).
fn val(raw: u32) -> f64 {
    (raw % 4096) as f64 / 4096.0
}

/// Full bitwise equivalence of two views, including every top-k size and
/// agreement between the served snapshot and the rescan oracle.
fn assert_views_match(a: &PublishedView, b: &PublishedView) {
    assert_eq!(a.epoch, b.epoch, "lockstep epochs");
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.closeness(), b.closeness(), "closeness drifted");
    assert_eq!(a.has_bounds(), b.has_bounds());
    if a.has_bounds() {
        assert_eq!(a.bounds(), b.bounds(), "bounds drifted");
    }
    assert_eq!(a.metrics(), b.metrics());
    let bc = MetricKind::Betweenness;
    assert_eq!(a.metric_values(bc), b.metric_values(bc), "betweenness drifted");
    for k in [0, 1, 3, TOPK_SERVE_CAP, a.num_vertices(), a.num_vertices() + 7] {
        assert_eq!(a.top_k(k), b.top_k(k), "top_k({k}) drifted");
        assert_eq!(a.top_k(k), a.top_k_rescan(k), "snapshot disagrees with the rescan oracle");
        assert_eq!(a.metric_top_k(bc, k), b.metric_top_k(bc, k), "betweenness top_k({k}) drifted");
    }
}

/// The replication contract: the leader's newest delta, encoded, must alone
/// turn the follower's view into the leader's, bit for bit.
fn follow(delta: &ViewDelta, leader: &PublishedView, follower: &mut Arc<PublishedView>) {
    let decoded = NetMsg::decode(&delta.to_msg().encode()).expect("delta decodes");
    let applied = ViewDelta::from_msg(&decoded)
        .expect("ViewDelta message")
        .apply_to(follower)
        .expect("the leader's own delta fits");
    assert_eq!(&applied, leader, "follower drifted");
    *follower = Arc::new(applied);
}

/// [`follow`] for a live engine, whose barriers mint at most one epoch each.
fn follow_engine(engine: &AnytimeEngine, follower: &mut Arc<PublishedView>) {
    let leader = engine.published();
    if leader.epoch != follower.epoch {
        assert_eq!(leader.epoch, follower.epoch + 1, "one epoch per barrier");
        follow(engine.last_view_delta().expect("delta recorded"), &leader, follower);
    }
}

/// One synthetic epoch: a step code, a size change, raw `(id, value)` rows.
type RawEpoch = (u8, usize, Vec<(u32, u32)>);

fn epochs_strategy() -> impl Strategy<Value = (usize, Vec<RawEpoch>)> {
    (
        1usize..2400,
        proptest::collection::vec(
            (0u8..5, 0usize..1300, proptest::collection::vec((0u32..4096, 0u32..4096), 0..48)),
            1..7,
        ),
    )
}

/// The columns a synthetic leader holds: closeness always, bounds under
/// `Certified`, a betweenness-like column when extras are on.
struct Columns {
    closeness: Vec<f64>,
    bounds: Option<Vec<f64>>,
    extra: Option<Vec<f64>>,
}

impl Columns {
    fn resize(&mut self, n: usize) {
        self.closeness.resize(n, 0.0);
        for column in self.bounds.iter_mut().chain(&mut self.extra) {
            column.resize(n, 0.0);
        }
    }

    fn publish_full(&self, p: &mut Publisher, step: usize) {
        let restate = |c: &[f64]| c.iter().enumerate().map(|(v, &x)| (v as u32, x)).collect();
        p.publish(ViewDelta {
            epoch: 0,
            rc_steps: step,
            changes_applied: 0,
            converged: false,
            full: true,
            n: self.closeness.len(),
            entries: restate(&self.closeness),
            bounds: self.bounds.as_deref().map_or_else(Vec::new, restate),
            extras: self.extra.iter().map(|c| (MetricKind::Betweenness, restate(c))).collect(),
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Publisher-level lockstep: a delta publisher, a forced-full
    /// publisher fed the same streams, and a follower reconstructing
    /// views purely from each epoch's encoded `ViewDelta` must all hold
    /// the same bits — with and without bounds and an extra column,
    /// across chunk boundaries, random growth, a forced full restate (what
    /// a checkpoint fallback asks for) and a full restate onto fewer
    /// vertices (what a restore that rewinds the graph asks for).
    #[test]
    fn delta_full_and_follower_views_agree(
        input in epochs_strategy(),
        certified in 0u8..2,
        betweenness in 0u8..2,
    ) {
        let (n0, raw_epochs) = input;
        let mut delta = Publisher::new();
        let mut full = Publisher::new();
        full.set_force_full(true);

        let column = |salt: u32| (0..n0).map(|i| val(i as u32 * 37 + salt)).collect::<Vec<f64>>();
        let mut current = Columns {
            closeness: column(0),
            bounds: (certified == 1).then(|| column(11)),
            extra: (betweenness == 1).then(|| column(23)),
        };
        current.publish_full(&mut delta, 0);
        current.publish_full(&mut full, 0);
        let mut follower: Arc<PublishedView> = delta.latest();

        for (step, (code, size, raw)) in raw_epochs.into_iter().enumerate() {
            let n = current.closeness.len();
            match code {
                // Thin epoch: growth plus the changed rows of every column.
                // Like the engine's, it restates the closeness of every new
                // id — a follower grows a view no further.
                0..=2 => {
                    let (old, n) = (n as u32, n + size);
                    current.resize(n);
                    let grown = (old..n as u32).map(|id| (id, id * 53 + 5));
                    let mut entries: Vec<(u32, f64)> =
                        raw.into_iter().chain(grown).map(|(id, v)| (id % n as u32, val(v))).collect();
                    entries.sort_by_key(|e| e.0);
                    entries.dedup_by_key(|e| e.0);
                    let derive = |column: &mut Option<Vec<f64>>, salt: u32| match column {
                        None => Vec::new(),
                        Some(column) => entries
                            .iter()
                            .filter(|e| (e.0 + salt) % 3 != 0)
                            .map(|&(id, c)| {
                                column[id as usize] = val((c * 4096.0) as u32 + salt);
                                (id, column[id as usize])
                            })
                            .collect(),
                    };
                    let bound_entries = derive(&mut current.bounds, 11);
                    let extras = match derive(&mut current.extra, 23) {
                        es if betweenness == 1 => vec![(MetricKind::Betweenness, es)],
                        _ => Vec::new(),
                    };
                    for &(id, c) in &entries {
                        current.closeness[id as usize] = c;
                    }
                    delta.publish(ViewDelta {
                        epoch: 0,
                        rc_steps: step + 1,
                        changes_applied: 0,
                        converged: false,
                        full: false,
                        n,
                        entries,
                        bounds: bound_entries,
                        extras,
                    });
                }
                // Forced full restate of the same vertices.
                3 => {
                    delta.request_full();
                    current.publish_full(&mut delta, step + 1);
                }
                // Full restate onto fewer vertices.
                _ => {
                    current.resize(1 + size % n);
                    delta.request_full();
                    current.publish_full(&mut delta, step + 1);
                }
            }
            current.publish_full(&mut full, step + 1);
            assert_views_match(&delta.latest(), &full.latest());

            follow(delta.last_delta().expect("delta recorded"), &delta.latest(), &mut follower);
        }
    }
}

/// A small seeded engine pair: one publishing by delta (the default), one
/// with the delta path disabled. Drives both through an identical script.
fn engine_pair(
    n: usize,
    edges: &[(u32, u32, u32)],
    bounds: BoundsMode,
) -> (AnytimeEngine, AnytimeEngine) {
    let mut g = AdjGraph::with_vertices(n);
    for &(u, v, w) in edges {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v, w).expect("validated edge");
        }
    }
    let mut config = EngineConfig::deterministic(2);
    config.publish_bounds = bounds;
    let a = AnytimeEngine::new(g.clone(), config.clone()).expect("engine");
    let mut b = AnytimeEngine::new(g, config).expect("engine");
    b.set_force_full_publish(true);
    (a, b)
}

/// Mirrors one scripted operation onto both engines; `barrier` sees the
/// engine after every call that may have minted an epoch.
fn apply_op(
    engine: &mut AnytimeEngine,
    op: &(u8, u32, u32, u32),
    mut barrier: impl FnMut(&AnytimeEngine),
) {
    let &(code, x, y, w) = op;
    let n = engine.graph().num_vertices() as u32;
    let (u, v) = (x % n, y % n);
    match code % 6 {
        0 => {
            if u != v {
                let _ = engine.submit(DynamicChange::AddEdge { u, v, w: 1 + w % 9 });
            }
        }
        1 => {
            let _ = engine.submit(DynamicChange::RemoveEdge { u, v });
        }
        2 => {
            if u != v {
                let _ = engine.submit(DynamicChange::SetWeight { u, v, w: 1 + w % 9 });
            }
        }
        3 => {
            // A small batch: each new vertex hangs off an existing one.
            let batch = VertexBatch {
                vertices: (0..1 + (w as usize % 3))
                    .map(|i| NewVertex { edges: vec![((u + i as u32) % n, 1 + w % 5)] })
                    .collect(),
            };
            let _ = engine.submit_with_strategy(
                DynamicChange::AddVertices(batch),
                AssignStrategy::RoundRobin,
            );
        }
        4 => {
            // The step's own drain, made visible: it mints an epoch too.
            engine.drain_changes().expect("queued changes passed submit");
            barrier(engine);
            engine.rc_step();
        }
        _ => {
            let _ = engine.drain_changes();
        }
    }
    barrier(engine);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-level lockstep: random graphs and change streams — edge
    /// churn, vertex batches, drains, interleaved RC steps — published by
    /// delta must match the forced-full engine bit for bit at every
    /// barrier, under both bounds modes.
    #[test]
    fn lockstep_engines_publish_identical_views(
        n in 4usize..24,
        edges in proptest::collection::vec((0u32..64, 0u32..64, 1u32..9), 1..40),
        ops in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64, 0u32..64), 1..24),
        certified in 0u8..2,
    ) {
        let mode = if certified == 1 { BoundsMode::Certified } else { BoundsMode::None };
        let (mut a, mut b) = engine_pair(n, &edges, mode);
        assert_views_match(&a.published(), &b.published());
        let mut follower = a.published();
        for op in &ops {
            apply_op(&mut a, op, |a| follow_engine(a, &mut follower));
            apply_op(&mut b, op, |_| ());
            assert_views_match(&a.published(), &b.published());
        }
        let _ = a.drain_changes();
        let _ = b.drain_changes();
        follow_engine(&a, &mut follower);
        while a.rc_step() {
            prop_assert!(b.rc_step());
            follow_engine(&a, &mut follower);
        }
        follow_engine(&a, &mut follower);
        prop_assert!(!b.rc_step());
        assert_views_match(&a.published(), &b.published());
        prop_assert!(a.published().converged);
    }

    /// Vertex removal, background rebalancing and checkpoint/restore all
    /// reroute rows through `install_local` — the delta path must still
    /// re-state every row whose value moved.
    #[test]
    fn removal_rebalance_and_restore_publish_identically(
        n in 6usize..20,
        edges in proptest::collection::vec((0u32..64, 0u32..64, 1u32..9), 4..40),
        victim in 0u32..64,
        seed in 0u64..1000,
    ) {
        let (mut a, mut b) = engine_pair(n, &edges, BoundsMode::None);
        a.run_to_convergence();
        b.run_to_convergence();
        assert_views_match(&a.published(), &b.published());
        let mut follower = a.published();

        a.remove_vertices(&[victim % n as u32]).expect("removal");
        b.remove_vertices(&[victim % n as u32]).expect("removal");
        assert_views_match(&a.published(), &b.published());
        follow_engine(&a, &mut follower);

        a.rebalance(seed).expect("rebalance");
        b.rebalance(seed).expect("rebalance");
        follow_engine(&a, &mut follower);
        a.rc_step();
        b.rc_step();
        assert_views_match(&a.published(), &b.published());
        follow_engine(&a, &mut follower);

        // Restore rewinds both engines to the checkpoint; the restored
        // publisher starts over (full first epoch), and the pair must
        // stay in lockstep through re-convergence.
        // (The two snapshots differ only in measured wall-time stats —
        // publishing mode must not leak into restored *behavior*.)
        let snap_a = a.checkpoint_bytes().expect("checkpoint");
        let snap_b = b.checkpoint_bytes().expect("checkpoint");
        let config = EngineConfig::deterministic(2);
        let mut a = AnytimeEngine::restore(&snap_a[..], config.clone()).expect("restore");
        let mut b = AnytimeEngine::restore(&snap_b[..], config).expect("restore");
        b.set_force_full_publish(true);
        a.run_to_convergence();
        b.run_to_convergence();
        assert_views_match(&a.published(), &b.published());
    }
}

/// Epoch ids must be monotone and every view complete while readers race
/// a writer that publishes through the delta path.
#[test]
fn epochs_stay_monotone_under_concurrent_readers() {
    const READERS: usize = 3;
    let mut g = AdjGraph::with_vertices(12);
    for i in 0..11u32 {
        g.add_edge(i, i + 1, 1 + i % 3).expect("path edge");
    }
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(2)).expect("engine");
    let cell = engine.view_cell();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Readers and writer leave the gate together, and the writer holds its
    // last epoch back until every reader has seen one: otherwise a fast
    // writer finishes before a reader is ever scheduled and nothing races.
    let gate = Arc::new(std::sync::Barrier::new(READERS + 1));
    let observing = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = cell.clone();
            let stop = stop.clone();
            let gate = gate.clone();
            let observing = observing.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut switches = 0u64;
                gate.wait();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let view = cell.load();
                    assert!(view.epoch >= last, "epoch went backwards");
                    if view.epoch != last {
                        if switches == 0 {
                            observing.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        switches += 1;
                        last = view.epoch;
                    }
                    assert_eq!(view.closeness().len(), view.num_vertices());
                    assert!(view.top_k(4).len() <= 4);
                }
                switches
            })
        })
        .collect();

    gate.wait();
    for round in 0..40u32 {
        if engine.graph().num_vertices() < 64 {
            let batch = VertexBatch {
                vertices: vec![NewVertex { edges: vec![(round % 12, 1 + round % 4)] }],
            };
            engine
                .submit_with_strategy(DynamicChange::AddVertices(batch), AssignStrategy::RoundRobin)
                .expect("batch submits");
        }
        engine.rc_step();
    }
    let waited = std::time::Instant::now();
    while observing.load(std::sync::atomic::Ordering::Relaxed) < READERS
        && waited.elapsed() < std::time::Duration::from_secs(10)
    {
        std::thread::yield_now();
    }
    while engine.rc_step() {}
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let switches: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(switches > 0, "readers observed live epochs");
    assert!(engine.published().converged);
}
