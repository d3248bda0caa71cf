//! Equivalence harness for the relaxation kernel: the arena-backed,
//! delta-driven Jacobi kernel must reach the same rank-local fixed point —
//! and produce the same dirty set — as the original hashmap-backed
//! Gauss-Seidel worklist kernel, on random graphs and random programs of
//! merges, growth, migration and recovery, with both the sequential and
//! the multi-threaded executor.
//!
//! The reference model below re-implements the pre-arena kernel verbatim
//! (rows in ordered maps, row taken out while relaxing, pivot rows read
//! *current* mid-round, every changed row re-relaxed through every pivot at
//! full width) together with the rank-level write paths that feed it. It
//! is the only place the old round scheduler survives. Equality holds
//! because both kernels run monotone min-merge relaxations to quiescence
//! and skip only relaxations that are no-ops under the closure invariant
//! (DESIGN.md §9), so they share one fixed point; and a row is dirty iff
//! it ever changed iff (by monotonicity) its final value differs from its
//! initial one — identical on both sides.

use anytime_anywhere::checkpoint::RankSnapshot;
use anytime_anywhere::core::rank::{GrowMsg, RankState, RowMsg, RowPayload, WireFormat};
use anytime_anywhere::graph::{AdjGraph, GraphBuilder, INF};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An arbitrary simple weighted graph with `n ∈ [2, 32]` vertices.
fn arb_graph() -> impl Strategy<Value = AdjGraph> {
    (2usize..32).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..8), 0..(3 * n));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::with_vertices(n);
            for (u, v, w) in edges {
                b.edge(u, v, w);
            }
            b.build().expect("builder output is always valid")
        })
    })
}

/// `row[t] = min(row[t], through + via[t])`, the scalar way.
fn relax_row(row: &mut [u32], through: u32, via: &[u32]) -> bool {
    let mut changed = false;
    for (r, &b) in row.iter_mut().zip(via) {
        let cand = through.saturating_add(b);
        if cand < *r {
            *r = cand;
            changed = true;
        }
    }
    changed
}

/// The pre-arena `RankState` replica: rows in ordered maps, the dirty set
/// and the pending pivots, mirroring exactly what the old write paths and
/// the old consume/relax pair did.
struct Reference {
    n: usize,
    locals: Vec<u32>,
    rows: BTreeMap<u32, Vec<u32>>,
    dirty: BTreeSet<u32>,
    pending: BTreeSet<u32>,
    /// Cached rows the batch in flight created by holding a broadcast.
    held: Vec<u32>,
}

impl Reference {
    /// Captures a live state (any implementation) into the model.
    fn capture(state: &RankState) -> Self {
        let mut rows = BTreeMap::new();
        for v in state.dv().all_ids_sorted() {
            rows.insert(v, state.dv().row(v).expect("listed row exists").to_vec());
        }
        Self {
            n: state.n_global(),
            locals: state.local_vertices().to_vec(),
            rows,
            dirty: state.dv().dirty_sorted().into_iter().collect(),
            pending: state.to_snapshot().pending.into_iter().collect(),
            held: Vec::new(),
        }
    }

    fn is_local(&self, v: u32) -> bool {
        self.locals.binary_search(&v).is_ok()
    }

    /// Min-merges one wire payload; cached rows are created on first
    /// contact and count as changed. Local changes are dirty.
    fn merge(&mut self, v: u32, payload: &RowPayload) -> bool {
        let fresh = !self.rows.contains_key(&v);
        debug_assert!(!(fresh && self.is_local(v)));
        let row = self.rows.entry(v).or_insert_with(|| vec![INF; self.n]);
        let mut changed = fresh;
        match payload {
            RowPayload::Full(incoming) => changed |= relax_row(row, 0, incoming),
            RowPayload::Delta(pairs) => {
                for &(t, d) in pairs {
                    if d < row[t as usize] {
                        row[t as usize] = d;
                        changed = true;
                    }
                }
            }
        }
        if changed && self.is_local(v) {
            self.dirty.insert(v);
        }
        changed
    }

    /// The old `consume_rc_messages`: min-merge every incoming row, then
    /// relax the changed set plus the pending pivots to the fixed point.
    fn consume(&mut self, inbox: &[(u32, RowPayload)]) -> bool {
        let mut worklist: BTreeSet<u32> = BTreeSet::new();
        for (v, payload) in inbox {
            if self.merge(*v, payload) {
                worklist.insert(*v);
            }
        }
        worklist.append(&mut self.pending);
        self.relax_worklist(worklist)
    }

    fn relax_pending(&mut self) -> bool {
        let pending = std::mem::take(&mut self.pending);
        self.relax_worklist(pending)
    }

    /// The old Gauss-Seidel worklist kernel, verbatim: rows visited in
    /// sorted-local order, the row under relaxation removed from the map
    /// (so it never serves as its own pivot), every other pivot row read
    /// at its *current* (mid-round) value.
    fn relax_worklist(&mut self, initial: BTreeSet<u32>) -> bool {
        let mut pivots: Vec<u32> = initial.iter().copied().collect();
        let mut full_targets: BTreeSet<u32> = initial;
        let all_rows: Vec<u32> = self.rows.keys().copied().collect();
        let mut any = false;
        while !pivots.is_empty() || !full_targets.is_empty() {
            let mut next: BTreeSet<u32> = BTreeSet::new();
            for &v in &self.locals {
                let mut row = match self.rows.remove(&v) {
                    Some(r) => r,
                    None => continue,
                };
                let mut changed = false;
                let pivot_set: &[u32] = if full_targets.contains(&v) { &all_rows } else { &pivots };
                for &u in pivot_set {
                    if u == v {
                        continue;
                    }
                    let through = row[u as usize];
                    if through == INF {
                        continue;
                    }
                    if let Some(urow) = self.rows.get(&u) {
                        changed |= relax_row(&mut row, through, urow);
                    }
                }
                self.rows.insert(v, row);
                if changed {
                    next.insert(v);
                    self.dirty.insert(v);
                    any = true;
                }
            }
            pivots = next.iter().copied().collect();
            full_targets = next;
        }
        any
    }

    /// The old `grow`: widen every row, add trivial rows for the new
    /// vertices this rank owns (dirty, pending).
    fn grow(&mut self, msg: &GrowMsg, rank: u32) {
        let n = msg.base as usize + msg.owners.len();
        self.n = n;
        for row in self.rows.values_mut() {
            row.resize(n, INF);
        }
        for (i, &o) in msg.owners.iter().enumerate() {
            if o == rank {
                let v = msg.base + i as u32;
                let mut row = vec![INF; n];
                row[v as usize] = 0;
                self.rows.insert(v, row);
                self.locals.push(v);
                self.dirty.insert(v);
                self.pending.insert(v);
            }
        }
        self.locals.sort_unstable();
    }

    /// The rank's `hold_row`: a non-owner min-merges the broadcast row
    /// into its cached copy, remembering a row it did not hold before.
    fn hold(&mut self, v: u32, row: &[u32]) {
        if self.is_local(v) {
            return;
        }
        if !self.rows.contains_key(&v) {
            self.held.push(v);
        }
        if self.merge(v, &RowPayload::Full(row.to_vec())) {
            self.pending.insert(v);
        }
    }

    /// The rank's `absorb_edge`: each endpoint row, local or cached, takes
    /// the other's through the edge and queues as a pivot.
    fn absorb_edge(&mut self, x: u32, y: u32, w: u32) {
        for (p, q) in [(x, y), (y, x)] {
            let via = self.rows[&q].clone();
            if relax_row(self.rows.get_mut(&p).expect("held row"), w, &via) {
                self.pending.insert(p);
                if self.is_local(p) {
                    self.dirty.insert(p);
                }
            }
        }
    }

    /// The rank's `settle`: relax, then the rows the batch newly held go,
    /// except those a local vertex neighbours.
    fn settle(&mut self, neighboured: impl Fn(u32) -> bool) {
        self.relax_pending();
        for v in std::mem::take(&mut self.held) {
            if !neighboured(v) {
                self.rows.remove(&v);
            }
        }
    }

    /// The rank's `seed_edges`: the endpoint cells of each edge on the rows
    /// held locally, left pending.
    fn seed_edges(&mut self, edges: &[(u32, u32, u32)]) {
        for &(a, b, w) in edges {
            for (x, y) in [(a, b), (b, a)] {
                if self.is_local(x) && self.merge(x, &RowPayload::Delta(vec![(y, w)])) {
                    self.pending.insert(x);
                }
            }
        }
    }

    /// The old `migrate_out_moved` for one departing vertex.
    fn migrate_out(&mut self, v: u32) {
        self.rows.remove(&v);
        self.locals.retain(|&l| l != v);
        self.dirty.remove(&v);
        self.pending.remove(&v);
    }

    /// The old `migrate_in_moved` for one gained vertex: the shipped row
    /// replaces any cached copy, is re-seeded with its direct edges, and
    /// queues as a pivot.
    fn migrate_in(&mut self, v: u32, mut row: Vec<u32>, adj: &[(u32, u32)]) {
        for &(t, w) in adj {
            row[t as usize] = row[t as usize].min(w);
        }
        self.rows.insert(v, row);
        self.locals.push(v);
        self.locals.sort_unstable();
        self.dirty.insert(v);
        self.pending.insert(v);
    }

    /// The old `absorb_snapshot` + `mark_all_for_resend` recovery kick.
    fn absorb_and_resend(&mut self, snap: &RankSnapshot) {
        for (v, row) in &snap.local {
            if self.is_local(v) {
                self.merge(v, &RowPayload::Full(row.to_vec()));
            }
        }
        for (v, row) in &snap.cached {
            if !self.is_local(v) {
                self.merge(v, &RowPayload::Full(row.to_vec()));
            }
        }
        self.dirty.extend(self.locals.iter().copied());
        self.pending.extend(self.locals.iter().copied());
    }
}

/// Asserts the live state matches the reference bit-for-bit: membership,
/// every row, and the dirty set.
fn assert_matches(state: &RankState, reference: &Reference, ctx: &str) {
    let ids = state.dv().all_ids_sorted();
    let ref_ids: Vec<u32> = reference.rows.keys().copied().collect();
    assert_eq!(ids, ref_ids, "{ctx}: row membership diverged");
    assert_eq!(state.local_vertices(), reference.locals, "{ctx}: local set diverged");
    for &v in &ids {
        assert_eq!(
            state.dv().row(v).expect("row exists"),
            reference.rows[&v].as_slice(),
            "{ctx}: row {v} diverged"
        );
    }
    let dirty: BTreeSet<u32> = state.dv().dirty_sorted().into_iter().collect();
    assert_eq!(dirty, reference.dirty, "{ctx}: dirty set diverged");
}

/// Builds the two-rank split of `g` under a seeded pseudo-random owner
/// map, runs IA on both ranks, and returns them with the owner map.
fn two_ranks(g: &AdjGraph, owner_bits: u64) -> (RankState, RankState, Vec<u32>) {
    let n = g.num_vertices();
    let owner: Vec<u32> = (0..n).map(|v| ((owner_bits >> (v % 64)) & 1) as u32).collect();
    let adj = |v: u32| g.neighbors(v).to_vec();
    let mut r0 = RankState::build(0, owner.clone(), adj);
    let mut r1 = RankState::build(1, owner.clone(), adj);
    r0.initial_approximation();
    r1.initial_approximation();
    (r0, r1, owner)
}

/// The rows of every message addressed to rank `to`, flattened.
fn rows_for(out: Vec<(usize, RowMsg)>, to: usize) -> Vec<(u32, RowPayload)> {
    out.into_iter().filter(|&(q, _)| q == to).flat_map(|(_, m)| m.rows).collect()
}

/// Rank 0 three times over — the sequential kernel, the 4-thread kernel
/// and the reference model — driven in lockstep and compared after every
/// kernel call.
struct Trio {
    seq: RankState,
    par: RankState,
    reference: Reference,
}

impl Trio {
    fn new(r0: RankState) -> Self {
        let reference = Reference::capture(&r0);
        let (mut seq, mut par) = (r0.clone(), r0);
        seq.set_kernel_threads(1);
        par.set_kernel_threads(4);
        Self { seq, par, reference }
    }

    fn each(&mut self, mut f: impl FnMut(&mut RankState)) {
        f(&mut self.seq);
        f(&mut self.par);
    }

    fn consume(&mut self, rows: Vec<(u32, RowPayload)>, ctx: &str) {
        let changed = self.reference.consume(&rows);
        self.each(|s| s.consume_rc_messages(vec![(1, RowMsg { rows: rows.clone() })]));
        assert_eq!(self.seq.last_changed, changed, "{ctx}: verdict diverged (seq)");
        assert_eq!(self.par.last_changed, changed, "{ctx}: verdict diverged (par)");
        self.check(ctx);
    }

    fn relax_pending(&mut self, ctx: &str) {
        self.reference.relax_pending();
        self.each(RankState::relax_pending);
        self.check(ctx);
    }

    fn check(&self, ctx: &str) {
        assert_matches(&self.seq, &self.reference, &format!("{ctx}, seq"));
        assert_matches(&self.par, &self.reference, &format!("{ctx}, par"));
        self.check_bounds();
    }

    /// Every chunk bound of both stores holds (`DvStore::check_bounds`
    /// exists in builds with debug assertions).
    fn check_bounds(&self) {
        #[cfg(debug_assertions)]
        for state in [&self.seq, &self.par] {
            state.dv().check_bounds();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random graph, random partition, two consume rounds: first the real
    /// boundary rows produced by the peer rank, then a round of arbitrary
    /// synthetic rows (random distances, random targets — exercising
    /// cached-row creation and non-boundary pivots). After every round,
    /// the arena kernel must match the old kernel on rows, dirty set, and
    /// verdict, under both 1 and 4 worker threads.
    #[test]
    fn arena_kernel_matches_old_kernel(
        g in arb_graph(),
        owner_bits in 0u64..u64::MAX,
        synthetic in proptest::collection::vec(
            (0usize..32, proptest::collection::vec(0u32..40, 32)), 0..6),
    ) {
        let n = g.num_vertices();
        let (r0, mut r1, _) = two_ranks(&g, owner_bits);
        let mut trio = Trio::new(r0);

        // Round 1: the peer's real post-IA boundary rows.
        trio.consume(rows_for(r1.produce_rc_messages(usize::MAX), 0), "round 1");

        // Round 2: synthetic rows clipped to this graph's width.
        let synth = synthetic
            .into_iter()
            .filter(|&(v, _)| v < n)
            .map(|(v, row)| (v as u32, RowPayload::Full(row[..n].to_vec())))
            .collect();
        trio.consume(synth, "round 2");
    }

    /// Random programs over every write path that feeds the kernel: Full
    /// and Delta (sparse-pair) merges into local and cached rows, vertex
    /// growth with the Fig. 3 edge relaxation as the engine runs a wave
    /// (each distinct endpoint held once, every edge absorbed, one settle) or the
    /// seeded edges of Repartition-S, budgeted migration in both
    /// directions (swap-remove must carry a moved row's record), the
    /// recovery kick (`absorb_snapshot` + `mark_all_for_resend`) and real
    /// exchanges with the peer. Rows and dirty sets must match the old
    /// kernel after every kernel call, on 1 and 4 threads.
    #[test]
    fn delta_kernel_matches_old_kernel_on_programs(
        g in arb_graph(),
        owner_bits in 0u64..u64::MAX,
        program in proptest::collection::vec(
            (0u32..6, 0u64..u64::MAX, proptest::collection::vec(0u32..40, 40)), 1..10),
    ) {
        let mut g = g;
        let (r0, mut r1, mut owner) = two_ranks(&g, owner_bits);
        // The peer sends real deltas once rank 0 holds a row's base copy.
        r1.set_wire(WireFormat::Delta);
        let early = r0.to_snapshot();
        let mut trio = Trio::new(r0);

        for (step, (op, a, vals)) in program.into_iter().enumerate() {
            let n = g.num_vertices();
            let ctx = format!("step {step} op {op}");
            let pick = |shift: u32, m: usize| ((a >> shift) % m as u64) as u32;
            match op {
                // Full rows into up to three targets, local or cached.
                0 => {
                    let rows = (0..1 + pick(0, 3))
                        .map(|i| {
                            let mut row = vals.clone();
                            row.rotate_left(i as usize);
                            (pick(8 + 8 * i, n), RowPayload::Full(row[..n].to_vec()))
                        })
                        .collect();
                    trio.consume(rows, &ctx);
                }
                // Sparse pairs into up to three targets.
                1 => {
                    let rows = (0..1 + pick(0, 3))
                        .map(|i| {
                            let pairs = vals[4 * i as usize..][..4]
                                .iter()
                                .map(|&x| (x % n as u32, (x / 2) % 20))
                                .collect();
                            (pick(8 + 8 * i, n), RowPayload::Delta(pairs))
                        })
                        .collect();
                    trio.consume(rows, &ctx);
                }
                // One or two new vertices, each attached to an old one.
                2 => {
                    let k = 1 + pick(0, 2) as usize;
                    let owners: Vec<u32> = (0..k).map(|i| pick(1 + i as u32, 2)).collect();
                    let edges: Vec<(u32, u32, u32)> = (0..k)
                        .map(|i| (n as u32 + i as u32, pick(8 + 8 * i as u32, n), 1 + vals[i] % 7))
                        .collect();
                    g.add_vertices(k);
                    for &(x, y, w) in &edges {
                        g.add_edge(x, y, w).expect("fresh edge");
                    }
                    owner.extend_from_slice(&owners);
                    let msg = GrowMsg { base: n as u32, owners, edges: edges.clone() };
                    trio.reference.grow(&msg, 0);
                    trio.each(|s| s.grow(&msg));
                    r1.grow(&msg);
                    // Half the time the batch is only seeded (Repartition-S's
                    // way with its edges) and left pending, so exact records
                    // cross whatever the next step does to the arena (a
                    // migration swap-removes rows under them).
                    if a >> 40 & 1 != 0 {
                        trio.reference.seed_edges(&edges);
                        trio.each(|s| s.seed_edges(&edges));
                        r1.seed_edges(&edges);
                    } else {
                        // The engine's wave: each distinct endpoint row is
                        // held once, then every edge is absorbed in order.
                        let mut shared = BTreeSet::new();
                        for v in edges.iter().flat_map(|&(x, y, _)| [x, y]) {
                            if !shared.insert(v) {
                                continue;
                            }
                            let row = match owner[v as usize] {
                                0 => trio.seq.row_for_broadcast(v),
                                _ => r1.row_for_broadcast(v),
                            };
                            trio.reference.hold(v, &row);
                            for s in [&mut trio.seq, &mut trio.par, &mut r1] {
                                s.hold_row(v, &row);
                            }
                        }
                        for (x, y, w) in edges {
                            trio.reference.absorb_edge(x, y, w);
                            for s in [&mut trio.seq, &mut trio.par, &mut r1] {
                                s.absorb_edge(x, y, w);
                            }
                        }
                        let local = |t: u32| owner[t as usize] == 0;
                        trio.reference.settle(|v| g.neighbors(v).iter().any(|e| local(e.0)));
                        trio.each(RankState::settle);
                        trio.check(&ctx);
                        r1.settle();
                    }
                }
                // Budgeted migration: one vertex each way where possible.
                3 => {
                    let mut moves = Vec::new();
                    let (l0, l1) = (trio.seq.local_vertices(), r1.local_vertices());
                    if l0.len() > 1 {
                        moves.push((l0[pick(0, l0.len()) as usize], 1));
                    }
                    if l1.len() > 1 {
                        moves.push((l1[pick(16, l1.len()) as usize], 0));
                    }
                    for &(v, p) in &moves {
                        owner[v as usize] = p;
                    }
                    trio.each(|s| s.apply_reassignment(&moves));
                    r1.apply_reassignment(&moves);
                    let to_r0: Vec<(usize, RowMsg)> =
                        r1.migrate_out_moved().into_iter().map(|(_, m)| (1, m)).collect();
                    let out_seq = trio.seq.migrate_out_moved();
                    prop_assert_eq!(&out_seq, &trio.par.migrate_out_moved());
                    for &(v, p) in &moves {
                        if p == 1 {
                            trio.reference.migrate_out(v);
                        }
                    }
                    for (v, payload) in to_r0.iter().flat_map(|(_, m)| &m.rows) {
                        let RowPayload::Full(row) = payload else { unreachable!("full rows") };
                        trio.reference.migrate_in(*v, row.clone(), g.neighbors(*v));
                    }
                    let adj = |v: u32| g.neighbors(v).to_vec();
                    trio.each(|s| s.migrate_in_moved(&moves, to_r0.clone(), adj));
                    let to_r1 = out_seq.into_iter().map(|(_, m)| (0, m)).collect();
                    r1.migrate_in_moved(&moves, to_r1, adj);
                    trio.relax_pending(&ctx);
                    r1.relax_pending();
                }
                // Recovery kick from the snapshot taken before the program.
                4 => {
                    trio.reference.absorb_and_resend(&early);
                    trio.each(|s| {
                        s.absorb_snapshot(&early);
                        s.mark_all_for_resend();
                    });
                    trio.relax_pending(&ctx);
                }
                // A real exchange in both directions.
                _ => {
                    let out_seq = trio.seq.produce_rc_messages(usize::MAX);
                    prop_assert_eq!(&out_seq, &trio.par.produce_rc_messages(usize::MAX));
                    trio.reference.dirty.clear();
                    let inbox = rows_for(r1.produce_rc_messages(usize::MAX), 0);
                    trio.consume(inbox, &ctx);
                    r1.consume_rc_messages(out_seq.into_iter().map(|(_, m)| (0, m)).collect());
                }
            }
            // Also after the ops that end without a kernel call (a batch
            // left pending, a migration before its relaxation).
            trio.check_bounds();
            #[cfg(debug_assertions)]
            r1.dv().check_bounds();
        }
    }
}
