//! Per-processor state and the rank-local pieces of the algorithm:
//! the IA-phase walk, the recombination-step produce/consume logic,
//! the min-plus relaxation used everywhere, and the dynamic-update hooks.

use crate::dv::{DvStore, KernelTally, StoreRows, Witness};
use aaa_checkpoint::{CheckpointError, RankRows, RankSnapshot};
use aaa_graph::sssp::{bfs_rows, dijkstra_rows, BFS_LANES};
use aaa_graph::{closeness::closeness_from_row, Dist, PartId, VertexId, Weight, INF};
use aaa_runtime::Rank;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

/// Re-exported kernel (it lives next to the arena it operates on).
pub use crate::dv::relax_via;

/// How DV rows travel between ranks during RC steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Every send carries the full row (the paper's baseline wire).
    #[default]
    Full,
    /// Sends only the `(column, distance)` pairs lowered since the row's
    /// last send — the store's *unsent* record, no copy of what was sent —
    /// to destinations known to hold that send, falling back to the full
    /// row when the delta is dense or the destination is unsynced. See
    /// [`RankState::produce_rc_messages`] for why the chain reconstructs
    /// the row exactly, invalidations included.
    Delta,
}

impl std::str::FromStr for WireFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(Self::Full),
            "delta" => Ok(Self::Delta),
            other => Err(format!("unknown wire format '{other}' (expected full|delta)")),
        }
    }
}

/// One row on the wire: the full vector, or the sparse improvements since
/// the sender's last send to a synced destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowPayload {
    Full(Vec<Dist>),
    Delta(Vec<(VertexId, Dist)>),
}

impl RowPayload {
    /// Wire size: 8-byte row header plus 4 bytes per dense entry or 8 per
    /// sparse `(col, dist)` pair — what the LogP pricing sees.
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::Full(r) => 8 + 4 * r.len(),
            Self::Delta(p) => 8 + 8 * p.len(),
        }
    }
}

/// A bundle of distance-vector rows travelling between ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMsg {
    pub rows: Vec<(VertexId, RowPayload)>,
}

impl RowMsg {
    /// Wire size summed over the carried rows.
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(|(_, p)| p.size_bytes()).sum()
    }
}

/// Broadcast payload announcing a batch of new vertices (Fig. 3 inputs):
/// owners of the `k` vertices starting at global id `base`, plus all new
/// edges in insertion order.
#[derive(Debug, Clone)]
pub struct GrowMsg {
    pub base: VertexId,
    pub owners: Vec<PartId>,
    pub edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GrowMsg {
    pub fn size_bytes(&self) -> usize {
        8 + 4 * self.owners.len() + 12 * self.edges.len()
    }
}

/// Deterministic work counters of selective invalidation — what the
/// decremental changes (edge removals, weight increases, vertex removals)
/// cost in cells instead of a restart. Exact functions of the run, like
/// [`KernelTally`]. Rows and cells count **local** rows only, so summed
/// over ranks they are cells of the n × n matrix; cached copies are raised
/// by the same rule but not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationTally {
    /// Invalidations run: one per removed edge, per weight increase and
    /// per removed vertex that had an edge. Counted by the driver.
    pub changes: u64,
    /// Rows that lost at least one cell.
    pub rows_raised: u64,
    /// Cells raised to `INF`.
    pub cells_raised: u64,
    /// Raised cells the refill brought back finite from rows held on the
    /// same rank (the rest wait for RC).
    pub cells_refilled: u64,
}

impl std::ops::AddAssign for InvalidationTally {
    fn add_assign(&mut self, o: Self) {
        self.changes += o.changes;
        self.rows_raised += o.rows_raised;
        self.cells_raised += o.cells_raised;
        self.cells_refilled += o.cells_refilled;
    }
}

/// Undirected-edge key for the duplicate-edge probe.
#[inline]
fn edge_key(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(hi) << 32) | u64::from(lo)
}

/// The state a single logical processor owns.
#[derive(Debug, Clone)]
pub struct RankState {
    rank: Rank,
    /// Owner of every global vertex (replicated partition map).
    owner: Vec<PartId>,
    /// Sorted global ids of the vertices this rank owns.
    local: Vec<VertexId>,
    /// Adjacency of local vertices, in global ids (includes cut edges).
    adj: FxHashMap<VertexId, Vec<(VertexId, Weight)>>,
    /// Edges already recorded in `adj`, as packed undirected keys — an O(1)
    /// duplicate probe replacing the per-insert list scan (quadratic over a
    /// batched `grow`).
    edge_seen: FxHashSet<u64>,
    /// Distance vectors.
    dv: DvStore,
    /// Broadcast rows the drain in flight added to the cached arena (Fig. 3
    /// line 22), for [`RankState::settle`] to drop the ones nobody needs.
    held: Vec<VertexId>,
    /// Wire format for produced RC messages.
    wire: WireFormat,
    /// Worker threads for the relaxation kernel (1 = sequential).
    kernel_threads: usize,
    /// Delta wire tracking: per row, the destinations that hold it as of
    /// its last send (what changed since is the store's unsent record).
    /// Cleared — the next produce sends full rows — whenever receiver
    /// caches may diverge from that: migration, restore, recovery resend.
    synced: FxHashMap<VertexId, Vec<Rank>>,
    /// Whether the last produce emitted anything / consume changed anything
    /// (drives the global convergence reduction).
    pub last_sent: bool,
    pub last_changed: bool,
}

impl RankState {
    /// Builds the state for `rank` from the global graph and partition.
    /// `adjacency_of` must yield the neighbor list of any vertex.
    pub fn build(
        rank: Rank,
        owner: Vec<PartId>,
        adjacency_of: impl Fn(VertexId) -> Vec<(VertexId, Weight)>,
    ) -> Self {
        let n = owner.len();
        let local: Vec<VertexId> =
            (0..n as VertexId).filter(|&v| owner[v as usize] as usize == rank).collect();
        let mut adj = FxHashMap::default();
        let mut dv = DvStore::new(n);
        for &v in &local {
            adj.insert(v, adjacency_of(v));
            dv.add_local_row(v);
        }
        let mut state = Self {
            rank,
            owner,
            local,
            adj,
            edge_seen: FxHashSet::default(),
            dv,
            held: Vec::new(),
            wire: WireFormat::Full,
            kernel_threads: 1,
            synced: FxHashMap::default(),
            last_sent: false,
            last_changed: false,
        };
        state.rebuild_edge_seen();
        state
    }

    /// This rank's index.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Global vertex count as this rank sees it.
    pub fn n_global(&self) -> usize {
        self.owner.len()
    }

    /// Sorted local vertex ids.
    pub fn local_vertices(&self) -> &[VertexId] {
        &self.local
    }

    /// The distance-vector store (read access for tests/diagnostics).
    pub fn dv(&self) -> &DvStore {
        &self.dv
    }

    /// True if this rank has rows waiting to be sent.
    pub fn has_dirty(&self) -> bool {
        self.dv.has_dirty()
    }

    /// Work the relaxation kernel has done on this rank's store.
    pub fn kernel_tally(&self) -> KernelTally {
        self.dv.kernel_tally()
    }

    /// Carries the kernel work of the state this one replaces into its
    /// tally ([`DvStore::carry_tally`]).
    pub fn carry_kernel_tally(&mut self, earlier: KernelTally) {
        self.dv.carry_tally(earlier);
    }

    /// Selects the wire format for produced RC messages.
    pub fn set_wire(&mut self, wire: WireFormat) {
        self.wire = wire;
    }

    /// Whether every local row is known exact in the current graph, so
    /// that merges into the cache record nothing (*Exact ranks* in the
    /// `dv` module docs).
    pub fn is_exact(&self) -> bool {
        self.dv.is_exact()
    }

    /// Sets or clears [`RankState::is_exact`]. The driver calls it on every
    /// rank at once: set when a quiescence all-reduce found nothing left to
    /// do and no fault or chaos plan could have hidden work, cleared when a
    /// plan is armed. Every other transition happens on events every rank
    /// sees: a raise, seeded edges, a reassignment, a restore or a recovery.
    pub fn set_exact(&mut self, exact: bool) {
        self.dv.set_exact(exact);
    }

    /// Sets the relaxation kernel's worker-thread count (1 = sequential;
    /// the kernel is bit-identical for any value).
    pub fn set_kernel_threads(&mut self, threads: usize) {
        self.kernel_threads = threads.max(1);
    }

    /// Re-derives the duplicate-edge probe from the adjacency lists.
    fn rebuild_edge_seen(&mut self) {
        self.edge_seen.clear();
        for (&v, l) in &self.adj {
            for &(t, _) in l {
                self.edge_seen.insert(edge_key(v, t));
            }
        }
    }

    // --------------------------------------------------------------------
    // IA phase
    // --------------------------------------------------------------------

    /// Initial approximation: the shortest paths from every local vertex
    /// over the *local sub-graph* (local vertices plus external boundary
    /// vertices, using only edges incident to local vertices — §IV.B).
    ///
    /// When every edge of the sub-graph weighs 1 — every benchmark and paper
    /// graph — hop counts are the distances, and the local vertices walk
    /// together through the multi-source BFS [`bfs_rows`], `BFS_LANES` per
    /// pass; otherwise each runs its own Dijkstra. Either way the rows are
    /// the same integers.
    pub fn initial_approximation(&mut self) {
        let (ids, adj_local) = self.local_subgraph();
        let m = ids.len();
        let mut pairs = Vec::with_capacity(m);
        let Self { local, dv, .. } = self;
        // Writes a sub-graph row into the global-indexed row of `v`.
        let mut merge = |v: VertexId, row: &[Dist]| {
            pairs.clear();
            pairs.extend(ids.iter().copied().zip(row.iter().copied()));
            dv.min_merge_local_sparse(v, &pairs);
        };
        if adj_local.iter().flatten().all(|&(_, w)| w == 1) {
            // The local vertices are the sub-graph's first indices.
            let sources: Vec<u32> = (0..local.len() as u32).collect();
            let mut rows = vec![INF; BFS_LANES.min(local.len()) * m];
            for (batch, vs) in sources.chunks(BFS_LANES).zip(local.chunks(BFS_LANES)) {
                let rows = &mut rows[..batch.len() * m];
                bfs_rows(m, |x| adj_local[x as usize].iter().copied(), batch, rows);
                vs.iter().zip(rows.chunks_exact(m)).for_each(|(&v, row)| merge(v, row));
            }
        } else {
            let mut dist = vec![INF; m];
            for (s, &v) in local.iter().enumerate() {
                dijkstra_rows(|x| adj_local[x as usize].iter().copied(), s as u32, &mut dist);
                merge(v, &dist);
            }
        }
        // The rows are exact shortest paths of one sub-graph, so they are
        // closed among themselves: nothing is left to propagate here.
        dv.clear_unpropagated();
    }

    /// Lowers every local row to its shortest walk through a landmark:
    /// `D[v][t] ← min(D[v][t], min_L d(v, L) + d(L, t))`, where
    /// `landmarks` holds the exact row of each landmark `L`, `n` cells
    /// each, in the current (undirected) graph, so `d(v, L)` is cell `v`
    /// of `L`'s row (DESIGN.md §5, *Landmark-seeded IA*). Each sum is the
    /// length of a real walk, so every cell stays an upper bound. The
    /// merge is the tracked one: every lowered cell is recorded, and the
    /// kernel's closure invariant (§9) holds after it.
    pub fn seed_from_landmarks(&mut self, landmarks: &[Dist]) {
        let n = self.dv.n();
        if n == 0 || landmarks.is_empty() {
            return;
        }
        let mut via = vec![INF; n];
        for &v in &self.local {
            via.fill(INF);
            for row in landmarks.chunks_exact(n) {
                relax_via(&mut via, row[v as usize], row);
            }
            self.dv.min_merge_local(v, &via);
        }
    }

    /// Local sub-graph in dense local indices, the local vertices first:
    /// returns (local index → global id, adjacency).
    fn local_subgraph(&self) -> (Vec<VertexId>, Vec<Vec<(u32, Weight)>>) {
        let mut ids: Vec<VertexId> = self.local.clone();
        let mut index_of: FxHashMap<VertexId, u32> = FxHashMap::default();
        for (i, &v) in ids.iter().enumerate() {
            index_of.insert(v, i as u32);
        }
        // External boundary vertices get the tail indices.
        for &v in &self.local {
            for &(t, _) in &self.adj[&v] {
                index_of.entry(t).or_insert_with(|| {
                    ids.push(t);
                    (ids.len() - 1) as u32
                });
            }
        }
        let mut adj_local = vec![Vec::new(); ids.len()];
        for &v in &self.local {
            let vi = index_of[&v];
            for &(t, w) in &self.adj[&v] {
                let ti = index_of[&t];
                adj_local[vi as usize].push((ti, w));
                // Cut edges exist only in the local vertex's list; mirror
                // them so a path can run through boundary vertices.
                // Local-local edges already appear in both lists.
                if !self.dv.is_local(t) {
                    adj_local[ti as usize].push((vi, w));
                }
            }
        }
        (ids, adj_local)
    }

    // --------------------------------------------------------------------
    // RC phase
    // --------------------------------------------------------------------

    /// Destination ranks that need vertex `v`'s row: owners of its remote
    /// neighbors.
    fn boundary_destinations(&self, v: VertexId) -> Vec<Rank> {
        let mut dests: Vec<Rank> = self
            .adj
            .get(&v)
            .map(|l| {
                l.iter()
                    .map(|&(t, _)| self.owner[t as usize] as Rank)
                    .filter(|&q| q != self.rank)
                    .collect()
            })
            .unwrap_or_default();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// Produce phase of one RC step: bundle every dirty *boundary* row for
    /// each neighboring rank, chunked to at most `cap_bytes` per message
    /// (the paper's maximum message size `M`). Dirty non-boundary rows are
    /// simply retired — no one else needs them.
    ///
    /// Under [`WireFormat::Delta`], a destination that holds this row as of
    /// its last send receives only the pairs of the store's unsent record,
    /// unless the delta is dense enough that the full row is smaller on the
    /// wire. The payload is exactly what such a receiver lacks. A clear
    /// bit: the cell was not lowered since the send, so it equals the
    /// receiver's, and if an invalidation raised it, the one rule
    /// ([`Witness::raise_row`]) decided alike on both sides. A set bit on a
    /// finite cell: it was lowered, the row is dirty, the cell travels. A
    /// set bit on an `INF` cell: lowered, then raised together with the
    /// receiver's at-least-as-great copy; `INF` never travels. The record
    /// is cleared when, and only when, the row is sent: a dirty row without
    /// a destination (a vertex that lost every edge) keeps its bits, for
    /// once it is re-attached its receivers still hold the old send.
    pub fn produce_rc_messages(&mut self, cap_bytes: usize) -> Vec<(Rank, RowMsg)> {
        let dirty = self.dv.take_dirty_sorted();
        let mut buckets: BTreeMap<Rank, Vec<(VertexId, RowPayload)>> = BTreeMap::new();
        for v in dirty {
            let dests = self.boundary_destinations(v);
            if dests.is_empty() {
                continue;
            }
            let row = self.dv.local_row(v).expect("dirty row must be local");
            // Empty under the Full wire. One delta serves every synced
            // destination: they all hold the same send.
            let synced = self.synced.get(&v);
            let mut pairs = None;
            for &q in &dests {
                let payload = if synced.is_some_and(|s| s.binary_search(&q).is_ok()) {
                    let pairs = pairs.get_or_insert_with(|| self.dv.unsent_pairs(v));
                    if 8 * pairs.len() < 4 * row.len() {
                        RowPayload::Delta(pairs.clone())
                    } else {
                        RowPayload::Full(row.to_vec())
                    }
                } else {
                    RowPayload::Full(row.to_vec())
                };
                buckets.entry(q).or_default().push((v, payload));
            }
            self.dv.clear_unsent(v);
            if self.wire == WireFormat::Delta {
                self.synced.insert(v, dests);
            }
        }
        let mut out = Vec::new();
        for (q, rows) in buckets {
            // Chunk to the message cap; every chunk carries ≥ 1 row.
            let mut chunk: Vec<(VertexId, RowPayload)> = Vec::new();
            let mut bytes = 0usize;
            for (v, payload) in rows {
                let sz = payload.size_bytes();
                if !chunk.is_empty() && bytes + sz > cap_bytes {
                    out.push((q, RowMsg { rows: std::mem::take(&mut chunk) }));
                    bytes = 0;
                }
                bytes += sz;
                chunk.push((v, payload));
            }
            if !chunk.is_empty() {
                out.push((q, RowMsg { rows: chunk }));
            }
        }
        self.last_sent = !out.is_empty();
        out
    }

    /// Consume phase of one RC step: min-merge received boundary rows and
    /// run the recombination strategy (min-plus relaxation with the changed
    /// rows as pivots — the Floyd–Warshall-flavoured local refresh of
    /// §IV.C.1). The kernel's seeds are the rows whose unpropagated record
    /// is non-empty: the ones merged here and whatever dynamic updates left
    /// pending. Sets [`RankState::last_changed`].
    pub fn consume_rc_messages(&mut self, inbox: Vec<(Rank, RowMsg)>) {
        for (_, msg) in inbox {
            for (v, payload) in msg.rows {
                let local = self.dv.is_local(v);
                match payload {
                    RowPayload::Full(row) if local => self.dv.min_merge_local(v, &row),
                    RowPayload::Full(row) => self.dv.min_merge_cached(v, &row),
                    RowPayload::Delta(pairs) if local => self.dv.min_merge_local_sparse(v, &pairs),
                    RowPayload::Delta(pairs) => self.dv.min_merge_cached_sparse(v, &pairs),
                };
            }
        }
        self.last_changed = self.dv.relax_unpropagated(self.kernel_threads);
    }

    // --------------------------------------------------------------------
    // Dynamic updates (anywhere)
    // --------------------------------------------------------------------

    /// Applies a [`GrowMsg`]: extends the owner map and DV columns, creates
    /// rows/adjacency for newly owned vertices, and records new edges
    /// incident to local vertices (Fig. 3 lines 10–18 and 35–42).
    pub fn grow(&mut self, msg: &GrowMsg) {
        debug_assert_eq!(msg.base as usize, self.owner.len(), "grow out of order");
        self.owner.extend_from_slice(&msg.owners);
        self.dv.grow_columns(self.owner.len());
        for (i, &o) in msg.owners.iter().enumerate() {
            if o as usize == self.rank {
                let v = msg.base + i as VertexId;
                self.local.push(v);
                self.adj.insert(v, Vec::new());
                self.dv.add_local_row(v);
            }
        }
        self.local.sort_unstable();
        for &(a, b, w) in &msg.edges {
            self.record_edge(a, b, w);
        }
    }

    /// Records an edge in the local adjacency (both endpoints if owned).
    /// Duplicates are skipped via the O(1) packed-key probe; the first
    /// recording of an edge wins, as before.
    pub fn record_edge(&mut self, a: VertexId, b: VertexId, w: Weight) {
        let a_local = self.owner[a as usize] as usize == self.rank;
        let b_local = self.owner[b as usize] as usize == self.rank;
        if !a_local && !b_local {
            return;
        }
        if !self.edge_seen.insert(edge_key(a, b)) {
            return;
        }
        if a_local {
            self.adj.entry(a).or_default().push((b, w));
        }
        if b_local && b != a {
            self.adj.entry(b).or_default().push((a, w));
        }
    }

    /// Removes an edge from the local adjacency.
    pub fn erase_edge(&mut self, a: VertexId, b: VertexId) {
        if let Some(l) = self.adj.get_mut(&a) {
            l.retain(|&(t, _)| t != b);
        }
        if let Some(l) = self.adj.get_mut(&b) {
            l.retain(|&(t, _)| t != a);
        }
        self.edge_seen.remove(&edge_key(a, b));
    }

    /// Updates an edge weight in the local adjacency.
    pub fn reweight_edge(&mut self, a: VertexId, b: VertexId, w: Weight) {
        if let Some(l) = self.adj.get_mut(&a) {
            for e in l.iter_mut() {
                if e.0 == b {
                    e.1 = w;
                }
            }
        }
        if let Some(l) = self.adj.get_mut(&b) {
            for e in l.iter_mut() {
                if e.0 == a {
                    e.1 = w;
                }
            }
        }
    }

    /// Clones the current row of `v` for broadcasting (Fig. 3 line 22); the
    /// owner's call.
    pub fn row_for_broadcast(&self, v: VertexId) -> Vec<Dist> {
        self.dv.local_row(v).expect("a row is broadcast by its owner").to_vec()
    }

    /// Receives a broadcast row: a broadcast row is a held row. A non-owner
    /// min-merges it into its cached arena (the owner already has it),
    /// remembering the id if it held no row of `v` before.
    pub fn hold_row(&mut self, v: VertexId, row: &[Dist]) {
        if !self.dv.is_local(v) {
            if self.dv.row(v).is_none() {
                self.held.push(v);
            }
            self.dv.min_merge_cached(v, row);
        }
    }

    /// The edge addition (Fig. 3 lines 26–34, from the authors'
    /// edge-addition algorithm \[9\]) for the new edge `(x, y, w)`: each
    /// endpoint row held here, local or cached, takes
    /// `row_p ← min(row_p, w + row_q)` — path lengths now that the edge
    /// exists, so a cached copy may take it as well as the owner's row, and
    /// ranks that hold equal copies compute equal `x′`, `y′`. The kernel then
    /// gives every local row `a`
    /// `D[a][t] ≤ D[a][x] + x′[t] ≤ D[a][x] + w + D[y][t]` and the symmetric
    /// direction — the paper's line-29 test — when it next runs.
    pub fn absorb_edge(&mut self, x: VertexId, y: VertexId, w: Weight) {
        self.dv.min_merge_through(x, w as Dist, y);
        self.dv.min_merge_through(y, w as Dist, x);
    }

    /// Ends a drain, the one relaxation of its changes: relaxes everything
    /// they left unpropagated to the rank-local fixed point and drops
    /// exactly the rows the drain newly held that no local vertex
    /// neighbours. Not [`RankState::evict_unneeded_cached`]: a row cached
    /// before the drain stays although nothing here neighbours it any more,
    /// for its owner's `synced` may still list this rank, and a Delta aimed
    /// here once the vertex is re-attached needs the base it was cut from.
    pub fn settle(&mut self) {
        self.relax_pending();
        if self.held.is_empty() {
            return;
        }
        let mut drop = vec![false; self.owner.len()];
        for v in self.held.drain(..) {
            drop[v as usize] = true;
        }
        for &(t, _) in self.adj.values().flatten() {
            drop[t as usize] = false;
        }
        self.dv.retain_cached(|v| !drop[v as usize]);
    }

    /// Selective invalidation — this rank's share of every decremental
    /// change (the companion deletion \[10\] and weight-change \[7\]
    /// algorithms' job), run after the change reached the adjacency.
    /// Every cell held here that `witness` cannot vouch for is raised to
    /// `INF`, in both arenas by the one rule ([`Witness::raise_row`]) and in
    /// no copy beside them: the Delta wire keeps bits, not rows, and a
    /// raise owes them nothing ([`RankState::produce_rc_messages`]). Each
    /// raised local cell is then refilled from the rows held here and the
    /// direct edges — recorded like any lowering, so nothing relaxes here:
    /// the drain's [`RankState::settle`] does — and what this rank cannot
    /// know comes back with RC: a raised local row is dirty, and a raised
    /// cached cell comes back with its owner's next send — the owner raised
    /// it too, or holds it lower than it last sent, which left the row
    /// dirty and the cell's bit set.
    pub fn invalidate(&mut self, witness: &Witness) -> InvalidationTally {
        let raised = self.dv.raise(witness);
        let mut tally =
            InvalidationTally { rows_raised: raised.len() as u64, ..InvalidationTally::default() };
        for (v, cols) in &raised {
            tally.cells_raised += cols.len() as u64;
            tally.cells_refilled += self.dv.refill(*v, cols, &self.adj[v]) as u64;
        }
        tally
    }

    /// Runs the intra-rank relaxation over everything dynamic updates left
    /// unpropagated, so partial results are consistent before the next RC
    /// exchange.
    pub fn relax_pending(&mut self) {
        self.dv.relax_unpropagated(self.kernel_threads);
    }

    // --------------------------------------------------------------------
    // Migration
    // --------------------------------------------------------------------
    //
    // One path moves rows whatever the size of the move list (a budgeted
    // rebalance, the diff to a fresh partition, Repartition-S):
    // `apply_reassignment` on every rank, then one exchange of
    // `migrate_out_moved` / `migrate_in_moved` + `evict_unneeded_cached`.
    // A row that stays is not re-announced: whoever gains a neighbour of it
    // gains that neighbour's row as its old owner left it, relaxed through
    // the copy cached there, and the new owner map routes every later
    // change of the kept row.

    /// Applies a reassignment to the replicated owner map without touching
    /// rows. Must run on **every** rank, including bystanders that neither
    /// send nor receive rows: the moves change boundary-destination sets
    /// everywhere, and a delta chain aimed at a receiver that never held
    /// the base copy (or evicted it) would be unsound — so wire tracking is
    /// dropped and the next produce ships full rows.
    pub fn apply_reassignment(&mut self, moves: &[(VertexId, PartId)]) {
        self.dv.set_exact(false);
        for &(v, p) in moves {
            self.owner[v as usize] = p;
        }
        self.synced.clear();
    }

    /// Produce side of a migration: ships full rows (whatever the wire
    /// format) of local vertices whose (already reassigned) owner is
    /// elsewhere. The local set and adjacency shrink in place, so the cost
    /// scales with the move list rather than the rank's whole holding.
    pub fn migrate_out_moved(&mut self) -> Vec<(Rank, RowMsg)> {
        let mut buckets: BTreeMap<Rank, Vec<(VertexId, RowPayload)>> = BTreeMap::new();
        let mut departed = false;
        for i in (0..self.local.len()).rev() {
            let v = self.local[i];
            let q = self.owner[v as usize] as Rank;
            if q == self.rank {
                continue;
            }
            if let Some(row) = self.dv.remove_local(v) {
                buckets.entry(q).or_default().push((v, RowPayload::Full(row)));
            }
            self.adj.remove(&v);
            self.local.remove(i);
            departed = true;
        }
        if departed {
            self.rebuild_edge_seen();
        }
        let sorted = |(q, mut rows): (Rank, Vec<(VertexId, RowPayload)>)| {
            rows.sort_unstable_by_key(|&(v, _)| v);
            (q, RowMsg { rows })
        };
        buckets.into_iter().map(sorted).collect()
    }

    /// Consume side of a migration: installs gained rows — recorded whole,
    /// so each is a pivot of the next relaxation — extends the local set
    /// and adjacency in place and re-seeds each gained row with its direct
    /// edges. The owner map must already reflect the reassignment (see
    /// [`RankState::apply_reassignment`]). A shipped row carries everything
    /// the old owner knew at the barrier, and later improvements from other
    /// ranks re-route here through the updated owner map, so the relaxation
    /// still converges to the same unique fixed point.
    ///
    /// Self-healing: a move in `moves` targeting this rank whose row never
    /// arrived (an aborted migration round over a real transport) restarts
    /// from the admissible trivial row — the relaxation re-converges it,
    /// exactly like a respawned worker. This makes re-executing the whole
    /// operation idempotent.
    pub fn migrate_in_moved(
        &mut self,
        moves: &[(VertexId, PartId)],
        inbox: Vec<(Rank, RowMsg)>,
        adjacency_of: impl Fn(VertexId) -> Vec<(VertexId, Weight)>,
    ) {
        let n = self.owner.len();
        let mut gained: Vec<VertexId> = Vec::new();
        for (_, msg) in inbox {
            for (v, payload) in msg.rows {
                debug_assert_eq!(self.owner[v as usize] as usize, self.rank);
                match payload {
                    RowPayload::Full(row) => {
                        self.dv.install_local(v, &row, true);
                        gained.push(v);
                    }
                    RowPayload::Delta(_) => {
                        debug_assert!(false, "migration ships full rows");
                    }
                }
            }
        }
        for &(v, p) in moves {
            if p as usize == self.rank && !self.dv.is_local(v) {
                let mut row = vec![INF; n];
                row[v as usize] = 0;
                self.dv.install_local(v, &row, true);
                gained.push(v);
            }
        }
        if gained.is_empty() {
            return;
        }
        gained.sort_unstable();
        gained.dedup();
        for &v in &gained {
            if let Err(at) = self.local.binary_search(&v) {
                self.local.insert(at, v);
            }
            // Only the edges among vertices this rank has seen: under
            // Repartition-S the rest arrive with the batch.
            let mut edges = adjacency_of(v);
            edges.retain(|&(t, _)| (t as usize) < n);
            let seeds: Vec<_> = edges.iter().map(|&(t, w)| (t, w as Dist)).collect();
            self.dv.min_merge_local_sparse(v, &seeds);
            self.adj.insert(v, edges);
        }
        self.rebuild_edge_seen();
    }

    /// Drops every cached row whose vertex no longer neighbours a local
    /// vertex — the last step of a migration's consume side. Such a row
    /// gets no update any more (this rank is not a destination of it), yet
    /// every raise, refill and checkpoint would walk it. Apart from
    /// [`RankState::migrate_in_moved`] because `tests/relax_equivalence.rs`
    /// compares that one's row membership with a model that never evicts.
    pub fn evict_unneeded_cached(&mut self) {
        let mut needed = vec![false; self.owner.len()];
        for &(t, _) in self.adj.values().flatten() {
            needed[t as usize] = true;
        }
        self.dv.retain_cached(|v| needed[v as usize]);
    }

    /// Lowers `D[a][b]` and `D[b][a]` to `w` for every listed edge, on the
    /// rows held here: all Repartition-S tells the rows about a batch's
    /// edges (the anywhere strategies relax every row over each one
    /// instead), and what RC needs to take it from there.
    pub fn seed_edges(&mut self, edges: &[(VertexId, VertexId, Weight)]) {
        // RC carries the edges from here: the local rows are no longer
        // exact, so what it merges into the cache must be recorded.
        self.dv.set_exact(false);
        for &(a, b, w) in edges {
            for (x, y) in [(a, b), (b, a)] {
                if self.dv.is_local(x) {
                    self.dv.min_merge_local_sparse(x, &[(y, w as Dist)]);
                }
            }
        }
    }

    // --------------------------------------------------------------------
    // Checkpoint & recovery
    // --------------------------------------------------------------------

    /// This rank's DV state as the checkpoint encoder reads it, rows in
    /// place. Only row data, the dirty mask and the pending pivots are
    /// captured — ownership and adjacency are rebuilt deterministically
    /// from the graph + partition sections on restore. `pending` is
    /// derived: the local rows whose unpropagated record is non-empty (at a
    /// barrier no cached row has one).
    pub(crate) fn rows(&self) -> StoreRows<'_> {
        self.dv.rows(self.rank as u32)
    }

    /// This rank's DV state as the checkpoint encoder reads it, copied into
    /// a [`RankSnapshot`].
    pub fn to_snapshot(&self) -> RankSnapshot {
        RankSnapshot::from_rows(&self.rows())
    }

    /// Installs a snapshot's rows into a freshly built state — the *exact
    /// restore* path, where the engine was rebuilt from the snapshot's own
    /// graph + partition and the rows must come back bit-identical. The
    /// rows come from any source: a section payload the decoder just
    /// verified, or a [`RankSnapshot`]. Each row is copied once, into its
    /// slot; a new cached row is appended, not filled and then overwritten.
    /// Local rows for vertices this rank does not own, and cached rows for
    /// vertices it does, are skipped; a row id past the vertex count is
    /// `Malformed`. Rows shorter than the current column count are
    /// INF-padded by the store. The dirty mask is installed exactly as
    /// captured. The rows come back propagated: a snapshot is taken at a
    /// barrier, where every lowered row has already seeded a kernel call,
    /// so only the pending rows — whose record the snapshot does not
    /// carry — are marked whole.
    ///
    /// For recovery against a possibly *older* snapshot use
    /// [`RankState::absorb_snapshot`] instead: replacement here would wipe
    /// the fresh IA rows' knowledge of edges added after the capture.
    pub fn restore_rows(&mut self, rows: &impl RankRows) -> Result<(), CheckpointError> {
        let n = self.dv.n();
        let in_range = |v: VertexId| {
            if (v as usize) < n {
                return Ok(());
            }
            Err(CheckpointError::Malformed(format!("row {v} past {n} vertices")))
        };
        rows.try_for_each(false, |v, row| {
            in_range(v)?;
            if self.dv.is_local(v) {
                self.dv.install_local(v, row, false);
            }
            Ok::<_, CheckpointError>(())
        })?;
        rows.try_for_each(true, |v, row| {
            in_range(v)?;
            if !self.dv.is_local(v) {
                self.dv.install_cached(v, row);
            }
            Ok::<_, CheckpointError>(())
        })?;
        self.dv.clear_dirty();
        for &v in rows.dirty() {
            if self.dv.is_local(v) {
                self.dv.mark_dirty(v);
            }
        }
        self.dv.clear_unpropagated();
        self.dv.set_exact(false);
        for &v in rows.pending() {
            if self.dv.is_local(v) {
                self.dv.mark_unpropagated(v);
            }
        }
        self.synced.clear();
        self.last_sent = false;
        self.last_changed = false;
        Ok(())
    }

    /// Min-merges snapshot rows into the current state — the *rank
    /// recovery* path. The snapshot may predate the current graph (j ≤ k,
    /// possibly with additions in between), so nothing is replaced: the
    /// freshly recomputed IA rows — which know every edge present *now* —
    /// survive, and the snapshot contributes wherever its distances are
    /// better. Both sides are upper bounds on the true distances, so the
    /// merge is too, and min-merge replay re-converges to the same unique
    /// fixed point. The caller vouches that no decremental change
    /// separates the snapshot's graph from the current one — after one its
    /// rows are bounds for a graph that no longer exists
    /// (`AnytimeEngine::recover_rank` checks).
    pub fn absorb_snapshot(&mut self, snap: &RankSnapshot) {
        self.dv.set_exact(false);
        for (v, row) in &snap.local {
            if self.dv.is_local(v) {
                self.dv.min_merge_local(v, row);
            }
        }
        for (v, row) in &snap.cached {
            if !self.dv.is_local(v) {
                self.dv.min_merge_cached(v, row);
            }
        }
    }

    /// Marks every local row dirty and queues a full local relaxation —
    /// the recovery kick: after a rank is rebuilt from an older snapshot,
    /// every rank re-announces its rows so the recovered rank's stale
    /// entries are overwritten by min-merge on the next RC steps. Delta
    /// tracking is dropped so the re-announcements are full rows — the
    /// recovered rank's caches hold nothing to delta against.
    pub fn mark_all_for_resend(&mut self) {
        self.dv.set_exact(false);
        self.dv.mark_all_dirty();
        self.dv.mark_all_unpropagated();
        self.synced.clear();
    }

    // --------------------------------------------------------------------
    // Queries
    // --------------------------------------------------------------------

    /// Closeness centrality of every local vertex from its current DV.
    pub fn local_closeness(&self) -> Vec<(VertexId, f64)> {
        self.local
            .iter()
            .map(|&v| (v, closeness_from_row(self.dv.local_row(v).expect("local row"))))
            .collect()
    }

    /// Drains the set of local rows whose values changed since the last
    /// published epoch, sorted by id — each rank's contribution to a
    /// `ViewDelta`. Ids that were epoch-dirtied but have since migrated
    /// away are dropped — the receiving rank re-dirtied them on install,
    /// so exactly one rank reports each moved row.
    pub fn take_epoch_changed(&mut self) -> Vec<VertexId> {
        self.dv.take_epoch_dirty_sorted().into_iter().filter(|&v| self.dv.is_local(v)).collect()
    }

    /// Clones all local rows (testing / gather).
    pub fn local_rows(&self) -> Vec<(VertexId, Vec<Dist>)> {
        self.local.iter().map(|&v| (v, self.dv.local_row(v).expect("local row").to_vec())).collect()
    }

    /// Panics unless this rank's state is admissible for the graph whose
    /// exact distances are `exact` — all that RC needs to reach the exact
    /// fixed point from here: every held cell (local or cached) is at least
    /// the true distance, and every local row has its self cell and its
    /// direct edges seeded.
    #[cfg(any(test, debug_assertions))]
    pub fn check_admissible(&self, exact: &aaa_graph::apsp::DistMatrix) {
        for v in self.dv.all_ids_sorted() {
            let row = self.dv.row(v).expect("row");
            for (t, (&d, &truth)) in row.iter().zip(exact.row(v)).enumerate() {
                assert!(
                    d >= truth,
                    "rank {}: cell {v}→{t} holds {d}, below the distance {truth}",
                    self.rank
                );
            }
        }
        for &v in &self.local {
            let row = self.dv.local_row(v).expect("local row");
            assert_eq!(row[v as usize], 0, "rank {}: self cell of {v}", self.rank);
            for &(t, w) in &self.adj[&v] {
                assert!(
                    row[t as usize] <= w as Dist,
                    "rank {}: edge {v}–{t} of weight {w} is not seeded",
                    self.rank
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::sssp::dijkstra;
    use aaa_graph::{dist_add, AdjGraph};
    use proptest::prelude::*;

    /// Path 0-1-2-3 (unit weights) split as {0,1} | {2,3}.
    fn two_rank_path() -> (RankState, RankState) {
        let owner = vec![0, 0, 1, 1];
        let adj = |v: VertexId| -> Vec<(VertexId, Weight)> {
            match v {
                0 => vec![(1, 1)],
                1 => vec![(0, 1), (2, 1)],
                2 => vec![(1, 1), (3, 1)],
                3 => vec![(2, 1)],
                _ => vec![],
            }
        };
        (RankState::build(0, owner.clone(), adj), RankState::build(1, owner, adj))
    }

    #[test]
    fn build_assigns_locals_and_rows() {
        let (r0, r1) = two_rank_path();
        assert_eq!(r0.local_vertices(), &[0, 1]);
        assert_eq!(r1.local_vertices(), &[2, 3]);
        assert_eq!(r0.dv().row(0).unwrap()[0], 0);
        assert_eq!(r0.dv().row(0).unwrap()[3], INF);
    }

    #[test]
    fn ia_covers_local_subgraph_including_boundary() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        // Rank 0 sees 0,1 and boundary vertex 2 via the cut edge 1-2.
        let row0 = r0.dv().row(0).unwrap();
        assert_eq!(row0[1], 1);
        assert_eq!(row0[2], 2);
        assert_eq!(row0[3], INF); // 3 invisible to rank 0
    }

    /// Every IA row is the per-source Dijkstra row of the rank's local
    /// sub-graph (the edges with a local end): on unit weights, where the
    /// ranks walk, more than `BFS_LANES` sources at P = 2; and with one
    /// weight-2 edge, which sends the ranks it touches to the Dijkstra loop.
    #[test]
    fn ia_rows_are_dijkstra_over_the_local_subgraph() {
        use aaa_graph::generators::{barabasi_albert, WeightModel};
        let unit = barabasi_albert(600, 3, WeightModel::Unit, 5).unwrap();
        let mut weighted = unit.clone();
        let (a, b, _) = unit.edges().nth(100).unwrap();
        weighted.set_weight(a, b, 2).unwrap();
        for graph in [&unit, &weighted] {
            let n = graph.num_vertices();
            for procs in [2, 4] {
                let owner: Vec<PartId> = (0..n as PartId).map(|v| v % procs).collect();
                for r in 0..procs {
                    let mut s =
                        RankState::build(r as Rank, owner.clone(), |v| graph.neighbors(v).to_vec());
                    s.initial_approximation();
                    let mut sub = AdjGraph::with_vertices(n);
                    for (u, v, w) in graph.edges() {
                        if owner[u as usize] == r || owner[v as usize] == r {
                            sub.add_edge(u, v, w).unwrap();
                        }
                    }
                    let sub = aaa_graph::Csr::from_adj(&sub);
                    for (v, row) in s.local_rows() {
                        let want = dijkstra(&sub, v);
                        assert!(row == want, "P = {procs}, rank {r}: IA row of {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn rc_exchange_converges_on_path() {
        let (mut r0, mut r1) = two_rank_path();
        r0.initial_approximation();
        r1.initial_approximation();
        // Simulate RC steps by hand until quiet.
        for _ in 0..4 {
            let out0 = r0.produce_rc_messages(usize::MAX);
            let out1 = r1.produce_rc_messages(usize::MAX);
            let to1: Vec<(usize, RowMsg)> =
                out0.into_iter().filter(|&(q, _)| q == 1).map(|(_, m)| (0, m)).collect();
            let to0: Vec<(usize, RowMsg)> =
                out1.into_iter().filter(|&(q, _)| q == 0).map(|(_, m)| (1, m)).collect();
            r0.consume_rc_messages(to0);
            r1.consume_rc_messages(to1);
        }
        assert_eq!(r0.dv().row(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(r1.dv().row(3).unwrap(), &[3, 2, 1, 0]);
        // Quiescent now: nothing left to send on either side.
        assert!(r0.produce_rc_messages(usize::MAX).is_empty());
        assert!(r1.produce_rc_messages(usize::MAX).is_empty());
    }

    #[test]
    fn produce_clears_dirty_and_chunks_to_cap() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        // Only vertex 1 is boundary (neighbor 2 owned by rank 1).
        let msgs = r0.produce_rc_messages(1); // tiny cap: one row per message
        assert!(msgs.iter().all(|(q, _)| *q == 1));
        let total_rows: usize = msgs.iter().map(|(_, m)| m.rows.len()).sum();
        assert_eq!(total_rows, 1);
        assert!(!r0.has_dirty());
        // Nothing new -> nothing to send.
        assert!(r0.produce_rc_messages(usize::MAX).is_empty());
        assert!(!r0.last_sent);
    }

    /// Same convergence as `rc_exchange_converges_on_path`, but over the
    /// delta wire: after the first full-row exchange, later sends are
    /// sparse deltas, and the fixed point is identical.
    #[test]
    fn delta_wire_converges_and_sends_sparse_after_sync() {
        let exchange = |r0: &mut RankState, r1: &mut RankState| -> Vec<(usize, RowMsg)> {
            let out0 = r0.produce_rc_messages(usize::MAX);
            let out1 = r1.produce_rc_messages(usize::MAX);
            let to0: Vec<(usize, RowMsg)> =
                out1.into_iter().filter(|&(q, _)| q == 0).map(|(_, m)| (1, m)).collect();
            let to1: Vec<(usize, RowMsg)> =
                out0.into_iter().filter(|&(q, _)| q == 1).map(|(_, m)| (0, m)).collect();
            r0.consume_rc_messages(to0);
            let all: Vec<(usize, RowMsg)> = to1.clone();
            r1.consume_rc_messages(to1);
            all
        };
        let (mut r0, mut r1) = two_rank_path();
        r0.set_wire(WireFormat::Delta);
        r1.set_wire(WireFormat::Delta);
        r0.initial_approximation();
        r1.initial_approximation();
        // First exchange: nothing synced yet, everything is a full row.
        let first = exchange(&mut r0, &mut r1);
        assert!(first
            .iter()
            .flat_map(|(_, m)| &m.rows)
            .all(|(_, p)| matches!(p, RowPayload::Full(_))));
        // Second exchange: rank 0's boundary row improved by one column
        // (it learned about vertex 3) — a sparse delta beats the full row.
        let second = exchange(&mut r0, &mut r1);
        assert!(second
            .iter()
            .flat_map(|(_, m)| &m.rows)
            .any(|(_, p)| matches!(p, RowPayload::Delta(_))));
        for _ in 0..2 {
            exchange(&mut r0, &mut r1);
        }
        assert_eq!(r0.dv().row(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(r1.dv().row(3).unwrap(), &[3, 2, 1, 0]);
        assert!(r0.produce_rc_messages(usize::MAX).is_empty());
        assert!(r1.produce_rc_messages(usize::MAX).is_empty());
    }

    #[test]
    fn grow_extends_columns_and_adds_local_vertex() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        let msg = GrowMsg { base: 4, owners: vec![0], edges: vec![(4, 1, 2)] };
        r0.grow(&msg);
        assert_eq!(r0.n_global(), 5);
        assert_eq!(r0.local_vertices(), &[0, 1, 4]);
        assert_eq!(r0.dv().row(4).unwrap()[4], 0);
        assert_eq!(r0.dv().row(0).unwrap().len(), 5);
        // Edge recorded for both local endpoints.
        assert!(r0.adj[&4].contains(&(1, 2)));
        assert!(r0.adj[&1].contains(&(4, 2)));
    }

    #[test]
    fn record_edge_dedups_against_built_adjacency() {
        let (mut r0, _) = two_rank_path();
        // Edge 0-1 already exists from build(); re-recording must not
        // duplicate it, in either orientation.
        r0.record_edge(0, 1, 1);
        r0.record_edge(1, 0, 1);
        assert_eq!(r0.adj[&0].iter().filter(|&&(t, _)| t == 1).count(), 1);
        assert_eq!(r0.adj[&1].iter().filter(|&&(t, _)| t == 0).count(), 1);
        // Erase forgets the edge, so it can be recorded again.
        r0.erase_edge(0, 1);
        assert!(r0.adj[&0].is_empty());
        r0.record_edge(0, 1, 5);
        assert!(r0.adj[&0].contains(&(1, 5)));
        assert!(r0.adj[&1].contains(&(0, 5)));
    }

    #[test]
    fn edge_absorb_uses_held_rows() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        // Pretend a new edge 0-3 of weight 1; rank 0 holds row(3), and as
        // the owner of row 0 ignores its own broadcast.
        r0.hold_row(3, &[INF, INF, 1, 0]);
        r0.hold_row(0, &r0.row_for_broadcast(0));
        assert_eq!(r0.held, vec![3]);
        r0.absorb_edge(0, 3, 1);
        // Row 0 learns d(0,3) = 1 and d(0,2) = 2 (via 3) at once, and the
        // held copy of row 3 its way back over the edge.
        assert_eq!(r0.dv().row(0).unwrap(), &[0, 1, 2, 1]);
        assert_eq!(r0.dv().row(3).unwrap(), &[1, 2, 1, 0]);
        // Row 1 waits for the kernel: d(1,3) ≤ d(1,0) + 1 + 0 = 2.
        assert_eq!(r0.dv().row(1).unwrap()[3], INF);
        r0.settle();
        assert_eq!(r0.dv().row(1).unwrap(), &[1, 0, 1, 2]);
        // Rank 0 did not record the edge, so nothing local neighbours 3:
        // the held row goes with its batch.
        assert!(r0.dv().row(3).is_none() && r0.held.is_empty());
    }

    #[test]
    fn relax_via_saturates_and_detects_change() {
        let mut row = vec![5, INF, 3];
        assert!(relax_via(&mut row, 1, &[3, 2, 9]));
        assert_eq!(row, vec![4, 3, 3]);
        assert!(!relax_via(&mut row, INF, &[0, 0, 0]));
        assert!(!relax_via(&mut row, 10, &[INF, INF, INF]));
    }

    #[test]
    fn budgeted_move_roundtrip_converges_to_same_fixed_point() {
        let adj = |v: VertexId| -> Vec<(VertexId, Weight)> {
            match v {
                0 => vec![(1, 1)],
                1 => vec![(0, 1), (2, 1)],
                2 => vec![(1, 1), (3, 1)],
                3 => vec![(2, 1)],
                _ => vec![],
            }
        };
        let (mut r0, mut r1) = two_rank_path();
        r0.initial_approximation();
        r1.initial_approximation();
        // Move vertex 1 to rank 1 via the budgeted path: reassign on every
        // rank, then exchange only the moved row.
        let moves = [(1, 1)];
        r0.apply_reassignment(&moves);
        r1.apply_reassignment(&moves);
        let out0 = r0.migrate_out_moved();
        assert_eq!(out0.len(), 1);
        assert_eq!(out0[0].0, 1);
        assert_eq!(out0[0].1.rows.len(), 1, "only the budgeted vertex ships");
        assert!(r1.migrate_out_moved().is_empty());
        r1.migrate_in_moved(&moves, out0.into_iter().map(|(_, m)| (0, m)).collect(), adj);
        r0.migrate_in_moved(&moves, vec![], adj);
        assert_eq!(r0.local_vertices(), &[0]);
        assert_eq!(r1.local_vertices(), &[1, 2, 3]);
        assert!(r1.has_dirty(), "a gained row is announced");
        // The shipped row kept the old owner's partial results.
        assert_eq!(r1.dv().row(1).unwrap()[2], 1);
        // RC steps after the move reach the exact distances.
        for _ in 0..4 {
            let out0 = r0.produce_rc_messages(usize::MAX);
            let out1 = r1.produce_rc_messages(usize::MAX);
            let to1: Vec<(usize, RowMsg)> =
                out0.into_iter().filter(|&(q, _)| q == 1).map(|(_, m)| (0, m)).collect();
            let to0: Vec<(usize, RowMsg)> =
                out1.into_iter().filter(|&(q, _)| q == 0).map(|(_, m)| (1, m)).collect();
            r0.consume_rc_messages(to0);
            r1.consume_rc_messages(to1);
        }
        assert_eq!(r0.dv().row(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(r1.dv().row(1).unwrap(), &[1, 0, 1, 2]);
        assert_eq!(r1.dv().row(3).unwrap(), &[3, 2, 1, 0]);
    }

    /// The point of the delta-driven kernel, pinned by its tally: once two
    /// ranks have converged, a one-column improvement of a cached row costs
    /// O(rows) list passes and not a single dense one.
    #[test]
    fn one_column_improvement_takes_sparse_passes_only() {
        // Rank 0 owns the path 0-1-2-3 and reaches vertex 6 two ways: via
        // boundary vertex 5 (0-5-6) and via boundary vertex 4 (3-4 ... 6).
        let edges: [(VertexId, VertexId, Weight); 8] = [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
            (0, 5, 1),
            (5, 6, 1),
            (4, 6, 10),
            (6, 7, 1),
        ];
        let adj = |v: VertexId| -> Vec<(VertexId, Weight)> {
            edges
                .iter()
                .filter_map(|&(a, b, w)| (v == a).then_some((b, w)).or((v == b).then_some((a, w))))
                .collect()
        };
        let owner = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let (mut r0, mut r1) =
            (RankState::build(0, owner.clone(), adj), RankState::build(1, owner, adj));
        r0.initial_approximation();
        r1.initial_approximation();
        for _ in 0..6 {
            let (out0, out1) =
                (r0.produce_rc_messages(usize::MAX), r1.produce_rc_messages(usize::MAX));
            r0.consume_rc_messages(out1.into_iter().map(|(_, m)| (1, m)).collect());
            r1.consume_rc_messages(out0.into_iter().map(|(_, m)| (0, m)).collect());
        }
        assert!(!r0.has_dirty() && !r1.has_dirty(), "converged");
        assert_eq!(r0.dv().row(3).unwrap()[6], 5);

        // Rank 1 learns a shortcut: d(4, 6) drops from 6 to 3. Only row 3
        // of rank 0 improves (to 4); rows 0-2 keep their route through 5.
        let before = r0.kernel_tally();
        let msg = RowMsg { rows: vec![(4, RowPayload::Delta(vec![(6, 3)]))] };
        r0.consume_rc_messages(vec![(1, msg)]);
        assert!(r0.last_changed);
        assert_eq!(r0.dv().row(3).unwrap()[6], 4);
        assert_eq!(r0.dv().row(2).unwrap()[6], 4);
        let after = r0.kernel_tally();
        assert_eq!(after.dense_passes, before.dense_passes, "no dense pass");
        // Round 1 schedules row 4's one-entry list through the 4 local
        // rows, round 2 row 3's through the other 3 (column 6 has no row
        // here, so row 3's own change schedules nothing). Of those 7 only
        // one is made: `through + 3` gets under the greatest chunk bound
        // of row 3 alone; the other rows' bounds prove the list cannot
        // lower them. Re-pinned for the chunk bounds — from here on the
        // pass counts may only fall.
        assert_eq!(after.sparse_passes - before.sparse_passes, 1);
        assert_eq!(after.list_passes_skipped - before.list_passes_skipped, 6);
        assert_eq!(after.cells - before.cells, 1);
        assert_eq!((after.calls - before.calls, after.rounds - before.rounds), (1, 2));
    }

    /// The sparse improvements from `prev` to `cur` — how the Delta wire
    /// derived its payloads while the sender kept a copy of every sent row,
    /// and the oracle the unsent record is held to. Columns `prev` never had
    /// (the row grew since the send) count as `INF`, like the receiver's.
    fn delta_pairs(prev: &[Dist], cur: &[Dist]) -> Vec<(VertexId, Dist)> {
        let before = |t: usize| prev.get(t).copied().unwrap_or(INF);
        let lowered = cur.iter().enumerate().filter(|&(t, &d)| d < before(t));
        lowered.map(|(t, &d)| (t as VertexId, d)).collect()
    }

    /// A few ranks on the Delta wire, driven by hand, next to the copies
    /// the ranks no longer keep: `shadow[v]` is row `v` as of its last send,
    /// raised by every witness since. Before any send the unsent record of
    /// every synced row must name exactly `delta_pairs(shadow, row)`; after
    /// every exchange each receiver's copy must equal what was sent.
    struct ShadowedWire {
        graph: AdjGraph,
        owner: Vec<PartId>,
        ranks: Vec<RankState>,
        shadow: FxHashMap<VertexId, Vec<Dist>>,
    }

    impl ShadowedWire {
        fn new(graph: AdjGraph, owner: Vec<PartId>, procs: usize) -> Self {
            let ranks = (0..procs)
                .map(|r| {
                    let mut s = RankState::build(r, owner.clone(), |v| graph.neighbors(v).to_vec());
                    s.set_wire(WireFormat::Delta);
                    s.initial_approximation();
                    s
                })
                .collect();
            Self { graph, owner, ranks, shadow: FxHashMap::default() }
        }

        fn owner_of(&mut self, v: VertexId) -> &mut RankState {
            &mut self.ranks[self.owner[v as usize] as usize]
        }

        /// Every row some destination holds a send of: bits against copy.
        fn check_send_records(&self, ctx: &str) {
            for r in &self.ranks {
                for (&v, _) in r.synced.iter().filter(|(_, dests)| !dests.is_empty()) {
                    let row = r.dv.local_row(v).expect("synced rows are local");
                    let want = delta_pairs(&self.shadow[&v], row);
                    assert_eq!(r.dv.unsent_pairs(v), want, "{ctx}: unsent record of row {v}");
                }
            }
        }

        /// One exchange; `None` once nothing is left to send, else whether
        /// a sparse delta travelled.
        fn exchange(&mut self, ctx: &str) -> Option<bool> {
            self.check_send_records(ctx);
            let mut inboxes: Vec<Vec<(Rank, RowMsg)>> = vec![Vec::new(); self.ranks.len()];
            let (mut sent, mut sparse) = (Vec::new(), false);
            for src in 0..self.ranks.len() {
                for (q, msg) in self.ranks[src].produce_rc_messages(usize::MAX) {
                    for (v, payload) in &msg.rows {
                        let row = self.ranks[src].dv.local_row(*v).expect("sent rows are local");
                        if let RowPayload::Delta(pairs) = payload {
                            assert_eq!(pairs, &delta_pairs(&self.shadow[v], row), "{ctx}: row {v}");
                            sparse = true;
                        }
                        sent.push((q, *v, row.to_vec()));
                    }
                    inboxes[q].push((src, msg));
                }
            }
            if sent.is_empty() {
                return None;
            }
            for (r, inbox) in self.ranks.iter_mut().zip(inboxes) {
                r.consume_rc_messages(inbox);
            }
            for (q, v, row) in sent {
                assert_eq!(self.ranks[q].dv.row(v), Some(&row[..]), "{ctx}: rank {q}'s row {v}");
                self.shadow.insert(v, row);
            }
            Some(sparse)
        }

        /// Exchanges until quiet; whether a sparse delta travelled.
        fn settle(&mut self, ctx: &str) -> bool {
            let mut sparse = false;
            for _ in 0..64 {
                match self.exchange(ctx) {
                    Some(delta) => sparse |= delta,
                    None => return sparse,
                }
            }
            panic!("{ctx}: no quiescence after 64 exchanges");
        }

        /// What a driver does about one recorded edge on every rank: the
        /// Fig. 3 relaxation (both endpoint rows held, the edge absorbed,
        /// the batch settled), or — `seed_only`, Repartition-S's path — the
        /// endpoint cells alone, which leaves those rows pending.
        fn relax_edge(&mut self, u: VertexId, v: VertexId, w: Weight, seed_only: bool) {
            if seed_only {
                return self.ranks.iter_mut().for_each(|r| r.seed_edges(&[(u, v, w)]));
            }
            let (ru, rv) =
                (self.owner_of(u).row_for_broadcast(u), self.owner_of(v).row_for_broadcast(v));
            for r in &mut self.ranks {
                r.hold_row(u, &ru);
                r.hold_row(v, &rv);
                r.absorb_edge(u, v, w);
                r.settle();
            }
        }

        fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight, relax: bool) {
            self.graph.add_edge(u, v, w).expect("fresh edge");
            self.ranks.iter_mut().for_each(|r| r.record_edge(u, v, w));
            self.relax_edge(u, v, w, !relax);
        }

        /// Selective invalidation with the real witness, on the ranks and
        /// on the shadow alike, settled like a drain of the one change.
        fn remove_edge(&mut self, u: VertexId, v: VertexId) -> InvalidationTally {
            let w = self.graph.edge_weight(u, v).expect("edge exists");
            let witness = Witness::edge(dijkstra(&self.graph, u), dijkstra(&self.graph, v), w);
            self.graph.remove_edge(u, v).expect("edge exists");
            let mut tally = InvalidationTally::default();
            for r in &mut self.ranks {
                r.erase_edge(u, v);
                tally += r.invalidate(&witness);
                r.settle();
            }
            let mut cols = Vec::new();
            for (&x, copy) in &mut self.shadow {
                witness.raise_row(x, copy, &mut cols);
            }
            tally
        }

        /// One new vertex owned by `p`, attached to `t`: relaxed over its
        /// edge (the anywhere strategies) or only seeded (Repartition-S).
        fn grow(&mut self, p: PartId, t: VertexId, w: Weight, seed_only: bool) {
            let x = self.graph.add_vertices(1);
            self.graph.add_edge(x, t, w).expect("fresh edge");
            self.owner.push(p);
            let msg = GrowMsg { base: x, owners: vec![p], edges: vec![(x, t, w)] };
            self.ranks.iter_mut().for_each(|r| r.grow(&msg));
            self.relax_edge(x, t, w, seed_only);
        }

        /// The one migration path, as both drivers run it.
        fn migrate(&mut self, moves: &[(VertexId, PartId)]) {
            for &(v, p) in moves {
                self.owner[v as usize] = p;
            }
            self.ranks.iter_mut().for_each(|r| r.apply_reassignment(moves));
            let mut inboxes: Vec<Vec<(Rank, RowMsg)>> = vec![Vec::new(); self.ranks.len()];
            for src in 0..self.ranks.len() {
                for (q, msg) in self.ranks[src].migrate_out_moved() {
                    inboxes[q].push((src, msg));
                }
            }
            let graph = &self.graph;
            for (r, inbox) in self.ranks.iter_mut().zip(inboxes) {
                r.migrate_in_moved(moves, inbox, |v| graph.neighbors(v).to_vec());
                r.evict_unneeded_cached();
            }
        }

        /// Every rank admissible for the graph as it stands, every send
        /// record exact.
        fn check(&self, ctx: &str) {
            let exact = aaa_graph::apsp::apsp_dijkstra(&aaa_graph::Csr::from_adj(&self.graph));
            for r in &self.ranks {
                r.check_admissible(&exact);
                r.dv.check_bounds();
            }
            self.check_send_records(ctx);
        }

        /// Settles and compares every local row with exact distances.
        fn assert_exact(&mut self, ctx: &str) {
            self.settle(ctx);
            for v in 0..self.graph.num_vertices() as VertexId {
                let want = dijkstra(&self.graph, v);
                assert_eq!(self.owner_of(v).dv.local_row(v), Some(&want[..]), "{ctx}: row {v}");
            }
        }
    }

    /// Sorted ids of the rows `r` holds without owning them.
    fn cached(r: &RankState) -> Vec<VertexId> {
        r.dv.all_ids_sorted().into_iter().filter(|&v| !r.dv.is_local(v)).collect()
    }

    /// Cycle 0-1-2-3-4-5-0, unit weights, split {0,1,2} | {3,4,5}.
    fn two_rank_ring() -> ShadowedWire {
        let mut b = aaa_graph::GraphBuilder::with_vertices(6);
        (0..6).for_each(|v| {
            b.edge(v, (v + 1) % 6, 1);
        });
        ShadowedWire::new(b.build().expect("ring"), vec![0, 0, 0, 1, 1, 1], 2)
    }

    /// The Delta wire across an invalidation: the receivers raise their
    /// copies of a sent row by the rule the sender's row is raised by, so
    /// the unsent bits still name exactly what the receivers lack — no
    /// copy at the sender to raise with them — the next delta is exact,
    /// and the exchange ends on the distances of the graph without the
    /// edge.
    #[test]
    fn invalidation_keeps_the_unsent_record_exact_against_the_receivers_copies() {
        let mut wire = two_rank_ring();
        wire.settle("cold");
        assert_eq!(wire.ranks[0].dv.row(0).unwrap(), &[0, 1, 2, 3, 2, 1]);

        let tally = wire.remove_edge(0, 1);
        // The paths over the edge, ties included: 3 cells each from its
        // ends, 2 from their neighbors, 1 from the far side.
        assert_eq!((tally.rows_raised, tally.cells_raised), (6, 12));
        assert!(tally.cells_refilled > 0 && tally.cells_refilled < 12);
        // Each receiver's copy is the shadow: the last send, raised.
        assert!(!wire.shadow.is_empty());
        for (v, copy) in &wire.shadow {
            let receiver = &wire.ranks[1 - wire.owner[*v as usize] as usize];
            assert_eq!(receiver.dv.row(*v).unwrap(), &copy[..], "receiver's copy of row {v}");
        }
        wire.check("after the raise");
        assert!(wire.settle("re-converging"), "the sync survived: deltas, not full rows");
        // The path 1-2-3-4-5-0.
        assert_eq!(wire.ranks[0].dv.row(0).unwrap(), &[0, 5, 4, 3, 2, 1]);
        assert_eq!(wire.ranks[0].dv.row(1).unwrap(), &[5, 0, 1, 2, 3, 4]);
        assert_eq!(wire.ranks[1].dv.row(3).unwrap(), &[3, 2, 1, 0, 1, 2]);
    }

    /// A dirty row that `produce` retires for want of a destination was not
    /// sent, so it keeps its unsent bits. Vertex 2 loses its one cut edge;
    /// its row is raised and partly refilled from rows held beside it,
    /// while rank 1's copy of it stays raised. Once a new vertex on rank 1
    /// attaches to 2, rank 1 is a destination again and still counts as
    /// synced: the delta must carry the refilled cells, not only the new
    /// column. (Clearing the record at the retire ships `(6, 1)` alone,
    /// and vertex 6 never learns its way to 3, 4 and 5.)
    #[test]
    fn a_row_retired_without_a_destination_keeps_its_send_record() {
        let mut wire = two_rank_ring();
        wire.settle("cold");
        wire.remove_edge(2, 3);
        assert_eq!(wire.ranks[0].dv.row(2).unwrap()[3..], [5, 4, 3], "refilled through 0 and 5");
        assert_eq!(wire.ranks[1].dv.row(2).unwrap()[3..], [INF; 3], "the copy waits");
        assert!(wire.ranks[0].boundary_destinations(2).is_empty());
        wire.settle("without the cut edge");
        assert_eq!(wire.ranks[0].dv.unsent_pairs(2), vec![(3, 5), (4, 4), (5, 3)]);

        wire.grow(1, 2, 1, true);
        assert_eq!(wire.ranks[0].boundary_destinations(2), vec![1]);
        wire.check("re-attached");
        assert!(wire.settle("re-attached"), "rank 1 still holds the old send: a delta");
        assert_eq!(wire.ranks[1].dv.row(2).unwrap(), &[2, 1, 0, 5, 4, 3, 1]);
        wire.assert_exact("re-attached");
        assert_eq!(wire.ranks[1].dv.row(6).unwrap(), &[3, 2, 1, 6, 5, 4, 0]);
    }

    /// A batch drops only the rows it held itself. Vertex 2 loses its one
    /// cut edge, so nothing on rank 1 neighbours it any more — yet rank 0's
    /// `synced[2]` still lists rank 1, and rank 1's copy of row 2 is the
    /// base the next Delta is cut against. A wave elsewhere (vertex 6 joins
    /// rank 0; rank 1 holds row 6 for the length of the batch and drops it)
    /// must leave that copy alone: once vertex 7 attaches to 2 by a seeded
    /// grow, which ships no endpoint row, rank 1 gets a Delta of row 2.
    /// (Dropping by `evict_unneeded_cached` throws the base away and the
    /// Delta lands on an all-`INF` row.)
    #[test]
    fn a_wave_keeps_the_rows_cached_before_it() {
        let mut wire = two_rank_ring();
        wire.settle("cold");
        wire.remove_edge(2, 3);
        wire.settle("without the cut edge");
        assert_eq!(cached(&wire.ranks[1]), vec![0, 2]);

        wire.grow(0, 0, 1, false);
        assert_eq!(cached(&wire.ranks[1]), vec![0, 2], "row 6 went with its batch, row 2 stayed");
        assert!(wire.ranks.iter().all(|r| r.held.is_empty()));
        wire.check("after the wave");

        wire.grow(1, 2, 1, true);
        wire.check("re-attached");
        assert!(wire.settle("re-attached"), "rank 1 still holds the old send: a delta");
        wire.assert_exact("re-attached");
        assert_eq!(wire.ranks[1].dv.row(7).unwrap(), &[3, 2, 1, 6, 5, 4, 4, 0]);
    }

    /// A simple connected-ish weighted graph on `n ∈ [6, 80]` vertices (up
    /// to two chunks a row) with its owner map over `procs ∈ {2, 3}` ranks.
    fn arb_wire() -> impl Strategy<Value = (AdjGraph, Vec<PartId>, usize)> {
        (6usize..80, 2usize..=3).prop_flat_map(|(n, procs)| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..5), n..3 * n);
            let owner = proptest::collection::vec(0..procs as PartId, n);
            (edges, owner).prop_map(move |(edges, owner)| {
                let mut b = aaa_graph::GraphBuilder::with_vertices(n);
                // A spanning path keeps most of the graph reachable.
                (1..n as u32).for_each(|v| {
                    b.edge(v - 1, v, 2);
                });
                for (u, v, w) in edges {
                    b.edge(u, v, w);
                }
                (b.build().expect("builder output is always valid"), owner, procs)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Fig. 3 lines 22–34 on the new ops, at any point of a run: after
        /// `hold_row` ×2, `absorb_edge` and `settle`, every local row
        /// passes the line-29 test against the rows as they were before
        /// the batch (the kernel applied it, through `x′` and `y′`), every
        /// rank is admissible, and no held row outlives the batch: the
        /// cached ids are the old ones plus only what a local vertex now
        /// neighbours.
        #[test]
        fn an_absorbed_edge_puts_every_local_row_under_line_29(
            setup in arb_wire(),
            warmup in 0usize..3,
            a in 0u64..u64::MAX,
            w in 1u32..5,
        ) {
            let (graph, owner, procs) = setup;
            let mut wire = ShadowedWire::new(graph, owner, procs);
            for _ in 0..warmup {
                wire.exchange("warmup");
            }
            let n = wire.graph.num_vertices();
            let (x, y) = ((a % n as u64) as VertexId, ((a >> 32) % n as u64) as VertexId);
            prop_assume!(x != y && !wire.graph.has_edge(x, y));
            let before = wire.ranks.clone();
            let (rx, ry) =
                (wire.owner_of(x).row_for_broadcast(x), wire.owner_of(y).row_for_broadcast(y));
            wire.add_edge(x, y, w, true);
            wire.check("absorbed");
            for (r, old) in wire.ranks.iter().zip(&before) {
                for &v in r.local_vertices() {
                    let (row, was) = (r.dv.local_row(v).unwrap(), old.dv.local_row(v).unwrap());
                    let (via_x, via_y) = (dist_add(was[x as usize], w), dist_add(was[y as usize], w));
                    for t in 0..n {
                        let line_29 = dist_add(via_x, ry[t]).min(dist_add(via_y, rx[t]));
                        prop_assert!(row[t] <= was[t].min(line_29), "rank {} cell {v}→{t}", r.rank);
                    }
                }
                prop_assert!(r.held.is_empty());
                let (now, then) = (cached(r), cached(old));
                prop_assert!(then.iter().all(|v| now.contains(v)), "a row cached before is gone");
                for v in now.into_iter().filter(|v| !then.contains(v)) {
                    let neighboured = r.adj.values().flatten().any(|&(t, _)| t == v);
                    prop_assert!(neighboured, "rank {} kept row {v}, which it only held", r.rank);
                }
            }
        }

        /// Op-programs over everything that touches a row between two
        /// sends, landing between the exchanges of a run that has not
        /// converged: the unsent bits must stand in for the last-sent copy
        /// at every send, and the run must end on the exact distances.
        #[test]
        fn unsent_bits_name_exactly_what_a_last_sent_copy_would(
            setup in arb_wire(),
            warmup in 0usize..3,
            program in proptest::collection::vec((0u32..7, 0u64..u64::MAX), 1..14),
        ) {
            let (graph, owner, procs) = setup;
            let mut wire = ShadowedWire::new(graph, owner, procs);
            for _ in 0..warmup {
                wire.exchange("warmup");
            }
            for (step, (op, a)) in program.into_iter().enumerate() {
                let ctx = format!("step {step} op {op}");
                let n = wire.graph.num_vertices();
                let pick = |shift: u32, m: usize| ((a >> shift) % m.max(1) as u64) as usize;
                let edge = wire.graph.edges().nth(pick(0, wire.graph.num_edges()));
                match (op, edge) {
                    (0, _) => {
                        for _ in 0..1 + pick(0, 3) {
                            wire.exchange(&ctx);
                        }
                    }
                    (1, _) => {
                        let (u, v) = (pick(0, n) as u32, pick(20, n) as u32);
                        if u != v && !wire.graph.has_edge(u, v) {
                            wire.add_edge(u, v, 1 + pick(40, 4) as u32, a >> 50 & 1 == 0);
                        }
                    }
                    (2, _) => {
                        let p = pick(0, procs) as PartId;
                        wire.grow(p, pick(8, n) as u32, 1 + pick(40, 4) as u32, a >> 50 & 1 == 0);
                    }
                    (3, Some((u, v, _))) => {
                        wire.remove_edge(u, v);
                    }
                    (4, _) => {
                        // One vertex each off up to two ranks, wherever
                        // the bits say.
                        let moves: Vec<(VertexId, PartId)> = (0..1 + pick(0, 2))
                            .map(|i| pick(8 + 16 * i as u32, n) as VertexId)
                            .map(|v| (v, ((wire.owner[v as usize] as usize + 1) % procs) as PartId))
                            .collect();
                        let distinct = moves.len() < 2 || moves[0].0 != moves[1].0;
                        if distinct {
                            wire.migrate(&moves);
                        }
                    }
                    (5, _) => {
                        // Dirty a row while it has no boundary destination,
                        // then give it one: every cut edge of `v` goes, a
                        // round passes, a remote vertex attaches.
                        let v = pick(0, n) as u32;
                        let home = wire.owner[v as usize];
                        let cut: Vec<u32> = wire.graph.neighbors(v).iter().map(|e| e.0)
                            .filter(|&t| wire.owner[t as usize] != home).collect();
                        for t in cut {
                            wire.remove_edge(v, t);
                        }
                        wire.exchange(&ctx);
                        let away = ((home as usize + 1) % procs) as PartId;
                        wire.grow(away, v, 1 + pick(40, 4) as u32, a >> 50 & 1 == 0);
                    }
                    // A vertex loses every edge at once.
                    (6, _) => {
                        let v = pick(0, n) as u32;
                        let nbrs: Vec<u32> = wire.graph.neighbors(v).iter().map(|e| e.0).collect();
                        for t in nbrs {
                            wire.remove_edge(v, t);
                        }
                    }
                    _ => {}
                }
                wire.check(&ctx);
            }
            wire.assert_exact("quiescence");
        }
    }

    /// `pending` is derived, and it is complete: a snapshot taken between a
    /// Repartition-S wave and its first RC step lists every row the wave
    /// left unpropagated — the migrated rows, the new vertices', the
    /// endpoints of the new edges — and the restored engine continues
    /// through the kernel calls and rounds of the live one to the same
    /// fixed point. It may only make more dense passes: an endpoint that
    /// stayed put owes one column on the live engine and comes back marked
    /// whole, the record not being part of the snapshot.
    #[test]
    fn a_snapshot_after_a_repartition_wave_lists_its_pending_rows_and_restores_them() {
        use crate::changes::preferential_batch;
        use crate::{AnytimeEngine, AssignStrategy, EngineConfig};
        use aaa_graph::generators::{barabasi_albert, WeightModel};

        let graph = barabasi_albert(150, 2, WeightModel::Unit, 7).expect("generator");
        let config = EngineConfig::deterministic(4);
        let mut live = AnytimeEngine::new(graph, config.clone()).expect("engine");
        live.run_to_convergence();
        let before: Vec<PartId> = live.partition().assignment().to_vec();
        let wave = preferential_batch(live.graph(), 12, 2, 31);
        live.apply_vertex_additions(&wave, AssignStrategy::Repartition { seed: 3 }).expect("wave");

        let snapshot = live.snapshot();
        let mut pending: Vec<VertexId> =
            snapshot.ranks.iter().flat_map(|r| r.pending.iter().copied()).collect();
        pending.sort_unstable();
        let after = live.partition().assignment();
        let mut want: Vec<VertexId> = (0..after.len() as VertexId)
            .filter(|&v| before.get(v as usize) != Some(&after[v as usize]))
            .chain(wave.global_edges(150).into_iter().map(|e| e.1))
            .collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(pending, want);
        assert!(want.len() > wave.len(), "the wave moved no row");

        let mut restored = AnytimeEngine::from_snapshot(&snapshot, config).expect("restore");
        let at_snapshot = live.kernel_tally();
        let (live_run, restored_run) = (live.run_to_convergence(), restored.run_to_convergence());
        assert_eq!(restored_run, live_run);
        assert_eq!(restored.distances(), live.distances());
        assert_eq!(restored.closeness(), live.closeness());
        // The restored stores' tallies start at zero.
        let (now, was, got) = (live.kernel_tally(), at_snapshot, restored.kernel_tally());
        assert_eq!((got.calls, got.rounds), (now.calls - was.calls, now.rounds - was.rounds));
        assert!(got.dense_passes >= now.dense_passes - was.dense_passes);
    }

    #[test]
    fn closeness_of_local_rows() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        let c = r0.local_closeness();
        assert_eq!(c.len(), 2);
        // Vertex 0: knows d=1 (v1), d=2 (v2) -> 1/3.
        let c0 = c.iter().find(|&&(v, _)| v == 0).unwrap().1;
        assert!((c0 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_erase_and_reweight() {
        let (mut r0, _) = two_rank_path();
        r0.reweight_edge(0, 1, 9);
        assert!(r0.adj[&0].contains(&(1, 9)));
        assert!(r0.adj[&1].contains(&(0, 9)));
        r0.erase_edge(0, 1);
        assert!(r0.adj[&0].is_empty());
    }

    #[test]
    fn kernel_thread_count_does_not_change_results() {
        let build = |threads: usize| {
            let (mut r0, mut r1) = two_rank_path();
            r0.set_kernel_threads(threads);
            r1.set_kernel_threads(threads);
            r0.initial_approximation();
            r1.initial_approximation();
            for _ in 0..4 {
                let out0 = r0.produce_rc_messages(usize::MAX);
                let out1 = r1.produce_rc_messages(usize::MAX);
                let to1: Vec<(usize, RowMsg)> =
                    out0.into_iter().filter(|&(q, _)| q == 1).map(|(_, m)| (0, m)).collect();
                let to0: Vec<(usize, RowMsg)> =
                    out1.into_iter().filter(|&(q, _)| q == 0).map(|(_, m)| (1, m)).collect();
                r0.consume_rc_messages(to0);
                r1.consume_rc_messages(to1);
            }
            (r0.local_rows(), r1.local_rows())
        };
        assert_eq!(build(1), build(4));
    }
}
