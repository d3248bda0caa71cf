//! Per-processor state and the rank-local pieces of the algorithm:
//! the IA-phase Dijkstra, the recombination-step produce/consume logic,
//! the min-plus relaxation used everywhere, and the dynamic-update hooks.

use crate::dv::{BoundedRow, DvStore, KernelTally, Witness};
use aaa_checkpoint::RankSnapshot;
use aaa_graph::{closeness::closeness_from_row, dist_add, Dist, PartId, VertexId, Weight, INF};
use aaa_runtime::Rank;
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Re-exported kernel (it lives next to the arena it operates on).
pub use crate::dv::relax_via;

/// How DV rows travel between ranks during RC steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Every send carries the full row (the paper's baseline wire).
    #[default]
    Full,
    /// Sends only the improved `(column, distance)` pairs to destinations
    /// known to hold the previously-sent row, falling back to the full row
    /// when the delta is dense or the destination is unsynced. Entries
    /// only decrease between invalidations, and an invalidation raises the
    /// sender's last-sent copy and the receivers' cached copy by the same
    /// rule, so a delta chain reconstructs the row exactly.
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
/// over ranks they are cells of the n × n matrix; cached copies and the
/// Delta wire's last-sent copies are raised by the same rule but not
/// counted.
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
    /// Rows gathered for the in-flight edge relaxation (Fig. 3 broadcasts).
    gathered: FxHashMap<VertexId, BoundedRow>,
    /// Local rows changed by dynamic updates, pending intra-rank relaxation
    /// (unordered, may repeat; sorted and deduplicated when consumed).
    pending: Vec<VertexId>,
    /// Wire format for produced RC messages.
    wire: WireFormat,
    /// Worker threads for the relaxation kernel (1 = sequential).
    kernel_threads: usize,
    /// Delta wire tracking: per row, the copy as of its last send, and the
    /// destinations known to hold exactly that copy. An invalidation
    /// raises these copies by the rule the destinations apply to their
    /// cached ones ([`RankState::invalidate`]), which keeps "exactly".
    sent_snapshot: FxHashMap<VertexId, Vec<Dist>>,
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
            gathered: FxHashMap::default(),
            pending: Vec::new(),
            wire: WireFormat::Full,
            kernel_threads: 1,
            sent_snapshot: FxHashMap::default(),
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

    /// Selects the wire format for produced RC messages.
    pub fn set_wire(&mut self, wire: WireFormat) {
        self.wire = wire;
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

    /// Drops the delta-wire sync tracking: the next produce sends full
    /// rows. Required whenever receiver caches may diverge from what this
    /// rank believes it sent (migration, restore, recovery resend).
    fn reset_wire_tracking(&mut self) {
        self.sent_snapshot.clear();
        self.synced.clear();
    }

    // --------------------------------------------------------------------
    // IA phase
    // --------------------------------------------------------------------

    /// Initial approximation: Dijkstra from every local vertex over the
    /// *local sub-graph* (local vertices plus external boundary vertices,
    /// using only edges incident to local vertices — §IV.B).
    pub fn initial_approximation(&mut self) {
        let (ids, index_of, adj_local) = self.local_subgraph();
        let m = ids.len();
        let mut dist = vec![INF; m];
        let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        let Self { local, dv, .. } = self;
        for &v in local.iter() {
            let s = index_of[&v];
            dist.fill(INF);
            dist[s as usize] = 0;
            heap.clear();
            heap.push(Reverse((0, s)));
            while let Some(Reverse((d, x))) = heap.pop() {
                if d > dist[x as usize] {
                    continue;
                }
                for &(t, w) in &adj_local[x as usize] {
                    let nd = dist_add(d, w as Dist);
                    if nd < dist[t as usize] {
                        dist[t as usize] = nd;
                        heap.push(Reverse((nd, t)));
                    }
                }
            }
            // Write results into the global-indexed row.
            dv.update_local_row(v, |row| {
                for (&g, &d) in ids.iter().zip(&dist) {
                    row.lower(g, d);
                }
            });
        }
        // The rows are exact shortest paths of one sub-graph, so they are
        // closed among themselves: nothing is left to propagate here.
        dv.clear_unpropagated();
    }

    /// Local sub-graph in dense local indices:
    /// returns (local-index → global id, global id → local index, adjacency).
    #[allow(clippy::type_complexity)]
    fn local_subgraph(&self) -> (Vec<VertexId>, FxHashMap<VertexId, u32>, Vec<Vec<(u32, Weight)>>) {
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
                // them so Dijkstra can relax through boundary vertices.
                // Local-local edges already appear in both lists.
                if !self.dv.is_local(t) {
                    adj_local[ti as usize].push((vi, w));
                }
            }
        }
        (ids, index_of, adj_local)
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
    /// Under [`WireFormat::Delta`], a destination that already holds this
    /// row's previously-sent copy receives only the improved `(col, dist)`
    /// pairs, unless the delta is dense enough that the full row is
    /// smaller on the wire. `delta_pairs` is exact because the row is
    /// nowhere above its last-sent copy: entries only decrease between
    /// invalidations, and an invalidation raises the copy *with* the row —
    /// a cell raised in the row is raised in the copy, which held at least
    /// as much — exactly as the destination raises its cached copy.
    pub fn produce_rc_messages(&mut self, cap_bytes: usize) -> Vec<(Rank, RowMsg)> {
        let dirty = self.dv.take_dirty_sorted();
        let mut buckets: FxHashMap<Rank, Vec<(VertexId, RowPayload)>> = FxHashMap::default();
        for v in dirty {
            let dests = self.boundary_destinations(v);
            if dests.is_empty() {
                continue;
            }
            let row = self.dv.local_row(v).expect("dirty row must be local");
            if self.wire == WireFormat::Delta {
                // One delta serves every synced destination: they all hold
                // the same last-sent copy.
                let pairs = self.sent_snapshot.get(&v).map(|prev| delta_pairs(prev, row));
                let synced = self.synced.get(&v);
                for &q in &dests {
                    let in_sync = synced.is_some_and(|s| s.binary_search(&q).is_ok());
                    let payload = match &pairs {
                        Some(p) if in_sync && 8 * p.len() < 4 * row.len() => {
                            RowPayload::Delta(p.clone())
                        }
                        _ => RowPayload::Full(row.to_vec()),
                    };
                    buckets.entry(q).or_default().push((v, payload));
                }
                self.sent_snapshot.insert(v, row.to_vec());
                self.synced.insert(v, dests);
            } else {
                for &q in &dests {
                    buckets.entry(q).or_default().push((v, RowPayload::Full(row.to_vec())));
                }
            }
        }
        let mut out = Vec::new();
        let mut dests: Vec<Rank> = buckets.keys().copied().collect();
        dests.sort_unstable();
        for q in dests {
            let rows = buckets.remove(&q).expect("bucket exists");
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
    /// §IV.C.1). Sets [`RankState::last_changed`].
    pub fn consume_rc_messages(&mut self, inbox: Vec<(Rank, RowMsg)>) {
        let mut worklist: Vec<VertexId> = Vec::new();
        for (_, msg) in inbox {
            for (v, payload) in msg.rows {
                let local = self.dv.is_local(v);
                let changed = match payload {
                    RowPayload::Full(row) => {
                        if local {
                            self.dv.min_merge_local(v, &row)
                        } else {
                            self.dv.min_merge_cached(v, &row)
                        }
                    }
                    RowPayload::Delta(pairs) => {
                        if local {
                            self.dv.min_merge_local_sparse(v, &pairs)
                        } else {
                            self.dv.min_merge_cached_sparse(v, &pairs)
                        }
                    }
                };
                if changed {
                    worklist.push(v);
                }
            }
        }
        // Any dynamic-update pivots that have not been propagated yet join
        // this step's worklist.
        worklist.append(&mut self.pending);
        self.last_changed = self.relax_seeds(worklist);
    }

    /// Min-plus relaxation until the rank-local fixed point, seeded by the
    /// changed rows in `seeds` (any order, repeats allowed). The kernel
    /// itself lives with the arena ([`DvStore::relax_to_fixed_point`]) and
    /// takes *what* changed in each seed from the store's change record.
    /// Returns whether any local row changed.
    fn relax_seeds(&mut self, mut seeds: Vec<VertexId>) -> bool {
        seeds.sort_unstable();
        seeds.dedup();
        self.dv.relax_to_fixed_point(&seeds, self.kernel_threads)
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
        for row in self.gathered.values_mut() {
            row.grow(self.owner.len());
        }
        for (i, &o) in msg.owners.iter().enumerate() {
            if o as usize == self.rank {
                let v = msg.base + i as VertexId;
                self.local.push(v);
                self.adj.insert(v, Vec::new());
                self.dv.add_local_row(v);
                self.pending.push(v);
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

    /// Clones the current row of `v` for broadcasting (Fig. 3 line 22).
    /// Falls back to the trivial row if this rank has never seen `v`
    /// (cannot happen for owners).
    pub fn row_for_broadcast(&self, v: VertexId) -> Vec<Dist> {
        match self.dv.row(v) {
            Some(r) => r.to_vec(),
            None => {
                let mut row = vec![INF; self.dv.n()];
                row[v as usize] = 0;
                row
            }
        }
    }

    /// Stashes a broadcast row for the in-flight edge relaxation, with the
    /// chunk bounds every pass through it will use.
    pub fn stash_row(&mut self, v: VertexId, row: &[Dist]) {
        self.gathered.insert(v, BoundedRow::new(row.to_vec(), self.dv.n()));
    }

    /// The edge-addition relaxation (Fig. 3 lines 26–34, from the authors'
    /// edge-addition algorithm [9]): for every local row `a` and the new
    /// edge `(x, y, w)`, test
    /// `D[a][t] > D[a][x] + w + D[y][t]` and the symmetric direction, using
    /// the stashed broadcast rows of `x` and `y`.
    pub fn apply_edge_relax(&mut self, x: VertexId, y: VertexId, w: Weight) {
        let Self { gathered, local, dv, pending, .. } = self;
        let rx = gathered.get(&x);
        let ry = gathered.get(&y);
        for &a in local.iter() {
            if !dv.is_local(a) {
                continue;
            }
            let changed = dv.update_local_row(a, |row| {
                if let Some(ry) = ry {
                    row.relax_via(dist_add(row.get(x), w as Dist), ry);
                }
                if let Some(rx) = rx {
                    row.relax_via(dist_add(row.get(y), w as Dist), rx);
                }
            });
            if changed {
                pending.push(a);
            }
        }
    }

    /// Clears the broadcast stash (end of a dynamic batch).
    pub fn clear_gathered(&mut self) {
        self.gathered.clear();
    }

    /// Selective invalidation — this rank's share of every decremental
    /// change (the companion deletion \[10\] and weight-change \[7\]
    /// algorithms' job), run after the change reached the adjacency.
    /// Every cell held here that `witness` cannot vouch for is raised to
    /// `INF`: local rows, cached rows, and the Delta wire's last-sent
    /// copies, all by the one rule ([`Witness::raise_row`]), so a receiver's
    /// cached copy and the sender's record of it stay equal cell for cell.
    /// Each raised local cell is then refilled from the rows held here and
    /// the direct edges, the refilled rows are relaxed to the rank-local
    /// fixed point, and what this rank cannot know comes back with RC: a
    /// raised local row is dirty, and a raised cached row is re-sent by its
    /// owner because an owner row that differs from its last-sent copy is
    /// dirty already.
    pub fn invalidate(&mut self, witness: &Witness) -> InvalidationTally {
        let raised = self.dv.raise(witness);
        let mut cols = Vec::new();
        for (&v, copy) in &mut self.sent_snapshot {
            cols.clear();
            witness.raise_row(v, copy, &mut cols);
        }
        let mut tally =
            InvalidationTally { rows_raised: raised.len() as u64, ..InvalidationTally::default() };
        for (v, cols) in &raised {
            let (changed, refilled) = self.dv.refill(*v, cols, &self.adj[v]);
            tally.cells_raised += cols.len() as u64;
            tally.cells_refilled += refilled as u64;
            // A row with nothing refilled has nothing to propagate (and
            // seeding it without a record would count as all of it).
            if changed {
                self.pending.push(*v);
            }
        }
        self.relax_pending();
        tally
    }

    /// Runs the intra-rank relaxation over all pivots accumulated by
    /// dynamic updates, so partial results are consistent before the next
    /// RC exchange.
    pub fn relax_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        self.relax_seeds(pending);
    }

    // --------------------------------------------------------------------
    // Repartition-S support
    // --------------------------------------------------------------------

    /// Produce side of the migration exchange: removes rows whose vertex
    /// now belongs elsewhere and addresses them to the new owner.
    /// Migration always ships full rows, whatever the wire format.
    pub fn migrate_out(&mut self, new_owner: &[PartId]) -> Vec<(Rank, RowMsg)> {
        let mut buckets: FxHashMap<Rank, Vec<(VertexId, RowPayload)>> = FxHashMap::default();
        let Self { local, dv, rank, .. } = self;
        for &v in local.iter() {
            let q = new_owner[v as usize] as Rank;
            if q != *rank {
                if let Some(row) = dv.remove_local(v) {
                    buckets.entry(q).or_default().push((v, RowPayload::Full(row)));
                }
            }
        }
        // Receiver caches are about to be rebuilt wholesale.
        self.reset_wire_tracking();
        let mut dests: Vec<Rank> = buckets.keys().copied().collect();
        dests.sort_unstable();
        dests
            .into_iter()
            .map(|q| (q, RowMsg { rows: buckets.remove(&q).expect("bucket") }))
            .collect()
    }

    /// Consume side of the migration exchange: installs the new ownership,
    /// rebuilds local structures from `adjacency_of`, installs received
    /// rows, creates trivial rows for vertices that never had one (new
    /// vertices under Repartition-S keep only their direct edges — the
    /// paper's "DVs of the existing vertices are not immediately updated"),
    /// and marks everything dirty so the next RC steps redistribute state.
    pub fn migrate_in(
        &mut self,
        new_owner: &[PartId],
        inbox: Vec<(Rank, RowMsg)>,
        adjacency_of: impl Fn(VertexId) -> Vec<(VertexId, Weight)>,
    ) {
        self.owner = new_owner.to_vec();
        let n = self.owner.len();
        self.dv.grow_columns(n);
        self.dv.clear_cache();
        self.gathered.clear();
        self.pending.clear();
        self.reset_wire_tracking();
        self.local =
            (0..n as VertexId).filter(|&v| self.owner[v as usize] as usize == self.rank).collect();
        self.adj.clear();
        for &v in &self.local {
            self.adj.insert(v, adjacency_of(v));
        }
        self.rebuild_edge_seen();
        for (_, msg) in inbox {
            for (v, payload) in msg.rows {
                debug_assert_eq!(self.owner[v as usize] as usize, self.rank);
                match payload {
                    RowPayload::Full(row) => self.dv.install_local(v, &row, true),
                    RowPayload::Delta(_) => {
                        debug_assert!(false, "migration ships full rows");
                    }
                }
            }
        }
        // Rows this rank kept across the migration stay; fresh vertices get
        // the trivial row. Every local row is then re-seeded with its
        // direct edges — stale rows know nothing about edges added with the
        // batch, and the RC relaxation can only propagate facts that exist
        // in some row.
        let Self { local, adj, dv, .. } = self;
        for &v in local.iter() {
            if !dv.is_local(v) {
                let mut row = vec![INF; n];
                row[v as usize] = 0;
                dv.install_local(v, &row, true);
            }
            dv.update_local_row(v, |row| {
                for &(t, w) in &adj[&v] {
                    row.lower(t, w as Dist);
                }
            });
        }
        // Force a full local relaxation on the next RC step: the migration
        // changed which rows live together, so every pairing is new here.
        self.pending.extend_from_slice(&self.local);
        self.dv.mark_all_unpropagated();
        self.dv.mark_all_dirty();
    }

    // --------------------------------------------------------------------
    // Budgeted rebalance support
    // --------------------------------------------------------------------

    /// Applies a budgeted reassignment to the replicated owner map without
    /// touching rows. Must run on **every** rank, including bystanders that
    /// neither send nor receive rows: the moves change boundary-destination
    /// sets everywhere, and a delta chain aimed at a receiver that never
    /// held the base copy would be unsound — so wire tracking is dropped
    /// and the next produce ships full rows.
    pub fn apply_reassignment(&mut self, moves: &[(VertexId, PartId)]) {
        for &(v, p) in moves {
            self.owner[v as usize] = p;
        }
        self.reset_wire_tracking();
    }

    /// Produce side of a budgeted migration: ships full rows of local
    /// vertices whose (already reassigned) owner is elsewhere. Unlike
    /// [`RankState::migrate_out`], the local set and adjacency shrink in
    /// place — no wholesale rebuild, so the cost scales with the move
    /// budget rather than the rank's whole holding.
    pub fn migrate_out_moved(&mut self) -> Vec<(Rank, RowMsg)> {
        let mut buckets: FxHashMap<Rank, Vec<(VertexId, RowPayload)>> = FxHashMap::default();
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
            self.pending.retain(|&p| p != v);
            self.local.remove(i);
            departed = true;
        }
        if departed {
            self.rebuild_edge_seen();
        }
        let mut dests: Vec<Rank> = buckets.keys().copied().collect();
        dests.sort_unstable();
        dests
            .into_iter()
            .map(|q| {
                let mut rows = buckets.remove(&q).expect("bucket");
                rows.sort_unstable_by_key(|&(v, _)| v);
                (q, RowMsg { rows })
            })
            .collect()
    }

    /// Consume side of a budgeted migration: installs gained rows, extends
    /// the local set and adjacency in place, re-seeds each gained row with
    /// its direct edges, and queues the gained vertices as relaxation
    /// pivots. The owner map must already reflect the reassignment (see
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
            self.adj.insert(v, adjacency_of(v));
        }
        self.rebuild_edge_seen();
        let Self { adj, dv, .. } = self;
        for &v in &gained {
            dv.update_local_row(v, |row| {
                for &(t, w) in &adj[&v] {
                    row.lower(t, w as Dist);
                }
            });
        }
        self.pending.extend(gained);
    }

    // --------------------------------------------------------------------
    // Checkpoint & recovery
    // --------------------------------------------------------------------

    /// Captures this rank's DV state for a snapshot. Only row data, the
    /// dirty mask and pending pivots are captured — ownership and
    /// adjacency are rebuilt deterministically from the graph + partition
    /// sections on restore. Broadcast stashes (`gathered`) are never
    /// captured: snapshots are taken at superstep barriers, where they are
    /// empty.
    pub fn to_snapshot(&self) -> RankSnapshot {
        let mut pending = self.pending.clone();
        pending.sort_unstable();
        pending.dedup();
        // What lets a restore come back propagated without persisting the
        // change record: at a barrier only pending rows still carry one.
        debug_assert!(
            self.local
                .iter()
                .all(|&v| !self.dv.has_unpropagated(v) || pending.binary_search(&v).is_ok()),
            "a recorded row is not pending at a snapshot barrier"
        );
        RankSnapshot {
            rank: self.rank as u32,
            local: self.dv.export_local_sorted(),
            cached: self.dv.export_cached_sorted(),
            dirty: self.dv.dirty_sorted(),
            pending,
        }
    }

    /// Installs snapshot rows into a freshly built state — the *exact
    /// restore* path, where the engine was rebuilt from the snapshot's own
    /// graph + partition and the rows must come back bit-identical. Rows
    /// for vertices this rank does not own are skipped; rows shorter than
    /// the current column count are INF-padded by the store. The dirty
    /// mask and pending set are installed exactly as captured. The rows
    /// come back propagated: a snapshot is taken at a barrier, where every
    /// lowered row has already seeded a kernel call, so only the pending
    /// rows — whose record the snapshot does not carry — are marked whole.
    ///
    /// For recovery against a possibly *older* snapshot use
    /// [`RankState::absorb_snapshot`] instead: replacement here would wipe
    /// the fresh IA rows' knowledge of edges added after the capture.
    pub fn restore_from_snapshot(&mut self, snap: &RankSnapshot) {
        for (v, row) in &snap.local {
            if self.dv.is_local(v) {
                self.dv.install_local(v, row, false);
            }
        }
        for (v, row) in &snap.cached {
            if !self.dv.is_local(v) {
                self.dv.install_cached(v, row);
            }
        }
        self.dv.clear_dirty();
        for &v in &snap.dirty {
            if self.dv.is_local(v) {
                self.dv.mark_dirty(v);
            }
        }
        self.pending.clear();
        self.pending.extend(snap.pending.iter().copied().filter(|&v| self.dv.is_local(v)));
        self.dv.clear_unpropagated();
        for &v in &self.pending {
            self.dv.mark_unpropagated(v);
        }
        self.gathered.clear();
        self.reset_wire_tracking();
        self.last_sent = false;
        self.last_changed = false;
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
        self.dv.mark_all_dirty();
        self.dv.mark_all_unpropagated();
        self.pending.extend_from_slice(&self.local);
        self.reset_wire_tracking();
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
    /// fixed point from here: every held cell (local, cached, last-sent
    /// copy) is at least the true distance, and every local row has its
    /// self cell and its direct edges seeded.
    #[cfg(any(test, debug_assertions))]
    pub fn check_admissible(&self, exact: &aaa_graph::apsp::DistMatrix) {
        let held = self.dv.all_ids_sorted().into_iter().map(|v| (v, self.dv.row(v).expect("row")));
        let sent = self.sent_snapshot.iter().map(|(&v, copy)| (v, &copy[..]));
        for (v, row) in held.chain(sent) {
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

/// The sparse improvements from `prev` to `cur`. Columns `prev` never had
/// (the row grew since the last send) count as `INF` — the receiver's copy
/// grew with `INF` fill too, so the bases agree.
fn delta_pairs(prev: &[Dist], cur: &[Dist]) -> Vec<(VertexId, Dist)> {
    let mut pairs = Vec::new();
    for (t, &d) in cur.iter().enumerate() {
        let before = prev.get(t).copied().unwrap_or(INF);
        if d < before {
            pairs.push((t as VertexId, d));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn edge_relax_uses_gathered_rows() {
        let (mut r0, _) = two_rank_path();
        r0.initial_approximation();
        // Pretend a new edge 0-3 of weight 1; rank 0 gathers row(3).
        r0.stash_row(3, &[INF, INF, 1, 0]);
        r0.stash_row(0, &r0.row_for_broadcast(0));
        r0.apply_edge_relax(0, 3, 1);
        // Row 0 learns d(0,3) = 1 and d(0,2) = 2 (via 3).
        let row0 = r0.dv().row(0).unwrap();
        assert_eq!(row0[3], 1);
        assert_eq!(row0[2], 2);
        // Row 1: d(1,3) ≤ d(1,0) + 1 + 0 = 2.
        assert_eq!(r0.dv().row(1).unwrap()[3], 2);
        r0.clear_gathered();
        r0.relax_pending();
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
    fn migration_roundtrip() {
        let (mut r0, mut r1) = two_rank_path();
        r0.initial_approximation();
        r1.initial_approximation();
        // Move vertex 1 to rank 1.
        let new_owner = vec![0, 1, 1, 1];
        let adj = |v: VertexId| -> Vec<(VertexId, Weight)> {
            match v {
                0 => vec![(1, 1)],
                1 => vec![(0, 1), (2, 1)],
                2 => vec![(1, 1), (3, 1)],
                3 => vec![(2, 1)],
                _ => vec![],
            }
        };
        let out0 = r0.migrate_out(&new_owner);
        assert_eq!(out0.len(), 1);
        assert_eq!(out0[0].0, 1);
        let out1 = r1.migrate_out(&new_owner);
        assert!(out1.is_empty());
        r0.migrate_in(&new_owner, vec![], adj);
        r1.migrate_in(&new_owner, out0.into_iter().map(|(_, m)| (0, m)).collect(), adj);
        assert_eq!(r0.local_vertices(), &[0]);
        assert_eq!(r1.local_vertices(), &[1, 2, 3]);
        // Migrated row kept its partial results (d(1,2) = 1 from IA).
        assert_eq!(r1.dv().row(1).unwrap()[2], 1);
        assert!(r1.has_dirty());
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

    /// The Delta wire across an invalidation: sender and receiver raise
    /// their copies of a sent row by the same rule, so they stay equal cell
    /// for cell, the next delta is exact, and the exchange ends on the
    /// distances of the graph without the edge.
    #[test]
    fn invalidation_keeps_last_sent_copies_equal_to_the_cached_ones() {
        // Cycle 0-1-2-3-4-5-0 split {0,1,2} | {3,4,5}; edge 0-1 goes.
        let ring = |v: VertexId| vec![((v + 1) % 6, 1), ((v + 5) % 6, 1)];
        let owner = vec![0, 0, 0, 1, 1, 1];
        let (mut r0, mut r1) =
            (RankState::build(0, owner.clone(), ring), RankState::build(1, owner, ring));
        // One exchange; `None` once nothing is left to send, else whether
        // a sparse delta travelled.
        let exchange = |r0: &mut RankState, r1: &mut RankState| {
            let (out0, out1) =
                (r0.produce_rc_messages(usize::MAX), r1.produce_rc_messages(usize::MAX));
            let mut payloads = out0.iter().chain(&out1).flat_map(|(_, m)| &m.rows).peekable();
            payloads.peek()?;
            let sparse = payloads.any(|(_, p)| matches!(p, RowPayload::Delta(_)));
            r0.consume_rc_messages(out1.into_iter().map(|(_, m)| (1, m)).collect());
            r1.consume_rc_messages(out0.into_iter().map(|(_, m)| (0, m)).collect());
            Some(sparse)
        };
        for r in [&mut r0, &mut r1] {
            r.set_wire(WireFormat::Delta);
            r.initial_approximation();
        }
        while exchange(&mut r0, &mut r1).is_some() {}
        let row = |s: usize| -> Vec<Dist> {
            (0..6usize).map(|t| t.abs_diff(s).min(6 - t.abs_diff(s)) as Dist).collect()
        };
        assert_eq!(r0.dv().row(0).unwrap(), &row(0)[..]);

        let witness = Witness::edge(row(0), row(1), 1);
        let mut tally = InvalidationTally::default();
        for r in [&mut r0, &mut r1] {
            r.erase_edge(0, 1);
            tally += r.invalidate(&witness);
        }
        // The paths over the edge, ties included: 3 cells each from its
        // ends, 2 from their neighbors, 1 from the far side.
        assert_eq!((tally.rows_raised, tally.cells_raised), (6, 12));
        assert!(tally.cells_refilled > 0 && tally.cells_refilled < 12);
        for (sender, receiver) in [(&r0, &r1), (&r1, &r0)] {
            assert!(!sender.sent_snapshot.is_empty());
            for (v, copy) in &sender.sent_snapshot {
                assert_eq!(receiver.dv().row(*v).unwrap(), &copy[..], "last-sent copy of {v}");
            }
        }
        let mut sparse = false;
        while let Some(delta) = exchange(&mut r0, &mut r1) {
            sparse |= delta;
        }
        assert!(sparse, "the sync survived the invalidation: deltas, not full rows");
        // The path 1-2-3-4-5-0.
        assert_eq!(r0.dv().row(0).unwrap(), &[0, 5, 4, 3, 2, 1]);
        assert_eq!(r0.dv().row(1).unwrap(), &[5, 0, 1, 2, 3, 4]);
        assert_eq!(r1.dv().row(3).unwrap(), &[3, 2, 1, 0, 1, 2]);
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
