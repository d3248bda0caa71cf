//! The **publish layer**: immutable, epoch-stamped views of the engine's
//! current answer, behind an atomically swappable handle.
//!
//! The anytime contract (§III) promises a usable answer *at every moment*
//! while the compute loop runs. The engine delivers that by publishing a
//! fresh [`PublishedView`] — closeness values plus optional certified
//! per-vertex error bounds — after construction, every RC step, every
//! drain, and every restore. Views are immutable once published and are
//! handed to readers as `Arc` clones out of a [`ViewCell`], so any number
//! of concurrent readers can query without locking the engine and can
//! never observe a torn (partially written) answer: a reader holds either
//! the complete previous epoch or the complete new one.
//!
//! Publishing is *driver-side* work (the orchestrator reading rank memory
//! it co-hosts, like checkpointing): it charges no supersteps, messages,
//! or simulated time, which is what keeps the pinned perf-gate metrics
//! at +0.00% across the pipeline split.
//!
//! # Delta publication (S30)
//!
//! A typical epoch dirties only a small fraction of DV rows, so rebuilding
//! the whole closeness vector per publish is `O(n)` wasted work. The
//! publisher instead consumes a [`ViewDelta`] — the changed vertex ids
//! with their new values, derived from the arena's epoch-dirty bitsets —
//! and builds the next view by **structural sharing**: closeness (and
//! bounds) live in fixed-size chunks behind per-chunk `Arc`s, and only
//! chunks containing a changed row are copied. Unchanged memory is shared
//! across epochs, readers stay lock-free and torn-free exactly as before,
//! and publish cost is `O(changed)` instead of `O(n)`.
//!
//! A maintained top-k index (bounded, threshold-pruned, ordered
//! best-first with deterministic id tie-breaks) is updated per delta in
//! `O(Δ·log k)`, so [`PublishedView::top_k`] serves from a per-view
//! snapshot in `O(k)` instead of rescanning all `n` vertices.
//! [`PublishedView::top_k_rescan`] keeps the full scan as a debug oracle.
//!
//! # Multiple metrics per epoch (S31)
//!
//! A view always carries the closeness primary; configured extra metrics
//! (today: incremental betweenness, see [`crate::metric`]) ride the same
//! epoch as additional columns, each with its own chunked store and
//! maintained top-k index. Every column — closeness included — advances
//! through the one [`ViewDelta`] build routine, on the leader
//! ([`Publisher`]) and on a follower ([`ViewDelta::apply_to`]) alike; a
//! closeness-only run is simply the empty extras list, and its deltas keep
//! the wire bytes they always had. [`PublishStats`] deliberately counts
//! the closeness column only, so the committed perf-gate baselines are
//! unaffected by extras.

use crate::metric::{MetricKind, MetricMask};
use crate::net::NetMsg;
use aaa_graph::closeness::top_k;
use aaa_graph::VertexId;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Vertices per closeness chunk. Power of two so the row → chunk map is a
/// shift; small enough that ~1% dirty rows on a large graph still share
/// most chunks, large enough that per-chunk `Arc` overhead is noise.
pub const CHUNK_VERTICES: usize = 1024;

/// How many top entries each view snapshots for `O(k)` serving. `top_k`
/// calls with `k` beyond this fall back to the rescan oracle.
pub const TOPK_SERVE_CAP: usize = 128;

/// Internal index capacity: twice the serve cap, so most displacements
/// drain slack instead of forcing an immediate rebuild scan.
const TOPK_INDEX_CAP: usize = 2 * TOPK_SERVE_CAP;

/// What quality label each published epoch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// Publish closeness only (no per-vertex bounds). The default: zero
    /// extra cost per epoch.
    #[default]
    None,
    /// Publish certified per-vertex error bounds alongside closeness: each
    /// epoch walks the hop rows of the rows it scores, 256 per pass of one
    /// multi-source BFS, and keeps nothing between epochs. Bounds are sound
    /// at every epoch and non-increasing across epochs on a quiescing run.
    Certified,
}

// ---------------------------------------------------------------------------
// Chunked copy-on-write value store
// ---------------------------------------------------------------------------

/// A `Vec<f64>` split into [`CHUNK_VERTICES`]-sized chunks behind
/// per-chunk `Arc`s. [`ChunkedVec::apply`] produces the next version by
/// cloning the chunk list (cheap `Arc` bumps) and materializing only the
/// chunks an entry lands in — the structural sharing that makes per-epoch
/// publication `O(changed)`.
///
/// Invariant: chunk `i` holds exactly `min(CHUNK_VERTICES, len − i·CHUNK)`
/// values, so every chunk except possibly the last is full.
#[derive(Debug, Clone, Default)]
struct ChunkedVec {
    len: usize,
    chunks: Vec<Arc<Vec<f64>>>,
}

impl ChunkedVec {
    fn from_vec(values: Vec<f64>) -> Self {
        let len = values.len();
        let chunks = values.chunks(CHUNK_VERTICES).map(|c| Arc::new(c.to_vec())).collect();
        Self { len, chunks }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, i: usize) -> Option<f64> {
        if i >= self.len {
            return None;
        }
        Some(self.chunks[i / CHUNK_VERTICES][i % CHUNK_VERTICES])
    }

    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// The next version: grown to `new_len` (`fill`-padded) with `entries`
    /// (sorted by id) written through copy-on-write. Returns the store
    /// plus how many chunks were materialized vs shared with `self`.
    fn apply(&self, new_len: usize, entries: &[(VertexId, f64)], fill: f64) -> (Self, u64, u64) {
        debug_assert!(new_len >= self.len, "chunked store never shrinks");
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted unique");
        let mut chunks = self.chunks.clone();
        let n_chunks = new_len.div_ceil(CHUNK_VERTICES);
        let mut fresh = vec![false; n_chunks];
        if new_len > self.len {
            if self.len % CHUNK_VERTICES != 0 {
                // Top up the old partial tail chunk.
                let last = self.len / CHUNK_VERTICES;
                let mut data = chunks[last].as_ref().clone();
                data.resize(CHUNK_VERTICES.min(new_len - last * CHUNK_VERTICES), fill);
                chunks[last] = Arc::new(data);
                fresh[last] = true;
            }
            while chunks.len() < n_chunks {
                let c = chunks.len();
                chunks.push(Arc::new(vec![fill; CHUNK_VERTICES.min(new_len - c * CHUNK_VERTICES)]));
                fresh[c] = true;
            }
        }
        for &(v, val) in entries {
            debug_assert!((v as usize) < new_len, "entry {v} beyond view length {new_len}");
            let (c, i) = (v as usize / CHUNK_VERTICES, v as usize % CHUNK_VERTICES);
            if !fresh[c] {
                chunks[c] = Arc::new(chunks[c].as_ref().clone());
                fresh[c] = true;
            }
            Arc::get_mut(&mut chunks[c]).expect("freshly materialized chunk")[i] = val;
        }
        let copied = fresh.iter().filter(|&&f| f).count() as u64;
        (Self { len: new_len, chunks }, copied, n_chunks as u64 - copied)
    }

    /// This epoch's version of the store, with the chunks materialized and
    /// shared: a `full` epoch re-states all `n` values from `entries` (ids
    /// without one read `0.0`), any other applies them copy-on-write.
    fn next(&self, full: bool, n: usize, entries: &[(VertexId, f64)]) -> (Self, u64, u64) {
        if !full {
            return self.apply(n, entries, 0.0);
        }
        let mut values = vec![0.0; n];
        for &(v, x) in entries {
            values[v as usize] = x;
        }
        let store = Self::from_vec(values);
        let copied = store.chunks.len() as u64;
        (store, copied, 0)
    }
}

impl PartialEq for ChunkedVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

// ---------------------------------------------------------------------------
// Maintained top-k index
// ---------------------------------------------------------------------------

/// Serve-rank order: higher closeness first, ties broken by lower vertex
/// id. `total_cmp` makes this a total order even on pathological values,
/// matching the rescan oracle in `aaa_graph::closeness::top_k`.
#[inline]
fn rank_before(a: (f64, VertexId), b: (f64, VertexId)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Bounded, threshold-pruned index of the best-ranked vertices, ordered
/// best-first under [`rank_before`].
///
/// Invariant: `entries` is the *exact* top-`entries.len()` prefix of the
/// current store — every non-member ranks strictly after `entries.last()`.
/// A delta update removes the member entry for a changed vertex (by its
/// old value) and re-inserts the new value only when it beats the current
/// worst (the threshold prune); displacement past the cap truncates. When
/// removals shrink the index below the serve cap it is rebuilt by one
/// bounded scan, restoring slack up to [`TOPK_INDEX_CAP`].
#[derive(Debug, Clone, Default)]
struct TopKIndex {
    entries: Vec<(f64, VertexId)>,
}

impl TopKIndex {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// One bounded scan of the whole store: `O(n·log cap)`.
    fn rebuild(&mut self, values: &ChunkedVec) {
        let cap = TOPK_INDEX_CAP.min(values.len());
        self.entries.clear();
        for (v, c) in values.iter().enumerate() {
            let cand = (c, v as VertexId);
            let pos = self
                .entries
                .binary_search_by(|e| rank_before(*e, cand))
                .expect_err("vertex ids are unique");
            if pos < cap {
                self.entries.insert(pos, cand);
                self.entries.truncate(cap);
            }
        }
    }

    /// Applies one delta entry: `old` is the vertex's value in the
    /// previous view (`None` if it is new). `O(log k + k)` worst case
    /// (binary search plus a bounded memmove).
    fn update(&mut self, old: Option<f64>, v: VertexId, new_c: f64) {
        if let Some(oc) = old {
            if let Ok(pos) = self.entries.binary_search_by(|e| rank_before(*e, (oc, v))) {
                self.entries.remove(pos);
            }
        }
        let cand = (new_c, v);
        match self.entries.binary_search_by(|e| rank_before(*e, cand)) {
            Ok(_) => unreachable!("vertex ids are unique"),
            // Beats the current worst member → exactness is preserved by
            // insertion; past-the-end candidates may or may not belong to
            // the true top prefix, so they are pruned (the caller rebuilds
            // if the index underflows the serve cap).
            Err(pos) if pos < self.entries.len() => {
                self.entries.insert(pos, cand);
                self.entries.truncate(TOPK_INDEX_CAP);
            }
            Err(_) => {}
        }
    }

    /// The per-view serve snapshot: the first `TOPK_SERVE_CAP` entries in
    /// serve order, as `(id, closeness)` pairs.
    fn snapshot(&self) -> Vec<(VertexId, f64)> {
        self.entries.iter().take(TOPK_SERVE_CAP).map(|&(c, v)| (v, c)).collect()
    }
}

// ---------------------------------------------------------------------------
// Metric columns
// ---------------------------------------------------------------------------

/// One metric's column within a view — closeness or an extra: its chunked
/// value store plus a per-view top-k snapshot under the [`rank_before`]
/// total order.
#[derive(Debug, Clone, PartialEq)]
struct MetricColumn {
    kind: MetricKind,
    values: ChunkedVec,
    /// Exact top-[`TOPK_SERVE_CAP`] prefix in serve order, snapshotted from
    /// the column's index — what makes `top_k` `O(k)`.
    topk: Arc<Vec<(VertexId, f64)>>,
}

/// What advancing one column cost: chunks copied, chunks shared, and
/// whether its top-k index was rescanned.
type ColumnCost = (u64, u64, bool);

impl MetricColumn {
    fn empty(kind: MetricKind) -> Self {
        Self { kind, values: ChunkedVec::default(), topk: Arc::new(Vec::new()) }
    }

    /// This epoch's version of the column. `index` is the column's top-k
    /// index: the leader's maintained one absorbs the entries in
    /// `O(Δ·log k)`; a follower's scratch (empty) one underflows and is
    /// refilled by one bounded scan. Both leave the same exact prefix.
    fn next(
        &self,
        index: &mut TopKIndex,
        full: bool,
        n: usize,
        entries: &[(VertexId, f64)],
    ) -> (Self, ColumnCost) {
        let (values, copied, shared) = self.values.next(full, n, entries);
        if !full {
            for &(v, x) in entries {
                index.update(self.values.get(v as usize), v, x);
            }
        }
        let rebuilt = full || index.len() < TOPK_SERVE_CAP.min(n);
        if rebuilt {
            index.rebuild(&values);
        }
        (
            Self { kind: self.kind, values, topk: Arc::new(index.snapshot()) },
            (copied, shared, rebuilt),
        )
    }

    /// The `k` best-ranked vertices of this column: `O(k)` from the
    /// snapshot within its coverage, a full rescan beyond it.
    fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        let k = k.min(self.values.len());
        if k <= self.topk.len() {
            return self.topk[..k].to_vec();
        }
        self.top_k_rescan(k)
    }

    fn top_k_rescan(&self, k: usize) -> Vec<(VertexId, f64)> {
        let values = self.values.to_vec();
        top_k(&values, k).into_iter().map(|v| (v, values[v as usize])).collect()
    }
}

/// The top-k index kept for `kind`, created on first sight of the kind
/// (the engine's metric set is fixed per run).
fn index_for(indexes: &mut Vec<(MetricKind, TopKIndex)>, kind: MetricKind) -> &mut TopKIndex {
    let pos = indexes.iter().position(|(k, _)| *k == kind).unwrap_or_else(|| {
        indexes.push((kind, TopKIndex::default()));
        indexes.len() - 1
    });
    &mut indexes[pos].1
}

// ---------------------------------------------------------------------------
// Published views
// ---------------------------------------------------------------------------

/// One immutable published answer. Readers obtain views via
/// [`ViewCell::load`] and keep them alive as long as they like; the engine
/// never mutates a view after publishing it.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedView {
    /// Strictly-increasing epoch id (0 = the pre-construction empty view).
    pub epoch: u64,
    /// RC steps the engine had completed when this view was published.
    pub rc_steps: usize,
    /// Dynamic changes applied when this view was published.
    pub changes_applied: u64,
    /// Whether the engine had reached quiescence at publish time.
    pub converged: bool,
    /// The closeness primary, held inline so [`PublishedView::point`] is
    /// one chunk lookup.
    closeness: MetricColumn,
    /// Per-vertex certified bound on `|exact − closeness|`; empty under
    /// [`BoundsMode::None`].
    bounds: ChunkedVec,
    /// Extra metric columns (wire-id order); empty on closeness-only runs.
    extras: Vec<MetricColumn>,
}

impl PublishedView {
    /// The empty epoch-0 view (what a cell holds before first publish).
    pub fn empty() -> Self {
        Self {
            epoch: 0,
            rc_steps: 0,
            changes_applied: 0,
            converged: false,
            closeness: MetricColumn::empty(MetricKind::Closeness),
            bounds: ChunkedVec::default(),
            extras: Vec::new(),
        }
    }

    /// Number of vertices covered by this view.
    pub fn num_vertices(&self) -> usize {
        self.closeness.values.len()
    }

    /// Point lookup: closeness of `v`, or `None` out of range. `O(1)`.
    pub fn point(&self, v: VertexId) -> Option<f64> {
        self.closeness.values.get(v as usize)
    }

    /// Batched point lookup against this one consistent epoch.
    pub fn points(&self, ids: &[VertexId]) -> Vec<Option<f64>> {
        ids.iter().map(|&v| self.point(v)).collect()
    }

    /// The full closeness vector, materialized from the chunked store.
    pub fn closeness(&self) -> Vec<f64> {
        self.closeness.values.to_vec()
    }

    /// The `k` most central vertices with their closeness, ties broken by
    /// vertex id. `O(k)` for `k ≤` [`TOPK_SERVE_CAP`] via the maintained
    /// snapshot; larger `k` falls back to [`PublishedView::top_k_rescan`].
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        self.closeness.top_k(k)
    }

    /// Debug oracle: full `O(n log n)` rescan of the materialized
    /// closeness vector. Must agree with [`PublishedView::top_k`] exactly.
    pub fn top_k_rescan(&self, k: usize) -> Vec<(VertexId, f64)> {
        self.closeness.top_k_rescan(k)
    }

    /// Whether this view carries certified per-vertex bounds.
    pub fn has_bounds(&self) -> bool {
        !self.bounds.is_empty()
    }

    /// Certified bound on `|exact − closeness|` for `v`. `None` when the
    /// view was published without bounds or `v` is out of range.
    pub fn error_bound(&self, v: VertexId) -> Option<f64> {
        self.bounds.get(v as usize)
    }

    /// The full bounds vector (empty under [`BoundsMode::None`]).
    pub fn bounds(&self) -> Vec<f64> {
        self.bounds.to_vec()
    }

    /// Which metric columns this view carries. The closeness primary is
    /// always present; extras reflect the engine's configured metric set.
    pub fn metrics(&self) -> MetricMask {
        let mut m = MetricMask::only(MetricKind::Closeness);
        for e in &self.extras {
            m = m.with(e.kind);
        }
        m
    }

    /// Whether this view carries a column for `kind`.
    pub fn has_metric(&self, kind: MetricKind) -> bool {
        self.column(kind).is_some()
    }

    fn column(&self, kind: MetricKind) -> Option<&MetricColumn> {
        std::iter::once(&self.closeness).chain(&self.extras).find(|c| c.kind == kind)
    }

    /// Point lookup in the `kind` column. `None` when the view does not
    /// carry that metric **or** `v` is out of range — serve layers that
    /// need to distinguish the two check [`PublishedView::has_metric`]
    /// first (and surface `ServeError::MetricUnavailable`).
    pub fn metric_point(&self, kind: MetricKind, v: VertexId) -> Option<f64> {
        self.column(kind)?.values.get(v as usize)
    }

    /// The full `kind` column, or `None` when the view lacks it.
    pub fn metric_values(&self, kind: MetricKind) -> Option<Vec<f64>> {
        Some(self.column(kind)?.values.to_vec())
    }

    /// Top-`k` of the `kind` column (serve order: higher score first, ties
    /// by lower id — identical to [`PublishedView::top_k`]), or `None`
    /// when the view lacks the metric. `O(k)` within the snapshot cap.
    pub fn metric_top_k(&self, kind: MetricKind, k: usize) -> Option<Vec<(VertexId, f64)>> {
        Some(self.column(kind)?.top_k(k))
    }
}

// ---------------------------------------------------------------------------
// View deltas
// ---------------------------------------------------------------------------

/// The change set one epoch applies to the previous view: what the
/// publisher builds each view from, and — encoded as [`NetMsg::ViewDelta`]
/// — the unit of view replication to reader processes (ROADMAP item 1).
///
/// `entries`/`bounds` are sorted by vertex id. A `full` delta re-states
/// every vertex (construction, restore); otherwise entries cover exactly
/// the rows whose published bits moved since the previous publish — every
/// new id among them, which is all a follower lets a view grow by — and,
/// with certified bounds, `bounds` lists the same ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDelta {
    pub epoch: u64,
    pub rc_steps: usize,
    pub changes_applied: u64,
    pub converged: bool,
    pub full: bool,
    /// Vertex count of the view this delta produces.
    pub n: usize,
    /// `(vertex, new closeness)`, sorted by id.
    pub entries: Vec<(VertexId, f64)>,
    /// `(vertex, new certified bound)`, sorted by id; empty without bounds.
    pub bounds: Vec<(VertexId, f64)>,
    /// Per extra metric, its changed `(vertex, score)` entries sorted by
    /// id; kinds in wire-id order. Empty on closeness-only runs.
    pub extras: Vec<(MetricKind, Vec<(VertexId, f64)>)>,
}

/// Why a received [`ViewDelta`] was refused. Deltas arrive from another
/// process, so a follower checks them instead of trusting them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewDeltaError {
    /// The message is some other [`NetMsg`] variant.
    NotAViewDelta,
    /// An extra column names a metric wire id this build does not know.
    UnknownMetric(u8),
    /// An extra column repeats a kind (closeness is always the primary).
    DuplicateMetric(MetricKind),
    /// An entry, bound or extra names a vertex outside the delta's `n`.
    IdOutOfRange { id: VertexId, n: usize },
    /// An entry list is not strictly increasing by id at `id`.
    UnsortedIds { id: VertexId },
    /// A non-full delta would shrink the view it applies to.
    Shrinks { n: usize, prev: usize },
    /// The delta's `n` is more than its closeness entries back: a thin
    /// delta restates every id past the view it lands on, a full one every
    /// id, and `backed` is as far as these reach.
    Unbacked { n: usize, backed: usize },
}

impl std::fmt::Display for ViewDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewDeltaError::NotAViewDelta => write!(f, "message is not a view delta"),
            ViewDeltaError::UnknownMetric(id) => write!(f, "unknown metric wire id {id}"),
            ViewDeltaError::DuplicateMetric(kind) => write!(f, "metric {kind} listed twice"),
            ViewDeltaError::IdOutOfRange { id, n } => {
                write!(f, "vertex {id} outside the delta's {n} vertices")
            }
            ViewDeltaError::UnsortedIds { id } => {
                write!(f, "ids not strictly increasing at vertex {id}")
            }
            ViewDeltaError::Shrinks { n, prev } => {
                write!(f, "non-full delta shrinks the view from {prev} to {n} vertices")
            }
            ViewDeltaError::Unbacked { n, backed } => {
                write!(f, "delta claims {n} vertices, its entries back {backed}")
            }
        }
    }
}

impl std::error::Error for ViewDeltaError {}

impl ViewDelta {
    /// Rows this delta re-states (closeness column).
    pub fn rows(&self) -> usize {
        self.entries.len()
    }

    /// Size of the wire encoding in bytes (kept in lockstep with the
    /// codec in `net.rs`; asserted by its tests).
    pub fn encoded_bytes(&self) -> usize {
        // tag + epoch + rc_steps + changes_applied + n + flags
        // + 2 × (count + 12 bytes per (id, f64-bits) pair)
        let base = 1 + 8 + 8 + 8 + 4 + 1 + 4 + 12 * self.entries.len() + 4 + 12 * self.bounds.len();
        if self.extras.is_empty() {
            base
        } else {
            // + metric count + per metric (kind byte + count + pairs)
            base + 1 + self.extras.iter().map(|(_, e)| 1 + 4 + 12 * e.len()).sum::<usize>()
        }
    }

    /// The CRC-framed wire form (f64 carried as raw bits, so the message
    /// keeps `NetMsg`'s `Eq` and round-trips exactly).
    pub fn to_msg(&self) -> NetMsg {
        let bits = |es: &[(VertexId, f64)]| -> Vec<(VertexId, u64)> {
            es.iter().map(|&(v, x)| (v, x.to_bits())).collect()
        };
        NetMsg::ViewDelta {
            epoch: self.epoch,
            rc_steps: self.rc_steps as u64,
            changes_applied: self.changes_applied,
            n: self.n as u32,
            converged: self.converged,
            full: self.full,
            entries: bits(&self.entries),
            bounds: bits(&self.bounds),
            extras: self.extras.iter().map(|(k, es)| (k.wire_id(), bits(es))).collect(),
        }
    }

    /// Decodes the wire form. The result is not yet trusted: ids and kinds
    /// are checked against the view it lands on by [`ViewDelta::apply_to`].
    pub fn from_msg(msg: &NetMsg) -> Result<Self, ViewDeltaError> {
        let NetMsg::ViewDelta {
            epoch,
            rc_steps,
            changes_applied,
            n,
            converged,
            full,
            entries,
            bounds,
            extras,
        } = msg
        else {
            return Err(ViewDeltaError::NotAViewDelta);
        };
        let floats = |es: &[(VertexId, u64)]| -> Vec<(VertexId, f64)> {
            es.iter().map(|&(v, b)| (v, f64::from_bits(b))).collect()
        };
        Ok(Self {
            epoch: *epoch,
            rc_steps: *rc_steps as usize,
            changes_applied: *changes_applied,
            converged: *converged,
            full: *full,
            n: *n as usize,
            entries: floats(entries),
            bounds: floats(bounds),
            extras: extras
                .iter()
                .map(|(id, es)| {
                    let kind =
                        MetricKind::from_wire_id(*id).ok_or(ViewDeltaError::UnknownMetric(*id))?;
                    Ok((kind, floats(es)))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Follower-side application: reconstructs the view this delta
    /// produced, bit-identically to the leader's (the replication receive
    /// path), or refuses a delta that does not fit `prev`.
    pub fn apply_to(&self, prev: &PublishedView) -> Result<PublishedView, ViewDeltaError> {
        if !self.full && self.n < prev.num_vertices() {
            return Err(ViewDeltaError::Shrinks { n: self.n, prev: prev.num_vertices() });
        }
        let mut seen = MetricMask::only(MetricKind::Closeness);
        for &(kind, _) in &self.extras {
            if seen.contains(kind) {
                return Err(ViewDeltaError::DuplicateMetric(kind));
            }
            seen = seen.with(kind);
        }
        for list in
            [&self.entries, &self.bounds].into_iter().chain(self.extras.iter().map(|e| &e.1))
        {
            let mut floor = 0;
            for &(id, _) in list {
                if id as usize >= self.n {
                    return Err(ViewDeltaError::IdOutOfRange { id, n: self.n });
                }
                if (id as u64) < floor {
                    return Err(ViewDeltaError::UnsortedIds { id });
                }
                floor = id as u64 + 1;
            }
        }
        // `n` sizes every column, so it must not outrun what the wire paid
        // for: the closeness entries, sorted and in range, from `base` up.
        let base = if self.full { 0 } else { prev.num_vertices() };
        let backed = base + self.entries.iter().filter(|e| e.0 as usize >= base).count();
        if backed < self.n {
            return Err(ViewDeltaError::Unbacked { n: self.n, backed });
        }
        Ok(self.build(prev, &mut Vec::new()).0)
    }

    /// The view this delta turns `prev` into — the one construction routine
    /// behind every published view: the leader runs it with its maintained
    /// top-k indexes, a follower with scratch ones. Also returns the cost
    /// of the closeness column, the only one [`PublishStats`] counts.
    fn build(
        &self,
        prev: &PublishedView,
        indexes: &mut Vec<(MetricKind, TopKIndex)>,
    ) -> (PublishedView, ColumnCost) {
        let (full, n) = (self.full, self.n);
        let (closeness, cost) =
            prev.closeness.next(index_for(indexes, MetricKind::Closeness), full, n, &self.entries);
        // A full epoch decides afresh whether the view carries bounds; a
        // thin one keeps what the previous view had.
        let bounded = if full { !self.bounds.is_empty() } else { prev.has_bounds() };
        let bounds =
            if bounded { prev.bounds.next(full, n, &self.bounds).0 } else { ChunkedVec::default() };
        let extras = self
            .extras
            .iter()
            .map(|(kind, entries)| {
                let fresh = MetricColumn::empty(*kind);
                let base = prev.extras.iter().find(|c| c.kind == *kind).unwrap_or(&fresh);
                base.next(index_for(indexes, *kind), full, n, entries).0
            })
            .collect();
        let view = PublishedView {
            epoch: self.epoch,
            rc_steps: self.rc_steps,
            changes_applied: self.changes_applied,
            converged: self.converged,
            closeness,
            bounds,
            extras,
        };
        (view, cost)
    }
}

// ---------------------------------------------------------------------------
// The shared cell
// ---------------------------------------------------------------------------

/// The swappable handle readers share: an `ArcSwap`-style cell holding the
/// latest [`PublishedView`], plus a condvar-tracked epoch watermark so
/// blocked readers park instead of spinning.
///
/// `load` takes a read lock only long enough to clone the inner `Arc`
/// (~tens of nanoseconds), so unbounded concurrent readers scale; `store`
/// swaps the whole `Arc` under the write lock, so a reader sees either
/// the old complete view or the new complete view — never a mix. The
/// watermark is advanced *after* the slot swap, so a waiter woken at
/// epoch `e` always loads a view with `epoch ≥ e`.
#[derive(Debug)]
pub struct ViewCell {
    slot: RwLock<Arc<PublishedView>>,
    epoch: Mutex<u64>,
    published: Condvar,
}

impl ViewCell {
    pub fn new(initial: PublishedView) -> Self {
        let epoch = initial.epoch;
        Self {
            slot: RwLock::new(Arc::new(initial)),
            epoch: Mutex::new(epoch),
            published: Condvar::new(),
        }
    }

    /// The latest published view. Never blocks on the compute loop — only
    /// on the instant of an `Arc` swap.
    pub fn load(&self) -> Arc<PublishedView> {
        self.slot.read().expect("view lock poisoned").clone()
    }

    /// Atomically replaces the published view and wakes parked waiters.
    pub fn store(&self, view: Arc<PublishedView>) {
        let epoch = view.epoch;
        *self.slot.write().expect("view lock poisoned") = view;
        let mut w = self.epoch.lock().expect("epoch lock poisoned");
        if epoch > *w {
            *w = epoch;
        }
        drop(w);
        self.published.notify_all();
    }

    /// Parks until a view with `epoch ≥ target` is published, then loads
    /// it. Blocks forever if the writer never reaches `target`.
    pub fn wait_for_epoch(&self, target: u64) -> Arc<PublishedView> {
        let mut w = self.epoch.lock().expect("epoch lock poisoned");
        while *w < target {
            w = self.published.wait(w).expect("epoch lock poisoned");
        }
        drop(w);
        self.load()
    }

    /// Like [`ViewCell::wait_for_epoch`] but gives up at `deadline`,
    /// returning the watermark reached. Spurious wakeups re-check.
    pub fn wait_for_epoch_until(
        &self,
        target: u64,
        deadline: Instant,
    ) -> Result<Arc<PublishedView>, u64> {
        let mut w = self.epoch.lock().expect("epoch lock poisoned");
        while *w < target {
            let now = Instant::now();
            if now >= deadline {
                return Err(*w);
            }
            let (guard, _) =
                self.published.wait_timeout(w, deadline - now).expect("epoch lock poisoned");
            w = guard;
        }
        drop(w);
        Ok(self.load())
    }
}

impl Default for ViewCell {
    fn default() -> Self {
        Self::new(PublishedView::empty())
    }
}

// ---------------------------------------------------------------------------
// The publisher
// ---------------------------------------------------------------------------

/// Publish-layer counters (driver-side bookkeeping, deterministic for a
/// pinned scenario — the perf gate pins them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Epochs minted (full + delta).
    pub epochs: u64,
    /// Epochs published via the full `O(n)` rebuild path.
    pub full_epochs: u64,
    /// Epochs published via the `O(changed)` delta path.
    pub delta_epochs: u64,
    /// Total rows re-stated across all epochs.
    pub changed_rows: u64,
    /// Closeness chunks materialized (copied or newly filled).
    pub chunks_copied: u64,
    /// Closeness chunks shared with the previous view (`Arc` bump only).
    pub chunks_shared: u64,
    /// Bounded rescans of the top-k index (full publishes + underflow
    /// refills).
    pub topk_rebuilds: u64,
}

/// The engine-side writer half of the publish layer: mints epochs, owns
/// the maintained top-k indexes, and swaps finished views into the shared
/// [`ViewCell`]. What a view says is the caller's: the publisher keeps no
/// bounds state (the engine scores each epoch's rows, bounds included).
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<ViewCell>,
    epoch: u64,
    /// Maintained top-k index per column, closeness first.
    indexes: Vec<(MetricKind, TopKIndex)>,
    /// The next publish must re-state every vertex: set at construction and
    /// by [`Publisher::request_full`].
    needs_full: bool,
    /// Test/bench override: disable the delta path entirely.
    force_full: bool,
    stats: PublishStats,
    last_delta: Option<ViewDelta>,
}

impl Publisher {
    pub fn new() -> Self {
        Self {
            cell: Arc::new(ViewCell::default()),
            epoch: 0,
            indexes: Vec::new(),
            needs_full: true,
            force_full: false,
            stats: PublishStats::default(),
            last_delta: None,
        }
    }

    /// The shared handle readers should clone.
    pub fn cell(&self) -> Arc<ViewCell> {
        self.cell.clone()
    }

    /// The latest published view (what `cell().load()` would return).
    pub fn latest(&self) -> Arc<PublishedView> {
        self.cell.load()
    }

    /// Epochs minted so far (== the epoch of the latest published view).
    pub fn epochs_minted(&self) -> u64 {
        self.epoch
    }

    /// Publish-layer counters so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// The delta describing the most recent epoch (full publishes re-state
    /// every vertex). What `NetMsg::ViewDelta` replication would ship.
    pub fn last_delta(&self) -> Option<&ViewDelta> {
        self.last_delta.as_ref()
    }

    /// Whether the next publish must take the full path.
    pub fn wants_full(&self) -> bool {
        self.needs_full || self.force_full
    }

    /// Forces the next publish onto the full path: a rewind whose rows
    /// the delta path cannot name (the engine's checkpoint fallback).
    pub fn request_full(&mut self) {
        self.needs_full = true;
    }

    /// Disables (`true`) or re-enables (`false`) the delta path — the
    /// full-rebuild baseline for equivalence tests and the publish bench.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// Publishes a new epoch via the full `O(n)` rebuild path. `bounds`
    /// must be empty under [`BoundsMode::None`] and vertex-aligned under
    /// `Certified`; `extras` holds each extra metric's complete length-`n`
    /// column, kinds in wire-id order (empty on closeness-only runs).
    pub fn publish(
        &mut self,
        rc_steps: usize,
        changes_applied: u64,
        converged: bool,
        closeness: Vec<f64>,
        bounds: Vec<f64>,
        extras: Vec<(MetricKind, Vec<f64>)>,
    ) -> Arc<PublishedView> {
        let n = closeness.len();
        let restate = |column: Vec<f64>| -> Vec<(VertexId, f64)> {
            debug_assert!(column.is_empty() || column.len() == n, "column must be vertex-aligned");
            column.into_iter().enumerate().map(|(v, x)| (v as VertexId, x)).collect()
        };
        self.mint(ViewDelta {
            epoch: self.epoch + 1,
            rc_steps,
            changes_applied,
            converged,
            full: true,
            n,
            entries: restate(closeness),
            bounds: restate(bounds),
            extras: extras.into_iter().map(|(kind, column)| (kind, restate(column))).collect(),
        })
    }

    /// Publishes a new epoch via the `O(changed)` delta path: `entries`
    /// (and `bound_entries`, under `Certified`, and each extra metric's
    /// list in `extras`) re-state exactly the rows whose values changed
    /// since the previous publish, sorted by id; `n` is the new vertex
    /// count (never below the published view's — callers route shrinking
    /// transitions through [`Publisher::publish`]). Every column is
    /// carried forward by structural sharing and its maintained index
    /// absorbs the delta.
    #[allow(clippy::too_many_arguments)]
    pub fn publish_changes(
        &mut self,
        rc_steps: usize,
        changes_applied: u64,
        converged: bool,
        n: usize,
        entries: Vec<(VertexId, f64)>,
        bound_entries: Vec<(VertexId, f64)>,
        extras: Vec<(MetricKind, Vec<(VertexId, f64)>)>,
    ) -> Arc<PublishedView> {
        debug_assert!(!self.wants_full(), "delta publish while a full publish is required");
        debug_assert!(
            bound_entries.is_empty() || self.latest().has_bounds(),
            "bound entries without a bounds-bearing view"
        );
        self.mint(ViewDelta {
            epoch: self.epoch + 1,
            rc_steps,
            changes_applied,
            converged,
            full: false,
            n,
            entries,
            bounds: bound_entries,
            extras,
        })
    }

    /// Mints `delta`'s epoch: builds the view from it, swaps it in and
    /// keeps the delta for replication. Extra columns are intentionally
    /// **not** counted in [`PublishStats`].
    fn mint(&mut self, delta: ViewDelta) -> Arc<PublishedView> {
        let (view, (copied, shared, rebuilt)) = delta.build(&self.cell.load(), &mut self.indexes);
        self.epoch = delta.epoch;
        self.needs_full = false;
        self.stats.epochs += 1;
        if delta.full {
            self.stats.full_epochs += 1;
        } else {
            self.stats.delta_epochs += 1;
        }
        self.stats.changed_rows += delta.rows() as u64;
        self.stats.chunks_copied += copied;
        self.stats.chunks_shared += shared;
        self.stats.topk_rebuilds += u64::from(rebuilt);
        self.last_delta = Some(delta);
        let view = Arc::new(view);
        self.cell.store(view.clone());
        view
    }
}

impl Default for Publisher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_strictly_increasing_and_views_immutable() {
        let mut p = Publisher::new();
        let cell = p.cell();
        assert_eq!(cell.load().epoch, 0);
        let v1 = p.publish(1, 0, false, vec![0.5, 0.25], Vec::new(), Vec::new());
        let held = cell.load();
        assert_eq!(held.epoch, 1);
        let v2 = p.publish(2, 0, true, vec![0.6, 0.25], Vec::new(), Vec::new());
        assert_eq!(v2.epoch, 2);
        // The reader's old handle is untouched by the new publish.
        assert_eq!(held.point(0), Some(0.5));
        assert_eq!(cell.load().point(0), Some(0.6));
        assert!(v1.epoch < v2.epoch);
        assert_eq!(p.epochs_minted(), 2);
    }

    #[test]
    fn view_queries() {
        let mut p = Publisher::new();
        let v = p.publish(3, 2, false, vec![0.1, 0.9, 0.4], vec![0.05, 0.0, 0.2], Vec::new());
        assert_eq!(v.num_vertices(), 3);
        assert_eq!(v.point(1), Some(0.9));
        assert_eq!(v.point(9), None);
        assert_eq!(v.top_k(2), vec![(1, 0.9), (2, 0.4)]);
        assert_eq!(v.points(&[2, 9, 0]), vec![Some(0.4), None, Some(0.1)]);
        assert!(v.has_bounds());
        assert_eq!(v.error_bound(2), Some(0.2));
        assert_eq!(v.error_bound(7), None);
        assert_eq!(v.rc_steps, 3);
        assert_eq!(v.changes_applied, 2);
        let empty = PublishedView::empty();
        assert!(!empty.has_bounds());
        assert_eq!(empty.point(0), None);
        assert!(empty.top_k(3).is_empty());
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_view() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut p = Publisher::new();
        let cell = p.cell();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = cell.load();
                        // Epoch k publishes a constant vector of k's value;
                        // a torn view would mix values from two epochs.
                        assert!(v.closeness().iter().all(|&c| c == v.epoch as f64));
                        assert!(v.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = v.epoch;
                    }
                })
            })
            .collect();
        for e in 1..=200u64 {
            p.publish(e as usize, 0, false, vec![e as f64; 64], Vec::new(), Vec::new());
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(cell.load().epoch, 200);
    }

    /// Reference next-view construction: full rebuild from the previous
    /// materialized vector plus the delta, via the legacy path.
    fn full_oracle(
        p: &mut Publisher,
        prev: &PublishedView,
        n: usize,
        entries: &[(VertexId, f64)],
    ) -> Arc<PublishedView> {
        let mut vals = prev.closeness();
        vals.resize(n, 0.0);
        for &(v, c) in entries {
            vals[v as usize] = c;
        }
        p.publish(prev.rc_steps + 1, 0, false, vals, Vec::new(), Vec::new())
    }

    #[test]
    fn delta_publish_matches_full_rebuild_and_shares_chunks() {
        let n = 3 * CHUNK_VERTICES + 17;
        let base: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut fast = Publisher::new();
        let mut slow = Publisher::new();
        fast.publish(0, 0, false, base.clone(), Vec::new(), Vec::new());
        slow.publish(0, 0, false, base, Vec::new(), Vec::new());
        // Dirty a handful of rows inside chunk 1 only.
        let entries: Vec<(VertexId, f64)> =
            (0..8).map(|i| ((CHUNK_VERTICES + 13 * i) as VertexId, 0.5 + i as f64)).collect();
        let slow_prev = slow.latest();
        let dv = fast.publish_changes(1, 0, false, n, entries.clone(), Vec::new(), Vec::new());
        let fv = full_oracle(&mut slow, &slow_prev, n, &entries);
        assert_eq!(dv.closeness(), fv.closeness());
        assert_eq!(dv.top_k(10), fv.top_k(10));
        assert_eq!(dv.top_k(10), dv.top_k_rescan(10));
        // Chunks 0, 2, 3 are shared with the previous epoch; chunk 1 was
        // copied.
        let s = fast.stats();
        assert_eq!((s.full_epochs, s.delta_epochs), (1, 1));
        assert_eq!(s.chunks_copied, 4 + 1);
        assert_eq!(s.chunks_shared, 3);
    }

    #[test]
    fn delta_publish_grows_the_view() {
        let mut p = Publisher::new();
        p.publish(0, 0, false, vec![0.2; 10], Vec::new(), Vec::new());
        let v =
            p.publish_changes(1, 1, false, 12, vec![(10, 0.9), (11, 0.1)], Vec::new(), Vec::new());
        assert_eq!(v.num_vertices(), 12);
        assert_eq!(v.point(9), Some(0.2));
        assert_eq!(v.point(10), Some(0.9));
        assert_eq!(v.top_k(1), vec![(10, 0.9)]);
        // A grown vertex with no entry defaults to 0.0 (fresh isolated
        // vertices have zero closeness).
        let v2 = p.publish_changes(2, 2, false, 13, Vec::new(), Vec::new(), Vec::new());
        assert_eq!(v2.point(12), Some(0.0));
    }

    #[test]
    fn maintained_topk_survives_displacement_churn() {
        // More vertices than the index cap, then repeatedly demote the
        // current best: every removal is an index hit, and underflow
        // rebuilds must keep the snapshot exact.
        let n = TOPK_INDEX_CAP * 3;
        let base: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut p = Publisher::new();
        p.publish(0, 0, false, base, Vec::new(), Vec::new());
        for step in 0..TOPK_INDEX_CAP + 8 {
            let view = p.latest();
            let (best, _) = view.top_k(1)[0];
            let v = p.publish_changes(
                step + 1,
                0,
                false,
                n,
                vec![(best, -1.0)],
                Vec::new(),
                Vec::new(),
            );
            assert_eq!(v.top_k(5), v.top_k_rescan(5), "after demoting {best}");
        }
        assert!(p.stats().topk_rebuilds >= 1);
    }

    #[test]
    fn topk_ties_break_by_id_on_both_paths() {
        let mut p = Publisher::new();
        // All-equal values: order must be by id on the maintained path...
        let v = p.publish(0, 0, false, vec![0.5; 300], Vec::new(), Vec::new());
        let maintained = v.top_k(6);
        assert_eq!(maintained, (0..6).map(|i| (i as VertexId, 0.5)).collect::<Vec<_>>());
        // ...and identically on the rescan oracle.
        assert_eq!(maintained, v.top_k_rescan(6));
        // Same via the delta path after introducing more ties.
        let v2 =
            p.publish_changes(1, 0, false, 300, vec![(3, 0.9), (7, 0.9)], Vec::new(), Vec::new());
        assert_eq!(v2.top_k(3), vec![(3, 0.9), (7, 0.9), (0, 0.5)]);
        assert_eq!(v2.top_k(3), v2.top_k_rescan(3));
    }

    #[test]
    fn view_delta_roundtrips_through_netmsg_and_applies() {
        let mut p = Publisher::new();
        p.publish(1, 0, false, vec![0.25; 40], vec![0.5; 40], Vec::new());
        let follower_base = p.latest();
        p.request_full();
        assert!(p.wants_full());
        p.publish(2, 1, false, vec![0.3; 40], vec![0.4; 40], Vec::new());
        let full_delta = p.last_delta().unwrap().clone();
        assert!(full_delta.full);
        let leader = p.latest();
        let msg = full_delta.to_msg();
        let decoded = ViewDelta::from_msg(&msg).unwrap();
        assert_eq!(decoded, full_delta);
        assert_eq!(&decoded.apply_to(&follower_base).unwrap(), leader.as_ref());

        // And a thin delta epoch.
        let prev = p.latest();
        p.publish_changes(3, 1, true, 40, vec![(5, 0.9)], vec![(5, 0.05)], Vec::new());
        let thin = p.last_delta().unwrap().clone();
        assert!(!thin.full);
        assert_eq!(thin.rows(), 1);
        let rt = ViewDelta::from_msg(&thin.to_msg()).unwrap();
        assert_eq!(rt, thin);
        assert_eq!(&rt.apply_to(&prev).unwrap(), p.latest().as_ref());
    }

    #[test]
    fn multi_metric_columns_publish_query_and_replicate() {
        let mut p = Publisher::new();
        let bc: Vec<f64> = (0..40).map(|i| (i * 7 % 11) as f64).collect();
        let v = p.publish(
            1,
            0,
            false,
            vec![0.5; 40],
            Vec::new(),
            vec![(MetricKind::Betweenness, bc.clone())],
        );
        assert!(v.has_metric(MetricKind::Betweenness));
        assert!(v.metrics().contains(MetricKind::Closeness));
        assert_eq!(v.metric_point(MetricKind::Betweenness, 3), Some(bc[3]));
        assert_eq!(v.metric_point(MetricKind::Betweenness, 99), None);
        assert_eq!(v.metric_values(MetricKind::Betweenness), Some(bc.clone()));
        // Top-k over the betweenness column, id tie-breaks, matches a
        // rescan oracle.
        let top = v.metric_top_k(MetricKind::Betweenness, 5).unwrap();
        let oracle: Vec<(VertexId, f64)> =
            top_k(&bc, 5).into_iter().map(|i| (i, bc[i as usize])).collect();
        assert_eq!(top, oracle);
        // The closeness accessors are untouched by extras.
        assert_eq!(v.point(0), Some(0.5));
        assert_eq!(v.metric_top_k(MetricKind::Closeness, 2).unwrap(), v.top_k(2));

        // Thin delta epoch: only the changed betweenness entries move.
        let prev = p.latest();
        let v2 = p.publish_changes(
            2,
            0,
            true,
            40,
            vec![(1, 0.9)],
            Vec::new(),
            vec![(MetricKind::Betweenness, vec![(3, 100.0), (7, 0.25)])],
        );
        assert_eq!(v2.metric_point(MetricKind::Betweenness, 3), Some(100.0));
        assert_eq!(v2.metric_point(MetricKind::Betweenness, 7), Some(0.25));
        assert_eq!(v2.metric_point(MetricKind::Betweenness, 4), Some(bc[4]));
        assert_eq!(v2.metric_top_k(MetricKind::Betweenness, 1).unwrap(), vec![(3, 100.0)]);
        // Extras are not counted in the closeness-only publish stats.
        assert_eq!(p.stats().changed_rows, 40 + 1);

        // Both columns round-trip through the one view-delta frame, and
        // the follower applies them bit-identically.
        let delta = p.last_delta().unwrap().clone();
        assert_eq!(delta.extras.len(), 1);
        let wire = delta.to_msg().encode();
        assert_eq!((wire[0], wire[29]), (16, 0b101), "tag 16, converged + extras flags");
        assert_eq!(wire.len(), delta.encoded_bytes());
        let rt = ViewDelta::from_msg(&NetMsg::decode(&wire).unwrap()).unwrap();
        assert_eq!(rt, delta);
        assert_eq!(&rt.apply_to(&prev).unwrap(), v2.as_ref());
    }

    /// Tag-16 frames as commit 7fb5ac3 (the last with a separate tag 17)
    /// encoded them: a thin certified delta and a full closeness-only one.
    const GOLDEN_THIN: &str = "1007000000000000000500000000000000030000000000000028000000010200000005000000cdccccccccccec3f11000000000000000000d03f01000000050000009a9999999999a93f";
    const GOLDEN_FULL: &str = "1007000000000000000500000000000000030000000000000003000000020300000000000000000000000000e03f01000000000000000000d03f02000000000000000000000000000000";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn closeness_only_wire_form_is_unchanged_by_s31() {
        let thin = ViewDelta {
            epoch: 7,
            rc_steps: 5,
            changes_applied: 3,
            converged: true,
            full: false,
            n: 40,
            entries: vec![(5, 0.9), (17, 0.25)],
            bounds: vec![(5, 0.05)],
            extras: Vec::new(),
        };
        let full = ViewDelta {
            converged: false,
            full: true,
            n: 3,
            entries: vec![(0, 0.5), (1, 0.25), (2, 0.0)],
            bounds: Vec::new(),
            ..thin.clone()
        };
        for (delta, golden) in [(thin, GOLDEN_THIN), (full, GOLDEN_FULL)] {
            // No extras → the bytes the parent produced, in both directions.
            let golden = unhex(golden);
            assert_eq!(delta.to_msg().encode(), golden);
            assert_eq!(golden.len(), delta.encoded_bytes());
            assert_eq!(ViewDelta::from_msg(&NetMsg::decode(&golden).unwrap()).unwrap(), delta);
        }
        let mut p = Publisher::new();
        let v = p.publish(1, 0, false, vec![0.5, 0.25], Vec::new(), Vec::new());
        assert!(p.last_delta().unwrap().extras.is_empty());
        assert_eq!(v.metrics(), MetricMask::only(MetricKind::Closeness));
        assert!(!v.has_metric(MetricKind::Betweenness));
        assert_eq!(v.metric_point(MetricKind::Betweenness, 0), None);
        assert_eq!(v.metric_values(MetricKind::Betweenness), None);
        assert_eq!(v.metric_top_k(MetricKind::Betweenness, 3), None);
    }

    #[test]
    fn follower_refuses_deltas_that_do_not_fit() {
        let mut p = Publisher::new();
        p.publish(1, 0, false, vec![0.5; 8], Vec::new(), Vec::new());
        let prev = p.latest();
        let good = ViewDelta {
            epoch: 2,
            rc_steps: 2,
            changes_applied: 0,
            converged: false,
            full: false,
            n: 8,
            entries: vec![(1, 0.1), (6, 0.2)],
            bounds: Vec::new(),
            extras: vec![(MetricKind::Betweenness, vec![(3, 1.0)])],
        };
        assert!(good.apply_to(&prev).is_ok());
        let refused = |edit: fn(&mut ViewDelta)| {
            let mut bad = good.clone();
            edit(&mut bad);
            bad.apply_to(&prev).unwrap_err()
        };
        assert_eq!(refused(|d| d.entries[1].0 = 8), ViewDeltaError::IdOutOfRange { id: 8, n: 8 });
        assert_eq!(
            refused(|d| d.bounds = vec![(9, 0.0)]),
            ViewDeltaError::IdOutOfRange { id: 9, n: 8 }
        );
        assert_eq!(
            refused(|d| d.extras[0].1[0].0 = 70),
            ViewDeltaError::IdOutOfRange { id: 70, n: 8 }
        );
        assert_eq!(refused(|d| d.entries.swap(0, 1)), ViewDeltaError::UnsortedIds { id: 1 });
        assert_eq!(refused(|d| d.entries[1].0 = 1), ViewDeltaError::UnsortedIds { id: 1 });
        assert_eq!(
            refused(|d| d.extras.push((MetricKind::Betweenness, Vec::new()))),
            ViewDeltaError::DuplicateMetric(MetricKind::Betweenness)
        );
        assert_eq!(
            refused(|d| d.extras[0].0 = MetricKind::Closeness),
            ViewDeltaError::DuplicateMetric(MetricKind::Closeness)
        );
        assert_eq!(refused(|d| d.n = 7), ViewDeltaError::Shrinks { n: 7, prev: 8 });
        // A view grows only as far as the closeness entries reach: a thin
        // delta restates every id past the previous view, a full one every
        // id. A wire `n` beyond that is refused before any column is sized
        // by it (at `u32::MAX` that would be ~34 GB a column).
        const HUGE: usize = u32::MAX as usize;
        let unbacked = |n| ViewDeltaError::Unbacked { n, backed: 8 };
        assert_eq!(refused(|d| d.n = HUGE), unbacked(HUGE));
        assert_eq!(refused(|d| d.n = 9), unbacked(9));
        let restate = |d: &mut ViewDelta| {
            d.full = true;
            d.entries = (0..8).map(|v| (v, 0.5)).collect();
        };
        let refused_full = |n: usize| {
            let mut bad = good.clone();
            restate(&mut bad);
            bad.n = n;
            bad.apply_to(&prev).unwrap_err()
        };
        assert_eq!(refused_full(HUGE), unbacked(HUGE));
        assert_eq!(refused_full(9), unbacked(9));
        // Backed growth applies: the new id restated, thin or full.
        let mut grown = ViewDelta { n: 9, ..good.clone() };
        grown.entries.push((8, 0.3));
        assert_eq!(grown.apply_to(&prev).unwrap().num_vertices(), 9);
        restate(&mut grown);
        assert_eq!(grown.apply_to(&prev), Err(unbacked(9)));
        grown.entries.push((8, 0.3));
        assert_eq!(grown.apply_to(&prev).unwrap().closeness()[8], 0.3);
        let mut msg = good.to_msg();
        if let NetMsg::ViewDelta { extras, .. } = &mut msg {
            extras[0].0 = 77;
        }
        assert_eq!(ViewDelta::from_msg(&msg), Err(ViewDeltaError::UnknownMetric(77)));
        assert_eq!(ViewDelta::from_msg(&NetMsg::Bye), Err(ViewDeltaError::NotAViewDelta));
    }

    #[test]
    fn cell_wait_parks_until_epoch_lands() {
        let mut p = Publisher::new();
        let cell = p.cell();
        let waiter = std::thread::spawn({
            let cell = cell.clone();
            move || cell.wait_for_epoch(3)
        });
        for e in 1..=3 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            p.publish(e, 0, false, vec![e as f64], Vec::new(), Vec::new());
        }
        assert!(waiter.join().unwrap().epoch >= 3);
        // Timed variant: an unreachable epoch reports the watermark.
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        assert_eq!(cell.wait_for_epoch_until(99, deadline), Err(3));
        // An already-published epoch returns immediately.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        assert_eq!(cell.wait_for_epoch_until(2, deadline).unwrap().epoch, 3);
    }
}
