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
//! A typical epoch dirties only a small fraction of DV rows. The publisher
//! consumes a [`ViewDelta`] — the changed vertex ids with their new values,
//! derived from the arena's epoch-dirty bitsets — and builds the next view
//! from the previous one: a column the epoch re-states (an entry, growth,
//! or a full epoch) is copied, patched and given one fresh bounded top-k
//! selection; a column it leaves alone is shared with the previous view by
//! `Arc`. Readers stay lock-free and torn-free. Scoring a changed row
//! already costs `O(n)`, so the `O(n)` copy of a changed column never
//! changes the order of an epoch's cost.
//!
//! [`PublishedView::top_k`] serves from each column's top-
//! [`TOPK_SERVE_CAP`] snapshot in `O(k)` (ordered best-first, ties by id);
//! [`PublishedView::top_k_rescan`] keeps the full sort as the oracle.
//!
//! # Multiple metrics per epoch (S31)
//!
//! A view always carries the closeness primary; configured extra metrics
//! (today: incremental betweenness, see [`crate::metric`]) ride the same
//! epoch as additional columns, each with its own values and top-k
//! snapshot. Every column — closeness included — advances through the one
//! [`ViewDelta`] build routine, on the leader ([`Publisher`]) and on a
//! follower ([`ViewDelta::apply_to`]) alike; a closeness-only run is simply
//! the empty extras list, and its deltas keep the wire bytes they always
//! had. [`PublishStats`] deliberately counts the closeness column only, so
//! the committed perf-gate baselines are unaffected by extras.

use crate::metric::{MetricKind, MetricMask};
use crate::net::NetMsg;
use aaa_graph::closeness::top_k;
use aaa_graph::VertexId;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// How many top entries each view snapshots for `O(k)` serving. `top_k`
/// calls with `k` beyond this fall back to the rescan oracle.
pub const TOPK_SERVE_CAP: usize = 128;

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
// Metric columns
// ---------------------------------------------------------------------------

/// Serve-rank order: higher score first, ties broken by lower vertex id.
/// `total_cmp` makes this a total order even on pathological values,
/// matching the rescan oracle in `aaa_graph::closeness::top_k`.
fn rank_before(a: &(VertexId, f64), b: &(VertexId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// How many values [`select_top`] takes in before it cuts its buffer back
/// to the best [`TOPK_SERVE_CAP`]. A column of at most this many values
/// costs one selection over all of them; a longer one never holds more than
/// `TOPK_SERVE_CAP + SELECT_CHUNK` entries.
const SELECT_CHUNK: usize = 32 * TOPK_SERVE_CAP;

/// The first [`TOPK_SERVE_CAP`] entries of `values` (all of them when there
/// are fewer) in serve order: one scan, [`SELECT_CHUNK`] values at a time.
/// The buffer keeps the best cap entries so far, takes in those of the
/// chunk whose value ranks before the worst kept one, and one bounded
/// selection cuts it back to cap; a sort of the last cut ends it. A value
/// that ties the worst kept one is left out: its id is the larger.
fn select_top(values: &[f64]) -> Vec<(VertexId, f64)> {
    let mut top: Vec<(VertexId, f64)> =
        Vec::with_capacity(values.len().min(TOPK_SERVE_CAP + SELECT_CHUNK));
    let mut worst: Option<f64> = None;
    for (c, chunk) in values.chunks(SELECT_CHUNK).enumerate() {
        let id = |i: usize| (c * SELECT_CHUNK + i) as VertexId;
        let entries = chunk.iter().enumerate().map(|(i, &x)| (id(i), x));
        match worst {
            None => top.extend(entries),
            Some(w) => top.extend(entries.filter(|e| e.1.total_cmp(&w).is_gt())),
        }
        if top.len() > TOPK_SERVE_CAP {
            top.select_nth_unstable_by(TOPK_SERVE_CAP - 1, rank_before);
            top.truncate(TOPK_SERVE_CAP);
            worst = Some(top[TOPK_SERVE_CAP - 1].1);
        }
    }
    top.sort_unstable_by(rank_before);
    top
}

/// This epoch's version of a value column, or `None` when the epoch leaves
/// `prev` alone (thin, same length, no entry). A `full` epoch re-states all
/// `n` values from `entries`, an id without one reading `0.0`; a thin one
/// patches a copy of `prev` grown to `n`, a new id without one reading `0.0`.
fn restated(prev: &[f64], full: bool, n: usize, entries: &[(VertexId, f64)]) -> Option<Vec<f64>> {
    if !full && n == prev.len() && entries.is_empty() {
        return None;
    }
    let mut values = if full { Vec::with_capacity(n) } else { prev.to_vec() };
    values.resize(n, 0.0);
    for &(v, x) in entries {
        values[v as usize] = x;
    }
    Some(values)
}

/// One metric's column within a view — closeness or an extra: its values
/// plus their top-k snapshot under the [`rank_before`] total order. An
/// epoch that does not re-state the column shares both `Arc`s with the
/// previous view.
#[derive(Debug, Clone, PartialEq)]
struct MetricColumn {
    kind: MetricKind,
    values: Arc<[f64]>,
    /// Exact top-[`TOPK_SERVE_CAP`] prefix in serve order — what makes
    /// `top_k` `O(k)`.
    topk: Arc<[(VertexId, f64)]>,
}

impl MetricColumn {
    fn empty(kind: MetricKind) -> Self {
        Self { kind, values: Arc::from([]), topk: Arc::from([]) }
    }

    /// This epoch's version of the column, and whether it was copied: a
    /// re-stated column gets one fresh top-k selection, an untouched one is
    /// `self` again.
    fn next(&self, full: bool, n: usize, entries: &[(VertexId, f64)]) -> (Self, bool) {
        match restated(&self.values, full, n, entries) {
            None => (self.clone(), false),
            Some(values) => {
                let topk = select_top(&values).into();
                (Self { kind: self.kind, values: values.into(), topk }, true)
            }
        }
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
        top_k(&self.values, k).into_iter().map(|v| (v, self.values[v as usize])).collect()
    }
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
    /// one index.
    closeness: MetricColumn,
    /// Per-vertex certified bound on `|exact − closeness|`; empty under
    /// [`BoundsMode::None`].
    bounds: Arc<[f64]>,
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
            bounds: Arc::from([]),
            extras: Vec::new(),
        }
    }

    /// Number of vertices covered by this view.
    pub fn num_vertices(&self) -> usize {
        self.closeness.values.len()
    }

    /// Point lookup: closeness of `v`, or `None` out of range. `O(1)`.
    pub fn point(&self, v: VertexId) -> Option<f64> {
        self.closeness.values.get(v as usize).copied()
    }

    /// Batched point lookup against this one consistent epoch.
    pub fn points(&self, ids: &[VertexId]) -> Vec<Option<f64>> {
        ids.iter().map(|&v| self.point(v)).collect()
    }

    /// The full closeness vector.
    pub fn closeness(&self) -> Vec<f64> {
        self.closeness.values.to_vec()
    }

    /// The `k` most central vertices with their closeness, ties broken by
    /// vertex id. `O(k)` for `k ≤` [`TOPK_SERVE_CAP`] via the column's
    /// snapshot; larger `k` falls back to [`PublishedView::top_k_rescan`].
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        self.closeness.top_k(k)
    }

    /// Debug oracle: full `O(n log n)` rescan of the closeness vector. Must
    /// agree with [`PublishedView::top_k`] exactly.
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
        self.bounds.get(v as usize).copied()
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
        self.column(kind)?.values.get(v as usize).copied()
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
        Ok(self.build(prev).0)
    }

    /// The view this delta turns `prev` into — the one construction routine
    /// behind every published view, the leader's and a follower's alike.
    /// Also returns whether the closeness column was copied, the only
    /// column [`PublishStats`] counts.
    fn build(&self, prev: &PublishedView) -> (PublishedView, bool) {
        let (full, n) = (self.full, self.n);
        let (closeness, copied) = prev.closeness.next(full, n, &self.entries);
        // A full epoch decides afresh whether the view carries bounds; a
        // thin one keeps what the previous view had.
        let bounded = if full { !self.bounds.is_empty() } else { prev.has_bounds() };
        let bounds = if bounded {
            restated(&prev.bounds, full, n, &self.bounds)
                .map_or_else(|| prev.bounds.clone(), Arc::from)
        } else {
            Arc::from([])
        };
        let extras = self
            .extras
            .iter()
            .map(|(kind, entries)| {
                let fresh = MetricColumn::empty(*kind);
                let base = prev.extras.iter().find(|c| c.kind == *kind).unwrap_or(&fresh);
                base.next(full, n, entries).0
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
        (view, copied)
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
    /// Epochs that re-stated every vertex.
    pub full_epochs: u64,
    /// Epochs that re-stated the changed rows only.
    pub delta_epochs: u64,
    /// Total rows re-stated across all epochs.
    pub changed_rows: u64,
    /// Closeness columns copied (and their top-k reselected): epochs that
    /// re-stated an entry, grew the view or were full.
    pub chunks_copied: u64,
    /// Closeness columns shared with the previous view (`Arc` bumps only).
    pub chunks_shared: u64,
}

/// The engine-side writer half of the publish layer: mints epochs and
/// swaps finished views into the shared [`ViewCell`]. What a view says is
/// the caller's: the publisher keeps no bounds state (the engine scores
/// each epoch's rows, bounds included).
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<ViewCell>,
    epoch: u64,
    /// The next publish must re-state every vertex: set at construction and
    /// by [`Publisher::request_full`].
    needs_full: bool,
    /// Test/bench override: every publish re-states every vertex.
    force_full: bool,
    stats: PublishStats,
    last_delta: Option<ViewDelta>,
}

impl Publisher {
    pub fn new() -> Self {
        Self {
            cell: Arc::new(ViewCell::default()),
            epoch: 0,
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

    /// Whether the next publish must be a full delta.
    pub fn wants_full(&self) -> bool {
        self.needs_full || self.force_full
    }

    /// Forces the next publish to re-state every vertex: a rewind whose
    /// rows a thin delta cannot name (the engine's checkpoint fallback).
    pub fn request_full(&mut self) {
        self.needs_full = true;
    }

    /// Makes (`true`) or stops making (`false`) every publish a full one —
    /// the full-rebuild baseline for equivalence tests and the publish bench.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// Mints the next epoch from `delta`, whose `epoch` it overwrites with
    /// the next id: builds the view the way a follower's
    /// [`ViewDelta::apply_to`] does, swaps it in and keeps the delta for
    /// replication. A thin delta lists, sorted by id, exactly the rows whose
    /// values moved since the previous publish (every new id among them)
    /// and never shrinks the view; it is refused in debug builds while
    /// [`Publisher::wants_full`]. Extra columns are intentionally **not**
    /// counted in [`PublishStats`].
    pub fn publish(&mut self, mut delta: ViewDelta) -> Arc<PublishedView> {
        debug_assert!(delta.full || !self.wants_full(), "thin delta while a full one is required");
        delta.epoch = self.epoch + 1;
        let (view, copied) = delta.build(&self.cell.load());
        self.epoch = delta.epoch;
        self.needs_full = false;
        self.stats.epochs += 1;
        if delta.full {
            self.stats.full_epochs += 1;
        } else {
            self.stats.delta_epochs += 1;
        }
        self.stats.changed_rows += delta.rows() as u64;
        self.stats.chunks_copied += u64::from(copied);
        self.stats.chunks_shared += u64::from(!copied);
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

    /// A full epoch re-stating `closeness` and, when not empty, `bounds`.
    fn full_delta(rc_steps: usize, closeness: Vec<f64>, bounds: Vec<f64>) -> ViewDelta {
        let restate = |c: Vec<f64>| c.into_iter().enumerate().map(|(v, x)| (v as VertexId, x));
        ViewDelta {
            epoch: 0,
            rc_steps,
            changes_applied: 0,
            converged: false,
            full: true,
            n: closeness.len(),
            entries: restate(closeness).collect(),
            bounds: restate(bounds).collect(),
            extras: Vec::new(),
        }
    }

    /// A thin epoch over `n` vertices re-stating `entries`.
    fn thin_delta(rc_steps: usize, n: usize, entries: Vec<(VertexId, f64)>) -> ViewDelta {
        ViewDelta { full: false, n, entries, ..full_delta(rc_steps, Vec::new(), Vec::new()) }
    }

    #[test]
    fn epochs_are_strictly_increasing_and_views_immutable() {
        let mut p = Publisher::new();
        let cell = p.cell();
        assert_eq!(cell.load().epoch, 0);
        let v1 = p.publish(full_delta(1, vec![0.5, 0.25], Vec::new()));
        let held = cell.load();
        assert_eq!(held.epoch, 1);
        let v2 = p.publish(full_delta(2, vec![0.6, 0.25], Vec::new()));
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
        let v = p.publish(ViewDelta {
            changes_applied: 2,
            ..full_delta(3, vec![0.1, 0.9, 0.4], vec![0.05, 0.0, 0.2])
        });
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
            p.publish(full_delta(e as usize, vec![e as f64; 64], Vec::new()));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(cell.load().epoch, 200);
    }

    #[test]
    fn an_untouched_column_is_shared_and_a_restated_one_is_reselected() {
        let n = 3 * TOPK_SERVE_CAP + 17;
        let base: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut p = Publisher::new();
        let v0 = p.publish(full_delta(0, base.clone(), vec![0.5; n]));
        // Only a bound moves: the closeness column and its snapshot are the
        // previous view's.
        let v1 = p.publish(ViewDelta { bounds: vec![(3, 0.25)], ..thin_delta(1, n, Vec::new()) });
        assert!(Arc::ptr_eq(&v0.closeness.values, &v1.closeness.values));
        assert!(Arc::ptr_eq(&v0.closeness.topk, &v1.closeness.topk));
        assert!(!Arc::ptr_eq(&v0.bounds, &v1.bounds));
        assert_eq!(v1.error_bound(3), Some(0.25));
        // Any closeness entry: a fresh column, patched and reselected; the
        // untouched bounds are shared.
        let entries: Vec<(VertexId, f64)> =
            (0..8).map(|i| ((13 * i) as VertexId, 0.5 + i as f64)).collect();
        let v2 = p.publish(thin_delta(2, n, entries.clone()));
        assert!(!Arc::ptr_eq(&v1.closeness.values, &v2.closeness.values));
        assert!(!Arc::ptr_eq(&v1.closeness.topk, &v2.closeness.topk));
        assert!(Arc::ptr_eq(&v1.bounds, &v2.bounds));
        let mut expected = base;
        for &(v, c) in &entries {
            expected[v as usize] = c;
        }
        assert_eq!(v2.closeness(), expected);
        for k in [1, 10, TOPK_SERVE_CAP, n] {
            assert_eq!(v2.top_k(k), v2.top_k_rescan(k), "top_k({k})");
        }
        let s = p.stats();
        assert_eq!((s.full_epochs, s.delta_epochs), (1, 2));
        assert_eq!((s.chunks_copied, s.chunks_shared), (2, 1));
    }

    #[test]
    fn delta_publish_grows_the_view() {
        let mut p = Publisher::new();
        p.publish(full_delta(0, vec![0.2; 10], Vec::new()));
        let v = p.publish(ViewDelta {
            changes_applied: 1,
            ..thin_delta(1, 12, vec![(10, 0.9), (11, 0.1)])
        });
        assert_eq!(v.num_vertices(), 12);
        assert_eq!(v.point(9), Some(0.2));
        assert_eq!(v.point(10), Some(0.9));
        assert_eq!(v.top_k(1), vec![(10, 0.9)]);
        // A grown vertex with no entry defaults to 0.0 (fresh isolated
        // vertices have zero closeness), and growth alone copies the column.
        let v2 = p.publish(ViewDelta { changes_applied: 2, ..thin_delta(2, 13, Vec::new()) });
        assert_eq!(v2.point(12), Some(0.0));
        assert!(!Arc::ptr_eq(&v.closeness.values, &v2.closeness.values));
        assert_eq!(v2.top_k(13), v2.top_k_rescan(13));
        assert_eq!(p.stats().chunks_copied, 3);
    }

    #[test]
    fn topk_survives_displacement_churn() {
        // More vertices than the snapshot holds several times over, then
        // repeatedly demote the current best: every epoch's snapshot must
        // be the oracle's prefix, however far the old one is displaced.
        let n = TOPK_SERVE_CAP * 6;
        let base: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let mut p = Publisher::new();
        p.publish(full_delta(0, base, Vec::new()));
        for step in 0..2 * TOPK_SERVE_CAP + 8 {
            let view = p.latest();
            let (best, _) = view.top_k(1)[0];
            let v = p.publish(thin_delta(step + 1, n, vec![(best, -1.0)]));
            for k in [5, TOPK_SERVE_CAP] {
                assert_eq!(v.top_k(k), v.top_k_rescan(k), "top_k({k}) after demoting {best}");
            }
        }
        assert_eq!(p.stats().chunks_copied, p.stats().epochs);
    }

    /// The chunked selection keeps exactly the rescan oracle's prefix, bit
    /// for bit, on every length around the cap and the chunk size and on
    /// orders that cut the buffer at every chunk: ascending (every entry
    /// beats the kept ones), descending, all tied, few distinct values, and
    /// the values `total_cmp` ranks apart (NaNs, signed zeros, infinities).
    #[test]
    fn select_top_is_the_rescan_prefix() {
        let patterns: [fn(usize) -> f64; 5] = [
            |i| i as f64,
            |i| -(i as f64),
            |_| 0.25,
            |i| ((i * 7919) % 5) as f64,
            |i| [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.5][i % 7],
        ];
        let (cap, chunk) = (TOPK_SERVE_CAP, SELECT_CHUNK);
        for n in
            [0, 1, cap - 1, cap, cap + 1, chunk - 1, chunk, chunk + 1, chunk + cap, 3 * chunk + 5]
        {
            for pattern in patterns {
                let values: Vec<f64> = (0..n).map(pattern).collect();
                let bits = |top: Vec<(VertexId, f64)>| {
                    top.into_iter().map(|(v, x)| (v, x.to_bits())).collect::<Vec<_>>()
                };
                let oracle = top_k(&values, cap).into_iter().map(|v| (v, values[v as usize]));
                assert_eq!(bits(select_top(&values)), bits(oracle.collect()), "n {n}");
            }
        }
    }

    #[test]
    fn topk_ties_break_by_id_on_both_paths() {
        let mut p = Publisher::new();
        // All-equal values: the snapshot orders them by id...
        let v = p.publish(full_delta(0, vec![0.5; 300], Vec::new()));
        let served = v.top_k(6);
        assert_eq!(served, (0..6).map(|i| (i as VertexId, 0.5)).collect::<Vec<_>>());
        // ...and identically on the rescan oracle.
        assert_eq!(served, v.top_k_rescan(6));
        // Same after a thin epoch introduces more ties.
        let v2 = p.publish(thin_delta(1, 300, vec![(3, 0.9), (7, 0.9)]));
        assert_eq!(v2.top_k(3), vec![(3, 0.9), (7, 0.9), (0, 0.5)]);
        assert_eq!(v2.top_k(3), v2.top_k_rescan(3));
    }

    #[test]
    fn view_delta_roundtrips_through_netmsg_and_applies() {
        let mut p = Publisher::new();
        p.publish(full_delta(1, vec![0.25; 40], vec![0.5; 40]));
        let follower_base = p.latest();
        p.request_full();
        assert!(p.wants_full());
        p.publish(ViewDelta { changes_applied: 1, ..full_delta(2, vec![0.3; 40], vec![0.4; 40]) });
        let full_delta = p.last_delta().unwrap().clone();
        assert!(full_delta.full);
        let leader = p.latest();
        let msg = full_delta.to_msg();
        let decoded = ViewDelta::from_msg(&msg).unwrap();
        assert_eq!(decoded, full_delta);
        assert_eq!(&decoded.apply_to(&follower_base).unwrap(), leader.as_ref());

        // And a thin delta epoch.
        let prev = p.latest();
        p.publish(ViewDelta {
            changes_applied: 1,
            converged: true,
            bounds: vec![(5, 0.05)],
            ..thin_delta(3, 40, vec![(5, 0.9)])
        });
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
        let restated = bc.iter().enumerate().map(|(v, &x)| (v as VertexId, x)).collect();
        let v = p.publish(ViewDelta {
            extras: vec![(MetricKind::Betweenness, restated)],
            ..full_delta(1, vec![0.5; 40], Vec::new())
        });
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
        let v2 = p.publish(ViewDelta {
            converged: true,
            extras: vec![(MetricKind::Betweenness, vec![(3, 100.0), (7, 0.25)])],
            ..thin_delta(2, 40, vec![(1, 0.9)])
        });
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
        let v = p.publish(full_delta(1, vec![0.5, 0.25], Vec::new()));
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
        p.publish(full_delta(1, vec![0.5; 8], Vec::new()));
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
        assert_eq!(ViewDelta::from_msg(&NetMsg::ResendAll), Err(ViewDeltaError::NotAViewDelta));
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
            p.publish(full_delta(e, vec![e as f64], Vec::new()));
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
