//! Per-rank distance-vector storage: a contiguous row arena plus the
//! delta-driven min-plus relaxation kernel that runs on it.
//!
//! Each processor keeps a Distance Vector (DV) per **local** vertex — the
//! current estimate of its shortest-path distance to *every* vertex in the
//! graph — plus cached DVs of its **external boundary** vertices as received
//! from neighboring processors (§IV.C of the paper).
//!
//! Two invariants carry the whole anytime analysis:
//!
//! * every held cell is an upper bound on the true distance *in the current
//!   graph*. Entries *decrease* (min-merge) between invalidations, so
//!   quality is monotone while the graph only grows; a decremental change
//!   (an edge removed or made heavier, a vertex removed) is absorbed by
//!   [`DvStore::raise`], the one write that increases a cell — to `INF`,
//!   which is a bound in any graph — see *Raising* below for what it owes
//!   the record and the bounds;
//! * on vertex addition, every row grows by the new columns with amortized
//!   doubling — the `O(n)` resize cost the paper accounts for in §IV.C.1a.
//!
//! # Storage layout
//!
//! Rows live in two flat arenas: one for local rows, one for cached
//! external rows. Row `slot` occupies the cell range from `slot * stride`
//! up to `slot * stride + n`, where `stride ≥ n` is the column *capacity*.
//! `grow_columns` within capacity is just an `n` bump (every cell in
//! `[n, stride)` is kept at `INF` at all times); growing past capacity
//! doubles the stride and re-lays rows out once — the amortized-doubling
//! resize of §IV.C.1a, applied to the whole arena instead of per-row
//! `Vec`s. A dense `id → slot` map (one `u32` per global vertex, local rows
//! tagged with the top bit) replaces the hashmap row lookup, and the dirty
//! set is a bitset over global ids (sorted iteration for free).
//!
//! # Records and the closure invariant
//!
//! Next to the cells the arenas keep per-cell bit records, slot-indexed
//! like the rows: two on the local arena, one on the cached arena.
//!
//! * **unpropagated** (both arenas): bit `t` of row `v` is set when
//!   `D[v][t]` was lowered since `v` last seeded the relaxation kernel.
//!   The rows with a non-empty record are the seeds of the next kernel
//!   call ([`DvStore::relax_unpropagated`]); seeding a row clears its
//!   record — like `dirty` persists until the row is sent.
//! * **unsent** (local arena; a cached row is never sent): bit `t` is set
//!   when `D[v][t]` was lowered since row `v` was last sent. The Delta
//!   wire reads it ([`DvStore::unsent_pairs`]); only a send clears it
//!   ([`DvStore::clear_unsent`]).
//!
//! Both have one producer, the lowered-cell mask of a write: exactly the
//! cells it lowered (the min-merges, dense and sparse, and the kernel's
//! post-round diff) or the whole row (fresh and installed rows;
//! [`DvStore::mark_all_unpropagated`] for events that pair rows anew
//! without lowering a cell). A write to a local row takes its mask in a
//! scratch row of words and ORs it into both records afterwards, so the
//! dense loops keep one mask however many readers it has; a merge into a
//! cached row does the same, unless the store is exact (*Exact ranks*). Growth extends a
//! record with zeros (a new column is `INF` everywhere), a re-layout and a
//! swap-remove move it with the row, an install sets it whole and a raise
//! sets no bit (see *Raising*). Each costs 1 bit per 32-bit cell, +3.1 %
//! of the arena.
//!
//! The kernel maintains, and every write path preserves, this invariant:
//!
//! > after every [`DvStore::relax_to_fixed_point`] call, for every local
//! > row `v`, every pivot `u` with a row here and every column `t`:
//! > `D[v][t] ≤ D[v][u] + D[u][t]`, except through cells recorded as
//! > unpropagated.
//!
//! A seeded row with nothing recorded counts as all columns, so
//! over-approximation is always safe.
//!
//! # Exact ranks
//!
//! While every local row holds the exact distance in the current graph,
//! no pass through a held row whose cells are upper bounds can lower a
//! local cell: `D[v][u] + D[u][t] ≥ d(v,u) + d(u,t) ≥ d(v,t) = D[v][t]`.
//! A merge into a cached row then keeps the closure invariant with nothing
//! recorded. So while the store's `exact` flag is set the two cached
//! merges ([`DvStore::min_merge_cached`] and its sparse variant) lower
//! cells and refresh bounds but add no bit to the record: a broadcast row
//! merged into an all-`INF` slot is not a dense pivot of every local row.
//! Every other write records as before, [`DvStore::min_merge_through`] (an
//! absorbed edge) included. The flag is a claim about every rank at once,
//! so the engine sets and clears it on all of them together (DESIGN.md
//! §5): set at a quiescent RC step, kept across additive drains, cleared
//! by [`DvStore::raise`] and by every seeding, migration and recovery path.
//!
//! # Chunk bounds
//!
//! Next to the record every row keeps two bounds per 64-column chunk,
//! indexed like the record's words (one word = one chunk):
//!
//! * `hi[c]` ≥ every live cell of the chunk. A lowered cell leaves a
//!   stale `hi` valid; only growth and a raise can break it.
//!   [`DvStore::grow_columns`] raises the chunk the new columns start in
//!   to `INF` on every row (chunks past the live columns are `INF`
//!   throughout, like their cells), [`DvStore::raise`] every chunk it
//!   touches.
//! * `lo[c]` ≤ every live cell of the chunk. A write that lowers a cell
//!   without walking its chunk (the sparse merges) lowers `lo[c]` with it.
//!
//! A write is a min-merge, an install or a raise. A dense tracked write (the
//! dense min-merges, [`DvStore::min_merge_through`] among them, the
//! kernel's post-round diff, an install) recomputes both bounds exactly
//! for every chunk it changed, from the cells it already holds. A pass of
//! row `v` through row `u` can lower a cell of chunk `c` only if
//! `through + lo_u[c] < hi_v[c]`; every other chunk is skipped, and a
//! skipped chunk is a proven no-op, so each bounded pass leaves exactly
//! the cells the full pass would and the closure invariant above is
//! untouched — only the work moves. The bounds cost two cells per 64,
//! another +3.1 % of the arena.
//!
//! # Raising
//!
//! [`DvStore::raise`] sets to `INF` every cell of both arenas that a
//! [`Witness`] cannot vouch for. What the other structures are owed:
//!
//! * the **bounds**: a chunk that lost a cell gets `hi = INF`; `lo` stays
//!   (a stale-low `lo` is still a bound);
//! * the **records** are not touched: *unpropagated* lists lowerings
//!   still to propagate, and a raised cell has nothing to propagate (a bit
//!   left on one schedules a pass through an `INF` cell, which is skipped);
//!   *unsent* need not learn of a raise because the receivers make it too
//!   (a cell with a clear bit equals every synced receiver's, so the rule
//!   decides alike on both sides; one with a set bit is `INF` now, which
//!   never travels);
//! * the **closure invariant**: a raise only ever slackens
//!   `D[v][t] ≤ D[v][u] + D[u][t]` on its right-hand side; where it raised
//!   the left-hand side, [`DvStore::refill`] re-derives the cell as the
//!   least `D[v][u] + D[u][t]` over every row held here, written by the
//!   tracked sparse merge — so it is closed when written, and whatever is
//!   lowered later on its right is recorded like any lowering;
//! * the **dirty sets**: a local row that lost a cell is dirty and
//!   epoch-dirty. A cached row is not refilled; it waits for its owner's
//!   resend.

use aaa_checkpoint::RankRows;
use aaa_graph::{Dist, VertexId, Weight, INF};

/// `slot_of` sentinel: no row for this vertex.
const NO_SLOT: u32 = u32::MAX;
/// `slot_of` tag: the slot indexes the local arena (cleared → cached).
const LOCAL_BIT: u32 = 1 << 31;
/// `round_of` sentinel: the row is not a pivot of the current round.
const NO_PIVOT: u32 = u32::MAX;

/// Scheduled cells (row passes × the cells each touches) below which a
/// round stays on the calling thread: spawning scoped workers costs more
/// than relaxing this much.
const PARALLEL_MIN_WORK: usize = 1 << 22;

/// A changed row is pushed through the other rows as a gathered
/// `(column, value)` list when at most `n / SPARSE_DIVISOR` of its columns
/// changed, and as a dense row otherwise. A constant, not a knob: a list
/// entry costs about four dense cells, and cold convergence at n = 2000,
/// P = 16 measured 1.30 / 1.27 / 1.23 / 1.30 / 1.32 s for divisors
/// 2 / 3 / 4 / 8 / 16–32 — shallow around the optimum.
const SPARSE_DIVISOR: usize = 4;

/// Columns per chunk bound — the width of one change-record word, so the
/// bounds index like the record.
const CHUNK: usize = u64::BITS as usize;

/// Calls `f` on the set bits of `words`, in increasing order.
fn for_each_bit(words: &[u64], mut f: impl FnMut(u32)) {
    for (w, &word) in words.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(w as u32 * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
}

#[inline]
fn set_bit(words: &mut [u64], t: usize) {
    words[t / 64] |= 1 << (t % 64);
}

/// Sets bits `[0, n)`.
fn set_prefix(words: &mut [u64], n: usize) {
    words[..n / 64].fill(!0);
    if n % 64 != 0 {
        words[n / 64] |= (1 << (n % 64)) - 1;
    }
}

/// A dirty-row set as a bitset over global vertex ids. Iteration yields
/// ids in increasing order, so the deterministic sorted send order the RC
/// phase relies on needs no sort.
#[derive(Debug, Clone, Default)]
struct DirtyBits {
    words: Vec<u64>,
    count: usize,
}

impl DirtyBits {
    fn ensure(&mut self, n: usize) {
        let want = n.div_ceil(64);
        if want > self.words.len() {
            self.words.resize(want, 0);
        }
    }

    fn insert(&mut self, v: VertexId) -> bool {
        let (w, b) = (v as usize / 64, v as usize % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.count += fresh as usize;
        fresh
    }

    fn remove(&mut self, v: VertexId) {
        let (w, b) = (v as usize / 64, v as usize % 64);
        if let Some(word) = self.words.get_mut(w) {
            if *word & (1 << b) != 0 {
                *word &= !(1 << b);
                self.count -= 1;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Set ids in increasing order.
    fn to_sorted(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.count);
        for_each_bit(&self.words, |v| out.push(v));
        out
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }
}

/// What a tracked write maintains beside the cells of a row (or of a chunk
/// range of it): the mask of the cells it lowered (a cached row's record
/// itself, [`DvStore::write_local`]'s scratch mask for a local row) and
/// both chunk bounds, one entry per 64 columns each.
struct Track<'a> {
    delta: &'a mut [u64],
    hi: &'a mut [Dist],
    lo: &'a mut [Dist],
}

impl Track<'_> {
    /// The part covering chunks `[a, b)`.
    fn range(&mut self, a: usize, b: usize) -> Track<'_> {
        Track { delta: &mut self.delta[a..b], hi: &mut self.hi[a..b], lo: &mut self.lo[a..b] }
    }

    /// Records cell `t` lowered to `d` by a write that does not walk the
    /// chunk: `hi` goes stale, `lo` follows.
    #[inline]
    fn lowered(&mut self, t: usize, d: Dist) {
        set_bit(self.delta, t);
        let lo = &mut self.lo[t / CHUNK];
        *lo = (*lo).min(d);
    }
}

/// Exact bounds of every chunk of `row`. Dispatched like [`relax_via`]: the
/// baseline x86-64 target has no unsigned `u32` min or max.
fn chunk_bounds(row: &[Dist], hi: &mut [Dist], lo: &mut [Dist]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { chunk_bounds_avx2(row, hi, lo) };
    }
    chunk_bounds_scalar(row, hi, lo)
}

#[inline(always)]
fn chunk_bounds_scalar(row: &[Dist], hi: &mut [Dist], lo: &mut [Dist]) {
    for ((chunk, hi), lo) in row.chunks(CHUNK).zip(hi).zip(lo) {
        (*lo, *hi) = min_max(chunk);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_bounds_avx2(row: &[Dist], hi: &mut [Dist], lo: &mut [Dist]) {
    chunk_bounds_scalar(row, hi, lo)
}

/// `(min, max)` of a non-empty chunk.
#[inline(always)]
fn min_max(chunk: &[Dist]) -> (Dist, Dist) {
    chunk.iter().fold((INF, 0), |(lo, hi), &d| (lo.min(d), hi.max(d)))
}

/// What a decremental change leaves behind for [`DvStore::raise`]. For an
/// edge `(u, v)` of weight `w` that was removed or made heavier: the exact
/// rows `ru = d(u, ·)` and `rv = d(v, ·)` of the graph **before** the
/// change. No path from `x` to `t` through the edge is shorter than
///
/// > `L(x, t) = min(ru[x] + w + rv[t], rv[x] + w + ru[t])`,
///
/// and a held cell is at least the old distance. So `D[x][t] < L(x, t)`
/// means some old shortest path avoids the edge: the new distance is no
/// longer than the old one and the cell is still an upper bound — in any
/// anytime state, not only at convergence. Every other finite cell is
/// raised to `INF`, which is one. A removed vertex `v` is the edge `(v, v)`
/// of weight 0: `L(x, t) = rv[x] + rv[t]`.
#[derive(Debug, Clone)]
pub struct Witness {
    ru: Vec<Dist>,
    /// `None` for a removed vertex, where `ru` serves both ends.
    rv: Option<Vec<Dist>>,
    w: Dist,
}

impl Witness {
    /// For the edge `(u, v)` of weight `w`: `ru`, `rv` as of before it
    /// changed.
    pub fn edge(ru: Vec<Dist>, rv: Vec<Dist>, w: Weight) -> Self {
        Self { ru, rv: Some(rv), w: w as Dist }
    }

    /// For a vertex about to lose every edge: its row as of before.
    pub fn vertex(rv: Vec<Dist>) -> Self {
        Self { ru: rv, rv: None, w: 0 }
    }

    /// Broadcast size: a 12-byte header plus each row carried, priced like
    /// the endpoint rows of an edge addition.
    pub fn size_bytes(&self) -> usize {
        12 + (8 + 4 * self.ru.len()) * (1 + usize::from(self.rv.is_some()))
    }

    /// Raises to `INF` every finite `row[t] ≥ L(x, t)` of vertex `x`'s
    /// row — never `row[x]`, which no change invalidates — and appends the
    /// raised columns to `cols`, in increasing order. The one statement of
    /// the rule: both arenas go through it.
    pub fn raise_row(&self, x: VertexId, row: &mut [Dist], cols: &mut Vec<VertexId>) {
        let (ru, rv) = (&self.ru[..], self.rv.as_deref().unwrap_or(&self.ru));
        let (a, b) = (rv[x as usize].saturating_add(self.w), ru[x as usize].saturating_add(self.w));
        // A row that reaches neither end has `L = INF` throughout.
        if a != INF || b != INF {
            raise_scan(row, (a, ru), (b, rv), x as usize, cols);
        }
    }
}

/// The scan under [`Witness::raise_row`]: every finite
/// `row[t] ≥ min(a + ru[t], b + rv[t])` with `t ≠ keep` becomes `INF` and `t`
/// joins `cols`. Dispatched like [`relax_via`]. A change raises about one
/// cell in a hundred, so each 64-column chunk is first probed with the
/// branch-free comparison — all that most chunks take — and only a chunk
/// with a hit takes the loop that writes.
fn raise_scan(
    row: &mut [Dist],
    via_u: (Dist, &[Dist]),
    via_v: (Dist, &[Dist]),
    keep: usize,
    cols: &mut Vec<VertexId>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { raise_scan_avx2(row, via_u, via_v, keep, cols) };
    }
    raise_scan_scalar(row, via_u, via_v, keep, cols)
}

#[inline(always)]
fn raise_scan_scalar(
    row: &mut [Dist],
    (a, ru): (Dist, &[Dist]),
    (b, rv): (Dist, &[Dist]),
    keep: usize,
    cols: &mut Vec<VertexId>,
) {
    let unwitnessed = |d: Dist, ru: Dist, rv: Dist| {
        (d >= a.saturating_add(ru).min(b.saturating_add(rv))) & (d != INF)
    };
    let chunks = row.chunks_mut(CHUNK).zip(ru.chunks(CHUNK).zip(rv.chunks(CHUNK)));
    for (c, (cells, (ru, rv))) in chunks.enumerate() {
        let mut hit = false;
        for ((&d, &ru), &rv) in cells.iter().zip(ru).zip(rv) {
            hit |= unwitnessed(d, ru, rv);
        }
        if !hit {
            continue;
        }
        for (j, ((d, &ru), &rv)) in cells.iter_mut().zip(ru).zip(rv).enumerate() {
            let t = c * CHUNK + j;
            if unwitnessed(*d, ru, rv) && t != keep {
                *d = INF;
                cols.push(t as VertexId);
            }
        }
    }
}

/// The same loops compiled with AVX2 enabled: unsigned `u32` min and
/// compare eight lanes wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn raise_scan_avx2(
    row: &mut [Dist],
    via_u: (Dist, &[Dist]),
    via_v: (Dist, &[Dist]),
    keep: usize,
    cols: &mut Vec<VertexId>,
) {
    raise_scan_scalar(row, via_u, via_v, keep, cols)
}

/// One row arena: the cells, the per-cell records, the chunk bounds, and
/// slot → id.
#[derive(Debug, Clone, Default)]
struct Arena {
    /// Number of live columns (current global vertex count).
    n: usize,
    /// Column capacity; rows are `stride` apart in `data`.
    stride: usize,
    /// Slot-major cells: slot `s` at `[s * stride, s * stride + n)`.
    data: Vec<Dist>,
    /// Slot-major *unpropagated* record, `stride.div_ceil(64)` words per
    /// row: bit `t` of slot `s` is set when cell `(s, t)` was lowered since
    /// the row last seeded the kernel.
    delta: Vec<u64>,
    /// The *unsent* record, laid out like `delta` (lowered since the row
    /// was last sent). Kept where `sends` is set, the local arena; empty
    /// on the cached one.
    unsent: Vec<u64>,
    sends: bool,
    /// Slot-major chunk bounds, indexed like `delta`: `hi` is at least,
    /// `lo` at most, every live cell of the chunk. `INF` past the live
    /// columns.
    hi: Vec<Dist>,
    lo: Vec<Dist>,
    /// Slot → vertex id.
    ids: Vec<VertexId>,
}

impl Arena {
    fn new(n: usize, sends: bool) -> Self {
        Self { n, stride: n, sends, ..Self::default() }
    }

    /// Record words per row.
    fn words(&self) -> usize {
        self.stride.div_ceil(64)
    }

    /// The records this arena keeps, for what structural changes owe each.
    fn records(&mut self) -> impl Iterator<Item = &mut Vec<u64>> {
        [&mut self.delta, &mut self.unsent].into_iter().take(1 + usize::from(self.sends))
    }

    fn row(&self, s: usize) -> &[Dist] {
        &self.data[s * self.stride..s * self.stride + self.n]
    }

    /// Row `s` together with its unpropagated record and bounds.
    fn row_mut(&mut self, s: usize) -> (&mut [Dist], Track<'_>) {
        let w = self.words();
        (
            &mut self.data[s * self.stride..s * self.stride + self.n],
            Track {
                delta: &mut self.delta[s * w..(s + 1) * w],
                hi: &mut self.hi[s * w..(s + 1) * w],
                lo: &mut self.lo[s * w..(s + 1) * w],
            },
        )
    }

    /// Appends an all-`INF` row for `v` with nothing recorded; returns its
    /// slot.
    fn push_inf(&mut self, v: VertexId) -> usize {
        let (s, words) = (self.ids.len(), self.words());
        self.ids.push(v);
        self.data.resize(self.data.len() + self.stride, INF);
        self.records().for_each(|r| r.resize((s + 1) * words, 0));
        self.hi.resize(self.hi.len() + words, INF);
        self.lo.resize(self.lo.len() + words, INF);
        s
    }

    /// Appends row `v` from `row`, padded with `INF` or cut to the live
    /// columns, recorded whole with exact bounds; returns its slot.
    fn push_row(&mut self, v: VertexId, row: &[Dist]) -> usize {
        let (s, words, k) = (self.ids.len(), self.words(), row.len().min(self.n));
        self.ids.push(v);
        self.data.extend_from_slice(&row[..k]);
        self.data.resize(self.data.len() + self.stride - k, INF);
        self.records().for_each(|r| r.resize((s + 1) * words, 0));
        self.hi.resize(self.hi.len() + words, INF);
        self.lo.resize(self.lo.len() + words, INF);
        let (dst, track) = self.row_mut(s);
        chunk_bounds(dst, track.hi, track.lo);
        self.record_whole(s);
        s
    }

    /// Sets every live cell of row `s` in every record.
    fn record_whole(&mut self, s: usize) {
        let (n, words) = (self.n, self.words());
        self.records().for_each(|r| set_prefix(&mut r[s * words..(s + 1) * words], n));
    }

    /// Overwrites row `s` (any values: migration, restore, recompute),
    /// records every cell and recomputes its bounds while the copy is in
    /// cache. A `row` shorter than the live columns is padded with `INF`
    /// in place; a longer one is cut.
    fn install(&mut self, s: usize, row: &[Dist]) {
        let (dst, track) = self.row_mut(s);
        let k = row.len().min(dst.len());
        dst[..k].copy_from_slice(&row[..k]);
        dst[k..].fill(INF);
        chunk_bounds(dst, track.hi, track.lo);
        self.record_whole(s);
    }

    /// Grows to `new_n` columns. Past capacity the stride doubles and rows,
    /// records and bounds are re-laid out once; new columns are `INF` with
    /// nothing recorded, which raises `hi` of the chunk they start in.
    fn grow(&mut self, new_n: usize) {
        if new_n > self.stride {
            let new_stride = new_n.max(self.stride * 2);
            let (words, new_words) = (self.words(), new_stride.div_ceil(CHUNK));
            // Room for as many rows as before, so the rows a wave adds
            // next land without a second re-allocation of the arena.
            let rows = self.data.capacity() / self.stride.max(1);
            self.data = relayout(&self.data, rows, self.n, self.stride, new_stride, INF);
            self.records().for_each(|r| *r = relayout(r, rows, words, words, new_words, 0));
            self.hi = relayout(&self.hi, rows, words, words, new_words, INF);
            self.lo = relayout(&self.lo, rows, words, words, new_words, INF);
            self.stride = new_stride;
        }
        if new_n > self.n && self.n % CHUNK != 0 {
            let (words, straddled) = (self.words(), self.n / CHUNK);
            self.hi.iter_mut().skip(straddled).step_by(words).for_each(|hi| *hi = INF);
        }
        self.n = new_n;
    }

    /// Swap-removes row `s` and its `slot_of` entry, keeping slots dense;
    /// the row moved into `s` brings its records and bounds along. `tag` is
    /// OR-ed into the moved row's `slot_of` entry (`LOCAL_BIT` for the local
    /// arena, `0` for cached).
    fn swap_remove(&mut self, s: usize, slot_of: &mut [u32], tag: u32) {
        let (last, stride, words) = (self.ids.len() - 1, self.stride, self.words());
        slot_of[self.ids[s] as usize] = NO_SLOT;
        if s != last {
            self.data.copy_within(last * stride..(last + 1) * stride, s * stride);
            for bounds in [&mut self.hi, &mut self.lo] {
                bounds.copy_within(last * words..(last + 1) * words, s * words);
            }
            self.records().for_each(|r| r.copy_within(last * words..(last + 1) * words, s * words));
            let moved = self.ids[last];
            self.ids[s] = moved;
            slot_of[moved as usize] = s as u32 | tag;
        }
        self.ids.pop();
        self.data.truncate(last * stride);
        self.records().for_each(|r| r.truncate(last * words));
        self.hi.truncate(last * words);
        self.lo.truncate(last * words);
    }

    /// Raises every row by `witness`'s rule and calls `raised(v, columns)`
    /// for each row that lost cells. A chunk that lost one gets `hi = INF`;
    /// `lo` and the records stay as they are.
    fn raise(&mut self, witness: &Witness, mut raised: impl FnMut(VertexId, &[VertexId])) {
        let mut cols = Vec::new();
        for s in 0..self.ids.len() {
            let v = self.ids[s];
            let (row, track) = self.row_mut(s);
            cols.clear();
            witness.raise_row(v, row, &mut cols);
            if !cols.is_empty() {
                cols.iter().for_each(|&t| track.hi[t as usize / CHUNK] = INF);
                raised(v, &cols);
            }
        }
    }

    /// Ids of the rows with a non-empty unpropagated record, in slot order.
    fn unpropagated(&self) -> impl Iterator<Item = VertexId> + '_ {
        let rows = self.delta.chunks(self.words().max(1)).zip(&self.ids);
        rows.filter(|(record, _)| record.iter().any(|&w| w != 0)).map(|(_, &v)| v)
    }
}

/// Deterministic work counters of the relaxation kernel: exact functions
/// of the inputs, independent of thread count and host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// [`DvStore::relax_to_fixed_point`] calls that had rows to relax.
    pub calls: u64,
    /// Jacobi rounds over all calls.
    pub rounds: u64,
    /// Full-width bounded [`relax_via`] row passes.
    pub dense_passes: u64,
    /// Chunks those passes span.
    pub chunks_scheduled: u64,
    /// Chunks of them the bounds could not rule out, i.e. actually
    /// relaxed.
    pub chunks_relaxed: u64,
    /// Row passes made over a pivot's gathered changed-column list.
    pub sparse_passes: u64,
    /// List passes the bounds dropped whole.
    pub list_passes_skipped: u64,
    /// Cells actually relaxed (the columns of every relaxed chunk, the
    /// list length per sparse pass).
    pub cells: u64,
}

impl std::ops::AddAssign for KernelTally {
    fn add_assign(&mut self, o: Self) {
        self.calls += o.calls;
        self.rounds += o.rounds;
        self.dense_passes += o.dense_passes;
        self.chunks_scheduled += o.chunks_scheduled;
        self.chunks_relaxed += o.chunks_relaxed;
        self.sparse_passes += o.sparse_passes;
        self.list_passes_skipped += o.list_passes_skipped;
        self.cells += o.cells;
    }
}

impl std::iter::Sum for KernelTally {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut acc, t| {
            acc += t;
            acc
        })
    }
}

/// Leaving the relax loop and re-entering it after a skipped stretch — a
/// call, the loop's prologue and remainder handling, a branch the
/// predictor will likely miss — costs about as much as relaxing this many
/// chunks. A constant, not a knob: it decides nothing on paper-scale rows
/// (at 19 chunks nearly every mask with a dead chunk clears the bar), but
/// a change stream over n = 200 graphs — 4 chunks a row — ran 2 % slower
/// when a 2-chunk stretch was skipped for one restart.
const RESTART_CHUNKS: u32 = 2;

/// The chunks a bounded pass walks, one bit each, of a group of at most 64
/// chunks: a pass with this `through`, via a row bounded below by `lo`, can
/// lower chunk `c` of a row bounded above by `hi` only if
/// `through + lo[c] < hi[c]`. Computed whole before any chunk is relaxed
/// (eight chunks per step on AVX2 hosts), so the pass itself is straight
/// loops: nothing when no chunk is live, the live runs when the dead
/// stretches between them save more than the restarts cost, the whole
/// group otherwise.
fn walk_mask(hi: &[Dist], through: Dist, lo: &[Dist]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("popcnt")
    {
        // SAFETY: AVX2 and POPCNT support was just verified at runtime.
        return unsafe { walk_mask_avx2(hi, through, lo) };
    }
    let mut live = 0;
    for (c, (&hi, &lo)) in hi.iter().zip(lo).enumerate() {
        live |= u64::from(through.saturating_add(lo) < hi) << c;
    }
    walk_or_all(live, hi.len())
}

/// `live` if its dead stretches are worth skipping, else all `len` chunks.
#[inline(always)]
fn walk_or_all(live: u64, len: usize) -> u64 {
    let dead = len as u32 - live.count_ones();
    let runs = (live & !(live << 1)).count_ones();
    if dead > RESTART_CHUNKS * runs {
        live
    } else {
        !0 >> (CHUNK - len)
    }
}

/// [`walk_mask`] with explicit AVX2 (a comparison mask per eight chunks is
/// one `vmovmskps`; the auto-vectorizer builds it bit by bit).
///
/// # Safety
///
/// The CPU must support AVX2 and POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn walk_mask_avx2(hi: &[Dist], through: Dist, lo: &[Dist]) -> u64 {
    use std::arch::x86_64::*;
    let len = hi.len().min(lo.len());
    let through_x8 = _mm256_set1_epi32(through as i32);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut live = 0;
    for at in (0..len).step_by(8) {
        // Lanes past the end are not loaded and read as 0, which is dead.
        let within = _mm256_cmpgt_epi32(_mm256_set1_epi32((len - at) as i32), lane);
        // SAFETY: `at < len`, and a masked load touches only the lanes
        // `within` selects, all of which lie inside the slices.
        let (hi, lo) = unsafe {
            (
                _mm256_maskload_epi32(hi.as_ptr().add(at).cast(), within),
                _mm256_maskload_epi32(lo.as_ptr().add(at).cast(), within),
            )
        };
        // Saturating unsigned add, then `cand < hi` as `min(hi, cand) != hi`.
        let room = _mm256_xor_si256(lo, _mm256_set1_epi32(-1));
        let cand = _mm256_add_epi32(_mm256_min_epu32(through_x8, room), lo);
        let dead = _mm256_cmpeq_epi32(_mm256_min_epu32(hi, cand), hi);
        let dead = _mm256_movemask_ps(_mm256_castsi256_ps(dead));
        live |= u64::from(!dead as u8) << at;
    }
    walk_or_all(live, len)
}

/// Calls `pass(a, b)` on the chunk ranges `[a, b)` that `mask` selects of a
/// group of `len` chunks: each run of set bits — except that a full mask
/// is recognised by a branch of its own, so that the one pass it leads to,
/// whose bounds are known without the mask, need not wait for it.
#[inline(always)]
fn for_each_run(mut mask: u64, len: usize, mut pass: impl FnMut(usize, usize)) {
    if mask == !0 >> (CHUNK - len) {
        return pass(0, len);
    }
    while mask != 0 {
        let a = mask.trailing_zeros();
        let b = a + (mask >> a).trailing_ones();
        mask &= (!0u64).checked_shl(b).unwrap_or(0);
        pass(a as usize, b as usize);
    }
}

/// Round state of one kernel call; its buffers are reused across the
/// call's rounds and released with it (a cold call gathers lists for
/// hundreds of pivots — not something to keep per rank between calls).
#[derive(Default)]
struct KernelScratch {
    /// The round's pivots: rows that changed last round (the seeds in
    /// round 1), each with the columns it changed in.
    pivots: Vec<RoundPivot>,
    /// `pivots.len() × words` changed-column sets, pivot-major.
    delta: Vec<u64>,
    /// Indexed like `delta`: the least value among the changed columns of
    /// each chunk (`INF` where none changed) — the lower bound of a pass
    /// that only the pivot's changes can make improve.
    lo: Vec<Dist>,
    /// `(column, value)` lists of the sparse pivots, back to back.
    gathered: Vec<(VertexId, Dist)>,
    /// Vertex id → index into `pivots` (`NO_PIVOT` otherwise). Reset entry
    /// by entry after each round.
    round_of: Vec<u32>,
    /// Bitset over vertex ids of the round's pivots.
    id_bits: Vec<u64>,
    /// Per local slot: lowered this round.
    changed: Vec<bool>,
    /// Cells the round is scheduled to touch (an upper bound: passes
    /// through `INF` cells are skipped) — what the thread fan-out is gated
    /// on.
    work: usize,
}

#[derive(Debug, Clone, Copy)]
struct RoundPivot {
    id: VertexId,
    /// Range of `gathered` holding the changed columns when they are few
    /// enough to go sparse; `None` pushes the whole row.
    list: Option<(u32, u32)>,
    /// Least and greatest of `lo` over the changed columns' chunks.
    lo_range: (Dist, Dist),
}

impl KernelScratch {
    /// Registers `id` as a pivot of the coming round. Its changed-column
    /// set is the last `id_bits.len()` words of `delta`; `row` holds its
    /// current values and `row_lo` its chunk bounds. `nl` / `rows` count
    /// the local / all rows here.
    fn push_pivot(
        &mut self,
        id: VertexId,
        local: bool,
        (row, row_lo): (&[Dist], &[Dist]),
        nl: usize,
        rows: usize,
    ) {
        let bits = &self.delta[self.delta.len() - self.id_bits.len()..];
        let count: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        let sparse = count * SPARSE_DIVISOR <= row.len();
        // One walk over the changed columns takes each chunk's least
        // changed value and, for a sparse pivot, gathers the list. A chunk
        // that changed whole (every chunk of a seed without a record)
        // takes the row's own bound instead.
        let at = self.gathered.len();
        let mut lo_range = (INF, 0);
        for (c, &word) in bits.iter().enumerate() {
            let mut lo = INF;
            if word == !0 && !sparse {
                lo = row_lo[c];
            } else {
                let mut word = word;
                while word != 0 {
                    let t = c * CHUNK + word.trailing_zeros() as usize;
                    word &= word - 1;
                    lo = lo.min(row[t]);
                    if sparse {
                        self.gathered.push((t as VertexId, row[t]));
                    }
                }
            }
            self.lo.push(lo);
            if c * CHUNK < row.len() {
                lo_range = (lo_range.0.min(lo), lo_range.1.max(lo));
            }
        }
        let list = sparse.then_some((at as u32, count as u32));
        // Case (a): every local row passes through this pivot. Case (b): a
        // local pivot's own row passes densely through each pivot among
        // its changed columns.
        self.work += nl * if list.is_some() { count } else { row.len() };
        if local {
            self.work += count.min(rows) * row.len();
        }
        self.round_of[id as usize] = self.pivots.len() as u32;
        set_bit(&mut self.id_bits, id as usize);
        self.pivots.push(RoundPivot { id, list, lo_range });
    }

    /// Retires the finished round's pivot set.
    fn clear_round(&mut self) {
        for p in &self.pivots {
            self.round_of[p.id as usize] = NO_PIVOT;
            self.id_bits[p.id as usize / 64] = 0;
        }
        self.pivots.clear();
        self.delta.clear();
        self.lo.clear();
        self.gathered.clear();
        self.work = 0;
    }
}

/// Distance-vector store for one rank.
#[derive(Debug, Clone)]
pub struct DvStore {
    /// Local rows.
    local: Arena,
    /// Cached external rows, same layout.
    cached: Arena,
    /// Dense id → slot map (`LOCAL_BIT` tags local slots).
    slot_of: Vec<u32>,
    /// Local rows changed since they were last sent.
    dirty: DirtyBits,
    /// Local rows whose values changed since the last published epoch.
    /// Unlike `dirty` (drained at produce time for wire scheduling) this
    /// set survives until the publisher drains it, so an epoch's view
    /// delta covers exactly the rows whose closeness may have moved.
    epoch_dirty: DirtyBits,
    /// One row of record words, all zero between writes: where a write to
    /// a local row, or a merge into a cached one, takes its lowered-cell
    /// mask ([`DvStore::write_local`], [`DvStore::write_cached`]).
    mask: Vec<u64>,
    /// Every local row is known exact in the current graph (see *Exact
    /// ranks* in the module docs): the cached merges then record nothing.
    exact: bool,
    tally: KernelTally,
}

impl DvStore {
    /// Creates an empty store with `n` columns.
    pub fn new(n: usize) -> Self {
        let mut dirty = DirtyBits::default();
        dirty.ensure(n);
        Self {
            local: Arena::new(n, true),
            cached: Arena::new(n, false),
            slot_of: vec![NO_SLOT; n],
            epoch_dirty: dirty.clone(),
            dirty,
            mask: vec![0; n.div_ceil(CHUNK)],
            exact: false,
            tally: KernelTally::default(),
        }
    }

    /// Whether every local row is known exact in the current graph.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Declares every local row exact in the current graph (`true`), or
    /// withdraws that (`false`). Only a state every rank shares may set it:
    /// see *Exact ranks* in the module docs.
    pub fn set_exact(&mut self, exact: bool) {
        self.exact = exact;
    }

    /// Current column count.
    #[inline]
    pub fn n(&self) -> usize {
        self.local.n
    }

    /// Number of local rows.
    pub fn num_local(&self) -> usize {
        self.local.ids.len()
    }

    /// Number of cached external rows.
    pub fn num_cached(&self) -> usize {
        self.cached.ids.len()
    }

    #[inline]
    fn local_slot(&self, v: VertexId) -> Option<usize> {
        match self.slot_of.get(v as usize) {
            Some(&s) if s != NO_SLOT && s & LOCAL_BIT != 0 => Some((s & !LOCAL_BIT) as usize),
            _ => None,
        }
    }

    #[inline]
    fn cached_slot(&self, v: VertexId) -> Option<usize> {
        match self.slot_of.get(v as usize) {
            Some(&s) if s != NO_SLOT && s & LOCAL_BIT == 0 => Some(s as usize),
            _ => None,
        }
    }

    fn mark_changed(&mut self, v: VertexId) {
        self.dirty.insert(v);
        self.epoch_dirty.insert(v);
    }

    /// A tracked write to the local row of `v`: `f` records the cells it
    /// lowers in the scratch mask and returns whether there are any. If so
    /// the mask is OR-ed into both records of the row — unpropagated and
    /// unsent — and the row is marked dirty.
    fn write_local(&mut self, v: VertexId, f: impl FnOnce(&mut [Dist], Track<'_>) -> bool) -> bool {
        let s = self.local_slot(v).expect("write to a missing local row");
        let Self { local: Arena { n, stride, data, delta, unsent, hi, lo, .. }, mask, .. } = self;
        let words = s * mask.len()..(s + 1) * mask.len();
        let track =
            Track { delta: &mut mask[..], hi: &mut hi[words.clone()], lo: &mut lo[words.clone()] };
        let changed = f(&mut data[s * *stride..s * *stride + *n], track);
        debug_assert!(changed || mask.iter().all(|&w| w == 0), "a lowering went unreported");
        if changed {
            let records = delta[words.clone()].iter_mut().zip(&mut unsent[words]);
            for (lowered, (delta, unsent)) in mask.iter_mut().zip(records) {
                *delta |= *lowered;
                *unsent |= *lowered;
                *lowered = 0;
            }
            self.mark_changed(v);
        }
        changed
    }

    /// Adds a fresh local row for `v`: all `INF` except `row[v] = 0`,
    /// recorded whole. Marks it dirty. No-op if the row already exists.
    pub fn add_local_row(&mut self, v: VertexId) {
        debug_assert!((v as usize) < self.n(), "row {v} beyond column count {}", self.n());
        if self.local_slot(v).is_none() {
            debug_assert!(self.cached_slot(v).is_none(), "add_local_row over cached row {v}");
            let s = self.local.push_inf(v);
            let (row, track) = self.local.row_mut(s);
            row[v as usize] = 0;
            track.lo[v as usize / CHUNK] = 0;
            self.local.record_whole(s);
            self.slot_of[v as usize] = s as u32 | LOCAL_BIT;
        }
        self.mark_changed(v);
    }

    /// Grows every row to `new_n` columns (filled with `INF`). Within the
    /// current capacity this is just a bound bump — the tails are already
    /// `INF`; past it the stride doubles and the arena is re-laid out once,
    /// matching the paper's amortized resize analysis (§IV.C.1a).
    pub fn grow_columns(&mut self, new_n: usize) {
        debug_assert!(new_n >= self.n());
        self.local.grow(new_n);
        self.cached.grow(new_n);
        self.mask.resize(self.local.words(), 0);
        self.slot_of.resize(new_n, NO_SLOT);
        self.dirty.ensure(new_n);
        self.epoch_dirty.ensure(new_n);
    }

    /// Read a row: local first, then cached. `None` if unknown here.
    pub fn row(&self, v: VertexId) -> Option<&[Dist]> {
        self.local_row(v).or_else(|| self.cached_slot(v).map(|s| self.cached.row(s)))
    }

    /// Read a local row.
    pub fn local_row(&self, v: VertexId) -> Option<&[Dist]> {
        self.local_slot(v).map(|s| self.local.row(s))
    }

    /// True if `v` has a local row here.
    pub fn is_local(&self, v: VertexId) -> bool {
        self.local_slot(v).is_some()
    }

    /// Ids of every row available here (local + cached), sorted.
    pub fn all_ids_sorted(&self) -> Vec<VertexId> {
        let mut ids: Vec<VertexId> =
            self.local.ids.iter().chain(self.cached.ids.iter()).copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Removes a local row entirely (migration). Returns it if present.
    pub fn remove_local(&mut self, v: VertexId) -> Option<Vec<Dist>> {
        let s = self.local_slot(v)?;
        let row = self.local.row(s).to_vec();
        self.dirty.remove(v);
        self.epoch_dirty.remove(v);
        self.local.swap_remove(s, &mut self.slot_of, LOCAL_BIT);
        Some(row)
    }

    /// Installs a migrated or restored row as local (overwrites any cached
    /// copy), recorded whole; a row shorter than the current column count
    /// is padded with `INF` in its slot.
    pub fn install_local(&mut self, v: VertexId, row: &[Dist], dirty: bool) {
        if let Some(s) = self.cached_slot(v) {
            self.cached.swap_remove(s, &mut self.slot_of, 0);
        }
        let s = match self.local_slot(v) {
            Some(s) => s,
            None => {
                let s = self.local.push_inf(v);
                self.slot_of[v as usize] = s as u32 | LOCAL_BIT;
                s
            }
        };
        self.local.install(s, row);
        if dirty {
            self.dirty.insert(v);
        }
        // An installed row may hold any values (migration, restore,
        // recompute), so the published closeness of `v` must be refreshed
        // regardless of the wire-dirty flag.
        self.epoch_dirty.insert(v);
    }

    /// Element-wise min-merge into a local row. Returns `true` (and marks
    /// dirty) if any entry improved.
    pub fn min_merge_local(&mut self, v: VertexId, incoming: &[Dist]) -> bool {
        self.write_local(v, |row, track| relax_via_tracked(row, 0, incoming, track))
    }

    /// Sparse min-merge of `(column, distance)` pairs into a local row
    /// (delta wire format). Returns `true` (and marks dirty) if any entry
    /// improved.
    pub fn min_merge_local_sparse(&mut self, v: VertexId, pairs: &[(VertexId, Dist)]) -> bool {
        self.write_local(v, |row, track| min_merge_sparse_tracked(row, pairs, track))
    }

    /// Slot of `v`'s cached row and whether it had to be created (all
    /// `INF`).
    fn cached_slot_or_new(&mut self, v: VertexId) -> (usize, bool) {
        debug_assert!(!self.is_local(v), "cached write of a local row {v}");
        match self.cached_slot(v) {
            Some(s) => (s, false),
            None => {
                let s = self.cached.push_inf(v);
                self.slot_of[v as usize] = s as u32;
                (s, true)
            }
        }
    }

    /// A merge into the cached row of `v` (created all-`INF` if new): `f`
    /// lowers cells and refreshes bounds like any tracked write, taking its
    /// mask in the scratch row, which is OR-ed into the row's unpropagated
    /// record unless the store is exact — then no pass through what `f`
    /// lowered can lower a local cell (*Exact ranks*). Returns whether
    /// anything improved or the row is new.
    fn write_cached(
        &mut self,
        v: VertexId,
        f: impl FnOnce(&mut [Dist], Track<'_>) -> bool,
    ) -> bool {
        let (s, new) = self.cached_slot_or_new(v);
        let Self { cached, mask, exact, .. } = self;
        let (row, Track { hi, lo, .. }) = cached.row_mut(s);
        let changed = f(row, Track { delta: &mut mask[..], hi, lo });
        if changed {
            if !*exact {
                let record = &mut cached.delta[s * mask.len()..(s + 1) * mask.len()];
                record.iter_mut().zip(mask.iter()).for_each(|(r, m)| *r |= m);
            }
            mask.fill(0);
        }
        changed | new
    }

    /// Min-merges an incoming external-boundary row into the cache
    /// (creating it if new). Returns `true` if anything improved.
    pub fn min_merge_cached(&mut self, v: VertexId, incoming: &[Dist]) -> bool {
        self.write_cached(v, |row, track| relax_via_tracked(row, 0, incoming, track))
    }

    /// Sparse variant of [`DvStore::min_merge_cached`] for the delta wire
    /// format. A delta for a row never seen here (possible only when the
    /// chaos layer dropped the initial full row) merges into a fresh
    /// all-`INF` row — still a sound upper bound.
    pub fn min_merge_cached_sparse(&mut self, v: VertexId, pairs: &[(VertexId, Dist)]) -> bool {
        self.write_cached(v, |row, track| min_merge_sparse_tracked(row, pairs, track))
    }

    /// `row_p ← min(row_p, through + row_q)` between two rows held here,
    /// each in either arena: the tracked dense pass the min-merges make
    /// with `through = 0`, so a cached `p` records what it lowered like a
    /// local one. Returns whether anything improved; `false` if either row
    /// is missing.
    pub fn min_merge_through(&mut self, p: VertexId, through: Dist, q: VertexId) -> bool {
        let Some(via) = self.row(q).map(<[Dist]>::to_vec) else { return false };
        if let Some(s) = self.cached_slot(p) {
            let (row, track) = self.cached.row_mut(s);
            return relax_via_tracked(row, through, &via, track);
        }
        self.is_local(p)
            && self.write_local(p, |row, track| relax_via_tracked(row, through, &via, track))
    }

    /// The one write that increases cells: raises to `INF` every cell of
    /// both arenas `witness` cannot vouch for (see [`Witness`] for the rule
    /// and the module docs for what the record and the bounds are owed).
    /// Local rows that lost cells become dirty and epoch-dirty and are
    /// returned with the columns they lost, in slot order, for
    /// [`DvStore::refill`]; cached rows wait for their owner's resend.
    pub fn raise(&mut self, witness: &Witness) -> Vec<(VertexId, Vec<VertexId>)> {
        self.exact = false;
        let mut raised = Vec::new();
        self.local.raise(witness, |v, cols| raised.push((v, cols.to_vec())));
        self.cached.raise(witness, |_, _| {});
        for &(v, _) in &raised {
            self.mark_changed(v);
        }
        raised
    }

    /// Re-derives the raised cells `cols` of local row `v` from what is
    /// held here: the least `D[v][u] + D[u][t]` over every row `u` of both
    /// arenas, and the direct edges `edges` of `v` (the graph as it stands
    /// after the change). Every cell goes through the tracked sparse merge,
    /// so the row comes out closed except through recorded cells — the
    /// kernel's invariant — without a dense pass of every other row through
    /// it. Returns how many of `cols` came back finite.
    pub fn refill(
        &mut self,
        v: VertexId,
        cols: &[VertexId],
        edges: &[(VertexId, Weight)],
    ) -> usize {
        let s = self.local_slot(v).expect("refill on missing row");
        let own = self.local.row(s);
        let mut best = vec![INF; cols.len()];
        for arena in [&self.local, &self.cached] {
            for (slot, &u) in arena.ids.iter().enumerate() {
                let through = own[u as usize];
                if through == INF {
                    continue;
                }
                let via = arena.row(slot);
                for (best, &t) in best.iter_mut().zip(cols) {
                    *best = (*best).min(through.saturating_add(via[t as usize]));
                }
            }
        }
        let derived = cols.iter().copied().zip(best);
        let pairs: Vec<_> = derived.chain(edges.iter().map(|&(t, w)| (t, w as Dist))).collect();
        self.min_merge_local_sparse(v, &pairs);
        let row = self.local.row(s);
        cols.iter().filter(|&&t| row[t as usize] != INF).count()
    }

    /// Drops the cached rows `keep` does not name (after a migration: the
    /// rows no local vertex neighbours any more).
    pub fn retain_cached(&mut self, keep: impl Fn(VertexId) -> bool) {
        // Downwards, so the row a swap-remove moves in was already judged.
        for s in (0..self.cached.ids.len()).rev() {
            if !keep(self.cached.ids[s]) {
                self.cached.swap_remove(s, &mut self.slot_of, 0);
            }
        }
    }

    /// Marks a local row dirty.
    pub fn mark_dirty(&mut self, v: VertexId) {
        debug_assert!(self.is_local(v));
        self.dirty.insert(v);
    }

    /// Marks every local row dirty.
    pub fn mark_all_dirty(&mut self) {
        for &v in &self.local.ids {
            self.dirty.insert(v);
        }
    }

    /// Records every cell of every local row as unpropagated: a row seeded
    /// next relaxes through every pivot, and every row through it. For
    /// events that pair rows anew without lowering a cell (migration,
    /// recovery resend).
    pub fn mark_all_unpropagated(&mut self) {
        let (n, words) = (self.n(), self.local.words());
        for delta in self.local.delta.chunks_mut(words.max(1)) {
            set_prefix(delta, n);
        }
    }

    /// Records every cell of local row `v` as unpropagated.
    pub fn mark_unpropagated(&mut self, v: VertexId) {
        let (n, s) = (self.n(), self.local_slot(v).expect("mark_unpropagated on missing row"));
        set_prefix(self.local.row_mut(s).1.delta, n);
    }

    /// Declares every row propagated: empties the unpropagated record of
    /// both arenas. For states known to be closed — rows that are exact
    /// shortest paths of one graph (IA), rows restored from a barrier
    /// snapshot.
    pub fn clear_unpropagated(&mut self) {
        self.local.delta.fill(0);
        self.cached.delta.fill(0);
    }

    /// Local rows with cells recorded as unpropagated, sorted: the pivots
    /// still pending, as a snapshot lists them.
    pub fn unpropagated_local_sorted(&self) -> Vec<VertexId> {
        let mut ids: Vec<VertexId> = self.local.unpropagated().collect();
        ids.sort_unstable();
        ids
    }

    /// The cells of local row `v` lowered since it was last sent and finite
    /// now, as `(column, distance)` pairs in column order: exactly what a
    /// receiver of that send lacks.
    pub fn unsent_pairs(&self, v: VertexId) -> Vec<(VertexId, Dist)> {
        let (s, words) =
            (self.local_slot(v).expect("unsent_pairs on missing row"), self.local.words());
        let row = self.local.row(s);
        let mut pairs = Vec::new();
        for_each_bit(&self.local.unsent[s * words..(s + 1) * words], |t| {
            if row[t as usize] != INF {
                pairs.push((t, row[t as usize]));
            }
        });
        pairs
    }

    /// Empties the unsent record of local row `v`: it was just sent.
    pub fn clear_unsent(&mut self, v: VertexId) {
        let (s, words) =
            (self.local_slot(v).expect("clear_unsent on missing row"), self.local.words());
        self.local.unsent[s * words..(s + 1) * words].fill(0);
    }

    /// True if any local row awaits sending.
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Takes the dirty set, sorted (deterministic send order).
    pub fn take_dirty_sorted(&mut self) -> Vec<VertexId> {
        let ids = self.dirty.to_sorted();
        self.dirty.clear();
        ids
    }

    /// Takes the epoch-dirty set (rows whose values changed since the last
    /// publish), sorted. Drained once per published epoch; independent of
    /// the wire-dirty set, which produce drains every RC step.
    pub fn take_epoch_dirty_sorted(&mut self) -> Vec<VertexId> {
        let ids = self.epoch_dirty.to_sorted();
        self.epoch_dirty.clear();
        ids
    }

    /// Memory the rows, their records and their chunk bounds occupy,
    /// in bytes (diagnostics; live columns only, excluding the arena's
    /// reserve capacity).
    pub fn memory_bytes(&self) -> usize {
        let (cells, chunks) = (self.n() * std::mem::size_of::<Dist>(), self.n().div_ceil(CHUNK));
        // Per chunk: one record word (two on the local arena) and two bounds.
        let per_row =
            |records: usize| cells + chunks * (8 * records + 2 * std::mem::size_of::<Dist>());
        self.num_local() * per_row(2) + self.num_cached() * per_row(1)
    }

    /// Panics unless every chunk bound of every row holds: `lo ≤ min` and
    /// `hi ≥ max` over the live cells, `hi = INF` past them (what growth
    /// relies on).
    #[cfg(any(test, debug_assertions))]
    pub fn check_bounds(&self) {
        for arena in [&self.local, &self.cached] {
            let words = arena.words();
            for (s, &v) in arena.ids.iter().enumerate() {
                let (hi, lo) = (&arena.hi[s * words..][..words], &arena.lo[s * words..][..words]);
                let mut chunks = arena.row(s).chunks(CHUNK);
                for c in 0..words {
                    let (min, max) = chunks.next().map_or((INF, INF), min_max);
                    assert!(lo[c] <= min, "row {v} chunk {c}: lo {} above min {min}", lo[c]);
                    assert!(hi[c] >= max, "row {v} chunk {c}: hi {} below max {max}", hi[c]);
                }
            }
        }
    }

    /// Work the relaxation kernel has done on this store since it was
    /// built.
    pub fn kernel_tally(&self) -> KernelTally {
        self.tally
    }

    /// Adds work done on a store this one replaces (a recovered rank), so
    /// the tally keeps counting from where that store's stopped.
    pub fn carry_tally(&mut self, earlier: KernelTally) {
        self.tally += earlier;
    }

    // --------------------------------------------------------------------
    // Relaxation kernel
    // --------------------------------------------------------------------

    /// Min-plus relaxation until the rank-local fixed point (the paper's
    /// Floyd–Warshall-flavoured local refresh, §IV.C.1), seeded by the
    /// sorted changed-row ids in `initial`.
    ///
    /// The kernel is **delta-driven** (semi-naive). A relaxation
    /// `D[v][t] ← min(D[v][t], D[v][u] + D[u][t])` can newly improve only
    /// when (a) `D[u][t]` changed or (b) `D[v][u]` changed, so a round
    /// relaxes row `v` through pivot `u` only when
    ///
    /// * (a) `u`'s row changed last round — and then only over the columns
    ///   `u` changed in: as a gathered `(column, value)` list when at most
    ///   `n / 4` of them changed, through the dense [`relax_via`]
    ///   otherwise; or
    /// * (b) cell `D[v][u]` itself changed last round, which takes the
    ///   dense pass through `u`.
    ///
    /// Round 1 takes "changed" from the store's change record: each seed
    /// contributes (and clears) the columns recorded on its row since it
    /// last seeded a call; a seed with nothing recorded counts as changed
    /// in every column. After a round the changed columns of a lowered row
    /// are its diff against the pre-round snapshot. Given the module's
    /// closure invariant on entry, every skipped relaxation is a no-op, so
    /// the call ends at the same closure — the greatest fixed point below
    /// the input, which is unique because every relaxation is monotone —
    /// as relaxing everything through everything would.
    ///
    /// Every pass is **bounded** by the module's chunk bounds. A dense pass
    /// of row `v` through `u` relaxes only the chunks with
    /// `D[v][u] + lo_u[c] < hi_v[c]` — where a case (a) pass takes `lo_u`
    /// over the columns `u` changed in only, since nothing else of `u` can
    /// improve a row whose `D[v][u]` stood still — and a list pass is
    /// dropped whole when `D[v][u]` plus the list's least value does not
    /// get under the greatest `hi_v[c]`. `hi_v` is read as of the round's
    /// start (stale-high by its end, which is still a bound) and the
    /// post-round diff refreshes both bounds of every chunk the round
    /// lowered. A skipped chunk is a proven no-op, so the bounds change the
    /// [`KernelTally`] and nothing else.
    ///
    /// The kernel is **Jacobi-structured**: pivots are read from a
    /// snapshot of the local arena taken before the round (cached rows
    /// never change mid-kernel and are read in place; gathered lists are
    /// copies). Rows are therefore independent within a round, so
    /// `threads > 1` splits them across scoped threads **bit-identically**
    /// to the sequential pass; the fan-out happens only in rounds that
    /// schedule enough cells to pay for it. Entries only decrease and
    /// every call runs to quiescence, so the produced dirty set (changed ⟺
    /// final ≠ initial, by monotonicity) depends on the fixed point alone.
    ///
    /// Marks changed rows dirty; returns whether any local row changed.
    pub fn relax_to_fixed_point(&mut self, initial: &[VertexId], threads: usize) -> bool {
        debug_assert!(initial.windows(2).all(|w| w[0] < w[1]), "initial must be sorted unique");
        let nl = self.local.ids.len();
        if nl == 0 || initial.is_empty() {
            return false;
        }
        let Self { local, cached, slot_of, dirty, epoch_dirty, tally, .. } = self;
        let (n, stride, words) = (local.n, local.stride, local.words());
        let rows = nl + cached.ids.len();
        let mut scratch = KernelScratch {
            round_of: vec![NO_PIVOT; n],
            id_bits: vec![0; words],
            changed: vec![false; nl],
            ..KernelScratch::default()
        };

        // Round 1: the seeds, each with the columns recorded on it (ids
        // without a row here are never relaxed through).
        for &u in initial {
            let slot = slot_of.get(u as usize).copied().unwrap_or(NO_SLOT);
            let is_local = slot & LOCAL_BIT != 0;
            let (row, track) = match slot {
                NO_SLOT => continue,
                s if is_local => local.row_mut((s & !LOCAL_BIT) as usize),
                s => cached.row_mut(s as usize),
            };
            let at = scratch.delta.len();
            scratch.delta.extend_from_slice(track.delta);
            track.delta.fill(0);
            if scratch.delta[at..].iter().all(|&w| w == 0) {
                set_prefix(&mut scratch.delta[at..], n);
            }
            scratch.push_pivot(u, is_local, (row, track.lo), nl, rows);
        }
        if scratch.pivots.is_empty() {
            return false;
        }
        // Pre-round copy of the local arena: what local pivots are read
        // from, and what a lowered row is diffed against after the round.
        let mut snap = local.data.clone();
        tally.calls += 1;

        let mut any = false;
        while !scratch.pivots.is_empty() {
            scratch.changed.fill(false);
            let round = Round {
                snap: &snap,
                cached: &cached.data,
                hi: &local.hi,
                lo: &local.lo,
                cached_lo: &cached.lo,
                pivot_lo: &scratch.lo,
                ids: &local.ids,
                slot_of,
                n,
                stride,
                pivots: &scratch.pivots,
                delta: &scratch.delta,
                gathered: &scratch.gathered,
                round_of: &scratch.round_of,
                id_bits: &scratch.id_bits,
            };
            let fan_out = if scratch.work >= PARALLEL_MIN_WORK { threads } else { 1 };
            *tally += round.run(&mut local.data, &mut scratch.changed, fan_out);
            tally.rounds += 1;

            // Next round's pivots: the rows this round lowered, with the
            // columns they were lowered in. Merging a row into its
            // snapshot yields that diff, re-synchronises the snapshot and
            // — the merged snapshot row being the row — refreshes the
            // row's bounds in every chunk the round lowered.
            scratch.clear_round();
            for s in 0..nl {
                if !scratch.changed[s] {
                    continue;
                }
                let (v, row) = (local.ids[s], &local.data[s * stride..s * stride + n]);
                let at = scratch.delta.len();
                scratch.delta.resize(at + words, 0);
                let snap_row = &mut snap[s * stride..s * stride + n];
                let track = Track {
                    delta: &mut scratch.delta[at..],
                    hi: &mut local.hi[s * words..(s + 1) * words],
                    lo: &mut local.lo[s * words..(s + 1) * words],
                };
                relax_via_tracked(snap_row, 0, row, track);
                // The diff seeds the next round; the unsent record keeps it.
                let unsent = &mut local.unsent[s * words..(s + 1) * words];
                unsent.iter_mut().zip(&scratch.delta[at..]).for_each(|(u, d)| *u |= d);
                scratch.push_pivot(v, true, (row, &local.lo[s * words..]), nl, rows);
                dirty.insert(v);
                epoch_dirty.insert(v);
                any = true;
            }
        }
        any
    }

    /// [`DvStore::relax_to_fixed_point`] seeded by every row of either
    /// arena with a non-empty unpropagated record (one scan of the record
    /// words finds them): all there is to propagate.
    pub fn relax_unpropagated(&mut self, threads: usize) -> bool {
        let mut seeds: Vec<VertexId> =
            self.local.unpropagated().chain(self.cached.unpropagated()).collect();
        seeds.sort_unstable();
        self.relax_to_fixed_point(&seeds, threads)
    }

    // --------------------------------------------------------------------
    // Checkpoint support
    // --------------------------------------------------------------------
    //
    // Rows cross this boundary once in each direction. Out: [`StoreRows`]
    // hands the checkpoint encoder each row straight from its arena slot,
    // in sorted-id order. In: `install_local` / `install_cached` take a
    // borrowed slice (a decoded section row, a `RowTable` row, a wire
    // row) and copy it once, into the slot, padding a short row with
    // `INF` in place; a new cached row is appended, not filled and then
    // overwritten.

    /// This store's rows as the checkpoint encoder reads them, for rank
    /// `rank`.
    pub(crate) fn rows(&self, rank: u32) -> StoreRows<'_> {
        let sorted = |arena: &Arena| {
            let mut slots: Vec<(VertexId, usize)> =
                arena.ids.iter().enumerate().map(|(s, &v)| (v, s)).collect();
            slots.sort_unstable();
            slots
        };
        StoreRows {
            rank,
            dv: self,
            slots: [sorted(&self.local), sorted(&self.cached)],
            dirty: self.dirty_sorted(),
            pending: self.unpropagated_local_sorted(),
        }
    }

    /// The dirty set, sorted, without draining it (snapshots must not
    /// perturb the RC phase).
    pub fn dirty_sorted(&self) -> Vec<VertexId> {
        self.dirty.to_sorted()
    }

    /// Installs a cached external row verbatim, recorded whole (restore
    /// path; rows shorter than the current column count are padded with
    /// `INF`).
    pub fn install_cached(&mut self, v: VertexId, row: &[Dist]) {
        debug_assert!(!self.is_local(v), "cached install of a local row {v}");
        match self.cached_slot(v) {
            Some(s) => self.cached.install(s, row),
            None => self.slot_of[v as usize] = self.cached.push_row(v, row) as u32,
        }
    }

    /// Clears the dirty set (restore path: the snapshot's dirty mask is
    /// installed exactly, replacing whatever construction left behind).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }
}

/// A rank's rows as the checkpoint encoder reads them: each row straight
/// from its arena slot, each table in sorted-id order ([`DvStore::rows`]).
#[derive(Debug)]
pub(crate) struct StoreRows<'a> {
    rank: u32,
    dv: &'a DvStore,
    /// Sorted `(id, slot)` pairs of the local and the cached arena.
    slots: [Vec<(VertexId, usize)>; 2],
    dirty: Vec<VertexId>,
    pending: Vec<VertexId>,
}

impl RankRows for StoreRows<'_> {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn shape(&self, cached: bool) -> (usize, usize) {
        let rows = self.slots[usize::from(cached)].len();
        (rows, rows * self.dv.n())
    }

    fn try_for_each<E>(
        &self,
        cached: bool,
        mut f: impl FnMut(VertexId, &[Dist]) -> Result<(), E>,
    ) -> Result<(), E> {
        let arena = if cached { &self.dv.cached } else { &self.dv.local };
        self.slots[usize::from(cached)].iter().try_for_each(|&(v, s)| f(v, arena.row(s)))
    }

    fn dirty(&self) -> &[VertexId] {
        &self.dirty
    }

    fn pending(&self) -> &[VertexId] {
        &self.pending
    }
}

/// Re-lays a slot-major buffer out with a wider stride, preserving the
/// first `live` items of every row and `fill`ing the rest, with capacity
/// for `cap_rows` rows.
fn relayout<T: Copy>(
    data: &[T],
    cap_rows: usize,
    live: usize,
    stride: usize,
    new_stride: usize,
    fill: T,
) -> Vec<T> {
    let rows = data.len().checked_div(stride).unwrap_or(0);
    let mut out = Vec::with_capacity(cap_rows.max(rows) * new_stride);
    out.resize(rows * new_stride, fill);
    for s in 0..rows {
        out[s * new_stride..s * new_stride + live]
            .copy_from_slice(&data[s * stride..s * stride + live]);
    }
    out
}

/// Target working-set bytes for one row block of the round kernel. Rows
/// are relaxed a block at a time with the pivot loop on the outside, so
/// every pivot row streams from memory once per *block* instead of once
/// per row — on arenas larger than cache this turns the round from
/// memory-bandwidth-bound into compute-bound. Rows are independent within
/// a round, so tiling is a pure loop interchange: bit-identical results.
const BLOCK_TARGET_BYTES: usize = 256 << 10;
/// Upper bound on the rows of one block.
const MAX_BLOCK_ROWS: usize = 64;

/// Everything one Jacobi round reads: the pre-round snapshot, the cached
/// arena, and the round's pivot set. Shared read-only by the workers.
struct Round<'a> {
    snap: &'a [Dist],
    cached: &'a [Dist],
    /// Chunk bounds of the local arena: `hi` of the rows being relaxed
    /// (as of the round's start, so possibly stale-high by its end), `lo`
    /// of local pivots (which the snapshot rows they are read from obey).
    hi: &'a [Dist],
    lo: &'a [Dist],
    cached_lo: &'a [Dist],
    /// Per round pivot, `lo` over its changed columns only.
    pivot_lo: &'a [Dist],
    ids: &'a [VertexId],
    slot_of: &'a [u32],
    n: usize,
    stride: usize,
    pivots: &'a [RoundPivot],
    delta: &'a [u64],
    gathered: &'a [(VertexId, Dist)],
    round_of: &'a [u32],
    id_bits: &'a [u64],
}

impl Round<'_> {
    /// Changed-column set of round pivot `idx`.
    fn delta_of(&self, idx: u32) -> &[u64] {
        let words = self.id_bits.len();
        &self.delta[idx as usize * words..][..words]
    }

    /// Row `s` of a slot-major bounds array, live chunks only.
    fn bounds_of<'b>(&self, bounds: &'b [Dist], s: usize) -> &'b [Dist] {
        &bounds[s * self.id_bits.len()..][..self.n.div_ceil(CHUNK)]
    }

    /// Runs the round over the local arena `rows`, setting `changed[s]`
    /// for every lowered slot. With `threads > 1` row blocks are chunked
    /// across scoped threads — bit-identical to the sequential pass
    /// because rows are independent within a round.
    fn run(&self, rows: &mut [Dist], changed: &mut [bool], threads: usize) -> KernelTally {
        let (nl, stride) = (self.ids.len(), self.stride);
        let block_rows = (BLOCK_TARGET_BYTES / (stride * std::mem::size_of::<Dist>()).max(1))
            .clamp(1, MAX_BLOCK_ROWS);
        // Relaxes the slot range starting at `base`, a block at a time.
        let run_chunk = |base: usize, data: &mut [Dist], flags: &mut [bool]| {
            let mut need = vec![0; self.id_bits.len()];
            data.chunks_mut(block_rows * stride)
                .zip(flags.chunks_mut(block_rows))
                .enumerate()
                .map(|(b, (d, f))| self.relax_block(base + b * block_rows, d, f, &mut need))
                .sum()
        };
        let workers = threads.min(nl);
        if workers <= 1 {
            return run_chunk(0, rows, changed);
        }
        // The vendored rayon substitute is sequential, so chunk by hand
        // over scoped threads; each worker owns a disjoint slot range and
        // tiles it into the same row blocks the sequential pass uses.
        let chunk_rows = nl.div_ceil(workers);
        std::thread::scope(|scope| {
            let run_chunk = &run_chunk;
            let handles: Vec<_> = rows
                .chunks_mut(chunk_rows * stride)
                .zip(changed.chunks_mut(chunk_rows))
                .enumerate()
                .map(|(c, (d, f))| scope.spawn(move || run_chunk(c * chunk_rows, d, f)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("kernel worker panicked")).sum()
        })
    }

    /// Relaxes the block of `flags.len()` rows starting at slot `base`
    /// (backed by `data`), pivot-major. `need` is scratch.
    fn relax_block(
        &self,
        base: usize,
        data: &mut [Dist],
        flags: &mut [bool],
        need: &mut [u64],
    ) -> KernelTally {
        let (n, stride) = (self.n, self.stride);
        // The pivots this block relaxes through: the round's changed rows
        // (case a) and, for each row of the block that changed itself,
        // the columns it changed in (case b).
        need.copy_from_slice(self.id_bits);
        let mut own: [&[u64]; MAX_BLOCK_ROWS] = [&[]; MAX_BLOCK_ROWS];
        for (i, own) in own.iter_mut().enumerate().take(flags.len()) {
            let idx = self.round_of[self.ids[base + i] as usize];
            if idx != NO_PIVOT {
                *own = self.delta_of(idx);
                need.iter_mut().zip(*own).for_each(|(w, d)| *w |= d);
            }
        }
        // Least and greatest `hi` of each row, for the row-level tests of
        // the bounded pass; a list that stays above the latter lowers
        // nothing.
        let mut hi_range = [(INF, INF); MAX_BLOCK_ROWS];
        for (i, range) in hi_range.iter_mut().enumerate().take(flags.len()) {
            *range = min_max(self.bounds_of(self.hi, base + i));
        }
        let mut tally = KernelTally::default();
        for_each_bit(need, |u| {
            let (via, via_lo) = match self.slot_of[u as usize] {
                NO_SLOT => return,
                s if s & LOCAL_BIT != 0 => {
                    let s = (s & !LOCAL_BIT) as usize;
                    (&self.snap[s * stride..][..n], self.bounds_of(self.lo, s))
                }
                s => {
                    let s = s as usize;
                    (&self.cached[s * stride..][..n], self.bounds_of(self.cached_lo, s))
                }
            };
            // How `u` reaches the rows that did not change in column `u`:
            // densely, as a list, or (not a round pivot) not at all — and
            // then only its changed columns can improve them, so the pass
            // is bounded by `lo` over those.
            let idx = self.round_of[u as usize];
            let (dense, list, changed_lo, changed_range) = match self.pivots.get(idx as usize) {
                Some(&RoundPivot { list: Some((at, len)), lo_range, .. }) => {
                    (false, &self.gathered[at as usize..][..len as usize], via_lo, lo_range)
                }
                Some(pivot) => {
                    (true, &[][..], self.bounds_of(self.pivot_lo, idx as usize), pivot.lo_range)
                }
                None => (false, &[][..], via_lo, (INF, INF)),
            };
            let (word, bit) = (u as usize / 64, 1 << (u % 64));
            let mut via_range = None;
            for (i, row) in data.chunks_mut(stride).enumerate() {
                // Decide before touching the row: most rows of a late
                // round take no pass through most of the block's pivots.
                let own_u = own[i].get(word).is_some_and(|w| w & bit != 0);
                if !own_u && !dense && list.is_empty() {
                    continue;
                }
                let through = row[u as usize];
                if through == INF || self.ids[base + i] == u {
                    continue;
                }
                let row = &mut row[..n];
                if own_u || dense {
                    // A row that changed in column `u` itself can improve
                    // anywhere `u` reaches.
                    let lo = if own_u {
                        (via_lo, *via_range.get_or_insert_with(|| min_max(via_lo)))
                    } else {
                        (changed_lo, changed_range)
                    };
                    let hi = (self.bounds_of(self.hi, base + i), hi_range[i]);
                    tally.dense_passes += 1;
                    tally.chunks_scheduled += lo.0.len() as u64;
                    let (hit, cells) = relax_via_bounded(row, hi, through, via, lo);
                    flags[i] |= hit;
                    // Only a row's last chunk can be short.
                    tally.chunks_relaxed += cells.div_ceil(CHUNK) as u64;
                    tally.cells += cells as u64;
                } else if through.saturating_add(changed_range.0) >= hi_range[i].1 {
                    tally.list_passes_skipped += 1;
                } else {
                    flags[i] |= relax_list(row, through, list);
                    tally.sparse_passes += 1;
                    tally.cells += list.len() as u64;
                }
            }
        });
        tally
    }
}

/// One side's chunk bounds in a bounded pass, with their least and
/// greatest.
type Bounds<'a> = (&'a [Dist], (Dist, Dist));

/// The bounded dense pass: [`relax_via`] over the chunks of `row` — bounded
/// above by `hi` — that a pass via a row bounded below by `lo` can lower.
/// Returns whether anything improved and how many cells were relaxed.
///
/// The test runs a row at a time first: a pass that stays above the row's
/// greatest `hi` lowers nothing, and one that gets under its least `hi`
/// everywhere needs no mask — on a short row a fair share of the pass.
fn relax_via_bounded(
    row: &mut [Dist],
    (hi, (hi_min, hi_max)): Bounds<'_>,
    through: Dist,
    via: &[Dist],
    (lo, (lo_min, lo_max)): Bounds<'_>,
) -> (bool, usize) {
    if through.saturating_add(lo_min) >= hi_max {
        return (false, 0);
    }
    let (n, chunks) = (row.len(), hi.len());
    if through.saturating_add(lo_max) < hi_min {
        return (relax_via(row, through, via), n);
    }
    let (mut changed, mut relaxed) = (false, 0);
    for g in (0..chunks).step_by(CHUNK) {
        let end = (g + CHUNK).min(chunks);
        for_each_run(walk_mask(&hi[g..end], through, &lo[g..end]), end - g, |a, b| {
            let cols = (g + a) * CHUNK..((g + b) * CHUNK).min(n);
            relaxed += cols.len();
            changed |= relax_via(&mut row[cols.clone()], through, &via[cols]);
        });
    }
    (changed, relaxed)
}

/// Relaxes `row[t] = min(row[t], through + d)` over a pivot's gathered
/// `(t, d)` list. Returns whether anything improved.
fn relax_list(row: &mut [Dist], through: Dist, list: &[(VertexId, Dist)]) -> bool {
    let mut changed = false;
    for &(t, d) in list {
        let cand = through.saturating_add(d);
        let cell = &mut row[t as usize];
        if cand < *cell {
            *cell = cand;
            changed = true;
        }
    }
    changed
}

/// Element-wise `dst = min(dst, src)`; returns whether anything changed.
/// The incoming row may be shorter than `dst` (sender had fewer columns);
/// missing entries are treated as `INF`. It is [`relax_via`] through `0`
/// (bit-identical: `0.saturating_add(s) == s`), so one dense loop serves
/// both.
#[inline]
pub fn min_merge(dst: &mut [Dist], src: &[Dist]) -> bool {
    relax_via(dst, 0, src)
}

/// Sparse min-merge of `(column, distance)` pairs (delta wire format),
/// recording the lowered columns in `track`. Columns beyond `dst` (sender
/// grew first — cannot happen in a barrier exchange, but harmless) are
/// ignored.
fn min_merge_sparse_tracked(
    dst: &mut [Dist],
    pairs: &[(VertexId, Dist)],
    mut track: Track<'_>,
) -> bool {
    let mut changed = false;
    for &(t, d) in pairs {
        if let Some(cell) = dst.get_mut(t as usize) {
            if d < *cell {
                *cell = d;
                track.lowered(t as usize, d);
                changed = true;
            }
        }
    }
    changed
}

/// Relaxes `row[t] = min(row[t], through + via[t])` for all `t`.
/// Returns whether anything improved. This is the inner loop of the whole
/// engine — branchless (saturating add + select + flag accumulation) so it
/// auto-vectorizes; on x86-64 with AVX2 a runtime-dispatched recompilation
/// of the same loop runs 8 lanes wide (bit-identical: the arithmetic is
/// elementwise integer either way).
#[inline]
pub fn relax_via(row: &mut [Dist], through: Dist, via: &[Dist]) -> bool {
    if through == INF {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { relax_via_avx2(row, through, via) };
    }
    relax_via_scalar(row, through, via)
}

#[inline(always)]
fn relax_via_scalar(row: &mut [Dist], through: Dist, via: &[Dist]) -> bool {
    let mut changed = false;
    for (r, &b) in row.iter_mut().zip(via) {
        let cand = through.saturating_add(b);
        let m = if cand < *r { cand } else { *r };
        changed |= m < *r;
        *r = m;
    }
    changed
}

/// The same loop compiled with AVX2 enabled: native unsigned `u32` min and
/// 256-bit lanes, which the baseline x86-64 target (SSE2) cannot emit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relax_via_avx2(row: &mut [Dist], through: Dist, via: &[Dist]) -> bool {
    relax_via_scalar(row, through, via)
}

/// [`relax_via`] that also records what it lowered: bit `t % 64` of
/// `delta[t / 64]` is set for every improved `row[t]`. With `through = 0`
/// it is the tracked [`min_merge`] (a shorter `via` leaves the tail
/// untouched). No row is copied to diff it: on AVX2 hosts the comparison
/// mask of each 8-lane step is moved straight into the record, at the speed
/// of the untracked loop whether or not anything improves; elsewhere each
/// 64-column chunk is first probed with the branchless comparison and only
/// a chunk that improves takes the slower loop that builds its mask. Either
/// way a chunk that improved gets its bounds recomputed while it is in
/// registers or L1; the others keep theirs.
fn relax_via_tracked(row: &mut [Dist], through: Dist, via: &[Dist], track: Track<'_>) -> bool {
    if through == INF {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { relax_via_tracked_avx2(row, through, via, track) };
    }
    relax_via_tracked_scalar(row, through, via, track)
}

#[inline(always)]
fn relax_via_tracked_scalar(
    row: &mut [Dist],
    through: Dist,
    via: &[Dist],
    track: Track<'_>,
) -> bool {
    let mut changed = false;
    let chunks = row.chunks_mut(CHUNK).zip(via.chunks(CHUNK));
    for (((row, via), word), (hi, lo)) in
        chunks.zip(track.delta).zip(track.hi.iter_mut().zip(track.lo))
    {
        let mut hit = false;
        for (&r, &b) in row.iter().zip(via) {
            hit |= through.saturating_add(b) < r;
        }
        if hit {
            for (j, (r, &b)) in row.iter_mut().zip(via).enumerate() {
                let cand = through.saturating_add(b);
                let lower = cand < *r;
                *r = if lower { cand } else { *r };
                *word |= (lower as u64) << j;
            }
            (*lo, *hi) = min_max(row);
            changed = true;
        }
    }
    changed
}

/// [`relax_via_tracked_scalar`] with explicit AVX2: auto-vectorization
/// cannot turn per-lane comparisons into record bits, `vmovmskps` can.
/// Measured at n = 610 with one improving chunk per pass: 0.161 ns/cell
/// against 0.183 for the probing loop and 0.147 for untracked `relax_via`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relax_via_tracked_avx2(
    row: &mut [Dist],
    through: Dist,
    via: &[Dist],
    mut track: Track<'_>,
) -> bool {
    use std::arch::x86_64::*;
    let whole = row.len().min(via.len()) / CHUNK;
    let (row, row_tail) = row.split_at_mut(whole * CHUNK);
    let (via, via_tail) = via.split_at(whole * CHUNK);
    let through_x8 = _mm256_set1_epi32(through as i32);
    let mut any = 0;
    let bounds = track.hi.iter_mut().zip(track.lo.iter_mut());
    let chunks = row.chunks_exact_mut(CHUNK).zip(via.chunks_exact(CHUNK));
    for (((row, via), word), (hi, lo)) in chunks.zip(track.delta.iter_mut()).zip(bounds) {
        let mut mask = 0u64;
        for (g, (r, b)) in row.chunks_exact_mut(8).zip(via.chunks_exact(8)).enumerate() {
            // SAFETY: `chunks_exact(8)` yields slices of exactly eight
            // `u32`s, which the unaligned 256-bit load and store cover.
            let (old, b) = unsafe {
                (_mm256_loadu_si256(r.as_ptr().cast()), _mm256_loadu_si256(b.as_ptr().cast()))
            };
            let cand = if through == 0 {
                b
            } else {
                // Saturating unsigned add: `min(through, !b) + b`.
                let room = _mm256_xor_si256(b, _mm256_set1_epi32(-1));
                _mm256_add_epi32(_mm256_min_epu32(through_x8, room), b)
            };
            let new = _mm256_min_epu32(cand, old);
            let kept = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(new, old)));
            // SAFETY: as above, `r` is eight `u32`s long.
            unsafe { _mm256_storeu_si256(r.as_mut_ptr().cast(), new) };
            mask |= u64::from(!kept as u8) << (8 * g);
        }
        *word |= mask;
        any |= mask;
        if mask != 0 {
            (*lo, *hi) = min_max(row);
        }
    }
    let tail = track.range(whole, track.delta.len());
    (any != 0) | relax_via_tracked_scalar(row_tail, through, via_tail, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_checkpoint::RankSnapshot;

    #[test]
    fn fresh_row_is_identity() {
        let mut dv = DvStore::new(4);
        dv.add_local_row(2);
        assert_eq!(dv.row(2).unwrap(), &[INF, INF, 0, INF]);
        assert!(dv.is_local(2));
        assert!(dv.has_dirty());
        assert_eq!(dv.num_local(), 1);
    }

    #[test]
    fn grow_columns_extends_all_rows() {
        let mut dv = DvStore::new(2);
        dv.add_local_row(0);
        dv.min_merge_cached(1, &[3, 0]);
        dv.grow_columns(4);
        assert_eq!(dv.n(), 4);
        assert_eq!(dv.row(0).unwrap().len(), 4);
        assert_eq!(dv.row(1).unwrap(), &[3, 0, INF, INF]);
    }

    #[test]
    fn grow_within_capacity_keeps_data_and_tail_inf() {
        let mut dv = DvStore::new(2);
        dv.add_local_row(0);
        dv.min_merge_local(0, &[0, 7]);
        // Force a capacity re-layout (stride doubles), then grow within it.
        dv.grow_columns(3); // stride 2 -> 4
        assert_eq!(dv.row(0).unwrap(), &[0, 7, INF]);
        dv.grow_columns(4); // in capacity: bound bump only
        assert_eq!(dv.row(0).unwrap(), &[0, 7, INF, INF]);
        dv.add_local_row(3);
        assert_eq!(dv.row(3).unwrap(), &[INF, INF, INF, 0]);
        // Past capacity again: amortized doubling.
        dv.grow_columns(9); // stride 4 -> 9
        assert_eq!(dv.row(0).unwrap()[..2], [0, 7]);
        assert!(dv.row(0).unwrap()[2..].iter().all(|&d| d == INF));
        assert_eq!(dv.row(3).unwrap()[3], 0);
    }

    #[test]
    fn min_merge_only_improves() {
        let mut dst = vec![5, INF, 2];
        assert!(min_merge(&mut dst, &[7, 4, 2]));
        assert_eq!(dst, vec![5, 4, 2]);
        assert!(!min_merge(&mut dst, &[9, 9, 9]));
        // Shorter source: missing tail untouched.
        assert!(min_merge(&mut dst, &[1]));
        assert_eq!(dst, vec![1, 4, 2]);
        // Rows long enough for the 8-lane body, with INF cells on both sides
        // (on both at once every 35th column) and a source longer than the
        // destination, whose extra cells are ignored.
        for n in [70usize, 131] {
            let dst0: Vec<Dist> =
                (0..n).map(|i| if i % 5 == 0 { INF } else { (i * 37 % 101) as Dist }).collect();
            let src: Vec<Dist> =
                (0..n + 9).map(|i| if i % 7 == 0 { INF } else { (i * 53 % 97) as Dist }).collect();
            let want: Vec<Dist> = dst0.iter().zip(&src).map(|(&d, &s)| d.min(s)).collect();
            let mut dst = dst0.clone();
            assert_eq!(min_merge(&mut dst, &src), want != dst0);
            assert_eq!(dst, want);
            assert!(!min_merge(&mut dst, &src));
            // A single lowered cell anywhere, lane body or tail, reports.
            for t in [0, 7, 8, 63, 64, n - 1] {
                let mut dst = vec![50; n];
                let mut one = vec![INF; n + 9];
                one[t] = 1;
                assert!(min_merge(&mut dst, &one));
                let want: Vec<Dist> = (0..n).map(|i| if i == t { 1 } else { 50 }).collect();
                assert_eq!(dst, want);
            }
        }
    }

    #[test]
    fn sparse_merges_improve_and_ignore_out_of_range() {
        let (mut dst, mut delta, mut hi, mut lo) = (vec![5, INF, 2], [0], [INF], [2]);
        let mut track = Track { delta: &mut delta, hi: &mut hi, lo: &mut lo };
        assert!(min_merge_sparse_tracked(&mut dst, &[(1, 4), (2, 9), (7, 0)], track.range(0, 1)));
        assert!(!min_merge_sparse_tracked(&mut dst, &[(0, 5)], track));
        assert_eq!((dst.as_slice(), delta), (&[5, 4, 2][..], [0b010]));

        let mut dv = DvStore::new(3);
        dv.add_local_row(0);
        dv.take_dirty_sorted();
        assert!(dv.min_merge_local_sparse(0, &[(2, 4)]));
        assert_eq!(dv.row(0).unwrap(), &[0, INF, 4]);
        assert!(dv.has_dirty());
        // Cached delta without a prior full row creates an INF row.
        assert!(dv.min_merge_cached_sparse(1, &[(0, 9)]));
        assert_eq!(dv.row(1).unwrap(), &[9, INF, INF]);
    }

    #[test]
    fn cached_merge_creates_and_improves() {
        let mut dv = DvStore::new(3);
        assert!(dv.min_merge_cached(1, &[4, 0, 9]));
        assert!(dv.min_merge_cached(1, &[4, 0, 5]));
        assert!(!dv.min_merge_cached(1, &[6, 1, 7]));
        assert_eq!(dv.row(1).unwrap(), &[4, 0, 5]);
        assert_eq!(dv.num_cached(), 1);
        dv.retain_cached(|_| false);
        assert!(dv.row(1).is_none());
    }

    #[test]
    fn dirty_lifecycle() {
        let mut dv = DvStore::new(3);
        dv.add_local_row(0);
        dv.add_local_row(2);
        assert_eq!(dv.take_dirty_sorted(), vec![0, 2]);
        assert!(!dv.has_dirty());
        dv.min_merge_local(0, &[0, 1, 1]);
        assert_eq!(dv.take_dirty_sorted(), vec![0]);
        // No improvement -> no dirt.
        dv.min_merge_local(0, &[0, 5, 5]);
        assert!(!dv.has_dirty());
    }

    #[test]
    fn sparse_min_merge_marks_dirty_on_change() {
        let mut dv = DvStore::new(2);
        dv.add_local_row(0);
        dv.take_dirty_sorted();
        assert!(!dv.min_merge_local_sparse(0, &[(1, INF)]));
        assert!(!dv.has_dirty());
        assert!(dv.min_merge_local_sparse(0, &[(1, 7)]));
        assert_eq!(dv.row(0).unwrap(), &[0, 7]);
        assert!(dv.has_dirty());
    }

    #[test]
    fn migration_install_and_remove() {
        let mut dv = DvStore::new(3);
        dv.min_merge_cached(1, &[9, 0, 9]);
        dv.install_local(1, &[8, 0, 8], true);
        assert!(dv.is_local(1));
        assert_eq!(dv.num_cached(), 0);
        let row = dv.remove_local(1).unwrap();
        assert_eq!(row, vec![8, 0, 8]);
        assert!(!dv.has_dirty());
    }

    #[test]
    fn swap_remove_keeps_other_rows_intact() {
        let mut dv = DvStore::new(4);
        for v in 0..3 {
            dv.add_local_row(v);
            dv.min_merge_local(v, &[v + 10; 4]);
        }
        // Remove the middle slot; the last row is swapped into its place.
        let row1 = dv.remove_local(1).unwrap();
        assert_eq!(row1[3], 11);
        assert_eq!(dv.num_local(), 2);
        assert!(dv.row(1).is_none());
        assert_eq!(dv.row(0).unwrap()[3], 10);
        assert_eq!(dv.row(2).unwrap()[3], 12);
        assert!(dv.is_local(0) && !dv.is_local(1) && dv.is_local(2));
        assert_eq!(dv.local_row(2).unwrap()[2], 0);
    }

    #[test]
    fn export_and_reinstall_roundtrip() {
        let mut dv = DvStore::new(3);
        dv.add_local_row(2);
        dv.add_local_row(0);
        dv.min_merge_local(0, &[0, 4, 7]);
        dv.min_merge_cached(1, &[9, 0, 9]);
        dv.take_dirty_sorted();
        dv.mark_dirty(0);

        let RankSnapshot { local, cached, dirty, .. } = RankSnapshot::from_rows(&dv.rows(0));
        assert_eq!(local.iter().map(|(v, _)| v).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(cached.len(), 1);
        assert_eq!(dirty, vec![0]);
        // Export does not drain dirt.
        assert!(dv.has_dirty());

        let mut fresh = DvStore::new(3);
        for (v, row) in &local {
            fresh.install_local(v, row, false);
        }
        for (v, row) in &cached {
            fresh.install_cached(v, row);
        }
        fresh.clear_dirty();
        for v in dirty {
            fresh.mark_dirty(v);
        }
        assert_eq!(fresh.row(0).unwrap(), dv.row(0).unwrap());
        assert_eq!(fresh.row(1).unwrap(), dv.row(1).unwrap());
        assert_eq!(fresh.dirty_sorted(), dv.dirty_sorted());
    }

    #[test]
    fn install_pads_short_rows_and_cuts_long_ones_in_the_slot() {
        let mut dv = DvStore::new(4);
        dv.add_local_row(0);
        dv.min_merge_local(0, &[0, 1, 1, 1]);
        // Shorter than the column count: the tail is INF, not stale cells.
        dv.install_local(0, &[0, 5], false);
        assert_eq!(dv.row(0).unwrap(), &[0, 5, INF, INF]);
        dv.install_cached(3, &[7]);
        assert_eq!(dv.row(3).unwrap(), &[7, INF, INF, INF]);
        // Longer: cut to the live columns.
        dv.install_cached(3, &[4, 3, 2, 0, 9, 9]);
        assert_eq!(dv.row(3).unwrap(), &[4, 3, 2, 0]);
    }

    #[test]
    fn export_roundtrip_survives_capacity_growth() {
        // Rows written under one stride must export/import identically
        // after the arena re-laid itself out.
        let mut dv = DvStore::new(2);
        dv.add_local_row(0);
        dv.min_merge_local(0, &[0, 3]);
        dv.min_merge_cached(1, &[3, 0]);
        dv.grow_columns(5); // stride 2 -> 5
        dv.add_local_row(4);
        dv.grow_columns(6); // stride 5 -> 10
        let RankSnapshot { local, cached, .. } = RankSnapshot::from_rows(&dv.rows(0));
        assert!(local.iter().all(|(_, r)| r.len() == 6));

        let mut fresh = DvStore::new(6);
        for (v, row) in &local {
            fresh.install_local(v, row, false);
        }
        for (v, row) in &cached {
            fresh.install_cached(v, row);
        }
        assert_eq!(fresh.row(0).unwrap(), dv.row(0).unwrap());
        assert_eq!(fresh.row(1).unwrap(), dv.row(1).unwrap());
        assert_eq!(fresh.row(4).unwrap(), dv.row(4).unwrap());
    }

    #[test]
    fn memory_accounting() {
        let mut dv = DvStore::new(100);
        dv.add_local_row(0);
        dv.min_merge_cached(5, &[0; 100]);
        // Two chunks a row: two record words each on the local row, one on
        // the cached one, and two bounds.
        assert_eq!(dv.memory_bytes(), (100 * 4 + 2 * (16 + 4 + 4)) + (100 * 4 + 2 * (8 + 4 + 4)));
    }

    #[test]
    fn relax_via_saturates_and_detects_change() {
        let mut row = vec![5, INF, 3];
        assert!(relax_via(&mut row, 1, &[3, 2, 9]));
        assert_eq!(row, vec![4, 3, 3]);
        assert!(!relax_via(&mut row, INF, &[0, 0, 0]));
        assert!(!relax_via(&mut row, 10, &[INF, INF, INF]));
    }

    /// The dispatched (AVX2 where available) tracked pass must equal the
    /// portable one cell for cell and bit for bit, across chunk tails,
    /// saturation and a shorter `via`.
    #[test]
    fn tracked_relax_matches_portable_loop() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 7, 8, 63, 64, 65, 130, 200] {
            for short in [0, 3] {
                let cell = |r: u64| if r % 5 == 0 { INF } else { (r >> 8) as Dist % 50 };
                let row: Vec<Dist> = (0..len).map(|_| cell(next())).collect();
                let via: Vec<Dist> = (0..len.saturating_sub(short)).map(|_| cell(next())).collect();
                let through = if len % 2 == 0 { 3 } else { INF - 7 };
                let (mut fast, mut slow) = (row.clone(), row.clone());
                let mut fast_bits = vec![0u64; len.div_ceil(64)];
                let mut slow_bits = fast_bits.clone();
                let (mut fast_hi, mut fast_lo) =
                    (vec![INF; fast_bits.len()], vec![0; fast_bits.len()]);
                let (mut slow_hi, mut slow_lo) = (fast_hi.clone(), fast_lo.clone());
                let fast_track =
                    Track { delta: &mut fast_bits, hi: &mut fast_hi, lo: &mut fast_lo };
                let slow_track =
                    Track { delta: &mut slow_bits, hi: &mut slow_hi, lo: &mut slow_lo };
                let hit = relax_via_tracked(&mut fast, through, &via, fast_track);
                assert_eq!(hit, relax_via_tracked_scalar(&mut slow, through, &via, slow_track));
                assert_eq!((&fast, &fast_bits), (&slow, &slow_bits), "len {len} short {short}");
                assert_eq!((&fast_hi, &fast_lo), (&slow_hi, &slow_lo), "len {len} short {short}");
                // A chunk that improved has exact bounds, the others kept theirs.
                for (c, chunk) in fast.chunks(64).enumerate() {
                    let want = if fast_bits[c] != 0 { min_max(chunk) } else { (0, INF) };
                    assert_eq!((fast_lo[c], fast_hi[c]), want, "len {len} chunk {c}");
                }
                let lowered: Vec<u32> =
                    (0..len as u32).filter(|&t| fast[t as usize] < row[t as usize]).collect();
                let mut recorded = Vec::new();
                for_each_bit(&fast_bits, |t| recorded.push(t));
                assert_eq!(recorded, lowered);
            }
        }
    }

    /// The kernel on a 4-path split 2|2: rank 0 holds rows 0,1 and a
    /// cached row 2; relaxing with pivot 2 must propagate 2's knowledge of
    /// 3 into both local rows, identically for 1 and 4 threads.
    #[test]
    fn kernel_reaches_fixed_point_and_matches_parallel() {
        let build = || {
            let mut dv = DvStore::new(4);
            dv.add_local_row(0);
            dv.add_local_row(1);
            dv.min_merge_local(0, &[0, 1, 2, INF]);
            dv.min_merge_local(1, &[1, 0, 1, INF]);
            dv.min_merge_cached(2, &[INF, INF, 0, 1]);
            dv.take_dirty_sorted();
            dv
        };
        let mut seq = build();
        let mut par = build();
        assert!(seq.relax_to_fixed_point(&[2], 1));
        assert!(par.relax_to_fixed_point(&[2], 4));
        assert_eq!(seq.row(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(seq.row(1).unwrap(), &[1, 0, 1, 2]);
        assert_eq!(seq.row(0).unwrap(), par.row(0).unwrap());
        assert_eq!(seq.row(1).unwrap(), par.row(1).unwrap());
        assert_eq!(seq.dirty_sorted(), par.dirty_sorted());
        assert_eq!(seq.dirty_sorted(), vec![0, 1]);
        // Quiescent: re-running with the same pivots changes nothing.
        seq.clear_dirty();
        assert!(!seq.relax_to_fixed_point(&[2], 1));
        assert!(!seq.has_dirty());
    }

    /// The arena holding `v`'s row, and its slot there.
    fn arena_slot(dv: &DvStore, v: VertexId) -> (&Arena, usize) {
        match dv.local_slot(v) {
            Some(s) => (&dv.local, s),
            None => (&dv.cached, dv.cached_slot(v).expect("row exists")),
        }
    }

    /// Columns recorded as unpropagated on `v`'s row, sorted.
    fn recorded(dv: &DvStore, v: VertexId) -> Vec<u32> {
        let (arena, s) = arena_slot(dv, v);
        let mut cols = Vec::new();
        for_each_bit(&arena.delta[s * arena.words()..(s + 1) * arena.words()], |t| cols.push(t));
        cols
    }

    /// Rank 0 of the path 0-1-2-3 split 2|2 after IA, with nothing
    /// recorded and nothing dirty.
    fn converged_half_path() -> DvStore {
        let mut dv = DvStore::new(4);
        dv.install_local(0, &[0, 1, 2, INF], false);
        dv.install_local(1, &[1, 0, 1, INF], false);
        dv.relax_to_fixed_point(&[0, 1], 1);
        dv.clear_dirty();
        assert!(recorded(&dv, 0).is_empty() && recorded(&dv, 1).is_empty());
        dv
    }

    #[test]
    fn writes_record_exactly_the_lowered_columns() {
        let mut dv = DvStore::new(70);
        dv.add_local_row(3);
        assert_eq!(recorded(&dv, 3), (0..70).collect::<Vec<_>>(), "fresh rows are recorded whole");
        dv.relax_to_fixed_point(&[3], 1);
        assert!(recorded(&dv, 3).is_empty(), "seeding consumes the record");

        let mut incoming = vec![INF; 70];
        (incoming[3], incoming[5], incoming[69]) = (7, 2, 9);
        assert!(dv.min_merge_local(3, &incoming));
        assert_eq!(recorded(&dv, 3), vec![5, 69], "an unimproved column is not recorded");
        assert!(dv.min_merge_local_sparse(3, &[(5, 2), (64, 1)]));
        assert_eq!(recorded(&dv, 3), vec![5, 64, 69]);
        assert!(dv.min_merge_local_sparse(3, &[(0, 4), (5, 3)]));
        assert_eq!(recorded(&dv, 3), vec![0, 5, 64, 69]);

        assert!(dv.min_merge_cached(8, &incoming));
        assert_eq!(recorded(&dv, 8), vec![3, 5, 69], "a new cached row records its finite cells");
        assert!(dv.min_merge_cached_sparse(8, &[(1, 1), (5, 6)]));
        assert_eq!(recorded(&dv, 8), vec![1, 3, 5, 69]);
        // Through an edge of weight 1 to row 3: columns 0, 3 and 64 come down.
        assert!(dv.min_merge_through(8, 1, 3));
        assert_eq!(
            recorded(&dv, 8),
            vec![0, 1, 3, 5, 64, 69],
            "a cached row records like a local one"
        );
        dv.install_cached(9, &[1; 70]);
        assert_eq!(recorded(&dv, 9).len(), 70);
    }

    #[test]
    fn unseeded_rows_keep_their_record_across_a_kernel_call() {
        let mut dv = converged_half_path();
        dv.min_merge_local(0, &[0, 1, 2, 9]);
        dv.min_merge_cached(2, &[INF, INF, 0, 1]);
        // Only the cached row seeds this call; row 0 is lowered by it (to
        // 3 in column 3) but never seeded itself.
        assert!(dv.relax_to_fixed_point(&[2], 1));
        assert_eq!(dv.row(0).unwrap(), &[0, 1, 2, 3]);
        assert_eq!(recorded(&dv, 0), vec![3]);
        assert!(recorded(&dv, 2).is_empty());
        dv.relax_to_fixed_point(&[0], 1);
        assert!(recorded(&dv, 0).is_empty());
    }

    #[test]
    fn record_survives_growth_and_moves_with_swapped_rows() {
        let mut dv = DvStore::new(3);
        for v in 0..3 {
            dv.add_local_row(v);
        }
        dv.relax_to_fixed_point(&[0, 1, 2], 1);
        dv.min_merge_local(2, &[5, INF, 0]);
        dv.grow_columns(5);
        dv.min_merge_cached_sparse(4, &[(0, 6)]);
        dv.grow_columns(200); // past capacity: stride and record re-laid out
        assert_eq!(recorded(&dv, 2), vec![0]);
        assert_eq!(recorded(&dv, 4), vec![0]);
        assert!(recorded(&dv, 0).is_empty());
        dv.min_merge_local_sparse(2, &[(150, 1)]);

        // Removing the middle slot swaps row 2 into it, record included.
        dv.remove_local(1);
        assert_eq!(recorded(&dv, 2), vec![0, 150]);
        assert!(recorded(&dv, 0).is_empty());
        assert_eq!(dv.row(2).unwrap()[150], 1);

        dv.retain_cached(|_| false);
        assert!(dv.cached.delta.is_empty());
        dv.min_merge_cached_sparse(4, &[(1, 1)]);
        assert_eq!(recorded(&dv, 4), vec![1], "a re-created cached row starts with a clean record");
    }

    /// Columns of `v`'s unsent record, sorted.
    fn unsent(dv: &DvStore, v: VertexId) -> Vec<u32> {
        let (s, words) = (dv.local_slot(v).expect("local row"), dv.local.words());
        let mut cols = Vec::new();
        for_each_bit(&dv.local.unsent[s * words..(s + 1) * words], |t| cols.push(t));
        cols
    }

    #[test]
    fn the_unsent_record_takes_every_lowering_and_only_a_send_clears_it() {
        let mut dv = DvStore::new(70);
        dv.add_local_row(4);
        dv.add_local_row(3);
        assert_eq!(unsent(&dv, 3), (0..70).collect::<Vec<_>>(), "fresh rows are unsent whole");
        assert_eq!(dv.unsent_pairs(3), vec![(3, 0)], "INF cells never travel");
        dv.clear_unsent(3);
        dv.clear_unsent(4);
        dv.relax_unpropagated(1);

        // Every tracked write feeds it, next to the unpropagated record.
        let mut incoming = vec![INF; 70];
        (incoming[3], incoming[5], incoming[69]) = (7, 2, 9);
        dv.min_merge_local(3, &incoming);
        dv.min_merge_local_sparse(3, &[(5, 2), (64, 1)]);
        dv.min_merge_local_sparse(3, &[(4, 6)]);
        assert_eq!(unsent(&dv, 3), vec![4, 5, 64, 69]);
        assert_eq!(recorded(&dv, 3), unsent(&dv, 3));
        // Seeding consumes the one record and not the other; what the
        // kernel lowers (row 3 through its new cell 4) is unsent too.
        dv.min_merge_local(4, &[8; 70]);
        dv.relax_unpropagated(1);
        assert!(recorded(&dv, 3).is_empty() && recorded(&dv, 4).is_empty());
        assert_eq!(dv.row(3).unwrap()[10], 14);
        assert_eq!(unsent(&dv, 3).len(), 70 - 1, "all but the self cell came down");
        assert!(dv.mask.iter().all(|&w| w == 0), "the scratch mask is zero between writes");

        // A send clears it; a lowering after that is the whole delta.
        dv.clear_unsent(3);
        dv.min_merge_local_sparse(3, &[(64, 0)]);
        assert_eq!(dv.unsent_pairs(3), vec![(64, 0)]);
        // A raise sets no bit, and a raised cell with one is left out.
        let mut gone = vec![INF; 70];
        (gone[3], gone[64]) = (0, 0);
        let raised = dv.raise(&Witness::vertex(gone));
        assert!(raised.iter().any(|(v, cols)| *v == 3 && cols.contains(&64)));
        assert_eq!(unsent(&dv, 3), vec![64]);
        assert!(dv.unsent_pairs(3).is_empty());

        // Growth, a re-layout and a swap-remove keep it with its row; the
        // cached arena has none.
        dv.min_merge_cached(9, &[1; 70]);
        dv.grow_columns(300);
        dv.min_merge_local_sparse(3, &[(250, 2)]);
        dv.remove_local(4);
        assert_eq!(unsent(&dv, 3), vec![64, 250]);
        assert!(dv.cached.unsent.is_empty());
        dv.install_local(9, &[1; 300], true);
        assert_eq!(unsent(&dv, 9).len(), 300, "installed rows are unsent whole");
    }

    #[test]
    fn the_seeds_are_the_recorded_rows_of_either_arena() {
        let mut dv = converged_half_path();
        assert!(!dv.relax_unpropagated(1), "nothing recorded, nothing to do");
        assert_eq!(dv.kernel_tally().calls, 1, "an empty seed set is not a call");
        // A cached row's record seeds the call like a local one's.
        dv.min_merge_cached(2, &[INF, INF, 0, 1]);
        dv.min_merge_cached(3, &[INF, INF, 1, 0]);
        assert!(dv.unpropagated_local_sorted().is_empty());
        assert!(dv.relax_unpropagated(1));
        assert_eq!(dv.row(0).unwrap(), &[0, 1, 2, 3]);
        assert!([0, 1, 2, 3].iter().all(|&v| recorded(&dv, v).is_empty()));
        dv.min_merge_local_sparse(1, &[(3, 1)]);
        assert_eq!(dv.unpropagated_local_sorted(), vec![1]);

        // Eviction keeps what it is told to, slots stay dense.
        dv.retain_cached(|v| v == 3);
        assert_eq!((dv.num_cached(), dv.row(2)), (1, None));
        assert_eq!(dv.row(3).unwrap(), &[INF, INF, 1, 0]);
        dv.check_bounds();
    }

    #[test]
    fn mark_all_unpropagated_forces_the_full_relaxation() {
        let mut dv = converged_half_path();
        dv.min_merge_cached(2, &[INF, INF, 0, 1]);
        dv.relax_to_fixed_point(&[2], 1);
        let before = dv.kernel_tally();
        // Nothing recorded on the local rows, but both re-pair with every
        // row here: each relaxes densely through the other two.
        dv.mark_all_unpropagated();
        assert!(!dv.relax_to_fixed_point(&[0, 1], 1));
        let after = dv.kernel_tally();
        assert_eq!(after.dense_passes - before.dense_passes, 4);
        assert_eq!(after.sparse_passes, before.sparse_passes);
        assert_eq!((after.calls - before.calls, after.rounds - before.rounds), (1, 1));
    }

    /// `(lo, hi)` of chunk `c` of `v`'s row.
    fn bounds(dv: &DvStore, v: VertexId, c: usize) -> (Dist, Dist) {
        let (arena, s) = arena_slot(dv, v);
        (arena.lo[s * arena.words() + c], arena.hi[s * arena.words() + c])
    }

    #[test]
    fn growth_raises_hi_of_the_straddled_chunk_on_every_row() {
        let mut dv = DvStore::new(100);
        dv.install_local(0, &[3; 100], false);
        dv.install_cached(1, &[4; 100]);
        assert_eq!((bounds(&dv, 0, 0), bounds(&dv, 0, 1)), ((3, 3), (3, 3)));
        // Columns 100..110 are INF and live in chunk 1, which began
        // before the growth; chunk 0 is untouched and `lo` still holds.
        dv.grow_columns(110);
        for v in [0, 1] {
            assert_eq!(bounds(&dv, v, 0).1, 3 + v);
            assert_eq!(bounds(&dv, v, 1), (3 + v, INF));
        }
        dv.check_bounds();
        // Past capacity (re-layout) and onto a chunk boundary: chunk 2 is
        // new and `INF` on both sides.
        dv.min_merge_local(0, &[2; 110]);
        assert_eq!(bounds(&dv, 0, 1), (2, 2));
        dv.grow_columns(128);
        dv.min_merge_local(0, &[1; 128]);
        dv.grow_columns(300);
        assert_eq!((bounds(&dv, 0, 1), bounds(&dv, 0, 2)), ((1, 1), (INF, INF)));
        assert_eq!(bounds(&dv, 1, 1), (4, INF));
        dv.check_bounds();
    }

    #[test]
    fn writes_that_skip_the_chunk_lower_lo_and_dense_ones_refresh_both() {
        let mut dv = DvStore::new(130);
        dv.add_local_row(70);
        assert_eq!((bounds(&dv, 70, 0), bounds(&dv, 70, 1)), ((INF, INF), (0, INF)));
        // The sparse merges lower `lo` with the cell and leave `hi` stale.
        assert!(dv.min_merge_local_sparse(70, &[(3, 9)]));
        assert_eq!(bounds(&dv, 70, 0), (9, INF));
        assert!(dv.min_merge_local_sparse(70, &[(5, 4), (129, 2)]));
        assert_eq!((bounds(&dv, 70, 0), bounds(&dv, 70, 2)), ((4, INF), (2, INF)));
        assert!(dv.min_merge_cached_sparse(8, &[(64, 6)]));
        assert_eq!((bounds(&dv, 8, 0), bounds(&dv, 8, 1)), ((INF, INF), (6, INF)));
        dv.check_bounds();
        // A dense merge that empties chunk 0 of its INF cells refreshes
        // the stale `hi`; chunk 1, which it does not improve, keeps its.
        let mut incoming = vec![INF; 130];
        incoming[..64].fill(7);
        assert!(dv.min_merge_local(70, &incoming));
        assert_eq!((bounds(&dv, 70, 0), bounds(&dv, 70, 1)), ((4, 7), (0, INF)));
        dv.check_bounds();
    }

    #[test]
    fn edge_merge_refreshes_the_chunks_it_empties() {
        let mut dv = DvStore::new(320);
        dv.install_local(0, &[5; 320], false);
        dv.relax_to_fixed_point(&[0], 1);
        dv.grow_columns(330);
        assert_eq!(bounds(&dv, 0, 5), (INF, INF));
        // Only the grown chunk improves through a held row of 6s over an
        // edge of weight 1; the pass leaves it without an INF cell and
        // with exact bounds, and records no other chunk.
        dv.install_cached(1, &[6; 330]);
        assert!(dv.min_merge_through(0, 1, 1));
        assert!(!dv.min_merge_through(0, 1, 2) && !dv.min_merge_through(2, 1, 0), "a missing row");
        assert_eq!(dv.row(0).unwrap()[320..], [7; 10]);
        assert_eq!((bounds(&dv, 0, 4), bounds(&dv, 0, 5)), ((5, 5), (7, 7)));
        assert_eq!(recorded(&dv, 0), (320..330).collect::<Vec<_>>());
        dv.check_bounds();
    }

    #[test]
    fn swap_remove_moves_both_bounds() {
        let mut dv = DvStore::new(70);
        for v in 0..3 {
            dv.install_local(v, &[10 + v; 70], false);
        }
        dv.remove_local(0);
        // Row 2 now sits in slot 0, with its own bounds.
        assert_eq!((bounds(&dv, 2, 0), bounds(&dv, 2, 1)), ((12, 12), (12, 12)));
        assert_eq!(bounds(&dv, 1, 1), (11, 11));
        assert_eq!((dv.local.hi.len(), dv.local.lo.len()), (4, 4));
        dv.check_bounds();
    }

    #[test]
    fn the_kernel_leaves_exact_bounds_on_the_rows_it_lowers() {
        // Five chunks. Row 0 knows the first four (all 10) and reaches the
        // cached row 300, which knows the last two.
        let mut dv = DvStore::new(320);
        let mut row = vec![10; 320];
        row[256..].fill(INF);
        (row[0], row[300]) = (0, 2);
        dv.install_local(0, &row, false);
        dv.relax_to_fixed_point(&[0], 1);
        assert_eq!(bounds(&dv, 0, 4), (2, INF));
        let mut far = vec![INF; 320];
        far[192..].fill(3);
        far[300] = 0;
        dv.min_merge_cached(300, &far);
        assert!(dv.relax_to_fixed_point(&[300], 1));
        assert_eq!(dv.row(0).unwrap()[190..194], [10, 10, 5, 5]);
        // The pass emptied chunk 4 of INF cells: its `hi` is refreshed,
        // like both bounds of chunk 3.
        assert_eq!((bounds(&dv, 0, 2), bounds(&dv, 0, 3)), ((10, 10), (5, 5)));
        assert_eq!(bounds(&dv, 0, 4), (2, 5));
        let t = dv.kernel_tally();
        // One dense pass over five chunks, of which the first three were
        // ruled out.
        assert_eq!((t.dense_passes, t.chunks_scheduled, t.chunks_relaxed, t.cells), (1, 5, 2, 128));
        dv.check_bounds();
    }

    /// Exact row of vertex `s` of the unit-weight path 0-1-…-(n-1).
    fn path_row(n: usize, s: usize) -> Vec<Dist> {
        (0..n).map(|t| t.abs_diff(s) as Dist).collect()
    }

    /// Witness of that path losing the edge `(u, u+1)`.
    fn path_cut(n: usize, u: usize) -> Witness {
        Witness::edge(path_row(n, u), path_row(n, u + 1), 1)
    }

    #[test]
    fn the_rule_raises_from_the_witnessed_length_up_and_never_the_self_cell() {
        // Path 0-1-2-3-4 losing 2-3: from vertex 1 every path to 3 and 4
        // crossed the edge (L = 2, 3), none to 0 and 2 did (L = 5, 3).
        let cut = path_cut(5, 2);
        let mut cols = Vec::new();
        let mut exact = vec![1, 0, 1, 2, 3];
        cut.raise_row(1, &mut exact, &mut cols);
        assert_eq!((exact, &cols[..]), (vec![1, 0, 1, INF, INF], &[3, 4][..]));
        // `≥`, not `>`: a cell that equals L may be the edge's own path; a
        // cell one below L is witnessed by another. INF is never "raised".
        let mut loose = vec![4, 0, 2, 1, INF];
        cols.clear();
        cut.raise_row(1, &mut loose, &mut cols);
        assert_eq!((loose, &cols[..]), (vec![4, 0, 2, 1, INF], &[][..]));
        // A row that reaches neither end is left alone, whatever it holds.
        let apart = Witness::edge(vec![0, 1, INF], vec![1, 0, INF], 1);
        let mut row = vec![7, 7, 0];
        cols.clear();
        apart.raise_row(2, &mut row, &mut cols);
        assert_eq!((row, cols.len()), (vec![7, 7, 0], 0));
        // A removed vertex: its whole row and its column go, the self
        // cells stay (L(v, v) = 0 is the one L a self cell can reach).
        let gone = Witness::vertex(vec![1, 0, 1]);
        let (mut own, mut other) = (vec![1, 0, 1], vec![0, 1, 2]);
        cols.clear();
        gone.raise_row(1, &mut own, &mut cols);
        gone.raise_row(0, &mut other, &mut cols);
        assert_eq!(
            (own, other, &cols[..]),
            (vec![INF, 0, INF], vec![0, INF, INF], &[0, 2, 1, 2][..])
        );
        assert_eq!((cut.size_bytes(), gone.size_bytes()), (12 + 2 * (8 + 20), 12 + 8 + 12));
    }

    /// The dispatched scan (AVX2 where available) must equal the portable
    /// one cell for cell, across chunk tails, saturation and `keep`.
    #[test]
    fn raise_scan_matches_portable_loop() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 7, 8, 63, 64, 65, 130, 200] {
            for round in 0..4 {
                let cell = |r: u64| if r % 7 == 0 { INF } else { (r >> 8) as Dist % 12 };
                let row: Vec<Dist> = (0..len).map(|_| cell(next())).collect();
                let ru: Vec<Dist> = (0..len).map(|_| cell(next())).collect();
                let rv: Vec<Dist> = (0..len).map(|_| cell(next())).collect();
                let (a, b) = if round == 3 { (INF - 3, 2) } else { (cell(next()), cell(next())) };
                let keep = next() as usize % len.max(1);
                let (mut fast, mut slow) = (row.clone(), row.clone());
                let (mut fast_cols, mut slow_cols) = (Vec::new(), Vec::new());
                raise_scan(&mut fast, (a, &ru), (b, &rv), keep, &mut fast_cols);
                raise_scan_scalar(&mut slow, (a, &ru), (b, &rv), keep, &mut slow_cols);
                assert_eq!((&fast, &fast_cols), (&slow, &slow_cols), "len {len} round {round}");
                let want: Vec<VertexId> = (0..len)
                    .filter(|&t| {
                        let l = a.saturating_add(ru[t]).min(b.saturating_add(rv[t]));
                        row[t] != INF && row[t] >= l && t != keep
                    })
                    .map(|t| t as VertexId)
                    .collect();
                assert_eq!(fast_cols, want, "len {len} round {round}");
                assert!((0..len)
                    .all(|t| fast[t] == if want.contains(&(t as u32)) { INF } else { row[t] }));
            }
        }
    }

    #[test]
    fn raise_marks_hi_and_leaves_lo_and_the_record() {
        // Three chunks. Local rows 10 and 100 and cached row 101 of the
        // path, exact, with nothing recorded; the path loses 99-100.
        let n = 130;
        let exact = |s: usize| path_row(n, s);
        let mut dv = DvStore::new(n);
        dv.install_local(10, &exact(10), false);
        dv.install_local(100, &exact(100), false);
        dv.install_cached(101, &exact(101));
        dv.clear_unpropagated();
        dv.clear_dirty();
        dv.take_epoch_dirty_sorted();
        dv.min_merge_local_sparse(10, &[(5, 4)]);
        dv.take_dirty_sorted();
        dv.take_epoch_dirty_sorted();
        let all_bounds = |dv: &DvStore, v| [0, 1, 2].map(|c| bounds(dv, v, c));
        let before = [10, 100, 101].map(|v| all_bounds(&dv, v));

        let raised = dv.raise(&path_cut(n, 99));
        // Row 10 loses everything right of the cut, row 100 everything
        // left of it; in slot order, columns ascending.
        assert_eq!(raised.len(), 2);
        assert_eq!((raised[0].0, &raised[0].1[..]), (10, &(100..130).collect::<Vec<_>>()[..]));
        assert_eq!((raised[1].0, &raised[1].1[..]), (100, &(0..100).collect::<Vec<_>>()[..]));
        assert_eq!(dv.row(10).unwrap()[99..101], [89, INF]);
        assert_eq!(dv.row(100).unwrap()[99..101], [INF, 0]);
        assert_eq!(dv.row(101).unwrap()[98..102], [INF, INF, 1, 0], "cached rows are raised too");
        // A chunk that lost a cell has `hi = INF`; the others keep theirs;
        // `lo` stays everywhere (stale-low on row 100's chunk 0).
        let touched =
            [(10, [false, true, true]), (100, [true, true, false]), (101, [true, true, false])];
        for ((v, touched), before) in touched.into_iter().zip(before) {
            let want: Vec<_> =
                before.iter().zip(touched).map(|(b, t)| (b.0, if t { INF } else { b.1 })).collect();
            assert_eq!(all_bounds(&dv, v).to_vec(), want, "row {v}");
        }
        dv.check_bounds();
        // The record is not touched: row 10 still owes column 5, nothing
        // else owes anything. Raised local rows are dirty on both sets.
        assert_eq!(recorded(&dv, 10), vec![5]);
        assert!(recorded(&dv, 100).is_empty() && recorded(&dv, 101).is_empty());
        assert_eq!(dv.take_dirty_sorted(), vec![10, 100]);
        assert_eq!(dv.take_epoch_dirty_sorted(), vec![10, 100]);

        // Swap-remove and growth afterwards keep every bound valid.
        dv.remove_local(10);
        assert_eq!(bounds(&dv, 100, 0), (before[1][0].0, INF));
        dv.grow_columns(140);
        dv.check_bounds();
        dv.grow_columns(400);
        dv.check_bounds();
        assert_eq!(dv.row(100).unwrap()[100..103], [0, 1, 2]);
    }

    #[test]
    fn refill_rederives_raised_cells_through_the_record() {
        // Cycle 0-1-2-3-4-5-0, unit weights, rows 0 and 1 local, 2 and 5
        // cached, everything exact and propagated. Edge 0-1 goes.
        let ring = |s: usize| -> Vec<Dist> {
            (0..6usize).map(|t| t.abs_diff(s).min(6 - t.abs_diff(s)) as Dist).collect()
        };
        let mut dv = DvStore::new(6);
        dv.install_local(0, &ring(0), false);
        dv.install_local(1, &ring(1), false);
        dv.install_cached(2, &ring(2));
        dv.install_cached(5, &ring(5));
        dv.clear_unpropagated();
        dv.clear_dirty();
        let raised = dv.raise(&Witness::edge(ring(0), ring(1), 1));
        // From 0 the edge served 1, 2 and (a tie) 3; from 1, 0, 5 and 4.
        assert_eq!(raised, vec![(0, vec![1, 2, 3]), (1, vec![0, 4, 5])]);
        assert_eq!(dv.row(0).unwrap(), &[0, INF, INF, INF, 2, 1]);
        // The cached rows lost the same paths: 5 still vouches for 3 and
        // 4, 2 for 3 and 4 — what the refill can use; the rest is RC's.
        assert_eq!(dv.row(5).unwrap(), &[1, INF, INF, 2, 1, 0]);
        assert_eq!(dv.row(2).unwrap(), &[INF, 1, 0, 1, 2, INF]);
        // Row 0 gets 3 back through 5; its one remaining edge is re-seeded
        // (a no-op here). Row 1 gets 4 back through 2.
        assert_eq!(dv.refill(0, &raised[0].1, &[(5, 1)]), 1);
        assert_eq!(dv.refill(1, &raised[1].1, &[(2, 1)]), 1);
        assert_eq!(dv.row(0).unwrap(), &[0, INF, INF, 3, 2, 1]);
        assert_eq!(dv.row(1).unwrap(), &[INF, 0, 1, 2, 3, INF]);
        // Refilled cells are recorded like any lowering, and the rows are
        // closed: seeding them lowers nothing.
        assert_eq!((recorded(&dv, 0), recorded(&dv, 1)), (vec![3], vec![4]));
        dv.check_bounds();
        assert!(!dv.relax_to_fixed_point(&[0, 1], 1));
        // Nothing held reaches: the cell stays INF and counts as not
        // refilled; a direct edge alone brings it back.
        let mut lone = DvStore::new(3);
        lone.install_local(0, &[0, INF, INF], false);
        assert_eq!(lone.refill(0, &[1, 2], &[]), 0);
        assert_eq!(lone.refill(0, &[1, 2], &[(2, 7)]), 1);
        assert_eq!(lone.row(0).unwrap(), &[0, INF, 7]);
    }

    /// The bounds as the parent commit effectively had them: nothing is
    /// ever ruled out.
    fn slacken(dv: &mut DvStore) {
        for arena in [&mut dv.local, &mut dv.cached] {
            arena.hi.fill(INF);
            arena.lo.fill(0);
        }
    }

    /// Multi-chunk rows (the op-program proptest stays under one chunk):
    /// random merges, growth and kernel calls must leave the same rows and
    /// dirty sets whether the bounds prune or are slack, and hold after
    /// every step.
    #[test]
    fn bounded_kernel_matches_the_unbounded_one_on_wide_rows() {
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(m)) as Dist
        };
        let (mut n, nl, nc) = (150usize, 12u32, 20u32);
        let mut tight = DvStore::new(n);
        for v in 0..nl {
            tight.add_local_row(v);
        }
        let mut slack = tight.clone();
        slacken(&mut slack);
        let mut pruned = false;
        for step in 0..60 {
            // A sparse-ish random row: mostly INF early on, so rows fill
            // in chunk by chunk.
            let v = next(nl + nc);
            let row: Vec<Dist> =
                (0..n).map(|_| if next(4) == 0 { 1 + next(30) } else { INF }).collect();
            let pairs: Vec<(VertexId, Dist)> =
                (0..3).map(|_| (next(n as u32), 1 + next(30))).collect();
            for dv in [&mut tight, &mut slack] {
                let changed = match (v < nl, step % 3) {
                    (true, 0) => dv.min_merge_local_sparse(v, &pairs),
                    (true, _) => dv.min_merge_local(v, &row),
                    (false, 0) => dv.min_merge_cached_sparse(v, &pairs),
                    (false, _) => dv.min_merge_cached(v, &row),
                };
                if changed {
                    dv.relax_to_fixed_point(&[v], if step % 2 == 0 { 1 } else { 4 });
                }
            }
            slacken(&mut slack);
            tight.check_bounds();
            assert_eq!(tight.local.data, slack.local.data, "step {step}");
            assert_eq!(tight.dirty_sorted(), slack.dirty_sorted(), "step {step}");
            pruned |= tight.kernel_tally().chunks_relaxed < tight.kernel_tally().chunks_scheduled;
            if step % 20 == 19 {
                // Within a chunk, then past the capacity.
                n += if step < 30 { 7 } else { 200 };
                tight.grow_columns(n);
                slack.grow_columns(n);
            }
        }
        assert!(pruned, "the bounds never ruled a chunk out");
        assert!(tight.kernel_tally().cells < slack.kernel_tally().cells);
    }

    /// Host-stable ratio gates for the bounded pass against the full
    /// [`relax_via`] pass it replaced, same box, same process (CI
    /// `perf-gate` runs this in release): pruning must pay where it
    /// prunes, and cost next to nothing on a short row where it cannot.
    #[test]
    #[ignore = "timing; run in release: cargo test --release -p aaa-core -- --ignored bounded_pass_ratios"]
    fn bounded_pass_ratios() {
        use std::hint::black_box;
        use std::time::Instant;
        // Seconds per pass, best of 5 batches. No pass improves anything,
        // so every repetition does the same work.
        let time = |pass: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let started = Instant::now();
                    for _ in 0..200_000 {
                        pass();
                    }
                    started.elapsed().as_secs_f64() / 200_000.0
                })
                .fold(f64::MAX, f64::min)
        };
        let ratio = |chunks: usize, live: usize| {
            let n = chunks * CHUNK;
            let (mut row, via) = (vec![10; n], vec![10; n]);
            // `through + lo < hi` holds on the first `live` chunks only.
            let hi: Vec<Dist> = (0..chunks).map(|c| if c < live { 20 } else { 10 }).collect();
            let lo = vec![10; chunks];
            let full = time(&mut || {
                black_box(relax_via(black_box(&mut row), black_box(5), black_box(&via)));
            });
            let (hi, lo) = ((&hi[..], min_max(&hi)), (&lo[..], min_max(&lo)));
            let bounded = time(&mut || {
                black_box(relax_via_bounded(
                    black_box(&mut row),
                    black_box(hi),
                    black_box(5),
                    black_box(&via),
                    black_box(lo),
                ));
            });
            println!(
                "{chunks} chunks, {live} live: full {:.1} ns, bounded {:.1} ns, ratio {:.2}",
                full * 1e9,
                bounded * 1e9,
                bounded / full
            );
            bounded / full
        };
        let pruned = ratio(19, 1);
        assert!(
            pruned <= 0.25,
            "one live chunk of 19 only {:.2}x faster than the full pass",
            1.0 / pruned
        );
        // Decided by the row-level test, without a mask.
        let short = ratio(5, 5);
        assert!(short <= 1.10, "a fully live 5-chunk row costs {short:.2}x the full pass");
        // Needs the mask, which finds the one dead chunk not worth a
        // restart: the full pass plus the mask.
        let masked = ratio(5, 4);
        assert!(
            masked <= 1.40,
            "a 5-chunk row with one dead chunk costs {masked:.2}x the full pass"
        );
    }

    /// A round big enough to fan out (≥ `PARALLEL_MIN_WORK` scheduled
    /// cells) must leave the same rows, dirty set and tally on 1 and 4
    /// threads.
    #[test]
    fn threaded_rounds_are_bit_identical() {
        let (n, nl, nc) = (1024usize, 16u32, 264u32);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(m)) as Dist
        };
        let mut seq = DvStore::new(n);
        for v in 0..nl {
            seq.add_local_row(v);
            let row: Vec<Dist> = (0..n).map(|_| 1 + next(60)).collect();
            seq.min_merge_local(v, &row);
        }
        for v in nl..nl + nc {
            let row: Vec<Dist> = (0..n).map(|_| 1 + next(60)).collect();
            seq.min_merge_cached(v, &row);
        }
        seq.take_dirty_sorted();
        let mut par = seq.clone();
        // Seeding the cached rows schedules `nl × nc` dense passes.
        let seeds: Vec<VertexId> = (nl..nl + nc).collect();
        assert!(nl as usize * nc as usize * n >= PARALLEL_MIN_WORK);
        assert!(seq.relax_to_fixed_point(&seeds, 1));
        assert!(par.relax_to_fixed_point(&seeds, 4));
        assert_eq!(seq.local.data, par.local.data);
        assert_eq!(seq.dirty_sorted(), par.dirty_sorted());
        assert_eq!(seq.kernel_tally(), par.kernel_tally());
        assert!(seq.kernel_tally().rounds > 1);
    }
}
