//! The snapshot data model and its one binary codec.
//!
//! The DTOs here mirror the engine's state without depending on
//! `aaa-core`. The codec is one encoder ([`Image::write_to`]) and one
//! decoder ([`read_image`]), each fed from either side. The encoder reads
//! rank rows from any [`RankRows`] source: a [`RankSnapshot`]'s tables, or
//! (in `aaa-core`) a live rank's arenas, in place. The decoder hands each
//! rank section, once its CRC verified, to an [`ImageSink`]: the one here
//! builds a [`Snapshot`], the engine's installs the rows straight into
//! fresh arenas. See the crate docs for the format appendix.

use crate::error::CheckpointError;
use crate::wire::{decode, read_array, read_section, read_u32, Stage, STAGE_BYTES};
use aaa_graph::{Dist, PartId, VertexId, Weight};
use aaa_runtime::bytes::{put_u32, put_u32s, put_u64, Cursor, ShortRead};
use aaa_runtime::{FaultCounters, RunStats};
use std::convert::Infallible;
use std::io::{Read, Write};
use std::time::Duration;

/// First 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"AAACKPT\0";

/// Format version this build writes and reads. Version 2 extended the
/// STAT section with the chaos-layer fault counters; version 3 added the
/// row-migration counters; version 4 added the optional METR section
/// listing the extra centrality metrics the engine was maintaining.
/// Older snapshots are rejected (no archives of any exist — every prior
/// format shipped unreleased).
pub const FORMAT_VERSION: u32 = 4;

/// Payload bytes of the two fixed-size sections.
const META_BYTES: usize = 4 + 3 * 8;
const STAT_BYTES: usize = 18 * 8;

/// Engine-level scalars: processor count, RC progress, the round-robin
/// assignment cursor, and the change-stream cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMeta {
    pub procs: u32,
    pub rc_steps: u64,
    pub rr_cursor: u64,
    /// How many dynamic changes the engine had absorbed when the snapshot
    /// was taken — the resume point in the caller's change stream.
    pub changes_applied: u64,
}

/// The full graph as an edge list (undirected, `u < v`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphSnapshot {
    pub num_vertices: u64,
    pub edges: Vec<(VertexId, VertexId, Weight)>,
}

/// The vertex→processor assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSnapshot {
    pub k: u32,
    pub assignment: Vec<PartId>,
}

/// A set of distance rows in one allocation: ids, where each row ends, and
/// every cell back to back. Rows keep their own lengths (a v4 file stores
/// one per row, and recovery accepts rows shorter than the current column
/// count), so rows are delimited by offsets rather than a fixed width.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowTable {
    ids: Vec<VertexId>,
    /// `ends[i]` is where row `i` stops in `cells`; it starts where row
    /// `i - 1` stopped.
    ends: Vec<usize>,
    cells: Vec<Dist>,
}

impl RowTable {
    /// An empty table with room for `rows` rows of `cells` cells in total.
    pub fn with_capacity(rows: usize, cells: usize) -> Self {
        Self {
            ids: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            cells: Vec::with_capacity(cells),
        }
    }

    /// Appends row `v`.
    pub fn push(&mut self, v: VertexId, row: &[Dist]) {
        self.cells.extend_from_slice(row);
        self.ids.push(v);
        self.ends.push(self.cells.len());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rows in insertion order.
    pub fn iter(&self) -> Rows<'_> {
        Rows { table: self, next: 0 }
    }
}

/// Borrowing iterator over a [`RowTable`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    table: &'a RowTable,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (VertexId, &'a [Dist]);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.next;
        let &v = self.table.ids.get(i)?;
        let start = if i == 0 { 0 } else { self.table.ends[i - 1] };
        self.next += 1;
        Some((v, &self.table.cells[start..self.table.ends[i]]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.table.len() - self.next;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a RowTable {
    type Item = (VertexId, &'a [Dist]);
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

impl<R: AsRef<[Dist]>> FromIterator<(VertexId, R)> for RowTable {
    fn from_iter<I: IntoIterator<Item = (VertexId, R)>>(rows: I) -> Self {
        let mut table = Self::default();
        for (v, row) in rows {
            table.push(v, row.as_ref());
        }
        table
    }
}

/// One rank's rows as the `RNKS` encoder and the installers read them: the
/// rank id, the local and the cached rows in the order they are written
/// (sorted by id), and the dirty and pending ids. The sources are a
/// [`RankSnapshot`]'s tables, a verified section payload
/// ([`RankSection`]) and, in `aaa-core`, a live rank's arenas.
pub trait RankRows {
    fn rank(&self) -> u32;

    /// `(rows, cells)` of the local (`cached == false`) or the cached table.
    fn shape(&self, cached: bool) -> (usize, usize);

    /// Calls `f` on every row of the local or the cached table, in order,
    /// and stops at its first error.
    fn try_for_each<E>(
        &self,
        cached: bool,
        f: impl FnMut(VertexId, &[Dist]) -> Result<(), E>,
    ) -> Result<(), E>;

    /// Local rows waiting to be sent, sorted.
    fn dirty(&self) -> &[VertexId];

    /// Local rows whose relaxation is still pending, sorted.
    fn pending(&self) -> &[VertexId];
}

/// Payload bytes of the `RNKS` section `rows` encodes to.
fn rank_section_len(rows: &impl RankRows) -> usize {
    let table = |cached| {
        let (n, cells) = rows.shape(cached);
        8 + 12 * n + 4 * cells
    };
    let ids = |v: &[VertexId]| 8 + 4 * v.len();
    4 + table(false) + table(true) + ids(rows.dirty()) + ids(rows.pending())
}

/// One rank's distance-vector state: local rows, cached external-boundary
/// rows, the dirty mask, and pending dynamic-update pivots. Adjacency and
/// ownership are *not* stored — they are rebuilt deterministically from
/// the graph and partition sections.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankSnapshot {
    pub rank: u32,
    pub local: RowTable,
    pub cached: RowTable,
    pub dirty: Vec<VertexId>,
    pub pending: Vec<VertexId>,
}

impl RankSnapshot {
    /// Copies any row source into tables sized exactly from its shape.
    pub fn from_rows(rows: &impl RankRows) -> Self {
        let table = |cached| {
            let (n, cells) = rows.shape(cached);
            let mut table = RowTable::with_capacity(n, cells);
            let copied: Result<(), Infallible> = rows.try_for_each(cached, |v, row| {
                table.push(v, row);
                Ok(())
            });
            copied.unwrap_or_else(|never| match never {});
            table
        };
        Self {
            rank: rows.rank(),
            local: table(false),
            cached: table(true),
            dirty: rows.dirty().to_vec(),
            pending: rows.pending().to_vec(),
        }
    }

    /// Bytes this rank's rows occupy on the wire (8-byte header + 4 bytes
    /// per entry, mirroring `RowMsg` pricing).
    pub fn row_bytes(&self) -> usize {
        [&self.local, &self.cached].iter().map(|t| 8 * t.len() + 4 * t.cells.len()).sum()
    }

    fn table(&self, cached: bool) -> &RowTable {
        if cached {
            &self.cached
        } else {
            &self.local
        }
    }
}

impl RankRows for RankSnapshot {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn shape(&self, cached: bool) -> (usize, usize) {
        let table = self.table(cached);
        (table.len(), table.cells.len())
    }

    fn try_for_each<E>(
        &self,
        cached: bool,
        mut f: impl FnMut(VertexId, &[Dist]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.table(cached).iter().try_for_each(|(v, row)| f(v, row))
    }

    fn dirty(&self) -> &[VertexId] {
        &self.dirty
    }

    fn pending(&self) -> &[VertexId] {
        &self.pending
    }
}

/// A complete engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub meta: EngineMeta,
    pub graph: GraphSnapshot,
    pub partition: PartitionSnapshot,
    pub stats: RunStats,
    pub ranks: Vec<RankSnapshot>,
    /// Wire ids of the extra metrics (beyond closeness) the engine was
    /// maintaining when the snapshot was taken. Metric *state* is not
    /// persisted — it is rebuilt from the restored DV rows on the first
    /// publish after restore — so only the identity of each metric is
    /// recorded. Empty on closeness-only snapshots, in which case the
    /// METR section is omitted entirely.
    pub metrics: Vec<u8>,
}

impl Snapshot {
    /// The snapshot of one rank, if present.
    pub fn rank(&self, rank: usize) -> Option<&RankSnapshot> {
        self.ranks.iter().find(|r| r.rank as usize == rank)
    }

    /// The encoder's view of this snapshot.
    fn image(&self) -> Image<'_, RankSnapshot> {
        Image {
            meta: self.meta,
            graph: &self.graph,
            partition: &self.partition,
            stats: &self.stats,
            metrics: &self.metrics,
            ranks: &self.ranks,
        }
    }

    /// Serializes to the current binary format ([`FORMAT_VERSION`]).
    pub fn write_to(&self, w: impl Write) -> Result<(), CheckpointError> {
        self.image().write_to(w)
    }

    /// Serializes to an in-memory buffer.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        self.image().to_bytes()
    }

    /// Deserializes from the current binary format, verifying magic,
    /// version, section structure, every CRC and the consistency rules of
    /// [`read_image`]. All failure modes are typed [`CheckpointError`]s.
    pub fn read_from(r: impl Read) -> Result<Self, CheckpointError> {
        let mut sink = Collect::default();
        let trailer = read_image(r, &mut sink)?;
        let (graph, partition) = sink.header.expect("read_image hands the header over");
        let Trailer { meta, stats, metrics } = trailer;
        Ok(Snapshot { meta, graph, partition, stats, ranks: sink.ranks, metrics })
    }

    /// Deserializes from an in-memory buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::read_from(bytes)
    }

    /// The consistency rules [`read_image`] enforces on a file, for a
    /// snapshot built or edited in memory: one part per processor, and
    /// exactly one rank section per rank.
    pub fn check(&self) -> Result<(), CheckpointError> {
        check_parts(&self.meta, &self.partition)?;
        let mut seen = Vec::new();
        for rs in &self.ranks {
            admit_rank(&mut seen, rs.rank, self.meta.procs)?;
        }
        check_rank_count(&seen, self.meta.procs)
    }
}

/// What the encoder writes: a snapshot's scalars, graph and partition
/// borrowed whole, and its ranks as row sources.
#[derive(Debug)]
pub struct Image<'a, R> {
    pub meta: EngineMeta,
    pub graph: &'a GraphSnapshot,
    pub partition: &'a PartitionSnapshot,
    pub stats: &'a RunStats,
    pub metrics: &'a [u8],
    pub ranks: &'a [R],
}

impl<R: RankRows> Image<'_, R> {
    /// Payload bytes of every section, in file order.
    fn section_lens(&self) -> impl Iterator<Item = usize> + '_ {
        let graph = 16 + 12 * self.graph.edges.len();
        let partition = 12 + 4 * self.partition.assignment.len();
        let metrics = (!self.metrics.is_empty()).then_some(4 + self.metrics.len());
        [META_BYTES, graph, partition, STAT_BYTES]
            .into_iter()
            .chain(metrics)
            .chain(self.ranks.iter().map(rank_section_len))
    }

    /// Bytes the image encodes to: the file header and every framed
    /// section (tag, length, payload, CRC).
    fn encoded_len(&self) -> usize {
        MAGIC.len() + 8 + self.section_lens().map(|payload| 16 + payload).sum::<usize>()
    }

    /// Serializes to the current binary format ([`FORMAT_VERSION`]) into
    /// `w`, a stage at a time.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        let out = Stage::new(Vec::with_capacity(2 * STAGE_BYTES), |buf: &mut Vec<u8>| {
            w.write_all(buf)?;
            buf.clear();
            Ok(())
        });
        self.encode(out).map(drop)
    }

    /// Serializes into a buffer sized exactly from the section lengths:
    /// the rows are encoded straight into it, and it never re-allocates.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let len = self.encoded_len();
        let bytes = self.encode(Stage::new(Vec::with_capacity(len), |_: &mut Vec<u8>| Ok(())))?;
        debug_assert_eq!(bytes.len(), len, "encoded_len disagrees with the encoder");
        Ok(bytes)
    }

    /// The one encoder: every section, in file order, into `out`.
    fn encode<F>(&self, mut out: Stage<F>) -> Result<Vec<u8>, CheckpointError>
    where
        F: FnMut(&mut Vec<u8>) -> Result<(), CheckpointError>,
    {
        out.buf.extend_from_slice(&MAGIC);
        out.buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.buf.extend_from_slice(&(self.section_lens().count() as u32).to_le_bytes());
        let mut lens = self.section_lens().map(|len| len as u64);
        let mut len = || lens.next().expect("one length per section");

        out.begin(b"META", len());
        let p = &mut out.buf;
        put_u32(p, self.meta.procs);
        put_u64(p, self.meta.rc_steps);
        put_u64(p, self.meta.rr_cursor);
        put_u64(p, self.meta.changes_applied);
        out.finish()?;

        out.begin(b"GRPH", len());
        let p = &mut out.buf;
        put_u64(p, self.graph.num_vertices);
        put_u64(p, self.graph.edges.len() as u64);
        for &(u, v, wt) in &self.graph.edges {
            put_u32(p, u);
            put_u32(p, v);
            put_u32(p, wt);
        }
        out.finish()?;

        out.begin(b"PART", len());
        let p = &mut out.buf;
        put_u32(p, self.partition.k);
        put_u64(p, self.partition.assignment.len() as u64);
        put_u32s(p, &self.partition.assignment);
        out.finish()?;

        out.begin(b"STAT", len());
        let (p, s) = (&mut out.buf, self.stats);
        put_u64(p, s.messages);
        put_u64(p, s.bytes);
        put_u64(p, s.sim_comm_us.to_bits());
        put_u64(p, s.sim_compute_us.to_bits());
        put_u64(p, s.supersteps);
        put_u64(p, s.collectives);
        put_u64(p, s.checkpoints);
        put_u64(p, s.restores);
        put_u64(p, s.migrations);
        put_u64(p, s.migrated_rows);
        put_u64(p, s.migration_bytes);
        put_u64(p, s.faults.dropped);
        put_u64(p, s.faults.duplicated);
        put_u64(p, s.faults.delayed);
        put_u64(p, s.faults.corrupted);
        put_u64(p, s.faults.stalls);
        put_u64(p, s.faults.retransmits);
        put_u64(p, s.wall.as_nanos() as u64);
        out.finish()?;

        if !self.metrics.is_empty() {
            out.begin(b"METR", len());
            put_u32(&mut out.buf, self.metrics.len() as u32);
            out.buf.extend_from_slice(self.metrics);
            out.finish()?;
        }

        for rows in self.ranks {
            write_rank(&mut out, len(), rows)?;
        }
        out.end()
    }

    /// Copies the image into an owned [`Snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            meta: self.meta,
            graph: self.graph.clone(),
            partition: self.partition.clone(),
            stats: *self.stats,
            ranks: self.ranks.iter().map(RankSnapshot::from_rows).collect(),
            metrics: self.metrics.to_vec(),
        }
    }
}

/// Writes one rank's `RNKS` section of `len` payload bytes, the one writer
/// of the big sections. Each row is encoded straight from its source into
/// the stage and checksummed there a stage at a time, while still in cache.
fn write_rank<F>(out: &mut Stage<F>, len: u64, rows: &impl RankRows) -> Result<(), CheckpointError>
where
    F: FnMut(&mut Vec<u8>) -> Result<(), CheckpointError>,
{
    out.begin(b"RNKS", len);
    put_u32(&mut out.buf, rows.rank());
    for cached in [false, true] {
        put_u64(&mut out.buf, rows.shape(cached).0 as u64);
        rows.try_for_each(cached, |v, row| {
            put_u32(&mut out.buf, v);
            put_u64(&mut out.buf, row.len() as u64);
            put_u32s(&mut out.buf, row);
            out.seal_full()
        })?;
    }
    for ids in [rows.dirty(), rows.pending()] {
        put_u64(&mut out.buf, ids.len() as u64);
        put_u32s(&mut out.buf, ids);
    }
    out.finish()
}

/// A verified `RNKS` payload, walked once when decoded to check its
/// structure and count its cells. As a row source it decodes each row
/// from the payload bytes as it hands it out.
#[derive(Debug, Clone)]
pub struct RankSection<'a> {
    rank: u32,
    /// The local and the cached table: their rows' bytes, rows and cells.
    tables: [(&'a [u8], usize, usize); 2],
    dirty: Vec<VertexId>,
    pending: Vec<VertexId>,
}

const WALKED: &str = "the section was walked when it was decoded";

impl<'a> RankSection<'a> {
    fn decode(payload: &'a [u8]) -> Result<Self, CheckpointError> {
        // Every row costs at least its 12-byte header, so the payload
        // length bounds rows and cells alike.
        let table = |p: &mut Cursor<'a>| -> Result<_, ShortRead> {
            let rows = p.count_u64(12)?;
            let mut walk = p.clone();
            let mut cells = 0;
            for _ in 0..rows {
                walk.u32()?;
                let len = walk.count_u64(4)?;
                walk.take(4 * len)?;
                cells += len;
            }
            Ok((p.take(p.remaining() - walk.remaining())?, rows, cells))
        };
        let ids = |p: &mut Cursor<'a>| -> Result<_, ShortRead> {
            let n = p.count_u64(4)?;
            let mut ids = Vec::with_capacity(n);
            p.u32s(n, &mut ids)?;
            Ok(ids)
        };
        decode(payload, "RNKS", |p| {
            Ok(Self {
                rank: p.u32()?,
                tables: [table(p)?, table(p)?],
                dirty: ids(p)?,
                pending: ids(p)?,
            })
        })
    }
}

impl RankRows for RankSection<'_> {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn shape(&self, cached: bool) -> (usize, usize) {
        let (_, rows, cells) = self.tables[usize::from(cached)];
        (rows, cells)
    }

    fn try_for_each<E>(
        &self,
        cached: bool,
        mut f: impl FnMut(VertexId, &[Dist]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (bytes, rows, _) = self.tables[usize::from(cached)];
        let mut p = Cursor::new(bytes);
        let mut row = Vec::new();
        for _ in 0..rows {
            let v = p.u32().expect(WALKED);
            let len = p.count_u64(4).expect(WALKED);
            row.clear();
            p.u32s(len, &mut row).expect(WALKED);
            f(v, &row)?;
        }
        Ok(())
    }

    fn dirty(&self) -> &[VertexId] {
        &self.dirty
    }

    fn pending(&self) -> &[VertexId] {
        &self.pending
    }
}

/// Where [`read_image`] hands a snapshot over, part by part, each part
/// only after its section's CRC verified and its fields decoded.
pub trait ImageSink {
    type Error: From<CheckpointError>;

    /// META, GRPH and PART, with one part per processor. Called once,
    /// before the first rank section.
    fn header(
        &mut self,
        meta: EngineMeta,
        graph: GraphSnapshot,
        partition: PartitionSnapshot,
    ) -> Result<(), Self::Error>;

    /// One rank section. Its rank id is below `meta.procs` and no earlier
    /// section carried it.
    fn rank(&mut self, rows: &RankSection<'_>) -> Result<(), Self::Error>;
}

/// What [`read_image`] returns once every section has been handed over.
#[derive(Debug, Clone, PartialEq)]
pub struct Trailer {
    pub meta: EngineMeta,
    pub stats: RunStats,
    /// The METR section's wire ids; empty when the file has none.
    pub metrics: Vec<u8>,
}

/// Decodes a snapshot from `r` into `sink`: magic, version, section
/// structure, every CRC, and the consistency rules (one part per
/// processor; each rank id below `procs`, in exactly one section; META,
/// GRPH and PART before the first rank section). Sections are read one at
/// a time into one buffer reused across them, so beyond what the sink
/// keeps at most one section is held, never a whole image. Every failure
/// is a typed [`CheckpointError`], or the sink's own error.
pub fn read_image<S: ImageSink>(mut r: impl Read, sink: &mut S) -> Result<Trailer, S::Error> {
    let magic: [u8; 8] = read_array(&mut r, "header")?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic { found: magic }.into());
    }
    let version = read_u32(&mut r, "header")?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        }
        .into());
    }
    let sections = read_u32(&mut r, "header")?;

    let mut meta: Option<EngineMeta> = None;
    let mut graph: Option<GraphSnapshot> = None;
    let mut partition: Option<PartitionSnapshot> = None;
    let mut stats: Option<RunStats> = None;
    let mut metrics: Option<Vec<u8>> = None;
    let mut tags: Vec<[u8; 4]> = Vec::new();
    let mut ranks: Vec<u32> = Vec::new();
    let mut handed_over = false;

    let mut payload = Vec::new();
    for _ in 0..sections {
        let tag = read_section(&mut r, &mut payload)?;
        if &tag != b"RNKS" {
            if tags.contains(&tag) {
                let tag = String::from_utf8_lossy(&tag);
                return Err(CheckpointError::Malformed(format!("duplicate {tag} section")).into());
            }
            tags.push(tag);
        }
        match &tag {
            b"META" => {
                meta = Some(decode(&payload, "META", |p| {
                    Ok(EngineMeta {
                        procs: p.u32()?,
                        rc_steps: p.u64()?,
                        rr_cursor: p.u64()?,
                        changes_applied: p.u64()?,
                    })
                })?);
            }
            b"GRPH" => {
                graph = Some(decode(&payload, "GRPH", |p| {
                    let num_vertices = p.u64()?;
                    let m = p.count_u64(12)?;
                    let mut edges = Vec::with_capacity(m);
                    for _ in 0..m {
                        edges.push((p.u32()?, p.u32()?, p.u32()?));
                    }
                    Ok(GraphSnapshot { num_vertices, edges })
                })?);
            }
            b"PART" => {
                partition = Some(decode(&payload, "PART", |p| {
                    let k = p.u32()?;
                    let len = p.count_u64(4)?;
                    let mut assignment = Vec::with_capacity(len);
                    p.u32s(len, &mut assignment)?;
                    Ok(PartitionSnapshot { k, assignment })
                })?);
            }
            b"STAT" => {
                stats = Some(decode(&payload, "STAT", |p| {
                    Ok(RunStats {
                        messages: p.u64()?,
                        bytes: p.u64()?,
                        sim_comm_us: f64::from_bits(p.u64()?),
                        sim_compute_us: f64::from_bits(p.u64()?),
                        supersteps: p.u64()?,
                        collectives: p.u64()?,
                        checkpoints: p.u64()?,
                        restores: p.u64()?,
                        migrations: p.u64()?,
                        migrated_rows: p.u64()?,
                        migration_bytes: p.u64()?,
                        faults: FaultCounters {
                            dropped: p.u64()?,
                            duplicated: p.u64()?,
                            delayed: p.u64()?,
                            corrupted: p.u64()?,
                            stalls: p.u64()?,
                            retransmits: p.u64()?,
                        },
                        wall: Duration::from_nanos(p.u64()?),
                    })
                })?);
            }
            b"METR" => {
                let ids = decode(&payload, "METR", |p| {
                    let n = p.u32()? as usize;
                    Ok(p.take(n)?.to_vec())
                })?;
                if ids.is_empty() {
                    // The writer omits the section entirely when there
                    // are no extra metrics; an empty one is corruption.
                    return Err(CheckpointError::Malformed("empty METR section".into()).into());
                }
                metrics = Some(ids);
            }
            b"RNKS" => {
                let section = RankSection::decode(&payload)?;
                if !handed_over {
                    hand_over(sink, meta, &mut graph, &mut partition)?;
                    handed_over = true;
                }
                let procs = meta.expect("handed over with the header").procs;
                admit_rank(&mut ranks, section.rank, procs)?;
                sink.rank(&section)?;
            }
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(other)
                ))
                .into());
            }
        }
    }

    if !handed_over {
        hand_over(sink, meta, &mut graph, &mut partition)?;
    }
    let meta = meta.expect("handed over with the header");
    let stats = stats.ok_or_else(|| missing("STAT"))?;
    check_rank_count(&ranks, meta.procs)?;
    // Trailing bytes after the declared sections are corruption.
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => {
            return Err(
                CheckpointError::Malformed("trailing bytes after final section".into()).into()
            )
        }
        Err(e) => return Err(CheckpointError::from(e).into()),
    }
    Ok(Trailer { meta, stats, metrics: metrics.unwrap_or_default() })
}

fn missing(section: &str) -> CheckpointError {
    CheckpointError::Malformed(format!("missing {section} section"))
}

/// Hands META, GRPH and PART to the sink: all three must have been read,
/// and the partition must have one part per processor.
fn hand_over<S: ImageSink>(
    sink: &mut S,
    meta: Option<EngineMeta>,
    graph: &mut Option<GraphSnapshot>,
    partition: &mut Option<PartitionSnapshot>,
) -> Result<(), S::Error> {
    let meta = meta.ok_or_else(|| missing("META"))?;
    let graph = graph.take().ok_or_else(|| missing("GRPH"))?;
    let partition = partition.take().ok_or_else(|| missing("PART"))?;
    check_parts(&meta, &partition)?;
    sink.header(meta, graph, partition)
}

/// A rank reads its part ids as rank indices, so there is one part per
/// processor.
fn check_parts(meta: &EngineMeta, partition: &PartitionSnapshot) -> Result<(), CheckpointError> {
    if partition.k == meta.procs {
        return Ok(());
    }
    Err(CheckpointError::Malformed(format!(
        "partition has {} parts for {} procs",
        partition.k, meta.procs
    )))
}

/// Admits the section of `rank` unless the rank is out of range or an
/// earlier section carried it.
fn admit_rank(seen: &mut Vec<u32>, rank: u32, procs: u32) -> Result<(), CheckpointError> {
    if rank >= procs {
        return Err(CheckpointError::Malformed(format!("rank section {rank} for {procs} procs")));
    }
    if seen.contains(&rank) {
        return Err(CheckpointError::Malformed(format!("repeated rank section {rank}")));
    }
    seen.push(rank);
    Ok(())
}

fn check_rank_count(seen: &[u32], procs: u32) -> Result<(), CheckpointError> {
    if seen.len() == procs as usize {
        return Ok(());
    }
    Err(CheckpointError::Malformed(format!(
        "snapshot has {} rank sections for {procs} procs",
        seen.len()
    )))
}

/// The sink behind [`Snapshot::read_from`]: each rank's rows copied into
/// tables sized exactly from its section.
#[derive(Default)]
struct Collect {
    header: Option<(GraphSnapshot, PartitionSnapshot)>,
    ranks: Vec<RankSnapshot>,
}

impl ImageSink for Collect {
    type Error = CheckpointError;

    fn header(
        &mut self,
        _meta: EngineMeta,
        graph: GraphSnapshot,
        partition: PartitionSnapshot,
    ) -> Result<(), CheckpointError> {
        self.header = Some((graph, partition));
        Ok(())
    }

    fn rank(&mut self, rows: &RankSection<'_>) -> Result<(), CheckpointError> {
        self.ranks.push(RankSnapshot::from_rows(rows));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            meta: EngineMeta { procs: 2, rc_steps: 5, rr_cursor: 1, changes_applied: 3 },
            graph: GraphSnapshot { num_vertices: 4, edges: vec![(0, 1, 1), (1, 2, 2), (2, 3, 1)] },
            partition: PartitionSnapshot { k: 2, assignment: vec![0, 0, 1, 1] },
            stats: RunStats {
                messages: 12,
                bytes: 480,
                sim_comm_us: 3.5,
                sim_compute_us: 7.25,
                supersteps: 6,
                collectives: 2,
                checkpoints: 1,
                restores: 0,
                migrations: 2,
                migrated_rows: 6,
                migration_bytes: 144,
                faults: FaultCounters {
                    dropped: 3,
                    duplicated: 1,
                    delayed: 2,
                    corrupted: 1,
                    stalls: 1,
                    retransmits: 9,
                },
                wall: Duration::from_micros(1234),
            },
            ranks: vec![
                RankSnapshot {
                    rank: 0,
                    local: [(0, [0, 1, 3, 4]), (1, [1, 0, 2, 3])].into_iter().collect(),
                    cached: [(2, [3, 2, 0, 1])].into_iter().collect(),
                    dirty: vec![1],
                    pending: vec![],
                },
                RankSnapshot {
                    rank: 1,
                    local: [(2, [3, 2, 0, 1]), (3, [4, 3, 1, 0])].into_iter().collect(),
                    cached: RowTable::default(),
                    dirty: vec![],
                    pending: vec![3],
                },
            ],
            metrics: vec![1],
        }
    }

    /// `sample().to_bytes()` as written by the commit before the shared byte
    /// layer (byte-table CRC, element-wise rows, per-row `Vec`s): the v4
    /// format is pinned by bytes an older writer produced, not by this one.
    const SAMPLE_V4_HEX: &str = concat!(
        "414141434b50540004000000070000004d4554411c0000000000000002000000050000000000000001000000",
        "000000000300000000000000d9e0df4b47525048340000000000000004000000000000000300000000000000",
        "00000000010000000100000001000000020000000200000002000000030000000100000005813d2850415254",
        "1c000000000000000200000004000000000000000000000000000000010000000100000077740b9e53544154",
        "90000000000000000c00000000000000e0010000000000000000000000000c400000000000001d4006000000",
        "0000000002000000000000000100000000000000000000000000000002000000000000000600000000000000",
        "9000000000000000030000000000000001000000000000000200000000000000010000000000000001000000",
        "00000000090000000000000050d412000000000024309d0c4d455452050000000000000001000000013bee45",
        "8c524e4b537c0000000000000000000000020000000000000000000000040000000000000000000000010000",
        "0003000000040000000100000004000000000000000100000000000000020000000300000001000000000000",
        "0002000000040000000000000003000000020000000000000001000000010000000000000001000000000000",
        "0000000000af012200524e4b5360000000000000000100000002000000000000000200000004000000000000",
        "0003000000020000000000000001000000030000000400000000000000040000000300000001000000000000",
        "0000000000000000000000000000000000010000000000000003000000ea671a6c",
    );

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn v4_bytes_from_the_previous_writer_are_reproduced_and_accepted() {
        let golden = unhex(SAMPLE_V4_HEX);
        assert_eq!(golden.len(), 605);
        assert_eq!(sample().to_bytes().unwrap(), golden, "writer drifted from the v4 bytes");
        assert_eq!(Snapshot::from_bytes(&golden).unwrap(), sample(), "reader rejects v4 bytes");
    }

    #[test]
    fn row_table_keeps_ragged_rows_apart() {
        let mut t = RowTable::with_capacity(3, 4);
        t.push(7, &[1, 2, 3]);
        t.push(2, &[]);
        t.push(9, &[4]);
        assert_eq!(t.len(), 3);
        let rows: Vec<(VertexId, &[Dist])> = t.iter().collect();
        assert_eq!(rows, [(7, &[1, 2, 3][..]), (2, &[][..]), (9, &[4][..])]);
        assert_eq!(t.iter().size_hint(), (3, Some(3)));
        let collected: RowTable = rows.into_iter().collect();
        assert_eq!(collected, t);
        // Same cells, different split: not the same table.
        let other: RowTable = [(7, vec![1, 2]), (2, vec![3]), (9, vec![4])].into_iter().collect();
        assert_ne!(other, t);
        assert!(RowTable::default().is_empty() && RowTable::default().iter().next().is_none());

        // Ragged rows survive the wire, lengths included.
        let mut s = sample();
        s.ranks[0].local = t;
        let back = Snapshot::from_bytes(&s.to_bytes().unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sections_larger_than_the_staging_buffer_roundtrip() {
        // 3 × 40 rows of 1,000 cells: each table alone overflows
        // `STAGE_BYTES`, so the section is checksummed and written in
        // several pieces — which the reader's whole-payload CRC verifies.
        let mut s = sample();
        let table = |salt: u32| -> RowTable {
            (0..40u32)
                .map(|v| (v, (0..1000).map(|c| v * 1000 + c + salt).collect::<Vec<_>>()))
                .collect()
        };
        s.ranks[0].local = table(0);
        s.ranks[0].cached = table(7);
        s.ranks[1].cached = table(9);
        assert!(rank_section_len(&s.ranks[0]) > 4 * STAGE_BYTES);
        let bytes = s.to_bytes().unwrap();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample();
        let bytes = s.to_bytes().unwrap();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.rank(1).unwrap().local.len(), 2);
        assert!(back.rank(9).is_none());
    }

    #[test]
    fn metr_section_is_omitted_when_empty_and_roundtrips_when_present() {
        // Closeness-only snapshot: no METR section on the wire.
        let mut s = sample();
        s.metrics.clear();
        let bytes = s.to_bytes().unwrap();
        assert!(!bytes.windows(4).any(|w| w == b"METR"));
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert!(back.metrics.is_empty());

        // Snapshot with extra metrics carries them through.
        let s = sample();
        let bytes = s.to_bytes().unwrap();
        assert!(bytes.windows(4).any(|w| w == b"METR"));
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap().metrics, vec![1]);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(CheckpointError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8] = 99; // version LE byte 0
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            match Snapshot::from_bytes(&bytes[..cut]) {
                Err(CheckpointError::Truncated { .. }) | Err(CheckpointError::Malformed(_)) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_corruption_is_crc_mismatch() {
        let good = sample().to_bytes().unwrap();
        // Flip a byte inside the GRPH payload (past header + META section).
        let mut bytes = good.clone();
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x55;
        match Snapshot::from_bytes(&bytes) {
            Ok(s) => assert_eq!(s, sample(), "flip must not silently alter content"),
            Err(
                CheckpointError::CrcMismatch { .. }
                | CheckpointError::Malformed(_)
                | CheckpointError::Truncated { .. },
            ) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes.push(0);
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn row_bytes_accounting() {
        let s = sample();
        // Rank 0: 3 rows × (8 + 4·4) = 72.
        assert_eq!(s.ranks[0].row_bytes(), 72);
    }
}
