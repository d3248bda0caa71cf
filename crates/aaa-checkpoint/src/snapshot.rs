//! The snapshot data model and its versioned binary encoding.
//!
//! The DTOs here mirror the engine's state without depending on
//! `aaa-core`: the engine converts itself to/from a [`Snapshot`] and this
//! module owns the bytes. See the crate docs for the full format appendix.

use crate::error::CheckpointError;
use crate::wire::{decode, read_array, read_section, read_u32, write_section, SectionWriter};
use aaa_graph::{Dist, PartId, VertexId, Weight};
use aaa_runtime::bytes::{put_u32, put_u32s, put_u64, Cursor, ShortRead};
use aaa_runtime::{FaultCounters, RunStats};
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

/// How much of a rank section is staged before it is checksummed and
/// written: small enough to stay in cache, large enough to amortise a
/// `write` call.
const STAGE_BYTES: usize = 64 << 10;

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
    /// Bytes this rank's rows occupy on the wire (8-byte header + 4 bytes
    /// per entry, mirroring `RowMsg` pricing).
    pub fn row_bytes(&self) -> usize {
        [&self.local, &self.cached].iter().map(|t| 8 * t.len() + 4 * t.cells.len()).sum()
    }

    /// Payload bytes of this rank's `RNKS` section.
    fn section_len(&self) -> usize {
        let rows = |t: &RowTable| 8 + 12 * t.len() + 4 * t.cells.len();
        let ids = |v: &[VertexId]| 8 + 4 * v.len();
        4 + rows(&self.local) + rows(&self.cached) + ids(&self.dirty) + ids(&self.pending)
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

    /// Serializes to the current binary format ([`FORMAT_VERSION`]).
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        let sections = 4 + self.ranks.len() as u32 + if self.metrics.is_empty() { 0 } else { 1 };
        w.write_all(&sections.to_le_bytes())?;

        let mut p = Vec::new();
        put_u32(&mut p, self.meta.procs);
        put_u64(&mut p, self.meta.rc_steps);
        put_u64(&mut p, self.meta.rr_cursor);
        put_u64(&mut p, self.meta.changes_applied);
        write_section(&mut w, b"META", &p)?;

        p.clear();
        put_u64(&mut p, self.graph.num_vertices);
        put_u64(&mut p, self.graph.edges.len() as u64);
        for &(u, v, wt) in &self.graph.edges {
            put_u32(&mut p, u);
            put_u32(&mut p, v);
            put_u32(&mut p, wt);
        }
        write_section(&mut w, b"GRPH", &p)?;

        p.clear();
        put_u32(&mut p, self.partition.k);
        put_u64(&mut p, self.partition.assignment.len() as u64);
        put_u32s(&mut p, &self.partition.assignment);
        write_section(&mut w, b"PART", &p)?;

        p.clear();
        put_u64(&mut p, self.stats.messages);
        put_u64(&mut p, self.stats.bytes);
        put_u64(&mut p, self.stats.sim_comm_us.to_bits());
        put_u64(&mut p, self.stats.sim_compute_us.to_bits());
        put_u64(&mut p, self.stats.supersteps);
        put_u64(&mut p, self.stats.collectives);
        put_u64(&mut p, self.stats.checkpoints);
        put_u64(&mut p, self.stats.restores);
        put_u64(&mut p, self.stats.migrations);
        put_u64(&mut p, self.stats.migrated_rows);
        put_u64(&mut p, self.stats.migration_bytes);
        put_u64(&mut p, self.stats.faults.dropped);
        put_u64(&mut p, self.stats.faults.duplicated);
        put_u64(&mut p, self.stats.faults.delayed);
        put_u64(&mut p, self.stats.faults.corrupted);
        put_u64(&mut p, self.stats.faults.stalls);
        put_u64(&mut p, self.stats.faults.retransmits);
        put_u64(&mut p, self.stats.wall.as_nanos() as u64);
        write_section(&mut w, b"STAT", &p)?;

        if !self.metrics.is_empty() {
            p.clear();
            put_u32(&mut p, self.metrics.len() as u32);
            for &id in &self.metrics {
                p.push(id);
            }
            write_section(&mut w, b"METR", &p)?;
        }

        for rs in &self.ranks {
            // The big sections: streamed through `p` a few rows at a time,
            // so rows are checksummed and written while still in cache and
            // an unbuffered writer still sees large writes.
            let mut section = SectionWriter::begin(&mut w, b"RNKS", rs.section_len() as u64)?;
            p.clear();
            put_u32(&mut p, rs.rank);
            for rows in [&rs.local, &rs.cached] {
                put_u64(&mut p, rows.len() as u64);
                for (v, row) in rows {
                    put_u32(&mut p, v);
                    put_u64(&mut p, row.len() as u64);
                    put_u32s(&mut p, row);
                    if p.len() >= STAGE_BYTES {
                        section.put(&p)?;
                        p.clear();
                    }
                }
            }
            for ids in [&rs.dirty, &rs.pending] {
                put_u64(&mut p, ids.len() as u64);
                put_u32s(&mut p, ids);
            }
            section.put(&p)?;
            section.finish()?;
        }
        Ok(())
    }

    /// Serializes to an in-memory buffer.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        Ok(buf)
    }

    /// Deserializes from the current binary format, verifying magic,
    /// version, section structure and every CRC. All failure modes are
    /// typed [`CheckpointError`]s.
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let magic: [u8; 8] = read_array(&mut r, "header")?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic { found: magic });
        }
        let version = read_u32(&mut r, "header")?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let sections = read_u32(&mut r, "header")?;

        let mut meta: Option<EngineMeta> = None;
        let mut graph: Option<GraphSnapshot> = None;
        let mut partition: Option<PartitionSnapshot> = None;
        let mut stats: Option<RunStats> = None;
        let mut ranks: Vec<RankSnapshot> = Vec::new();
        let mut metrics: Option<Vec<u8>> = None;

        let mut payload = Vec::new();
        for _ in 0..sections {
            let tag = read_section(&mut r, &mut payload)?;
            match &tag {
                b"META" => {
                    let m = decode(&payload, "META", |p| {
                        Ok(EngineMeta {
                            procs: p.u32()?,
                            rc_steps: p.u64()?,
                            rr_cursor: p.u64()?,
                            changes_applied: p.u64()?,
                        })
                    })?;
                    if meta.replace(m).is_some() {
                        return Err(CheckpointError::Malformed("duplicate META section".into()));
                    }
                }
                b"GRPH" => {
                    let g = decode(&payload, "GRPH", |p| {
                        let num_vertices = p.u64()?;
                        let m = p.count_u64(12)?;
                        let mut edges = Vec::with_capacity(m);
                        for _ in 0..m {
                            edges.push((p.u32()?, p.u32()?, p.u32()?));
                        }
                        Ok(GraphSnapshot { num_vertices, edges })
                    })?;
                    if graph.replace(g).is_some() {
                        return Err(CheckpointError::Malformed("duplicate GRPH section".into()));
                    }
                }
                b"PART" => {
                    let part = decode(&payload, "PART", |p| {
                        let k = p.u32()?;
                        let len = p.count_u64(4)?;
                        let mut assignment = Vec::with_capacity(len);
                        p.u32s(len, &mut assignment)?;
                        Ok(PartitionSnapshot { k, assignment })
                    })?;
                    if partition.replace(part).is_some() {
                        return Err(CheckpointError::Malformed("duplicate PART section".into()));
                    }
                }
                b"STAT" => {
                    let s = decode(&payload, "STAT", |p| {
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
                    })?;
                    if stats.replace(s).is_some() {
                        return Err(CheckpointError::Malformed("duplicate STAT section".into()));
                    }
                }
                b"METR" => {
                    let ids = decode(&payload, "METR", |p| {
                        let n = p.u32()? as usize;
                        Ok(p.take(n)?.to_vec())
                    })?;
                    if ids.is_empty() {
                        // The writer omits the section entirely when there
                        // are no extra metrics; an empty one is corruption.
                        return Err(CheckpointError::Malformed("empty METR section".into()));
                    }
                    if metrics.replace(ids).is_some() {
                        return Err(CheckpointError::Malformed("duplicate METR section".into()));
                    }
                }
                b"RNKS" => {
                    // Every row costs at least its 12-byte header, so the
                    // payload length bounds rows and cells alike.
                    let read_rows = |p: &mut Cursor<'_>| -> Result<_, ShortRead> {
                        let n = p.count_u64(12)?;
                        let mut rows = RowTable::with_capacity(n, p.remaining() / 4);
                        for _ in 0..n {
                            let v = p.u32()?;
                            let len = p.count_u64(4)?;
                            p.u32s(len, &mut rows.cells)?;
                            rows.ids.push(v);
                            rows.ends.push(rows.cells.len());
                        }
                        rows.cells.shrink_to_fit();
                        Ok(rows)
                    };
                    let read_ids = |p: &mut Cursor<'_>| -> Result<_, ShortRead> {
                        let n = p.count_u64(4)?;
                        let mut ids = Vec::with_capacity(n);
                        p.u32s(n, &mut ids)?;
                        Ok(ids)
                    };
                    ranks.push(decode(&payload, "RNKS", |p| {
                        Ok(RankSnapshot {
                            rank: p.u32()?,
                            local: read_rows(p)?,
                            cached: read_rows(p)?,
                            dirty: read_ids(p)?,
                            pending: read_ids(p)?,
                        })
                    })?);
                }
                other => {
                    return Err(CheckpointError::Malformed(format!(
                        "unknown section tag {:?}",
                        String::from_utf8_lossy(other)
                    )));
                }
            }
        }

        let meta = meta.ok_or_else(|| CheckpointError::Malformed("missing META section".into()))?;
        let graph =
            graph.ok_or_else(|| CheckpointError::Malformed("missing GRPH section".into()))?;
        let partition =
            partition.ok_or_else(|| CheckpointError::Malformed("missing PART section".into()))?;
        let stats =
            stats.ok_or_else(|| CheckpointError::Malformed("missing STAT section".into()))?;
        if ranks.len() != meta.procs as usize {
            return Err(CheckpointError::Malformed(format!(
                "snapshot has {} rank sections for {} procs",
                ranks.len(),
                meta.procs
            )));
        }
        // Trailing bytes after the declared sections are corruption.
        let mut probe = [0u8; 1];
        match r.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => {
                return Err(CheckpointError::Malformed("trailing bytes after final section".into()))
            }
            Err(e) => return Err(e.into()),
        }
        Ok(Snapshot { meta, graph, partition, stats, ranks, metrics: metrics.unwrap_or_default() })
    }

    /// Deserializes from an in-memory buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::read_from(bytes)
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
        assert!(s.ranks[0].section_len() > 4 * STAGE_BYTES);
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
