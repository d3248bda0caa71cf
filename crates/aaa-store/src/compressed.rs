//! The compressed graph backend: gap-coded successor lists under Elias δ/γ
//! codes, with an Elias-Fano index over per-row bit offsets and a CRC'd,
//! mmap-able on-disk layout.
//!
//! Row format for vertex `v` with successors `t₀ < t₁ < … < t_{d-1}`:
//!
//! ```text
//! γ(d+1) · δ(zigzag(t₀ − v)+1) [γ(w₀)] · δ(t₁ − t₀) [γ(w₁)] · …
//! ```
//!
//! The first successor is coded relative to `v` (zigzag because it can be on
//! either side), later ones as strictly positive gaps; weights are
//! interleaved γ codes and omitted entirely for unit-weight graphs.
//!
//! File layout (all little-endian):
//!
//! ```text
//! 0   magic "AAST"        40  data_len (bytes)
//! 4   version = 1         48  ef_len (bytes)
//! 8   flags (bit0=wgt)    56  data crc32
//! 12  reserved            60  ef crc32
//! 16  n (u64)             64  header crc32 (bytes 0..64)
//! 24  num_arcs            68  reserved
//! 32  num_edges           72  data bytes ‖ ef bytes
//! ```

use crate::bits::{unzigzag, zigzag, BitReader, BitWriter};
use crate::ef::EliasFano;
use crate::error::StoreError;
use crate::mmap::{crc32, LoadMode, StoreBytes};
use aaa_graph::{GraphStore, VertexId, Weight};
use std::io::Write;
use std::path::Path;

const MAGIC: [u8; 4] = *b"AAST";
const VERSION: u32 = 1;
const FLAG_WEIGHTED: u32 = 1;
const HEADER_LEN: usize = 72;

/// An immutable graph with δ/γ-compressed successor lists.
#[derive(Debug)]
pub struct CompressedGraph {
    n: usize,
    num_arcs: u64,
    num_edges: u64,
    weighted: bool,
    bytes: StoreBytes,
    data_start: usize,
    data_len: usize,
    offsets: EliasFano,
}

impl CompressedGraph {
    /// Compresses any [`GraphStore`] in memory. Weight coding is elided
    /// automatically when every edge has weight 1.
    pub fn from_store<G: GraphStore>(g: &G) -> Result<Self, StoreError> {
        let weighted = g.vertices().any(|v| g.successors(v).any(|(_, w)| w != 1));
        let mut b = CompressedGraphBuilder::new(g.num_vertices(), weighted);
        for v in g.vertices() {
            b.push_row(v, g.successors(v))?;
        }
        b.finish()
    }

    /// Builds from a sorted, deduplicated, symmetric arc stream (the output
    /// of [`crate::PairSorter::finish`]), grouping consecutive arcs by
    /// source.
    pub fn from_sorted_arcs<I>(n: usize, weighted: bool, arcs: I) -> Result<Self, StoreError>
    where
        I: IntoIterator<Item = Result<(VertexId, VertexId, Weight), StoreError>>,
    {
        let mut b = CompressedGraphBuilder::new(n, weighted);
        let mut row: Vec<(VertexId, Weight)> = Vec::new();
        let mut src: Option<VertexId> = None;
        for arc in arcs {
            let (u, v, w) = arc?;
            if src != Some(u) {
                if let Some(s) = src {
                    b.push_row(s, row.drain(..))?;
                }
                src = Some(u);
            }
            row.push((v, w));
        }
        if let Some(s) = src {
            b.push_row(s, row.drain(..))?;
        }
        b.finish()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges as usize
    }

    /// Number of directed arcs (twice the edges).
    #[inline]
    pub fn num_arcs(&self) -> u64 {
        self.num_arcs
    }

    /// True if per-arc weights are stored (false ⇒ every weight is 1).
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    #[inline]
    fn data(&self) -> &[u8] {
        &self.bytes.as_slice()[self.data_start..self.data_start + self.data_len]
    }

    /// Decoded successor iterator for `v`, sorted by target id.
    pub fn successors(&self, v: VertexId) -> CompressedSucc<'_> {
        let mut r = BitReader::new_at(self.data(), self.offsets.get(v as usize));
        let remaining = r.read_gamma().map_or(0, |d| d - 1);
        CompressedSucc { r, v, prev: 0, remaining, first: true, weighted: self.weighted }
    }

    /// Degree of `v` without decoding the successors.
    pub fn degree(&self, v: VertexId) -> usize {
        let mut r = BitReader::new_at(self.data(), self.offsets.get(v as usize));
        r.read_gamma().map_or(0, |d| (d - 1) as usize)
    }

    /// Bytes of the successor bitstream (the quantity the ≤ 4 bytes/edge
    /// acceptance bound is about).
    pub fn data_bytes(&self) -> usize {
        self.data_len
    }

    /// Resident bytes of the offset index.
    pub fn index_bytes(&self) -> usize {
        self.offsets.memory_bytes()
    }

    /// Resident heap bytes: the offset index plus the data section if it
    /// lives on the heap (an mmap'd data section counts 0 — its pages
    /// belong to the page cache).
    pub fn memory_bytes(&self) -> usize {
        self.bytes.heap_bytes() + self.offsets.memory_bytes()
    }

    /// Fully decodes every row, verifying codes, successor ordering, and
    /// target ranges against the header. O(arcs).
    pub fn validate(&self) -> Result<(), StoreError> {
        let mut arcs = 0u64;
        for v in 0..self.n as VertexId {
            let declared = self.degree(v) as u64;
            let mut prev: Option<VertexId> = None;
            let mut decoded = 0u64;
            for (t, w) in self.successors(v) {
                if (t as usize) >= self.n {
                    return Err(StoreError::VertexOutOfRange { vertex: t as u64, len: self.n });
                }
                if t == v || w == 0 {
                    return Err(StoreError::InvalidArc { u: v, v: t, w });
                }
                if let Some(p) = prev {
                    if t <= p {
                        return Err(StoreError::NotSorted { vertex: v, prev: p, next: t });
                    }
                }
                prev = Some(t);
                decoded += 1;
            }
            // The iterator ends quietly on exhausted bitstreams; a short row
            // means the data section was cut or the codes are corrupt.
            if decoded != declared {
                return Err(StoreError::CodeOverrun { vertex: v });
            }
            arcs += decoded;
        }
        if arcs != self.num_arcs {
            return Err(StoreError::Truncated { expected: self.num_arcs, found: arcs });
        }
        Ok(())
    }

    /// Writes the on-disk layout to `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let ef_bytes = self.offsets.to_bytes();
        let data = self.data();
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        let flags = if self.weighted { FLAG_WEIGHTED } else { 0 };
        header[8..12].copy_from_slice(&flags.to_le_bytes());
        header[16..24].copy_from_slice(&(self.n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&self.num_arcs.to_le_bytes());
        header[32..40].copy_from_slice(&self.num_edges.to_le_bytes());
        header[40..48].copy_from_slice(&(data.len() as u64).to_le_bytes());
        header[48..56].copy_from_slice(&(ef_bytes.len() as u64).to_le_bytes());
        header[56..60].copy_from_slice(&crc32(data).to_le_bytes());
        header[60..64].copy_from_slice(&crc32(&ef_bytes).to_le_bytes());
        let hcrc = crc32(&header[0..64]);
        header[64..68].copy_from_slice(&hcrc.to_le_bytes());
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(&header)?;
        w.write_all(data)?;
        w.write_all(&ef_bytes)?;
        w.flush()?;
        Ok(())
    }

    /// Loads an on-disk graph, verifying magic, version, lengths, and the
    /// CRC of every section. With [`LoadMode::Mmap`] the successor data
    /// stays on disk and pages in on demand.
    pub fn load(path: &Path, mode: LoadMode) -> Result<Self, StoreError> {
        let bytes = StoreBytes::load(path, mode)?;
        let all = bytes.as_slice();
        if all.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN as u64,
                found: all.len() as u64,
            });
        }
        if all[0..4] != MAGIC {
            return Err(StoreError::BadMagic { found: all[0..4].try_into().expect("4 bytes") });
        }
        let u32_at = |o: usize| u32::from_le_bytes(all[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(all[o..o + 8].try_into().expect("8 bytes"));
        let version = u32_at(4);
        if version != VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        if crc32(&all[0..64]) != u32_at(64) {
            return Err(StoreError::CrcMismatch { section: "header" });
        }
        // The reserved tail sits after the header CRC and inside no other
        // checksummed section; requiring it zero keeps every header byte
        // covered by some integrity check.
        if all[68..HEADER_LEN] != [0u8; HEADER_LEN - 68] {
            return Err(StoreError::CrcMismatch { section: "header" });
        }
        let flags = u32_at(8);
        let n = u64_at(16) as usize;
        let num_arcs = u64_at(24);
        let num_edges = u64_at(32);
        let data_len = u64_at(40) as usize;
        let ef_len = u64_at(48) as usize;
        let need = HEADER_LEN as u64 + data_len as u64 + ef_len as u64;
        // Exact-length check: a short file is a classic truncation, and
        // trailing bytes mean the header no longer describes the file —
        // either way the store cannot be trusted.
        if all.len() as u64 != need {
            return Err(StoreError::Truncated { expected: need, found: all.len() as u64 });
        }
        if num_edges * 2 != num_arcs {
            return Err(StoreError::OddArcCount { arcs: num_arcs });
        }
        let data = &all[HEADER_LEN..HEADER_LEN + data_len];
        if crc32(data) != u32_at(56) {
            return Err(StoreError::CrcMismatch { section: "data" });
        }
        let ef_bytes = &all[HEADER_LEN + data_len..HEADER_LEN + data_len + ef_len];
        if crc32(ef_bytes) != u32_at(60) {
            return Err(StoreError::CrcMismatch { section: "offsets" });
        }
        let offsets = EliasFano::from_bytes(ef_bytes)?;
        if offsets.len() != n + 1 {
            return Err(StoreError::Truncated {
                expected: n as u64 + 1,
                found: offsets.len() as u64,
            });
        }
        Ok(Self {
            n,
            num_arcs,
            num_edges,
            weighted: flags & FLAG_WEIGHTED != 0,
            bytes,
            data_start: HEADER_LEN,
            data_len,
            offsets,
        })
    }
}

impl GraphStore for CompressedGraph {
    type Succ<'a> = CompressedSucc<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        CompressedGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CompressedGraph::num_edges(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CompressedGraph::degree(self, v)
    }

    #[inline]
    fn successors(&self, v: VertexId) -> Self::Succ<'_> {
        CompressedGraph::successors(self, v)
    }

    fn memory_bytes(&self) -> usize {
        CompressedGraph::memory_bytes(self)
    }
}

/// Decoding iterator over one row. Ends cleanly (yields no further items)
/// if the bitstream is exhausted; [`CompressedGraph::validate`] turns that
/// into a typed error.
pub struct CompressedSucc<'a> {
    r: BitReader<'a>,
    v: VertexId,
    prev: VertexId,
    remaining: u64,
    first: bool,
    weighted: bool,
}

impl Iterator for CompressedSucc<'_> {
    type Item = (VertexId, Weight);

    fn next(&mut self) -> Option<(VertexId, Weight)> {
        if self.remaining == 0 {
            return None;
        }
        let t = if self.first {
            self.first = false;
            let z = self.r.read_delta()?.checked_sub(1)?;
            (self.v as i64 + unzigzag(z)) as VertexId
        } else {
            let gap = self.r.read_delta()?;
            self.prev.checked_add(gap as VertexId)?
        };
        let w = if self.weighted { self.r.read_gamma()? as Weight } else { 1 };
        self.prev = t;
        self.remaining -= 1;
        Some((t, w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining as usize))
    }
}

/// Incremental builder: rows must arrive in strictly increasing vertex
/// order; vertices without a row are encoded as isolated.
pub struct CompressedGraphBuilder {
    n: usize,
    weighted: bool,
    bw: BitWriter,
    offsets: Vec<u64>,
    next_row: u64,
    num_arcs: u64,
    row_buf: Vec<(VertexId, Weight)>,
}

impl CompressedGraphBuilder {
    /// A builder for a graph on `n` vertices. `weighted` chooses whether
    /// per-arc γ weight codes are emitted.
    pub fn new(n: usize, weighted: bool) -> Self {
        Self {
            n,
            weighted,
            bw: BitWriter::new(),
            offsets: Vec::with_capacity(n + 1),
            next_row: 0,
            num_arcs: 0,
            row_buf: Vec::new(),
        }
    }

    fn encode_empty_rows_until(&mut self, v: u64) {
        while self.next_row < v {
            self.offsets.push(self.bw.bit_len());
            self.bw.write_gamma(1); // degree 0
            self.next_row += 1;
        }
    }

    /// Appends the successor row of `v`.
    pub fn push_row<I>(&mut self, v: VertexId, successors: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = (VertexId, Weight)>,
    {
        if (v as usize) >= self.n {
            return Err(StoreError::VertexOutOfRange { vertex: v as u64, len: self.n });
        }
        if (v as u64) < self.next_row {
            return Err(StoreError::RowOrder { last: self.next_row as VertexId - 1, next: v });
        }
        self.row_buf.clear();
        let mut prev: Option<VertexId> = None;
        for (t, w) in successors {
            if (t as usize) >= self.n {
                return Err(StoreError::VertexOutOfRange { vertex: t as u64, len: self.n });
            }
            if t == v || w == 0 || (!self.weighted && w != 1) {
                return Err(StoreError::InvalidArc { u: v, v: t, w });
            }
            if let Some(p) = prev {
                if t <= p {
                    return Err(StoreError::NotSorted { vertex: v, prev: p, next: t });
                }
            }
            prev = Some(t);
            self.row_buf.push((t, w));
        }
        self.encode_empty_rows_until(v as u64);
        self.offsets.push(self.bw.bit_len());
        self.bw.write_gamma(self.row_buf.len() as u64 + 1);
        let mut last = 0 as VertexId;
        for (i, &(t, w)) in self.row_buf.iter().enumerate() {
            if i == 0 {
                self.bw.write_delta(zigzag(t as i64 - v as i64) + 1);
            } else {
                self.bw.write_delta((t - last) as u64);
            }
            if self.weighted {
                self.bw.write_gamma(w as u64);
            }
            last = t;
        }
        self.num_arcs += self.row_buf.len() as u64;
        self.next_row = v as u64 + 1;
        Ok(())
    }

    /// Seals the builder into an in-memory [`CompressedGraph`].
    pub fn finish(mut self) -> Result<CompressedGraph, StoreError> {
        self.encode_empty_rows_until(self.n as u64);
        if self.num_arcs % 2 != 0 {
            return Err(StoreError::OddArcCount { arcs: self.num_arcs });
        }
        let total_bits = self.bw.bit_len();
        self.offsets.push(total_bits);
        let offsets = EliasFano::encode(&self.offsets, total_bits);
        let data = self.bw.finish();
        let data_len = data.len();
        Ok(CompressedGraph {
            n: self.n,
            num_arcs: self.num_arcs,
            num_edges: self.num_arcs / 2,
            weighted: self.weighted,
            bytes: StoreBytes::Heap(data),
            data_start: 0,
            data_len,
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::AdjGraph;

    fn sample() -> AdjGraph {
        let mut g = AdjGraph::with_vertices(8);
        for (u, v, w) in [(0, 1, 3), (0, 7, 1), (1, 2, 2), (2, 5, 9), (3, 4, 1), (5, 7, 4)] {
            g.add_edge(u, v, w).unwrap();
        }
        g
    }

    fn rows<G: GraphStore>(g: &G) -> Vec<Vec<(VertexId, Weight)>> {
        g.vertices().map(|v| g.successors(v).collect()).collect()
    }

    #[test]
    fn round_trips_weighted_graph() {
        let g = sample();
        let c = CompressedGraph::from_store(&g).unwrap();
        assert!(c.is_weighted());
        assert_eq!(c.num_vertices(), 8);
        assert_eq!(c.num_edges(), 6);
        assert_eq!(c.num_arcs(), 12);
        assert_eq!(rows(&g), rows(&c));
        for v in g.vertices() {
            assert_eq!(GraphStore::degree(&c, v), g.degree(v));
        }
        c.validate().unwrap();
    }

    #[test]
    fn unit_graphs_skip_weight_codes() {
        let mut g = AdjGraph::with_vertices(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let c = CompressedGraph::from_store(&g).unwrap();
        assert!(!c.is_weighted());
        assert_eq!(rows(&g), rows(&c));
        // A weighted encoding of the same graph must be strictly larger.
        let mut b = CompressedGraphBuilder::new(5, true);
        for v in g.vertices() {
            b.push_row(v, g.neighbors(v).iter().copied()).unwrap();
        }
        let cw = b.finish().unwrap();
        assert!(cw.data_bytes() >= c.data_bytes());
    }

    #[test]
    fn builder_rejects_malformed_rows() {
        let mut b = CompressedGraphBuilder::new(4, false);
        assert!(matches!(b.push_row(0, [(0, 1)]), Err(StoreError::InvalidArc { .. })));
        assert!(matches!(b.push_row(0, [(2, 1), (1, 1)]), Err(StoreError::NotSorted { .. })));
        assert!(matches!(b.push_row(0, [(9, 1)]), Err(StoreError::VertexOutOfRange { .. })));
        b.push_row(2, [(3, 1)]).unwrap();
        assert!(matches!(b.push_row(1, [(3, 1)]), Err(StoreError::RowOrder { .. })));
        // 1 arc total -> cannot be symmetric.
        assert!(matches!(b.finish(), Err(StoreError::OddArcCount { arcs: 1 })));
    }

    #[test]
    fn disk_round_trip_both_modes() {
        let g = sample();
        let c = CompressedGraph::from_store(&g).unwrap();
        let path = std::env::temp_dir().join(format!("aaa-store-disk-{}.aast", std::process::id()));
        c.write_to(&path).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let loaded = CompressedGraph::load(&path, mode).unwrap();
            assert_eq!(rows(&c), rows(&loaded));
            assert_eq!(loaded.num_edges(), 6);
            assert!(loaded.is_weighted());
            loaded.validate().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compresses_far_below_plain() {
        // A 2000-vertex ring + chords: plain CSR is 8 bytes/arc for
        // targets+weights; the compressed stream should be ~1 byte/arc.
        let n = 2000u32;
        let mut g = AdjGraph::with_vertices(n as usize);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 1).unwrap();
        }
        let c = CompressedGraph::from_store(&g).unwrap();
        assert_eq!(rows(&g), rows(&c));
        let per_arc = c.data_bytes() as f64 / c.num_arcs() as f64;
        assert!(per_arc < 2.0, "ring should compress to <2 bytes/arc, got {per_arc:.2}");
        // The successor data is far smaller than the adjacency lists.
        assert!(c.data_bytes() * 4 < GraphStore::memory_bytes(&g));
    }
}
