//! External-memory ingest: accepts `(src, dst, weight)` edge batches in any
//! order, spills sorted runs to disk when a memory budget fills, and merges
//! the runs into one deduplicated, sorted, symmetric arc stream — the
//! `sort_pairs` idiom that lets a graph far larger than RAM be compressed
//! on one machine.

use crate::error::StoreError;
use aaa_graph::{VertexId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

type ArcRec = (VertexId, VertexId, Weight);
const REC_BYTES: usize = 12;

/// Buffers arcs up to a byte budget, spilling sorted runs to `dir`.
///
/// [`PairSorter::push_edge`] inserts *both* arcs of an undirected edge, so
/// the merged stream is symmetric by construction; duplicate `(src, dst)`
/// pairs keep the minimum weight (the `add_or_min_edge` convention of the
/// in-memory backend).
pub struct PairSorter {
    dir: PathBuf,
    budget_arcs: usize,
    buf: Vec<ArcRec>,
    runs: Vec<PathBuf>,
}

impl PairSorter {
    /// A sorter spilling to `dir` (created if missing) once the in-memory
    /// buffer exceeds `budget_bytes`.
    pub fn new(dir: impl Into<PathBuf>, budget_bytes: usize) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let budget_arcs = (budget_bytes / REC_BYTES).max(2);
        Ok(Self { dir, budget_arcs, buf: Vec::new(), runs: Vec::new() })
    }

    /// Queues the undirected edge `(u, v, w)` as two arcs.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), StoreError> {
        if u == v || w == 0 {
            return Err(StoreError::InvalidArc { u, v, w });
        }
        self.buf.push((u, v, w));
        self.buf.push((v, u, w));
        if self.buf.len() >= self.budget_arcs {
            self.spill()?;
        }
        Ok(())
    }

    /// Number of sorted runs spilled so far (observable for tests).
    pub fn runs_spilled(&self) -> usize {
        self.runs.len()
    }

    fn spill(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        let path = self.dir.join(format!("run-{:05}.arcs", self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for &(u, v, wt) in &self.buf {
            w.write_all(&u.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
            w.write_all(&wt.to_le_bytes())?;
        }
        w.flush()?;
        self.buf.clear();
        self.runs.push(path);
        Ok(())
    }

    /// Sorts the final buffer and returns the merged, deduplicated stream.
    pub fn finish(mut self) -> Result<SortedArcs, StoreError> {
        self.buf.sort_unstable();
        let mut sources: Vec<RunSource> = Vec::with_capacity(self.runs.len() + 1);
        for path in self.runs.drain(..) {
            sources.push(RunSource::File(RunReader::open(path)?));
        }
        let mem = std::mem::take(&mut self.buf);
        sources.push(RunSource::Mem(mem.into_iter()));
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some(rec) = s.next_rec()? {
                heap.push(Reverse((rec, i)));
            }
        }
        Ok(SortedArcs { sources, heap, last: None })
    }
}

enum RunSource {
    Mem(std::vec::IntoIter<ArcRec>),
    File(RunReader),
}

impl RunSource {
    fn next_rec(&mut self) -> Result<Option<ArcRec>, StoreError> {
        match self {
            RunSource::Mem(it) => Ok(it.next()),
            RunSource::File(r) => r.next_rec(),
        }
    }
}

struct RunReader {
    rd: BufReader<File>,
    path: PathBuf,
}

impl RunReader {
    fn open(path: PathBuf) -> Result<Self, StoreError> {
        let rd = BufReader::with_capacity(1 << 20, File::open(&path)?);
        Ok(Self { rd, path })
    }

    fn next_rec(&mut self) -> Result<Option<ArcRec>, StoreError> {
        let mut rec = [0u8; REC_BYTES];
        match self.rd.read_exact(&mut rec) {
            Ok(()) => Ok(Some((
                u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
                u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")),
            ))),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for RunReader {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// K-way merged arc stream, sorted by `(src, dst)`, duplicates collapsed to
/// their minimum weight. Feed directly into
/// [`crate::CompressedGraph::from_sorted_arcs`].
pub struct SortedArcs {
    sources: Vec<RunSource>,
    heap: BinaryHeap<Reverse<(ArcRec, usize)>>,
    last: Option<(VertexId, VertexId)>,
}

impl Iterator for SortedArcs {
    type Item = Result<ArcRec, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let Reverse((rec, i)) = self.heap.pop()?;
            match self.sources[i].next_rec() {
                Ok(Some(next)) => self.heap.push(Reverse((next, i))),
                Ok(None) => {}
                Err(e) => return Some(Err(e)),
            }
            // Runs are sorted by (src, dst, weight): the first record of a
            // duplicate group carries the minimum weight, the rest drop.
            if self.last == Some((rec.0, rec.1)) {
                continue;
            }
            self.last = Some((rec.0, rec.1));
            return Some(Ok(rec));
        }
    }
}

/// Convenience: drain an edge iterator through a [`PairSorter`]. `dir` is a
/// scratch directory for spill runs; `budget_bytes` bounds resident arcs.
pub fn sort_edges<I>(dir: &Path, budget_bytes: usize, edges: I) -> Result<SortedArcs, StoreError>
where
    I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
{
    let mut sorter = PairSorter::new(dir, budget_bytes)?;
    for (u, v, w) in edges {
        sorter.push_edge(u, v, w)?;
    }
    sorter.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aaa-ingest-{}-{name}", std::process::id()))
    }

    fn collect(s: SortedArcs) -> Vec<ArcRec> {
        s.map(|r| r.unwrap()).collect()
    }

    #[test]
    fn merges_and_symmetrizes() {
        let dir = tmp("merge");
        // Tiny budget: every edge forces a spill.
        let mut s = PairSorter::new(&dir, 24).unwrap();
        s.push_edge(2, 0, 5).unwrap();
        s.push_edge(0, 1, 3).unwrap();
        s.push_edge(1, 2, 7).unwrap();
        assert!(s.runs_spilled() >= 2);
        let arcs = collect(s.finish().unwrap());
        assert_eq!(arcs, vec![(0, 1, 3), (0, 2, 5), (1, 0, 3), (1, 2, 7), (2, 0, 5), (2, 1, 7)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicates_keep_min_weight() {
        let dir = tmp("dedup");
        let mut s = PairSorter::new(&dir, 1 << 20).unwrap();
        s.push_edge(0, 1, 9).unwrap();
        s.push_edge(1, 0, 4).unwrap();
        s.push_edge(0, 1, 6).unwrap();
        let arcs = collect(s.finish().unwrap());
        assert_eq!(arcs, vec![(0, 1, 4), (1, 0, 4)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_edges() {
        let dir = tmp("bad");
        let mut s = PairSorter::new(&dir, 1 << 20).unwrap();
        assert!(matches!(s.push_edge(3, 3, 1), Err(StoreError::InvalidArc { .. })));
        assert!(matches!(s.push_edge(0, 1, 0), Err(StoreError::InvalidArc { .. })));
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_runs_are_cleaned_up() {
        let dir = tmp("cleanup");
        let mut s = PairSorter::new(&dir, 24).unwrap();
        for i in 0..50u32 {
            s.push_edge(i, i + 1, 1).unwrap();
        }
        let merged = s.finish().unwrap();
        let count = collect(merged).len();
        assert_eq!(count, 100);
        let leftovers = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(leftovers, 0, "run files must be deleted after the merge");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn large_shuffled_input_sorts_correctly() {
        let dir = tmp("shuffled");
        // Push edges of a 500-vertex ring in a scrambled order with a small
        // budget, then verify global sortedness.
        let n = 500u32;
        let mut edges: Vec<(u32, u32, u32)> = (0..n).map(|v| (v, (v + 1) % n, v % 7 + 1)).collect();
        edges.reverse();
        edges.swap(0, 250);
        let arcs = collect(sort_edges(&dir, 512, edges).unwrap());
        assert_eq!(arcs.len(), 2 * n as usize);
        assert!(arcs.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
