//! Compressed and external-memory graph storage for the anytime-anywhere
//! pipeline.
//!
//! The engine's read-only consumers (domain decomposition, exact oracles,
//! figure bins) only ever need degrees and sorted successor scans: the
//! [`aaa_graph::GraphStore`] contract, which the plain adjacency graph and
//! its CSR snapshot meet in `aaa-graph`. This crate adds the third backend,
//! [`CompressedGraph`] — gap-coded successor lists under Elias δ/γ codes
//! with an Elias-Fano offset index, built either in memory or via
//! external-memory ingest ([`PairSorter`]) from edge batches that spill to
//! disk, and loadable from an mmap-able on-disk layout.
//!
//! All backends yield **identical sorted successor lists** for the same
//! graph; `tests/store_equivalence.rs` holds them to that under proptest,
//! and runs aaa-graph's kernels on each to the same bits.

mod bits;
mod ef;
mod error;
mod ingest;
mod mmap;

mod compressed;

pub use compressed::{CompressedGraph, CompressedGraphBuilder, CompressedSucc};
pub use ef::EliasFano;
pub use error::StoreError;
pub use ingest::{sort_edges, PairSorter, SortedArcs};
pub use mmap::LoadMode;
