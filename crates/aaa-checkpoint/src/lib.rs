//! # aaa-checkpoint — anytime persistence
//!
//! The paper's *anytime* property (§III) guarantees that analysis can be
//! interrupted at any RC step and still yield a usable closeness estimate.
//! This crate makes that property **durable**: it defines a versioned
//! binary snapshot of the full engine state (graph, partition, per-rank
//! distance vectors with dirty masks, RC step counter, accumulated
//! [`RunStats`](aaa_runtime::RunStats), and the change-stream cursor), the
//! [`CheckpointPolicy`] that decides *when* snapshots are taken at RC
//! superstep barriers, and the typed [`CheckpointError`]s that make
//! corrupted or truncated snapshots a recoverable condition rather than a
//! panic.
//!
//! The engine-facing methods (`AnytimeEngine::checkpoint` / `restore` /
//! `recover_rank`) live in `aaa-core`, which depends on this crate; this
//! crate only knows the *format* and the snapshot data model, so it
//! depends on nothing above `aaa-graph` and `aaa-runtime`.
//!
//! ## One pass each way
//!
//! There is one encoder ([`Image`]) and one decoder ([`read_image`]). The
//! encoder reads each rank's rows from a [`RankRows`] source: a
//! [`RankSnapshot`]'s tables, or a live rank's arenas in place (the
//! engine's `checkpoint`), so a checkpoint copies each row once, from its
//! arena slot into the output, checksumming it there a 64 KB stage at a
//! time while it is still in cache. [`Image::to_bytes`] sizes its buffer
//! exactly from the section lengths. The decoder reads one section at a
//! time into a buffer reused across sections, verifies its CRC, and only
//! then hands it to an [`ImageSink`]: the one behind
//! [`Snapshot::read_from`] copies the rows into tables sized exactly from
//! the section, the engine's installs them straight into fresh arenas. A
//! restore therefore holds at most one rank section beyond the engine,
//! never a whole image.
//!
//! ## Snapshot format appendix (version 4)
//!
//! All integers are **little-endian**. The file is a fixed header followed
//! by length-prefixed, CRC-protected sections:
//!
//! ```text
//! header   := magic version section_count
//! magic    := 8 bytes  b"AAACKPT\0"
//! version  := u32      format version (currently 4)
//! section_count := u32 number of sections that follow
//!
//! section  := tag payload_len payload crc32
//! tag      := 4 ASCII bytes  ("META" | "GRPH" | "PART" | "STAT" | "METR" | "EXCT" | "RNKS")
//! payload_len := u64   byte length of payload
//! payload  := payload_len bytes
//! crc32    := u32      CRC-32 (IEEE 802.3) of payload
//! ```
//!
//! The checksum is [`aaa_runtime::bytes::crc32`] — one table-driven
//! slice-by-16 implementation shared with the socket frame codec, re-exported
//! here as [`crc32`]. It is incremental, so the writer checksums a large
//! section a stage at a time and never stages the section whole; the
//! reader pulls each payload through `Read::take`, so a declared length is
//! never trusted with an allocation. Polynomial (reflected `0xEDB88320`),
//! initial value and final inversion are the standard ones: changing *how*
//! the value is computed changed no byte of any file, which the golden v4
//! snapshot in this crate's tests (written by the previous, byte-at-a-time
//! implementation) pins in both directions. Distance rows move in bulk as
//! well — `aaa_runtime::bytes::{put_u32s, get_u32s}` per row instead of a
//! call per cell.
//!
//! Section payloads, in the order they are written:
//!
//! * `META` — `procs: u32`, `rc_steps: u64`, `rr_cursor: u64`,
//!   `changes_applied: u64` (the pending change-stream cursor: how many
//!   dynamic changes the engine has already absorbed).
//! * `GRPH` — `num_vertices: u64`, `num_edges: u64`, then per edge
//!   `u: u32, v: u32, w: u32` with `u < v`, in
//!   [`AdjGraph::edges`](aaa_graph::AdjGraph::edges) order.
//! * `PART` — `k: u32`, `len: u64`, then `len × u32` part ids.
//! * `STAT` — `messages: u64`, `bytes: u64`, `sim_comm_us: f64`,
//!   `sim_compute_us: f64`, `supersteps: u64`, `collectives: u64`,
//!   `checkpoints: u64`, `restores: u64`, the three migration counters
//!   `migrations, migrated_rows, migration_bytes` (added in version 3),
//!   the six chaos fault counters `dropped, duplicated, delayed,
//!   corrupted, stalls, retransmits` (added in version 2), `wall_nanos:
//!   u64` — every field a `u64` unless noted.
//! * `METR` — only when the engine maintained metrics beyond closeness
//!   (added in version 4): `count: u32`, then `count` one-byte metric wire
//!   ids.
//! * `EXCT` — only when every rank's local rows were exact in the graph
//!   (the engine's exactness flag, [`Snapshot::exact`]): an empty payload,
//!   the section's presence being all it says. A non-empty one is
//!   [`CheckpointError::Malformed`]; a file without it restores with the
//!   flag clear, which is always sound (the engine then records every
//!   merge, as it did before the section existed).
//! * `RNKS` — one section **per rank**, so a single rank's rows can be
//!   recovered without materializing the others: `rank: u32`, then four
//!   length-prefixed lists — local rows (`v: u32, len: u64, len × u32`
//!   distances), cached rows (same layout), dirty ids (`u32`s), pending
//!   ids (`u32`s). Row entries use `u32::MAX` for +∞, matching
//!   `aaa_graph::INF`. Each list is sorted by id.
//!
//! ### Versioning rules
//!
//! * The magic never changes; anything else under these 8 bytes is not a
//!   snapshot ([`CheckpointError::BadMagic`]).
//! * Any layout change — new/removed sections, field changes inside a
//!   section — **bumps the version**. Readers reject unknown versions with
//!   [`CheckpointError::UnsupportedVersion`] instead of guessing. One
//!   exception, `EXCT`: it was added within version 4 because its absence
//!   already means what every earlier file meant (the flag clear), so every
//!   v4 file, the golden bytes included, still reads the same. A reader
//!   older than the section refuses a file that carries it as an unknown
//!   tag, `Malformed`; it never misreads one.
//! * Within a version, readers are strict: unknown tags, short payloads,
//!   CRC mismatches, and trailing bytes are all typed errors. Robustness
//!   comes from the version gate, not from lenient parsing.
//! * META, GRPH and PART come before the first RNKS: a restore builds each
//!   rank from them before it installs the rank's rows. Every file this
//!   code has written is in that order, the golden v4 bytes included; a
//!   file in any other order is [`CheckpointError::Malformed`].
//! * The sections must agree, or the file is `Malformed`: PART has one
//!   part per processor (`k == procs`), every RNKS rank id is below
//!   `procs`, and no rank id appears in two RNKS sections — with one
//!   section per rank, every rank has exactly one. [`Snapshot::check`]
//!   applies the same rules to a snapshot built in memory.

pub mod error;
pub mod policy;
pub mod snapshot;
mod wire;

pub use error::CheckpointError;
pub use policy::CheckpointPolicy;
pub use snapshot::{
    read_image, EngineMeta, GraphSnapshot, Image, ImageSink, PartitionSnapshot, RankRows,
    RankSection, RankSnapshot, RowTable, Rows, Snapshot, Trailer, FORMAT_VERSION, MAGIC,
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the per-section
/// integrity check. The one implementation the workspace's byte paths
/// share; see [`aaa_runtime::bytes`].
pub use aaa_runtime::bytes::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
