//! The length-prefixed, CRC-protected section framing. Fields inside a
//! section are read through `aaa-runtime`'s one byte [`Cursor`] and written
//! with its `put_*` twins into a [`Stage`]; this module only frames and
//! checksums the sections, and pins the section's name onto the cursor's
//! short read ([`decode`]), so a truncated field becomes a precise
//! [`CheckpointError::Truncated`].

use crate::error::CheckpointError;
use aaa_runtime::bytes::{crc32, Crc32, Cursor, ShortRead};
use std::io::Read;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// How much of a section is staged before it is checksummed (and, for a
/// writer, written): small enough to stay in cache, large enough to
/// amortise a `write` call.
pub const STAGE_BYTES: usize = 64 << 10;

/// The encoder's output: framed sections appended to `buf`. An open
/// section's payload is checksummed a stage at a time while it is still in
/// cache, never whole, and every full stage is handed to `flush` — a
/// writer's `write_all`, which empties the buffer, or nothing at all when
/// the buffer is the whole image and was sized for it.
pub struct Stage<F> {
    pub buf: Vec<u8>,
    flush: F,
    crc: Crc32,
    /// Where the open section's bytes not yet checksummed start.
    checked: usize,
    /// Payload bytes the open section still owes.
    left: u64,
}

impl<F: FnMut(&mut Vec<u8>) -> Result<(), CheckpointError>> Stage<F> {
    pub fn new(buf: Vec<u8>, flush: F) -> Self {
        Self { buf, flush, crc: Crc32::new(), checked: 0, left: 0 }
    }

    /// Opens a section: appends its tag and length; exactly `len` payload
    /// bytes must be appended to `buf` before [`Stage::finish`].
    pub fn begin(&mut self, tag: &[u8; 4], len: u64) {
        self.buf.extend_from_slice(tag);
        self.buf.extend_from_slice(&len.to_le_bytes());
        (self.crc, self.checked, self.left) = (Crc32::new(), self.buf.len(), len);
    }

    /// Checksums the payload appended since the last call once a stage's
    /// worth has piled up, and hands a full buffer to `flush`.
    pub fn seal_full(&mut self) -> Result<(), CheckpointError> {
        if self.buf.len() - self.checked >= STAGE_BYTES {
            self.seal()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<(), CheckpointError> {
        let fresh = &self.buf[self.checked..];
        let left = self.left.checked_sub(fresh.len() as u64);
        self.left = left.expect("section payload longer than its declared length");
        self.crc.update(fresh);
        if self.buf.len() >= STAGE_BYTES {
            (self.flush)(&mut self.buf)?;
        }
        self.checked = self.buf.len();
        Ok(())
    }

    /// Closes the open section: checksums the rest and appends the CRC
    /// trailer.
    pub fn finish(&mut self) -> Result<(), CheckpointError> {
        self.seal()?;
        assert_eq!(self.left, 0, "section payload shorter than its declared length");
        self.buf.extend_from_slice(&self.crc.finish().to_le_bytes());
        self.checked = self.buf.len();
        Ok(())
    }

    /// Hands whatever is left to `flush` and returns the buffer.
    pub fn end(mut self) -> Result<Vec<u8>, CheckpointError> {
        (self.flush)(&mut self.buf)?;
        Ok(self.buf)
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The next `N` bytes of the stream; its end inside them is truncation of
/// `section`.
pub fn read_array<const N: usize>(
    r: &mut impl Read,
    section: &'static str,
) -> Result<[u8; N], CheckpointError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { section }
        } else {
            e.into()
        }
    })?;
    Ok(buf)
}

pub fn read_u32(r: &mut impl Read, section: &'static str) -> Result<u32, CheckpointError> {
    Ok(u32::from_le_bytes(read_array(r, section)?))
}

/// Reads one framed section into `payload` (cleared first; its capacity is
/// reused from section to section), verifying its CRC. Returns the tag.
///
/// The declared length is never trusted with an allocation: the payload is
/// read through [`Read::take`], so the buffer grows only as bytes actually
/// arrive and a corrupted length over a short stream is `Truncated`, not
/// a multi-gigabyte zero-fill.
pub fn read_section(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<[u8; 4], CheckpointError> {
    let tag: [u8; 4] = read_array(r, "section header")?;
    let len = u64::from_le_bytes(read_array(r, "section header")?);
    if len > MAX_SECTION_BYTES {
        return Err(CheckpointError::Malformed(format!(
            "section {} declares {len} bytes (limit {MAX_SECTION_BYTES})",
            String::from_utf8_lossy(&tag)
        )));
    }
    payload.clear();
    if r.by_ref().take(len).read_to_end(payload)? as u64 != len {
        return Err(CheckpointError::Truncated { section: "section payload" });
    }
    let stored = read_u32(r, "section crc")?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(CheckpointError::CrcMismatch {
            section: String::from_utf8_lossy(&tag).into_owned(),
            stored,
            computed,
        });
    }
    Ok(tag)
}

/// Hard ceiling on a single section's payload (16 GiB) — far above any real
/// snapshot, low enough to reject garbage lengths from corrupted headers.
const MAX_SECTION_BYTES: u64 = 16 << 30;

/// Decodes the fields of one section payload: `fields` reads them off the
/// shared [`Cursor`]; a short read is truncation inside `section`, and
/// bytes left over are malformed — sections carry no trailing garbage.
pub fn decode<'a, T>(
    payload: &'a [u8],
    section: &'static str,
    fields: impl FnOnce(&mut Cursor<'a>) -> Result<T, ShortRead>,
) -> Result<T, CheckpointError> {
    let mut cursor = Cursor::new(payload);
    let value = fields(&mut cursor).map_err(|_| CheckpointError::Truncated { section })?;
    match cursor.remaining() {
        0 => Ok(value),
        extra => {
            Err(CheckpointError::Malformed(format!("section {section}: {extra} trailing bytes")))
        }
    }
}

/// Writes one framed section from a payload already in memory.
#[cfg(test)]
pub fn write_section(
    w: &mut impl std::io::Write,
    tag: &[u8; 4],
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let mut out = Stage::new(Vec::new(), |buf: &mut Vec<u8>| {
        w.write_all(buf)?;
        buf.clear();
        Ok(())
    });
    out.begin(tag, payload.len() as u64);
    out.buf.extend_from_slice(payload);
    out.finish()?;
    out.end().map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_roundtrip() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"TEST", &[1, 2, 3, 4, 5]).unwrap();
        let mut payload = vec![0xEE; 3]; // stale contents must not leak through
        let tag = read_section(&mut buf.as_slice(), &mut payload).unwrap();
        assert_eq!(&tag, b"TEST");
        assert_eq!(payload, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn corrupted_payload_is_crc_mismatch() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"TEST", &[9u8; 16]).unwrap();
        buf[13] ^= 0xFF; // inside payload
        match read_section(&mut buf.as_slice(), &mut Vec::new()) {
            Err(CheckpointError::CrcMismatch { section, .. }) => assert_eq!(section, "TEST"),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"TEST", &[7u8; 32]).unwrap();
        for cut in [1, 5, 13, buf.len() - 1] {
            let err = read_section(&mut buf[..cut].as_ref(), &mut Vec::new()).unwrap_err();
            assert!(matches!(err, CheckpointError::Truncated { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TEST");
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_section(&mut buf.as_slice(), &mut Vec::new()),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn declared_length_never_drives_the_allocation() {
        // 8 GiB is under the section cap, so only the stream can refute it.
        let mut stream = Vec::new();
        stream.extend_from_slice(b"RNKS");
        stream.extend_from_slice(&(8u64 << 30).to_le_bytes());
        stream.extend_from_slice(&[7u8; 12]);
        let mut payload = Vec::new();
        let err = read_section(&mut stream.as_slice(), &mut payload).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err:?}");
        assert!(payload.capacity() < 1 << 20, "allocated {} bytes", payload.capacity());
    }

    #[test]
    fn decode_pins_the_section_name_and_refuses_trailing_bytes() {
        use aaa_runtime::bytes::{put_u32, put_u64};
        let mut p = Vec::new();
        put_u32(&mut p, 7);
        put_u64(&mut p, 2);
        put_u32(&mut p, 10);
        put_u32(&mut p, 20);
        let fields = |c: &mut Cursor<'_>| {
            let head = c.u32()?;
            let n = c.count_u64(4)?;
            let mut row = Vec::with_capacity(n);
            c.u32s(n, &mut row)?;
            Ok((head, row))
        };
        assert_eq!(decode(&p, "TEST", fields), Ok((7, vec![10, 20])));

        // Cut anywhere, the short read carries the section's name.
        for cut in 0..p.len() {
            let err = decode(&p[..cut], "TEST", fields).unwrap_err();
            assert_eq!(err, CheckpointError::Truncated { section: "TEST" }, "cut {cut}");
        }
        // A count larger than the remaining bytes is truncation.
        let mut bad = p.clone();
        bad[4..12].copy_from_slice(&1000u64.to_le_bytes());
        assert_eq!(
            decode(&bad, "TEST", fields),
            Err(CheckpointError::Truncated { section: "TEST" })
        );
        // Trailing bytes are malformed.
        assert!(matches!(
            decode(&p, "TEST", |c: &mut Cursor<'_>| c.u32()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
