//! Little-endian wire primitives and the length-prefixed, CRC-protected
//! section framing. Every read threads the current section name so a short
//! read becomes a precise [`CheckpointError::Truncated`].

use crate::error::CheckpointError;
use aaa_runtime::bytes::{crc32, get_u32s, Crc32};
use std::io::{Read, Write};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// One framed section — tag, length, payload, CRC — whose payload is
/// handed over in pieces: each piece is checksummed and written while it
/// is still cache-hot, so a large section is never staged whole.
pub struct SectionWriter<'w, W: Write> {
    w: &'w mut W,
    crc: Crc32,
    left: u64,
}

impl<'w, W: Write> SectionWriter<'w, W> {
    /// Writes the section header; exactly `len` payload bytes must follow.
    pub fn begin(w: &'w mut W, tag: &[u8; 4], len: u64) -> Result<Self, CheckpointError> {
        w.write_all(tag)?;
        w.write_all(&len.to_le_bytes())?;
        Ok(Self { w, crc: Crc32::new(), left: len })
    }

    pub fn put(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let left = self.left.checked_sub(bytes.len() as u64);
        self.left = left.expect("section payload longer than its declared length");
        self.crc.update(bytes);
        Ok(self.w.write_all(bytes)?)
    }

    /// Writes the CRC trailer.
    pub fn finish(self) -> Result<(), CheckpointError> {
        assert_eq!(self.left, 0, "section payload shorter than its declared length");
        Ok(self.w.write_all(&self.crc.finish().to_le_bytes())?)
    }
}

/// Writes one framed section from a payload already in memory.
pub fn write_section(
    w: &mut impl Write,
    tag: &[u8; 4],
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let mut section = SectionWriter::begin(w, tag, payload.len() as u64)?;
    section.put(payload)?;
    section.finish()
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn read_exact(
    r: &mut impl Read,
    buf: &mut [u8],
    section: &'static str,
) -> Result<(), CheckpointError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated { section }
        } else {
            e.into()
        }
    })
}

pub fn read_u32(r: &mut impl Read, section: &'static str) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, section)?;
    Ok(u32::from_le_bytes(b))
}

pub fn read_u64(r: &mut impl Read, section: &'static str) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, section)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads one framed section into `payload` (cleared first; its capacity is
/// reused from section to section), verifying its CRC. Returns the tag.
///
/// The declared length is never trusted with an allocation: the payload is
/// read through [`Read::take`], so the buffer grows only as bytes actually
/// arrive and a corrupted length over a short stream is `Truncated`, not
/// a multi-gigabyte zero-fill.
pub fn read_section(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<[u8; 4], CheckpointError> {
    let mut tag = [0u8; 4];
    read_exact(r, &mut tag, "section header")?;
    let len = read_u64(r, "section header")?;
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

/// Cursor over a section payload for field-level decoding.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self { buf, pos: 0, section }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() - self.pos {
            return Err(CheckpointError::Truncated { section: self.section });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Appends the next `n` `u32`s to `out` in one bulk copy.
    pub fn u32s(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), CheckpointError> {
        let bytes = n.checked_mul(4).ok_or(CheckpointError::Truncated { section: self.section })?;
        get_u32s(self.take(bytes)?, out);
        Ok(())
    }

    /// A `u64` length prefix validated against the bytes actually left
    /// (each element needs at least `elem_bytes`), so corrupted counts fail
    /// as truncation instead of huge allocations.
    pub fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        let fits = n.checked_mul(elem_bytes).map(|total| self.pos + total <= self.buf.len());
        if fits != Some(true) {
            return Err(CheckpointError::Truncated { section: self.section });
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — sections must not carry
    /// trailing garbage.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed(format!(
                "section {}: {} trailing bytes",
                self.section,
                self.buf.len() - self.pos
            )))
        }
    }
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
    fn payload_reader_guards_lengths_and_trailing() {
        let mut p = Vec::new();
        put_u32(&mut p, 7);
        put_u64(&mut p, 2);
        put_u32(&mut p, 10);
        put_u32(&mut p, 20);
        let mut r = PayloadReader::new(&p, "TEST");
        assert_eq!(r.u32().unwrap(), 7);
        let n = r.len_prefix(4).unwrap();
        assert_eq!(n, 2);
        assert_eq!(r.u32().unwrap(), 10);
        assert_eq!(r.u32().unwrap(), 20);
        r.finish().unwrap();

        // A count larger than the remaining bytes is truncation.
        let mut bad = Vec::new();
        put_u64(&mut bad, 1000);
        let mut r = PayloadReader::new(&bad, "TEST");
        assert!(matches!(r.len_prefix(4), Err(CheckpointError::Truncated { .. })));

        // Trailing bytes are malformed.
        let mut r = PayloadReader::new(&p, "TEST");
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(CheckpointError::Malformed(_))));
    }
}
