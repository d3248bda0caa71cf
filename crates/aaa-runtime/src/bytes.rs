//! The workspace's one integrity-and-row-bytes layer.
//!
//! Two byte paths leave a rank: checkpoint sections (`aaa-checkpoint`) and
//! socket frames ([`crate::net`], carrying `aaa-core`'s `NetMsg`s). Both
//! are a checksum over a buffer that is mostly little-endian `u32`
//! distance rows, so both are built from the two primitives here:
//!
//! * [`Crc32`] / [`crc32`] — CRC-32 (IEEE 802.3, reflected, polynomial
//!   `0xEDB88320`), table-driven slice-by-16: sixteen input bytes per step
//!   through sixteen 256-entry tables instead of one byte through one.
//!   The polynomial, initial value and final inversion are the standard
//!   ones, so the value of every checksum already on disk or on the wire
//!   is unchanged — only the speed differs. [`Crc32::update`] is
//!   incremental, so a caller can checksum discontiguous pieces (a frame
//!   header, a zeroed CRC field, a payload) without assembling them.
//! * [`put_u32s`] / [`get_u32s`] — a whole row to or from little-endian
//!   bytes in one call. Safe code (`chunks_exact(4)` + `to_le_bytes` /
//!   `from_le_bytes`) that compiles to a block copy on little-endian hosts
//!   and stays correct on big-endian ones.
//! * [`Cursor`] — the one reader of both byte paths: little-endian fields
//!   off a slice, every read bounds-checked by one `take`, every element
//!   count checked against the bytes left *before* it sizes an allocation.
//!   Its only failure is [`ShortRead`], which the frame codec, `NetMsg`'s
//!   `WireError` and the checkpoint's `CheckpointError` each wrap in their
//!   own truncation variant. [`put_u32`] / [`put_u64`] are the writing side.

/// Slice-by-16 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes. 16 KiB, computed at compile time.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 state. `Crc32::new()`, any number of
/// [`update`](Crc32::update)s, then [`finish`](Crc32::finish); splitting
/// the input differently never changes the result.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let word =
                |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
            let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][(b & 0xFF) as usize]
                ^ t[10][((b >> 8) & 0xFF) as usize]
                ^ t[9][((b >> 16) & 0xFF) as usize]
                ^ t[8][(b >> 24) as usize]
                ^ t[7][(c & 0xFF) as usize]
                ^ t[6][((c >> 8) & 0xFF) as usize]
                ^ t[5][((c >> 16) & 0xFF) as usize]
                ^ t[4][(c >> 24) as usize]
                ^ t[3][(d & 0xFF) as usize]
                ^ t[2][((d >> 8) & 0xFF) as usize]
                ^ t[1][((d >> 16) & 0xFF) as usize]
                ^ t[0][(d >> 24) as usize];
        }
        for &byte in blocks.remainder() {
            crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Appends `row` to `out` as little-endian `u32`s.
pub fn put_u32s(out: &mut Vec<u8>, row: &[u32]) {
    let start = out.len();
    out.resize(start + 4 * row.len(), 0);
    for (dst, &x) in out[start..].chunks_exact_mut(4).zip(row) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Appends the little-endian `u32`s in `bytes` to `out`. The caller has
/// already bounds-checked the slice it passes; a length that is not a
/// multiple of four is a bug in the caller.
pub fn get_u32s(bytes: &[u8], out: &mut Vec<u32>) {
    assert!(bytes.len() % 4 == 0, "u32 row bytes must come in fours");
    out.extend(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
}

/// Appends `x` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Appends `x` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// A read ran past the end of the buffer: `at` is the offset the cursor
/// stood at when the bytes ran out (for an element count, just past the
/// count itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead {
    pub at: usize,
}

/// Little-endian read cursor over a byte slice. Never panics and never
/// allocates on the word of the input: a length the buffer cannot back is a
/// [`ShortRead`] before anything is sized by it.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The next `n` bytes — the one bounds check every other read goes
    /// through.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        if n > self.remaining() {
            return Err(ShortRead { at: self.pos });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ShortRead> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, ShortRead> {
        Ok(self.array::<1>()?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, ShortRead> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Appends the next `n` `u32`s to `out` in one bulk copy.
    #[inline]
    pub fn u32s(&mut self, n: usize, out: &mut Vec<u32>) -> Result<(), ShortRead> {
        let bytes = n.checked_mul(4).ok_or(ShortRead { at: self.pos })?;
        get_u32s(self.take(bytes)?, out);
        Ok(())
    }

    /// `n` as an element count, refused unless the bytes left can hold `n`
    /// elements of at least `elem_bytes` each — so a corrupted count is a
    /// short read, never a huge allocation.
    #[inline]
    fn bounded(&self, n: u64, elem_bytes: usize) -> Result<usize, ShortRead> {
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| (n.checked_mul(elem_bytes.max(1))? <= self.remaining()).then_some(n));
        fits.ok_or(ShortRead { at: self.pos })
    }

    /// A `u32` element count (socket messages), bounded by the bytes left.
    #[inline]
    pub fn count_u32(&mut self, elem_bytes: usize) -> Result<usize, ShortRead> {
        let n = self.u32()?;
        self.bounded(n.into(), elem_bytes)
    }

    /// A `u64` element count (checkpoint sections), bounded by the bytes
    /// left.
    #[inline]
    pub fn count_u64(&mut self, elem_bytes: usize) -> Result<usize, ShortRead> {
        let n = self.u64()?;
        self.bounded(n, elem_bytes)
    }

    /// Bytes not yet consumed; a complete message or section leaves none.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test oracle: the bit-at-a-time definition of the checksum.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Test oracle: the byte-at-a-time table loop `aaa-checkpoint` used.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Test oracle: the element-wise row loops the codecs used.
    fn put_u32s_elementwise(out: &mut Vec<u8>, row: &[u32]) {
        for &x in row {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn get_u32s_elementwise(bytes: &[u8], out: &mut Vec<u32>) {
        let mut pos = 0;
        while pos < bytes.len() {
            out.push(u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")));
            pos += 4;
        }
    }

    /// SplitMix64 bytes — deterministic "random" test data.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len).map(|i| crate::net::mix64(seed, &[i as u64]) as u8).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_alignment() {
        let buf = noise(16 + 300, 0x5EED);
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "start {start} len {len}");
                assert_eq!(crc32_bytewise(data), want, "oracle, start {start} len {len}");
            }
        }
    }

    #[test]
    fn update_split_anywhere_equals_one_shot() {
        let msg = noise(100, 7);
        let want = crc32(&msg);
        for cut in 0..=msg.len() {
            let mut crc = Crc32::new();
            crc.update(&msg[..cut]);
            crc.update(&msg[cut..]);
            assert_eq!(crc.finish(), want, "split at {cut}");
        }
        // Three pieces, the middle one four bytes: the frame decoder's shape.
        let mut crc = Crc32::new();
        crc.update(&msg[..16]);
        crc.update(&msg[16..20]);
        crc.update(&msg[20..]);
        assert_eq!(crc.finish(), want);
    }

    #[test]
    fn row_codec_matches_the_elementwise_reference() {
        for len in [0usize, 1, 2, 3, 7, 8, 9, 64, 1201] {
            let row: Vec<u32> =
                (0..len).map(|i| crate::net::mix64(3, &[i as u64]) as u32).collect();
            let (mut fast, mut slow) = (vec![0xAB], vec![0xAB]);
            put_u32s(&mut fast, &row);
            put_u32s_elementwise(&mut slow, &row);
            assert_eq!(fast, slow, "encode, len {len}");
            let (mut back, mut back_slow) = (vec![9], vec![9]);
            get_u32s(&fast[1..], &mut back);
            get_u32s_elementwise(&fast[1..], &mut back_slow);
            assert_eq!(back, back_slow, "decode, len {len}");
            assert_eq!(&back[1..], row.as_slice());
        }
        // Byte order is pinned, not host order.
        let mut out = Vec::new();
        put_u32s(&mut out, &[0x0403_0201, u32::MAX]);
        assert_eq!(out, [1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn cursor_reads_every_width_and_reports_where_it_ran_out() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0x0201u16.to_le_bytes());
        put_u32(&mut buf, 0x0403_0201);
        put_u64(&mut buf, u64::MAX - 1);
        put_u32s(&mut buf, &[10, 20, 30]);
        let read = |buf: &[u8]| -> Result<_, ShortRead> {
            let mut c = Cursor::new(buf);
            let mut row = vec![9];
            let fields = (c.u8()?, c.u16()?, c.u32()?, c.u64()?);
            c.u32s(3, &mut row)?;
            Ok((fields, row, c.remaining()))
        };
        assert_eq!(
            read(&buf),
            Ok(((7, 0x0201, 0x0403_0201, u64::MAX - 1), vec![9, 10, 20, 30], 0))
        );
        // Cut anywhere, the read that runs out names the offset it began at.
        let starts = [0usize, 1, 3, 7, 15];
        for cut in 0..buf.len() {
            let at = *starts.iter().rev().find(|&&s| s <= cut).expect("0 is a start");
            assert_eq!(read(&buf[..cut]), Err(ShortRead { at }), "cut at {cut}");
        }
        // A failed read consumes nothing.
        let mut c = Cursor::new(&buf[..2]);
        assert_eq!(c.u8(), Ok(7));
        assert_eq!(c.u32(), Err(ShortRead { at: 1 }));
        assert_eq!((c.u8(), c.remaining()), (Ok(1), 0));
        assert_eq!(c.take(0), Ok(&[][..]));
    }

    #[test]
    fn a_count_the_bytes_left_cannot_back_is_a_short_read_not_an_allocation() {
        for elem in [1usize, 4, 12] {
            for n in 0..6u32 {
                let mut buf = Vec::new();
                put_u32(&mut buf, n);
                buf.resize(4 + 24, 0);
                let got = Cursor::new(&buf).count_u32(elem);
                let want =
                    if n as usize * elem <= 24 { Ok(n as usize) } else { Err(ShortRead { at: 4 }) };
                assert_eq!(got, want, "{n} elements of {elem} bytes in 24");
                let mut wide = Vec::new();
                put_u64(&mut wide, n.into());
                wide.resize(8 + 24, 0);
                assert_eq!(
                    Cursor::new(&wide).count_u64(elem),
                    want.map_err(|_| ShortRead { at: 8 })
                );
            }
        }
        // Counts no buffer could back, including ones whose byte size wraps.
        for n in [u32::MAX as u64, 1 << 40, u64::MAX / 4 + 1, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, n);
            buf.extend_from_slice(&[0; 16]);
            assert_eq!(Cursor::new(&buf).count_u64(4), Err(ShortRead { at: 8 }), "count {n}");
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert_eq!(Cursor::new(&buf).count_u32(9), Err(ShortRead { at: 4 }));
        // A zero-size element still costs a byte, as the codecs assume.
        put_u32(&mut buf, 0);
        assert_eq!(Cursor::new(&buf).count_u32(0), Err(ShortRead { at: 4 }));
        // A bulk row longer than the buffer, or than the address space.
        let mut c = Cursor::new(&buf);
        let mut out = Vec::new();
        assert_eq!(c.u32s(3, &mut out), Err(ShortRead { at: 0 }));
        assert_eq!(c.u32s(usize::MAX / 2, &mut out), Err(ShortRead { at: 0 }));
        assert!(out.is_empty() && out.capacity() == 0);
    }

    /// Best-of-five wall time of `f`, in seconds.
    fn best_of_5(mut f: impl FnMut()) -> f64 {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Host-stable ratio gates (CI `perf-gate` runs this in release):
    /// the shared paths against the loops they replaced, on the same box
    /// in the same process, so the host's speed cancels.
    #[test]
    #[ignore = "timing; run in release: cargo test --release -p aaa-runtime -- --ignored throughput_ratios"]
    fn throughput_ratios() {
        use std::hint::black_box;
        let data = noise(4 << 20, 42);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        let fast = best_of_5(|| {
            black_box(crc32(black_box(&data)));
        });
        let slow = best_of_5(|| {
            black_box(crc32_bytewise(black_box(&data)));
        });
        let mbps = |s: f64| data.len() as f64 / 1e6 / s;
        println!(
            "crc32: slice-by-16 {:.0} MB/s, byte table {:.0} MB/s, ratio {:.2}",
            mbps(fast),
            mbps(slow),
            slow / fast
        );
        assert!(slow / fast >= 2.0, "shared crc32 only {:.2}x the byte-table loop", slow / fast);

        let rows: Vec<Vec<u32>> = (0..1000u64)
            .map(|r| (0..1200u64).map(|c| crate::net::mix64(r, &[c]) as u32).collect())
            .collect();
        let mut bytes = Vec::new();
        let mut back: Vec<u32> = Vec::new();
        let mut codec = |put: fn(&mut Vec<u8>, &[u32]), get: fn(&[u8], &mut Vec<u32>)| {
            best_of_5(|| {
                bytes.clear();
                for row in black_box(&rows) {
                    put(&mut bytes, row);
                }
                for chunk in black_box(&bytes).chunks_exact(4 * 1200) {
                    back.clear();
                    get(chunk, &mut back);
                    black_box(&back);
                }
            })
        };
        let fast = codec(put_u32s, get_u32s);
        let slow = codec(put_u32s_elementwise, get_u32s_elementwise);
        println!(
            "row codec: bulk {:.0} MB/s, element-wise {:.0} MB/s, ratio {:.2}",
            2.0 * 4.8 / fast,
            2.0 * 4.8 / slow,
            slow / fast
        );
        assert!(
            slow / fast >= 2.0,
            "bulk row codec only {:.2}x the element-wise loops",
            slow / fast
        );
    }
}
