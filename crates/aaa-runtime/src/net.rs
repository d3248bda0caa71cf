//! The real transport layer: length-prefixed CRC'd frames over sockets.
//!
//! Everything else in this crate simulates a cluster in-process; this
//! module is the escape hatch to an actual one. It provides the pieces a
//! multi-process deployment needs and nothing engine-specific:
//!
//! * [`Frame`] / [`FrameKind`] — the wire unit: a 20-byte little-endian
//!   header (magic, kind, flags, sequence number, payload length, CRC32
//!   over the whole frame) followed by an opaque payload. Every corruption
//!   of any single bit is detected and surfaces as a typed [`FrameError`];
//!   decoding never panics and never reads past the buffer.
//! * [`NetChaos`] — seeded fault injection at the socket layer: connection
//!   resets, partial writes, frame delay/duplication/corruption. Like
//!   [`ChaosPlan`](crate::ChaosPlan) it is a pure function of a seed and
//!   the frame coordinate, so a given seed reproduces the same fault
//!   schedule on every run.
//! * [`Backoff`] — capped exponential reconnect backoff with
//!   deterministic SplitMix64 jitter (no RNG state, no wall clock in the
//!   schedule itself).
//! * [`Transport`] — the rank-to-rank link abstraction, with two
//!   implementations: [`LocalTransport`] (in-process paired queues — the
//!   deterministic mode tests run on) and [`SocketTransport`] (a real
//!   `TcpStream` with per-peer sequence numbers, idempotent replay of
//!   unacknowledged frames, heartbeat auto-acknowledgement, and — on the
//!   dialing side — transparent reconnection under [`Backoff`]).
//!
//! Failure-detection contract: every receive takes a deadline. A peer
//! that neither answers its protocol message nor acknowledges a
//! [`FrameKind::Heartbeat`] probe within its deadline is declared dead
//! ([`NetError::PeerDead`]); the supervision above (`aaa-core::net`)
//! decides whether to respawn, fall back to a checkpoint, or degrade.

pub use crate::bytes::crc32;
use crate::bytes::{Crc32, Cursor, ShortRead};
use crate::chaos::{backoff, mix, pick, unit};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Re-exported SplitMix64 chain-hash (order-sensitive) — the one
/// generator behind [`crate::ChaosPlan`], [`NetChaos`] and [`Backoff`]
/// jitter, exposed so higher layers derive schedules from the same seed.
#[inline]
pub fn mix64(seed: u64, vals: &[u64]) -> u64 {
    mix(seed, vals)
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Frame magic: "AA" for anytime-anywhere, with the high bit set so text
/// protocols can never alias it.
pub const FRAME_MAGIC: u16 = 0xAA7A;

/// Header bytes: magic(2) kind(1) flags(1) seq(8) len(4) crc(4).
pub const FRAME_HEADER_LEN: usize = 20;

/// Payload cap: a frame longer than this is rejected before allocation,
/// so a corrupted or malicious length field cannot OOM the receiver.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// How long a *partial* frame may sit without a single new byte before
/// the stream is declared desynced. Senders write frames atomically, so
/// mid-frame progress only ever stalls when framing was lost — most
/// often a corrupted length field inflating the frame beyond what the
/// sender will ever deliver.
pub const FRAME_STALL_TIMEOUT: Duration = Duration::from_secs(1);

/// Transport-level frame kinds. Payload semantics above `Data` belong to
/// the protocol layer (`aaa-core::net`); the rest are control frames owned
/// by this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection (re-)establishment: carries a [`Hello`].
    Hello = 1,
    /// Handshake reply: payload is the acceptor's last received sequence
    /// number (LE u64), so the dialer knows what to replay.
    HelloAck = 2,
    /// Sequenced application payload (replayed until acknowledged).
    Data = 3,
    /// Liveness probe; payload is an opaque nonce echoed by the ack.
    Heartbeat = 4,
    /// Probe reply (echoes the probe's nonce).
    HeartbeatAck = 5,
    /// Cumulative receive acknowledgement: payload is the highest
    /// contiguous `Data` sequence number processed (LE u64).
    Ack = 6,
    /// Orderly teardown.
    Shutdown = 7,
}

impl FrameKind {
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => Self::Hello,
            2 => Self::HelloAck,
            3 => Self::Data,
            4 => Self::Heartbeat,
            5 => Self::HeartbeatAck,
            6 => Self::Ack,
            7 => Self::Shutdown,
            _ => return None,
        })
    }

    /// Every kind, in wire order (property tests iterate this).
    pub const ALL: [FrameKind; 7] = [
        FrameKind::Hello,
        FrameKind::HelloAck,
        FrameKind::Data,
        FrameKind::Heartbeat,
        FrameKind::HeartbeatAck,
        FrameKind::Ack,
        FrameKind::Shutdown,
    ];
}

/// One decoded frame. `seq` is 0 for unsequenced control frames; `Data`
/// frames carry 1-based per-connection sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Typed codec errors. Every malformed input maps to exactly one of
/// these; the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes available than the header (or header + payload) needs.
    Truncated { have: usize, need: usize },
    /// First two bytes are not [`FRAME_MAGIC`].
    BadMagic(u16),
    /// Kind byte outside the known range.
    UnknownKind(u8),
    /// Reserved flags byte is non-zero.
    BadFlags(u8),
    /// Length field exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge { len: u32, cap: u32 },
    /// CRC mismatch: the frame was damaged in flight.
    BadCrc { expect: u32, got: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadFlags(b) => write!(f, "reserved frame flags set: {b:#04x}"),
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame payload of {len} bytes exceeds cap {cap}")
            }
            FrameError::BadCrc { expect, got } => {
                write!(f, "frame CRC mismatch: expected {expect:#010x}, got {got:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame. The CRC covers the *entire* frame (header with the
/// CRC field zeroed, then payload), so any single-bit corruption anywhere
/// — including in the header — is detected.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + frame.payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(frame.kind as u8);
    out.push(0); // flags, reserved
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out);
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes one frame from the front of `buf`. Returns the frame and the
/// number of bytes consumed. [`FrameError::Truncated`] means "read more
/// and try again"; every other error poisons the stream (framing can no
/// longer be trusted and the connection must be torn down).
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let short = |need: usize| move |_: ShortRead| FrameError::Truncated { have: buf.len(), need };
    let mut c = Cursor::new(buf);
    let header = |c: &mut Cursor<'_>| -> Result<_, ShortRead> {
        Ok((c.u16()?, c.u8()?, c.u8()?, c.u64()?, c.u32()?, c.u32()?))
    };
    let (magic, kind, flags, seq, len, got) = header(&mut c).map_err(short(FRAME_HEADER_LEN))?;
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind = FrameKind::from_u8(kind).ok_or(FrameError::UnknownKind(kind))?;
    if flags != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge { len, cap: MAX_FRAME_PAYLOAD });
    }
    let total = FRAME_HEADER_LEN + len as usize;
    let payload = c.take(len as usize).map_err(short(total))?;
    // The sender checksummed the frame with its CRC field zeroed; feed the
    // same bytes in three pieces rather than copying the frame to zero it.
    let mut crc = Crc32::new();
    crc.update(&buf[..16]);
    crc.update(&[0; 4]);
    crc.update(payload);
    let expect = crc.finish();
    if expect != got {
        return Err(FrameError::BadCrc { expect, got });
    }
    Ok((Frame { kind, seq, payload: payload.to_vec() }, total))
}

// ---------------------------------------------------------------------
// Hello (handshake payload)
// ---------------------------------------------------------------------

/// Handshake payload: who is connecting and how much it has already seen.
/// `session` distinguishes a reconnecting peer (state intact, same
/// session) from a respawned one (state lost, new session) — the
/// supervisor re-initializes the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting rank.
    pub rank: u32,
    /// Process incarnation (e.g. the OS pid, or any per-spawn unique id).
    pub session: u64,
    /// Highest contiguous `Data` sequence number this peer has processed
    /// from us; we replay everything after it.
    pub last_recv: u64,
}

impl Hello {
    pub fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20);
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.last_recv.to_le_bytes());
        out
    }

    pub fn from_bytes(b: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(b);
        let read = |c: &mut Cursor<'_>| -> Result<Self, ShortRead> {
            Ok(Self { rank: c.u32()?, session: c.u64()?, last_recv: c.u64()? })
        };
        read(&mut c).map_err(|_| FrameError::Truncated { have: b.len(), need: 20 })
    }
}

// ---------------------------------------------------------------------
// NetChaos — socket-layer fault injection
// ---------------------------------------------------------------------

/// The fate [`NetChaos`] assigns to one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Written normally.
    Deliver,
    /// One bit of the encoded frame is flipped before the write; the
    /// receiver's CRC rejects it and tears the connection down.
    Corrupt,
    /// The frame is written twice (receiver deduplicates by sequence).
    Duplicate,
    /// The write is held for this many milliseconds first.
    DelayMs(u64),
    /// The connection is shut down without writing (a peer reset).
    Reset,
    /// Only a prefix of the frame is written, then the connection is shut
    /// down — the classic torn write.
    PartialWrite,
}

/// Seeded, deterministic socket-fault schedule — [`crate::ChaosPlan`]'s
/// sibling for real connections. The fate of the `ordinal`-th frame sent
/// on a lane is a pure function of `(seed, lane, ordinal)`; after
/// `horizon` frames per lane the link is clean, modeling partial synchrony
/// exactly like the in-process plan. Process kills are not drawn here —
/// they are injected by the driver that owns the child processes (see
/// `net_cluster`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetChaos {
    pub seed: u64,
    /// P(frame corrupted).
    pub corrupt_p: f64,
    /// P(frame duplicated).
    pub dup_p: f64,
    /// P(frame delayed); delays are 1..=`max_delay_ms` real milliseconds.
    pub delay_p: f64,
    pub max_delay_ms: u64,
    /// P(connection reset instead of the write).
    pub reset_p: f64,
    /// P(torn write: prefix then shutdown).
    pub partial_p: f64,
    /// Faults fire only for per-lane ordinals strictly below this.
    pub horizon: u64,
}

impl NetChaos {
    /// The inert plan.
    pub fn none() -> Self {
        Self {
            seed: 0,
            corrupt_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay_ms: 0,
            reset_p: 0.0,
            partial_p: 0.0,
            horizon: 0,
        }
    }

    /// A balanced plan: `rate` split evenly across the five fault kinds,
    /// delays of 1–3 ms, clean after `horizon` frames per lane. Degenerate
    /// inputs yield the inert plan, mirroring [`crate::ChaosPlan::seeded`].
    pub fn seeded(seed: u64, rate: f64, horizon: u64) -> Self {
        if rate.is_nan() || rate <= 0.0 || horizon == 0 {
            return Self::none();
        }
        let q = rate.min(1.0) / 5.0;
        Self {
            seed,
            corrupt_p: q,
            dup_p: q,
            delay_p: q,
            max_delay_ms: 3,
            reset_p: q,
            partial_p: q,
            horizon,
        }
    }

    pub fn is_none(&self) -> bool {
        self.horizon == 0
            || (self.corrupt_p <= 0.0
                && self.dup_p <= 0.0
                && self.delay_p <= 0.0
                && self.reset_p <= 0.0
                && self.partial_p <= 0.0)
    }

    /// Fate of the `ordinal`-th frame sent on `lane`. Pure and
    /// reproducible: same seed, same schedule, on every run.
    pub fn fate(&self, lane: u64, ordinal: u64) -> NetFault {
        if self.is_none() || ordinal >= self.horizon {
            return NetFault::Deliver;
        }
        let draw = |tag: u64| mix(self.seed, &[tag, lane, ordinal]);
        let probs = [self.corrupt_p, self.dup_p, self.delay_p, self.reset_p, self.partial_p];
        match pick(unit(draw(11)), &probs) {
            Some(0) => NetFault::Corrupt,
            Some(1) => NetFault::Duplicate,
            Some(2) => NetFault::DelayMs(1 + draw(12) % self.max_delay_ms.max(1)),
            Some(3) => NetFault::Reset,
            Some(_) => NetFault::PartialWrite,
            None => NetFault::Deliver,
        }
    }
}

// ---------------------------------------------------------------------
// Backoff — capped exponential with deterministic jitter
// ---------------------------------------------------------------------

/// Reconnect backoff: `base · factor^(attempt−1)` capped at `cap_ms`, then
/// scaled by a deterministic jitter factor in `[0.5, 1.0]` drawn from
/// SplitMix64 over `(seed, lane, attempt)` — no RNG state, no clock, so
/// every process computes the identical schedule and herds never
/// synchronize on the exact cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    pub base_ms: u64,
    pub factor: f64,
    pub cap_ms: u64,
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self { base_ms: 10, factor: 2.0, cap_ms: 500, seed: 0 }
    }
}

impl Backoff {
    /// Delay before retry `attempt` (1-based) on `lane`, in milliseconds.
    /// Always ≥ 1 so a retry loop can never spin hot.
    pub fn delay_ms(&self, attempt: u32, lane: u64) -> u64 {
        let raw = backoff(self.base_ms as f64, self.factor, attempt).min(self.cap_ms as f64);
        let jitter = 0.5 + 0.5 * unit(mix(self.seed, &[13, lane, attempt as u64]));
        ((raw * jitter) as u64).max(1)
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Transport-layer errors. `Timeout` is recoverable (probe and retry);
/// `PeerDead` means the failure detector has given up on this link and
/// supervision must replace it or degrade.
#[derive(Debug)]
pub enum NetError {
    /// Frame-codec failure (stream poisoned).
    Frame(FrameError),
    /// Socket I/O failure.
    Io { kind: std::io::ErrorKind, context: String },
    /// Nothing arrived within the deadline.
    Timeout { peer: String, waited: Duration },
    /// The link is down and could not be re-established.
    PeerDead { peer: String },
    /// The peer spoke, but not the protocol we expected.
    Protocol { peer: String, what: String },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Io { kind, context } => write!(f, "io error ({kind:?}): {context}"),
            NetError::Timeout { peer, waited } => {
                write!(f, "timeout waiting on {peer} after {waited:?}")
            }
            NetError::PeerDead { peer } => write!(f, "peer {peer} is dead"),
            NetError::Protocol { peer, what } => write!(f, "protocol error from {peer}: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

fn io_err(e: &std::io::Error, context: &str) -> NetError {
    NetError::Io { kind: e.kind(), context: context.to_string() }
}

// ---------------------------------------------------------------------
// Transport trait
// ---------------------------------------------------------------------

/// One bidirectional rank-to-rank link. Two implementations ship:
/// [`LocalTransport`] (deterministic, in-process, lossless) and
/// [`SocketTransport`] (real TCP with chaos, replay and reconnection).
/// Protocol code (`aaa-core::net`) is generic over this trait, so the
/// same worker loop runs under both.
pub trait Transport: Send {
    /// Sends one frame; returns its sequence number (0 for unsequenced
    /// control kinds). `Data` frames are buffered for replay until the
    /// peer acknowledges them.
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError>;

    /// Receives the next application frame, transparently handling
    /// control traffic (acks are absorbed, heartbeats are auto-acked,
    /// duplicates are dropped). `None` blocks indefinitely.
    fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError>;

    /// Human-readable peer label for diagnostics.
    fn peer(&self) -> String;
}

// ---------------------------------------------------------------------
// LocalTransport — the deterministic in-process implementation
// ---------------------------------------------------------------------

/// In-process transport over paired queues: lossless, ordered, zero
/// chaos. This is the `Transport` the deterministic mode runs on — unit
/// tests and the cross-transport equivalence suite drive the exact same
/// protocol code over it without sockets.
#[derive(Debug)]
pub struct LocalTransport {
    tx: std::sync::mpsc::Sender<Frame>,
    rx: std::sync::mpsc::Receiver<Frame>,
    next_seq: u64,
    peer: String,
}

impl LocalTransport {
    /// A connected pair: what `a` sends, `b` receives, and vice versa.
    pub fn pair(a: &str, b: &str) -> (LocalTransport, LocalTransport) {
        let (atx, brx) = std::sync::mpsc::channel();
        let (btx, arx) = std::sync::mpsc::channel();
        (
            LocalTransport { tx: atx, rx: arx, next_seq: 0, peer: b.to_string() },
            LocalTransport { tx: btx, rx: brx, next_seq: 0, peer: a.to_string() },
        )
    }
}

impl Transport for LocalTransport {
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
        let seq = if kind == FrameKind::Data {
            self.next_seq += 1;
            self.next_seq
        } else {
            0
        };
        self.tx
            .send(Frame { kind, seq, payload: payload.to_vec() })
            .map_err(|_| NetError::PeerDead { peer: self.peer.clone() })?;
        Ok(seq)
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
        let start = Instant::now();
        loop {
            let frame = match deadline {
                None => {
                    self.rx.recv().map_err(|_| NetError::PeerDead { peer: self.peer.clone() })?
                }
                Some(limit) => {
                    let left = limit
                        .checked_sub(start.elapsed())
                        .ok_or(NetError::Timeout { peer: self.peer.clone(), waited: limit })?;
                    match self.rx.recv_timeout(left) {
                        Ok(f) => f,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                            return Err(NetError::Timeout {
                                peer: self.peer.clone(),
                                waited: limit,
                            })
                        }
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                            return Err(NetError::PeerDead { peer: self.peer.clone() })
                        }
                    }
                }
            };
            match frame.kind {
                FrameKind::Heartbeat => {
                    // Liveness is answered by the transport itself, like
                    // the socket implementation does.
                    let _ = self.send(FrameKind::HeartbeatAck, &frame.payload.clone());
                }
                FrameKind::Ack => {}
                _ => return Ok(frame),
            }
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

// ---------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------

/// Live-connection state: the stream plus its read reassembly buffer.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A framed, sequenced, chaos-aware TCP link.
///
/// * **Idempotent replay** — every `Data` frame is kept until the peer's
///   cumulative [`FrameKind::Ack`] covers it; on reconnect the handshake
///   exchanges last-seen sequence numbers and exactly the unacknowledged
///   suffix is retransmitted. The receiver drops duplicates by sequence,
///   so every fault mode reduces to at-least-once + dedup = exactly-once.
/// * **Dialer vs acceptor** — a link made by [`SocketTransport::dial`]
///   owns reconnection: any stream failure triggers redial under
///   [`Backoff`] with a fresh handshake. An accepted link
///   ([`SocketTransport::accept`]) cannot dial; when its stream dies it
///   reports the error and waits for the supervisor to [`SocketTransport::rebind`]
///   it onto the replacement connection.
/// * **Chaos** — outgoing frames draw a [`NetFault`] from the installed
///   [`NetChaos`]; corruption/duplication/delay are applied to the encoded
///   bytes, resets and partial writes kill the stream mid-frame.
pub struct SocketTransport {
    conn: Option<Conn>,
    /// `Some(addr)` for the dialing side; `None` for the accepted side.
    redial: Option<String>,
    /// Identity presented on (re)connect (dialing side).
    hello: Hello,
    backoff: Backoff,
    max_dial_attempts: u32,
    handshake_timeout: Duration,
    chaos: NetChaos,
    /// Chaos lane (stable across reconnects).
    lane: u64,
    /// Frames sent on this lane so far (the chaos ordinal).
    sends: u64,
    next_seq: u64,
    last_recv: u64,
    replay: VecDeque<(u64, Vec<u8>)>,
    /// Sequence numbers the peer has acknowledged.
    peer_acked: u64,
    /// Total successful reconnects (diagnostics).
    pub reconnects: u64,
    peer: String,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("peer", &self.peer)
            .field("up", &self.conn.is_some())
            .field("next_seq", &self.next_seq)
            .field("last_recv", &self.last_recv)
            .field("replay_depth", &self.replay.len())
            .finish()
    }
}

impl SocketTransport {
    /// Dials `addr`, performs the hello handshake, and returns a link
    /// that transparently reconnects (with capped, jittered backoff) for
    /// the rest of its life. `hello.rank` doubles as the chaos lane.
    pub fn dial(
        addr: &str,
        hello: Hello,
        chaos: NetChaos,
        backoff: Backoff,
        max_dial_attempts: u32,
        handshake_timeout: Duration,
    ) -> Result<Self, NetError> {
        let mut t = Self {
            conn: None,
            redial: Some(addr.to_string()),
            hello,
            backoff,
            max_dial_attempts,
            handshake_timeout,
            chaos,
            lane: 2 * hello.rank as u64 + 1,
            sends: 0,
            next_seq: 0,
            last_recv: 0,
            replay: VecDeque::new(),
            peer_acked: 0,
            reconnects: 0,
            peer: format!("coordinator@{addr}"),
        };
        t.reconnect()?;
        t.reconnects = 0; // the first dial is not a *re*connect
        Ok(t)
    }

    /// Wraps an accepted stream after reading its [`Hello`] (done by
    /// [`read_hello`]), replies with `HelloAck`, and replays anything the
    /// peer reports missing. The acceptor's chaos lane is `2·rank`.
    pub fn accept(stream: TcpStream, hello: Hello, chaos: NetChaos) -> Result<Self, NetError> {
        let mut t = Self {
            conn: None,
            redial: None,
            hello,
            backoff: Backoff::default(),
            max_dial_attempts: 1,
            handshake_timeout: Duration::from_secs(5),
            chaos,
            lane: 2 * hello.rank as u64,
            sends: 0,
            next_seq: 0,
            last_recv: 0,
            replay: VecDeque::new(),
            peer_acked: 0,
            reconnects: 0,
            peer: format!("rank{}", hello.rank),
        };
        t.install(stream, hello.last_recv)?;
        Ok(t)
    }

    /// Rebinds an accepted link onto a replacement connection after the
    /// peer reconnected (same session) — carried sequence/replay state
    /// survives, so nothing is lost and nothing is applied twice.
    pub fn rebind(&mut self, stream: TcpStream, hello: Hello) -> Result<(), NetError> {
        self.hello = hello;
        self.install(stream, hello.last_recv)?;
        self.reconnects += 1;
        Ok(())
    }

    /// Blocks until the peer has acknowledged every sequenced frame sent
    /// so far, healing the link (reconnect + replay) whenever progress
    /// stalls. Only call when no inbound application frames are expected
    /// — any that arrive while draining are discarded. This is the
    /// sender's end-of-stream barrier: after it returns `Ok`, every
    /// `Data` frame has been processed by the peer exactly once.
    pub fn flush_acked(&mut self, deadline: Duration) -> Result<(), NetError> {
        let start = Instant::now();
        let mut last_progress = self.peer_acked;
        let mut stall = Instant::now();
        while self.peer_acked < self.next_seq {
            if start.elapsed() >= deadline {
                return Err(NetError::Timeout { peer: self.peer.clone(), waited: deadline });
            }
            match self.recv(Some(Duration::from_millis(50))) {
                Ok(_) => {}
                Err(NetError::Timeout { .. }) => {
                    // No acks flowing. If nothing moved for a while the
                    // peer probably dropped our unacked tail (e.g. a CRC
                    // reject it has not told us about): force a reconnect
                    // so the replay buffer retransmits it.
                    if self.peer_acked == last_progress
                        && stall.elapsed() > Duration::from_millis(100)
                        && self.redial.is_some()
                    {
                        self.conn = None;
                        self.reconnect()?;
                        stall = Instant::now();
                    }
                }
                Err(NetError::PeerDead { peer }) => return Err(NetError::PeerDead { peer }),
                Err(_) => {
                    self.conn = None;
                    if self.redial.is_some() {
                        self.reconnect()?;
                    }
                }
            }
            if self.peer_acked != last_progress {
                last_progress = self.peer_acked;
                stall = Instant::now();
            }
        }
        Ok(())
    }

    /// Installs a fresh stream: acceptor side sends `HelloAck` with its
    /// receive cursor; both sides then replay unacknowledged frames past
    /// the peer's cursor.
    fn install(&mut self, stream: TcpStream, peer_last_recv: u64) -> Result<(), NetError> {
        stream.set_nodelay(true).ok();
        self.conn = Some(Conn { stream, buf: Vec::new() });
        if self.redial.is_none() {
            let ack = Frame {
                kind: FrameKind::HelloAck,
                seq: 0,
                payload: self.last_recv.to_le_bytes().to_vec(),
            };
            self.write_plain(&encode_frame(&ack))?;
        }
        self.replay_after(peer_last_recv)
    }

    /// Retransmits every buffered frame with `seq > cursor`.
    fn replay_after(&mut self, cursor: u64) -> Result<(), NetError> {
        let pending: Vec<Vec<u8>> = self
            .replay
            .iter()
            .filter(|(seq, _)| *seq > cursor)
            .map(|(_, bytes)| bytes.clone())
            .collect();
        for bytes in pending {
            self.write_with_chaos(&bytes)?;
        }
        Ok(())
    }

    /// Dial + handshake loop under backoff. On success the unacked suffix
    /// is replayed.
    fn reconnect(&mut self) -> Result<(), NetError> {
        let addr = match &self.redial {
            Some(a) => a.clone(),
            None => return Err(NetError::PeerDead { peer: self.peer.clone() }),
        };
        self.conn = None;
        for attempt in 1..=self.max_dial_attempts.max(1) {
            if attempt > 1 {
                std::thread::sleep(Duration::from_millis(
                    self.backoff.delay_ms(attempt - 1, self.lane),
                ));
            }
            let Ok(stream) = connect(&addr) else { continue };
            stream.set_nodelay(true).ok();
            // Handshake is deliberately chaos-free: chaos models a faulty
            // network *channel*, and a handshake that can never complete
            // would turn every finite-horizon plan into a dead cluster.
            let mut hello = self.hello;
            hello.last_recv = self.last_recv;
            let frame = Frame { kind: FrameKind::Hello, seq: 0, payload: hello.to_bytes() };
            let mut conn = Conn { stream, buf: Vec::new() };
            if conn.stream.write_all(&encode_frame(&frame)).is_err() {
                continue;
            }
            match read_frame_from(&mut conn, Some(self.handshake_timeout), &self.peer)
                .map(|f| (f.kind, Cursor::new(&f.payload).u64()))
            {
                Ok((FrameKind::HelloAck, Ok(cursor))) => {
                    self.conn = Some(conn);
                    // A chaos fault during replay kills this stream too;
                    // that is a failed attempt, not a dead peer.
                    if self.replay_after(cursor).is_err() {
                        self.conn = None;
                        continue;
                    }
                    self.reconnects += 1;
                    return Ok(());
                }
                _ => continue,
            }
        }
        Err(NetError::PeerDead { peer: self.peer.clone() })
    }

    /// Writes raw bytes, no chaos (handshake / acks of the handshake).
    fn write_plain(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let peer = self.peer.clone();
        let conn = self.conn.as_mut().ok_or(NetError::PeerDead { peer: peer.clone() })?;
        conn.stream.write_all(bytes).map_err(|e| {
            self.conn = None;
            io_err(&e, "write")
        })
    }

    /// Writes one encoded frame through the chaos plan.
    fn write_with_chaos(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let fate = self.chaos.fate(self.lane, self.sends);
        self.sends += 1;
        let peer = self.peer.clone();
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => return Err(NetError::PeerDead { peer }),
        };
        let broken = |conn: &mut Option<Conn>, what: &str| -> NetError {
            *conn = None;
            NetError::Io { kind: std::io::ErrorKind::ConnectionReset, context: what.to_string() }
        };
        match fate {
            NetFault::Deliver => {
                conn.stream.write_all(bytes).map_err(|e| {
                    self.conn = None;
                    io_err(&e, "write")
                })?;
            }
            NetFault::Corrupt => {
                let mut mangled = bytes.to_vec();
                let bit =
                    mix(self.chaos.seed, &[14, self.lane, self.sends]) as usize % (bytes.len() * 8);
                mangled[bit / 8] ^= 1 << (bit % 8);
                conn.stream.write_all(&mangled).map_err(|e| {
                    self.conn = None;
                    io_err(&e, "write")
                })?;
            }
            NetFault::Duplicate => {
                let twice: Vec<u8> = bytes.iter().chain(bytes.iter()).copied().collect();
                conn.stream.write_all(&twice).map_err(|e| {
                    self.conn = None;
                    io_err(&e, "write")
                })?;
            }
            NetFault::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                conn.stream.write_all(bytes).map_err(|e| {
                    self.conn = None;
                    io_err(&e, "write")
                })?;
            }
            NetFault::Reset => {
                conn.stream.shutdown(std::net::Shutdown::Both).ok();
                return Err(broken(&mut self.conn, "injected connection reset"));
            }
            NetFault::PartialWrite => {
                let half = &bytes[..bytes.len() / 2];
                conn.stream.write_all(half).ok();
                conn.stream.shutdown(std::net::Shutdown::Both).ok();
                return Err(broken(&mut self.conn, "injected partial write"));
            }
        }
        Ok(())
    }

    /// Sends with dialer-side self-healing: a failed write triggers a
    /// reconnect (which replays the sequenced suffix) and the send is
    /// considered done — the frame sits in the replay buffer either way.
    /// Control frames are best-effort across a heal by design.
    fn send_healing(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        match self.write_with_chaos(bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                if self.redial.is_some() {
                    self.reconnect()
                } else {
                    Err(e)
                }
            }
        }
    }
}

/// Connects with each resolved address tried once.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
    let mut last = std::io::Error::new(std::io::ErrorKind::NotFound, "no address");
    for a in addrs {
        match TcpStream::connect_timeout(&a, Duration::from_secs(2)) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Reads one well-formed frame from `conn`, within `deadline`. Framing
/// errors other than `Truncated` poison the stream and are returned as
/// [`NetError::Frame`]; EOF mid-frame maps to a connection-reset I/O
/// error.
fn read_frame_from(
    conn: &mut Conn,
    deadline: Option<Duration>,
    peer: &str,
) -> Result<Frame, NetError> {
    let start = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        match decode_frame(&conn.buf) {
            Ok((frame, used)) => {
                conn.buf.drain(..used);
                return Ok(frame);
            }
            Err(FrameError::Truncated { .. }) => {}
            Err(e) => return Err(NetError::Frame(e)),
        }
        // A frame the sender started must finish promptly: senders write
        // frames atomically, so a partial frame that makes no byte
        // progress for FRAME_STALL_TIMEOUT means the stream is desynced —
        // typically a corrupted length field promising bytes that will
        // never come (the CRC can only be verified once the whole claimed
        // length arrives). Poisoning here, instead of waiting out the
        // caller's (possibly much longer) idle deadline, lets the dialer
        // redial while the supervisor's window is still open.
        if !conn.buf.is_empty() && last_progress.elapsed() >= FRAME_STALL_TIMEOUT {
            return Err(NetError::Io {
                kind: std::io::ErrorKind::InvalidData,
                context: format!("frame stalled mid-delivery ({} bytes buffered)", conn.buf.len()),
            });
        }
        let timeout = match deadline {
            Some(limit) => {
                let left = limit
                    .checked_sub(start.elapsed())
                    .ok_or(NetError::Timeout { peer: peer.to_string(), waited: limit })?;
                Some(left.max(Duration::from_millis(1)))
            }
            None => None,
        };
        let timeout = if conn.buf.is_empty() {
            timeout
        } else {
            // Cap the wait so the stall check above fires on schedule.
            let stall_left = FRAME_STALL_TIMEOUT
                .saturating_sub(last_progress.elapsed())
                .max(Duration::from_millis(1));
            Some(timeout.map_or(stall_left, |t| t.min(stall_left)))
        };
        conn.stream.set_read_timeout(timeout).map_err(|e| io_err(&e, "set_read_timeout"))?;
        let mut chunk = [0u8; 16 * 1024];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(NetError::Io {
                    kind: std::io::ErrorKind::ConnectionReset,
                    context: "eof mid-stream".to_string(),
                })
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Loop back; the deadline check at the top fires when due.
                if let Some(limit) = deadline {
                    if start.elapsed() >= limit {
                        return Err(NetError::Timeout { peer: peer.to_string(), waited: limit });
                    }
                }
            }
            Err(e) => return Err(io_err(&e, "read")),
        }
    }
}

/// Reads the opening [`Hello`] from a freshly accepted stream — the
/// acceptor calls this before wrapping the stream in
/// [`SocketTransport::accept`] or rebinding an existing link.
pub fn read_hello(stream: &mut TcpStream, deadline: Duration) -> Result<Hello, NetError> {
    let mut conn =
        Conn { stream: stream.try_clone().map_err(|e| io_err(&e, "clone"))?, buf: Vec::new() };
    let frame = read_frame_from(&mut conn, Some(deadline), "incoming")?;
    if frame.kind != FrameKind::Hello {
        return Err(NetError::Protocol {
            peer: "incoming".to_string(),
            what: format!("expected Hello, got {:?}", frame.kind),
        });
    }
    Hello::from_bytes(&frame.payload).map_err(NetError::Frame)
}

impl Transport for SocketTransport {
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
        if self.conn.is_none() {
            if self.redial.is_some() {
                self.reconnect()?;
            } else {
                return Err(NetError::PeerDead { peer: self.peer.clone() });
            }
        }
        let sequenced = kind == FrameKind::Data;
        let seq = if sequenced {
            self.next_seq += 1;
            self.next_seq
        } else {
            0
        };
        let bytes = encode_frame(&Frame { kind, seq, payload: payload.to_vec() });
        if sequenced {
            self.replay.push_back((seq, bytes.clone()));
            // Keep the buffer bounded even if acks are slow: drop entries
            // the peer has acknowledged.
            while self.replay.front().is_some_and(|(s, _)| *s <= self.peer_acked) {
                self.replay.pop_front();
            }
        }
        self.send_healing(&bytes)?;
        Ok(seq)
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
        let start = Instant::now();
        loop {
            if let Some(limit) = deadline {
                if start.elapsed() >= limit {
                    return Err(NetError::Timeout { peer: self.peer.clone(), waited: limit });
                }
            }
            if self.conn.is_none() {
                if self.redial.is_some() {
                    self.reconnect()?;
                } else {
                    return Err(NetError::PeerDead { peer: self.peer.clone() });
                }
            }
            let left = deadline.map(|limit| limit.saturating_sub(start.elapsed()));
            let peer = self.peer.clone();
            let result = {
                let conn = self.conn.as_mut().expect("ensured above");
                read_frame_from(conn, left, &peer)
            };
            let frame = match result {
                Ok(f) => f,
                Err(NetError::Timeout { peer, waited }) => {
                    // An *empty* buffer at the deadline is idleness; a
                    // partial frame is a wedged or desynced stream — e.g. a
                    // corrupted length field promising bytes that never
                    // come. The CRC can only be checked once the whole
                    // frame arrives, so the deadline doubles as the desync
                    // detector: tear down and let replay resynchronize.
                    let partial = self.conn.as_ref().map(|c| c.buf.len()).unwrap_or(0);
                    if partial > 0 {
                        self.conn = None;
                        if self.redial.is_none() {
                            return Err(NetError::PeerDead { peer: self.peer.clone() });
                        }
                    }
                    return Err(NetError::Timeout { peer, waited });
                }
                Err(_) => {
                    // Stream poisoned (bad CRC, reset, EOF): tear down. The
                    // dialer heals on the next loop pass; the acceptor
                    // reports and waits for a rebind.
                    self.conn = None;
                    if self.redial.is_some() {
                        continue;
                    }
                    return Err(NetError::PeerDead { peer: self.peer.clone() });
                }
            };
            match frame.kind {
                FrameKind::Heartbeat => {
                    let ack = encode_frame(&Frame {
                        kind: FrameKind::HeartbeatAck,
                        seq: 0,
                        payload: frame.payload,
                    });
                    if self.write_with_chaos(&ack).is_err() && self.redial.is_none() {
                        return Err(NetError::PeerDead { peer: self.peer.clone() });
                    }
                }
                FrameKind::Ack => {
                    if let Ok(upto) = Cursor::new(&frame.payload).u64() {
                        self.peer_acked = self.peer_acked.max(upto);
                        while self.replay.front().is_some_and(|(s, _)| *s <= self.peer_acked) {
                            self.replay.pop_front();
                        }
                    }
                }
                FrameKind::Hello | FrameKind::HelloAck => {
                    // Stale handshake remnants — ignore.
                }
                FrameKind::Data => {
                    if frame.seq <= self.last_recv {
                        // Duplicate (chaos or replay overlap): re-ack so the
                        // sender can prune, then drop it.
                        let ack = encode_frame(&Frame {
                            kind: FrameKind::Ack,
                            seq: 0,
                            payload: self.last_recv.to_le_bytes().to_vec(),
                        });
                        let _ = self.write_with_chaos(&ack);
                    } else if frame.seq != self.last_recv + 1 {
                        // A gap means framing lost something silently —
                        // force a reconnect so replay fills it.
                        self.conn = None;
                        if self.redial.is_none() {
                            return Err(NetError::PeerDead { peer: self.peer.clone() });
                        }
                    } else {
                        self.last_recv = frame.seq;
                        let ack = encode_frame(&Frame {
                            kind: FrameKind::Ack,
                            seq: 0,
                            payload: self.last_recv.to_le_bytes().to_vec(),
                        });
                        let _ = self.write_with_chaos(&ack);
                        return Ok(frame);
                    }
                }
                FrameKind::HeartbeatAck | FrameKind::Shutdown => return Ok(frame),
            }
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(kind: FrameKind, seq: u64, payload: &[u8]) {
        let frame = Frame { kind, seq, payload: payload.to_vec() };
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("decodes");
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        for (i, kind) in FrameKind::ALL.iter().enumerate() {
            roundtrip(*kind, i as u64 * 7, &[i as u8; 13]);
            roundtrip(*kind, 0, &[]);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame =
            Frame { kind: FrameKind::Data, seq: 42, payload: b"the payload under test".to_vec() };
        let bytes = encode_frame(&frame);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match decode_frame(&bad) {
                Err(_) => {}
                Ok((decoded, used)) => {
                    panic!("bit flip {bit} went undetected: {decoded:?} ({used} bytes consumed)")
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let frame = Frame { kind: FrameKind::Hello, seq: 0, payload: vec![9; 64] };
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame { kind: FrameKind::Data, seq: 1, payload: vec![] });
        bytes[12..16].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn hello_roundtrip_and_truncation() {
        let h = Hello { rank: 3, session: 0xdead_beef, last_recv: 17 };
        assert_eq!(Hello::from_bytes(&h.to_bytes()).unwrap(), h);
        assert!(matches!(Hello::from_bytes(&[0; 19]), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn net_chaos_is_deterministic_and_horizon_bounded() {
        let c = NetChaos::seeded(7, 0.9, 50);
        for ord in 0..50 {
            assert_eq!(c.fate(1, ord), c.fate(1, ord));
        }
        assert_eq!(c.fate(1, 50), NetFault::Deliver);
        assert_eq!(c.fate(1, 5000), NetFault::Deliver);
        assert!(NetChaos::seeded(7, 0.0, 50).is_none());
        assert!(NetChaos::seeded(7, 0.5, 0).is_none());
        // A high rate exercises every fault kind somewhere in-horizon.
        let mut kinds = std::collections::HashSet::new();
        for lane in 0..8 {
            for ord in 0..50 {
                kinds.insert(std::mem::discriminant(&c.fate(lane, ord)));
            }
        }
        assert!(kinds.len() >= 5, "only {} fault kinds drawn", kinds.len());
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_jittered() {
        let b = Backoff { base_ms: 10, factor: 2.0, cap_ms: 200, seed: 3 };
        for attempt in 1..10 {
            assert_eq!(b.delay_ms(attempt, 0), b.delay_ms(attempt, 0));
            assert!(b.delay_ms(attempt, 0) >= 1);
            assert!(b.delay_ms(attempt, 0) <= 200);
        }
        // Jitter keeps the delay within [raw/2, raw].
        let raw = 40;
        let d = b.delay_ms(3, 1);
        assert!((raw / 2..=raw).contains(&d), "jittered delay {d} outside [{}, {raw}]", raw / 2);
        // Different lanes decorrelate somewhere in the schedule.
        assert!((1..10).any(|a| b.delay_ms(a, 0) != b.delay_ms(a, 1)));
    }

    #[test]
    fn local_pair_delivers_and_acks_heartbeats() {
        let (mut a, mut b) = LocalTransport::pair("a", "b");
        a.send(FrameKind::Data, b"x").unwrap();
        let f = b.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(f.payload, b"x");
        assert_eq!(f.seq, 1);
        // Heartbeats are auto-acked by the receiving transport.
        a.send(FrameKind::Heartbeat, b"nonce").unwrap();
        let waiter = std::thread::spawn(move || b.recv(Some(Duration::from_secs(1))));
        let ack = a.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(ack.kind, FrameKind::HeartbeatAck);
        assert_eq!(ack.payload, b"nonce");
        drop(waiter);
    }

    #[test]
    fn socket_link_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let dialer = std::thread::spawn(move || {
            SocketTransport::dial(
                &addr,
                Hello { rank: 0, session: 1, last_recv: 0 },
                NetChaos::none(),
                Backoff::default(),
                3,
                Duration::from_secs(2),
            )
            .unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_hello(&mut stream, Duration::from_secs(2)).unwrap();
        assert_eq!(hello.rank, 0);
        let mut server = SocketTransport::accept(stream, hello, NetChaos::none()).unwrap();
        let mut client = dialer.join().unwrap();
        client.send(FrameKind::Data, b"ping").unwrap();
        let f = server.recv(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(f.payload, b"ping");
        server.send(FrameKind::Data, b"pong").unwrap();
        let f = client.recv(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(f.payload, b"pong");
        // Timeout surfaces as a typed error, not a hang.
        assert!(matches!(
            client.recv(Some(Duration::from_millis(50))),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn chaotic_link_still_delivers_every_frame_exactly_once() {
        // Aggressive chaos on the client side; the replay + dedup machinery
        // must still deliver 1..=N in order, each exactly once.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let chaos = NetChaos::seeded(99, 0.6, 200);
        let client_thread = std::thread::spawn(move || {
            let mut client = SocketTransport::dial(
                &addr,
                Hello { rank: 1, session: 7, last_recv: 0 },
                chaos,
                Backoff { base_ms: 1, factor: 2.0, cap_ms: 20, seed: 5 },
                50,
                Duration::from_secs(2),
            )
            .unwrap();
            for i in 0u64..40 {
                client.send(FrameKind::Data, &i.to_le_bytes()).unwrap();
            }
            // Drain: heal the link until the server has acked all 40.
            client.flush_acked(Duration::from_secs(15)).unwrap();
        });
        let mut server: Option<SocketTransport> = None;
        let mut got = Vec::new();
        let start = Instant::now();
        listener.set_nonblocking(true).unwrap();
        while got.len() < 40 && start.elapsed() < Duration::from_secs(20) {
            // Accept fresh connections (initial + every chaos-triggered
            // reconnect) and (re)bind them to the link.
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    if let Ok(hello) = read_hello(&mut stream, Duration::from_secs(2)) {
                        match server.as_mut() {
                            None => {
                                server = Some(
                                    SocketTransport::accept(stream, hello, NetChaos::none())
                                        .unwrap(),
                                );
                            }
                            Some(s) => {
                                let _ = s.rebind(stream, hello);
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("accept failed: {e}"),
            }
            if let Some(s) = server.as_mut() {
                match s.recv(Some(Duration::from_millis(100))) {
                    Ok(f) if f.kind == FrameKind::Data => {
                        got.push(u64::from_le_bytes(f.payload[..8].try_into().unwrap()));
                    }
                    Ok(_) => {}
                    Err(_) => {} // link down; wait for the reconnect
                }
            }
        }
        client_thread.join().unwrap();
        assert_eq!(got, (0u64..40).collect::<Vec<_>>(), "lost/duplicated/reordered frames");
    }
}
