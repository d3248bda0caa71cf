//! The distributed protocol: ranks as OS processes over a real transport.
//!
//! `aaa-runtime::net` provides the plumbing (framed, sequenced, chaos-aware
//! links); this module speaks the algorithm over it. The topology is a
//! coordinator-relayed star: the coordinator owns the graph, the partition
//! and the BSP clock, and every worker owns one rank's [`RankState`]. Each
//! recombination round is the familiar produce → relay → consume exchange,
//! driven by [`NetMsg`]s inside `Data` frames:
//!
//! ```text
//!  coordinator                      worker r
//!  ───────────                      ────────
//!  Produce{round}        ─────▶
//!                        ◀─────    Rows{round, dest, msg}  (×k)
//!                        ◀─────    RowsDone{round, sent}
//!  Rows{round, src, msg} ─────▶    (relayed from the other ranks)
//!  Consume{round}        ─────▶
//!                        ◀─────    StepDone{round, changed, dirty}
//! ```
//!
//! The run converges when a full round moves nothing: no rank sent, no
//! rank's merge changed anything, no rank holds dirty rows. Because the
//! recombination merge is an idempotent, commutative min-merge and the
//! relay preserves every message within a round, the fixed point is the
//! same one the in-process executor reaches — closeness comes out
//! bit-identical (the cross-transport equivalence test pins this).
//!
//! **Failure handling** (the supervision ladder over real faults): any
//! transport error or deadline miss on a worker's link first triggers a
//! heartbeat probe. A probe answered within its deadline means the fault
//! was transient — the round is aborted and every rank re-announces
//! ([`NetMsg::ResendAll`]), which is always safe. A dead probe escalates
//! to the [`WorkerSupervisor`], which may heal the link (same process
//! reconnected — state intact) or hand back a replacement for a respawned
//! process (fresh state — re-initialized, then min-merged with the last
//! gathered checkpoint via [`NetMsg::Absorb`]). When the supervisor gives
//! up, the run **degrades** instead of failing: surviving workers (and
//! checkpoints of dead ones) are gathered into a [`DegradedReport`] whose
//! certified bounds cover the exact answer.

use crate::engine::landmark_rows;
use crate::policy::MAX_RC_STEPS;
use crate::quality::{DegradedReason, DegradedReport};
use crate::rank::{RankState, RowMsg, RowPayload, WireFormat};
use aaa_checkpoint::{RankSnapshot, RowTable};
use aaa_graph::apsp::DistMatrix;
use aaa_graph::closeness::closeness_from_row;
use aaa_graph::sssp::BFS_LANES;
use aaa_graph::{AdjGraph, Dist, PartId, VertexId, Weight};
use aaa_observe::{EventSink, NoopSink, SpanEvent, SpanKind, DRIVER_LANE};
use aaa_partition::{LoadSignals, Partition, RebalancePolicy};
use aaa_runtime::bytes::{put_u32, put_u32s, put_u64, Cursor, ShortRead};
use aaa_runtime::net::{FrameKind, NetError, Transport};
use aaa_runtime::{ClusterError, FaultCounters, Rank};
use rustc_hash::FxHashMap;
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Wire codec for protocol messages
// ---------------------------------------------------------------------

/// Typed decode errors for [`NetMsg`] payloads. Like the frame codec, the
/// decoder never panics: every malformed byte sequence maps here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the field being read.
    Truncated { at: usize },
    /// First byte is not a known message tag.
    UnknownTag(u8),
    /// Wire-format byte is neither full nor delta.
    UnknownWire(u8),
    /// Row-payload kind byte is neither Full nor Delta.
    UnknownPayload(u8),
    /// Bytes left over after a complete message.
    TrailingBytes { extra: usize },
    /// A view-delta flags byte with bits set that no version defines.
    ReservedFlags(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "message truncated at byte {at}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::UnknownWire(w) => write!(f, "unknown wire format byte {w}"),
            WireError::UnknownPayload(p) => write!(f, "unknown row payload kind {p}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            WireError::ReservedFlags(b) => write!(f, "reserved view-delta flag bits in {b:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ShortRead> for WireError {
    fn from(short: ShortRead) -> Self {
        WireError::Truncated { at: short.at }
    }
}

/// A length-prefixed row of `u32`s: the count is validated against the
/// bytes left, then the cells are decoded in one bulk copy.
fn get_row(r: &mut Cursor<'_>) -> Result<Vec<Dist>, ShortRead> {
    let len = r.count_u32(4)?;
    let mut row = Vec::with_capacity(len);
    r.u32s(len, &mut row)?;
    Ok(row)
}

/// A counted list of fixed-size records, each read by `record`; the count
/// is validated against `record_bytes` apiece before the list is sized.
fn get_list<T>(
    r: &mut Cursor<'_>,
    record_bytes: usize,
    mut record: impl FnMut(&mut Cursor<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count_u32(record_bytes)?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push(record(r)?);
    }
    Ok(list)
}

/// A counted list of `(id, 64 value bits)` pairs — closeness replies and
/// every view-delta column.
fn get_pairs(r: &mut Cursor<'_>) -> Result<Vec<(VertexId, u64)>, WireError> {
    get_list(r, 12, |r| Ok((r.u32()?, r.u64()?)))
}

/// A counted list of `(u32, u32, u32)` triples: weighted edges.
fn get_triples(r: &mut Cursor<'_>) -> Result<Vec<(u32, u32, u32)>, WireError> {
    get_list(r, 12, |r| Ok((r.u32()?, r.u32()?, r.u32()?)))
}

/// A length-prefixed row of `u32`s, cells in one bulk copy.
fn put_row(out: &mut Vec<u8>, row: &[Dist]) {
    put_u32(out, row.len() as u32);
    put_u32s(out, row);
}

/// A counted list of `(id, 64 value bits)` pairs.
fn put_pairs(out: &mut Vec<u8>, pairs: &[(VertexId, u64)]) {
    put_u32(out, pairs.len() as u32);
    for &(v, bits) in pairs {
        put_u32(out, v);
        put_u64(out, bits);
    }
}

fn encode_rowmsg(out: &mut Vec<u8>, msg: &RowMsg) {
    put_u32(out, msg.rows.len() as u32);
    for (v, payload) in &msg.rows {
        put_u32(out, *v);
        match payload {
            RowPayload::Full(row) => {
                out.push(0);
                put_row(out, row);
            }
            RowPayload::Delta(pairs) => {
                out.push(1);
                put_u32(out, pairs.len() as u32);
                for &(c, d) in pairs {
                    put_u32(out, c);
                    put_u32(out, d);
                }
            }
        }
    }
}

fn decode_rowmsg(r: &mut Cursor<'_>) -> Result<RowMsg, WireError> {
    let rows = get_list(r, 9, |r| {
        let v = r.u32()?;
        let payload = match r.u8()? {
            0 => RowPayload::Full(get_row(r)?),
            1 => RowPayload::Delta(get_list(r, 8, |r| Ok((r.u32()?, r.u32()?)))?),
            other => return Err(WireError::UnknownPayload(other)),
        };
        Ok((v, payload))
    })?;
    Ok(RowMsg { rows })
}

fn encode_rows(out: &mut Vec<u8>, rows: &[(VertexId, Vec<Dist>)]) {
    put_u32(out, rows.len() as u32);
    for (v, row) in rows {
        put_u32(out, *v);
        put_row(out, row);
    }
}

fn decode_rows(r: &mut Cursor<'_>) -> Result<Vec<(VertexId, Vec<Dist>)>, WireError> {
    get_list(r, 8, |r| Ok((r.u32()?, get_row(r)?)))
}

/// The protocol messages carried inside `Data` frames. Everything the
/// coordinator and a worker say to each other is one of these; the codec
/// is little-endian, self-delimiting, and rejects malformed input with a
/// typed [`WireError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// Coordinator → worker: build rank `rank` of `procs` over the global
    /// graph (`owner` assigns every vertex; `edges` is the full undirected
    /// edge list), run the initial approximation, lower its rows through
    /// `landmarks` (the exact landmark rows, `n` cells each, back to back:
    /// DESIGN.md §5, *Landmark-seeded IA*), answer [`NetMsg::Ready`].
    Init {
        rank: u32,
        procs: u32,
        wire: WireFormat,
        owner: Vec<PartId>,
        edges: Vec<(VertexId, VertexId, Weight)>,
        landmarks: Vec<Dist>,
    },
    /// Worker → coordinator: generic completion ack (Init / Absorb /
    /// ResendAll).
    Ready { rank: u32 },
    /// Coordinator → worker: run the produce half of round `round`.
    Produce { round: u64 },
    /// Both directions: a row bundle. Worker → coordinator, `peer` is the
    /// destination rank; coordinator → worker, `peer` is the source rank.
    Rows { round: u64, peer: u32, msg: RowMsg },
    /// Worker → coordinator: produce finished; `sent` echoes whether
    /// anything was emitted this round.
    RowsDone { round: u64, sent: bool },
    /// Coordinator → worker: all rows for this round have been relayed
    /// (`expect` of them — a sanity check); min-merge and relax.
    Consume { round: u64, expect: u32 },
    /// Worker → coordinator: consume finished; `changed` is whether the
    /// merge improved anything, `dirty` whether rows await announcement.
    StepDone { round: u64, changed: bool, dirty: bool },
    /// Coordinator → worker: reply with local closeness.
    GatherClose,
    /// Worker → coordinator: closeness of every local vertex (f64 bits).
    CloseReply { pairs: Vec<(VertexId, u64)> },
    /// Coordinator → worker: reply with all local DV rows (checkpoint
    /// gather / degraded-mode salvage).
    GatherRows,
    /// Worker → coordinator: the local rows.
    RowsReply { rows: Vec<(VertexId, Vec<Dist>)> },
    /// Coordinator → worker: min-merge these rows into local state (the
    /// checkpoint-fallback path for a respawned worker). Answer `Ready`.
    Absorb { rows: Vec<(VertexId, Vec<Dist>)> },
    /// Coordinator → worker: mark every local row dirty and re-announce on
    /// the next produce (recovery kick after any disruption). Answer
    /// `Ready`.
    ResendAll,
    /// Coordinator → worker: the one migration op — `moves` vertices, few
    /// or most of the graph, go to new owners. Every worker updates its
    /// replicated owner map, then ships the rows it lost as
    /// [`NetMsg::Rows`] bundles (relayed like a produce phase) and answers
    /// [`NetMsg::RowsDone`]; the following [`NetMsg::Consume`] installs the
    /// gained rows. `adj` carries the adjacency of every moved vertex
    /// (deduped per undirected edge) so receivers can rebuild local
    /// structure.
    Reassign { round: u64, moves: Vec<(VertexId, PartId)>, adj: Vec<(VertexId, VertexId, Weight)> },
    /// Publisher → view replica: one published epoch as a change set (the
    /// wire form of `publish::ViewDelta`; replication lands in a later
    /// PR). `entries`/`bounds` pair vertex ids with `f64::to_bits` values
    /// so the message keeps `Eq` and round-trips exactly; `full` epochs
    /// re-state every vertex. `extras` pairs a `MetricKind` wire id with
    /// that metric's changed entries; the list is on the wire (announced
    /// by flags bit 2) only when it is non-empty, so a closeness-only
    /// frame is the bytes it was before extras existed. Rides the same
    /// CRC-framed transport as every other message.
    ViewDelta {
        epoch: u64,
        rc_steps: u64,
        changes_applied: u64,
        n: u32,
        converged: bool,
        full: bool,
        entries: Vec<(VertexId, u64)>,
        bounds: Vec<(VertexId, u64)>,
        extras: Vec<(u8, Vec<(VertexId, u64)>)>,
    },
}

/// View-delta flags byte: bits 3–7 are reserved and must be zero.
const VIEW_CONVERGED: u8 = 1;
const VIEW_FULL: u8 = 2;
const VIEW_EXTRAS: u8 = 4;

impl NetMsg {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            NetMsg::Init { rank, procs, wire, owner, edges, landmarks } => {
                out.push(1);
                put_u32(&mut out, *rank);
                put_u32(&mut out, *procs);
                out.push(match wire {
                    WireFormat::Full => 0,
                    WireFormat::Delta => 1,
                });
                put_row(&mut out, owner);
                put_u32(&mut out, edges.len() as u32);
                for &(a, b, w) in edges {
                    put_u32(&mut out, a);
                    put_u32(&mut out, b);
                    put_u32(&mut out, w);
                }
                put_row(&mut out, landmarks);
            }
            NetMsg::Ready { rank } => {
                out.push(2);
                put_u32(&mut out, *rank);
            }
            NetMsg::Produce { round } => {
                out.push(3);
                put_u64(&mut out, *round);
            }
            NetMsg::Rows { round, peer, msg } => {
                out.push(4);
                put_u64(&mut out, *round);
                put_u32(&mut out, *peer);
                encode_rowmsg(&mut out, msg);
            }
            NetMsg::RowsDone { round, sent } => {
                out.push(5);
                put_u64(&mut out, *round);
                out.push(u8::from(*sent));
            }
            NetMsg::Consume { round, expect } => {
                out.push(6);
                put_u64(&mut out, *round);
                put_u32(&mut out, *expect);
            }
            NetMsg::StepDone { round, changed, dirty } => {
                out.push(7);
                put_u64(&mut out, *round);
                out.push(u8::from(*changed));
                out.push(u8::from(*dirty));
            }
            NetMsg::GatherClose => out.push(8),
            NetMsg::CloseReply { pairs } => {
                out.push(9);
                put_pairs(&mut out, pairs);
            }
            NetMsg::GatherRows => out.push(10),
            NetMsg::RowsReply { rows } => {
                out.push(11);
                encode_rows(&mut out, rows);
            }
            NetMsg::Absorb { rows } => {
                out.push(12);
                encode_rows(&mut out, rows);
            }
            NetMsg::ResendAll => out.push(13),
            NetMsg::Reassign { round, moves, adj } => {
                out.push(15);
                put_u64(&mut out, *round);
                put_u32(&mut out, moves.len() as u32);
                for &(v, p) in moves {
                    put_u32(&mut out, v);
                    put_u32(&mut out, p);
                }
                put_u32(&mut out, adj.len() as u32);
                for &(a, b, w) in adj {
                    put_u32(&mut out, a);
                    put_u32(&mut out, b);
                    put_u32(&mut out, w);
                }
            }
            NetMsg::ViewDelta {
                epoch,
                rc_steps,
                changes_applied,
                n,
                converged,
                full,
                entries,
                bounds,
                extras,
            } => {
                out.push(16);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *rc_steps);
                put_u64(&mut out, *changes_applied);
                put_u32(&mut out, *n);
                let flag = |bit: u8, on: bool| if on { bit } else { 0 };
                out.push(
                    flag(VIEW_CONVERGED, *converged)
                        | flag(VIEW_FULL, *full)
                        | flag(VIEW_EXTRAS, !extras.is_empty()),
                );
                put_pairs(&mut out, entries);
                put_pairs(&mut out, bounds);
                if !extras.is_empty() {
                    out.push(extras.len() as u8);
                    for (kind, es) in extras {
                        out.push(*kind);
                        put_pairs(&mut out, es);
                    }
                }
            }
        }
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor::new(bytes);
        let tag = r.u8()?;
        let msg = match tag {
            1 => {
                let rank = r.u32()?;
                let procs = r.u32()?;
                let wire = match r.u8()? {
                    0 => WireFormat::Full,
                    1 => WireFormat::Delta,
                    other => return Err(WireError::UnknownWire(other)),
                };
                let owner = get_row(&mut r)?;
                let edges = get_triples(&mut r)?;
                let landmarks = get_row(&mut r)?;
                NetMsg::Init { rank, procs, wire, owner, edges, landmarks }
            }
            2 => NetMsg::Ready { rank: r.u32()? },
            3 => NetMsg::Produce { round: r.u64()? },
            4 => {
                let round = r.u64()?;
                let peer = r.u32()?;
                let msg = decode_rowmsg(&mut r)?;
                NetMsg::Rows { round, peer, msg }
            }
            5 => NetMsg::RowsDone { round: r.u64()?, sent: r.u8()? != 0 },
            6 => NetMsg::Consume { round: r.u64()?, expect: r.u32()? },
            7 => {
                let round = r.u64()?;
                let changed = r.u8()? != 0;
                let dirty = r.u8()? != 0;
                NetMsg::StepDone { round, changed, dirty }
            }
            8 => NetMsg::GatherClose,
            9 => NetMsg::CloseReply { pairs: get_pairs(&mut r)? },
            10 => NetMsg::GatherRows,
            11 => NetMsg::RowsReply { rows: decode_rows(&mut r)? },
            12 => NetMsg::Absorb { rows: decode_rows(&mut r)? },
            13 => NetMsg::ResendAll,
            15 => {
                let round = r.u64()?;
                let moves = get_list(&mut r, 8, |r| Ok((r.u32()?, r.u32()?)))?;
                let adj = get_triples(&mut r)?;
                NetMsg::Reassign { round, moves, adj }
            }
            16 => {
                let epoch = r.u64()?;
                let rc_steps = r.u64()?;
                let changes_applied = r.u64()?;
                let n = r.u32()?;
                let flags = r.u8()?;
                if flags & !(VIEW_CONVERGED | VIEW_FULL | VIEW_EXTRAS) != 0 {
                    return Err(WireError::ReservedFlags(flags));
                }
                let entries = get_pairs(&mut r)?;
                let bounds = get_pairs(&mut r)?;
                let mut extras = Vec::new();
                if flags & VIEW_EXTRAS != 0 {
                    for _ in 0..r.u8()? {
                        extras.push((r.u8()?, get_pairs(&mut r)?));
                    }
                }
                NetMsg::ViewDelta {
                    epoch,
                    rc_steps,
                    changes_applied,
                    n,
                    converged: flags & VIEW_CONVERGED != 0,
                    full: flags & VIEW_FULL != 0,
                    entries,
                    bounds,
                    extras,
                }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        match r.remaining() {
            0 => Ok(msg),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

fn protocol_err(peer: &str, what: impl std::fmt::Display) -> NetError {
    NetError::Protocol { peer: peer.to_string(), what: what.to_string() }
}

/// The protocol boundary's range check: ids decoded from a frame index the
/// owner map and the DV store, so the first of `ids` not below `limit` is
/// refused, named by `field`.
fn check_ids<T: Transport>(
    link: &T,
    field: &str,
    ids: impl IntoIterator<Item = u32>,
    limit: usize,
) -> Result<(), NetError> {
    match ids.into_iter().find(|&id| id as usize >= limit) {
        Some(id) => Err(protocol_err(&link.peer(), format!("{field} {id} is not below {limit}"))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

type Adjacency = FxHashMap<VertexId, Vec<(VertexId, Weight)>>;

/// Undirected adjacency lists of an edge list off the wire.
fn adjacency(edges: &[(VertexId, VertexId, Weight)]) -> Adjacency {
    let mut adj = Adjacency::default();
    for &(a, b, w) in edges {
        adj.entry(a).or_default().push((b, w));
        adj.entry(b).or_default().push((a, w));
    }
    adj
}

/// The rank `Init` built, which every later message `what` addresses.
fn ready<'a, T: Transport>(
    state: &'a mut Option<RankState>,
    link: &T,
    what: &str,
) -> Result<&'a mut RankState, NetError> {
    state.as_mut().ok_or_else(|| protocol_err(&link.peer(), format!("{what} before Init")))
}

/// Ships the bundles of a produce or a migrate-out phase, then its
/// `RowsDone`.
fn send_rows<T: Transport>(
    link: &mut T,
    round: u64,
    outgoing: Vec<(Rank, RowMsg)>,
) -> Result<(), NetError> {
    let sent = !outgoing.is_empty();
    for (dest, msg) in outgoing {
        link.send(FrameKind::Data, &NetMsg::Rows { round, peer: dest as u32, msg }.encode())?;
    }
    link.send(FrameKind::Data, &NetMsg::RowsDone { round, sent }.encode())?;
    Ok(())
}

/// Runs one rank as a transport-driven reactor until the coordinator's
/// `Shutdown` frame (clean `Ok`), the link dies past repair, or nothing
/// arrives for `idle_deadline` (a dead coordinator must not leave orphan
/// processes — the worker exits on its own).
///
/// The worker is a pure protocol follower: all control flow — rounds,
/// convergence, recovery — lives in the coordinator. That is what makes
/// blind re-execution safe: every state transition a worker performs
/// (min-merge, relaxation, resend marking) is idempotent, so a replayed
/// or repeated command converges to the same state. Vertex ids and parts
/// in a decoded frame are range-checked against the `Init` that sized this
/// rank before anything indexes with them; a frame that fails ends the
/// worker with [`NetError::Protocol`].
pub fn run_worker<T: Transport>(link: &mut T, idle_deadline: Duration) -> Result<(), NetError> {
    let mut state: Option<RankState> = None;
    let mut inbox: Vec<(Rank, RowMsg)> = Vec::new();
    // Vertices and ranks as `Init` gave them: the limits of every id.
    let (mut n, mut procs) = (0, 0);
    // In-flight migration, as its Reassign shipped it (the moves, the moved
    // vertices' adjacency): the next Consume installs migrated rows instead
    // of running the normal min-merge.
    let mut migration: Option<(Vec<(VertexId, PartId)>, Adjacency)> = None;
    loop {
        let frame = link.recv(Some(idle_deadline))?;
        match frame.kind {
            FrameKind::Shutdown => return Ok(()),
            FrameKind::Data => {}
            _ => continue,
        }
        let msg = NetMsg::decode(&frame.payload).map_err(|e| protocol_err(&link.peer(), e))?;
        match msg {
            NetMsg::Init { rank, procs: p, wire, owner, edges, landmarks } => {
                (n, procs) = (owner.len(), p as usize);
                check_ids(link, "Init.rank", [rank], procs)?;
                check_ids(link, "Init.owner part", owner.iter().copied(), procs)?;
                check_ids(link, "Init.edges endpoint", edges.iter().flat_map(|e| [e.0, e.1]), n)?;
                let rows = landmarks.len().checked_div(n).unwrap_or(0);
                if rows * n != landmarks.len() || rows > BFS_LANES {
                    let what = format!(
                        "Init.landmarks holds {} cells, not at most {BFS_LANES} rows of {n}",
                        landmarks.len()
                    );
                    return Err(protocol_err(&link.peer(), what));
                }
                let adj = adjacency(&edges);
                let mut s = RankState::build(rank as Rank, owner, |v| {
                    adj.get(&v).cloned().unwrap_or_default()
                });
                s.set_wire(wire);
                // The IA `AnytimeEngine::build` runs: the sub-graph rows,
                // lowered through the coordinator's landmark rows.
                s.initial_approximation();
                s.seed_from_landmarks(&landmarks);
                state = Some(s);
                inbox.clear();
                link.send(FrameKind::Data, &NetMsg::Ready { rank }.encode())?;
            }
            NetMsg::Produce { round } => {
                let s = ready(&mut state, link, "Produce")?;
                inbox.clear();
                send_rows(link, round, s.produce_rc_messages(usize::MAX))?;
            }
            NetMsg::Rows { round: _, peer, msg } => {
                check_ids(link, "Rows.rows vertex", msg.rows.iter().map(|r| r.0), n)?;
                inbox.push((peer as Rank, msg));
            }
            NetMsg::Consume { round, expect } => {
                let s = ready(&mut state, link, "Consume")?;
                if inbox.len() != expect as usize {
                    // The link is ordered and replayed, so this can only be
                    // a coordinator bug — surface it loudly.
                    return Err(protocol_err(
                        &link.peer(),
                        format!(
                            "round {round}: expected {expect} row bundles, have {}",
                            inbox.len()
                        ),
                    ));
                }
                let changed = match migration.take() {
                    Some((moves, adj)) => {
                        s.migrate_in_moved(&moves, std::mem::take(&mut inbox), |v| {
                            adj.get(&v).cloned().unwrap_or_default()
                        });
                        s.evict_unneeded_cached();
                        // Gained rows are dirty; report conservatively so
                        // the coordinator keeps the run active until they
                        // flow.
                        true
                    }
                    None => {
                        s.consume_rc_messages(std::mem::take(&mut inbox));
                        s.last_changed
                    }
                };
                let reply = NetMsg::StepDone { round, changed, dirty: s.has_dirty() };
                link.send(FrameKind::Data, &reply.encode())?;
            }
            NetMsg::GatherClose => {
                let s = ready(&mut state, link, "GatherClose")?;
                let pairs =
                    s.local_closeness().into_iter().map(|(v, c)| (v, c.to_bits())).collect();
                link.send(FrameKind::Data, &NetMsg::CloseReply { pairs }.encode())?;
            }
            NetMsg::GatherRows => {
                let s = ready(&mut state, link, "GatherRows")?;
                let reply = NetMsg::RowsReply { rows: s.local_rows() };
                link.send(FrameKind::Data, &reply.encode())?;
            }
            NetMsg::Absorb { rows } => {
                let s = ready(&mut state, link, "Absorb")?;
                check_ids(link, "Absorb.rows vertex", rows.iter().map(|r| r.0), n)?;
                let snap = RankSnapshot {
                    rank: s.rank() as u32,
                    local: rows.into_iter().collect(),
                    cached: RowTable::default(),
                    dirty: Vec::new(),
                    pending: Vec::new(),
                };
                s.absorb_snapshot(&snap);
                let rank = s.rank() as u32;
                link.send(FrameKind::Data, &NetMsg::Ready { rank }.encode())?;
            }
            NetMsg::ResendAll => {
                let s = ready(&mut state, link, "ResendAll")?;
                s.mark_all_for_resend();
                s.relax_pending();
                inbox.clear();
                // An aborted migration round resyncs like any other abort;
                // the coordinator will re-issue the Reassign if it still
                // wants the moves.
                migration = None;
                let rank = s.rank() as u32;
                link.send(FrameKind::Data, &NetMsg::Ready { rank }.encode())?;
            }
            NetMsg::Reassign { round, moves, adj } => {
                let s = ready(&mut state, link, "Reassign")?;
                check_ids(link, "Reassign.moves vertex", moves.iter().map(|m| m.0), n)?;
                check_ids(link, "Reassign.moves part", moves.iter().map(|m| m.1), procs)?;
                check_ids(link, "Reassign.adj endpoint", adj.iter().flat_map(|e| [e.0, e.1]), n)?;
                inbox.clear();
                s.apply_reassignment(&moves);
                let outgoing = s.migrate_out_moved();
                migration = Some((moves, adjacency(&adj)));
                send_rows(link, round, outgoing)?;
            }
            NetMsg::Ready { .. }
            | NetMsg::RowsDone { .. }
            | NetMsg::StepDone { .. }
            | NetMsg::CloseReply { .. }
            | NetMsg::RowsReply { .. } => {
                return Err(protocol_err(&link.peer(), "coordinator-bound message at worker"));
            }
            // View replication is reader-process traffic; compute workers
            // never consume it.
            NetMsg::ViewDelta { .. } => {
                return Err(protocol_err(&link.peer(), "replica-bound message at worker"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// What the supervisor managed to do about a dead worker link.
pub enum Revive<T: Transport> {
    /// The same process reconnected (state intact): the link was healed in
    /// place and unacknowledged frames were replayed.
    Healed,
    /// A fresh process took the rank over: here is its link. The
    /// coordinator re-initializes it and min-merges the last checkpoint.
    Respawned(T),
    /// Nothing can be done (budget exhausted / policy says stop).
    Gone,
}

/// Supervision hook: the coordinator detects failures, the supervisor owns
/// the means of recovery (the listener, the child processes). `attempt`
/// counts revivals of this rank so the supervisor can enforce a budget.
pub trait WorkerSupervisor<T: Transport> {
    fn revive(&mut self, rank: Rank, link: &mut T, attempt: u32) -> Revive<T>;
}

/// A supervisor that never revives anyone — the first unrecoverable
/// failure degrades the run. Fine for deterministic in-process transports
/// where links cannot fail.
pub struct NoSupervisor;

impl<T: Transport> WorkerSupervisor<T> for NoSupervisor {
    fn revive(&mut self, _rank: Rank, _link: &mut T, _attempt: u32) -> Revive<T> {
        Revive::Gone
    }
}

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Wire format workers announce rows in.
    pub wire: WireFormat,
    /// How long a suspected worker gets to answer the heartbeat probe, and
    /// a wounded one to hand over its rows when the run degrades.
    pub probe_deadline: Duration,
    /// Revivals allowed per rank before the run degrades.
    pub max_revivals: u32,
    /// Gather a checkpoint (all rows, per rank) every this many rounds
    /// (0 = never). The latest checkpoint seeds respawned workers.
    pub checkpoint_every: u64,
    /// Background rebalancer policy, evaluated at round barriers. Whatever
    /// move list it plans — budgeted, or a whole fresh partition — rides
    /// one [`NetMsg::Reassign`] round, as in the in-process engine.
    /// Default: disabled.
    pub rebalance: RebalancePolicy,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            wire: WireFormat::Full,
            probe_deadline: Duration::from_secs(2),
            max_revivals: 3,
            checkpoint_every: 4,
            rebalance: RebalancePolicy::Static,
        }
    }
}

/// A successful distributed run.
#[derive(Debug, Clone)]
pub struct NetSummary {
    /// Closeness per global vertex — bit-identical to the in-process
    /// executor's fixed point.
    pub closeness: Vec<f64>,
    /// Recombination rounds driven (including aborted ones).
    pub rounds: u64,
    /// Worker revivals (heals + respawns) across the run.
    pub recoveries: u32,
    /// Transient incidents survived without supervisor involvement.
    pub probes_survived: u32,
}

/// How a distributed run ended: converged with exact closeness, or
/// degraded with certified bounds. (`Err` is reserved for coordinator-side
/// bugs — worker failures never surface as `Err`.)
#[derive(Debug)]
pub enum NetOutcome {
    Converged(NetSummary),
    Degraded(Box<DegradedReport>),
}

/// How long a worker gets to answer a protocol message before it is
/// suspected and probed.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// The reply matcher for the generic completion ack, [`NetMsg::Ready`].
fn acked(msg: NetMsg) -> Result<Option<()>, NetMsg> {
    match msg {
        NetMsg::Ready { .. } => Ok(Some(())),
        other => Err(other),
    }
}

/// Gathered DV rows for one rank: the in-memory checkpoint payload.
type CheckpointRows = Vec<(VertexId, Vec<Dist>)>;

/// The coordinator: owns the graph, the partition, one link per rank, and
/// the BSP clock; drives rounds until quiescence, supervising failures.
pub struct NetRunner<'g, T: Transport> {
    graph: &'g AdjGraph,
    owner: Vec<PartId>,
    /// The landmark rows every `Init` carries, walked once from `graph`.
    landmarks: Vec<Dist>,
    links: Vec<T>,
    config: NetConfig,
    sink: Arc<dyn EventSink>,
    /// Latest gathered rows per rank (the in-memory checkpoint).
    checkpoints: Vec<Option<CheckpointRows>>,
    /// Revival attempts per rank.
    revivals: Vec<u32>,
    /// Ranks the supervisor has given up on.
    dead: Vec<bool>,
    /// Ranks `0..initialised` have answered an `Init`; the rest are not
    /// part of any round, resync or gather yet.
    initialised: usize,
    started: Instant,
    recoveries: u32,
    probes_survived: u32,
    round: u64,
    /// Moves from a migration round that aborted mid-flight; re-issued
    /// after the supervision resync (re-execution is idempotent).
    pending_moves: Option<Vec<(VertexId, PartId)>>,
}

impl<'g, T: Transport> NetRunner<'g, T> {
    /// `owner[v]` must index into `links` (one link per rank, already
    /// connected and handshaken).
    pub fn new(graph: &'g AdjGraph, owner: Vec<PartId>, links: Vec<T>, config: NetConfig) -> Self {
        let procs = links.len();
        Self {
            graph,
            owner,
            landmarks: landmark_rows(graph),
            links,
            config,
            sink: Arc::new(NoopSink),
            checkpoints: vec![None; procs],
            revivals: vec![0; procs],
            dead: vec![false; procs],
            initialised: 0,
            started: Instant::now(),
            recoveries: 0,
            probes_survived: 0,
            round: 0,
            pending_moves: None,
        }
    }

    /// Installs a span sink (connection / reconnect / heartbeat instants).
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = sink;
    }

    /// The current vertex→rank ownership map (migrations update it).
    pub fn owner(&self) -> &[PartId] {
        &self.owner
    }

    fn wall_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }

    /// An instant on `lane` (a rank, or `DRIVER_LANE`).
    fn span(&self, kind: SpanKind, lane: i64) {
        if self.sink.enabled() {
            self.sink.record(SpanEvent::instant(kind, lane, self.round, 0.0, self.wall_us()));
        }
    }

    fn init_msg(&self, rank: Rank) -> NetMsg {
        NetMsg::Init {
            rank: rank as u32,
            procs: self.links.len() as u32,
            wire: self.config.wire,
            owner: self.owner.clone(),
            edges: self.graph.edges().collect(),
            landmarks: self.landmarks.clone(),
        }
    }

    fn send_msg(&mut self, rank: Rank, msg: &NetMsg) -> Result<(), NetError> {
        self.links[rank].send(FrameKind::Data, &msg.encode())?;
        Ok(())
    }

    /// Receives the next protocol message from `rank` within `deadline`.
    fn recv_msg(&mut self, rank: Rank, deadline: Duration) -> Result<NetMsg, NetError> {
        loop {
            let frame = self.links[rank].recv(Some(deadline))?;
            match frame.kind {
                FrameKind::Data => {
                    let peer = self.links[rank].peer();
                    return NetMsg::decode(&frame.payload).map_err(|e| protocol_err(&peer, e));
                }
                FrameKind::Shutdown => {
                    return Err(NetError::PeerDead { peer: self.links[rank].peer() })
                }
                _ => continue,
            }
        }
    }

    /// Initializes every worker (Init → Ready), in rank order. Must be
    /// called once before [`NetRunner::run`]. `init` is the supervision
    /// ladder's first client: a failed `Init` climbs `NetRunner::supervise`
    /// like any mid-run failure — probe, then revive under the revival
    /// budget, then degrade — with the resync reaching only the ranks
    /// initialised so far. Re-sending `Init` after a transient fault is
    /// safe: no rows have flowed, so resetting the rank's state is
    /// idempotent.
    pub fn init(&mut self, supervisor: &mut dyn WorkerSupervisor<T>) -> Result<(), NetOutcome> {
        for rank in 0..self.links.len() {
            if let Err((failed, err)) = self.init_rank(rank) {
                self.supervise(failed, err, supervisor)?;
            }
            self.span(SpanKind::Connection, rank as i64);
        }
        Ok(())
    }

    /// (Re-)initialises one worker: `Init`, then — for a respawn — the last
    /// gathered checkpoint min-merged back in, so work done before the kill
    /// is not lost.
    fn init_rank(&mut self, rank: Rank) -> Result<(), (Rank, NetError)> {
        let init = self.init_msg(rank);
        self.ask(rank, &init, REPLY_DEADLINE, acked)?;
        if let Some(rows) = self.checkpoints[rank].clone() {
            self.span(SpanKind::Restore, rank as i64);
            self.ask(rank, &NetMsg::Absorb { rows }, REPLY_DEADLINE, acked)?;
        }
        self.initialised = self.initialised.max(rank + 1);
        Ok(())
    }

    /// Drives recombination rounds until a full round moves nothing, a
    /// failure degrades the run, or the round budget runs out.
    pub fn run(&mut self, supervisor: &mut dyn WorkerSupervisor<T>) -> NetOutcome {
        loop {
            if self.round >= MAX_RC_STEPS as u64 {
                return self.degrade_with(DegradedReason::StepBudgetExhausted);
            }
            self.round += 1;
            // Rebalance barrier: ship budgeted moves before the round so
            // the migrated rows flow with this round's exchange. A failed
            // migration round climbs the same supervision ladder; the
            // resync clears the workers' in-flight migration state.
            if let Some(moves) = self.pending_moves.take().or_else(|| self.plan_rebalance()) {
                self.span(SpanKind::Migration, DRIVER_LANE);
                if let Err((rank, err)) = self.migration_round(&moves) {
                    // Park the moves: the resync clears the workers'
                    // in-flight migration state, and the next round
                    // re-issues the same Reassign (idempotent — rows
                    // already shipped are simply absent at the old owner,
                    // lost ones self-heal at the new one).
                    self.pending_moves = Some(moves);
                    if let Err(out) = self.supervise(rank, err, supervisor) {
                        return out;
                    }
                    continue;
                }
            }
            let kick = NetMsg::Produce { round: self.round };
            match self.exchange_round(&kick, "in produce phase", "in consume phase") {
                Ok(active) => {
                    if !active {
                        return match self.gather_closeness() {
                            Ok(closeness) => NetOutcome::Converged(NetSummary {
                                closeness,
                                rounds: self.round,
                                recoveries: self.recoveries,
                                probes_survived: self.probes_survived,
                            }),
                            Err((rank, _)) => self.degraded(rank),
                        };
                    }
                    if self.config.checkpoint_every != 0
                        && self.round % self.config.checkpoint_every == 0
                    {
                        // Best-effort: a failed gather is caught next round.
                        let _ = self.gather_checkpoint();
                    }
                }
                Err((rank, err)) => {
                    if let Err(out) = self.supervise(rank, err, supervisor) {
                        return out;
                    }
                }
            }
        }
    }

    /// Initialised ranks the supervisor has not given up on, in rank order.
    fn live(&self) -> Vec<Rank> {
        (0..self.initialised).filter(|&r| !self.dead[r]).collect()
    }

    /// Receives from `rank` until `matcher` returns the reply a phase is
    /// waiting for, or until `deadline` has passed since the call — however
    /// many messages it takes, so the bound holds. `Ok(None)` means the message was this phase's and more follow; a
    /// message handed back as `Err` is dropped when it is a stale `Rows` /
    /// `RowsDone` / `StepDone` / `Ready` an aborted round left in flight,
    /// and is a protocol error naming `phase` otherwise.
    fn await_reply<R>(
        &mut self,
        rank: Rank,
        phase: &str,
        deadline: Duration,
        mut matcher: impl FnMut(NetMsg) -> Result<Option<R>, NetMsg>,
    ) -> Result<R, (Rank, NetError)> {
        let until = Instant::now() + deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            match matcher(self.recv_msg(rank, left).map_err(|e| (rank, e))?) {
                Ok(Some(reply)) => return Ok(reply),
                Ok(None)
                | Err(
                    NetMsg::Rows { .. }
                    | NetMsg::RowsDone { .. }
                    | NetMsg::StepDone { .. }
                    | NetMsg::Ready { .. },
                ) => {}
                Err(other) => {
                    let peer = self.links[rank].peer();
                    return Err((
                        rank,
                        protocol_err(&peer, format!("unexpected {other:?} {phase}")),
                    ));
                }
            }
        }
    }

    /// The one request/reply: sends `msg` to `rank` and waits, under
    /// [`NetRunner::await_reply`]'s rules, for the answer `matcher` picks
    /// out. Serves Init, Absorb, ResendAll, GatherRows and GatherClose.
    fn ask<R>(
        &mut self,
        rank: Rank,
        msg: &NetMsg,
        deadline: Duration,
        matcher: impl FnMut(NetMsg) -> Result<Option<R>, NetMsg>,
    ) -> Result<R, (Rank, NetError)> {
        self.send_msg(rank, msg).map_err(|e| (rank, e))?;
        self.await_reply(rank, "in reply to a request", deadline, matcher)
    }

    /// The exchange a recombination round and a migration round share,
    /// over all live ranks: send everyone `kick`, collect each rank's row
    /// bundles until its `RowsDone`, relay them re-addressed by source,
    /// then `Consume` and wait for every `StepDone`. Returns whether any
    /// rank sent, changed or still holds dirty rows. An `Err` names the
    /// rank whose link failed.
    fn exchange_round(
        &mut self,
        kick: &NetMsg,
        out_phase: &str,
        in_phase: &str,
    ) -> Result<bool, (Rank, NetError)> {
        let round = self.round;
        let live = self.live();
        for &rank in &live {
            self.send_msg(rank, kick).map_err(|e| (rank, e))?;
        }
        let mut relay: Vec<Vec<NetMsg>> = self.links.iter().map(|_| Vec::new()).collect();
        let mut active = false;
        for &rank in &live {
            active |= self.await_reply(rank, out_phase, REPLY_DEADLINE, |msg| match msg {
                NetMsg::Rows { round: r, peer, msg } if r == round => {
                    if let Some(bundle) = relay.get_mut(peer as usize) {
                        bundle.push(NetMsg::Rows { round, peer: rank as u32, msg });
                    }
                    Ok(None)
                }
                NetMsg::RowsDone { round: r, sent } if r == round => Ok(Some(sent)),
                other => Err(other),
            })?;
        }
        for &rank in &live {
            let bundle = std::mem::take(&mut relay[rank]);
            let expect = bundle.len() as u32;
            for msg in bundle {
                self.send_msg(rank, &msg).map_err(|e| (rank, e))?;
            }
            self.send_msg(rank, &NetMsg::Consume { round, expect }).map_err(|e| (rank, e))?;
        }
        for &rank in &live {
            active |= self.await_reply(rank, in_phase, REPLY_DEADLINE, |msg| match msg {
                NetMsg::StepDone { round: r, changed, dirty } if r == round => {
                    Ok(Some(changed || dirty))
                }
                other => Err(other),
            })?;
        }
        Ok(active)
    }

    /// Plans a migration for this round barrier, or `None`: whatever move
    /// list the planner the in-process engine uses returns over the
    /// coordinator's owner map — budgeted, or the diff to a fresh
    /// partition. Skipped while any rank is dead — moves toward a dead
    /// rank would strand rows.
    fn plan_rebalance(&mut self) -> Option<Vec<(VertexId, PartId)>> {
        let policy = self.config.rebalance;
        if !policy.due_at(self.round as usize) || self.dead.iter().any(|&d| d) {
            return None;
        }
        let partition = Partition::new(self.owner.clone(), self.links.len()).ok()?;
        let signals = LoadSignals::measure(self.graph, &partition);
        let moves = policy.moves(self.graph, &partition, &signals).ok()?;
        (!moves.is_empty()).then_some(moves)
    }

    /// One migration round: broadcast the `Reassign` (the moves
    /// plus the moved vertices' adjacency, deduplicated), relay the
    /// migrated row bundles exactly like a recombination round, and wait
    /// for every rank to confirm installation. The owner map is updated
    /// up front so a re-issue after an abort replays against the already-
    /// updated map, which `apply_reassignment` handles idempotently.
    fn migration_round(&mut self, moves: &[(VertexId, PartId)]) -> Result<(), (Rank, NetError)> {
        // New owners rebuild incident state from the shipped adjacency;
        // dedupe edges shared between two moved vertices.
        let mut seen: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
        let mut adj: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        for &(v, _) in moves {
            for &(t, w) in self.graph.neighbors(v) {
                if seen.insert((v.min(t), v.max(t))) {
                    adj.push((v, t, w));
                }
            }
        }
        for &(v, p) in moves {
            self.owner[v as usize] = p;
        }
        let kick = NetMsg::Reassign { round: self.round, moves: moves.to_vec(), adj };
        self.exchange_round(&kick, "while migrating out", "while migrating in").map(|_| ())
    }

    /// The supervision ladder for a failed rank: probe (transient?) →
    /// revive (heal / respawn) → degrade. A respawned process — and a rank
    /// whose very first `Init` was what failed — is (re-)initialised; then
    /// the whole cluster is kicked with `ResendAll` — blind re-announcement
    /// is always safe and re-floods whatever the aborted round lost. On
    /// `Ok` the rank it was called for is initialised and in step.
    ///
    /// Faults during recovery itself (a chaotic link tearing mid-probe, a
    /// resync hitting a second failed rank) re-enter the ladder rather
    /// than degrading outright: each climb charges the failing rank's
    /// revival budget, so the loop is bounded and a run only degrades when
    /// some rank's budget is genuinely exhausted (or the supervisor says
    /// `Gone`).
    fn supervise(
        &mut self,
        rank: Rank,
        err: NetError,
        supervisor: &mut dyn WorkerSupervisor<T>,
    ) -> Result<(), NetOutcome> {
        drop(err);
        let mut rank = rank;
        // The probe-survived path does not charge the budget, so bound the
        // total ladder length separately to rule out a livelock against an
        // adversarial fault schedule.
        let max_climbs = self.links.len() as u32 * (self.config.max_revivals + 2).max(2);
        for _ in 0..max_climbs {
            // Step 1: probe. A worker that answers within the probe
            // deadline hit a transient fault (delayed frames, a reconnect
            // in progress) — no supervisor needed.
            self.span(SpanKind::Heartbeat, rank as i64);
            let mut respawned = false;
            if self.probe(rank).is_ok() {
                self.probes_survived += 1;
            } else {
                // Step 2: the supervisor. Heal or respawn, within budget.
                self.revivals[rank] += 1;
                if self.revivals[rank] > self.config.max_revivals {
                    return Err(self.degraded(rank));
                }
                match supervisor.revive(rank, &mut self.links[rank], self.revivals[rank]) {
                    Revive::Healed => {}
                    Revive::Respawned(link) => {
                        self.links[rank] = link;
                        respawned = true;
                    }
                    Revive::Gone => return Err(self.degraded(rank)),
                }
                self.span(SpanKind::Reconnect, rank as i64);
                self.recoveries += 1;
                // A healed link is the same process, state intact: verify
                // liveness (a failure climbs the ladder again).
                if !respawned && self.probe(rank).is_err() {
                    continue;
                }
            }
            // Step 3: a fresh process starts from `Init` (a failure climbs
            // again); everyone else resyncs.
            if (respawned || rank >= self.initialised) && self.init_rank(rank).is_err() {
                continue;
            }
            match self.resync_all() {
                Ok(()) => return Ok(()),
                Err((r, _)) => rank = r,
            }
        }
        Err(self.degraded(rank))
    }

    /// Heartbeat round-trip with a fresh nonce, within the probe deadline
    /// however many stale frames arrive first.
    fn probe(&mut self, rank: Rank) -> Result<(), NetError> {
        let nonce = (self.round << 16) ^ rank as u64 ^ 0x5a5a_5a5a;
        self.links[rank].send(FrameKind::Heartbeat, &nonce.to_le_bytes())?;
        let deadline = self.config.probe_deadline;
        let start = Instant::now();
        loop {
            let left = deadline.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(NetError::Timeout { peer: self.links[rank].peer(), waited: deadline });
            }
            let frame = self.links[rank].recv(Some(left))?;
            if frame.kind == FrameKind::HeartbeatAck && frame.payload == nonce.to_le_bytes() {
                return Ok(());
            }
            // Anything else (stale round replies, old heartbeat acks) is
            // drained and discarded while we wait for our nonce.
        }
    }

    /// Post-recovery resync: every live rank re-announces everything. The
    /// aborted round may have applied partially — min-merge makes the
    /// overlap harmless and the re-flood restores whatever was lost.
    fn resync_all(&mut self) -> Result<(), (Rank, NetError)> {
        for rank in self.live() {
            // Also drains whatever the aborted round left in flight.
            self.ask(rank, &NetMsg::ResendAll, REPLY_DEADLINE, acked)?;
        }
        Ok(())
    }

    /// All rows of one rank, within `deadline`.
    fn gather_rows(
        &mut self,
        rank: Rank,
        deadline: Duration,
    ) -> Result<CheckpointRows, (Rank, NetError)> {
        self.ask(rank, &NetMsg::GatherRows, deadline, |msg| match msg {
            NetMsg::RowsReply { rows } => Ok(Some(rows)),
            other => Err(other),
        })
    }

    /// Gathers all rows from every live rank into the in-memory
    /// checkpoint.
    fn gather_checkpoint(&mut self) -> Result<(), (Rank, NetError)> {
        self.span(SpanKind::Checkpoint, 0);
        for rank in self.live() {
            self.checkpoints[rank] = Some(self.gather_rows(rank, REPLY_DEADLINE)?);
        }
        Ok(())
    }

    /// Collects closeness from every rank and assembles the global vector.
    fn gather_closeness(&mut self) -> Result<Vec<f64>, (Rank, NetError)> {
        let n = self.owner.len();
        let mut closeness = vec![0.0f64; n];
        for rank in self.live() {
            let pairs = self.ask(rank, &NetMsg::GatherClose, REPLY_DEADLINE, |msg| match msg {
                NetMsg::CloseReply { pairs } => Ok(Some(pairs)),
                other => Err(other),
            })?;
            for (v, bits) in pairs {
                if (v as usize) < n {
                    closeness[v as usize] = f64::from_bits(bits);
                }
            }
        }
        Ok(closeness)
    }

    /// Sends a best-effort `Shutdown` frame to every live worker.
    pub fn shutdown(&mut self) {
        for rank in self.live() {
            let _ = self.links[rank].send(FrameKind::Shutdown, &[]);
        }
    }

    fn degraded(&mut self, failed_rank: Rank) -> NetOutcome {
        self.dead[failed_rank] = true;
        self.degrade_with(DegradedReason::RetriesExhausted {
            last: ClusterError::RankFailed { rank: failed_rank, superstep: self.round },
        })
    }

    /// Assembles the certified degraded answer: salvage rows from every
    /// surviving worker (checkpoints stand in for dead ones), compute the
    /// estimate, and bound the error by the certified interval of each row.
    fn degrade_with(&mut self, reason: DegradedReason) -> NetOutcome {
        let n = self.owner.len();
        let mut matrix = DistMatrix::new(n);
        for rank in 0..self.links.len() {
            // Live workers give fresher rows than the checkpoint — best
            // effort, a possibly-wounded one gets the probe deadline; fall
            // back to the checkpoint, and to nothing (INF rows →
            // conservative bounds) for ranks that are gone without one.
            let live = !self.dead[rank] && rank < self.initialised;
            let fresh = live.then(|| self.gather_rows(rank, self.config.probe_deadline).ok());
            let salvaged = fresh.flatten().or_else(|| self.checkpoints[rank].clone());
            if let Some(rows) = salvaged {
                for (v, row) in rows {
                    if (v as usize) < n {
                        for (t, &d) in row.iter().enumerate().take(n) {
                            if d < matrix.get(v, t as VertexId) {
                                matrix.set(v, t as VertexId, d);
                            }
                        }
                    }
                }
            }
        }
        let estimate = (0..n as VertexId).map(|v| closeness_from_row(matrix.row(v))).collect();
        let faults = FaultCounters {
            retransmits: self.recoveries as u64 + self.probes_survived as u64,
            ..FaultCounters::default()
        };
        let rc_steps = self.round as usize;
        NetOutcome::Degraded(Box::new(DegradedReport::assemble(
            self.graph, &matrix, estimate, reason, rc_steps, faults,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: NetMsg) {
        let bytes = msg.encode();
        let back = NetMsg::decode(&bytes).expect("decodes");
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    }

    #[test]
    fn netmsg_roundtrips_every_variant() {
        roundtrip(NetMsg::Init {
            rank: 2,
            procs: 4,
            wire: WireFormat::Delta,
            owner: vec![0, 1, 2, 3, 0],
            edges: vec![(0, 1, 3), (1, 2, 1)],
            landmarks: vec![3, 0, 1, u32::MAX, u32::MAX, 4, 1, 0, u32::MAX, u32::MAX],
        });
        roundtrip(NetMsg::Ready { rank: 1 });
        roundtrip(NetMsg::Produce { round: 9 });
        roundtrip(NetMsg::Rows {
            round: 9,
            peer: 3,
            msg: RowMsg {
                rows: vec![
                    (0, RowPayload::Full(vec![0, 5, u32::MAX])),
                    (1, RowPayload::Delta(vec![(2, 7), (4, 1)])),
                ],
            },
        });
        roundtrip(NetMsg::RowsDone { round: 9, sent: true });
        roundtrip(NetMsg::Consume { round: 9, expect: 2 });
        roundtrip(NetMsg::StepDone { round: 9, changed: false, dirty: true });
        roundtrip(NetMsg::GatherClose);
        roundtrip(NetMsg::CloseReply { pairs: vec![(0, 0.25f64.to_bits()), (7, 0u64)] });
        roundtrip(NetMsg::GatherRows);
        roundtrip(NetMsg::RowsReply { rows: vec![(3, vec![1, 2, 3])] });
        roundtrip(NetMsg::Absorb { rows: vec![(3, vec![1, 2, 3]), (4, vec![])] });
        roundtrip(NetMsg::ResendAll);
        roundtrip(NetMsg::Reassign { round: 4, moves: vec![(0, 1), (5, 0)], adj: vec![(0, 5, 2)] });
        roundtrip(NetMsg::ViewDelta {
            epoch: 12,
            rc_steps: 7,
            changes_applied: 3,
            n: 100,
            converged: true,
            full: false,
            entries: vec![(4, 0.25f64.to_bits()), (90, 0.75f64.to_bits())],
            bounds: vec![(4, 0.01f64.to_bits())],
            extras: Vec::new(),
        });
        roundtrip(NetMsg::ViewDelta {
            epoch: 13,
            rc_steps: 8,
            changes_applied: 3,
            n: 100,
            converged: false,
            full: true,
            entries: vec![(4, 0.25f64.to_bits())],
            bounds: Vec::new(),
            extras: vec![(1, vec![(4, 2.0f64.to_bits()), (9, 0u64)])],
        });
    }

    #[test]
    fn view_delta_encoding_matches_declared_size_and_rejects_truncation() {
        let mut msg = NetMsg::ViewDelta {
            epoch: 3,
            rc_steps: 2,
            changes_applied: 1,
            n: 64,
            converged: false,
            full: true,
            entries: vec![(0, 1.0f64.to_bits()), (1, 0.5f64.to_bits()), (63, 0u64)],
            bounds: vec![(1, 0.125f64.to_bits())],
            extras: Vec::new(),
        };
        let bytes = msg.encode();
        // The publish layer's `ViewDelta::encoded_bytes` must stay in
        // lockstep with this codec: tag + 3×u64 + u32 + flags + two
        // counted (u32, u64-bits) lists.
        let base = 1 + 8 * 3 + 4 + 1 + 4 + 12 * 3 + 4 + 12;
        assert_eq!(bytes.len(), base);
        for cut in 0..bytes.len() {
            assert!(NetMsg::decode(&bytes[..cut]).is_err(), "truncation at {cut} decoded");
        }
        // An inflated element count is a typed error, not an allocation.
        let mut bomb = bytes.clone();
        bomb[30..34].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(NetMsg::decode(&bomb).is_err());
        // Bits 3–7 of the flags byte are reserved.
        for bit in 3..8 {
            let mut reserved = bytes.clone();
            reserved[29] |= 1 << bit;
            assert_eq!(NetMsg::decode(&reserved), Err(WireError::ReservedFlags(reserved[29])));
        }

        // With extras the same frame grows by: metric count byte + per
        // metric a kind byte and a counted pair list.
        if let NetMsg::ViewDelta { extras, .. } = &mut msg {
            *extras = vec![(1, vec![(0, 3.5f64.to_bits()), (2, 0u64), (5, 1.0f64.to_bits())])];
        }
        let multi = msg.encode();
        assert_eq!(multi.len(), base + 1 + (1 + 4 + 12 * 3));
        assert_eq!(multi[29], bytes[29] | 4, "extras are announced by flags bit 2");
        assert_eq!(NetMsg::decode(&multi).unwrap(), msg);
        for cut in 0..multi.len() {
            assert!(NetMsg::decode(&multi[..cut]).is_err(), "truncation at {cut} decoded");
        }
        // The tag that used to carry extras is gone.
        let mut old_tag = multi.clone();
        old_tag[0] = 17;
        assert_eq!(NetMsg::decode(&old_tag), Err(WireError::UnknownTag(17)));
    }

    #[test]
    fn view_delta_rides_crc_framed_transport() {
        use aaa_runtime::net::{decode_frame, encode_frame, Frame, FrameError, FrameKind};
        let msg = NetMsg::ViewDelta {
            epoch: 9,
            rc_steps: 4,
            changes_applied: 2,
            n: 32,
            converged: false,
            full: false,
            entries: vec![(3, 0.75f64.to_bits()), (17, 0.2f64.to_bits())],
            bounds: Vec::new(),
            extras: Vec::new(),
        };
        let frame = Frame { kind: FrameKind::Data, seq: 7, payload: msg.encode() };
        let wire = encode_frame(&frame);
        let (back, used) = decode_frame(&wire).expect("frame decodes");
        assert_eq!(used, wire.len());
        assert_eq!(NetMsg::decode(&back.payload).unwrap(), msg);
        // Any single corrupted byte is caught by the frame CRC before the
        // message codec ever sees the payload.
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            match decode_frame(&bad) {
                Ok((f, _)) => panic!("corruption at byte {i} decoded as {:?}", f.kind),
                Err(FrameError::BadCrc { .. }) => {}
                Err(_) => {} // header-field corruption surfaces as its own typed error
            }
        }
    }

    #[test]
    fn netmsg_decode_rejects_malformed_input() {
        assert!(matches!(NetMsg::decode(&[]), Err(WireError::Truncated { .. })));
        assert!(matches!(NetMsg::decode(&[200]), Err(WireError::UnknownTag(200))));
        // Trailing garbage after a complete message.
        let mut bytes = NetMsg::ResendAll.encode();
        bytes.push(0);
        assert!(matches!(NetMsg::decode(&bytes), Err(WireError::TrailingBytes { extra: 1 })));
        // Tag 14 was a goodbye message; a run ends on the `Shutdown` frame.
        assert_eq!(NetMsg::decode(&[14]), Err(WireError::UnknownTag(14)));
        // Truncations of a structured message are always typed errors.
        let full = NetMsg::Rows {
            round: 3,
            peer: 1,
            msg: RowMsg { rows: vec![(0, RowPayload::Full(vec![1, 2, 3]))] },
        }
        .encode();
        for cut in 0..full.len() {
            match NetMsg::decode(&full[..cut]) {
                Err(_) => {}
                Ok(m) => panic!("truncation at {cut} decoded as {m:?}"),
            }
        }
        // A corrupted element count cannot demand a giant allocation.
        let mut bomb = vec![11u8]; // RowsReply
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(NetMsg::decode(&bomb), Err(WireError::Truncated { .. })));
    }

    // -----------------------------------------------------------------
    // The ladder, once: `init` is its first client
    // -----------------------------------------------------------------

    use aaa_graph::closeness::closeness_exact;
    use aaa_graph::generators::{barabasi_albert, WeightModel};
    use aaa_graph::Csr;
    use aaa_runtime::net::{Frame, LocalTransport};
    use std::thread::JoinHandle;

    const RANKS: usize = 3;

    /// A coordinator-side link with a script: the next `lose` protocol
    /// replies vanish in flight (the wait for them times out at once), and
    /// after `sends_left` sends the peer is dead.
    struct Scripted {
        inner: LocalTransport,
        lose: usize,
        sends_left: usize,
    }

    impl Transport for Scripted {
        fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
            self.sends_left =
                self.sends_left.checked_sub(1).ok_or(NetError::PeerDead { peer: self.peer() })?;
            self.inner.send(kind, payload)
        }

        fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
            if self.sends_left == 0 {
                return Err(NetError::PeerDead { peer: self.peer() });
            }
            let frame = self.inner.recv(deadline)?;
            if frame.kind == FrameKind::Data && self.lose > 0 {
                self.lose -= 1;
                return Err(NetError::Timeout { peer: self.peer(), waited: Duration::ZERO });
            }
            Ok(frame)
        }

        fn peer(&self) -> String {
            self.inner.peer()
        }
    }

    /// A link whose every receive returns a stale heartbeat ack after
    /// `stale_after`, noting the deadline it was given.
    struct Stale {
        stale_after: Duration,
        deadlines: Vec<Duration>,
    }

    impl Transport for Stale {
        fn send(&mut self, _kind: FrameKind, _payload: &[u8]) -> Result<u64, NetError> {
            Ok(0)
        }

        fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
            self.deadlines.push(deadline.expect("a probe bounds every receive"));
            std::thread::sleep(self.stale_after);
            Ok(Frame { kind: FrameKind::HeartbeatAck, seq: 0, payload: vec![0; 8] })
        }

        fn peer(&self) -> String {
            "stale".into()
        }
    }

    /// The probe deadline bounds the whole wait, as `await_reply`'s does: a
    /// stale ack at 60 % of it leaves the next receive at most the 40 % that
    /// is left, and the probe times out instead of waiting twice as long.
    #[test]
    fn a_stale_ack_does_not_extend_the_probe_deadline() {
        let deadline = Duration::from_millis(200);
        let graph = AdjGraph::with_vertices(1);
        let link = Stale { stale_after: deadline * 3 / 5, deadlines: Vec::new() };
        let config = NetConfig { probe_deadline: deadline, ..NetConfig::default() };
        let mut runner = NetRunner::new(&graph, vec![0], vec![link], config);
        assert!(matches!(runner.probe(0), Err(NetError::Timeout { .. })));
        let asked = &runner.links[0].deadlines;
        assert_eq!(asked.len(), 2, "{asked:?}");
        assert!(asked[0] <= deadline && asked[1] <= deadline * 2 / 5, "{asked:?}");
    }

    type Worker = JoinHandle<Result<(), NetError>>;

    /// A live worker thread behind a scripted link.
    fn worker(rank: Rank, lose: usize, sends_left: usize) -> (Scripted, Worker) {
        let (inner, mut far) = LocalTransport::pair("coordinator", &format!("rank{rank}"));
        let thread = std::thread::spawn(move || run_worker(&mut far, Duration::from_secs(5)));
        (Scripted { inner, lose, sends_left }, thread)
    }

    /// Respawns any rank with a healthy worker, or heals nothing, as told.
    struct Script {
        respawn: bool,
        spawned: Vec<Worker>,
        calls: Vec<(Rank, u32)>,
    }

    impl WorkerSupervisor<Scripted> for Script {
        fn revive(&mut self, rank: Rank, _link: &mut Scripted, attempt: u32) -> Revive<Scripted> {
            self.calls.push((rank, attempt));
            if !self.respawn {
                return Revive::Healed;
            }
            let (link, thread) = worker(rank, 0, usize::MAX);
            self.spawned.push(thread);
            Revive::Respawned(link)
        }
    }

    /// Runs `init` + `run` over three ranks whose links follow `scripts`
    /// (`(lose, sends_left)` per rank), under `supervisor`.
    fn supervised(
        scripts: [(usize, usize); RANKS],
        max_revivals: u32,
        supervisor: &mut Script,
    ) -> (Result<NetOutcome, NetOutcome>, Vec<f64>) {
        let graph = barabasi_albert(40, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 7).unwrap();
        let owner = (0..40).map(|v| v % RANKS as PartId).collect();
        let (links, workers): (Vec<_>, Vec<_>) =
            (0..RANKS).map(|r| worker(r, scripts[r].0, scripts[r].1)).unzip();
        let config = NetConfig {
            max_revivals,
            probe_deadline: Duration::from_millis(500),
            ..NetConfig::default()
        };
        let mut runner = NetRunner::new(&graph, owner, links, config);
        let outcome = runner.init(supervisor).map(|()| runner.run(supervisor));
        runner.shutdown();
        drop(runner);
        // A worker whose link the script killed never hears the goodbye; it
        // ends when its link's other end is dropped with the runner.
        for w in workers.into_iter().chain(supervisor.spawned.drain(..)) {
            let _ = w.join().expect("worker thread panicked");
        }
        (outcome, closeness_exact(&Csr::from_adj(&graph)))
    }

    fn converged(outcome: Result<NetOutcome, NetOutcome>) -> NetSummary {
        match outcome {
            Ok(NetOutcome::Converged(summary)) => summary,
            Ok(NetOutcome::Degraded(r)) | Err(NetOutcome::Degraded(r)) => {
                panic!("degraded: {:?}", r.reason)
            }
            Err(NetOutcome::Converged(_)) => unreachable!("init never converges"),
        }
    }

    fn degraded_reason(outcome: Result<NetOutcome, NetOutcome>) -> DegradedReason {
        match outcome {
            Ok(NetOutcome::Degraded(r)) | Err(NetOutcome::Degraded(r)) => r.reason,
            _ => panic!("the run converged"),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_ready_lost_during_init_is_survived_by_the_probe() {
        let mut nobody = Script { respawn: false, spawned: Vec::new(), calls: Vec::new() };
        let scripts = [(0, usize::MAX), (1, usize::MAX), (0, usize::MAX)];
        let (outcome, oracle) = supervised(scripts, 3, &mut nobody);
        let summary = converged(outcome);
        assert_eq!((summary.probes_survived, summary.recoveries), (1, 0));
        assert!(nobody.calls.is_empty(), "a transient fault needs no supervisor");
        assert_eq!(bits(&summary.closeness), bits(&oracle));
    }

    #[test]
    fn a_worker_killed_during_init_is_respawned_and_reinitialised() {
        let mut respawner = Script { respawn: true, spawned: Vec::new(), calls: Vec::new() };
        let scripts = [(0, usize::MAX), (0, 0), (0, usize::MAX)];
        let (outcome, oracle) = supervised(scripts, 3, &mut respawner);
        let summary = converged(outcome);
        assert_eq!((summary.probes_survived, summary.recoveries), (0, 1));
        assert_eq!(respawner.calls, [(1, 1)]);
        assert_eq!(bits(&summary.closeness), bits(&oracle));
    }

    #[test]
    fn an_exhausted_budget_degrades_alike_during_init_and_mid_run() {
        // The link of rank 1 is dead from the start, or dies after its
        // `Init` and first `Produce`; the supervisor can only "heal" it.
        let reasons = [0, 2].map(|sends_left| {
            let mut healer = Script { respawn: false, spawned: Vec::new(), calls: Vec::new() };
            let scripts = [(0, usize::MAX), (0, sends_left), (0, usize::MAX)];
            let (outcome, _) = supervised(scripts, 2, &mut healer);
            assert_eq!(healer.calls, [(1, 1), (1, 2)], "both climbs charge rank 1's budget");
            (outcome.is_err(), degraded_reason(outcome))
        });
        let [(in_init, first), (mid_run, second)] = reasons;
        assert!(in_init && !mid_run, "the first run must degrade out of `init`");
        let failed = |round| DegradedReason::RetriesExhausted {
            last: ClusterError::RankFailed { rank: 1, superstep: round },
        };
        assert_eq!((first, second), (failed(0), failed(1)));
    }
}
