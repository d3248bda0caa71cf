//! In-process message-passing runtime: the cluster substitute.
//!
//! The paper evaluates on a 32-node MPI cluster; its runtime analysis is
//! written in the LogP model (§IV.C). This crate reproduces that substrate
//! in-process:
//!
//! * [`Cluster`] — P logical ranks, each owning private state, advanced in
//!   BSP supersteps. Rank computation runs concurrently (rayon) or
//!   sequentially (bit-deterministic, used by tests); messages are routed
//!   between supersteps.
//! * [`LogPModel`] — latency/overhead/gap/bandwidth parameters that price
//!   every message, so each run yields a *simulated communication time*
//!   alongside real wall-clock time.
//! * [`schedule`] — the communication schedules the paper uses: a
//!   serialized personalized all-to-all ("only one message traverses the
//!   network at any given time", §IV.C) plus a pairwise tournament
//!   alternative, and the binomial broadcast tree behind the vertex-addition
//!   row broadcasts (Fig. 3, line 22).
//!
//! Correctness of the algorithms above never depends on the cost model —
//! it only prices traffic; message *routing* is exact.
//!
//! The escape hatch to a real cluster is [`net`] (framed socket links);
//! [`bytes`] is the checksum and row codec it shares with `aaa-checkpoint`
//! and `aaa-core`'s protocol messages.
//!
//! Every superstep, exchange and collective is also recorded as a typed
//! span into an installed [`EventSink`] (S24; `aaa-observe`). The default
//! sink is disarmed and costs one predictable branch per site.

pub mod bytes;
pub mod chaos;
pub mod cluster;
pub mod logp;
pub mod net;
pub mod schedule;
pub mod stats;

pub use aaa_observe::{EventSink, MemorySink, NoopSink, SpanEvent, SpanKind, DRIVER_LANE};
pub use chaos::{ChannelFault, ChaosPlan};
pub use cluster::{Cluster, ClusterConfig, ClusterError, ExecutionMode, FaultPlan};
pub use logp::LogPModel;
pub use net::{
    decode_frame, encode_frame, mix64, read_hello, Backoff, Frame, FrameError, FrameKind, Hello,
    LocalTransport, NetChaos, NetError, NetFault, SocketTransport, Transport,
};
pub use schedule::ExchangeSchedule;
pub use stats::{FaultCounters, RunStats};

/// Rank index within a cluster.
pub type Rank = usize;
