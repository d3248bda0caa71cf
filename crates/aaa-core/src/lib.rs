//! # aaa-core — the anytime anywhere closeness-centrality engine
//!
//! Reproduction of the primary contribution of *"Efficient Anytime Anywhere
//! Algorithms for Vertex Additions in Large and Dynamic Graphs"*
//! (Santos, Korah, Murugappan, Subramanian — IPDPSW 2017):
//!
//! * the three-phase **anytime anywhere** methodology — domain
//!   decomposition ([`EngineConfig::dd`]), initial approximation
//!   (per-rank multithreaded Dijkstra), and the recombination loop
//!   ([`AnytimeEngine::rc_step`]) built on distance-vector-routing-style
//!   boundary exchange;
//! * the **anywhere vertex-addition strategy** (Fig. 3) with the
//!   **RoundRobin-PS** and **CutEdge-PS** processor-assignment strategies
//!   and the **Repartition-S** alternative ([`AssignStrategy`]);
//! * the **Baseline Restart** comparator ([`baseline`]);
//! * the companion dynamic-edge strategies (additions \[9\], deletions \[10\],
//!   weight changes \[7\]) as engine methods;
//! * anytime-quality instrumentation ([`quality`]);
//! * **anytime persistence** — [`AnytimeEngine::checkpoint`] /
//!   [`AnytimeEngine::restore`] snapshots at superstep barriers, policies
//!   ([`CheckpointPolicy`]), and rank-failure recovery
//!   ([`AnytimeEngine::recover_rank`]) built on the `aaa-checkpoint`
//!   snapshot format;
//! * **chaos-tolerant communication** — seeded message-fault injection
//!   ([`ChaosPlan`]), the supervised retry/backoff/fallback convergence
//!   loop ([`AnytimeEngine::run_supervised`], [`RetryPolicy`]), and
//!   degraded-mode answers with certified error bounds
//!   ([`DegradedReport`]).
//!
//! ```
//! use aaa_core::{AnytimeEngine, EngineConfig, AssignStrategy};
//! use aaa_core::changes::preferential_batch;
//! use aaa_graph::generators::{barabasi_albert, WeightModel};
//!
//! let g = barabasi_albert(120, 2, WeightModel::Unit, 7).unwrap();
//! let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(4)).unwrap();
//! engine.run_to_convergence();
//!
//! // A change arrives mid-analysis: ten new actors join.
//! let batch = preferential_batch(engine.graph(), 10, 2, 1);
//! engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).unwrap();
//! engine.run_to_convergence();
//! assert_eq!(engine.closeness().len(), 130);
//! ```

pub mod baseline;
pub mod changes;
pub mod dv;
pub mod engine;
pub mod error;
pub mod ingest;
pub mod metric;
pub mod net;
pub mod policy;
pub mod publish;
pub mod quality;
pub mod rank;
pub mod strategies;

pub use aaa_checkpoint::{CheckpointError, CheckpointPolicy, Snapshot};
pub use aaa_observe::{EventSink, MemorySink, NoopSink, SpanEvent, SpanKind};
pub use aaa_partition::{RebalanceConfig, RebalancePlan, RebalancePolicy};
pub use aaa_runtime::{ChannelFault, ChaosPlan, ClusterError, FaultCounters, FaultPlan};
pub use changes::{DynamicChange, NewVertex, VertexBatch};
pub use engine::{AnytimeEngine, ConvergenceSummary, DdPartitioner, EngineConfig, SupervisedRun};
pub use error::CoreError;
pub use ingest::{ChangeLog, IngestStats, PendingChange};
pub use metric::{IncBetweenness, Metric, MetricKind, MetricMask, MetricSet, MetricTally};
pub use net::{
    run_worker, NetConfig, NetMsg, NetOutcome, NetRunner, NetSummary, NoSupervisor, Revive,
    WireError, WorkerSupervisor,
};
pub use policy::{RetryPolicy, StrategyPolicy};
pub use publish::{
    BoundsMode, PublishStats, PublishedView, Publisher, ViewCell, ViewDelta, ViewDeltaError,
    TOPK_SERVE_CAP,
};
pub use quality::{DegradedReason, DegradedReport, QualitySample, QualityTracker};
pub use rank::{InvalidationTally, WireFormat};
pub use strategies::AssignStrategy;
