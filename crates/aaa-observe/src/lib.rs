//! # aaa-observe — structured run tracing and machine-readable run reports
//!
//! A zero-dependency observability layer for the anytime-anywhere engine
//! (S24 in DESIGN.md). Four pieces:
//!
//! - **Events & sinks** ([`SpanEvent`], [`EventSink`]): the runtime records
//!   typed spans — superstep slices, exchanges, collectives, RC steps,
//!   checkpoints, restores, recoveries, retries — stamped with both the
//!   wall clock and the LogP-simulated clock. The default [`NoopSink`]
//!   keeps the hot path at a single cached branch; [`MemorySink`] collects
//!   with per-lane shards.
//! - **Chrome-trace export** ([`chrome_trace`]): renders events as a Trace
//!   Event Format JSON array on the *simulated* timeline, openable in
//!   Perfetto / `chrome://tracing`.
//! - **Run reports** ([`RunReport`]): a stable, versioned JSON document —
//!   a typed header (counters, the LogP cost breakdown, fault counters),
//!   per-phase/per-rank durations, convergence-quality samples, and named
//!   [`Section`]s. A section is a name plus an ordered list of
//!   `(row, number)`; any layer may push one for the counters it owns
//!   (`Section::new` at the producer is the whole cost of a new counter —
//!   the writer, the reader and the gate are one loop each and know no
//!   section by name). Serialization is hand-rolled ([`Json`]) — no serde,
//!   exact `f64` round-trips, sections and rows kept in file order.
//! - **Perf gate** ([`compare`]): diffs two reports with per-metric
//!   relative thresholds. Only deterministic metrics can fail the gate.
//!   A section row is diffed, as `section.row`, when both reports carry
//!   it; one only the candidate carries adds nothing (new counters never
//!   break old baselines); one only the baseline carries is `MISSING` and
//!   fails. Rows derived from the wall clock are named in one list in
//!   [`gate`] and are shown but never gated. CI wires this up via the
//!   `perfgate` binary in `aaa-bench`.
//!
//! This crate sits *below* `aaa-runtime` in the dependency graph and uses
//! only `std`, so every layer of the system can record into it.

pub mod event;
pub mod gate;
pub mod json;
pub mod report;
pub mod sink;
pub mod trace;

pub use event::{SpanEvent, SpanKind, DRIVER_LANE};
pub use gate::{compare, regressed, GateConfig, MetricDiff};
pub use json::{Json, JsonError};
pub use report::{
    aggregate_phases, per_rank_busy, FaultCounters, PhaseReport, QualityPoint, RankReport,
    RunReport, Section, REPORT_VERSION,
};
pub use sink::{EventSink, MemorySink, NoopSink};
pub use trace::chrome_trace;
