//! # anytime-anywhere
//!
//! Facade crate for the reproduction of *"Efficient Anytime Anywhere
//! Algorithms for Vertex Additions in Large and Dynamic Graphs"*
//! (Santos, Korah, Murugappan, Subramanian — IPDPSW 2017).
//!
//! The actual implementation lives in the workspace crates; this crate
//! re-exports them under stable names so downstream users depend on one
//! package:
//!
//! * [`graph`] — graph structures, generators, Louvain, the
//!   [`graph::GraphStore`] trait its adjacency and CSR backends meet, and the
//!   reference algorithms over either backend.
//! * [`partition`] — multilevel k-way partitioner and simple partitioners.
//! * [`runtime`] — the in-process BSP message-passing cluster with LogP
//!   cost accounting.
//! * [`checkpoint`] — versioned binary snapshots, checkpoint policies,
//!   and the rank-failure recovery building blocks.
//! * [`core`] — the anytime anywhere closeness-centrality engine with
//!   dynamic vertex additions and processor-assignment strategies.
//! * [`observe`] — structured run tracing: typed span events, Chrome-trace
//!   export, machine-readable run reports, and the perf-gate comparator.
//! * [`serve`] — snapshot-isolated concurrent query serving over the
//!   engine's published epoch views.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
//! use anytime_anywhere::core::{EngineConfig, AnytimeEngine};
//!
//! let g = barabasi_albert(200, 2, WeightModel::Unit, 42).unwrap();
//! let mut engine = AnytimeEngine::new(g, EngineConfig::with_procs(4)).unwrap();
//! let summary = engine.run_to_convergence();
//! assert!(summary.converged);
//! assert_eq!(engine.closeness().len(), 200);
//! ```

pub use aaa_checkpoint as checkpoint;
pub use aaa_core as core;
pub use aaa_graph as graph;
pub use aaa_observe as observe;
pub use aaa_partition as partition;
pub use aaa_runtime as runtime;
pub use aaa_serve as serve;
