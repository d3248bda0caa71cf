//! Trace a dynamic-graph analysis end to end.
//!
//! Runs a small anytime-anywhere analysis — construction, partial
//! convergence, a vertex-addition batch, a checkpoint, reconvergence —
//! with a live event sink, then writes:
//!
//! * `trace_run.trace.json` — a Chrome-trace array on the LogP-simulated
//!   timeline (open in Perfetto or `chrome://tracing`): one lane per rank
//!   plus a driver lane for exchanges, collectives, RC steps and
//!   checkpoints;
//! * `trace_run.report.json` — the machine-readable RunReport the CI perf
//!   gate consumes (see `perfgate`).
//!
//! ```text
//! cargo run --release --example trace_run
//! ```

use anytime_anywhere::core::changes::preferential_batch;
use anytime_anywhere::core::{AnytimeEngine, AssignStrategy, EngineConfig, MemorySink};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::observe::{aggregate_phases, chrome_trace, per_rank_busy};
use std::sync::Arc;

fn main() {
    let procs = 8;
    let g = barabasi_albert(600, 3, WeightModel::Unit, 42).expect("generator");

    // Install the collecting sink before construction so even the DD and
    // IA phases are traced.
    let sink = Arc::new(MemorySink::new());
    let mut engine = AnytimeEngine::with_sink(g, EngineConfig::deterministic(procs), sink.clone())
        .expect("engine");

    // Partial static convergence, then a change arrives mid-analysis.
    for _ in 0..4 {
        engine.rc_step();
    }
    let batch = preferential_batch(engine.graph(), 24, 2, 7);
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch");
    let _checkpoint = engine.checkpoint_bytes().expect("checkpoint");
    let summary = engine.run_to_convergence();
    assert!(summary.converged);

    // Export both artifacts.
    let events = sink.drain();
    let trace = chrome_trace(&events, procs);
    std::fs::write("trace_run.trace.json", &trace).expect("trace write");

    // The engine states its own header and counter sections; the caller
    // adds the workload parameters and what the sink recorded.
    let mut report = engine.report("trace_run:example");
    report.scale = 600;
    report.seed = 42;
    report.phases = aggregate_phases(&events);
    report.ranks = per_rank_busy(&events);
    std::fs::write("trace_run.report.json", report.to_json_string()).expect("report write");

    println!("traced {} spans across {} lanes", events.len(), report.ranks.len());
    println!(
        "simulated time: {:.1} ms  (comm {:.1} ms, compute {:.1} ms)",
        report.sim_total_us() / 1e3,
        report.sim_comm_us / 1e3,
        report.sim_compute_us / 1e3
    );
    for phase in &report.phases {
        println!("  {:>20}  ×{:<5} {:>10.1} µs sim", phase.name, phase.count, phase.sim_us);
    }
    println!("wrote trace_run.trace.json (Perfetto) and trace_run.report.json (perfgate)");
}
