//! The perf-gate **cells**: six fully deterministic, instrumented engine
//! runs, each named once in [`CELLS`] with its scenario string, the
//! arguments it runs with, the scenario function that runs it and the
//! committed baseline its [`RunReport`] is gated against. `perfgate cell
//! <name>` runs one, writes its report and Chrome trace and diffs the
//! report against that baseline.
//!
//! Every scenario is deliberately *sequential* (bit-deterministic execution
//! mode) and fixed in shape — construction, a few RC steps, dynamic
//! changes, then convergence — so two runs of the same tree produce
//! byte-identical gated metrics. That determinism is what lets CI treat any
//! drift in simulated cost or traffic as a real behavioral change.

use crate::experiments::{addition_batch, base_graph};
use crate::scaled;
use aaa_core::quality::QualityTracker;
use aaa_core::{
    AnytimeEngine, AssignStrategy, EngineConfig, MemorySink, MetricKind, RebalancePolicy,
    WireFormat,
};
use aaa_observe::{aggregate_phases, chrome_trace, per_rank_busy, QualityPoint, RunReport};
use std::sync::Arc;

/// RC steps run before the dynamic batch is injected.
const STEPS_BEFORE_BATCH: usize = 4;

/// What a cell's scenario reads: the graph size, ranks and seed, plus the
/// knobs that set the cells apart.
#[derive(Debug, Clone, Copy)]
pub struct CellArgs {
    pub scale: usize,
    pub procs: usize,
    pub seed: u64,
    /// RC wire format.
    pub wire: WireFormat,
    /// Metrics maintained beside closeness.
    pub metrics: &'static [MetricKind],
    /// Background-rebalance policy of the stream scenario.
    pub policy: RebalancePolicy,
    /// Driver ticks of the stream scenario.
    pub ticks: u64,
}

/// The arguments every cell runs with; a cell changes only what sets it
/// apart.
const PINNED: CellArgs = CellArgs {
    scale: 300,
    procs: 4,
    seed: 42,
    wire: WireFormat::Full,
    metrics: &[],
    policy: RebalancePolicy::Adaptive,
    ticks: 24,
};

/// One perf-gate cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// What `perfgate cell` and CI call it.
    pub name: &'static str,
    /// The report's scenario string; its baseline carries the same one.
    pub scenario: &'static str,
    pub args: CellArgs,
    /// The scenario function: report and rendered Chrome trace.
    pub run: fn(&str, &CellArgs) -> (RunReport, String),
    /// Baseline file under `results/baselines/`.
    pub baseline: &'static str,
}

/// Every perf-gate cell: the only place one is named.
pub const CELLS: [Cell; 6] = [
    Cell {
        name: "plain",
        scenario: "fig4:pinned",
        args: PINNED,
        run: observed_run,
        baseline: "ci_smoke.json",
    },
    Cell {
        name: "delta",
        scenario: "fig4:pinned:wire=delta",
        args: CellArgs { wire: WireFormat::Delta, ..PINNED },
        run: observed_run,
        baseline: "ci_smoke_delta.json",
    },
    Cell {
        name: "serve",
        scenario: "fig4:pinned:serve",
        args: PINNED,
        run: observed_serve_run,
        baseline: "ci_smoke_serve.json",
    },
    Cell {
        name: "stream",
        scenario: "fig4:pinned:stream",
        args: PINNED,
        run: observed_stream_run,
        baseline: "ci_smoke_stream.json",
    },
    Cell {
        name: "publish",
        scenario: "fig4:pinned:publish",
        args: PINNED,
        run: observed_publish_run,
        baseline: "ci_smoke_publish.json",
    },
    Cell {
        name: "betweenness",
        scenario: "fig4:pinned:betweenness",
        args: CellArgs { metrics: &[MetricKind::Betweenness], ..PINNED },
        run: observed_run,
        baseline: "ci_smoke_betweenness.json",
    },
];

impl Cell {
    /// The cell called `name`, if any.
    pub fn named(name: &str) -> Option<&'static Cell> {
        CELLS.iter().find(|c| c.name == name)
    }

    /// Runs the scenario with the cell's arguments.
    pub fn observe(&self) -> (RunReport, String) {
        (self.run)(self.scenario, &self.args)
    }

    /// The committed baseline's path in this checkout.
    pub fn baseline_path(&self) -> String {
        format!("{}/../../results/baselines/{}", env!("CARGO_MANIFEST_DIR"), self.baseline)
    }
}

/// The engine configuration every pinned scenario starts from.
fn pinned_config(args: &CellArgs) -> EngineConfig {
    let mut config = EngineConfig::deterministic(args.procs);
    config.wire = args.wire;
    config.metrics = args.metrics.to_vec();
    config
}

/// Closes a pinned run: the engine reports itself ([`AnytimeEngine::report`]
/// — header, `changes`, `migration`, `publish`, `metrics`), the harness
/// adds what only it knows (scale, seed, quality samples) and what the sink
/// recorded (phases, ranks, the trace).
fn finish(
    engine: &AnytimeEngine,
    sink: &MemorySink,
    name: &str,
    args: &CellArgs,
    quality: Vec<QualityPoint>,
) -> (RunReport, String) {
    let events = sink.drain();
    let mut report = engine.report(name);
    report.scale = args.scale as u64;
    report.seed = args.seed;
    report.phases = aggregate_phases(&events);
    report.ranks = per_rank_busy(&events);
    report.quality = quality;
    (report, chrome_trace(&events, args.procs))
}

/// Runs the pinned scenario (a vertex-addition batch mid-analysis, one
/// checkpoint, then convergence with quality sampling) under the name
/// `scenario` and returns its report plus the rendered Chrome trace. Fully
/// deterministic in everything the perf gate checks: sequential execution,
/// seeded graph and batch, fixed step structure. The plain, delta and
/// betweenness cells run it.
pub fn observed_run(scenario: &str, args: &CellArgs) -> (RunReport, String) {
    let sink = Arc::new(MemorySink::new());
    let config = pinned_config(args);
    let g = base_graph(args.scale, args.seed);
    let mut engine =
        AnytimeEngine::with_sink(g.clone(), config, sink.clone()).expect("engine construction");

    // Phase 1: partial static convergence (the anytime prefix).
    for _ in 0..STEPS_BEFORE_BATCH {
        if !engine.rc_step() {
            break;
        }
    }

    // Phase 2: a dynamic vertex-addition batch lands mid-analysis.
    let batch = addition_batch(&g, scaled(args.scale, 512, 8), args.seed + 1);
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch applies");

    // Phase 3: one checkpoint at the post-batch barrier (exercises the
    // Checkpoint span and counter).
    let _snapshot = engine.checkpoint_bytes().expect("checkpoint");

    // Phase 4: converge, sampling convergence quality per RC step. The
    // sampling uses `recompute_exact()` — the priced gather superstep the
    // scenario has always charged — so the pipeline split's unpriced
    // published-view reads leave every gated metric byte-identical.
    let mut tracker = QualityTracker::new(engine.graph(), 20);
    let mut quality: Vec<QualityPoint> = Vec::new();
    for _ in 0..256 {
        let more = engine.rc_step();
        let sample = tracker.record(engine.rc_steps_done(), &engine.recompute_exact());
        quality.push(QualityPoint {
            rc_step: sample.rc_step as u64,
            error: sample.error,
            top_k_recall: sample.top_k_recall,
        });
        if !more {
            break;
        }
    }

    finish(&engine, &sink, scenario, args, quality)
}

/// Runs the pinned **serve scenario** — the ingest → compute → publish
/// pipeline under a seeded, coalescing change stream — and returns its
/// report plus the rendered Chrome trace.
///
/// The stream is built so every coalescing rule fires deterministically:
/// two vertex batches with the same strategy fold into one, every added
/// edge is immediately reweighted (the reweight merges into the queued
/// add), and every third pair is removed again (add + remove annihilate
/// before ever reaching the compute layer). Everything drains at RC-step
/// barriers, so the report's `changes` section (submitted / coalesced /
/// applied / drains / epochs) is exactly reproducible; the `serve` cell
/// gates it.
pub fn observed_serve_run(scenario: &str, args: &CellArgs) -> (RunReport, String) {
    use aaa_core::DynamicChange;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    let sink = Arc::new(MemorySink::new());
    let config = pinned_config(args);
    let g = base_graph(args.scale, args.seed);
    let mut engine =
        AnytimeEngine::with_sink(g.clone(), config, sink.clone()).expect("engine construction");

    // Phase 1: partial static convergence (the anytime prefix).
    for _ in 0..STEPS_BEFORE_BATCH {
        if !engine.rc_step() {
            break;
        }
    }

    // Phase 2: the change stream lands in the ingest log. Batch B is built
    // against the graph as it will look once batch A applied (submitted
    // changes are interpreted against the projected graph), and folds into
    // the queued batch A since both pin the same strategy.
    let batch_a = addition_batch(&g, scaled(args.scale, 256, 6), args.seed + 1);
    let mut g_ext = g.clone();
    let base = g_ext.num_vertices() as u32;
    g_ext.add_vertices(batch_a.len());
    for (a, b, w) in batch_a.global_edges(base) {
        g_ext.add_edge(a, b, w).expect("batch validated");
    }
    let batch_b = addition_batch(&g_ext, scaled(args.scale, 128, 4), args.seed + 2);
    engine
        .submit_with_strategy(DynamicChange::AddVertices(batch_a), AssignStrategy::RoundRobin)
        .expect("batch A submits");
    engine
        .submit_with_strategy(DynamicChange::AddVertices(batch_b), AssignStrategy::RoundRobin)
        .expect("batch B folds into batch A");

    // Seeded edge churn over the original vertices: add + reweight pairs
    // merge in the log; every third pair is removed again and never
    // reaches compute.
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed + 3);
    let n = g.num_vertices() as u32;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    while pairs.len() < 12 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || g.has_edge(u, v) || pairs.contains(&(u, v)) || pairs.contains(&(v, u)) {
            continue;
        }
        pairs.push((u, v));
    }
    for (i, &(u, v)) in pairs.iter().enumerate() {
        engine.submit(DynamicChange::AddEdge { u, v, w: 3 }).expect("edge add submits");
        engine.submit(DynamicChange::SetWeight { u, v, w: 1 }).expect("reweight merges");
        if i % 3 == 0 {
            engine.submit(DynamicChange::RemoveEdge { u, v }).expect("removal annihilates");
        }
    }

    // Phase 3: converge. The first RC step drains the whole stream at its
    // barrier; quality sampling uses the priced `recompute_exact` gather.
    let mut more = engine.rc_step();
    let mut tracker = QualityTracker::new(engine.graph(), 20);
    let mut quality: Vec<QualityPoint> = Vec::new();
    let sample = |engine: &mut AnytimeEngine,
                  tracker: &mut QualityTracker,
                  quality: &mut Vec<QualityPoint>| {
        let s = tracker.record(engine.rc_steps_done(), &engine.recompute_exact());
        quality.push(QualityPoint {
            rc_step: s.rc_step as u64,
            error: s.error,
            top_k_recall: s.top_k_recall,
        });
    };
    sample(&mut engine, &mut tracker, &mut quality);
    while more {
        more = engine.rc_step();
        sample(&mut engine, &mut tracker, &mut quality);
    }

    // Phase 4: a second, smaller wave mid-serving (reweights of surviving
    // pairs), drained explicitly this time, then re-converge — the report
    // counts two drains. The reweights change the graph's exact answer, so
    // quality sampling restarts on a fresh oracle.
    for &(u, v) in pairs.iter().skip(1).take(2) {
        engine.submit(DynamicChange::SetWeight { u, v, w: 2 }).expect("reweight submits");
    }
    engine.drain_changes().expect("wave 2 drains");
    let mut tracker = QualityTracker::new(engine.graph(), 20);
    let mut more = engine.rc_step();
    sample(&mut engine, &mut tracker, &mut quality);
    while more {
        more = engine.rc_step();
        sample(&mut engine, &mut tracker, &mut quality);
    }

    finish(&engine, &sink, scenario, args, quality)
}

/// Runs the pinned **publish scenario** — the delta publication path under
/// a change stream, with one forced O(n) republication mid-run so both
/// publish paths land in the `publish` section — and returns its report
/// plus the rendered Chrome trace.
///
/// This is the cell whose baseline pins the engine's `publish` section
/// (full vs. delta epochs, changed rows, chunks copied vs. structurally
/// shared, top-k index rebuilds). Chunk-sharing decisions are an exact
/// function of the change stream — publication happens driver-side at
/// barriers on drained epoch-dirty sets — so every row is deterministic;
/// the `publish` cell gates it.
pub fn observed_publish_run(scenario: &str, args: &CellArgs) -> (RunReport, String) {
    use aaa_core::DynamicChange;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    let sink = Arc::new(MemorySink::new());
    let config = pinned_config(args);
    let g = base_graph(args.scale, args.seed);
    let mut engine =
        AnytimeEngine::with_sink(g.clone(), config, sink.clone()).expect("engine construction");

    // Phase 1: partial static convergence. Every epoch after the first
    // (full, at construction) publishes by delta.
    for _ in 0..STEPS_BEFORE_BATCH {
        if !engine.rc_step() {
            break;
        }
    }

    // Phase 2: a vertex-addition batch grows the view (tail chunk tops
    // up / fresh chunks materialize) plus seeded edge churn that dirties
    // scattered rows.
    let batch = addition_batch(&g, scaled(args.scale, 256, 6), args.seed + 1);
    engine
        .submit_with_strategy(DynamicChange::AddVertices(batch), AssignStrategy::RoundRobin)
        .expect("batch submits");
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed + 2);
    let n = g.num_vertices() as u32;
    let mut added: Vec<(u32, u32)> = Vec::new();
    while added.len() < 8 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge(u, v) && !added.contains(&(u, v)) && !added.contains(&(v, u)) {
            engine.submit(DynamicChange::AddEdge { u, v, w: 2 }).expect("edge add submits");
            added.push((u, v));
        }
    }
    while engine.rc_step() {}

    // Phase 3: a reweight wave published through the forced O(n) full
    // path — the debug oracle CI keeps honest — then back to deltas for
    // the re-convergence tail.
    engine.set_force_full_publish(true);
    for &(u, v) in added.iter().take(4) {
        engine.submit(DynamicChange::SetWeight { u, v, w: 1 }).expect("reweight submits");
    }
    engine.drain_changes().expect("wave 2 drains");
    engine.set_force_full_publish(false);
    while engine.rc_step() {}

    finish(&engine, &sink, scenario, args, Vec::new())
}

/// Runs the pinned **stream scenario** — the adversarial hub-targeting
/// change stream driven through the ingest log while the adaptive
/// background rebalancer absorbs the resulting skew — and returns its
/// report plus the rendered Chrome trace.
///
/// The driver adds its own `stream` section (offered batches,
/// deterministic p99/max epoch staleness, peak queue depth and the final
/// vertex imbalance the rebalancer achieved) to the engine's, of which
/// `migration` (events, rows moved, priced traffic) is the one this cell
/// exists to pin. Everything except the
/// wall-derived `changes_per_sec` is an exact function of the scenario;
/// the `stream` cell gates it.
pub fn observed_stream_run(scenario: &str, args: &CellArgs) -> (RunReport, String) {
    use crate::stream::{drive_stream, StreamConfig, StreamShape};

    let sink = Arc::new(MemorySink::new());
    let mut config = pinned_config(args);
    config.rebalance = args.policy;
    let g = base_graph(args.scale, args.seed);
    let mut engine =
        AnytimeEngine::with_sink(g, config, sink.clone()).expect("engine construction");

    // Phase 1: partial static convergence (the anytime prefix).
    for _ in 0..STEPS_BEFORE_BATCH {
        if !engine.rc_step() {
            break;
        }
    }

    // Phase 2+3: the adversarial stream, stepped at half the offered
    // cadence, then tail drain and convergence (inside the driver).
    let stream = StreamConfig {
        shape: StreamShape::Hub,
        ticks: args.ticks,
        batch: scaled(args.scale, 256, 4),
        edges_per_vertex: 2,
        seed: args.seed + 1,
    };
    let outcome = drive_stream(&mut engine, &stream);

    let (mut report, trace) = finish(&engine, &sink, scenario, args, Vec::new());
    report.sections.push(outcome.section());
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_observe::{compare, GateConfig};

    /// The named cell at test size.
    fn small(name: &str) -> Cell {
        let mut cell = *Cell::named(name).expect("a cell of the table");
        cell.args = CellArgs { scale: 120, procs: 3, seed: 7, ..cell.args };
        cell
    }

    /// Every row the perf gate gates reads the same in `a` and `b`: the gate
    /// itself at threshold 0, both ways round (so neither report may carry
    /// a section or row the other lacks). Wall-derived rows are exempt by
    /// the gate's own list.
    fn assert_same_gated(a: &RunReport, b: &RunReport) {
        let strict = GateConfig { default_threshold: 0.0 };
        for (x, y) in [(a, b), (b, a)] {
            let rows = compare(x, y, &strict);
            let off: Vec<&str> =
                rows.iter().filter(|r| r.regressed).map(|r| r.name.as_str()).collect();
            assert!(off.is_empty(), "gated rows differ: {off:?}");
        }
    }

    /// Reads the counters of one section of `report` (all are integers).
    fn row_of<'a>(report: &'a RunReport, section: &'a str) -> impl Fn(&str) -> u64 + 'a {
        let section = report.section(section).unwrap_or_else(|| panic!("no `{section}` section"));
        move |row| section.get(row).unwrap_or_else(|| panic!("no `{row}` row")) as u64
    }

    #[test]
    fn observed_run_is_deterministic_in_gated_metrics() {
        let cell = small("plain");
        let (a, _) = cell.observe();
        let (b, _) = cell.observe();
        assert_eq!(a.scenario, "fig4:pinned");
        assert_same_gated(&a, &b);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.checkpoints, 1);
        assert!(a.rc_steps as usize > STEPS_BEFORE_BATCH);
        assert!(!a.phases.is_empty());
        assert!(a.ranks.len() >= cell.args.procs, "every rank plus the driver recorded spans");
        let last = a.final_quality().expect("quality sampled");
        assert!(last.error < 1e-6, "converged run matches exact closeness");
    }

    #[test]
    fn observed_serve_run_is_deterministic_and_coalesces() {
        let cell = small("serve");
        let (a, _) = cell.observe();
        let (b, _) = cell.observe();
        assert_eq!(a.scenario, "fig4:pinned:serve");
        assert_same_gated(&a, &b);
        let changes = row_of(&a, "changes");
        assert!(changes("coalesced") > 0, "batch fold + edge merges must coalesce");
        assert_eq!(changes("drains"), 2, "one drain per convergence wave");
        assert_eq!(
            changes("submitted"),
            changes("coalesced") + changes("applied"),
            "stream fully drained"
        );
        assert!(changes("epochs") > a.rc_steps, "construction + per-step + per-drain epochs");
        let last = a.final_quality().expect("quality sampled");
        assert!(last.error < 1e-6, "converged run matches exact closeness");
    }

    /// The publish scenario must reproduce its whole gated surface — in
    /// particular the `publish` section, whose chunk-sharing counters are a
    /// function of the change stream alone — and must exercise both
    /// publication paths.
    #[test]
    fn observed_publish_run_is_deterministic_and_uses_both_paths() {
        let cell = small("publish");
        let (a, _) = cell.observe();
        let (b, _) = cell.observe();
        assert_eq!(a.scenario, "fig4:pinned:publish");
        assert_same_gated(&a, &b);
        let publish = row_of(&a, "publish");
        assert!(publish("full_epochs") >= 2, "construction + forced-full wave");
        assert!(
            publish("delta_epochs") > publish("full_epochs"),
            "steady state publishes by delta"
        );
        assert!(publish("changed_rows") > 0, "the change stream dirties rows");
        assert_eq!(
            publish("full_epochs") + publish("delta_epochs"),
            row_of(&a, "changes")("epochs"),
            "every published epoch is classified"
        );
    }

    /// The stream scenario's gated surface — traffic, steps, the change
    /// section, the migration section and the integer stream rows — must
    /// be byte-reproducible; only `changes_per_sec` may differ.
    #[test]
    fn observed_stream_run_is_deterministic_and_migrates() {
        let mut cell = small("stream");
        cell.args.ticks = 10;
        let (a, _) = cell.observe();
        let (b, _) = cell.observe();
        assert_eq!(a.scenario, "fig4:pinned:stream");
        assert_same_gated(&a, &b);
        let stream = row_of(&a, "stream");
        let migration = row_of(&a, "migration");
        assert!(migration("migrations") > 0, "the adversarial stream must trigger migrations");
        assert!(migration("migration_bytes") > 0, "migration traffic must be priced");
        assert!(stream("offered") > 0 && stream("peak_queue") > 0);
    }

    /// The betweenness cell must (a) reproduce its whole gated surface
    /// including the `metrics` section, (b) leave the *closeness* gated
    /// metrics byte-identical to the closeness-only run (metric updates
    /// happen driver-side at publish barriers and are never priced), and
    /// (c) show the incremental path doing measurably less work than a
    /// full per-epoch rescan (`sources_recomputed` < n × update epochs).
    #[test]
    fn betweenness_scenario_is_deterministic_and_beats_rescan() {
        let cell = small("betweenness");
        let (plain, _) = small("plain").observe();
        let (a, _) = cell.observe();
        let (b, _) = cell.observe();
        assert_eq!(a.scenario, "fig4:pinned:betweenness");
        assert_same_gated(&a, &b);
        assert_eq!(a.quality, b.quality);
        // Maintaining the extra column must not perturb the priced run.
        assert_eq!(a.messages, plain.messages);
        assert_eq!(a.bytes, plain.bytes);
        assert_eq!(a.sim_comm_us, plain.sim_comm_us);
        assert_eq!(a.rc_steps, plain.rc_steps);
        assert_eq!(a.quality, plain.quality);
        assert!(
            plain.section("metrics").is_none(),
            "closeness-only run carries no metrics section"
        );
        let t = row_of(&a, "metrics");
        assert!(t("betweenness_epochs") > 0 && t("changed_entries") > 0);
        assert_eq!(t("full_recomputes"), 1, "construction's; the batch drain voids nothing");
        let n = (cell.args.scale + scaled(cell.args.scale, 512, 8)) as u64;
        assert!(
            t("sources_recomputed") < n * t("betweenness_epochs"),
            "incremental updates must beat a per-epoch full rescan \
             ({} sources over {} epochs of n = {})",
            t("sources_recomputed"),
            t("betweenness_epochs"),
            n
        );
    }

    /// The pinned scenario includes a vertex-addition batch, so it is the
    /// incremental workload the delta wire targets: same converged answer,
    /// strictly fewer simulated bytes.
    #[test]
    fn delta_wire_reduces_bytes_and_converges() {
        let (full, _) = small("plain").observe();
        let (delta, _) = small("delta").observe();
        assert_eq!(delta.scenario, "fig4:pinned:wire=delta");
        assert!(
            delta.bytes < full.bytes,
            "delta wire must cut simulated bytes ({} vs {})",
            delta.bytes,
            full.bytes
        );
        assert!(delta.final_quality().expect("quality sampled").error < 1e-6);
    }
}
