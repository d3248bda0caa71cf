//! The paper's evaluation (§V, Figs. 4–8) and the experiments beyond it, as
//! one table: [`FIGURES`]. An entry names a figure, states the claim its
//! rows test, fixes the graph size it runs at and points at the function
//! that runs it. A function returns [`Row`]s; the `figures` binary prints
//! them as markdown and writes every figure to `figures.json`.
//!
//! A row of an engine run carries the LogP clock's `sim_comm_us` and the
//! `messages`, `bytes` and `supersteps` counts — exact functions of (graph,
//! seed, code) — and beside them the measured `sim_compute_us` and
//! `wall_s`. The columns in [`MEASURED`] are the only ones that vary from
//! run to run; a claim is read off the others.

use crate::stream::{drive_stream, StreamConfig, StreamShape};
use crate::{scaled, CommonArgs};
use aaa_core::baseline::restart_run;
use aaa_core::changes::{community_batch, CommunityBatchParams, VertexBatch};
use aaa_core::strategies::{cut_edge_assign, round_robin_assign};
use aaa_core::{
    AnytimeEngine, AssignStrategy, ChaosPlan, DdPartitioner, QualityTracker, RebalancePolicy,
    RetryPolicy,
};
use aaa_graph::generators::{barabasi_albert, WeightModel};
use aaa_graph::AdjGraph;
use aaa_observe::Json;
use aaa_partition::quality::new_cut_edges;
use aaa_partition::{MultilevelPartitioner, Partitioner};
use aaa_runtime::{ExchangeSchedule, LogPModel, RunStats};
use std::fmt::Write as _;
use std::time::Instant;

/// The experiments' base workload: an undirected scale-free graph of
/// `scale` vertices, as the paper generates with Pajek.
pub fn base_graph(scale: usize, seed: u64) -> AdjGraph {
    barabasi_albert(scale, 3, WeightModel::Unit, seed).expect("generator params valid")
}

/// Community-structured addition batch following the paper's Louvain
/// extraction protocol (§V.B.2).
pub fn addition_batch(graph: &AdjGraph, count: usize, seed: u64) -> VertexBatch {
    let params = CommunityBatchParams {
        count,
        community_size: (count / 8).clamp(5, 60),
        attach_edges: 2,
        seed,
        ..Default::default()
    };
    community_batch(graph, &params).0
}

fn extend_graph(graph: &AdjGraph, batch: &VertexBatch) -> AdjGraph {
    let mut full = graph.clone();
    let base = full.num_vertices() as u32;
    full.add_vertices(batch.len());
    for (a, b, w) in batch.global_edges(base) {
        full.add_edge(a, b, w).expect("batch validated");
    }
    full
}

/// Steps the engine `steps` times regardless of convergence (the paper
/// injects at a fixed RC index even if the static analysis already
/// converged).
fn step_n(engine: &mut AnytimeEngine, steps: usize) {
    for _ in 0..steps {
        engine.rc_step();
    }
}

/// One figure of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// What `figures.json` and EXPERIMENTS.md call it.
    pub name: &'static str,
    /// The claim its rows test, in one sentence.
    pub claim: &'static str,
    /// The graph size it runs at unless `--scale` overrides it.
    pub scale: usize,
    /// The function that runs it.
    pub run: fn(&CommonArgs) -> Vec<Row>,
    /// Whether it records the Repartition-S / RoundRobin-PS [`crossover`].
    pub crossover: bool,
}

/// Every figure: the only place one is named.
pub const FIGURES: [Figure; 10] = [
    Figure {
        name: "fig4",
        claim: "Anytime anywhere (RoundRobin-PS) absorbs 512 (scaled) added vertices for less \
                than a restart from scratch at RC0, RC4 and RC8, and the restart is flat in \
                the injection step.",
        scale: 2_000,
        run: fig4,
        crossover: false,
    },
    Figure {
        name: "fig5",
        claim: "At RC0 RoundRobin-PS and CutEdge-PS absorb small batches for less than \
                Repartition-S, and Repartition-S overtakes them as the batch grows.",
        scale: 2_000,
        run: |args| single_step_additions(args, 0),
        crossover: true,
    },
    Figure {
        name: "fig6",
        claim: "At RC8 the ordering of Fig. 5 holds: the incremental strategies win small \
                batches, Repartition-S wins large ones.",
        scale: 2_000,
        run: |args| single_step_additions(args, 8),
        crossover: true,
    },
    Figure {
        name: "fig7",
        claim: "RoundRobin-PS creates the most new cut edges, CutEdge-PS fewer and \
                Repartition-S fewer still, the gap growing with the batch.",
        scale: crate::PAPER_VERTICES,
        run: fig7,
        crossover: false,
    },
    Figure {
        name: "fig8",
        claim: "Spread over 10 RC steps, every anytime anywhere strategy costs less than one \
                restart per wave at every rate; Repartition-S becomes competitive at the \
                highest rate.",
        scale: 1_200,
        run: fig8,
        crossover: false,
    },
    Figure {
        name: "anytime_quality",
        claim: "The mean relative closeness error never rises from one RC step to the next \
                and reaches 0 at convergence, where top-20 recall is 1 (the §III anytime \
                guarantee).",
        scale: 1_500,
        run: anytime_quality,
        crossover: false,
    },
    Figure {
        name: "ablation_partitioner",
        claim: "The multilevel (METIS-family) DD partitioner cuts fewer edges than block, \
                round-robin, hash and random assignment, and its RC traffic is lower.",
        scale: 1_200,
        run: ablation_partitioner,
        crossover: false,
    },
    Figure {
        name: "ablation_logp",
        claim: "On 1 Gb/s Ethernet the paper's serialized all-to-all costs several times the \
                pairwise schedule in communication time; on a fast fabric the gap vanishes.",
        scale: 1_000,
        run: ablation_logp,
        crossover: false,
    },
    Figure {
        name: "chaos_overhead",
        claim: "Under seeded message faults that stop at a finite horizon the supervised loop \
                reconverges at every rate, at a communication overhead that saturates with \
                the rate; rate 0 injects nothing.",
        scale: 2_000,
        run: chaos_overhead,
        crossover: false,
    },
    Figure {
        name: "stream_policies",
        claim: "Under every stream shape the static policy ends the most imbalanced, ps and \
                adaptive absorb the skew with budgeted migrations and rs moves the most bytes.",
        scale: 2_000,
        run: stream_policies,
        crossover: false,
    },
];

/// The measured columns: they vary from run to run, so no claim reads them.
/// Every other column is an exact function of (graph, seed, code).
pub const MEASURED: [&str; 3] = ["sim_compute_us", "wall_s", "changes_per_s"];

/// One row of a figure: named cells in column order — first what sets the
/// run apart (text, or a count), then what it measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(pub Vec<(&'static str, Json)>);

impl Row {
    fn text(mut self, column: &'static str, value: impl Into<String>) -> Self {
        self.0.push((column, Json::Str(value.into())));
        self
    }

    fn num(mut self, column: &'static str, value: f64) -> Self {
        self.0.push((column, Json::Num(value)));
        self
    }

    /// The columns of one engine run: its cost in `stats` and the wall
    /// seconds since `started`.
    fn run(self, stats: &RunStats, started: Instant) -> Self {
        self.num("sim_comm_us", stats.sim_comm_us)
            .num("messages", stats.messages as f64)
            .num("bytes", stats.bytes as f64)
            .num("supersteps", stats.supersteps as f64)
            .num("sim_compute_us", stats.sim_compute_us)
            .num("wall_s", started.elapsed().as_secs_f64())
    }

    /// The cell in `column`, if the row has one.
    pub fn get(&self, column: &str) -> Option<&Json> {
        self.0.iter().find(|(c, _)| *c == column).map(|(_, v)| v)
    }

    /// The number in `column`, if the row has one.
    pub fn value(&self, column: &str) -> Option<f64> {
        self.get(column)?.as_f64()
    }

    /// The text in `column`, if the row has one.
    pub fn label(&self, column: &str) -> Option<&str> {
        self.get(column)?.as_str()
    }

    /// The row as a JSON object, its columns in order.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.0.iter().map(|(c, v)| (c.to_string(), v.clone())).collect())
    }
}

/// The smallest batch (`added`) at which Repartition-S's `sim_comm_us` is
/// at most RoundRobin-PS's (Figs. 5–6), or `None` when it never is. Rows
/// come in ascending batch order.
pub fn crossover(rows: &[Row]) -> Option<f64> {
    let comm = |batch: f64, strategy: &str| {
        rows.iter()
            .find(|r| {
                r.value("paper_added") == Some(batch) && r.label("strategy") == Some(strategy)
            })?
            .value("sim_comm_us")
    };
    rows.iter().filter(|r| r.label("strategy") == Some("Repartition-S")).find_map(|r| {
        let batch = r.value("paper_added")?;
        (r.value("sim_comm_us")? <= comm(batch, "RoundRobin-PS")?).then_some(r.value("added")?)
    })
}

/// `rows` as a markdown table (the form EXPERIMENTS.md uses), every number
/// at full precision. A row lacking a column leaves its cell empty.
pub fn markdown(rows: &[Row]) -> String {
    let mut columns: Vec<&str> = Vec::new();
    for (c, _) in rows.iter().flat_map(|r| &r.0) {
        if !columns.contains(c) {
            columns.push(c);
        }
    }
    let mut out = format!("| {} |\n|{}\n", columns.join(" | "), "---|".repeat(columns.len()));
    for row in rows {
        let cells: Vec<String> = columns
            .iter()
            .map(|c| match row.get(c) {
                Some(Json::Num(v)) => v.to_string(),
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            })
            .collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 4 — Anytime Anywhere vs. Baseline Restart
// ---------------------------------------------------------------------------

/// 512 (scaled) vertex additions injected at RC0/RC4/RC8; anytime anywhere
/// with RoundRobin-PS (one row per injection point) vs. restarting from
/// scratch (one row: it does not depend on the injection step).
pub fn fig4(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let additions = scaled(args.scale, 512, 8);
    let batch = addition_batch(&g, additions, args.seed + 1);
    let row = |inject: &str, method: &str| {
        Row::default().text("inject", inject).text("method", method).num("added", additions as f64)
    };
    let mut rows = Vec::new();
    for inject in [0usize, 4, 8] {
        let started = Instant::now();
        let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
        step_n(&mut engine, inject);
        engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch valid");
        engine.run_to_convergence();
        rows.push(row(&format!("RC{inject}"), "anywhere").run(&engine.stats(), started));
    }

    // End-to-end cost of producing the final (post-change) centralities.
    // The baseline has no anytime property: it runs the initial analysis,
    // then — when the change arrives — throws it away and recomputes the
    // changed graph from scratch.
    let started = Instant::now();
    let (_, mut restart) = restart_run(&g, &args.engine_config()).expect("baseline run");
    let (_, after) =
        restart_run(&extend_graph(&g, &batch), &args.engine_config()).expect("baseline run");
    restart.merge(&after);
    rows.push(row("any", "restart").run(&restart, started));
    rows
}

// ---------------------------------------------------------------------------
// Figures 5 & 6 — single-step vertex additions, three strategies
// ---------------------------------------------------------------------------

/// Figures 5 (`inject_at` 0) and 6 (8): batches of 500–6000 (scaled)
/// vertices injected at RC `inject_at`; Repartition-S vs CutEdge-PS vs
/// RoundRobin-PS. A row is the cost of
/// absorbing the batch: from the injection to convergence.
pub fn single_step_additions(args: &CommonArgs, inject_at: usize) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let mut rows = Vec::new();
    for paper_count in [500usize, 1500, 3000, 4500, 6000] {
        let count = scaled(args.scale, paper_count, 8);
        let batch = addition_batch(&g, count, args.seed + paper_count as u64);
        for (name, strategy) in [
            ("Repartition-S", AssignStrategy::Repartition { seed: args.seed }),
            ("CutEdge-PS", AssignStrategy::CutEdge { seed: args.seed, tries: 4 }),
            ("RoundRobin-PS", AssignStrategy::RoundRobin),
        ] {
            let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
            step_n(&mut engine, inject_at);
            let (before, started) = (engine.stats(), Instant::now());
            engine.apply_vertex_additions(&batch, strategy).expect("batch valid");
            engine.run_to_convergence();
            rows.push(
                Row::default()
                    .num("paper_added", paper_count as f64)
                    .num("added", count as f64)
                    .text("strategy", name)
                    .run(&engine.stats().delta_since(&before), started),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7 — new cut-edges per strategy
// ---------------------------------------------------------------------------

/// Number of *new* cut edges each strategy creates. Pure partition-level
/// measurement (no DV state), so it runs at the paper's full 50,000-vertex
/// scale by default.
pub fn fig7(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let base = g.num_vertices() as u32;
    let initial =
        MultilevelPartitioner::seeded(args.seed).partition(&g, args.procs).expect("partition");
    let mut rows = Vec::new();
    for paper_count in [500usize, 1500, 3000, 4500, 6000] {
        let count = scaled(args.scale, paper_count, 8);
        let batch = addition_batch(&g, count, args.seed + paper_count as u64);
        let edges: Vec<(u32, u32)> =
            batch.global_edges(base).iter().map(|&(a, b, _)| (a, b)).collect();

        // Repartition-S: repartition the merged graph; new cut edges are
        // the new edges that end up crossing parts.
        let repart = MultilevelPartitioner::seeded(args.seed + 1)
            .partition(&extend_graph(&g, &batch), args.procs)
            .expect("partition");

        // CutEdge-PS: partition the batch-internal graph, extend.
        let mut ce = initial.clone();
        ce.extend(cut_edge_assign(&batch, base, args.procs, args.seed, 4).expect("assign"))
            .expect("extend");

        let mut rr = initial.clone();
        rr.extend(round_robin_assign(count, args.procs, 0)).expect("extend");

        for (name, part) in [("Repartition-S", repart), ("CutEdge-PS", ce), ("RoundRobin-PS", rr)] {
            rows.push(
                Row::default()
                    .num("paper_added", paper_count as f64)
                    .num("added", count as f64)
                    .text("strategy", name)
                    .num("new_cut_edges", new_cut_edges(&part, &edges) as f64),
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 8 — incremental vertex additions
// ---------------------------------------------------------------------------

/// Additions spread over 10 RC steps at four rates; Baseline Restart (a
/// fresh full analysis after every wave) vs the three strategies.
pub fn fig8(args: &CommonArgs) -> Vec<Row> {
    const WAVES: usize = 10;
    let g = base_graph(args.scale, args.seed);
    let mut rows = Vec::new();
    for paper_rate in [51usize, 187, 383, 561] {
        let per_step = scaled(args.scale, paper_rate, 2);
        let row = |method: &str| {
            Row::default()
                .num("paper_rate", paper_rate as f64)
                .num("per_step", per_step as f64)
                .num("added", (per_step * WAVES) as f64)
                .text("method", method)
        };

        let started = Instant::now();
        let mut snapshot = g.clone();
        let (_, mut restart) = restart_run(&snapshot, &args.engine_config()).expect("run");
        for wave in 0..WAVES {
            let batch = addition_batch(&snapshot, per_step, args.seed + 77 + wave as u64);
            snapshot = extend_graph(&snapshot, &batch);
            restart.merge(&restart_run(&snapshot, &args.engine_config()).expect("run").1);
        }
        rows.push(row("restart").run(&restart, started));

        for (name, strategy) in [
            ("Repartition-S", AssignStrategy::Repartition { seed: args.seed }),
            ("RoundRobin-PS", AssignStrategy::RoundRobin),
            ("CutEdge-PS", AssignStrategy::CutEdge { seed: args.seed, tries: 4 }),
        ] {
            let started = Instant::now();
            let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
            for wave in 0..WAVES {
                engine.rc_step();
                let batch = addition_batch(engine.graph(), per_step, args.seed + 77 + wave as u64);
                engine.apply_vertex_additions(&batch, strategy).expect("batch valid");
            }
            engine.run_to_convergence();
            rows.push(row(name).run(&engine.stats(), started));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Beyond the paper
// ---------------------------------------------------------------------------

/// Closeness error and top-k recall after IA (`rc_step` 0) and after every
/// RC step, with the engine's cumulative cost beside them.
pub fn anytime_quality(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let started = Instant::now();
    let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
    let mut tracker = QualityTracker::new(&g, 20);
    let mut rows = Vec::new();
    for step in 0..=24 {
        let more = step == 0 || engine.rc_step();
        let s = tracker.record(step, &engine.closeness());
        rows.push(
            Row::default()
                .num("rc_step", step as f64)
                .num("error", s.error)
                .num("top20_recall", s.top_k_recall)
                .run(&engine.stats(), started),
        );
        if !more {
            break;
        }
    }
    rows
}

/// DD-phase partitioner ablation: cut quality vs. engine cost.
pub fn ablation_partitioner(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let mut rows = Vec::new();
    for (name, dd) in [
        ("multilevel", DdPartitioner::Multilevel { seed: args.seed }),
        ("block", DdPartitioner::Block),
        ("round-robin", DdPartitioner::RoundRobin),
        ("hash", DdPartitioner::Hash),
        ("random", DdPartitioner::Random { seed: args.seed }),
    ] {
        let mut cfg = args.engine_config();
        cfg.dd = dd;
        let started = Instant::now();
        let mut engine = AnytimeEngine::new(g.clone(), cfg).expect("engine");
        let cut = aaa_partition::cut_edges(&g, engine.partition());
        let summary = engine.run_to_convergence();
        rows.push(
            Row::default()
                .text("partitioner", name)
                .num("cut_edges", cut as f64)
                .num("rc_steps", summary.steps as f64)
                .run(&engine.stats(), started),
        );
    }
    rows
}

/// LogP/network ablation: network speed × exchange schedule × message cap.
pub fn ablation_logp(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let mut rows = Vec::new();
    for (net, model) in [
        ("1G ethernet", LogPModel::ethernet_1g()),
        ("fast fabric", LogPModel::fast_interconnect()),
        ("free", LogPModel::free()),
    ] {
        for (schedule, sched) in
            [("sequential", ExchangeSchedule::Sequential), ("pairwise", ExchangeSchedule::Pairwise)]
        {
            for (cap_name, cap) in [("64 KiB", 64 << 10), ("1 MiB", 1 << 20)] {
                let mut cfg = args.engine_config();
                cfg.cluster.model = model;
                cfg.cluster.schedule = sched;
                cfg.message_cap_bytes = cap;
                let started = Instant::now();
                let mut engine = AnytimeEngine::new(g.clone(), cfg).expect("engine");
                engine.run_to_convergence();
                rows.push(
                    Row::default()
                        .text("network", net)
                        .text("schedule", schedule)
                        .text("message_cap", cap_name)
                        .run(&engine.stats(), started),
                );
            }
        }
    }
    rows
}

/// Cost of surviving message faults: converge the base graph under
/// increasing fault rates (same seed, faults stop after superstep 32)
/// through the supervised loop. `comm_overhead_pct` is the communication
/// time against the clean run's; rate 0 doubles as the zero-cost check —
/// its counters must read 0.
pub fn chaos_overhead(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
    let mut clean_comm_us = 0.0;
    let mut rows = Vec::new();
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let started = Instant::now();
        let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
        engine.set_chaos(ChaosPlan::seeded(args.seed, rate, 32));
        let run = engine.run_supervised(&retry).expect("supervised run");
        assert!(run.converged(), "rate {rate}: an eventually-quiet plan must reconverge");
        let stats = engine.stats();
        if rate == 0.0 {
            assert_eq!(stats.faults.injected(), 0, "rate 0 must inject nothing");
            clean_comm_us = stats.sim_comm_us;
        }
        let mut row = Row::default()
            .num("rate", rate)
            .run(&stats, started)
            .num("injected", stats.faults.injected() as f64)
            .num("retransmits", stats.faults.retransmits as f64);
        // One processor sends nothing, so there is no overhead to state.
        if clean_comm_us > 0.0 {
            row = row.num("comm_overhead_pct", (stats.sim_comm_us / clean_comm_us - 1.0) * 100.0);
        }
        rows.push(row);
    }
    rows
}

/// Sustained change streams (bursty, diurnal, adversarial hub) under each
/// background-rebalance policy: epoch staleness, peak backlog, final
/// imbalance and migration traffic, all deterministic, and the
/// wall-derived `changes_per_s`. The hub stream under the adaptive policy
/// is also the perf gate's `stream` cell.
pub fn stream_policies(args: &CommonArgs) -> Vec<Row> {
    let g = base_graph(args.scale, args.seed);
    let mut rows = Vec::new();
    for shape in StreamShape::ALL {
        for (name, policy) in [
            ("static", RebalancePolicy::Static),
            ("ps", RebalancePolicy::Ps),
            ("rs", RebalancePolicy::Rs),
            ("adaptive", RebalancePolicy::Adaptive),
        ] {
            let mut config = args.engine_config();
            config.rebalance = policy;
            let started = Instant::now();
            let mut engine = AnytimeEngine::new(g.clone(), config).expect("engine");
            let stream = StreamConfig {
                shape,
                ticks: 24,
                batch: scaled(args.scale, 256, 4),
                edges_per_vertex: 2,
                seed: args.seed + 1,
            };
            let outcome = drive_stream(&mut engine, &stream);
            let stats = engine.stats();
            rows.push(
                Row::default()
                    .text("shape", shape.name())
                    .text("policy", name)
                    .num("p50_stale", outcome.staleness_quantile(0.50) as f64)
                    .num("p99_stale", outcome.staleness_quantile(0.99) as f64)
                    .num("max_stale", outcome.staleness.last().copied().unwrap_or(0) as f64)
                    .num("peak_queue", outcome.peak_queue as f64)
                    .num("final_imbalance", outcome.final_imbalance)
                    .num("migrations", stats.migrations as f64)
                    .num("migration_bytes", stats.migration_bytes as f64)
                    .run(&stats, started)
                    .num("changes_per_s", outcome.changes_per_sec),
            );
        }
    }
    rows
}
