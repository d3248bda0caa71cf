//! Implementations of every paper experiment (Figures 4–8) plus the
//! additional ablations. Each returns a [`Table`] so the thin binaries in
//! `src/bin/` only parse arguments and print.

use crate::{fmt_sim_secs, CommonArgs, Table};
use aaa_core::baseline::restart_run;
use aaa_core::changes::{community_batch, CommunityBatchParams, VertexBatch};
use aaa_core::strategies::{cut_edge_assign, round_robin_assign};
use aaa_core::{
    AnytimeEngine, AssignStrategy, ChaosPlan, CheckpointPolicy, ClusterError, ConvergenceSummary,
    CoreError, DdPartitioner, EngineConfig, FaultPlan, QualityTracker, RetryPolicy, Snapshot,
};
use aaa_graph::generators::{barabasi_albert, WeightModel};
use aaa_graph::AdjGraph;
use aaa_partition::quality::new_cut_edges;
use aaa_partition::{MultilevelPartitioner, Partitioner};
use aaa_runtime::{ExchangeSchedule, LogPModel};

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

/// Chaos horizon for harness runs: faults stop after this superstep, so
/// every `--chaos` drive is recoverable (partial-synchrony GST).
const CHAOS_HORIZON: u64 = 64;

/// Drives the engine to convergence under the harness's chaos / checkpoint
/// / fault flags: arms the fault (if any), snapshots per
/// `--checkpoint-every`, and on an injected rank failure recovers the rank
/// from the latest snapshot and resumes RC. With `--chaos` the drive goes
/// through the supervised retry loop instead of plain RC stepping
/// (`--checkpoint-every` is not supported in that mode). With no flags set
/// this is plain `run_to_convergence`.
pub fn drive_to_convergence(engine: &mut AnytimeEngine, args: &CommonArgs) -> ConvergenceSummary {
    if let Some((seed, rate)) = args.chaos {
        assert!(
            args.checkpoint_every.is_none(),
            "--chaos and --checkpoint-every cannot be combined"
        );
        engine.set_chaos(ChaosPlan::seeded(seed, rate, CHAOS_HORIZON));
        if let Some((rank, superstep)) = args.fault {
            engine.inject_fault(FaultPlan::at(rank, superstep));
        }
        let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
        let latest = engine.snapshot();
        loop {
            match engine.run_supervised(&retry) {
                Ok(run) => {
                    assert!(run.converged(), "harness chaos plans are eventually quiet");
                    return run.summary;
                }
                Err(CoreError::Cluster(ClusterError::RankFailed { rank, .. })) => {
                    engine.recover_rank(rank, &latest).expect("recovery from snapshot");
                }
                Err(e) => panic!("drive failed: {e}"),
            }
        }
    }
    if args.checkpoint_every.is_none() && args.fault.is_none() {
        return engine.run_to_convergence();
    }
    if let Some((rank, superstep)) = args.fault {
        engine.inject_fault(FaultPlan::at(rank, superstep));
    }
    let policy = match args.checkpoint_every {
        Some(n) => CheckpointPolicy::EveryNRcSteps(n),
        None => CheckpointPolicy::Manual,
    };
    // Recovery baseline: without a snapshot from before the failure there
    // is nothing to restore from, so take one up front.
    let mut latest = engine.snapshot();
    loop {
        let mut newest: Option<Snapshot> = None;
        let result = engine.run_to_convergence_checkpointed(policy, |bytes| {
            // Round-trip through the wire format — the persisted artifact
            // is what a real deployment would recover from.
            newest = Some(Snapshot::from_bytes(bytes).expect("own snapshot is readable"));
        });
        if let Some(s) = newest {
            latest = s;
        }
        match result {
            Ok(summary) => return summary,
            Err(CoreError::Cluster(ClusterError::RankFailed { rank, .. })) => {
                engine.recover_rank(rank, &latest).expect("recovery from snapshot");
            }
            Err(e) => panic!("drive failed: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 4 — Anytime Anywhere vs. Baseline Restart
// ---------------------------------------------------------------------------

/// 512 (scaled) vertex additions injected at RC0/RC4/RC8; anytime anywhere
/// with RoundRobin-PS vs. restarting from scratch.
pub fn fig4(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let additions = args.scaled(512, 8);
    let batch = addition_batch(&g, additions, args.seed + 1);
    let full = extend_graph(&g, &batch);

    // End-to-end cost of producing the final (post-change) centralities.
    // The baseline has no anytime property: it runs the initial analysis,
    // then — when the change arrives — throws it away and recomputes the
    // changed graph from scratch. Independent of the injection step.
    let (_, s1) = restart_run(&g, &args.engine_config()).expect("baseline run");
    let (_, s2) = restart_run(&full, &args.engine_config()).expect("baseline run");
    let baseline_us = s1.sim_total_us() + s2.sim_total_us();

    let mut table = Table::new(
        format!(
            "Figure 4 — Baseline Restart vs. Anytime Anywhere ({} additions, {} procs, {} vertices)",
            additions, args.procs, args.scale
        ),
        &["inject at", "anytime anywhere (RoundRobin-PS) [s]", "baseline restart [s]"],
    );
    for inject in [0usize, 4, 8] {
        let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
        step_n(&mut engine, inject);
        engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch valid");
        drive_to_convergence(&mut engine, args);
        table.row(vec![
            format!("RC{inject}"),
            fmt_sim_secs(engine.stats().sim_total_us()),
            fmt_sim_secs(baseline_us),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 5 & 6 — single-step vertex additions, three strategies
// ---------------------------------------------------------------------------

/// Batches of 500–6000 (scaled) vertices injected at one RC step;
/// RoundRobin-PS vs CutEdge-PS vs Repartition-S. `inject_at = 0` is
/// Figure 5, `inject_at = 8` is Figure 6.
pub fn single_step_additions(args: &CommonArgs, inject_at: usize) -> Table {
    let g = base_graph(args.scale, args.seed);
    let figure = if inject_at == 0 { 5 } else { 6 };
    let mut table = Table::new(
        format!(
            "Figure {figure} — vertex additions at RC{inject_at} ({} procs, {} vertices)",
            args.procs, args.scale
        ),
        &["vertices added", "Repartition-S [s]", "CutEdge-PS [s]", "RoundRobin-PS [s]"],
    );
    for paper_count in [500usize, 1500, 3000, 4500, 6000] {
        let count = args.scaled(paper_count, 8);
        let batch = addition_batch(&g, count, args.seed + paper_count as u64);
        let mut cells = vec![count.to_string()];
        for strategy in [
            AssignStrategy::Repartition { seed: args.seed },
            AssignStrategy::CutEdge { seed: args.seed, tries: 4 },
            AssignStrategy::RoundRobin,
        ] {
            let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
            step_n(&mut engine, inject_at);
            let before = engine.stats().sim_total_us();
            engine.apply_vertex_additions(&batch, strategy).expect("batch valid");
            engine.run_to_convergence();
            let delta = engine.stats().sim_total_us() - before;
            cells.push(fmt_sim_secs(delta));
        }
        table.row(cells);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 7 — new cut-edges per strategy
// ---------------------------------------------------------------------------

/// Number of *new* cut edges each strategy creates. Pure partition-level
/// measurement (no DV state), so it runs at the paper's full 50,000-vertex
/// scale by default.
pub fn fig7(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let base = g.num_vertices() as u32;
    let initial =
        MultilevelPartitioner::seeded(args.seed).partition(&g, args.procs).expect("partition");

    let mut table = Table::new(
        format!(
            "Figure 7 — number of new cut-edges ({} procs, {} vertices)",
            args.procs, args.scale
        ),
        &["vertices added", "Repartition-S", "CutEdge-PS", "RoundRobin-PS"],
    );
    for paper_count in [500usize, 1500, 3000, 4500, 6000] {
        let count = args.scaled(paper_count, 8);
        let batch = addition_batch(&g, count, args.seed + paper_count as u64);
        let edges: Vec<(u32, u32)> =
            batch.global_edges(base).iter().map(|&(a, b, _)| (a, b)).collect();

        // Repartition-S: repartition the merged graph; new cut edges are
        // the new edges that end up crossing parts.
        let merged = extend_graph(&g, &batch);
        let repart = MultilevelPartitioner::seeded(args.seed + 1)
            .partition(&merged, args.procs)
            .expect("partition");
        let cut_repart = new_cut_edges(&repart, &edges);

        // CutEdge-PS: partition the batch-internal graph, extend.
        let assign = cut_edge_assign(&batch, base, args.procs, args.seed, 4).expect("assign");
        let mut ce = initial.clone();
        ce.extend(assign).expect("extend");
        let cut_ce = new_cut_edges(&ce, &edges);

        // RoundRobin-PS.
        let mut rr = initial.clone();
        rr.extend(round_robin_assign(count, args.procs, 0)).expect("extend");
        let cut_rr = new_cut_edges(&rr, &edges);

        table.row(vec![
            count.to_string(),
            cut_repart.to_string(),
            cut_ce.to_string(),
            cut_rr.to_string(),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 8 — incremental vertex additions
// ---------------------------------------------------------------------------

/// Additions spread over 10 RC steps at four rates; Baseline Restart vs
/// the three strategies.
pub fn fig8(args: &CommonArgs) -> Table {
    const WAVES: usize = 10;
    let g = base_graph(args.scale, args.seed);
    let mut table = Table::new(
        format!(
            "Figure 8 — incremental vertex additions over {WAVES} RC steps ({} procs, {} vertices)",
            args.procs, args.scale
        ),
        &[
            "added per step (cumulative)",
            "baseline restart [s]",
            "Repartition-S [s]",
            "RoundRobin-PS [s]",
            "CutEdge-PS [s]",
        ],
    );
    for paper_rate in [51usize, 187, 383, 561] {
        let per_step = args.scaled(paper_rate, 2);
        let mut cells = vec![format!("{per_step} ({})", per_step * WAVES)];

        // Baseline restart: a fresh full analysis after every wave.
        {
            let mut total = 0.0;
            let mut snapshot = g.clone();
            let (_, s) = restart_run(&snapshot, &args.engine_config()).expect("run");
            total += s.sim_total_us();
            for wave in 0..WAVES {
                let batch = addition_batch(&snapshot, per_step, args.seed + 77 + wave as u64);
                snapshot = extend_graph(&snapshot, &batch);
                let (_, s) = restart_run(&snapshot, &args.engine_config()).expect("run");
                total += s.sim_total_us();
            }
            cells.push(fmt_sim_secs(total));
        }

        // The anytime anywhere strategies.
        for strategy in [
            AssignStrategy::Repartition { seed: args.seed },
            AssignStrategy::RoundRobin,
            AssignStrategy::CutEdge { seed: args.seed, tries: 4 },
        ] {
            let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
            for wave in 0..WAVES {
                engine.rc_step();
                let batch = addition_batch(engine.graph(), per_step, args.seed + 77 + wave as u64);
                engine.apply_vertex_additions(&batch, strategy).expect("batch valid");
            }
            engine.run_to_convergence();
            cells.push(fmt_sim_secs(engine.stats().sim_total_us()));
        }
        // cells were pushed in the table's column order:
        // [label, baseline, Repartition-S, RoundRobin-PS, CutEdge-PS].
        table.row(cells);
    }
    table
}

// ---------------------------------------------------------------------------
// Extra: anytime quality
// ---------------------------------------------------------------------------

/// Closeness error and top-k recall per RC step (the anytime property).
pub fn anytime_quality(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
    let mut tracker = QualityTracker::new(&g, 20);
    let mut table = Table::new(
        format!("Anytime quality ({} procs, {} vertices)", args.procs, args.scale),
        &["RC step", "mean relative error", "top-20 recall"],
    );
    let s = tracker.record(0, &engine.closeness());
    table.row(vec!["0 (IA)".into(), format!("{:.4}", s.error), format!("{:.2}", s.top_k_recall)]);
    for step in 1..=24 {
        let more = engine.rc_step();
        let s = tracker.record(step, &engine.closeness());
        table.row(vec![
            step.to_string(),
            format!("{:.4}", s.error),
            format!("{:.2}", s.top_k_recall),
        ]);
        if !more {
            break;
        }
    }
    assert!(
        tracker.error_is_monotone_nonincreasing(),
        "anytime violation: {:?}",
        tracker.samples()
    );
    table
}

// ---------------------------------------------------------------------------
// Chaos overhead
// ---------------------------------------------------------------------------

/// Cost of surviving message faults: converge the base graph under
/// increasing fault rates (same seed, finite horizon) through the
/// supervised loop, and report traffic / repair / simulated-time
/// amplification against the clean run. Rate 0 doubles as the zero-cost
/// check — its counters must read 0.
pub fn chaos_overhead(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let mut table = Table::new(
        format!(
            "Chaos overhead ({} procs, {} vertices, seed {})",
            args.procs, args.scale, args.seed
        ),
        &["fault rate", "messages", "injected", "retransmits", "sim time [s]", "overhead"],
    );
    let retry = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
    let mut clean_us = 0.0;
    for rate in [0.0, 0.02, 0.05, 0.10] {
        let mut engine = AnytimeEngine::new(g.clone(), args.engine_config()).expect("engine");
        engine.set_chaos(ChaosPlan::seeded(args.seed, rate, 32));
        let run = engine.run_supervised(&retry).expect("supervised run");
        assert!(run.converged(), "rate {rate}: an eventually-quiet plan must reconverge");
        let stats = engine.stats();
        if rate == 0.0 {
            assert_eq!(stats.faults.injected(), 0, "rate 0 must inject nothing");
            clean_us = stats.sim_total_us();
        }
        let overhead = if rate == 0.0 {
            "—".to_string()
        } else {
            format!("{:+.1}%", (stats.sim_total_us() / clean_us - 1.0) * 100.0)
        };
        table.row(vec![
            format!("{rate:.2}"),
            stats.messages.to_string(),
            stats.faults.injected().to_string(),
            stats.faults.retransmits.to_string(),
            fmt_sim_secs(stats.sim_total_us()),
            overhead,
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// DD-phase partitioner ablation: cut quality vs. engine cost.
pub fn ablation_partitioner(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let mut table = Table::new(
        format!("Ablation — DD partitioner ({} procs, {} vertices)", args.procs, args.scale),
        &["partitioner", "cut edges", "RC steps", "messages", "sim time [s]"],
    );
    for (name, dd) in [
        ("multilevel", DdPartitioner::Multilevel { seed: args.seed }),
        ("block", DdPartitioner::Block),
        ("round-robin", DdPartitioner::RoundRobin),
        ("hash", DdPartitioner::Hash),
        ("random", DdPartitioner::Random { seed: args.seed }),
    ] {
        let mut cfg = args.engine_config();
        cfg.dd = dd;
        let mut engine = AnytimeEngine::new(g.clone(), cfg).expect("engine");
        let cut = aaa_partition::cut_edges(&g, engine.partition());
        let summary = engine.run_to_convergence();
        let stats = engine.stats();
        table.row(vec![
            name.into(),
            cut.to_string(),
            summary.steps.to_string(),
            stats.messages.to_string(),
            fmt_sim_secs(stats.sim_total_us()),
        ]);
    }
    table
}

/// LogP/network ablation: network speed × exchange schedule × message cap.
pub fn ablation_logp(args: &CommonArgs) -> Table {
    let g = base_graph(args.scale, args.seed);
    let mut table = Table::new(
        format!("Ablation — LogP model & schedule ({} procs, {} vertices)", args.procs, args.scale),
        &["network", "schedule", "message cap", "comm time [s]", "total sim [s]"],
    );
    let nets: [(&str, LogPModel); 3] = [
        ("1G ethernet", LogPModel::ethernet_1g()),
        ("fast fabric", LogPModel::fast_interconnect()),
        ("free", LogPModel::free()),
    ];
    for (net_name, model) in nets {
        for (sched_name, sched) in
            [("sequential", ExchangeSchedule::Sequential), ("pairwise", ExchangeSchedule::Pairwise)]
        {
            for (cap_name, cap) in [("64 KiB", 64 << 10), ("1 MiB", 1 << 20)] {
                let mut cfg: EngineConfig = args.engine_config();
                cfg.cluster.model = model;
                cfg.cluster.schedule = sched;
                cfg.message_cap_bytes = cap;
                let mut engine = AnytimeEngine::new(g.clone(), cfg).expect("engine");
                engine.run_to_convergence();
                let stats = engine.stats();
                table.row(vec![
                    net_name.into(),
                    sched_name.into(),
                    cap_name.into(),
                    fmt_sim_secs(stats.sim_comm_us),
                    fmt_sim_secs(stats.sim_total_us()),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-scale smoke tests: every experiment produces a table of the
    /// right shape without panicking.
    fn tiny() -> CommonArgs {
        CommonArgs { scale: 120, procs: 3, seed: 7, ..Default::default() }
    }

    #[test]
    fn fig4_shape() {
        let t = fig4(&tiny());
        assert!(
            t.render().lines().filter(|l| l.starts_with("RC") || l.contains("RC")).count() >= 3
        );
    }

    #[test]
    fn fig5_and_6_shapes() {
        for inject in [0, 2] {
            let t = single_step_additions(&tiny(), inject);
            assert!(t.render().lines().count() >= 8);
        }
    }

    #[test]
    fn fig7_shape_and_ordering_signal() {
        let t = fig7(&CommonArgs { scale: 2_000, procs: 4, seed: 3, ..Default::default() });
        let r = t.render();
        assert!(r.contains("RoundRobin"));
        assert!(r.lines().count() >= 8);
    }

    #[test]
    fn fig8_shape() {
        let t = fig8(&tiny());
        assert!(t.render().lines().count() >= 7);
    }

    #[test]
    fn quality_is_monotone_at_tiny_scale() {
        let t = anytime_quality(&tiny());
        assert!(t.render().contains("0 (IA)"));
    }

    #[test]
    fn fig4_with_checkpoints_and_fault_recovers() {
        let args = CommonArgs {
            scale: 120,
            procs: 3,
            seed: 7,
            checkpoint_every: Some(2),
            fault: Some((1, 4)),
            ..Default::default()
        };
        // The fault fires during each run; the harness must recover from
        // the latest snapshot and still converge to a full table.
        let t = fig4(&args);
        assert!(t.render().lines().count() >= 5);
    }

    #[test]
    fn chaos_overhead_shape() {
        let t = chaos_overhead(&tiny());
        let r = t.render();
        assert!(r.contains("fault rate"));
        assert!(r.lines().count() >= 6, "four rates + header lines");
    }

    #[test]
    fn fig4_under_chaos_still_converges() {
        let args = CommonArgs { chaos: Some((5, 0.1)), ..tiny() };
        let t = fig4(&args);
        assert!(t.render().lines().count() >= 5);
    }

    #[test]
    fn ablations_run() {
        let t = ablation_partitioner(&tiny());
        assert!(t.render().contains("multilevel"));
        let t = ablation_logp(&tiny());
        assert!(t.render().contains("ethernet"));
    }
}
