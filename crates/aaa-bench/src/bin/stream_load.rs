//! Streaming workload sweep: drives bursty, diurnal and adversarial
//! hub-targeting change streams through the ingest log under each
//! background-rebalance policy, reporting sustained changes/sec
//! (wall-derived, info-only), deterministic p99/max epoch staleness,
//! peak backlog, final imbalance and migration traffic.
//!
//! `--report` / `--trace` additionally emit the pinned **stream
//! scenario** (`fig4:pinned:stream`: the hub stream under the adaptive
//! policy), whose report CI gates against
//! `results/baselines/ci_smoke_stream.json`. Use `--policy` / `--ticks`
//! to restrict the sweep; `--shape` filtering is deliberately absent —
//! the table is the point.

use aaa_bench::experiments::base_graph;
use aaa_bench::stream::{drive_stream, StreamConfig, StreamShape};
use aaa_bench::{fmt_sim_secs, observe, CommonArgs, Table};
use aaa_core::{AnytimeEngine, RebalanceConfig, RebalancePolicy};

const POLICIES: [RebalancePolicy; 4] =
    [RebalancePolicy::Static, RebalancePolicy::Ps, RebalancePolicy::Rs, RebalancePolicy::Adaptive];

fn policy_name(p: RebalancePolicy) -> &'static str {
    match p {
        RebalancePolicy::Static => "static",
        RebalancePolicy::Ps => "ps",
        RebalancePolicy::Rs => "rs",
        RebalancePolicy::Adaptive => "adaptive",
    }
}

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("fig4", &args, observe::observed_stream_run);

    let g = base_graph(&args);
    let mut table = Table::new(
        "Streaming workloads × rebalance policies",
        &[
            "shape",
            "policy",
            "changes/s",
            "p50 stale",
            "p99 stale",
            "max stale",
            "peak queue",
            "final imb",
            "migrations",
            "migr bytes",
            "sim s",
        ],
    );
    for shape in StreamShape::ALL {
        for policy in POLICIES {
            if args.policy.is_some_and(|p| p != policy) {
                continue;
            }
            let mut config = args.engine_config();
            config.rebalance =
                RebalanceConfig { every: 2, trigger: 1.05, ..RebalanceConfig::with_policy(policy) };
            let mut engine = AnytimeEngine::new(g.clone(), config).expect("engine");
            let stream = StreamConfig {
                shape,
                ticks: args.ticks.unwrap_or(24),
                batch: args.scaled(256, 4),
                edges_per_vertex: 2,
                seed: args.seed + 1,
            };
            let outcome = drive_stream(&mut engine, &stream);
            let stats = engine.stats();
            table.row(vec![
                shape.name().into(),
                policy_name(policy).into(),
                format!("{:.0}", outcome.changes_per_sec),
                outcome.staleness_quantile(0.50).to_string(),
                outcome.staleness_quantile(0.99).to_string(),
                outcome.staleness.last().copied().unwrap_or(0).to_string(),
                outcome.peak_queue.to_string(),
                format!("{:.3}", outcome.final_imbalance),
                stats.migrations.to_string(),
                stats.migration_bytes.to_string(),
                fmt_sim_secs(stats.sim_comm_us),
            ]);
        }
    }
    table.emit(args.csv.as_ref());
    println!("\nExpected shape: static ends most imbalanced under the hub stream; the");
    println!("adaptive policy absorbs the skew with budgeted migrations while every");
    println!("policy converges to the same closeness fixed point (staleness is in");
    println!("published epochs — deterministic; changes/sec is host-dependent).");
}
