//! Serving throughput under live updates: one reader thread per query
//! kind — point lookups, batched lookups (`points`), maintained top-k and
//! certified error bounds — hammers the engine's published views while a
//! writer thread streams dynamic changes and re-converges. The point
//! reader is the pipeline's headline (target: ≥ 1M point-lookups/sec);
//! the per-kind rows show what batching and the maintained index buy.
//!
//! `--report` / `--trace` additionally emit the pinned **serve scenario**
//! (`fig4:pinned:serve`, a deterministic coalescing change stream whose
//! `changes` section CI gates against `results/baselines/ci_smoke_serve.json`).

use aaa_bench::experiments::base_graph;
use aaa_bench::{observe, CommonArgs, Table};
use aaa_core::{AnytimeEngine, BoundsMode, DynamicChange, EngineConfig};
use aaa_serve::ServeHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reader per query kind.
const KINDS: [&str; 4] = ["point", "batched(32)", "top_k(10)", "bound"];
const BATCH: usize = 32;
const MEASURE: Duration = Duration::from_millis(1500);

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("fig4", &args, observe::observed_serve_run);

    let g = base_graph(&args);
    let n = g.num_vertices() as u32;
    // Certified bounds on so the `bound` reader measures a real query;
    // the gated report above builds its own (BoundsMode::None) engine.
    let mut config = EngineConfig::deterministic(args.procs);
    config.publish_bounds = BoundsMode::Certified;
    let mut engine = AnytimeEngine::new(g, config).expect("engine");
    engine.run_to_convergence();
    let handle = ServeHandle::attach(&engine);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..KINDS.len())
        .map(|r| {
            let handle = handle.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut lookups = 0u64;
                let mut epochs_seen = 1u64;
                let mut last_epoch = 0u64;
                let mut v = r as u32;
                let mut ids = vec![0u32; BATCH];
                while !stop.load(Ordering::Relaxed) {
                    let view = handle.view();
                    if view.epoch != last_epoch {
                        last_epoch = view.epoch;
                        epochs_seen += 1;
                    }
                    // One atomic view load amortized over a query burst —
                    // the intended reader pattern (hold the epoch, query).
                    for _ in 0..64 {
                        match r {
                            0 => {
                                let c = view.point(v % n).expect("views are complete");
                                assert!(c.is_finite());
                            }
                            1 => {
                                for slot in ids.iter_mut() {
                                    *slot = v % n;
                                    v = v.wrapping_add(1);
                                }
                                for c in view.points(&ids) {
                                    assert!(c.expect("views are complete").is_finite());
                                }
                            }
                            2 => {
                                let top = view.top_k(10);
                                assert!(top.len() <= 10);
                            }
                            _ => {
                                let b = view.error_bound(v % n).expect("certified bounds on");
                                assert!(b >= 0.0);
                            }
                        }
                        lookups += 1;
                        v = v.wrapping_add(1);
                    }
                }
                (lookups, epochs_seen)
            })
        })
        .collect();

    // Writer: stream edge churn through the ingest log, draining at RC
    // barriers, until the measurement window closes.
    let started = Instant::now();
    let mut updates = 0u64;
    let mut flips = 0u32;
    while started.elapsed() < MEASURE {
        let u = (updates as u32 * 7919) % n;
        let v = (updates as u32 * 104_729 + 1) % n;
        if u != v {
            let change = if engine.graph().has_edge(u, v) {
                DynamicChange::RemoveEdge { u, v }
            } else {
                DynamicChange::AddEdge { u, v, w: 1 + (flips % 3) }
            };
            if engine.submit(change).is_ok() {
                updates += 1;
            }
            flips = flips.wrapping_add(1);
        }
        engine.rc_step();
    }
    let elapsed = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let mut per_kind = Vec::new();
    let mut total_epoch_switches = 0u64;
    for (kind, r) in KINDS.iter().zip(readers) {
        let (queries, epochs_seen) = r.join().expect("reader panicked");
        total_epoch_switches += epochs_seen;
        // Rows touched per query: a batched query answers BATCH lookups.
        let rows = match *kind {
            "batched(32)" => queries * BATCH as u64,
            "top_k(10)" => queries * 10,
            _ => queries,
        };
        per_kind.push((*kind, queries, rows));
    }

    let mut table = Table::new(
        "Serving throughput under live updates (one reader per query kind)",
        &["query kind", "window_s", "updates", "epochs", "queries/sec", "rows/sec"],
    );
    for &(kind, queries, rows) in &per_kind {
        table.row(vec![
            kind.to_string(),
            format!("{elapsed:.2}"),
            updates.to_string(),
            engine.epochs_published().to_string(),
            format!("{:.0}", queries as f64 / elapsed),
            format!("{:.0}", rows as f64 / elapsed),
        ]);
    }
    table.emit(args.csv.as_ref());
    println!("\n(reader epoch switches observed: {total_epoch_switches})");
    let point_qps = per_kind[0].1 as f64 / elapsed;
    let batched_rps = per_kind[1].2 as f64 / elapsed;
    if point_qps >= 1_000_000.0 {
        println!("target met: ≥ 1,000,000 point-lookups/sec against live views");
    } else {
        println!("below the 1M lookups/sec target on this machine");
    }
    println!(
        "(batched lookups deliver {:.1}x the point reader's rows/sec)",
        batched_rps / point_qps
    );
}
