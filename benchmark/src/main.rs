//! The repo benchmark. One process per run:
//!
//! ```text
//! aaa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
//! metric and writes `<out>/trace_<workload>.json`. The last line of
//! standard output is the result object; the exit code is non-zero if any
//! output failed its correctness check. See `README.md`.

mod affinity;
mod inputs;
mod layers;
mod measure;
mod sections;
mod stats;
mod trace;
mod workload;

use aaa_observe::Json;
use stats::{max, median, min};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: aaa-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--size full|smoke] [--out DIR]",
        workload::ALL.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut name = None;
    let mut seed = 42u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--size" => {
                smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => usage(),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    let workload = if smoke { Workload::smoke(&name) } else { Workload::full(&name) };
    let Some(workload) = workload else { usage() };
    Args { workload, seed, seconds, trace, out }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &measure::Measured) -> Vec<Metric> {
    let s = &m.sections;
    vec![
        ("cold_converge_s", s.cold.best(), "s"),
        ("time_to_1pct_s", s.to_usable.best(), "s"),
        ("checkpoint_restore_s", s.ckpt.best(), "s"),
        ("wave_absorb_s", s.wave.best(), "s"),
        ("repartition_absorb_s", s.repart.best(), "s"),
        ("incremental_absorb_s", s.incr.best(), "s"),
        ("stream_changes_per_s", s.changes as f64 / s.stream_wall.best(), "1/s"),
        ("visible_p50_ms", min(&s.visible_quantiles(0.50)), "ms"),
        ("visible_p90_ms", min(&s.visible_quantiles(0.90)), "ms"),
        ("read_ns", s.read.best() * 1e9 / s.rows.iter().sum::<u64>() as f64, "ns"),
        ("net_converge_s", s.net_full.best(), "s"),
        ("net_converge_delta_s", s.net_delta.best(), "s"),
        ("setup_s", m.setup_s(), "s"),
        ("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

fn print_provenance(args: &Args) {
    let w = &args.workload;
    println!(
        "workload {} seed {} trace {} | {} instances, n {}/{}/{}/{} (static/wave/stream/socket), procs {} \
         wire {:?} metrics {:?} bounds {:?}",
        w.name,
        args.seed,
        args.trace as u8,
        w.instances,
        w.static_n,
        w.wave_n,
        w.stream_n,
        w.net_n,
        w.procs,
        w.wire,
        w.metrics,
        w.bounds
    );
    println!(
        "host nproc {} | kernel threads: 1, except {} for engine.cold_converge_par_s (traced \
         run, before it pins) | socket workers {} | git {}",
        nproc(),
        nproc(),
        workload::NET_WORKERS,
        std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    );
}

fn print_pinned(cpu: Option<usize>) {
    match cpu {
        Some(cpu) => println!("every thread pinned to CPU {cpu}"),
        None => println!("NOT pinned: the platform refused sched_setaffinity"),
    }
}

fn print_result(gate: &measure::Gate, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("ops_attempted {} ops_failed {}", gate.attempted, gate.failed);
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), Json::Num(*value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(gate.failed == 0)),
        ("attempted".into(), Json::Num(gate.attempted as f64)),
        ("failed".into(), Json::Num(gate.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    print_provenance(&args);
    let w = &args.workload;
    let (gate, metrics) = if args.trace {
        let traced = layers::run(w, args.seed);
        print_pinned(traced.pinned_cpu);
        std::fs::create_dir_all(&args.out).expect("create trace directory");
        let path = args.out.join(format!("trace_{}.json", w.name));
        std::fs::write(&path, traced.document.render_pretty()).expect("write trace file");
        println!("trace written to {}", path.display());
        (traced.gate, traced.metrics)
    } else {
        // `--seconds` covers the whole process, set-up included.
        let m = measure::run(w, args.seed, started + Duration::from_secs_f64(args.seconds));
        print_pinned(m.pinned_cpu);
        println!(
            "set-up passes {:?} s | warm-up pass + k = {} timed rounds, done at {:.1} s",
            m.setup_passes,
            m.rounds,
            started.elapsed().as_secs_f64()
        );
        println!(
            "{:<22} {:>12} {:>12} {:>12}  (s per repetition: the section on all {} instances)",
            "section", "min", "median", "max", w.instances
        );
        for (name, section) in m.sections.named() {
            let reps = section.per_repetition();
            println!(
                "{name:<22} {:>12.6} {:>12.6} {:>12.6}",
                min(&reps),
                median(&reps),
                max(&reps)
            );
        }
        let quantiles =
            [("visible_p50 (ms)", 0.50), ("visible_p90 (ms)", 0.90), ("visible_p95 (ms)", 0.95)];
        for (name, q) in quantiles {
            let reps = m.sections.visible_quantiles(q);
            println!(
                "{name:<22} {:>12.6} {:>12.6} {:>12.6}",
                min(&reps),
                median(&reps),
                max(&reps)
            );
        }
        let metrics = end_to_end(&m);
        (m.gate, metrics)
    };
    print_result(&gate, &metrics);
    if gate.failed > 0 {
        std::process::exit(1);
    }
}
