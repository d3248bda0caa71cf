//! Runs the paper's evaluation — every figure of
//! `aaa_bench::experiments::FIGURES`, in table order — prints each as a
//! markdown table and writes them all to `figures.json` in the working
//! directory.
//!
//! ```text
//! usage: figures [--scale n] [--procs P] [--seed s]
//! ```
//!
//! Without `--scale` each figure runs at its own size; with it, all run at
//! `n`. `--procs` (default 16, as in the paper) and `--seed` (default 42)
//! apply to every figure. A bad flag or value exits 2.

use aaa_bench::experiments::{crossover, markdown, FIGURES, MEASURED};
use aaa_bench::CommonArgs;
use aaa_observe::Json;
use std::time::Instant;

const USAGE: &str = "usage: figures [--scale n] [--procs P] [--seed s]";

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// `--scale` (`None`: each figure's own), `--procs` and `--seed`.
fn parse(mut argv: impl Iterator<Item = String>) -> (Option<usize>, usize, u64) {
    let (mut scale, mut procs, mut seed) = (None, 16, 42);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        let positive = || match value.parse() {
            Ok(n) if n > 0 => n,
            _ => fail(&format!("{flag} wants a positive integer, got {value:?}")),
        };
        match flag.as_str() {
            "--scale" => scale = Some(positive()),
            "--procs" => procs = positive(),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--seed wants an integer, got {value:?}")))
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    (scale, procs, seed)
}

fn main() {
    let (scale, procs, seed) = parse(std::env::args().skip(1));
    let mut entries = Vec::new();
    for figure in &FIGURES {
        let args = CommonArgs { scale: scale.unwrap_or(figure.scale), procs, seed };
        let started = Instant::now();
        let rows = (figure.run)(&args);
        let wall_s = started.elapsed().as_secs_f64();

        let measured: Vec<&str> =
            MEASURED.into_iter().filter(|m| rows.iter().any(|r| r.get(m).is_some())).collect();
        println!("\n### {}\n\n{}\n", figure.name, figure.claim);
        println!(
            "n = {}, P = {procs}, seed {seed}; {}.\n",
            args.scale,
            if measured.is_empty() {
                "every column is deterministic".to_string()
            } else {
                format!("every column is deterministic but `{}` (measured)", measured.join("`, `"))
            }
        );
        print!("{}", markdown(&rows));

        let mut entry = vec![
            ("name".to_string(), Json::Str(figure.name.into())),
            ("claim".to_string(), Json::Str(figure.claim.into())),
            ("scale".to_string(), Json::Num(args.scale as f64)),
            (
                "measured".to_string(),
                Json::Arr(measured.iter().map(|m| Json::Str(m.to_string())).collect()),
            ),
            ("wall_s".to_string(), Json::Num(wall_s)),
            ("rows".to_string(), Json::Arr(rows.iter().map(|r| r.to_json()).collect())),
        ];
        if figure.crossover {
            let at = crossover(&rows);
            println!(
                "\nCrossover (smallest batch where Repartition-S's `sim_comm_us` is at most \
                 RoundRobin-PS's): {}",
                at.map_or("none".to_string(), |a| a.to_string())
            );
            entry.push(("crossover".to_string(), at.map_or(Json::Null, Json::Num)));
        }
        entries.push(Json::Obj(entry));
    }
    let doc = Json::Obj(vec![
        ("procs".to_string(), Json::Num(procs as f64)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("figures".to_string(), Json::Arr(entries)),
    ]);
    std::fs::write("figures.json", doc.render_pretty())
        .unwrap_or_else(|e| fail(&format!("cannot write figures.json: {e}")));
    println!("\n(figures.json written)");
}
