//! The CI perf gate: diffs a candidate RunReport against a baseline and
//! exits nonzero when a gated (deterministic) metric regressed past its
//! threshold.
//!
//! ```text
//! usage: perfgate cell <name> [--threshold 0.10] [--override metric=thr]...
//!        perfgate <candidate.json> <baseline.json>
//!                 [--threshold 0.10] [--override metric=thr]...
//!        perfgate <candidate.json> --write-baseline <path>
//!        perfgate --validate <file-or-dir>...
//! ```
//!
//! `cell <name>` runs one perf-gate cell of `aaa_bench::observe::CELLS`
//! with the arguments the table fixes for it, writes `report-<name>.json`
//! and `trace-<name>.json` (a Chrome trace) to the working directory, and
//! diffs the report against the cell's baseline under `results/baselines/`.
//!
//! `--write-baseline` re-serializes the candidate through the current
//! `RunReport` codec and writes it to `path` — the one sanctioned way to
//! refresh a committed baseline (a report that does not round-trip never
//! becomes a baseline). `--validate` parses every given report (or every
//! `.json` inside a given directory) as a current-version `RunReport` and
//! fails if any is stale, malformed, or not canonical (re-serializing it
//! must reproduce the file's bytes) — CI runs it over `results/baselines/`
//! so format changes can never silently orphan a committed baseline.
//!
//! Exit codes: 0 = no regression, 1 = a gated metric regressed or the
//! candidate lost a row its baseline carries (`MISSING`), 2 = usage / IO /
//! parse / scenario-mismatch errors.
//!
//! Gated metrics are exact functions of (scenario, seed, code): simulated
//! communication time, message/byte counts, step counts, the final
//! convergence error and every section row (`section.row`) both reports
//! carry. Measured metrics (compute/wall time, wall-derived section rows)
//! appear in the table for humans but never fail the gate — CI hosts are
//! noisy.

use aaa_bench::observe::{Cell, CELLS};
use aaa_bench::Table;
use aaa_observe::{compare, regressed, GateConfig, MetricDiff, RunReport};

fn usage() -> ! {
    eprintln!(
        "usage: perfgate cell <name> [--threshold 0.10] [--override metric=thr]...\n\
         \x20      perfgate <candidate.json> <baseline.json> \
         [--threshold 0.10] [--override metric=thr]...\n\
         \x20      perfgate <candidate.json> --write-baseline <path>\n\
         \x20      perfgate --validate <file-or-dir>..."
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("perfgate: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> RunReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    RunReport::from_json_str(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "—".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

fn fmt_change(d: &MetricDiff) -> String {
    if d.missing() {
        "—".into()
    } else if d.rel_change.is_infinite() {
        "+inf".into()
    } else {
        format!("{:+.2}%", d.rel_change * 100.0)
    }
}

/// `--validate`: every argument is a report file or a directory whose
/// `.json` entries are reports; each must parse as a current-version
/// [`RunReport`] and be canonical.
fn validate(paths: &[&str]) -> ! {
    if paths.is_empty() {
        fail("--validate wants at least one file or directory");
    }
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for p in paths {
        let path = std::path::Path::new(p);
        if path.is_dir() {
            let entries =
                std::fs::read_dir(path).unwrap_or_else(|e| fail(&format!("cannot list {p}: {e}")));
            for entry in entries {
                let entry = entry.unwrap_or_else(|e| fail(&format!("cannot list {p}: {e}")));
                if entry.path().extension().is_some_and(|x| x == "json") {
                    files.push(entry.path());
                }
            }
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        fail("--validate found no .json reports to check");
    }
    files.sort();
    let mut bad = 0usize;
    for f in &files {
        let shown = f.display();
        match std::fs::read_to_string(f).map_err(|e| e.to_string()).and_then(|text| {
            let report = RunReport::from_json_str(&text).map_err(|e| e.to_string())?;
            if report.to_json_string() != text {
                return Err("not canonical: re-serializing it changes the bytes".into());
            }
            Ok(report.scenario)
        }) {
            Ok(scenario) => println!("perfgate: {shown}: ok ({scenario})"),
            Err(e) => {
                eprintln!("perfgate: {shown}: INVALID — {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!("perfgate: {bad}/{} baseline reports failed validation", files.len());
        std::process::exit(2);
    }
    println!(
        "perfgate: all {} baseline reports parse as current-version RunReport and are canonical",
        files.len()
    );
    std::process::exit(0);
}

/// `cell <name>`: runs the named cell, writes its report and trace to the
/// working directory, and gates the report against the cell's baseline.
fn run_cell(name: &str, cfg: &GateConfig) -> ! {
    let cell = Cell::named(name).unwrap_or_else(|| {
        let names: Vec<&str> = CELLS.iter().map(|c| c.name).collect();
        fail(&format!("unknown cell {name:?}; the cells are {}", names.join(", ")))
    });
    let (report, trace) = cell.observe();
    for (path, text) in [
        (format!("report-{name}.json"), report.to_json_string()),
        (format!("trace-{name}.json"), trace),
    ] {
        std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("perfgate: {path} written");
    }
    gate(&report, &load(&cell.baseline_path()), cfg)
}

/// `--write-baseline`: round-trip the candidate through the current codec
/// and write the canonical serialization to `dest`.
fn write_baseline(candidate_path: &str, dest: &str) -> ! {
    let report = load(candidate_path);
    std::fs::write(dest, report.to_json_string())
        .unwrap_or_else(|e| fail(&format!("cannot write {dest}: {e}")));
    println!("perfgate: baseline for {:?} written to {dest}", report.scenario);
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut cfg = GateConfig::default();
    let mut baseline_dest: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--validate" => {
                let rest: Vec<&str> = argv[i + 1..].iter().map(String::as_str).collect();
                validate(&rest);
            }
            "--write-baseline" => {
                i += 1;
                baseline_dest = Some(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--threshold" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                cfg.default_threshold =
                    v.parse().unwrap_or_else(|_| fail("--threshold wants a number"));
            }
            "--override" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                let (name, thr) =
                    v.split_once('=').unwrap_or_else(|| fail("--override wants metric=threshold"));
                let thr: f64 =
                    thr.parse().unwrap_or_else(|_| fail("--override wants metric=threshold"));
                cfg.overrides.push((name.to_string(), thr));
            }
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
            path => paths.push(path),
        }
        i += 1;
    }
    if let Some(dest) = baseline_dest {
        let [candidate_path] = paths[..] else { usage() };
        write_baseline(candidate_path, &dest);
    }
    match paths[..] {
        ["cell", name] => run_cell(name, &cfg),
        [candidate_path, baseline_path] => gate(&load(candidate_path), &load(baseline_path), &cfg),
        _ => usage(),
    }
}

/// Diffs `candidate` against `baseline`, prints the table and exits 1 when
/// a gated metric regressed or went missing, 0 otherwise.
fn gate(candidate: &RunReport, baseline: &RunReport, cfg: &GateConfig) -> ! {
    if candidate.scenario != baseline.scenario {
        fail(&format!(
            "scenario mismatch: candidate ran {:?} but baseline is {:?} — not comparable",
            candidate.scenario, baseline.scenario
        ));
    }

    let rows = compare(candidate, baseline, cfg);
    let mut table = Table::new(
        format!(
            "perfgate: {} (threshold {:.0}%)",
            candidate.scenario,
            cfg.default_threshold * 100.0
        ),
        &["metric", "baseline", "candidate", "change", "threshold", "verdict"],
    );
    for d in &rows {
        let verdict = if d.missing() {
            "MISSING"
        } else if d.regressed {
            "REGRESSED"
        } else if !d.gated {
            "info"
        } else {
            "ok"
        };
        let threshold = if d.gated { format!("{:.0}%", d.threshold * 100.0) } else { "—".into() };
        table.row(vec![
            d.name.clone(),
            fmt_value(d.baseline),
            fmt_value(d.candidate),
            fmt_change(d),
            threshold,
            verdict.to_string(),
        ]);
    }
    print!("{}", table.render());

    if regressed(&rows) {
        let worst: Vec<&str> =
            rows.iter().filter(|d| d.regressed).map(|d| d.name.as_str()).collect();
        eprintln!("\nperfgate: FAIL — regressed or missing metrics: {}", worst.join(", "));
        std::process::exit(1);
    }
    println!("\nperfgate: OK — no gated metric regressed");
    std::process::exit(0);
}
