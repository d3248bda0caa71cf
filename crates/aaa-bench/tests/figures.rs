//! The paper's claims (§V), asserted on the deterministic columns of the
//! `FIGURES` functions at the CI scale, `--scale 300 --procs 4 --seed 42`;
//! and the `figures` binary's command line and JSON. The Fig. 5–6
//! crossovers are recorded in the JSON, not asserted.

use aaa_bench::experiments::{Row, FIGURES, MEASURED};
use aaa_bench::CommonArgs;
use aaa_observe::Json;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_figures");
const CI: CommonArgs = CommonArgs { scale: 300, procs: 4, seed: 42 };

fn run(name: &str) -> Vec<Row> {
    (FIGURES.iter().find(|f| f.name == name).expect(name).run)(&CI)
}

fn value(row: &Row, column: &str) -> f64 {
    row.value(column).unwrap_or_else(|| panic!("no {column} in {row:?}"))
}

/// The one row whose `column` reads `label` among those that pass `keep`.
fn find<'a>(rows: &'a [Row], column: &str, label: &str, keep: impl Fn(&Row) -> bool) -> &'a Row {
    let mut found = rows.iter().filter(|r| r.label(column) == Some(label) && keep(r));
    let row = found.next().unwrap_or_else(|| panic!("no {column} = {label} row"));
    assert!(found.next().is_none(), "two {column} = {label} rows");
    row
}

#[test]
fn fig4_anywhere_beats_restart_at_every_injection_point() {
    let rows = run("fig4");
    let restart = value(find(&rows, "method", "restart", |_| true), "sim_comm_us");
    for inject in ["RC0", "RC4", "RC8"] {
        let anywhere = value(find(&rows, "inject", inject, |_| true), "sim_comm_us");
        assert!(anywhere < restart, "{inject}: anywhere {anywhere} µs, restart {restart} µs");
    }
}

#[test]
fn two_fig4_runs_agree_on_every_deterministic_column() {
    let deterministic = |rows: Vec<Row>| -> Vec<Row> {
        rows.into_iter()
            .map(|r| Row(r.0.into_iter().filter(|(c, _)| !MEASURED.contains(c)).collect()))
            .collect()
    };
    let first = deterministic(run("fig4"));
    assert!(first.iter().all(|r| r.value("sim_comm_us").is_some() && r.value("bytes").is_some()));
    assert_eq!(first, deterministic(run("fig4")));
}

#[test]
fn fig7_cut_edge_ps_cuts_fewer_new_edges_than_round_robin_at_every_batch() {
    let rows = run("fig7");
    assert_eq!(rows.len(), 15, "five batches × three strategies");
    for batch in [500.0, 1500.0, 3000.0, 4500.0, 6000.0] {
        let at = |r: &Row| r.value("paper_added") == Some(batch);
        let cut_edge = value(find(&rows, "strategy", "CutEdge-PS", at), "new_cut_edges");
        let round_robin = value(find(&rows, "strategy", "RoundRobin-PS", at), "new_cut_edges");
        assert!(cut_edge < round_robin, "batch {batch}: {cut_edge} vs {round_robin}");
    }
}

#[test]
fn fig8_every_strategy_beats_restart_at_every_rate() {
    let rows = run("fig8");
    assert_eq!(rows.len(), 16, "four rates × (restart + three strategies)");
    for rate in [51.0, 187.0, 383.0, 561.0] {
        let at = |r: &Row| r.value("paper_rate") == Some(rate);
        let restart = value(find(&rows, "method", "restart", at), "sim_comm_us");
        for strategy in ["Repartition-S", "RoundRobin-PS", "CutEdge-PS"] {
            let cost = value(find(&rows, "method", strategy, at), "sim_comm_us");
            assert!(cost < restart, "rate {rate}, {strategy}: {cost} µs vs restart {restart}");
        }
    }
}

#[test]
fn anytime_error_never_rises_and_reaches_zero() {
    let errors: Vec<f64> = run("anytime_quality").iter().map(|r| value(r, "error")).collect();
    assert!(errors.len() >= 2, "{errors:?}");
    assert!(errors.windows(2).all(|w| w[1] <= w[0]), "the error rose: {errors:?}");
    assert_eq!(errors.last(), Some(&0.0), "{errors:?}");
}

#[test]
fn the_binary_writes_one_parseable_entry_per_figure() {
    let dir = std::env::temp_dir().join(format!("figures-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(BIN)
        .args(["--scale", "100", "--procs", "3", "--seed", "7"])
        .current_dir(&dir)
        .output()
        .expect("figures spawns");
    let text = std::fs::read_to_string(dir.join("figures.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&text.expect("figures.json written")).expect("figures.json parses");
    assert_eq!(doc.u64_field("procs"), Ok(3));
    assert_eq!(doc.u64_field("seed"), Ok(7));
    let entries = doc.arr_field("figures").expect("figures array");
    assert_eq!(entries.len(), FIGURES.len());
    for (entry, figure) in entries.iter().zip(&FIGURES) {
        assert_eq!(entry.str_field("name"), Ok(figure.name));
        assert_eq!(entry.u64_field("scale"), Ok(100));
        assert!(!entry.arr_field("rows").expect("rows").is_empty(), "{}", figure.name);
        assert_eq!(entry.get("crossover").is_some(), figure.crossover, "{}", figure.name);
    }
    let printed = String::from_utf8_lossy(&out.stdout);
    assert_eq!(printed.matches("\n### ").count(), FIGURES.len(), "{printed}");
}

#[test]
fn a_bad_command_line_exits_2() {
    for args in [
        &["--scale", "x"][..],
        &["--procs", "0"],
        &["--seed", "-1"],
        &["--scale"],
        &["--csv", "out.csv"],
        &["--wire", "delta"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("figures spawns");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: figures"), "{args:?}");
    }
}
