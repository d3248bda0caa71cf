//! The perf-gate cell table against the committed baselines: every
//! baseline is the baseline of exactly one cell and carries that cell's
//! scenario string, every cell runs at the pinned size under its own name,
//! and `perfgate cell` refuses a name the table lacks.

use aaa_bench::observe::CELLS;
use aaa_observe::RunReport;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfgate");
const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines");

#[test]
fn the_table_and_the_baselines_agree() {
    let mut files: Vec<String> = std::fs::read_dir(BASELINES)
        .expect("committed baselines")
        .map(|e| e.expect("baseline entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for file in &files {
        let owners: Vec<_> = CELLS.iter().filter(|c| c.baseline == file).collect();
        assert_eq!(owners.len(), 1, "{file} is the baseline of {} cells", owners.len());
    }
    for (i, cell) in CELLS.iter().enumerate() {
        assert!(CELLS[..i].iter().all(|c| c.name != cell.name), "two cells named {}", cell.name);
        let a = cell.args;
        assert_eq!((a.scale, a.procs, a.seed), (300, 4, 42), "cell {}", cell.name);
        assert!(files.iter().any(|f| f == cell.baseline), "{}: no {}", cell.name, cell.baseline);
        let text = std::fs::read_to_string(cell.baseline_path()).expect("baseline reads");
        let baseline = RunReport::from_json_str(&text).expect("baseline parses");
        assert_eq!(baseline.scenario, cell.scenario, "cell {}", cell.name);
    }
}

#[test]
fn an_unknown_cell_exits_2() {
    let out = Command::new(BIN).args(["cell", "nosuch"]).output().expect("perfgate spawns");
    assert_eq!(out.status.code(), Some(2));
    let said = String::from_utf8_lossy(&out.stderr);
    assert!(said.contains("unknown cell") && said.contains("betweenness"), "{said}");
}
