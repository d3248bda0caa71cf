//! The `perfgate` binary against candidates that lost part of what their
//! baseline carries. The candidates are stripped copies of committed
//! baselines, so every remaining row diffs at +0.00 % and only the loss
//! can fail the gate: exit 1, a `MISSING` verdict per lost row, the names
//! listed on stderr. Before the gate had this half of its rule, each of
//! these candidates passed with exit 0.

use aaa_observe::RunReport;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfgate");
const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines");

type Strip = fn(&mut RunReport);

#[test]
fn a_candidate_that_lost_rows_exits_1_and_names_them() {
    // (baseline, what the candidate loses, rows lost, one of their names)
    let cases: [(&str, Strip, usize, &str); 4] = [
        ("ci_smoke_stream.json", |_| {}, 0, ""),
        (
            "ci_smoke_stream.json",
            |r| r.sections.clear(),
            5 + 3 + 5 + 9 + 7,
            "stream.changes_per_sec",
        ),
        (
            "ci_smoke_stream.json",
            |r| r.sections[0].rows.retain(|(row, _)| row != "drains"),
            1,
            "changes.drains",
        ),
        ("ci_smoke.json", |r| r.quality.clear(), 1, "final_error"),
    ];
    for (case, (baseline, strip, lost, name)) in cases.into_iter().enumerate() {
        let baseline = format!("{BASELINES}/{baseline}");
        let text = std::fs::read_to_string(&baseline).expect("committed baseline");
        let mut report = RunReport::from_json_str(&text).expect("baseline parses");
        strip(&mut report);
        let candidate = std::env::temp_dir()
            .join(format!("perfgate-missing-{}-{case}.json", std::process::id()));
        std::fs::write(&candidate, report.to_json_string()).expect("candidate write");
        let out =
            Command::new(BIN).arg(&candidate).arg(&baseline).output().expect("perfgate spawns");
        let _ = std::fs::remove_file(&candidate);

        let table = String::from_utf8_lossy(&out.stdout);
        let missing = table.lines().filter(|l| l.trim_end().ends_with("MISSING")).count();
        assert_eq!(missing, lost, "case {case}: {table}");
        assert_eq!(out.status.code(), Some((lost > 0) as i32), "case {case}: {table}");
        let listed = String::from_utf8_lossy(&out.stderr);
        assert!(listed.contains(name), "case {case}: `{name}` not listed in: {listed}");
    }
}
