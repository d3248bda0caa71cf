//! Golden version-1 reports: two committed perf-gate baselines, copied
//! byte for byte when sections became generic. `ci_smoke.json` predates
//! every optional section; `ci_smoke_stream.json` carries three (`changes`,
//! `migration`, `stream`) and the one wall-derived row. Both must parse and
//! re-serialize to their own bytes — file order is part of the format, and
//! a schema change that loses it would force a rewrite of every baseline.

use aaa_observe::RunReport;

const PLAIN: &str = include_str!("data/ci_smoke.json");
const STREAM: &str = include_str!("data/ci_smoke_stream.json");

#[test]
fn golden_reports_re_serialize_byte_for_byte() {
    for (name, text) in [("ci_smoke", PLAIN), ("ci_smoke_stream", STREAM)] {
        let report = RunReport::from_json_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.to_json_string(), text, "{name} is no longer canonical");
    }
}

#[test]
fn golden_sections_keep_their_file_order() {
    assert!(RunReport::from_json_str(PLAIN).expect("parses").sections.is_empty());
    let stream = RunReport::from_json_str(STREAM).expect("parses");
    let names: Vec<&str> = stream.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["changes", "migration", "stream"]);
    let section = stream.section("stream").expect("stream section");
    assert_eq!(section.rows.len(), 7);
    assert_eq!(section.get("final_imbalance_milli"), Some(1016.0));
    assert_eq!(section.rows.last().map(|(row, _)| row.as_str()), Some("changes_per_sec"));
}
