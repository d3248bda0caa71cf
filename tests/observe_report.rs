//! Integration tests for the observability layer (S24): armed engine runs
//! produce consistent spans, reports round-trip through their JSON form —
//! for arbitrary section lists, not only the ones the system emits — the
//! Chrome-trace export is valid JSON, and recording never perturbs the
//! deterministic accounting.

use anytime_anywhere::core::changes::preferential_batch;
use anytime_anywhere::core::{AnytimeEngine, AssignStrategy, EngineConfig, MemorySink, SpanKind};
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::observe::{
    aggregate_phases, chrome_trace, compare, per_rank_busy, regressed, GateConfig, Json,
    MetricDiff, RunReport, Section,
};
use anytime_anywhere::runtime::RunStats;
use proptest::prelude::*;
use std::sync::Arc;

const PROCS: usize = 4;

/// One small dynamic scenario; returns the final stats and (if a sink was
/// armed) the recorded events.
fn run_scenario(armed: bool) -> (RunStats, Vec<anytime_anywhere::core::SpanEvent>) {
    let g = barabasi_albert(150, 2, WeightModel::Unit, 11).expect("generator");
    let sink = Arc::new(MemorySink::new());
    let mut engine = if armed {
        AnytimeEngine::with_sink(g, EngineConfig::deterministic(PROCS), sink.clone())
            .expect("engine")
    } else {
        AnytimeEngine::new(g, EngineConfig::deterministic(PROCS)).expect("engine")
    };
    for _ in 0..3 {
        engine.rc_step();
    }
    let batch = preferential_batch(engine.graph(), 10, 2, 3);
    engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("batch");
    let _ = engine.checkpoint_bytes().expect("checkpoint");
    assert!(engine.run_to_convergence().converged);
    (engine.stats(), sink.drain())
}

#[test]
fn recording_does_not_perturb_deterministic_accounting() {
    let (armed, events) = run_scenario(true);
    let (disarmed, none) = run_scenario(false);
    assert!(none.is_empty());
    assert!(!events.is_empty());
    assert_eq!(armed.messages, disarmed.messages);
    assert_eq!(armed.bytes, disarmed.bytes);
    assert_eq!(armed.sim_comm_us, disarmed.sim_comm_us);
    assert_eq!(armed.supersteps, disarmed.supersteps);
    assert_eq!(armed.collectives, disarmed.collectives);
    assert_eq!(armed.checkpoints, disarmed.checkpoints);
}

#[test]
fn engine_spans_cover_the_run() {
    let (stats, events) = run_scenario(true);
    let count = |k: SpanKind| events.iter().filter(|e| e.kind == k).count() as u64;

    assert_eq!(count(SpanKind::DomainDecomposition), 1);
    assert_eq!(count(SpanKind::Checkpoint), stats.checkpoints);
    assert_eq!(count(SpanKind::Collective), stats.collectives);
    // Every superstep contributes one span per rank (exchange supersteps
    // contribute two compute phases, but each bumps the counter once).
    assert_eq!(count(SpanKind::Superstep), stats.supersteps * PROCS as u64);
    assert!(count(SpanKind::RcStep) >= 4, "3 pre-batch + convergence steps");

    // Exchange spans carry the point-to-point traffic, Collective spans
    // the broadcast/reduction traffic; together they cover every message.
    let (msgs, bytes) = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Exchange | SpanKind::Collective))
        .fold((0u64, 0u64), |(m, b), e| (m + e.messages, b + e.bytes));
    assert_eq!(msgs, stats.messages);
    assert_eq!(bytes, stats.bytes);

    // Exchange + Collective simulated durations add up to sim_comm_us.
    let comm: f64 = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Exchange | SpanKind::Collective))
        .map(|e| e.sim_dur_us)
        .sum();
    assert!((comm - stats.sim_comm_us).abs() < 1e-6);

    // Per-rank aggregation sees every lane: P ranks + the driver.
    assert_eq!(per_rank_busy(&events).len(), PROCS + 1);
}

#[test]
fn report_round_trips_and_gate_accepts_self() {
    let (stats, events) = run_scenario(true);
    let mut report = stats.init_report("itest:pinned");
    report.scale = 150;
    report.procs = PROCS as u64;
    report.seed = 11;
    report.rc_steps = 9;
    report.phases = aggregate_phases(&events);
    report.ranks = per_rank_busy(&events);

    // JSON round-trip is exact, including every f64.
    let text = report.to_json_string();
    let back = RunReport::from_json_str(&text).expect("parses");
    assert_eq!(back, report);

    // Self-comparison never regresses (even at threshold 0).
    let cfg = GateConfig { default_threshold: 0.0 };
    let rows = compare(&back, &report, &cfg);
    assert!(!regressed(&rows));
    assert!(rows.iter().all(|r| r.rel_change == 0.0 || !r.gated));
}

/// The "one line per section" claim: a section no code outside this test
/// has heard of is written, read back and gated like any other.
#[test]
fn an_ad_hoc_section_round_trips_and_gates_with_no_other_edit() {
    let (stats, _) = run_scenario(false);
    let bare = stats.init_report("itest:probe");
    let mut base = bare.clone();
    base.sections.push(Section::new("probe", &[("cells_touched", 1234.0), ("hit_ratio", 0.375)]));

    let text = base.to_json_string();
    assert!(text.contains("\"probe\""));
    let back = RunReport::from_json_str(&text).expect("parses");
    assert_eq!(back, base);
    assert_eq!(back.to_json_string(), text);
    assert_eq!(back.section("probe").and_then(|s| s.get("hit_ratio")), Some(0.375));

    let strict = GateConfig { default_threshold: 0.0 };
    let probe_rows = |rows: &[MetricDiff]| -> Vec<(String, bool, bool)> {
        let of_probe = rows.iter().filter(|r| r.name.starts_with("probe."));
        of_probe.map(|r| (r.name.clone(), r.regressed, r.missing())).collect()
    };
    // Both present: every row diffed under `section.row`, identical passes.
    let rows = compare(&back, &base, &strict);
    assert!(!regressed(&rows));
    assert_eq!(
        probe_rows(&rows),
        [("probe.cells_touched".into(), false, false), ("probe.hit_ratio".into(), false, false)]
    );
    // A drift fails the drifted row only.
    let mut drifted = base.clone();
    drifted.sections.last_mut().expect("probe").rows[0].1 += 1.0;
    assert_eq!(
        probe_rows(&compare(&drifted, &base, &strict)),
        [("probe.cells_touched".into(), true, false), ("probe.hit_ratio".into(), false, false)]
    );
    // Candidate-only: an older baseline is not broken by the new section.
    let rows = compare(&base, &bare, &strict);
    assert!(!regressed(&rows) && probe_rows(&rows).is_empty());
    // Baseline-only: a candidate that lost the section fails, row by row.
    let rows = compare(&bare, &base, &strict);
    assert!(regressed(&rows));
    assert_eq!(
        probe_rows(&rows),
        [("probe.cells_touched".into(), true, true), ("probe.hit_ratio".into(), true, true)]
    );
}

/// The kernel's pass-shape rows are shown but never gated: a change that
/// prunes more chunks raises `dv.sparse_passes` and `dv.list_passes_skipped`
/// while the work, `dv.cells`, falls — as the landmark-seeded IA did (+40-44 %
/// against -62-65 %). `dv.cells` still gates.
#[test]
fn kernel_pass_shape_rows_are_shown_but_never_gated() {
    let g = barabasi_albert(150, 2, WeightModel::Unit, 11).expect("generator");
    let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(PROCS)).expect("engine");
    engine.run_to_convergence();
    let base = engine.report("itest:kernel");
    let scaled = |moves: &[(&str, f64)]| {
        let mut cand = base.clone();
        let dv = cand.sections.iter_mut().find(|s| s.name == "dv").expect("a dv section");
        for &(row, by) in moves {
            let cell = dv.rows.iter_mut().find(|(r, _)| r == row).expect("row present");
            assert!(cell.1 > 0.0, "dv.{row} is 0; scaling it shows nothing");
            cell.1 *= by;
        }
        cand
    };
    let cfg = GateConfig::default();
    let pruned = scaled(&[("sparse_passes", 1.5), ("list_passes_skipped", 1.5), ("cells", 0.4)]);
    let rows = compare(&pruned, &base, &cfg);
    assert!(!regressed(&rows));
    for name in ["dv.sparse_passes", "dv.list_passes_skipped"] {
        let d = rows.iter().find(|r| r.name == name).expect("shown");
        assert!(!d.gated && (d.rel_change - 0.5).abs() < 1e-9, "{name}: {d:?}");
    }
    let more_work = scaled(&[("cells", 1.11)]);
    let failed: Vec<String> = compare(&more_work, &base, &cfg)
        .into_iter()
        .filter(|r| r.regressed)
        .map(|r| r.name)
        .collect();
    assert_eq!(failed, ["dv.cells"]);
}

/// A section or row name from raw bits: a few characters out of an
/// alphabet that exercises the writer's escapes, made unique — and kept
/// off the header's key names — by its position.
fn arb_name(bits: u64, position: usize) -> String {
    const ALPHABET: [&str; 8] = ["a", "Z", "_", ".", " ", "\"", "\\", "é"];
    let len = bits as usize % 5;
    let chars = (0..len).map(|i| ALPHABET[(bits >> (8 + 3 * i)) as usize % ALPHABET.len()]);
    format!("{}{position}", chars.collect::<String>())
}

/// A finite row value from raw bits: exact counters up to 2^53, small
/// counts, non-integral ratios, and any finite bit pattern at all.
fn arb_value(kind: u8, bits: u64) -> f64 {
    match kind {
        0 => (bits % ((1 << 53) + 1)) as f64,
        1 => (bits % 1000) as f64,
        2 => (bits >> 11) as f64 / 3072.0,
        _ => Some(f64::from_bits(bits)).filter(|v| v.is_finite()).unwrap_or(-0.25),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_sections_round_trip_and_gate_against_themselves(
        raw in proptest::collection::vec(
            (
                0u64..=u64::MAX,
                proptest::collection::vec((0u64..=u64::MAX, 0u8..4, 0u64..=u64::MAX), 0..6),
            ),
            0..5,
        ),
    ) {
        let sections = raw.iter().enumerate().map(|(i, (name, rows))| Section {
            name: arb_name(*name, i),
            rows: rows
                .iter()
                .enumerate()
                .map(|(j, &(row, kind, bits))| (arb_name(row, j), arb_value(kind, bits)))
                .collect(),
        });
        let report = RunReport {
            scenario: "itest:arbitrary".into(),
            sim_comm_us: 1.5,
            sections: sections.collect(),
            ..RunReport::default()
        };
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).expect("own output parses");
        prop_assert_eq!(&back, &report);
        // The text is a fixed point.
        prop_assert_eq!(back.to_json_string(), text);
        let strict = GateConfig { default_threshold: 0.0 };
        let rows = compare(&back, &report, &strict);
        prop_assert!(!rows.iter().any(|r| r.regressed || r.missing()));
        let section_rows: usize = report.sections.iter().map(|s| s.rows.len()).sum();
        prop_assert_eq!(rows.len(), 6 + section_rows + 4);
    }
}

#[test]
fn chrome_trace_is_a_valid_json_array() {
    let (_, events) = run_scenario(true);
    let trace = chrome_trace(&events, PROCS);
    let doc = Json::parse(&trace).expect("trace parses");
    let arr = doc.as_arr().expect("top level array");
    // Lane metadata + one entry per span.
    assert_eq!(arr.len(), events.len() + PROCS + 1);
    for entry in arr {
        let ph = entry.str_field("ph").expect("every event has a phase");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(entry.f64_field("dur").expect("complete spans have dur") > 0.0);
        }
    }
}
