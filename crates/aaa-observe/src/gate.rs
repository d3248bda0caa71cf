//! The perf-gate comparator: diffs a candidate [`RunReport`] against a
//! baseline, metric by metric, and decides which changes are regressions.
//!
//! Only *deterministic* metrics are gated — simulated communication time,
//! traffic counters, step counts, final convergence error and section rows
//! are exact functions of (scenario, seed, code), so any drift is a real
//! behavioral change. Measured metrics (compute/wall durations) vary with
//! the host and CI neighbor noise; they are reported in the diff table for
//! humans but can never fail the gate. See DESIGN.md §8 for the rationale.
//!
//! Sections ([`crate::report::Section`]) go through one loop and one rule,
//! whose two halves are deliberately asymmetric:
//!
//! * **both present → diffed.** A row both reports carry is diffed under
//!   the name `section.row`. A section or row only the *candidate* carries
//!   adds nothing: a layer that starts reporting a new counter must not
//!   break the baselines committed before it.
//! * **baseline only → `MISSING`.** A row — or the final quality sample —
//!   the baseline carries and the candidate lost fails the gate like a
//!   regression. Otherwise a report stripped of its sections would pass.
//!
//! Every diffed section row is gated unless it is named in `NOT_GATED`
//! below, the one list of rows that are shown but never gated, each with
//! its reason. A gated row regresses when it rises past the threshold,
//! unless it is named in `HIGHER_IS_BETTER`: then it regresses when it
//! falls past it, and a rise never does. Both lists live here and not in
//! the JSON on purpose: a per-row flag in the file would be report version
//! 2 and a rewrite of every committed baseline, for a few rows.

use crate::report::RunReport;

/// Section rows shown (after the fixed info rows) but never gated, each
/// with the reason it cannot fail the gate.
const NOT_GATED: [&str; 3] = [
    // Derived from the wall clock.
    "stream.changes_per_sec",
    // The kernel's pass-shape decisions, not its work: a change that prunes
    // more chunks runs more sparse passes and skips more list passes while
    // `dv.cells`, the work, falls (+40-44 % against -62-65 % when the
    // landmark-seeded IA landed).
    "dv.sparse_passes",
    "dv.list_passes_skipped",
];

/// Gated section rows whose rise is a win: changes folded into one before
/// a drain, and closeness chunks a view shares with the one before it.
const HIGHER_IS_BETTER: [&str; 2] = ["changes.coalesced", "publish.chunks_shared"];

/// Threshold for the comparator.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum allowed relative move the wrong way for every gated metric
    /// (0.10 = 10%): a rise, or a fall for the rows where higher is better.
    pub default_threshold: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self { default_threshold: 0.10 }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    pub name: String,
    pub baseline: f64,
    /// NaN when the candidate lost the row (see [`MetricDiff::missing`]);
    /// a report never carries a NaN of its own.
    pub candidate: f64,
    /// `(candidate - baseline) / baseline`; 0 when both are 0, +∞ when the
    /// baseline is 0 and the candidate is not, NaN for a missing row.
    pub rel_change: f64,
    /// Threshold applied (gated metrics only; 0 for info metrics).
    pub threshold: f64,
    /// Whether this metric can fail the gate.
    pub gated: bool,
    /// Gated and over threshold, or missing.
    pub regressed: bool,
}

impl MetricDiff {
    /// Whether the baseline carries this row and the candidate does not.
    pub fn missing(&self) -> bool {
        self.candidate.is_nan()
    }
}

/// One diffed row; `candidate` is `None` when the candidate lost it.
fn diff(
    name: &str,
    baseline: f64,
    candidate: Option<f64>,
    gated: bool,
    cfg: &GateConfig,
) -> MetricDiff {
    let rel_change = match candidate {
        None => f64::NAN,
        Some(c) if baseline != 0.0 => (c - baseline) / baseline,
        Some(c) => {
            if c == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        }
    };
    let threshold = if gated { cfg.default_threshold } else { 0.0 };
    // Only a move the wrong way regresses: up for most rows, down for the
    // rows where higher is better.
    let worse = if HIGHER_IS_BETTER.contains(&name) { -rel_change } else { rel_change };
    MetricDiff {
        name: name.to_string(),
        baseline,
        candidate: candidate.unwrap_or(f64::NAN),
        rel_change,
        threshold,
        gated,
        regressed: gated && (candidate.is_none() || worse > threshold),
    }
}

/// Compares `candidate` against `baseline`. Returns every metric row,
/// gated metrics first. The gate fails iff any row has `regressed`.
///
/// Reports for different scenarios are not comparable; the caller should
/// check [`RunReport::scenario`] before calling (the CLI does).
pub fn compare(candidate: &RunReport, baseline: &RunReport, cfg: &GateConfig) -> Vec<MetricDiff> {
    let (b, c) = (baseline, candidate);
    let gate = |name: &str, b: f64, c: f64| diff(name, b, Some(c), true, cfg);
    let info = |name: &str, b: f64, c: f64| diff(name, b, Some(c), false, cfg);
    let mut rows = vec![
        gate("sim_comm_us", b.sim_comm_us, c.sim_comm_us),
        gate("messages", b.messages as f64, c.messages as f64),
        gate("bytes", b.bytes as f64, c.bytes as f64),
        gate("supersteps", b.supersteps as f64, c.supersteps as f64),
        gate("collectives", b.collectives as f64, c.collectives as f64),
        gate("rc_steps", b.rc_steps as f64, c.rc_steps as f64),
    ];
    // Final convergence error is deterministic too: diffed when the
    // baseline sampled quality, missing when only the candidate did not.
    if let Some(q) = b.final_quality() {
        rows.push(diff("final_error", q.error, c.final_quality().map(|q| q.error), true, cfg));
    }
    // The one section loop, in the baseline's file order. Rows that are
    // never gated are set aside so they print after the fixed info rows.
    let mut shown = Vec::new();
    for section in &b.sections {
        let theirs = c.section(&section.name);
        for (row, value) in &section.rows {
            let name = format!("{}.{row}", section.name);
            let candidate = theirs.and_then(|s| s.get(row));
            if candidate.is_some() && NOT_GATED.contains(&name.as_str()) {
                shown.push(diff(&name, *value, candidate, false, cfg));
            } else {
                rows.push(diff(&name, *value, candidate, true, cfg));
            }
        }
    }
    // Host-dependent → info only.
    rows.push(info("sim_compute_us", b.sim_compute_us, c.sim_compute_us));
    rows.push(info("sim_total_us", b.sim_total_us(), c.sim_total_us()));
    rows.push(info("wall_us", b.wall_us, c.wall_us));
    rows.push(info("faults_injected", b.faults.injected() as f64, c.faults.injected() as f64));
    rows.extend(shown);
    rows
}

/// Whether any row fails the gate.
pub fn regressed(rows: &[MetricDiff]) -> bool {
    rows.iter().any(|r| r.regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::emitted_sections;
    use crate::report::{QualityPoint, Section};

    fn baseline() -> RunReport {
        RunReport {
            scenario: "unit".into(),
            messages: 1000,
            bytes: 80_000,
            supersteps: 40,
            collectives: 10,
            rc_steps: 8,
            sim_comm_us: 50_000.0,
            sim_compute_us: 900.0,
            wall_us: 850.0,
            quality: vec![QualityPoint { rc_step: 8, error: 0.01, top_k_recall: 1.0 }],
            ..RunReport::default()
        }
    }

    #[test]
    fn doubled_sim_cost_fails_the_gate() {
        let base = baseline();
        let mut cand = base.clone();
        cand.sim_comm_us *= 2.0; // injected 2× regression
        let rows = compare(&cand, &base, &GateConfig::default());
        assert!(regressed(&rows));
        let row = rows.iter().find(|r| r.name == "sim_comm_us").unwrap();
        assert!(row.regressed);
        assert!((row.rel_change - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_percent_jitter_passes() {
        let base = baseline();
        let mut cand = base.clone();
        cand.sim_comm_us *= 1.02;
        cand.bytes = (base.bytes as f64 * 0.98) as u64;
        cand.quality[0].error *= 1.02;
        let rows = compare(&cand, &base, &GateConfig::default());
        assert!(!regressed(&rows), "±2% is inside the 10% default threshold");
    }

    #[test]
    fn improvements_never_regress() {
        let base = baseline();
        let mut cand = base.clone();
        cand.sim_comm_us *= 0.5;
        cand.messages /= 2;
        let rows = compare(&cand, &base, &GateConfig::default());
        assert!(!regressed(&rows));
    }

    #[test]
    fn wall_noise_is_not_gated() {
        let base = baseline();
        let mut cand = base.clone();
        cand.wall_us *= 10.0;
        cand.sim_compute_us *= 10.0;
        let rows = compare(&cand, &base, &GateConfig::default());
        assert!(!regressed(&rows), "measured metrics are info-only");
        assert!(rows.iter().any(|r| r.name == "wall_us" && !r.gated));
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let mut base = baseline();
        base.messages = 0;
        let mut cand = base.clone();
        cand.messages = 5;
        let rows = compare(&cand, &base, &GateConfig::default());
        let row = rows.iter().find(|r| r.name == "messages").unwrap();
        assert!(row.rel_change.is_infinite());
        assert!(row.regressed);
    }

    /// The committed publish cell's baseline coalesces nothing: a change
    /// that starts coalescing reads +∞ there, and passes.
    #[test]
    fn a_coalescing_candidate_passes_against_a_zero_baseline() {
        let changes = |coalesced| Section::new("changes", &[("coalesced", coalesced)]);
        let base = RunReport { sections: vec![changes(0.0)], ..baseline() };
        let cand = RunReport { sections: vec![changes(4.0)], ..baseline() };
        let rows = compare(&cand, &base, &GateConfig::default());
        let row = rows.iter().find(|r| r.name == "changes.coalesced").unwrap();
        assert!(row.gated && row.rel_change.is_infinite() && !row.regressed);
        assert!(!regressed(&rows));
    }

    /// A view that shares a fifth fewer chunks with the one before it fails
    /// the gate; one that shares a fifth more passes.
    #[test]
    fn a_fifth_fewer_shared_chunks_fails_the_gate() {
        let publish = |shared| Section::new("publish", &[("chunks_shared", shared)]);
        let base = RunReport { sections: vec![publish(100.0)], ..baseline() };
        let fewer = RunReport { sections: vec![publish(80.0)], ..baseline() };
        let rows = compare(&fewer, &base, &GateConfig::default());
        assert!(rows.iter().any(|r| r.name == "publish.chunks_shared" && r.regressed));
        let more = RunReport { sections: vec![publish(120.0)], ..baseline() };
        assert!(!regressed(&compare(&more, &base, &GateConfig::default())));
    }

    /// The one rule, over every section the system emits.
    #[test]
    fn sections_gate_under_the_both_present_rule() {
        let strict = GateConfig { default_threshold: 0.0 };
        let in_section = |rows: &[MetricDiff], s: &Section| {
            rows.iter().filter(|r| r.name.starts_with(&format!("{}.", s.name))).count()
        };
        for section in emitted_sections() {
            // Old baseline (no section) vs. new candidate: no extra rows,
            // so existing pinned baselines keep diffing at +0.00%.
            let base = baseline();
            let cand = RunReport { sections: vec![section.clone()], ..base.clone() };
            let rows = compare(&cand, &base, &GateConfig::default());
            assert_eq!(in_section(&rows, &section), 0, "{}: candidate-only rows", section.name);
            assert!(!regressed(&rows));
            // Both sides carry it: identical sections pass at threshold 0
            // with one row per section row …
            let base = cand;
            let rows = compare(&base, &base, &strict);
            assert_eq!(in_section(&rows, &section), section.rows.len());
            assert!(!regressed(&rows) && !rows.iter().any(MetricDiff::missing));
            // … and a drift on any one row fails exactly that row, unless
            // the row is never gated: shown, last, and never failing.
            for (i, (row, value)) in section.rows.iter().enumerate() {
                let name = format!("{}.{row}", section.name);
                let mut cand = base.clone();
                cand.sections[0].rows[i].1 = value * 10.0;
                let rows = compare(&cand, &base, &GateConfig::default());
                let d = rows.iter().find(|r| r.name == name).expect("row is diffed");
                if NOT_GATED.contains(&name.as_str()) {
                    assert!(!d.gated && !d.regressed, "{name} never fails");
                    assert_eq!(rows.last().map(|r| r.name.as_str()), Some(name.as_str()));
                    assert!(!regressed(&rows));
                } else if HIGHER_IS_BETTER.contains(&name.as_str()) {
                    // Gated, but a rise is a win: only the fall fails.
                    assert!(d.gated && !regressed(&rows), "{name}: a rise must pass");
                    cand.sections[0].rows[i].1 = value * 0.1;
                    let rows = compare(&cand, &base, &GateConfig::default());
                    let failed: Vec<&str> =
                        rows.iter().filter(|r| r.regressed).map(|r| r.name.as_str()).collect();
                    assert_eq!(failed, [name.as_str()]);
                } else {
                    assert!(d.gated && d.regressed, "{name} must be gated");
                    assert_eq!(rows.iter().filter(|r| r.regressed).count(), 1);
                }
            }
        }
    }

    /// The asymmetric half: what the baseline carries, the candidate must.
    #[test]
    fn a_candidate_that_lost_rows_fails_the_gate() {
        let base = RunReport { sections: emitted_sections(), ..baseline() };
        let lost = |cand: &RunReport| -> Vec<String> {
            let rows = compare(cand, &base, &GateConfig::default());
            assert_eq!(regressed(&rows), rows.iter().any(MetricDiff::missing));
            rows.into_iter().filter(|r| r.missing() && r.regressed).map(|r| r.name).collect()
        };
        assert!(lost(&base).is_empty());
        // A whole section, a single row, the quality samples.
        let mut cand = base.clone();
        cand.sections.retain(|s| s.name != "migration");
        assert_eq!(
            lost(&cand),
            ["migration.migrations", "migration.migrated_rows", "migration.migration_bytes"]
        );
        let mut cand = base.clone();
        cand.sections[0].rows.retain(|(row, _)| row != "drains");
        assert_eq!(lost(&cand), ["changes.drains"]);
        let mut cand = base.clone();
        cand.quality.clear();
        assert_eq!(lost(&cand), ["final_error"]);
        // A lost wall-derived row is still a lost row.
        let mut cand = base.clone();
        cand.sections[2].rows.retain(|(row, _)| row != "changes_per_sec");
        assert_eq!(lost(&cand), ["stream.changes_per_sec"]);
        // The other direction stays free: a baseline without quality
        // samples or sections takes any candidate.
        let bare = RunReport { quality: Vec::new(), ..baseline() };
        assert!(!regressed(&compare(&base, &bare, &GateConfig::default())));
    }
}
