//! The machine-readable run report: a stable, versioned JSON document
//! summarizing one engine run — a typed header (scenario parameters,
//! traffic and step counters, the LogP cost breakdown, fault counters),
//! per-phase and per-rank aggregates from the event sink,
//! convergence-quality samples, and any number of named [`Section`]s.
//!
//! A **section** is a name plus an ordered list of `(row, number)` pairs —
//! on disk, a top-level JSON object of numbers. Whichever layer owns a set
//! of counters states them itself with one [`Section::new`] pushed onto
//! [`RunReport::sections`] (`RunStats::init_report` for the runtime,
//! `AnytimeEngine::report` for the engine, the streaming driver for its
//! own); nothing in this file knows a section by name, and [`crate::gate`]
//! names only the rows it must not gate. The reader takes every top-level
//! key that is not part of the typed header as a section and keeps
//! sections and rows in document order; the writer emits them in that
//! order after `quality`. File order is therefore part of the format: it
//! is what lets a committed baseline re-serialize to its own bytes
//! (`perfgate --validate` checks exactly that).
//!
//! The report is the contract between a run and the perf gate
//! ([`crate::gate`]): CI regenerates a report for a pinned scenario and
//! diffs it against a checked-in baseline. Only *deterministic* metrics
//! are gated (simulated communication time, traffic counters, step counts,
//! quality, section rows); measured wall/compute durations are carried for
//! humans but never gated — they jitter with the host (see DESIGN.md §8).

use crate::event::{SpanEvent, SpanKind};
use crate::json::{Json, JsonError};

/// Current report format version. Readers reject other versions — the
/// comparator must never silently diff incompatible documents.
pub const REPORT_VERSION: u64 = 1;

/// Top-level keys of the typed header. `params`, `counters`, `sim` and
/// `faults` are objects of numbers too, but they are *not* sections: every
/// other top-level key is.
const HEADER: [&str; 10] = [
    "version", "scenario", "params", "counters", "sim", "wall_us", "faults", "phases", "ranks",
    "quality",
];

/// Per-fault-kind counters for the chaos layer (`aaa-runtime::chaos`),
/// carried by `RunStats` and written as the report's `faults` object.
///
/// The first five fields count *injected* faults; `retransmits` counts the
/// rows the supervised recovery loop re-announced in response — it is
/// repair work, not a fault, so [`FaultCounters::injected`] excludes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages transmitted but lost in flight.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held past their superstep barrier.
    pub delayed: u64,
    /// Messages rejected by the receiver's checksum.
    pub corrupted: u64,
    /// Rank-stall events (a rank's whole outbox held for a superstep).
    pub stalls: u64,
    /// DV rows re-announced by supervised retry / verification passes.
    pub retransmits: u64,
}

impl FaultCounters {
    /// Total injected faults (everything except `retransmits`).
    pub fn injected(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.corrupted + self.stalls
    }
}

/// Aggregate of every span of one kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// [`SpanKind::name`] of the aggregated kind.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Summed simulated duration (µs). For per-rank span kinds this is
    /// total rank-busy time, not elapsed time.
    pub sim_us: f64,
    /// Summed measured wall duration (µs), same caveat.
    pub wall_us: f64,
    pub messages: u64,
    pub bytes: u64,
}

/// Per-lane busy totals (one entry per rank that recorded spans, plus the
/// driver lane at rank −1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankReport {
    pub rank: i64,
    pub spans: u64,
    /// Summed simulated duration of this lane's spans (µs).
    pub sim_busy_us: f64,
    /// Summed measured duration of this lane's spans (µs).
    pub wall_busy_us: f64,
}

/// A named, ordered list of numeric rows — the one way a layer puts its
/// own counters into a report.
///
/// Sections are optional in the wire format: a report simply carries the
/// ones its producers pushed, and old baselines keep parsing. The perf
/// gate diffs a row, under the name `section.row`, when both reports carry
/// it (see [`crate::gate`]). Counters are written as `f64`; they stay
/// exact up to 2^53.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    pub name: String,
    pub rows: Vec<(String, f64)>,
}

impl Section {
    pub fn new(name: &str, rows: &[(&str, f64)]) -> Self {
        Self { name: name.to_string(), rows: rows.iter().map(|&(r, v)| (r.into(), v)).collect() }
    }

    /// The value of row `row`, if the section has one.
    pub fn get(&self, row: &str) -> Option<f64> {
        self.rows.iter().find(|(r, _)| r == row).map(|&(_, v)| v)
    }
}

/// One convergence-quality sample (mirrors the engine's quality tracker).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QualityPoint {
    pub rc_step: u64,
    /// Mean relative closeness error vs. exact.
    pub error: f64,
    /// Fraction of the true top-k most central vertices identified.
    pub top_k_recall: f64,
}

/// The versioned run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Scenario identifier, e.g. `fig4:pinned`.
    pub scenario: String,
    /// Workload parameters the scenario was pinned at.
    pub scale: u64,
    pub procs: u64,
    pub seed: u64,
    /// Traffic and step counters (deterministic).
    pub messages: u64,
    pub bytes: u64,
    pub supersteps: u64,
    pub collectives: u64,
    pub checkpoints: u64,
    pub restores: u64,
    pub rc_steps: u64,
    /// LogP-priced communication time (µs) — deterministic, the gate's
    /// primary metric.
    pub sim_comm_us: f64,
    /// Measured per-superstep max compute, summed (µs) — host-dependent.
    pub sim_compute_us: f64,
    /// Measured wall time of rank computation (µs) — host-dependent.
    pub wall_us: f64,
    pub faults: FaultCounters,
    pub phases: Vec<PhaseReport>,
    pub ranks: Vec<RankReport>,
    pub quality: Vec<QualityPoint>,
    /// Layer-owned counter sections, in the order they are written.
    pub sections: Vec<Section>,
}

/// A JSON object of numbers, keys in the given order.
fn nums<'a>(rows: impl IntoIterator<Item = (&'a str, f64)>) -> Json {
    Json::Obj(rows.into_iter().map(|(k, v)| (k.to_string(), Json::Num(v))).collect())
}

impl RunReport {
    /// Total simulated time (µs).
    pub fn sim_total_us(&self) -> f64 {
        self.sim_comm_us + self.sim_compute_us
    }

    /// Final quality sample, if any were recorded.
    pub fn final_quality(&self) -> Option<QualityPoint> {
        self.quality.last().copied()
    }

    /// The section named `name`, if a producer pushed one.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    // ---------------------------------------------------------------
    // Serialization
    // ---------------------------------------------------------------

    pub fn to_json(&self) -> Json {
        let f = &self.faults;
        let phase = |p: &PhaseReport| {
            Json::Obj(vec![
                ("name".into(), Json::Str(p.name.clone())),
                ("count".into(), Json::Num(p.count as f64)),
                ("sim_us".into(), Json::Num(p.sim_us)),
                ("wall_us".into(), Json::Num(p.wall_us)),
                ("messages".into(), Json::Num(p.messages as f64)),
                ("bytes".into(), Json::Num(p.bytes as f64)),
            ])
        };
        let rank = |r: &RankReport| {
            nums([
                ("rank", r.rank as f64),
                ("spans", r.spans as f64),
                ("sim_busy_us", r.sim_busy_us),
                ("wall_busy_us", r.wall_busy_us),
            ])
        };
        let quality = |q: &QualityPoint| {
            nums([
                ("rc_step", q.rc_step as f64),
                ("error", q.error),
                ("top_k_recall", q.top_k_recall),
            ])
        };
        let mut fields: Vec<(String, Json)> = vec![
            ("version".into(), Json::Num(REPORT_VERSION as f64)),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            (
                "params".into(),
                nums([
                    ("scale", self.scale as f64),
                    ("procs", self.procs as f64),
                    ("seed", self.seed as f64),
                ]),
            ),
            (
                "counters".into(),
                nums([
                    ("messages", self.messages as f64),
                    ("bytes", self.bytes as f64),
                    ("supersteps", self.supersteps as f64),
                    ("collectives", self.collectives as f64),
                    ("checkpoints", self.checkpoints as f64),
                    ("restores", self.restores as f64),
                    ("rc_steps", self.rc_steps as f64),
                ]),
            ),
            (
                "sim".into(),
                nums([
                    ("comm_us", self.sim_comm_us),
                    ("compute_us", self.sim_compute_us),
                    ("total_us", self.sim_total_us()),
                ]),
            ),
            ("wall_us".into(), Json::Num(self.wall_us)),
            (
                "faults".into(),
                nums([
                    ("dropped", f.dropped as f64),
                    ("duplicated", f.duplicated as f64),
                    ("delayed", f.delayed as f64),
                    ("corrupted", f.corrupted as f64),
                    ("stalls", f.stalls as f64),
                    ("retransmits", f.retransmits as f64),
                ]),
            ),
            ("phases".into(), Json::Arr(self.phases.iter().map(phase).collect())),
            ("ranks".into(), Json::Arr(self.ranks.iter().map(rank).collect())),
            ("quality".into(), Json::Arr(self.quality.iter().map(quality).collect())),
        ];
        for s in &self.sections {
            // The reader takes header keys as the header: a section of
            // that name would be written and then silently dropped.
            assert!(!HEADER.contains(&s.name.as_str()), "section `{}` shadows the header", s.name);
            fields.push((s.name.clone(), nums(s.rows.iter().map(|(r, v)| (r.as_str(), *v)))));
        }
        Json::Obj(fields)
    }

    /// The on-disk representation (pretty, stable key order, trailing
    /// newline).
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    pub fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let version = doc.u64_field("version")?;
        if version != REPORT_VERSION {
            return Err(JsonError::Shape(format!(
                "report version {version} is not supported (expected {REPORT_VERSION})"
            )));
        }
        let params = doc.field("params")?;
        let counters = doc.field("counters")?;
        let sim = doc.field("sim")?;
        let faults = doc.field("faults")?;
        let mut report = RunReport {
            scenario: doc.str_field("scenario")?.to_string(),
            scale: params.u64_field("scale")?,
            procs: params.u64_field("procs")?,
            seed: params.u64_field("seed")?,
            messages: counters.u64_field("messages")?,
            bytes: counters.u64_field("bytes")?,
            supersteps: counters.u64_field("supersteps")?,
            collectives: counters.u64_field("collectives")?,
            checkpoints: counters.u64_field("checkpoints")?,
            restores: counters.u64_field("restores")?,
            rc_steps: counters.u64_field("rc_steps")?,
            sim_comm_us: sim.f64_field("comm_us")?,
            sim_compute_us: sim.f64_field("compute_us")?,
            wall_us: doc.f64_field("wall_us")?,
            faults: FaultCounters {
                dropped: faults.u64_field("dropped")?,
                duplicated: faults.u64_field("duplicated")?,
                delayed: faults.u64_field("delayed")?,
                corrupted: faults.u64_field("corrupted")?,
                stalls: faults.u64_field("stalls")?,
                retransmits: faults.u64_field("retransmits")?,
            },
            ..RunReport::default()
        };
        for p in doc.arr_field("phases")? {
            report.phases.push(PhaseReport {
                name: p.str_field("name")?.to_string(),
                count: p.u64_field("count")?,
                sim_us: p.f64_field("sim_us")?,
                wall_us: p.f64_field("wall_us")?,
                messages: p.u64_field("messages")?,
                bytes: p.u64_field("bytes")?,
            });
        }
        for r in doc.arr_field("ranks")? {
            report.ranks.push(RankReport {
                rank: r.i64_field("rank")?,
                spans: r.u64_field("spans")?,
                sim_busy_us: r.f64_field("sim_busy_us")?,
                wall_busy_us: r.f64_field("wall_busy_us")?,
            });
        }
        for q in doc.arr_field("quality")? {
            report.quality.push(QualityPoint {
                rc_step: q.u64_field("rc_step")?,
                error: q.f64_field("error")?,
                top_k_recall: q.f64_field("top_k_recall")?,
            });
        }
        // Everything outside the header is a section. This is input from
        // disk: a value that is not a number, or a name that appears
        // twice, is refused by name — never skipped.
        let fields = doc.as_obj().unwrap_or_default();
        for (name, value) in fields.iter().filter(|(k, _)| !HEADER.contains(&k.as_str())) {
            let rows = value.as_obj().ok_or_else(|| {
                JsonError::Shape(format!("field `{name}` is not a section (an object of numbers)"))
            })?;
            if report.section(name).is_some() {
                return Err(JsonError::Shape(format!("section `{name}` appears twice")));
            }
            let mut section = Section::new(name, &[]);
            for (row, v) in rows {
                let v = v.as_f64().ok_or_else(|| {
                    JsonError::Shape(format!("row `{name}.{row}` is not a number"))
                })?;
                if section.get(row).is_some() {
                    return Err(JsonError::Shape(format!("row `{name}.{row}` appears twice")));
                }
                section.rows.push((row.clone(), v));
            }
            report.sections.push(section);
        }
        Ok(report)
    }

    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Aggregates sink events into per-phase totals, in [`SpanKind::ALL`]
/// order, omitting kinds with no spans.
pub fn aggregate_phases(events: &[SpanEvent]) -> Vec<PhaseReport> {
    SpanKind::ALL
        .iter()
        .filter_map(|&kind| {
            let mut agg = PhaseReport { name: kind.name().to_string(), ..PhaseReport::default() };
            for e in events.iter().filter(|e| e.kind == kind) {
                agg.count += 1;
                agg.sim_us += e.sim_dur_us;
                agg.wall_us += e.wall_dur_us;
                agg.messages += e.messages;
                agg.bytes += e.bytes;
            }
            (agg.count > 0).then_some(agg)
        })
        .collect()
}

/// Aggregates sink events into per-lane busy totals, ordered by lane
/// (driver −1 first, then ranks ascending).
pub fn per_rank_busy(events: &[SpanEvent]) -> Vec<RankReport> {
    let mut lanes: Vec<RankReport> = Vec::new();
    for e in events {
        let lane = match lanes.iter_mut().find(|l| l.rank == e.rank) {
            Some(l) => l,
            None => {
                lanes.push(RankReport { rank: e.rank, ..RankReport::default() });
                lanes.last_mut().expect("just pushed")
            }
        };
        lane.spans += 1;
        lane.sim_busy_us += e.sim_dur_us;
        lane.wall_busy_us += e.wall_dur_us;
    }
    lanes.sort_unstable_by_key(|l| l.rank);
    lanes
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::DRIVER_LANE;

    pub(crate) fn sample_report() -> RunReport {
        RunReport {
            scenario: "fig4:pinned".into(),
            scale: 300,
            procs: 4,
            seed: 42,
            messages: 1234,
            bytes: 98765,
            supersteps: 40,
            collectives: 12,
            checkpoints: 1,
            restores: 0,
            rc_steps: 9,
            sim_comm_us: 123456.25,
            sim_compute_us: 789.5,
            wall_us: 321.125,
            faults: FaultCounters { dropped: 2, retransmits: 5, ..FaultCounters::default() },
            phases: vec![PhaseReport {
                name: "superstep".into(),
                count: 160,
                sim_us: 700.0,
                wall_us: 650.0,
                messages: 0,
                bytes: 0,
            }],
            ranks: vec![
                RankReport { rank: -1, spans: 30, sim_busy_us: 9.0, wall_busy_us: 1.0 },
                RankReport { rank: 0, spans: 40, sim_busy_us: 200.5, wall_busy_us: 180.0 },
            ],
            quality: vec![
                QualityPoint { rc_step: 0, error: 0.25, top_k_recall: 0.6 },
                QualityPoint { rc_step: 5, error: 0.0, top_k_recall: 1.0 },
            ],
            sections: Vec::new(),
        }
    }

    /// One of every section the system emits today, in the order the
    /// producers push them. The schema and the gate are tested over this
    /// table; neither names a section anywhere else.
    pub(crate) fn emitted_sections() -> Vec<Section> {
        vec![
            Section::new(
                "changes",
                &[
                    ("submitted", 10.0),
                    ("coalesced", 3.0),
                    ("applied", 7.0),
                    ("drains", 2.0),
                    ("epochs", 14.0),
                ],
            ),
            Section::new(
                "migration",
                &[("migrations", 3.0), ("migrated_rows", 48.0), ("migration_bytes", 9216.0)],
            ),
            Section::new(
                "stream",
                &[
                    ("offered", 500.0),
                    ("ticks", 64.0),
                    ("p99_staleness_epochs", 3.0),
                    ("max_staleness_epochs", 5.0),
                    ("peak_queue", 40.0),
                    ("final_imbalance_milli", 1125.0),
                    ("changes_per_sec", 12345.5),
                ],
            ),
            Section::new(
                "publish",
                &[
                    ("full_epochs", 2.0),
                    ("delta_epochs", 38.0),
                    ("changed_rows", 512.0),
                    ("chunks_copied", 44.0),
                    ("chunks_shared", 196.0),
                ],
            ),
            Section::new(
                "metrics",
                &[
                    ("betweenness_epochs", 12.0),
                    ("sources_recomputed", 640.0),
                    ("full_recomputes", 2.0),
                    ("changed_entries", 911.0),
                ],
            ),
        ]
    }

    #[test]
    fn json_round_trip_is_equal() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).expect("own output parses");
        assert_eq!(back, report);
        // And the serialized form is stable (idempotent).
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn every_section_round_trips_and_is_optional() {
        // Absent stays absent and is not written (old baselines parse with
        // no sections).
        let without = sample_report();
        let bare = without.to_json_string();
        assert!(RunReport::from_json_str(&bare).expect("parses").sections.is_empty());
        // Each section alone, then all of them together.
        let mut cases: Vec<Vec<Section>> =
            emitted_sections().into_iter().map(|s| vec![s]).collect();
        cases.push(emitted_sections());
        for sections in cases {
            for s in &sections {
                assert!(without.section(&s.name).is_none());
                assert!(!bare.contains(&format!("\"{}\"", s.name)), "{} written", s.name);
            }
            let with = RunReport { sections, ..sample_report() };
            let text = with.to_json_string();
            let back = RunReport::from_json_str(&text).expect("own output parses");
            assert_eq!(back, with, "sections and rows keep their order");
            assert_eq!(back.to_json_string(), text);
        }
    }

    /// The reader's refusals: input from disk is never skipped silently.
    #[test]
    fn malformed_sections_are_refused_by_name() {
        let text = RunReport { sections: emitted_sections(), ..sample_report() }.to_json_string();
        let cases = [
            ("\"drains\": 2", "\"drains\": \"2\"", "`changes.drains` is not a number"),
            ("\"drains\": 2", "\"drains\": null", "`changes.drains` is not a number"),
            ("\"drains\": 2", "\"drains\": {\"n\": 2}", "`changes.drains` is not a number"),
            ("\"drains\": 2", "\"drains\": [2]", "`changes.drains` is not a number"),
            ("\"drains\": 2", "\"applied\": 2", "`changes.applied` appears twice"),
            ("\"migration\": {", "\"changes\": {", "section `changes` appears twice"),
            ("\"migration\": {", "\"probe\": 3, \"migration\": {", "`probe` is not a section"),
            ("\"rank\": 0", "\"rank\": 1.5", "`rank` is not an integer"),
            ("\"rank\": 0", "\"rank\": 1e300", "`rank` is not an integer"),
        ];
        for (from, to, want) in cases {
            assert!(text.contains(from), "fixture lost {from}");
            let err = RunReport::from_json_str(&text.replacen(from, to, 1)).unwrap_err();
            assert!(matches!(err, JsonError::Shape(_)), "{to}: {err}");
            assert!(err.to_string().contains(want), "{to}: got `{err}`, want `{want}`");
        }
    }

    #[test]
    #[should_panic(expected = "shadows the header")]
    fn a_section_may_not_shadow_the_header() {
        let _ = RunReport { sections: vec![Section::new("counters", &[])], ..sample_report() }
            .to_json();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut doc = sample_report().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Num(99.0);
        }
        let err = RunReport::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn totals_and_final_quality() {
        let r = sample_report();
        assert_eq!(r.sim_total_us(), 123456.25 + 789.5);
        assert_eq!(r.final_quality().unwrap().rc_step, 5);
        assert_eq!(r.faults.injected(), 2);
    }

    #[test]
    fn aggregation_from_events() {
        let mk = |kind, rank, sim, msgs| SpanEvent {
            kind,
            rank,
            superstep: 0,
            sim_start_us: 0.0,
            sim_dur_us: sim,
            wall_start_us: 0.0,
            wall_dur_us: sim / 2.0,
            messages: msgs,
            bytes: msgs * 10,
        };
        let events = vec![
            mk(SpanKind::Superstep, 0, 10.0, 0),
            mk(SpanKind::Superstep, 1, 20.0, 0),
            mk(SpanKind::Exchange, DRIVER_LANE, 100.0, 6),
            mk(SpanKind::Superstep, 0, 5.0, 0),
        ];
        let phases = aggregate_phases(&events);
        assert_eq!(phases.len(), 2, "only kinds with spans appear");
        assert_eq!(phases[0].name, "superstep");
        assert_eq!(phases[0].count, 3);
        assert_eq!(phases[0].sim_us, 35.0);
        assert_eq!(phases[1].name, "exchange");
        assert_eq!(phases[1].messages, 6);
        assert_eq!(phases[1].bytes, 60);

        let ranks = per_rank_busy(&events);
        assert_eq!(ranks.len(), 3);
        assert_eq!(ranks[0].rank, DRIVER_LANE);
        assert_eq!(ranks[1].rank, 0);
        assert_eq!(ranks[1].spans, 2);
        assert_eq!(ranks[1].sim_busy_us, 15.0);
        assert_eq!(ranks[2].sim_busy_us, 20.0);
    }
}
