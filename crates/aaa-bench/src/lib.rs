//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every binary accepts:
//!
//! ```text
//! --scale <n>           graph size (default 2000; the paper uses 50,000 —
//!                       see EXPERIMENTS.md for the scaling rationale)
//! --procs <P>           logical processors (default 16, as in the paper)
//! --seed <s>            RNG seed (default 42)
//! --csv <path>          also write the table as CSV
//! --checkpoint-every <N>  snapshot the engine after every N RC steps
//! --fault <R@S>         kill rank R at superstep S; the harness recovers
//!                       it from the latest snapshot and resumes
//! --chaos <seed:rate>   arm the seeded message-fault injector at the given
//!                       overall fault rate and drive convergence through
//!                       the supervised retry loop
//! --report <path>       also run the pinned observed scenario and write
//!                       its machine-readable RunReport JSON (consumed by
//!                       the `perfgate` binary)
//! --trace <path>        also run the pinned observed scenario and write a
//!                       Chrome-trace JSON array (open in Perfetto /
//!                       chrome://tracing)
//! --wire full|delta     RC wire format: full rows (default) or sparse
//!                       improvement deltas (suffixes the pinned scenario
//!                       name with `:wire=delta` so gating stays per-wire)
//! --store plain|compressed
//!                       graph storage backend for the pinned scenario:
//!                       plain adjacency (default) or the compressed
//!                       gap-coded store fed through external-memory
//!                       ingest, with domain decomposition running on the
//!                       compressed backend (suffixes the scenario name
//!                       with `:store=compressed`)
//! --policy static|ps|rs|adaptive
//!                       restrict streaming sweeps (`stream_load`) to one
//!                       background-rebalance policy
//! --ticks <N>           driver ticks for streaming workloads
//! --metrics closeness|betweenness
//!                       comma-separated centrality metrics the engine
//!                       maintains. Closeness is always computed; listing
//!                       it alone changes nothing.
//!                       Adding `betweenness` turns on the incremental
//!                       Brandes column and suffixes the pinned scenario
//!                       name with `:betweenness` so it gates against its
//!                       own committed baseline
//! ```
//!
//! Reported *time* is the LogP-simulated cluster time (compute max per
//! superstep + modelled communication) — the quantity comparable to the
//! paper's minutes on its 16-processor testbed. Wall-clock of this
//! in-process run is also shown for transparency.

use aaa_core::{EngineConfig, MetricKind, WireFormat};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Paper-scale constants.
pub const PAPER_VERTICES: usize = 50_000;

/// Parsed common CLI arguments.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    pub scale: usize,
    pub procs: usize,
    pub seed: u64,
    pub csv: Option<PathBuf>,
    /// Snapshot after every N RC steps (`--checkpoint-every N`).
    pub checkpoint_every: Option<usize>,
    /// Kill rank R at superstep S (`--fault R@S`); recovery comes from the
    /// latest snapshot.
    pub fault: Option<(usize, u64)>,
    /// Arm the chaos layer with `ChaosPlan::seeded(seed, rate, …)`
    /// (`--chaos seed:rate`).
    pub chaos: Option<(u64, f64)>,
    /// Write the pinned observed scenario's RunReport JSON here
    /// (`--report path`; see [`observe`]).
    pub report: Option<PathBuf>,
    /// Write the pinned observed scenario's Chrome trace here
    /// (`--trace path`).
    pub trace: Option<PathBuf>,
    /// RC wire format (`--wire full|delta`).
    pub wire: WireFormat,
    /// Graph storage backend for the pinned scenario
    /// (`--store plain|compressed`).
    pub store: StoreBackend,
    /// Restrict streaming sweeps to one rebalance policy
    /// (`--policy static|ps|rs|adaptive`).
    pub policy: Option<aaa_core::RebalancePolicy>,
    /// Driver ticks for streaming workloads (`--ticks N`).
    pub ticks: Option<u64>,
    /// Centrality metrics the engine maintains
    /// (`--metrics closeness,betweenness`). Empty publishes closeness
    /// alone.
    pub metrics: Vec<MetricKind>,
}

/// Which [`aaa_graph::GraphStore`] backend the pinned scenario routes the
/// graph through before the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// In-memory adjacency lists (the engine's native representation).
    #[default]
    Plain,
    /// Compressed gap-coded store built via external-memory ingest; domain
    /// decomposition runs directly on it.
    Compressed,
}

impl std::str::FromStr for StoreBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "plain" => Ok(StoreBackend::Plain),
            "compressed" => Ok(StoreBackend::Compressed),
            other => Err(format!("--store wants plain|compressed, got {other}")),
        }
    }
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            scale: 2_000,
            procs: 16,
            seed: 42,
            csv: None,
            checkpoint_every: None,
            fault: None,
            chaos: None,
            report: None,
            trace: None,
            wire: WireFormat::Full,
            store: StoreBackend::Plain,
            policy: None,
            ticks: None,
            metrics: Vec::new(),
        }
    }
}

impl CommonArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut take = |what: &str| -> String {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {what}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => out.scale = take("--scale").parse().expect("--scale wants an integer"),
                "--procs" => out.procs = take("--procs").parse().expect("--procs wants an integer"),
                "--seed" => out.seed = take("--seed").parse().expect("--seed wants an integer"),
                "--csv" => out.csv = Some(PathBuf::from(take("--csv"))),
                "--checkpoint-every" => {
                    out.checkpoint_every = Some(
                        take("--checkpoint-every")
                            .parse()
                            .expect("--checkpoint-every wants an integer"),
                    )
                }
                "--fault" => {
                    let spec = take("--fault");
                    out.fault = Some(parse_fault_spec(&spec).unwrap_or_else(|| {
                        eprintln!("--fault wants rank@superstep, e.g. --fault 2@5");
                        std::process::exit(2);
                    }));
                }
                "--chaos" => {
                    let spec = take("--chaos");
                    out.chaos = Some(parse_chaos_spec(&spec).unwrap_or_else(|| {
                        eprintln!("--chaos wants seed:rate, e.g. --chaos 7:0.05");
                        std::process::exit(2);
                    }));
                }
                "--report" => out.report = Some(PathBuf::from(take("--report"))),
                "--trace" => out.trace = Some(PathBuf::from(take("--trace"))),
                "--wire" => {
                    out.wire = take("--wire").parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    })
                }
                "--store" => {
                    out.store = take("--store").parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    })
                }
                "--policy" => {
                    out.policy = Some(take("--policy").parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }))
                }
                "--ticks" => {
                    out.ticks = Some(take("--ticks").parse().expect("--ticks wants an integer"))
                }
                "--metrics" => {
                    let spec = take("--metrics");
                    out.metrics = parse_metrics_spec(&spec).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    });
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale n] [--procs P] [--seed s] [--csv path] \
                         [--checkpoint-every N] [--fault R@S] [--chaos seed:rate] \
                         [--report path] [--trace path] [--wire full|delta] \
                         [--store plain|compressed] \
                         [--policy static|ps|rs|adaptive] [--ticks N] \
                         [--metrics closeness,betweenness]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// Scales a paper-sized quantity (defined against 50,000 vertices) down
    /// to this run's graph size, keeping at least `min`.
    pub fn scaled(&self, paper_value: usize, min: usize) -> usize {
        ((paper_value as f64 * self.scale as f64 / PAPER_VERTICES as f64).round() as usize).max(min)
    }

    /// Engine configuration for this run (parallel execution, 1 Gb/s
    /// Ethernet LogP pricing — the paper's testbed).
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::with_procs(self.procs);
        config.wire = self.wire;
        config.metrics = self.metrics.clone();
        config
    }
}

/// Parses a `rank@superstep` fault spec.
fn parse_fault_spec(spec: &str) -> Option<(usize, u64)> {
    let (rank, step) = spec.split_once('@')?;
    Some((rank.trim().parse().ok()?, step.trim().parse().ok()?))
}

/// Parses a comma-separated `--metrics` list. Closeness is always
/// maintained, so listing it is accepted as a no-op.
fn parse_metrics_spec(spec: &str) -> Result<Vec<MetricKind>, String> {
    spec.split(',')
        .map(|tok| match tok.trim() {
            "closeness" => Ok(MetricKind::Closeness),
            "betweenness" => Ok(MetricKind::Betweenness),
            other => Err(format!("--metrics wants closeness|betweenness, got {other}")),
        })
        .collect()
}

/// Parses a `seed:rate` chaos spec. The rate must lie in `[0, 1]`.
fn parse_chaos_spec(spec: &str) -> Option<(u64, f64)> {
    let (seed, rate) = spec.split_once(':')?;
    let rate: f64 = rate.trim().parse().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    Some((seed.trim().parse().ok()?, rate))
}

/// A printable/CSV-able results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ =
            writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table and optionally writes CSV.
    pub fn emit(&self, csv: Option<&PathBuf>) {
        print!("{}", self.render());
        if let Some(path) = csv {
            let mut s = String::new();
            let _ = writeln!(s, "{}", self.headers.join(","));
            for row in &self.rows {
                let _ = writeln!(s, "{}", row.join(","));
            }
            std::fs::write(path, s).expect("CSV write");
            println!("(csv written to {})", path.display());
        }
    }
}

/// Formats simulated microseconds as seconds with sensible precision.
pub fn fmt_sim_secs(us: f64) -> String {
    format!("{:.2}", us / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_rounds_and_floors() {
        let a = CommonArgs { scale: 2_000, ..Default::default() };
        assert_eq!(a.scaled(500, 1), 20);
        assert_eq!(a.scaled(6000, 1), 240);
        assert_eq!(a.scaled(1, 5), 5); // floor
        let full = CommonArgs { scale: 50_000, ..Default::default() };
        assert_eq!(full.scaled(512, 1), 512);
    }

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_seconds() {
        assert_eq!(fmt_sim_secs(1_500_000.0), "1.50");
    }

    #[test]
    fn fault_spec_parses() {
        assert_eq!(parse_fault_spec("2@5"), Some((2, 5)));
        assert_eq!(parse_fault_spec(" 0 @ 12 "), Some((0, 12)));
        assert_eq!(parse_fault_spec("2"), None);
        assert_eq!(parse_fault_spec("a@b"), None);
    }

    #[test]
    fn metrics_spec_parses_and_rejects_unknown_names() {
        assert_eq!(parse_metrics_spec("closeness"), Ok(vec![MetricKind::Closeness]));
        assert_eq!(
            parse_metrics_spec("closeness, betweenness"),
            Ok(vec![MetricKind::Closeness, MetricKind::Betweenness])
        );
        assert_eq!(parse_metrics_spec("betweenness"), Ok(vec![MetricKind::Betweenness]));
        assert!(parse_metrics_spec("pagerank").is_err());
    }

    #[test]
    fn chaos_spec_parses_and_rejects_bad_rates() {
        assert_eq!(parse_chaos_spec("7:0.05"), Some((7, 0.05)));
        assert_eq!(parse_chaos_spec(" 42 : 1.0 "), Some((42, 1.0)));
        assert_eq!(parse_chaos_spec("7:1.5"), None);
        assert_eq!(parse_chaos_spec("7:-0.1"), None);
        assert_eq!(parse_chaos_spec("7"), None);
        assert_eq!(parse_chaos_spec("x:0.1"), None);
    }
}

pub mod experiments;
pub mod net;
pub mod observe;
pub mod stream;
