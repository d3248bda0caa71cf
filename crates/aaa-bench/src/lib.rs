//! The experiment harness: the paper's evaluation (§V, Figs. 4–8) and the
//! experiments beyond it as one table, [`experiments::FIGURES`], run by the
//! `figures` binary (`--scale`, `--procs` and `--seed`, nothing else); the
//! perf gate's cells as another, [`observe::CELLS`], run by `perfgate` with
//! the arguments the table fixes for each.
//!
//! Every engine run reports the LogP clock's communication time with its
//! message, byte and superstep counts — exact functions of (graph, seed,
//! code) — and, beside them, the measured compute time and wall seconds.

use aaa_core::EngineConfig;
use std::fmt::Write as _;

/// Paper-scale constants.
pub const PAPER_VERTICES: usize = 50_000;

/// What every experiment reads: graph size, logical processors and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonArgs {
    pub scale: usize,
    pub procs: usize,
    pub seed: u64,
}

impl CommonArgs {
    /// Engine configuration for this run (parallel execution, 1 Gb/s
    /// Ethernet LogP pricing — the paper's testbed).
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::with_procs(self.procs)
    }
}

/// Scales a paper-sized quantity (defined against 50,000 vertices) down to
/// a graph of `scale` vertices, keeping at least `min`.
pub fn scaled(scale: usize, paper_value: usize, min: usize) -> usize {
    ((paper_value as f64 * scale as f64 / PAPER_VERTICES as f64).round() as usize).max(min)
}

/// A printable results table (the perf gate's verdicts).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_rounds_and_floors() {
        assert_eq!(scaled(2_000, 500, 1), 20);
        assert_eq!(scaled(2_000, 6000, 1), 240);
        assert_eq!(scaled(2_000, 1, 5), 5); // floor
        assert_eq!(scaled(50_000, 512, 1), 512);
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
}

pub mod experiments;
pub mod net;
pub mod observe;
pub mod stream;
