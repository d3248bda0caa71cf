//! The Baseline Restart comparator (§V.B.1): a method with no anytime
//! property that recomputes the full analysis from scratch on every change.

use crate::engine::{AnytimeEngine, EngineConfig};
use crate::error::CoreError;
use aaa_graph::AdjGraph;
use aaa_runtime::RunStats;

/// One from-scratch run: DD + IA + RC to convergence on the given graph.
/// Returns the closeness values and the run's cost.
pub fn restart_run(
    graph: &AdjGraph,
    config: &EngineConfig,
) -> Result<(Vec<f64>, RunStats), CoreError> {
    let mut engine = AnytimeEngine::new(graph.clone(), config.clone())?;
    engine.run_to_convergence();
    let closeness = engine.closeness();
    Ok((closeness, engine.stats()))
}

/// Baseline driver over a sequence of graph snapshots: restarts the
/// analysis for every snapshot and accumulates the total cost — exactly
/// what Figure 4 / Figure 8 compare the anytime anywhere approach against.
pub struct BaselineRestart {
    config: EngineConfig,
    total: RunStats,
    runs: usize,
}

impl BaselineRestart {
    /// Creates a baseline driver.
    pub fn new(config: EngineConfig) -> Self {
        Self { config, total: RunStats::default(), runs: 0 }
    }

    /// Analyzes a snapshot from scratch; returns its closeness values.
    pub fn analyze(&mut self, graph: &AdjGraph) -> Result<Vec<f64>, CoreError> {
        let (closeness, stats) = restart_run(graph, &self.config)?;
        self.total.merge(&stats);
        self.runs += 1;
        Ok(closeness)
    }

    /// Accumulated cost over all restarts.
    pub fn total_stats(&self) -> RunStats {
        self.total
    }

    /// Number of restarts performed.
    pub fn runs(&self) -> usize {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::closeness::closeness_exact;
    use aaa_graph::generators::{barabasi_albert, WeightModel};
    use aaa_graph::Csr;

    #[test]
    fn restart_matches_exact_closeness() {
        let g = barabasi_albert(60, 2, WeightModel::Unit, 3).unwrap();
        let (got, stats) = restart_run(&g, &EngineConfig::deterministic(4)).unwrap();
        let want = closeness_exact(&Csr::from_adj(&g));
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert!(stats.supersteps > 0);
    }

    #[test]
    fn baseline_accumulates_over_snapshots() {
        let g1 = barabasi_albert(40, 2, WeightModel::Unit, 5).unwrap();
        let mut g2 = g1.clone();
        let v = g2.add_vertices(1);
        g2.add_edge(v, 0, 1).unwrap();
        let mut baseline = BaselineRestart::new(EngineConfig::deterministic(3));
        let c1 = baseline.analyze(&g1).unwrap();
        let c2 = baseline.analyze(&g2).unwrap();
        assert_eq!(c1.len(), 40);
        assert_eq!(c2.len(), 41);
        assert_eq!(baseline.runs(), 2);
        // The accumulated cost is the sum of the restarts', on the columns
        // that are exact functions of the run (compute time is measured).
        let config = EngineConfig::deterministic(3);
        let [one, two] = [&g1, &g2].map(|g| restart_run(g, &config).unwrap().1);
        let total = baseline.total_stats();
        assert_eq!(total.sim_comm_us, one.sim_comm_us + two.sim_comm_us);
        assert_eq!(total.messages, one.messages + two.messages);
        assert_eq!(total.bytes, one.bytes + two.bytes);
        assert_eq!(total.supersteps, one.supersteps + two.supersteps);
        assert!(one.messages > 0 && two.bytes > one.bytes, "the grown graph costs more");
    }
}
