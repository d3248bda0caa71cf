//! Streaming workload driver: sustained change streams through the
//! engine's ingest log, with shape generators for bursty, diurnal and
//! adversarial hub-targeting arrival patterns, plus the staleness /
//! queue / balance accounting the pinned stream scenario gates in CI.
//!
//! Staleness is measured in **published epochs**, a deterministic
//! quantity: a batch submitted while the engine publishes epoch `e` and
//! first reflected by epoch `e'` has staleness `e' − e`. Throughput
//! (changes per second) is wall-clock-derived and reported info-only —
//! CI hosts are noisy, epochs are not.

use aaa_core::changes::{preferential_batch, NewVertex, VertexBatch};
use aaa_core::{AnytimeEngine, AssignStrategy, DynamicChange};
use aaa_graph::{AdjGraph, VertexId};
use aaa_observe::Section;
use aaa_partition::vertex_balance;
use std::time::Instant;

/// Arrival pattern of the synthetic change stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamShape {
    /// Quiet baseline punctuated by 4× bursts every fourth tick.
    Bursty,
    /// A smooth day/night cycle: period 8, peak 4× the trough.
    Diurnal,
    /// Adversarial: every new vertex attaches only to the highest-degree
    /// hubs and rides CutEdge-PS, so load piles onto the hub-owning
    /// ranks tick after tick — the workload the background rebalancer
    /// exists to absorb.
    Hub,
}

impl StreamShape {
    /// All shapes, in the order the sweep binaries report them.
    pub const ALL: [StreamShape; 3] = [StreamShape::Bursty, StreamShape::Diurnal, StreamShape::Hub];

    /// Short name used in tables and scenario suffixes.
    pub fn name(&self) -> &'static str {
        match self {
            StreamShape::Bursty => "bursty",
            StreamShape::Diurnal => "diurnal",
            StreamShape::Hub => "hub",
        }
    }

    /// Batches offered at tick `t` — a pure function of the tick, so the
    /// whole arrival schedule is reproducible.
    pub fn intensity(&self, t: u64) -> usize {
        match self {
            StreamShape::Bursty => {
                if t % 4 == 3 {
                    4
                } else {
                    1
                }
            }
            StreamShape::Diurnal => {
                const DAY: [usize; 8] = [1, 1, 2, 3, 4, 3, 2, 1];
                DAY[(t % 8) as usize]
            }
            StreamShape::Hub => 2,
        }
    }
}

/// Knobs for one streaming run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    pub shape: StreamShape,
    /// Driver ticks; each tick offers `shape.intensity(t)` batches and
    /// every second tick runs one RC step, so bursts genuinely queue.
    pub ticks: u64,
    /// New vertices per offered batch.
    pub batch: usize,
    /// Edges each new vertex attaches with.
    pub edges_per_vertex: usize,
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { shape: StreamShape::Hub, ticks: 24, batch: 6, edges_per_vertex: 2, seed: 42 }
    }
}

/// What one streaming run measured. Everything except `changes_per_sec`
/// is an exact function of (graph, config, engine code).
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    pub offered: u64,
    pub ticks: u64,
    /// Per-batch epoch staleness, sorted ascending.
    pub staleness: Vec<u64>,
    /// Peak backlog at tick boundaries: offered batches not yet
    /// reflected in a published epoch.
    pub peak_queue: u64,
    pub final_imbalance: f64,
    pub changes_per_sec: f64,
}

impl StreamOutcome {
    /// The `q`-quantile of the staleness distribution (0 when empty).
    pub fn staleness_quantile(&self, q: f64) -> u64 {
        percentile(&self.staleness, q)
    }

    /// The report's `stream` section. Every row is deterministic and gated
    /// except `changes_per_sec`, which the gate lists as wall-derived.
    pub fn section(&self) -> Section {
        Section::new(
            "stream",
            &[
                ("offered", self.offered as f64),
                ("ticks", self.ticks as f64),
                ("p99_staleness_epochs", self.staleness_quantile(0.99) as f64),
                ("max_staleness_epochs", self.staleness.last().copied().unwrap_or(0) as f64),
                ("peak_queue", self.peak_queue as f64),
                // ×1000 and rounded, so the gate diffs an integer.
                ("final_imbalance_milli", (self.final_imbalance * 1000.0).round()),
                ("changes_per_sec", self.changes_per_sec),
            ],
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// An adversarial hub-targeting batch: every new vertex attaches only to
/// the current highest-degree vertices (with a seed-rotated start so
/// consecutive batches are not literally identical). Under CutEdge-PS
/// each addition lands on whichever rank owns its hubs, concentrating
/// load there.
pub fn hub_batch(g: &AdjGraph, count: usize, edges_per_vertex: usize, seed: u64) -> VertexBatch {
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    let pool = by_degree.len().min((edges_per_vertex + 4).max(1));
    let hubs = &by_degree[..pool];
    let mut vertices = Vec::with_capacity(count);
    for i in 0..count {
        let want = edges_per_vertex.min(hubs.len());
        let start = (seed as usize + i) % hubs.len();
        let edges = (0..want).map(|j| (hubs[(start + j) % hubs.len()], 1)).collect();
        vertices.push(NewVertex { edges });
    }
    VertexBatch { vertices }
}

/// Drives the configured stream through `engine.submit`, stepping the
/// recombination loop on a fixed cadence, then drains the tail and
/// converges. Returns the measured outcome; the engine is left at its
/// converged fixed point so callers can compare answers across policies.
pub fn drive_stream(engine: &mut AnytimeEngine, cfg: &StreamConfig) -> StreamOutcome {
    let started = Instant::now();
    let mut offered = 0u64;
    let mut peak_queue = 0u64;
    // Submit epochs of batches not yet reflected in a published epoch.
    let mut outstanding: Vec<u64> = Vec::new();
    let mut staleness: Vec<u64> = Vec::new();
    let settle = |engine: &AnytimeEngine, outstanding: &mut Vec<u64>, out: &mut Vec<u64>| {
        if engine.pending_changes() == 0 {
            let now = engine.epochs_published();
            out.extend(outstanding.drain(..).map(|e| now.saturating_sub(e)));
        }
    };
    for t in 0..cfg.ticks {
        for i in 0..cfg.shape.intensity(t) {
            let seed = cfg.seed.wrapping_add(t * 17 + i as u64);
            let (batch, strategy) = match cfg.shape {
                StreamShape::Hub => (
                    hub_batch(engine.graph(), cfg.batch, cfg.edges_per_vertex, seed),
                    AssignStrategy::CutEdge { seed, tries: 1 },
                ),
                _ => (
                    preferential_batch(engine.graph(), cfg.batch, cfg.edges_per_vertex, seed),
                    AssignStrategy::RoundRobin,
                ),
            };
            let epoch = engine.epochs_published();
            engine
                .submit_with_strategy(DynamicChange::AddVertices(batch), strategy)
                .expect("stream batch submits");
            outstanding.push(epoch);
            offered += 1;
        }
        // Backlog = offered batches no published epoch reflects yet. The
        // coalescing log itself may hold fewer entries (same-strategy
        // batches fold), so this is the honest queue-pressure number.
        peak_queue = peak_queue.max(outstanding.len() as u64);
        // Step at half the offered cadence so bursts genuinely queue and
        // staleness has a distribution instead of a constant.
        if t % 2 == 1 {
            engine.rc_step();
            settle(engine, &mut outstanding, &mut staleness);
        }
    }
    while engine.pending_changes() > 0 {
        engine.rc_step();
    }
    settle(engine, &mut outstanding, &mut staleness);
    engine.run_to_convergence();
    staleness.sort_unstable();
    let wall = started.elapsed().as_secs_f64();
    StreamOutcome {
        offered,
        ticks: cfg.ticks,
        staleness,
        peak_queue,
        final_imbalance: vertex_balance(engine.partition()),
        changes_per_sec: if wall > 0.0 { offered as f64 / wall } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_core::{EngineConfig, RebalancePolicy};
    use aaa_graph::generators::{barabasi_albert, WeightModel};

    #[test]
    fn schedules_are_bounded() {
        for shape in StreamShape::ALL {
            for t in 0..32 {
                let k = shape.intensity(t);
                assert!((1..=4).contains(&k), "{shape:?} tick {t} offered {k}");
            }
        }
        // Bursty actually bursts; diurnal actually cycles.
        assert_eq!(StreamShape::Bursty.intensity(3), 4);
        assert_eq!(StreamShape::Bursty.intensity(0), 1);
        assert_ne!(StreamShape::Diurnal.intensity(0), StreamShape::Diurnal.intensity(4));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.5), 50);
    }

    #[test]
    fn hub_batches_target_the_hubs() {
        let g = barabasi_albert(80, 2, WeightModel::Unit, 3).unwrap();
        let hub = (0..80u32).max_by_key(|&v| g.degree(v)).unwrap();
        let hub_degree = g.degree(hub);
        let batch = hub_batch(&g, 10, 2, 5);
        assert_eq!(batch.len(), 10);
        for nv in &batch.vertices {
            assert_eq!(nv.edges.len(), 2);
            for &(t, _) in &nv.edges {
                assert!(
                    g.degree(t) * 3 >= hub_degree,
                    "target {t} (degree {}) is not hub-class (hub degree {hub_degree})",
                    g.degree(t)
                );
            }
        }
    }

    /// The acceptance property of the tentpole: under the adversarial
    /// hub stream the adaptive policy ends measurably less imbalanced
    /// than static, while the converged closeness stays byte-identical
    /// to the never-rebalanced oracle.
    #[test]
    fn adaptive_beats_static_on_hub_stream_with_identical_answers() {
        let g = barabasi_albert(90, 2, WeightModel::Unit, 8).unwrap();
        let stream = StreamConfig { ticks: 12, batch: 5, ..StreamConfig::default() };

        let mut static_engine =
            AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
        let static_out = drive_stream(&mut static_engine, &stream);

        let mut cfg = EngineConfig::deterministic(4);
        cfg.rebalance = RebalancePolicy::Adaptive;
        let mut adaptive_engine = AnytimeEngine::new(g, cfg).unwrap();
        let adaptive_out = drive_stream(&mut adaptive_engine, &stream);

        assert!(adaptive_engine.stats().migrations > 0, "rebalancer never fired");
        assert!(
            adaptive_out.final_imbalance < static_out.final_imbalance,
            "adaptive ({}) must beat static ({}) under the hub stream",
            adaptive_out.final_imbalance,
            static_out.final_imbalance
        );
        let a = adaptive_engine.closeness();
        let b = static_engine.closeness();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "rebalancing changed the answer");
        }
    }

    #[test]
    fn drive_stream_accounts_every_batch() {
        let g = barabasi_albert(60, 2, WeightModel::Unit, 2).unwrap();
        let mut engine = AnytimeEngine::new(g, EngineConfig::deterministic(3)).unwrap();
        let cfg = StreamConfig {
            shape: StreamShape::Bursty,
            ticks: 8,
            batch: 3,
            edges_per_vertex: 2,
            seed: 1,
        };
        let out = drive_stream(&mut engine, &cfg);
        let expected: u64 = (0..8).map(|t| cfg.shape.intensity(t) as u64).sum();
        assert_eq!(out.offered, expected);
        assert_eq!(out.staleness.len() as u64, out.offered, "every batch got a staleness sample");
        assert!(out.peak_queue >= 4, "the burst tick must queue (got {})", out.peak_queue);
        let section = out.section();
        let row = |name| section.get(name).expect(name);
        assert_eq!(row("offered"), out.offered as f64);
        assert!(row("max_staleness_epochs") >= row("p99_staleness_epochs"));
        assert!(row("final_imbalance_milli") >= 1000.0, "balance ratio is at least 1.0");
    }
}
