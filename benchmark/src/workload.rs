//! The four workloads: one pipeline (cold → checkpoint → waves → stream →
//! read → socket) run under four input configurations. Each workload makes
//! a different group of layers carry most of the time; see `README.md`.

use aaa_core::{BoundsMode, EngineConfig, MetricKind, WireFormat};
use aaa_runtime::ExecutionMode;

/// Input sizes and engine configuration of one workload.
///
/// Graphs are Barabási–Albert, m = 3, unit weights. The three section
/// groups each get a graph of their own size, so a workload can make one
/// group heavy without paying n³ for the other two.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Seed-derived graph instances per run. Every timed value is taken per
    /// instance and averaged over them, so the seed-to-seed variation of one
    /// random graph (±4 % in convergence work) averages down.
    pub instances: usize,
    /// Logical processors of the in-process engine.
    pub procs: usize,
    pub wire: WireFormat,
    /// Extra centrality columns each epoch carries.
    pub metrics: &'static [MetricKind],
    pub bounds: BoundsMode,
    /// Vertices of the static sections' graph (cold convergence, parallel
    /// cold convergence, checkpoint/restore).
    pub static_n: usize,
    /// Vertices of the wave sections' graph.
    pub wave_n: usize,
    /// Vertices of the graph the change stream starts from; the read phase
    /// runs on the view the stream ends on.
    pub stream_n: usize,
    /// Vertices of the socket sections' graph.
    pub net_n: usize,
    /// Waves absorbed one after the other under RoundRobin-PS, and their
    /// size.
    pub waves: usize,
    pub wave: usize,
    /// Vertices in the wave absorbed under Repartition-S.
    pub repart_wave: usize,
    /// Waves injected one per RC step under CutEdge-PS, and their size.
    pub incr_waves: usize,
    pub incr_wave: usize,
    /// Ticks of the closed-loop change stream (1,1,4 burst schedule).
    pub stream_ticks: usize,
    /// Rows served by the read phase per repetition.
    pub read_rows: u64,
}

/// Socket workers of the `net_*` sections: one per core of the 2-vCPU box.
pub const NET_WORKERS: usize = 2;

pub const ALL: [&str; 4] = ["cold_static", "wave_additions", "stream_serve", "net_cold"];

impl Workload {
    /// The measured configurations.
    pub fn full(name: &str) -> Option<Self> {
        // Every workload streams ≥ 240 changes per repetition (60 per
        // instance), so p90 has more than twenty samples beyond it, and
        // reads ≥ 1.6·10⁸ rows per repetition.
        Some(match name {
            // Largest static graph, light changes: the DV kernel and the
            // checkpoint codec carry half of every round.
            "cold_static" => Workload {
                name: "cold_static",
                instances: 4,
                procs: 16,
                wire: WireFormat::Full,
                metrics: &[],
                bounds: BoundsMode::None,
                static_n: 1200,
                wave_n: 600,
                stream_n: 300,
                net_n: 500,
                waves: 1,
                wave: 10,
                repart_wave: 40,
                incr_waves: 5,
                incr_wave: 3,
                stream_ticks: 30,
                read_rows: 40_000_000,
            },
            // The paper's Fig. 4–6/8 waves at their full absolute size on
            // the largest wave graph: strategies, grow/migrate and the
            // partitioner carry two thirds of every round.
            "wave_additions" => Workload {
                name: "wave_additions",
                instances: 4,
                procs: 16,
                wire: WireFormat::Full,
                metrics: &[],
                bounds: BoundsMode::None,
                static_n: 650,
                wave_n: 700,
                stream_n: 250,
                net_n: 500,
                waves: 3,
                wave: 20,
                repart_wave: 240,
                incr_waves: 10,
                incr_wave: 15,
                stream_ticks: 30,
                read_rows: 40_000_000,
            },
            // Rich serving configuration: delta wire, betweenness column,
            // certified bounds, the longest change stream and read phase.
            "stream_serve" => Workload {
                name: "stream_serve",
                instances: 4,
                procs: 4,
                wire: WireFormat::Delta,
                metrics: &[MetricKind::Betweenness],
                bounds: BoundsMode::Certified,
                static_n: 450,
                wave_n: 350,
                stream_n: 250,
                net_n: 400,
                waves: 1,
                wave: 10,
                repart_wave: 40,
                incr_waves: 5,
                incr_wave: 3,
                stream_ticks: 36,
                read_rows: 50_000_000,
            },
            // Two-worker deployment: the socket driver and frame codec carry
            // the largest graph. The in-process sections run P = 8: with
            // P = 2 a single cut decides the boundary size, and checkpoint
            // and repartition times moved by 8 % from seed to seed.
            "net_cold" => Workload {
                name: "net_cold",
                instances: 4,
                procs: 8,
                wire: WireFormat::Full,
                metrics: &[],
                bounds: BoundsMode::None,
                static_n: 700,
                wave_n: 500,
                stream_n: 200,
                net_n: 900,
                waves: 1,
                wave: 10,
                repart_wave: 40,
                incr_waves: 5,
                incr_wave: 3,
                stream_ticks: 30,
                read_rows: 40_000_000,
            },
            _ => return None,
        })
    }

    /// The same workload at n ≤ 200 for `tests/smoke.rs`.
    pub fn smoke(name: &str) -> Option<Self> {
        let w = Self::full(name)?;
        Some(Workload {
            instances: 2,
            static_n: w.static_n.min(160),
            wave_n: w.wave_n.min(120),
            stream_n: w.stream_n.min(120),
            net_n: w.net_n.min(160),
            wave: w.wave.min(8),
            repart_wave: w.repart_wave.min(24),
            incr_waves: 3,
            incr_wave: w.incr_wave.min(4),
            stream_ticks: 8,
            read_rows: 100_000,
            ..w
        })
    }

    /// Engine configuration: sequential ranks (one kernel thread) unless
    /// `parallel`, which only the traced run's `engine.cold_converge_par_s`
    /// asks for.
    pub fn engine_config(&self, parallel: bool) -> EngineConfig {
        let mut c = EngineConfig::with_procs(self.procs);
        c.cluster.mode = if parallel { ExecutionMode::Parallel } else { ExecutionMode::Sequential };
        c.wire = self.wire;
        c.publish_bounds = self.bounds;
        c.metrics = self.metrics.to_vec();
        c
    }
}
