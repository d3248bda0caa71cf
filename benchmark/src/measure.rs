//! The untraced run: set-up, warm-up round, timed rounds, correctness gate.
//! Every end-to-end number comes from here (`NoopSink`, disabled tracer).

use crate::inputs::{instance_seed, Instance};
use crate::sections::{self, STRATEGY_SEED};
use crate::stats::{median, quantile, Section};
use crate::trace::Tracer;
use crate::workload::{Workload, NET_WORKERS};
use aaa_core::{
    AnytimeEngine, AssignStrategy, EngineConfig, MetricKind, PublishedView, WireFormat,
};
use aaa_graph::centrality::betweenness_exact_det;
use aaa_graph::closeness::{closeness_exact, mean_relative_error};
use aaa_graph::{AdjGraph, Csr};
use aaa_serve::ServeHandle;
use std::time::Instant;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Timed rounds: at least this many, however slow the box.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 8;
/// Mean relative closeness error that counts as "a usable answer".
pub const USABLE_ERROR: f64 = 0.01;

/// Counts every change submitted and every correctness check.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, what: &str, instance: usize, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what} (instance {instance})");
        }
    }
}

pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn exact(g: &AdjGraph) -> Vec<f64> {
    closeness_exact(&Csr::from_adj(g))
}

/// Reference answers of one instance, from the independent oracles.
pub struct Oracle {
    pub static_graph: Vec<f64>,
    pub net_graph: Vec<f64>,
    pub after_wave: Vec<f64>,
    pub after_repart: Vec<f64>,
    pub after_incr: Vec<f64>,
    pub after_stream: Vec<f64>,
    /// Present when the workload maintains a betweenness column.
    pub stream_betweenness: Option<Vec<f64>>,
}

impl Oracle {
    pub fn compute(w: &Workload, inst: &Instance, tr: &mut Tracer) -> Self {
        let s = tr.begin("graph", "closeness_exact");
        let static_graph = exact(&inst.static_graph);
        tr.end(s);
        Oracle {
            static_graph,
            net_graph: exact(&inst.net_graph),
            after_wave: exact(&inst.after_wave),
            after_repart: exact(&inst.after_repart),
            after_incr: exact(&inst.after_incr),
            after_stream: exact(&inst.after_stream),
            stream_betweenness: w
                .metrics
                .contains(&MetricKind::Betweenness)
                .then(|| betweenness_exact_det(&Csr::from_adj(&inst.after_stream))),
        }
    }
}

/// Everything a run needs before its first timed section.
struct Setup {
    instances: Vec<Instance>,
    oracles: Vec<Oracle>,
    /// Duration of every set-up pass.
    passes: Vec<f64>,
}

/// Sets the run up `SETUP_PASSES` times — every input, and the untimed
/// convergences the change sections start from — and keeps the last. The
/// oracles are the harness's own verification and are computed once,
/// outside the passes.
fn setup(w: &Workload, seed: u64) -> Setup {
    let mut tr = Tracer::new(false);
    let mut passes = Vec::with_capacity(SETUP_PASSES);
    let mut instances = Vec::new();
    for _ in 0..SETUP_PASSES {
        // Free the previous pass first, so passes do not stack in memory.
        instances.clear();
        let started = Instant::now();
        instances.extend(
            (0..w.instances).map(|i| Instance::generate(w, instance_seed(seed, i), &mut tr)),
        );
        passes.push(started.elapsed().as_secs_f64());
    }
    let oracles = instances.iter().map(|inst| Oracle::compute(w, inst, &mut tr)).collect();
    Setup { instances, oracles, passes }
}

/// All timed sections of a run.
pub struct Sections {
    pub cold: Section,
    pub to_usable: Section,
    pub ckpt: Section,
    pub wave: Section,
    pub repart: Section,
    pub incr: Section,
    pub stream_wall: Section,
    pub read: Section,
    pub net_full: Section,
    pub net_delta: Section,
    /// Per repetition: the submit → visible latency of every change of
    /// every instance's stream.
    pub visible_ms: Vec<Vec<f64>>,
    /// Changes streamed by one repetition.
    pub changes: u64,
    /// Rows each instance's read phase serves.
    pub rows: Vec<u64>,
}

impl Sections {
    fn new(instances: &[Instance]) -> Self {
        let s = || Section::new(instances.len());
        Sections {
            cold: s(),
            to_usable: s(),
            ckpt: s(),
            wave: s(),
            repart: s(),
            incr: s(),
            stream_wall: s(),
            read: s(),
            net_full: s(),
            net_delta: s(),
            visible_ms: Vec::new(),
            changes: instances.iter().flat_map(|i| &i.stream).map(|burst| burst.len() as u64).sum(),
            rows: vec![0; instances.len()],
        }
    }

    pub fn named(&self) -> [(&'static str, &Section); 10] {
        [
            ("cold_converge", &self.cold),
            ("time_to_1pct", &self.to_usable),
            ("checkpoint_restore", &self.ckpt),
            ("wave_absorb", &self.wave),
            ("repartition_absorb", &self.repart),
            ("incremental_absorb", &self.incr),
            ("stream", &self.stream_wall),
            ("read", &self.read),
            ("net_converge", &self.net_full),
            ("net_converge_delta", &self.net_delta),
        ]
    }

    /// The latency quantile of every repetition.
    pub fn visible_quantiles(&self, q: f64) -> Vec<f64> {
        self.visible_ms.iter().map(|rep| quantile(rep, q)).collect()
    }
}

/// What one pass through the pipeline on one instance measured.
struct Pass {
    cold_s: f64,
    usable_s: f64,
    ckpt_s: f64,
    wave_s: f64,
    repart_s: f64,
    incr_s: f64,
    stream_wall_s: f64,
    visible_ms: Vec<f64>,
    read_s: f64,
    rows: u64,
    net_full_s: f64,
    net_delta_s: f64,
}

impl Sections {
    /// Files the pass of instance `i` under the current repetition.
    fn record(&mut self, i: usize, pass: Pass) {
        self.cold.push(i, pass.cold_s);
        self.to_usable.push(i, pass.usable_s);
        self.ckpt.push(i, pass.ckpt_s);
        self.wave.push(i, pass.wave_s);
        self.repart.push(i, pass.repart_s);
        self.incr.push(i, pass.incr_s);
        self.stream_wall.push(i, pass.stream_wall_s);
        self.read.push(i, pass.read_s);
        self.net_full.push(i, pass.net_full_s);
        self.net_delta.push(i, pass.net_delta_s);
        self.visible_ms.last_mut().expect("a repetition is open").extend(pass.visible_ms);
        self.rows[i] = pass.rows;
    }
}

/// One addition scenario: a converged engine restored from the set-up
/// snapshot (untimed), the timed `absorb`, then the check against `want`.
fn absorbed(
    inst: &Instance,
    config: &EngineConfig,
    (what, i, want): (&str, usize, &[f64]),
    gate: &mut Gate,
    absorb: impl FnOnce(&mut AnytimeEngine) -> f64,
) -> f64 {
    let mut engine = sections::restored(&inst.wave_converged, config.clone(), None);
    let secs = absorb(&mut engine);
    gate.check(what, i, bits_equal(&engine.closeness(), want));
    secs
}

/// The checks every change stream must pass, whichever run drove it.
pub fn check_stream(
    gate: &mut Gate,
    i: usize,
    stream: &sections::StreamRun,
    view: &PublishedView,
    oracle: &Oracle,
) {
    gate.attempted += stream.submitted;
    gate.failed += stream.submit_failures;
    gate.check(
        "stream closeness == closeness_exact",
        i,
        bits_equal(&view.closeness(), &oracle.after_stream),
    );
    gate.check("final stream view is converged", i, view.converged);
    if let Some(want) = &oracle.stream_betweenness {
        let got = view.metric_values(MetricKind::Betweenness).unwrap_or_default();
        gate.check("stream betweenness == betweenness_exact_det", i, bits_equal(&got, want));
    }
    gate.check("every drain leaves pending_changes() == 0", i, stream.undrained == 0);
    gate.check("every applying drain publishes a later epoch", i, stream.silent_drains == 0);
    gate.check(
        "epochs never decrease and strictly increase across RC steps",
        i,
        stream.epochs.windows(2).all(|p| p[0] <= p[1])
            && stream.epochs[1..].chunks_exact(2).all(|p| p[0] < p[1]),
    );
}

/// Runs every section once on instance `i`, checking every output.
fn pass(w: &Workload, i: usize, inst: &Instance, oracle: &Oracle, gate: &mut Gate) -> Pass {
    let tr = &mut Tracer::new(false);
    let seq = w.engine_config(false);

    // Cold convergence, then checkpoint/restore of the converged engine.
    let mut cold = sections::cold(&inst.static_graph, seq.clone(), None, tr);
    let usable = cold
        .marks
        .iter()
        .find(|(_, view)| {
            mean_relative_error(&view.closeness(), &oracle.static_graph) <= USABLE_ERROR
        })
        .map(|(at, _)| *at);
    gate.check(
        "cold closeness == closeness_exact",
        i,
        bits_equal(&cold.engine.closeness(), &oracle.static_graph),
    );
    gate.check("a view within 1 % was published", i, usable.is_some());
    let (ckpt_s, restored) = sections::checkpoint_restore(&mut cold.engine, &seq, tr);
    gate.check(
        "restored engine == checkpointed engine",
        i,
        restored.rc_steps_done() == cold.engine.rc_steps_done()
            && bits_equal(&restored.closeness(), &cold.engine.closeness())
            && restored.distances() == cold.engine.distances(),
    );
    drop(restored);
    let cold_s = cold.total_s;
    drop(cold);

    // The three addition scenarios.
    let check = ("wave closeness == closeness_exact", i, &oracle.after_wave[..]);
    let wave_s = absorbed(inst, &seq, check, gate, |e| {
        sections::absorb_waves(e, &inst.waves, AssignStrategy::RoundRobin, tr)
    });
    let check = ("repartition closeness == closeness_exact", i, &oracle.after_repart[..]);
    let repart_s = absorbed(inst, &seq, check, gate, |e| {
        let strategy = AssignStrategy::Repartition { seed: STRATEGY_SEED };
        sections::absorb_waves(e, std::slice::from_ref(&inst.repart_wave), strategy, tr)
    });
    let check = ("incremental closeness == closeness_exact", i, &oracle.after_incr[..]);
    let incr_s = absorbed(inst, &seq, check, gate, |e| {
        sections::absorb_incremental(e, &inst.incr_waves, STRATEGY_SEED, tr)
    });

    // Change stream, then the read phase on the view it ends on.
    let mut engine = sections::restored(&inst.stream_converged, seq.clone(), None);
    let handle = ServeHandle::attach(&engine);
    let stream = sections::stream(&mut engine, inst, tr);
    check_stream(gate, i, &stream, &handle.view(), oracle);
    let (read_s, rows) = sections::read(&handle, inst, w.read_rows, tr);
    drop(engine);

    // The socket deployment, Full then Delta wire.
    let mut net = |wire: WireFormat| {
        let run = sections::net_converge(inst, NET_WORKERS, wire, None, tr);
        gate.check(
            "socket closeness == in-process closeness",
            i,
            bits_equal(&run.closeness, &oracle.net_graph),
        );
        run.total_s
    };
    let net_full_s = net(WireFormat::Full);
    let net_delta_s = net(WireFormat::Delta);

    Pass {
        cold_s,
        usable_s: usable.unwrap_or(cold_s),
        ckpt_s,
        wave_s,
        repart_s,
        incr_s,
        stream_wall_s: stream.wall_s,
        visible_ms: stream.visible_ms,
        read_s,
        rows,
        net_full_s,
        net_delta_s,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Measured {
    /// The CPU the run pinned itself to, if the platform allowed it.
    pub pinned_cpu: Option<usize>,
    pub setup_passes: Vec<f64>,
    pub sections: Sections,
    pub rounds: usize,
    pub peak_rss_mb: f64,
    pub gate: Gate,
}

impl Measured {
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_passes)
    }
}

/// One untraced run: set-up, one warm-up pass, then timed rounds (a pass on
/// every instance) while another fits before `deadline`, never fewer than
/// `MIN_ROUNDS`.
pub fn run(w: &Workload, seed: u64, deadline: Instant) -> Measured {
    let pinned_cpu = crate::affinity::pin_to_current_cpu();
    let Setup { instances, oracles, passes: setup_passes } = setup(w, seed);
    let mut sections = Sections::new(&instances);
    let mut gate = Gate::default();

    // Warm-up: the first pass through the pipeline in a process pays for
    // heap growth and page faults (+20 % in sizing runs), whatever the graph.
    // The peak resident set is read when it ends: set-up plus one pass is
    // what the program needs; from the second pass on the high-water mark
    // also counts what the allocator happened to keep from earlier passes
    // (cold_static: 121–124 MB here, 141–160 MB at exit).
    pass(w, 0, &instances[0], &oracles[0], &mut gate);
    let peak_rss_mb = peak_rss_mb();
    let mut rounds = 0;
    loop {
        let round_started = Instant::now();
        sections.visible_ms.push(Vec::new());
        for (i, (inst, oracle)) in instances.iter().zip(&oracles).enumerate() {
            let measured = pass(w, i, inst, oracle, &mut gate);
            sections.record(i, measured);
        }
        rounds += 1;
        let fits = Instant::now() + round_started.elapsed() <= deadline;
        if rounds >= MAX_ROUNDS || (rounds >= MIN_ROUNDS && !fits) {
            break;
        }
    }
    Measured { pinned_cpu, setup_passes, sections, rounds, peak_rss_mb, gate }
}
