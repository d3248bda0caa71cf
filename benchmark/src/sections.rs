//! The timed sections. Each one drives the program through its public API
//! only, starts from identical state on every repetition, and hands back
//! its outputs so the correctness gate runs outside the timed region.

use crate::inputs::{Instance, Query, TOP_K};
use crate::trace::Tracer;
use aaa_core::{
    run_worker, AnytimeEngine, AssignStrategy, EngineConfig, EventSink, NetConfig, NetOutcome,
    NetRunner, NoSupervisor, PublishedView, Snapshot, VertexBatch, WireFormat,
};
use aaa_graph::AdjGraph;
use aaa_runtime::{read_hello, Backoff, Hello, NetChaos, SocketTransport};
use aaa_serve::ServeHandle;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Optional program-side event sink (the traced run attaches a
/// `MemorySink`; the measured run passes `None`, i.e. `NoopSink`).
pub type Sink = Option<Arc<dyn EventSink>>;

pub struct ColdRun {
    pub engine: AnytimeEngine,
    pub total_s: f64,
    /// Clock and published view after construction (IA) and after every RC
    /// step: the anytime answers a user could have read at those times.
    pub marks: Vec<(f64, Arc<PublishedView>)>,
}

/// Static DD → IA → RC to the fixed point.
pub fn cold(graph: &AdjGraph, config: EngineConfig, sink: Sink, tr: &mut Tracer) -> ColdRun {
    let graph = graph.clone();
    let span = tr.begin("engine", "cold_converge");
    let started = Instant::now();
    let s = tr.begin("engine", "new");
    let mut engine = match sink {
        Some(sink) => AnytimeEngine::with_sink(graph, config, sink),
        None => AnytimeEngine::new(graph, config),
    }
    .expect("valid config");
    tr.end(s);
    let mut marks = vec![(started.elapsed().as_secs_f64(), engine.published())];
    loop {
        let s = tr.begin("engine", "rc_step");
        let more = engine.rc_step();
        tr.end(s);
        marks.push((started.elapsed().as_secs_f64(), engine.published()));
        if !more {
            break;
        }
    }
    let total_s = started.elapsed().as_secs_f64();
    tr.end(span);
    ColdRun { engine, total_s, marks }
}

/// One checkpoint → restore round trip of a converged engine; returns its
/// duration and the restored engine.
pub fn checkpoint_restore(
    engine: &mut AnytimeEngine,
    config: &EngineConfig,
    tr: &mut Tracer,
) -> (f64, AnytimeEngine) {
    let span = tr.begin("checkpoint", "checkpoint_restore");
    let started = Instant::now();
    let s = tr.begin("checkpoint", "checkpoint_bytes");
    let bytes = engine.checkpoint_bytes().expect("in-memory checkpoint");
    tr.end(s);
    let s = tr.begin("checkpoint", "restore");
    let restored = AnytimeEngine::restore(&bytes[..], config.clone()).expect("own image");
    tr.end(s);
    let secs = started.elapsed().as_secs_f64();
    tr.end(span);
    (secs, restored)
}

/// A converged engine restored from a set-up snapshot (untimed).
pub fn restored(converged: &Snapshot, config: EngineConfig, sink: Sink) -> AnytimeEngine {
    let mut engine = AnytimeEngine::from_snapshot(converged, config).expect("own snapshot");
    if let Some(sink) = sink {
        engine.set_sink(sink);
    }
    engine
}

/// Waves absorbed one after the other by a converged engine: each is
/// applied and the engine reconverges before the next.
pub fn absorb_waves(
    engine: &mut AnytimeEngine,
    waves: &[VertexBatch],
    strategy: AssignStrategy,
    tr: &mut Tracer,
) -> f64 {
    let span = tr.begin("engine", "absorb_waves");
    let started = Instant::now();
    for batch in waves {
        let s = tr.begin("strategies", "apply_vertex_additions");
        engine.apply_vertex_additions(batch, strategy).expect("generated batch is valid");
        tr.end(s);
        let s = tr.begin("engine", "run_to_convergence");
        engine.run_to_convergence();
        tr.end(s);
    }
    let secs = started.elapsed().as_secs_f64();
    tr.end(span);
    secs
}

/// Waves injected one per RC step under CutEdge-PS, then convergence (the
/// paper's Fig. 8 protocol).
pub fn absorb_incremental(
    engine: &mut AnytimeEngine,
    waves: &[VertexBatch],
    seed: u64,
    tr: &mut Tracer,
) -> f64 {
    let span = tr.begin("engine", "absorb_incremental");
    let started = Instant::now();
    for batch in waves {
        let s = tr.begin("strategies", "apply_vertex_additions");
        engine
            .apply_vertex_additions(batch, AssignStrategy::CutEdge { seed, tries: 0 })
            .expect("generated batch is valid");
        tr.end(s);
        let s = tr.begin("engine", "rc_step");
        engine.rc_step();
        tr.end(s);
    }
    let s = tr.begin("engine", "run_to_convergence");
    engine.run_to_convergence();
    tr.end(s);
    let secs = started.elapsed().as_secs_f64();
    tr.end(span);
    secs
}

pub struct StreamRun {
    pub wall_s: f64,
    /// Submit → visible latency of every change, in stream order.
    pub visible_ms: Vec<f64>,
    /// Published epoch observed after every drain and every RC step.
    pub epochs: Vec<u64>,
    pub submitted: u64,
    pub submit_failures: u64,
    /// Drains that returned with changes still pending.
    pub undrained: u64,
    /// Drains that applied changes without publishing a later epoch.
    pub silent_drains: u64,
}

/// Closed-loop change stream: each tick submits its burst, drains (the
/// drain publishes the epoch in which the burst is visible) and runs one RC
/// step; after the last tick the engine converges.
pub fn stream(engine: &mut AnytimeEngine, inst: &Instance, tr: &mut Tracer) -> StreamRun {
    let mut run = StreamRun {
        wall_s: 0.0,
        visible_ms: Vec::new(),
        epochs: vec![engine.epochs_published()],
        submitted: 0,
        submit_failures: 0,
        undrained: 0,
        silent_drains: 0,
    };
    let span = tr.begin("engine", "stream");
    let started = Instant::now();
    let mut in_flight: Vec<Instant> = Vec::with_capacity(4);
    for burst in &inst.stream {
        let s = tr.begin("ingest", "submit");
        for change in burst {
            in_flight.push(Instant::now());
            run.submitted += 1;
            if engine.submit(change.clone()).is_err() {
                run.submit_failures += 1;
            }
        }
        tr.end(s);
        let before = engine.epochs_published();
        let s = tr.begin("ingest", "drain_changes");
        let applied = engine.drain_changes().expect("validated at submit");
        tr.end(s);
        let visible = Instant::now();
        run.visible_ms.extend(in_flight.drain(..).map(|at| (visible - at).as_secs_f64() * 1e3));
        let after = engine.epochs_published();
        run.undrained += u64::from(engine.pending_changes() != 0);
        run.silent_drains += u64::from(applied > 0 && after <= before);
        run.epochs.push(after);
        let s = tr.begin("engine", "rc_step");
        engine.rc_step();
        tr.end(s);
        run.epochs.push(engine.epochs_published());
    }
    let s = tr.begin("engine", "run_to_convergence");
    engine.run_to_convergence();
    tr.end(s);
    run.wall_s = started.elapsed().as_secs_f64();
    tr.end(span);
    run.epochs.push(engine.epochs_published());
    run
}

/// Answers one query against a view; returns a value that depends on the
/// answer so the work cannot be optimised away.
#[inline]
fn answer(view: &PublishedView, q: &Query) -> f64 {
    match q {
        Query::Point(v) => view.point(*v).unwrap_or(0.0),
        Query::Points(ids) => view.points(ids).last().copied().flatten().unwrap_or(0.0),
        Query::TopK => view.top_k(TOP_K).last().map_or(0.0, |e| e.1),
        Query::Bound(v) => view.error_bound(*v).unwrap_or(0.0),
    }
}

/// Single-thread read phase: query bursts, one `handle.view()` per burst,
/// until `rows` rows were served. Returns its duration and the rows served
/// (a whole number of bursts, so the same for every repetition).
pub fn read(handle: &ServeHandle, inst: &Instance, rows: u64, tr: &mut Tracer) -> (f64, u64) {
    let span = tr.begin("serve", "read_phase");
    let started = Instant::now();
    let mut served = 0u64;
    let mut sink = 0.0f64;
    'outer: loop {
        for burst in &inst.queries {
            let view = handle.view();
            for q in burst {
                sink += answer(&view, black_box(q));
                served += q.rows();
            }
            if served >= rows {
                break 'outer;
            }
        }
    }
    black_box(sink);
    let secs = started.elapsed().as_secs_f64();
    tr.end(span);
    (secs, served)
}

pub struct NetRun {
    pub total_s: f64,
    pub init_s: f64,
    pub run_s: f64,
    pub rounds: u64,
    pub closeness: Vec<f64>,
}

/// Worker threads dial the coordinator over TCP loopback and run
/// `run_worker`; the coordinator accepts, initialises, drives rounds to
/// `Converged` and shuts down. Timed from bind to the last worker's exit.
pub fn net_converge(
    inst: &Instance,
    workers: usize,
    wire: WireFormat,
    sink: Sink,
    tr: &mut Tracer,
) -> NetRun {
    let span = tr.begin("net", "net_converge");
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound").to_string();
    let threads: Vec<_> = (0..workers as u32)
        .map(|rank| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let hello = Hello { rank, session: u64::from(rank) + 1, last_recv: 0 };
                let mut link = SocketTransport::dial(
                    &addr,
                    hello,
                    NetChaos::none(),
                    Backoff::default(),
                    40,
                    Duration::from_secs(10),
                )?;
                run_worker(&mut link, Duration::from_secs(60))
            })
        })
        .collect();
    let s = tr.begin("net", "accept");
    let mut slots: Vec<Option<SocketTransport>> = (0..workers).map(|_| None).collect();
    while slots.iter().any(Option::is_none) {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = read_hello(&mut stream, Duration::from_secs(10)).expect("hello");
        let rank = hello.rank as usize;
        slots[rank] =
            Some(SocketTransport::accept(stream, hello, NetChaos::none()).expect("handshake"));
    }
    let links: Vec<SocketTransport> = slots.into_iter().map(|l| l.expect("filled")).collect();
    tr.end(s);
    let config = NetConfig { wire, checkpoint_every: 0, ..NetConfig::default() };
    let mut runner = NetRunner::new(&inst.net_graph, inst.net_owner.clone(), links, config);
    if let Some(sink) = sink {
        runner.set_sink(sink);
    }
    let s = tr.begin("net", "init");
    let init_started = Instant::now();
    runner.init(&mut NoSupervisor).unwrap_or_else(|_| panic!("init degraded without faults"));
    let init_s = init_started.elapsed().as_secs_f64();
    tr.end(s);
    let s = tr.begin("net", "run");
    let run_started = Instant::now();
    let outcome = runner.run(&mut NoSupervisor);
    let run_s = run_started.elapsed().as_secs_f64();
    tr.end(s);
    let s = tr.begin("net", "shutdown");
    runner.shutdown();
    for t in threads {
        t.join().expect("worker thread panicked").expect("worker exited cleanly");
    }
    tr.end(s);
    let total_s = started.elapsed().as_secs_f64();
    tr.end(span);
    match outcome {
        NetOutcome::Converged(summary) => {
            NetRun { total_s, init_s, run_s, rounds: summary.rounds, closeness: summary.closeness }
        }
        NetOutcome::Degraded(report) => panic!("degraded without faults: {:?}", report.reason),
    }
}

/// Strategy seeds are part of the workload definition, not of the run seed.
pub const STRATEGY_SEED: u64 = 0;
