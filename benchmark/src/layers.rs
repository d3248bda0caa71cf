//! The traced run: every section once per instance with the harness's span
//! recorder around each call into a layer and the program's `MemorySink`
//! attached, plus isolated timings of single layers from direct calls.
//! Produces the per-layer metrics and the trace document; no end-to-end
//! number is taken here.

use crate::inputs::{instance_seed, Instance, Query, TOP_K};
use crate::measure::{bits_equal, check_stream, Gate, Oracle};
use crate::sections::{self, STRATEGY_SEED};
use crate::stats::{max, mean, median, quantile};
use crate::trace::Tracer;
use crate::workload::{Workload, NET_WORKERS};
use crate::Metric;
use aaa_checkpoint::Snapshot;
use aaa_core::baseline::restart_run;
use aaa_core::dv::{min_merge, relax_via};
use aaa_core::rank::{RankState, RowMsg, RowPayload};
use aaa_core::strategies::{cut_edge_assign, round_robin_assign};
use aaa_core::{
    AssignStrategy, IncBetweenness, MemorySink, Metric as _, MetricKind, NetMsg, SpanEvent,
    SpanKind, WireFormat,
};
use aaa_graph::sssp::dijkstra;
use aaa_graph::{Csr, Dist, VertexId};
use aaa_observe::{aggregate_phases, per_rank_busy, Json};
use aaa_partition::quality::new_cut_edges;
use aaa_partition::{cut_edges, vertex_balance, MultilevelPartitioner, Partition, Partitioner};
use aaa_serve::ServeHandle;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order. Times are means per
/// graph instance; counts are means per instance too.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("graph.generate_s", "s"),
    ("graph.sssp_us_per_source", "us"),
    ("graph.oracle_closeness_s", "s"),
    ("graph.community_batch_s", "s"),
    ("partition.multilevel_s", "s"),
    ("partition.edge_cut", "count"),
    ("partition.imbalance", "ratio"),
    ("partition.repartition_s", "s"),
    ("strategies.roundrobin_assign_us", "us"),
    ("strategies.cutedge_assign_s", "s"),
    ("strategies.new_cut_edges_rr", "count"),
    ("strategies.new_cut_edges_ce", "count"),
    ("rank.ia_s", "s"),
    ("rank.superstep_s", "s"),
    ("dv.relax_ns_per_cell", "ns"),
    ("dv.min_merge_gbps", "GB/s"),
    ("dv.memory_mb", "MB"),
    ("engine.dd_s", "s"),
    ("engine.rc_steps", "count"),
    ("engine.rc_step_p50_ms", "ms"),
    ("engine.cold_converge_par_s", "s"),
    ("engine.par_speedup", "ratio"),
    ("engine.restart_over_wave", "ratio"),
    ("runtime.supersteps", "count"),
    ("runtime.messages", "count"),
    ("runtime.bytes_mb", "MB"),
    ("runtime.sim_comm_s", "s"),
    ("runtime.sim_compute_s", "s"),
    ("runtime.rank_busy_max_over_mean", "ratio"),
    ("ingest.submitted", "count"),
    ("ingest.coalesced", "count"),
    ("ingest.drains", "count"),
    ("ingest.drain_s", "s"),
    ("ingest.visible_p95_ms", "ms"),
    ("publish.epochs", "count"),
    ("publish.full_epochs", "count"),
    ("publish.rows_per_epoch", "count"),
    ("publish.us_per_epoch_p50", "us"),
    ("publish.s_total", "s"),
    ("publish.chunks_copied", "count"),
    ("metric.betweenness_sources_recomputed", "count"),
    ("metric.full_recomputes", "count"),
    ("metric.update_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.bytes_mb", "MB"),
    ("serve.view_load_ns", "ns"),
    ("serve.point_ns", "ns"),
    ("serve.batched32_ns_per_row", "ns"),
    ("serve.topk10_ns", "ns"),
    ("serve.bound_ns", "ns"),
    ("serve.read_under_publish_ns", "ns"),
    ("net.rounds", "count"),
    ("net.init_s", "s"),
    ("net.run_s", "s"),
    ("net.msg_encode_mbps", "MB/s"),
    ("net.msg_decode_mbps", "MB/s"),
    ("observe.trace_overhead_pct", "%"),
];

/// Per-layer values, one push per instance that measured the metric.
#[derive(Default)]
struct Values(HashMap<&'static str, Vec<f64>>);

impl Values {
    fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    fn finish(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let values = self.0.get(name).unwrap_or_else(|| panic!("{name} never measured"));
                (name, mean(values), unit)
            })
            .collect()
    }
}

pub struct Traced {
    /// The CPU the run pinned itself to after the parallel section.
    pub pinned_cpu: Option<usize>,
    pub gate: Gate,
    pub metrics: Vec<Metric>,
    pub document: Json,
}

fn wall_s(events: &[SpanEvent], kind: SpanKind) -> f64 {
    events.iter().filter(|e| e.kind == kind).map(|e| e.wall_dur_us).sum::<f64>() / 1e6
}

fn wall_p50_us(events: &[SpanEvent], kind: SpanKind) -> f64 {
    let durs: Vec<f64> = events.iter().filter(|e| e.kind == kind).map(|e| e.wall_dur_us).collect();
    if durs.is_empty() {
        0.0
    } else {
        median(&durs)
    }
}

/// The program's own view of one section: `aggregate_phases` and
/// `per_rank_busy` over the events its `MemorySink` collected.
fn program_phases(section: &str, instance: usize, events: &[SpanEvent]) -> Json {
    let phases = aggregate_phases(events)
        .into_iter()
        .map(|p| {
            Json::Obj(vec![
                ("name".into(), Json::Str(p.name)),
                ("count".into(), Json::Num(p.count as f64)),
                ("wall_us".into(), Json::Num(p.wall_us)),
                ("sim_us".into(), Json::Num(p.sim_us)),
                ("messages".into(), Json::Num(p.messages as f64)),
                ("bytes".into(), Json::Num(p.bytes as f64)),
            ])
        })
        .collect();
    let ranks = per_rank_busy(events)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("rank".into(), Json::Num(r.rank as f64)),
                ("spans".into(), Json::Num(r.spans as f64)),
                ("wall_busy_us".into(), Json::Num(r.wall_busy_us)),
                ("sim_busy_us".into(), Json::Num(r.sim_busy_us)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("section".into(), Json::Str(section.into())),
        ("instance".into(), Json::Num(instance as f64)),
        ("phases".into(), Json::Arr(phases)),
        ("ranks".into(), Json::Arr(ranks)),
    ])
}

/// Times `f` over `iters` calls; returns ns per call.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_secs_f64() * 1e9 / iters as f64
}

struct Run<'a> {
    w: &'a Workload,
    tr: Tracer,
    gate: Gate,
    values: Values,
    program: Vec<Json>,
    /// Submit → visible latency of every change of every instance's stream.
    visible_ms: Vec<f64>,
}

impl Run<'_> {
    /// Cold convergence under `ExecutionMode::Parallel`: the one section
    /// with several kernel threads, so it runs before the run pins itself.
    fn parallel_cold(&mut self, i: usize, inst: &Instance, oracle: &Oracle) -> f64 {
        let par =
            sections::cold(&inst.static_graph, self.w.engine_config(true), None, &mut self.tr);
        self.gate.check(
            "parallel closeness == closeness_exact",
            i,
            bits_equal(&par.engine.closeness(), &oracle.static_graph),
        );
        self.values.push("engine.cold_converge_par_s", par.total_s);
        par.total_s
    }

    /// Static sections: cold convergence untraced and traced, checkpoint
    /// codec. `par_s` is what `parallel_cold` took on the same graph.
    fn static_sections(&mut self, i: usize, inst: &Instance, oracle: &Oracle, par_s: f64) {
        let (w, tr, v) = (self.w, &mut self.tr, &mut self.values);
        let seq = w.engine_config(false);

        let plain_s =
            sections::cold(&inst.static_graph, seq.clone(), None, &mut Tracer::new(false)).total_s;
        let sink = Arc::new(MemorySink::new());
        let mut cold = sections::cold(&inst.static_graph, seq.clone(), Some(sink.clone()), tr);
        let events = sink.drain();
        self.gate.check(
            "cold closeness == closeness_exact",
            i,
            bits_equal(&cold.engine.closeness(), &oracle.static_graph),
        );
        v.push("engine.par_speedup", plain_s / par_s);
        v.push("observe.trace_overhead_pct", (cold.total_s - plain_s) / plain_s * 100.0);
        v.push("rank.superstep_s", wall_s(&events, SpanKind::Superstep));
        v.push("engine.dd_s", wall_s(&events, SpanKind::DomainDecomposition));
        v.push("engine.rc_step_p50_ms", wall_p50_us(&events, SpanKind::RcStep) / 1e3);
        v.push("engine.rc_steps", cold.engine.rc_steps_done() as f64);
        let stats = cold.engine.stats();
        v.push("runtime.supersteps", stats.supersteps as f64);
        v.push("runtime.messages", stats.messages as f64);
        v.push("runtime.bytes_mb", stats.bytes as f64 / 1e6);
        v.push("runtime.sim_comm_s", stats.sim_comm_us / 1e6);
        v.push("runtime.sim_compute_s", stats.sim_compute_us / 1e6);
        let busy: Vec<f64> =
            per_rank_busy(&events).iter().filter(|r| r.rank >= 0).map(|r| r.wall_busy_us).collect();
        v.push("runtime.rank_busy_max_over_mean", max(&busy) / mean(&busy));
        self.program.push(program_phases("cold_converge", i, &events));

        // Checkpoint codec in isolation, then the engine-level round trip.
        let snap = cold.engine.snapshot();
        let rows: usize = snap.ranks.iter().map(|r| r.local.len() + r.cached.len()).sum();
        let row_bytes = inst.static_graph.num_vertices() * std::mem::size_of::<Dist>();
        v.push("dv.memory_mb", (rows * row_bytes) as f64 / 1e6);
        let s = tr.begin("checkpoint", "Snapshot::to_bytes");
        let bytes = snap.to_bytes().expect("in-memory encode");
        v.push("checkpoint.encode_s", tr.end(s));
        v.push("checkpoint.bytes_mb", bytes.len() as f64 / 1e6);
        let s = tr.begin("checkpoint", "Snapshot::from_bytes");
        let decoded = Snapshot::from_bytes(&bytes).expect("own image");
        v.push("checkpoint.decode_s", tr.end(s));
        self.gate.check("decoded snapshot == snapshot", i, decoded.ranks == snap.ranks);
        let (_, restored) = sections::checkpoint_restore(&mut cold.engine, &seq, tr);
        self.gate.check(
            "restored engine == checkpointed engine",
            i,
            bits_equal(&restored.closeness(), &cold.engine.closeness())
                && restored.distances() == cold.engine.distances(),
        );
    }

    /// Change sections: the three addition scenarios, the restart baseline,
    /// the stream with the program's sink attached, the read phase.
    fn change_sections(&mut self, i: usize, inst: &Instance, oracle: &Oracle) {
        let (w, tr, v) = (self.w, &mut self.tr, &mut self.values);
        let seq = w.engine_config(false);

        let mut engine = sections::restored(&inst.wave_converged, seq.clone(), None);
        let wave_s =
            sections::absorb_waves(&mut engine, &inst.waves, AssignStrategy::RoundRobin, tr);
        self.gate.check(
            "wave closeness == closeness_exact",
            i,
            bits_equal(&engine.closeness(), &oracle.after_wave),
        );
        let s = tr.begin("engine", "baseline::restart_run");
        let (restarted, _) = restart_run(&inst.after_wave, &seq).expect("valid config");
        v.push("engine.restart_over_wave", tr.end(s) / wave_s);
        self.gate.check(
            "restart closeness == closeness_exact",
            i,
            bits_equal(&restarted, &oracle.after_wave),
        );

        let mut engine = sections::restored(&inst.wave_converged, seq.clone(), None);
        let strategy = AssignStrategy::Repartition { seed: STRATEGY_SEED };
        sections::absorb_waves(&mut engine, std::slice::from_ref(&inst.repart_wave), strategy, tr);
        self.gate.check(
            "repartition closeness == closeness_exact",
            i,
            bits_equal(&engine.closeness(), &oracle.after_repart),
        );

        let mut engine = sections::restored(&inst.wave_converged, seq.clone(), None);
        sections::absorb_incremental(&mut engine, &inst.incr_waves, STRATEGY_SEED, tr);
        self.gate.check(
            "incremental closeness == closeness_exact",
            i,
            bits_equal(&engine.closeness(), &oracle.after_incr),
        );

        let sink = Arc::new(MemorySink::new());
        let mut engine =
            sections::restored(&inst.stream_converged, seq.clone(), Some(sink.clone()));
        let handle = ServeHandle::attach(&engine);
        let stream = sections::stream(&mut engine, inst, tr);
        let events = sink.drain();
        check_stream(&mut self.gate, i, &stream, &handle.view(), oracle);
        self.visible_ms.extend(&stream.visible_ms);
        let ingest = engine.ingest_stats();
        v.push("ingest.submitted", ingest.submitted as f64);
        v.push("ingest.coalesced", ingest.coalesced as f64);
        v.push("ingest.drains", ingest.drains as f64);
        v.push("ingest.drain_s", wall_s(&events, SpanKind::Drain));
        let publish = engine.publish_stats();
        v.push("publish.epochs", publish.epochs as f64);
        v.push("publish.full_epochs", publish.full_epochs as f64);
        v.push("publish.rows_per_epoch", publish.changed_rows as f64 / publish.epochs as f64);
        v.push("publish.chunks_copied", publish.chunks_copied as f64);
        v.push("publish.us_per_epoch_p50", wall_p50_us(&events, SpanKind::Publish));
        v.push("publish.s_total", wall_s(&events, SpanKind::Publish));
        let tally = engine.metric_tally(MetricKind::Betweenness).unwrap_or_default();
        v.push("metric.betweenness_sources_recomputed", tally.sources_recomputed as f64);
        v.push("metric.full_recomputes", tally.full_recomputes as f64);
        self.program.push(program_phases("stream", i, &events));

        // One full betweenness rebuild from the final rows, called directly.
        let dist = engine.distances();
        let n = dist.n();
        let rows: Vec<(VertexId, Vec<Dist>)> =
            (0..n as VertexId).map(|s| (s, dist.row(s).to_vec())).collect();
        let s = tr.begin("metric", "IncBetweenness::update");
        black_box(IncBetweenness::new().update(n, &rows, engine.graph()));
        v.push("metric.update_s", tr.end(s));

        sections::read(&handle, inst, w.read_rows, tr);
        serve_queries(&handle, inst, v);
        if i == 0 {
            drop(engine);
            v.push("serve.read_under_publish_ns", read_under_publish(w, inst));
        }
    }

    /// Socket sections, Full wire with the program's sink attached.
    fn net_sections(&mut self, i: usize, inst: &Instance, oracle: &Oracle) {
        let (tr, v) = (&mut self.tr, &mut self.values);
        let sink = Arc::new(MemorySink::new());
        let full =
            sections::net_converge(inst, NET_WORKERS, WireFormat::Full, Some(sink.clone()), tr);
        self.program.push(program_phases("net_converge", i, &sink.drain()));
        let delta = sections::net_converge(inst, NET_WORKERS, WireFormat::Delta, None, tr);
        for run in [&full, &delta] {
            self.gate.check(
                "socket closeness == in-process closeness",
                i,
                bits_equal(&run.closeness, &oracle.net_graph),
            );
        }
        v.push("net.rounds", full.rounds as f64);
        v.push("net.init_s", full.init_s);
        v.push("net.run_s", full.run_s);
    }

    /// Single layers timed from direct calls on one instance's inputs.
    fn isolated(&mut self, inst: &Instance) {
        let (w, tr, v) = (self.w, &mut self.tr, &mut self.values);
        let g = &inst.static_graph;
        let n = g.num_vertices();
        let csr = Csr::from_adj(g);

        let sources = n.min(256);
        let s = tr.begin("graph", "dijkstra");
        for source in 0..sources as VertexId {
            black_box(dijkstra(&csr, source));
        }
        v.push("graph.sssp_us_per_source", tr.end(s) * 1e6 / sources as f64);

        let s = tr.begin("partition", "multilevel");
        let part = MultilevelPartitioner::seeded(0).partition(g, w.procs).expect("k ≤ n");
        v.push("partition.multilevel_s", tr.end(s));
        v.push("partition.edge_cut", cut_edges(g, &part) as f64);
        v.push("partition.imbalance", vertex_balance(&part));
        let s = tr.begin("partition", "multilevel_repartition");
        black_box(
            MultilevelPartitioner::seeded(STRATEGY_SEED)
                .partition(&inst.after_repart, w.procs)
                .expect("k ≤ n"),
        );
        v.push("partition.repartition_s", tr.end(s));

        // Assignment strategies on the large wave, against the partition
        // the change graph converged under (the paper's Fig. 7 counts).
        let batch = &inst.repart_wave;
        let base = inst.wave_graph.num_vertices() as VertexId;
        let edges: Vec<(VertexId, VertexId)> =
            batch.global_edges(base).iter().map(|&(a, b, _)| (a, b)).collect();
        let initial = Partition::new(inst.wave_converged.partition.assignment.clone(), w.procs)
            .expect("valid");
        let iters = 1000;
        let rr_ns = ns_per_call(iters, |i| {
            black_box(round_robin_assign(batch.len(), w.procs, i % w.procs));
        });
        v.push("strategies.roundrobin_assign_us", rr_ns / 1e3);
        let s = tr.begin("strategies", "cut_edge_assign");
        let ce = cut_edge_assign(batch, base, w.procs, STRATEGY_SEED, 4).expect("valid batch");
        v.push("strategies.cutedge_assign_s", tr.end(s));
        let extended = |owners: Vec<u32>| {
            let mut p = initial.clone();
            p.extend(owners).expect("owners below k");
            new_cut_edges(&p, &edges) as f64
        };
        v.push(
            "strategies.new_cut_edges_rr",
            extended(round_robin_assign(batch.len(), w.procs, 0)),
        );
        v.push("strategies.new_cut_edges_ce", extended(ce));

        // IA: per-source Dijkstra inside every rank's sub-graph.
        let owner = part.assignment().to_vec();
        let mut ranks: Vec<RankState> = (0..w.procs)
            .map(|r| RankState::build(r, owner.clone(), |x| g.neighbors(x).to_vec()))
            .collect();
        let s = tr.begin("rank", "initial_approximation");
        for rank in &mut ranks {
            rank.initial_approximation();
        }
        v.push("rank.ia_s", tr.end(s));

        // The two DV kernels on fixed rows of the workload's row length.
        let via: Vec<Dist> = dijkstra(&csr, 0);
        let src: Vec<Dist> = dijkstra(&csr, 1);
        let mut row = vec![aaa_graph::INF; n];
        let iters = 20_000;
        let ns = ns_per_call(iters, |i| {
            black_box(relax_via(black_box(&mut row), 1 + (i % 3) as Dist, black_box(&via)));
        });
        v.push("dv.relax_ns_per_cell", ns / n as f64);
        let ns = ns_per_call(iters, |_| {
            black_box(min_merge(black_box(&mut row), black_box(&src)));
        });
        // Computed bytes: one row read, one row read and written.
        v.push("dv.min_merge_gbps", (2 * n * std::mem::size_of::<Dist>()) as f64 / ns);

        // Frame codec on a bundle of full rows of the socket graph's length.
        let net_row: Vec<Dist> = dijkstra(&Csr::from_adj(&inst.net_graph), 0);
        let rows = (0..64).map(|x| (x, RowPayload::Full(net_row.clone()))).collect();
        let msg = NetMsg::Rows { round: 1, peer: 0, msg: RowMsg { rows } };
        let encoded = msg.encode();
        let iters = 200;
        let ns = ns_per_call(iters, |_| {
            black_box(black_box(&msg).encode());
        });
        v.push("net.msg_encode_mbps", encoded.len() as f64 / ns * 1e3);
        let ns = ns_per_call(iters, |_| {
            black_box(NetMsg::decode(black_box(&encoded)).expect("own frame"));
        });
        v.push("net.msg_decode_mbps", encoded.len() as f64 / ns * 1e3);
    }
}

/// ns per query of each kind against the view the stream ended on.
fn serve_queries(handle: &ServeHandle, inst: &Instance, v: &mut Values) {
    let view = handle.view();
    let n = view.num_vertices() as VertexId;
    let ids: Vec<VertexId> = inst
        .queries
        .iter()
        .flatten()
        .find_map(|q| match q {
            Query::Points(ids) => Some(ids.clone()),
            _ => None,
        })
        .expect("the query cycle holds batched lookups");
    let iters = 100_000;
    v.push(
        "serve.view_load_ns",
        ns_per_call(iters, |_| {
            black_box(handle.view());
        }),
    );
    v.push(
        "serve.point_ns",
        ns_per_call(iters, |i| {
            black_box(view.point(i as VertexId % n));
        }),
    );
    v.push(
        "serve.bound_ns",
        ns_per_call(iters, |i| {
            black_box(view.error_bound(i as VertexId % n));
        }),
    );
    v.push(
        "serve.topk10_ns",
        ns_per_call(iters, |_| {
            black_box(view.top_k(TOP_K));
        }),
    );
    let per_batch = ns_per_call(iters / 10, |_| {
        black_box(view.points(black_box(&ids)));
    });
    v.push("serve.batched32_ns_per_row", per_batch / ids.len() as f64);
}

/// ns per `point` query of one reader thread while the stream runs on the
/// main thread (two busy threads on two vCPUs: informational only).
fn read_under_publish(w: &Workload, inst: &Instance) -> f64 {
    let mut engine = sections::restored(&inst.stream_converged, w.engine_config(false), None);
    let handle = ServeHandle::attach(&engine);
    let stop = Arc::new(AtomicBool::new(false));
    let n = inst.stream_graph.num_vertices() as VertexId;
    let reader = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for v in 0..64 {
                    black_box(handle.point((served as VertexId + v) % n));
                }
                served += 64;
            }
            started.elapsed().as_secs_f64() * 1e9 / served as f64
        })
    };
    sections::stream(&mut engine, inst, &mut Tracer::new(false));
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread panicked")
}

pub fn run(w: &Workload, seed: u64) -> Traced {
    let mut run = Run {
        w,
        tr: Tracer::new(true),
        gate: Gate::default(),
        values: Values::default(),
        program: Vec::new(),
        visible_ms: Vec::new(),
    };
    let mut inputs = Vec::with_capacity(w.instances);
    for i in 0..w.instances {
        run.tr.instance = i;
        let inst = Instance::generate(w, instance_seed(seed, i), &mut run.tr);
        let oracle = Oracle::compute(w, &inst, &mut run.tr);
        let par_s = run.parallel_cold(i, &inst, &oracle);
        inputs.push((inst, oracle, par_s));
    }
    // From here on the run is pinned exactly as the untraced run is.
    let pinned_cpu = crate::affinity::pin_to_current_cpu();
    for (i, (inst, oracle, par_s)) in inputs.iter().enumerate() {
        run.tr.instance = i;
        run.static_sections(i, inst, oracle, *par_s);
        run.change_sections(i, inst, oracle);
        run.net_sections(i, inst, oracle);
    }
    run.values.push("ingest.visible_p95_ms", quantile(&run.visible_ms, 0.95));
    run.tr.instance = 0;
    run.isolated(&inputs[0].0);
    for (metric, layer, name) in [
        ("graph.generate_s", "graph", "barabasi_albert"),
        ("graph.community_batch_s", "graph", "community_batch"),
        ("graph.oracle_closeness_s", "graph", "closeness_exact"),
    ] {
        let per_instance = run.tr.mean_per_instance_s(layer, name);
        run.values.push(metric, per_instance);
    }

    let mut document = match run.tr.to_json(w.name, seed) {
        Json::Obj(fields) => fields,
        _ => unreachable!("the trace document is an object"),
    };
    document.push(("program".into(), Json::Arr(run.program)));
    Traced {
        pinned_cpu,
        gate: run.gate,
        metrics: run.values.finish(),
        document: Json::Obj(document),
    }
}
