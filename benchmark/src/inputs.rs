//! Set-up: everything a run needs before the first timed section, generated
//! from the seed alone. The program under test only ever sees these inputs.

use crate::trace::Tracer;
use crate::workload::{Workload, NET_WORKERS};
use aaa_core::changes::{community_batch, preferential_batch, CommunityBatchParams, VertexBatch};
use aaa_core::{AnytimeEngine, DynamicChange, Snapshot};
use aaa_graph::generators::{barabasi_albert, WeightModel};
use aaa_graph::{AdjGraph, PartId, VertexId};
use aaa_partition::{MultilevelPartitioner, Partitioner};
use aaa_runtime::mix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One query of the read phase.
#[derive(Debug, Clone)]
pub enum Query {
    Point(VertexId),
    /// Batched lookup of 32 ids.
    Points(Vec<VertexId>),
    TopK,
    Bound(VertexId),
}

impl Query {
    /// Rows the query serves.
    pub fn rows(&self) -> u64 {
        match self {
            Query::Point(_) | Query::Bound(_) => 1,
            Query::Points(ids) => ids.len() as u64,
            Query::TopK => TOP_K as u64,
        }
    }
}

pub const TOP_K: usize = 10;
/// Queries answered against one `handle.view()`.
pub const BURST: usize = 64;
/// Bursts in the pre-generated query cycle.
const BURSTS: usize = 128;

/// One seed-derived problem instance.
pub struct Instance {
    /// Graph of the static sections (cold convergence, checkpoint).
    pub static_graph: AdjGraph,
    /// Graph of the wave sections and the engine converged on it: the
    /// starting state of every addition scenario.
    pub wave_graph: AdjGraph,
    pub wave_converged: Snapshot,
    /// Waves absorbed one after the other under RoundRobin-PS.
    pub waves: Vec<VertexBatch>,
    pub repart_wave: VertexBatch,
    pub incr_waves: Vec<VertexBatch>,
    /// `wave_graph` after each of the three addition scenarios, built here
    /// independently of the engine: the oracles are computed on these.
    pub after_wave: AdjGraph,
    pub after_repart: AdjGraph,
    pub after_incr: AdjGraph,
    /// Graph the change stream starts from and the engine converged on it.
    pub stream_graph: AdjGraph,
    pub stream_converged: Snapshot,
    /// The change stream, one burst per tick, valid in order against
    /// `stream_graph`, and the graph it ends on.
    pub stream: Vec<Vec<DynamicChange>>,
    pub after_stream: AdjGraph,
    /// Graph of the socket sections and its multilevel 2-way ownership.
    pub net_graph: AdjGraph,
    pub net_owner: Vec<PartId>,
    /// The read phase's query cycle, `BURST` queries per burst, drawn over
    /// the vertex range of `after_stream`.
    pub queries: Vec<Vec<Query>>,
}

/// Community-structured addition batch, the paper's Louvain extraction
/// protocol (§V.B.2) as the figure binaries configure it.
fn addition_batch(graph: &AdjGraph, count: usize, seed: u64) -> VertexBatch {
    let params = CommunityBatchParams {
        count,
        community_size: (count / 8).clamp(5, 60),
        attach_edges: 2,
        seed,
        ..Default::default()
    };
    community_batch(graph, &params).0
}

fn extend_graph(graph: &mut AdjGraph, batch: &VertexBatch) {
    let base = graph.num_vertices() as VertexId;
    graph.add_vertices(batch.len());
    for (a, b, w) in batch.global_edges(base) {
        graph.add_edge(a, b, w).expect("generated batch is valid");
    }
}

/// The i-th edge of the graph in iteration order.
fn nth_edge(g: &AdjGraph, i: usize) -> (VertexId, VertexId) {
    let (u, v, _) = g.edges().nth(i).expect("index below num_edges");
    (u, v)
}

/// The kinds of change in the stream.
#[derive(Clone, Copy)]
enum ChangeKind {
    AddVertex,
    AddEdge,
    RemoveEdge,
    Reweight,
}

/// Closed-loop change stream on the 1,1,4 burst schedule: 30 % one-vertex
/// additions with 2 preferential edges, 30 % edge additions, 20 % edge
/// removals, 20 % weight increases, each generated against the graph as the
/// changes before it leave it. The kind of every change is fixed by its
/// position (the pattern below, cycled), so every seed streams the same mix
/// in the same order and only the targets vary: visible latency is bimodal
/// (relaxations vs partial restarts), and a sampled mix moves the share of
/// each mode — and with it p50 — by 25 % from seed to seed. For the same
/// reason two thirds of the changes arrive in bursts of four, which become
/// visible together when their drain ends: on a 1,1,1,4 schedule that share
/// is 57 %, the median sits on the edge between the single-change and the
/// burst mode, and it moved by 13 % from seed to seed.
fn change_stream(graph: &AdjGraph, ticks: usize, seed: u64) -> (Vec<Vec<DynamicChange>>, AdjGraph) {
    use ChangeKind::*;
    const PATTERN: [ChangeKind; 10] = [
        AddVertex, AddEdge, RemoveEdge, AddVertex, AddEdge, Reweight, AddVertex, AddEdge,
        RemoveEdge, Reweight,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bursts = (0..ticks).map(|tick| if tick % 3 == 2 { 4 } else { 1 });
    let mut kinds = PATTERN.iter().copied().cycle();

    let mut g = graph.clone();
    let mut stream = Vec::with_capacity(ticks);
    for burst in bursts {
        let mut changes = Vec::with_capacity(burst);
        for kind in kinds.by_ref().take(burst) {
            let n = g.num_vertices() as VertexId;
            changes.push(match kind {
                AddVertex => {
                    let batch = preferential_batch(&g, 1, 2, rng.gen_range(0..u64::MAX));
                    extend_graph(&mut g, &batch);
                    DynamicChange::AddVertices(batch)
                }
                AddEdge => loop {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v && !g.has_edge(u, v) {
                        g.add_edge(u, v, 1).expect("checked absent");
                        break DynamicChange::AddEdge { u, v, w: 1 };
                    }
                },
                RemoveEdge => {
                    let (u, v) = nth_edge(&g, rng.gen_range(0..g.num_edges()));
                    g.remove_edge(u, v).expect("edge exists");
                    DynamicChange::RemoveEdge { u, v }
                }
                Reweight => {
                    let (u, v) = nth_edge(&g, rng.gen_range(0..g.num_edges()));
                    let w = g.edge_weight(u, v).expect("edge exists") + 1;
                    g.set_weight(u, v, w).expect("edge exists");
                    DynamicChange::SetWeight { u, v, w }
                }
            });
        }
        stream.push(changes);
    }
    (stream, g)
}

/// Read mix: 40 % `point`, 40 % `points` of 32, 10 % `top_k(10)`, 10 %
/// `error_bound`.
fn query_cycle(n: usize, seed: u64) -> Vec<Vec<Query>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = n as VertexId;
    (0..BURSTS)
        .map(|_| {
            (0..BURST)
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=3 => Query::Point(rng.gen_range(0..n)),
                    4..=7 => Query::Points((0..32).map(|_| rng.gen_range(0..n)).collect()),
                    8 => Query::TopK,
                    _ => Query::Bound(rng.gen_range(0..n)),
                })
                .collect()
        })
        .collect()
}

/// Seed of instance `i` of a run.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    mix64(seed, &[i as u64])
}

/// The engine converged on `graph` under the workload's configuration
/// (untimed): the state every repetition of a change section restores.
fn converge(w: &Workload, graph: &AdjGraph) -> Snapshot {
    let mut engine =
        AnytimeEngine::new(graph.clone(), w.engine_config(false)).expect("valid config");
    let summary = engine.run_to_convergence();
    assert!(summary.converged, "set-up convergence hit the step bound");
    engine.snapshot()
}

impl Instance {
    pub fn generate(w: &Workload, seed: u64, tr: &mut Tracer) -> Self {
        let s = tr.begin("graph", "barabasi_albert");
        // Every generated input gets its own stream of the instance seed.
        let sub = |salt: u64| mix64(seed, &[salt]);
        let ba = |n, salt| barabasi_albert(n, 3, WeightModel::Unit, sub(salt)).expect("n > m");
        let static_graph = ba(w.static_n, 1);
        let wave_graph = ba(w.wave_n, 2);
        let net_graph = ba(w.net_n, 3);
        let stream_graph = ba(w.stream_n, 8);
        tr.end(s);

        let s = tr.begin("graph", "community_batch");
        // Successive waves: each is drawn against the graph the waves
        // before it leave behind.
        let successive = |graph: &mut AdjGraph, count: usize, size: usize, salt: u64| {
            (0..count as u64)
                .map(|i| {
                    let batch = addition_batch(graph, size, sub(salt + i));
                    extend_graph(graph, &batch);
                    batch
                })
                .collect::<Vec<VertexBatch>>()
        };
        let mut after_wave = wave_graph.clone();
        let waves = successive(&mut after_wave, w.waves, w.wave, 200);
        let repart_wave = addition_batch(&wave_graph, w.repart_wave, sub(5));
        let mut after_repart = wave_graph.clone();
        extend_graph(&mut after_repart, &repart_wave);
        let mut after_incr = wave_graph.clone();
        let incr_waves = successive(&mut after_incr, w.incr_waves, w.incr_wave, 100);
        tr.end(s);

        let s = tr.begin("engine", "untimed_convergence");
        let wave_converged = converge(w, &wave_graph);
        let stream_converged = converge(w, &stream_graph);
        tr.end(s);

        let s = tr.begin("inputs", "change_stream");
        let (stream, after_stream) = change_stream(&stream_graph, w.stream_ticks, sub(6));
        let queries = query_cycle(after_stream.num_vertices(), sub(7));
        tr.end(s);

        let s = tr.begin("partition", "multilevel_net");
        let net_owner = MultilevelPartitioner::seeded(0)
            .partition(&net_graph, NET_WORKERS)
            .expect("k ≤ n")
            .assignment()
            .to_vec();
        tr.end(s);

        Instance {
            static_graph,
            wave_graph,
            wave_converged,
            waves,
            repart_wave,
            incr_waves,
            after_wave,
            after_repart,
            after_incr,
            stream_graph,
            stream_converged,
            stream,
            after_stream,
            net_graph,
            net_owner,
            queries,
        }
    }
}
