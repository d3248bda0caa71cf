//! Large-graph smoke: the graph layer at ≥1M vertices.
//!
//! Builds a ≥1M-vertex Barabási–Albert graph in memory, snapshots it as a
//! CSR, runs the multilevel domain decomposition on it, and walks 64
//! sources in one pass of the multi-source BFS the engine's IA and
//! certified bounds run (`bfs_rows`), verified against per-source Dijkstra.
//!
//! The body is guarded by `AAA_LARGE_SMOKE=1` so plain `cargo test` stays
//! fast; CI's `large-smoke` job opts in. Scale can be changed with
//! `AAA_LARGE_SMOKE_SCALE` (vertices; default 1,000,000) and
//! `AAA_LARGE_SMOKE_M` (BA attachment count; default 5).

use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::sssp::{bfs_rows, dijkstra};
use anytime_anywhere::graph::{Csr, GraphStore, VertexId, INF};
use anytime_anywhere::partition::{MultilevelPartitioner, Partitioner};
use std::time::Instant;

#[test]
fn streamed_million_vertex_graph_builds_partitions_and_converges() {
    if std::env::var("AAA_LARGE_SMOKE").ok().as_deref() != Some("1") {
        eprintln!("large-graph smoke skipped; set AAA_LARGE_SMOKE=1 to run");
        return;
    }
    let n: usize = std::env::var("AAA_LARGE_SMOKE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);
    let m: usize =
        std::env::var("AAA_LARGE_SMOKE_M").ok().and_then(|s| s.parse().ok()).unwrap_or(5);
    let seed = 42;

    // The adjacency graph is dropped once its CSR snapshot exists.
    let started = Instant::now();
    let g = Csr::from_adj(
        &barabasi_albert(n, m, WeightModel::Unit, seed).expect("generator params valid"),
    );
    eprintln!(
        "built BA graph: {} vertices, {} edges, {:.1}s",
        g.num_vertices(),
        g.num_edges(),
        started.elapsed().as_secs_f64()
    );
    assert_eq!(g.num_vertices(), n);

    let started = Instant::now();
    let part = MultilevelPartitioner::seeded(0).partition(&g, 8).expect("partition");
    eprintln!("partitioned into 8 parts in {:.1}s", started.elapsed().as_secs_f64());
    assert_eq!(part.len(), n);
    assert_eq!(part.k(), 8);

    // One pass of the multi-source walk: 64 sources spread over the id
    // space, one bit each. Every edge weighs 1, so each hop row is the
    // Dijkstra row; the first and last two lanes are held to per-source
    // Dijkstra bit for bit.
    let sources: Vec<VertexId> = (0..64).map(|i| (i * (n / 64)) as VertexId).collect();
    let started = Instant::now();
    let mut rows = vec![0; sources.len() * n];
    bfs_rows(n, |v| g.successors(v), &sources, &mut rows);
    eprintln!("walked 64 sources in one pass, {:.1}s", started.elapsed().as_secs_f64());
    for lane in [0, 1, 62, 63] {
        let row = &rows[lane * n..(lane + 1) * n];
        assert!(row == dijkstra(&g, sources[lane]), "lane {lane}: walk must agree with Dijkstra");
    }
    let reached = rows[..n].iter().filter(|&&d| d != INF).count();
    eprintln!("{reached} of {n} vertices reachable from source 0");
    assert!(reached > n / 2, "a BA graph is connected; most vertices should be reached");
}
