//! Large-graph smoke: the scaled-down rehearsal of the 10M-vertex /
//! 100M-edge single-machine target.
//!
//! Streams a ≥1M-vertex Barabási–Albert graph from the streaming generator
//! through the external-memory pair sorter into the compressed gap-coded
//! store, checks the ≤4 bytes/arc successor-structure budget, runs domain
//! decomposition directly on the compressed backend, and walks 64 sources
//! in one pass of the multi-source BFS the engine's IA and certified bounds
//! run (`bfs_rows`), verified against per-source Dijkstra.
//!
//! The body is guarded by `AAA_LARGE_SMOKE=1` so plain `cargo test` stays
//! fast; CI's `large-smoke` job opts in. Scale can be raised with
//! `AAA_LARGE_SMOKE_SCALE` (vertices; default 1,000,000) and
//! `AAA_LARGE_SMOKE_M` (BA attachment count; default 5) — the full
//! headline target is `AAA_LARGE_SMOKE_SCALE=10000000 AAA_LARGE_SMOKE_M=10`.

use anytime_anywhere::graph::generators::{ba_stream, WeightModel};
use anytime_anywhere::graph::sssp::{bfs_rows, dijkstra};
use anytime_anywhere::graph::{VertexId, INF};
use anytime_anywhere::partition::{MultilevelPartitioner, Partitioner};
use anytime_anywhere::store::{CompressedGraph, PairSorter};
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

    // Stream the generator through the external-memory ingest with a small
    // budget so the run genuinely spills and merges from disk.
    let started = Instant::now();
    let dir = std::env::temp_dir().join(format!("aaa-large-smoke-{}", std::process::id()));
    let stream = ba_stream(n, m, WeightModel::Unit, seed).expect("generator params valid");
    // The budget scales with n so the run always spills a few dozen runs
    // without the merge fanning out past the open-file limit.
    let budget = (n * 4).max(2 << 20);
    let mut sorter = PairSorter::new(&dir, budget).expect("scratch directory available");
    for (u, v, w) in stream {
        sorter.push_edge(u, v, w).expect("generated edges are valid");
    }
    let runs = sorter.runs_spilled();
    let arcs = sorter.finish().expect("merge sorted runs");
    let g = CompressedGraph::from_sorted_arcs(n, false, arcs).expect("compressed build");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "built compressed store: {} vertices, {} edges, {} spilled runs, {:.1}s",
        g.num_vertices(),
        g.num_edges(),
        runs,
        started.elapsed().as_secs_f64()
    );
    assert!(runs > 0, "the ingest should have spilled at this budget");
    assert_eq!(g.num_vertices(), n);

    // The headline storage budget: successor structure ≤ 4 bytes/arc
    // (CSR spends 8 on the target+weight pair alone).
    let bytes_per_arc = g.data_bytes() as f64 / g.num_arcs().max(1) as f64;
    eprintln!("successor structure: {bytes_per_arc:.2} bytes/arc");
    assert!(
        bytes_per_arc <= 4.0,
        "successor structure spends {bytes_per_arc:.2} bytes/arc, budget is 4"
    );

    // Domain decomposition runs directly on the compressed backend.
    let started = Instant::now();
    let part = MultilevelPartitioner::seeded(0).partition(&g, 8).expect("partition");
    eprintln!("partitioned into 8 parts in {:.1}s", started.elapsed().as_secs_f64());
    assert_eq!(part.len(), n);
    assert_eq!(part.k(), 8);

    // One pass of the multi-source walk: 64 sources spread over the id
    // space, one bit each, read straight off the compressed backend. Every
    // edge weighs 1, so each hop row is the Dijkstra row; the first and last
    // two lanes are held to per-source Dijkstra bit for bit.
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
