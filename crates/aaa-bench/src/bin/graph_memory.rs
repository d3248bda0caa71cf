//! Measures bytes/edge and build time for every graph storage backend.
//!
//! Builds the same Barabási–Albert graph as in-memory adjacency lists, CSR,
//! and the compressed gap-coded store (via external-memory ingest from the
//! streaming generator), then reports per-backend memory and build time.
//! The compressed row splits out the successor-structure bytes — the
//! quantity the ≤4 bytes/arc target (vs 8 bytes/arc for CSR's
//! target+weight pair) is stated against.
//!
//! ```text
//! cargo run --release -p aaa-bench --bin graph_memory -- \
//!     [--scale n] [--m m] [--seed s] [--budget-mb B] [--compressed-only]
//! ```
//!
//! `--compressed-only` skips the in-memory backends so graphs far beyond
//! RAM (e.g. 10M vertices / 100M edges with `--scale 10000000 --m 10`) can
//! be measured: the edge stream never materializes, it spills through the
//! pair sorter and builds the compressed store directly.

use aaa_bench::Table;
use aaa_graph::generators::{ba_stream, barabasi_albert, WeightModel};
use aaa_graph::Csr;
use aaa_store::{CompressedGraph, PairSorter};
use std::time::Instant;

struct Args {
    scale: usize,
    m: usize,
    seed: u64,
    budget_mb: usize,
    compressed_only: bool,
}

fn parse_args() -> Args {
    let mut out = Args { scale: 100_000, m: 3, seed: 42, budget_mb: 256, compressed_only: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scale" => out.scale = take("--scale").parse().expect("--scale wants an integer"),
            "--m" => out.m = take("--m").parse().expect("--m wants an integer"),
            "--seed" => out.seed = take("--seed").parse().expect("--seed wants an integer"),
            "--budget-mb" => {
                out.budget_mb = take("--budget-mb").parse().expect("--budget-mb wants an integer")
            }
            "--compressed-only" => out.compressed_only = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: graph_memory [--scale n] [--m m] [--seed s] [--budget-mb B] \
                     [--compressed-only]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    out
}

fn row(
    table: &mut Table,
    backend: &str,
    build_s: f64,
    bytes: usize,
    num_arcs: u64,
    num_edges: u64,
) {
    table.row(vec![
        backend.to_string(),
        format!("{build_s:.2}"),
        bytes.to_string(),
        format!("{:.2}", bytes as f64 / num_arcs.max(1) as f64),
        format!("{:.2}", bytes as f64 / num_edges.max(1) as f64),
    ]);
}

fn main() {
    let args = parse_args();
    let wm = WeightModel::Unit;

    // Compressed store: streaming generator → external-memory pair sorter
    // → gap-coded rows. This path never holds the graph in adjacency form.
    let dir = std::env::temp_dir().join(format!("aaa-graph-memory-{}", std::process::id()));
    let started = Instant::now();
    let stream = ba_stream(args.scale, args.m, wm, args.seed).expect("generator params valid");
    let mut sorter =
        PairSorter::new(&dir, args.budget_mb << 20).expect("scratch directory available");
    for (u, v, w) in stream {
        sorter.push_edge(u, v, w).expect("generated edges are valid");
    }
    let runs = sorter.runs_spilled();
    let arcs = sorter.finish().expect("merge");
    let compressed =
        CompressedGraph::from_sorted_arcs(args.scale, false, arcs).expect("compressed build");
    let compressed_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let (num_arcs, num_edges) = (compressed.num_arcs(), compressed.num_edges() as u64);

    println!(
        "BA graph: {} vertices, {num_edges} edges ({num_arcs} arcs), m = {}, seed = {}",
        args.scale, args.m, args.seed
    );
    println!("external ingest: {runs} spilled runs at a {} MiB budget", args.budget_mb);

    let mut table = Table::new(
        "graph memory by backend",
        &["backend", "build_s", "bytes", "bytes/arc", "bytes/edge"],
    );
    row(
        &mut table,
        "compressed(successors)",
        compressed_s,
        compressed.data_bytes(),
        num_arcs,
        num_edges,
    );
    row(
        &mut table,
        "compressed(total)",
        compressed_s,
        compressed.memory_bytes(),
        num_arcs,
        num_edges,
    );

    if !args.compressed_only {
        let started = Instant::now();
        let g = barabasi_albert(args.scale, args.m, wm, args.seed).expect("generator params valid");
        let adj_s = started.elapsed().as_secs_f64();
        row(&mut table, "adjacency", adj_s, g.memory_bytes(), num_arcs, num_edges);

        let started = Instant::now();
        let csr = Csr::from_adj(&g);
        let csr_s = started.elapsed().as_secs_f64();
        row(&mut table, "csr", csr_s, csr.memory_bytes(), num_arcs, num_edges);

        // The backends must agree before their sizes are comparable.
        assert_eq!(g.num_edges() as u64, num_edges, "backends must store the same graph");
    }

    print!("{}", table.render());
    println!(
        "\nsuccessor structure: {:.2} bytes/arc (target ≤ 4; CSR stores 8 — a u32 target",
        compressed.data_bytes() as f64 / num_arcs.max(1) as f64
    );
    println!("plus a u32 weight — per arc). The offset index (Elias-Fano) adds");
    println!(
        "{:.2} bytes/vertex on top.",
        compressed.index_bytes() as f64 / args.scale.max(1) as f64
    );
}
