//! Backend equivalence and on-disk robustness for the graph store.
//!
//! Every [`GraphStore`] backend — adjacency lists, CSR, the compressed
//! gap-coded store (built in memory or through the spill-forced
//! external-memory ingest), and the compressed store after a disk
//! round-trip — must present the *same* graph: identical degrees, identical
//! sorted successor lists, identical BFS, Dijkstra and all-pairs distances,
//! bit-identical closeness and betweenness. And a corrupted on-disk store
//! must surface as a typed [`StoreError`], never a panic.

use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::centrality::betweenness_exact_det;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::sssp::{bfs, dijkstra};
use anytime_anywhere::graph::{edges, AdjGraph, Csr, GraphBuilder, GraphStore};
use anytime_anywhere::store::{CompressedGraph, LoadMode, StoreError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// An arbitrary simple weighted graph with `n ∈ [2, 40]` vertices.
fn arb_graph() -> impl Strategy<Value = AdjGraph> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..10), 0..(3 * n));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::with_vertices(n);
            for (u, v, w) in edges {
                b.edge(u, v, w);
            }
            b.build().expect("builder output is always valid")
        })
    })
}

/// A temp path no other call shares: the harness runs tests on parallel
/// threads of one process, and several of them ask for the same `name`.
fn scratch(name: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aaa-store-eq-{}-{call}-{name}", std::process::id()))
}

fn rows<G: GraphStore>(g: &G) -> Vec<Vec<(u32, u32)>> {
    g.vertices().map(|v| g.successors(v).collect()).collect()
}

/// Asserts two backends present the same graph through every trait surface.
fn assert_equivalent<A: GraphStore + Sync, B: GraphStore + Sync>(a: &A, b: &B) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.num_arcs(), b.num_arcs());
    for v in a.vertices() {
        assert_eq!(a.degree(v), b.degree(v), "degree of {v}");
    }
    assert_eq!(rows(a), rows(b), "successor lists");
    for v in a.vertices().take(8) {
        assert_eq!(bfs(a, v), bfs(b, v), "bfs from {v}");
        assert_eq!(dijkstra(a, v), dijkstra(b, v), "dijkstra from {v}");
    }
    assert_eq!(apsp_dijkstra(a), apsp_dijkstra(b), "all-pairs distances");
    // Closeness and betweenness are bit-identical across backends (integer
    // distances, one reduction order), so exact equality is the contract,
    // not an approximation.
    assert_eq!(closeness_exact(a), closeness_exact(b));
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(betweenness_exact_det(a)), bits(betweenness_exact_det(b)), "betweenness");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_backends_present_the_same_graph(g in arb_graph(), case in 0u64..u64::MAX) {
        let csr = Csr::from_adj(&g);
        let direct = CompressedGraph::from_store(&g).unwrap();
        direct.validate().unwrap();

        // Spill-forced external ingest: a tiny budget makes every few edges
        // a sorted run, exercising the k-way merge and dedup.
        let dir = scratch(&format!("ingest-{case}"));
        let arcs = anytime_anywhere::store::sort_edges(&dir, 48, edges(&g)).unwrap();
        let weighted = edges(&g).any(|(_, _, w)| w != 1);
        let ingested =
            CompressedGraph::from_sorted_arcs(g.num_vertices(), weighted, arcs).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_equivalent(&g, &csr);
        assert_equivalent(&g, &direct);
        assert_equivalent(&g, &ingested);

        // Sorted-successor invariant holds on every backend.
        for v in g.vertices() {
            let row: Vec<u32> = direct.successors(v).map(|(t, _)| t).collect();
            prop_assert!(row.windows(2).all(|p| p[0] < p[1]), "row {v} sorted strictly");
        }
    }

    #[test]
    fn disk_round_trip_is_lossless(g in arb_graph(), case in 0u64..u64::MAX) {
        let direct = CompressedGraph::from_store(&g).unwrap();
        let path = scratch(&format!("roundtrip-{case}.aast"));
        direct.write_to(&path).unwrap();
        for mode in [LoadMode::Heap, LoadMode::Mmap] {
            let loaded = CompressedGraph::load(&path, mode).unwrap();
            loaded.validate().unwrap();
            assert_equivalent(&g, &loaded);
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ----------------------------------------------------------------
// Corruption: typed errors, never panics
// ----------------------------------------------------------------

fn sample_store_bytes() -> Vec<u8> {
    let mut b = GraphBuilder::with_vertices(30);
    for i in 0..29u32 {
        b.edge(i, i + 1, (i % 5) + 1);
        b.edge(i, (i + 7) % 30, 1);
    }
    let g = b.build().unwrap();
    let c = CompressedGraph::from_store(&g).unwrap();
    let path = scratch("corruption-source.aast");
    c.write_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn load_bytes(bytes: &[u8], name: &str) -> Result<CompressedGraph, StoreError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let out = CompressedGraph::load(&path, LoadMode::Heap);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn truncated_files_error_cleanly() {
    let bytes = sample_store_bytes();
    // Every prefix shorter than the full file must fail with a typed error
    // (sampled densely near the header, sparsely through the body).
    let mut cuts: Vec<usize> = (0..80).collect();
    cuts.extend((80..bytes.len()).step_by(37));
    for cut in cuts {
        let err = load_bytes(&bytes[..cut], &format!("trunc-{cut}.aast"))
            .expect_err("truncated file must not load");
        match err {
            StoreError::Truncated { .. }
            | StoreError::CrcMismatch { .. }
            | StoreError::BadMagic { .. }
            | StoreError::BadVersion { .. }
            | StoreError::Io(_) => {}
            other => panic!("unexpected error for cut {cut}: {other:?}"),
        }
    }
}

#[test]
fn bit_flips_are_always_detected() {
    let bytes = sample_store_bytes();
    // Flip one bit in every byte position (all sections: header, data,
    // offsets). The three CRCs must catch every single one.
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        let result = load_bytes(&bad, &format!("flip-{pos}.aast"));
        assert!(result.is_err(), "bit flip at byte {pos} went undetected");
    }
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let bytes = sample_store_bytes();
    let mut bad = bytes.clone();
    bad[0..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        load_bytes(&bad, "magic.aast"),
        Err(StoreError::BadMagic { found }) if &found == b"NOPE"
    ));
    // Version bump: flip the version field AND the matching header CRC is
    // now stale, so either error is acceptable — but it must be typed.
    let mut bad = bytes.clone();
    bad[4] = 99;
    assert!(matches!(
        load_bytes(&bad, "version.aast"),
        Err(StoreError::BadVersion { .. }) | Err(StoreError::CrcMismatch { .. })
    ));
    let err = load_bytes(&[], "empty.aast").expect_err("empty file");
    assert!(matches!(err, StoreError::Truncated { .. }));
}

#[test]
fn oversized_trailing_garbage_is_rejected() {
    let mut bytes = sample_store_bytes();
    bytes.extend_from_slice(&[0xAB; 16]);
    let err = load_bytes(&bytes, "trailing.aast").expect_err("trailing garbage");
    assert!(matches!(err, StoreError::Truncated { .. } | StoreError::CrcMismatch { .. }));
}
