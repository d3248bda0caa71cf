//! A deletion is not a restart — and must not need one. Random op-programs
//! over every kind of dynamic change, landing at *non-converged* points of
//! the analysis, on both wires: after **every** op each cell any rank holds
//! is an upper bound on the true distance in the graph as it is then, and
//! every local row has its direct edges seeded — the invariant selective
//! invalidation leaves behind and all that RC needs; at quiescence the
//! engine sits on the exact fixed point, bit for bit.

use anytime_anywhere::core::{
    AnytimeEngine, AssignStrategy, ChaosPlan, DynamicChange, EngineConfig, NewVertex, RetryPolicy,
    VertexBatch, WireFormat,
};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::closeness::closeness_exact;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{AdjGraph, Csr, GraphBuilder, VertexId};
use proptest::prelude::*;

/// A simple graph on `n ∈ [3, 90]` vertices — up to two 64-column chunks a
/// row — with raw weights in `0..6`, mapped by the weight model in use.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (3usize..90).prop_flat_map(|n| {
        (Just(n), proptest::collection::vec((0..n as u32, 0..n as u32, 0u32..6), n..(3 * n)))
    })
}

/// What every op must leave behind, checked through the public surface
/// (local rows) in every profile and, in builds with debug assertions, on
/// every cell every rank holds: cached rows, last-sent copies and the chunk
/// bounds (`AnytimeEngine::check_admissible`).
fn check(engine: &AnytimeEngine, full: &AdjGraph, ctx: &str) {
    assert!(engine.graph().edges().eq(full.edges()), "{ctx}: driver graph diverged");
    let (held, exact) = (engine.distances(), apsp_dijkstra(&Csr::from_adj(full)));
    for v in 0..full.num_vertices() as VertexId {
        for (t, (&d, &truth)) in held.row(v).iter().zip(exact.row(v)).enumerate() {
            assert!(d >= truth, "{ctx}: cell {v}→{t} holds {d}, below the distance {truth}");
        }
        assert_eq!(held.get(v, v), 0, "{ctx}: self cell of {v}");
        for &(t, w) in full.neighbors(v) {
            assert!(held.get(v, t) <= w, "{ctx}: edge {v}–{t} of weight {w} is not seeded");
        }
    }
    #[cfg(debug_assertions)]
    engine.check_admissible();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_change_at_any_point_leaves_an_admissible_state(
        graph in arb_graph(),
        p in 1usize..=5,
        delta_wire in 0u8..2,
        unit in 0u8..2,
        warmup in 0usize..3,
        program in proptest::collection::vec((0u32..8, 0u64..u64::MAX), 1..12),
    ) {
        // Unit weights, or `UniformRange { 1, 6 }`.
        let weight = |raw: u64| if unit == 1 { 1 } else { 1 + (raw % 6) as u32 };
        let mut b = GraphBuilder::with_vertices(graph.0);
        for (u, v, w) in graph.1 {
            b.edge(u, v, weight(u64::from(w)));
        }
        let mut full = b.build().expect("builder output is always valid");
        let mut config = EngineConfig::deterministic(p);
        config.wire = if delta_wire == 1 { WireFormat::Delta } else { WireFormat::Full };
        let mut engine = AnytimeEngine::new(full.clone(), config.clone()).unwrap();
        // Most programs start before the first convergence.
        for _ in 0..warmup {
            engine.rc_step();
        }
        check(&engine, &full, "start");

        for (step, (op, a)) in program.into_iter().enumerate() {
            let ctx = format!("step {step} op {op}");
            let n = full.num_vertices();
            let pick = |shift: u32, m: usize| ((a >> shift) % m as u64) as usize;
            let edge = (full.num_edges() > 0)
                .then(|| full.edges().nth(pick(0, full.num_edges().max(1))).expect("in range"));
            match (op, edge) {
                (0, _) => {
                    let (u, v) = (pick(0, n) as u32, pick(20, n) as u32);
                    if u != v && !full.has_edge(u, v) {
                        let w = weight(a >> 40);
                        full.add_edge(u, v, w).unwrap();
                        engine.add_edge(u, v, w).unwrap();
                    }
                }
                (1, Some((u, v, _))) => {
                    full.remove_edge(u, v).unwrap();
                    engine.remove_edge(u, v).unwrap();
                }
                (2, Some((u, v, w))) => {
                    let heavier = w + 1 + pick(40, 5) as u32;
                    full.set_weight(u, v, heavier).unwrap();
                    engine.set_edge_weight(u, v, heavier).unwrap();
                }
                (3, Some((u, v, w))) if w > 1 => {
                    let lighter = 1 + pick(40, w as usize - 1) as u32;
                    full.set_weight(u, v, lighter).unwrap();
                    engine.set_edge_weight(u, v, lighter).unwrap();
                }
                (4, _) => {
                    // One to three new vertices, each with up to two edges
                    // to anything before it.
                    let base = n as u32;
                    let vertices: Vec<NewVertex> = (0..1 + pick(0, 3) as u32)
                        .map(|i| {
                            let mut edges: Vec<(u32, u32)> = (0..pick(4 + 2 * i, 3) as u32)
                                .map(|j| {
                                    let t = pick(10 + 9 * (2 * i + j), (base + i) as usize) as u32;
                                    (t, weight(a >> (48 + i + j)))
                                })
                                .collect();
                            edges.sort_unstable();
                            edges.dedup_by_key(|e| e.0);
                            NewVertex { edges }
                        })
                        .collect();
                    let batch = VertexBatch { vertices };
                    let strategy = match pick(60, 3) {
                        0 => AssignStrategy::RoundRobin,
                        1 => AssignStrategy::CutEdge { seed: a, tries: 1 },
                        _ => AssignStrategy::Repartition { seed: a },
                    };
                    full.add_vertices(batch.len());
                    for (x, y, w) in batch.global_edges(base) {
                        full.add_edge(x, y, w).unwrap();
                    }
                    engine.apply_vertex_additions(&batch, strategy).unwrap();
                }
                (5, _) => {
                    let victims: Vec<u32> =
                        (0..1 + pick(0, 2) as u32).map(|i| pick(8 + 20 * i, n) as u32).collect();
                    for &v in &victims {
                        let nbrs: Vec<u32> = full.neighbors(v).iter().map(|e| e.0).collect();
                        for t in nbrs {
                            full.remove_edge(v, t).unwrap();
                        }
                    }
                    engine
                        .apply_change(
                            &DynamicChange::RemoveVertices(victims),
                            AssignStrategy::RoundRobin,
                        )
                        .unwrap();
                }
                (6, _) => {
                    for _ in 0..1 + pick(0, 3) {
                        engine.rc_step();
                    }
                }
                (7, _) => {
                    let bytes = engine.checkpoint_bytes().unwrap();
                    engine = AnytimeEngine::restore(&bytes[..], config.clone()).unwrap();
                }
                // A decremental op on a graph without a fitting edge.
                _ => {}
            }
            check(&engine, &full, &ctx);
        }

        let summary = engine.run_to_convergence();
        prop_assert!(summary.converged);
        check(&engine, &full, "quiescence");
        let csr = Csr::from_adj(&full);
        prop_assert_eq!(engine.distances(), apsp_dijkstra(&csr));
        let (got, want) = (engine.closeness(), closeness_exact(&csr));
        prop_assert!(
            got.iter().map(|c| c.to_bits()).eq(want.iter().map(|c| c.to_bits())),
            "closeness is not bit-equal to the oracle"
        );
    }
}

/// No delayed row crosses a decremental change. Under an armed chaos plan
/// the delay queue holds rows produced before the change; one delivered
/// after the raise would be min-merged *below* the distances the change
/// left, for good — a run that reports convergence on a wrong answer. Every
/// decremental op, landing mid-analysis under a balanced plan and under a
/// delay-only one: if the supervised run says converged, it is exact, bit
/// for bit; if it degrades, its bounds cover the exact answer.
#[test]
fn a_decremental_change_under_an_armed_plan_ends_exact_or_covered() {
    for seed in 0..60u64 {
        let g = barabasi_albert(70, 2, WeightModel::UniformRange { lo: 1, hi: 6 }, seed).unwrap();
        let (u, v, w) = g.edges().nth(seed as usize % g.num_edges()).expect("in range");
        let balanced = ChaosPlan::seeded(seed ^ 0xabc, 0.3, 24);
        let delay_only = ChaosPlan { delay_p: 0.3, max_delay: 3, ..ChaosPlan::none() };
        let delay_only = ChaosPlan { seed: seed ^ 0xabc, horizon: 24, ..delay_only };
        for (plan, op) in [balanced, delay_only].into_iter().flat_map(|p| [(p, 0), (p, 1), (p, 2)])
        {
            let ctx = format!("seed {seed}, op {op}, delay-only {}", plan.drop_p == 0.0);
            let mut full = g.clone();
            let mut engine = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
            engine.set_chaos(plan);
            for _ in 0..2 {
                // An incident at the barrier is what the plan is for.
                let _ = engine.rc_step_checked();
            }
            match op {
                0 => {
                    full.remove_edge(u, v).unwrap();
                    engine.remove_edge(u, v).unwrap();
                }
                1 => {
                    full.set_weight(u, v, w + 3).unwrap();
                    engine.set_edge_weight(u, v, w + 3).unwrap();
                }
                _ => {
                    for (t, _) in g.neighbors(u).to_vec() {
                        full.remove_edge(u, t).unwrap();
                    }
                    engine.remove_vertices(&[u]).unwrap();
                }
            }
            let policy = RetryPolicy { max_attempts: 64, ..RetryPolicy::default() };
            let run = engine.run_supervised(&policy).unwrap();
            let csr = Csr::from_adj(&full);
            let exact = closeness_exact(&csr);
            match &run.degraded {
                None => {
                    assert!(run.converged(), "{ctx}: neither converged nor degraded");
                    assert!(engine.distances() == apsp_dijkstra(&csr), "{ctx}: converged wrong");
                    let got = engine.closeness();
                    assert!(
                        got.iter().map(|c| c.to_bits()).eq(exact.iter().map(|c| c.to_bits())),
                        "{ctx}: closeness is not bit-equal to the oracle"
                    );
                }
                Some(report) => {
                    for (x, (est, b)) in exact.iter().zip(report.estimate.iter().zip(&report.bound))
                    {
                        assert!((x - est).abs() <= b + 1e-12, "{ctx}: |{x} − {est}| > bound {b}");
                    }
                }
            }
        }
    }
}
