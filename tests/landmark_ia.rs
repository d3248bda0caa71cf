//! IA seeded by landmark rows. After DD the driver walks the exact rows of
//! the top-degree vertices once and broadcasts them; every rank lowers each
//! IA row to its shortest walk through a landmark. These programs hold the
//! seeded state to the oracle on BA graphs, unit-weight and weighted 1–6,
//! on 1–8 ranks and either wire:
//! - right after construction every held cell is an upper bound on the
//!   exact distance, and finite, because a BA graph is connected and every
//!   vertex reaches every other through a landmark;
//! - two builds seed the same rows at the same price;
//! - the exact flag stays clear until the first quiescent RC step;
//! - the fixed point is exact APSP, bit for bit.

use anytime_anywhere::core::{AnytimeEngine, EngineConfig, WireFormat};
use anytime_anywhere::graph::apsp::apsp_dijkstra;
use anytime_anywhere::graph::generators::{barabasi_albert, WeightModel};
use anytime_anywhere::graph::{Csr, VertexId, INF};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seeded_ia_rows_are_upper_bounds_and_rc_reaches_apsp(
        n in 40usize..=200,
        procs in 1usize..=8,
        flags in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let (weighted, delta) = (flags & 1 == 1, flags & 2 == 2);
        let weights =
            if weighted { WeightModel::UniformRange { lo: 1, hi: 6 } } else { WeightModel::Unit };
        let graph = barabasi_albert(n, 2, weights, seed).expect("generator");
        let exact = apsp_dijkstra(&Csr::from_adj(&graph));
        let config = || {
            let mut c = EngineConfig::deterministic(procs);
            c.wire = if delta { WireFormat::Delta } else { WireFormat::Full };
            c
        };
        let mut engine = AnytimeEngine::new(graph.clone(), config()).expect("engine");
        let twin = AnytimeEngine::new(graph, config()).expect("engine");

        let ia = engine.distances();
        prop_assert!(ia == twin.distances(), "two builds seeded different rows");
        prop_assert_eq!(engine.stats().bytes, twin.stats().bytes);
        prop_assert_eq!(engine.stats().messages, twin.stats().messages);
        for v in 0..n as VertexId {
            for (t, (&held, &d)) in ia.row(v).iter().zip(exact.row(v)).enumerate() {
                prop_assert!(held >= d, "cell ({}, {}) holds {} below {}", v, t, held, d);
                prop_assert!(held < INF, "cell ({}, {}) unseeded", v, t);
            }
        }

        prop_assert!(!engine.snapshot().exact, "exact before any RC step");
        loop {
            let more = engine.rc_step();
            let flag = engine.snapshot().exact;
            prop_assert!(flag != more, "exact flag {} at step {}", flag, engine.rc_steps_done());
            if !more {
                break;
            }
        }
        prop_assert!(engine.distances() == exact, "the fixed point is not APSP");
    }
}
