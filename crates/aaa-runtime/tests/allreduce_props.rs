//! Property tests for the reduction collective: `allreduce_or` must be
//! execution-mode invariant — the Sequential and Parallel executors are
//! different schedulers over the same reduction tree, so on any input they
//! must agree with each other and with the single-machine fold.

use aaa_runtime::{Cluster, ClusterConfig, ExecutionMode, LogPModel};
use proptest::prelude::*;

fn config(mode: ExecutionMode) -> ClusterConfig {
    ClusterConfig { model: LogPModel::ethernet_1g(), mode, ..ClusterConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allreduce_or_agrees_across_modes(
        vals in proptest::collection::vec(0u64..1_000, 1..33),
        threshold in 0u64..1_000,
    ) {
        let run = |mode| {
            let mut c = Cluster::new(vals.clone(), config(mode));
            let or = c.allreduce_or(|_, &v| v > threshold);
            (or, c.stats().collectives, c.stats().sim_comm_us)
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel);
        prop_assert_eq!(seq, par);
        // And both agree with the plain fold.
        prop_assert_eq!(seq.0, vals.iter().any(|&v| v > threshold));
    }

    #[test]
    fn reductions_commute_with_rank_permutation(
        vals in proptest::collection::vec(0u64..1_000, 2..17),
        rot in 1usize..16,
    ) {
        // OR is a commutative monoid: rotating which rank holds which value
        // must not change the reduction.
        let rot = rot % vals.len();
        let mut rotated = vals.clone();
        rotated.rotate_left(rot);
        let reduce = |vs: &[u64]| {
            let mut c = Cluster::new(vs.to_vec(), config(ExecutionMode::Sequential));
            c.allreduce_or(|_, &v| v > 500)
        };
        prop_assert_eq!(reduce(&vals), reduce(&rotated));
    }
}
