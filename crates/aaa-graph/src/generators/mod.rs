//! Random graph generators.
//!
//! The paper evaluates on undirected scale-free graphs produced by Pajek and
//! on community-structured vertex batches extracted with Louvain. We
//! replace Pajek with from-scratch generators:
//!
//! * [`barabasi_albert`] — preferential attachment (scale-free; the model
//!   behind the paper's `c ≈ √n / P` boundary-degree bound),
//! * [`erdos_renyi`] — G(n, m) uniform random graphs,
//! * [`watts_strogatz`] — small-world ring rewiring,
//! * [`rmat`] — Kronecker-style power-law generator,
//! * [`planted_partition`] — stochastic block model with dense communities,
//!   used to produce the community-structured additions of §V.B.2.
//!
//! All generators are deterministic in their seed (ChaCha8) and produce
//! simple graphs (no self-loops or parallel edges).

mod ba;
mod er;
mod rmat;
mod sbm;
mod ws;

pub use ba::barabasi_albert;
pub use er::erdos_renyi;
pub use rmat::{rmat, RmatParams};
pub use sbm::{planted_partition, PlantedPartition};
pub use ws::watts_strogatz;

use crate::Weight;
use rand::Rng;

/// How generators assign edge weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightModel {
    /// Every edge has weight 1 (unweighted analysis).
    Unit,
    /// Weights drawn uniformly from `lo..=hi`.
    UniformRange { lo: Weight, hi: Weight },
}

impl WeightModel {
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> Weight {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::UniformRange { lo, hi } => rng.gen_range(lo.max(1)..=hi.max(lo.max(1))),
        }
    }
}

/// Shared validation for generator sizes.
pub(crate) fn check_n(n: usize) -> Result<(), crate::GraphError> {
    if n == 0 {
        Err(crate::GraphError::InvalidArgument("graph must have at least one vertex".into()))
    } else {
        Ok(())
    }
}

/// Quick structural sanity check used by generator tests.
#[cfg(test)]
pub(crate) fn assert_simple(g: &crate::AdjGraph) {
    g.validate().expect("generated graph must satisfy invariants");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn weight_model_unit_is_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(WeightModel::Unit.sample(&mut rng), 1);
    }

    #[test]
    fn weight_model_range_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let w = WeightModel::UniformRange { lo: 3, hi: 9 }.sample(&mut rng);
            assert!((3..=9).contains(&w));
        }
    }

    #[test]
    fn weight_model_range_never_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(WeightModel::UniformRange { lo: 0, hi: 2 }.sample(&mut rng) >= 1);
        }
    }
}
