//! Streaming generator variants for graphs too large to materialize.
//!
//! The in-memory generators return an [`AdjGraph`], which caps them at
//! graphs that fit in adjacency-list form. The streaming variants yield the
//! edge stream itself, so a 100M-edge graph can be piped straight into an
//! external-memory ingest (e.g. `aaa-store`'s pair sorter) without ever
//! holding the graph in RAM:
//!
//! * [`ba_stream`] — the **same** Barabási–Albert process as
//!   [`barabasi_albert`]: identical RNG consumption, so for equal
//!   `(n, m, weights, seed)` it yields exactly the edges of the in-memory
//!   generator (the process samples from an endpoint multiset and never
//!   reads the adjacency, which is why it streams). Memory: the endpoint
//!   multiset, `2·n·m` vertex ids.
//!
//! [`barabasi_albert`]: super::barabasi_albert

use super::{check_n, WeightModel};
use crate::{GraphError, VertexId, Weight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A streamed edge: `(u, v, w)`, endpoints distinct.
pub type StreamEdge = (VertexId, VertexId, Weight);

// ----------------------------------------------------------------
// Barabási–Albert
// ----------------------------------------------------------------

/// Streaming Barabási–Albert edge generator; see [`ba_stream`].
#[derive(Debug)]
pub struct BaStream {
    n: usize,
    m: usize,
    weights: WeightModel,
    rng: ChaCha8Rng,
    seed_size: usize,
    /// Endpoint multiset for degree-proportional sampling (the only state
    /// the BA process reads).
    endpoints: Vec<VertexId>,
    /// Seed-clique cursor: next pair `(u, v)` to emit, if any.
    clique: Option<(VertexId, VertexId)>,
    /// Growth phase: vertex being attached (starts at `seed_size − 1` so
    /// the first increment lands on the first grown vertex) and its
    /// remaining targets (reversed so `pop` yields them in selection order).
    current: VertexId,
    pending: Vec<VertexId>,
    emitted: u64,
}

impl BaStream {
    /// Total number of edges the stream will yield.
    pub fn num_edges(&self) -> u64 {
        let s = self.seed_size as u64;
        let clique = s * (s - 1) / 2;
        // Vertices s..n attach with min(m, v) edges; v ≥ s ≥ 1, and
        // min(m, v) < m only while v < m, i.e. never once v ≥ seed_size > m−1.
        let grown: u64 = (self.seed_size..self.n).map(|v| self.m.min(v) as u64).sum();
        clique + grown
    }

    /// Number of vertices in the generated graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Edges yielded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Runs the target-selection loop for vertex `v` — byte-for-byte the
    /// loop in [`super::barabasi_albert`], so RNG consumption matches.
    fn select_targets(&mut self, v: VertexId) {
        let want = self.m.min(v as usize);
        let mut chosen: Vec<VertexId> = Vec::with_capacity(want);
        let mut guard = 0usize;
        while chosen.len() < want && guard < 50 * (want + 1) {
            guard += 1;
            let t = self.endpoints[self.rng.gen_range(0..self.endpoints.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        while chosen.len() < want {
            let t = self.rng.gen_range(0..v);
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        chosen.reverse();
        self.pending = chosen;
    }
}

impl Iterator for BaStream {
    type Item = StreamEdge;

    fn next(&mut self) -> Option<StreamEdge> {
        // Phase 1: seed clique.
        if let Some((u, v)) = self.clique {
            let w = self.weights.sample(&mut self.rng);
            self.endpoints.push(u);
            self.endpoints.push(v);
            let s = self.seed_size as VertexId;
            self.clique = if v + 1 < s {
                Some((u, v + 1))
            } else if u + 2 < s {
                Some((u + 1, u + 2))
            } else {
                None
            };
            self.emitted += 1;
            return Some((u, v, w));
        }
        // Phase 2: preferential attachment.
        loop {
            if let Some(t) = self.pending.pop() {
                let v = self.current;
                let w = self.weights.sample(&mut self.rng);
                self.endpoints.push(v);
                self.endpoints.push(t);
                self.emitted += 1;
                return Some((v, t, w));
            }
            self.current += 1;
            if (self.current as usize) >= self.n {
                return None;
            }
            let v = self.current;
            self.select_targets(v);
        }
    }
}

/// Streaming [`super::barabasi_albert`]: yields the identical edge stream
/// (same process, same RNG consumption) without building the graph. Edges
/// arrive in generation order — new vertex first, so `u > v` in the growth
/// phase — not sorted; feed them to an external sorter for sorted batches.
pub fn ba_stream(
    n: usize,
    m: usize,
    weights: WeightModel,
    seed: u64,
) -> Result<BaStream, GraphError> {
    check_n(n)?;
    if m == 0 {
        return Err(GraphError::InvalidArgument("attachment count m must be ≥ 1".into()));
    }
    let seed_size = (m + 1).min(n);
    Ok(BaStream {
        n,
        m,
        weights,
        rng: ChaCha8Rng::seed_from_u64(seed),
        seed_size,
        endpoints: Vec::new(),
        clique: if seed_size >= 2 { Some((0, 1)) } else { None },
        current: seed_size as VertexId - 1,
        pending: Vec::new(),
        emitted: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::barabasi_albert;
    use std::collections::BTreeSet;

    fn norm(edges: impl IntoIterator<Item = StreamEdge>) -> BTreeSet<(u32, u32, u32)> {
        edges.into_iter().map(|(u, v, w)| (u.min(v), u.max(v), w)).collect()
    }

    #[test]
    fn ba_stream_matches_in_memory_generator() {
        for (n, m, wm, seed) in [
            (200, 3, WeightModel::Unit, 7u64),
            (100, 2, WeightModel::UniformRange { lo: 1, hi: 9 }, 5),
            (2, 3, WeightModel::Unit, 0),
            (50, 1, WeightModel::Unit, 11),
        ] {
            let g = barabasi_albert(n, m, wm, seed).unwrap();
            let stream = ba_stream(n, m, wm, seed).unwrap();
            let expected: BTreeSet<_> = norm(g.edges());
            let got = norm(stream);
            assert_eq!(got, expected, "n={n} m={m} seed={seed}");
        }
    }

    #[test]
    fn ba_stream_edge_count_is_predicted() {
        let s = ba_stream(500, 3, WeightModel::Unit, 1).unwrap();
        let predicted = s.num_edges();
        assert_eq!(s.count() as u64, predicted);
        let g = barabasi_albert(500, 3, WeightModel::Unit, 1).unwrap();
        assert_eq!(g.num_edges() as u64, predicted);
    }

    #[test]
    fn ba_stream_rejects_bad_params() {
        assert!(ba_stream(0, 2, WeightModel::Unit, 0).is_err());
        assert!(ba_stream(10, 0, WeightModel::Unit, 0).is_err());
        // Single vertex: empty stream.
        assert_eq!(ba_stream(1, 2, WeightModel::Unit, 0).unwrap().count(), 0);
    }
}
