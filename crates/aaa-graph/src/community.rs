//! Louvain modularity community detection.
//!
//! Substitute for Pajek's Louvain method, which the paper uses to extract
//! community-structured batches of vertices for the CutEdge-PS experiments
//! (§V.B.2). Implements the standard two-phase algorithm: greedy local
//! moving to maximize modularity, then community aggregation, repeated until
//! modularity stops improving.
//!
//! Aggregation requires self-loops (a community's internal weight), which
//! [`AdjGraph`] deliberately forbids, so the levels run on a private
//! `LevelGraph` representation.

use crate::{AdjGraph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

/// Result of a Louvain run.
#[derive(Debug, Clone)]
pub struct CommunityAssignment {
    /// Community label per vertex, renumbered densely from 0.
    pub label: Vec<u32>,
    /// Number of communities.
    pub num_communities: usize,
    /// Modularity of the final assignment.
    pub modularity: f64,
}

impl CommunityAssignment {
    /// Vertices of each community, in ascending vertex order.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_communities];
        for (v, &c) in self.label.iter().enumerate() {
            out[c as usize].push(v as VertexId);
        }
        out
    }
}

/// Newman modularity `Q = Σ_c [ in_c / 2m − (tot_c / 2m)² ]` of a labelling
/// over a weighted undirected graph. Returns 0 for an edgeless graph.
pub fn modularity(g: &AdjGraph, label: &[u32]) -> f64 {
    assert_eq!(label.len(), g.num_vertices(), "label length mismatch");
    LevelGraph::from_adj(g).modularity(label)
}

/// Configuration for [`louvain`].
#[derive(Debug, Clone)]
pub struct LouvainConfig {
    /// Stop when an aggregation level improves modularity by less than this.
    pub min_gain: f64,
    /// Maximum outer (aggregation) levels.
    pub max_levels: usize,
    /// RNG seed for the vertex visiting order.
    pub seed: u64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self { min_gain: 1e-6, max_levels: 16, seed: 0 }
    }
}

/// Runs Louvain community detection.
pub fn louvain(g: &AdjGraph, config: &LouvainConfig) -> CommunityAssignment {
    let n = g.num_vertices();
    if n == 0 {
        return CommunityAssignment { label: Vec::new(), num_communities: 0, modularity: 0.0 };
    }
    let mut membership: Vec<u32> = (0..n as u32).collect();
    let mut level = LevelGraph::from_adj(g);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut best_q = level.modularity(&(0..level.n() as u32).collect::<Vec<_>>());

    for _ in 0..config.max_levels {
        let local = level.one_level(&mut rng);
        let (dense, num_c) = renumber(&local);
        let q = level.modularity(&dense);
        if q - best_q < config.min_gain || num_c == level.n() {
            break;
        }
        best_q = q;
        for m in membership.iter_mut() {
            *m = dense[*m as usize];
        }
        level = level.aggregate(&dense, num_c);
    }

    let (label, num_communities) = renumber(&membership);
    let q = modularity(g, &label);
    CommunityAssignment { label, num_communities, modularity: q }
}

/// Weighted undirected graph with self-loop support, used for the Louvain
/// level hierarchy. `adj` holds no self entries; `self_w[v]` is the
/// self-loop weight of `v` (contributing `2·self_w[v]` to its degree).
struct LevelGraph {
    adj: Vec<Vec<(u32, f64)>>,
    self_w: Vec<f64>,
    /// m = Σ edge weights + Σ self-loop weights.
    total_w: f64,
}

impl LevelGraph {
    fn from_adj(g: &AdjGraph) -> Self {
        let n = g.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for v in g.vertices() {
            adj[v as usize] = g.neighbors(v).iter().map(|&(t, w)| (t, w as f64)).collect();
        }
        Self { adj, self_w: vec![0.0; n], total_w: g.total_weight() as f64 }
    }

    fn n(&self) -> usize {
        self.adj.len()
    }

    /// Weighted degree: adjacent weight plus twice the self-loop.
    fn degree(&self, v: usize) -> f64 {
        self.adj[v].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self.self_w[v]
    }

    fn modularity(&self, label: &[u32]) -> f64 {
        let two_m = 2.0 * self.total_w;
        if two_m == 0.0 {
            return 0.0;
        }
        let num_c = label.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut internal = vec![0.0f64; num_c]; // 2 × internal weight
        let mut total = vec![0.0f64; num_c];
        for v in 0..self.n() {
            let cv = label[v] as usize;
            total[cv] += self.degree(v);
            internal[cv] += 2.0 * self.self_w[v];
            for &(t, w) in &self.adj[v] {
                if label[t as usize] as usize == cv {
                    internal[cv] += w; // both endpoints contribute => 2×
                }
            }
        }
        (0..num_c).map(|c| internal[c] / two_m - (total[c] / two_m).powi(2)).sum()
    }

    /// One greedy local-moving pass; returns a (non-dense) label per vertex.
    fn one_level(&self, rng: &mut ChaCha8Rng) -> Vec<u32> {
        let n = self.n();
        let two_m = 2.0 * self.total_w;
        let mut community: Vec<u32> = (0..n as u32).collect();
        if two_m == 0.0 {
            return community;
        }
        let k: Vec<f64> = (0..n).map(|v| self.degree(v)).collect();
        let mut tot: Vec<f64> = k.clone();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);

        let mut neigh_w: FxHashMap<u32, f64> = FxHashMap::default();
        let mut moved = true;
        let mut rounds = 0;
        while moved && rounds < 64 {
            moved = false;
            rounds += 1;
            for &v in &order {
                let cv = community[v];
                neigh_w.clear();
                for &(t, w) in &self.adj[v] {
                    *neigh_w.entry(community[t as usize]).or_insert(0.0) += w;
                }
                // Remove v from its community, then pick the best target
                // (possibly cv again) by ΔQ ∝ w_{v→c} − k_v·tot_c / 2m.
                tot[cv as usize] -= k[v];
                let mut best_c = cv;
                let mut best_gain =
                    neigh_w.get(&cv).copied().unwrap_or(0.0) - k[v] * tot[cv as usize] / two_m;
                for (&c, &w_vc) in neigh_w.iter() {
                    if c == cv {
                        continue;
                    }
                    let gain = w_vc - k[v] * tot[c as usize] / two_m;
                    if gain > best_gain + 1e-12 {
                        best_gain = gain;
                        best_c = c;
                    }
                }
                tot[best_c as usize] += k[v];
                if best_c != cv {
                    community[v] = best_c;
                    moved = true;
                }
            }
        }
        community
    }

    /// Collapses communities into single vertices, keeping internal weight
    /// as self-loops so later levels see correct degrees.
    fn aggregate(&self, dense: &[u32], num_c: usize) -> LevelGraph {
        let mut self_w = vec![0.0f64; num_c];
        let mut acc: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        for v in 0..self.n() {
            let cv = dense[v];
            self_w[cv as usize] += self.self_w[v];
            for &(t, w) in &self.adj[v] {
                let ct = dense[t as usize];
                if cv == ct {
                    // Each intra edge visited from both endpoints: w/2 each.
                    self_w[cv as usize] += w / 2.0;
                } else if cv < ct {
                    *acc.entry((cv, ct)).or_insert(0.0) += w;
                }
            }
        }
        let mut adj = vec![Vec::new(); num_c];
        for (&(u, v), &w) in &acc {
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
        }
        LevelGraph { adj, self_w, total_w: self.total_w }
    }
}

/// Renumbers arbitrary labels to a dense 0-based range.
fn renumber(label: &[u32]) -> (Vec<u32>, usize) {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    let mut out = Vec::with_capacity(label.len());
    for &l in label {
        let next = map.len() as u32;
        out.push(*map.entry(l).or_insert(next));
    }
    (out, map.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{planted_partition, PlantedPartition, WeightModel};

    #[test]
    fn modularity_of_perfect_split() {
        // Two disjoint triangles, correct labels.
        let mut g = AdjGraph::with_vertices(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let q = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((q - 0.5).abs() < 1e-9, "q = {q}");
        // Everything in one community: Q = 0.
        let q = modularity(&g, &[0, 0, 0, 0, 0, 0]);
        assert!(q.abs() < 1e-9);
    }

    #[test]
    fn louvain_recovers_disjoint_cliques() {
        let mut g = AdjGraph::with_vertices(8);
        for c in 0..2 {
            let base = c * 4;
            for u in 0..4u32 {
                for v in (u + 1)..4 {
                    g.add_edge(base + u, base + v, 1).unwrap();
                }
            }
        }
        let a = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.num_communities, 2);
        assert_eq!(a.label[0], a.label[3]);
        assert_eq!(a.label[4], a.label[7]);
        assert_ne!(a.label[0], a.label[4]);
        assert!(a.modularity > 0.45);
    }

    #[test]
    fn louvain_recovers_planted_partition() {
        let m = PlantedPartition { communities: 4, size: 40, p_in: 0.4, p_out: 0.005 };
        let (g, truth) = planted_partition(&m, WeightModel::Unit, 7).unwrap();
        let a = louvain(&g, &LouvainConfig::default());
        assert!(a.modularity > 0.5, "modularity {}", a.modularity);
        // Most pairs from the same planted community should share a label.
        let mut same_ok = 0usize;
        let mut same_total = 0usize;
        for u in 0..truth.len() {
            for v in (u + 1)..truth.len() {
                if truth[u] == truth[v] {
                    same_total += 1;
                    if a.label[u] == a.label[v] {
                        same_ok += 1;
                    }
                }
            }
        }
        assert!(same_ok as f64 / same_total as f64 > 0.8);
    }

    #[test]
    fn members_partition_the_vertices() {
        let m = PlantedPartition { communities: 3, size: 20, p_in: 0.5, p_out: 0.02 };
        let (g, _) = planted_partition(&m, WeightModel::Unit, 9).unwrap();
        let a = louvain(&g, &LouvainConfig::default());
        let members = a.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, g.num_vertices());
        assert_eq!(members.len(), a.num_communities);
    }

    #[test]
    fn louvain_improves_over_singletons() {
        let m = PlantedPartition { communities: 5, size: 30, p_in: 0.3, p_out: 0.01 };
        let (g, _) = planted_partition(&m, WeightModel::Unit, 21).unwrap();
        let singleton: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let q0 = modularity(&g, &singleton);
        let a = louvain(&g, &LouvainConfig::default());
        assert!(a.modularity > q0);
    }

    #[test]
    fn empty_and_edgeless() {
        let a = louvain(&AdjGraph::new(), &LouvainConfig::default());
        assert_eq!(a.num_communities, 0);
        let g = AdjGraph::with_vertices(5);
        let a = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.label.len(), 5);
        assert_eq!(a.modularity, 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let m = PlantedPartition { communities: 3, size: 25, p_in: 0.4, p_out: 0.02 };
        let (g, _) = planted_partition(&m, WeightModel::Unit, 13).unwrap();
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn renumber_is_dense() {
        let (out, n) = renumber(&[7, 3, 7, 9]);
        assert_eq!(out, vec![0, 1, 0, 2]);
        assert_eq!(n, 3);
    }

    #[test]
    fn weighted_edges_influence_modularity() {
        // Path 0-1-2; heavy edge 0-1 means {0,1},{2} beats {0},{1,2}.
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        let q_heavy = modularity(&g, &[0, 0, 1]);
        let q_light = modularity(&g, &[0, 1, 1]);
        assert!(q_heavy > q_light);
    }
}
