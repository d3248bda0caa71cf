//! Dynamic change descriptions and workload generators.
//!
//! A [`VertexBatch`] is the unit of the paper's vertex-addition experiments:
//! a set of new vertices, each with its incident edges. Targets may be
//! existing vertices *or* other vertices of the same batch (referenced by
//! their future global id), which is how the community structure of the
//! paper's added vertices is expressed.

use crate::error::CoreError;
use aaa_graph::community::{louvain, LouvainConfig};
use aaa_graph::generators::{planted_partition, PlantedPartition, WeightModel};
use aaa_graph::{AdjGraph, VertexId, Weight};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One vertex to be added, with its incident edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewVertex {
    /// `(target, weight)` pairs. A target `>= base` (the vertex count at
    /// application time) refers to another vertex of the same batch.
    pub edges: Vec<(VertexId, Weight)>,
}

/// A batch of vertex additions applied at one point of the analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VertexBatch {
    pub vertices: Vec<NewVertex>,
}

impl VertexBatch {
    /// Number of new vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the batch adds nothing.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Total number of new edges.
    pub fn num_edges(&self) -> usize {
        self.vertices.iter().map(|v| v.edges.len()).sum()
    }

    /// Checks the batch against a graph of `base` existing vertices:
    /// all targets in range, no self-loops, positive weights, no duplicate
    /// edges (within the batch, in either orientation).
    pub fn validate(&self, base: usize) -> Result<(), CoreError> {
        let limit = (base + self.len()) as u64;
        let mut seen = std::collections::HashSet::new();
        for (i, nv) in self.vertices.iter().enumerate() {
            let me = (base + i) as VertexId;
            for &(t, w) in &nv.edges {
                if (t as u64) >= limit {
                    return Err(CoreError::InvalidChange(format!(
                        "edge target {t} out of range (limit {limit})"
                    )));
                }
                if t == me {
                    return Err(CoreError::InvalidChange(format!("self-loop on new vertex {me}")));
                }
                if w == 0 {
                    return Err(CoreError::InvalidChange(format!("zero weight edge ({me}, {t})")));
                }
                let key = (me.min(t), me.max(t));
                if !seen.insert(key) {
                    return Err(CoreError::InvalidChange(format!(
                        "duplicate edge ({}, {}) in batch",
                        key.0, key.1
                    )));
                }
            }
        }
        Ok(())
    }

    /// Resolves edges to global `(a, b, w)` triples for a graph of `base`
    /// existing vertices: batch vertex `i` becomes `base + i`.
    pub fn global_edges(&self, base: VertexId) -> Vec<(VertexId, VertexId, Weight)> {
        let mut out = Vec::with_capacity(self.num_edges());
        out.extend(self.iter_global_edges(base));
        out
    }

    /// [`VertexBatch::global_edges`] without the list.
    pub fn iter_global_edges(
        &self,
        base: VertexId,
    ) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.vertices
            .iter()
            .zip(base..)
            .flat_map(|(nv, me)| nv.edges.iter().map(move |&(t, w)| (me, t, w)))
    }

    /// Edges internal to the batch (both endpoints new), in *batch-local*
    /// indices — the graph CutEdge-PS partitions.
    pub fn internal_edges(&self, base: VertexId) -> Vec<(u32, u32, Weight)> {
        let mut out = Vec::new();
        for (i, nv) in self.vertices.iter().enumerate() {
            for &(t, w) in &nv.edges {
                if t >= base {
                    out.push((i as u32, t - base, w));
                }
            }
        }
        out
    }
}

/// A dynamic graph change. Vertex additions are the paper's subject; the
/// edge variants implement the companion strategies (additions [9],
/// deletions [10], weight changes [7]) the framework also supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicChange {
    AddVertices(VertexBatch),
    /// Logical vertex deletion (the paper's stated future work): the ids
    /// stay valid but lose all incident edges.
    RemoveVertices(Vec<VertexId>),
    AddEdge {
        u: VertexId,
        v: VertexId,
        w: Weight,
    },
    RemoveEdge {
        u: VertexId,
        v: VertexId,
    },
    SetWeight {
        u: VertexId,
        v: VertexId,
        w: Weight,
    },
}

// ---------------------------------------------------------------------------
// Workload generators
// ---------------------------------------------------------------------------

/// New vertices that attach to the existing graph preferentially by degree
/// (scale-free growth: "new actors joining an online community"). Each new
/// vertex gets `edges_per_vertex` distinct targets among existing vertices.
pub fn preferential_batch(
    g: &AdjGraph,
    count: usize,
    edges_per_vertex: usize,
    seed: u64,
) -> VertexBatch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Endpoint multiset for degree-proportional sampling (plus one entry
    // per vertex so isolated vertices remain reachable).
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * g.num_edges() + g.num_vertices());
    for (u, v, _) in g.edges() {
        endpoints.push(u);
        endpoints.push(v);
    }
    endpoints.extend(g.vertices());
    let mut vertices = Vec::with_capacity(count);
    for _ in 0..count {
        let want = edges_per_vertex.min(g.num_vertices());
        let mut targets: Vec<VertexId> = Vec::with_capacity(want);
        let mut guard = 0;
        while targets.len() < want && guard < 100 * (want + 1) {
            guard += 1;
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        vertices.push(NewVertex { edges: targets.into_iter().map(|t| (t, 1)).collect() });
    }
    VertexBatch { vertices }
}

/// Parameters for [`community_batch`].
#[derive(Debug, Clone)]
pub struct CommunityBatchParams {
    /// Number of new vertices.
    pub count: usize,
    /// Approximate community size within the batch.
    pub community_size: usize,
    /// Intra-community edge probability of the donor graph.
    pub p_in: f64,
    /// Inter-community edge probability of the donor graph.
    pub p_out: f64,
    /// Edges from each new vertex to the *existing* graph.
    pub attach_edges: usize,
    pub seed: u64,
}

impl Default for CommunityBatchParams {
    fn default() -> Self {
        Self { count: 100, community_size: 25, p_in: 0.25, p_out: 0.005, attach_edges: 1, seed: 0 }
    }
}

/// Builds a community-structured batch using the paper's protocol
/// (§V.B.2): generate a larger donor graph with planted communities,
/// recover them with Louvain (our Pajek-Louvain substitute), order the
/// batch by community, and keep the donor's internal edges. Each new
/// vertex additionally attaches to `attach_edges` random existing vertices
/// so the batch joins the graph.
///
/// Returns the batch plus the recovered community label per batch vertex
/// (used by tests and by the Figure 7 harness).
pub fn community_batch(
    existing: &AdjGraph,
    params: &CommunityBatchParams,
) -> (VertexBatch, Vec<u32>) {
    let communities = (params.count / params.community_size.max(1)).max(1);
    let size = params.count.div_ceil(communities);
    let model = PlantedPartition { communities, size, p_in: params.p_in, p_out: params.p_out };
    let (donor, _) = planted_partition(&model, WeightModel::Unit, params.seed)
        .expect("donor model parameters are valid by construction");
    let assignment = louvain(&donor, &LouvainConfig { seed: params.seed, ..Default::default() });

    // Order donor vertices by recovered community, keep the first `count`.
    let mut order: Vec<VertexId> = (0..donor.num_vertices() as VertexId).collect();
    order.sort_by_key(|&v| (assignment.label[v as usize], v));
    order.truncate(params.count);
    let mut batch_index = vec![u32::MAX; donor.num_vertices()];
    for (i, &v) in order.iter().enumerate() {
        batch_index[v as usize] = i as u32;
    }

    let mut rng = ChaCha8Rng::seed_from_u64(params.seed.wrapping_add(0x9E3779B97F4A7C15));
    let n_existing = existing.num_vertices();
    let base = n_existing as VertexId;
    let mut vertices: Vec<NewVertex> =
        (0..params.count).map(|_| NewVertex { edges: vec![] }).collect();
    // Internal edges: donor edges between two kept vertices, attached to the
    // lower-indexed endpoint so each appears once.
    for (u, v, w) in donor.edges() {
        let (bu, bv) = (batch_index[u as usize], batch_index[v as usize]);
        if bu != u32::MAX && bv != u32::MAX {
            let (lo, hi) = (bu.min(bv), bu.max(bv));
            vertices[hi as usize].edges.push((base + lo, w));
        }
    }
    // Attachment edges into the existing graph.
    if n_existing > 0 {
        for nv in vertices.iter_mut() {
            let mut targets = Vec::new();
            let mut guard = 0;
            while targets.len() < params.attach_edges && guard < 100 {
                guard += 1;
                let t = rng.gen_range(0..n_existing as VertexId);
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            nv.edges.extend(targets.into_iter().map(|t| (t, 1)));
        }
    }
    let labels: Vec<u32> = order.iter().map(|&v| assignment.label[v as usize]).collect();
    (VertexBatch { vertices }, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::generators::barabasi_albert;

    fn base_graph() -> AdjGraph {
        barabasi_albert(100, 2, WeightModel::Unit, 1).unwrap()
    }

    #[test]
    fn validate_catches_bad_batches() {
        let ok = VertexBatch {
            vertices: vec![
                NewVertex { edges: vec![(0, 1), (101, 2)] },
                NewVertex { edges: vec![] },
            ],
        };
        ok.validate(100).unwrap();
        let oob = VertexBatch { vertices: vec![NewVertex { edges: vec![(102, 1)] }] };
        assert!(oob.validate(100).is_err());
        let selfloop = VertexBatch { vertices: vec![NewVertex { edges: vec![(100, 1)] }] };
        assert!(selfloop.validate(100).is_err());
        let zero = VertexBatch { vertices: vec![NewVertex { edges: vec![(0, 0)] }] };
        assert!(zero.validate(100).is_err());
        let dup = VertexBatch {
            vertices: vec![
                NewVertex { edges: vec![(101, 1)] },
                NewVertex { edges: vec![(100, 1)] },
            ],
        };
        assert!(dup.validate(100).is_err());
    }

    #[test]
    fn global_and_internal_edges() {
        let b = VertexBatch {
            vertices: vec![
                NewVertex { edges: vec![(5, 2)] },
                NewVertex { edges: vec![(10, 3), (9, 1)] },
            ],
        };
        let g = b.global_edges(10);
        assert_eq!(g, vec![(10, 5, 2), (11, 10, 3), (11, 9, 1)]);
        let internal = b.internal_edges(10);
        assert_eq!(internal, vec![(1, 0, 3)]);
        assert_eq!(b.num_edges(), 3);
    }

    #[test]
    fn preferential_batch_targets_exist() {
        let g = base_graph();
        let b = preferential_batch(&g, 20, 3, 7);
        assert_eq!(b.len(), 20);
        b.validate(g.num_vertices()).unwrap();
        for nv in &b.vertices {
            assert_eq!(nv.edges.len(), 3);
            for &(t, _) in &nv.edges {
                assert!((t as usize) < g.num_vertices());
            }
        }
    }

    #[test]
    fn preferential_batch_prefers_hubs() {
        let g = base_graph();
        let hub = (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).unwrap();
        let b = preferential_batch(&g, 200, 2, 3);
        let hits =
            b.vertices.iter().flat_map(|nv| nv.edges.iter()).filter(|&&(t, _)| t == hub).count();
        // Expected hits ≈ 400 × deg(hub)/(2E + n) ≫ 400/n ≈ 4 uniform hits.
        assert!(hits >= 8, "hub only hit {hits} times");
    }

    #[test]
    fn community_batch_has_internal_structure() {
        let g = base_graph();
        let params =
            CommunityBatchParams { count: 80, community_size: 20, seed: 3, ..Default::default() };
        let (b, labels) = community_batch(&g, &params);
        assert_eq!(b.len(), 80);
        assert_eq!(labels.len(), 80);
        b.validate(g.num_vertices()).unwrap();
        let internal = b.internal_edges(g.num_vertices() as VertexId);
        assert!(!internal.is_empty());
        // Most internal edges stay within a recovered community.
        let same =
            internal.iter().filter(|&&(a, b, _)| labels[a as usize] == labels[b as usize]).count();
        assert!(
            same * 2 > internal.len(),
            "{same} of {} internal edges intra-community",
            internal.len()
        );
        // Every vertex attaches to the existing graph.
        for nv in &b.vertices {
            assert!(nv.edges.iter().any(|&(t, _)| (t as usize) < g.num_vertices()));
        }
    }

    #[test]
    fn community_batch_deterministic() {
        let g = base_graph();
        let params = CommunityBatchParams { count: 40, seed: 9, ..Default::default() };
        let (a, _) = community_batch(&g, &params);
        let (b, _) = community_batch(&g, &params);
        assert_eq!(a, b);
    }
}
