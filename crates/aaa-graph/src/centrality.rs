//! Additional centrality measures (§IV of the paper names degree,
//! betweenness, closeness and eigenvector centrality as the key SNA
//! metrics; closeness lives in [`crate::closeness`], the others here).

use crate::{dist_add, Csr, Dist, VertexId, Weight, INF};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Degree centrality: `deg(v) / (n − 1)` (Freeman normalization).
pub fn degree_centrality(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    if n <= 1 {
        return vec![0.0; n];
    }
    (0..n as VertexId).map(|v| g.degree(v) as f64 / (n - 1) as f64).collect()
}

/// Eigenvector centrality by power iteration (undirected, weighted).
/// Returns the L2-normalized dominant eigenvector, or zeros on an edgeless
/// graph.
pub fn eigenvector_centrality(g: &Csr, iterations: usize, tol: f64) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 || g.num_edges() == 0 {
        return vec![0.0; n];
    }
    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    let mut next = vec![0.0; n];
    for _ in 0..iterations.max(1) {
        // Shifted iteration (A + I): same eigenvectors, but the spectral
        // shift prevents the sign-flip oscillation on bipartite graphs.
        next.copy_from_slice(&x);
        for v in 0..n as VertexId {
            let xv = x[v as usize];
            for (t, w) in g.neighbors(v) {
                next[t as usize] += w as f64 * xv;
            }
        }
        let norm = next.iter().map(|e| e * e).sum::<f64>().sqrt();
        if norm == 0.0 {
            return vec![0.0; n];
        }
        next.iter_mut().for_each(|e| *e /= norm);
        let delta: f64 = x.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut x, &mut next);
        if delta < tol {
            break;
        }
    }
    x
}

/// Betweenness centrality by Brandes' algorithm (weighted variant,
/// Dijkstra-based), parallel over sources. Undirected convention: each
/// pair's dependency is accumulated from both endpoints, so the final
/// scores are halved.
pub fn betweenness_centrality(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    (0..n as VertexId)
        .into_par_iter()
        .map(|s| brandes_from(g, s))
        .reduce(
            || vec![0.0; n],
            |mut acc, partial| {
                for (a, p) in acc.iter_mut().zip(partial) {
                    *a += p;
                }
                acc
            },
        )
        .into_iter()
        .map(|x| x / 2.0)
        .collect()
}

/// Single-source Brandes pass: Dijkstra SSSP with shortest-path counts,
/// then dependency accumulation in reverse settle order.
fn brandes_from(g: &Csr, s: VertexId) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist: Vec<Dist> = vec![INF; n];
    let mut sigma: Vec<f64> = vec![0.0; n];
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut settled: Vec<VertexId> = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();

    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if done[v as usize] {
            continue;
        }
        done[v as usize] = true;
        settled.push(v);
        for (t, w) in g.neighbors(v) {
            let nd = d.saturating_add(w as Dist);
            let td = dist[t as usize];
            if nd < td {
                dist[t as usize] = nd;
                sigma[t as usize] = sigma[v as usize];
                preds[t as usize].clear();
                preds[t as usize].push(v);
                heap.push(Reverse((nd, t)));
            } else if nd == td && nd != INF {
                sigma[t as usize] += sigma[v as usize];
                preds[t as usize].push(v);
            }
        }
    }
    let mut delta = vec![0.0; n];
    let mut out = vec![0.0; n];
    for &v in settled.iter().rev() {
        for &p in &preds[v as usize] {
            delta[p as usize] += sigma[p as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
        }
        if v != s {
            out[v as usize] += delta[v as usize];
        }
    }
    out
}

/// Largest finite distance, as a multiple of the row length, up to which
/// [`canonical_order`] counts instead of sorting: its counters are one per
/// distance value, so the counting pass stays linear in the row.
const COUNTING_SPAN: usize = 4;

/// The finite entries of `row` in canonical `(distance, id)` order. A
/// counting pass over the distances (ids ascend inside a bucket because the
/// row is walked in id order) whenever the largest finite distance is
/// O(n) — every unit-weight graph — and a comparison sort otherwise; both
/// yield the one sequence.
fn canonical_order(row: &[Dist]) -> Vec<VertexId> {
    let n = row.len();
    let (mut finite, mut max) = (0usize, 0 as Dist);
    for &d in row {
        if d != INF {
            finite += 1;
            max = max.max(d);
        }
    }
    if max as usize > COUNTING_SPAN * n {
        let mut order: Vec<VertexId> =
            (0..n as VertexId).filter(|&v| row[v as usize] != INF).collect();
        order.sort_unstable_by_key(|&v| (row[v as usize], v));
        return order;
    }
    // `next[d]` is where the next id at distance `d` goes: bucket sizes,
    // shifted by one, summed into bucket starts.
    let mut next = vec![0u32; max as usize + 2];
    for &d in row {
        if d != INF {
            next[d as usize + 1] += 1;
        }
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut order = vec![0 as VertexId; finite];
    for (v, &d) in row.iter().enumerate() {
        if d != INF {
            let slot = &mut next[d as usize];
            order[*slot as usize] = v as VertexId;
            *slot += 1;
        }
    }
    order
}

/// Brandes dependency vector of one source, derived from its distance
/// *row* instead of a fresh Dijkstra traversal — the kernel shared by the
/// deterministic betweenness oracle below and the engine's incremental
/// `IncBetweenness` metric (which already maintains the rows as DV state).
///
/// Vertices are processed in canonical `(distance, id)` order — the same
/// id tie-break the serve layer's top-k total order uses — and every
/// floating-point accumulation happens in that canonical order, never in
/// neighbor-list order. Two callers handing in the same row and the same
/// edge set therefore get **bit-identical** vectors regardless of backend
/// (adjacency-list vs CSR), which is what lets the incremental metric
/// promise exact equality with the oracle at convergence. Of the edge set
/// the result depends on nothing but which pairs are *tight* under the row
/// (`row[p] + w == row[v]`, both finite): an edge change that leaves the
/// row and that set alone leaves the vector alone, bit for bit — the
/// engine's per-source test rests on this.
///
/// `row` may be a partial (admissible, entrywise ≥ exact) anytime row: a
/// vertex whose row entry is finite but not yet witnessed by any
/// consistent predecessor (`row[p] + w == row[v]`) gets `σ = 0` and is
/// skipped by the dependency pass, so the result is a well-defined
/// approximation that converges to the exact Brandes vector as the row
/// does. Requires positive edge weights (zero-weight edges would break
/// the strict distance ordering path counting relies on). The source's
/// own entry is zeroed (a vertex never mediates for itself).
///
/// Both sweeps apply the tightness test as a `0.0` / `1.0` factor, not a
/// branch (a tightness branch mispredicts on most edge visits). That is
/// the same floats in the same order as the branching loop **provided
/// every path count σ is finite**: for finite non-negative `x`,
/// `x * 1.0 == x`, `x * 0.0` is `+0.0`, and adding `+0.0` to an
/// accumulator that started at `+0.0` and only ever took non-negative
/// terms leaves its bits alone. (A σ that overflowed to `∞` made the
/// branching loop return `NaN`s too — `∞ / ∞` — just different ones.)
pub fn dependency_from_row<F, I>(source: VertexId, row: &[Dist], succ: F) -> Vec<f64>
where
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    let n = row.len();
    let order = canonical_order(row);

    // Forward sweep: push path counts along tight edges. Processing in
    // canonical order means every contribution to `sigma[t]` arrives in
    // the `(distance, id)` order of its predecessor — deterministic no
    // matter how the backend orders neighbor lists.
    let mut sigma = vec![0.0f64; n];
    if (source as usize) < n && row[source as usize] != INF {
        sigma[source as usize] = 1.0;
    }
    for &v in &order {
        let sv = sigma[v as usize];
        if sv == 0.0 {
            continue; // no consistent shortest-path mass reaches v yet
        }
        let dv = row[v as usize];
        for (t, w) in succ(v) {
            if t == v || t as usize >= n {
                continue; // neighbor beyond this row's coverage (mid-grow)
            }
            let dt = row[t as usize];
            let tight = (dt != INF) & (dist_add(dv, w as Dist) == dt) & (dt > dv);
            sigma[t as usize] += sv * f64::from(u8::from(tight));
        }
    }

    // Backward sweep in reverse canonical order: classic Brandes
    // accumulation, each `delta[p]` receiving one term per tight edge (and
    // a `+0.0` per other edge; so does a `p` with `σ = 0`).
    let mut delta = vec![0.0f64; n];
    for &v in order.iter().rev() {
        let sv = sigma[v as usize];
        if v == source || sv == 0.0 {
            continue;
        }
        let dv = row[v as usize];
        let term = 1.0 + delta[v as usize];
        for (p, w) in succ(v) {
            if p == v || p as usize >= n {
                continue;
            }
            let dp = row[p as usize];
            let tight = (dp != INF) & (dp < dv) & (dist_add(dp, w as Dist) == dv);
            delta[p as usize] += sigma[p as usize] * f64::from(u8::from(tight)) / sv * term;
        }
    }
    if (source as usize) < n {
        delta[source as usize] = 0.0;
    }
    delta
}

/// Betweenness from per-source distance rows: sums
/// [`dependency_from_row`] vectors in increasing source order and halves
/// (undirected convention), exactly like [`betweenness_centrality`].
///
/// This is the bit-level contract the incremental metric reproduces: it
/// re-sums its cached per-source vectors in the same source order with the
/// same kernel, so at convergence (rows exact) the two are `==`, not just
/// approximately equal.
pub fn betweenness_from_rows<R, F, I>(n: usize, mut row_of: R, succ: F) -> Vec<f64>
where
    R: FnMut(VertexId) -> Vec<Dist>,
    F: Fn(VertexId) -> I + Copy,
    I: Iterator<Item = (VertexId, Weight)>,
{
    let mut acc = vec![0.0f64; n];
    for s in 0..n as VertexId {
        let row = row_of(s);
        let dep = dependency_from_row(s, &row, succ);
        for (a, d) in acc.iter_mut().zip(dep) {
            *a += d;
        }
    }
    acc.iter_mut().for_each(|x| *x /= 2.0);
    acc
}

/// Exact Brandes betweenness with deterministic `(distance, id)`
/// tie-breaks: the correctness oracle for the engine's incremental
/// betweenness metric. Agrees with [`betweenness_centrality`] up to
/// floating-point association; unlike it, the result is a bit-exact
/// function of the graph alone (no reduction-order dependence).
///
/// `GraphStore`-generic callers use `aaa_store::algo::betweenness_exact`,
/// which wraps this kernel (the trait lives downstream of this crate).
pub fn betweenness_exact_det(g: &Csr) -> Vec<f64> {
    betweenness_from_rows(g.num_vertices(), |s| crate::sssp::dijkstra(g, s), |v| g.neighbors(v))
}

/// Local clustering coefficient of each vertex (unweighted triangles).
pub fn clustering_coefficients(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            let nbrs = g.targets(v);
            let k = nbrs.len();
            if k < 2 {
                return 0.0;
            }
            let mut closed = 0usize;
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if g.targets(a).contains(&b) {
                        closed += 1;
                    }
                }
            }
            2.0 * closed as f64 / (k * (k - 1)) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdjGraph;

    fn path4() -> Csr {
        let mut g = AdjGraph::with_vertices(4);
        for v in 0..3 {
            g.add_edge(v, v + 1, 1).unwrap();
        }
        Csr::from_adj(&g)
    }

    #[test]
    fn degree_centrality_of_path() {
        let c = degree_centrality(&path4());
        assert!((c[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn betweenness_of_path() {
        // Path 0-1-2-3: pairs through vertex 1: (0,2), (0,3) -> 2.
        // Through vertex 2: (0,3), (1,3) -> 2. Endpoints: 0.
        let b = betweenness_centrality(&path4());
        assert!((b[0]).abs() < 1e-9);
        assert!((b[1] - 2.0).abs() < 1e-9, "{b:?}");
        assert!((b[2] - 2.0).abs() < 1e-9);
        assert!((b[3]).abs() < 1e-9);
    }

    #[test]
    fn betweenness_of_star_center() {
        let mut g = AdjGraph::with_vertices(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf, 1).unwrap();
        }
        let b = betweenness_centrality(&Csr::from_adj(&g));
        // Center mediates all C(4,2) = 6 leaf pairs.
        assert!((b[0] - 6.0).abs() < 1e-9, "{b:?}");
        assert!(b[1..].iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn betweenness_splits_over_equal_paths() {
        // Square 0-1-2-3-0: two equal shortest paths between opposite
        // corners; each midpoint gets 1/2 per opposite pair.
        let mut g = AdjGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let b = betweenness_centrality(&Csr::from_adj(&g));
        for &x in &b {
            assert!((x - 0.5).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn weighted_betweenness_prefers_light_paths() {
        // 0-1 (1), 1-2 (1), 0-2 (10): all 0..2 traffic goes through 1.
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(0, 2, 10).unwrap();
        let b = betweenness_centrality(&Csr::from_adj(&g));
        assert!((b[1] - 1.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn deterministic_betweenness_matches_parallel_reference() {
        let mut square = AdjGraph::with_vertices(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            square.add_edge(u, v, 1).unwrap();
        }
        let mut star = AdjGraph::with_vertices(5);
        for leaf in 1..5 {
            star.add_edge(0, leaf, 1).unwrap();
        }
        let mut weighted = AdjGraph::with_vertices(3);
        weighted.add_edge(0, 1, 1).unwrap();
        weighted.add_edge(1, 2, 1).unwrap();
        weighted.add_edge(0, 2, 10).unwrap();
        for g in [path4(), Csr::from_adj(&square), Csr::from_adj(&star), Csr::from_adj(&weighted)] {
            let det = betweenness_exact_det(&g);
            let par = betweenness_centrality(&g);
            for (a, b) in det.iter().zip(&par) {
                assert!((a - b).abs() < 1e-9, "{det:?} vs {par:?}");
            }
        }
    }

    #[test]
    fn dependency_from_row_is_backend_independent() {
        // Same rows fed through AdjGraph and Csr neighbor iterators must
        // produce bit-identical dependency vectors.
        let mut g = AdjGraph::with_vertices(6);
        for (u, v, w) in
            [(0, 1, 2), (1, 2, 2), (0, 2, 4), (2, 3, 1), (3, 4, 3), (1, 4, 6), (4, 5, 1)]
        {
            g.add_edge(u, v, w).unwrap();
        }
        let csr = Csr::from_adj(&g);
        for s in 0..6 {
            let row = crate::sssp::dijkstra(&csr, s);
            let via_csr = dependency_from_row(s, &row, |v| csr.neighbors(v));
            let via_adj = dependency_from_row(s, &row, |v| g.neighbors(v).iter().copied());
            assert_eq!(via_csr, via_adj, "source {s}");
            assert!(via_csr.iter().all(|d| d.is_finite()));
            assert_eq!(via_csr[s as usize], 0.0);
        }
    }

    #[test]
    fn dependency_from_partial_row_skips_unwitnessed_vertices() {
        // Admissible-but-stale row: vertex 3's entry is finite but not
        // witnessed by any tight edge, so it carries no path mass and
        // contributes no dependency.
        let g = path4();
        let mut row = crate::sssp::dijkstra(&g, 0);
        row[3] = 100; // admissible (≥ exact 3), inconsistent
        let dep = dependency_from_row(0, &row, |v| g.neighbors(v));
        // Only pairs (0,1),(0,2) remain: delta[1] counts vertex 2 once.
        assert_eq!(dep[1], 1.0);
        assert_eq!(dep[2], 0.0);
        assert_eq!(dep[3], 0.0);
        // All-INF row (source not yet reached) yields zeros.
        let zeros = dependency_from_row(2, &[INF; 4], |v| g.neighbors(v));
        assert_eq!(zeros, vec![0.0; 4]);
    }

    /// The branching, comparison-sorting loop `dependency_from_row` was
    /// before its sweeps went branch-free, kept verbatim: the bit record
    /// the kernel is held to.
    fn reference_dependency<F, I>(source: VertexId, row: &[Dist], succ: F) -> Vec<f64>
    where
        F: Fn(VertexId) -> I,
        I: Iterator<Item = (VertexId, Weight)>,
    {
        let n = row.len();
        let mut order: Vec<VertexId> =
            (0..n as VertexId).filter(|&v| row[v as usize] != INF).collect();
        order.sort_unstable_by_key(|&v| (row[v as usize], v));

        let mut sigma = vec![0.0f64; n];
        if (source as usize) < n && row[source as usize] != INF {
            sigma[source as usize] = 1.0;
        }
        for &v in &order {
            if sigma[v as usize] == 0.0 {
                continue;
            }
            let dv = row[v as usize];
            for (t, w) in succ(v) {
                if t == v || t as usize >= n {
                    continue;
                }
                let dt = row[t as usize];
                if dt != INF && dist_add(dv, w as Dist) == dt && dt > dv {
                    sigma[t as usize] += sigma[v as usize];
                }
            }
        }

        let mut delta = vec![0.0f64; n];
        for &v in order.iter().rev() {
            if v == source || sigma[v as usize] == 0.0 {
                continue;
            }
            let dv = row[v as usize];
            let term = 1.0 + delta[v as usize];
            for (p, w) in succ(v) {
                if p == v || p as usize >= n {
                    continue;
                }
                let dp = row[p as usize];
                if dp != INF && dp < dv && dist_add(dp, w as Dist) == dv && sigma[p as usize] != 0.0
                {
                    delta[p as usize] += sigma[p as usize] / sigma[v as usize] * term;
                }
            }
        }
        if (source as usize) < n {
            delta[source as usize] = 0.0;
        }
        delta
    }

    fn assert_same_bits(g: &AdjGraph, source: VertexId, row: &[Dist], what: &str) {
        let succ = |v: VertexId| g.neighbors(v).iter().copied();
        let new = dependency_from_row(source, row, succ);
        let old = reference_dependency(source, row, succ);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&new), bits(&old), "{what}, source {source}");
    }

    /// BA, ER and planted-partition graphs, unit and weighted.
    fn kernel_graphs() -> Vec<(&'static str, AdjGraph)> {
        use crate::generators::{
            barabasi_albert, erdos_renyi, planted_partition, PlantedPartition, WeightModel,
        };
        let sbm = PlantedPartition { communities: 4, size: 20, p_in: 0.3, p_out: 0.02 };
        let weighted = WeightModel::UniformRange { lo: 1, hi: 7 };
        vec![
            ("ba unit", barabasi_albert(90, 3, WeightModel::Unit, 11).unwrap()),
            ("ba weighted", barabasi_albert(90, 3, weighted, 12).unwrap()),
            ("er unit", erdos_renyi(80, 200, WeightModel::Unit, 13).unwrap()),
            ("er weighted", erdos_renyi(80, 200, weighted, 14).unwrap()),
            ("sbm unit", planted_partition(&sbm, WeightModel::Unit, 15).unwrap().0),
            ("sbm weighted", planted_partition(&sbm, weighted, 16).unwrap().0),
        ]
    }

    #[test]
    fn dependency_matches_the_reference_loop_on_exact_rows() {
        for (name, g) in kernel_graphs() {
            let csr = Csr::from_adj(&g);
            for s in 0..g.num_vertices() as VertexId {
                assert_same_bits(&g, s, &crate::sssp::dijkstra(&csr, s), name);
            }
        }
    }

    #[test]
    fn dependency_matches_the_reference_loop_on_partial_rows() {
        for (name, g) in kernel_graphs() {
            let csr = Csr::from_adj(&g);
            let n = g.num_vertices();
            for s in 0..n as VertexId {
                let exact = crate::sssp::dijkstra(&csr, s);
                // IA-grade: the self cell and the direct edges, all else INF.
                let mut ia = vec![INF; n];
                ia[s as usize] = 0;
                for &(t, w) in g.neighbors(s) {
                    ia[t as usize] = w as Dist;
                }
                assert_same_bits(&g, s, &ia, name);
                // Every third cell not reached yet.
                let mut holes = exact.clone();
                holes.iter_mut().skip(1).step_by(3).for_each(|d| *d = INF);
                assert_same_bits(&g, s, &holes, name);
                // Admissible but unwitnessed: every fourth finite cell sits
                // well above its distance, so no tight predecessor
                // vouches for it (σ = 0) and whatever hangs off it is cut.
                let mut stale = exact.clone();
                for d in stale.iter_mut().skip(2).step_by(4) {
                    if *d != INF && *d != 0 {
                        *d = *d * 2 + 1;
                    }
                }
                assert_same_bits(&g, s, &stale, name);
                // A row of another source entirely.
                assert_same_bits(&g, (s + 1) % n as VertexId, &exact, name);
            }
        }
    }

    /// A path of `n` vertices whose far end lies `far` away: weight 1
    /// everywhere but on the last edge.
    fn stretched_path(n: usize, far: Dist) -> AdjGraph {
        let mut g = AdjGraph::with_vertices(n);
        for v in 0..n as VertexId - 2 {
            g.add_edge(v, v + 1, 1).unwrap();
        }
        let last = n as VertexId - 1;
        g.add_edge(last - 1, last, far - (last - 1)).unwrap();
        g
    }

    #[test]
    fn dependency_matches_the_reference_loop_on_both_sides_of_the_counting_threshold() {
        let n = 40;
        let limit = (COUNTING_SPAN * n) as Dist;
        for far in [limit, limit + 1, 1 << 30] {
            let g = stretched_path(n, far);
            let csr = Csr::from_adj(&g);
            let row = crate::sssp::dijkstra(&csr, 0);
            assert_eq!(row[n - 1], far);
            let sorted = {
                let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
                ids.sort_unstable_by_key(|&v| (row[v as usize], v));
                ids
            };
            assert_eq!(canonical_order(&row), sorted, "far end at {far}");
            for s in 0..n as VertexId {
                assert_same_bits(&g, s, &crate::sssp::dijkstra(&csr, s), "stretched path");
            }
        }
    }

    #[test]
    fn dependency_of_the_empty_row_and_of_an_out_of_range_source() {
        let g = path4();
        assert!(dependency_from_row(0, &[], |v| g.neighbors(v)).is_empty());
        assert!(canonical_order(&[]).is_empty());
        assert!(canonical_order(&[INF; 3]).is_empty());
        // A source the row does not cover seeds no path mass: all zeros,
        // and no cell beyond the row is touched.
        let row = crate::sssp::dijkstra(&g, 1);
        let adj = {
            let mut a = AdjGraph::with_vertices(4);
            for v in 0..3 {
                a.add_edge(v, v + 1, 1).unwrap();
            }
            a
        };
        assert_same_bits(&adj, 9, &row, "out-of-range source");
        assert_eq!(dependency_from_row(9, &row, |v| g.neighbors(v)), vec![0.0; 4]);
    }

    /// Host-stable speed gate: the branch-free, counting-order kernel
    /// against the loop it replaced, same process, same rows. Run with
    /// `cargo test --release -p aaa-graph -- --ignored dependency_kernel_ratio --nocapture`.
    #[test]
    #[ignore = "timing: run in release, alone"]
    fn dependency_kernel_ratio() {
        use crate::generators::{barabasi_albert, WeightModel};
        use std::hint::black_box;
        use std::time::Instant;
        let n = 450;
        let g = barabasi_albert(n, 3, WeightModel::Unit, 42).unwrap();
        let csr = Csr::from_adj(&g);
        let rows: Vec<Vec<Dist>> =
            (0..n as VertexId).map(|s| crate::sssp::dijkstra(&csr, s)).collect();
        let succ = |v: VertexId| g.neighbors(v).iter().copied();
        let best_of_7 = |kernel: &dyn Fn(VertexId, &[Dist]) -> Vec<f64>| {
            (0..7)
                .map(|_| {
                    let started = Instant::now();
                    for (s, row) in rows.iter().enumerate() {
                        black_box(kernel(s as VertexId, black_box(row)));
                    }
                    started.elapsed().as_secs_f64() * 1e6 / n as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let old = best_of_7(&|s, row| reference_dependency(s, row, succ));
        let new = best_of_7(&|s, row| dependency_from_row(s, row, succ));
        println!(
            "dependency kernel, n = {n} BA m = 3: reference {old:.1} us/source, \
             kernel {new:.1} us/source, ratio {:.2}x",
            old / new
        );
        assert!(old >= 1.5 * new, "kernel {new:.1} us vs reference {old:.1} us per source");
    }

    #[test]
    fn betweenness_from_rows_matches_exact_det_bitwise() {
        let mut g = AdjGraph::with_vertices(7);
        for (u, v, w) in
            [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 0, 3), (2, 5, 1), (5, 6, 1), (6, 3, 1)]
        {
            g.add_edge(u, v, w).unwrap();
        }
        let csr = Csr::from_adj(&g);
        let oracle = betweenness_exact_det(&csr);
        // Re-summing the same per-source vectors from pre-gathered rows
        // (the incremental metric's contract) is bit-identical.
        let rows: Vec<Vec<Dist>> = (0..7).map(|s| crate::sssp::dijkstra(&csr, s)).collect();
        let from_rows =
            betweenness_from_rows(7, |s| rows[s as usize].clone(), |v| csr.neighbors(v));
        assert_eq!(oracle, from_rows);
    }

    #[test]
    fn eigenvector_centrality_peaks_at_hub() {
        let mut g = AdjGraph::with_vertices(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf, 1).unwrap();
        }
        let e = eigenvector_centrality(&Csr::from_adj(&g), 200, 1e-12);
        assert!(e[0] > e[1]);
        assert!((e[1] - e[4]).abs() < 1e-9);
        // Edgeless graph.
        let z = eigenvector_centrality(&Csr::from_adj(&AdjGraph::with_vertices(3)), 10, 1e-9);
        assert_eq!(z, vec![0.0; 3]);
    }

    #[test]
    fn clustering_of_triangle_and_path() {
        let mut g = AdjGraph::with_vertices(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(0, 2, 1).unwrap();
        let c = clustering_coefficients(&Csr::from_adj(&g));
        assert_eq!(c, vec![1.0, 1.0, 1.0]);
        let c = clustering_coefficients(&path4());
        assert_eq!(c, vec![0.0; 4]);
    }
}
