//! Betweenness centrality, the one SNA measure besides closeness
//! ([`crate::closeness`]) the engine maintains: the batched Brandes
//! dependency kernel [`dependencies_from_rows`] behind the engine's
//! incremental metric, and the deterministic exact oracle
//! [`betweenness_exact_det`] built on the same kernel over any
//! [`GraphStore`] backend.

use crate::{dist_add, Dist, GraphStore, VertexId, Weight, INF};

/// Largest finite distance, as a multiple of the row length, up to which
/// the union order is counted instead of sorted: its counters are one per
/// distance value, so the counting pass stays linear in the rows.
const COUNTING_SPAN: usize = 4;

/// Sources one [`dependencies_from_rows`] call carries: one distance
/// vector and two path-count vectors of this width per vertex, a 256-bit
/// register of `u32`s and two of `f64`s on AVX2. Not a knob — which
/// sources share a batch changes no bit of any result.
pub const LANES: usize = 8;

/// One vertex's cell of a batch: lane `l` holds source `l`'s distance,
/// path count σ and dependency δ.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Lanes {
    dist: [Dist; LANES],
    sigma: [f64; LANES],
    delta: [f64; LANES],
}

/// Reusable buffers of [`dependencies_from_rows`]: hand the same one to
/// every batch and the kernel allocates only when the graph grew.
#[derive(Debug, Clone, Default)]
pub struct DependencyScratch {
    cells: Vec<Lanes>,
    /// Every distinct `(distance, id)` some lane's row holds, ascending.
    order: Vec<(Dist, VertexId)>,
    /// The counting pass: the same pairs in id order, the bucket starts,
    /// and per distance the last id counted there.
    pairs: Vec<(Dist, VertexId)>,
    next: Vec<u32>,
    seen: Vec<VertexId>,
}

/// Brandes dependency vectors of up to [`LANES`] sources at once, derived
/// from their distance *rows* instead of fresh Dijkstra traversals — the
/// one kernel behind the deterministic betweenness oracle below and the
/// engine's incremental `IncBetweenness` metric (which already maintains
/// the rows as DV state). `out[l]` becomes source `sources[l]`'s vector,
/// `rows[l].len()` long; rows may differ in length (a short row reads as
/// `INF` past its end, exactly as if the graph had not grown for it).
///
/// Per lane the result is **bit-identical** to the one-source Brandes
/// pass over a canonical `(distance, id)` order — the same id tie-break
/// the serve layer's top-k total order uses — with every floating-point
/// accumulation in that order, never in neighbor-list order: two callers
/// handing in the same row and edge set get the same bits whatever the
/// backend, and whatever else shares the batch. That is what lets the
/// incremental metric promise exact equality with the oracle at
/// convergence. Of the edge set a vector depends on nothing but which
/// pairs are *tight* under its row (`row[p] + w == row[v]`, both finite):
/// an edge change that leaves the row and that set alone leaves the vector
/// alone, bit for bit — the engine's per-source test rests on this.
///
/// A row may be a partial (admissible, entrywise ≥ exact) anytime row: a
/// vertex whose entry is finite but not yet witnessed by any consistent
/// predecessor gets `σ = 0` and contributes no dependency, so the result
/// is a well-defined approximation that converges to the exact Brandes
/// vector as the row does. Requires positive edge weights (zero-weight
/// edges would break the strict distance ordering path counting relies
/// on). A source's own entry is zeroed; a source past its row seeds no
/// path mass.
///
/// *How the lanes share one walk.* Both sweeps visit the union of the
/// lanes' canonical orders — each distinct `(d, v)` with some
/// `rows[l][v] == d`, counted when the largest distance is at most
/// `COUNTING_SPAN·n`, sorted otherwise — and lane `l` is *active* at
/// `(d, v)` exactly when `rows[l][v] == d`, so restricted to its active
/// visits a lane walks its own canonical order and makes the one-source
/// pass's adds in the one-source pass's order. Every other add is `+0.0`:
/// an inactive lane, a non-tight edge and a discarded lane (the source
/// itself, `σ = 0`) all add `+0.0`, which leaves an accumulator that
/// started at `+0.0` and only takes non-negative terms bit for bit alone;
/// a discarded lane's `σ_p / 0` is selected away, never added. The
/// precondition is finite path counts (σ overflowing to `∞` yields
/// `NaN`s, as the branching loop did). One portable body, and on x86-64
/// hosts with AVX2 the same body compiled for 256-bit lanes, chosen at
/// runtime: the arithmetic is lane-wise either way, so the bits agree.
pub fn dependencies_from_rows<R, F, I>(
    sources: &[VertexId],
    rows: &[R],
    succ: F,
    scratch: &mut DependencyScratch,
    out: &mut [Vec<f64>],
) where
    R: AsRef<[Dist]>,
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { dependencies_avx2(sources, rows, succ, scratch, out) };
    }
    dependencies_portable(sources, rows, succ, scratch, out)
}

/// The body of [`dependencies_from_rows`]: transpose, union order, the
/// forward sweep, the backward sweep.
#[inline(always)]
fn dependencies_portable<R, F, I>(
    sources: &[VertexId],
    rows: &[R],
    succ: F,
    scratch: &mut DependencyScratch,
    out: &mut [Vec<f64>],
) where
    R: AsRef<[Dist]>,
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    assert!(sources.len() <= LANES, "at most {LANES} sources per batch");
    assert!(
        rows.len() == sources.len() && out.len() == sources.len(),
        "one row and out per source"
    );
    let n = rows.iter().map(|r| r.as_ref().len()).max().unwrap_or(0);
    // Unused lanes hold no finite cell and a source no vertex is.
    let mut src = [VertexId::MAX; LANES];
    src[..sources.len()].copy_from_slice(sources);

    let DependencyScratch { cells, order, pairs, next, seen } = scratch;
    cells.clear();
    cells.resize(n, Lanes { dist: [INF; LANES], sigma: [0.0; LANES], delta: [0.0; LANES] });
    for (l, row) in rows.iter().enumerate() {
        for (cell, &d) in cells.iter_mut().zip(row.as_ref()) {
            cell.dist[l] = d;
        }
    }
    union_order(cells, order, pairs, next, seen);
    // A slice, so its length — the `n` every index below is checked
    // against — stays in a register through the sweeps.
    let cells = cells.as_mut_slice();
    for (l, row) in rows.iter().enumerate() {
        let v = src[l] as usize;
        if row.as_ref().get(v).is_some_and(|&d| d != INF) {
            cells[v].sigma[l] = 1.0;
        }
    }

    // Forward sweep: push path counts along tight edges, each `sigma[t]`
    // receiving its terms in its predecessors' canonical order. A lane not
    // at distance `d` here carries no mass; an edge leaving `d` is tight in
    // a lane exactly when it lands on that lane's distance `d + w`.
    for &(d, v) in order.iter() {
        let here = &cells[v as usize];
        let mut mass = here.sigma;
        for (m, &at) in mass.iter_mut().zip(&here.dist) {
            *m = if at == d { *m } else { 0.0 };
        }
        for (t, w) in succ(v) {
            let reach = dist_add(d, w as Dist);
            if t == v || t as usize >= cells.len() || reach == INF || reach <= d {
                continue; // tight in no lane (or beyond every row: mid-grow)
            }
            let cell = &mut cells[t as usize];
            for ((sigma, &at), &m) in cell.sigma.iter_mut().zip(&cell.dist).zip(&mass) {
                *sigma += if at == reach { m } else { 0.0 };
            }
        }
    }

    // Backward sweep in reverse: classic Brandes accumulation, each
    // `delta[p]` receiving one term per tight edge in reverse canonical
    // order. A lane is live at `(d, v)` when it is there, v is not its
    // source and mass reaches v; only a live lane's tight terms are kept.
    for &(d, v) in order.iter().rev() {
        let here = cells[v as usize];
        let (mut live, mut term) = ([false; LANES], [0.0; LANES]);
        for l in 0..LANES {
            live[l] = here.dist[l] == d && here.sigma[l] != 0.0 && src[l] != v;
            term[l] = 1.0 + here.delta[l];
        }
        for (p, w) in succ(v) {
            let w = w as Dist;
            if p == v || p as usize >= cells.len() || w == 0 || w > d {
                continue; // tight in no lane
            }
            let back = d - w;
            let cell = &mut cells[p as usize];
            for l in 0..LANES {
                let add = cell.sigma[l] / here.sigma[l] * term[l];
                cell.delta[l] += if live[l] & (cell.dist[l] == back) { add } else { 0.0 };
            }
        }
    }

    for (l, (row, dep)) in rows.iter().zip(out.iter_mut()).enumerate() {
        let len = row.as_ref().len();
        if (src[l] as usize) < len {
            cells[src[l] as usize].delta[l] = 0.0;
        }
        dep.clear();
        dep.extend(cells[..len].iter().map(|cell| cell.delta[l]));
    }
}

/// [`dependencies_portable`] compiled with AVX2 enabled: the lane loops
/// become 256-bit compares, selects, adds and divides.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dependencies_avx2<R, F, I>(
    sources: &[VertexId],
    rows: &[R],
    succ: F,
    scratch: &mut DependencyScratch,
    out: &mut [Vec<f64>],
) where
    R: AsRef<[Dist]>,
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    dependencies_portable(sources, rows, succ, scratch, out)
}

/// The union of the lanes' canonical orders into `order`: each distinct
/// `(distance, id)` a cell holds, ascending. Counted — ids ascend inside a
/// bucket because the cells are walked in id order, and `seen` keeps a
/// distance two lanes share at one vertex from being counted twice —
/// whenever the largest finite distance is O(n) (every unit-weight
/// graph); sorted and deduplicated otherwise. Both yield the one sequence.
fn union_order(
    cells: &[Lanes],
    order: &mut Vec<(Dist, VertexId)>,
    pairs: &mut Vec<(Dist, VertexId)>,
    next: &mut Vec<u32>,
    seen: &mut Vec<VertexId>,
) {
    order.clear();
    // `INF + 1` wraps to 0, so `top` is one past the largest finite cell.
    let top = cells.iter().flat_map(|c| c.dist).map(|d| d.wrapping_add(1)).max().unwrap_or(0);
    let Some(max) = top.checked_sub(1) else { return };
    if max as usize > COUNTING_SPAN * cells.len() {
        for (v, cell) in cells.iter().enumerate() {
            order.extend(cell.dist.iter().filter(|&&d| d != INF).map(|&d| (d, v as VertexId)));
        }
        order.sort_unstable();
        order.dedup();
        return;
    }
    // `next[d]` is where the next id at distance `d` goes: bucket sizes,
    // shifted by one, summed into bucket starts.
    pairs.clear();
    next.clear();
    next.resize(max as usize + 2, 0);
    seen.clear();
    seen.resize(max as usize + 1, VertexId::MAX);
    for (v, cell) in cells.iter().enumerate() {
        for &d in &cell.dist {
            if d != INF && seen[d as usize] != v as VertexId {
                seen[d as usize] = v as VertexId;
                next[d as usize + 1] += 1;
                pairs.push((d, v as VertexId));
            }
        }
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    order.resize(pairs.len(), (0, 0));
    for &(d, v) in pairs.iter() {
        let slot = &mut next[d as usize];
        order[*slot as usize] = (d, v);
        *slot += 1;
    }
}

/// Each vertex's rank in a breadth-first walk over `succ` from vertex 0,
/// restarted at the lowest unreached id: sources close in rank are close in
/// the graph, so their rows hold mostly the same `(distance, id)` pairs and
/// a batch of them walks a short union order. How the engine groups the
/// sources it hands [`dependencies_from_rows`].
pub fn bfs_ranks<F, I>(n: usize, succ: F) -> Vec<u32>
where
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    let mut rank = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    for root in 0..n {
        if rank[root] != u32::MAX {
            continue;
        }
        rank[root] = queue.len() as u32;
        queue.push(root as VertexId);
        let mut head = rank[root] as usize;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for (t, _) in succ(v) {
                if (t as usize) < n && rank[t as usize] == u32::MAX {
                    rank[t as usize] = queue.len() as u32;
                    queue.push(t);
                }
            }
        }
    }
    rank
}

/// Betweenness from per-source distance rows: the
/// [`dependencies_from_rows`] vectors of every source, `LANES` at a time
/// in id order, summed in increasing source order and halved (undirected
/// convention: each pair's dependency accumulates from both endpoints).
///
/// This is the bit-level contract the incremental metric reproduces: it
/// re-sums its cached per-source vectors in the same source order from the
/// same kernel, so at convergence (rows exact) the two are `==`, not just
/// approximately equal.
pub fn betweenness_from_rows<R, T, F, I>(n: usize, mut row_of: R, succ: F) -> Vec<f64>
where
    R: FnMut(VertexId) -> T,
    T: AsRef<[Dist]>,
    F: Fn(VertexId) -> I + Copy,
    I: Iterator<Item = (VertexId, Weight)>,
{
    let mut acc = vec![0.0f64; n];
    let mut scratch = DependencyScratch::default();
    let mut deps = vec![Vec::new(); LANES];
    let ids: Vec<VertexId> = (0..n as VertexId).collect();
    for batch in ids.chunks(LANES) {
        let rows: Vec<T> = batch.iter().map(|&s| row_of(s)).collect();
        let deps = &mut deps[..batch.len()];
        dependencies_from_rows(batch, &rows, succ, &mut scratch, deps);
        for dep in deps.iter() {
            for (a, d) in acc.iter_mut().zip(dep) {
                *a += d;
            }
        }
    }
    acc.iter_mut().for_each(|x| *x /= 2.0);
    acc
}

/// Exact Brandes betweenness with deterministic `(distance, id)`
/// tie-breaks, over any backend: the correctness oracle for the engine's
/// incremental betweenness metric. Each source's Dijkstra row is computed
/// when its batch asks for it and lent to [`betweenness_from_rows`], so the
/// result is a bit-exact function of the graph alone (no reduction-order
/// dependence) and no n × n matrix is ever held.
pub fn betweenness_exact_det<G: GraphStore>(g: &G) -> Vec<f64> {
    betweenness_from_rows(g.num_vertices(), |s| crate::sssp::dijkstra(g, s), |v| g.successors(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjGraph, Csr};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Betweenness by Brandes' heap-based algorithm, one Dijkstra with
    /// shortest-path counts per source: the independent cross-check of
    /// [`betweenness_exact_det`], equal to it up to floating-point
    /// association. Undirected convention: each pair's dependency is
    /// accumulated from both endpoints, so the final scores are halved.
    fn betweenness_centrality(g: &Csr) -> Vec<f64> {
        let mut acc = vec![0.0; g.num_vertices()];
        for s in 0..g.num_vertices() as VertexId {
            acc.iter_mut().zip(brandes_from(g, s)).for_each(|(a, p)| *a += p);
        }
        acc.into_iter().map(|x| x / 2.0).collect()
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
                delta[p as usize] +=
                    sigma[p as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
            if v != s {
                out[v as usize] += delta[v as usize];
            }
        }
        out
    }

    fn path4() -> Csr {
        let mut g = AdjGraph::with_vertices(4);
        for v in 0..3 {
            g.add_edge(v, v + 1, 1).unwrap();
        }
        Csr::from_adj(&g)
    }

    #[test]
    fn betweenness_of_path() {
        // Path 0-1-2-3: pairs through vertex 1: (0,2), (0,3) -> 2.
        // Through vertex 2: (0,3), (1,3) -> 2. Endpoints: 0.
        let b = betweenness_exact_det(&path4());
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
        let b = betweenness_exact_det(&Csr::from_adj(&g));
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
        let b = betweenness_exact_det(&Csr::from_adj(&g));
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
        let b = betweenness_exact_det(&Csr::from_adj(&g));
        assert!((b[1] - 1.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn deterministic_betweenness_matches_the_heap_brandes() {
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
            let heap = betweenness_centrality(&g);
            for (a, b) in det.iter().zip(&heap) {
                assert!((a - b).abs() < 1e-9, "{det:?} vs {heap:?}");
            }
        }
    }

    /// `dependencies_from_rows` over one batch, returning the vectors.
    fn batch_deps<F, I>(batch: &[(VertexId, Vec<Dist>)], succ: F) -> Vec<Vec<f64>>
    where
        F: Fn(VertexId) -> I,
        I: Iterator<Item = (VertexId, Weight)>,
    {
        let sources: Vec<VertexId> = batch.iter().map(|b| b.0).collect();
        let rows: Vec<&[Dist]> = batch.iter().map(|b| b.1.as_slice()).collect();
        let mut out = vec![Vec::new(); batch.len()];
        dependencies_from_rows(&sources, &rows, succ, &mut DependencyScratch::default(), &mut out);
        out
    }

    #[test]
    fn dependencies_are_backend_independent() {
        // Same rows fed through AdjGraph and Csr neighbor iterators must
        // produce bit-identical dependency vectors.
        let mut g = AdjGraph::with_vertices(6);
        for (u, v, w) in
            [(0, 1, 2), (1, 2, 2), (0, 2, 4), (2, 3, 1), (3, 4, 3), (1, 4, 6), (4, 5, 1)]
        {
            g.add_edge(u, v, w).unwrap();
        }
        let csr = Csr::from_adj(&g);
        let batch: Vec<_> = (0..6).map(|s| (s, crate::sssp::dijkstra(&csr, s))).collect();
        let via_csr = batch_deps(&batch, |v| csr.neighbors(v));
        let via_adj = batch_deps(&batch, |v| g.neighbors(v).iter().copied());
        assert_eq!(via_csr, via_adj);
        for (s, dep) in via_csr.iter().enumerate() {
            assert!(dep.iter().all(|d| d.is_finite()));
            assert_eq!(dep[s], 0.0);
        }
    }

    #[test]
    fn dependencies_from_partial_rows_skip_unwitnessed_vertices() {
        // Admissible-but-stale row: vertex 3's entry is finite but not
        // witnessed by any tight edge, so it carries no path mass and
        // contributes no dependency.
        let g = path4();
        let mut row = crate::sssp::dijkstra(&g, 0);
        row[3] = 100; // admissible (≥ exact 3), inconsistent
                      // Beside it, an all-INF row (source not yet reached).
        let deps = batch_deps(&[(0, row), (2, vec![INF; 4])], |v| g.neighbors(v));
        // Only pairs (0,1),(0,2) remain: delta[1] counts vertex 2 once.
        assert_eq!(deps[0][1], 1.0);
        assert_eq!(deps[0][2], 0.0);
        assert_eq!(deps[0][3], 0.0);
        assert_eq!(deps[1], vec![0.0; 4]);
    }

    /// The branching, comparison-sorting one-source loop the kernel was
    /// before its sweeps went branch-free and then batched, kept verbatim:
    /// the bit record every lane is held to.
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

    /// Holds every lane of `batch` to `reference_dependency`, bit for bit,
    /// through the dispatcher and through each body directly; `scratch`
    /// carries whatever the previous batch left in it.
    fn assert_lanes_match(
        g: &AdjGraph,
        batch: &[(VertexId, Vec<Dist>)],
        scratch: &mut DependencyScratch,
        what: &str,
    ) {
        let succ = |v: VertexId| g.neighbors(v).iter().copied();
        let sources: Vec<VertexId> = batch.iter().map(|b| b.0).collect();
        let rows: Vec<&[Dist]> = batch.iter().map(|b| b.1.as_slice()).collect();
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want: Vec<_> =
            batch.iter().map(|(s, row)| bits(&reference_dependency(*s, row, succ))).collect();
        let check = |body: &str, out: &[Vec<f64>]| {
            for (l, (dep, want)) in out.iter().zip(&want).enumerate() {
                assert_eq!(&bits(dep), want, "{what}, {body}, lane {l} (source {})", sources[l]);
            }
        };
        let mut out = vec![vec![f64::NAN; 3]; batch.len()];
        dependencies_from_rows(&sources, &rows, succ, scratch, &mut out);
        check("dispatched", &out);
        dependencies_portable(&sources, &rows, succ, scratch, &mut out);
        check("portable", &out);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { dependencies_avx2(&sources, &rows, succ, scratch, &mut out) };
            check("avx2", &out);
        }
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
    fn dependencies_match_the_reference_loop_on_exact_rows() {
        let mut scratch = DependencyScratch::default();
        for (name, g) in kernel_graphs() {
            let csr = Csr::from_adj(&g);
            let batch: Vec<_> = (0..g.num_vertices() as VertexId)
                .map(|s| (s, crate::sssp::dijkstra(&csr, s)))
                .collect();
            for lanes in batch.chunks(LANES) {
                assert_lanes_match(&g, lanes, &mut scratch, name);
            }
        }
    }

    /// Source `s`'s row, degraded as lane kind `kind` says: 0 exact,
    /// 1 IA-grade, 2 holed, 3 stale, 4 another source's row (`other`'s),
    /// 5 the source and row of the batch's last lane again, 6 a source past
    /// the row, 7 one cell pushed to either side of `COUNTING_SPAN·n`.
    fn lane(
        g: &AdjGraph,
        csr: &Csr,
        kind: u8,
        s: VertexId,
        other: VertexId,
        batch: &[(VertexId, Vec<Dist>)],
    ) -> (VertexId, Vec<Dist>) {
        let n = g.num_vertices();
        let mut row = crate::sssp::dijkstra(csr, s);
        match kind {
            // IA-grade: the self cell and the direct edges, all else INF.
            1 => {
                row = vec![INF; n];
                row[s as usize] = 0;
                for &(t, w) in g.neighbors(s) {
                    row[t as usize] = w as Dist;
                }
            }
            // Every third cell not reached yet.
            2 => row.iter_mut().skip(1 + other as usize % 3).step_by(3).for_each(|d| *d = INF),
            // Admissible but unwitnessed: every fourth finite cell sits
            // well above its distance, so no tight predecessor vouches for
            // it (σ = 0) and whatever hangs off it is cut.
            3 => {
                for d in row.iter_mut().skip(2).step_by(4) {
                    if *d != INF && *d != 0 {
                        *d = *d * 2 + 1;
                    }
                }
            }
            4 => row = crate::sssp::dijkstra(csr, other),
            5 => return batch.last().cloned().unwrap_or((s, row)),
            6 => return (n as VertexId + other % 3, row),
            7 => row[other as usize] = (COUNTING_SPAN * n) as Dist + other % 2,
            _ => {}
        }
        (s, row)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random batches of one to eight lanes over the kernel graphs,
        /// each lane a random kind of row: every lane equals
        /// `reference_dependency` to the bit, through the dispatcher and
        /// both bodies, and again with the batch reversed through the same
        /// scratch — what shares a batch, and in which lane, changes no bit.
        #[test]
        fn every_lane_of_a_random_batch_is_the_one_source_loop(
            graph in 0usize..6,
            lanes in proptest::collection::vec((0u8..8, 0u32..1000, 0u32..1000), 1..9),
        ) {
            let (name, g) = &kernel_graphs()[graph];
            let csr = Csr::from_adj(g);
            let n = g.num_vertices() as VertexId;
            let mut batch = Vec::new();
            for &(kind, s, other) in &lanes {
                let next = lane(g, &csr, kind, s % n, other % n, &batch);
                batch.push(next);
            }
            let mut scratch = DependencyScratch::default();
            assert_lanes_match(g, &batch, &mut scratch, name);
            batch.reverse();
            assert_lanes_match(g, &batch, &mut scratch, name);
        }
    }

    #[test]
    fn dependencies_match_the_reference_loop_on_partial_rows() {
        let mut scratch = DependencyScratch::default();
        for (name, g) in kernel_graphs() {
            let csr = Csr::from_adj(&g);
            let n = g.num_vertices() as VertexId;
            for s in 0..n {
                // IA-grade, holed, stale, and another source's row.
                let batch: Vec<_> =
                    (1..5).map(|kind| lane(&g, &csr, kind, s, (s + 1) % n, &[])).collect();
                assert_lanes_match(&g, &batch, &mut scratch, name);
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
    fn dependencies_match_the_reference_loop_on_both_sides_of_the_counting_threshold() {
        let n = 40;
        let limit = (COUNTING_SPAN * n) as Dist;
        let mut scratch = DependencyScratch::default();
        for far in [limit, limit + 1, 1 << 30] {
            let g = stretched_path(n, far);
            let csr = Csr::from_adj(&g);
            let batch: Vec<_> =
                (0..n as VertexId).map(|s| (s, crate::sssp::dijkstra(&csr, s))).collect();
            assert_eq!(batch[0].1[n - 1], far);
            for lanes in batch.chunks(LANES) {
                assert_lanes_match(&g, lanes, &mut scratch, "stretched path");
                // Counted or sorted, the union order is every distinct
                // finite `(distance, id)` of the batch, ascending.
                let mut union: Vec<(Dist, VertexId)> = lanes
                    .iter()
                    .flat_map(|(_, row)| row.iter().enumerate().map(|(v, &d)| (d, v as VertexId)))
                    .filter(|&(d, _)| d != INF)
                    .collect();
                union.sort_unstable();
                union.dedup();
                assert_eq!(scratch.order, union, "far end at {far}");
            }
        }
    }

    #[test]
    fn dependencies_of_empty_rows_and_of_an_out_of_range_source() {
        let g = path4();
        let succ = |v: VertexId| g.neighbors(v);
        assert!(batch_deps(&[], succ).is_empty());
        // An empty row, and an all-INF row beside it, are no order at all.
        assert_eq!(batch_deps(&[(0, vec![]), (1, vec![INF; 3])], succ), [vec![], vec![0.0; 3]]);
        // A source the row does not cover seeds no path mass: all zeros,
        // and no cell beyond the row is touched — nor does a short row
        // beside a long one read past its end.
        let row = crate::sssp::dijkstra(&g, 1);
        let adj = {
            let mut a = AdjGraph::with_vertices(4);
            for v in 0..3 {
                a.add_edge(v, v + 1, 1).unwrap();
            }
            a
        };
        let batch = [(9, row.clone()), (1, row[..2].to_vec()), (1, row.clone())];
        assert_lanes_match(&adj, &batch, &mut DependencyScratch::default(), "short lanes");
        assert_eq!(batch_deps(&[(9, row)], succ), [vec![0.0; 4]]);
    }

    /// Host-stable speed gate: what the metric runs — locality-ordered
    /// batches of `LANES` through `dependencies_from_rows` — against the
    /// one-source loop it replaced, same process, same rows. Also prints
    /// id-ordered batches and one lane at a time, ungated. Run with
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
        let best_of_7 = |pass: &mut dyn FnMut()| {
            (0..7)
                .map(|_| {
                    let started = Instant::now();
                    pass();
                    started.elapsed().as_secs_f64() * 1e6 / n as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let old = best_of_7(&mut || {
            for (s, row) in rows.iter().enumerate() {
                black_box(reference_dependency(s as VertexId, black_box(row), succ));
            }
        });
        let mut scratch = DependencyScratch::default();
        let mut out = vec![Vec::new(); LANES];
        let mut batched = |order: &[VertexId], lanes: usize| {
            best_of_7(&mut || {
                for batch in order.chunks(lanes) {
                    let batch_rows: Vec<&[Dist]> =
                        batch.iter().map(|&s| rows[s as usize].as_slice()).collect();
                    let out = &mut out[..batch.len()];
                    dependencies_from_rows(batch, black_box(&batch_rows), succ, &mut scratch, out);
                    black_box(out);
                }
            })
        };
        let rank = bfs_ranks(n, succ);
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&s| rank[s as usize]);
        let by_id: Vec<VertexId> = (0..n as VertexId).collect();
        let new = batched(&by_rank, LANES);
        let id = batched(&by_id, LANES);
        let one = batched(&by_id, 1);
        println!(
            "dependency kernel, n = {n} BA m = 3, us/source: reference {old:.1}; \
             BFS batches of {LANES} {new:.1} ({:.2}x); id batches {id:.1} ({:.2}x); \
             one lane {one:.1} ({:.2}x)",
            old / new,
            old / id,
            old / one
        );
        assert!(old >= 2.5 * new, "kernel {new:.1} us vs reference {old:.1} us per source");
    }

    #[test]
    fn betweenness_from_rows_matches_exact_det_bitwise() {
        let mut g = AdjGraph::with_vertices(11);
        for (u, v, w) in [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 2),
            (3, 4, 1),
            (4, 0, 3),
            (2, 5, 1),
            (5, 6, 1),
            (6, 3, 1),
            (6, 7, 2),
            (7, 8, 1),
            (8, 9, 1),
            (9, 10, 1),
            (10, 7, 2),
        ] {
            g.add_edge(u, v, w).unwrap();
        }
        let csr = Csr::from_adj(&g);
        let oracle = betweenness_exact_det(&csr);
        // Re-summing the same per-source vectors from pre-gathered rows
        // (the incremental metric's contract) is bit-identical, whether
        // the rows are lent or handed over; 11 sources are a full batch
        // and a partial one.
        let rows: Vec<Vec<Dist>> = (0..11).map(|s| crate::sssp::dijkstra(&csr, s)).collect();
        let lent = betweenness_from_rows(11, |s| rows[s as usize].as_slice(), |v| csr.neighbors(v));
        let owned = betweenness_from_rows(11, |s| rows[s as usize].clone(), |v| csr.neighbors(v));
        assert_eq!(oracle, lent);
        assert_eq!(oracle, owned);
        // Summed one source at a time from the bit record instead.
        let mut acc = vec![0.0f64; 11];
        for (s, row) in rows.iter().enumerate() {
            let dep = reference_dependency(s as VertexId, row, |v| csr.neighbors(v));
            acc.iter_mut().zip(dep).for_each(|(a, d)| *a += d);
        }
        acc.iter_mut().for_each(|x| *x /= 2.0);
        assert_eq!(oracle, acc);
    }

    #[test]
    fn bfs_ranks_are_a_permutation_in_walk_order() {
        // Two components: 0-1-2 path plus 3-4, and an isolated 5.
        let mut g = AdjGraph::with_vertices(6);
        for (u, v) in [(0, 2), (2, 1), (3, 4)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let rank = bfs_ranks(6, |v| g.neighbors(v).iter().copied());
        assert_eq!(rank, vec![0, 2, 1, 3, 4, 5]);
        assert!(bfs_ranks(0, |v| g.neighbors(v).iter().copied()).is_empty());
    }
}
