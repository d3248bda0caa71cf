//! Shortest paths: binary-heap Dijkstra and unweighted BFS from one source
//! over any [`GraphStore`] backend, and [`bfs_rows`], the bit-parallel
//! multi-source BFS.
//!
//! The single-source kernels are the reference the test suites and the
//! exact oracles use. The engine's IA phase in `aaa-core` (the paper runs a
//! multithreaded Dijkstra there, §IV.B) walks its local vertices through
//! [`bfs_rows`] when every local edge weighs 1, where hop counts are the
//! distances, and runs a Dijkstra per local vertex otherwise; the hop rows
//! behind the certified bounds and the degraded report walk through it
//! always.

use crate::{dist_add, Dist, GraphStore, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `u64` lane words per vertex in one pass of [`bfs_rows`].
const WORDS: usize = 4;

/// Sources one pass of [`bfs_rows`] walks together, one bit each.
pub const BFS_LANES: usize = 64 * WORDS;

/// Hop counts from every source in `sources` (each below `n`) over the `n`
/// vertices `succ` enumerates: row `i` of `out` (`sources.len()` rows of
/// `n`) is the BFS row of `sources[i]`, `INF` where it reaches nothing.
/// Weights are ignored, so on a graph whose edges all weigh 1 every row is
/// the Dijkstra row, bit for bit.
///
/// This is the multi-source BFS of Then et al. (*The More the Merrier*,
/// PVLDB 8(4), 2014): [`BFS_LANES`] sources share one walk, each a bit of
/// the `seen` / `frontier` / `next` lane words every vertex carries, and a
/// level's frontier reaches a successor with one OR of its words however
/// many sources it carries. A vertex's adjacency is read once per level it
/// is on some source's frontier, not once per source.
pub fn bfs_rows<F, I>(n: usize, succ: F, sources: &[VertexId], out: &mut [Dist])
where
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    type Lanes = [u64; WORDS];
    const NONE: Lanes = [0; WORDS];
    assert_eq!(out.len(), sources.len() * n, "one row of n cells per source");
    out.fill(INF);
    let mut seen = vec![NONE; n];
    let mut frontier = vec![NONE; n];
    let mut next = vec![NONE; n];
    // One bit per vertex: `next` got an OR this level.
    let mut reached = vec![0u64; n.div_ceil(64)];
    let mut active = Vec::new();
    for (batch, rows) in sources.chunks(BFS_LANES).zip(out.chunks_mut(BFS_LANES * n.max(1))) {
        seen.fill(NONE);
        active.clear();
        for (lane, &s) in batch.iter().enumerate() {
            let (word, bit) = (lane / 64, 1u64 << (lane % 64));
            if frontier[s as usize] == NONE {
                active.push(s);
            }
            seen[s as usize][word] |= bit;
            frontier[s as usize][word] |= bit;
            rows[lane * n + s as usize] = 0;
        }
        let mut level = 0;
        while !active.is_empty() {
            level += 1;
            // Push every frontier to its successors, branch-free.
            for &v in &active {
                let f = std::mem::replace(&mut frontier[v as usize], NONE);
                for (t, _) in succ(v) {
                    let nx = &mut next[t as usize];
                    nx.iter_mut().zip(f).for_each(|(x, f)| *x |= f);
                    reached[t as usize / 64] |= 1 << (t % 64);
                }
            }
            // A lane that reaches `t` first at this level has `t` at hop
            // count `level`, and `t` is on its next frontier.
            active.clear();
            for (i, word) in reached.iter_mut().enumerate() {
                let mut ts = std::mem::take(word);
                while ts != 0 {
                    let t = i * 64 + ts.trailing_zeros() as usize;
                    ts &= ts - 1;
                    let nx = std::mem::replace(&mut next[t], NONE);
                    let mut fresh = NONE;
                    for w in 0..WORDS {
                        fresh[w] = nx[w] & !seen[t][w];
                        seen[t][w] |= fresh[w];
                    }
                    if fresh == NONE {
                        continue;
                    }
                    frontier[t] = fresh;
                    active.push(t as VertexId);
                    for (w, mut lanes) in fresh.into_iter().enumerate() {
                        while lanes != 0 {
                            let lane = w * 64 + lanes.trailing_zeros() as usize;
                            rows[lane * n + t] = level;
                            lanes &= lanes - 1;
                        }
                    }
                }
            }
        }
    }
}

/// Dijkstra from `source` over any backend. Returns the distance to every
/// vertex (`INF` when unreachable).
pub fn dijkstra<G: GraphStore>(g: &G, source: VertexId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    dijkstra_into(g, source, &mut dist);
    dist
}

/// Dijkstra writing into a caller-provided buffer (reused across sources to
/// avoid reallocating in the hot APSP loops). The buffer is reset to `INF`.
pub fn dijkstra_into<G: GraphStore>(g: &G, source: VertexId, dist: &mut [Dist]) {
    debug_assert_eq!(dist.len(), g.num_vertices());
    dijkstra_rows(|v| g.successors(v), source, dist);
}

/// The one Dijkstra body: distances from `source` over the `dist.len()`
/// vertices `succ` enumerates, written into `dist` (reset to `INF` first).
/// [`dijkstra_into`] runs it over a backend; the engine's IA runs it over a
/// rank's local sub-graph when an edge there weighs more than 1.
pub fn dijkstra_rows<F, I>(succ: F, source: VertexId, dist: &mut [Dist])
where
    F: Fn(VertexId) -> I,
    I: Iterator<Item = (VertexId, Weight)>,
{
    dist.fill(INF);
    if dist.is_empty() {
        return;
    }
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for (t, w) in succ(v) {
            let nd = dist_add(d, w as Dist);
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Reverse((nd, t)));
            }
        }
    }
}

/// Breadth-first search distances (hop counts) from `source`, one source
/// at a time: the reference [`bfs_rows`] is tested against.
pub fn bfs<G: GraphStore>(g: &G, source: VertexId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_vertices()];
    if dist.is_empty() {
        return dist;
    }
    dist[source as usize] = 0;
    let mut queue = vec![source];
    // Every vertex enters the queue at most once, so a cursor into the
    // growing list is the whole FIFO.
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let d = dist[v as usize];
        for (t, _) in g.successors(v) {
            if dist[t as usize] == INF {
                dist[t as usize] = d + 1;
                queue.push(t);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjGraph, Csr};

    /// 0 -1- 1 -1- 2    3 (isolated)   with shortcut 0-2 weight 5
    fn path_graph() -> Csr {
        let mut g = AdjGraph::with_vertices(4);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        g.add_edge(0, 2, 5).unwrap();
        Csr::from_adj(&g)
    }

    #[test]
    fn dijkstra_prefers_shorter_path() {
        let d = dijkstra(&path_graph(), 0);
        assert_eq!(d, vec![0, 1, 2, INF]);
    }

    #[test]
    fn dijkstra_from_middle() {
        let d = dijkstra(&path_graph(), 1);
        assert_eq!(d, vec![1, 0, 1, INF]);
    }

    #[test]
    fn dijkstra_isolated_source() {
        let d = dijkstra(&path_graph(), 3);
        assert_eq!(d, vec![INF, INF, INF, 0]);
    }

    #[test]
    fn bfs_counts_hops_ignoring_weights() {
        let d = bfs(&path_graph(), 0);
        // BFS ignores weights: 0-2 is one hop via the weight-5 edge.
        assert_eq!(d, vec![0, 1, 1, INF]);
    }

    #[test]
    fn dijkstra_into_reuses_buffer() {
        let g = path_graph();
        let mut buf = vec![0; 4];
        dijkstra_into(&g, 2, &mut buf);
        assert_eq!(buf, vec![2, 1, 0, INF]);
        dijkstra_into(&g, 0, &mut buf);
        assert_eq!(buf, vec![0, 1, 2, INF]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_adj(&AdjGraph::new());
        assert!(dijkstra(&g, 0).is_empty());
        assert!(bfs(&g, 0).is_empty());
        bfs_rows(0, |v| g.neighbors(v), &[], &mut []);
    }

    /// `bfs_rows` over a CSR graph, one `Vec` per source.
    fn walk(g: &Csr, sources: &[VertexId]) -> Vec<Vec<Dist>> {
        let n = g.num_vertices();
        let mut out = vec![0; sources.len() * n];
        bfs_rows(n, |v| g.neighbors(v), sources, &mut out);
        out.chunks(n.max(1)).map(<[Dist]>::to_vec).collect()
    }

    #[test]
    fn bfs_rows_count_hops_like_bfs() {
        let g = path_graph();
        // Duplicates, and an isolated source, are lanes like any other.
        let sources = [0, 3, 2, 0];
        let rows = walk(&g, &sources);
        for (&s, row) in sources.iter().zip(&rows) {
            assert_eq!(*row, bfs(&g, s), "source {s}");
        }
        assert!(walk(&g, &[]).is_empty());
    }

    /// A random unit-weight graph of at most 300 vertices: Barabási–Albert,
    /// Erdős–Rényi sparse enough to leave vertices isolated, or two
    /// Barabási–Albert components side by side.
    fn unit_graph(kind: u8, n: usize, seed: u64) -> Csr {
        use crate::generators::{barabasi_albert, erdos_renyi, WeightModel::Unit};
        let g = match kind {
            0 => barabasi_albert(n, 1 + seed as usize % 3, Unit, seed).unwrap(),
            1 => erdos_renyi(n, n / 2, Unit, seed).unwrap(),
            _ => {
                let half = n / 2;
                let a = barabasi_albert(half, 2, Unit, seed).unwrap();
                let b = barabasi_albert(n - half, 1, Unit, seed + 1).unwrap();
                let mut g = AdjGraph::with_vertices(n);
                let shifted = b.edges().map(|(u, v, w)| (u + half as u32, v + half as u32, w));
                for (u, v, w) in a.edges().chain(shifted) {
                    g.add_edge(u, v, w).unwrap();
                }
                g
            }
        };
        Csr::from_adj(&g)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random unit-weight graphs, 1–600 sources: distinct until every
        /// vertex is taken, then again in a new order, so a run crosses the
        /// 64-lane word and the `BFS_LANES` pass boundaries. Every row is
        /// the one-source `bfs` row and the `dijkstra` row, bit for bit.
        #[test]
        fn every_row_of_a_random_walk_is_bfs_and_dijkstra(
            kind in 0u8..3,
            n in 2usize..=300,
            seed in 0u64..1000,
            count in 1usize..=600,
            keys in proptest::collection::vec(0u64..u64::MAX, 600),
        ) {
            let g = unit_graph(kind, n, seed);
            let mut sources = Vec::with_capacity(count);
            while sources.len() < count {
                let mut round: Vec<VertexId> = (0..n as VertexId).collect();
                round.sort_by_key(|&v| keys[(v as usize + sources.len()) % keys.len()]);
                sources.extend(round.into_iter().take(count - sources.len()));
            }
            let bfs_of: Vec<Vec<Dist>> = (0..n as VertexId).map(|s| bfs(&g, s)).collect();
            for (lane, (&s, row)) in sources.iter().zip(walk(&g, &sources)).enumerate() {
                proptest::prop_assert!(row == bfs_of[s as usize], "lane {lane} source {s}: bfs");
                proptest::prop_assert!(row == dijkstra(&g, s), "lane {lane} source {s}: dijkstra");
            }
        }
    }

    /// Host-stable speed gate: the walk against the per-source loops it
    /// replaced and the oracle still runs, same process, same rows. Run
    /// with `cargo test --release -p aaa-graph -- --ignored multi_source_walk_ratio --nocapture`.
    #[test]
    #[ignore = "timing: run in release, alone"]
    fn multi_source_walk_ratio() {
        use crate::generators::{barabasi_albert, WeightModel};
        use std::hint::black_box;
        use std::time::Instant;
        let (n, k) = (900, 450);
        let g = Csr::from_adj(&barabasi_albert(n, 3, WeightModel::Unit, 42).unwrap());
        let sources: Vec<VertexId> = (0..k as VertexId).map(|i| 2 * i).collect();
        let best_of_5 = |pass: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let started = Instant::now();
                    pass();
                    started.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let mut out = vec![0; k * n];
        let walked =
            best_of_5(&mut || bfs_rows(n, |v| g.neighbors(v), black_box(&sources), &mut out));
        let mut row = vec![0; n];
        let by_dijkstra = best_of_5(&mut || {
            for &s in &sources {
                dijkstra_into(&g, black_box(s), &mut row);
                black_box(&row);
            }
        });
        let by_bfs = best_of_5(&mut || {
            for &s in &sources {
                black_box(bfs(&g, black_box(s)));
            }
        });
        for (&s, walked) in sources.iter().zip(out.chunks(n)) {
            assert_eq!(walked, dijkstra(&g, s), "source {s}");
        }
        println!(
            "multi-source walk, n = {n} BA m = 3, {k} sources, ms: walk {walked:.2}; \
             per-source dijkstra_into {by_dijkstra:.2} ({:.1}x); per-source bfs {by_bfs:.2} ({:.1}x)",
            by_dijkstra / walked,
            by_bfs / walked
        );
        assert!(
            by_dijkstra >= 10.0 * walked,
            "walk {walked:.2} ms vs dijkstra {by_dijkstra:.2} ms"
        );
        assert!(by_bfs >= 4.0 * walked, "walk {walked:.2} ms vs bfs {by_bfs:.2} ms");
    }
}
