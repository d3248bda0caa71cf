#!/usr/bin/env bash
# "Keep it gone": each simplification PR deleted a duplicate mechanism, and
# each block below fails if one comes back. Plain greps over the tree, no
# build needed; CI runs this once, on the plain perf-gate cell. Run from
# anywhere: `bash .github/once.sh`.
set -e
cd "$(dirname "$0")/.."

# One dense kernel. `relax_via` stays the one dense inner loop: one portable
# body, one AVX2 instantiation, both reached through `relax_via` alone (the
# bounded pass calls it per run of chunks).
[ "$(grep -rn "fn relax_via_avx2" crates/aaa-core | wc -l)" = 1 ] || { echo "expected exactly one relax_via_avx2"; exit 1; }
uses=$(grep -rn "relax_via_scalar(" crates/aaa-core)
echo "$uses"
[ "$(echo "$uses" | wc -l)" = 3 ] || { echo "relax_via_scalar has a caller besides relax_via and relax_via_avx2"; exit 1; }

# One checksum, anywhere under crates/.
defs=$(grep -rn "fn crc32(" crates/)
echo "$defs"
[ "$(echo "$defs" | wc -l)" = 1 ] || { echo "expected exactly one crc32 definition"; exit 1; }

# One publish path. Names of the forked publish paths PR 15 folded into one;
# none may come back under crates/.
if grep -rnE 'ViewDeltaMulti|publish_changes_with|publish_with\(|take_epoch_closeness|mod spmd' crates/; then
  echo "a second publish path (or spmd) is back"; exit 1
fi

# One decremental path. The restart PR 17 replaced by selective invalidation
# was deleted, not kept beside it; neither name may come back under crates/.
if grep -rnE 'recompute_from_scratch|partial_restart' crates/; then
  echo "a restart path is back beside selective invalidation"; exit 1
fi

# One migration path, one send record. PR 18 folded the wholesale migration
# pair into the move-list path and the Delta wire's last-sent row copies into
# a bit record; the old `delta_pairs` diff survives as a test oracle only.
# The block also logs the non-test size (lines above the first
# `#[cfg(test)]`) of the four files the fold was meant to shrink.
if grep -rnE 'sent_snapshot|fn migrate_out\(|fn migrate_in\(' crates/; then
  echo "the wholesale migration pair or the last-sent copies are back"; exit 1
fi
for f in $(grep -rl 'fn delta_pairs' crates/); do
  first_test=$(grep -n -m1 '#\[cfg(test)\]' "$f" | cut -d: -f1)
  def=$(grep -n -m1 'fn delta_pairs' "$f" | cut -d: -f1)
  [ -n "$first_test" ] && [ "$def" -gt "$first_test" ] || { echo "$f: delta_pairs outside tests"; exit 1; }
done
for f in dv rank engine net; do
  awk -v f="$f.rs" '/#\[cfg\(test\)\]/ { print f ": " NR - 1 " non-test lines"; done = 1; exit } END { if (!done) print f ": " NR " non-test lines" }' "crates/aaa-core/src/$f.rs"
done

# One report mechanism. PR 20 folded the five per-section tally structs,
# their writer, reader and gate arms and the runtime's mirror of the fault
# counters into one section mechanism; none of the names may come back. The
# block also logs the non-test size of the three files the fold was meant to
# shrink (554 / 267 / 494 before it).
if grep -rnE 'ChangeTally|MigrationTally|StreamTally|PublishTally|MetricsTally|fn metrics_tally' crates/ examples/ tests/; then
  echo "a per-section tally struct is back beside the section mechanism"; exit 1
fi
defs=$(grep -rnE 'struct (FaultTally|FaultCounters)' crates/)
echo "$defs"
[ "$(echo "$defs" | wc -l)" = 1 ] || { echo "expected exactly one fault-counter struct"; exit 1; }
for f in crates/aaa-observe/src/report.rs crates/aaa-observe/src/gate.rs crates/aaa-bench/src/observe.rs; do
  awk -v f="$f" '/#\[cfg\(test\)\]/ { print f ": " NR - 1 " non-test lines"; done = 1; exit } END { if (!done) print f ": " NR " non-test lines" }' "$f"
done

# Between ranks, once. PR 21: between ranks each thing exists once — one
# routing loop in `Cluster::exchange`, one ladder and one request/reply in
# `NetRunner`, one byte cursor (and one count-against-bytes-left guard) in
# `aaa-runtime::bytes`, one SplitMix64 in `chaos.rs`. None of the folded
# names may come back under crates/. The block also logs the non-test size of
# the files the fold touched (1467 / 1907 / 851 / 1229 / 181 / 132 / 209
# before it).
if grep -rnE 'fn route_with_chaos|fn await_ready|fn salvage_rows|struct Reader<' crates/; then
  echo "a second routing loop, Ready wait, row salvage or byte reader is back"; exit 1
fi
if grep -rnE 'fn (len_prefix|count|count_u32|count_u64|bounded)\(' crates/ | grep -v '^crates/aaa-runtime/src/bytes.rs:'; then
  echo "a count-against-bytes-left guard is defined outside aaa-runtime/src/bytes.rs"; exit 1
fi
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }
gens=0; muls=0
for f in $(grep -rlE 'fn splitmix64|0xbf58476d1ce4e5b9' crates/); do
  gens=$((gens + $(nontest "$f" | grep -c 'fn splitmix64' || true)))
  muls=$((muls + $(nontest "$f" | grep -c '0xbf58476d1ce4e5b9' || true)))
done
echo "fn splitmix64: $gens, multiplier literals: $muls"
[ "$gens" = 1 ] && [ "$muls" = 1 ] || { echo "expected exactly one SplitMix64 under crates/"; exit 1; }
for f in aaa-core/src/net aaa-core/src/engine aaa-runtime/src/cluster aaa-runtime/src/net aaa-runtime/src/chaos aaa-runtime/src/bytes aaa-checkpoint/src/wire; do
  echo "$f.rs: $(nontest "crates/$f.rs" | wc -l) non-test lines"
done

# A rank holds rows in two places, the kernel is the only thing that relaxes.
# PR 22 made a broadcast row a cached row and every write a min-merge: the
# stash beside the arenas, its row type, the second tracked write handle and
# the second bounded round loop were deleted, not wrapped; none may come back
# under crates/, and outside tests `relax_via_bounded` alone computes a chunk
# mask. (The migration block above logs the non-test size of the three files
# the fold shrank: dv / rank / engine were 1984 / 902 / 1814 before it.)
if grep -rnE 'struct (BoundedRow|RowMut)|fn (update_local_row|stash_row|apply_edge_relax|clear_gathered)\(|gathered: *FxHashMap' crates/; then
  echo "the broadcast stash, its row type or the RowMut write handle is back"; exit 1
fi
callers=$(nontest crates/aaa-core/src/dv.rs | awk '/^ *(pub )?(unsafe )?fn / { name = $0 } /(^|[^_a-z])walk_mask\(/ && !/fn walk_mask\(/ { print name }')
echo "walk_mask called from: $callers"
[ "$(echo "$callers" | grep -c 'fn ')" = 1 ] && echo "$callers" | grep -q 'fn relax_via_bounded(' || { echo "walk_mask has a caller besides relax_via_bounded"; exit 1; }

# A drained change voids no metric. PR 23: each applied change states the
# edges it made or unmade and the publish barrier recomputes only the sources
# whose row moved or under whose row such an edge is tight; only a rewind
# (`recover_rank`) starts the metrics over, and a full *epoch* restates the
# maintained column, it does not re-ask for every row. So outside tests
# `invalidate_all(` has one call site, in `recover_rank`, and nothing derives
# "all rows" from the publisher's `full`.
calls=$(for f in $(grep -rl '\.invalidate_all(' crates/); do
  nontest "$f" | awk -v f="$f" '/^ *(pub )?fn / { name = $0 } /\.invalidate_all\(/ { print f ":" name }'
done)
echo "invalidate_all called from: $calls"
[ "$(echo "$calls" | grep -c 'fn ')" = 1 ] && echo "$calls" | grep -q 'fn recover_rank(' || { echo "invalidate_all has a caller besides recover_rank"; exit 1; }
if grep -rnE 'want_all|update_extra_metrics\(full|full *\|\|[^;]*wants_all_rows|wants_all_rows\(\)[^;]*\|\| *full' crates/; then
  echo "the metrics are asked for every row because the publisher wants a full epoch"; exit 1
fi

# No hop matrix. The n × n hop matrix behind the certified bounds
# (`CertifiedBoundsCache`), its rebuild at a publish barrier
# (`Publisher::cache_for`), its diff against the old one (`moved_since`),
# its drop on a rewind (`invalidate_cache`) and its build counter
# (`bounds_builds`) were deleted, as were the repair before them, its result
# type, its rows-walked counter and the degraded report's own bounds
# formula. None of those names may come back under crates/. Each epoch walks
# the hop rows of the rows it scores, `BFS_LANES` at a time, through the one
# interval routine `certified_intervals`; so outside tests aaa-core calls
# `bfs_rows(` from IA (`initial_approximation`) and that routine alone, and
# `DegradedReport::assemble(` is still what both drivers' `degraded_run` /
# `degrade_with` call. The one other walk is the driver's landmark rows
# (`landmark_rows`), k rows once per build, which seed IA and are kept by
# nobody. The block also logs the non-test size of the three
# files the matrix lived in (317 / 1071 / 1867 before it went).
if grep -rnE 'CertifiedBoundsCache|cache_for|invalidate_cache|moved_since|bounds_builds|fn repair\(|BoundsRepair|degraded_closeness_bounds|bounds_rows_rewalked' crates/; then
  echo "the hop matrix, its lifecycle, the bounds repair or the degraded report's own bounds walk is back"; exit 1
fi
callers_of() {
  for f in $(grep -rlF "$1" crates/ examples/ src/); do
    nontest "$f" | awk -v f="$f" -v call="$1" '/^ *(pub(\(crate\))? )?fn / { name = $0 } index($0, call) && !/^ *\/\// { print f ":" name }'
  done
}
walks=$(callers_of 'bfs_rows(' | grep '^crates/aaa-core/' || true)
echo "bfs_rows called in aaa-core from: $walks"
[ "$(echo "$walks" | grep -c 'fn ')" = 3 ] && echo "$walks" | grep -q 'rank.rs: *pub fn initial_approximation(' && echo "$walks" | grep -q 'quality.rs: *pub(crate) fn certified_intervals<' && echo "$walks" | grep -qE 'engine.rs: *(pub\(crate\) )?fn landmark_rows\(' || { echo "aaa-core walks hop rows outside IA, certified_intervals and landmark_rows"; exit 1; }
assemblies=$(callers_of 'DegradedReport::assemble(')
echo "DegradedReport::assemble called from: $assemblies"
[ "$(echo "$assemblies" | grep -c 'fn ')" = 2 ] && echo "$assemblies" | grep -q 'engine.rs: *fn degraded_run(' && echo "$assemblies" | grep -q 'net.rs: *fn degrade_with(' || { echo "a driver's degraded answer bypasses DegradedReport::assemble"; exit 1; }
for f in quality publish engine; do
  echo "aaa-core/src/$f.rs: $(nontest "crates/aaa-core/src/$f.rs" | wc -l) non-test lines"
done

# One dependency kernel. PR 25: betweenness runs up to eight sources through
# one forward and one backward sweep over the union of their canonical orders,
# and the one-source kernel was deleted, not kept beside it. So outside tests
# the two Brandes sweeps over rows exist once — the only two loops over
# `succ(v)` carrying a weight are in the batched body `dependencies_portable`
# — with exactly one AVX2 instantiation of it, and aaa-core calls no
# dependency function but `dependencies_from_rows`. The block also logs the
# non-test size of the two files the kernel lives in (327 / 486 before it,
# 500 / 505 after).
sweeps=$(nontest crates/aaa-graph/src/centrality.rs | awk '/^ *(pub )?(unsafe )?fn / { name = $0 } /for \([a-z]+, w\) in succ\(/ { print name }')
echo "Brandes sweeps in: $sweeps"
[ "$(echo "$sweeps" | grep -c 'fn dependencies_portable<')" = 2 ] && [ "$(echo "$sweeps" | wc -l)" = 2 ] || { echo "a Brandes sweep exists outside the batched body"; exit 1; }
avx=$(grep -rnE 'fn [a-z_]+_avx2' crates/aaa-graph)
echo "$avx"
[ "$(echo "$avx" | wc -l)" = 1 ] && echo "$avx" | grep -q 'fn dependencies_avx2<' || { echo "expected exactly one AVX2 instantiation, dependencies_avx2"; exit 1; }
kernels=$(for f in $(grep -rl 'dependenc' crates/aaa-core/src); do nontest "$f" | grep -oE '\bdependenc[a-z_]*\(' || true; done | sort -u)
echo "aaa-core calls: $kernels"
[ "$kernels" = "dependencies_from_rows(" ] || { echo "aaa-core calls a dependency kernel besides dependencies_from_rows"; exit 1; }
for f in aaa-graph/src/centrality aaa-core/src/metric; do
  echo "$f.rs: $(nontest "crates/$f.rs" | wc -l) non-test lines"
done

# One multi-source walk. IA on unit weights and the certified intervals
# (which the degraded report reads as well) walk their sources
# through one bit-parallel multi-source BFS, `aaa_graph::sssp::bfs_rows`,
# `BFS_LANES` sources per pass, instead of one search each; the
# buffer-reusing `bfs_hops_into` they called went with the loops. So the walk
# body exists once in aaa-graph, non-test aaa-core code walks no hop row one
# source at a time (calls no one-source `sssp::bfs(`). There is one Dijkstra
# body too: IA on a weighted sub-graph calls
# `aaa_graph::sssp::dijkstra_rows` (over a successor closure, as `bfs_rows`
# takes one) instead of its own heap loop, so outside tests aaa-core builds
# no `BinaryHeap` and aaa-graph builds one in `dijkstra_rows` alone. The
# block also logs the non-test size of the three files the walk touched
# (898 / 409 / 64 before it, 917 / 419 / 157 after).
walks=$(grep -rnE 'fn bfs_rows[<(]' crates/aaa-graph)
echo "$walks"
[ "$(echo "$walks" | wc -l)" = 1 ] || { echo "expected exactly one multi-source walk body, bfs_rows"; exit 1; }
singles=$(for f in crates/aaa-core/src/*.rs; do nontest "$f" | grep -nE '\bbfs\(' | sed "s|^|$f:|" || true; done)
[ -z "$singles" ] || { echo "$singles"; echo "aaa-core walks hop rows one source at a time"; exit 1; }
heaps=$(for f in crates/aaa-core/src/*.rs crates/aaa-graph/src/*.rs; do
  nontest "$f" | awk -v f="$f" '/^ *(pub )?fn / { name = $0 } /BinaryHeap/ && !/^use / { print f ":" name }'
done)
echo "BinaryHeap built in: $heaps"
[ "$(echo "$heaps" | grep -c 'fn ')" = 1 ] && echo "$heaps" | grep -q 'sssp.rs: *pub fn dijkstra_rows<' || { echo "a Dijkstra heap loop outside aaa_graph::sssp::dijkstra_rows"; exit 1; }
for f in aaa-core/src/rank aaa-core/src/quality aaa-graph/src/sssp; do
  echo "$f.rs: $(nontest "crates/$f.rs" | wc -l) non-test lines"
done

# One relaxation per drain. A drain's changes write their rows — absorbed
# edges, raised and refilled cells — and leave what they lowered recorded;
# no rank relaxes until the last change has, then one step settles every
# rank. So outside tests `.settle()` has one call site, in `drain_changes`;
# the driver op behind a wave, an `AddEdge` and a weight decrease takes no
# settle flag; and `RankState::invalidate` (raise + refill) does not relax.
# The block also logs the non-test size of the two files the change touched
# (1,862 / 917 before it).
settles=$(callers_of '.settle()')
echo "settle() called from: $settles"
[ "$(echo "$settles" | grep -c 'fn ')" = 1 ] && echo "$settles" | grep -q 'engine.rs: *pub fn drain_changes(' || { echo "a rank settles outside the end of drain_changes"; exit 1; }
if grep -rnE 'fn relax_over_edges?\([^)]*settle' crates/; then
  echo "the edge relaxation settles on its own again"; exit 1
fi
body=$(nontest crates/aaa-core/src/rank.rs | awk '/pub fn invalidate\(/ { on = 1 } on { print } on && /^    }$/ { exit }')
[ -n "$body" ] || { echo "RankState::invalidate not found"; exit 1; }
if echo "$body" | grep -nE 'relax|settle'; then
  echo "RankState::invalidate relaxes again"; exit 1
fi
for f in engine rank; do
  echo "aaa-core/src/$f.rs: $(nontest "crates/aaa-core/src/$f.rs" | wc -l) non-test lines"
done

# One graph layer. `GraphStore` and its plain impls moved down into
# aaa-graph, and aaa-graph's reference kernels became generic over it. Gone
# are the copies aaa-store kept in `algo` (`bfs_hops`, a second Dijkstra, a
# second closeness and betweenness oracle, `sssp_fixed_point`), the
# centrality measures nothing ran and the two `Metric` methods nothing
# called. So across
# crates/ each kernel has one body, none of the deleted names comes back, and
# the heap Brandes lives below `centrality.rs`'s `#[cfg(test)]` alone, as the
# oracle's independent cross-check. The block also logs aaa-graph's non-test
# size (2,643 before it, 2,647 after).
for def in 'trait GraphStore ' 'fn dijkstra_into[<(]' 'fn dijkstra[<(]' 'fn bfs[<(]' 'fn closeness_exact[<(]' 'fn betweenness_exact_det[<(]'; do
  found=$(grep -rnE "$def" crates/ || true)
  [ "$(echo "$found" | grep -c .)" = 1 ] || { echo "$found"; echo "expected exactly one '$def' under crates/"; exit 1; }
done
if grep -rnE 'degree_centrality|eigenvector_centrality|clustering_coefficients|sssp_fixed_point|closeness_from_matrix|bounds_form|bfs_hops' crates/; then
  echo "a deleted kernel copy, measure or Metric method is back"; exit 1
fi
first_test=$(grep -n -m1 '#\[cfg(test)\]' crates/aaa-graph/src/centrality.rs | cut -d: -f1)
heap=$(grep -rnE 'betweenness_centrality|brandes_from' crates/ | awk -F: -v t="$first_test" '$1 != "crates/aaa-graph/src/centrality.rs" || $2 < t')
[ -z "$heap" ] || { echo "$heap"; echo "the heap Brandes is reachable outside centrality.rs's tests"; exit 1; }
lines=0
for f in $(find crates/aaa-graph/src -name '*.rs'); do lines=$((lines + $(nontest "$f" | wc -l))); done
echo "aaa-graph: $lines non-test lines"

# No compressed store. No engine path read the compressed graph store, so
# its codec, Elias-Fano index, external sort, mmap loader and private
# checksum were deleted together with the streaming BA generator, the
# `graph_memory` bin and the `store` perf-gate cell that existed only for
# it. `crates/aaa-store` stays an empty placeholder until the benchmark's
# lockfile is next unfrozen: its `src` holds `lib.rs` alone, and that holds
# no item (no `fn`, `struct`, `mod` or `pub`) — which also keeps kernel
# copies (`mod algo`) out. None of the deleted names may come back.
files=$(find crates/aaa-store/src -type f)
[ "$files" = "crates/aaa-store/src/lib.rs" ] || { echo "$files"; echo "crates/aaa-store/src holds more than lib.rs"; exit 1; }
if grep -vE '^ *//' crates/aaa-store/src/lib.rs | grep -nE '\b(fn|struct|mod|pub)\b'; then
  echo "the aaa-store placeholder holds an item again"; exit 1
fi
if grep -rnE 'CompressedGraph|PairSorter|EliasFano|sort_edges|LoadMode|StoreError|ba_stream|graph_memory|store=compressed' crates/ src/ tests/ examples/; then
  echo "the compressed store, its ingest, ba_stream or graph_memory is back"; exit 1
fi
[ ! -e crates/aaa-bench/src/bin/graph_memory.rs ] || { echo "the graph_memory bin is back"; exit 1; }

# One cell table. A perf-gate cell — its scenario string, the arguments it
# runs with, its scenario function and its baseline — is named once, in
# `aaa_bench::observe::CELLS`, and `perfgate cell <name>` runs it. The
# figure bins no longer write a pinned report (`maybe_observe` and the
# `--report` / `--trace` / `--store` flags are gone), and the three bins
# whose work the benchmark already times were deleted. None of them may come
# back, and each committed baseline's file name appears in exactly one
# non-test file under crates/. (aaa-bench's non-test size was 3,007 before
# it; the next block logs it.)
if grep -rn 'maybe_observe' crates/; then
  echo "a figure bin writes a pinned report again"; exit 1
fi
if nontest crates/aaa-bench/src/lib.rs | grep -n '"--report"'; then
  echo "CommonArgs parses --report again"; exit 1
fi
for bin in publish_cost serve_qps checkpoint_overhead; do
  [ ! -e "crates/aaa-bench/src/bin/$bin.rs" ] || { echo "the $bin bin is back"; exit 1; }
done
for b in results/baselines/ci_smoke*.json; do
  name=$(basename "$b")
  owners=$(for f in $(grep -rlF "$name" crates/ | grep -v '/tests/'); do
    if nontest "$f" | grep -qF "$name"; then echo "$f"; fi
  done)
  echo "$name named in: $owners"
  [ "$(echo "$owners" | grep -c .)" = 1 ] || { echo "$name is named in $(echo "$owners" | grep -c .) non-test files under crates/, want 1"; exit 1; }
done

# One figures runner. The paper's evaluation is one table,
# `aaa_bench::experiments::FIGURES`, run by the `figures` binary, which takes
# `--scale`, `--procs` and `--seed` alone and writes one JSON document. The
# ten one-experiment bins, their CSV / TXT outputs, the figure-only flags
# (`--csv`, `--fault`, `--chaos`, `--checkpoint-every`, ...) and the fault /
# chaos drive the flags fed must not come back; `net_cluster` keeps its own
# process flags. The block also logs aaa-bench's non-test size (2,634 before
# it).
for bin in fig4 fig5 fig6 fig7 fig8 anytime_quality ablation_partitioner ablation_logp chaos_overhead stream_load; do
  [ ! -e "crates/aaa-bench/src/bin/$bin.rs" ] || { echo "the $bin bin is back"; exit 1; }
done
if grep -rnE '"--(csv|fault)" *=>' crates/aaa-bench/src/; then
  echo "a --csv or --fault flag is back in aaa-bench"; exit 1
fi
if grep -rnE '"--(chaos|checkpoint-every)" *=>' crates/aaa-bench/src/ | grep -v '^crates/aaa-bench/src/bin/net_cluster.rs:'; then
  echo "a --chaos or --checkpoint-every flag is back outside net_cluster"; exit 1
fi
if grep -rn 'fn drive_to_convergence' crates/; then
  echo "the harness's fault / chaos drive is back"; exit 1
fi
if ls results/ | grep -E '^fig.*\.(txt|csv)$'; then
  echo "a per-figure TXT / CSV output is back under results/"; exit 1
fi
lines=0
for f in $(find crates/aaa-bench/src -name '*.rs'); do lines=$((lines + $(nontest "$f" | wc -l))); done
echo "aaa-bench: $lines non-test lines"

# One pass each way. A checkpoint streams each rank's rows from its
# arena slots into the writer, and a restore installs each verified rank
# section straight into the arenas; neither builds a whole `Snapshot` in
# between. So the bodies of the engine's `checkpoint`, `checkpoint_bytes`
# and `restore` call neither `self.snapshot()` nor `Snapshot::read_from`,
# the decoder sizes what it builds from the section (no `shrink_to_fit` in
# aaa-checkpoint), and one function writes the RNKS sections. The block also
# logs aaa-checkpoint's non-test size (792 before it).
for f in checkpoint checkpoint_bytes restore; do
  body=$(awk -v f="$f" '$0 ~ "^    pub fn " f "\\(" { on = 1 } on { print } on && /^    }$/ { exit }' crates/aaa-core/src/engine.rs)
  [ -n "$body" ] || { echo "engine.rs has no pub fn $f"; exit 1; }
  if echo "$body" | grep -nE 'self\.snapshot\(\)|Snapshot::read_from'; then
    echo "AnytimeEngine::$f goes through a whole Snapshot again"; exit 1
  fi
done
if grep -rn 'shrink_to_fit' crates/aaa-checkpoint/src; then
  echo "the checkpoint decoder over-reserves and shrinks again"; exit 1
fi
writers=$(for f in crates/aaa-checkpoint/src/*.rs; do
  nontest "$f" | awk -v f="$f" '/^ *(pub )?(pub\(crate\) )?fn / { name = $0 } /b"RNKS"/ && /(begin|write_section|SectionWriter)/ { print f ": " name }'
done)
echo "RNKS written by: $writers"
[ "$(echo "$writers" | grep -c 'fn ')" = 1 ] || { echo "expected exactly one function writing RNKS sections"; exit 1; }
lines=0
for f in crates/aaa-checkpoint/src/*.rs; do lines=$((lines + $(nontest "$f" | wc -l))); done
echo "aaa-checkpoint: $lines non-test lines"

# One cached merge body. An exact store (every local row exact in the
# current graph) merges rows into its cache without recording them, and it
# does so through the same two merges that record otherwise:
# `min_merge_cached` and `min_merge_cached_sparse` both write through
# `write_cached`, which alone decides whether the lowered cells reach the
# record. So no unrecorded twin of a merge may stand beside them, and
# outside tests the tracked merge bodies (`relax_via_tracked`,
# `min_merge_sparse_tracked`) are called from the five merges and the
# kernel's post-round diff alone.
if grep -rnE 'fn [a-z_0-9]*(unrecorded|untracked|no_record|norecord)[a-z_0-9]*[<(]' crates/aaa-core; then
  echo "an unrecorded twin of a merge is back in aaa-core"; exit 1
fi
defs=$(grep -rnE 'fn (min_merge_cached[a-z_]*|write_cached)[<(]' crates/aaa-core)
echo "$defs"
[ "$(echo "$defs" | wc -l)" = 3 ] || { echo "expected min_merge_cached, min_merge_cached_sparse and write_cached alone"; exit 1; }
bodies=$(nontest crates/aaa-core/src/dv.rs | awk '/^ *(pub )?(unsafe )?fn / { name = $0 } /(^|[^_a-z])(relax_via_tracked|min_merge_sparse_tracked)\(/ && !/fn (relax_via_tracked|min_merge_sparse_tracked)\(/ { print name }' | sed -E 's/^ *(pub )?fn ([a-z_]+).*/\2/' | sort | uniq -c | tr -s ' ' | tr '\n' ';')
echo "tracked merge bodies called from: $bodies"
[ "$bodies" = " 1 min_merge_cached; 1 min_merge_cached_sparse; 1 min_merge_local; 1 min_merge_local_sparse; 2 min_merge_through; 1 relax_to_fixed_point;" ] || { echo "a tracked merge body has a caller besides the five merges and the kernel"; exit 1; }

# One way to time a layer. Per-layer wall clock is the benchmark's traced
# rows (`benchmark/run.sh --workload <w> --trace 1`); the Criterion harness
# that only CI compiled, its shim and the dense loop only it kept alive were
# deleted. None may come back: no `criterion` in a manifest or the lock, no
# `[[bench]]` target or `benches/` directory under crates/, no second
# min-merge body beside `relax_via`'s, and none of the public functions whose
# only callers were their own tests. The supervised fallback restores through
# `AnytimeEngine::restore`, so no non-test code under crates/ calls
# `from_snapshot(`.
if find . -name Cargo.toml -not -path '*/target/*' -exec grep -Hn 'criterion' {} + || grep -n 'criterion' Cargo.lock; then
  echo "criterion is back in a manifest or the lock"; exit 1
fi
[ ! -e shims/criterion ] || { echo "shims/criterion is back"; exit 1; }
if grep -n '^\[\[bench\]\]' crates/*/Cargo.toml || find crates -type d -name benches | grep .; then
  echo "a bench target is back under crates/"; exit 1
fi
if grep -rnE 'fn (min_merge_scalar|min_merge_avx2)[<(]' crates/; then
  echo "a min_merge body is back beside relax_via"; exit 1
fi
if grep -rnE 'fn (local_ids_sorted|shared_closeness_chunks|into_parts|add_vertex|points_for|error_bound_for|allreduce_max)[<(]' crates/ src/; then
  echo "a function whose only callers were its own tests is back"; exit 1
fi
calls=$(for f in $(find crates -name '*.rs'); do nontest "$f" | grep -n 'from_snapshot(' | grep -v 'pub fn from_snapshot(' | sed "s|^|$f:|"; done)
[ -z "$calls" ] || { echo "$calls"; echo "non-test code calls from_snapshot again"; exit 1; }

# One landmark choice. IA is seeded by the rows of the top-degree vertices
# (DESIGN.md §5, *Landmark-seeded IA*); the count is the constant
# `LANDMARKS`, and one function picks the landmarks and walks their rows:
# `landmark_rows`. So under crates/ exactly one non-test function reads
# `LANDMARKS` — that one — and no second function with `landmark` in its
# name picks or walks any (`seed_from_landmarks` only reads the rows it is
# handed). And the count is no knob: no crate reads an environment
# variable outside tests (the last block checks).
pickers=$(for f in $(grep -rlE '\bLANDMARKS\b' crates/); do
  nontest "$f" | awk -v f="$f" '/^ *(pub(\(crate\))? )?fn / { name = $0 } /LANDMARKS/ && !/^ *(\/\/|const )/ && name != "" { print f ":" name }' | sort -u
done)
echo "LANDMARKS read in: $pickers"
[ "$(echo "$pickers" | grep -c 'fn ')" = 1 ] && echo "$pickers" | grep -qE 'engine.rs: *(pub\(crate\) )?fn landmark_rows\(' || { echo "expected exactly one function choosing landmarks, landmark_rows"; exit 1; }
defs=$(for f in $(find crates -name '*.rs'); do nontest "$f" | grep -nE '^ *(pub(\(crate\))? )?fn [a-z_0-9]*landmark' | sed "s|^|$f:|"; done)
echo "$defs"
[ "$(echo "$defs" | wc -l)" = 2 ] && echo "$defs" | grep -qE 'engine.rs:[0-9]*: *(pub\(crate\) )?fn landmark_rows\(' && echo "$defs" | grep -q 'rank.rs:[0-9]*: *pub fn seed_from_landmarks(' || { echo "a second landmark function under crates/"; exit 1; }
# Both drivers start from the same IA: the engine's build and the socket
# worker's `Init` arm each lower the sub-graph rows through the landmark rows,
# and nothing else seeds from them (`recover_rank` keeps the sub-graph IA).
seeds=$(callers_of 'seed_from_landmarks(' | grep -v 'fn seed_from_landmarks(' || true)
echo "seed_from_landmarks called from: $seeds"
[ "$(echo "$seeds" | grep -c 'fn ')" = 2 ] && echo "$seeds" | grep -q 'engine.rs: *fn build(' && echo "$seeds" | grep -q 'net.rs: *pub fn run_worker<' || { echo "expected the landmark seed in AnytimeEngine::build and run_worker's Init arm alone"; exit 1; }

# One value, one constant. Every option with one value in use outside tests
# became a constant, and the code that only varied it went: the strategy
# chooser's policy struct (`choose_strategy` over two constants), the
# multilevel partitioner's config and its second coarsen body, the
# rebalancer's config (four constants; a driver sets a `RebalancePolicy`),
# the checkpoint-cadence policy with the drive spec and the two entry points
# only it served (a caller writes the loop: `rc_step_checked`, then
# `checkpoint_bytes()` when it wants one), the per-metric gate overrides and
# their flag, the socket message cap on `NetConfig` and in `Init`, and the
# env-gated socket trace. None may come back, and no crate reads an
# environment variable outside tests.
if grep -rnwE 'StrategyPolicy|MultilevelConfig|RebalanceConfig|Rebalancer|CheckpointPolicy|DriveSpec|run_to_convergence_checkpointed|run_to_convergence_checked' crates/ src/ tests/ examples/; then
  echo "a retired knob's type or entry point is back"; exit 1
fi
if awk '/pub struct GateConfig/ { on = 1 } on { print } on && /^}/ { exit }' crates/aaa-observe/src/gate.rs | grep -n 'overrides'; then
  echo "GateConfig has per-metric overrides again"; exit 1
fi
if grep -rnF '"--override"' crates/; then
  echo "perfgate has an --override flag again"; exit 1
fi
if grep -rnE 'net_trace|AAA_NET_TRACE' crates/ src/; then
  echo "the env-gated socket trace is back"; exit 1
fi
caps=$( (awk '/pub struct NetConfig/ { on = 1 } on { print } on && /^}/ { exit }' crates/aaa-core/src/net.rs
  awk '/^    Init \{/ { on = 1 } on { print } on && /^    \},/ { exit }' crates/aaa-core/src/net.rs) | grep -n 'cap_bytes' || true)
[ -z "$caps" ] || { echo "$caps"; echo "NetConfig or NetMsg::Init carries a message cap again"; exit 1; }
vars=$(for f in $(find crates/*/src src -name '*.rs'); do nontest "$f" | grep -nE 'env::var|\bvar_os\(' | sed "s|^|$f:|" || true; done)
[ -z "$vars" ] || { echo "$vars"; echo "a crate reads an environment variable outside tests"; exit 1; }

# Plain columns, one step bound. Each published column is one
# `Arc<[f64]>` plus its top-k snapshot, copied and reselected when its epoch
# re-states it and shared otherwise, and leader (`Publisher::publish`) and
# follower (`ViewDelta::apply_to`) build a view through the one
# `ViewDelta::build(prev)`. The chunked copy-on-write store, the leader-only
# top-k index with its slack cap and rebuild counter, and the two step bounds
# `policy::MAX_RC_STEPS` replaced may not come back, nor may `build` take a
# second argument (a per-kind index list was its last one).
if grep -rnE 'ChunkedVec|TopKIndex|CHUNK_VERTICES|TOPK_INDEX_CAP|topk_rebuilds|max_rc_steps|MAX_ROUNDS|fn publish_changes' crates/ src/ tests/ examples/; then
  echo "the chunked store, the top-k index, a second publish entry point or a second step bound is back"; exit 1
fi
sig=$(awk '/^impl ViewDelta / { on = 1 } on && /fn build\(/ { print; exit }' crates/aaa-core/src/publish.rs)
echo "ViewDelta::build: $sig"
echo "$sig" | grep -qE 'fn build\(&self, prev: &PublishedView\) ->' || { echo "ViewDelta::build takes more than prev"; exit 1; }
echo "aaa-core/src/publish.rs: $(nontest crates/aaa-core/src/publish.rs | wc -l) non-test lines"
