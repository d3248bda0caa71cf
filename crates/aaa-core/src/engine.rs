//! The anytime anywhere engine: domain decomposition, initial
//! approximation, the recombination loop, and the dynamic-update
//! orchestration (§III–IV of the paper) — structured as an
//! **ingest → compute → publish** pipeline:
//!
//! * **ingest** — dynamic changes enter through [`AnytimeEngine::submit`]
//!   into a coalescing [`ChangeLog`] and are validated immediately against
//!   the projected graph;
//! * **compute** — one unified driver loop ([`AnytimeEngine::rc_step`] and
//!   the `run_*` wrappers over the internal `drive`) drains the log at
//!   RC-step barriers and advances the BSP recombination;
//! * **publish** — after every state change the engine swaps an immutable,
//!   epoch-stamped [`PublishedView`] into a shared [`ViewCell`], so any
//!   number of concurrent readers (see the `aaa-serve` crate) query
//!   without touching the engine.

use crate::changes::{DynamicChange, VertexBatch};
use crate::dv::{KernelTally, StoreRows, Witness};
use crate::error::CoreError;
use crate::ingest::{ChangeLog, IngestStats};
use crate::metric::{MetricKind, MetricMask, MetricSet, MetricTally};
use crate::policy::{choose_strategy, RetryPolicy, MAX_RC_STEPS};
use crate::publish::{BoundsMode, PublishStats, PublishedView, Publisher, ViewCell, ViewDelta};
use crate::quality::{certified_intervals, DegradedReason, DegradedReport};
use crate::rank::{GrowMsg, InvalidationTally, RankState, RowMsg, WireFormat};
use crate::strategies::{cut_edge_assign, round_robin_assign, AssignStrategy};
use aaa_checkpoint::{
    read_image, CheckpointError, EngineMeta, GraphSnapshot, Image, ImageSink, PartitionSnapshot,
    RankRows, RankSection, Snapshot, Trailer,
};
use aaa_graph::apsp::DistMatrix;
use aaa_graph::closeness::closeness_from_row;
use aaa_graph::sssp::{bfs_rows, dijkstra, dijkstra_into, BFS_LANES};
use aaa_graph::{dist_add, AdjGraph, Dist, PartId, VertexId, Weight, INF};
use aaa_observe::{EventSink, NoopSink, RunReport, Section, SpanEvent, SpanKind, DRIVER_LANE};
use aaa_partition::simple::{
    BlockPartitioner, HashPartitioner, RandomPartitioner, RoundRobinPartitioner,
};
use aaa_partition::{
    moves_between, LoadSignals, MultilevelPartitioner, Partition, Partitioner, RebalancePolicy,
};
use aaa_runtime::{ChaosPlan, Cluster, ClusterConfig, ClusterError, FaultPlan, RunStats};
use rustc_hash::FxHashSet;
use std::cmp::Reverse;
use std::io::{Read, Write};
use std::sync::Arc;

/// Which partitioner the domain-decomposition phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdPartitioner {
    /// Multilevel k-way (the METIS-substitute; the paper's choice).
    Multilevel {
        seed: u64,
    },
    Block,
    RoundRobin,
    Hash,
    Random {
        seed: u64,
    },
}

impl DdPartitioner {
    fn partition(&self, g: &AdjGraph, k: usize) -> Result<Partition, CoreError> {
        let p = match *self {
            DdPartitioner::Multilevel { seed } => {
                MultilevelPartitioner::seeded(seed).partition(g, k)
            }
            DdPartitioner::Block => BlockPartitioner.partition(g, k),
            DdPartitioner::RoundRobin => RoundRobinPartitioner.partition(g, k),
            DdPartitioner::Hash => HashPartitioner.partition(g, k),
            DdPartitioner::Random { seed } => RandomPartitioner { seed }.partition(g, k),
        }?;
        Ok(p)
    }
}

/// How many landmarks seed IA: the largest count of the sweep in
/// EXPERIMENTS.md (*Landmark count*) that keeps `stream_serve`'s
/// `time_to_1pct_s` flat. At most [`BFS_LANES`], so their rows are one
/// walk on a unit-weight graph.
const LANDMARKS: usize = 24;
const _: () = assert!(LANDMARKS <= BFS_LANES);

/// The landmark rows that seed every rank's IA rows (DESIGN.md §5,
/// *Landmark-seeded IA*): the exact distance rows, `n` cells each, of the
/// [`LANDMARKS`] vertices of highest degree, ties broken by the smaller
/// id. One [`bfs_rows`] pass on a unit-weight graph; one Dijkstra per
/// landmark otherwise, where hop counts are not walk lengths.
fn landmark_rows(graph: &AdjGraph) -> Vec<Dist> {
    let n = graph.num_vertices();
    let mut ids: Vec<VertexId> = graph.vertices().collect();
    ids.sort_unstable_by_key(|&v| (Reverse(graph.degree(v)), v));
    ids.truncate(LANDMARKS);
    let mut rows = vec![INF; ids.len() * n];
    if graph.edges().all(|(_, _, w)| w == 1) {
        bfs_rows(n, |v| graph.neighbors(v).iter().copied(), &ids, &mut rows);
    } else {
        for (&l, row) in ids.iter().zip(rows.chunks_exact_mut(n)) {
            dijkstra_into(graph, l, row);
        }
    }
    rows
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of logical processors (the paper uses 16).
    pub procs: usize,
    /// Domain-decomposition partitioner.
    pub dd: DdPartitioner,
    /// Runtime configuration (execution mode, LogP model, schedule).
    pub cluster: ClusterConfig,
    /// Maximum message size `M` in bytes (§IV.C); DV bundles are chunked to
    /// this cap.
    pub message_cap_bytes: usize,
    /// Wire format for RC row exchanges (full rows vs sparse deltas).
    pub wire: WireFormat,
    /// What each published epoch carries: closeness only (default) or
    /// closeness plus certified per-vertex error bounds.
    pub publish_bounds: BoundsMode,
    /// Background rebalancer policy, evaluated at RC-step barriers. The
    /// default is [`RebalancePolicy::Static`], i.e. disabled.
    pub rebalance: RebalancePolicy,
    /// Centrality metrics each published epoch carries *in addition to*
    /// closeness, which is always present. Empty (the default) publishes
    /// the closeness column alone. Listing [`MetricKind::Closeness`] here
    /// is a harmless no-op; duplicates are deduplicated.
    pub metrics: Vec<MetricKind>,
}

impl EngineConfig {
    /// Default configuration for `p` processors: multilevel DD, parallel
    /// execution, 1 Gb/s-Ethernet LogP pricing, 1 MiB message cap.
    pub fn with_procs(p: usize) -> Self {
        Self {
            procs: p,
            dd: DdPartitioner::Multilevel { seed: 0 },
            cluster: ClusterConfig::default(),
            message_cap_bytes: 1 << 20,
            wire: WireFormat::Full,
            publish_bounds: BoundsMode::None,
            rebalance: RebalancePolicy::Static,
            metrics: Vec::new(),
        }
    }

    /// Deterministic variant (sequential rank execution) for tests.
    pub fn deterministic(p: usize) -> Self {
        let mut c = Self::with_procs(p);
        c.cluster.mode = aaa_runtime::ExecutionMode::Sequential;
        c
    }

    /// Relaxation-kernel worker threads matching the execution mode: the
    /// sequential executor models single-threaded ranks, the parallel one
    /// uses the host's cores. The kernel is bit-identical either way.
    fn kernel_threads(&self) -> usize {
        match self.cluster.mode {
            aaa_runtime::ExecutionMode::Sequential => 1,
            aaa_runtime::ExecutionMode::Parallel => {
                std::thread::available_parallelism().map_or(1, |p| p.get())
            }
        }
    }

    /// Applies the per-rank knobs this config carries (wire format, kernel
    /// threads) to a freshly built state.
    fn configure_state(&self, state: &mut RankState) {
        state.set_wire(self.wire);
        state.set_kernel_threads(self.kernel_threads());
    }
}

/// Summary of a convergence run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceSummary {
    /// RC steps executed by this call.
    pub steps: usize,
    /// Whether the run reached quiescence (vs. hitting [`MAX_RC_STEPS`]).
    pub converged: bool,
}

/// Outcome of a supervised convergence run
/// ([`AnytimeEngine::run_supervised`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedRun {
    /// Steps executed and whether quiescence was reached.
    pub summary: ConvergenceSummary,
    /// Fault incidents the supervisor retried (resend + backoff).
    pub retries: u64,
    /// Checkpoint fallbacks performed.
    pub fallbacks: u32,
    /// Quiescence-time verification passes triggered by silently injected
    /// faults (drops/delays leave no incident — only the counters move).
    pub verification_passes: u64,
    /// `Some` iff the run gave up and returned a degraded-mode answer.
    pub degraded: Option<DegradedReport>,
}

impl SupervisedRun {
    /// True iff the run reached a verified fixed point (not degraded).
    pub fn converged(&self) -> bool {
        self.summary.converged && self.degraded.is_none()
    }
}

/// The anytime anywhere closeness-centrality engine.
///
/// Construction runs the DD and IA phases; [`AnytimeEngine::rc_step`]
/// advances the RC phase one step at a time (the *anytime* interface — the
/// engine can be queried for closeness between any two steps); dynamic
/// changes enter through [`AnytimeEngine::submit`] (or the `apply_*`
/// convenience wrappers) and are drained at RC-step barriers (the
/// *anywhere* interface). After every state change the engine publishes an
/// immutable epoch-stamped view readable concurrently via
/// [`AnytimeEngine::view_cell`].
pub struct AnytimeEngine {
    graph: AdjGraph,
    partition: Partition,
    cluster: Cluster<RankState>,
    config: EngineConfig,
    rc_steps: usize,
    rr_cursor: usize,
    changes_applied: u64,
    /// What the decremental changes raised and refilled, over all ranks.
    invalidation: InvalidationTally,
    /// Ingest layer: validated, coalesced changes awaiting the next drain.
    changes: ChangeLog,
    /// Publish layer: mints epochs into the shared view cell.
    publisher: Publisher,
    /// Metric layer: closeness (always) plus the extra per-epoch centrality
    /// columns from [`EngineConfig::metrics`]. Extra-metric state lives at
    /// the driver and is updated at publish barriers from drained DV rows.
    metrics: MetricSet,
    /// The edges made or unmade since the last publish barrier, each with
    /// the weight under which it was or is tight: what the barrier tests
    /// the unmoved DV rows against for the per-source metrics
    /// ([`AnytimeEngine::update_extra_metrics`]); for the certified bounds
    /// only whether it is empty counts (if not, every row is a candidate,
    /// [`AnytimeEngine::publish_view`]). Stays empty on an engine with
    /// neither.
    touched: Vec<(VertexId, VertexId, Weight)>,
    /// A change of the drain in flight left rows for its one `settle`.
    unsettled: bool,
    /// `faults.injected()` at the last quiescence a supervised run verified
    /// (0 on a fresh or restored engine): whatever was injected since, in a
    /// run or not, costs the next supervised run a verification pass.
    faults_verified: u64,
}

impl AnytimeEngine {
    /// Domain decomposition + initial approximation.
    pub fn new(graph: AdjGraph, config: EngineConfig) -> Result<Self, CoreError> {
        Self::with_sink(graph, config, Arc::new(NoopSink))
    }

    /// [`AnytimeEngine::new`] with an event sink installed from the start,
    /// so even the construction phases (DD, IA) are traced.
    pub fn with_sink(
        graph: AdjGraph,
        config: EngineConfig,
        sink: Arc<dyn EventSink>,
    ) -> Result<Self, CoreError> {
        Self::build(graph, None, config, sink)
    }

    /// [`AnytimeEngine::new`] with an externally computed partition: the
    /// domain-decomposition phase ran out-of-band (the partitioners take any
    /// [`aaa_graph::GraphStore`] backend) and the engine adopts its
    /// assignment instead of running [`EngineConfig::dd`]. The partition
    /// must cover exactly the graph's vertices with `k == config.procs`.
    pub fn with_partition(
        graph: AdjGraph,
        partition: Partition,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        Self::build(graph, Some(partition), config, Arc::new(NoopSink))
    }

    fn build(
        graph: AdjGraph,
        external: Option<Partition>,
        config: EngineConfig,
        sink: Arc<dyn EventSink>,
    ) -> Result<Self, CoreError> {
        if config.procs == 0 {
            return Err(CoreError::Config("procs must be ≥ 1".into()));
        }
        let dd_started = std::time::Instant::now();
        let partition = match external {
            Some(p) => {
                if p.len() != graph.num_vertices() {
                    return Err(CoreError::Config(format!(
                        "external partition covers {} vertices, graph has {}",
                        p.len(),
                        graph.num_vertices()
                    )));
                }
                if p.k() != config.procs {
                    return Err(CoreError::Config(format!(
                        "external partition has k = {}, config.procs = {}",
                        p.k(),
                        config.procs
                    )));
                }
                p
            }
            None => config.dd.partition(&graph, config.procs)?,
        };
        let dd_us = dd_started.elapsed().as_secs_f64() * 1e6;
        let owner: Vec<PartId> = partition.assignment().to_vec();
        let states: Vec<RankState> = (0..config.procs)
            .map(|r| {
                let mut s = RankState::build(r, owner.clone(), |v| graph.neighbors(v).to_vec());
                config.configure_state(&mut s);
                s
            })
            .collect();
        let mut cluster = Cluster::new(states, config.cluster);
        cluster.set_sink(sink);
        if cluster.observing() {
            // The one span built by hand: it was measured before the
            // cluster, and with it the clocks `Cluster::span` reads, existed.
            cluster.emit(SpanEvent {
                kind: SpanKind::DomainDecomposition,
                rank: DRIVER_LANE,
                superstep: 0,
                sim_start_us: 0.0,
                sim_dur_us: dd_us,
                wall_start_us: 0.0,
                wall_dur_us: dd_us,
                messages: 0,
                bytes: 0,
            });
        }
        // The DD partitioner runs once at the orchestrator; on the paper's
        // testbed it is parallel ParMETIS on the cluster — charge its time.
        cluster.charge_compute_us(dd_us);
        // IA phase: per-source shortest paths inside every rank's
        // sub-graph, each row then lowered through the landmark rows. The
        // driver walks those once, like DD — charged the same way — and
        // broadcasts them with the step that uses them.
        let started = std::time::Instant::now();
        let landmarks = landmark_rows(&graph);
        cluster.charge_compute_us(started.elapsed().as_secs_f64() * 1e6);
        cluster.broadcast(
            0,
            move |_| landmarks,
            |rows| std::mem::size_of_val(rows.as_slice()),
            |_, s, rows| {
                s.initial_approximation();
                s.seed_from_landmarks(rows);
            },
        );
        let metrics = MetricSet::from_kinds(&config.metrics);
        let mut engine = Self {
            graph,
            partition,
            cluster,
            config,
            rc_steps: 0,
            rr_cursor: 0,
            changes_applied: 0,
            invalidation: InvalidationTally::default(),
            changes: ChangeLog::new(),
            publisher: Publisher::new(),
            metrics,
            touched: Vec::new(),
            unsettled: false,
            faults_verified: 0,
        };
        // The anytime contract starts at construction: the IA answer is the
        // first published epoch.
        engine.publish_view(false);
        Ok(engine)
    }

    /// Installs an event sink on the engine's cluster; spans flow to it
    /// from the next superstep on. A disabled sink (e.g. [`NoopSink`])
    /// disarms recording.
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.cluster.set_sink(sink);
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.config.procs
    }

    /// The engine's current view of the full graph.
    pub fn graph(&self) -> &AdjGraph {
        &self.graph
    }

    /// The current vertex→processor assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// RC steps executed so far (across convergence runs and injections).
    pub fn rc_steps_done(&self) -> usize {
        self.rc_steps
    }

    /// Dynamic changes successfully applied so far — the change-stream
    /// cursor captured in snapshots, so a resumed consumer knows where to
    /// continue in its change log.
    pub fn changes_applied(&self) -> u64 {
        self.changes_applied
    }

    /// Accumulated runtime statistics (traffic, simulated time, wall time).
    pub fn stats(&self) -> RunStats {
        *self.cluster.stats()
    }

    /// The run report as far as the engine can state it: the runtime's
    /// header and `migration` section ([`RunStats::init_report`]) with
    /// `procs` and `rc_steps` filled, plus the sections this layer owns —
    /// `changes` (ingest counters and epochs minted), `publish`,
    /// `metrics` when the betweenness column is maintained, and `dv`: the
    /// [`AnytimeEngine::kernel_tally`] ledger and the rows' memory, summed
    /// over the ranks ([`DvStore::memory_bytes`](crate::dv::DvStore::memory_bytes),
    /// in MB of 10⁶ bytes). The caller
    /// adds what only it knows: scale, seed, quality samples and the
    /// sink-derived phases and ranks.
    pub fn report(&self, scenario: &str) -> RunReport {
        let mut report = self.stats().init_report(scenario);
        report.procs = self.config.procs as u64;
        report.rc_steps = self.rc_steps as u64;
        let ingest = self.changes.stats();
        // `changes` goes ahead of the runtime's `migration`: file order is
        // part of the report format, and this is the order on disk.
        report.sections.insert(
            0,
            Section::new(
                "changes",
                &[
                    ("submitted", ingest.submitted as f64),
                    ("coalesced", ingest.coalesced as f64),
                    ("applied", ingest.applied as f64),
                    ("drains", ingest.drains as f64),
                    ("epochs", self.epochs_published() as f64),
                ],
            ),
        );
        let publish = self.publisher.stats();
        report.sections.push(Section::new(
            "publish",
            &[
                ("full_epochs", publish.full_epochs as f64),
                ("delta_epochs", publish.delta_epochs as f64),
                ("changed_rows", publish.changed_rows as f64),
                ("chunks_copied", publish.chunks_copied as f64),
                ("chunks_shared", publish.chunks_shared as f64),
            ],
        ));
        if let Some(tally) = self.metric_tally(MetricKind::Betweenness) {
            report.sections.push(Section::new(
                "metrics",
                &[
                    ("betweenness_epochs", tally.epochs as f64),
                    ("sources_recomputed", tally.sources_recomputed as f64),
                    ("full_recomputes", tally.full_recomputes as f64),
                    ("changed_entries", tally.changed_entries as f64),
                    ("kernel_batches", tally.kernel_batches as f64),
                ],
            ));
        }
        let dv = self.kernel_tally();
        let memory: usize = self.cluster.ranks().iter().map(|s| s.dv().memory_bytes()).sum();
        report.sections.push(Section::new(
            "dv",
            &[
                ("calls", dv.calls as f64),
                ("rounds", dv.rounds as f64),
                ("dense_passes", dv.dense_passes as f64),
                ("chunks_scheduled", dv.chunks_scheduled as f64),
                ("chunks_relaxed", dv.chunks_relaxed as f64),
                ("sparse_passes", dv.sparse_passes as f64),
                ("list_passes_skipped", dv.list_passes_skipped as f64),
                ("cells", dv.cells as f64),
                ("memory_mb", memory as f64 / 1e6),
            ],
        ));
        report
    }

    // ----------------------------------------------------------------
    // Publish: epoch-stamped immutable views
    // ----------------------------------------------------------------

    /// The shared handle to the latest published view. Clone it (cheap) and
    /// hand it to reader threads — every `load` returns a complete,
    /// immutable epoch while the engine keeps running. The `aaa-serve`
    /// crate wraps this in a query API.
    pub fn view_cell(&self) -> Arc<ViewCell> {
        self.publisher.cell()
    }

    /// The latest published view.
    pub fn published(&self) -> Arc<PublishedView> {
        self.publisher.latest()
    }

    /// Epochs published so far (strictly increasing from construction).
    pub fn epochs_published(&self) -> u64 {
        self.publisher.epochs_minted()
    }

    /// Builds and publishes a fresh epoch from current rank state. This is
    /// driver-side work (the orchestrator reading rank memory it co-hosts,
    /// exactly like checkpointing): no supersteps, messages, or simulated
    /// time are charged, so publishing never perturbs the priced metrics.
    ///
    /// The hot path is `O(changed)`. The candidates are the rows the ranks
    /// drain from their epoch-dirty sets (values changed since the last
    /// publish); under certified bounds they are every row when an edge
    /// moved since the last barrier, because a hop row or a weight extreme
    /// may have moved with it. Each candidate is scored off the rank that
    /// holds it — under `Certified` clamped into its interval, whose hop
    /// rows are walked for the candidates alone — and a thin epoch re-states
    /// exactly those whose published bits moved, every new id among them.
    /// Any other row has the inputs it was last published with, so the
    /// epoch is the forced-full one bit for bit (DESIGN.md §17). A full
    /// epoch scores and re-states every row, extra columns included; it
    /// runs only when the publisher demands it — first epoch, a checkpoint
    /// fallback, forced-full override — or when a restore rewound the
    /// vertex count below the published view's (a thin delta never
    /// shrinks a view).
    fn publish_view(&mut self, converged: bool) {
        let mark = self.cluster.mark();
        let n = self.graph.num_vertices();
        // Epoch-dirty tracking is drained on every publish — a full epoch
        // resets it too, so the next delta is relative to what this epoch
        // actually published. The one drain feeds the candidates and the
        // extra metrics' row hand-off.
        let changed = self.cluster.barrier_read_mut(|_, s: &mut RankState| s.take_epoch_changed());
        let touched = std::mem::take(&mut self.touched);
        let prev = self.publisher.latest();
        let full = self.publisher.wants_full() || prev.num_vertices() > n;
        let extra_deltas = self.update_extra_metrics(&changed, &touched);
        let certified = self.config.publish_bounds == BoundsMode::Certified;
        let candidates: Vec<VertexId> = if full || certified && !touched.is_empty() {
            (0..n as VertexId).collect()
        } else {
            let mut ids = changed.concat();
            ids.sort_unstable();
            ids
        };
        let (ranks, partition) = (self.cluster.ranks(), &self.partition);
        let row = |v: VertexId| {
            ranks[partition.part_of(v) as usize].dv().local_row(v).expect("local row")
        };
        let mut scored: Vec<(VertexId, f64, f64)> = if certified {
            // Partial rows can overestimate closeness (fewer finite terms);
            // the certified interval is sound, so clamp into it.
            let intervals = certified_intervals(&self.graph, &candidates, row);
            candidates
                .iter()
                .zip(intervals)
                .map(|(&v, (lo, hi))| (v, closeness_from_row(row(v)).clamp(lo, hi), hi - lo))
                .collect()
        } else {
            candidates.iter().map(|&v| (v, closeness_from_row(row(v)), 0.0)).collect()
        };
        if !full {
            // A candidate whose bits stand is not re-stated; an id the view
            // lacks has no bits to stand.
            let moved = |was: Option<f64>, now: f64| was.map(f64::to_bits) != Some(now.to_bits());
            scored.retain(|&(v, c, b)| {
                moved(prev.point(v), c) || certified && moved(prev.error_bound(v), b)
            });
        }
        let entries = scored.iter().map(|e| (e.0, e.1)).collect();
        let bounds =
            if certified { scored.iter().map(|e| (e.0, e.2)).collect() } else { Vec::new() };
        // A full epoch re-states each extra column the metric maintains;
        // this runs after `update_extra_metrics`, so it reflects this
        // epoch's rows.
        let extras = if full {
            let columns = self.metrics.extras().iter().map(|m| {
                let column = m.full_column(n).expect("stateful metric keeps a full column");
                (m.kind(), (0..n as VertexId).zip(column).collect())
            });
            columns.collect()
        } else {
            extra_deltas
        };
        self.publisher.publish(ViewDelta {
            epoch: 0, // the publisher stamps the next id
            rc_steps: self.rc_steps,
            changes_applied: self.changes_applied,
            converged,
            full,
            n,
            entries,
            bounds,
            extras,
        });
        if self.cluster.observing() {
            // Unpriced, so an instant on the simulated clock (like
            // checkpoints); the real cost rides in wall_dur. The payload
            // fields carry the delta this epoch shipped: `messages` is
            // the re-stated row count, `bytes` its `NetMsg::ViewDelta`
            // wire size (what replication would put on the wire).
            let (rows, delta_bytes) = self
                .publisher
                .last_delta()
                .map(|d| (d.rows() as u64, d.encoded_bytes() as u64))
                .unwrap_or((0, 0));
            let step = self.rc_steps as u64;
            self.cluster.span(SpanKind::Publish, DRIVER_LANE, step, mark, rows, delta_bytes);
        }
    }

    /// Hands the extra metrics the rows their state may depend on and
    /// collects each one's changed-entry delta: the epoch-dirty rows
    /// (`changed`, per rank, as the caller drained them) and the rows under
    /// which a `touched` edge — one changed since the last barrier — is
    /// tight: Kourtellis et al.'s per-source test, two cell reads per row
    /// and edge, made where the row lives. Any other source's cached state is what recomputing it
    /// would return (DESIGN.md §15). Every row only when a metric has no
    /// state to keep (fresh, or rewound by `recover_rank`); a full *epoch*
    /// needs no row at all, it restates the column the metric maintains.
    /// Driver-side and unpriced, like the rest of the publish barrier. No-op
    /// on closeness-only engines.
    fn update_extra_metrics(
        &mut self,
        changed: &[Vec<VertexId>],
        touched: &[(VertexId, VertexId, Weight)],
    ) -> Vec<(MetricKind, Vec<(VertexId, f64)>)> {
        if self.metrics.closeness_only() {
            return Vec::new();
        }
        let all = self.metrics.wants_all_rows();
        let tight = |row: &[Dist], &(u, v, w): &(VertexId, VertexId, Weight)| {
            let (du, dv) = (row[u as usize], row[v as usize]);
            du != INF
                && dv != INF
                && (dist_add(du, w as Dist) == dv || dist_add(dv, w as Dist) == du)
        };
        let per_rank = self.cluster.barrier_read(|r, s| {
            // With no edge to test, the dirty list is the answer as it is.
            let ids = if all || !touched.is_empty() { s.local_vertices() } else { &changed[r] };
            ids.iter()
                .filter_map(|&v| {
                    let row = s.dv().local_row(v).expect("local row");
                    let wanted = all
                        || touched.is_empty()
                        || changed[r].binary_search(&v).is_ok()
                        || touched.iter().any(|e| tight(row, e));
                    wanted.then(|| (v, row.to_vec()))
                })
                .collect::<Vec<_>>()
        });
        let mut rows: Vec<(VertexId, Vec<Dist>)> = per_rank.into_iter().flatten().collect();
        rows.sort_unstable_by_key(|e| e.0);
        let n = self.graph.num_vertices();
        let graph = &self.graph;
        self.metrics
            .extras_mut()
            .iter_mut()
            .map(|m| (m.kind(), m.update(n, &rows, graph)))
            .collect()
    }

    /// The metrics every published epoch carries (closeness always).
    pub fn metric_mask(&self) -> MetricMask {
        self.metrics.mask()
    }

    /// Update-effort counters for an extra metric, or `None` if the engine
    /// is not maintaining it. Closeness is row-local (scored straight off
    /// DV rows) and keeps no tally.
    pub fn metric_tally(&self, kind: MetricKind) -> Option<MetricTally> {
        self.metrics.extras().iter().find(|m| m.kind() == kind).map(|m| m.tally())
    }

    /// Executes one recombination step: drains the ingest log at the
    /// barrier, then boundary DV exchange under the personalized all-to-all
    /// schedule, min-merge, and the local min-plus refinement (Fig. 1), and
    /// finally publishes a fresh view. Returns `true` while more work
    /// remains.
    pub fn rc_step(&mut self) -> bool {
        // Changes were validated at `submit`; on this unchecked path a
        // drain failure is a programming error, not a runtime condition.
        self.drain_changes().expect("queued change failed to apply at the RC barrier");
        self.maybe_rebalance().expect("rebalance failed at the RC barrier");
        let mark = self.cluster.mark();
        let cap = self.config.message_cap_bytes;
        self.cluster.exchange(
            move |_, s: &mut RankState| s.produce_rc_messages(cap),
            RowMsg::size_bytes,
            |_, s, inbox| s.consume_rc_messages(inbox),
        );
        self.rc_steps += 1;
        let more = self.cluster.allreduce_or(|_, s| s.last_sent || s.last_changed || s.has_dirty());
        // Quiet with nothing that could hide work: every local row is exact
        // (DESIGN.md §5). Every rank knows the all-reduce's result, so
        // setting the flag is no cluster work.
        let armed = self.cluster.chaos_plan().is_some() || self.cluster.fault_plan().is_some();
        if !more && !armed && !self.cluster.has_undelivered() {
            self.set_exact(true);
        }
        debug_assert!(
            self.cluster.ranks().windows(2).all(|w| w[0].is_exact() == w[1].is_exact()),
            "ranks disagree on whether their rows are exact"
        );
        // One span bracketing the whole step (exchange + quiescence
        // reduction), on the driver lane; `superstep` carries the RC-step
        // index.
        let step = (self.rc_steps - 1) as u64;
        self.cluster.span(SpanKind::RcStep, DRIVER_LANE, step, mark, 0, 0);
        self.publish_view(!more);
        more
    }

    /// Sets or clears every rank's exactness flag at once
    /// ([`RankState::set_exact`]): driver bookkeeping on a fact every rank
    /// already shares, so no cluster work.
    fn set_exact(&mut self, exact: bool) {
        self.cluster.barrier_read_mut(|_, s| s.set_exact(exact));
    }

    /// Runs RC steps until no processor has updates left (or the safety
    /// bound is hit). For a static graph this takes at most P−1 productive
    /// steps plus one quiescence-detection step.
    ///
    /// Panics if a queued change fails to apply at a barrier (impossible
    /// for changes that passed [`AnytimeEngine::submit`] validation); step
    /// with [`AnytimeEngine::rc_step_checked`] for a fallible run.
    pub fn run_to_convergence(&mut self) -> ConvergenceSummary {
        self.drive(None, MAX_RC_STEPS).expect("unchecked convergence cannot fail").summary
    }

    /// Closeness centrality of every vertex from the **latest published
    /// view** — the anytime query. Monotonically improving across RC
    /// steps; exact at convergence. Never blocks the compute loop: this is
    /// a lock-free read of the last epoch, also available to other threads
    /// through [`AnytimeEngine::view_cell`].
    pub fn closeness(&self) -> Vec<f64> {
        self.publisher.latest().closeness()
    }

    /// Relaxation-kernel work summed over the ranks' stores, since the
    /// engine was built or restored (a recovered rank's store carries the
    /// work of the one it replaced): a deterministic function of the run,
    /// the same on any executor, thread count and host.
    pub fn kernel_tally(&self) -> KernelTally {
        self.cluster.ranks().iter().map(RankState::kernel_tally).sum()
    }

    /// Selective-invalidation work summed over the ranks, since the engine
    /// was built or restored: how many cells the decremental changes
    /// raised and refilled where a restart would have recomputed all of
    /// them. Deterministic like [`AnytimeEngine::kernel_tally`].
    pub fn invalidation_tally(&self) -> InvalidationTally {
        self.invalidation
    }

    /// Publish-layer counters: full vs delta epochs, re-stated rows,
    /// closeness columns copied and shared.
    pub fn publish_stats(&self) -> PublishStats {
        self.publisher.stats()
    }

    /// The delta describing the most recent published epoch (what
    /// `NetMsg::ViewDelta` replication would ship).
    pub fn last_view_delta(&self) -> Option<&ViewDelta> {
        self.publisher.last_delta()
    }

    /// Disables (`true`) or re-enables (`false`) the delta publish path —
    /// the full-rebuild baseline for equivalence tests and benches.
    pub fn set_force_full_publish(&mut self, on: bool) {
        self.publisher.set_force_full(on);
    }

    /// Panics unless every rank's state is admissible for the current
    /// graph ([`RankState::check_admissible`], against exact APSP) and every
    /// chunk bound holds — the invariant every change, decremental ones
    /// included, must leave behind at any point of the analysis.
    #[cfg(any(test, debug_assertions))]
    pub fn check_admissible(&self) {
        let exact = aaa_graph::apsp::apsp_dijkstra(&aaa_graph::Csr::from_adj(&self.graph));
        for s in self.cluster.ranks() {
            s.check_admissible(&exact);
            s.dv().check_bounds();
        }
    }

    /// Recomputes closeness with a priced gather superstep (every rank
    /// reports its local values through the BSP fabric) instead of reading
    /// the published view. This is the pre-pipeline query path, kept as an
    /// escape hatch for oracles and perf baselines that price the gather;
    /// it does **not** publish an epoch.
    pub fn recompute_exact(&mut self) -> Vec<f64> {
        let per_rank = self.cluster.step(|_, s| s.local_closeness());
        let mut out = vec![0.0; self.graph.num_vertices()];
        for list in per_rank {
            for (v, c) in list {
                out[v as usize] = c;
            }
        }
        out
    }

    /// Gathers the full distance matrix (testing / small graphs only —
    /// this is Θ(n²) memory at the driver). Driver-side barrier read; not
    /// priced.
    pub fn distances(&self) -> DistMatrix {
        let per_rank = self.cluster.barrier_read(|_, s| s.local_rows());
        let n = self.graph.num_vertices();
        let mut m = DistMatrix::new(n);
        for list in per_rank {
            for (v, row) in list {
                for (t, d) in row.into_iter().enumerate() {
                    m.set(v, t as VertexId, d);
                }
            }
        }
        m
    }

    // ----------------------------------------------------------------
    // Ingest: the change log
    // ----------------------------------------------------------------

    /// Submits a dynamic change to the ingest layer. The change is
    /// validated *now* (against the graph as it will look when the queue
    /// ahead of it has been applied) and coalesced with queued changes
    /// where safe; it takes effect at the next RC-step barrier or explicit
    /// [`AnytimeEngine::drain_changes`]. Vertex batches submitted this way
    /// get their assignment strategy chosen by [`choose_strategy`] at drain
    /// time; use [`AnytimeEngine::submit_with_strategy`] to pin one.
    pub fn submit(&mut self, change: DynamicChange) -> Result<(), CoreError> {
        self.changes.submit(&self.graph, change, None)
    }

    /// [`AnytimeEngine::submit`] with a pinned processor-assignment
    /// strategy for vertex batches (ignored by edge changes).
    pub fn submit_with_strategy(
        &mut self,
        change: DynamicChange,
        strategy: AssignStrategy,
    ) -> Result<(), CoreError> {
        self.changes.submit(&self.graph, change, Some(strategy))
    }

    /// Changes queued and not yet drained.
    pub fn pending_changes(&self) -> usize {
        self.changes.len()
    }

    /// Ingest-layer counters (submitted / coalesced / applied / drains).
    pub fn ingest_stats(&self) -> IngestStats {
        self.changes.stats()
    }

    /// Applies every queued change in submission order at the current
    /// barrier — the compute layer's ingest drain. Runs automatically at
    /// the top of every RC step; callable explicitly to force changes in
    /// between. Publishes a fresh view when anything was applied and
    /// returns the number of changes applied.
    ///
    /// No rank relaxes until the last change has written its rows; then one
    /// step settles every rank (DESIGN.md §5).
    ///
    /// On an execution error the failing change is discarded, the changes
    /// behind it stay queued, and the error propagates (unreachable for
    /// streams that passed `submit` validation).
    pub fn drain_changes(&mut self) -> Result<usize, CoreError> {
        if self.changes.is_empty() {
            return Ok(0);
        }
        let mark = self.cluster.mark();
        let mut applied = 0usize;
        let mut outcome = Ok(());
        while let Some(pc) = self.changes.pop() {
            let res = match pc.change {
                DynamicChange::AddVertices(batch) => {
                    let strategy = pc
                        .strategy
                        .unwrap_or_else(|| choose_strategy(&batch, self.graph.num_vertices()));
                    self.exec_vertex_additions(&batch, strategy)
                }
                DynamicChange::RemoveVertices(victims) => self.exec_remove_vertices(&victims),
                DynamicChange::AddEdge { u, v, w } => self.exec_add_edge(u, v, w),
                DynamicChange::RemoveEdge { u, v } => self.exec_remove_edge(u, v),
                DynamicChange::SetWeight { u, v, w } => self.exec_set_edge_weight(u, v, w),
            };
            match res {
                Ok(()) => {
                    applied += 1;
                    // What the change did to the edge set — whether every
                    // bound is a candidate, sources whose shortest-path
                    // counts may have shifted where no distance did — it
                    // stated itself (`edges_changed`). One that altered
                    // nothing (a weight set to itself, isolated victims)
                    // still counts and still publishes its epoch below.
                    self.changes.record_applied();
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        if std::mem::take(&mut self.unsettled) {
            self.cluster.step(|_, s| s.settle());
        }
        if applied > 0 {
            self.changes.record_drain();
            // The drain is driver work; what its changes cost the cluster
            // is in their own collective and superstep spans. `messages`
            // carries the number of changes applied.
            let (step, mark) = (self.rc_steps as u64, self.cluster.unpriced(mark));
            self.cluster.span(SpanKind::Drain, DRIVER_LANE, step, mark, applied as u64, 0);
            self.publish_view(false);
        }
        outcome.map(|()| applied)
    }

    /// The one thing an applied change tells the layers above the DV rows:
    /// the edges it made or unmade, each with the weight under which it was
    /// or is tight. They are only noted: the next publish barrier hands the
    /// whole drain's list to the per-source metrics
    /// ([`AnytimeEngine::update_extra_metrics`]), which re-derive only what
    /// the edges can have moved, and tells the certified bounds that some
    /// edge moved, which makes every row a candidate for the epoch
    /// ([`AnytimeEngine::publish_view`]). An engine with neither keeps no
    /// list and does not walk `edges`. A change that altered no edge does
    /// not call this.
    fn edges_changed(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>) {
        if !self.metrics.closeness_only() || self.config.publish_bounds == BoundsMode::Certified {
            self.touched.extend(edges);
        }
    }

    // ----------------------------------------------------------------
    // Anywhere: dynamic changes
    // ----------------------------------------------------------------

    /// Applies a dynamic change mid-analysis: submit + immediate drain.
    /// Vertex additions honour the given strategy; edge changes use the
    /// companion algorithms.
    pub fn apply_change(
        &mut self,
        change: &DynamicChange,
        strategy: AssignStrategy,
    ) -> Result<(), CoreError> {
        self.submit_with_strategy(change.clone(), strategy)?;
        self.drain_changes().map(|_| ())
    }

    /// Incorporates a batch of new vertices using the chosen processor
    /// assignment strategy (the paper's core contribution; Fig. 2 + Fig. 3).
    /// Routed through the ingest log (submit + immediate drain) so every
    /// mutation shares one path; the caller decides when to continue RC
    /// stepping.
    pub fn apply_vertex_additions(
        &mut self,
        batch: &VertexBatch,
        strategy: AssignStrategy,
    ) -> Result<(), CoreError> {
        self.submit_with_strategy(DynamicChange::AddVertices(batch.clone()), strategy)?;
        self.drain_changes().map(|_| ())
    }

    /// Executes a vertex-addition batch at a barrier (drain path).
    fn exec_vertex_additions(
        &mut self,
        batch: &VertexBatch,
        strategy: AssignStrategy,
    ) -> Result<(), CoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.validate(self.graph.num_vertices())?;
        let base = self.graph.num_vertices() as VertexId;
        match strategy {
            AssignStrategy::Repartition { seed } => self.apply_repartition(batch, seed)?,
            AssignStrategy::RoundRobin => {
                let owners = round_robin_assign(batch.len(), self.config.procs, self.rr_cursor);
                self.rr_cursor = (self.rr_cursor + batch.len()) % self.config.procs;
                self.apply_anywhere(batch, base, owners)?;
            }
            AssignStrategy::CutEdge { seed, tries } => {
                // CutEdge-PS partitions the new-vertex graph (serial METIS
                // in the paper); charge that compute to the cluster clock.
                let started = std::time::Instant::now();
                let owners = cut_edge_assign(batch, base, self.config.procs, seed, tries)?;
                self.cluster.charge_compute_us(started.elapsed().as_secs_f64() * 1e6);
                self.apply_anywhere(batch, base, owners)?;
            }
        }
        self.edges_changed(batch.iter_global_edges(base));
        self.changes_applied += 1;
        Ok(())
    }

    /// The anywhere vertex-addition strategy (Fig. 3): grow DVs, then absorb
    /// the new edges as one blocked update; the drain settles them.
    fn apply_anywhere(
        &mut self,
        batch: &VertexBatch,
        base: VertexId,
        owners: Vec<PartId>,
    ) -> Result<(), CoreError> {
        // Driver-side graph and partition bookkeeping. `validate` ruled out
        // every failure mode, so these cannot error.
        self.graph.add_vertices(batch.len());
        let edges = batch.global_edges(base);
        for &(a, b, w) in &edges {
            self.graph.add_edge(a, b, w)?;
        }
        self.partition.extend(owners.iter().copied())?;

        // Announce the batch (owners + edges) to every rank.
        let msg = GrowMsg { base, owners, edges: edges.clone() };
        self.cluster.broadcast(0, move |_| msg, GrowMsg::size_bytes, |_, s, m| s.grow(m));
        self.relax_over_edges(&edges);
        Ok(())
    }

    /// Repartition-S (§IV.C.1b): partition the grown graph and adopt the
    /// result ([`AnytimeEngine::adopt`]). No per-edge relaxation is
    /// performed — the paper trades that for the repartition — and
    /// subsequent RC steps absorb the change.
    fn apply_repartition(&mut self, batch: &VertexBatch, seed: u64) -> Result<(), CoreError> {
        let base = self.graph.num_vertices() as VertexId;
        self.graph.add_vertices(batch.len());
        let edges = batch.global_edges(base);
        for &(a, b, w) in &edges {
            self.graph.add_edge(a, b, w)?;
        }
        let fresh = self.fresh_partition(seed)?;
        self.adopt(&fresh, base, edges)
    }

    /// Migrates partial results to a fresh multilevel partition of the
    /// *current* graph — the load-rebalancing operation the paper lists as
    /// future work ("graph rebalancing strategies to deal with load
    /// imbalances"): Repartition-S without a batch.
    pub fn rebalance(&mut self, seed: u64) -> Result<(), CoreError> {
        let fresh = self.fresh_partition(seed)?;
        self.migrate_vertices(&moves_between(&self.partition, &fresh))?;
        self.publish_view(false);
        Ok(())
    }

    /// A multilevel partition of the driver's graph. The whole-graph
    /// repartitioning is Repartition-S's main cost (parallel ParMETIS in
    /// the paper) — its compute time is charged.
    fn fresh_partition(&mut self, seed: u64) -> Result<Partition, CoreError> {
        let started = std::time::Instant::now();
        let fresh =
            MultilevelPartitioner::seeded(seed).partition(&self.graph, self.config.procs)?;
        self.cluster.charge_compute_us(started.elapsed().as_secs_f64() * 1e6);
        Ok(fresh)
    }

    /// Takes the engine to `target`, a partition of the driver's graph, of
    /// which the ranks have yet to see the vertices from `base` on and
    /// their `edges`. The existing vertices `target` assigns elsewhere
    /// migrate first ([`AnytimeEngine::migrate_vertices`]), so rows travel
    /// at their old width; then the batch is announced under `target`'s
    /// owners and its edges are seeded on their endpoints' rows.
    fn adopt(
        &mut self,
        target: &Partition,
        base: VertexId,
        edges: Vec<(VertexId, VertexId, Weight)>,
    ) -> Result<(), CoreError> {
        self.migrate_vertices(&moves_between(&self.partition, target))?;
        let owners = target.assignment()[base as usize..].to_vec();
        self.partition.extend(owners.iter().copied())?;
        let msg = GrowMsg { base, owners, edges };
        self.cluster.broadcast(
            0,
            move |_| msg,
            GrowMsg::size_bytes,
            |_, s, m| {
                s.grow(m);
                s.seed_edges(&m.edges);
            },
        );
        Ok(())
    }

    /// Evaluates the background rebalancer at an RC-step barrier: reads the
    /// load/cut signals, asks the policy for its move list — budgeted for
    /// moderate skew, the diff to a fresh partition when it escalates — and
    /// migrates it, charging the planning to the cluster clock.
    ///
    /// Deferred while fault or chaos injection is armed: migration ships
    /// each row exactly once over the faultable exchange path, and a row
    /// the plan drops restarts at its new owner from the trivial row —
    /// sound, but an optional rebalance is not worth re-converging for. A
    /// migration someone asked for (`rebalance`, Repartition-S) runs under
    /// the plan, behind the structural barrier of [`Cluster::exchange`].
    fn maybe_rebalance(&mut self) -> Result<(), CoreError> {
        let policy = self.config.rebalance;
        let armed = self.cluster.chaos_plan().is_some() || self.cluster.fault_plan().is_some();
        if !policy.due_at(self.rc_steps) || armed {
            return Ok(());
        }
        let started = std::time::Instant::now();
        let signals = LoadSignals::measure(&self.graph, &self.partition);
        let moves = policy.moves(&self.graph, &self.partition, &signals)?;
        self.cluster.charge_compute_us(started.elapsed().as_secs_f64() * 1e6);
        self.migrate_vertices(&moves)
    }

    /// The one migration path, for a move list of any size. Broadcasts the
    /// list so every rank updates its replicated owner map (and drops
    /// delta-wire tracking — boundary destinations changed everywhere),
    /// ships only the moved rows over the LogP-priced exchange, after which
    /// each rank evicts the cached rows it has no neighbour of any more,
    /// and counts the event in the run stats so the perf gate sees the
    /// traffic. Under Repartition-S the driver's graph has grown already;
    /// a rank takes from it the edges among the vertices it has seen.
    fn migrate_vertices(&mut self, moves: &[(VertexId, PartId)]) -> Result<(), CoreError> {
        if moves.is_empty() {
            return Ok(());
        }
        // Structural barrier (see `Cluster::exchange`): a row delayed from
        // before the move is addressed under the old owner map, and the
        // exchange below would install it as a migrated row.
        self.cluster.drop_undelivered();
        let mark = self.cluster.mark();
        let before = *self.cluster.stats();
        for &(v, p) in moves {
            self.partition.set_part(v, p)?;
        }
        self.cluster.broadcast(
            0,
            |_| moves,
            |m| 8 * m.len(),
            |_, s: &mut RankState, m| s.apply_reassignment(m),
        );
        let graph = &self.graph;
        self.cluster.exchange(
            |_, s: &mut RankState| s.migrate_out_moved(),
            RowMsg::size_bytes,
            move |_, s, inbox| {
                s.migrate_in_moved(moves, inbox, |v| graph.neighbors(v).to_vec());
                s.evict_unneeded_cached();
            },
        );
        let delta = self.cluster.stats().delta_since(&before);
        self.cluster.record_migration(moves.len() as u64, delta.bytes);
        let (step, rows) = (self.rc_steps as u64, moves.len() as u64);
        self.cluster.span(SpanKind::Migration, DRIVER_LANE, step, mark, rows, delta.bytes);
        Ok(())
    }

    /// Dynamic **vertex deletion** — the extension the paper lists as
    /// future work (§VI). Deletion is *logical*: the vertex keeps its id
    /// (global ids are stable across the cluster's DV columns) but loses
    /// every incident edge, making it isolated and giving it closeness 0.
    /// Only the cells a shortest path through it may have witnessed are
    /// invalidated — the selective invalidation shared with edge deletion,
    /// one victim at a time. Routed through the ingest log.
    pub fn remove_vertices(&mut self, victims: &[VertexId]) -> Result<(), CoreError> {
        self.submit(DynamicChange::RemoveVertices(victims.to_vec()))?;
        self.drain_changes().map(|_| ())
    }

    fn exec_remove_vertices(&mut self, victims: &[VertexId]) -> Result<(), CoreError> {
        if victims.is_empty() {
            return Ok(());
        }
        let n = self.graph.num_vertices();
        for &v in victims {
            if v as usize >= n {
                return Err(CoreError::InvalidChange(format!(
                    "cannot remove vertex {v}: graph has {n} vertices"
                )));
            }
        }
        for &v in victims {
            // A victim without edges (an earlier one's only neighbor, a
            // repeat) is on no path: nothing to invalidate.
            if self.graph.degree(v) == 0 {
                continue;
            }
            self.invalidate_through(v, v, |engine| {
                let incident = engine.graph.neighbors(v).to_vec();
                for &(t, _) in &incident {
                    engine.graph.remove_edge(v, t)?;
                }
                let edges: Vec<(VertexId, VertexId)> =
                    incident.iter().map(|&(t, _)| (v, t)).collect();
                engine.edges_changed(incident.into_iter().map(|(t, w)| (v, t, w)));
                engine.cluster.broadcast(
                    0,
                    move |_| edges,
                    |edges| 8 * edges.len(),
                    |_, s, edges| {
                        for &(a, b) in edges {
                            s.erase_edge(a, b);
                        }
                    },
                );
                Ok(())
            })?;
        }
        self.changes_applied += 1;
        Ok(())
    }

    /// Dynamic edge addition (the authors' algorithm \[9\]): record the edge
    /// everywhere, broadcast both endpoint rows, relax. Routed through the
    /// ingest log (submit + immediate drain).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), CoreError> {
        self.submit(DynamicChange::AddEdge { u, v, w })?;
        self.drain_changes().map(|_| ())
    }

    fn exec_add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), CoreError> {
        self.graph.add_edge(u, v, w)?;
        self.cluster.broadcast(
            0,
            move |_| (u, v, w),
            |_| 12,
            |_, s, &(a, b, w)| s.record_edge(a, b, w),
        );
        self.relax_over_edges(&[(u, v, w)]);
        self.edges_changed([(u, v, w)]);
        self.changes_applied += 1;
        Ok(())
    }

    /// Dynamic edge-weight change (companion algorithm \[7\]). A decrease is
    /// a relaxation; an increase invalidates the cells a shortest path
    /// over the edge may have witnessed — the selective invalidation
    /// shared with deletion — and re-seeds the edge at its new weight.
    /// Routed through the ingest log.
    pub fn set_edge_weight(
        &mut self,
        u: VertexId,
        v: VertexId,
        w: Weight,
    ) -> Result<(), CoreError> {
        self.submit(DynamicChange::SetWeight { u, v, w })?;
        self.drain_changes().map(|_| ())
    }

    fn exec_set_edge_weight(
        &mut self,
        u: VertexId,
        v: VertexId,
        w: Weight,
    ) -> Result<(), CoreError> {
        let old = self
            .graph
            .edge_weight(u, v)
            .ok_or(CoreError::Graph(aaa_graph::GraphError::MissingEdge { u, v }))?;
        let reweight = |engine: &mut Self| {
            engine.graph.set_weight(u, v, w)?;
            engine.cluster.broadcast(
                0,
                move |_| (u, v, w),
                |_| 12,
                |_, s, &(a, b, w)| s.reweight_edge(a, b, w),
            );
            Ok(())
        };
        if w > old {
            self.invalidate_through(u, v, reweight)?;
        } else {
            reweight(self)?;
            if w < old {
                self.relax_over_edges(&[(u, v, w)]);
            }
        }
        if w != old {
            self.edges_changed([(u, v, old), (u, v, w)]);
        }
        self.changes_applied += 1;
        Ok(())
    }

    /// Dynamic edge deletion (the job of the authors' deletion algorithm
    /// \[10\]): nothing restarts. Every rank raises to `INF` only the cells a
    /// shortest path over the edge may have witnessed, refills what it can
    /// from the rows it holds, and the RC phase re-converges the rest —
    /// see `invalidate_through`. Routed through the ingest log.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), CoreError> {
        self.submit(DynamicChange::RemoveEdge { u, v })?;
        self.drain_changes().map(|_| ())
    }

    fn exec_remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), CoreError> {
        self.invalidate_through(u, v, |engine| {
            // `Some` whenever the removal goes through.
            let w = engine.graph.edge_weight(u, v);
            engine.graph.remove_edge(u, v)?;
            engine.edges_changed(w.map(|w| (u, v, w)));
            engine.cluster.broadcast(0, move |_| (u, v), |_| 8, |_, s, &(a, b)| s.erase_edge(a, b));
            Ok(())
        })?;
        self.changes_applied += 1;
        Ok(())
    }

    /// Selective invalidation — the one path of every decremental change:
    /// the edge `(u, v)` removed or made heavier, or (`u == v`) the vertex
    /// `v` losing every edge. The driver takes the [`Witness`] — exact
    /// SSSP rows from both ends — on the graph as it stands **before**
    /// `change` (charged to the cluster clock like CutEdge-PS's
    /// partitioning), lets `change` mutate the graph and the ranks'
    /// adjacency, broadcasts the witness once, and every rank raises and
    /// refills what it holds ([`RankState::invalidate`]). What stays is an
    /// upper bound in the new graph, what was raised is `INF`, the direct
    /// edges are seeded: the state RC converges to the exact fixed point
    /// from, at any point of the analysis.
    fn invalidate_through(
        &mut self,
        u: VertexId,
        v: VertexId,
        change: impl FnOnce(&mut Self) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        // Structural barrier (see `Cluster::exchange`): a row delayed from
        // before the change may lie below the distances it leaves, and a
        // min-merge after the raise would keep it there.
        self.cluster.drop_undelivered();
        let started = std::time::Instant::now();
        let witness = if u == v {
            Witness::vertex(dijkstra(&self.graph, v))
        } else {
            let w = self
                .graph
                .edge_weight(u, v)
                .ok_or(CoreError::Graph(aaa_graph::GraphError::MissingEdge { u, v }))?;
            Witness::edge(dijkstra(&self.graph, u), dijkstra(&self.graph, v), w)
        };
        self.cluster.charge_compute_us(started.elapsed().as_secs_f64() * 1e6);
        change(self)?;
        let per_rank = self.cluster.broadcast(
            0,
            move |_| witness,
            Witness::size_bytes,
            |_, s: &mut RankState, witness| s.invalidate(witness),
        );
        self.invalidation.changes += 1;
        for tally in per_rank {
            self.invalidation += tally;
        }
        self.unsettled = true;
        Ok(())
    }

    /// Added (or lightened) edges, the one driver op behind a wave, an
    /// `AddEdge` and a weight decrease: each distinct endpoint row is
    /// tree-broadcast once from its owner (Fig. 3 line 22), then one step
    /// absorbs the edges in order on every rank — the rows a broadcast of
    /// both endpoints before each edge would leave. The drain settles.
    fn relax_over_edges(&mut self, edges: &[(VertexId, VertexId, Weight)]) {
        let mut seen = FxHashSet::default();
        let endpoints = edges.iter().flat_map(|&(x, y, _)| [x, y]).filter(|&v| seen.insert(v));
        for v in endpoints.collect::<Vec<_>>() {
            self.cluster.broadcast(
                self.partition.part_of(v) as usize,
                move |s: &mut RankState| (v, s.row_for_broadcast(v)),
                |(_, r): &(VertexId, Vec<_>)| 8 + 4 * r.len(),
                |_, s, m| s.hold_row(m.0, &m.1),
            );
        }
        self.cluster.step(|_, s| edges.iter().for_each(|&(x, y, w)| s.absorb_edge(x, y, w)));
        self.unsettled = true;
    }

    // ----------------------------------------------------------------
    // Checkpoint & recovery (anytime persistence)
    // ----------------------------------------------------------------

    /// Hands `f` the engine's state as the checkpoint encoder reads it,
    /// every rank's rows straight from its arenas, and counts the
    /// checkpoint.
    fn encode<T>(&mut self, f: impl FnOnce(&Image<'_, StoreRows<'_>>) -> T) -> T {
        let mark = self.cluster.mark();
        self.cluster.record_checkpoint();
        let graph = GraphSnapshot {
            num_vertices: self.graph.num_vertices() as u64,
            edges: self.graph.edges().collect(),
        };
        let partition = PartitionSnapshot {
            k: self.config.procs as u32,
            assignment: self.partition.assignment().to_vec(),
        };
        let metrics: Vec<u8> = self.metrics.extra_kinds().iter().map(|k| k.wire_id()).collect();
        let ranks: Vec<StoreRows<'_>> = self.cluster.ranks().iter().map(RankState::rows).collect();
        let out = f(&Image {
            meta: EngineMeta {
                procs: self.config.procs as u32,
                rc_steps: self.rc_steps as u64,
                rr_cursor: self.rr_cursor as u64,
                changes_applied: self.changes_applied,
            },
            graph: &graph,
            partition: &partition,
            stats: self.cluster.stats(),
            metrics: &metrics,
            exact: self.cluster.ranks().iter().all(RankState::is_exact),
            ranks: &ranks,
        });
        // An instant on the simulated clock (checkpointing is driver work,
        // not priced cluster time); real cost rides in wall_dur.
        self.cluster.span(SpanKind::Checkpoint, DRIVER_LANE, self.rc_steps as u64, mark, 0, 0);
        out
    }

    /// Captures the engine's complete state as an in-memory [`Snapshot`]:
    /// graph, partition, per-rank DV matrices with dirty masks, RC step
    /// counter, change-stream cursor, and run statistics. Must be called
    /// at a superstep barrier (i.e. between `rc_step`s / `apply_*`s),
    /// which every public entry point guarantees. Pending (undrained)
    /// ingest changes are **not** persisted — drain first if they must
    /// survive the snapshot.
    pub fn snapshot(&mut self) -> Snapshot {
        self.encode(|image| image.to_snapshot())
    }

    /// Serializes the state [`AnytimeEngine::snapshot`] captures into `w`,
    /// in the versioned binary format (see the `aaa-checkpoint` crate
    /// docs). One pass: each row goes from its arena slot through the
    /// encoder's 64 KB stage into `w`, with no [`Snapshot`] in between.
    pub fn checkpoint(&mut self, w: impl Write) -> Result<(), CoreError> {
        Ok(self.encode(|image| image.write_to(w))?)
    }

    /// [`AnytimeEngine::checkpoint`] into a byte buffer sized exactly.
    pub fn checkpoint_bytes(&mut self) -> Result<Vec<u8>, CoreError> {
        Ok(self.encode(|image| image.to_bytes())?)
    }

    /// Reconstructs an engine from a serialized snapshot. The DD and IA
    /// phases are *not* re-run: ownership and adjacency are rebuilt
    /// deterministically from the snapshot's graph + partition sections,
    /// and DV rows come straight from the snapshot, so the restored
    /// engine resumes exactly where [`AnytimeEngine::checkpoint`] left
    /// off. `config.procs` must match the snapshot. One pass: each rank
    /// section is installed into the arenas as soon as its CRC verified,
    /// so the restore holds at most one section beyond the engine.
    pub fn restore(r: impl Read, config: EngineConfig) -> Result<Self, CoreError> {
        let mut rebuild = Rebuild { config, built: None };
        let trailer = read_image(r, &mut rebuild)?;
        rebuild.finish(trailer)
    }

    /// [`AnytimeEngine::restore`] from an in-memory [`Snapshot`], under the
    /// decoder's consistency rules ([`Snapshot::check`]). The restored
    /// engine starts with a fresh (empty) ingest log and a fresh publish
    /// cell whose first epoch is the snapshot's answer.
    pub fn from_snapshot(snap: &Snapshot, config: EngineConfig) -> Result<Self, CoreError> {
        snap.check()?;
        let mut rebuild = Rebuild { config, built: None };
        rebuild.build(snap.meta, &snap.graph, snap.partition.clone())?;
        for rows in &snap.ranks {
            rebuild.install(rows)?;
        }
        rebuild.finish(Trailer {
            meta: snap.meta,
            stats: snap.stats,
            metrics: snap.metrics.clone(),
            exact: snap.exact,
        })
    }

    /// Arms the fault injector: the chosen rank "dies" at the barrier
    /// before the chosen superstep, surfacing as
    /// [`aaa_runtime::ClusterError::RankFailed`] from the `_checked`
    /// stepping entry points. Arming it withdraws every rank's claim to
    /// exact rows ([`RankState::set_exact`]) until a run converges again
    /// with no plan armed.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.set_exact(false);
        self.cluster.inject_fault(plan);
    }

    /// The armed fault, if any (it is consumed when it fires).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.cluster.fault_plan()
    }

    /// Arms the chaos layer: every subsequent cross-rank message is subject
    /// to the plan's seeded drop/duplicate/delay/corrupt/stall faults (see
    /// `aaa_runtime::chaos`). [`ChaosPlan::none`] disarms it: the routing
    /// loop is the same one, every fate `Deliver`. A delayed row never
    /// crosses a decremental change or a migration — see
    /// [`Cluster::exchange`] for the rule. Like [`AnytimeEngine::inject_fault`]
    /// it withdraws every rank's claim to exact rows.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.set_exact(false);
        self.cluster.set_chaos(plan);
    }

    /// The armed chaos plan, if any.
    pub fn chaos_plan(&self) -> Option<ChaosPlan> {
        self.cluster.chaos_plan()
    }

    /// [`AnytimeEngine::rc_step`] with fault detection: returns
    /// `Err(CoreError::Cluster(RankFailed))` if the armed fault fires at
    /// this barrier, or a chaos incident (`MessageCorrupted`,
    /// `RankStalled`) if the chaos layer injected a *detectable* fault
    /// during the step. Either way the engine stays intact: the caller can
    /// recover the failed rank via [`AnytimeEngine::recover_rank`], or
    /// retry the step — which [`AnytimeEngine::run_supervised`] automates.
    /// Drains the ingest log first, propagating its errors.
    pub fn rc_step_checked(&mut self) -> Result<bool, CoreError> {
        self.drain_changes()?;
        self.cluster.poll_fault()?;
        let more = self.rc_step();
        self.cluster.poll_chaos()?;
        Ok(more)
    }

    /// Supervised convergence: [`AnytimeEngine::run_to_convergence`] under
    /// a retry/backoff/fallback supervisor, with a **degraded-mode answer**
    /// instead of an error when recovery is impossible.
    ///
    /// The loop reacts to the three ways the chaos layer can hurt a run:
    ///
    /// * **Detected incidents** (`MessageCorrupted`, `RankStalled`) — charge
    ///   the policy's simulated backoff (plus the stall-detection deadline),
    ///   mark every row for resend, and retry. Min-merge is idempotent, so
    ///   re-announcing rows is always safe. `max_attempts` bounds
    ///   *consecutive* faulty barriers; a clean step resets the counter.
    /// * **Silent faults** (drops, delays) — invisible at the barrier, so
    ///   quiescence cannot be trusted on its word. At quiescence the
    ///   supervisor first drains any still-delayed messages, then compares
    ///   the injected-fault counters against the last verified total — kept
    ///   on the engine, so faults injected before this run count too; if
    ///   they moved, it runs a **verification pass** (full resend) before
    ///   accepting the fixed point. Convergence is declared only after a
    ///   quiescent round with no new faults and nothing in flight.
    /// * **Exhausted retries** — fall back to the checkpoint taken at entry
    ///   (`max_fallbacks` times), rebuilding the engine and re-arming the
    ///   chaos/fault plans. When that budget is gone too, give up and
    ///   return `Ok` with a [`DegradedReport`]: the current closeness
    ///   estimate plus certified per-vertex error bounds — the anytime
    ///   answer under unrecoverable faults.
    ///
    /// Injected **rank failures** ([`FaultPlan`]) still surface as
    /// `Err(RankFailed)` — crash recovery needs the caller's checkpoint
    /// and stays on the [`AnytimeEngine::recover_rank`] path.
    pub fn run_supervised(&mut self, retry: &RetryPolicy) -> Result<SupervisedRun, CoreError> {
        self.drive(Some(retry), MAX_RC_STEPS)
    }

    /// The convergence driver behind both `run_*` entry points: one loop
    /// that drains the ingest log and steps RC. Unsupervised (`None`) it
    /// takes the unchecked fast path; supervised it steps with
    /// [`AnytimeEngine::rc_step_checked`] and runs the
    /// retry/verification/fallback ladder. After `max_steps` steps it stops
    /// unconverged (supervised: degraded).
    fn drive(
        &mut self,
        supervised: Option<&RetryPolicy>,
        max_steps: usize,
    ) -> Result<SupervisedRun, CoreError> {
        // Drain before the fallback checkpoint below: applied changes land
        // in it, so a restore cannot silently lose them. `submit` needs
        // `&mut self`, so nothing can enqueue mid-run — the log stays empty
        // for the rest of the loop.
        self.drain_changes()?;
        // The fallback checkpoint is only worth its cost under chaos; an
        // unarmed run must behave exactly like `run_to_convergence`.
        let fallback = match supervised {
            Some(retry) if self.cluster.chaos_plan().is_some() && retry.max_fallbacks > 0 => {
                Some(self.checkpoint_bytes()?)
            }
            _ => None,
        };
        let mut attempts: u32 = 0;
        let mut retries: u64 = 0;
        let mut fallbacks: u32 = 0;
        let mut verification_passes: u64 = 0;
        // What the verification pass in flight covers, if any.
        let mut faults_seen = self.faults_verified;
        let mut steps = 0usize;
        loop {
            if steps >= max_steps {
                return Ok(if supervised.is_some() {
                    self.degraded_run(
                        steps,
                        retries,
                        fallbacks,
                        verification_passes,
                        DegradedReason::StepBudgetExhausted,
                    )
                } else {
                    SupervisedRun {
                        summary: ConvergenceSummary { steps, converged: false },
                        retries,
                        fallbacks,
                        verification_passes,
                        degraded: None,
                    }
                });
            }
            steps += 1;
            let stepped =
                if supervised.is_some() { self.rc_step_checked() } else { Ok(self.rc_step()) };
            match stepped {
                Ok(more) => {
                    attempts = 0;
                    if more {
                        continue;
                    }
                    if supervised.is_some() {
                        // Quiescence claimed. Delayed messages still in
                        // flight can reopen work — keep stepping until the
                        // queue drains (each step advances the delay clock).
                        if self.cluster.has_undelivered() {
                            continue;
                        }
                        // Silent drops leave no incident; only the counters
                        // move. Verify the fixed point with a full resend if
                        // anything was injected since the last verified
                        // total — before this run too.
                        let injected_now = self.stats().faults.injected();
                        if injected_now != faults_seen {
                            faults_seen = injected_now;
                            verification_passes += 1;
                            let (step, now) = (steps as u64, self.cluster.mark());
                            self.cluster.span(SpanKind::Verification, DRIVER_LANE, step, now, 0, 0);
                            self.resend_all();
                            continue;
                        }
                        self.faults_verified = injected_now;
                    }
                    return Ok(SupervisedRun {
                        summary: ConvergenceSummary { steps, converged: true },
                        retries,
                        fallbacks,
                        verification_passes,
                        degraded: None,
                    });
                }
                Err(CoreError::Cluster(
                    incident @ (ClusterError::MessageCorrupted { .. }
                    | ClusterError::RankStalled { .. }),
                )) if supervised.is_some() => {
                    let retry = supervised.expect("guarded by is_some");
                    attempts += 1;
                    retries += 1;
                    let mut wait = RetryPolicy::backoff_us(attempts);
                    if matches!(incident, ClusterError::RankStalled { .. }) {
                        wait += RetryPolicy::STALL_DEADLINE_US;
                    }
                    // The backoff is real simulated network time: a span of
                    // exactly the charged wait.
                    let mark = self.cluster.mark();
                    self.cluster.charge_comm_us(wait);
                    self.cluster.span(SpanKind::Retry, DRIVER_LANE, steps as u64, mark, 0, 0);
                    if attempts > retry.max_attempts {
                        if fallbacks < retry.max_fallbacks {
                            if let Some(bytes) = &fallback {
                                self.fallback_restore(bytes)?;
                                fallbacks += 1;
                                attempts = 0;
                                // Stats were rewound to the checkpoint.
                                faults_seen = self.stats().faults.injected();
                                continue;
                            }
                        }
                        return Ok(self.degraded_run(
                            steps,
                            retries,
                            fallbacks,
                            verification_passes,
                            DegradedReason::RetriesExhausted { last: incident },
                        ));
                    }
                    self.resend_all();
                }
                // Rank failures (and everything else) are not retryable
                // here — they need the caller's checkpoint.
                Err(e) => return Err(e),
            }
        }
    }

    /// Marks every row on every rank for resend and accounts the repair
    /// traffic as retransmissions.
    fn resend_all(&mut self) {
        let per_rank = self.cluster.step(|_, s| {
            s.mark_all_for_resend();
            s.local_vertices().len() as u64
        });
        self.cluster.record_retransmits(per_rank.into_iter().sum());
    }

    /// Rebuilds the engine from the checkpoint `bytes` and re-arms the
    /// chaos and fault plans — and the event sink — none of which live in
    /// the checkpoint (they belong to the replaced cluster). The publish
    /// cell and ingest log survive the rebuild: readers keep their handle,
    /// epochs keep increasing, and pending changes stay queued.
    fn fallback_restore(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        let chaos = self.cluster.chaos_plan();
        let fault = self.cluster.fault_plan();
        let sink = self.cluster.sink();
        let mut publisher = std::mem::take(&mut self.publisher);
        // The checkpoint was taken after `drive`'s drain, so the graph comes
        // back unchanged and only the rows rewind. Which rows moved is lost:
        // `restore` drains their epoch-dirty marks into its own publisher,
        // discarded here. So the epoch below re-states every row.
        publisher.request_full();
        let changes = std::mem::take(&mut self.changes);
        let faults_verified = self.faults_verified;
        *self = Self::restore(bytes, self.config.clone())?;
        self.faults_verified = faults_verified;
        self.publisher = publisher;
        // The kept publisher still holds the pre-rewind extra-metric
        // columns, while `restore` already synced its fresh metric state to
        // a publisher we just discarded. Start the metric state over so the
        // publish below restates every extra column in full against the
        // surviving view.
        self.metrics = MetricSet::from_kinds(&self.metrics.extra_kinds());
        self.changes = changes;
        self.cluster.set_sink(sink);
        if let Some(c) = chaos {
            self.set_chaos(c);
        }
        if let Some(f) = fault {
            self.inject_fault(f);
        }
        let (step, now) = (self.rc_steps as u64, self.cluster.mark());
        self.cluster.span(SpanKind::Restore, DRIVER_LANE, step, now, 0, 0);
        // Restart announcement flow from the restored rows, and let readers
        // see the rewound answer as a fresh epoch.
        self.resend_all();
        self.publish_view(false);
        Ok(())
    }

    /// Assembles the degraded-mode answer from the engine's current state,
    /// bounded by the certified intervals of the current graph.
    fn degraded_run(
        &mut self,
        steps: usize,
        retries: u64,
        fallbacks: u32,
        verification_passes: u64,
        reason: DegradedReason,
    ) -> SupervisedRun {
        let report = DegradedReport::assemble(
            &self.graph,
            &self.distances(),
            self.closeness(),
            reason,
            self.rc_steps,
            self.stats().faults,
        );
        SupervisedRun {
            summary: ConvergenceSummary { steps, converged: false },
            retries,
            fallbacks,
            verification_passes,
            degraded: Some(report),
        }
    }

    /// Rebuilds a failed rank from the last checkpoint and re-enters RC.
    ///
    /// The failed rank's state is reconstructed from the *current* graph
    /// and partition (ownership/adjacency are derivable), re-seeded with
    /// the local-subgraph Dijkstra bounds, and then overlaid with the
    /// snapshot's rows for that rank. Every rank then marks all rows for
    /// resend, so subsequent RC steps min-merge the recovered rank back to
    /// the same unique fixed point (replay safety). The snapshot may be
    /// older than the failure point (j ≤ k): between invalidations DV
    /// entries only decrease, which makes replaying the gap safe, just not
    /// free.
    ///
    /// The overlay is sound only while the snapshot's rows are upper
    /// bounds for the graph as it is *now*, and a decremental change since
    /// the capture (an edge removed or made heavier, a vertex removed) ends
    /// that: min-merging such rows would converge below the true
    /// distances. The snapshot carries its graph, so the rows are absorbed
    /// only when every edge it lists is still present at no greater a
    /// weight; otherwise the rank restarts from its IA rows alone — sound,
    /// just slower.
    pub fn recover_rank(&mut self, rank: usize, snap: &Snapshot) -> Result<(), CoreError> {
        if rank >= self.config.procs {
            return Err(CoreError::Config(format!(
                "cannot recover rank {rank}: engine has {} ranks",
                self.config.procs
            )));
        }
        if snap.meta.procs as usize != self.config.procs {
            return Err(CoreError::Config(format!(
                "snapshot has {} ranks but engine has {}",
                snap.meta.procs, self.config.procs
            )));
        }
        let mark = self.cluster.mark();
        let started = std::time::Instant::now();
        let owner: Vec<PartId> = self.partition.assignment().to_vec();
        let graph = &self.graph;
        let mut fresh = RankState::build(rank, owner, |v| graph.neighbors(v).to_vec());
        self.config.configure_state(&mut fresh);
        fresh.initial_approximation();
        let still_bounds = snap
            .graph
            .edges
            .iter()
            .all(|&(u, v, w)| self.graph.edge_weight(u, v).is_some_and(|now| now <= w));
        if let Some(rs) = snap.rank(rank).filter(|_| still_bounds) {
            // Merge, don't replace: the snapshot may predate edges the IA
            // pass just learned about (see `absorb_snapshot`).
            fresh.absorb_snapshot(rs);
        }
        let rebuild_us = started.elapsed().as_secs_f64() * 1e6;
        fresh.carry_kernel_tally(self.cluster.ranks()[rank].kernel_tally());
        self.cluster.ranks_mut()[rank] = fresh;
        // The rebuild is real recovery work — charge it to the cluster
        // clock, as a span on the recovered rank's lane — and the resend
        // pass below is a priced superstep.
        self.cluster.charge_compute_us(rebuild_us);
        self.cluster.span(SpanKind::Recovery, rank as i64, self.rc_steps as u64, mark, 0, 0);
        self.cluster.step(|_, s| s.mark_all_for_resend());
        self.cluster.record_restore();
        // The recovered rank's rows were rewound to the snapshot; cached
        // per-source metric state derived from the old rows is stale. The
        // view needs nothing more: the fresh rows are epoch-dirty, the
        // graph did not move, so the epoch below re-states what moved.
        self.metrics.invalidate_all();
        self.publish_view(false);
        Ok(())
    }
}

/// An engine rebuilt from a snapshot part by part: the graph, partition
/// and fresh rank states from the header, then each rank's rows installed
/// in place. The streaming decoder feeds it ([`AnytimeEngine::restore`]),
/// and so does an in-memory [`Snapshot`] ([`AnytimeEngine::from_snapshot`]).
struct Rebuild {
    config: EngineConfig,
    built: Option<(AdjGraph, Partition, Vec<RankState>)>,
}

impl Rebuild {
    fn build(
        &mut self,
        meta: EngineMeta,
        graph: &GraphSnapshot,
        partition: PartitionSnapshot,
    ) -> Result<(), CoreError> {
        let config = &self.config;
        if config.procs != meta.procs as usize {
            return Err(CoreError::Config(format!(
                "snapshot was taken with {} procs but config requests {}",
                meta.procs, config.procs
            )));
        }
        if partition.assignment.len() as u64 != graph.num_vertices {
            return Err(CoreError::Checkpoint(CheckpointError::Malformed(format!(
                "partition covers {} vertices but graph has {}",
                partition.assignment.len(),
                graph.num_vertices
            ))));
        }
        let mut g = AdjGraph::with_vertices(graph.num_vertices as usize);
        for &(u, v, w) in &graph.edges {
            g.add_edge(u, v, w)?;
        }
        let partition = Partition::new(partition.assignment, partition.k as usize)?;
        let owner: Vec<PartId> = partition.assignment().to_vec();
        let states = (0..config.procs)
            .map(|r| {
                let mut s = RankState::build(r, owner.clone(), |v| g.neighbors(v).to_vec());
                config.configure_state(&mut s);
                s
            })
            .collect();
        self.built = Some((g, partition, states));
        Ok(())
    }

    fn install(&mut self, rows: &impl RankRows) -> Result<(), CoreError> {
        let (_, _, states) = self.built.as_mut().expect("the header precedes the ranks");
        Ok(states[rows.rank() as usize].restore_rows(rows)?)
    }

    fn finish(self, trailer: Trailer) -> Result<AnytimeEngine, CoreError> {
        let (graph, partition, states) = self.built.expect("the header precedes the trailer");
        let config = self.config;
        let mut cluster = Cluster::new(states, config.cluster);
        cluster.restore_stats(trailer.stats);
        cluster.barrier_read_mut(|_, s| s.set_exact(trailer.exact));
        cluster.record_restore();
        // Union of the config's metrics and what the snapshot was
        // maintaining: restoring never silently drops a metric the
        // checkpointed engine carried. Unknown wire ids (from a future
        // format revision) are rejected rather than ignored.
        let mut kinds = config.metrics.clone();
        for &id in &trailer.metrics {
            kinds.push(MetricKind::from_wire_id(id).ok_or_else(|| {
                CoreError::Checkpoint(CheckpointError::Malformed(format!(
                    "snapshot lists unknown metric wire id {id}"
                )))
            })?);
        }
        // Extra-metric state is not persisted; MetricSet starts fresh, so
        // the first publish below rebuilds it from the restored DV rows.
        let metrics = MetricSet::from_kinds(&kinds);
        let meta = trailer.meta;
        let mut engine = AnytimeEngine {
            graph,
            partition,
            cluster,
            config,
            rc_steps: meta.rc_steps as usize,
            rr_cursor: meta.rr_cursor as usize,
            changes_applied: meta.changes_applied,
            invalidation: InvalidationTally::default(),
            changes: ChangeLog::new(),
            publisher: Publisher::new(),
            metrics,
            touched: Vec::new(),
            unsettled: false,
            faults_verified: 0,
        };
        engine.publish_view(false);
        Ok(engine)
    }
}

impl ImageSink for Rebuild {
    type Error = CoreError;

    fn header(
        &mut self,
        meta: EngineMeta,
        graph: GraphSnapshot,
        partition: PartitionSnapshot,
    ) -> Result<(), CoreError> {
        self.build(meta, &graph, partition)
    }

    fn rank(&mut self, rows: &RankSection<'_>) -> Result<(), CoreError> {
        self.install(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::preferential_batch;
    use aaa_graph::closeness::closeness_exact;
    use aaa_graph::generators::{barabasi_albert, WeightModel};
    use aaa_graph::Csr;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one migration path under move lists of every shape — empty,
        /// one vertex, everything to one rank, a label permutation (every
        /// row moves, nothing else changes), a fresh multilevel partition,
        /// a random relabelling — each with and without a vertex batch
        /// attached (the Repartition-S shape), from converged and
        /// non-converged states, on both wires.
        #[test]
        fn any_move_list_migrates_to_an_admissible_state_and_the_exact_fixed_point(
            n in 24usize..90,
            procs in 2usize..=6,
            knobs in 0u64..u64::MAX,
            shape in 0u32..6,
        ) {
            let bit = |at: u32| knobs >> at & 1 == 1;
            let weights =
                if bit(0) { WeightModel::Unit } else { WeightModel::UniformRange { lo: 1, hi: 5 } };
            let graph = barabasi_albert(n, 2, weights, knobs >> 32).expect("generator");
            let mut config = EngineConfig::deterministic(procs);
            config.wire = if bit(1) { WireFormat::Delta } else { WireFormat::Full };
            let mut engine = AnytimeEngine::new(graph, config).expect("engine");
            if bit(2) {
                engine.run_to_convergence();
            } else {
                engine.rc_step();
            }

            // The driver's graph grows first, as under Repartition-S.
            let base = n as VertexId;
            let batch = if bit(3) { preferential_batch(engine.graph(), 5, 2, knobs >> 8) } else {
                VertexBatch::default()
            };
            engine.graph.add_vertices(batch.len());
            let edges = batch.global_edges(base);
            for &(a, b, w) in &edges {
                engine.graph.add_edge(a, b, w).expect("fresh edge");
            }
            let current = engine.partition.assignment().to_vec();
            let p = procs as PartId;
            let mut target: Vec<PartId> = match shape {
                0 => current.clone(),
                1 => {
                    let mut one = current.clone();
                    one[(knobs >> 16) as usize % n] += 1;
                    one[(knobs >> 16) as usize % n] %= p;
                    one
                }
                2 => vec![(knobs >> 16) as PartId % p; n],
                3 => current.iter().map(|&q| (q + 1) % p).collect(),
                4 => engine.fresh_partition(knobs >> 16).expect("partition").assignment()[..n]
                    .to_vec(),
                _ => (0..n).map(|v| (knobs >> (v % 60)) as PartId % p).collect(),
            };
            target.extend((0..batch.len()).map(|i| (knobs >> (20 + i)) as PartId % p));
            let moved = current.iter().zip(&target).filter(|(was, now)| was != now).count() as u64;
            let target = Partition::new(target, procs).expect("parts in range");

            let before = engine.stats();
            if batch.is_empty() {
                engine.migrate_vertices(&moves_between(&engine.partition, &target)).expect("moves");
            } else {
                engine.adopt(&target, base, edges).expect("adoption");
            }
            prop_assert_eq!(engine.partition(), &target);
            let stats = engine.stats();
            prop_assert_eq!(stats.migrated_rows - before.migrated_rows, moved);
            prop_assert_eq!(stats.migrations - before.migrations, u64::from(moved > 0));
            // Admissible, and no rank keeps a cached row it has no
            // neighbour of — unless nothing moved, which evicts nothing.
            engine.check_admissible();
            for s in engine.cluster.ranks().iter().filter(|_| moved > 0) {
                for v in s.dv().all_ids_sorted().into_iter().filter(|&v| !s.dv().is_local(v)) {
                    let needed = engine.graph.neighbors(v).iter().any(|&(t, _)| s.dv().is_local(t));
                    prop_assert!(needed, "rank {} keeps row {v} for no neighbour", s.rank());
                }
            }

            prop_assert!(engine.run_to_convergence().converged);
            let csr = Csr::from_adj(engine.graph());
            prop_assert_eq!(engine.distances(), aaa_graph::apsp::apsp_dijkstra(&csr));
            let (got, want) = (engine.closeness(), closeness_exact(&csr));
            prop_assert!(
                got.iter().map(|c| c.to_bits()).eq(want.iter().map(|c| c.to_bits())),
                "closeness is not bit-equal to the oracle"
            );
        }
    }

    /// The landmarks are the vertices of highest degree, ties to the
    /// smaller id, and their rows are exact: walked on unit weights,
    /// Dijkstra's otherwise (where a hop count is no walk length).
    #[test]
    fn landmark_rows_are_the_exact_rows_of_the_top_degree_vertices() {
        // A path 0–39 with chords 39–10 and 39–20: degree 3 at 10, 20 and
        // 39, degree 2 at 1–9, 11–19 and 21–38.
        let mut graph = AdjGraph::with_vertices(40);
        for v in 0..39 {
            graph.add_edge(v, v + 1, 1).expect("path edge");
        }
        graph.add_edge(39, 10, 1).expect("chord");
        graph.add_edge(39, 20, 1).expect("chord");
        let mut want: Vec<VertexId> = vec![10, 20, 39];
        want.extend((1..39).filter(|v| ![10, 20].contains(v)).take(LANDMARKS - 3));
        for w in [1, 2] {
            graph.set_weight(0, 1, w).expect("path edge");
            let rows = landmark_rows(&graph);
            assert_eq!(rows.len(), LANDMARKS * 40);
            for (&l, row) in want.iter().zip(rows.chunks_exact(40)) {
                assert_eq!(row, dijkstra(&graph, l), "landmark {l}, weight {w}");
            }
        }
    }

    /// The `dv` section is a deterministic function of the run: the same on
    /// either executor and on 1 or 2 kernel threads, through a cold
    /// convergence whose first rounds fan out, a wave and a removal.
    #[test]
    fn the_dv_section_is_the_same_on_every_executor_and_kernel_thread_count() {
        use aaa_runtime::ExecutionMode;
        let graph = barabasi_albert(600, 3, WeightModel::Unit, 42).expect("generator");
        let batch = preferential_batch(&graph, 20, 2, 7);
        let (u, v, _) = graph.edges().nth(5).expect("an edge");
        let mut sections = Vec::new();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            for threads in [1, 2] {
                let mut config = EngineConfig::deterministic(4);
                config.cluster.mode = mode;
                let mut engine = AnytimeEngine::new(graph.clone(), config).expect("engine");
                engine.cluster.barrier_read_mut(|_, s| s.set_kernel_threads(threads));
                engine.run_to_convergence();
                engine.apply_vertex_additions(&batch, AssignStrategy::RoundRobin).expect("wave");
                engine.remove_edge(u, v).expect("removal");
                engine.run_to_convergence();
                let report = engine.report("dv");
                sections.push(report.section("dv").expect("a dv section").clone());
            }
        }
        assert!(sections[0].get("calls").is_some_and(|calls| calls > 0.0), "{:?}", sections[0]);
        assert!(sections.windows(2).all(|w| w[0] == w[1]), "{sections:#?}");
    }

    /// A supervised run that runs out of steps under endless faults still
    /// answers: degraded, with a bound that covers the exact closeness.
    #[test]
    fn step_budget_exhaustion_also_degrades_gracefully() {
        let g = barabasi_albert(40, 2, WeightModel::Unit, 2).unwrap();
        let mut e = AnytimeEngine::new(g.clone(), EngineConfig::deterministic(4)).unwrap();
        e.set_chaos(ChaosPlan::seeded(3, 0.4, u64::MAX));
        // Generous retry budget: it is the step budget (2, far too few for
        // convergence) that runs out.
        let policy = RetryPolicy { max_attempts: 1_000, ..Default::default() };
        let run = e.drive(Some(&policy), 2).unwrap();
        let report = run.degraded.expect("2 RC steps cannot converge");
        assert_eq!(report.reason, DegradedReason::StepBudgetExhausted);
        assert!(report.certifies(&closeness_exact(&Csr::from_adj(&g))));
    }
}
