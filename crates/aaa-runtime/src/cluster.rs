//! The BSP cluster: P ranks with private state, superstep execution,
//! message routing and cost accounting.

use crate::chaos::{splitmix64, ChannelFault, ChaosPlan, SPLITMIX_GAMMA};
use crate::logp::LogPModel;
use crate::schedule::{all_to_all_cost_us, ExchangeSchedule};
use crate::stats::RunStats;
use crate::Rank;
use aaa_observe::{EventSink, NoopSink, SpanEvent, SpanKind, DRIVER_LANE};
use rayon::prelude::*;
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// How rank computation is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Ranks run one after another — bit-deterministic, used by tests.
    Sequential,
    /// Ranks run concurrently on the rayon pool (the production mode; this
    /// is where the real parallel speedup comes from).
    #[default]
    Parallel,
}

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterConfig {
    pub model: LogPModel,
    pub schedule: ExchangeSchedule,
    pub mode: ExecutionMode,
}

/// A planned rank failure for fault-injection experiments: rank `rank`
/// dies when the cluster reaches superstep `superstep` (counted by
/// [`RunStats::supersteps`]). In BSP semantics the barrier aborts, so the
/// failure surfaces *before* the doomed superstep applies any state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rank that dies.
    pub rank: Rank,
    /// The superstep at whose barrier the failure fires.
    pub superstep: u64,
}

impl FaultPlan {
    /// A fault at an explicit (rank, superstep) coordinate.
    pub fn at(rank: Rank, superstep: u64) -> Self {
        Self { rank, superstep }
    }

    /// A seeded fault: rank and superstep drawn deterministically from
    /// `seed`, with the rank in `0..p` and the superstep in
    /// `1..=max_superstep`. The same seed always kills the same rank at
    /// the same barrier, so failure experiments are reproducible.
    ///
    /// Degenerate inputs (`p == 0` or `max_superstep == 0`) leave no valid
    /// coordinate to sample; they yield [`FaultPlan::inert`] rather than a
    /// plan that fires at a made-up coordinate (or a panic on the empty
    /// sampling range).
    pub fn seeded(seed: u64, p: usize, max_superstep: u64) -> Self {
        if p == 0 || max_superstep == 0 {
            return Self::inert();
        }
        // Draws 1 and 2 of the SplitMix64 stream seeded with `seed`.
        let draw = |k: u64| splitmix64(seed.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(k)));
        let rank = (draw(1) % p as u64) as Rank;
        let superstep = 1 + draw(2) % max_superstep;
        Self { rank, superstep }
    }

    /// A plan that never fires (its barrier is unreachable).
    pub const fn inert() -> Self {
        Self { rank: 0, superstep: u64::MAX }
    }

    /// True if this plan can never fire.
    pub fn is_inert(&self) -> bool {
        self.superstep == u64::MAX
    }
}

/// Typed cluster failures surfaced to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// A rank died at a superstep barrier; its private state is lost.
    RankFailed { rank: Rank, superstep: u64 },
    /// A message failed the receiver's checksum and was discarded; the
    /// payload from `src` never reached `dst`.
    MessageCorrupted { src: Rank, dst: Rank, superstep: u64 },
    /// A rank missed its superstep deadline without dying: its outbox is
    /// held at the sender and flushed one superstep late.
    RankStalled { rank: Rank, superstep: u64 },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::RankFailed { rank, superstep } => {
                write!(f, "rank {rank} failed at superstep {superstep}")
            }
            ClusterError::MessageCorrupted { src, dst, superstep } => {
                write!(f, "message {src}→{dst} corrupted at superstep {superstep}")
            }
            ClusterError::RankStalled { rank, superstep } => {
                write!(f, "rank {rank} stalled at superstep {superstep}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A message parked in the delay queue: either a [`ChannelFault::Delay`]
/// victim or a stalled rank's outbox, delivered at the first exchange of
/// the matching payload type at or after superstep `due`. The payload is
/// type-erased because `exchange` is generic per call.
#[derive(Debug)]
struct DelayedMsg {
    due: u64,
    src: Rank,
    dst: Rank,
    payload: Box<dyn Any + Send>,
}

/// Where a span opens: both clocks and the traffic counters, read by
/// [`Cluster::mark`]. All zeros while no live sink is installed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    comm_us: f64,
    compute_us: f64,
    wall_us: f64,
    messages: u64,
    bytes: u64,
}

/// A fixed set of `P` ranks advanced in BSP supersteps.
///
/// All mutation of rank state flows through [`Cluster::step`],
/// [`Cluster::exchange`], [`Cluster::broadcast`] or [`Cluster::allreduce_or`],
/// which measure compute time and price traffic with the LogP model.
#[derive(Debug)]
pub struct Cluster<S> {
    states: Vec<S>,
    config: ClusterConfig,
    stats: RunStats,
    fault: Option<FaultPlan>,
    chaos: Option<ChaosPlan>,
    delayed: Vec<DelayedMsg>,
    pending_chaos: Vec<ClusterError>,
    /// Span destination. Defaults to [`NoopSink`]; `sink_armed` caches
    /// `sink.enabled()` so the disarmed hot path pays exactly one
    /// predictable branch per instrumentation site and never builds an
    /// event.
    sink: Arc<dyn EventSink>,
    sink_armed: bool,
    /// Wall epoch for `wall_start_us` stamps on recorded spans.
    epoch: Instant,
}

impl<S: Send> Cluster<S> {
    /// Creates a cluster owning one state per rank.
    pub fn new(states: Vec<S>, config: ClusterConfig) -> Self {
        assert!(!states.is_empty(), "cluster needs at least one rank");
        Self {
            states,
            config,
            stats: RunStats::default(),
            fault: None,
            chaos: None,
            delayed: Vec::new(),
            pending_chaos: Vec::new(),
            sink: Arc::new(NoopSink),
            sink_armed: false,
            epoch: Instant::now(),
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn p(&self) -> usize {
        self.states.len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Read-only access to rank states.
    pub fn ranks(&self) -> &[S] {
        &self.states
    }

    /// Runs a read-only closure over every rank state at a barrier and
    /// collects the results in rank order. This is *driver-side* work: it
    /// models the orchestrator inspecting rank memory it already co-hosts
    /// (the same access [`Cluster::ranks`] gives), so — like snapshotting —
    /// it charges **no** supersteps, messages, or simulated time. Use
    /// [`Cluster::step`] instead for anything that represents real cluster
    /// computation or traffic; this hook exists for the publish layer,
    /// which must never perturb the priced metrics the perf gate pins.
    pub fn barrier_read<T>(&self, mut f: impl FnMut(usize, &S) -> T) -> Vec<T> {
        self.states.iter().enumerate().map(|(r, s)| f(r, s)).collect()
    }

    /// Mutable sibling of [`Cluster::barrier_read`], for driver-side
    /// bookkeeping that must drain per-rank tracking state (the publisher
    /// consuming each rank's epoch-dirty set). Identical pricing rules:
    /// **no** supersteps, messages, or simulated time are charged — never
    /// use this for anything that models real cluster computation.
    pub fn barrier_read_mut<T>(&mut self, mut f: impl FnMut(usize, &mut S) -> T) -> Vec<T> {
        self.states.iter_mut().enumerate().map(|(r, s)| f(r, s)).collect()
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable access to rank states, for checkpoint recovery only: the
    /// driver swaps a failed rank's rebuilt state in directly. Work done
    /// through this handle bypasses superstep timing and traffic pricing —
    /// use [`Cluster::step`] for anything that models cluster computation.
    pub fn ranks_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Arms a fault plan; the failure fires at the plan's superstep
    /// barrier via [`Cluster::poll_fault`]. Replaces any armed plan.
    pub fn inject_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The currently armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault
    }

    /// Checks the armed fault plan against the superstep counter. Once the
    /// cluster has reached the planned barrier, the plan is consumed and
    /// [`ClusterError::RankFailed`] is returned; the caller must treat the
    /// failed rank's state as lost *before* running the next superstep.
    /// Called by the engine at every RC-step barrier.
    pub fn poll_fault(&mut self) -> Result<(), ClusterError> {
        if let Some(plan) = self.fault {
            if !plan.is_inert() && self.stats.supersteps >= plan.superstep {
                self.fault = None;
                return Err(ClusterError::RankFailed {
                    rank: plan.rank,
                    superstep: plan.superstep,
                });
            }
        }
        Ok(())
    }

    /// Installs a chaos plan for all subsequent exchanges and broadcasts.
    /// An inert plan ([`ChaosPlan::none`] or equivalent) uninstalls chaos
    /// entirely: every fate is then `Deliver`.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = if plan.is_none() { None } else { Some(plan) };
    }

    /// The installed chaos plan, if any.
    pub fn chaos_plan(&self) -> Option<ChaosPlan> {
        self.chaos
    }

    /// True while the delay queue holds messages that have not been
    /// delivered yet. A quiescent-looking cluster with undelivered traffic
    /// is *not* done — the supervised loop keeps stepping until this
    /// drains.
    pub fn has_undelivered(&self) -> bool {
        !self.delayed.is_empty()
    }

    /// Empties the delay queue, counting every entry in
    /// [`FaultCounters::dropped`](crate::FaultCounters) — the structural
    /// barrier of [`Cluster::exchange`]'s docs. The counter moves
    /// [`FaultCounters::injected`](crate::FaultCounters::injected), so a
    /// supervised run re-announces what was lost before it trusts quiescence.
    pub fn drop_undelivered(&mut self) {
        self.stats.faults.dropped += self.delayed.len() as u64;
        self.delayed.clear();
    }

    /// Surfaces chaos incidents detected at the last barrier (corruptions,
    /// stalls). At most one incident is returned per poll and the rest of
    /// the batch is cleared — the supervised loop reacts once per barrier;
    /// [`RunStats::faults`] keeps the exact totals.
    pub fn poll_chaos(&mut self) -> Result<(), ClusterError> {
        match self.pending_chaos.first().copied() {
            None => Ok(()),
            Some(incident) => {
                self.pending_chaos.clear();
                Err(incident)
            }
        }
    }

    /// Counts rows re-announced by a supervised retry / verification pass.
    pub fn record_retransmits(&mut self, rows: u64) {
        self.stats.faults.retransmits += rows;
    }

    /// Counts one row-migration event (a budgeted rebalance move set or a
    /// full repartition): `rows` DV rows changed owner, `bytes` of
    /// migration traffic (assignment broadcast + row payloads) rode the
    /// priced exchange path. The bytes are already in
    /// [`RunStats::bytes`]; this records the migration-only split so the
    /// perf gate sees migration traffic explicitly.
    pub fn record_migration(&mut self, rows: u64, bytes: u64) {
        self.stats.migrations += 1;
        self.stats.migrated_rows += rows;
        self.stats.migration_bytes += bytes;
    }

    /// Charges simulated communication time directly — the supervised loop
    /// uses this for retry backoff and stall-detection deadlines, which are
    /// real elapsed network time in the modelled cluster.
    pub fn charge_comm_us(&mut self, us: f64) {
        self.stats.sim_comm_us += us;
    }

    /// Counts a checkpoint in the run statistics.
    pub fn record_checkpoint(&mut self) {
        self.stats.checkpoints += 1;
    }

    /// Counts a restore in the run statistics.
    pub fn record_restore(&mut self) {
        self.stats.restores += 1;
    }

    /// Replaces the statistics wholesale — used when a cluster is rebuilt
    /// from a checkpoint, so accounting resumes from the snapshot's
    /// counters instead of zero (and the discarded post-checkpoint work is
    /// *not* double-counted when the phase is retried).
    pub fn restore_stats(&mut self, stats: RunStats) {
        self.stats = stats;
    }

    /// Charges driver-side compute to the simulated clock. Used for work
    /// that conceptually runs on the cluster but is executed once at the
    /// orchestrator (e.g. the repartitioning algorithm, which in the
    /// paper's setup runs as parallel ParMETIS on the same machines).
    pub fn charge_compute_us(&mut self, us: f64) {
        self.stats.sim_compute_us += us;
    }

    /// Installs an event sink. The sink's [`EventSink::enabled`] is probed
    /// once here and cached; installing a disabled sink (e.g. [`NoopSink`])
    /// disarms recording entirely.
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink_armed = sink.enabled();
        self.sink = sink;
    }

    /// A handle to the installed sink (for re-arming a rebuilt cluster
    /// after a checkpoint restore).
    pub fn sink(&self) -> Arc<dyn EventSink> {
        Arc::clone(&self.sink)
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn observing(&self) -> bool {
        self.sink_armed
    }

    /// Records a hand-built span if a live sink is installed — for the one
    /// span measured before the cluster's clocks exist (the engine's domain
    /// decomposition). Everything else goes through [`Cluster::span`].
    #[inline]
    pub fn emit(&self, event: SpanEvent) {
        if self.sink_armed {
            self.sink.record(event);
        }
    }

    /// Opens a span here: the position on both clocks and the traffic
    /// counters. All zeros while the sink is disarmed — one predictable
    /// branch, no clock read.
    #[inline]
    pub fn mark(&self) -> Mark {
        if !self.sink_armed {
            return Mark::default();
        }
        Mark {
            comm_us: self.stats.sim_comm_us,
            compute_us: self.stats.sim_compute_us,
            wall_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            messages: self.stats.messages,
            bytes: self.stats.bytes,
        }
    }

    /// `mark`, restated as an instant at the simulated clock's current
    /// position: for driver work the cluster does not price as a whole (an
    /// ingest drain), whose span keeps its wall duration and has no
    /// simulated one.
    pub fn unpriced(&self, mark: Mark) -> Mark {
        Mark { comm_us: self.stats.sim_comm_us, compute_us: self.stats.sim_compute_us, ..mark }
    }

    /// Closes the span `mark` opened and records it on `lane` (a rank, or
    /// [`DRIVER_LANE`]): it starts where the mark stood and lasts, on each
    /// clock, what that clock advanced since — so an operation priced
    /// between the two calls spans exactly its price, and unpriced driver
    /// work is an instant on the simulated clock with its real cost in
    /// `wall_dur_us`. `step` is the span's `superstep` field; `messages` and
    /// `bytes` are the payload the span reports. No-op while disarmed.
    pub fn span(
        &self,
        kind: SpanKind,
        lane: i64,
        step: u64,
        mark: Mark,
        messages: u64,
        bytes: u64,
    ) {
        if !self.sink_armed {
            return;
        }
        let now = self.mark();
        self.sink.record(SpanEvent {
            kind,
            rank: lane,
            superstep: step,
            sim_start_us: mark.comm_us + mark.compute_us,
            sim_dur_us: (now.comm_us - mark.comm_us) + (now.compute_us - mark.compute_us),
            wall_start_us: mark.wall_us,
            wall_dur_us: now.wall_us - mark.wall_us,
            messages,
            bytes,
        });
    }

    /// [`Cluster::span`] on the driver lane at the current superstep, its
    /// payload the traffic priced since `mark` — the shape of this module's
    /// own exchange and collective spans.
    fn traffic_span(&self, kind: SpanKind, superstep: u64, mark: Mark) {
        let (messages, bytes) =
            (self.stats.messages - mark.messages, self.stats.bytes - mark.bytes);
        self.span(kind, DRIVER_LANE, superstep, mark, messages, bytes);
    }

    fn record_compute(&mut self, per_rank_us: &[f64], started: Instant, wall: std::time::Duration) {
        if self.sink_armed {
            // One Superstep span per rank, all opening at the barrier: the
            // simulated superstep starts every rank together, and each
            // rank's slice lasts its measured time (the laggard's span is
            // the one that advances the simulated clock below).
            let sim_start = self.stats.sim_total_us();
            let wall_start = started.duration_since(self.epoch).as_secs_f64() * 1e6;
            let superstep = self.stats.supersteps;
            for (rank, &us) in per_rank_us.iter().enumerate() {
                self.sink.record(SpanEvent {
                    kind: SpanKind::Superstep,
                    rank: rank as i64,
                    superstep,
                    sim_start_us: sim_start,
                    sim_dur_us: us,
                    wall_start_us: wall_start,
                    wall_dur_us: us,
                    messages: 0,
                    bytes: 0,
                });
            }
        }
        let max = per_rank_us.iter().copied().fold(0.0f64, f64::max);
        self.stats.sim_compute_us += max;
        self.stats.supersteps += 1;
        self.stats.wall += wall;
    }

    /// Runs `f` on every rank (a compute-only superstep); returns the
    /// per-rank results in rank order.
    pub fn step<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Rank, &mut S) -> R + Sync,
    {
        let started = Instant::now();
        let timed = |(rank, state): (usize, &mut S)| {
            let t = Instant::now();
            let out = f(rank, state);
            (t.elapsed().as_secs_f64() * 1e6, out)
        };
        let results: Vec<(f64, R)> = match self.config.mode {
            ExecutionMode::Sequential => self.states.iter_mut().enumerate().map(timed).collect(),
            ExecutionMode::Parallel => self.states.par_iter_mut().enumerate().map(timed).collect(),
        };
        let wall = started.elapsed();
        let (times, outs): (Vec<f64>, Vec<R>) = results.into_iter().unzip();
        self.record_compute(&times, started, wall);
        outs
    }

    /// A full exchange superstep:
    ///
    /// 1. every rank *produces* addressed messages,
    /// 2. traffic is priced under the configured all-to-all schedule,
    /// 3. messages are delivered (in sender order — deterministic),
    /// 4. every rank *consumes* its inbox.
    ///
    /// Self-addressed messages are delivered locally, cost nothing and are
    /// exempt from chaos.
    ///
    /// Routing is one loop, sequential at the driver under both execution
    /// modes. Every cross-rank message takes the [`ChannelFault`] fate the
    /// installed [`ChaosPlan`] draws for `(seed, superstep, src, dst,
    /// ordinal)` — `Deliver` when no plan is armed — so a seeded plan is
    /// exactly reproducible and an unarmed cluster runs the same loop with
    /// zero fault counters. A rank that stalls has its whole outbox held one
    /// superstep; due entries of the delay queue with this exchange's
    /// payload type are appended to the inboxes in queue order.
    ///
    /// Pricing: delivered, dropped and corrupted copies traversed the wire
    /// and are priced at this barrier (a corruption additionally pays a
    /// 1-byte NACK); duplicates are priced twice; delayed and stall-held
    /// messages are priced when they finally traverse.
    ///
    /// **No delayed row crosses a structural barrier.** A queued row is an
    /// upper bound only for the graph, and is addressed only under the
    /// owner map, it was produced under. After a decremental change it may
    /// lie *below* the true distance, and a min-merge would keep it there
    /// for good; after a migration its destination may no longer hold the
    /// vertex, and the queue — which matches payloads by type — would hand
    /// it to the migration's consume as a migrated row. So the engine's
    /// invalidation and migration paths call [`Cluster::drop_undelivered`]
    /// first. Losing a row is always safe (a drop loses progress, never
    /// correctness) and the count moves `faults.injected()`, which makes a
    /// supervised run re-announce it. The migration exchange itself still
    /// runs under the armed plan, which is why the engine's background
    /// rebalancer defers while one is armed.
    ///
    /// # Panics
    /// If a message is addressed to a rank `>= P`.
    pub fn exchange<M, FP, FS, FC>(&mut self, produce: FP, size_of: FS, consume: FC)
    where
        M: Clone + Send + 'static,
        FP: Fn(Rank, &mut S) -> Vec<(Rank, M)> + Sync,
        FS: Fn(&M) -> usize + Sync,
        FC: Fn(Rank, &mut S, Vec<(Rank, M)>) + Sync,
    {
        let p = self.p();
        // The chaos coordinate of this exchange: the superstep count as
        // its barrier opens (captured before the produce step bumps it).
        let superstep = self.stats.supersteps;
        // Phase 1: produce (compute superstep).
        let outboxes: Vec<Vec<(Rank, M)>> = self.step(produce);

        // Phase 2: route and price.
        let mark = self.mark();
        let mut bytes = vec![vec![0usize; p]; p];
        // Prices `copies` traversals of a `sz`-byte message over a link.
        let mut transmit =
            |stats: &mut RunStats, src: Rank, dst: Rank, sz: usize, copies: usize| {
                bytes[src][dst] += copies * sz;
                stats.messages += copies as u64;
                stats.bytes += (copies * sz) as u64;
            };
        // Pre-size each inbox from a counting pass so a fault-free routing
        // loop never reallocates mid-delivery.
        let mut counts = vec![0usize; p];
        for &(dst, _) in outboxes.iter().flatten() {
            if let Some(c) = counts.get_mut(dst) {
                *c += 1;
            }
        }
        let mut inboxes: Vec<Vec<(Rank, M)>> = counts.into_iter().map(Vec::with_capacity).collect();
        let chaos = self.chaos.filter(|c| c.active_at(superstep));
        let mut ordinal = 0u64;
        for (src, outbox) in outboxes.into_iter().enumerate() {
            // A stalled rank's whole outbox misses the barrier and flushes
            // next superstep; local deliveries are unaffected.
            let stalled = !outbox.is_empty() && chaos.is_some_and(|c| c.stalls(superstep, src));
            if stalled {
                self.stats.faults.stalls += 1;
                self.pending_chaos.push(ClusterError::RankStalled { rank: src, superstep });
            }
            for (dst, msg) in outbox {
                assert!(dst < p, "rank {src} addressed message to nonexistent rank {dst}");
                if dst == src {
                    inboxes[dst].push((src, msg));
                    continue;
                }
                if stalled {
                    let payload = Box::new(msg);
                    self.delayed.push(DelayedMsg { due: superstep + 1, src, dst, payload });
                    continue;
                }
                ordinal += 1;
                let fate =
                    chaos.map_or(ChannelFault::Deliver, |c| c.fate(superstep, src, dst, ordinal));
                let sz = size_of(&msg);
                let copies = match fate {
                    ChannelFault::Deliver => {
                        inboxes[dst].push((src, msg));
                        1
                    }
                    ChannelFault::Drop => {
                        // Transmitted and lost: costs bandwidth, delivers
                        // nothing. Safe because DV rows are upper bounds —
                        // a drop loses progress, never correctness.
                        self.stats.faults.dropped += 1;
                        1
                    }
                    ChannelFault::Duplicate => {
                        self.stats.faults.duplicated += 1;
                        inboxes[dst].push((src, msg.clone()));
                        inboxes[dst].push((src, msg));
                        2
                    }
                    ChannelFault::Delay(k) => {
                        self.stats.faults.delayed += 1;
                        let payload = Box::new(msg);
                        self.delayed.push(DelayedMsg { due: superstep + k, src, dst, payload });
                        0
                    }
                    ChannelFault::Corrupt => {
                        // Paid for the garbled copy plus a 1-byte NACK;
                        // the receiver's checksum rejects the payload.
                        self.stats.sim_comm_us += self.config.model.message_cost_us(1);
                        self.stats.faults.corrupted += 1;
                        self.pending_chaos.push(ClusterError::MessageCorrupted {
                            src,
                            dst,
                            superstep,
                        });
                        1
                    }
                };
                transmit(&mut self.stats, src, dst, sz, copies);
            }
        }
        // Deliver due queue entries of this payload type, in queue order
        // (deterministic; consumers min-merge, so order is also
        // semantically irrelevant). They traverse the wire now, so they
        // are priced now.
        for d in std::mem::take(&mut self.delayed) {
            if d.due <= superstep && d.payload.is::<M>() {
                let msg = *d.payload.downcast::<M>().expect("type just checked");
                transmit(&mut self.stats, d.src, d.dst, size_of(&msg), 1);
                inboxes[d.dst].push((d.src, msg));
            } else {
                self.delayed.push(d);
            }
        }
        self.stats.sim_comm_us +=
            all_to_all_cost_us(self.config.schedule, &self.config.model, &bytes);
        // The priced routing phase, on the driver lane; chaos extras (NACKs,
        // retransmissions) are included.
        self.traffic_span(SpanKind::Exchange, superstep, mark);

        // Phase 3: consume (compute superstep).
        let started = Instant::now();
        let timed = |((rank, state), inbox): ((usize, &mut S), Vec<(Rank, M)>)| {
            let t = Instant::now();
            consume(rank, state, inbox);
            t.elapsed().as_secs_f64() * 1e6
        };
        let times: Vec<f64> = match self.config.mode {
            ExecutionMode::Sequential => {
                self.states.iter_mut().enumerate().zip(inboxes).map(timed).collect()
            }
            ExecutionMode::Parallel => {
                self.states.par_iter_mut().enumerate().zip(inboxes).map(timed).collect()
            }
        };
        let wall = started.elapsed();
        self.record_compute(&times, started, wall);
    }

    /// Broadcast from `root`: `produce` builds the payload on the root rank,
    /// then every rank (including the root) consumes a reference to it;
    /// returns what the ranks made of it, in rank order. Priced as a
    /// binomial tree of `size` bytes.
    ///
    /// Collectives are *reliable*: the tree links are acknowledged, so a
    /// chaos plan never loses a broadcast payload — structural updates
    /// (new vertices, partition maps) must reach every rank or the cluster
    /// would diverge unrecoverably. Chaos instead prices the reliability:
    /// dropped or corrupted tree links cost a retransmission, duplicates
    /// cost a redundant copy, delayed links add latency. All are counted
    /// in [`RunStats::faults`].
    pub fn broadcast<M, R, FP, FC>(
        &mut self,
        root: Rank,
        produce: FP,
        size_of: impl Fn(&M) -> usize,
        consume: FC,
    ) -> Vec<R>
    where
        M: Sync + Send,
        R: Send,
        FP: FnOnce(&mut S) -> M,
        FC: Fn(Rank, &mut S, &M) -> R + Sync,
    {
        assert!(root < self.p(), "broadcast root {root} out of range");
        let payload = produce(&mut self.states[root]);
        let sz = size_of(&payload);
        let p = self.p();
        let mark = self.mark();
        self.stats.sim_comm_us += self.config.model.broadcast_cost_us(p, sz);
        self.stats.messages += (p - 1) as u64;
        self.stats.bytes += (sz * (p - 1)) as u64;
        self.stats.collectives += 1;
        let superstep = self.stats.supersteps;
        if let Some(plan) = self.chaos.filter(|c| c.active_at(superstep)) {
            let link_cost = self.config.model.message_cost_us(sz);
            let faults = &mut self.stats.faults;
            for (ordinal, (from, to)) in
                crate::schedule::broadcast_tree(p, root).into_iter().enumerate()
            {
                // What the acknowledged link pays for its fate: extra
                // copies of the payload, and extra time.
                let (copies, wait_us) = match plan.fate(superstep, from, to, ordinal as u64) {
                    ChannelFault::Deliver => continue,
                    ChannelFault::Drop => {
                        // Lost link: one retransmission after a timeout.
                        faults.dropped += 1;
                        faults.retransmits += 1;
                        (1, link_cost)
                    }
                    ChannelFault::Duplicate => {
                        faults.duplicated += 1;
                        (1, link_cost)
                    }
                    ChannelFault::Delay(k) => {
                        // The subtree waits k extra link latencies.
                        faults.delayed += 1;
                        (0, k as f64 * link_cost)
                    }
                    ChannelFault::Corrupt => {
                        // Checksum failure on a tree link: NACK + resend.
                        faults.corrupted += 1;
                        faults.retransmits += 1;
                        (1, link_cost + self.config.model.message_cost_us(1))
                    }
                };
                self.stats.messages += copies;
                self.stats.bytes += copies * sz as u64;
                self.stats.sim_comm_us += wait_us;
            }
        }
        self.traffic_span(SpanKind::Collective, superstep, mark);
        let payload_ref = &payload;
        self.step(move |rank, state| consume(rank, state, payload_ref))
    }

    /// OR-reduction over a per-rank predicate, priced as an all-reduce tree
    /// (up + down: `2·ceil(log2 P)` one-byte messages).
    pub fn allreduce_or<F>(&mut self, f: F) -> bool
    where
        F: Fn(Rank, &S) -> bool + Sync,
    {
        let result = self.states.iter().enumerate().any(|(r, s)| f(r, s));
        let mark = self.mark();
        self.stats.sim_comm_us += 2.0 * self.config.model.broadcast_cost_us(self.p(), 1);
        self.stats.collectives += 1;
        self.traffic_span(SpanKind::Collective, self.stats.supersteps, mark);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(mode: ExecutionMode) -> ClusterConfig {
        ClusterConfig {
            model: LogPModel::ethernet_1g(),
            schedule: ExchangeSchedule::Sequential,
            mode,
        }
    }

    #[test]
    fn step_runs_on_every_rank() {
        let mut c = Cluster::new(vec![0u64; 4], config(ExecutionMode::Sequential));
        let out = c.step(|rank, s| {
            *s = rank as u64 * 10;
            rank
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(c.ranks(), &[0, 10, 20, 30]);
        assert_eq!(c.stats().supersteps, 1);
    }

    #[test]
    fn exchange_routes_messages_in_sender_order() {
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let mut c = Cluster::new(vec![Vec::<(usize, u32)>::new(); 3], config(mode));
            // Every rank sends its id×100 to every other rank.
            c.exchange(
                |rank, _| (0..3).filter(|&d| d != rank).map(|d| (d, (rank * 100) as u32)).collect(),
                |_| 4,
                |_, inbox_store, inbox| {
                    *inbox_store = inbox;
                },
            );
            // Each inbox has two messages, ordered by sender.
            for (rank, inbox) in c.ranks().iter().enumerate() {
                let expected: Vec<(usize, u32)> =
                    (0..3).filter(|&s| s != rank).map(|s| (s, (s * 100) as u32)).collect();
                assert_eq!(inbox, &expected, "mode {mode:?} rank {rank}");
            }
            assert_eq!(c.stats().messages, 6);
            assert_eq!(c.stats().bytes, 24);
            assert!(c.stats().sim_comm_us > 0.0);
        }
    }

    #[test]
    fn self_messages_are_free() {
        let mut c = Cluster::new(vec![0u32; 2], config(ExecutionMode::Sequential));
        c.exchange(|rank, _| vec![(rank, 7u32)], |_| 1000, |_, s, inbox| *s = inbox[0].1);
        assert_eq!(c.ranks(), &[7, 7]);
        assert_eq!(c.stats().messages, 0);
        assert_eq!(c.stats().sim_comm_us, 0.0);
    }

    #[test]
    #[should_panic(expected = "nonexistent rank")]
    fn exchange_panics_on_bad_destination() {
        let mut c = Cluster::new(vec![(); 2], config(ExecutionMode::Sequential));
        c.exchange(|_, _| vec![(9usize, 0u8)], |_| 1, |_, _, _| {});
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut c = Cluster::new(vec![0u32; 5], config(ExecutionMode::Parallel));
        c.broadcast(2, |_| 42u32, |_| 4, |_, s, &m| *s = m);
        assert_eq!(c.ranks(), &[42; 5]);
        assert_eq!(c.stats().messages, 4);
        assert_eq!(c.stats().collectives, 1);
        assert!(c.stats().sim_comm_us > 0.0);
    }

    #[test]
    fn allreduce_or_counts_one_collective_per_call() {
        let mut c = Cluster::new(vec![0u64, 5, 3], config(ExecutionMode::Sequential));
        assert!(!c.allreduce_or(|_, &s| s > 10));
        assert!(c.allreduce_or(|_, &s| s > 4));
        assert_eq!(c.stats().collectives, 2);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let run = |mode| {
            let mut c = Cluster::new(vec![0u64; 8], config(mode));
            for round in 0..3u64 {
                c.exchange(
                    |rank, s| vec![((rank + 1) % 8, *s + rank as u64 + round)],
                    |_| 8,
                    |_, s, inbox| *s += inbox.iter().map(|&(_, m)| m).sum::<u64>(),
                );
            }
            (c.ranks().to_vec(), c.stats().messages, c.stats().bytes)
        };
        assert_eq!(run(ExecutionMode::Sequential), run(ExecutionMode::Parallel));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_cluster_rejected() {
        let _ = Cluster::<u8>::new(vec![], config(ExecutionMode::Sequential));
    }

    #[test]
    fn fault_fires_once_at_planned_barrier() {
        let mut c = Cluster::new(vec![0u8; 3], config(ExecutionMode::Sequential));
        c.inject_fault(FaultPlan::at(1, 2));
        assert!(c.poll_fault().is_ok()); // superstep 0: not yet
        c.step(|_, _| ());
        assert!(c.poll_fault().is_ok()); // superstep 1: not yet
        c.step(|_, _| ());
        assert_eq!(c.poll_fault(), Err(ClusterError::RankFailed { rank: 1, superstep: 2 }));
        // Consumed: polling again is clean.
        assert!(c.poll_fault().is_ok());
        assert_eq!(c.fault_plan(), None);
    }

    #[test]
    fn seeded_fault_is_deterministic_and_in_range() {
        let a = FaultPlan::seeded(7, 4, 10);
        let b = FaultPlan::seeded(7, 4, 10);
        assert_eq!(a, b);
        assert!(a.rank < 4);
        assert!(a.superstep >= 1 && a.superstep <= 10);
        // Different seeds explore different coordinates eventually.
        assert!((0..64).any(|s| FaultPlan::seeded(s, 4, 10) != a));
    }

    #[test]
    fn seeded_fault_degenerate_inputs_are_inert() {
        // p == 0 and max_superstep == 0 leave no coordinate to sample.
        for plan in [FaultPlan::seeded(5, 0, 10), FaultPlan::seeded(5, 4, 0)] {
            assert!(plan.is_inert());
            let mut c = Cluster::new(vec![0u8; 2], config(ExecutionMode::Sequential));
            c.inject_fault(plan);
            for _ in 0..5 {
                c.step(|_, _| ());
                assert!(c.poll_fault().is_ok(), "inert plan must never fire");
            }
        }
        assert!(!FaultPlan::seeded(5, 4, 10).is_inert());
    }

    #[test]
    fn chaos_none_routes_like_no_plan_with_zero_counters() {
        let clean = |plan: Option<ChaosPlan>| {
            let mut c = Cluster::new(vec![0u64; 4], config(ExecutionMode::Sequential));
            if let Some(p) = plan {
                c.set_chaos(p);
            }
            for _ in 0..4 {
                c.exchange(
                    |rank, s| vec![((rank + 1) % 4, *s + rank as u64)],
                    |_| 16,
                    |_, s, inbox| *s += inbox.iter().map(|&(_, m)| m).sum::<u64>(),
                );
            }
            (c.ranks().to_vec(), *c.stats())
        };
        let (base_states, base_stats) = clean(None);
        let (none_states, none_stats) = clean(Some(ChaosPlan::none()));
        assert_eq!(base_states, none_states);
        // All deterministic accounting must be indistinguishable (compute
        // time and wall are measured clocks and jitter run-to-run).
        assert_eq!(base_stats.messages, none_stats.messages);
        assert_eq!(base_stats.bytes, none_stats.bytes);
        assert_eq!(base_stats.sim_comm_us, none_stats.sim_comm_us);
        assert_eq!(base_stats.supersteps, none_stats.supersteps);
        assert_eq!(none_stats.faults, crate::stats::FaultCounters::default());
    }

    #[test]
    fn chaos_drop_loses_payload_but_prices_it() {
        // A plan that always drops: drop_p = 1.
        let plan = ChaosPlan { drop_p: 1.0, horizon: u64::MAX, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![0u32; 2], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        c.exchange(
            |rank, _| vec![(1 - rank, 7u32)],
            |_| 10,
            |_, s, inbox| {
                *s = inbox.len() as u32;
            },
        );
        assert_eq!(c.ranks(), &[0, 0], "both messages dropped");
        assert_eq!(c.stats().faults.dropped, 2);
        assert_eq!(c.stats().messages, 2, "dropped traffic still transmitted");
        assert_eq!(c.stats().bytes, 20);
        assert!(c.poll_chaos().is_ok(), "drops are silent (no incident)");
    }

    #[test]
    fn chaos_duplicate_delivers_twice() {
        let plan = ChaosPlan { dup_p: 1.0, horizon: u64::MAX, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![0u32; 2], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        c.exchange(
            |rank, _| vec![(1 - rank, 7u32)],
            |_| 10,
            |_, s, inbox| {
                *s = inbox.len() as u32;
            },
        );
        assert_eq!(c.ranks(), &[2, 2], "each inbox holds the duplicate");
        assert_eq!(c.stats().faults.duplicated, 2);
        assert_eq!(c.stats().messages, 4);
        assert_eq!(c.stats().bytes, 40);
    }

    #[test]
    fn chaos_delay_defers_across_exchanges() {
        let plan = ChaosPlan { delay_p: 1.0, max_delay: 1, horizon: 1, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![Vec::<u32>::new(); 2], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        let send_round = |c: &mut Cluster<Vec<u32>>, val: u32| {
            c.exchange(
                move |rank, _| if rank == 0 && val != 0 { vec![(1usize, val)] } else { vec![] },
                |_| 4,
                |_, s, inbox| s.extend(inbox.into_iter().map(|(_, m)| m)),
            );
        };
        // Superstep 0 (in-horizon): message delayed by 1.
        send_round(&mut c, 42);
        assert!(c.ranks()[1].is_empty(), "delayed past its barrier");
        assert!(c.has_undelivered());
        assert_eq!(c.stats().faults.delayed, 1);
        // Next exchange (superstep ≥ due, past horizon): it arrives.
        send_round(&mut c, 0);
        assert_eq!(c.ranks()[1], vec![42]);
        assert!(!c.has_undelivered());
        assert_eq!(c.stats().messages, 1, "priced once, when it traverses");
    }

    #[test]
    fn a_structural_barrier_drops_the_delay_queue_and_counts_it() {
        let plan = ChaosPlan { delay_p: 1.0, max_delay: 3, horizon: 1, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![Vec::<u32>::new(); 3], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        let round = |c: &mut Cluster<Vec<u32>>| {
            c.exchange(
                |rank, _| (0..3).filter(|&d| d != rank).map(|d| (d, rank as u32)).collect(),
                |_| 4,
                |_, s, inbox| s.extend(inbox.into_iter().map(|(_, m)| m)),
            );
        };
        round(&mut c);
        assert!(c.has_undelivered());
        assert_eq!((c.stats().faults.delayed, c.stats().faults.dropped), (6, 0));
        let injected = c.stats().faults.injected();
        c.drop_undelivered();
        assert!(!c.has_undelivered());
        assert_eq!(c.stats().faults.dropped, 6);
        assert_eq!(c.stats().faults.injected(), injected + 6, "a supervised run must notice");
        assert_eq!(c.stats().messages, 0, "a dropped entry never traversed: not priced");
        // Past the horizon only the new round's messages arrive.
        round(&mut c);
        for (rank, got) in c.ranks().iter().enumerate() {
            let want: Vec<u32> = (0..3).filter(|&s| s != rank as u32).collect();
            assert_eq!(got, &want, "rank {rank}");
        }
        c.drop_undelivered();
        assert_eq!(c.stats().faults.dropped, 6, "an empty queue drops nothing");
    }

    #[test]
    fn chaos_corrupt_discards_and_surfaces_incident() {
        let plan = ChaosPlan { corrupt_p: 1.0, horizon: u64::MAX, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![0u32; 2], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        c.exchange(
            |rank, _| if rank == 0 { vec![(1usize, 9u32)] } else { vec![] },
            |_| 6,
            |_, s, inbox| {
                *s = inbox.len() as u32;
            },
        );
        assert_eq!(c.ranks()[1], 0, "checksum rejected the payload");
        assert_eq!(c.stats().faults.corrupted, 1);
        let err = c.poll_chaos().unwrap_err();
        assert!(matches!(err, ClusterError::MessageCorrupted { src: 0, dst: 1, .. }));
        assert!(c.poll_chaos().is_ok(), "incident batch cleared after poll");
    }

    #[test]
    fn chaos_stall_holds_whole_outbox_one_superstep() {
        let plan = ChaosPlan { stall_p: 1.0, horizon: 1, ..ChaosPlan::none() };
        let mut c = Cluster::new(vec![Vec::<u32>::new(); 3], config(ExecutionMode::Sequential));
        c.set_chaos(plan);
        c.exchange(
            |rank, _| if rank == 0 { vec![(1usize, 1u32), (2usize, 2u32)] } else { vec![] },
            |_| 4,
            |_, s, inbox| s.extend(inbox.into_iter().map(|(_, m)| m)),
        );
        assert!(c.ranks()[1].is_empty() && c.ranks()[2].is_empty());
        assert_eq!(c.stats().faults.stalls, 1, "one stall event, not per message");
        assert!(matches!(c.poll_chaos().unwrap_err(), ClusterError::RankStalled { rank: 0, .. }));
        // The held outbox flushes at the next exchange (past the horizon).
        c.exchange(
            |_, _| vec![],
            |_: &u32| 4,
            |_, s: &mut Vec<u32>, inbox| s.extend(inbox.into_iter().map(|(_, m)| m)),
        );
        assert_eq!(c.ranks()[1], vec![1]);
        assert_eq!(c.ranks()[2], vec![2]);
    }

    #[test]
    fn chaos_is_deterministic_across_modes() {
        let run = |mode| {
            let mut c = Cluster::new(vec![0u64; 8], config(mode));
            c.set_chaos(ChaosPlan::seeded(99, 0.6, 12));
            for round in 0..8u64 {
                c.exchange(
                    |rank, s| {
                        (0..8)
                            .filter(|&d| d != rank)
                            .map(|d| (d, *s + rank as u64 + round))
                            .collect()
                    },
                    |_| 8,
                    |_, s, inbox| *s += inbox.iter().map(|&(_, m)| m).sum::<u64>(),
                );
                let _ = c.poll_chaos(); // drain incidents identically
            }
            let stats = c.stats();
            (c.ranks().to_vec(), stats.messages, stats.bytes, stats.faults)
        };
        let seq = run(ExecutionMode::Sequential);
        let par = run(ExecutionMode::Parallel);
        assert_eq!(seq, par);
        assert!(seq.3.injected() > 0, "a 60% plan over 8 rounds must inject something");
    }

    #[test]
    fn chaotic_broadcast_still_reaches_everyone() {
        let mut c = Cluster::new(vec![0u32; 8], config(ExecutionMode::Sequential));
        c.set_chaos(ChaosPlan::seeded(3, 0.9, u64::MAX));
        let clean_cost = {
            let mut r = Cluster::new(vec![0u32; 8], config(ExecutionMode::Sequential));
            r.broadcast(0, |_| 42u32, |_| 1000, |_, s, &m| *s = m);
            r.stats().sim_comm_us
        };
        c.broadcast(0, |_| 42u32, |_| 1000, |_, s, &m| *s = m);
        assert_eq!(c.ranks(), &[42; 8], "collectives are reliable under chaos");
        if c.stats().faults.injected() > 0 {
            assert!(c.stats().sim_comm_us > clean_cost, "faults must price retransmissions");
        }
        assert!(c.poll_chaos().is_ok(), "collectives absorb their faults internally");
    }

    #[test]
    fn armed_sink_records_spans_without_perturbing_stats() {
        use aaa_observe::{MemorySink, SpanKind};
        let run = |armed: bool| {
            let mut c = Cluster::new(vec![0u64; 4], config(ExecutionMode::Sequential));
            let sink = std::sync::Arc::new(MemorySink::new());
            if armed {
                c.set_sink(sink.clone());
                assert!(c.observing());
            } else {
                assert!(!c.observing(), "NoopSink default is disarmed");
            }
            for _ in 0..3 {
                c.exchange(
                    |rank, s| vec![((rank + 1) % 4, *s + rank as u64)],
                    |_| 16,
                    |_, s, inbox| *s += inbox.iter().map(|&(_, m)| m).sum::<u64>(),
                );
            }
            c.broadcast(0, |_| 1u8, |_| 1, |_, _, _| {});
            c.allreduce_or(|_, &s| s > 0);
            (*c.stats(), sink.drain())
        };
        let (armed_stats, events) = run(true);
        let (disarmed_stats, no_events) = run(false);

        assert!(no_events.is_empty(), "disarmed cluster records nothing");
        // Deterministic accounting must be identical armed vs disarmed.
        assert_eq!(armed_stats.messages, disarmed_stats.messages);
        assert_eq!(armed_stats.bytes, disarmed_stats.bytes);
        assert_eq!(armed_stats.sim_comm_us, disarmed_stats.sim_comm_us);
        assert_eq!(armed_stats.supersteps, disarmed_stats.supersteps);

        let count = |k| events.iter().filter(|e| e.kind == k).count();
        // 3 exchanges × 2 compute phases × 4 ranks + 1 broadcast-consume × 4.
        assert_eq!(count(SpanKind::Superstep), 28);
        assert_eq!(count(SpanKind::Exchange), 3);
        assert_eq!(count(SpanKind::Collective), 2);
        let exch = events.iter().find(|e| e.kind == SpanKind::Exchange).unwrap();
        assert_eq!(exch.rank, DRIVER_LANE);
        assert_eq!(exch.messages, 4);
        assert_eq!(exch.bytes, 64);
        assert!(exch.sim_dur_us > 0.0);
        // Spans cover the whole simulated comm time.
        let comm: f64 = events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Exchange | SpanKind::Collective))
            .map(|e| e.sim_dur_us)
            .sum();
        assert!((comm - armed_stats.sim_comm_us).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_restore_counters_and_stats_restore() {
        let mut c = Cluster::new(vec![(); 2], config(ExecutionMode::Sequential));
        c.step(|_, _| ());
        c.record_checkpoint();
        let snap = *c.stats();
        c.step(|_, _| ());
        c.restore_stats(snap);
        c.record_restore();
        assert_eq!(c.stats().supersteps, 1); // post-checkpoint step discarded
        assert_eq!(c.stats().checkpoints, 1);
        assert_eq!(c.stats().restores, 1);
    }
}
