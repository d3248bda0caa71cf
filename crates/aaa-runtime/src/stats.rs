//! Run statistics: traffic counters and the two clocks (wall, simulated).

use std::time::Duration;

pub use aaa_observe::FaultCounters;
use aaa_observe::{RunReport, Section};

fn merge_faults(into: &mut FaultCounters, other: &FaultCounters) {
    into.dropped += other.dropped;
    into.duplicated += other.duplicated;
    into.delayed += other.delayed;
    into.corrupted += other.corrupted;
    into.stalls += other.stalls;
    into.retransmits += other.retransmits;
}

fn faults_since(now: &FaultCounters, baseline: &FaultCounters) -> FaultCounters {
    FaultCounters {
        dropped: now.dropped.saturating_sub(baseline.dropped),
        duplicated: now.duplicated.saturating_sub(baseline.duplicated),
        delayed: now.delayed.saturating_sub(baseline.delayed),
        corrupted: now.corrupted.saturating_sub(baseline.corrupted),
        stalls: now.stalls.saturating_sub(baseline.stalls),
        retransmits: now.retransmits.saturating_sub(baseline.retransmits),
    }
}

/// Accumulated statistics for a cluster run.
///
/// * `wall` is real elapsed time of the in-process execution.
/// * `sim_comm_us` is what the same traffic would cost on the modelled
///   network (LogP-priced); `sim_compute_us` is the per-superstep maximum
///   rank compute time, summed — together they approximate the runtime the
///   paper measures on its cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Point-to-point messages routed.
    pub messages: u64,
    /// Total payload bytes routed.
    pub bytes: u64,
    /// Simulated communication time (µs).
    pub sim_comm_us: f64,
    /// Simulated compute time: Σ over supersteps of max rank time (µs).
    pub sim_compute_us: f64,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Collective operations (broadcasts, reductions) executed.
    pub collectives: u64,
    /// Checkpoints taken (snapshots of full engine state).
    pub checkpoints: u64,
    /// Restores performed (engine rebuilt or a rank recovered from a
    /// checkpoint).
    pub restores: u64,
    /// Row-migration events (budgeted rebalance moves or full
    /// repartitions); every one rides the LogP-priced exchange path.
    pub migrations: u64,
    /// DV rows shipped to a new owner across all migration events.
    pub migrated_rows: u64,
    /// Bytes of migration traffic (assignment broadcasts + row payloads),
    /// already included in `bytes` — this is the migration-only split.
    pub migration_bytes: u64,
    /// Chaos-layer fault counters; all zero unless a `ChaosPlan` is armed.
    pub faults: FaultCounters,
    /// Real elapsed time of rank computation.
    pub wall: Duration,
}

impl RunStats {
    /// Total simulated time (µs): compute + communication.
    pub fn sim_total_us(&self) -> f64 {
        self.sim_comm_us + self.sim_compute_us
    }

    /// Total simulated time in seconds.
    pub fn sim_total_secs(&self) -> f64 {
        self.sim_total_us() / 1e6
    }

    /// Merges another stats block into this one.
    ///
    /// `other` must be a **delta** (stats of one phase measured in
    /// isolation), never a cumulative counter that shares history with
    /// `self` — merging two cumulative blocks double-counts everything, in
    /// particular `wall`. When a phase is retried after a checkpoint
    /// restore, compute the retried phase's contribution with
    /// [`RunStats::delta_since`] against the restore point before merging.
    pub fn merge(&mut self, other: &RunStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.sim_comm_us += other.sim_comm_us;
        self.sim_compute_us += other.sim_compute_us;
        self.supersteps += other.supersteps;
        self.collectives += other.collectives;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.migrations += other.migrations;
        self.migrated_rows += other.migrated_rows;
        self.migration_bytes += other.migration_bytes;
        merge_faults(&mut self.faults, &other.faults);
        self.wall += other.wall;
    }

    /// Seeds a [`RunReport`] with this block's counters and clocks, and
    /// states the runtime's own section, `migration`. The caller fills in
    /// the scenario parameters and the sink-derived parts (phases, ranks,
    /// quality); layers above push their sections
    /// (`AnytimeEngine::report` is the usual entry point).
    pub fn init_report(&self, scenario: &str) -> RunReport {
        RunReport {
            scenario: scenario.to_string(),
            messages: self.messages,
            bytes: self.bytes,
            supersteps: self.supersteps,
            collectives: self.collectives,
            checkpoints: self.checkpoints,
            restores: self.restores,
            sim_comm_us: self.sim_comm_us,
            sim_compute_us: self.sim_compute_us,
            wall_us: self.wall.as_secs_f64() * 1e6,
            faults: self.faults,
            sections: vec![Section::new(
                "migration",
                &[
                    ("migrations", self.migrations as f64),
                    ("migrated_rows", self.migrated_rows as f64),
                    ("migration_bytes", self.migration_bytes as f64),
                ],
            )],
            ..RunReport::default()
        }
    }

    /// The per-phase delta between this (cumulative) block and an earlier
    /// `baseline` of the same run: what happened strictly after the
    /// baseline was captured. Saturating, so a baseline from a discarded
    /// timeline (e.g. captured after the checkpoint this run was restored
    /// from) yields zeros rather than underflowing.
    pub fn delta_since(&self, baseline: &RunStats) -> RunStats {
        RunStats {
            messages: self.messages.saturating_sub(baseline.messages),
            bytes: self.bytes.saturating_sub(baseline.bytes),
            sim_comm_us: (self.sim_comm_us - baseline.sim_comm_us).max(0.0),
            sim_compute_us: (self.sim_compute_us - baseline.sim_compute_us).max(0.0),
            supersteps: self.supersteps.saturating_sub(baseline.supersteps),
            collectives: self.collectives.saturating_sub(baseline.collectives),
            checkpoints: self.checkpoints.saturating_sub(baseline.checkpoints),
            restores: self.restores.saturating_sub(baseline.restores),
            migrations: self.migrations.saturating_sub(baseline.migrations),
            migrated_rows: self.migrated_rows.saturating_sub(baseline.migrated_rows),
            migration_bytes: self.migration_bytes.saturating_sub(baseline.migration_bytes),
            faults: faults_since(&self.faults, &baseline.faults),
            wall: self.wall.saturating_sub(baseline.wall),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = RunStats {
            sim_comm_us: 10.0,
            sim_compute_us: 5.0,
            messages: 2,
            bytes: 100,
            supersteps: 1,
            wall: Duration::from_millis(3),
            ..RunStats::default()
        };
        let b = RunStats {
            sim_comm_us: 1.0,
            sim_compute_us: 2.0,
            messages: 1,
            bytes: 50,
            supersteps: 2,
            collectives: 1,
            checkpoints: 1,
            restores: 1,
            migrations: 1,
            migrated_rows: 7,
            migration_bytes: 40,
            faults: FaultCounters { dropped: 2, retransmits: 5, ..FaultCounters::default() },
            wall: Duration::from_millis(4),
        };
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.supersteps, 3);
        assert_eq!(a.collectives, 1);
        assert_eq!(a.checkpoints, 1);
        assert_eq!(a.restores, 1);
        assert_eq!(a.migrations, 1);
        assert_eq!(a.migrated_rows, 7);
        assert_eq!(a.migration_bytes, 40);
        assert_eq!(a.faults.dropped, 2);
        assert_eq!(a.faults.retransmits, 5);
        assert_eq!(a.faults.injected(), 2);
        assert!((a.sim_total_us() - 18.0).abs() < 1e-12);
        assert!((a.sim_total_secs() - 18.0e-6).abs() < 1e-15);
        assert_eq!(a.wall, Duration::from_millis(7));
    }

    #[test]
    fn delta_since_yields_phase_contribution() {
        let at_checkpoint = RunStats {
            messages: 10,
            bytes: 1_000,
            sim_comm_us: 5.0,
            sim_compute_us: 7.0,
            supersteps: 4,
            collectives: 2,
            checkpoints: 1,
            restores: 0,
            migrations: 1,
            migrated_rows: 4,
            migration_bytes: 100,
            faults: FaultCounters { corrupted: 1, ..FaultCounters::default() },
            wall: Duration::from_millis(10),
        };
        let mut at_end = at_checkpoint;
        at_end.merge(&RunStats {
            messages: 3,
            bytes: 300,
            sim_comm_us: 1.0,
            sim_compute_us: 2.0,
            supersteps: 2,
            collectives: 1,
            checkpoints: 0,
            restores: 1,
            migrations: 1,
            migrated_rows: 2,
            migration_bytes: 50,
            faults: FaultCounters { dropped: 4, ..FaultCounters::default() },
            wall: Duration::from_millis(5),
        });
        let delta = at_end.delta_since(&at_checkpoint);
        assert_eq!(delta.messages, 3);
        assert_eq!(delta.supersteps, 2);
        assert_eq!(delta.restores, 1);
        assert_eq!(delta.migrations, 1);
        assert_eq!(delta.migrated_rows, 2);
        assert_eq!(delta.migration_bytes, 50);
        assert_eq!(delta.faults, FaultCounters { dropped: 4, ..FaultCounters::default() });
        assert_eq!(delta.wall, Duration::from_millis(5));
        // Re-merging the delta onto the baseline reproduces the end state
        // exactly — the accounting identity that rules out double-counting.
        let mut rebuilt = at_checkpoint;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, at_end);
        // A baseline from a discarded (post-checkpoint, pre-failure)
        // timeline saturates to zero instead of underflowing.
        let stale = RunStats { wall: Duration::from_secs(100), messages: 999, ..at_checkpoint };
        let d = at_end.delta_since(&stale);
        assert_eq!(d.wall, Duration::ZERO);
        assert_eq!(d.messages, 0);
    }

    #[test]
    fn default_is_zero() {
        let s = RunStats::default();
        assert_eq!(s.sim_total_us(), 0.0);
        assert_eq!(s.messages, 0);
    }
}
