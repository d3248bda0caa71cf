//! When to take a checkpoint. The policy is consulted by the engine's RC
//! loop (and by drive loops in benches/examples) so snapshots always land
//! at superstep barriers, where rank state is globally consistent.

/// Checkpoint cadence: every `n`-th RC step, or only on request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Snapshot after every `n`-th RC step (n ≥ 1).
    EveryNRcSteps(usize),
    /// Only when the caller explicitly asks.
    #[default]
    Manual,
}

impl CheckpointPolicy {
    /// Should a snapshot be taken now, given that `rc_steps_done` RC steps
    /// have completed? Called at the barrier after each RC step.
    pub fn due_after_rc_step(&self, rc_steps_done: usize) -> bool {
        match *self {
            CheckpointPolicy::EveryNRcSteps(n) => n > 0 && rc_steps_done % n == 0,
            CheckpointPolicy::Manual => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_n_fires_on_multiples() {
        let p = CheckpointPolicy::EveryNRcSteps(3);
        assert!(!p.due_after_rc_step(1));
        assert!(!p.due_after_rc_step(2));
        assert!(p.due_after_rc_step(3));
        assert!(p.due_after_rc_step(6));
        // Degenerate n = 0 never fires instead of dividing by zero.
        assert!(!CheckpointPolicy::EveryNRcSteps(0).due_after_rc_step(5));
    }

    #[test]
    fn manual_policy_never_fires() {
        assert!(!CheckpointPolicy::Manual.due_after_rc_step(4));
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::Manual);
    }
}
