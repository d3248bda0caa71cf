//! Seeded message-fault injection (the chaos layer).
//!
//! PR 1's [`crate::FaultPlan`] models the catastrophic failure — a whole
//! rank dies and loses its state. This module models the *messy middle*
//! that real clusters face far more often: individual messages dropped,
//! duplicated, delayed past their barrier, corrupted in flight, and ranks
//! that stall without dying. A [`ChaosPlan`] draws a [`ChannelFault`] for
//! every cross-rank message from a seeded hash of the message's coordinate
//! `(superstep, src, dst, ordinal)`, so a given seed produces the *same*
//! fault sequence on every run and under both execution modes — chaos
//! experiments are exactly reproducible.
//!
//! The algorithmic reason this is survivable at all: the engine's
//! recombination merge is a min-merge on distance rows, which is
//! **idempotent** (duplicates are no-ops) and **commutative** (reorders
//! and delays don't matter), and every row is an upper bound on the fixed
//! point (drops lose progress, never correctness). The supervised loop in
//! `aaa-core` exploits exactly that to retry blindly.

use crate::Rank;

/// The fate a [`ChaosPlan`] assigns to one cross-rank message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFault {
    /// Delivered normally.
    Deliver,
    /// Transmitted but lost in flight: priced, never delivered.
    Drop,
    /// Delivered twice (e.g. a sender-side retransmit racing its ack).
    Duplicate,
    /// Held for `k ≥ 1` supersteps in the delay queue, delivered at the
    /// first exchange at or after `superstep + k`.
    Delay(u64),
    /// Payload garbled in flight; the receiver's checksum rejects it, so
    /// it is priced (plus a NACK) but discarded, and the incident surfaces
    /// as [`crate::ClusterError::MessageCorrupted`].
    Corrupt,
}

/// A seeded, deterministic message-fault schedule.
///
/// Each cross-rank message independently suffers each fault with the
/// configured Bernoulli probability; each rank independently stalls for a
/// superstep with probability [`ChaosPlan::stall_p`]. Faults only fire
/// while `superstep < horizon` — after the horizon the channel is clean,
/// which models *eventual delivery* (the partial-synchrony "global
/// stabilization time"). A finite horizon is what makes bit-identical
/// reconvergence provable; an effectively infinite horizon
/// (`u64::MAX`) exercises the degraded-mode give-up path instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every per-message draw.
    pub seed: u64,
    /// P(message dropped).
    pub drop_p: f64,
    /// P(message duplicated).
    pub dup_p: f64,
    /// P(message delayed).
    pub delay_p: f64,
    /// Delays are drawn uniformly from `1..=max_delay` supersteps.
    pub max_delay: u64,
    /// P(message corrupted).
    pub corrupt_p: f64,
    /// P(a rank stalls for a superstep), per rank per exchange.
    pub stall_p: f64,
    /// Faults fire only at supersteps strictly below this.
    pub horizon: u64,
}

/// SplitMix64's increment; a stream seeded with `s` yields
/// `splitmix64(s)`, `splitmix64(s + GAMMA)`, `splitmix64(s + 2·GAMMA)`, …
pub(crate) const SPLITMIX_GAMMA: u64 = 0x9e3779b97f4a7c15;

/// One SplitMix64 step — the workspace's only generator: every seeded
/// schedule ([`ChaosPlan`], `FaultPlan::seeded`, `NetChaos`, `Backoff`
/// jitter) is a pure function of it.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Hash a chain of values into one u64 (order-sensitive).
#[inline]
pub(crate) fn mix(seed: u64, vals: &[u64]) -> u64 {
    let mut h = splitmix64(seed);
    for &v in vals {
        h = splitmix64(h ^ v);
    }
    h
}

/// Map a u64 to a unit-interval f64 (53 high bits).
#[inline]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The one draw: the index of the first of `probs` whose cumulative
/// probability exceeds `u`, or `None` (deliver) when `u` clears them all.
/// Order is part of every seeded schedule — a plan lists its fault kinds
/// in the order it has always tested them.
pub(crate) fn pick(u: f64, probs: &[f64]) -> Option<usize> {
    let mut edge = 0.0;
    probs.iter().position(|&p| {
        edge += p;
        u < edge
    })
}

/// The one wait: `base · factor^(attempt − 1)` for 1-based `attempt`, the
/// exponent clamped at 16 so no run of failures overflows the schedule.
/// The supervised loop charges it to the simulated clock in µs; `Backoff`
/// caps, jitters and sleeps it in ms.
pub fn backoff(base: f64, factor: f64, attempt: u32) -> f64 {
    base * factor.powi(attempt.saturating_sub(1).min(16) as i32)
}

impl ChaosPlan {
    /// The inert plan: no fault ever fires. Installing it is equivalent to
    /// not installing a plan at all (every fate is `Deliver`).
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay: 0,
            corrupt_p: 0.0,
            stall_p: 0.0,
            horizon: 0,
        }
    }

    /// A balanced plan from a single knob: `rate` is the total per-message
    /// fault probability, split evenly across drop/duplicate/delay/corrupt
    /// (`rate/4` each); ranks stall with probability `rate/4` per exchange;
    /// delays are 1–3 supersteps. Mirrors `FaultPlan::seeded`'s degenerate
    /// guards: a non-positive `rate` or a zero `horizon` yields the inert
    /// plan instead of a plan that fires at a bogus coordinate.
    pub fn seeded(seed: u64, rate: f64, horizon: u64) -> Self {
        if rate.is_nan() || rate <= 0.0 || horizon == 0 {
            return Self::none();
        }
        let q = rate.min(1.0) / 4.0;
        Self {
            seed,
            drop_p: q,
            dup_p: q,
            delay_p: q,
            max_delay: 3,
            corrupt_p: q,
            stall_p: q,
            horizon,
        }
    }

    /// True if no fault can ever fire under this plan.
    pub fn is_none(&self) -> bool {
        self.horizon == 0
            || (self.drop_p <= 0.0
                && self.dup_p <= 0.0
                && self.delay_p <= 0.0
                && self.corrupt_p <= 0.0
                && self.stall_p <= 0.0)
    }

    /// Whether any fault may fire at `superstep`.
    pub fn active_at(&self, superstep: u64) -> bool {
        superstep < self.horizon && !self.is_none()
    }

    /// The fate of the `ordinal`-th cross-rank message routed at
    /// `superstep` from `src` to `dst`. Pure function of the plan and the
    /// coordinate — identical under both execution modes.
    pub fn fate(&self, superstep: u64, src: Rank, dst: Rank, ordinal: u64) -> ChannelFault {
        if !self.active_at(superstep) {
            return ChannelFault::Deliver;
        }
        let draw = |tag: u64| mix(self.seed, &[tag, superstep, src as u64, dst as u64, ordinal]);
        match pick(unit(draw(1)), &[self.drop_p, self.dup_p, self.delay_p, self.corrupt_p]) {
            Some(0) => ChannelFault::Drop,
            Some(1) => ChannelFault::Duplicate,
            Some(2) => ChannelFault::Delay(1 + draw(2) % self.max_delay.max(1)),
            Some(_) => ChannelFault::Corrupt,
            None => ChannelFault::Deliver,
        }
    }

    /// Whether `rank` stalls at `superstep`: its whole outbox is held at
    /// the sender for one superstep and the barrier reports
    /// [`crate::ClusterError::RankStalled`].
    pub fn stalls(&self, superstep: u64, rank: Rank) -> bool {
        self.active_at(superstep)
            && unit(mix(self.seed, &[3, superstep, rank as u64])) < self.stall_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_everywhere() {
        let p = ChaosPlan::none();
        assert!(p.is_none());
        for s in [0, 1, 100] {
            assert!(!p.active_at(s));
            assert_eq!(p.fate(s, 0, 1, 0), ChannelFault::Deliver);
            assert!(!p.stalls(s, 0));
        }
    }

    #[test]
    fn seeded_guards_degenerate_inputs() {
        assert!(ChaosPlan::seeded(7, 0.0, 10).is_none());
        assert!(ChaosPlan::seeded(7, -1.0, 10).is_none());
        assert!(ChaosPlan::seeded(7, f64::NAN, 10).is_none());
        assert!(ChaosPlan::seeded(7, 0.5, 0).is_none());
        assert!(!ChaosPlan::seeded(7, 0.5, 1).is_none());
    }

    #[test]
    fn fate_is_deterministic_and_horizon_bounded() {
        let p = ChaosPlan::seeded(42, 0.8, 5);
        for s in 0..5 {
            for ord in 0..20 {
                assert_eq!(p.fate(s, 1, 2, ord), p.fate(s, 1, 2, ord));
            }
        }
        // Past the horizon everything delivers.
        assert_eq!(p.fate(5, 1, 2, 0), ChannelFault::Deliver);
        assert!(!p.stalls(5, 1));
        // A high rate produces at least one of each fault kind in-horizon.
        let mut seen_drop = false;
        let (mut seen_dup, mut seen_delay, mut seen_corrupt) = (false, false, false);
        for s in 0..5 {
            for src in 0..8 {
                for dst in 0..8 {
                    for ord in 0..16 {
                        match p.fate(s, src, dst, ord) {
                            ChannelFault::Drop => seen_drop = true,
                            ChannelFault::Duplicate => seen_dup = true,
                            ChannelFault::Delay(k) => {
                                assert!((1..=p.max_delay).contains(&k));
                                seen_delay = true;
                            }
                            ChannelFault::Corrupt => seen_corrupt = true,
                            ChannelFault::Deliver => {}
                        }
                    }
                }
            }
        }
        assert!(seen_drop && seen_dup && seen_delay && seen_corrupt);
    }

    #[test]
    fn different_coordinates_decorrelate() {
        let p = ChaosPlan::seeded(1, 0.5, 100);
        let base = p.fate(3, 0, 1, 0);
        let others =
            [p.fate(4, 0, 1, 0), p.fate(3, 1, 0, 0), p.fate(3, 0, 2, 0), p.fate(3, 0, 1, 1)];
        // Not a strict requirement of any single draw, but over a few
        // coordinates at 50% fault rate at least one must differ.
        assert!(others.iter().any(|f| *f != base) || base == ChannelFault::Deliver);
    }

    #[test]
    fn stall_rate_roughly_matches_probability() {
        let p = ChaosPlan::seeded(9, 0.8, 1000); // stall_p = 0.2
        let hits = (0..1000).filter(|&s| p.stalls(s, 3)).count();
        assert!((100..320).contains(&hits), "got {hits} stalls for p=0.2");
    }
}
