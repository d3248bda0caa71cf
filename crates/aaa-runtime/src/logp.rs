//! The LogP / LogGP communication cost model.
//!
//! The paper analyzes its recombination phase in LogP (§IV.C): `L` is the
//! network latency, `o` the per-message processor overhead, `g` the minimum
//! gap between consecutive sends, and `P` the processor count. We extend
//! with the LogGP per-byte gap `G` so large distance-vector payloads cost
//! proportionally to their size — the paper caps message size at `M` bytes
//! for exactly this reason.

/// Cost parameters, in microseconds (and microseconds per byte for `G`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPModel {
    /// Network latency `L` (µs).
    pub latency_us: f64,
    /// Send/receive processor overhead `o` (µs), paid on both ends.
    pub overhead_us: f64,
    /// Gap between consecutive message injections `g` (µs).
    pub gap_us: f64,
    /// Per-byte gap `G` (µs/byte) — the LogGP bandwidth term.
    pub per_byte_us: f64,
}

impl LogPModel {
    /// Parameters resembling the paper's testbed: 1 Gb/s Ethernet
    /// (~125 MB/s ⇒ 0.008 µs/byte) with ~50 µs latency and ~5 µs overhead.
    pub fn ethernet_1g() -> Self {
        Self { latency_us: 50.0, overhead_us: 5.0, gap_us: 10.0, per_byte_us: 0.008 }
    }

    /// A fast interconnect (for ablations): ~1.5 µs latency, 100 Gb/s.
    pub fn fast_interconnect() -> Self {
        Self { latency_us: 1.5, overhead_us: 0.5, gap_us: 0.5, per_byte_us: 0.00008 }
    }

    /// A zero-cost model (correctness-only runs).
    pub fn free() -> Self {
        Self { latency_us: 0.0, overhead_us: 0.0, gap_us: 0.0, per_byte_us: 0.0 }
    }

    /// End-to-end cost of one point-to-point message of `bytes` bytes:
    /// `o + (bytes − 1)·G + L + o`.
    pub fn message_cost_us(&self, bytes: usize) -> f64 {
        let byte_term = if bytes > 0 { (bytes as f64 - 1.0) * self.per_byte_us } else { 0.0 };
        2.0 * self.overhead_us + self.latency_us + byte_term
    }

    /// Cost of a binomial-tree broadcast of `bytes` to `p` ranks:
    /// `ceil(log2 p)` sequential message rounds.
    pub fn broadcast_cost_us(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * self.message_cost_us(bytes)
    }
}

impl Default for LogPModel {
    fn default() -> Self {
        Self::ethernet_1g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_scales_with_size() {
        let m = LogPModel::ethernet_1g();
        let small = m.message_cost_us(100);
        let large = m.message_cost_us(1_000_000);
        assert!(large > small);
        // A 1 MB message on 1 Gb/s is ~8 ms.
        assert!((7_000.0..10_000.0).contains(&large), "{large}");
    }

    #[test]
    fn zero_byte_message_still_pays_latency() {
        let m = LogPModel::ethernet_1g();
        assert!((m.message_cost_us(0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn free_model_is_zero() {
        let m = LogPModel::free();
        assert_eq!(m.message_cost_us(12345), 0.0);
        assert_eq!(m.broadcast_cost_us(16, 1000), 0.0);
    }

    #[test]
    fn broadcast_is_logarithmic() {
        let m = LogPModel::ethernet_1g();
        let c16 = m.broadcast_cost_us(16, 1000);
        let c2 = m.broadcast_cost_us(2, 1000);
        assert!((c16 / c2 - 4.0).abs() < 1e-9); // log2(16) / log2(2)
        assert_eq!(m.broadcast_cost_us(1, 1000), 0.0);
    }
}
