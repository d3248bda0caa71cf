//! Incremental background repartitioning.
//!
//! The paper treats Repartition-S as a stop-the-world event triggered by a
//! vertex batch. The rebalancer here turns the PS/RS pair into *runtime
//! policies* evaluated continuously at RC-step barriers: it reads per-part
//! load and edge-cut signals, and when the configured skew threshold is
//! crossed it either plans a small budgeted set of boundary-vertex
//! migrations (the PS-flavoured move, xDGP/SDP style) or escalates to a
//! full repartition (the RS-flavoured move). Either way what a driver
//! executes is a move list ([`Rebalancer::moves`]): a fresh partition is
//! the list of vertices it assigns elsewhere ([`moves_between`]) — long,
//! not a different operation. Because the DV fixed point is
//! the exact distance matrix — independent of which rank owns which row —
//! any plan this module produces preserves bit-identical converged
//! answers; only *where* the work happens changes.
//!
//! The planner itself is a pure function of the graph, the partition and a
//! [`LoadSignals`] snapshot, so runs that feed it deterministic structural
//! signals (the default) are exactly reproducible and safe to perf-gate.
//! Measured per-rank busy-time skew from the observability layer can be
//! attached and opted into via [`RebalanceConfig::use_measured`] for
//! deployments that want wall-clock-driven decisions.

use crate::quality::{per_part_cut, vertex_balance};
use crate::{MultilevelPartitioner, Partition, PartitionError, Partitioner};
use aaa_graph::{GraphStore, PartId, VertexId};

/// Which rebalancing strategy runs at RC-step barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalancePolicy {
    /// Never rebalance (the paper's baseline: the initial decomposition is
    /// kept for the lifetime of the run).
    #[default]
    Static,
    /// Partial strategy: migrate up to a budget of boundary vertices from
    /// overloaded parts whenever skew exceeds the trigger.
    Ps,
    /// Repartition strategy: full multilevel repartition, migrating every
    /// vertex it assigns elsewhere, whenever skew exceeds the trigger.
    Rs,
    /// Budgeted migrations while skew is moderate; escalate to a full
    /// repartition once it passes [`RebalanceConfig::rs_trigger`].
    Adaptive,
}

impl std::str::FromStr for RebalancePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "static" => Ok(RebalancePolicy::Static),
            "ps" => Ok(RebalancePolicy::Ps),
            "rs" => Ok(RebalancePolicy::Rs),
            "adaptive" => Ok(RebalancePolicy::Adaptive),
            other => Err(format!("rebalance policy wants static|ps|rs|adaptive, got {other}")),
        }
    }
}

/// Tuning knobs for the background rebalancer. The default is
/// [`RebalancePolicy::Static`], i.e. fully disabled — engines behave
/// exactly as before unless a policy is opted into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Strategy selector.
    pub policy: RebalancePolicy,
    /// Evaluate the planner every `every` RC-step barriers.
    pub every: usize,
    /// Maximum vertices migrated per planning event (PS moves).
    pub budget: usize,
    /// Skew (max part load / ideal part load) above which the policy acts.
    pub trigger: f64,
    /// Skew above which [`RebalancePolicy::Adaptive`] escalates from
    /// budgeted migration to a full repartition.
    pub rs_trigger: f64,
    /// Seed for the multilevel partitioner on RS escalations.
    pub seed: u64,
    /// Decide on measured busy-time skew (when provided) instead of the
    /// structural vertex balance. Measured skew is wall-clock-derived and
    /// therefore nondeterministic; pinned scenarios keep this off.
    pub use_measured: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            policy: RebalancePolicy::Static,
            every: 4,
            budget: 16,
            trigger: 1.15,
            rs_trigger: 1.60,
            seed: 0,
            use_measured: false,
        }
    }
}

impl RebalanceConfig {
    /// A config running `policy` with the default knobs.
    pub fn with_policy(policy: RebalancePolicy) -> Self {
        Self { policy, ..Self::default() }
    }

    /// True when any rebalancing can happen at all.
    pub fn enabled(&self) -> bool {
        self.policy != RebalancePolicy::Static
    }

    /// True when the planner should run at RC-step barrier `rc_step`.
    pub fn due_at(&self, rc_step: usize) -> bool {
        self.enabled() && rc_step > 0 && rc_step % self.every.max(1) == 0
    }
}

/// A snapshot of the load/cut signals the planner decides on. The
/// structural fields are exact functions of the graph and partition;
/// `measured_skew` optionally carries the observability layer's busy-time
/// ratio (see `aaa_observe`'s per-rank span data).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSignals {
    /// Vertices per part.
    pub part_sizes: Vec<usize>,
    /// Cut edges incident to each part.
    pub per_part_cut: Vec<usize>,
    /// Structural skew: max part size / ⌈n/k⌉ (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Max/mean per-rank busy time from recorded spans, if available.
    pub measured_skew: Option<f64>,
}

impl LoadSignals {
    /// Computes the structural signals for `(g, p)`.
    pub fn measure<G: GraphStore>(g: &G, p: &Partition) -> Self {
        Self {
            part_sizes: p.part_sizes(),
            per_part_cut: per_part_cut(g, p),
            imbalance: vertex_balance(p),
            measured_skew: None,
        }
    }

    /// Attaches a measured busy-time skew (max/mean over ranks).
    pub fn with_measured_skew(mut self, skew: Option<f64>) -> Self {
        self.measured_skew = skew;
        self
    }

    /// The skew the policy decides on: measured when asked for *and*
    /// available, structural otherwise.
    pub fn skew(&self, use_measured: bool) -> f64 {
        match (use_measured, self.measured_skew) {
            (true, Some(s)) => s,
            _ => self.imbalance,
        }
    }
}

/// What the planner decided at one barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalancePlan {
    /// Skew is within tolerance (or the policy is static): do nothing.
    Hold,
    /// Migrate each `(vertex, destination part)` in the list. Non-empty,
    /// at most [`RebalanceConfig::budget`] entries, every move strictly
    /// improves the donor/recipient balance.
    Migrate(Vec<(VertexId, PartId)>),
    /// Skew is beyond repair-by-budget: migrate to a fresh partition.
    Repartition,
}

/// The moves that take `current` to `target`: every vertex of `current`
/// that `target` — which may cover more vertices, as a partition of a
/// grown graph does — assigns to another part, in vertex order.
pub fn moves_between(current: &Partition, target: &Partition) -> Vec<(VertexId, PartId)> {
    let parts = current.assignment().iter().zip(target.assignment()).enumerate();
    parts.filter(|(_, (was, now))| was != now).map(|(v, (_, &now))| (v as VertexId, now)).collect()
}

/// The background rebalancer: a pure planner over load/cut signals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalancer {
    config: RebalanceConfig,
}

impl Rebalancer {
    /// A rebalancer with the given knobs.
    pub fn new(config: RebalanceConfig) -> Self {
        Self { config }
    }

    /// The knobs in effect.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Plans what (if anything) to do given the current signals. Pure and
    /// deterministic: the same `(g, p, signals)` always yields the same
    /// plan.
    pub fn plan<G: GraphStore>(
        &self,
        g: &G,
        p: &Partition,
        signals: &LoadSignals,
    ) -> RebalancePlan {
        let cfg = &self.config;
        let skew = signals.skew(cfg.use_measured);
        match cfg.policy {
            RebalancePolicy::Static => RebalancePlan::Hold,
            RebalancePolicy::Rs => {
                if skew > cfg.trigger {
                    RebalancePlan::Repartition
                } else {
                    RebalancePlan::Hold
                }
            }
            RebalancePolicy::Ps => {
                if skew > cfg.trigger {
                    self.plan_moves(g, p, signals)
                } else {
                    RebalancePlan::Hold
                }
            }
            RebalancePolicy::Adaptive => {
                if skew > cfg.rs_trigger {
                    RebalancePlan::Repartition
                } else if skew > cfg.trigger {
                    self.plan_moves(g, p, signals)
                } else {
                    RebalancePlan::Hold
                }
            }
        }
    }

    /// [`Rebalancer::plan`] as what every driver executes, a move list:
    /// empty to hold, the budgeted moves, or for a repartition the moves to
    /// a fresh multilevel partition under [`RebalanceConfig::seed`] — whose
    /// labels are arbitrary, so most vertices move.
    pub fn moves<G: GraphStore>(
        &self,
        g: &G,
        p: &Partition,
        signals: &LoadSignals,
    ) -> Result<Vec<(VertexId, PartId)>, PartitionError> {
        match self.plan(g, p, signals) {
            RebalancePlan::Hold => Ok(Vec::new()),
            RebalancePlan::Migrate(moves) => Ok(moves),
            RebalancePlan::Repartition => {
                let fresh = MultilevelPartitioner::seeded(self.config.seed).partition(g, p.k())?;
                Ok(moves_between(p, &fresh))
            }
        }
    }

    /// Greedy budgeted move selection: walk overloaded parts hottest
    /// first; inside each, score every member by the cut gain of moving it
    /// to its best eligible recipient (most neighbors, and strictly less
    /// loaded than the donor after the move). Boundary vertices whose
    /// neighborhoods already live elsewhere score highest, so they migrate
    /// first — interior vertices only move as a pure balance repair when
    /// nothing better is left.
    fn plan_moves<G: GraphStore>(
        &self,
        g: &G,
        p: &Partition,
        signals: &LoadSignals,
    ) -> RebalancePlan {
        let k = p.k();
        let n = p.len();
        if k < 2 || n == 0 {
            return RebalancePlan::Hold;
        }
        let ideal = n.div_ceil(k);
        let mut sizes = signals.part_sizes.clone();
        let members = p.members();

        // Donors: overloaded parts, most loaded first (ties: lowest id).
        let mut donors: Vec<usize> = (0..k).filter(|&q| sizes[q] > ideal).collect();
        donors.sort_by_key(|&q| (std::cmp::Reverse(sizes[q]), q));

        let mut moves: Vec<(VertexId, PartId)> = Vec::new();
        let mut budget = self.config.budget;
        for donor in donors {
            if budget == 0 {
                break;
            }
            // Score each member: neighbors per part, best recipient.
            let mut scored: Vec<(i64, VertexId, PartId)> = Vec::new();
            let mut nbr_counts = vec![0i64; k];
            for &v in &members[donor] {
                nbr_counts.iter_mut().for_each(|c| *c = 0);
                for (t, _) in g.successors(v) {
                    nbr_counts[p.part_of(t) as usize] += 1;
                }
                // Best recipient: most neighbors, then least loaded, then
                // lowest id. Parts as loaded as the donor are ineligible —
                // a move there would not improve balance.
                let mut best: Option<(i64, usize)> = None;
                for q in 0..k {
                    if q == donor || sizes[q] + 2 > sizes[donor] {
                        continue;
                    }
                    let cand = (nbr_counts[q], q);
                    let better = match best {
                        None => true,
                        Some((bn, bq)) => cand.0 > bn || (cand.0 == bn && sizes[q] < sizes[bq]),
                    };
                    if better {
                        best = Some(cand);
                    }
                }
                if let Some((nq, q)) = best {
                    scored.push((nq - nbr_counts[donor], v, q as PartId));
                }
            }
            // Highest cut gain first; ids break ties deterministically.
            scored.sort_by_key(|&(gain, v, _)| (std::cmp::Reverse(gain), v));
            for (_, v, q) in scored {
                if budget == 0 || sizes[donor] <= ideal {
                    break;
                }
                // Re-check eligibility against the running size tallies.
                if sizes[q as usize] + 2 > sizes[donor] {
                    continue;
                }
                sizes[donor] -= 1;
                sizes[q as usize] += 1;
                moves.push((v, q));
                budget -= 1;
            }
        }
        if moves.is_empty() {
            RebalancePlan::Hold
        } else {
            RebalancePlan::Migrate(moves)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaa_graph::{AdjGraph, GraphBuilder};

    /// A path graph over `n` vertices.
    fn path(n: usize) -> AdjGraph {
        let mut b = GraphBuilder::with_vertices(n);
        for v in 1..n as u32 {
            b.edge(v - 1, v, 1);
        }
        b.build().unwrap()
    }

    fn skewed_partition(n: usize, k: usize) -> Partition {
        // Everything on part 0 except one vertex per other part.
        let mut a = vec![0 as PartId; n];
        for q in 1..k {
            a[n - q] = q as PartId;
        }
        Partition::new(a, k).unwrap()
    }

    #[test]
    fn static_policy_never_plans() {
        let g = path(20);
        let p = skewed_partition(20, 4);
        let s = LoadSignals::measure(&g, &p);
        assert!(s.imbalance > 2.0);
        let r = Rebalancer::new(RebalanceConfig::default());
        assert_eq!(r.plan(&g, &p, &s), RebalancePlan::Hold);
    }

    #[test]
    fn balanced_partition_holds() {
        let g = path(16);
        let a: Vec<PartId> = (0..16).map(|v| (v / 4) as PartId).collect();
        let p = Partition::new(a, 4).unwrap();
        let s = LoadSignals::measure(&g, &p);
        let r = Rebalancer::new(RebalanceConfig::with_policy(RebalancePolicy::Adaptive));
        assert_eq!(r.plan(&g, &p, &s), RebalancePlan::Hold);
    }

    #[test]
    fn ps_moves_reduce_imbalance_within_budget() {
        let g = path(24);
        let p = skewed_partition(24, 3);
        let s = LoadSignals::measure(&g, &p);
        let cfg = RebalanceConfig {
            policy: RebalancePolicy::Ps,
            budget: 5,
            ..RebalanceConfig::default()
        };
        let plan = Rebalancer::new(cfg).plan(&g, &p, &s);
        let RebalancePlan::Migrate(moves) = plan else {
            panic!("expected moves, got {plan:?}");
        };
        assert!(!moves.is_empty() && moves.len() <= 5);
        let mut q = p.clone();
        for &(v, part) in &moves {
            assert_eq!(p.part_of(v), 0, "moves drain the overloaded part");
            assert_ne!(part, 0);
            q.set_part(v, part).unwrap();
        }
        assert!(vertex_balance(&q) < s.imbalance, "every event strictly improves balance");
        // No vertex moves twice in one plan.
        let mut ids: Vec<_> = moves.iter().map(|&(v, _)| v).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), moves.len());
    }

    #[test]
    fn adaptive_escalates_to_repartition_on_extreme_skew() {
        let g = path(30);
        let p = skewed_partition(30, 3);
        let s = LoadSignals::measure(&g, &p);
        assert!(s.imbalance > 1.6);
        let r = Rebalancer::new(RebalanceConfig::with_policy(RebalancePolicy::Adaptive));
        assert_eq!(r.plan(&g, &p, &s), RebalancePlan::Repartition);
        // Moderate skew: the same policy plans budgeted moves instead.
        let mild = LoadSignals { imbalance: 1.3, ..s.clone() };
        assert!(matches!(r.plan(&g, &p, &mild), RebalancePlan::Migrate(_)));
    }

    #[test]
    fn a_repartition_is_the_move_list_to_the_fresh_partition() {
        let g = path(30);
        let p = skewed_partition(30, 3);
        let s = LoadSignals::measure(&g, &p);
        let r = Rebalancer::new(RebalanceConfig {
            seed: 5,
            ..RebalanceConfig::with_policy(RebalancePolicy::Rs)
        });
        assert_eq!(r.plan(&g, &p, &s), RebalancePlan::Repartition);
        let moves = r.moves(&g, &p, &s).unwrap();
        let fresh = MultilevelPartitioner::seeded(5).partition(&g, 3).unwrap();
        let mut q = p.clone();
        for &(v, part) in &moves {
            assert_ne!(p.part_of(v), part, "a move changes the owner");
            q.set_part(v, part).unwrap();
        }
        assert_eq!(q, fresh);
        assert!(moves.windows(2).all(|w| w[0].0 < w[1].0), "vertex order, no repeats");
        // Nothing to do is the empty list; a longer target only moves
        // the vertices both cover.
        assert!(moves_between(&fresh, &fresh).is_empty());
        let grown = Partition::new([p.assignment(), &[2, 2]].concat(), 3).unwrap();
        assert!(moves_between(&p, &grown).is_empty());
        let hold = Rebalancer::new(RebalanceConfig::default());
        assert!(hold.moves(&g, &p, &s).unwrap().is_empty());
    }

    #[test]
    fn planner_is_deterministic() {
        let g = path(40);
        let p = skewed_partition(40, 4);
        let s = LoadSignals::measure(&g, &p);
        let r = Rebalancer::new(RebalanceConfig::with_policy(RebalancePolicy::Ps));
        assert_eq!(r.plan(&g, &p, &s), r.plan(&g, &p, &s));
    }

    #[test]
    fn measured_skew_only_decides_when_opted_in() {
        let g = path(16);
        let a: Vec<PartId> = (0..16).map(|v| (v / 4) as PartId).collect();
        let p = Partition::new(a, 4).unwrap();
        // Structurally balanced, but the wall clock says rank 0 is hot.
        let s = LoadSignals::measure(&g, &p).with_measured_skew(Some(3.0));
        let mut cfg = RebalanceConfig::with_policy(RebalancePolicy::Rs);
        let hold = Rebalancer::new(cfg).plan(&g, &p, &s);
        assert_eq!(hold, RebalancePlan::Hold, "measured skew is ignored by default");
        cfg.use_measured = true;
        assert_eq!(Rebalancer::new(cfg).plan(&g, &p, &s), RebalancePlan::Repartition);
    }

    #[test]
    fn due_at_respects_cadence_and_enablement() {
        let cfg = RebalanceConfig {
            policy: RebalancePolicy::Adaptive,
            every: 4,
            ..RebalanceConfig::default()
        };
        assert!(!cfg.due_at(0));
        assert!(!cfg.due_at(3));
        assert!(cfg.due_at(4));
        assert!(cfg.due_at(8));
        assert!(!RebalanceConfig::default().due_at(4));
    }
}
