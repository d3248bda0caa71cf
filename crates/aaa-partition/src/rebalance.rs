//! Incremental background repartitioning.
//!
//! The paper treats Repartition-S as a stop-the-world event triggered by a
//! vertex batch. The rebalancer here turns the PS/RS pair into *runtime
//! policies* evaluated continuously at RC-step barriers: it reads per-part
//! load and edge-cut signals, and when skew passes [`REBALANCE_TRIGGER`]
//! it either plans a small budgeted set of boundary-vertex
//! migrations (the PS-flavoured move, xDGP/SDP style) or escalates to a
//! full repartition (the RS-flavoured move). Either way what a driver
//! executes is a move list ([`RebalancePolicy::moves`]): a fresh partition is
//! the list of vertices it assigns elsewhere ([`moves_between`]) — long,
//! not a different operation. Because the DV fixed point is
//! the exact distance matrix — independent of which rank owns which row —
//! any plan this module produces preserves bit-identical converged
//! answers; only *where* the work happens changes.
//!
//! The planner itself is a pure function of the graph, the partition and a
//! [`LoadSignals`] snapshot of structural signals, so every run is exactly
//! reproducible and safe to perf-gate.

use crate::quality::{per_part_cut, vertex_balance};
use crate::{MultilevelPartitioner, Partition, PartitionError, Partitioner};
use aaa_graph::{GraphStore, PartId, VertexId};

// The planner's four numbers are constants: every driver that enables a
// policy (the stream experiment and the perf gate's stream cell) runs these.

/// Evaluate the planner every `REBALANCE_EVERY` RC-step barriers.
pub const REBALANCE_EVERY: usize = 2;

/// Maximum vertices migrated per planning event (PS moves).
pub const REBALANCE_BUDGET: usize = 16;

/// Skew (max part load / ideal part load) above which a policy acts.
pub const REBALANCE_TRIGGER: f64 = 1.05;

/// Skew above which [`RebalancePolicy::Adaptive`] escalates from budgeted
/// migration to a full repartition.
pub const RS_TRIGGER: f64 = 1.60;

/// Which rebalancing strategy runs at RC-step barriers, and the planner
/// that carries it out. The default, [`RebalancePolicy::Static`], never
/// rebalances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalancePolicy {
    /// Never rebalance (the paper's baseline: the initial decomposition is
    /// kept for the lifetime of the run).
    #[default]
    Static,
    /// Partial strategy: migrate up to [`REBALANCE_BUDGET`] boundary
    /// vertices from overloaded parts whenever skew exceeds
    /// [`REBALANCE_TRIGGER`].
    Ps,
    /// Repartition strategy: full multilevel repartition, migrating every
    /// vertex it assigns elsewhere, whenever skew exceeds the trigger.
    Rs,
    /// Budgeted migrations while skew is moderate; escalate to a full
    /// repartition once it passes [`RS_TRIGGER`].
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

/// A snapshot of the load/cut signals the planner decides on, each an exact
/// function of the graph and partition.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSignals {
    /// Vertices per part.
    pub part_sizes: Vec<usize>,
    /// Cut edges incident to each part.
    pub per_part_cut: Vec<usize>,
    /// Structural skew: max part size / ⌈n/k⌉ (1.0 = perfectly balanced).
    pub imbalance: f64,
}

impl LoadSignals {
    /// Computes the structural signals for `(g, p)`.
    pub fn measure<G: GraphStore>(g: &G, p: &Partition) -> Self {
        Self {
            part_sizes: p.part_sizes(),
            per_part_cut: per_part_cut(g, p),
            imbalance: vertex_balance(p),
        }
    }
}

/// What the planner decided at one barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalancePlan {
    /// Skew is within tolerance (or the policy is static): do nothing.
    Hold,
    /// Migrate each `(vertex, destination part)` in the list. Non-empty,
    /// at most [`REBALANCE_BUDGET`] entries, every move strictly
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

impl RebalancePolicy {
    /// True when the planner should run at RC-step barrier `rc_step`.
    pub fn due_at(self, rc_step: usize) -> bool {
        self != RebalancePolicy::Static && rc_step > 0 && rc_step % REBALANCE_EVERY == 0
    }

    /// Plans what (if anything) to do given the current signals. Pure and
    /// deterministic: the same `(g, p, signals)` always yields the same
    /// plan.
    pub fn plan<G: GraphStore>(self, g: &G, p: &Partition, signals: &LoadSignals) -> RebalancePlan {
        let skew = signals.imbalance;
        match self {
            RebalancePolicy::Static => RebalancePlan::Hold,
            RebalancePolicy::Rs => {
                if skew > REBALANCE_TRIGGER {
                    RebalancePlan::Repartition
                } else {
                    RebalancePlan::Hold
                }
            }
            RebalancePolicy::Ps => {
                if skew > REBALANCE_TRIGGER {
                    plan_moves(g, p, signals)
                } else {
                    RebalancePlan::Hold
                }
            }
            RebalancePolicy::Adaptive => {
                if skew > RS_TRIGGER {
                    RebalancePlan::Repartition
                } else if skew > REBALANCE_TRIGGER {
                    plan_moves(g, p, signals)
                } else {
                    RebalancePlan::Hold
                }
            }
        }
    }

    /// [`RebalancePolicy::plan`] as what every driver executes, a move
    /// list: empty to hold, the budgeted moves, or for a repartition the
    /// moves to a fresh multilevel partition under seed 0 — whose labels are
    /// arbitrary, so most vertices move.
    pub fn moves<G: GraphStore>(
        self,
        g: &G,
        p: &Partition,
        signals: &LoadSignals,
    ) -> Result<Vec<(VertexId, PartId)>, PartitionError> {
        match self.plan(g, p, signals) {
            RebalancePlan::Hold => Ok(Vec::new()),
            RebalancePlan::Migrate(moves) => Ok(moves),
            RebalancePlan::Repartition => {
                let fresh = MultilevelPartitioner::seeded(0).partition(g, p.k())?;
                Ok(moves_between(p, &fresh))
            }
        }
    }
}

/// Greedy budgeted move selection: walk overloaded parts hottest first;
/// inside each, score every member by the cut gain of moving it to its best
/// eligible recipient (most neighbors, and strictly less loaded than the
/// donor after the move). Boundary vertices whose neighborhoods already live
/// elsewhere score highest, so they migrate first — interior vertices only
/// move as a pure balance repair when nothing better is left.
fn plan_moves<G: GraphStore>(g: &G, p: &Partition, signals: &LoadSignals) -> RebalancePlan {
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
    let mut budget = REBALANCE_BUDGET;
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
        assert_eq!(RebalancePolicy::Static.plan(&g, &p, &s), RebalancePlan::Hold);
    }

    #[test]
    fn balanced_partition_holds() {
        let g = path(16);
        let a: Vec<PartId> = (0..16).map(|v| (v / 4) as PartId).collect();
        let p = Partition::new(a, 4).unwrap();
        let s = LoadSignals::measure(&g, &p);
        assert_eq!(RebalancePolicy::Adaptive.plan(&g, &p, &s), RebalancePlan::Hold);
    }

    #[test]
    fn ps_moves_reduce_imbalance_within_budget() {
        let g = path(48);
        let p = skewed_partition(48, 3);
        let s = LoadSignals::measure(&g, &p);
        let plan = RebalancePolicy::Ps.plan(&g, &p, &s);
        let RebalancePlan::Migrate(moves) = plan else {
            panic!("expected moves, got {plan:?}");
        };
        assert_eq!(moves.len(), REBALANCE_BUDGET, "part 0 holds 30 more than its share");
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
        let r = RebalancePolicy::Adaptive;
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
        let r = RebalancePolicy::Rs;
        assert_eq!(r.plan(&g, &p, &s), RebalancePlan::Repartition);
        let moves = r.moves(&g, &p, &s).unwrap();
        let fresh = MultilevelPartitioner::seeded(0).partition(&g, 3).unwrap();
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
        assert!(RebalancePolicy::Static.moves(&g, &p, &s).unwrap().is_empty());
    }

    #[test]
    fn planner_is_deterministic() {
        let g = path(40);
        let p = skewed_partition(40, 4);
        let s = LoadSignals::measure(&g, &p);
        let r = RebalancePolicy::Ps;
        assert_eq!(r.plan(&g, &p, &s), r.plan(&g, &p, &s));
    }

    #[test]
    fn due_at_respects_cadence_and_enablement() {
        let r = RebalancePolicy::Adaptive;
        assert!(!r.due_at(0));
        assert!(!r.due_at(1));
        assert!(r.due_at(2));
        assert!(!r.due_at(3));
        assert!(r.due_at(4));
        assert!(!RebalancePolicy::Static.due_at(4));
    }
}
