//! Graph partitioning for the anytime-anywhere reproduction.
//!
//! The paper's domain-decomposition phase requires "any cut-edge
//! optimization based graph partitioning algorithm" and its experiments use
//! METIS/ParMETIS. This crate provides:
//!
//! * [`multilevel`] — a from-scratch multilevel k-way partitioner (heavy-edge
//!   matching coarsening, greedy graph growing initial partition, boundary
//!   FM refinement) in the METIS algorithm family.
//! * [`simple`] — block, round-robin, hash and random partitioners (used as
//!   baselines and by ablation benches).
//! * [`quality`] — cut size, balance and boundary metrics used throughout
//!   the engine and the experiment harness.
//! * [`rebalance`] — the incremental background rebalancer: turns the
//!   paper's PS/RS strategies into runtime policies that plan budgeted
//!   boundary-vertex migrations (or full repartitions) from load/cut skew.

pub mod multilevel;
pub mod quality;
pub mod rebalance;
pub mod simple;

pub use multilevel::MultilevelPartitioner;
pub use quality::{boundary_vertices, cut_edges, cut_weight, edge_balance, vertex_balance};
pub use rebalance::{moves_between, LoadSignals, RebalancePlan, RebalancePolicy};

use aaa_graph::{GraphStore, PartId, VertexId};
use std::fmt;

/// A k-way assignment of vertices to parts (processors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<PartId>,
    k: usize,
}

impl Partition {
    /// Wraps an assignment vector; every entry must be `< k`.
    pub fn new(assignment: Vec<PartId>, k: usize) -> Result<Self, PartitionError> {
        if k == 0 {
            return Err(PartitionError::ZeroParts);
        }
        if let Some(&bad) = assignment.iter().find(|&&p| p as usize >= k) {
            return Err(PartitionError::PartOutOfRange { part: bad, k });
        }
        Ok(Self { assignment, k })
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of assigned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True if no vertices are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> PartId {
        self.assignment[v as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.assignment
    }

    /// Reassigns vertex `v` (used by dynamic strategies).
    pub fn set_part(&mut self, v: VertexId, p: PartId) -> Result<(), PartitionError> {
        if p as usize >= self.k {
            return Err(PartitionError::PartOutOfRange { part: p, k: self.k });
        }
        self.assignment[v as usize] = p;
        Ok(())
    }

    /// Appends assignments for newly added vertices.
    pub fn extend(
        &mut self,
        parts: impl IntoIterator<Item = PartId>,
    ) -> Result<(), PartitionError> {
        for p in parts {
            if p as usize >= self.k {
                return Err(PartitionError::PartOutOfRange { part: p, k: self.k });
            }
            self.assignment.push(p);
        }
        Ok(())
    }

    /// Number of vertices in each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Vertices of each part, ascending.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p as usize].push(v as VertexId);
        }
        out
    }
}

/// Errors from partition construction or partitioners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// k must be at least 1.
    ZeroParts,
    /// An assignment referenced a part ≥ k.
    PartOutOfRange { part: PartId, k: usize },
    /// The partitioner was given an assignment/graph size mismatch.
    LengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroParts => write!(f, "partition must have at least one part"),
            PartitionError::PartOutOfRange { part, k } => {
                write!(f, "part {part} out of range for k = {k}")
            }
            PartitionError::LengthMismatch { expected, got } => {
                write!(f, "assignment length {got} does not match graph size {expected}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A graph partitioner. Generic over the storage backend, so domain
/// decomposition runs on the adjacency graph and its CSR snapshot alike.
pub trait Partitioner {
    /// Partitions `g` into `k` parts. Parts may be empty when
    /// `k > |V|`; implementations must still return a valid assignment.
    fn partition<G: GraphStore>(&self, g: &G, k: usize) -> Result<Partition, PartitionError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_validates_bounds() {
        assert!(Partition::new(vec![0, 1, 2], 3).is_ok());
        assert_eq!(
            Partition::new(vec![0, 3], 3),
            Err(PartitionError::PartOutOfRange { part: 3, k: 3 })
        );
        assert_eq!(Partition::new(vec![], 0), Err(PartitionError::ZeroParts));
    }

    #[test]
    fn part_sizes_and_members() {
        let p = Partition::new(vec![0, 1, 0, 2, 1], 3).unwrap();
        assert_eq!(p.part_sizes(), vec![2, 2, 1]);
        assert_eq!(p.members()[0], vec![0, 2]);
        assert_eq!(p.part_of(3), 2);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn set_part_and_extend() {
        let mut p = Partition::new(vec![0, 0], 2).unwrap();
        p.set_part(1, 1).unwrap();
        assert_eq!(p.part_of(1), 1);
        assert!(p.set_part(0, 5).is_err());
        p.extend([1, 0]).unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.extend([9]).is_err());
    }
}
