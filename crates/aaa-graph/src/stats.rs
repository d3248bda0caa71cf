//! Structural statistics: connected components.

use crate::{Csr, VertexId};

/// Result of a connected-components labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label of each vertex (dense, 0-based).
    pub label: Vec<u32>,
    /// Number of components.
    pub num_components: usize,
    /// Size of each component.
    pub sizes: Vec<usize>,
}

/// Labels connected components with iterative BFS (no recursion, so deep
/// graphs cannot overflow the stack).
pub fn connected_components(g: &Csr) -> Components {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as VertexId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        let comp = sizes.len() as u32;
        let mut size = 0usize;
        label[start as usize] = comp;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &t in g.targets(v) {
                if label[t as usize] == u32::MAX {
                    label[t as usize] = comp;
                    queue.push_back(t);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, num_components: sizes.len(), sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdjGraph;

    #[test]
    fn components_of_two_triangles() {
        let mut g = AdjGraph::with_vertices(7);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 1).unwrap();
        }
        let c = connected_components(&Csr::from_adj(&g));
        assert_eq!(c.num_components, 3); // two triangles + isolated 6
        assert_eq!(c.label[0], c.label[2]);
        assert_ne!(c.label[0], c.label[3]);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3]);
    }

    #[test]
    fn single_component_path() {
        let mut g = AdjGraph::with_vertices(4);
        for v in 0..3 {
            g.add_edge(v, v + 1, 1).unwrap();
        }
        let c = connected_components(&Csr::from_adj(&g));
        assert_eq!(c.num_components, 1);
        assert_eq!(c.sizes, vec![4]);
    }
}
