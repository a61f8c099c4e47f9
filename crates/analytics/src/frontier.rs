//! Vertex frontiers (Ligra's `vertexSubset`).

use grasp_graph::types::VertexId;

/// A subset of vertices, maintained both as a membership bitmap (for O(1)
/// dense checks) and as a list (for sparse iteration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    members: Vec<bool>,
    list: Vec<VertexId>,
}

impl Frontier {
    /// An empty frontier over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            members: vec![false; n],
            list: Vec::new(),
        }
    }

    /// A frontier containing every vertex.
    pub fn full(n: usize) -> Self {
        Self {
            members: vec![true; n],
            list: (0..n as VertexId).collect(),
        }
    }

    /// A frontier containing a single vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn single(n: usize, v: VertexId) -> Self {
        let mut f = Self::empty(n);
        f.add(v);
        f
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` if no vertex is a member.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.members[v as usize]
    }

    /// Adds a vertex (no-op if already present).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn add(&mut self, v: VertexId) {
        if !self.members[v as usize] {
            self.members[v as usize] = true;
            self.list.push(v);
        }
    }

    /// Empties the frontier in O(len) time while keeping both allocations,
    /// so a round loop can reuse two frontiers (`clear` + `swap`) instead of
    /// reallocating the membership bitmap every round — allocator traffic
    /// that would otherwise sit in the middle of the record phase.
    pub fn clear(&mut self) {
        for &v in &self.list {
            self.members[v as usize] = false;
        }
        self.list.clear();
    }

    /// Iterates the member vertices in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, VertexId> {
        self.list.iter()
    }

    /// Sum of the out-degrees of the member vertices — Ligra's push/pull
    /// switch compares it, plus the member count, against `edges / 20`.
    pub fn out_degree_sum(&self, graph: &dyn grasp_graph::GraphView) -> u64 {
        self.list.iter().map(|&v| graph.out_degree(v)).sum()
    }
}

impl<'a> IntoIterator for &'a Frontier {
    type Item = &'a VertexId;
    type IntoIter = std::slice::Iter<'a, VertexId>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frontier over `n` vertices holding `vertices` (duplicates ignored).
    fn from_vertices(n: usize, vertices: impl IntoIterator<Item = VertexId>) -> Frontier {
        let mut f = Frontier::empty(n);
        for v in vertices {
            f.add(v);
        }
        f
    }

    #[test]
    fn empty_full_single() {
        let e = Frontier::empty(10);
        assert!(e.is_empty());
        assert!(!e.contains(9));
        let f = Frontier::full(10);
        assert_eq!(f.len(), 10);
        assert!(f.contains(9));
        let s = Frontier::single(10, 3);
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn add_ignores_duplicates() {
        let mut f = Frontier::empty(5);
        f.add(2);
        f.add(2);
        f.add(4);
        assert_eq!(f.len(), 2);
        let collected: Vec<u32> = f.iter().copied().collect();
        assert_eq!(collected, vec![2, 4]);
    }

    #[test]
    fn clear_resets_membership_and_keeps_the_universe() {
        let mut f = from_vertices(8, [1, 4, 6]);
        f.clear();
        assert_eq!(f, Frontier::empty(8));
        f.add(4);
        assert_eq!(f.len(), 1);
        assert!(f.contains(4));
    }

    #[test]
    fn from_vertices_dedups() {
        let f = from_vertices(6, [1, 1, 5, 3, 5]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![1, 5, 3]);
    }

    #[test]
    fn degree_sum_matches_graph() {
        let g = crate::csr_of([(0, 1), (0, 2), (1, 2), (2, 0)]);
        let f = from_vertices(3, [0, 2]);
        assert_eq!(f.out_degree_sum(&g), 3);
    }

    #[test]
    fn into_iterator_for_reference() {
        let f = from_vertices(4, [0, 3]);
        let sum: u32 = (&f).into_iter().copied().sum();
        assert_eq!(sum, 3);
    }
}
