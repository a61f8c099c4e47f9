//! Vertex permutations.

use grasp_graph::types::VertexId;

/// A bijective mapping from old vertex IDs to new vertex IDs.
///
/// `perm.new_id(old)` returns the vertex's position after reordering. The
/// inverse direction is available through [`Permutation::inverse`].
///
/// ```
/// use grasp_reorder::Permutation;
/// let p = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
/// assert_eq!(p.new_id(0), 2);
/// let inv = p.inverse();
/// assert_eq!(inv.new_id(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<VertexId>,
}

impl Permutation {
    /// The identity permutation over `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            new_of_old: (0..n as VertexId).collect(),
        }
    }

    /// Builds a permutation from a vector where entry `old` holds the new ID.
    ///
    /// Returns `None` if the vector is not a permutation of `0..len`.
    pub fn from_new_ids(new_of_old: Vec<VertexId>) -> Option<Self> {
        let p = Self { new_of_old };
        if p.is_valid() {
            Some(p)
        } else {
            None
        }
    }

    /// Builds a permutation from a *rank ordering*: `order[k]` is the old
    /// vertex ID that should receive new ID `k`.
    ///
    /// Returns `None` if `order` is not a permutation of `0..len`.
    pub fn from_order(order: &[VertexId]) -> Option<Self> {
        let n = order.len();
        let mut new_of_old = vec![VertexId::MAX; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            let slot = new_of_old.get_mut(old_id as usize)?;
            if *slot != VertexId::MAX {
                return None; // duplicate
            }
            *slot = new_id as VertexId;
        }
        Some(Self { new_of_old })
    }

    /// Number of vertices covered by the permutation.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Returns `true` if the permutation covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New ID assigned to `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old` is out of range.
    #[inline]
    pub fn new_id(&self, old: VertexId) -> VertexId {
        self.new_of_old[old as usize]
    }

    /// Borrowed view of the mapping (index = old ID, value = new ID).
    pub fn as_slice(&self) -> &[VertexId] {
        &self.new_of_old
    }

    /// Verifies that the mapping is a bijection over `0..len`.
    pub fn is_valid(&self) -> bool {
        let n = self.new_of_old.len();
        let mut seen = vec![false; n];
        for &new in &self.new_of_old {
            let Some(slot) = seen.get_mut(new as usize) else {
                return false;
            };
            if *slot {
                return false;
            }
            *slot = true;
        }
        true
    }

    /// Returns `true` if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.new_of_old
            .iter()
            .enumerate()
            .all(|(old, &new)| old as VertexId == new)
    }

    /// Returns the inverse permutation (new ID → old ID).
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0 as VertexId; self.new_of_old.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            inv[new as usize] = old as VertexId;
        }
        Self { new_of_old: inv }
    }

    /// Composes two permutations: the result maps `old` to
    /// `second.new_id(self.new_id(old))`, i.e. `self` is applied first.
    ///
    /// # Panics
    ///
    /// Panics if the permutations have different lengths.
    pub fn then(&self, second: &Permutation) -> Self {
        assert_eq!(
            self.len(),
            second.len(),
            "cannot compose permutations of different lengths"
        );
        Self {
            new_of_old: self
                .new_of_old
                .iter()
                .map(|&mid| second.new_id(mid))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let p = Permutation::identity(5);
        assert!(p.is_valid());
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert_eq!(p.new_id(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn from_new_ids_rejects_non_bijections() {
        assert!(Permutation::from_new_ids(vec![0, 0, 1]).is_none());
        assert!(Permutation::from_new_ids(vec![0, 5, 1]).is_none());
        assert!(Permutation::from_new_ids(vec![2, 0, 1]).is_some());
    }

    #[test]
    fn from_order_builds_inverse_mapping() {
        // order says: new 0 <- old 2, new 1 <- old 0, new 2 <- old 1
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.new_id(2), 0);
        assert_eq!(p.new_id(0), 1);
        assert_eq!(p.new_id(1), 2);
        assert!(Permutation::from_order(&[0, 0, 1]).is_none());
        assert!(Permutation::from_order(&[0, 3, 1]).is_none());
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_new_ids(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        for old in 0..4u32 {
            assert_eq!(inv.new_id(p.new_id(old)), old);
        }
        assert!(p.then(&inv).is_identity());
    }

    #[test]
    fn composition_applies_left_to_right() {
        let first = Permutation::from_new_ids(vec![1, 2, 0]).unwrap();
        let second = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let composed = first.then(&second);
        for old in 0..3u32 {
            assert_eq!(composed.new_id(old), second.new_id(first.new_id(old)));
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn composition_length_mismatch_panics() {
        let a = Permutation::identity(3);
        let b = Permutation::identity(4);
        let _ = a.then(&b);
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_valid());
        assert!(p.is_identity());
    }
}
