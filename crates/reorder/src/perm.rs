//! Vertex permutations.

use grasp_graph::types::VertexId;

/// A bijective mapping from old vertex IDs to new vertex IDs.
///
/// `perm.new_id(old)` returns the vertex's position after reordering. The
/// inverse direction is available through [`Permutation::inverse`].
///
/// ```
/// use grasp_reorder::Permutation;
/// // New IDs 0, 1, 2 go to old vertices 1, 2, 0.
/// let p = Permutation::from_order(&[1, 2, 0]).unwrap();
/// assert_eq!(p.new_id(0), 2);
/// let inv = p.inverse();
/// assert_eq!(inv.new_id(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<VertexId>,
}

impl Permutation {
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
        let p = crate::identity(5);
        assert!(crate::is_bijection(&p));
        assert!((0..5).all(|v| p.new_id(v) == v));
        assert_eq!(p.len(), 5);
        assert_eq!(p.new_id(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn from_order_rejects_non_bijections() {
        assert!(Permutation::from_order(&[0, 0, 1]).is_none());
        assert!(Permutation::from_order(&[0, 5, 1]).is_none());
        assert!(Permutation::from_order(&[1, 2, 0]).is_some());
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
        let p = Permutation::from_order(&[2, 1, 3, 0]).unwrap();
        let inv = p.inverse();
        for old in 0..4u32 {
            assert_eq!(inv.new_id(p.new_id(old)), old);
        }
        assert_eq!(p.then(&inv), crate::identity(4));
    }

    #[test]
    fn composition_applies_left_to_right() {
        let first = Permutation::from_order(&[2, 0, 1]).unwrap();
        let second = Permutation::from_order(&[1, 2, 0]).unwrap();
        let composed = first.then(&second);
        for old in 0..3u32 {
            assert_eq!(composed.new_id(old), second.new_id(first.new_id(old)));
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn composition_length_mismatch_panics() {
        let a = crate::identity(3);
        let b = crate::identity(4);
        let _ = a.then(&b);
    }

    #[test]
    fn empty_permutation() {
        let p = crate::identity(0);
        assert!(p.is_empty());
        assert!(crate::is_bijection(&p));
        assert_eq!(p.inverse(), p);
    }
}
