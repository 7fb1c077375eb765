//! Validated permutations.

use crate::error::SparseError;

/// A permutation of `0..n`, stored together with its inverse.
///
/// The convention follows the ordering literature: `new_of(old)` is the
/// position of original index `old` in the reordered matrix, and
/// `old_of(new)` is the original index placed at position `new` (the
/// "elimination order": `old_of(0)` is eliminated first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of: Vec<usize>,
    old_of: Vec<usize>,
}

impl Permutation {
    /// Identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Permutation { new_of: v.clone(), old_of: v }
    }

    /// Builds from `new_of` (position of each original index), validating
    /// that it is a bijection on `0..n`.
    pub fn from_new_order(new_of: Vec<usize>) -> Result<Self, SparseError> {
        let n = new_of.len();
        let mut old_of = vec![usize::MAX; n];
        for (old, &new) in new_of.iter().enumerate() {
            if new >= n || old_of[new] != usize::MAX {
                return Err(SparseError::InvalidPermutation { n, offending: new });
            }
            old_of[new] = old;
        }
        Ok(Permutation { new_of, old_of })
    }

    /// Builds from an elimination order: `order[k]` is the original index
    /// eliminated at step `k`.
    pub fn from_elimination_order(old_of: Vec<usize>) -> Result<Self, SparseError> {
        let n = old_of.len();
        let mut new_of = vec![usize::MAX; n];
        for (new, &old) in old_of.iter().enumerate() {
            if old >= n || new_of[old] != usize::MAX {
                return Err(SparseError::InvalidPermutation { n, offending: old });
            }
            new_of[old] = new;
        }
        Ok(Permutation { new_of, old_of })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.new_of.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_of.is_empty()
    }

    /// New position of original index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.new_of[old]
    }

    /// Original index at new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.old_of[new]
    }

    /// The full elimination-order vector.
    pub fn elimination_order(&self) -> &[usize] {
        &self.old_of
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { new_of: self.old_of.clone(), old_of: self.new_of.clone() }
    }

    /// Composition: applies `self` first, then `other` (`other ∘ self`).
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        let new_of: Vec<usize> = (0..self.len()).map(|i| other.new_of(self.new_of(i))).collect();
        Permutation::from_new_order(new_of).expect("composition of bijections is a bijection")
    }

    /// Applies the permutation to a dense vector indexed by original ids:
    /// `out[new_of(i)] = v[i]`.
    pub fn apply_vec<T: Copy + Default>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len());
        let mut out = vec![T::default(); v.len()];
        for (old, &x) in v.iter().enumerate() {
            out[self.new_of(old)] = x;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trips() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.new_of(i), i);
            assert_eq!(p.old_of(i), i);
        }
    }

    #[test]
    fn invalid_permutations_rejected() {
        assert!(Permutation::from_new_order(vec![0, 0, 1]).is_err());
        assert!(Permutation::from_new_order(vec![0, 3, 1]).is_err());
        assert!(Permutation::from_elimination_order(vec![1, 1, 0]).is_err());
    }

    #[test]
    fn inverse_and_composition() {
        let p = Permutation::from_new_order(vec![2, 0, 1]).unwrap();
        let q = p.inverse();
        let id = p.then(&q);
        assert_eq!(id, Permutation::identity(3));
    }

    #[test]
    fn elimination_order_convention() {
        // Eliminate 2 first, then 0, then 1.
        let p = Permutation::from_elimination_order(vec![2, 0, 1]).unwrap();
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.old_of(0), 2);
    }

    #[test]
    fn apply_vec_moves_entries() {
        let p = Permutation::from_new_order(vec![1, 2, 0]).unwrap();
        let out = p.apply_vec(&[10, 20, 30]);
        assert_eq!(out, vec![30, 10, 20]);
    }
}
