//! Partition subsets.
//!
//! A [`PartSet`] records *which horizontal partitions of one relation* a
//! query ranges over. The seller rewrite (§3.4) intersects the buyer's
//! requested set with the seller's holdings; the buyer plan generator needs
//! exact union/coverage reasoning to decide whether a union of offers
//! reconstructs the full requested extent. Representing the coverage as an
//! explicit bitset (rather than re-deriving it from SQL predicates) makes
//! both operations exact.

use qt_catalog::{PartId, RelId};
use std::fmt;

/// Maximum number of partitions per relation supported by the bitset.
pub const MAX_PARTS: u16 = 64;

/// A subset of the partitions `0..n` of one relation, as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartSet {
    bits: u64,
}

impl PartSet {
    /// The empty set.
    pub const EMPTY: PartSet = PartSet { bits: 0 };

    /// The set `{0, …, n-1}` (all partitions of a relation with `n`
    /// partitions).
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn all(n: u16) -> PartSet {
        assert!(
            n <= MAX_PARTS,
            "at most {MAX_PARTS} partitions per relation"
        );
        if n == 64 {
            PartSet { bits: u64::MAX }
        } else {
            PartSet {
                bits: (1u64 << n) - 1,
            }
        }
    }

    /// The singleton `{idx}`.
    ///
    /// # Panics
    /// Panics if `idx >= 64`.
    pub fn single(idx: u16) -> PartSet {
        assert!(idx < MAX_PARTS);
        PartSet { bits: 1u64 << idx }
    }

    /// Build from an iterator of partition indices.
    pub fn from_indices(indices: impl IntoIterator<Item = u16>) -> PartSet {
        let mut s = PartSet::EMPTY;
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Build from the [`PartId`]s of `rel` in `parts` (ids of other relations
    /// are ignored).
    pub fn from_part_ids(rel: RelId, parts: impl IntoIterator<Item = PartId>) -> PartSet {
        PartSet::from_indices(parts.into_iter().filter(|p| p.rel == rel).map(|p| p.idx))
    }

    /// Insert index `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= 64`.
    pub fn insert(&mut self, idx: u16) {
        assert!(idx < MAX_PARTS);
        self.bits |= 1u64 << idx;
    }

    /// Does the set contain `idx`?
    pub fn contains(&self, idx: u16) -> bool {
        idx < MAX_PARTS && self.bits & (1u64 << idx) != 0
    }

    /// Number of partitions in the set.
    pub fn len(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set intersection.
    pub fn intersect(&self, other: &PartSet) -> PartSet {
        PartSet {
            bits: self.bits & other.bits,
        }
    }

    /// Set union.
    pub fn union(&self, other: &PartSet) -> PartSet {
        PartSet {
            bits: self.bits | other.bits,
        }
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &PartSet) -> PartSet {
        PartSet {
            bits: self.bits & !other.bits,
        }
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(&self, other: &PartSet) -> bool {
        self.bits & !other.bits == 0
    }

    /// Are the two sets disjoint?
    pub fn is_disjoint(&self, other: &PartSet) -> bool {
        self.bits & other.bits == 0
    }

    /// Iterate over the contained indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..MAX_PARTS).filter(|i| self.contains(*i))
    }

    /// The raw mask (for compact fingerprints and the wire).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The set whose raw mask is `bits`.
    pub(crate) fn from_bits(bits: u64) -> PartSet {
        PartSet { bits }
    }
}

impl fmt::Display for PartSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u16> for PartSet {
    fn from_iter<T: IntoIterator<Item = u16>>(iter: T) -> Self {
        PartSet::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_single() {
        assert_eq!(PartSet::all(3).len(), 3);
        assert_eq!(PartSet::all(64).len(), 64);
        assert_eq!(PartSet::all(0), PartSet::EMPTY);
        assert!(PartSet::single(5).contains(5));
        assert!(!PartSet::single(5).contains(4));
    }

    #[test]
    fn set_algebra() {
        let a = PartSet::from_indices([0, 1, 2]);
        let b = PartSet::from_indices([2, 3]);
        assert_eq!(a.intersect(&b), PartSet::from_indices([2]));
        assert_eq!(a.union(&b), PartSet::from_indices([0, 1, 2, 3]));
        assert_eq!(a.minus(&b), PartSet::from_indices([0, 1]));
        assert!(PartSet::from_indices([1]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(PartSet::from_indices([0]).is_disjoint(&b));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn from_part_ids_filters_by_relation() {
        let r0 = RelId(0);
        let r1 = RelId(1);
        let s = PartSet::from_part_ids(
            r0,
            [PartId::new(r0, 1), PartId::new(r1, 2), PartId::new(r0, 3)],
        );
        assert_eq!(s, PartSet::from_indices([1, 3]));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = PartSet::from_indices([7, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(s.to_string(), "{1,4,7}");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_partitions_rejected() {
        PartSet::all(65);
    }

    #[test]
    fn coverage_check_pattern() {
        // The buyer's completeness test: do the offered subsets union to the
        // full requested extent?
        let requested = PartSet::all(4);
        let offers = [PartSet::from_indices([0, 1]), PartSet::from_indices([2, 3])];
        let covered = offers.iter().fold(PartSet::EMPTY, |acc, o| acc.union(o));
        assert_eq!(covered, requested);
    }
}
