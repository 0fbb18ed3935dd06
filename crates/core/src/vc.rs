//! Vector clocks for lazy release consistency.
//!
//! Every processor's execution is divided into *intervals* delimited by
//! synchronization operations.  A vector clock records, per processor, how
//! many of that processor's intervals the owner has *seen* (i.e. whose write
//! notices it has incorporated).  Lazy release consistency propagates
//! modifications by shipping, at each acquire, the write notices of exactly
//! the intervals the acquirer has not yet seen but that happened before the
//! corresponding release.

use serde::{Deserialize, Serialize};

/// Result of comparing two vector clocks under the happens-before partial
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcOrder {
    /// The two clocks are identical.
    Equal,
    /// `self` happened before `other` (pointwise ≤, not equal).
    Before,
    /// `other` happened before `self`.
    After,
    /// Neither dominates: the intervals are concurrent.
    Concurrent,
}

/// A vector clock over `n` processors.  Entry `p` counts how many of
/// processor `p`'s closed intervals are covered.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u32>,
}

impl VectorClock {
    /// The zero clock for `n` processors (no interval of anyone seen).
    pub fn zero(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Number of processors this clock covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the clock covers zero processors (never the case in a run).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry for processor `p`.
    #[inline]
    pub fn get(&self, p: usize) -> u32 {
        self.entries[p]
    }

    /// All entries as a slice, in processor order (entry `p` = closed
    /// intervals of `p` covered).  The borrowed view observers such as the
    /// race detector consume on every access without copying the clock.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.entries
    }

    /// Set entry for processor `p`.
    #[inline]
    pub fn set(&mut self, p: usize, v: u32) {
        self.entries[p] = v;
    }

    /// Increment processor `p`'s entry and return the new value (used when
    /// `p` closes one of its own intervals).
    pub fn tick(&mut self, p: usize) -> u32 {
        self.entries[p] += 1;
        self.entries[p]
    }

    /// True if this clock covers interval `seq` of processor `p`.
    #[inline]
    pub fn covers(&self, p: usize, seq: u32) -> bool {
        self.entries[p] >= seq
    }

    /// Pointwise maximum with `other` (incorporating everything it covers).
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.entries.len(), other.entries.len());
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Compare under happens-before.
    pub fn compare(&self, other: &VectorClock) -> VcOrder {
        debug_assert_eq!(self.entries.len(), other.entries.len());
        let mut le = true;
        let mut ge = true;
        for (a, b) in self.entries.iter().zip(other.entries.iter()) {
            if a > b {
                le = false;
            }
            if a < b {
                ge = false;
            }
            if !le && !ge {
                // Concurrency is already established; no later entry can
                // change the verdict.
                return VcOrder::Concurrent;
            }
        }
        match (le, ge) {
            (true, true) => VcOrder::Equal,
            (true, false) => VcOrder::Before,
            (false, true) => VcOrder::After,
            (false, false) => VcOrder::Concurrent,
        }
    }

    /// True if `self` happened before or equals `other`.
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.entries.len(), other.entries.len());
        // Pointwise ≤ with short-circuit — cheaper than a full `compare`
        // when only domination matters (the hot covers-check on the
        // incorporate and fetch paths).
        self.entries
            .iter()
            .zip(other.entries.iter())
            .all(|(a, b)| a <= b)
    }

    /// Sum of all entries.  Sorting intervals by this sum yields a linear
    /// extension of happens-before (if `a` happened before `b`, every entry
    /// of `a` is ≤ the corresponding entry of `b` and at least one is
    /// strictly smaller, so the sum is strictly smaller), which is the order
    /// in which diffs are applied at a fault.
    pub fn weight(&self) -> u64 {
        self.entries.iter().map(|&e| e as u64).sum()
    }

    /// Iterate over `(proc, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.entries.iter().copied().enumerate()
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_covers() {
        let mut vc = VectorClock::zero(4);
        assert!(!vc.covers(2, 1));
        assert_eq!(vc.tick(2), 1);
        assert!(vc.covers(2, 1));
        assert!(!vc.covers(2, 2));
        assert_eq!(vc.get(2), 1);
    }

    #[test]
    fn compare_orders() {
        let mut a = VectorClock::zero(3);
        let mut b = VectorClock::zero(3);
        assert_eq!(a.compare(&b), VcOrder::Equal);
        a.tick(0);
        assert_eq!(b.compare(&a), VcOrder::Before);
        assert_eq!(a.compare(&b), VcOrder::After);
        b.tick(1);
        assert_eq!(a.compare(&b), VcOrder::Concurrent);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VectorClock::zero(3);
        a.set(0, 5);
        a.set(1, 1);
        let mut b = VectorClock::zero(3);
        b.set(1, 4);
        b.set(2, 2);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 4);
        assert_eq!(a.get(2), 2);
        assert!(b.dominated_by(&a));
    }

    #[test]
    fn weight_is_linear_extension() {
        let mut a = VectorClock::zero(3);
        a.set(0, 1);
        let mut b = a.clone();
        b.set(1, 3);
        assert_eq!(a.compare(&b), VcOrder::Before);
        assert!(a.weight() < b.weight());
    }

    #[test]
    fn display_format() {
        let mut vc = VectorClock::zero(3);
        vc.set(1, 7);
        assert_eq!(vc.to_string(), "⟨0,7,0⟩");
    }
}
