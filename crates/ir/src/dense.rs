//! Dense, arena-style maps keyed by [`OpId`].
//!
//! Operation ids are assigned densely by the owning [`Dfg`](crate::Dfg), so
//! any per-operation table can be a flat `Vec` indexed by `OpId::index()`
//! instead of a `HashMap<OpId, _>`: a lookup is one bounds-checked array
//! access with no hashing, and iteration is cache-linear in id order — which
//! is also the deterministic order every consumer wants. [`DenseOpMap`] is
//! the reusable, typed form of that layout (the modulo-scheduling baseline
//! builds its per-op tables on it); the scheduler engine in `hls-sched`
//! inlines the same `Vec`-indexed-by-`OpId::index()` pattern for its
//! multi-field pass state.

use crate::ids::OpId;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense map from [`OpId`] to `T`, backed by a flat `Vec`.
///
/// All operations of the owning DFG are present; "absent" entries are
/// modelled by `T`'s default (typically `Option<V>`). Cloning is a single
/// `memcpy`-like `Vec` clone.
#[derive(Clone, Default, PartialEq)]
pub struct DenseOpMap<T> {
    data: Vec<T>,
}

impl<T: Clone> DenseOpMap<T> {
    /// Creates a map for `num_ops` operations, every entry set to `fill`.
    pub fn filled(num_ops: usize, fill: T) -> Self {
        DenseOpMap {
            data: vec![fill; num_ops],
        }
    }
}

impl<T: Default> DenseOpMap<T> {
    /// Creates a map for `num_ops` operations with default entries.
    pub fn new(num_ops: usize) -> Self {
        DenseOpMap {
            data: std::iter::repeat_with(T::default).take(num_ops).collect(),
        }
    }
}

impl<T> DenseOpMap<T> {
    /// Builds a map by evaluating `f` for every operation id.
    pub fn from_fn(num_ops: usize, mut f: impl FnMut(OpId) -> T) -> Self {
        DenseOpMap {
            data: (0..num_ops as u32).map(|i| f(OpId::from_raw(i))).collect(),
        }
    }

    /// Number of entries (the number of operations).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reference to the entry for `op`, or `None` if out of range.
    pub fn get(&self, op: OpId) -> Option<&T> {
        self.data.get(op.index())
    }

    /// Iterator over `(OpId, &T)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(|(i, t)| (OpId::from_raw(i as u32), t))
    }

    /// Iterator over mutable entries in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (OpId, &mut T)> {
        self.data
            .iter_mut()
            .enumerate()
            .map(|(i, t)| (OpId::from_raw(i as u32), t))
    }
}

impl<T> Index<OpId> for DenseOpMap<T> {
    type Output = T;
    fn index(&self, op: OpId) -> &T {
        &self.data[op.index()]
    }
}

impl<T> IndexMut<OpId> for DenseOpMap<T> {
    fn index_mut(&mut self, op: OpId) -> &mut T {
        &mut self.data[op.index()]
    }
}

impl<T: fmt::Debug> fmt::Debug for DenseOpMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_index() {
        let mut m = DenseOpMap::filled(3, 0u32);
        m[OpId::from_raw(1)] = 7;
        assert_eq!(m[OpId::from_raw(0)], 0);
        assert_eq!(m[OpId::from_raw(1)], 7);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn default_entries_are_none() {
        let m: DenseOpMap<Option<u32>> = DenseOpMap::new(2);
        assert_eq!(m[OpId::from_raw(0)], None);
        assert_eq!(m.get(OpId::from_raw(5)), None, "out of range is None");
    }

    #[test]
    fn from_fn_and_iter_in_id_order() {
        let m = DenseOpMap::from_fn(4, |id| id.index() * 10);
        let pairs: Vec<(OpId, usize)> = m.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(
            pairs,
            vec![
                (OpId::from_raw(0), 0),
                (OpId::from_raw(1), 10),
                (OpId::from_raw(2), 20),
                (OpId::from_raw(3), 30),
            ]
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut a = DenseOpMap::filled(2, 1i64);
        let b = a.clone();
        a[OpId::from_raw(0)] = 9;
        assert_eq!(b[OpId::from_raw(0)], 1);
        assert_eq!(a.iter().map(|(_, &v)| v).collect::<Vec<_>>(), [9, 1]);
    }

    #[test]
    fn iter_mut_updates() {
        let mut m = DenseOpMap::filled(3, 1u32);
        for (_, v) in m.iter_mut() {
            *v += 1;
        }
        assert_eq!(m.iter().map(|(_, &v)| v).collect::<Vec<_>>(), [2, 2, 2]);
    }
}
