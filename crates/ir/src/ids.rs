//! Strongly typed identifiers for IR entities.
//!
//! Every entity in the IR (operations, ports, CFG nodes/edges, loops) is
//! referred to through a small, copyable, index-like identifier. Using
//! distinct newtypes instead of bare `usize` values prevents a whole class of
//! mix-up bugs (e.g. indexing the operation arena with a CFG node id).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an identifier from a raw index.
            ///
            /// Indices are assigned densely by the owning arena, so this is
            /// mainly useful in tests and when deserializing saved results.
            pub fn from_raw(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw dense index backing this identifier.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of an [`Operation`](crate::Operation) inside a [`Dfg`](crate::Dfg).
    OpId,
    "op"
);
id_type!(
    /// Identifier of a module [`Port`](crate::Port).
    PortId,
    "port"
);
id_type!(
    /// Identifier of a [`CfgNode`](crate::CfgNode) inside a [`Cfg`](crate::Cfg).
    CfgNodeId,
    "n"
);
id_type!(
    /// Identifier of a [`CfgEdge`](crate::CfgEdge) (a control step) inside a [`Cfg`](crate::Cfg).
    CfgEdgeId,
    "e"
);
id_type!(
    /// Identifier of a loop recorded in a [`Cdfg`](crate::Cdfg).
    LoopId,
    "loop"
);

/// Index of a control step (state) within a linearized loop body.
///
/// States are numbered from `0`; the paper's examples label them `s1`, `s2`,
/// ... which correspond to `StateIdx(0)`, `StateIdx(1)`, etc.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateIdx(pub u32);

impl StateIdx {
    /// Creates a state index.
    pub fn new(idx: u32) -> Self {
        Self(idx)
    }

    /// Returns the zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the next state (`self + 1`).
    pub fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl fmt::Debug for StateIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0 + 1)
    }
}

impl fmt::Display for StateIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0 + 1)
    }
}

impl From<u32> for StateIdx {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_distinct_types() {
        let op = OpId::from_raw(3);
        let port = PortId::from_raw(3);
        assert_eq!(op.index(), port.index());
        assert_eq!(format!("{op}"), "op3");
        assert_eq!(format!("{port}"), "port3");
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        set.insert(OpId::from_raw(1));
        set.insert(OpId::from_raw(2));
        set.insert(OpId::from_raw(1));
        assert_eq!(set.len(), 2);
        assert!(OpId::from_raw(1) < OpId::from_raw(2));
    }

    #[test]
    fn state_idx_labels_are_one_based() {
        assert_eq!(StateIdx::new(0).to_string(), "s1");
        assert_eq!(StateIdx::new(2).to_string(), "s3");
        assert_eq!(StateIdx::new(0).next(), StateIdx::new(1));
        assert_eq!(format!("{}", StateIdx::new(4)), "s5");
    }

    #[test]
    fn usize_conversion() {
        let id = CfgEdgeId::from_raw(7);
        let as_usize: usize = id.into();
        assert_eq!(as_usize, 7);
    }
}
