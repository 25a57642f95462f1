//! Error type for IR construction and validation.

use crate::ids::{CfgEdgeId, CfgNodeId, OpId, PortId};
use std::error::Error;
use std::fmt;

/// Errors reported by IR validation and IR-level transformations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// An operation references another operation id that does not exist.
    DanglingOp {
        /// The referencing operation.
        op: OpId,
        /// The missing operation.
        referenced: OpId,
    },
    /// An operation references a port id that does not exist.
    DanglingPort {
        /// The referencing operation.
        op: OpId,
        /// The missing port.
        referenced: PortId,
    },
    /// A read targets an output port or a write targets an input port.
    PortDirectionMismatch {
        /// The offending operation.
        op: OpId,
        /// The port with the wrong direction.
        port: PortId,
    },
    /// An operation has the wrong number of inputs for its kind.
    BadArity {
        /// The offending operation.
        op: OpId,
        /// Kind mnemonic.
        kind: String,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        found: usize,
    },
    /// An operation's result width is zero.
    ZeroWidth {
        /// The offending operation.
        op: OpId,
    },
    /// A port, or an operation's result, operand or slice field, is wider
    /// than [`MAX_WIDTH`](crate::eval::MAX_WIDTH), the widest value the
    /// semantics and every simulator model.
    TooWide {
        /// The port (``port `a` ``) or operation (`op3`).
        what: String,
        /// Its width in bits.
        width: u16,
    },
    /// An operation's predicate can never be true.
    UnsatisfiablePredicate {
        /// The offending operation.
        op: OpId,
    },
    /// The distance-0 data dependence graph contains a cycle.
    CombinationalDependenceCycle {
        /// One operation on the cycle.
        op: OpId,
    },
    /// A CFG edge references a node that does not exist.
    DanglingCfgEdge {
        /// The offending edge.
        edge: CfgEdgeId,
    },
    /// The CFG has more than one entry node.
    MultipleEntries {
        /// How many entry nodes were found.
        count: usize,
    },
    /// A fork node does not have exactly two forward successors.
    MalformedFork {
        /// The offending node.
        node: CfgNodeId,
        /// Its forward out-degree.
        out_degree: usize,
    },
    /// A join node has fewer than two predecessors.
    MalformedJoin {
        /// The offending node.
        node: CfgNodeId,
    },
    /// A back edge does not target a loop-top node.
    BackEdgeNotToLoopTop {
        /// The offending edge.
        edge: CfgEdgeId,
    },
    /// An operation's home edge does not exist in the CFG.
    HomeEdgeMissing {
        /// The offending operation.
        op: OpId,
        /// The missing edge.
        edge: CfgEdgeId,
    },
    /// A linear body constraint is inconsistent (e.g. pin beyond latency).
    InconsistentConstraint {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DanglingOp { op, referenced } => {
                write!(
                    f,
                    "operation {op} references missing operation {referenced}"
                )
            }
            IrError::DanglingPort { op, referenced } => {
                write!(f, "operation {op} references missing port {referenced}")
            }
            IrError::PortDirectionMismatch { op, port } => {
                write!(
                    f,
                    "operation {op} accesses port {port} against its direction"
                )
            }
            IrError::BadArity {
                op,
                kind,
                expected,
                found,
            } => write!(
                f,
                "operation {op} of kind {kind} expects {expected} inputs but has {found}"
            ),
            IrError::ZeroWidth { op } => write!(f, "operation {op} has zero result width"),
            IrError::TooWide { what, width } => write!(
                f,
                "{what} is {width} bits wide; values are at most {} bits",
                crate::eval::MAX_WIDTH
            ),
            IrError::UnsatisfiablePredicate { op } => {
                write!(f, "operation {op} has an unsatisfiable predicate")
            }
            IrError::CombinationalDependenceCycle { op } => write!(
                f,
                "intra-iteration data dependence cycle through operation {op}"
            ),
            IrError::DanglingCfgEdge { edge } => {
                write!(f, "cfg edge {edge} references a missing node")
            }
            IrError::MultipleEntries { count } => {
                write!(f, "cfg has {count} entry nodes, expected at most one")
            }
            IrError::MalformedFork { node, out_degree } => write!(
                f,
                "fork node {node} has {out_degree} forward successors, expected 2"
            ),
            IrError::MalformedJoin { node } => {
                write!(f, "join node {node} has fewer than two predecessors")
            }
            IrError::BackEdgeNotToLoopTop { edge } => {
                write!(f, "back edge {edge} does not target a loop top")
            }
            IrError::HomeEdgeMissing { op, edge } => {
                write!(f, "operation {op} is homed on missing cfg edge {edge}")
            }
            IrError::InconsistentConstraint { detail } => {
                write!(f, "inconsistent constraint: {detail}")
            }
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errors = vec![
            IrError::DanglingOp {
                op: OpId::from_raw(1),
                referenced: OpId::from_raw(9),
            },
            IrError::ZeroWidth {
                op: OpId::from_raw(0),
            },
            IrError::MultipleEntries { count: 2 },
            IrError::InconsistentConstraint {
                detail: "pin beyond latency".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<IrError>();
    }
}
