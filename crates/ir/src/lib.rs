//! # hls-ir — Control/Data Flow Graph intermediate representation
//!
//! This crate provides the intermediate representation used throughout the
//! `rpp-hls` workspace, a reproduction of *"Realistic Performance-constrained
//! Pipelining in High-level Synthesis"* (Kondratyev, Lavagno, Meyer, Watanabe,
//! DATE 2011).
//!
//! The representation mirrors the one described in Section II of the paper:
//!
//! * a **control flow graph** ([`Cfg`]) whose nodes either fork/join control
//!   flow (conditionals and loops) or correspond to `wait()` calls (state
//!   boundaries), and whose *edges* are the control steps in which operations
//!   execute;
//! * a **data flow graph** ([`Dfg`]) whose nodes are operations
//!   ([`Operation`]) and whose edges are data dependencies, possibly carrying
//!   an *iteration distance* for loop-carried dependencies;
//! * every DFG operation is associated with a CFG edge (its *home* control
//!   step).
//!
//! The two graphs plus loop bookkeeping form a [`Cdfg`]. After the optimizer
//! (see the `hls-opt` crate) applies predicate conversion, a loop body becomes
//! a [`LinearBody`]: a straight-line sequence of control steps with predicated
//! operations, which is what the scheduler consumes.
//!
//! ## Example
//!
//! ```
//! use hls_ir::{Dfg, OpKind, PortDirection, Signal};
//!
//! let mut dfg = Dfg::new();
//! let mask = dfg.add_port("mask", PortDirection::Input, 32);
//! let chrome = dfg.add_port("chrome", PortDirection::Input, 32);
//! let m = dfg.add_op(OpKind::Read(mask), 32, vec![]);
//! let c = dfg.add_op(OpKind::Read(chrome), 32, vec![]);
//! let prod = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(m), Signal::op(c)]);
//! assert_eq!(dfg.op(prod).inputs.len(), 2);
//! assert_eq!(dfg.num_ops(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cdfg;
pub mod cfg;
mod dense;
pub mod dfg;
pub mod error;
pub mod eval;
pub mod ids;
mod linear;
pub mod op;
pub mod predicate;

pub use cdfg::{Cdfg, ForkConditions, LoopInfo};
pub use cfg::{Cfg, CfgEdge, CfgNode, CfgNodeKind};
pub use dense::DenseOpMap;
pub use dfg::{DataDep, Dfg, Port, PortDirection, Signal};
pub use error::IrError;
pub use eval::{eval_op, BitVal, EvalError};
pub use ids::{CfgEdgeId, CfgNodeId, LoopId, OpId, PortId, StateIdx};
pub use linear::{LinearBody, PinnedState};
pub use op::{CmpKind, OpKind, Operation};
pub use predicate::Predicate;
