//! # hls-frontend — behavioural front-end and elaboration
//!
//! The paper's tool takes SystemC modules (threads with `wait()` statements,
//! loops, conditionals and port I/O) and elaborates them into a CFG + DFG
//! (Section II, Figure 2). This crate reconstructs that front-end in pure
//! Rust:
//!
//! * [`ast`] — an abstract syntax tree for untimed / partially timed
//!   behavioural threads ([`Behavior`], [`Stmt`], [`Expr`]);
//! * [`builder`] — an ergonomic [`BehaviorBuilder`] to construct behaviours
//!   programmatically (the substitution for writing SystemC);
//! * [`elaborate`] — turning a [`Behavior`] into an [`hls_ir::Cdfg`], with
//!   loop-carried variables materialized as the paper's `loopMux` pattern;
//! * [`designs`] — canonical designs used by the examples, tests and
//!   benchmarks, starting with Figure 1 of the paper.
//!
//! ## Example
//!
//! ```
//! use hls_frontend::designs;
//! use hls_frontend::elaborate::elaborate;
//!
//! let behavior = designs::paper_example1();
//! let cdfg = elaborate(&behavior)?;
//! assert!(cdfg.num_ops() > 8);
//! // the outer thread loop plus the pipelineable do-while loop
//! assert_eq!(cdfg.loops.len(), 2);
//! # Ok::<(), hls_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod designs;
pub mod elaborate;
pub mod error;

pub use ast::{Behavior, Expr, LoopKind, Stmt, VarId};
pub use builder::BehaviorBuilder;
pub use elaborate::elaborate;
pub use error::FrontendError;
