//! # hls-opt — CDFG optimizer and loop linearization
//!
//! The optimizer box of the paper's Figure 2: it simplifies the DFG/CFG with
//! standard compiler optimizations and applies the **branch predication
//! transformation** (Figure 4) that replaces fork/join regions with
//! straight-line predicated code, increasing operation mobility for the
//! scheduler.
//!
//! Provided passes:
//!
//! * [`passes::ConstantFolding`] — evaluates operations whose inputs are all
//!   constants;
//! * [`passes::StrengthReduction`] — rewrites multiplications/divisions by
//!   powers of two into shifts and removes additive/multiplicative identities;
//! * [`passes::CommonSubexpression`] — merges structurally identical
//!   operations;
//! * [`passes::DeadCodeElimination`] — removes operations whose results reach
//!   no output, loop exit condition or predicate;
//! * [`predicate::PredicateConversion`] — the paper's if-conversion;
//! * [`passes::ConstWidthReduction`] — operand width reduction for literals.
//!
//! [`optimize`] runs compare canonicalization and these passes once each, in
//! the flow's order, and reports per-pass statistics. [`linearize::linearize_loop`] extracts a loop body as the
//! straight-line [`hls_ir::LinearBody`] consumed by the scheduler.
//!
//! ## Example
//!
//! ```
//! use hls_frontend::designs;
//! use hls_opt::linearize::linearize_loop;
//! use hls_opt::optimize;
//!
//! let mut cdfg = designs::paper_example1_cdfg()?;
//! optimize(&mut cdfg)?;
//! let inner = cdfg.innermost_loop().unwrap().id;
//! let body = linearize_loop(&cdfg, inner)?;
//! assert_eq!(body.source_states, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod linearize;
pub mod manager;
pub mod passes;
pub mod predicate;

pub use error::OptError;
pub use linearize::linearize_loop;
pub use manager::{optimize, PassReport};
pub use passes::Pass;
