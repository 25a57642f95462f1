//! # hls-pipeline — loop folding, stage control and a modulo-scheduling baseline
//!
//! Section V of the paper: once a loop iteration has been scheduled in `LI`
//! states by the ordinary pass scheduler (with the two pipelining extensions
//! — edge equivalence and SCC stage windows — handled inside `hls-sched`),
//! the schedule is **folded** onto `II` states. Equivalent edges collapse
//! onto a single edge whose operation set is the union of the folded edges;
//! every operation is predicated by the *stage-valid* signal of its pipeline
//! stage, which also realizes the prologue (pipeline fill), the epilogue
//! (drain) and stalls.
//!
//! This crate provides:
//!
//! * [`FoldedPipeline`] — the folded schedule with stage bookkeeping and
//!   a cycle-accurate overlap table like the paper's Figure 5;
//! * [`fold_schedule`] — the folding transformation itself, with
//!   verification of inter-iteration causality and resource exclusivity;
//! * [`modulo_schedule`] — a classical iterative-modulo-scheduling baseline
//!   (Rau, MICRO'94) used to compare the paper's unified approach against a
//!   "schedule-then-move" formulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fold;
mod modulo;

pub use fold::{fold_schedule, FoldError, FoldedPipeline};
pub use modulo::{modulo_schedule, ModuloResult};
