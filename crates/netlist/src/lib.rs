//! # hls-netlist — datapath model, timing, area, power and RTL
//!
//! The paper's scheduler is "tightly integrated with logic synthesis": it
//! builds a netlist for the scheduled part of the CDFG and performs (cached)
//! timing queries on it (Section IV.B.1), rejects bindings that would create
//! combinational cycles (IV.B.3), and the final implementation is evaluated
//! for area and power (Section VI). This crate is the stand-in for that logic
//! synthesis back-end:
//!
//! * [`ChainTiming`] — the register-to-register path delay model of
//!   Figure 8 (`FF launch + input mux + FU + ... + register mux + FF setup`),
//!   with memoized resource-delay queries;
//! * [`ScheduleDesc`] — the binding/state assignment produced by the
//!   scheduler, shared between crates;
//! * [`Datapath`] — functional units, sharing multiplexers and
//!   registers extracted from a schedule, with area and power estimation;
//! * [`emit_verilog`] — the Verilog printer: a thin, deterministic
//!   walk over the structural netlist ([`hls_nir::NirModule`]) produced by
//!   `hls_bind`'s lowering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rtl;
mod schedule;
mod timing;

pub use rtl::emit_verilog;
pub use schedule::{AreaBreakdown, Datapath, PowerBreakdown, ScheduleDesc, ScheduledOp};
pub use timing::ChainTiming;
