//! # hls-sim — executable semantics and differential verification
//!
//! Everything else in the workspace checks designs *structurally* (latencies,
//! resource counts, emitted text); this crate checks them by **executing**
//! them, with a reference engine and one timed engine that must agree
//! bit-for-bit:
//!
//! * [`Interpreter`] — the reference semantics: each iteration evaluates the
//!   predicated data flow graph of a [`LinearBody`](hls_ir::LinearBody)
//!   directly, in topological order, over a value store keyed by operation id. Untimed, schedule-free,
//!   and therefore trustworthy as a specification. Width/signedness rules
//!   come from [`hls_ir::eval`], which also pins down div-by-zero,
//!   shift-overflow, slice and resize corner cases.
//! * [`NirSim`] — the hardware semantics: executes a structural netlist
//!   cycle by cycle (FSM state, register chains, pipelined iteration
//!   overlap at the initiation interval, operand steering), the object the
//!   Verilog is printed from.
//!
//! The differential checks run the same input vectors through both engines
//! and compare every output port's write sequence.
//! [`differential::check`] lowers the *schedule* with one operator per
//! operation (`hls_bind::RtlStyle::PerOp`), so a schedule that reads a value
//! before it is computed is refused while lowering;
//! [`differential::check_bound`] lowers the *binding*, shared units and
//! steering included; [`differential::check_nir`] runs any netlist, such as
//! the rewritten one. A [`Reference`] runs the interpreter once per
//! stimulus and compares any number of netlists against that trace. Every
//! scheduler, binder, lowering or pipeliner change is thereby a
//! differentially-verified change. The `hls` facade exposes this as
//! `Synthesizer::verify(n)`, and `hls-explore` can validate every Pareto
//! point it emits.
//!
//! ```
//! use hls_frontend::designs;
//! use hls_opt::linearize::prepare_innermost_loop;
//! use hls_sched::{Scheduler, SchedulerConfig};
//! use hls_sim::{differential, Stimulus};
//! use hls_tech::{ClockConstraint, TechLibrary};
//!
//! let mut cdfg = designs::paper_example1_cdfg()?;
//! let body = prepare_innermost_loop(&mut cdfg)?;
//! let lib = TechLibrary::artisan_90nm_typical();
//! let config = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 2, 6);
//! let schedule = Scheduler::new(&body, &lib, config).run()?;
//! let report = differential::random_check(&body, &schedule.desc, 100, 7)?;
//! assert!(report.writes_checked >= 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cycle;
pub mod differential;
pub mod error;
pub mod interp;
pub mod nir;
pub mod stimulus;

pub use cycle::{CycleTrace, TimedWrite};
pub use differential::{
    check, check_bound, check_nir, random_check, random_check_bound, random_check_nir,
    DifferentialReport, Reference,
};
pub use error::{ReplayInfo, SimError};
pub use interp::{InterpTrace, Interpreter, WriteEvent};
pub use nir::NirSim;
pub use stimulus::Stimulus;

// re-exported so callers can speak the value type without naming hls-ir
pub use hls_ir::eval::BitVal;
