//! # hls-sched — simultaneous scheduling and binding
//!
//! The core contribution of the paper: an iterative, timing- and
//! resource-constrained **pass scheduler** that binds each operation to a
//! control step *and* a resource instance at the same time (Section IV), and
//! a restraint-driven **relaxation expert system** that reacts to failed
//! passes by adding states, adding resources, forbidding bindings or — the
//! pipelining-specific action of Section V — moving a whole strongly
//! connected component to a later pipeline stage.
//!
//! Pipelining is handled exactly the way the paper describes: the same pass
//! scheduler runs with two extra rules (edge-equivalence resource exclusion
//! and SCC-within-a-stage windows) enabled by a [`PipelineRequest`], so the
//! sequential and pipelined flows share all their machinery.
//!
//! ```
//! use hls_frontend::designs;
//! use hls_opt::linearize::prepare_innermost_loop;
//! use hls_sched::{Scheduler, SchedulerConfig};
//! use hls_tech::{ClockConstraint, TechLibrary};
//!
//! let mut cdfg = designs::paper_example1_cdfg()?;
//! let body = prepare_innermost_loop(&mut cdfg)?;
//! let lib = TechLibrary::artisan_90nm_typical();
//! let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
//! let schedule = Scheduler::new(&body, &lib, config).run()?;
//! assert_eq!(schedule.latency, 3); // the paper's Table 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod engine;
pub mod error;
pub mod parallel;
mod pass;
pub mod region;
pub mod relax;
pub mod resources;
mod scheduler;

pub use config::{PipelineRequest, RegionOptions, SchedulerConfig};
pub use error::SchedError;
pub use region::RegionPlan;
pub use relax::{RelaxAction, Restraint};
pub use resources::{initial_resource_set, initial_resource_set_for_ops};
pub use scheduler::{schedule_separated, Schedule, Scheduler};
