//! # hls-tech — resource types and technology characterization
//!
//! The scheduler of the paper binds every operation to a *resource*: a
//! functional unit characterized by an operation class and operand/result bit
//! widths, with delay, area and power figures taken from a technology
//! library. This crate provides:
//!
//! * [`ResourceClass`] / [`ResourceType`] — the "operation type + operand and
//!   result widths" abstraction of Section IV.A (e.g. an 8×6-bit adder that
//!   can implement both `A1[7:0]+B1[4:0]` and `A2[5:0]+B2[6:0]`);
//! * [`Characterization`] — delay / area / leakage / switching-energy figures
//!   for one resource type;
//! * [`TechLibrary`] — an analytical 90 nm-like library calibrated so that the
//!   32-bit resources reproduce **Table 1** of the paper
//!   (mul 930 ps, add 350 ps, gt 220 ps, neq 60 ps, ff 40/70 ps,
//!   mux2 110 ps, mux3 115 ps);
//! * [`ClockConstraint`] — the target clock period;
//! * [`ResourceSet`] — a multiset of allocated resource instances that the
//!   scheduler binds operations onto.
//!
//! ## Example
//!
//! ```
//! use hls_tech::{ClockConstraint, TechLibrary, ResourceClass, ResourceType};
//!
//! let lib = TechLibrary::artisan_90nm_typical();
//! let mul32 = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
//! assert_eq!(lib.delay_ps(&mul32).round() as i64, 930);
//! let clk = ClockConstraint::from_period_ps(1600.0);
//! assert!(lib.delay_ps(&mul32) < clk.period_ps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterization;
mod clock;
mod intern;
mod library;
pub mod resource;
mod resource_set;

pub use characterization::Characterization;
pub use clock::ClockConstraint;
pub use intern::{Interner, ResourceClassId, ResourceTypeId};
pub use library::{ImplVariant, TechLibrary};
pub use resource::{ResourceClass, ResourceType};
pub use resource_set::{ResourceInstance, ResourceInstanceId, ResourceSet};
