//! # hls-explore — design generators, experiments and design-space exploration
//!
//! This crate regenerates the evaluation section of the paper:
//!
//! * [`designs`] — synthetic "industrial" designs (filters, FFT-like
//!   butterflies, image kernels) spanning the 100–6000 operation range of the
//!   paper's Figure 9, and an 8-point IDCT used for the area/power exploration
//!   of Figures 10/11;
//! * [`experiments`] — one driver per table/figure (Table 1–4, Figure 9–11)
//!   returning structured, serializable results plus text renderings that
//!   mirror the paper's rows;
//! * [`pareto`] — Pareto-front extraction over (delay, area, power) points.
//!
//! The substitutions relative to the paper's proprietary setup are documented
//! where they live: the industrial designs in [`designs`], the commercial
//! library and logic synthesis in `hls-tech`'s `TechLibrary` and
//! `hls-netlist`'s crate docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod designs;
pub mod experiments;
pub mod pareto;
pub mod verify;

/// Deterministic order-stable parallel map (re-exported from `hls-sched`,
/// which also uses it for intra-design region parallelism).
pub use hls_sched::parallel;

pub use designs::{idct8_design, synthetic_design, DesignClass};
pub use experiments::{
    figure10_idct_area_delay, table1_library, table2_example1_schedule, table3_microarchitectures,
    table4_scc_move_ablation,
};
pub use parallel::map_indexed;
pub use pareto::{pareto_front, ExplorationPoint};
pub use verify::{verify_schedule, VerifyOptions};
