//! `hls-nir`: the structural netlist IR of the rpp-hls flow.
//!
//! Where the behavioural IR (`hls-ir`) describes *operations over time*, this
//! crate describes the *hardware structure* the flow commits to after
//! scheduling and binding: muxes, registers, arithmetic cells, port
//! reads/writes and the FSM controller, all on dense indices with explicit
//! bit-widths ([`NirModule`]). On top of the data model it provides
//!
//! * [`validate`] — structural well-formedness (port identifiers, widths,
//!   arities, port references, driven outputs, combinational-cycle
//!   freedom),
//! * [`NetNames`] — the Verilog identifier of every port and declared
//!   cell, and the names the printer drops,
//! * [`optimize`] — constant/identity normalization plus dead-cell sweep,
//! * mask-gated timing rewrites — [`rebalance_operator_chains`],
//!   [`strength_reduce_shifts`] and [`retime_registers`], run by
//!   `hls_lint::optimize_timed` on negative-slack cones only.
//!
//! The Verilog printer lives in `hls-netlist` and is a thin walk over this
//! model; the lowering from a bound design lives in `hls-bind`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod naming;
mod rewrite;
pub mod validate;

pub use model::{
    is_verilog_keyword, sanitize, BinKind, Cell, CellId, CellKind, NetlistStats, NirModule, UnKind,
    RESERVED_IDENTIFIERS, VERILOG_KEYWORDS,
};
pub use naming::{identifier, DroppedName, Ident, NameHolder, NetNames};
pub use rewrite::{
    normalize, optimize, rebalance_operator_chains, retime_registers, strength_reduce_shifts,
    sweep, RewriteReport,
};
pub use validate::{check_port_names, validate, NirError};
