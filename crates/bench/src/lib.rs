//! # hls-bench — benchmark harness regenerating the paper's tables and figures
//!
//! Each Criterion bench target corresponds to one table or figure of the
//! DATE 2011 paper; running `cargo bench` prints the measured rows next to
//! the timing statistics. The README's "Regenerating the paper's tables and
//! figures" lists the targets.
#![forbid(unsafe_code)]
