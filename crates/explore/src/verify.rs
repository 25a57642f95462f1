//! Differential verification hook for experiment drivers.
//!
//! Design-space exploration emits many schedules; this module lets a driver
//! validate **every point it emits** by executing it: the schedule's per-op
//! netlist, simulated cycle by cycle (`hls-sim`), must agree bit-exactly
//! with the reference interpreter on random input vectors. A Pareto front
//! built from verified points is a set of *working* micro-architectures, not
//! just plausible numbers.

use hls_ir::LinearBody;
use hls_netlist::ScheduleDesc;
use hls_sim::{differential, DifferentialReport, SimError};

/// How a driver should verify the points it emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Random input vectors (loop iterations) per point.
    pub vectors: usize,
    /// Stimulus seed; points of one sweep share it so runs are reproducible.
    pub seed: u64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            vectors: 100,
            seed: 0xD1FF,
        }
    }
}

/// Differentially verifies one scheduled design point.
///
/// # Errors
/// Propagates the [`SimError`] describing the first disagreement or
/// execution failure.
pub fn verify_schedule(
    body: &LinearBody,
    desc: &ScheduleDesc,
    options: &VerifyOptions,
) -> Result<DifferentialReport, SimError> {
    differential::random_check(body, desc, options.vectors, options.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::idct8_design;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    #[test]
    fn idct_point_verifies() {
        let body = idct8_design();
        let lib = TechLibrary::artisan_90nm_typical();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(2600.0), 1, 16);
        let schedule = Scheduler::new(&body, &lib, config)
            .run()
            .expect("schedules");
        let report = verify_schedule(
            &body,
            &schedule.desc,
            &VerifyOptions {
                vectors: 25,
                ..VerifyOptions::default()
            },
        )
        .expect("bit-exact");
        assert_eq!(report.iterations, 25);
        assert_eq!(report.ports, 8, "all eight IDCT outputs compared");
    }
}
