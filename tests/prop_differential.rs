//! Property-based differential testing: randomly generated small programs go
//! through the *full* flow (builder → elaboration → optimization →
//! linearization → scheduling/binding, sequential or pipelined) and the
//! cycle-accurate simulation of the schedule must agree bit-exactly with the
//! reference interpreter on random input vectors.

use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential;
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;

#[path = "common/random_behavior.rs"]
mod random_behavior;

use random_behavior::random_behavior;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn random_programs_are_bit_exact_through_the_full_flow(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        vectors in 40usize..80,
    ) {
        let behavior = random_behavior(seed);
        let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(4200.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 24)
        } else {
            SchedulerConfig::sequential(clock, 1, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        let report = differential::random_check(&body, &schedule.desc, vectors, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
        prop_assert_eq!(report.iterations as usize, vectors);
        prop_assert!(report.writes_checked > 0);
    }
}
