//! Property tests for the structural netlist: random small programs go
//! through the full flow to a lowered [`NirModule`], and the netlist must
//! (a) survive a text round-trip structurally unchanged —
//! `text_parse(text_emit(n)) == n` — and (b) reach a rewrite fixpoint in one
//! `optimize` run (a second run changes nothing). Both properties are
//! checked before and after optimization, and the rewritten netlist must
//! stay differentially bit-exact against the reference interpreter.

use hls::bind::{bind, lower, RtlStyle};
use hls::netlist::{text_emit, text_parse, validate};
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
    fn lowered_netlists_round_trip_and_rewrites_are_idempotent(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
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
        let bound = bind(&body, &schedule.desc)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: validate: {e}")))?;

        // text round-trip on the freshly lowered netlist
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites reach a fixpoint in one run…
        let r1 = hls::netlist::optimize(&mut m);
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: post-opt: {e}")))?;
        prop_assert!(r1.mux_depth_after <= r1.mux_depth_before, "{:?}", r1);
        let fixpoint = m.clone();
        let r2 = hls::netlist::optimize(&mut m);
        prop_assert_eq!(&m, &fixpoint);
        prop_assert_eq!(r2.rebalanced, 0);
        prop_assert_eq!(r2.swept, 0);

        // …and the rewritten netlist still round-trips
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: re-parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites preserved observable behaviour
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Netlists containing the timed-rewrite shapes — rebuilt balanced
    /// operator trees, strength-reduced shifts and retimed registers — keep
    /// the text-format contract `text_parse(text_emit(n)) == n` and stay
    /// differentially bit-exact. The passes run unmasked here to maximize
    /// how many of the new cell shapes land in the corpus.
    #[test]
    fn timed_rewrite_shapes_round_trip_and_stay_bit_exact(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
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
            return Ok(());
        };
        let bound = bind(&body, &schedule.desc)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
        let style = if shared { RtlStyle::SharedFu } else { RtlStyle::PerOp };
        let mut m = lower(&body, &schedule.desc, &bound, style)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
        hls::netlist::optimize(&mut m);

        let rebalanced = hls::nir::rebalance_operator_chains(&mut m, None);
        let reduced = hls::nir::strength_reduce_shifts(&mut m, None);
        let retimed = hls::nir::retime_registers(&mut m, None);
        hls::nir::normalize(&mut m);
        hls::nir::sweep(&mut m);
        validate(&m)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: post-timed: {e}")))?;
        let _ = (rebalanced, reduced, retimed);

        // the new cell shapes survive the text format unchanged
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // and observable behaviour is untouched
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }
}
