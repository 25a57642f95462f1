//! Mutation testing the verification stack: inject every cataloged fault
//! class into known-good lowered netlists and assert the checker stack
//! (`validate` → `hls_lint::analyze` → netlist differential) kills every
//! mutant — or that the escape is the class's named, documented one
//! (`FaultClass::documented_escape`). An undocumented escape is a hole in
//! the checkers and fails these tests.

use hls::fault::{run_sweep, FaultClass, FaultConfig, FaultOutcome};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{designs, Synthesizer};

/// Sweeps a finished synthesis result with the default fault config.
fn sweep_of(result: &hls::SynthesisResult, clock_ps: f64) -> hls::fault::FaultCoverageReport {
    let lib = TechLibrary::artisan_90nm_typical();
    run_sweep(
        &result.body,
        &result.netlist,
        &lib,
        ClockConstraint::from_period_ps(clock_ps),
        &FaultConfig::default(),
    )
}

#[test]
fn every_fault_class_is_killed_on_the_paper_example() {
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .run()
        .expect("synthesizable");
    let report = sweep_of(&result, 1600.0);
    assert!(
        report.baseline_ok,
        "unmutated netlist must pass all checkers"
    );
    assert!(report.mutants() > 0, "catalog found no sites");
    assert!(
        report.is_covered(),
        "undocumented escapes:\n{}",
        report.kill_matrix()
    );
    // the catalog exercises a broad slice of its classes on this design
    let populated = report.summaries().iter().filter(|s| s.mutants > 0).count();
    assert!(
        populated >= 6,
        "only {populated} classes had sites:\n{}",
        report.kill_matrix()
    );
    // documented escapes are exactly the two named families: architecturally
    // shielded reset values, and enable faults on input-sampling registers
    for o in &report.outcomes {
        if let FaultOutcome::Escaped { documented, .. } = &o.outcome {
            assert!(documented, "undocumented escape: {:?}", o.spec);
            assert!(
                matches!(
                    o.spec.class,
                    FaultClass::RegInitFlip | FaultClass::DroppedEnable | FaultClass::WrongEnable
                ),
                "{:?}",
                o.spec
            );
        }
    }
}

#[test]
fn every_fault_class_is_killed_on_a_pipelined_design() {
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(2)
        .run()
        .expect("synthesizable");
    let report = sweep_of(&result, 1600.0);
    assert!(report.baseline_ok);
    assert!(
        report.is_covered(),
        "undocumented escapes:\n{}",
        report.kill_matrix()
    );
}

#[test]
fn fault_sweeps_are_deterministic() {
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .run()
        .expect("synthesizable");
    let a = sweep_of(&result, 1600.0);
    let b = sweep_of(&result, 1600.0);
    assert_eq!(a, b, "same inputs and seed must reproduce the same sweep");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn the_coverage_report_serializes_machine_readably() {
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .run()
        .expect("synthesizable");
    let report = sweep_of(&result, 1600.0);
    let json = report.to_json();
    assert!(json.contains("\"covered\": true"), "{json}");
    assert!(json.contains("\"baseline_ok\": true"));
    for class in FaultClass::ALL {
        assert!(json.contains(&format!("\"class\": \"{class}\"")), "{class}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    // and the kill matrix names every class for humans
    let matrix = report.kill_matrix();
    for class in FaultClass::ALL {
        assert!(matrix.contains(class.name()), "{class} missing:\n{matrix}");
    }
}

#[path = "common/random_behavior.rs"]
mod random_behavior;

mod random_netlists {
    use super::random_behavior::random_behavior;
    use super::*;
    use hls::bind::{bind, lower, RtlStyle};
    use hls::opt::linearize::prepare_innermost_loop;
    use hls::sched::{Scheduler, SchedulerConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

        /// Every cataloged fault injected into a random lowered netlist is
        /// killed by the checker stack or is one of the named, documented
        /// escape families — on arbitrary designs, not just the curated
        /// examples.
        #[test]
        fn every_fault_class_is_killed_on_random_lowered_netlists(
            seed in 0u64..10_000,
            pipelined in any::<bool>(),
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
            let mut m = lower(&body, &schedule.desc, &bound, RtlStyle::SharedFu)
                .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
            hls::nir::optimize(&mut m);
            // Non-strict propagation: generated programs routinely contain
            // semantically dead datapath (e.g. `low8(x << 11)`) that no
            // stimulus can propagate; the curated tests above keep the
            // strict default where infection without propagation fails.
            let fc = FaultConfig {
                vectors: 24,
                max_per_class: 3,
                strict_propagation: false,
                ..FaultConfig::default()
            };
            let report = run_sweep(&body, &m, &lib, clock, &fc);
            prop_assert!(report.baseline_ok, "seed {seed}: baseline must pass");
            prop_assert!(
                report.is_covered(),
                "seed {seed}: undocumented escapes:\n{}",
                report.kill_matrix()
            );
        }
    }
}
