//! Differential verification of the **bound** netlist: every paper example
//! and a population of random builder programs are scheduled, bound onto
//! shared functional units (`hls-bind`), lowered to the shared-FU netlist —
//! one operator per unit, operand muxes steered by the FSM — and executed by
//! the netlist simulator against the reference interpreter, bit for bit.
//!
//! This is the executable proof of the binder's acceptance criterion: shared
//! FUs with steering produce exactly the behaviour of the unshared design,
//! and the bound FU count never exceeds the scheduler's resource set.

use hls::bind::bind;
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::idct8_design;
use hls::frontend::ast::Behavior;
use hls::ir::LinearBody;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential::random_check_bound;
use hls::tech::{ClockConstraint, TechLibrary};

#[path = "common/random_behavior.rs"]
mod random_behavior;

use random_behavior::random_behavior;

const VECTORS: usize = 100;

fn linearize(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

fn lib() -> TechLibrary {
    TechLibrary::artisan_90nm_typical()
}

/// Schedules, binds and differentially verifies the bound netlist.
fn check_bound_design(body: &LinearBody, config: SchedulerConfig, label: &str) {
    let schedule = Scheduler::new(body, &lib(), config)
        .run()
        .unwrap_or_else(|e| panic!("{label}: unschedulable: {e}"));
    let bound = bind(body, &schedule.desc).unwrap_or_else(|e| panic!("{label}: unbindable: {e}"));
    assert!(
        bound.stats.fu_count <= schedule.desc.resources.len(),
        "{label}: binding invented hardware ({} > {})",
        bound.stats.fu_count,
        schedule.desc.resources.len()
    );
    let report = random_check_bound(body, &schedule.desc, &bound, VECTORS, 0xB0B)
        .unwrap_or_else(|e| panic!("{label}: bound differential failed: {e}"));
    assert_eq!(report.iterations as usize, VECTORS, "{label}");
    assert!(report.writes_checked > 0, "{label}: nothing compared");
}

#[test]
fn paper_example1_all_microarchitectures_bound() {
    let body = linearize(&paper_example1());
    let clk = ClockConstraint::from_period_ps(1600.0);
    check_bound_design(&body, SchedulerConfig::sequential(clk, 1, 3), "ex1 seq");
    check_bound_design(&body, SchedulerConfig::pipelined(clk, 2, 6), "ex1 II=2");
    check_bound_design(&body, SchedulerConfig::pipelined(clk, 1, 6), "ex1 II=1");
}

#[test]
fn moving_average_and_fir_bound() {
    let clk = ClockConstraint::from_period_ps(1600.0);
    let avg = linearize(&moving_average(3, 16));
    check_bound_design(&avg, SchedulerConfig::sequential(clk, 1, 4), "avg seq");
    let fir = linearize(&fir_filter(&[3, -5, 7, 9], 16));
    check_bound_design(&fir, SchedulerConfig::sequential(clk, 1, 12), "fir seq");
}

#[test]
fn pipelined_fir_bound_at_every_ii() {
    // the acceptance criterion names the pipelined FIR explicitly: shared-FU
    // execution must hold across the initiation-interval sweep
    let clk = ClockConstraint::from_period_ps(1600.0);
    let fir = linearize(&fir_filter(&[3, -5, 7, 9], 16));
    for ii in [4, 2, 1] {
        check_bound_design(
            &fir,
            SchedulerConfig::pipelined(clk, ii, 16),
            &format!("fir II={ii}"),
        );
    }
}

#[test]
fn idct8_bound_sequential_and_pipelined() {
    let body = idct8_design();
    let clk = ClockConstraint::from_period_ps(2000.0);
    check_bound_design(&body, SchedulerConfig::sequential(clk, 1, 16), "idct seq");
    check_bound_design(&body, SchedulerConfig::pipelined(clk, 8, 32), "idct II=8");
}

#[test]
fn twenty_five_random_programs_bound_bit_exact() {
    let clk = ClockConstraint::from_period_ps(4200.0);
    let mut checked = 0usize;
    for seed in 0..25u64 {
        let body = linearize(&random_behavior(seed));
        let config = if seed % 2 == 0 {
            SchedulerConfig::sequential(clk, 1, 24)
        } else {
            SchedulerConfig::pipelined(clk, 2, 24)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib(), config).run() else {
            continue; // an over-constrained random instance is acceptable
        };
        let bound =
            bind(&body, &schedule.desc).unwrap_or_else(|e| panic!("seed {seed}: unbindable: {e}"));
        assert!(bound.stats.fu_count <= schedule.desc.resources.len());
        random_check_bound(&body, &schedule.desc, &bound, 60, seed)
            .unwrap_or_else(|e| panic!("seed {seed}: bound differential failed: {e}"));
        checked += 1;
    }
    assert!(
        checked >= 20,
        "only {checked}/25 random programs schedulable"
    );
}
