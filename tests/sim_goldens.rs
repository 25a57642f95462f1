//! Golden snapshots of what the netlist simulator observes on the stock
//! designs, so its verdicts survive any rewrite of the engine.
//!
//! * `nir_sim_traces.txt` — every timed port write `(cycle, iteration,
//!   port, value)` that `NirSim` records under a fixed random stimulus, on
//!   the lowered netlists of the stock designs and of 300-op generated
//!   kernels (34-44 states sequential, and II=2) before and after
//!   `hls_nir::optimize`, and on IDCT8 at II=8 after the one round
//!   `hls_lint::optimize_timed` keeps at 1700 ps.
//! * `fault_kill_matrices.txt` — the kill matrices of the five fault sweeps
//!   the CI `fault-coverage` job runs (the designs of
//!   `examples/fault_coverage.rs`).
//!
//! A simulator change must reproduce both files byte for byte; run with
//! `UPDATE_GOLDEN=1` to bless an intentional change after reviewing the diff.

mod common;

use common::compare_or_bless;
use hls::bind::{bind, lower, RtlStyle};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::fault::{run_sweep, FaultConfig};
use hls::frontend::ast::Behavior;
use hls::ir::LinearBody;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::{NirSim, Stimulus};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::Synthesizer;
use std::fmt::Write as _;

const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];
const STIMULUS_SEED: u64 = 0x601D;

fn body_of(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

/// Appends the write trace of `body` lowered under `config` and `style`,
/// once as lowered and once after `hls_nir::optimize`, and with a `timed`
/// clock once more after `hls_lint::optimize_timed` at that clock.
fn append_traces(
    out: &mut String,
    name: &str,
    body: &LinearBody,
    config: SchedulerConfig,
    style: RtlStyle,
    timed: Option<ClockConstraint>,
) {
    let lib = TechLibrary::artisan_90nm_typical();
    let desc = Scheduler::new(body, &lib, config)
        .run()
        .unwrap_or_else(|e| panic!("{name}: schedules: {e}"))
        .desc;
    let bound = bind(body, &desc).unwrap_or_else(|e| panic!("{name}: binds: {e}"));
    let lowered = lower(body, &desc, &bound, style).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut optimized = lowered.clone();
    hls::nir::optimize(&mut optimized);
    let mut stages = vec![
        ("lowered".to_string(), lowered),
        ("optimized".into(), optimized),
    ];
    if let Some(clock) = timed {
        let mut retimed = stages[1].1.clone();
        let report = hls::lint::optimize_timed(&mut retimed, &lib, clock);
        assert!(
            report.changed(),
            "{name}: the timed rewrite changes nothing"
        );
        stages.push((
            format!("timed@{}ps/{}", clock.period_ps(), report.rounds),
            retimed,
        ));
    }
    let stimulus = Stimulus::random(&body.dfg, 16, STIMULUS_SEED);
    for (stage, m) in &stages {
        let trace = NirSim::new(m)
            .and_then(|sim| sim.run(&stimulus))
            .unwrap_or_else(|e| panic!("{name} {stage}: simulates: {e}"));
        let _ = writeln!(out, "== {name} {stage}: {} writes", trace.writes.len());
        for w in &trace.writes {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                w.cycle,
                w.iteration,
                w.port.index(),
                w.value
            );
        }
    }
}

#[test]
fn netlist_simulator_write_traces_match_golden() {
    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2000 = ClockConstraint::from_period_ps(2000.0);
    let example1 = body_of(&paper_example1());
    let fir8 = body_of(&fir_filter(&FIR8_TAPS, 16));
    let idct8 = idct8_design();
    let mut out = String::new();
    for (tag, config) in [
        ("seq", SchedulerConfig::sequential(c1600, 1, 3)),
        ("ii2", SchedulerConfig::pipelined(c1600, 2, 6)),
        ("ii1", SchedulerConfig::pipelined(c1600, 1, 6)),
    ] {
        for (style_tag, style) in [
            ("shared_fu", RtlStyle::SharedFu),
            ("per_op", RtlStyle::PerOp),
        ] {
            let name = format!("example1_{tag}_{style_tag}");
            append_traces(&mut out, &name, &example1, config.clone(), style, None);
        }
    }
    append_traces(
        &mut out,
        "moving_average_ii1",
        &body_of(&moving_average(2, 16)),
        SchedulerConfig::pipelined(c1600, 1, 8),
        RtlStyle::SharedFu,
        None,
    );
    append_traces(
        &mut out,
        "fir8_seq",
        &fir8,
        SchedulerConfig::sequential(c1600, 1, 16),
        RtlStyle::SharedFu,
        None,
    );
    append_traces(
        &mut out,
        "fir8_ii2",
        &fir8,
        SchedulerConfig::pipelined(c1600, 2, 16),
        RtlStyle::SharedFu,
        None,
    );
    append_traces(
        &mut out,
        "idct8_seq",
        &idct8,
        SchedulerConfig::sequential(c2000, 1, 16),
        RtlStyle::SharedFu,
        None,
    );
    append_traces(
        &mut out,
        "idct8_ii8",
        &idct8,
        SchedulerConfig::pipelined(c2000, 8, 16),
        RtlStyle::SharedFu,
        // the one stock netlist on which the timed loop keeps a round
        Some(ClockConstraint::from_period_ps(1700.0)),
    );
    // Generated kernels: long FSMs with linear steering chains, sequential
    // and pipelined, per-op and shared.
    let c2200 = ClockConstraint::from_period_ps(2200.0);
    for class in [
        DesignClass::Filter,
        DesignClass::Fft,
        DesignClass::ImageKernel,
    ] {
        let body = synthetic_design(class, 300, 0);
        for (tag, config) in [
            ("seq", SchedulerConfig::sequential(c2200, 1, 48)),
            ("ii2", SchedulerConfig::pipelined(c2200, 2, 48)),
        ] {
            for (style_tag, style) in [
                ("shared_fu", RtlStyle::SharedFu),
                ("per_op", RtlStyle::PerOp),
            ] {
                let name = format!("{class:?}_300_s0_{tag}_{style_tag}");
                append_traces(&mut out, &name, &body, config.clone(), style, None);
            }
        }
    }
    compare_or_bless("nir_sim_traces.txt", &out);
}

#[test]
fn fault_sweep_kill_matrices_match_golden() {
    let designs = [
        (
            1600.0,
            Synthesizer::new(paper_example1())
                .clock_ps(1600.0)
                .latency_bounds(1, 3)
                .run(),
        ),
        (
            1600.0,
            Synthesizer::new(paper_example1())
                .clock_ps(1600.0)
                .latency_bounds(1, 6)
                .pipeline(2)
                .run(),
        ),
        (
            1600.0,
            Synthesizer::new(moving_average(2, 16))
                .clock_ps(1600.0)
                .latency_bounds(1, 8)
                .pipeline(1)
                .run(),
        ),
        (
            1600.0,
            Synthesizer::new(fir_filter(&FIR8_TAPS, 16))
                .clock_ps(1600.0)
                .latency_bounds(1, 16)
                .run(),
        ),
        (
            2000.0,
            Synthesizer::from_body(idct8_design())
                .clock_ps(2000.0)
                .latency_bounds(1, 16)
                .run(),
        ),
    ];
    let lib = TechLibrary::artisan_90nm_typical();
    let mut out = String::new();
    for (clock_ps, result) in designs {
        let result = result.expect("stock design synthesizes");
        let sweep = run_sweep(
            &result.body,
            &result.netlist,
            &lib,
            ClockConstraint::from_period_ps(clock_ps),
            &FaultConfig::default(),
        );
        out.push_str(&sweep.kill_matrix());
    }
    compare_or_bless("fault_kill_matrices.txt", &out);
}
