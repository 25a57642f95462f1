//! Differential verification of the whole flow: for every example design and
//! every paper design, the produced schedule, lowered to its per-op netlist
//! and simulated cycle by cycle, must agree bit-exactly with the reference
//! interpreter — for sequential, separated-binding and modulo-pipelined
//! schedules, on ≥ 100 random input vectors each.

use hls::bind::RtlStyle;
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::frontend::{BehaviorBuilder, Expr};
use hls::ir::{CmpKind, LinearBody, PortDirection};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{schedule_separated, Scheduler, SchedulerConfig};
use hls::sim::{differential, NirSim, Stimulus};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::Synthesizer;

const VECTORS: usize = 100;

fn linearize(behavior: &hls::frontend::Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

fn lib() -> TechLibrary {
    TechLibrary::artisan_90nm_typical()
}

/// Schedules `body` under `config` and differentially verifies the result.
fn check(body: &LinearBody, config: SchedulerConfig, label: &str) {
    let schedule = Scheduler::new(body, &lib(), config)
        .run()
        .unwrap_or_else(|e| panic!("{label}: unschedulable: {e}"));
    let report = differential::random_check(body, &schedule.desc, VECTORS, 0xC0FFEE)
        .unwrap_or_else(|e| panic!("{label}: differential failed: {e}"));
    assert_eq!(report.iterations as usize, VECTORS, "{label}");
    assert!(report.writes_checked > 0, "{label}: nothing compared");
}

/// The quickstart example's multiply-accumulate kernel.
fn mac_behavior() -> hls::frontend::Behavior {
    let mut b = BehaviorBuilder::new("mac");
    b.port_in("a", 16);
    b.port_in("b", 16);
    b.port_in("c", 16);
    b.port_out("y", 32);
    let acc = b.var("acc", 32, 0);
    let body = vec![
        b.assign(
            acc,
            Expr::add(
                Expr::mul(b.read_port("a"), b.read_port("b")),
                b.read_port("c"),
            ),
        ),
        b.write_port("y", b.read_var(acc)),
        b.wait(),
    ];
    let loop_stmt = b.do_while(
        "mac_loop",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("a"), Expr::Const(0)),
    );
    b.infinite_loop(vec![loop_stmt]);
    b.build()
}

#[test]
fn paper_example1_sequential_separated_and_pipelined_agree() {
    let body = linearize(&paper_example1());
    let clk = ClockConstraint::from_period_ps(1600.0);
    check(&body, SchedulerConfig::sequential(clk, 1, 3), "ex1 seq");
    check(&body, SchedulerConfig::pipelined(clk, 2, 6), "ex1 II=2");
    check(&body, SchedulerConfig::pipelined(clk, 1, 6), "ex1 II=1");

    // the classical separated flow fixes states first and binds afterwards;
    // its *functional* behaviour must still be correct (what it gets wrong
    // is the timing slack, not the values)
    let separated = schedule_separated(&body, &lib(), SchedulerConfig::sequential(clk, 1, 3))
        .expect("separated flow schedules");
    let report = differential::random_check(&body, &separated.desc, VECTORS, 0xC0FFEE)
        .expect("separated-binding schedule is bit-exact");
    assert!(report.writes_checked > 0);
}

#[test]
fn quickstart_mac_agrees() {
    let body = linearize(&mac_behavior());
    let clk = ClockConstraint::from_period_ps(1600.0);
    check(&body, SchedulerConfig::sequential(clk, 1, 4), "mac seq");
    check(&body, SchedulerConfig::pipelined(clk, 1, 6), "mac II=1");
}

#[test]
fn fir_filter_agrees_and_sustains_pipeline_throughput() {
    let taps = [3, -5, 7, 11, 11, 7, -5, 3];
    let body = linearize(&fir_filter(&taps, 16));
    let clk = ClockConstraint::from_period_ps(1600.0);
    check(&body, SchedulerConfig::sequential(clk, 1, 16), "fir seq");

    for ii in [4u32, 2, 1] {
        let schedule = Scheduler::new(&body, &lib(), SchedulerConfig::pipelined(clk, ii, 16))
            .run()
            .expect("fir pipelines");
        assert_eq!(schedule.desc.ii, Some(ii), "reported II");
        let stim = Stimulus::random(&body.dfg, VECTORS, 0xF1);
        // correctness: bit-exact against the interpreter
        differential::check(&body, &schedule.desc, &stim)
            .unwrap_or_else(|e| panic!("fir II={ii}: {e}"));
        // throughput: in steady state, the emitted netlist writes exactly one
        // output every II cycles — the pipeline actually sustains 1/II
        // iterations per cycle
        let bound = hls::bind::bind(&body, &schedule.desc).expect("fir binds");
        let netlist = hls::bind::lower(&body, &schedule.desc, &bound, RtlStyle::SharedFu)
            .expect("fir lowers");
        let trace = NirSim::new(&netlist).unwrap().run(&stim).unwrap();
        let out = body
            .dfg
            .iter_ports()
            .find(|(_, p)| p.direction == PortDirection::Output)
            .map(|(id, _)| id)
            .unwrap();
        let intervals = trace.write_intervals(out);
        assert!(
            intervals.len() >= VECTORS - 1 && intervals.iter().all(|&d| d == u64::from(ii)),
            "fir II={ii}: write intervals {intervals:?}"
        );
    }
}

#[test]
fn moving_average_recurrence_agrees() {
    let body = linearize(&moving_average(3, 16));
    let clk = ClockConstraint::from_period_ps(1600.0);
    check(&body, SchedulerConfig::sequential(clk, 1, 4), "ema seq");
    // the single-SCC recurrence limits pipelining; II=2 keeps the SCC in one
    // stage window
    let pipelined = Scheduler::new(&body, &lib(), SchedulerConfig::pipelined(clk, 2, 8)).run();
    if let Ok(schedule) = pipelined {
        let report = differential::random_check(&body, &schedule.desc, VECTORS, 0xE)
            .expect("ema II=2 bit-exact");
        assert!(report.writes_checked > 0);
    }
}

#[test]
fn idct_agrees_sequentially_and_pipelined() {
    let body = idct8_design();
    let clk = ClockConstraint::from_period_ps(2100.0);
    check(&body, SchedulerConfig::sequential(clk, 1, 16), "idct seq");
    check(&body, SchedulerConfig::pipelined(clk, 4, 16), "idct II=4");
}

#[test]
fn synthetic_design_classes_agree() {
    let clk = ClockConstraint::from_period_ps(1800.0);
    for (i, class) in DesignClass::all().into_iter().enumerate() {
        let body = synthetic_design(class, 120, 17 + i as u64);
        check(
            &body,
            SchedulerConfig::sequential(clk, 1, 32),
            &format!("{class:?} seq"),
        );
        let pipelined = Scheduler::new(&body, &lib(), SchedulerConfig::pipelined(clk, 2, 32)).run();
        if let Ok(schedule) = pipelined {
            differential::random_check(&body, &schedule.desc, VECTORS, 31 + i as u64)
                .unwrap_or_else(|e| panic!("{class:?} II=2: {e}"));
        }
    }
}

#[test]
fn facade_verify_hook_validates_the_idct_exploration_path() {
    // the from_body route the exploration drivers use, with the
    // verify hook turned on
    let result = Synthesizer::from_body(idct8_design())
        .clock_ps(2600.0)
        .latency_bounds(1, 16)
        .verify(VECTORS)
        .run()
        .expect("idct synthesizes and verifies");
    let report = result.verification.expect("verification ran");
    assert_eq!(report.ports, 8);
    assert!(report.writes_checked >= 8 * VECTORS);
}
