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
use hls::frontend::ast::{Behavior, BinOp, Expr};
use hls::frontend::BehaviorBuilder;
use hls::ir::{CmpKind, LinearBody};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential::random_check_bound;
use hls::tech::{ClockConstraint, TechLibrary};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// A random behaviour in the shape the front-end consumes: straight-line
/// assignments over mixed expressions, a predicated region (if-converted to
/// predicates and merge muxes downstream), a port write and a wait.
fn random_behavior(seed: u64) -> Behavior {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = BehaviorBuilder::new(format!("bound{seed}"));
    b.port_in("p0", 16);
    b.port_in("p1", 8);
    b.port_out("out", 16);
    let n_vars = rng.gen_range(1usize..=3);
    let widths = [8u16, 16, 32];
    let vars: Vec<_> = (0..n_vars)
        .map(|i| {
            let w = widths[rng.gen_range(0usize..3)];
            let init = rng.gen_range(0u64..64) as i64 - 32;
            b.var(format!("v{i}"), w, init)
        })
        .collect();
    let leaf = |rng: &mut SmallRng, b: &BehaviorBuilder| -> Expr {
        match rng.gen_range(0u32..5) {
            0 => b.read_port("p0"),
            1 => b.read_port("p1"),
            2 | 3 => Expr::Var(vars[rng.gen_range(0usize..vars.len())]),
            _ => Expr::Const(rng.gen_range(0u64..512) as i64 - 256),
        }
    };
    let node = |rng: &mut SmallRng, a: Expr, c: Expr| -> Expr {
        match rng.gen_range(0u32..10) {
            0 => Expr::add(a, c),
            1 => Expr::sub(a, c),
            2 => Expr::mul(a, c),
            3 => Expr::Binary(BinOp::And, Box::new(a), Box::new(c)),
            4 => Expr::Binary(BinOp::Xor, Box::new(a), Box::new(c)),
            5 => Expr::shl(a, Expr::Const(rng.gen_range(0u64..20) as i64)),
            6 => Expr::shr(a, Expr::Const(rng.gen_range(0u64..20) as i64)),
            7 => Expr::Binary(BinOp::Div, Box::new(a), Box::new(c)),
            8 => Expr::Binary(BinOp::Rem, Box::new(a), Box::new(c)),
            _ => Expr::select(Expr::cmp(CmpKind::Gt, a.clone(), Expr::Const(0)), a, c),
        }
    };
    let mut body = Vec::new();
    for _ in 0..rng.gen_range(2usize..6) {
        let var = vars[rng.gen_range(0usize..vars.len())];
        let l0 = leaf(&mut rng, &b);
        let l1 = leaf(&mut rng, &b);
        let mut e = node(&mut rng, l0, l1);
        if rng.gen_bool(0.5) {
            let l2 = leaf(&mut rng, &b);
            e = node(&mut rng, e, l2);
        }
        body.push(b.assign(var, e));
    }
    if rng.gen_bool(0.7) {
        let v = vars[rng.gen_range(0usize..vars.len())];
        let cond = Expr::cmp(
            CmpKind::Gt,
            Expr::Var(v),
            Expr::Const(rng.gen_range(0u64..16) as i64),
        );
        let l = leaf(&mut rng, &b);
        let r = leaf(&mut rng, &b);
        body.push(b.if_then_else(
            cond,
            vec![b.assign(v, Expr::mul(l, Expr::Const(3)))],
            vec![b.assign(v, Expr::add(r, Expr::Const(1)))],
        ));
    }
    body.push(b.write_port("out", Expr::Var(vars[rng.gen_range(0usize..vars.len())])));
    body.push(b.wait());
    let l = b.do_while(
        "main",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("p0"), Expr::Const(0)),
    );
    b.infinite_loop(vec![l]);
    b.build()
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
