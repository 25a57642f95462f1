//! Integration tests for the `hls-lint` analyzer: the idct8 acceptance
//! check (the reported critical path must re-derive, cell by cell, from
//! `ChainTiming` primitives) and the rewrite-monotonicity property
//! (`optimize()` never introduces new diagnostics).
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::lint::{analyze, analyze_timing, optimize_timed, Lint, LintConfig, LintContext};
use hls::netlist::ChainTiming;
use hls::nir::CellKind;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential;
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;

/// Recomputes the critical path's delay step by step from `ChainTiming`
/// primitives, asserting each step's running arrival against the report.
///
/// The rules mirror the analyzer's documented model: sources launch at
/// clock-to-Q (constants at 0), plain cells add their Table 1 delay, a mux
/// charges its tree fan-in only where the tree is consumed by a non-mux
/// step, and the endpoint adds the flip-flop setup.
fn recompute_path(
    m: &hls::nir::NirModule,
    timing: &hls::lint::TimingSummary,
    t: &mut ChainTiming,
) -> f64 {
    let path = &timing.critical_path;
    assert!(!path.is_empty(), "no critical path reported");
    let mut acc = 0.0;
    for (i, step) in path.iter().enumerate() {
        let cell = m.cell(step.cell);
        let next_is_mux = path
            .get(i + 1)
            .map(|n| matches!(m.cell(n.cell).kind, CellKind::Mux))
            .unwrap_or(false);
        let last = i + 1 == path.len();
        acc += match &cell.kind {
            CellKind::Const(_) => 0.0,
            CellKind::Reg { .. } if i == 0 => t.register_arrival_ps(),
            CellKind::Reg { .. } => {
                assert!(last, "a register mid-path is not combinational");
                t.setup_ps()
            }
            CellKind::Output { .. } => {
                assert!(last, "an output port is always the endpoint");
                t.setup_ps()
            }
            CellKind::Input { .. }
            | CellKind::FsmState
            | CellKind::StageValid { .. }
            | CellKind::FirstIter { .. } => t.register_arrival_ps(),
            CellKind::Mux => {
                // a path can begin at a mux whose (registered) select wins
                let start = if i == 0 { t.register_arrival_ps() } else { 0.0 };
                let tree = if next_is_mux {
                    0.0
                } else {
                    t.mux_tree_delay_ps(step.fanin, cell.width)
                };
                start + tree
            }
            kind => {
                let widths: Vec<u16> = cell.inputs.iter().map(|&x| m.cell(x).width).collect();
                t.cell_delay_ps(kind, &widths, cell.width)
            }
        };
        assert!(
            (acc - step.arrival_ps).abs() < 0.1,
            "step {i} `{}` ({}): recomputed {acc} vs reported {}",
            step.name,
            step.kind,
            step.arrival_ps
        );
    }
    acc
}

/// The idct8 acceptance check: at the paper-scale 2000 ps clock the shared-FU
/// II=8 netlist meets timing, the reported critical path re-derives from
/// `ChainTiming` within 0.1 ps, and tightening the clock below the path's
/// delay turns the same netlist into a deny-level setup violation.
#[test]
fn idct8_sta_critical_path_matches_hand_computation() {
    let result = hls::Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .run()
        .expect("idct8 synthesizes at 2000 ps, II=8");
    let timing = result.lint.timing.as_ref().expect("analysis ran");
    assert!(
        timing.wns_ps > 0.0,
        "positive slack at 2000 ps, got wns {}",
        timing.wns_ps
    );
    assert!(timing.meets_clock());
    assert_eq!(timing.tns_ps, 0.0);

    // The path is named launch-to-capture and its cell-summed delay
    // re-derives from the library's primitives.
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(2000.0);
    let mut t = ChainTiming::new(&lib, clock);
    let total = recompute_path(&result.netlist, timing, &mut t);
    assert!(
        (total - timing.critical_delay_ps()).abs() < 0.1,
        "cell-summed {total} vs endpoint {}",
        timing.critical_delay_ps()
    );
    assert!(timing.critical_path.len() >= 4, "a real multi-cell chain");
    assert!(
        timing.critical_path_names().contains("->"),
        "path renders as a named chain"
    );
    // increments telescope exactly to the endpoint delay
    let summed: f64 = timing.critical_path.iter().map(|s| s.incr_ps).sum();
    assert!((summed - timing.critical_delay_ps()).abs() < 1e-9);

    // Tightened below the critical delay, the same netlist fails with a
    // deny-level setup violation under `deny_timing`.
    let tight = ClockConstraint::from_period_ps(timing.critical_delay_ps() - 50.0);
    let ctx = LintContext::new(&lib, tight)
        .with_binding(&result.binding)
        .with_schedule(&result.schedule.desc);
    let report = analyze(&result.netlist, &ctx, &LintConfig::deny_timing());
    assert!(
        report.has_deny(),
        "tight clock must gate: {}",
        report.render()
    );
    assert!(report.count_of(Lint::SetupViolation) >= 1);
    let violation = report
        .diagnostics
        .iter()
        .find(|d| d.lint == Lint::SetupViolation)
        .expect("violation present");
    assert!(violation.message.contains("ps past the"), "{violation:?}");
}

/// The timed-rewrite acceptance check: idct8 II=8 is scheduled at the
/// paper's 2000 ps clock (critical path 1900 ps). At a 1700 ps clock the
/// stock netlist is a deny-level setup violation — PR 7's behaviour — but
/// `optimize_timed` closes it: the endpoint shifter `w_38_shr` shifts by
/// the constant 11, so strength reduction rewires it as slice/resize
/// wiring, dropping the path to ~1640 ps and the verdict to a pass with
/// positive slack. Observable behaviour is bit-exact before and after, and
/// at the stock clock (all slacks positive) the stage provably does not
/// touch the netlist.
#[test]
fn idct8_timed_rewrites_turn_a_tight_clock_deny_into_a_pass() {
    let result = hls::Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .verify(40)
        .run()
        .expect("idct8 synthesizes at 2000 ps, II=8");
    let timing = result.lint.timing.as_ref().expect("analysis ran");
    let lib = TechLibrary::artisan_90nm_typical();
    let tight = ClockConstraint::from_period_ps(1700.0);
    assert!(
        tight.period_ps() < timing.critical_delay_ps(),
        "the tightened clock must sit below the stock critical path"
    );

    // The stock netlist denies at the tightened clock (the PR 7 gate)…
    let ctx = LintContext::new(&lib, tight)
        .with_binding(&result.binding)
        .with_schedule(&result.schedule.desc);
    let deny = analyze(&result.netlist, &ctx, &LintConfig::deny_timing());
    assert!(deny.has_deny(), "stock netlist must fail 1700 ps");
    assert!(deny.count_of(Lint::SetupViolation) >= 1);

    // …and is bit-exact against the reference interpreter.
    differential::random_check_nir(&result.body, &result.netlist, 60, 0xACCE)
        .expect("stock netlist bit-exact");

    // The timed loop turns the deny into a pass with positive slack.
    let mut rewritten = result.netlist.clone();
    let report = optimize_timed(&mut rewritten, &lib, tight);
    assert!(report.changed());
    assert!(report.before.wns_ps < 0.0, "{}", report.before.wns_ps);
    assert!(report.after.wns_ps > 0.0, "{}", report.after.wns_ps);
    assert_eq!(
        report.reduced_shifts, 1,
        "the endpoint `w_38_shr >> 11` becomes slice/resize wiring"
    );
    assert!(
        report.after.critical_delay_ps() <= timing.critical_delay_ps() - 200.0,
        "a 32-bit shifter (260 ps) left the path: {} -> {}",
        timing.critical_delay_ps(),
        report.after.critical_delay_ps()
    );
    hls::nir::validate(&rewritten).expect("rewritten netlist validates");
    differential::random_check_nir(&result.body, &rewritten, 60, 0xACCE)
        .expect("rewritten netlist bit-exact");
    let pass = analyze(&rewritten, &ctx, &LintConfig::deny_timing());
    assert!(!pass.has_deny(), "1700 ps now passes:\n{}", pass.render());

    // Zero churn when timing is met: the synthesizer's own stage saw the
    // 2000 ps clock satisfied and left the netlist alone, and a direct run
    // at the stock clock returns the module byte-identical.
    assert_eq!(result.timed_rewrites.rounds, 0);
    assert_eq!(result.timed_rewrites.before, result.timed_rewrites.after);
    let mut untouched = result.netlist.clone();
    let stock = optimize_timed(
        &mut untouched,
        &lib,
        ClockConstraint::from_period_ps(2000.0),
    );
    assert!(!stock.changed());
    assert_eq!(
        untouched, result.netlist,
        "stats identical, cells identical"
    );
    assert_eq!(untouched.stats(), result.netlist.stats());
}

/// The synthesizer's stored report matches a fresh analysis of the stored
/// netlist in the same context — the gate and the report can't drift apart.
#[test]
fn stored_report_matches_fresh_analysis() {
    let result = hls::Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .run()
        .expect("synthesizes");
    let lib = TechLibrary::artisan_90nm_typical();
    let ctx = LintContext::new(&lib, ClockConstraint::from_period_ps(2000.0))
        .with_binding(&result.binding)
        .with_schedule(&result.schedule.desc);
    let fresh = analyze(&result.netlist, &ctx, &LintConfig::default());
    assert_eq!(result.lint, fresh);
    assert_eq!(result.lint.to_json(), fresh.to_json());
}

/// Synthesizes a generated design at `clock_ps`, sequential or at `ii`.
fn synthesize(
    class: DesignClass,
    ops: usize,
    seed: u64,
    clock_ps: f64,
    max_latency: u32,
    ii: Option<u32>,
) -> hls::SynthesisResult {
    let mut syn = hls::Synthesizer::from_body(synthetic_design(class, ops, seed))
        .clock_ps(clock_ps)
        .latency_bounds(1, max_latency);
    if let Some(ii) = ii {
        syn = syn.pipeline(ii);
    }
    syn.run().expect("synthesizes")
}

/// The synthesizer reports the timed loop's final summary instead of
/// analysing its netlist a second time. That summary must equal a fresh
/// analysis of the returned netlist, on runs that meet the clock and on
/// runs that miss it at warn level — like the flow benchmark's 1000-op
/// kernel, which misses 2200 ps by 367 ps.
#[test]
fn synthesizer_timing_equals_a_fresh_analysis() {
    let lib = TechLibrary::artisan_90nm_typical();
    let idct = hls::Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .run()
        .expect("idct8 synthesizes at 2000 ps, II=8");
    let runs = [
        ("idct8/ii8@2000ps", idct, 2000.0, true),
        (
            "Fft/100/s1/ii2@2200ps",
            synthesize(DesignClass::Fft, 100, 1, 2200.0, 24, Some(2)),
            2200.0,
            false,
        ),
        (
            "Filter/1000/s2/seq@2200ps",
            synthesize(DesignClass::Filter, 1000, 2, 2200.0, 48, None),
            2200.0,
            false,
        ),
    ];
    for (label, result, clock_ps, meets) in runs {
        let clock = ClockConstraint::from_period_ps(clock_ps);
        let fresh = analyze_timing(&result.netlist, &mut ChainTiming::new(&lib, clock));
        assert_eq!(fresh.meets_clock(), meets, "{label}: wns {}", fresh.wns_ps);
        assert_eq!(result.lint.timing.as_ref(), Some(&fresh), "{label}");
        assert_eq!(
            result.lint.count_of(Lint::SetupViolation) > 0,
            !meets,
            "{label}"
        );
        assert!(!result.lint.has_deny(), "{label}: setup violations warn");
    }
}

/// `optimize_timed` reports the timing of the netlist it returns, also when
/// it keeps a round. No `Synthesizer` run keeps one, so the contract the
/// synthesizer relies on is pinned here: the idct8 II=8 netlist synthesized
/// at 2000 ps keeps a round at 1700 ps.
#[test]
fn timed_report_after_equals_a_fresh_analysis_of_the_rewritten_netlist() {
    let result = hls::Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .run()
        .expect("idct8 synthesizes at 2000 ps, II=8");
    let lib = TechLibrary::artisan_90nm_typical();
    let tight = ClockConstraint::from_period_ps(1700.0);
    let mut rewritten = result.netlist.clone();
    let report = optimize_timed(&mut rewritten, &lib, tight);
    assert!(report.rounds >= 1, "a round is kept at 1700 ps");
    assert_ne!(rewritten, result.netlist);
    let fresh = analyze_timing(&rewritten, &mut ChainTiming::new(&lib, tight));
    assert_eq!(report.after, fresh);

    // Attached to the context, the summary yields the report a fresh
    // analysis yields.
    let ctx = LintContext::new(&lib, tight)
        .with_binding(&result.binding)
        .with_schedule(&result.schedule.desc);
    let cfg = LintConfig::default();
    assert_eq!(
        analyze(&rewritten, &ctx.with_timing(&report.after), &cfg),
        analyze(&rewritten, &ctx, &cfg)
    );
}

fn class_strategy() -> impl Strategy<Value = DesignClass> {
    prop_oneof![
        Just(DesignClass::Filter),
        Just(DesignClass::Fft),
        Just(DesignClass::ImageKernel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// `optimize()` never introduces new diagnostics (per-lint counts after
    /// are bounded by the counts before), and the analyzer is deterministic
    /// (two runs yield identical reports and identical JSON).
    #[test]
    fn rewrites_never_introduce_diagnostics(
        class in class_strategy(),
        ops in 40usize..120,
        seed in 0u64..1000,
        pipelined in any::<bool>(),
    ) {
        let body = synthetic_design(class, ops, seed);
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(1800.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 32)
        } else {
            SchedulerConfig::sequential(clock, 1, 32)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        let Ok(binding) = hls::bind::bind(&body, &schedule.desc) else {
            return Ok(());
        };
        let Ok(mut netlist) =
            hls::bind::lower(&body, &schedule.desc, &binding, hls::bind::RtlStyle::SharedFu)
        else {
            return Ok(());
        };
        let ctx = LintContext::new(&lib, clock)
            .with_binding(&binding)
            .with_schedule(&schedule.desc);
        let cfg = LintConfig::default();
        let before = analyze(&netlist, &ctx, &cfg);
        prop_assert!(!before.has_deny(), "pre-rewrite netlist denies:\n{}", before.render());

        hls::nir::optimize(&mut netlist);
        let after = analyze(&netlist, &ctx, &cfg);

        // determinism: same module, same context, same report
        let again = analyze(&netlist, &ctx, &cfg);
        prop_assert_eq!(&after, &again);
        prop_assert_eq!(after.to_json(), again.to_json());

        // monotonicity: rewrites only fold and remove, so no lint may
        // fire more often than before
        let (nb, na) = (before.counts(), after.counts());
        for (i, lint) in Lint::ALL.iter().enumerate() {
            prop_assert!(
                na[i] <= nb[i],
                "{} rose from {} to {}:\nbefore:\n{}\nafter:\n{}",
                lint.name(), nb[i], na[i], before.render(), after.render()
            );
        }
    }

    /// `optimize_timed()` never worsens WNS, is deterministic, stays
    /// bit-exact against the reference interpreter, and does not touch
    /// netlists that already meet the clock — across sequential/pipelined
    /// schedules and SharedFu/PerOp lowering styles.
    #[test]
    fn optimize_timed_is_monotone_deterministic_and_bit_exact(
        class in class_strategy(),
        ops in 40usize..100,
        seed in 0u64..1000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let body = synthetic_design(class, ops, seed);
        let lib = TechLibrary::artisan_90nm_typical();
        let clock = ClockConstraint::from_period_ps(1800.0);
        let config = if pipelined {
            SchedulerConfig::pipelined(clock, 2, 32)
        } else {
            SchedulerConfig::sequential(clock, 1, 32)
        };
        let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
            return Ok(());
        };
        let Ok(binding) = hls::bind::bind(&body, &schedule.desc) else {
            return Ok(());
        };
        let style = if shared {
            hls::bind::RtlStyle::SharedFu
        } else {
            hls::bind::RtlStyle::PerOp
        };
        let Ok(mut netlist) = hls::bind::lower(&body, &schedule.desc, &binding, style) else {
            return Ok(());
        };
        hls::nir::optimize(&mut netlist);

        // A clock loose enough that every slack is positive: zero churn.
        let loose = ClockConstraint::from_period_ps(20_000.0);
        let mut clean = netlist.clone();
        let untouched = optimize_timed(&mut clean, &lib, loose);
        prop_assert!(!untouched.changed());
        prop_assert_eq!(&clean, &netlist);

        // A clock tight enough that most instances fail somewhere: the
        // loop must never lose slack, whatever it finds.
        let tight = ClockConstraint::from_period_ps(900.0);
        let mut a = netlist.clone();
        let ra = optimize_timed(&mut a, &lib, tight);
        prop_assert!(
            ra.after.wns_ps >= ra.before.wns_ps,
            "WNS worsened: {} -> {}", ra.before.wns_ps, ra.after.wns_ps
        );
        hls::nir::validate(&a)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: post-timed: {e}")))?;

        // determinism: a second run from the same input is identical
        let mut b = netlist.clone();
        let rb = optimize_timed(&mut b, &lib, tight);
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(&a, &b);

        // bit-exactness whenever anything was rewritten
        if ra.changed() {
            differential::random_check_nir(&body, &a, 30, seed)
                .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
        }
    }
}
