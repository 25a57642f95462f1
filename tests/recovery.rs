//! Graceful degradation: the recovery ladder turns hard failures into
//! degraded-but-reported results, records every rung it walks, and fails
//! with the full trace when it runs out of rungs.

use hls::lint::{Lint, LintConfig};
use hls::sched::SchedError;
use hls::{designs, RecoveryAction, RecoveryPolicy, SynthesisError, Synthesizer};
use std::error::Error;

/// The idct8 row design at a clock 45 ps below what its multipliers can
/// meet: scheduling is infeasible at any latency.
fn infeasible_idct8() -> Synthesizer {
    Synthesizer::from_body(hls::explore::idct8_design())
        .clock_ps(1200.0)
        .latency_bounds(1, 16)
}

#[test]
fn recovery_is_off_by_default() {
    let err = infeasible_idct8()
        .lint_config(LintConfig::deny_timing())
        .run()
        .unwrap_err();
    match err {
        SynthesisError::Scheduling(SchedError::Overconstrained { worst_slack_ps, .. }) => {
            assert!(
                worst_slack_ps < 0.0,
                "slack-driven failure reports its shortfall: {worst_slack_ps}"
            );
        }
        other => panic!("expected a scheduling error, got: {other}"),
    }
}

#[test]
fn idct8_at_an_infeasible_clock_degrades_through_the_full_ladder() {
    let result = infeasible_idct8()
        .lint_config(LintConfig::deny_timing())
        .recover(RecoveryPolicy::standard())
        .run()
        .expect("the ladder must reach a reported result");

    // the full escalation sequence, in order: latency relaxation (does not
    // help a slack-driven failure), clock stretch (makes it schedulable),
    // extra timed-rewrite rounds (cannot fix a single-op path), acceptance
    assert_eq!(result.recovery.len(), 4, "trace: {:?}", result.recovery);
    assert!(
        matches!(
            result.recovery[0].action,
            RecoveryAction::RelaxLatency { .. }
        ),
        "{:?}",
        result.recovery[0]
    );
    assert!(
        matches!(
            result.recovery[1].action,
            RecoveryAction::StretchClock { from_ps, to_ps }
                if from_ps == 1200.0 && to_ps > from_ps
        ),
        "{:?}",
        result.recovery[1]
    );
    assert!(
        matches!(
            result.recovery[2].action,
            RecoveryAction::ExtraTimedRounds { rounds } if rounds > hls::lint::MAX_ROUNDS
        ),
        "{:?}",
        result.recovery[2]
    );
    assert!(
        matches!(result.recovery[3].action, RecoveryAction::AcceptDegraded),
        "{:?}",
        result.recovery[3]
    );
    // every step records which attempt failed and why
    for (i, step) in result.recovery.iter().enumerate() {
        assert_eq!(step.attempt, i as u32 + 1);
        assert!(!step.trigger.is_empty());
    }

    // the result is degraded and says so honestly: the deny-level setup
    // violation is kept in the report, the STA shows the miss, and the RTL
    // still exists
    assert!(result.degraded);
    assert!(
        !result.recovery.is_empty(),
        "degraded implies a walked ladder"
    );
    assert!(result.lint.deny_count() >= 1, "{}", result.lint.render());
    assert!(result.lint.count_of(Lint::SetupViolation) >= 1);
    let wns = result.lint.timing.as_ref().expect("timing summary").wns_ps;
    assert!(wns < 0.0, "the requested clock is reported missed: {wns}");
    assert!(result.rtl.contains("module"));
    assert!(result.area > 0.0);
}

#[test]
fn a_stretched_clock_marks_the_result_degraded_even_without_denies() {
    // default lint config: setup violations are warn-level, so the
    // stretched run returns Ok on its own — but it must still be flagged,
    // or the stretch would be a silent re-target
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(600.0)
        .latency_bounds(1, 2)
        .recover(RecoveryPolicy::standard())
        .run()
        .expect("recoverable");
    assert!(result.degraded);
    assert_eq!(result.lint.deny_count(), 0);
    assert!(
        result
            .recovery
            .iter()
            .any(|s| matches!(s.action, RecoveryAction::StretchClock { .. })),
        "{:?}",
        result.recovery
    );
    let wns = result.lint.timing.as_ref().expect("timing summary").wns_ps;
    assert!(
        wns < 0.0,
        "signoff still reports the requested clock: {wns}"
    );
}

#[test]
fn a_feasible_run_with_recovery_armed_takes_no_steps() {
    let result = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .recover(RecoveryPolicy::standard())
        .run()
        .expect("feasible");
    assert!(result.recovery.is_empty());
    assert!(!result.degraded);
}

#[test]
fn an_exhausted_ladder_reports_the_full_trace() {
    // only the latency rung is armed; it cannot fix a slack-driven failure
    let policy = RecoveryPolicy {
        max_retries: 1,
        latency_headroom: 8,
        ..RecoveryPolicy::disabled()
    };
    let err = infeasible_idct8()
        .lint_config(LintConfig::deny_timing())
        .recover(policy)
        .run()
        .unwrap_err();
    match &err {
        SynthesisError::RecoveryExhausted {
            attempts,
            trace,
            last,
        } => {
            assert_eq!(*attempts, 2);
            assert_eq!(trace.len(), 1);
            assert!(matches!(
                trace[0].action,
                RecoveryAction::RelaxLatency { from: 16, to: 24 }
            ));
            assert!(matches!(**last, SynthesisError::Scheduling(_)), "{last}");
        }
        other => panic!("expected RecoveryExhausted, got: {other}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("recovery exhausted after 2 attempt(s)"),
        "{text}"
    );
    assert!(text.contains("relax latency bound 16 -> 24"), "{text}");
}

#[test]
fn error_sources_chain_through_the_stack() {
    // a plain scheduling failure: SynthesisError -> SchedError
    let err = infeasible_idct8().run().unwrap_err();
    let source = err.source().expect("scheduling errors carry a source");
    assert!(source.is::<SchedError>(), "{source}");

    // an exhausted ladder: RecoveryExhausted -> last SynthesisError -> SchedError
    let policy = RecoveryPolicy {
        max_retries: 1,
        latency_headroom: 8,
        ..RecoveryPolicy::disabled()
    };
    let err = infeasible_idct8().recover(policy).run().unwrap_err();
    let mut depth = 0;
    let mut cursor: &dyn Error = &err;
    while let Some(next) = cursor.source() {
        depth += 1;
        cursor = next;
    }
    assert!(
        depth >= 2,
        "RecoveryExhausted chains through the failing attempt: depth {depth}"
    );
}
