//! Graceful degradation: the recovery policy and the escalation ladder the
//! [`Synthesizer`](crate::Synthesizer) walks when a run fails recoverably.
//!
//! By default recovery is [disabled](RecoveryPolicy::disabled): the flow
//! fails fast on the first error, exactly as it always has. Opting in via
//! [`Synthesizer::recover`](crate::Synthesizer::recover) arms a bounded
//! retry loop that reacts to two — and only two — failure families:
//!
//! * **Scheduling failures** (`Overconstrained` / `BudgetExhausted`): the
//!   latency bound is relaxed once by
//!   [`RecoveryPolicy::latency_headroom`] extra states; a slack-driven
//!   over-constraint (an operation that cannot meet the clock at any
//!   latency) then stretches the *scheduling* clock by exactly the reported
//!   worst negative slack ([`RecoveryPolicy::allow_clock_stretch`]) while
//!   timing signoff keeps the requested clock, so the resulting setup
//!   violations stay visible in the report; and a pipelined request backs
//!   off its initiation interval by one cycle per attempt
//!   ([`RecoveryPolicy::allow_ii_fallback`]). An initiation interval of 0
//!   is refused as `InfeasibleIi { requested: 0, minimum: 1 }` before any
//!   attempt, and is never retried.
//! * **Timing-only lint denies** (`setup-violation` /
//!   `rewrite-round-limit` findings, nothing else at deny level): the
//!   timing-driven rewrite loop is re-run once with
//!   [`RecoveryPolicy::extra_timed_rounds`] extra rounds, and if the clock
//!   still cannot be met the run is *accepted degraded*
//!   ([`RecoveryPolicy::allow_degraded`]): it returns `Ok` with the deny
//!   findings kept in the report and
//!   [`SynthesisResult::degraded`](crate::SynthesisResult::degraded) set.
//!
//! Everything else — structural lint denies, validation, binding, lowering,
//! folding or differential-verification failures — is never recovered from:
//! those indicate broken hardware, and hiding them behind a retry would be
//! the opposite of robustness. Every step taken is recorded as a
//! [`RecoveryStep`] in
//! [`SynthesisResult::recovery`](crate::SynthesisResult::recovery), and a
//! ladder that runs out of rungs fails with
//! [`SynthesisError::RecoveryExhausted`](crate::SynthesisError::RecoveryExhausted)
//! carrying the full trace.

use std::fmt;

/// Bounds and switches of the escalation ladder. Construct via
/// [`disabled`](RecoveryPolicy::disabled) (the default) or
/// [`standard`](RecoveryPolicy::standard) and adjust fields as needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total recovery steps allowed before the run fails with
    /// `RecoveryExhausted`. 0 disables recovery entirely.
    pub max_retries: u32,
    /// Extra rounds granted to the timing-driven rewrite loop when a
    /// timing-only deny triggers [`RecoveryAction::ExtraTimedRounds`]
    /// (on top of the default `hls_lint::MAX_ROUNDS` budget). 0 skips
    /// this rung.
    pub extra_timed_rounds: usize,
    /// Extra schedule states granted when a scheduling failure triggers
    /// [`RecoveryAction::RelaxLatency`] (applied once). 0 skips this rung.
    pub latency_headroom: u32,
    /// Whether a pipelined run may back off its initiation interval by one
    /// cycle per attempt when the latency relaxation was not enough.
    pub allow_ii_fallback: bool,
    /// Whether a slack-driven over-constraint (an operation that cannot
    /// meet the clock at any latency) may stretch the *scheduling* clock by
    /// the reported worst negative slack
    /// ([`RecoveryAction::StretchClock`]). Timing signoff — the timed
    /// rewrite loop and the lint/STA gate — keeps the originally requested
    /// clock, so the stretch trades a hard failure for a result with
    /// honest, visible setup violations (which still need
    /// [`allow_degraded`](RecoveryPolicy::allow_degraded) to be accepted).
    pub allow_clock_stretch: bool,
    /// Whether a run whose only deny-level findings are timing-level may be
    /// returned `Ok` with [`SynthesisResult::degraded`]
    /// (crate::SynthesisResult::degraded) set instead of failing.
    pub allow_degraded: bool,
}

impl RecoveryPolicy {
    /// No recovery: fail fast on the first error (the default).
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            extra_timed_rounds: 0,
            latency_headroom: 0,
            allow_ii_fallback: false,
            allow_clock_stretch: false,
            allow_degraded: false,
        }
    }

    /// The full ladder: up to 4 recovery steps, one extra `MAX_ROUNDS`-sized
    /// rewrite budget, 8 states of latency headroom, II fallback, clock
    /// stretching and degraded acceptance all armed.
    pub fn standard() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            extra_timed_rounds: hls_lint::MAX_ROUNDS,
            latency_headroom: 8,
            allow_ii_fallback: true,
            allow_clock_stretch: true,
            allow_degraded: true,
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::disabled()
    }
}

/// One rung of the escalation ladder.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryAction {
    /// Re-run the timing-driven rewrite loop with a larger round budget.
    ExtraTimedRounds {
        /// The new total round budget.
        rounds: usize,
    },
    /// Raise the scheduler's latency bound.
    RelaxLatency {
        /// The bound that failed.
        from: u32,
        /// The relaxed bound.
        to: u32,
    },
    /// Back off a pipelined run's initiation interval.
    RelaxIi {
        /// The II that failed.
        from: u32,
        /// The relaxed II.
        to: u32,
    },
    /// Stretch the clock the *scheduler* works against by the worst
    /// reported negative slack, so the design becomes schedulable. Timing
    /// signoff (timed rewrites, lint/STA) keeps the originally requested
    /// clock: the stretch produces a real netlist with honestly reported
    /// setup violations instead of no netlist at all.
    StretchClock {
        /// The scheduling clock that failed, picoseconds.
        from_ps: f64,
        /// The stretched scheduling clock, picoseconds.
        to_ps: f64,
    },
    /// Stop fighting: return the result with its timing-level deny findings
    /// kept in the report and `degraded` set.
    AcceptDegraded,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::ExtraTimedRounds { rounds } => {
                write!(f, "re-run timed rewrites with a {rounds}-round budget")
            }
            RecoveryAction::RelaxLatency { from, to } => {
                write!(f, "relax latency bound {from} -> {to}")
            }
            RecoveryAction::RelaxIi { from, to } => {
                write!(f, "relax initiation interval {from} -> {to}")
            }
            RecoveryAction::StretchClock { from_ps, to_ps } => {
                write!(
                    f,
                    "stretch scheduling clock {from_ps:.0} ps -> {to_ps:.0} ps \
                     (signoff keeps the requested clock)"
                )
            }
            RecoveryAction::AcceptDegraded => f.write_str("accept degraded result"),
        }
    }
}

/// One recorded step of the recovery trace: which attempt failed, how, and
/// what the ladder did about it.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryStep {
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Rendering of the error that triggered the step.
    pub trigger: String,
    /// The action taken before the next attempt.
    pub action: RecoveryAction,
}

impl fmt::Display for RecoveryStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attempt {}: {} => {}",
            self.attempt, self.trigger, self.action
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_policy_is_fail_fast() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::disabled());
        assert_eq!(RecoveryPolicy::disabled().max_retries, 0);
        let standard = RecoveryPolicy::standard();
        assert!(standard.max_retries > 0);
        assert!(standard.allow_degraded);
    }

    #[test]
    fn steps_render_attempt_trigger_and_action() {
        let step = RecoveryStep {
            attempt: 2,
            trigger: "scheduler: over-constrained".into(),
            action: RecoveryAction::RelaxIi { from: 2, to: 3 },
        };
        let text = step.to_string();
        assert!(text.contains("attempt 2"), "{text}");
        assert!(text.contains("over-constrained"), "{text}");
        assert!(text.contains("2 -> 3"), "{text}");
    }
}
