//! Error type of the scheduler.

use std::error::Error;
use std::fmt;

/// Errors reported by the scheduler.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// The specification is over-constrained: no sequence of relaxation
    /// actions within the configured bounds produced a feasible schedule.
    Overconstrained {
        /// Latency reached when the scheduler gave up.
        latency: u32,
        /// Number of scheduling passes executed.
        passes: u32,
        /// Human-readable diagnostics: the outstanding restraints, one per
        /// counted restraint (`(×N)` marks one that counts N instances).
        details: String,
        /// The most negative per-operation slack among the outstanding
        /// restraints, in picoseconds — how far the worst operation missed
        /// the clock. `0.0` when the failure is not slack-driven (resource
        /// contention, SCC windows). A caller that wants to *degrade*
        /// instead of fail can re-run with the clock stretched by this
        /// amount.
        worst_slack_ps: f64,
    },
    /// The loop body failed validation before scheduling.
    InvalidBody {
        /// The underlying error rendering.
        message: String,
    },
    /// The requested initiation interval is below the smallest one the
    /// flow accepts. `Synthesizer` reports an initiation interval of 0 this
    /// way, with minimum 1, before it schedules anything; no lower bound
    /// from the loop's recurrences is computed.
    InfeasibleIi {
        /// Requested initiation interval.
        requested: u32,
        /// The smallest initiation interval accepted.
        minimum: u32,
    },
    /// The pass-count budget
    /// ([`SchedulerConfig::max_passes`](crate::SchedulerConfig::max_passes))
    /// ran out while the relaxation loop still had applicable actions.
    /// Unlike [`SchedError::Overconstrained`] this is not a verdict on the spec —
    /// it is a guard against unbounded iteration, and it carries the partial
    /// diagnostics of the last failed pass so the caller can see where the
    /// search stood when it was cut off.
    BudgetExhausted {
        /// Which budget ran out (e.g. `"64 scheduling passes"`).
        budget: String,
        /// Latency reached when the budget ran out.
        latency: u32,
        /// Number of scheduling passes executed.
        passes: u32,
        /// Outstanding restraints of the last failed pass, rendered one
        /// string per counted restraint.
        restraints: Vec<String>,
        /// Relaxation actions applied before the budget ran out, rendered.
        /// The message shows each run of equal consecutive actions once,
        /// with its length (`add state ×23`).
        actions: Vec<String>,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Overconstrained { latency, passes, details, .. } => write!(
                f,
                "specification is overconstrained (gave up at latency {latency} after {passes} passes): {details}"
            ),
            SchedError::InvalidBody { message } => write!(f, "invalid loop body: {message}"),
            SchedError::InfeasibleIi { requested, minimum } => write!(
                f,
                "initiation interval {requested} is below the minimum {minimum}"
            ),
            SchedError::BudgetExhausted {
                budget,
                latency,
                passes,
                restraints,
                actions,
            } => {
                write!(
                    f,
                    "scheduling budget exhausted ({budget}) at latency {latency} after {passes} pass(es)"
                )?;
                if !restraints.is_empty() {
                    write!(f, "; outstanding: {}", restraints.join("; "))?;
                }
                if !actions.is_empty() {
                    f.write_str("; applied: ")?;
                    write_runs(f, actions)?;
                }
                Ok(())
            }
        }
    }
}

/// Writes `items` separated by commas, each run of equal consecutive items
/// once and, when it is longer than one, followed by its length.
fn write_runs(f: &mut fmt::Formatter<'_>, items: &[String]) -> fmt::Result {
    let mut rest = items;
    while let Some(head) = rest.first() {
        let run = rest.iter().take_while(|item| *item == head).count();
        f.write_str(head)?;
        if run > 1 {
            write!(f, " ×{run}")?;
        }
        rest = &rest[run..];
        if !rest.is_empty() {
            f.write_str(", ")?;
        }
    }
    Ok(())
}

impl Error for SchedError {}

impl From<hls_ir::IrError> for SchedError {
    fn from(e: hls_ir::IrError) -> Self {
        SchedError::InvalidBody {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::Restraint;

    #[test]
    fn display_nonempty() {
        let e = SchedError::Overconstrained {
            latency: 3,
            passes: 7,
            details: "x".into(),
            worst_slack_ps: -45.0,
        };
        assert!(e.to_string().contains("overconstrained"));
        let e = SchedError::InfeasibleIi {
            requested: 1,
            minimum: 3,
        };
        assert!(e.to_string().contains("minimum 3"));
    }

    #[test]
    fn budget_exhausted_renders_partial_diagnostics() {
        let op = hls_ir::OpId::from_raw(7);
        let mul = hls_tech::ResourceType::binary(hls_tech::ResourceClass::Multiplier, 32, 32, 32);
        let restraints = [
            Restraint::ResourceContention {
                op,
                ty: mul,
                instances: 12,
            },
            Restraint::NegativeSlack {
                op,
                slack_ps: -150.0,
                instances: 1,
            },
        ];
        let e = SchedError::BudgetExhausted {
            budget: "2 scheduling passes".into(),
            latency: 4,
            passes: 2,
            restraints: restraints.iter().map(|r| r.to_string()).collect(),
            actions: vec!["add state".into()],
        };
        let s = e.to_string();
        assert!(s.contains("budget exhausted"), "{s}");
        // twelve busy instances render once, with their count
        assert_eq!(
            s.matches("no free mul_32x32 instance for op7").count(),
            1,
            "{s}"
        );
        assert!(
            s.contains("no free mul_32x32 instance for op7 (×12)"),
            "{s}"
        );
        // a single instance carries no count
        assert!(s.contains("negative slack of -150 ps on op7; "), "{s}");
        assert!(s.ends_with("; applied: add state"), "{s}");
    }

    #[test]
    fn budget_exhausted_renders_each_run_of_equal_actions_once() {
        let actions: Vec<String> = [
            "add state",
            "add state",
            "add resource mul_32x32",
            "add state",
            "add state",
            "add state",
            "move SCC #0 to the next stage",
        ]
        .map(String::from)
        .to_vec();
        let e = SchedError::BudgetExhausted {
            budget: "64 scheduling passes".into(),
            latency: 8,
            passes: 64,
            restraints: Vec::new(),
            actions: actions.clone(),
        };
        assert_eq!(
            e.to_string(),
            "scheduling budget exhausted (64 scheduling passes) at latency 8 after 64 pass(es); \
             applied: add state ×2, add resource mul_32x32, add state ×3, \
             move SCC #0 to the next stage"
        );
        // the field keeps every action
        assert!(matches!(e, SchedError::BudgetExhausted { actions: a, .. } if a == actions));
    }
}
