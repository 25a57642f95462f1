//! A single scheduling pass: simultaneous scheduling and binding over the
//! control steps of the loop body (Figure 7 of the paper).
//!
//! The pass algorithm lives in the dense `engine` module, which the
//! multi-pass [`Scheduler`](crate::scheduler::Scheduler) drives
//! *incrementally*. The functions here build a fresh engine and run one
//! pass from scratch; [`Scheduler::run_reference`] does that after every
//! relaxation action and is the oracle the incremental driver is checked
//! against.
//!
//! [`Scheduler::run_reference`]: crate::scheduler::Scheduler::run_reference

use crate::config::SchedulerConfig;
use crate::engine::{Engine, EngineOutcome, Work};
use crate::region::RegionPlan;
use crate::relax::Restraint;
use hls_ir::analysis::Scc;
use hls_ir::{LinearBody, OpId};
use hls_netlist::ScheduleDesc;
use hls_tech::{ResourceInstanceId, ResourceSet, TechLibrary};
use std::collections::{HashMap, HashSet};

/// Everything a pass needs, borrowed from the multi-pass driver.
pub struct PassInput<'a> {
    /// The loop body to schedule.
    pub body: &'a LinearBody,
    /// Technology library.
    pub lib: &'a TechLibrary,
    /// Scheduler configuration.
    pub config: &'a SchedulerConfig,
    /// Latency (number of states) to schedule into.
    pub latency: u32,
    /// Allocated resources.
    pub resources: &'a ResourceSet,
    /// Bindings forbidden by earlier relaxation actions.
    pub forbidden: &'a HashSet<(OpId, ResourceInstanceId)>,
    /// Stage overrides per SCC index (from `MoveScc` actions).
    pub scc_stage: &'a HashMap<usize, u32>,
    /// The strongly connected components of the body's DFG.
    pub sccs: &'a [Scc],
}

/// The failure report of a pass.
#[derive(Clone, Debug, Default)]
pub struct PassFailure {
    /// Restraints recorded for the operations that could not be placed,
    /// counted: per op, one entry per distinct busy type or slack value.
    pub restraints: Vec<Restraint>,
    /// Operations that could not be placed.
    pub failed_ops: Vec<OpId>,
}

/// Result of one pass.
#[derive(Clone, Debug)]
pub enum PassOutcome {
    /// The pass placed every operation.
    Success {
        /// The resulting schedule.
        desc: ScheduleDesc,
        /// Worst register-to-register slack over all bound paths, ps.
        min_slack_ps: f64,
    },
    /// The pass failed; the restraints drive relaxation.
    Failure(PassFailure),
}

/// Runs one scheduling pass, from scratch, and returns it with its work
/// counters.
pub(crate) fn schedule_pass_counted(input: &PassInput<'_>) -> (PassOutcome, Work) {
    let plan = RegionPlan::trivial(input.body.dfg.num_ops());
    schedule_pass_in_regions(input, &plan, &vec![0; input.resources.len()])
}

/// Runs one scheduling pass from scratch over a region decomposition and
/// returns it with its work counters. `inst_region` names the region
/// owning each instance of `input.resources`, in instance-id order.
pub(crate) fn schedule_pass_in_regions(
    input: &PassInput<'_>,
    plan: &RegionPlan,
    inst_region: &[u32],
) -> (PassOutcome, Work) {
    let mut engine = Engine::init(
        input.body,
        input.lib,
        input.config,
        input.sccs,
        plan.clone(),
        input.resources.clone(),
        inst_region.to_vec(),
        input.latency,
    );
    engine.seed_inputs(
        input.forbidden.iter().copied(),
        input.scc_stage.iter().map(|(&scc, &stage)| (scc, stage)),
    );
    let outcome = engine.run_pass();
    let work = engine.work();
    let outcome = match outcome {
        EngineOutcome::Success { min_slack_ps } => PassOutcome::Success {
            desc: engine.into_desc(),
            min_slack_ps,
        },
        EngineOutcome::Failure(failure) => PassOutcome::Failure(failure),
    };
    (outcome, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::initial_resource_set;
    use hls_frontend::designs;
    use hls_ir::OpKind;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_tech::ClockConstraint;

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn run_pass(
        body: &LinearBody,
        latency: u32,
        config: &SchedulerConfig,
        resources: &ResourceSet,
    ) -> PassOutcome {
        let lib = TechLibrary::artisan_90nm_typical();
        let sccs = hls_ir::analysis::sccs(&body.dfg);
        let input = PassInput {
            body,
            lib: &lib,
            config,
            latency,
            resources,
            forbidden: &HashSet::new(),
            scc_stage: &HashMap::new(),
            sccs: &sccs,
        };
        schedule_pass_counted(&input).0
    }

    #[test]
    fn example1_fails_at_latency_one() {
        // The paper: with one state and one multiplier the pass fails on
        // resource contention and the gt negative slack.
        let body = example1();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
        let resources = initial_resource_set(&body, 3);
        match run_pass(&body, 1, &config, &resources) {
            PassOutcome::Failure(f) => {
                assert!(!f.restraints.is_empty());
                let has_contention = f
                    .restraints
                    .iter()
                    .any(|r| matches!(r, Restraint::ResourceContention { .. }));
                let has_slack = f
                    .restraints
                    .iter()
                    .any(|r| matches!(r, Restraint::NegativeSlack { .. }));
                assert!(has_contention, "{:?}", f.restraints);
                assert!(has_slack, "{:?}", f.restraints);
            }
            PassOutcome::Success { .. } => panic!("latency 1 must not be schedulable"),
        }
    }

    #[test]
    fn a_forbidden_instance_past_the_resource_set_is_never_matched() {
        let body = example1();
        let lib = TechLibrary::artisan_90nm_typical();
        let sccs = hls_ir::analysis::sccs(&body.dfg);
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
        let resources = initial_resource_set(&body, 3);
        let (mul, _) = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Mul))
            .expect("Example 1 multiplies");
        let past: HashSet<(OpId, ResourceInstanceId)> = [resources.len() as u32, u32::MAX]
            .into_iter()
            .map(|id| (mul, ResourceInstanceId(id)))
            .collect();
        // latency 1 fails and latency 3 schedules
        for latency in [1, 3] {
            let outcome = |forbidden: &HashSet<(OpId, ResourceInstanceId)>| {
                let input = PassInput {
                    body: &body,
                    lib: &lib,
                    config: &config,
                    latency,
                    resources: &resources,
                    forbidden,
                    scc_stage: &HashMap::new(),
                    sccs: &sccs,
                };
                format!("{:?}", schedule_pass_counted(&input).0)
            };
            assert_eq!(
                outcome(&past),
                outcome(&HashSet::new()),
                "latency {latency}"
            );
        }
    }

    #[test]
    fn example1_succeeds_at_latency_three() {
        let body = example1();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
        let resources = initial_resource_set(&body, 3);
        match run_pass(&body, 3, &config, &resources) {
            PassOutcome::Success { desc, min_slack_ps } => {
                assert_eq!(desc.num_states, 3);
                assert!(min_slack_ps >= 0.0);
                // the three multiplications land in three different states
                let mut mul_states: Vec<u32> = body
                    .dfg
                    .iter_ops()
                    .filter(|(_, op)| matches!(op.kind, OpKind::Mul))
                    .map(|(id, _)| desc.state_of(id))
                    .collect();
                mul_states.sort_unstable();
                assert_eq!(
                    mul_states,
                    vec![0, 1, 2],
                    "one multiplication per state (Table 2)"
                );
            }
            PassOutcome::Failure(f) => panic!("latency 3 must schedule: {:?}", f.restraints),
        }
    }

    #[test]
    fn dependencies_are_respected() {
        let body = example1();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
        let resources = initial_resource_set(&body, 3);
        if let PassOutcome::Success { desc, .. } = run_pass(&body, 3, &config, &resources) {
            for dep in body.dfg.data_deps() {
                if dep.distance == 0 {
                    assert!(
                        desc.state_of(dep.from) <= desc.state_of(dep.to),
                        "dependence {dep:?} violated"
                    );
                }
            }
        } else {
            panic!("expected success");
        }
    }

    #[test]
    fn no_resource_is_double_booked_in_a_state() {
        let body = example1();
        let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
        let resources = initial_resource_set(&body, 3);
        if let PassOutcome::Success { desc, .. } = run_pass(&body, 3, &config, &resources) {
            let mut seen: HashMap<(u32, u32), OpId> = HashMap::new();
            for (id, s) in &desc.ops {
                if let Some(r) = s.resource {
                    if let Some(prev) = seen.insert((r.0, s.state), *id) {
                        let p1 = &body.dfg.op(prev).predicate;
                        let p2 = &body.dfg.op(*id).predicate;
                        assert!(
                            p1.mutually_exclusive(p2),
                            "{prev} and {id} share {r:?} in state {}",
                            s.state
                        );
                    }
                }
            }
        } else {
            panic!("expected success");
        }
    }

    #[test]
    fn pipelined_ii2_respects_edge_equivalence() {
        let body = example1();
        let config = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 2, 6);
        let resources = initial_resource_set(&body, 2);
        if let PassOutcome::Success { desc, .. } = run_pass(&body, 3, &config, &resources) {
            // equivalent states are s1 and s3 (II=2): no resource may appear in both
            let mut folded: HashMap<(u32, u32), Vec<OpId>> = HashMap::new();
            for (id, s) in &desc.ops {
                if let Some(r) = s.resource {
                    folded.entry((r.0, s.state % 2)).or_default().push(*id);
                }
            }
            for ((_, _), ops) in folded {
                for i in 0..ops.len() {
                    for j in (i + 1)..ops.len() {
                        let a = &body.dfg.op(ops[i]).predicate;
                        let b = &body.dfg.op(ops[j]).predicate;
                        assert!(
                            a.mutually_exclusive(b),
                            "ops {:?} share a folded slot",
                            (ops[i], ops[j])
                        );
                    }
                }
            }
        } else {
            panic!("II=2 LI=3 must schedule (paper Example 2)");
        }
    }
}
