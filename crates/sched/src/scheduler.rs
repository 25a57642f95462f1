//! The multi-pass scheduling driver: run a pass, and when it fails let the
//! relaxation expert system pick a corrective action and try again.
//!
//! [`Scheduler::run`] drives the dense engine *incrementally*: the pass
//! state persists across relaxation actions and each re-pass resumes from
//! the earliest control step the action can influence instead of
//! rescheduling every operation. [`Scheduler::run_reference`] is the same
//! engine built afresh for every pass, with its own relaxation
//! bookkeeping; the schedule-equivalence suite asserts the two agree bit
//! for bit.

use crate::config::SchedulerConfig;
use crate::engine::{Engine, EngineOutcome, Work};
use crate::error::SchedError;
use crate::pass::{schedule_pass_counted, schedule_pass_in_regions, PassInput, PassOutcome};
use crate::region::{batch_owner_regions, owner_region, plan_resources, RegionPlan};
use crate::relax::{choose_action, worst_negative_slack, RelaxAction, Restraint};
use crate::resources::initial_resource_set;
use hls_ir::analysis::{sccs, Scc};
use hls_ir::{LinearBody, OpId, PinnedState, StateIdx};
use hls_netlist::ScheduleDesc;
use hls_tech::{ResourceInstanceId, TechLibrary};
use std::collections::{HashMap, HashSet};

/// A successful scheduling result.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The schedule: states, bindings, resources, II.
    pub desc: ScheduleDesc,
    /// Achieved latency (LI for pipelined loops).
    pub latency: u32,
    /// Worst slack over all bound register-to-register paths, ps.
    pub min_slack_ps: f64,
    /// Number of scheduling passes executed.
    pub passes: u32,
    /// Relaxation actions applied, in order.
    pub actions: Vec<RelaxAction>,
    /// Control steps scheduled, summed over passes and regions: a re-pass
    /// counts only the steps it replays.
    pub steps_scheduled: u64,
    /// Placement attempts that reached the instance scan, summed over
    /// passes and regions.
    pub placement_attempts: u64,
}

impl Schedule {
    /// Effective cycles per iteration (II if pipelined, latency otherwise).
    pub fn cycles_per_iteration(&self) -> u32 {
        self.desc.cycles_per_iteration()
    }

    /// Clock cycle at which `op` fires for the given iteration, assuming
    /// back-to-back iterations — the replay contract the cycle-accurate
    /// simulator in `hls-sim` executes.
    pub fn fire_cycle(&self, op: OpId, iteration: u64) -> Option<u64> {
        self.desc.fire_cycle(op, iteration)
    }

    /// Renders the paper-style state × resource table (Table 2).
    pub fn table(&self, body: &LinearBody) -> String {
        self.desc.to_table(body)
    }
}

/// The multi-pass scheduler.
pub struct Scheduler<'a> {
    body: &'a LinearBody,
    lib: &'a TechLibrary,
    config: SchedulerConfig,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler for the given body, library and configuration.
    pub fn new(body: &'a LinearBody, lib: &'a TechLibrary, config: SchedulerConfig) -> Self {
        Scheduler { body, lib, config }
    }

    /// Runs scheduling passes until success or until no relaxation action is
    /// applicable.
    ///
    /// Re-passes are incremental: the engine persists the pass state, each
    /// relaxation action reports the earliest control step it can influence,
    /// and the next pass resumes there — producing the identical schedule a
    /// from-scratch re-pass would (see [`Scheduler::run_reference`]).
    ///
    /// # Errors
    /// Returns [`SchedError::InvalidBody`] if the body fails validation,
    /// [`SchedError::Overconstrained`] if the latency/resource bounds cannot
    /// accommodate the design at the requested clock, or
    /// [`SchedError::BudgetExhausted`] when the pass-count budget runs out
    /// with relaxation actions still applicable.
    pub fn run(&self) -> Result<Schedule, SchedError> {
        self.with_carried_reads_in_time(|s| s.run_incremental())
    }

    fn run_incremental(&self) -> Result<Schedule, SchedError> {
        self.body.validate()?;
        let components: Vec<Scc> = sccs(&self.body.dfg);

        let latency = self.config.min_latency.max(1);
        // The lower-bound resource estimate uses the *most generous* latency
        // the designer allows (the paper sizes Example 1 with "3 multiplies in
        // at most 3 states"), or the II for pipelined loops.
        let slots = self.config.ii_or(self.config.max_latency);
        // Without decomposition, one region owns everything.
        let plan = match self.config.region_decomposition {
            Some(opts) => RegionPlan::build(self.body, &components, opts.target_ops),
            None => RegionPlan::trivial(self.body.dfg.num_ops()),
        };
        let mut engine = Engine::new_with_plan(
            self.body,
            self.lib,
            &self.config,
            &components,
            plan,
            slots,
            latency,
        );
        let mut actions: Vec<RelaxAction> = Vec::new();
        // the last failed pass's restraints, rendered only into an error
        let mut last_restraints: Vec<Restraint> = Vec::new();

        for pass_no in 1..=self.config.max_passes {
            match engine.run_pass() {
                EngineOutcome::Success { min_slack_ps } => {
                    let latency = engine.latency;
                    let work = engine.work();
                    return Ok(Schedule {
                        desc: engine.into_desc(),
                        latency,
                        min_slack_ps,
                        passes: pass_no,
                        actions,
                        steps_scheduled: work.steps,
                        placement_attempts: work.attempts,
                    });
                }
                EngineOutcome::Failure(failure) => {
                    let scc_stage: Vec<u32> =
                        engine.scc_stage().iter().map(|s| s.unwrap_or(0)).collect();
                    let action = choose_action(
                        &failure.restraints,
                        &self.config,
                        self.lib,
                        engine.latency,
                        components.len(),
                        &scc_stage,
                        &failure.failed_ops,
                    );
                    let Some(action) = action else {
                        return Err(overconstrained(
                            engine.latency,
                            pass_no,
                            &failure.restraints,
                        ));
                    };
                    engine.apply(&action, &failure.restraints);
                    actions.push(action);
                    last_restraints = failure.restraints;
                }
            }
        }
        Err(budget_exhausted(
            format!("{} scheduling passes", self.config.max_passes),
            engine.latency,
            self.config.max_passes,
            &last_restraints,
            &actions,
        ))
    }

    /// The reference driver: after every relaxation action it builds a
    /// fresh engine and runs the whole pass from scratch, keeping its own
    /// relaxation bookkeeping (latency, resources and their owning regions,
    /// forbidden bindings, SCC stages) so the engine's incremental updates
    /// are checked independently. Quadratically slower than
    /// [`Scheduler::run`] on large designs; the schedule-equivalence suite
    /// asserts the two match bit for bit (latency, per-op state and
    /// binding, pass count, actions).
    ///
    /// # Errors
    /// Same contract as [`Scheduler::run`].
    pub fn run_reference(&self) -> Result<Schedule, SchedError> {
        self.with_carried_reads_in_time(|s| s.run_from_scratch())
    }

    fn run_from_scratch(&self) -> Result<Schedule, SchedError> {
        self.body.validate()?;
        let components: Vec<Scc> = sccs(&self.body.dfg);

        let mut latency = self.config.min_latency.max(1);
        let slots = self.config.ii_or(self.config.max_latency);
        // The plan and concatenated per-region pools the incremental engine
        // starts from; without decomposition, one region owns everything.
        let plan = match self.config.region_decomposition {
            Some(opts) => RegionPlan::build(self.body, &components, opts.target_ops),
            None => RegionPlan::trivial(self.body.dfg.num_ops()),
        };
        let (mut resources, mut inst_region) = plan_resources(self.body, &plan, slots);
        let mut forbidden: HashSet<(OpId, ResourceInstanceId)> = HashSet::new();
        let mut scc_stage: HashMap<usize, u32> = HashMap::new();
        let mut actions: Vec<RelaxAction> = Vec::new();
        let mut last_restraints: Vec<Restraint> = Vec::new();
        let mut work = Work::default();

        for pass_no in 1..=self.config.max_passes {
            let input = PassInput {
                body: self.body,
                lib: self.lib,
                config: &self.config,
                latency,
                resources: &resources,
                forbidden: &forbidden,
                scc_stage: &scc_stage,
                sccs: &components,
            };
            let (outcome, pass_work) = schedule_pass_in_regions(&input, &plan, &inst_region);
            work += pass_work;
            match outcome {
                PassOutcome::Success { desc, min_slack_ps } => {
                    return Ok(Schedule {
                        desc,
                        latency,
                        min_slack_ps,
                        passes: pass_no,
                        actions,
                        steps_scheduled: work.steps,
                        placement_attempts: work.attempts,
                    });
                }
                PassOutcome::Failure(failure) => {
                    let scc_stage_dense: Vec<u32> = (0..components.len())
                        .map(|i| scc_stage.get(&i).copied().unwrap_or(0))
                        .collect();
                    let action = choose_action(
                        &failure.restraints,
                        &self.config,
                        self.lib,
                        latency,
                        components.len(),
                        &scc_stage_dense,
                        &failure.failed_ops,
                    );
                    let Some(action) = action else {
                        return Err(overconstrained(latency, pass_no, &failure.restraints));
                    };
                    match &action {
                        RelaxAction::AddState => latency += 1,
                        RelaxAction::AddResource(ty) => {
                            resources.add(ty.clone());
                            inst_region.push(owner_region(
                                &failure.restraints,
                                ty,
                                &plan.region_of,
                            ));
                        }
                        RelaxAction::AddResourceBatch { ty, count } => {
                            for owner in batch_owner_regions(
                                &failure.restraints,
                                ty,
                                *count,
                                &plan.region_of,
                            ) {
                                resources.add(ty.clone());
                                inst_region.push(owner);
                            }
                        }
                        RelaxAction::MoveScc { scc_index } => {
                            *scc_stage.entry(*scc_index).or_insert(0) += 1;
                        }
                        RelaxAction::ForbidBinding { op, resource } => {
                            forbidden.insert((*op, *resource));
                        }
                    }
                    actions.push(action);
                    last_restraints = failure.restraints;
                }
            }
        }
        Err(budget_exhausted(
            format!("{} scheduling passes", self.config.max_passes),
            latency,
            self.config.max_passes,
            &last_restraints,
            &actions,
        ))
    }

    /// Runs `driver`, then makes every loop-carried read of the pipelined
    /// schedule causal. An SCC window keeps a recurrence's ops within II
    /// states of each other, but nothing else keeps an op that reads a
    /// value `d` iterations back from being placed `d × II` or more states
    /// before the value's producer, which no register can bridge. Each such
    /// consumer is pinned at or after the first state that can read the
    /// value, and the driver runs again on the pinned body. A pin only
    /// rises, so this ends in a causal schedule or an error; a run without
    /// such a read returns the driver's result unchanged.
    fn with_carried_reads_in_time(
        &self,
        driver: fn(&Scheduler<'_>) -> Result<Schedule, SchedError>,
    ) -> Result<Schedule, SchedError> {
        let mut schedule = driver(self)?;
        let mut pinned: Option<LinearBody> = None;
        loop {
            let body = pinned.as_ref().unwrap_or(self.body);
            let early = early_carried_reads(body, &schedule.desc);
            if early.is_empty() {
                return Ok(schedule);
            }
            let mut body = body.clone();
            for &(consumer, producer, first) in &early {
                match body.pin_of(consumer) {
                    Some(PinnedState::Exact(_)) => {
                        return Err(SchedError::Overconstrained {
                            latency: schedule.latency,
                            passes: schedule.passes,
                            details: format!(
                                "{consumer} is pinned to a state that reads {producer} \
                                 before it is computed"
                            ),
                            worst_slack_ps: 0.0,
                        })
                    }
                    _ => {
                        body.pins
                            .insert(consumer, PinnedState::AtOrAfter(StateIdx::new(first)));
                    }
                }
            }
            let body = pinned.insert(body);
            schedule = driver(&Scheduler::new(body, self.lib, self.config.clone()))?;
        }
    }
}

/// The `(consumer, producer, first state)` of every loop-carried read that
/// a pipelined schedule places before its value exists: the consumer reads
/// the producer's value `d` iterations back in a state earlier than the
/// producer's state + 1 − `d` × II, the first state it could read it in.
fn early_carried_reads(body: &LinearBody, desc: &ScheduleDesc) -> Vec<(OpId, OpId, u32)> {
    let Some(ii) = desc.ii else {
        return Vec::new();
    };
    let mut early = Vec::new();
    for (consumer, op) in body.dfg.iter_ops() {
        let at = desc.state_of(consumer);
        for sig in op.inputs.iter().filter(|sig| sig.distance > 0) {
            let Some(producer) = sig.producer() else {
                continue;
            };
            let first =
                (desc.state_of(producer) + 1).saturating_sub(sig.distance.saturating_mul(ii));
            if at < first {
                early.push((consumer, producer, first));
            }
        }
    }
    early
}

/// Builds the [`SchedError::Overconstrained`] verdict shared by both
/// drivers from the failed pass's restraints, one rendered entry per
/// counted restraint.
fn overconstrained(latency: u32, passes: u32, restraints: &[Restraint]) -> SchedError {
    let details: Vec<String> = restraints.iter().map(Restraint::to_string).collect();
    SchedError::Overconstrained {
        latency,
        passes,
        details: details.join("; "),
        worst_slack_ps: worst_negative_slack(restraints),
    }
}

/// Builds the [`SchedError::BudgetExhausted`] partial-diagnostics payload
/// shared by both drivers: the last failed pass's restraints plus every
/// relaxation action applied so far, rendered.
fn budget_exhausted(
    budget: String,
    latency: u32,
    passes: u32,
    restraints: &[Restraint],
    actions: &[RelaxAction],
) -> SchedError {
    SchedError::BudgetExhausted {
        budget,
        latency,
        passes,
        restraints: restraints.iter().map(Restraint::to_string).collect(),
        actions: actions.iter().map(RelaxAction::to_string).collect(),
    }
}

/// Schedules first with unlimited mobility and *then* assigns resources — the
/// classical separated flow the paper argues against. The ablation that the
/// `paper_example` example prints uses it to quantify the benefit of
/// simultaneous scheduling and binding: the separated flow ignores
/// sharing-mux delays while placing operations, so its schedules
/// systematically over-estimate the available slack.
///
/// # Errors
/// Propagates the same errors as [`Scheduler::run`].
pub fn schedule_separated(
    body: &LinearBody,
    lib: &TechLibrary,
    config: SchedulerConfig,
) -> Result<Schedule, SchedError> {
    // Phase 1: pretend every operation class has as many instances as
    // operations (no contention, no sharing muxes) to fix states quickly.
    let mut generous = config.clone();
    generous.allow_add_resources = true;
    let unlimited = initial_resource_set(body, 1);
    let components = sccs(&body.dfg);
    let mut latency = generous.min_latency.max(1);
    let mut work = Work::default();
    let schedule_states;
    loop {
        let input = PassInput {
            body,
            lib,
            config: &generous,
            latency,
            resources: &unlimited,
            forbidden: &HashSet::new(),
            scc_stage: &HashMap::new(),
            sccs: &components,
        };
        let (outcome, pass_work) = schedule_pass_counted(&input);
        work += pass_work;
        match outcome {
            PassOutcome::Success { desc, .. } => {
                schedule_states = desc;
                break;
            }
            PassOutcome::Failure(_) if latency < generous.max_latency => latency += 1,
            PassOutcome::Failure(f) => {
                let count: u32 = f.restraints.iter().map(Restraint::instances).sum();
                return Err(SchedError::Overconstrained {
                    latency,
                    passes: 1,
                    details: format!("separated flow failed: {count} restraints"),
                    worst_slack_ps: worst_negative_slack(&f.restraints),
                });
            }
        }
    }
    // Phase 2: bind onto the lower-bound resource set state by state; this is
    // where the separated flow pays for ignoring mux delays: we simply keep
    // the state assignment and recompute the worst slack with sharing muxes,
    // reporting it (possibly negative — the post-synthesis surprise).
    let shared = initial_resource_set(body, config.ii_or(latency));
    let mut timing = hls_netlist::ChainTiming::new(lib, config.clock);
    let mut min_slack: f64 = config.clock.period_ps();
    for (id, s) in &schedule_states.ops {
        let op = body.dfg.op(*id);
        if let Some(ty) = hls_tech::ResourceType::for_op(op) {
            if matches!(ty.class, hls_tech::ResourceClass::IoPort) {
                continue;
            }
            let in_arrivals: Vec<f64> = op
                .inputs
                .iter()
                .map(|sig| match sig.producer() {
                    Some(p) if sig.distance == 0 => match schedule_states.ops.get(&p) {
                        Some(sp) if sp.state == s.state => {
                            timing.register_arrival_ps() + lib.delay_ps(&ty)
                        }
                        _ => timing.register_arrival_ps(),
                    },
                    _ => timing.register_arrival_ps(),
                })
                .collect();
            // with sharing: every op of the class shares one of the few
            // instances → mux penalty
            let ops_of_class = body
                .dfg
                .iter_ops()
                .filter(|(_, o)| {
                    hls_tech::ResourceType::for_op(o)
                        .map(|t| t.class == ty.class)
                        .unwrap_or(false)
                })
                .count();
            let insts = shared.count_of_class(&ty.class).max(1);
            let a = timing.op_arrival_ps(&in_arrivals, ops_of_class.div_ceil(insts), &ty);
            min_slack =
                min_slack.min(timing.slack_shared_ps(a, op.width, config.sharing_possible()));
        }
    }
    Ok(Schedule {
        latency: schedule_states.num_states,
        desc: ScheduleDesc {
            resources: shared,
            ..schedule_states
        },
        min_slack_ps: min_slack,
        passes: 1,
        actions: Vec::new(),
        steps_scheduled: work.steps,
        placement_attempts: work.attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_tech::{ClockConstraint, ResourceClass};

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn lib() -> TechLibrary {
        TechLibrary::artisan_90nm_typical()
    }

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    #[test]
    fn example1_sequential_matches_table2() {
        // Paper, Example 1: minimum resources, 3 cycles per iteration, the
        // scheduler needed to add two states starting from latency 1.
        let body = example1();
        let lib = lib();
        let schedule = Scheduler::new(&body, &lib, SchedulerConfig::sequential(clk(), 1, 3))
            .run()
            .expect("schedulable");
        assert_eq!(schedule.latency, 3);
        assert_eq!(schedule.cycles_per_iteration(), 3);
        assert_eq!(
            schedule
                .desc
                .resources
                .count_of_class(&ResourceClass::Multiplier),
            1
        );
        assert!(
            schedule
                .actions
                .iter()
                .filter(|a| matches!(a, RelaxAction::AddState))
                .count()
                >= 2
        );
        assert!(schedule.min_slack_ps >= 0.0);
        let table = schedule.table(&body);
        assert!(table.contains("mul1_op"));
    }

    #[test]
    fn example2_pipelined_ii2_uses_two_multipliers() {
        // Paper, Example 2: II=2 → LI=3, two multipliers, same schedule shape.
        let body = example1();
        let lib = lib();
        let schedule = Scheduler::new(&body, &lib, SchedulerConfig::pipelined(clk(), 2, 6))
            .run()
            .expect("schedulable");
        assert_eq!(schedule.cycles_per_iteration(), 2);
        assert_eq!(schedule.latency, 3, "LI should stay at II+1 = 3");
        assert_eq!(
            schedule
                .desc
                .resources
                .count_of_class(&ResourceClass::Multiplier),
            2
        );
    }

    #[test]
    fn example3_pipelined_ii1_uses_three_multipliers() {
        // Paper, Example 3: II=1 → the SCC must fit one state; the scheduler
        // succeeds after relaxation with 3 multipliers and LI=3.
        let body = example1();
        let lib = lib();
        let schedule = Scheduler::new(&body, &lib, SchedulerConfig::pipelined(clk(), 1, 6))
            .run()
            .expect("schedulable");
        assert_eq!(schedule.cycles_per_iteration(), 1);
        assert_eq!(
            schedule
                .desc
                .resources
                .count_of_class(&ResourceClass::Multiplier),
            3
        );
        assert!(
            schedule.latency >= 3,
            "LI must grow beyond 2 (two chained muls do not fit)"
        );
        // the SCC sits in a single state
        let scc = &sccs(&body.dfg)[0];
        let states: HashSet<u32> = scc.ops.iter().map(|&o| schedule.desc.state_of(o)).collect();
        assert_eq!(
            states.len(),
            1,
            "SCC must be scheduled within one state at II=1"
        );
    }

    #[test]
    fn overconstrained_when_latency_capped_too_low() {
        let body = example1();
        let lib = lib();
        let mut config = SchedulerConfig::sequential(clk(), 1, 1);
        config.allow_add_resources = false;
        let err = Scheduler::new(&body, &lib, config).run().unwrap_err();
        assert!(matches!(err, SchedError::Overconstrained { .. }));
    }

    #[test]
    fn pass_budget_exhaustion_reports_partial_diagnostics() {
        // Example 1 needs at least two relaxation actions (add two states);
        // a one-pass budget cuts the search off mid-flight.
        let body = example1();
        let lib = lib();
        let mut config = SchedulerConfig::sequential(clk(), 1, 3);
        config.max_passes = 1;
        let err = Scheduler::new(&body, &lib, config).run().unwrap_err();
        match err {
            SchedError::BudgetExhausted {
                passes,
                restraints,
                actions,
                ..
            } => {
                assert_eq!(passes, 1);
                assert!(!restraints.is_empty(), "last pass's restraints carried");
                assert_eq!(actions.len(), 1, "the one applied action is reported");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn moving_average_schedules_sequentially() {
        let mut cdfg = hls_frontend::elaborate(&designs::moving_average(3, 16)).expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        let lib = lib();
        let schedule = Scheduler::new(&body, &lib, SchedulerConfig::sequential(clk(), 1, 4))
            .run()
            .expect("schedulable");
        assert!(schedule.latency <= 4);
    }

    #[test]
    fn fir_filter_pipelines_at_ii1() {
        // A feed-forward FIR has no recurrence, so II=1 must be achievable
        // (with enough multipliers).
        let mut cdfg =
            hls_frontend::elaborate(&designs::fir_filter(&[3, -5, 7, 9], 16)).expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        let lib = lib();
        let schedule = Scheduler::new(&body, &lib, SchedulerConfig::pipelined(clk(), 1, 12))
            .run()
            .expect("schedulable");
        assert_eq!(schedule.cycles_per_iteration(), 1);
        assert!(
            schedule
                .desc
                .resources
                .count_of_class(&ResourceClass::Multiplier)
                >= 4
        );
    }

    #[test]
    fn separated_flow_reports_worse_slack_than_unified() {
        let body = example1();
        let lib = lib();
        let unified = Scheduler::new(&body, &lib, SchedulerConfig::sequential(clk(), 1, 3))
            .run()
            .expect("unified");
        let separated = schedule_separated(&body, &lib, SchedulerConfig::sequential(clk(), 1, 3))
            .expect("separated");
        assert!(
            separated.min_slack_ps <= unified.min_slack_ps,
            "separated {} vs unified {}",
            separated.min_slack_ps,
            unified.min_slack_ps
        );
    }

    #[test]
    fn tighter_clock_needs_more_states() {
        let body = example1();
        let lib = lib();
        let relaxed = Scheduler::new(
            &body,
            &lib,
            SchedulerConfig::sequential(ClockConstraint::from_period_ps(2600.0), 1, 8),
        )
        .run()
        .expect("relaxed clock");
        let tight = Scheduler::new(
            &body,
            &lib,
            SchedulerConfig::sequential(ClockConstraint::from_period_ps(1250.0), 1, 8),
        )
        .run()
        .expect("tight clock");
        assert!(tight.latency >= relaxed.latency);
    }
}
