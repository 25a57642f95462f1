//! A single scheduling pass: simultaneous scheduling and binding over the
//! control steps of the loop body (Figure 7 of the paper).
//!
//! The pass algorithm itself lives in the dense [`engine`](crate::engine)
//! module, which the multi-pass [`Scheduler`](crate::scheduler::Scheduler)
//! drives *incrementally*; the functions here run one pass from scratch and
//! are the reference the incremental driver is validated against.

use crate::config::SchedulerConfig;
use crate::engine::{Engine, EngineOutcome};
use crate::relax::{counted, Restraint};
use hls_ir::analysis::{alap_levels, asap_levels, Scc};
use hls_ir::{LinearBody, OpId, OpKind};
use hls_netlist::{ChainTiming, CombGraph};
use hls_netlist::{ScheduleDesc, ScheduledOp};
use hls_tech::{
    Interner, ResourceClass, ResourceInstanceId, ResourceSet, ResourceType, TechLibrary,
};
use std::collections::{BTreeMap, HashMap, HashSet};

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
    /// Number of operations that were successfully placed.
    pub scheduled: usize,
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

/// Runs one scheduling pass, from scratch.
pub fn schedule_pass(input: &PassInput<'_>) -> PassOutcome {
    let mut engine = Engine::new(
        input.body,
        input.lib,
        input.config,
        input.sccs,
        input.resources.clone(),
        input.latency,
    );
    engine.seed_inputs(
        input.forbidden.iter().copied(),
        input.scc_stage.iter().map(|(&scc, &stage)| (scc, stage)),
    );
    match engine.run_pass() {
        EngineOutcome::Success { min_slack_ps } => PassOutcome::Success {
            desc: engine.into_desc(),
            min_slack_ps,
        },
        EngineOutcome::Failure(failure) => PassOutcome::Failure(failure),
    }
}

/// Region assignment for the reference pass: which region owns each
/// operation and each resource instance. Mirrors the decomposition the
/// incremental engine derives from a [`RegionPlan`](crate::RegionPlan), in
/// the simplest possible encoding so the reference stays obviously correct.
pub struct PassRegions<'a> {
    /// Owning region per operation, dense by op index.
    pub op_region: &'a [u32],
    /// Owning region per resource instance, dense by instance index.
    pub inst_region: &'a [u32],
}

/// The retained reference pass: the original `HashMap`-based implementation,
/// kept verbatim. The schedule-equivalence regression suite re-schedules
/// every design through a driver built on this function
/// ([`Scheduler::run_reference`](crate::scheduler::Scheduler::run_reference))
/// and asserts the incremental arena-backed scheduler produces the identical
/// `ScheduleDesc`, pass count and action sequence.
pub fn schedule_pass_reference(input: &PassInput<'_>) -> PassOutcome {
    schedule_pass_reference_with_regions(input, None)
}

/// The reference pass with an optional region decomposition. With regions,
/// the state-major loop applies the **registered cut-value rule**: a value
/// crossing a region boundary is always registered, so its consumers become
/// ready only in a strictly later state and always see a register-launch
/// arrival; bindings are confined to the consumer's own region pool and
/// sharing factors are computed per (region, class). This is the semantics
/// the region-decomposed incremental engine must reproduce bit-identically.
pub fn schedule_pass_reference_with_regions(
    input: &PassInput<'_>,
    regions: Option<&PassRegions<'_>>,
) -> PassOutcome {
    let body = input.body;
    let config = input.config;
    let latency = input.latency.max(1);
    let ii = config.ii_or(latency);
    let pipelined = config.pipeline.is_some();
    let sharing = config.sharing_possible();

    let mut timing = ChainTiming::new(input.lib, config.clock);
    let mut comb = CombGraph::new();

    // --- static pre-computation ------------------------------------------------
    let asap = asap_levels(&body.dfg);
    let alap = alap_levels(&body.dfg, latency.saturating_sub(1));
    let scc_of: HashMap<OpId, usize> = input
        .sccs
        .iter()
        .enumerate()
        .flat_map(|(i, scc)| scc.ops.iter().map(move |&op| (op, i)))
        .collect();

    // Extra precedence edges from I/O ordering.
    let mut extra_preds: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for (a, b) in body.io_order_deps() {
        extra_preds.entry(b).or_default().push(a);
    }

    // Region lookups: without regions everything lives in region 0 and the
    // cut rule never fires (every pair is same-region).
    let region_of_op = |id: OpId| -> u32 { regions.map(|r| r.op_region[id.index()]).unwrap_or(0) };
    let cross = |a: OpId, b: OpId| region_of_op(a) != region_of_op(b);
    let num_regions = regions
        .map(|r| {
            r.op_region
                .iter()
                .max()
                .map(|&m| m as usize + 1)
                .unwrap_or(1)
        })
        .unwrap_or(1);

    // Expected sharing factor per (region, resource class) — the sharing
    // pressure an instance sees is confined to its own region's pool. Over
    // interned class ids: a zero count means the class was only interned by
    // the other table and reads as "absent" (factor contribution 1), exactly
    // like the historical string-keyed maps.
    let mut interner = Interner::new();
    let mut ops_per_class: Vec<Vec<usize>> = vec![Vec::new(); num_regions];
    for (id, op) in body.dfg.iter_ops() {
        if let Some(ty) = ResourceType::for_op(op) {
            if !matches!(ty.class, ResourceClass::IoPort) {
                let cid = interner.class_id(&ty.class);
                let per = &mut ops_per_class[region_of_op(id) as usize];
                if cid.index() >= per.len() {
                    per.resize(cid.index() + 1, 0);
                }
                per[cid.index()] += 1;
            }
        }
    }
    let mut insts_per_class: Vec<Vec<usize>> = vec![Vec::new(); num_regions];
    for inst in input.resources.iter() {
        let cid = interner.class_id(&inst.ty.class);
        let r = regions.map(|r| r.inst_region[inst.id.index()]).unwrap_or(0) as usize;
        let per = &mut insts_per_class[r];
        if cid.index() >= per.len() {
            per.resize(cid.index() + 1, 0);
        }
        per[cid.index()] += 1;
    }
    let interner = interner;
    let share_factor = |class: &ResourceClass, region: usize| -> usize {
        let id = interner.lookup_class(class);
        let ops = id
            .and_then(|i| ops_per_class[region].get(i.index()).copied())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        let insts = id
            .and_then(|i| insts_per_class[region].get(i.index()).copied())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        ops.div_ceil(insts)
    };

    // --- pass state ---------------------------------------------------------------
    let mut placed: BTreeMap<OpId, ScheduledOp> = BTreeMap::new();
    let mut arrival: HashMap<OpId, f64> = HashMap::new();
    // busy[(resource, folded_state)] → ops bound there
    let mut busy: HashMap<(ResourceInstanceId, u32), Vec<OpId>> = HashMap::new();
    // dynamic SCC stage assignment (first placed member pins the stage)
    let mut scc_dyn_stage: HashMap<usize, u32> = input.scc_stage.clone();
    let mut last_reasons: HashMap<OpId, Vec<Restraint>> = HashMap::new();
    let mut min_slack = f64::INFINITY;

    let fold = |state: u32| if pipelined { state % ii } else { state };

    let scc_window = |idx: usize, dyn_stage: &HashMap<usize, u32>| -> Option<(u32, u32)> {
        dyn_stage
            .get(&idx)
            .map(|&stage| (stage * ii, (stage * ii + ii - 1).min(latency - 1)))
    };

    // priority function: complexity (delay) first, then low mobility, then
    // large fanout cone, then id for determinism.
    let complexity: HashMap<OpId, f64> = body
        .dfg
        .iter_ops()
        .map(|(id, op)| {
            let d = ResourceType::for_op(op)
                .filter(|ty| !matches!(ty.class, ResourceClass::IoPort))
                .map(|ty| input.lib.delay_ps(&ty))
                .unwrap_or(0.0);
            (id, d)
        })
        .collect();
    // capped fanout cones, shared with the engine so the priority orders of
    // the two drivers stay identical even on cap-sized designs
    let fanout = crate::engine::fanout_cone_sizes(body, crate::engine::FANOUT_CONE_CAP);

    for state in 0..latency {
        loop {
            // ready operations
            let mut ready: Vec<OpId> = body
                .dfg
                .op_ids()
                .filter(|id| !placed.contains_key(id))
                .filter(|&id| {
                    // same-region predecessors permit same-state chaining;
                    // a region-crossing value is registered (cut rule), so
                    // its consumers wait for a strictly later state
                    let pred_ok = |p: &OpId| {
                        placed
                            .get(p)
                            .map(|s| {
                                if cross(id, *p) {
                                    s.state < state
                                } else {
                                    s.state <= state
                                }
                            })
                            .unwrap_or(false)
                    };
                    body.dfg.preds(id).iter().all(pred_ok)
                        && extra_preds
                            .get(&id)
                            .map(|ps| ps.iter().all(pred_ok))
                            .unwrap_or(true)
                })
                .filter(|&id| {
                    // pin constraints
                    body.pin_of(id)
                        .map(|p| p.allows(hls_ir::StateIdx::new(state)))
                        .unwrap_or(true)
                })
                .filter(|&id| {
                    // SCC stage window (only a lower/upper bound once pinned)
                    match scc_of.get(&id).and_then(|&i| scc_window(i, &scc_dyn_stage)) {
                        Some((lo, hi)) => state >= lo && state <= hi,
                        None => true,
                    }
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            ready.sort_by(|&a, &b| {
                let ca = complexity[&a];
                let cb = complexity[&b];
                cb.partial_cmp(&ca)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        let ma = alap[&a].saturating_sub(asap[&a]);
                        let mb = alap[&b].saturating_sub(asap[&b]);
                        ma.cmp(&mb)
                    })
                    .then_with(|| fanout[b.index()].cmp(&fanout[a.index()]))
                    .then_with(|| a.cmp(&b))
            });

            let mut placed_any = false;
            for &op_id in &ready {
                let op = body.dfg.op(op_id);

                // input arrival times
                let mut inputs_ready = true;
                let mut in_arrivals: Vec<f64> = Vec::with_capacity(op.inputs.len());
                for sig in &op.inputs {
                    let a = match sig.producer() {
                        None => 0.0,
                        Some(p) if sig.distance > 0 => {
                            let _ = p;
                            timing.register_arrival_ps()
                        }
                        Some(p) => match placed.get(&p) {
                            Some(sp) if sp.state < state => timing.register_arrival_ps(),
                            Some(sp) if sp.state == state => {
                                arrival.get(&p).copied().unwrap_or(0.0)
                            }
                            _ => {
                                inputs_ready = false;
                                0.0
                            }
                        },
                    };
                    in_arrivals.push(a);
                }
                // For side-effecting operations (port writes, IP calls) the
                // predicate decides an externally observable action, so its
                // condition operations must be available no later than this
                // state, exactly like data inputs. Pure predicated values
                // need no such edge: they are captured unconditionally and
                // the muxes inserted by predicate conversion select the
                // correct one downstream.
                if op.kind.has_side_effects() {
                    for cond in op.predicate.condition_ops() {
                        match placed.get(&cond) {
                            Some(sp) if sp.state < state => {
                                in_arrivals.push(timing.register_arrival_ps());
                            }
                            Some(sp) if sp.state == state && !cross(op_id, cond) => {
                                in_arrivals.push(arrival.get(&cond).copied().unwrap_or(0.0));
                            }
                            _ => inputs_ready = false,
                        }
                    }
                }
                if !inputs_ready {
                    continue;
                }

                let required_ty = ResourceType::for_op(op);
                let needs_resource = required_ty
                    .as_ref()
                    .map(|ty| !matches!(ty.class, ResourceClass::IoPort))
                    .unwrap_or(false);

                if !needs_resource {
                    // Free / IO operation: arrival is the max input arrival for
                    // frees, the register launch for reads and live-ins.
                    let a = match op.kind {
                        OpKind::Read(_) | OpKind::Pass => timing.register_arrival_ps(),
                        _ => in_arrivals.iter().copied().fold(0.0f64, f64::max),
                    };
                    placed.insert(
                        op_id,
                        ScheduledOp {
                            op: op_id,
                            state,
                            resource: None,
                        },
                    );
                    arrival.insert(op_id, a);
                    placed_any = true;
                    continue;
                }

                // try every compatible, non-forbidden resource instance
                // from the op's own region pool
                let mut compatible = input.resources.compatible_with(op);
                if let Some(r) = regions {
                    let my = r.op_region[op_id.index()];
                    compatible.retain(|res| r.inst_region[res.index()] == my);
                }
                let mut reasons: Vec<Restraint> = Vec::new();
                let mut bound = false;
                let mut best_slack = f64::NEG_INFINITY;
                for res_id in compatible.iter().copied() {
                    if input.forbidden.contains(&(op_id, res_id)) {
                        continue;
                    }
                    let inst = input.resources.instance(res_id);
                    // busy check in this folded state: mutually exclusive
                    // predicated ops may share, but only within the *same*
                    // control step — equivalent states of a folded pipeline
                    // guard different iterations (mirrors the engine)
                    let slot = (res_id, fold(state));
                    let conflict = busy.get(&slot).map(|ops| {
                        ops.iter().any(|other| {
                            !placed.get(other).is_some_and(|p| p.state == state)
                                || !body
                                    .dfg
                                    .op(*other)
                                    .predicate
                                    .mutually_exclusive(&op.predicate)
                        })
                    });
                    if conflict == Some(true) {
                        reasons.push(Restraint::ResourceContention {
                            op: op_id,
                            ty: inst.ty.clone(),
                            instances: 1,
                        });
                        continue;
                    }
                    // timing check
                    let share = share_factor(&inst.ty.class, region_of_op(op_id) as usize);
                    let a = timing.op_arrival_ps(&in_arrivals, share, &inst.ty);
                    let slack = timing.slack_shared_ps(a, op.width, sharing);
                    best_slack = best_slack.max(slack);
                    if slack < 0.0 {
                        reasons.push(Restraint::NegativeSlack {
                            op: op_id,
                            slack_ps: slack,
                            instances: 1,
                        });
                        continue;
                    }
                    // combinational cycle check
                    if config.avoid_comb_cycles {
                        let mut creates_cycle = false;
                        for (i, sig) in op.inputs.iter().enumerate() {
                            let _ = i;
                            if sig.distance > 0 {
                                continue;
                            }
                            if let Some(p) = sig.producer() {
                                if let Some(sp) = placed.get(&p) {
                                    if sp.state == state {
                                        if let Some(rp) = sp.resource {
                                            if comb.would_create_cycle(rp.0, res_id.0) {
                                                creates_cycle = true;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        if creates_cycle {
                            reasons.push(Restraint::CombCycle {
                                op: op_id,
                                resource: res_id,
                            });
                            continue;
                        }
                    }
                    // accept the binding
                    for sig in &op.inputs {
                        if sig.distance > 0 {
                            continue;
                        }
                        if let Some(p) = sig.producer() {
                            if let Some(sp) = placed.get(&p) {
                                if sp.state == state {
                                    if let Some(rp) = sp.resource {
                                        comb.add_edge(rp.0, res_id.0);
                                    }
                                }
                            }
                        }
                    }
                    busy.entry(slot).or_default().push(op_id);
                    placed.insert(
                        op_id,
                        ScheduledOp {
                            op: op_id,
                            state,
                            resource: Some(res_id),
                        },
                    );
                    arrival.insert(op_id, a);
                    min_slack = min_slack.min(slack);
                    // pin the SCC stage on first placement
                    if let Some(&scc_idx) = scc_of.get(&op_id) {
                        scc_dyn_stage.entry(scc_idx).or_insert(state / ii);
                    }
                    bound = true;
                    placed_any = true;
                    break;
                }
                if !bound {
                    // If every instance was busy, also check whether a brand
                    // new instance would have met timing; if not, the real
                    // problem is slack, not hardware.
                    if reasons
                        .iter()
                        .all(|r| matches!(r, Restraint::ResourceContention { .. }))
                    {
                        if let Some(ty) = &required_ty {
                            let share = share_factor(&ty.class, region_of_op(op_id) as usize);
                            let a = timing.op_arrival_ps(&in_arrivals, share, ty);
                            let slack = timing.slack_shared_ps(a, op.width, sharing);
                            if slack < 0.0 {
                                reasons.push(Restraint::NegativeSlack {
                                    op: op_id,
                                    slack_ps: slack,
                                    instances: 1,
                                });
                            }
                        }
                    }
                    if compatible.is_empty() {
                        if let Some(ty) = required_ty.clone() {
                            reasons.push(Restraint::ResourceContention {
                                op: op_id,
                                ty,
                                instances: 1,
                            });
                        }
                    }
                    if let Some(&scc_idx) = scc_of.get(&op_id) {
                        if scc_window(scc_idx, &scc_dyn_stage)
                            .map(|(_, hi)| state >= hi)
                            .unwrap_or(false)
                        {
                            reasons.push(Restraint::SccWindow {
                                scc_index: scc_idx,
                                op: op_id,
                            });
                        }
                    }
                    let _ = best_slack;
                    last_reasons.insert(op_id, reasons);
                }
            }
            if !placed_any {
                break;
            }
        }
    }

    if placed.len() == body.dfg.num_ops() {
        let desc = ScheduleDesc {
            num_states: latency,
            ii: config.pipeline.map(|p| p.ii),
            ops: placed,
            resources: input.resources.clone(),
        };
        let min_slack_ps = if min_slack.is_finite() {
            min_slack
        } else {
            config.clock.period_ps()
        };
        PassOutcome::Success { desc, min_slack_ps }
    } else {
        let mut failure = PassFailure {
            scheduled: placed.len(),
            ..PassFailure::default()
        };
        for id in body.dfg.op_ids() {
            if placed.contains_key(&id) {
                continue;
            }
            // only report ops whose predecessors were all placed (root causes)
            let preds_ok = body.dfg.preds(id).iter().all(|p| placed.contains_key(p));
            if !preds_ok {
                continue;
            }
            failure.failed_ops.push(id);
            if let Some(rs) = last_reasons.get(&id) {
                // the per-instance walk above, reported in the counted form
                // the engine records directly
                failure.restraints.extend(counted(rs));
            } else {
                // never attempted: distinguish "a region-crossing value is
                // registered in the final state, so readiness needs a state
                // that does not exist" from plain starvation
                let op = body.dfg.op(id);
                let last = latency.saturating_sub(1);
                let cut_blocked =
                    |p: &OpId| cross(id, *p) && placed.get(p).is_some_and(|s| s.state >= last);
                let blocked = body.dfg.preds(id).iter().any(cut_blocked)
                    || extra_preds
                        .get(&id)
                        .map(|ps| ps.iter().any(cut_blocked))
                        .unwrap_or(false)
                    || (op.kind.has_side_effects()
                        && op.predicate.condition_ops().iter().any(cut_blocked));
                if blocked {
                    failure
                        .restraints
                        .push(Restraint::StateExhausted { op: id });
                } else if let Some(ty) = ResourceType::for_op(op) {
                    failure.restraints.push(Restraint::ResourceContention {
                        op: id,
                        ty,
                        instances: 1,
                    });
                }
            }
        }
        PassOutcome::Failure(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::initial_resource_set;
    use hls_frontend::designs;
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
        schedule_pass(&input)
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
