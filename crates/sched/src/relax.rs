//! Restraints and the relaxation expert system (Section IV.B, last part).
//!
//! Every time a binding of an operation to an edge and/or a resource fails,
//! the pass scheduler issues a [`Restraint`]. When the whole pass fails, the
//! restraints are analyzed and weighted, every applicable [`RelaxAction`] is
//! scored by how many restraints it addresses minus its estimated cost, and
//! the best action is applied before the next pass.
//!
//! Restraints are *counted*: one failed attempt that finds twelve busy
//! `mul_32x32` instances records one contention restraint with
//! `instances: 12`, not twelve copies, and equal slacks fold the same way.
//! Every consumer weighs an entry by its count, so a counted list and the
//! per-instance list it stands for choose the same actions. The engine
//! keeps a failed attempt's reasons in its region's reason arena, as small
//! entries naming interned types, and builds these restraints only when a
//! failed pass's report is assembled.

use crate::config::SchedulerConfig;
use hls_ir::{OpId, PinnedState};
use hls_tech::{ResourceInstanceId, ResourceType, TechLibrary};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A reason recorded when a binding attempt fails.
#[derive(Clone, Debug, PartialEq)]
pub enum Restraint {
    /// The operation cannot meet the clock on any available (or hypothetical
    /// fresh) resource in the states it is allowed to use.
    NegativeSlack {
        /// The failing operation.
        op: OpId,
        /// The slack the operation would have had, in picoseconds.
        slack_ps: f64,
        /// How many candidate bindings of the attempt missed the clock by
        /// exactly this slack.
        instances: u32,
    },
    /// Every compatible resource instance is busy in the allowed states.
    ResourceContention {
        /// The failing operation.
        op: OpId,
        /// The resource type that ran out of instances.
        ty: ResourceType,
        /// How many busy instances of `ty` the attempt found (1 when the
        /// pool has no instance of the type at all).
        instances: u32,
    },
    /// Binding the operation would create a combinational cycle.
    CombCycle {
        /// The failing operation.
        op: OpId,
        /// The resource whose sharing would close the cycle.
        resource: ResourceInstanceId,
    },
    /// The operation belongs to a strongly connected component whose
    /// II-state window does not allow any feasible state.
    SccWindow {
        /// Index of the SCC (into the scheduler's SCC list).
        scc_index: usize,
        /// The failing operation.
        op: OpId,
    },
    /// The operation consumes a region-boundary value registered in the
    /// schedule's final state; the cut rule makes it ready only in a
    /// strictly later state, so only adding a state can help.
    StateExhausted {
        /// The failing operation.
        op: OpId,
    },
    /// The operation is ready in no state its pin allows. While the pinned
    /// state is at or past the latency, only adding a state can help; once
    /// the schedule reaches it, no action can.
    PinUnreached {
        /// The failing operation.
        op: OpId,
        /// The operation's pin.
        pin: PinnedState,
    },
}

impl Restraint {
    /// The operation this restraint is attached to.
    pub fn op(&self) -> OpId {
        match self {
            Restraint::NegativeSlack { op, .. }
            | Restraint::ResourceContention { op, .. }
            | Restraint::CombCycle { op, .. }
            | Restraint::SccWindow { op, .. }
            | Restraint::StateExhausted { op }
            | Restraint::PinUnreached { op, .. } => *op,
        }
    }

    /// How many per-instance reasons this restraint counts; 1 for the kinds
    /// that are never merged.
    pub fn instances(&self) -> u32 {
        match self {
            Restraint::NegativeSlack { instances, .. }
            | Restraint::ResourceContention { instances, .. } => *instances,
            _ => 1,
        }
    }
}

/// Counts `instances` busy instances of `ty` for `op` into `reasons`: added
/// to the entry for the same (op, type) if there is one, else appended.
/// The engine folds a failed attempt's reasons into its region's reason
/// arena by the same rule; this list form serves the walk oracle and
/// [`counted`].
#[cfg(test)]
pub(crate) fn count_contention(
    reasons: &mut Vec<Restraint>,
    op: OpId,
    ty: &ResourceType,
    instances: u32,
) {
    for r in reasons.iter_mut() {
        if let Restraint::ResourceContention {
            op: o,
            ty: t,
            instances: n,
        } = r
        {
            if *o == op && t == ty {
                *n += instances;
                return;
            }
        }
    }
    reasons.push(Restraint::ResourceContention {
        op,
        ty: ty.clone(),
        instances,
    });
}

/// Counts `instances` bindings of `op` that miss the clock by `slack_ps`
/// into `reasons`: added to the entry with the same op and slack bits if
/// there is one, else appended.
#[cfg(test)]
pub(crate) fn count_slack(reasons: &mut Vec<Restraint>, op: OpId, slack_ps: f64, instances: u32) {
    for r in reasons.iter_mut() {
        if let Restraint::NegativeSlack {
            op: o,
            slack_ps: s,
            instances: n,
        } = r
        {
            if *o == op && s.to_bits() == slack_ps.to_bits() {
                *n += instances;
                return;
            }
        }
    }
    reasons.push(Restraint::NegativeSlack {
        op,
        slack_ps,
        instances,
    });
}

/// The counted form of a restraint list: repeated contentions and slacks
/// fold into their first appearance, every other entry is kept in place.
#[cfg(test)]
pub(crate) fn counted(restraints: &[Restraint]) -> Vec<Restraint> {
    let mut out = Vec::new();
    for r in restraints {
        match r {
            Restraint::ResourceContention { op, ty, instances } => {
                count_contention(&mut out, *op, ty, *instances);
            }
            Restraint::NegativeSlack {
                op,
                slack_ps,
                instances,
            } => count_slack(&mut out, *op, *slack_ps, *instances),
            other => out.push(other.clone()),
        }
    }
    out
}

/// The operations that fail on timing somewhere in `restraints`.
pub(crate) fn slack_ops(restraints: &[Restraint]) -> HashSet<OpId> {
    restraints
        .iter()
        .filter_map(|r| match r {
            Restraint::NegativeSlack { op, .. } => Some(*op),
            _ => None,
        })
        .collect()
}

/// The most negative per-operation slack among `restraints`, or `0.0` when
/// none of them is slack-driven. This is the clock stretch that would make
/// the worst failing operation fit.
pub fn worst_negative_slack(restraints: &[Restraint]) -> f64 {
    restraints
        .iter()
        .filter_map(|r| match r {
            Restraint::NegativeSlack { slack_ps, .. } => Some(*slack_ps),
            _ => None,
        })
        .fold(0.0, f64::min)
}

/// Renders a restraint's count as a ` (×N)` suffix when it stands for more
/// than one instance.
fn write_count(f: &mut fmt::Formatter<'_>, instances: u32) -> fmt::Result {
    if instances > 1 {
        write!(f, " (×{instances})")?;
    }
    Ok(())
}

impl fmt::Display for Restraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Restraint::NegativeSlack {
                op,
                slack_ps,
                instances,
            } => {
                write!(f, "negative slack of {slack_ps:.0} ps on {op}")?;
                write_count(f, *instances)
            }
            Restraint::ResourceContention { op, ty, instances } => {
                write!(f, "no free {ty} instance for {op}")?;
                write_count(f, *instances)
            }
            Restraint::CombCycle { op, resource } => {
                write!(
                    f,
                    "binding {op} to {resource} would create a combinational cycle"
                )
            }
            Restraint::SccWindow { scc_index, op } => {
                write!(
                    f,
                    "operation {op} of SCC #{scc_index} cannot fit its pipeline stage window"
                )
            }
            Restraint::StateExhausted { op } => {
                write!(
                    f,
                    "{op} waits on a region-boundary value registered in the final state"
                )
            }
            Restraint::PinUnreached { op, pin } => match pin {
                PinnedState::Exact(s) => write!(f, "{op} is pinned to {s} and is not ready there"),
                PinnedState::AtOrAfter(s) => {
                    write!(f, "{op} is pinned to {s} or later and is not ready there")
                }
            },
        }
    }
}

/// A corrective action applied between scheduling passes.
#[derive(Clone, Debug, PartialEq)]
pub enum RelaxAction {
    /// Add one state to the loop body (increase the latency / LI).
    AddState,
    /// Allocate one more instance of the given resource type.
    AddResource(ResourceType),
    /// Allocate several instances of the given resource type in one pass —
    /// one per operation currently failing on contention for it. Emitted by
    /// the contention-with-timing deadlock escape so large designs converge
    /// in a handful of relaxation passes instead of one pass per operation.
    AddResourceBatch {
        /// The type to add instances of.
        ty: ResourceType,
        /// How many instances to add (one per distinct contended operation).
        count: usize,
    },
    /// Move a whole SCC to the next pipeline stage (timing-driven kernel
    /// selection — the paper's key pipelining action).
    MoveScc {
        /// Index of the SCC to move.
        scc_index: usize,
    },
    /// Forbid a specific operation-to-resource binding (used to break
    /// combinational cycles).
    ForbidBinding {
        /// The operation.
        op: OpId,
        /// The resource it must not use.
        resource: ResourceInstanceId,
    },
}

impl fmt::Display for RelaxAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelaxAction::AddState => write!(f, "add state"),
            RelaxAction::AddResource(ty) => write!(f, "add resource {ty}"),
            RelaxAction::AddResourceBatch { ty, count } => {
                write!(f, "add {count} instances of resource {ty}")
            }
            RelaxAction::MoveScc { scc_index } => {
                write!(f, "move SCC #{scc_index} to the next stage")
            }
            RelaxAction::ForbidBinding { op, resource } => {
                write!(f, "forbid binding {op} → {resource}")
            }
        }
    }
}

/// Above this many distinct contended operations for one resource type, the
/// expert system stops one-at-a-time instance refinement and proposes a
/// demand-sized [`RelaxAction::AddResourceBatch`] instead. Small enough that
/// the hand-sized paper examples always stay on the historical single-add
/// path.
const BATCH_THRESHOLD: usize = 8;

/// Chooses the best relaxation action for a set of restraints.
///
/// Returns `None` when no applicable action addresses any restraint — the
/// specification is over-constrained.
pub fn choose_action(
    restraints: &[Restraint],
    config: &SchedulerConfig,
    lib: &TechLibrary,
    latency: u32,
    num_sccs: usize,
    scc_stage: &[u32],
    failed_ops: &[OpId],
) -> Option<RelaxAction> {
    // Hashed lookups keep a pass over N restraints linear; the scores they
    // produce are identical to the historical nested rescans. A counted
    // restraint weighs `instances` times its per-instance weight: every
    // weight is 1.0 or 2.0 and the SCC terms add or scale by 0.5, so each
    // sum is exact and equals the sum over the expanded copies.
    let failed: HashSet<OpId> = failed_ops.iter().copied().collect();
    let weight = |r: &Restraint| {
        let per_instance = if failed.contains(&r.op()) { 2.0 } else { 1.0 };
        per_instance * f64::from(r.instances())
    };
    let slack_ops = slack_ops(restraints);

    let mut candidates: Vec<(RelaxAction, f64)> = Vec::new();

    // Add a state. A pin helps only while its state is past the last one.
    if latency < config.max_latency {
        let gain: f64 = restraints
            .iter()
            .filter(|r| match r {
                Restraint::NegativeSlack { .. }
                | Restraint::ResourceContention { .. }
                | Restraint::StateExhausted { .. } => true,
                Restraint::PinUnreached {
                    pin: PinnedState::Exact(s) | PinnedState::AtOrAfter(s),
                    ..
                } => s.index() >= latency as usize,
                Restraint::CombCycle { .. } | Restraint::SccWindow { .. } => false,
            })
            .map(weight)
            .sum();
        if gain > 0.0 {
            candidates.push((RelaxAction::AddState, gain - 1.0));
        }
    }

    // Add resources, one candidate per contended type whose ops do not also
    // fail on timing (adding hardware cannot fix negative slack). Types are
    // merged at `name()` granularity (class + operand widths), as the
    // original expert system did; the ordered map makes the candidate order
    // — which breaks score ties — deterministic. When contention is systemic
    // (more than [`BATCH_THRESHOLD`] distinct starving ops) the candidate
    // becomes a batch sized by demand — each instance offers one slot per
    // state, so `distinct / slots` instances cover the backlog — instead of
    // the one-at-a-time endgame refinement, which would need a pass per op.
    if config.allow_add_resources {
        let slots = config.ii_or(latency).max(1) as usize;
        for (ty, distinct, gain) in contended_types(restraints, &weight, Some(&slack_ops)) {
            let cost = lib.area(&ty) / 5000.0;
            let action = if distinct <= BATCH_THRESHOLD {
                RelaxAction::AddResource(ty)
            } else {
                RelaxAction::AddResourceBatch {
                    ty,
                    count: distinct.div_ceil(slots).max(1),
                }
            };
            candidates.push((action, gain - cost));
        }
    }

    // Move an SCC to the next stage (pipelined only). Deterministic
    // candidate order for the same reason as above.
    if config.pipeline.is_some() && config.allow_scc_move && num_sccs > 0 {
        let ii = config.ii_or(latency);
        let num_stages = latency.div_ceil(ii).max(1);
        // SCC indices with a recorded window failure per op, deduped in
        // first-appearance order: one linear sweep replaces the historical
        // restraints × SCCs × restraints rescan, with bit-identical sums
        // (each accumulator still receives the same terms in restraint
        // order).
        let mut window_sccs: HashMap<OpId, Vec<usize>> = HashMap::new();
        for r in restraints {
            if let Restraint::SccWindow { scc_index, op } = r {
                if *scc_index < num_sccs {
                    let list = window_sccs.entry(*op).or_default();
                    if !list.contains(scc_index) {
                        list.push(*scc_index);
                    }
                }
            }
        }
        let mut by_scc: BTreeMap<usize, f64> = BTreeMap::new();
        for r in restraints {
            match r {
                Restraint::SccWindow { scc_index, .. } => {
                    *by_scc.entry(*scc_index).or_insert(0.0) += weight(r) + 0.5;
                }
                Restraint::NegativeSlack { op, .. } => {
                    // negative slack on an op that belongs to an SCC also
                    // suggests moving that SCC
                    if let Some(list) = window_sccs.get(op) {
                        for &idx in list {
                            *by_scc.entry(idx).or_insert(0.0) += weight(r) * 0.5;
                        }
                    }
                }
                _ => {}
            }
        }
        for (scc_index, gain) in by_scc {
            let current = scc_stage.get(scc_index).copied().unwrap_or(0);
            if current + 1 < num_stages {
                candidates.push((RelaxAction::MoveScc { scc_index }, gain - 0.4));
            }
        }
    }

    // Forbid bindings that close combinational cycles.
    for r in restraints {
        if let Restraint::CombCycle { op, resource } = r {
            candidates.push((
                RelaxAction::ForbidBinding {
                    op: *op,
                    resource: *resource,
                },
                weight(r) - 0.2,
            ));
        }
    }

    // Deadlock escape: an operation can fail on contention *and* timing at
    // once when the sharing-induced input-mux delay eats the clock. The
    // contention/slack suppression above assumes hardware cannot fix
    // negative slack, but adding an instance lowers the share factor — and
    // with it the mux delay — so when no other action at all is applicable,
    // propose the hardware anyway instead of declaring the specification
    // over-constrained. Only reached when the normal candidate set is empty,
    // so no previously-succeeding relaxation sequence changes.
    if candidates.is_empty() && config.allow_add_resources {
        for (ty, count, gain) in contended_types(restraints, &weight, None) {
            let cost = lib.area(&ty) / 5000.0;
            candidates.push((RelaxAction::AddResourceBatch { ty, count }, gain - cost));
        }
    }

    candidates
        .into_iter()
        .filter(|(_, score)| *score > f64::NEG_INFINITY)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(action, _)| action)
}

/// Contention per resource type, merged at `name()` granularity (class +
/// operand widths) in name order: the first type seen under each name, the
/// number of distinct contended ops, and the summed weight. Ops in `skip`
/// (those also failing on timing) are left out. Types are grouped by
/// [`same_name`]; each group's name is formatted once, for the order.
fn contended_types(
    restraints: &[Restraint],
    weight: &dyn Fn(&Restraint) -> f64,
    skip: Option<&HashSet<OpId>>,
) -> Vec<(ResourceType, usize, f64)> {
    let mut groups: Vec<(&ResourceType, usize, f64)> = Vec::new();
    let mut seen: HashSet<(usize, OpId)> = HashSet::new();
    for r in restraints {
        if let Restraint::ResourceContention { op, ty, .. } = r {
            if skip.is_some_and(|s| s.contains(op)) {
                continue;
            }
            let g = groups
                .iter()
                .position(|(first, ..)| same_name(first, ty))
                .unwrap_or_else(|| {
                    groups.push((ty, 0, 0.0));
                    groups.len() - 1
                });
            if seen.insert((g, *op)) {
                groups[g].1 += 1;
            }
            groups[g].2 += weight(r);
        }
    }
    groups.sort_by_cached_key(|(ty, ..)| ty.name());
    groups
        .into_iter()
        .map(|(ty, distinct, gain)| (ty.clone(), distinct, gain))
        .collect()
}

/// Whether two types have the same `name()`: the same class and operand
/// widths, or, for a type without operands, the same class with the
/// result width standing in for the operand widths.
pub(crate) fn same_name(a: &ResourceType, b: &ResourceType) -> bool {
    fn widths(ty: &ResourceType) -> &[u16] {
        if ty.in_widths.is_empty() {
            std::slice::from_ref(&ty.out_width)
        } else {
            &ty.in_widths
        }
    }
    a.class == b.class && widths(a) == widths(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{batch_owner_regions, owner_region};
    use hls_tech::{ClockConstraint, ResourceClass};
    use proptest::prelude::*;

    fn cfg_seq() -> SchedulerConfig {
        SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3)
    }

    fn mul32() -> ResourceType {
        ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32)
    }

    #[test]
    fn slack_plus_contention_prefers_adding_a_state() {
        // Mirrors the paper's first relaxation in Example 1: mul contention
        // and gt negative slack → add a state rather than a multiplier.
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let op2 = OpId::from_raw(2);
        let restraints = vec![
            Restraint::ResourceContention {
                op: op1,
                ty: mul32(),
                instances: 1,
            },
            Restraint::NegativeSlack {
                op: op1,
                slack_ps: -200.0,
                instances: 1,
            },
            Restraint::NegativeSlack {
                op: op2,
                slack_ps: -200.0,
                instances: 1,
            },
        ];
        let action = choose_action(&restraints, &cfg_seq(), &lib, 1, 0, &[], &[op1, op2])
            .expect("an action");
        assert_eq!(action, RelaxAction::AddState);
    }

    #[test]
    fn pure_contention_adds_a_resource_when_states_exhausted() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let restraints = vec![Restraint::ResourceContention {
            op: op1,
            ty: mul32(),
            instances: 1,
        }];
        // latency already at max → AddState unavailable
        let action =
            choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op1]).expect("an action");
        assert!(
            matches!(action, RelaxAction::AddResource(ty) if ty.class == ResourceClass::Multiplier)
        );
    }

    #[test]
    fn contention_with_slack_deadlock_escapes_with_a_batched_add() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op1 = OpId::from_raw(1);
        let op2 = OpId::from_raw(2);
        // Both ops fail on contention *and* timing: the normal AddResource
        // source suppresses them and latency is at max, so without the
        // escape the specification would be declared over-constrained. The
        // escape proposes one instance per contended op in a single action.
        let restraints = vec![
            Restraint::ResourceContention {
                op: op1,
                ty: mul32(),
                instances: 1,
            },
            Restraint::NegativeSlack {
                op: op1,
                slack_ps: -120.0,
                instances: 1,
            },
            Restraint::ResourceContention {
                op: op2,
                ty: mul32(),
                instances: 1,
            },
            Restraint::NegativeSlack {
                op: op2,
                slack_ps: -120.0,
                instances: 1,
            },
        ];
        let action = choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op1, op2])
            .expect("an action");
        assert!(
            matches!(
                &action,
                RelaxAction::AddResourceBatch { ty, count: 2 }
                    if ty.class == ResourceClass::Multiplier
            ),
            "expected a 2-instance batch, got {action}"
        );
    }

    #[test]
    fn scc_window_failure_moves_the_scc_when_pipelined() {
        let lib = TechLibrary::artisan_90nm_typical();
        let cfg = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 1, 4);
        let op = OpId::from_raw(3);
        let restraints = vec![
            Restraint::SccWindow { scc_index: 0, op },
            Restraint::NegativeSlack {
                op,
                slack_ps: -300.0,
                instances: 1,
            },
        ];
        let action = choose_action(&restraints, &cfg, &lib, 3, 1, &[], &[op]).expect("an action");
        assert_eq!(action, RelaxAction::MoveScc { scc_index: 0 });
    }

    #[test]
    fn scc_move_is_disabled_by_the_ablation_flag() {
        let lib = TechLibrary::artisan_90nm_typical();
        let cfg = SchedulerConfig::pipelined(ClockConstraint::from_period_ps(1600.0), 1, 4)
            .without_scc_move();
        let op = OpId::from_raw(3);
        let restraints = vec![Restraint::SccWindow { scc_index: 0, op }];
        let action = choose_action(&restraints, &cfg, &lib, 3, 1, &[], &[op]);
        assert!(!matches!(action, Some(RelaxAction::MoveScc { .. })));
    }

    #[test]
    fn comb_cycle_forbids_the_binding() {
        let lib = TechLibrary::artisan_90nm_typical();
        let op = OpId::from_raw(5);
        let res = ResourceInstanceId(0);
        let restraints = vec![Restraint::CombCycle { op, resource: res }];
        let action =
            choose_action(&restraints, &cfg_seq(), &lib, 3, 0, &[], &[op]).expect("an action");
        assert_eq!(action, RelaxAction::ForbidBinding { op, resource: res });
    }

    #[test]
    fn no_action_when_nothing_applies() {
        let lib = TechLibrary::artisan_90nm_typical();
        let action = choose_action(&[], &cfg_seq(), &lib, 3, 0, &[], &[]);
        assert!(action.is_none());
    }

    /// One generated relaxation problem: a per-instance failure report
    /// (one op's reasons after another, as a pass reports them) with the
    /// inputs every restraint consumer takes.
    #[derive(Debug)]
    struct Case {
        restraints: Vec<Restraint>,
        failed_ops: Vec<OpId>,
        config: SchedulerConfig,
        latency: u32,
        num_sccs: usize,
        scc_stage: Vec<u32>,
        region_of: Vec<u32>,
    }

    /// Two multiplier types share the `name()` `mul_32x32` (they differ in
    /// result width only); the adder has a name of its own.
    fn case_types() -> [ResourceType; 3] {
        [
            mul32(),
            ResourceType::binary(ResourceClass::Multiplier, 32, 32, 64),
            ResourceType::binary(ResourceClass::Adder, 32, 32, 32),
        ]
    }

    struct PerInstanceReports;

    impl Strategy for PerInstanceReports {
        type Value = Case;

        fn generate(&self, runner: &mut TestRunner) -> Case {
            let mut draw = |lo: u32, hi: u32| (lo..=hi).generate(runner);
            let types = case_types();
            let slacks = [-100.0, -250.0, -37.5];
            let n_ops = draw(1, 6);
            let mut restraints = Vec::new();
            let mut failed_ops = Vec::new();
            for i in 0..n_ops {
                let op = OpId::from_raw(i);
                for _ in 0..draw(0, 10) {
                    restraints.push(match draw(0, 10) {
                        0..=4 => Restraint::ResourceContention {
                            op,
                            ty: types[draw(0, 2) as usize].clone(),
                            instances: 1,
                        },
                        5..=7 => Restraint::NegativeSlack {
                            op,
                            slack_ps: slacks[draw(0, 2) as usize],
                            instances: 1,
                        },
                        8 => Restraint::CombCycle {
                            op,
                            resource: ResourceInstanceId(draw(0, 3)),
                        },
                        9 => Restraint::SccWindow {
                            scc_index: draw(0, 2) as usize,
                            op,
                        },
                        _ => Restraint::StateExhausted { op },
                    });
                }
                if draw(0, 3) != 0 {
                    failed_ops.push(op);
                }
            }
            let clock = ClockConstraint::from_period_ps(1600.0);
            let (mut config, latency) = match draw(0, 2) {
                0 => (SchedulerConfig::sequential(clock, 1, 3), draw(1, 3)),
                1 => (SchedulerConfig::pipelined(clock, 2, 6), draw(3, 6)),
                _ => (SchedulerConfig::pipelined(clock, 1, 6), draw(2, 6)),
            };
            config.allow_add_resources = draw(0, 4) != 0;
            let num_sccs = draw(0, 3) as usize;
            let scc_stage = (0..num_sccs).map(|_| draw(0, 2)).collect();
            let region_of = (0..n_ops).map(|_| draw(0, 2)).collect();
            Case {
                restraints,
                failed_ops,
                config,
                latency,
                num_sccs,
                scc_stage,
                region_of,
            }
        }
    }

    fn choose(case: &Case, restraints: &[Restraint]) -> Option<RelaxAction> {
        choose_action(
            restraints,
            &case.config,
            &TechLibrary::artisan_90nm_typical(),
            case.latency,
            case.num_sccs,
            &case.scc_stage,
            &case.failed_ops,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn a_counted_report_relaxes_like_its_per_instance_expansion(case in PerInstanceReports) {
            let compressed = counted(&case.restraints);
            let total: u32 = compressed.iter().map(Restraint::instances).sum();
            prop_assert_eq!(total as usize, case.restraints.len());
            prop_assert_eq!(choose(&case, &case.restraints), choose(&case, &compressed));
            prop_assert_eq!(
                worst_negative_slack(&case.restraints).to_bits(),
                worst_negative_slack(&compressed).to_bits()
            );
            for ty in &case_types() {
                prop_assert_eq!(
                    owner_region(&case.restraints, ty, &case.region_of),
                    owner_region(&compressed, ty, &case.region_of)
                );
                for count in 1..=4 {
                    prop_assert_eq!(
                        batch_owner_regions(&case.restraints, ty, count, &case.region_of),
                        batch_owner_regions(&compressed, ty, count, &case.region_of)
                    );
                }
            }
        }
    }

    #[test]
    fn generated_reports_repeat_and_reach_every_action_kind() {
        // keeps the property above from passing vacuously
        let mut folded = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for n in 0..512 {
            let case = PerInstanceReports.generate(&mut TestRunner::for_case(n));
            if counted(&case.restraints).len() < case.restraints.len() {
                folded += 1;
            }
            if let Some(action) = choose(&case, &case.restraints) {
                kinds.insert(match action {
                    RelaxAction::AddState => "state",
                    RelaxAction::AddResource(_) => "resource",
                    RelaxAction::AddResourceBatch { .. } => "batch",
                    RelaxAction::MoveScc { .. } => "scc",
                    RelaxAction::ForbidBinding { .. } => "forbid",
                });
            }
        }
        assert!(folded > 256, "only {folded} of 512 reports repeat a reason");
        assert_eq!(
            kinds.len(),
            5,
            "every relaxation action kind is chosen: {kinds:?}"
        );
    }

    /// `same_name` groups types exactly as their names do: a result width
    /// alone does not tell two types apart, a type without operands is
    /// named by its result width, and a mux's input count is part of its
    /// class.
    #[test]
    fn types_share_a_name_exactly_when_same_name_says_so() {
        let bare = |class: ResourceClass, out_width: u16| ResourceType {
            class,
            in_widths: Vec::new(),
            out_width,
        };
        let types = [
            mul32(),
            ResourceType::binary(ResourceClass::Multiplier, 32, 32, 64),
            ResourceType::binary(ResourceClass::Multiplier, 32, 16, 32),
            ResourceType::binary(ResourceClass::Adder, 32, 32, 32),
            ResourceType::unary(ResourceClass::Adder, 32, 33),
            bare(ResourceClass::Adder, 32),
            bare(ResourceClass::Adder, 16),
            ResourceType::register(32),
            bare(ResourceClass::Register, 32),
            ResourceType::mux(2, 32),
            ResourceType::mux(3, 32),
            ResourceType::unary(ResourceClass::Mux { inputs: 2 }, 32, 32),
            ResourceType::binary(ResourceClass::Mux { inputs: 2 }, 32, 32, 8),
        ];
        let mut shared = 0;
        for a in &types {
            for b in &types {
                let named_alike = a.name() == b.name();
                assert_eq!(same_name(a, b), named_alike, "{a:?} and {b:?}");
                shared += usize::from(named_alike && a != b);
            }
        }
        // each of the four pairs that differ but share a name, both ways
        assert_eq!(shared, 8);
    }

    #[test]
    fn restraint_display_and_op() {
        let r = Restraint::NegativeSlack {
            op: OpId::from_raw(2),
            slack_ps: -150.0,
            instances: 3,
        };
        assert_eq!(r.to_string(), "negative slack of -150 ps on op2 (×3)");
        assert_eq!(r.op(), OpId::from_raw(2));
        assert_eq!(r.instances(), 3);
        let a = RelaxAction::AddState;
        assert_eq!(a.to_string(), "add state");
    }
}
