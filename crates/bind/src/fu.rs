//! Functional-unit binding: grouping the scheduler's per-operation instance
//! assignments into shared units with a validated steering order.

use crate::error::BindError;
use hls_ir::{LinearBody, OpId};
use hls_netlist::ScheduleDesc;
use hls_tech::{Interner, ResourceClassId, ResourceInstanceId, ResourceTypeId};

/// One operation executing on a shared functional unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuSlotOp {
    /// The operation.
    pub op: OpId,
    /// Its (unfolded) control step.
    pub state: u32,
    /// Its folded control step — the FSM state that steers the unit's
    /// operand muxes towards this operation.
    pub folded_state: u32,
    /// Its pipeline stage (`state / II`; 0 when sequential).
    pub stage: u32,
}

/// A shared functional unit: one allocated resource instance plus every
/// operation the scheduler bound onto it.
#[derive(Clone, Debug)]
pub struct BoundFu {
    /// The backing resource instance.
    pub instance: ResourceInstanceId,
    /// Interned class of the instance's type.
    pub class: ResourceClassId,
    /// Interned type of the instance.
    pub ty: ResourceTypeId,
    /// Instance name (`mul1`, `add2`, ... as in the paper's tables).
    pub name: String,
    /// The operations executing on the unit, in **steering-priority order**:
    /// ascending `(folded_state, op)`. The lowered operand-mux priority
    /// chain follows this order verbatim — the last entry is the chain's
    /// unconditional default arm.
    pub ops: Vec<FuSlotOp>,
}

impl BoundFu {
    /// Whether more than one operation shares the unit.
    pub fn is_shared(&self) -> bool {
        self.ops.len() > 1
    }

    /// The operations steered onto the unit in the given folded control
    /// step, in priority order. More than one candidate means the slot is
    /// discriminated by (mutually exclusive) predicates.
    pub fn candidates(&self, folded_state: u32) -> impl Iterator<Item = &FuSlotOp> {
        self.ops
            .iter()
            .filter(move |s| s.folded_state == folded_state)
    }
}

/// Groups the schedule's instance assignments into [`BoundFu`]s, validating
/// every assignment with [`check_fit`] and every unit with [`check_slots`].
pub(crate) fn bind_fus(
    body: &LinearBody,
    desc: &ScheduleDesc,
    interner: &mut Interner,
) -> Result<Vec<BoundFu>, BindError> {
    let mut fus: Vec<BoundFu> = desc
        .resources
        .iter()
        .map(|inst| BoundFu {
            instance: inst.id,
            class: interner.class_id(&inst.ty.class),
            ty: interner.type_id(&inst.ty),
            name: inst.name.clone(),
            ops: Vec::new(),
        })
        .collect();

    // deterministic: desc.ops iterates in ascending op id
    for (id, s) in &desc.ops {
        let Some(r) = s.resource else { continue };
        check_fit(body, desc, *id, r)?;
        fus[r.index()].ops.push(slot_op(desc, *id, s.state));
    }
    for fu in &mut fus {
        fu.ops.sort_by_key(|s| (s.folded_state, s.op));
    }
    for fu in &fus {
        check_slots(body, desc, fu)?;
    }
    Ok(fus)
}

/// The unit entry of operation `op` scheduled in unfolded state `state`.
pub(crate) fn slot_op(desc: &ScheduleDesc, op: OpId, state: u32) -> FuSlotOp {
    FuSlotOp {
        op,
        state,
        folded_state: state % desc.fold_states().max(1),
        stage: state / desc.cycles_per_iteration().max(1),
    }
}

/// Checks that `op` may execute on `instance`: the schedule allocated the
/// instance, and its type can implement the operation.
pub(crate) fn check_fit(
    body: &LinearBody,
    desc: &ScheduleDesc,
    op: OpId,
    instance: ResourceInstanceId,
) -> Result<(), BindError> {
    if instance.index() >= desc.resources.len() {
        return Err(BindError::UnknownInstance { op, instance });
    }
    if !desc
        .resources
        .instance(instance)
        .ty
        .can_implement(body.dfg.op(op))
    {
        return Err(BindError::IncompatibleBinding { op, instance });
    }
    Ok(())
}

/// Checks that every shared folded slot of `fu` (whose `ops` are in
/// steering-priority order) is realizable as steered hardware:
///
/// * two operations occupying the same folded slot execute in the **same**
///   control step (a folded pipeline evaluates every stage's predicate for a
///   *different* iteration, so cross-stage "mutual exclusion" would not hold
///   in hardware) under mutually exclusive predicates;
/// * every predicate discriminating a shared slot has its condition
///   operations scheduled no later than the slot's step, so the operand mux
///   select is a computed value.
pub(crate) fn check_slots(
    body: &LinearBody,
    desc: &ScheduleDesc,
    fu: &BoundFu,
) -> Result<(), BindError> {
    let mut i = 0;
    while i < fu.ops.len() {
        let folded_state = fu.ops[i].folded_state;
        let len = fu.ops[i..]
            .iter()
            .take_while(|s| s.folded_state == folded_state)
            .count();
        let slot = &fu.ops[i..i + len];
        i += len;
        if len < 2 {
            continue;
        }
        // pairwise: mutual exclusion is not transitive
        for (k, a) in slot.iter().enumerate() {
            for b in &slot[k + 1..] {
                let pa = &body.dfg.op(a.op).predicate;
                let pb = &body.dfg.op(b.op).predicate;
                if a.state != b.state || !pa.mutually_exclusive(pb) {
                    return Err(BindError::SlotConflict {
                        a: a.op,
                        b: b.op,
                        instance: fu.instance,
                        folded_state,
                    });
                }
            }
        }
        // steering conditions must be available in time
        for s in slot {
            for cond in body.dfg.op(s.op).predicate.condition_ops() {
                let cond_state = desc
                    .ops
                    .get(&cond)
                    .map(|c| c.state)
                    .ok_or(BindError::Unscheduled { op: cond })?;
                if cond_state > s.state {
                    return Err(BindError::UnsteerableSlot {
                        op: s.op,
                        condition: cond,
                        instance: fu.instance,
                        state: s.state,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{Dfg, OpKind, PortDirection, Predicate, Signal};
    use hls_netlist::ScheduledOp;
    use hls_tech::{ResourceClass, ResourceSet, ResourceType};
    use std::collections::BTreeMap;

    fn two_muls_on_one_fu(
        states: (u32, u32),
        ii: Option<u32>,
        preds: Option<(Predicate, Predicate)>,
    ) -> (LinearBody, ScheduleDesc) {
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("y", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let c = dfg.add_op(
            OpKind::Cmp(hls_ir::CmpKind::Gt),
            1,
            vec![Signal::op_w(r, 16), Signal::constant(0, 16)],
        );
        let m1 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(3, 16)],
        );
        let m2 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(5, 16)],
        );
        if let Some((p1, p2)) = preds {
            dfg.op_mut(m1).predicate = p1;
            dfg.op_mut(m2).predicate = p2;
        }
        let w = dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(m1, 16)]);
        let body = LinearBody::from_dfg("twomul", dfg);
        let mut resources = ResourceSet::new();
        let mul = resources.add(ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16));
        let mut ops = BTreeMap::new();
        for (id, state, res) in [
            (r, 0, None),
            (c, 0, None),
            (m1, states.0, Some(mul)),
            (m2, states.1, Some(mul)),
            (w, 3, None),
        ] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource: res,
                },
            );
        }
        (
            body,
            ScheduleDesc {
                num_states: 4,
                ii,
                ops,
                resources,
            },
        )
    }

    #[test]
    fn disjoint_states_share_one_unit() {
        let (body, desc) = two_muls_on_one_fu((1, 2), None, None);
        let mut interner = Interner::new();
        let fus = bind_fus(&body, &desc, &mut interner).expect("bindable");
        assert_eq!(fus.len(), 1);
        assert!(fus[0].is_shared());
        assert_eq!(fus[0].ops.len(), 2);
        assert_eq!(fus[0].candidates(1).count(), 1);
        assert_eq!(interner.class(fus[0].class), &ResourceClass::Multiplier);
    }

    #[test]
    fn same_state_without_exclusive_predicates_conflicts() {
        let (body, desc) = two_muls_on_one_fu((1, 1), None, None);
        let mut interner = Interner::new();
        let err = bind_fus(&body, &desc, &mut interner).unwrap_err();
        assert!(matches!(err, BindError::SlotConflict { .. }), "{err}");
    }

    #[test]
    fn same_state_with_exclusive_predicates_is_steerable() {
        let cond = OpId::from_raw(1);
        let (body, desc) = two_muls_on_one_fu(
            (1, 1),
            None,
            Some((Predicate::Cond(cond), Predicate::NotCond(cond))),
        );
        let mut interner = Interner::new();
        let fus = bind_fus(&body, &desc, &mut interner).expect("steerable");
        assert_eq!(fus[0].candidates(1).count(), 2);
    }

    #[test]
    fn cross_stage_predicate_sharing_is_rejected() {
        // II=2: states 1 and 3 fold onto the same slot but belong to
        // different stages — their predicates guard *different iterations*,
        // so mutual exclusion does not make the sharing steerable.
        let cond = OpId::from_raw(1);
        let (body, desc) = two_muls_on_one_fu(
            (1, 3),
            Some(2),
            Some((Predicate::Cond(cond), Predicate::NotCond(cond))),
        );
        let mut interner = Interner::new();
        let err = bind_fus(&body, &desc, &mut interner).unwrap_err();
        assert!(matches!(err, BindError::SlotConflict { .. }), "{err}");
    }

    #[test]
    fn an_unallocated_instance_is_rejected() {
        let (body, mut desc) = two_muls_on_one_fu((1, 2), None, None);
        let m2 = OpId::from_raw(3);
        let r4 = ResourceInstanceId(4);
        desc.ops.get_mut(&m2).unwrap().resource = Some(r4);
        let err = bind_fus(&body, &desc, &mut Interner::new()).unwrap_err();
        assert_eq!(
            err,
            BindError::UnknownInstance {
                op: m2,
                instance: r4
            }
        );
    }

    #[test]
    fn late_steering_condition_is_rejected() {
        // the discriminating condition lands *after* the shared slot
        let cond = OpId::from_raw(1);
        let (body, mut desc) = two_muls_on_one_fu(
            (1, 1),
            None,
            Some((Predicate::Cond(cond), Predicate::NotCond(cond))),
        );
        desc.ops.get_mut(&cond).unwrap().state = 2;
        let mut interner = Interner::new();
        let err = bind_fus(&body, &desc, &mut interner).unwrap_err();
        assert!(matches!(err, BindError::UnsteerableSlot { .. }), "{err}");
    }
}
