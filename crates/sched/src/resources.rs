//! Initial resource set estimation (the lower bound of Section IV.A).
//!
//! Operations are mapped to width-compatible resource types (merging types
//! whose widths are close, never "very different" widths), and the demand of
//! each type is bounded from below by the number of operations that must
//! execute divided by the number of control-step slots a single instance can
//! serve per iteration — the full latency for a sequential loop, the
//! initiation interval for a pipelined one (edge equivalence makes states
//! `II` apart unable to share an instance). Mutually exclusive predicated
//! operations (the two arms of a converted conditional) are counted once.

use hls_ir::LinearBody;
use hls_tech::{ResourceClass, ResourceSet, ResourceType};
use std::collections::BTreeMap;

/// Computes the initial (lower bound) resource set for a loop body.
///
/// `slots_per_instance` is the number of distinct control steps one instance
/// can serve per loop iteration: the latency for sequential schedules, the II
/// for pipelined ones.
pub fn initial_resource_set(body: &LinearBody, slots_per_instance: u32) -> ResourceSet {
    let ops: Vec<hls_ir::OpId> = body.dfg.op_ids().collect();
    initial_resource_set_for_ops(body, &ops, slots_per_instance)
}

/// Computes the initial resource set for a *subset* of a body's operations —
/// the per-region resource pools of the region decomposition layer
/// ([`crate::region`]). Ops are always processed in ascending id order
/// regardless of the order of `ops`, so the result is independent of how the
/// caller linearized the subset, and a subset covering the whole body yields
/// exactly [`initial_resource_set`].
pub fn initial_resource_set_for_ops(
    body: &LinearBody,
    ops: &[hls_ir::OpId],
    slots_per_instance: u32,
) -> ResourceSet {
    let mut set = ResourceSet::new();
    add_initial_resources(&mut set, body, ops.iter().copied(), slots_per_instance);
    set
}

/// Adds the instances [`initial_resource_set_for_ops`] computes for `ops`
/// to `set`, in the order it adds them to an empty set; each is named
/// after its ordinal within its class in `set`.
pub(crate) fn add_initial_resources(
    set: &mut ResourceSet,
    body: &LinearBody,
    ops: impl IntoIterator<Item = hls_ir::OpId>,
    slots_per_instance: u32,
) {
    let slots = slots_per_instance.max(1) as usize;
    let mut ids: Vec<hls_ir::OpId> = ops.into_iter().collect();
    ids.sort_unstable();

    // Group operations by a merged resource type per class/width bucket.
    let mut groups: BTreeMap<String, (ResourceType, Vec<hls_ir::OpId>)> = BTreeMap::new();
    for (id, op) in ids.iter().map(|&id| (id, body.dfg.op(id))) {
        let Some(ty) = ResourceType::for_op(op) else {
            continue;
        };
        if matches!(ty.class, ResourceClass::IoPort) {
            continue; // port interfaces are not datapath resources
        }
        // Find an existing group this type can merge with.
        let mut merged_into = None;
        for (key, (gty, ops)) in groups.iter_mut() {
            if gty.can_merge(&ty) {
                *gty = gty.merge(&ty);
                ops.push(id);
                merged_into = Some(key.clone());
                break;
            }
        }
        if merged_into.is_none() {
            groups.insert(format!("{}#{}", ty.name(), groups.len()), (ty, vec![id]));
        }
    }

    for (_, (ty, ops)) in groups {
        // Mutually exclusive operations can share an execution slot: pair them
        // greedily and count each pair once. Unconditional operations can
        // never be exclusive with anything, so they skip the pairing scan —
        // on large synthetic designs (mostly unpredicated) this keeps the
        // estimate linear instead of quadratic.
        let mut counted: Vec<hls_ir::OpId> = Vec::new();
        let mut effective = 0usize;
        for &op in &ops {
            let pred = &body.dfg.op(op).predicate;
            let exclusive_partner = if pred.is_true() {
                None
            } else {
                counted
                    .iter()
                    .position(|&other| body.dfg.op(other).predicate.mutually_exclusive(pred))
            };
            if let Some(pos) = exclusive_partner {
                counted.remove(pos);
            } else {
                counted.push(op);
                effective += 1;
            }
        }
        let demand = effective.div_ceil(slots).max(1);
        set.add_many(ty, demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_frontend::designs;
    use hls_opt::linearize::prepare_innermost_loop;

    fn example1_body() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elaborate");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    #[test]
    fn example1_sequential_needs_one_multiplier() {
        // 3 multiplications in at most 3 states → 1 multiplier (paper,
        // Example 1: "a single multiplier suffices").
        let body = example1_body();
        let set = initial_resource_set(&body, 3);
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 1, "{set}");
        assert_eq!(set.count_of_class(&ResourceClass::Adder), 1);
        assert_eq!(set.count_of_class(&ResourceClass::Comparator), 1);
        assert_eq!(set.count_of_class(&ResourceClass::EqualityComparator), 1);
    }

    #[test]
    fn example1_ii2_needs_two_multipliers() {
        // Paper, Example 2: with II = 2 "two mul resources must be created".
        let body = example1_body();
        let set = initial_resource_set(&body, 2);
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 2, "{set}");
    }

    #[test]
    fn example1_ii1_needs_three_multipliers() {
        // Paper, Example 3: with II = 1 "3 multipliers are created".
        let body = example1_body();
        let set = initial_resource_set(&body, 1);
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 3, "{set}");
    }

    #[test]
    fn mutually_exclusive_branch_arms_share_a_slot() {
        use hls_frontend::{BehaviorBuilder, Expr};
        use hls_ir::CmpKind;
        let mut b = BehaviorBuilder::new("branchy");
        b.port_in("x", 32);
        b.port_out("y", 32);
        let v = b.var("v", 32, 0);
        let body_stmts = vec![
            b.assign(v, b.read_port("x")),
            b.if_then_else(
                Expr::cmp(CmpKind::Gt, b.read_var(v), Expr::Const(7)),
                vec![b.assign(v, Expr::mul(b.read_var(v), Expr::Const(3)))],
                vec![b.assign(v, Expr::mul(b.read_var(v), Expr::Const(5)))],
            ),
            b.write_port("y", b.read_var(v)),
            b.wait(),
        ];
        let l = b.do_while(
            "main",
            body_stmts,
            Expr::cmp(CmpKind::Ne, b.read_var(v), Expr::Const(0)),
        );
        b.push(l);
        let mut cdfg = hls_frontend::elaborate(&b.build()).expect("elab");
        let body = prepare_innermost_loop(&mut cdfg).expect("prepare");
        // Two multiplications, but they are mutually exclusive → one multiplier
        // even with a single slot.
        let set = initial_resource_set(&body, 1);
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 1, "{set}");
    }

    #[test]
    fn io_ports_are_not_allocated_as_resources() {
        let body = example1_body();
        let set = initial_resource_set(&body, 3);
        assert_eq!(set.count_of_class(&ResourceClass::IoPort), 0);
    }
}
