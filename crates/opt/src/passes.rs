//! Standard compiler optimizations on the CDFG's data flow graph.
//!
//! All passes are *use-rewriting*: they never delete operations directly
//! (which would invalidate ids held elsewhere); instead they redirect uses
//! and neutralize operations, and [`DeadCodeElimination`] finally turns
//! unreachable operations into free `Pass` nodes that the scheduler ignores
//! and reports exclude.

use crate::error::OptError;
use hls_ir::{Cdfg, OpId, OpKind, Signal};
use std::collections::{HashMap, HashSet};

/// A CDFG optimization pass.
pub trait Pass {
    /// Pass name used in reports.
    fn name(&self) -> &'static str;

    /// Runs the pass, returning the number of changes applied.
    ///
    /// # Errors
    /// Returns [`OptError`] if the pass encounters or produces invalid IR.
    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError>;
}

/// Replaces every use of the result of `from` with `to` (width preserved from
/// the original use). Returns the number of rewritten uses.
pub(crate) fn replace_uses(cdfg: &mut Cdfg, from: OpId, to: Signal) -> usize {
    let mut changed = 0;
    for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
        let op = cdfg.dfg.op_mut(id);
        for input in &mut op.inputs {
            if input.producer() == Some(from) {
                let width = input.width;
                let distance = input.distance;
                *input = Signal {
                    width,
                    distance: distance + to.distance,
                    ..to
                };
                changed += 1;
            }
        }
    }
    changed
}

/// Redirects every *control* reference to condition op `from` onto `to`:
/// fork conditions, loop exit conditions and operation predicates. Data uses
/// are handled by [`replace_uses`]; forgetting these control references would
/// leave branches/loops keyed on a neutralized operation.
pub(crate) fn redirect_condition_refs(cdfg: &mut Cdfg, from: OpId, to: OpId) {
    for cond in cdfg.fork_conditions.values_mut() {
        if *cond == from {
            *cond = to;
        }
    }
    for l in &mut cdfg.loops {
        if l.exit_condition == Some(from) {
            l.exit_condition = Some(to);
        }
    }
    for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
        cdfg.dfg.op_mut(id).predicate.replace_cond(from, to);
    }
}

/// Evaluates an operation on constant inputs, if possible, using the IR's
/// executable semantics ([`hls_ir::eval`]) so folding is bit-exact with the
/// interpreter, the netlist simulator and the emitted RTL: inputs wrap to
/// their signal widths, the result wraps to the operation width.
///
/// Division/remainder by a literal zero is *not* folded even though the
/// semantics define it (`a / 0 = 0`, `a % 0 = a`): keeping the operation
/// preserves the guard in the emitted hardware, which reads more honestly
/// than a silently materialized constant.
fn eval_const(op: &hls_ir::Operation) -> Option<i64> {
    use hls_ir::dfg::SignalSource;
    use hls_ir::eval::{eval_op, BitVal};
    if matches!(op.kind, OpKind::Div | OpKind::Rem) {
        // the divisor counts as zero if it *wraps* to zero at its width
        if let Some(s) = op.inputs.get(1) {
            if let SignalSource::Const(v) = s.source {
                if BitVal::new(v, s.width).as_i64() == 0 {
                    return None;
                }
            }
        }
    }
    let inputs: Option<Vec<BitVal>> = op
        .inputs
        .iter()
        .map(|s| match s.source {
            SignalSource::Const(v) => Some(BitVal::new(v, s.width)),
            SignalSource::Op(_) => None,
        })
        .collect();
    eval_op(&op.kind, op.width, &inputs?)
        .ok()
        .map(BitVal::as_i64)
}

/// Constant folding: operations whose inputs are all literal constants are
/// replaced by `Const` operations and their uses rewritten.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstantFolding;

impl Pass for ConstantFolding {
    fn name(&self) -> &'static str {
        "constant-folding"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut changed = 0;
        loop {
            let mut round = 0;
            for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
                let op = cdfg.dfg.op(id);
                if matches!(op.kind, OpKind::Const(_)) || op.kind.has_side_effects() {
                    continue;
                }
                if op.inputs.is_empty() {
                    continue;
                }
                let Some(result) = eval_const(op) else {
                    continue;
                };
                let width = op.width;
                let op_mut = cdfg.dfg.op_mut(id);
                op_mut.kind = OpKind::Const(result);
                op_mut.inputs.clear();
                replace_uses(cdfg, id, Signal::constant(result, width));
                round += 1;
            }
            changed += round;
            if round == 0 {
                break;
            }
        }
        Ok(changed)
    }
}

/// Strength reduction: `x * 2^k → x << k`, `x * 1 → x`, `x + 0 → x`,
/// `x * 0 → 0`, mirrored for commuted operand orders.
#[derive(Clone, Copy, Debug, Default)]
pub struct StrengthReduction;

impl Pass for StrengthReduction {
    fn name(&self) -> &'static str {
        "strength-reduction"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut changed = 0;
        for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
            let op = cdfg.dfg.op(id).clone();
            let const_of = |s: &Signal| match s.source {
                hls_ir::dfg::SignalSource::Const(v) => Some(v),
                hls_ir::dfg::SignalSource::Op(_) => None,
            };
            match op.kind {
                OpKind::Mul => {
                    let (lhs, rhs) = (op.inputs[0], op.inputs[1]);
                    let rewrite = match (const_of(&lhs), const_of(&rhs)) {
                        (_, Some(0)) | (Some(0), _) => Some(Signal::constant(0, op.width)),
                        (_, Some(1)) => Some(lhs),
                        (Some(1), _) => Some(rhs),
                        _ => None,
                    };
                    if let Some(sig) = rewrite {
                        replace_uses(cdfg, id, sig);
                        changed += 1;
                        continue;
                    }
                    // power-of-two multiplicand → shift
                    let shift_of =
                        |v: i64| (v > 1 && (v & (v - 1)) == 0).then(|| v.trailing_zeros() as i64);
                    if let Some(k) = const_of(&rhs).and_then(shift_of) {
                        let op_mut = cdfg.dfg.op_mut(id);
                        op_mut.kind = OpKind::Shl;
                        op_mut.inputs = vec![lhs, Signal::constant(k, 8)];
                        changed += 1;
                    } else if let Some(k) = const_of(&lhs).and_then(shift_of) {
                        let op_mut = cdfg.dfg.op_mut(id);
                        op_mut.kind = OpKind::Shl;
                        op_mut.inputs = vec![rhs, Signal::constant(k, 8)];
                        changed += 1;
                    }
                }
                OpKind::Add => {
                    let (lhs, rhs) = (op.inputs[0], op.inputs[1]);
                    if const_of(&rhs) == Some(0) {
                        replace_uses(cdfg, id, lhs);
                        changed += 1;
                    } else if const_of(&lhs) == Some(0) {
                        replace_uses(cdfg, id, rhs);
                        changed += 1;
                    }
                }
                _ => {}
            }
        }
        Ok(changed)
    }
}

/// Common subexpression elimination: operations with identical kind, result
/// width, inputs and predicate are merged (later occurrences redirect to the
/// first one). I/O and side-effecting operations are never merged.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommonSubexpression;

impl Pass for CommonSubexpression {
    fn name(&self) -> &'static str {
        "common-subexpression-elimination"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut changed = 0;
        loop {
            let mut seen: HashMap<String, OpId> = HashMap::new();
            let mut round = 0;
            for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
                let op = cdfg.dfg.op(id);
                if op.kind.has_side_effects() || matches!(op.kind, OpKind::Read(_) | OpKind::Pass) {
                    continue;
                }
                let key = format!(
                    "{:?}|{}|{:?}|{:?}|{:?}",
                    op.kind, op.width, op.inputs, op.predicate, op.home_edge
                );
                match seen.get(&key) {
                    Some(&first) if first != id => {
                        let width = op.width;
                        replace_uses(cdfg, id, Signal::op_w(first, width));
                        redirect_condition_refs(cdfg, id, first);
                        // Neutralize the duplicate so later rounds (and the
                        // convergence check) do not rediscover it.
                        let op = cdfg.dfg.op_mut(id);
                        op.kind = OpKind::Pass;
                        op.inputs.clear();
                        op.predicate = hls_ir::Predicate::True;
                        op.name = Some(format!("cse_{}", id.index()));
                        round += 1;
                    }
                    _ => {
                        seen.insert(key, id);
                    }
                }
            }
            changed += round;
            if round == 0 {
                break;
            }
        }
        Ok(changed)
    }
}

/// Dead code elimination: operations whose results cannot reach an output
/// write, a loop exit condition, a fork condition or a predicate are
/// neutralized into free `Pass` operations with no inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadCodeElimination;

impl Pass for DeadCodeElimination {
    fn name(&self) -> &'static str {
        "dead-code-elimination"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut live: HashSet<OpId> = HashSet::new();
        let mut worklist: Vec<OpId> = Vec::new();
        for (id, op) in cdfg.dfg.iter_ops() {
            if op.kind.has_side_effects() {
                worklist.push(id);
            }
        }
        for l in &cdfg.loops {
            if let Some(c) = l.exit_condition {
                worklist.push(c);
            }
        }
        for &c in cdfg.fork_conditions.values() {
            worklist.push(c);
        }
        // predicates of live ops keep their condition ops alive; handled in
        // the propagation loop below.
        while let Some(id) = worklist.pop() {
            if !live.insert(id) {
                continue;
            }
            let op = cdfg.dfg.op(id);
            for s in &op.inputs {
                if let Some(p) = s.producer() {
                    worklist.push(p);
                }
            }
            for c in op.predicate.condition_ops() {
                worklist.push(c);
            }
        }
        let mut changed = 0;
        for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
            if live.contains(&id) {
                continue;
            }
            let op = cdfg.dfg.op_mut(id);
            if matches!(op.kind, OpKind::Pass) && op.inputs.is_empty() {
                continue; // already neutral
            }
            op.kind = OpKind::Pass;
            op.inputs.clear();
            op.predicate = hls_ir::Predicate::True;
            op.name = Some(format!("dead_{}", id.index()));
            changed += 1;
        }
        Ok(changed)
    }
}

/// Width reduction for literal constants: shrink the recorded width of
/// constant signals to the number of bits actually needed (plus a sign bit),
/// which lets downstream resource sizing pick narrower units.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConstWidthReduction;

impl ConstWidthReduction {
    fn needed_width(v: i64) -> u16 {
        if v == 0 {
            1
        } else if v > 0 {
            (64 - v.leading_zeros() as u16) + 1
        } else {
            (64 - (!v).leading_zeros() as u16) + 1
        }
    }
}

impl Pass for ConstWidthReduction {
    fn name(&self) -> &'static str {
        "const-width-reduction"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut changed = 0;
        for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
            let op = cdfg.dfg.op_mut(id);
            for input in &mut op.inputs {
                if let hls_ir::dfg::SignalSource::Const(v) = input.source {
                    let needed = Self::needed_width(v).min(input.width.max(1));
                    if needed < input.width {
                        input.width = needed;
                        changed += 1;
                    }
                }
            }
        }
        Ok(changed)
    }
}

/// Comparison canonicalization: rewrites `const OP x` into `x swapped(OP)
/// const` so CSE catches commuted duplicates of comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct CanonicalizeCompares;

impl Pass for CanonicalizeCompares {
    fn name(&self) -> &'static str {
        "canonicalize-compares"
    }

    fn run(&self, cdfg: &mut Cdfg) -> Result<usize, OptError> {
        let mut changed = 0;
        for id in cdfg.dfg.op_ids().collect::<Vec<_>>() {
            let op = cdfg.dfg.op_mut(id);
            if let OpKind::Cmp(kind) = op.kind {
                let lhs_is_const =
                    matches!(op.inputs[0].source, hls_ir::dfg::SignalSource::Const(_));
                let rhs_is_op = matches!(op.inputs[1].source, hls_ir::dfg::SignalSource::Op(_));
                if lhs_is_const && rhs_is_op {
                    op.inputs.swap(0, 1);
                    op.kind = OpKind::Cmp(kind.swapped());
                    changed += 1;
                }
            }
        }
        Ok(changed)
    }
}

/// Number of operations that still occupy datapath resources (free `Pass`,
/// `Const` and slice nodes excluded) — the "real" size of a design after
/// optimization, comparable with the op counts the paper quotes.
pub fn effective_op_count(cdfg: &Cdfg) -> usize {
    cdfg.dfg
        .iter_ops()
        .filter(|(_, op)| !op.kind.is_free())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::{CmpKind, Dfg, PortDirection};

    fn cdfg_with(dfg: Dfg) -> Cdfg {
        let mut cdfg = Cdfg::new("t");
        cdfg.dfg = dfg;
        cdfg
    }

    #[test]
    fn constant_folding_collapses_chains() {
        let mut dfg = Dfg::new();
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let a = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::constant(2, 32), Signal::constant(3, 32)],
        );
        let b = dfg.add_op(
            OpKind::Mul,
            32,
            vec![Signal::op(a), Signal::constant(4, 32)],
        );
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(b)]);
        let mut cdfg = cdfg_with(dfg);
        let n = ConstantFolding.run(&mut cdfg).unwrap();
        assert_eq!(n, 2);
        assert_eq!(cdfg.dfg.op(b).kind, OpKind::Const(20));
    }

    #[test]
    fn constant_folding_handles_mux_and_cmp() {
        let mut dfg = Dfg::new();
        let c = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::constant(5, 32), Signal::constant(3, 32)],
        );
        let m = dfg.add_op(
            OpKind::Mux,
            32,
            vec![
                Signal::op_w(c, 1),
                Signal::constant(10, 32),
                Signal::constant(20, 32),
            ],
        );
        let mut cdfg = cdfg_with(dfg);
        ConstantFolding.run(&mut cdfg).unwrap();
        // a true comparison is the all-ones 1-bit value, whose canonical
        // signed reading is -1 (same bits as 1'b1)
        assert_eq!(cdfg.dfg.op(c).kind, OpKind::Const(-1));
        assert_eq!(cdfg.dfg.op(m).kind, OpKind::Const(10));
    }

    #[test]
    fn constant_folding_wraps_to_the_operation_width() {
        let mut dfg = Dfg::new();
        let y = dfg.add_port("y", PortDirection::Output, 8);
        // 127 + 1 wraps to -128 at 8 bits (the old i64 folding said 128)
        let a = dfg.add_op(
            OpKind::Add,
            8,
            vec![Signal::constant(127, 8), Signal::constant(1, 8)],
        );
        dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(a, 8)]);
        let mut cdfg = cdfg_with(dfg);
        ConstantFolding.run(&mut cdfg).unwrap();
        assert_eq!(cdfg.dfg.op(a).kind, OpKind::Const(-128));
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut dfg = Dfg::new();
        let d = dfg.add_op(
            OpKind::Div,
            32,
            vec![Signal::constant(5, 32), Signal::constant(0, 32)],
        );
        // 256 wraps to zero at 8 bits: the guard must catch it too
        let wrapped = dfg.add_op(
            OpKind::Rem,
            8,
            vec![Signal::constant(5, 8), Signal::constant(256, 8)],
        );
        let mut cdfg = cdfg_with(dfg);
        ConstantFolding.run(&mut cdfg).unwrap();
        assert_eq!(cdfg.dfg.op(d).kind, OpKind::Div);
        assert_eq!(cdfg.dfg.op(wrapped).kind, OpKind::Rem);
    }

    #[test]
    fn strength_reduction_power_of_two() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let m = dfg.add_op(
            OpKind::Mul,
            32,
            vec![Signal::op(r), Signal::constant(8, 32)],
        );
        let mut cdfg = cdfg_with(dfg);
        let n = StrengthReduction.run(&mut cdfg).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cdfg.dfg.op(m).kind, OpKind::Shl);
    }

    #[test]
    fn strength_reduction_identities() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let add0 = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(r), Signal::constant(0, 32)],
        );
        let mul1 = dfg.add_op(
            OpKind::Mul,
            32,
            vec![Signal::op(add0), Signal::constant(1, 32)],
        );
        let w = dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(mul1)]);
        let mut cdfg = cdfg_with(dfg);
        StrengthReduction.run(&mut cdfg).unwrap();
        // the write should now consume the port read directly
        assert_eq!(cdfg.dfg.op(w).inputs[0].producer(), Some(r));
    }

    #[test]
    fn cse_merges_duplicate_multiplications() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let m1 = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(r), Signal::op(r)]);
        let m2 = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(r), Signal::op(r)]);
        let sum = dfg.add_op(OpKind::Add, 32, vec![Signal::op(m1), Signal::op(m2)]);
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(sum)]);
        let mut cdfg = cdfg_with(dfg);
        let n = CommonSubexpression.run(&mut cdfg).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cdfg.dfg.op(sum).inputs[0].producer(), Some(m1));
        assert_eq!(cdfg.dfg.op(sum).inputs[1].producer(), Some(m1));
    }

    #[test]
    fn cse_redirects_fork_and_exit_conditions_and_predicates() {
        use hls_ir::{CfgNodeId, Predicate};
        // Two structurally identical comparisons; one backs a fork condition,
        // a loop exit condition and an operation predicate. After CSE merges
        // them, every control reference must point at the survivor, never at
        // the neutralized duplicate.
        let mut dfg = Dfg::new();
        let p = dfg.add_port("v", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let c1 = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::op(r), Signal::constant(0, 32)],
        );
        let c2 = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::op(r), Signal::constant(0, 32)],
        );
        let w = dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(r)]);
        dfg.op_mut(w).predicate = Predicate::Cond(c2);
        let mut cdfg = cdfg_with(dfg);
        let fork = CfgNodeId::from_raw(7);
        cdfg.fork_conditions.insert(fork, c2);
        cdfg.loops.push(hls_ir::LoopInfo {
            id: hls_ir::LoopId::from_raw(0),
            top: CfgNodeId::from_raw(0),
            bottom: CfgNodeId::from_raw(1),
            body_edges: vec![],
            exit_condition: Some(c2),
            infinite: false,
            name: None,
        });

        let n = CommonSubexpression.run(&mut cdfg).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cdfg.dfg.op(c2).kind, OpKind::Pass);
        assert_eq!(cdfg.fork_conditions[&fork], c1);
        assert_eq!(cdfg.loops[0].exit_condition, Some(c1));
        assert_eq!(cdfg.dfg.op(w).predicate, Predicate::Cond(c1));
    }

    #[test]
    fn cse_does_not_merge_ops_of_different_width() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let narrow = dfg.add_op(OpKind::Add, 16, vec![Signal::op(r), Signal::op(r)]);
        let wide = dfg.add_op(OpKind::Add, 32, vec![Signal::op(r), Signal::op(r)]);
        let sum = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op_w(narrow, 16), Signal::op_w(wide, 32)],
        );
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(sum)]);
        let mut cdfg = cdfg_with(dfg);
        let n = CommonSubexpression.run(&mut cdfg).unwrap();
        assert_eq!(n, 0, "16-bit and 32-bit adds must not be merged");
        assert_eq!(cdfg.dfg.op(narrow).kind, OpKind::Add);
        assert_eq!(cdfg.dfg.op(wide).kind, OpKind::Add);
    }

    #[test]
    fn dce_neutralizes_unused_ops() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let used = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(r), Signal::constant(1, 32)],
        );
        let unused = dfg.add_op(OpKind::Mul, 32, vec![Signal::op(r), Signal::op(r)]);
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(used)]);
        let mut cdfg = cdfg_with(dfg);
        let n = DeadCodeElimination.run(&mut cdfg).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cdfg.dfg.op(unused).kind, OpKind::Pass);
        assert_eq!(cdfg.dfg.op(used).kind, OpKind::Add);
        assert_eq!(effective_op_count(&cdfg), 3);
    }

    #[test]
    fn dce_keeps_predicate_conditions_alive() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let y = dfg.add_port("y", PortDirection::Output, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let cond = dfg.add_op(
            OpKind::Cmp(CmpKind::Gt),
            1,
            vec![Signal::op(r), Signal::constant(0, 32)],
        );
        let val = dfg.add_predicated_op(
            OpKind::Add,
            32,
            vec![Signal::op(r), Signal::constant(1, 32)],
            hls_ir::Predicate::Cond(cond),
        );
        dfg.add_op(OpKind::Write(y), 32, vec![Signal::op(val)]);
        let mut cdfg = cdfg_with(dfg);
        DeadCodeElimination.run(&mut cdfg).unwrap();
        assert_eq!(cdfg.dfg.op(cond).kind, OpKind::Cmp(CmpKind::Gt));
    }

    #[test]
    fn const_width_reduction_narrows_literals() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let a = dfg.add_op(
            OpKind::Add,
            32,
            vec![Signal::op(r), Signal::constant(3, 32)],
        );
        let mut cdfg = cdfg_with(dfg);
        let n = ConstWidthReduction.run(&mut cdfg).unwrap();
        assert_eq!(n, 1);
        assert_eq!(cdfg.dfg.op(a).inputs[1].width, 3);
    }

    #[test]
    fn canonicalize_compares_swaps_const_lhs() {
        let mut dfg = Dfg::new();
        let p = dfg.add_port("x", PortDirection::Input, 32);
        let r = dfg.add_op(OpKind::Read(p), 32, vec![]);
        let c = dfg.add_op(
            OpKind::Cmp(CmpKind::Lt),
            1,
            vec![Signal::constant(0, 32), Signal::op(r)],
        );
        let mut cdfg = cdfg_with(dfg);
        CanonicalizeCompares.run(&mut cdfg).unwrap();
        assert_eq!(cdfg.dfg.op(c).kind, OpKind::Cmp(CmpKind::Gt));
        assert_eq!(cdfg.dfg.op(c).inputs[0].producer(), Some(r));
    }
}
