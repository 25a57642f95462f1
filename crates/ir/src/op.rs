//! Operation kinds and the [`Operation`] DFG node.

use crate::ids::{CfgEdgeId, PortId};
use crate::predicate::Predicate;
use std::fmt;

/// Comparison flavours, used by [`OpKind::Cmp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpKind {
    /// Equality (`==`), the paper's `neq_op` inverse.
    Eq,
    /// Inequality (`!=`), e.g. the `delta != 0` loop exit test.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than, e.g. the `aver > th` test of Figure 1.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpKind {
    /// Short mnemonic used in resource names and reports (`gt`, `neq`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpKind::Eq => "eq",
            CmpKind::Ne => "neq",
            CmpKind::Lt => "lt",
            CmpKind::Le => "le",
            CmpKind::Gt => "gt",
            CmpKind::Ge => "ge",
        }
    }

    /// Evaluates the comparison on two signed values.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpKind::Eq => lhs == rhs,
            CmpKind::Ne => lhs != rhs,
            CmpKind::Lt => lhs < rhs,
            CmpKind::Le => lhs <= rhs,
            CmpKind::Gt => lhs > rhs,
            CmpKind::Ge => lhs >= rhs,
        }
    }

    /// Returns the comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Self {
        match self {
            CmpKind::Eq => CmpKind::Eq,
            CmpKind::Ne => CmpKind::Ne,
            CmpKind::Lt => CmpKind::Gt,
            CmpKind::Le => CmpKind::Ge,
            CmpKind::Gt => CmpKind::Lt,
            CmpKind::Ge => CmpKind::Le,
        }
    }
}

impl fmt::Display for CmpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The kind of a DFG operation.
///
/// Kinds are deliberately close to what an HLS front-end produces from a
/// behavioural description: arithmetic, logic, shifts, comparisons,
/// multiplexers introduced by predicate conversion, constants, bit-range
/// selections and I/O port accesses.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication (the dominant resource of the paper's examples).
    Mul,
    /// Integer division (multi-cycle capable).
    Div,
    /// Integer remainder.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (single operand).
    Not,
    /// Arithmetic negation (single operand).
    Neg,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Comparison producing a 1-bit result.
    Cmp(CmpKind),
    /// 2-input multiplexer: `inputs[0] ? inputs[1] : inputs[2]`.
    ///
    /// Multiplexers are first-class operations because predicate conversion
    /// (Figure 4 of the paper) rewrites conditional assignments into muxes.
    Mux,
    /// Bit-range selection `x.range(hi, lo)` (e.g. `w.range(15,0)` in Figure 6).
    Slice {
        /// Most significant selected bit.
        hi: u16,
        /// Least significant selected bit.
        lo: u16,
    },
    /// Zero/sign extension or truncation to the operation's result width.
    Resize,
    /// Constant value.
    Const(i64),
    /// Read of an input port.
    Read(PortId),
    /// Write of an output port (`inputs[0]` is the written value).
    Write(PortId),
    /// A no-op used to anchor values (e.g. loop-carried variable sources).
    Pass,
}

impl OpKind {
    /// Returns `true` for operations with externally observable effects,
    /// which must never be speculated or reordered across loop iterations.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, OpKind::Write(_))
    }

    /// Returns `true` for operations that occupy no datapath resource
    /// (constants, pass-throughs, slices and resizes are wiring only).
    pub fn is_free(&self) -> bool {
        matches!(
            self,
            OpKind::Const(_) | OpKind::Pass | OpKind::Slice { .. } | OpKind::Resize
        )
    }

    /// Returns the number of data inputs the kind expects.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Rem
            | OpKind::And
            | OpKind::Or
            | OpKind::Xor
            | OpKind::Shl
            | OpKind::Shr
            | OpKind::Cmp(_) => 2,
            OpKind::Not
            | OpKind::Neg
            | OpKind::Slice { .. }
            | OpKind::Resize
            | OpKind::Write(_) => 1,
            OpKind::Mux => 3,
            OpKind::Const(_) | OpKind::Read(_) | OpKind::Pass => 0,
        }
    }

    /// Short mnemonic used in resource names and reports.
    pub fn mnemonic(&self) -> String {
        match self {
            OpKind::Add => "add".into(),
            OpKind::Sub => "sub".into(),
            OpKind::Mul => "mul".into(),
            OpKind::Div => "div".into(),
            OpKind::Rem => "rem".into(),
            OpKind::And => "and".into(),
            OpKind::Or => "or".into(),
            OpKind::Xor => "xor".into(),
            OpKind::Not => "not".into(),
            OpKind::Neg => "neg".into(),
            OpKind::Shl => "shl".into(),
            OpKind::Shr => "shr".into(),
            OpKind::Cmp(c) => c.mnemonic().into(),
            OpKind::Mux => "mux".into(),
            OpKind::Slice { hi, lo } => format!("slice[{hi}:{lo}]"),
            OpKind::Resize => "resize".into(),
            OpKind::Const(v) => format!("const({v})"),
            OpKind::Read(p) => format!("read({p})"),
            OpKind::Write(p) => format!("write({p})"),
            OpKind::Pass => "pass".into(),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// A DFG node: one operation of the behavioural description.
///
/// An operation carries its [`OpKind`], the bit width of its result, its data
/// inputs (see [`Signal`](crate::Signal)), the predicate under which it
/// executes (after if-conversion), and the CFG edge (control step) it was
/// associated with at elaboration time.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// What the operation computes.
    pub kind: OpKind,
    /// Result bit width.
    pub width: u16,
    /// Data inputs, in positional order.
    pub inputs: Vec<crate::dfg::Signal>,
    /// Execution predicate; `Predicate::True` for unconditional operations.
    pub predicate: Predicate,
    /// The control step the operation belongs to in the source description,
    /// if elaborated from a structured CDFG.
    pub home_edge: Option<CfgEdgeId>,
    /// Optional human-readable name (e.g. `mul1_op` in the paper's figures).
    pub name: Option<String>,
}

impl Operation {
    /// Creates an unconditional, unnamed operation.
    pub fn new(kind: OpKind, width: u16, inputs: Vec<crate::dfg::Signal>) -> Self {
        Self {
            kind,
            width,
            inputs,
            predicate: Predicate::True,
            home_edge: None,
            name: None,
        }
    }

    /// Returns the display name of the operation: its explicit name if set,
    /// otherwise the kind mnemonic.
    pub fn display_name(&self) -> String {
        self.name.clone().unwrap_or_else(|| self.kind.mnemonic())
    }

    /// Returns `true` for the elaborator's *first-iteration anchor*: an
    /// input-less `Pass` whose value is defined to be 1 on the first loop
    /// iteration and 0 afterwards. The `loopMux` pattern (paper Figure 3(b))
    /// selects the pre-loop value through this flag; execution engines give
    /// it the matching value.
    pub fn is_first_iter_anchor(&self) -> bool {
        matches!(self.kind, OpKind::Pass)
            && self.inputs.is_empty()
            && self
                .name
                .as_deref()
                .is_some_and(|n| n.ends_with("first_iter"))
    }

    /// Maximum bit width among the operation's inputs and output.
    pub fn max_width(&self) -> u16 {
        self.inputs
            .iter()
            .map(|s| s.width)
            .chain(std::iter::once(self.width))
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_matches_semantics() {
        assert!(CmpKind::Gt.eval(5, 3));
        assert!(!CmpKind::Gt.eval(3, 5));
        assert!(CmpKind::Ne.eval(1, 0));
        assert!(CmpKind::Le.eval(2, 2));
        assert!(CmpKind::Eq.eval(-4, -4));
        assert!(!CmpKind::Lt.eval(0, -1));
        assert!(CmpKind::Ge.eval(0, -1));
    }

    #[test]
    fn cmp_swapped_is_involutive_on_strict_orders() {
        for k in [
            CmpKind::Lt,
            CmpKind::Le,
            CmpKind::Gt,
            CmpKind::Ge,
            CmpKind::Eq,
            CmpKind::Ne,
        ] {
            assert_eq!(k.swapped().swapped(), k);
            // a OP b  ==  b swapped(OP) a
            assert_eq!(k.eval(3, 7), k.swapped().eval(7, 3));
        }
    }

    #[test]
    fn io_and_side_effects() {
        let p = PortId::from_raw(0);
        assert!(!OpKind::Read(p).has_side_effects());
        assert!(OpKind::Write(p).has_side_effects());
    }

    #[test]
    fn free_ops_are_wiring_only() {
        assert!(OpKind::Const(3).is_free());
        assert!(OpKind::Pass.is_free());
        assert!(OpKind::Slice { hi: 15, lo: 0 }.is_free());
        assert!(!OpKind::Mux.is_free());
        assert!(!OpKind::Add.is_free());
    }

    #[test]
    fn arity() {
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(OpKind::Mux.arity(), 3);
        assert_eq!(OpKind::Not.arity(), 1);
        assert_eq!(OpKind::Const(0).arity(), 0);
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(OpKind::Mul.mnemonic(), "mul");
        assert_eq!(OpKind::Cmp(CmpKind::Gt).mnemonic(), "gt");
        assert_eq!(OpKind::Cmp(CmpKind::Ne).mnemonic(), "neq");
        assert_eq!(OpKind::Slice { hi: 15, lo: 0 }.mnemonic(), "slice[15:0]");
        assert_eq!(format!("{}", OpKind::Add), "add");
    }

    #[test]
    fn operation_display_name_prefers_explicit_name() {
        let mut op = Operation::new(OpKind::Mul, 32, vec![]);
        assert_eq!(op.display_name(), "mul");
        op.name = Some("mul1_op".into());
        assert_eq!(op.display_name(), "mul1_op");
    }

    #[test]
    fn first_iter_anchor_detection() {
        let mut op = Operation::new(OpKind::Pass, 1, vec![]);
        assert!(!op.is_first_iter_anchor(), "unnamed pass is not an anchor");
        op.name = Some("do_while_first_iter".into());
        assert!(op.is_first_iter_anchor());
        op.kind = OpKind::Const(0);
        assert!(!op.is_first_iter_anchor(), "only Pass ops qualify");
    }
}
