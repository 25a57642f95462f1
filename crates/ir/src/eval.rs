//! Executable semantics of the IR: bit-accurate operation evaluation.
//!
//! This module pins down, in one place, *what every [`OpKind`] computes* so
//! that the reference interpreter, the netlist simulator and the RTL emitter
//! (`hls-netlist`) all agree bit-for-bit. The value model is:
//!
//! * every value is a **two's-complement signed bit-vector** of a width
//!   between 1 and 64 bits ([`BitVal`]);
//! * an operation input is first resized to the consuming [`Signal`]'s width
//!   (truncation drops high bits, widening **sign-extends** — the IR carries
//!   no unsigned type, matching the paper's `int`-typed SystemC input);
//! * the operation is computed on the sign-extended values and the result
//!   **wraps** to the operation's declared width.
//!
//! The corner cases the Verilog standard leaves implementation-defined (or
//! `x`-valued) are given explicit, total definitions here, and the RTL
//! emitter generates guards so the emitted text has the same semantics:
//!
//! | case                         | defined result                          |
//! |------------------------------|-----------------------------------------|
//! | `Div` by zero                | `0`                                     |
//! | `Rem` by zero                | the dividend (`a % 0 = a`), preserving `a = (a/b)*b + a%b` |
//! | `Div`/`Rem` rounding         | truncation toward zero, sign of `Rem` follows the dividend |
//! | `Shl` by ≥ 64 (or negative)  | `0` (the amount is the *unsigned* value of the rhs bits)   |
//! | `Shr` by ≥ 64 (or negative)  | sign fill (all bits copies of the sign bit)                |
//! | `Resize` widening            | sign extension                          |
//! | `Slice` beyond the input     | reads the sign-extended representation  |
//!
//! [`Signal`]: crate::Signal

use crate::op::{CmpKind, OpKind};
use std::fmt;

/// Maximum supported value width in bits.
pub const MAX_WIDTH: u16 = 64;

/// A two's-complement signed bit-vector value of 1–64 bits.
///
/// The representation keeps the raw bits masked to the width; [`as_i64`]
/// reads them sign-extended and [`as_u64`] zero-extended. Construction wraps
/// the given value to the width, so a `BitVal` is always canonical.
///
/// [`as_i64`]: BitVal::as_i64
/// [`as_u64`]: BitVal::as_u64
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitVal {
    bits: u64,
    width: u16,
}

impl BitVal {
    /// Wraps `value` to a `width`-bit two's-complement value.
    ///
    /// Widths are clamped to `1..=64`.
    pub fn new(value: i64, width: u16) -> Self {
        let width = width.clamp(1, MAX_WIDTH);
        BitVal {
            bits: (value as u64) & Self::mask(width),
            width,
        }
    }

    /// The all-zero value of the given width.
    pub fn zero(width: u16) -> Self {
        Self::new(0, width)
    }

    /// Builds a value from raw bits (masked to `width`).
    pub fn from_bits(bits: u64, width: u16) -> Self {
        let width = width.clamp(1, MAX_WIDTH);
        BitVal {
            bits: bits & Self::mask(width),
            width,
        }
    }

    fn mask(width: u16) -> u64 {
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// Bit width of the value.
    pub fn width(self) -> u16 {
        self.width
    }

    /// The raw bits, zero-extended to 64 bits.
    pub fn as_u64(self) -> u64 {
        self.bits
    }

    /// The value sign-extended to an `i64` (the canonical reading).
    pub fn as_i64(self) -> i64 {
        if self.width >= 64 {
            self.bits as i64
        } else {
            let shift = 64 - u32::from(self.width);
            ((self.bits << shift) as i64) >> shift
        }
    }

    /// Resizes to `width`: truncation when narrowing, **sign extension** when
    /// widening (the IR value model is signed).
    pub fn resize(self, width: u16) -> Self {
        Self::new(self.as_i64(), width)
    }

    /// `true` when any bit is set — the multiplexer/predicate truth test.
    pub fn is_true(self) -> bool {
        self.bits != 0
    }
}

impl fmt::Debug for BitVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.as_i64(), self.width)
    }
}

impl fmt::Display for BitVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_i64())
    }
}

/// Error raised by [`eval_op`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The operation expects a different number of inputs.
    BadArity {
        /// Kind mnemonic.
        kind: String,
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        found: usize,
    },
    /// The kind has no context-free value semantics (`Read`, `Write`,
    /// input-less `Pass`): an execution engine must supply the value.
    NeedsContext {
        /// Kind mnemonic.
        kind: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::BadArity {
                kind,
                expected,
                found,
            } => write!(f, "`{kind}` expects {expected} inputs, got {found}"),
            EvalError::NeedsContext { kind } => {
                write!(f, "`{kind}` has no context-free evaluation")
            }
        }
    }
}

impl std::error::Error for EvalError {}

fn expect_arity(kind: &OpKind, inputs: &[BitVal], n: usize) -> Result<(), EvalError> {
    if inputs.len() == n {
        Ok(())
    } else {
        Err(EvalError::BadArity {
            kind: kind.mnemonic(),
            expected: n,
            found: inputs.len(),
        })
    }
}

/// Wraps a 128-bit intermediate result to `width` bits.
fn wrap(value: i128, width: u16) -> BitVal {
    BitVal::from_bits(value as u64, width)
}

/// The shift amount encoded by `amount`: the **unsigned** reading of its
/// bits, matching Verilog's self-determined, unsigned shift operand.
fn shift_amount(amount: BitVal) -> u64 {
    amount.as_u64()
}

/// Evaluates a pure operation on already-resized input values, producing a
/// `width`-bit result.
///
/// Callers are expected to resize each producer value to the consuming
/// signal's width first (see [`BitVal::resize`]); this function sign-extends
/// the inputs, computes in wide arithmetic and wraps the result to `width`.
///
/// # Errors
/// [`EvalError::BadArity`] when the input count does not match the kind, and
/// [`EvalError::NeedsContext`] for kinds whose value depends on the execution
/// environment (`Read`, `Write` and input-less `Pass`).
pub fn eval_op(kind: &OpKind, width: u16, inputs: &[BitVal]) -> Result<BitVal, EvalError> {
    let bin = |f: fn(i128, i128) -> i128| -> Result<BitVal, EvalError> {
        expect_arity(kind, inputs, 2)?;
        Ok(wrap(
            f(
                i128::from(inputs[0].as_i64()),
                i128::from(inputs[1].as_i64()),
            ),
            width,
        ))
    };
    match kind {
        OpKind::Add => bin(|a, b| a + b),
        OpKind::Sub => bin(|a, b| a - b),
        OpKind::Mul => bin(|a, b| a * b),
        OpKind::Div => {
            expect_arity(kind, inputs, 2)?;
            let (a, b) = (inputs[0].as_i64(), inputs[1].as_i64());
            // Division by zero is defined as 0; i64::MIN / -1 wraps via i128.
            let q = if b == 0 {
                0
            } else {
                i128::from(a) / i128::from(b)
            };
            Ok(wrap(q, width))
        }
        OpKind::Rem => {
            expect_arity(kind, inputs, 2)?;
            let (a, b) = (inputs[0].as_i64(), inputs[1].as_i64());
            // `a % 0 = a` keeps the division identity with `a / 0 = 0`.
            let r = if b == 0 {
                i128::from(a)
            } else {
                i128::from(a) % i128::from(b)
            };
            Ok(wrap(r, width))
        }
        OpKind::And => bin(|a, b| a & b),
        OpKind::Or => bin(|a, b| a | b),
        OpKind::Xor => bin(|a, b| a ^ b),
        OpKind::Not => {
            expect_arity(kind, inputs, 1)?;
            Ok(wrap(!i128::from(inputs[0].as_i64()), width))
        }
        OpKind::Neg => {
            expect_arity(kind, inputs, 1)?;
            Ok(wrap(-i128::from(inputs[0].as_i64()), width))
        }
        OpKind::Shl => {
            expect_arity(kind, inputs, 2)?;
            let amt = shift_amount(inputs[1]);
            if amt >= 64 {
                Ok(BitVal::zero(width))
            } else {
                Ok(wrap(i128::from(inputs[0].as_i64()) << amt, width))
            }
        }
        OpKind::Shr => {
            expect_arity(kind, inputs, 2)?;
            // Arithmetic shift; amounts ≥ 64 saturate to a pure sign fill.
            let amt = shift_amount(inputs[1]).min(63) as u32;
            Ok(wrap(i128::from(inputs[0].as_i64() >> amt), width))
        }
        OpKind::Cmp(c) => {
            expect_arity(kind, inputs, 2)?;
            let t = eval_cmp(*c, inputs[0], inputs[1]);
            Ok(BitVal::from_bits(u64::from(t), 1))
        }
        OpKind::Mux => {
            expect_arity(kind, inputs, 3)?;
            let chosen = if inputs[0].is_true() {
                inputs[1]
            } else {
                inputs[2]
            };
            Ok(chosen.resize(width))
        }
        OpKind::Slice { hi, lo } => {
            expect_arity(kind, inputs, 1)?;
            // Bits are read from the sign-extended representation, so a range
            // reaching past the input width sees copies of the sign bit; a
            // declared width wider than the range sign-extends the field
            // (matching the emitted `$signed(expr[hi:lo])`).
            let shifted = inputs[0].as_i64() >> u32::from(*lo).min(63);
            let take = usize::from(*hi).saturating_sub(usize::from(*lo)) + 1;
            let sliced = BitVal::from_bits(shifted as u64, take.min(64) as u16);
            Ok(sliced.resize(width))
        }
        OpKind::Resize => {
            expect_arity(kind, inputs, 1)?;
            Ok(inputs[0].resize(width))
        }
        OpKind::Const(v) => {
            expect_arity(kind, inputs, 0)?;
            Ok(BitVal::new(*v, width))
        }
        OpKind::Pass => {
            if inputs.len() == 1 {
                Ok(inputs[0].resize(width))
            } else {
                Err(EvalError::NeedsContext {
                    kind: kind.mnemonic(),
                })
            }
        }
        OpKind::Read(_) | OpKind::Write(_) => Err(EvalError::NeedsContext {
            kind: kind.mnemonic(),
        }),
    }
}

/// Evaluates a comparison on two values (signed, per the IR value model).
pub fn eval_cmp(kind: CmpKind, lhs: BitVal, rhs: BitVal) -> bool {
    kind.eval(lhs.as_i64(), rhs.as_i64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PortId;

    fn v(x: i64, w: u16) -> BitVal {
        BitVal::new(x, w)
    }

    fn run(kind: OpKind, width: u16, inputs: &[BitVal]) -> i64 {
        eval_op(&kind, width, inputs).expect("evaluates").as_i64()
    }

    #[test]
    fn bitval_is_canonical_two_complement() {
        assert_eq!(v(255, 8).as_i64(), -1);
        assert_eq!(v(255, 8).as_u64(), 255);
        assert_eq!(v(-1, 8).as_u64(), 255);
        assert_eq!(v(5, 64).as_i64(), 5);
        assert_eq!(v(i64::MIN, 64).as_i64(), i64::MIN);
        // 1-bit values read as 0 / -1 but test true as "any bit set"
        assert!(v(1, 1).is_true());
        assert_eq!(v(1, 1).as_i64(), -1);
        assert!(!v(0, 1).is_true());
    }

    #[test]
    fn resize_sign_extends_when_widening_and_truncates_when_narrowing() {
        assert_eq!(v(-5, 8).resize(16).as_i64(), -5);
        assert_eq!(v(-5, 8).resize(16).as_u64(), 0xFFFB);
        assert_eq!(v(0x1FF, 16).resize(8).as_i64(), -1); // keeps low 8 bits
        assert_eq!(v(100, 8).resize(4).as_i64(), 4); // 100 = 0b110_0100
    }

    #[test]
    fn add_sub_mul_wrap_to_the_result_width() {
        assert_eq!(run(OpKind::Add, 8, &[v(127, 8), v(1, 8)]), -128);
        assert_eq!(run(OpKind::Sub, 8, &[v(-128, 8), v(1, 8)]), 127);
        assert_eq!(run(OpKind::Mul, 8, &[v(16, 8), v(16, 8)]), 0);
        // widening add sign-extends its inputs first: (-1) + 1 = 0, not 256
        assert_eq!(run(OpKind::Add, 9, &[v(-1, 8), v(1, 8)]), 0);
        assert_eq!(run(OpKind::Mul, 64, &[v(i64::MAX, 64), v(2, 64)]), -2);
    }

    #[test]
    fn division_truncates_toward_zero_and_by_zero_is_defined() {
        assert_eq!(run(OpKind::Div, 32, &[v(7, 32), v(2, 32)]), 3);
        assert_eq!(run(OpKind::Div, 32, &[v(-7, 32), v(2, 32)]), -3);
        assert_eq!(run(OpKind::Div, 32, &[v(7, 32), v(-2, 32)]), -3);
        assert_eq!(run(OpKind::Div, 32, &[v(-7, 32), v(-2, 32)]), 3);
        assert_eq!(run(OpKind::Div, 32, &[v(42, 32), v(0, 32)]), 0);
        // overflow case wraps: MIN / -1 = MIN at the same width
        assert_eq!(
            run(OpKind::Div, 8, &[v(-128, 8), v(-1, 8)]),
            -128,
            "two's-complement division overflow must wrap"
        );
    }

    #[test]
    fn remainder_follows_the_dividend_sign_and_by_zero_is_identity() {
        assert_eq!(run(OpKind::Rem, 32, &[v(7, 32), v(2, 32)]), 1);
        assert_eq!(run(OpKind::Rem, 32, &[v(-7, 32), v(2, 32)]), -1);
        assert_eq!(run(OpKind::Rem, 32, &[v(7, 32), v(-2, 32)]), 1);
        assert_eq!(run(OpKind::Rem, 32, &[v(-7, 32), v(0, 32)]), -7);
        // identity a = (a/b)*b + a%b holds for every pair, including b = 0
        for a in [-9i64, -1, 0, 5, 11] {
            for b in [-4i64, -1, 0, 3] {
                let q = run(OpKind::Div, 32, &[v(a, 32), v(b, 32)]);
                let r = run(OpKind::Rem, 32, &[v(a, 32), v(b, 32)]);
                assert_eq!(q * b + r, a, "identity failed for {a}/{b}");
            }
        }
    }

    #[test]
    fn shift_left_drops_bits_and_saturates_on_huge_amounts() {
        assert_eq!(run(OpKind::Shl, 8, &[v(3, 8), v(2, 8)]), 12);
        assert_eq!(run(OpKind::Shl, 8, &[v(1, 8), v(7, 8)]), -128);
        assert_eq!(
            run(OpKind::Shl, 8, &[v(1, 8), v(8, 8)]),
            0,
            "amount = width"
        );
        assert_eq!(run(OpKind::Shl, 8, &[v(1, 8), v(100, 8)]), 0);
        // negative amounts read as huge unsigned values → 0
        assert_eq!(run(OpKind::Shl, 8, &[v(1, 8), v(-1, 8)]), 0);
        // a wider result keeps bits shifted past the input width
        assert_eq!(run(OpKind::Shl, 16, &[v(1, 8), v(8, 4)]), 256);
    }

    #[test]
    fn shift_right_is_arithmetic_with_sign_fill_overflow() {
        assert_eq!(run(OpKind::Shr, 8, &[v(-8, 8), v(1, 8)]), -4);
        assert_eq!(run(OpKind::Shr, 8, &[v(8, 8), v(1, 8)]), 4);
        assert_eq!(run(OpKind::Shr, 8, &[v(-1, 8), v(100, 8)]), -1, "sign fill");
        assert_eq!(run(OpKind::Shr, 8, &[v(1, 8), v(100, 8)]), 0);
        assert_eq!(run(OpKind::Shr, 8, &[v(-128, 8), v(-1, 8)]), -1);
    }

    #[test]
    fn comparisons_are_signed_and_one_bit() {
        let t = eval_op(&OpKind::Cmp(CmpKind::Lt), 1, &[v(-1, 8), v(0, 8)]).unwrap();
        assert!(t.is_true());
        assert_eq!(t.width(), 1);
        // 0xFF at 8 bits is -1, so it is *less* than 0 under signed compare
        assert!(eval_cmp(CmpKind::Lt, BitVal::from_bits(0xFF, 8), v(0, 8)));
        assert!(!eval_cmp(CmpKind::Gt, v(-100, 8), v(5, 8)));
        // mixed widths sign-extend before comparing
        assert!(eval_cmp(CmpKind::Eq, v(-1, 4), v(-1, 32)));
    }

    #[test]
    fn mux_selects_on_any_nonzero_bit() {
        assert_eq!(run(OpKind::Mux, 8, &[v(1, 1), v(11, 8), v(22, 8)]), 11);
        assert_eq!(run(OpKind::Mux, 8, &[v(0, 1), v(11, 8), v(22, 8)]), 22);
        assert_eq!(run(OpKind::Mux, 8, &[v(2, 8), v(11, 8), v(22, 8)]), 11);
        // result resizes the chosen branch
        assert_eq!(run(OpKind::Mux, 4, &[v(1, 1), v(100, 8), v(0, 8)]), 4);
    }

    #[test]
    fn slice_reads_sign_extended_bits() {
        assert_eq!(
            run(OpKind::Slice { hi: 7, lo: 4 }, 4, &[v(0x5A, 8)]),
            5,
            "high nibble of 0x5A"
        );
        assert_eq!(
            run(OpKind::Slice { hi: 3, lo: 0 }, 4, &[v(0x5A, 8)]),
            -6,
            "low nibble 0xA reads as -6 at 4 bits"
        );
        // beyond the input width the sign bit repeats
        assert_eq!(run(OpKind::Slice { hi: 15, lo: 8 }, 8, &[v(-1, 8)]), -1);
        assert_eq!(run(OpKind::Slice { hi: 15, lo: 8 }, 8, &[v(1, 8)]), 0);
        // a result width wider than the selected range sign-extends the
        // field, like the emitted `$signed(expr[hi:lo])` does
        assert_eq!(run(OpKind::Slice { hi: 3, lo: 0 }, 8, &[v(0xFA, 8)]), -6);
        assert_eq!(run(OpKind::Slice { hi: 3, lo: 0 }, 8, &[v(0x7A, 8)]), -6);
        assert_eq!(run(OpKind::Slice { hi: 2, lo: 0 }, 8, &[v(0x02, 8)]), 2);
    }

    #[test]
    fn bitwise_ops_sign_extend_their_inputs() {
        assert_eq!(run(OpKind::And, 16, &[v(-1, 8), v(0x0FF0, 16)]), 0x0FF0);
        assert_eq!(run(OpKind::Or, 8, &[v(0x50, 8), v(0x05, 8)]), 0x55);
        assert_eq!(run(OpKind::Xor, 8, &[v(-1, 8), v(0x0F, 8)]), -16);
        assert_eq!(run(OpKind::Not, 8, &[v(0, 8)]), -1);
        assert_eq!(run(OpKind::Neg, 8, &[v(-128, 8)]), -128, "negation wraps");
    }

    #[test]
    fn const_pass_and_resize_round_trip() {
        assert_eq!(run(OpKind::Const(300), 8, &[]), 44);
        assert_eq!(run(OpKind::Pass, 16, &[v(-3, 8)]), -3);
        assert_eq!(run(OpKind::Resize, 16, &[v(-3, 8)]), -3);
        assert_eq!(run(OpKind::Resize, 4, &[v(100, 8)]), 4);
    }

    #[test]
    fn context_dependent_kinds_are_rejected() {
        let p = PortId::from_raw(0);
        for kind in [OpKind::Read(p), OpKind::Write(p), OpKind::Pass] {
            assert!(matches!(
                eval_op(&kind, 8, &[]),
                Err(EvalError::NeedsContext { .. })
            ));
        }
        assert!(matches!(
            eval_op(&OpKind::Add, 8, &[v(1, 8)]),
            Err(EvalError::BadArity { .. })
        ));
    }
}
