//! Resource classes and bit-width-parameterized resource types.

use hls_ir::{CmpKind, OpKind, Operation};
use std::fmt;

/// The functional class of a datapath resource.
///
/// A class groups operation kinds that can share the same functional unit:
/// e.g. `a - b` can run on an adder/subtractor, all comparison flavours run
/// on a comparator of the appropriate width.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceClass {
    /// Adder (also used for subtraction and negation).
    Adder,
    /// Multiplier.
    Multiplier,
    /// Divider / remainder unit (multi-cycle capable).
    Divider,
    /// Barrel shifter.
    Shifter,
    /// Bitwise logic unit (and/or/xor/not).
    Logic,
    /// Magnitude comparator (`<`, `<=`, `>`, `>=`).
    Comparator,
    /// Equality comparator (`==`, `!=`) — much cheaper than magnitude.
    EqualityComparator,
    /// N-input multiplexer (sharing muxes and predicate-conversion muxes).
    Mux {
        /// Number of data inputs.
        inputs: u8,
    },
    /// Storage register.
    Register,
    /// Port interface (I/O); does not occupy datapath logic but must be
    /// tracked for binding and for protocol constraints.
    IoPort,
}

impl ResourceClass {
    /// Short mnemonic used in reports (`mul`, `add`, `gt`, `neq`, `mux2`...).
    pub fn mnemonic(&self) -> String {
        match self {
            ResourceClass::Adder => "add".into(),
            ResourceClass::Multiplier => "mul".into(),
            ResourceClass::Divider => "div".into(),
            ResourceClass::Shifter => "shift".into(),
            ResourceClass::Logic => "logic".into(),
            ResourceClass::Comparator => "gt".into(),
            ResourceClass::EqualityComparator => "neq".into(),
            ResourceClass::Mux { inputs } => format!("mux{inputs}"),
            ResourceClass::Register => "ff".into(),
            ResourceClass::IoPort => "io".into(),
        }
    }
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

/// A resource type: a [`ResourceClass`] plus operand and result widths.
///
/// The paper defines compatibility of operations with resource types through
/// exactly this combination (Section IV.A), and explicitly avoids merging
/// resources of very different widths to protect power.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceType {
    /// Functional class.
    pub class: ResourceClass,
    /// Operand widths, widest first.
    pub in_widths: Vec<u16>,
    /// Result width.
    pub out_width: u16,
}

impl ResourceType {
    /// Creates a resource type for a two-operand resource.
    pub fn binary(class: ResourceClass, in_a: u16, in_b: u16, out: u16) -> Self {
        let mut in_widths = vec![in_a, in_b];
        in_widths.sort_unstable_by(|a, b| b.cmp(a));
        ResourceType {
            class,
            in_widths,
            out_width: out,
        }
    }

    /// Creates a resource type for a single-operand resource.
    pub fn unary(class: ResourceClass, input: u16, out: u16) -> Self {
        ResourceType {
            class,
            in_widths: vec![input],
            out_width: out,
        }
    }

    /// Creates a register resource of the given width.
    pub fn register(width: u16) -> Self {
        ResourceType {
            class: ResourceClass::Register,
            in_widths: vec![width],
            out_width: width,
        }
    }

    /// Creates an n-input mux resource of the given data width.
    pub fn mux(inputs: u8, width: u16) -> Self {
        ResourceType {
            class: ResourceClass::Mux { inputs },
            in_widths: vec![width; inputs as usize],
            out_width: width,
        }
    }

    /// Widest operand width (drives delay and area of most classes).
    pub fn max_width(&self) -> u16 {
        self.in_widths
            .iter()
            .copied()
            .chain(std::iter::once(self.out_width))
            .max()
            .unwrap_or(1)
    }

    /// The resource class an operation kind requires, or `None` for "free"
    /// operations (constants, slices, pass-throughs) that are pure wiring.
    pub fn class_for_kind(kind: &OpKind) -> Option<ResourceClass> {
        Some(match kind {
            OpKind::Add | OpKind::Sub | OpKind::Neg => ResourceClass::Adder,
            OpKind::Mul => ResourceClass::Multiplier,
            OpKind::Div | OpKind::Rem => ResourceClass::Divider,
            OpKind::Shl | OpKind::Shr => ResourceClass::Shifter,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => ResourceClass::Logic,
            OpKind::Cmp(CmpKind::Eq) | OpKind::Cmp(CmpKind::Ne) => {
                ResourceClass::EqualityComparator
            }
            OpKind::Cmp(_) => ResourceClass::Comparator,
            OpKind::Mux => ResourceClass::Mux { inputs: 2 },
            OpKind::Read(_) | OpKind::Write(_) => ResourceClass::IoPort,
            OpKind::Const(_) | OpKind::Pass | OpKind::Slice { .. } | OpKind::Resize => return None,
        })
    }

    /// The resource type an operation requires, or `None` for free operations.
    ///
    /// Operand widths are taken from the operation's input signals; the mux
    /// select input (1 bit) is excluded from the width signature so that a
    /// 2-input 32-bit mux is a `mux2` of width 32, matching Table 1.
    pub fn for_op(op: &Operation) -> Option<ResourceType> {
        let class = Self::class_for_kind(&op.kind)?;
        let mut in_widths: Vec<u16> = match op.kind {
            OpKind::Mux => op.inputs.iter().skip(1).map(|s| s.width).collect(),
            _ => op.inputs.iter().map(|s| s.width).collect(),
        };
        if in_widths.is_empty() {
            in_widths.push(op.width);
        }
        in_widths.sort_unstable_by(|a, b| b.cmp(a));
        Some(ResourceType {
            class,
            in_widths,
            out_width: op.width,
        })
    }

    /// Whether an operation can execute on this resource type: the classes
    /// must match and every operand (and the result) must fit.
    pub fn can_implement(&self, op: &Operation) -> bool {
        let Some(required) = Self::for_op(op) else {
            return false;
        };
        if required.class != self.class {
            return false;
        }
        if required.out_width > self.out_width {
            return false;
        }
        // Pair required operand widths (widest first) against available ones.
        if required.in_widths.len() > self.in_widths.len() {
            return false;
        }
        required
            .in_widths
            .iter()
            .zip(self.in_widths.iter())
            .all(|(need, have)| need <= have)
    }

    /// Whether two resource types may be merged into a single shared
    /// resource. The paper avoids merging "resources of very different bit
    /// widths, to avoid bad impact e.g. on power consumption"; the default
    /// policy allows merging when the wider type is at most `2×` the
    /// narrower one.
    pub fn can_merge(&self, other: &ResourceType) -> bool {
        if self.class != other.class {
            return false;
        }
        let a = self.max_width().max(1) as u32;
        let b = other.max_width().max(1) as u32;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        hi <= lo * 2
    }

    /// The merged (width-wise maximal) resource type covering both inputs.
    ///
    /// # Panics
    /// Panics if the classes differ; check [`ResourceType::can_merge`] first.
    pub fn merge(&self, other: &ResourceType) -> ResourceType {
        assert_eq!(
            self.class, other.class,
            "cannot merge different resource classes"
        );
        let len = self.in_widths.len().max(other.in_widths.len());
        let mut in_widths = Vec::with_capacity(len);
        for i in 0..len {
            let a = self.in_widths.get(i).copied().unwrap_or(0);
            let b = other.in_widths.get(i).copied().unwrap_or(0);
            in_widths.push(a.max(b));
        }
        ResourceType {
            class: self.class.clone(),
            in_widths,
            out_width: self.out_width.max(other.out_width),
        }
    }

    /// Human-readable name such as `mul_32x32`, `add_32x16`, `ff_32`.
    pub fn name(&self) -> String {
        if self.in_widths.is_empty() {
            format!("{}_{}", self.class.mnemonic(), self.out_width)
        } else {
            let widths: Vec<String> = self.in_widths.iter().map(|w| w.to_string()).collect();
            format!("{}_{}", self.class.mnemonic(), widths.join("x"))
        }
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::Signal;

    fn op(kind: OpKind, width: u16, in_widths: &[u16]) -> Operation {
        let inputs = in_widths.iter().map(|&w| Signal::constant(0, w)).collect();
        Operation::new(kind, width, inputs)
    }

    #[test]
    fn class_mapping() {
        assert_eq!(
            ResourceType::class_for_kind(&OpKind::Add),
            Some(ResourceClass::Adder)
        );
        assert_eq!(
            ResourceType::class_for_kind(&OpKind::Sub),
            Some(ResourceClass::Adder)
        );
        assert_eq!(
            ResourceType::class_for_kind(&OpKind::Mul),
            Some(ResourceClass::Multiplier)
        );
        assert_eq!(
            ResourceType::class_for_kind(&OpKind::Cmp(CmpKind::Gt)),
            Some(ResourceClass::Comparator)
        );
        assert_eq!(
            ResourceType::class_for_kind(&OpKind::Cmp(CmpKind::Ne)),
            Some(ResourceClass::EqualityComparator)
        );
        assert_eq!(ResourceType::class_for_kind(&OpKind::Const(4)), None);
        assert_eq!(ResourceType::class_for_kind(&OpKind::Pass), None);
    }

    #[test]
    fn paper_example_adder_merging() {
        // A1[7:0] + B1[4:0] and A2[5:0] + B2[6:0] can share an 8x6 adder.
        let a1 = ResourceType::for_op(&op(OpKind::Add, 8, &[8, 5])).unwrap();
        let a2 = ResourceType::for_op(&op(OpKind::Add, 8, &[6, 7])).unwrap();
        assert!(a1.can_merge(&a2));
        let merged = a1.merge(&a2);
        assert_eq!(merged.in_widths, vec![8, 6]);
        assert!(merged.can_implement(&op(OpKind::Add, 8, &[8, 5])));
        assert!(merged.can_implement(&op(OpKind::Add, 8, &[6, 7])));
        assert_eq!(merged.name(), "add_8x6");
    }

    #[test]
    fn very_different_widths_do_not_merge() {
        let small = ResourceType::binary(ResourceClass::Multiplier, 8, 8, 8);
        let big = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        assert!(!small.can_merge(&big));
        let mid = ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16);
        assert!(mid.can_merge(&big));
    }

    #[test]
    fn different_classes_never_merge() {
        let add = ResourceType::binary(ResourceClass::Adder, 32, 32, 32);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        assert!(!add.can_merge(&mul));
    }

    #[test]
    fn can_implement_respects_widths() {
        let add_32 = ResourceType::binary(ResourceClass::Adder, 32, 32, 33);
        assert!(add_32.can_implement(&op(OpKind::Add, 33, &[32, 32])));
        assert!(add_32.can_implement(&op(OpKind::Add, 16, &[16, 8])));
        assert!(!add_32.can_implement(&op(OpKind::Add, 40, &[40, 40])));
        assert!(!add_32.can_implement(&op(OpKind::Mul, 32, &[32, 32])));
    }

    #[test]
    fn mux_width_signature_excludes_select() {
        let mut m = op(OpKind::Mux, 32, &[1, 32, 32]);
        m.inputs[0] = Signal::constant(0, 1);
        let rt = ResourceType::for_op(&m).unwrap();
        assert_eq!(rt.class, ResourceClass::Mux { inputs: 2 });
        assert_eq!(rt.in_widths, vec![32, 32]);
        assert_eq!(rt.name(), "mux2_32x32");
    }

    #[test]
    fn free_ops_have_no_resource() {
        assert!(ResourceType::for_op(&op(OpKind::Const(3), 8, &[])).is_none());
        assert!(ResourceType::for_op(&op(OpKind::Slice { hi: 15, lo: 0 }, 16, &[32])).is_none());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32).name(),
            "mul_32x32"
        );
        assert_eq!(ResourceType::register(32).name(), "ff_32");
        assert_eq!(ResourceType::mux(3, 32).name(), "mux3_32x32x32");
    }

    #[test]
    fn io_ops_map_to_io_class() {
        let read = op(OpKind::Read(hls_ir::PortId::from_raw(0)), 32, &[]);
        let rt = ResourceType::for_op(&read).unwrap();
        assert_eq!(rt.class, ResourceClass::IoPort);
    }
}
