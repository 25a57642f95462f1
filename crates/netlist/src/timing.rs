//! Register-to-register path timing.
//!
//! The delay model follows the paper's Figure 8 walk-through exactly:
//!
//! ```text
//! del = FF_launch + del_mux(in) + del_FU + ... + del_mux(reg) + FF_setup
//! ```
//!
//! Values arriving from registers (previous control steps, loop-carried
//! values, live-ins) contribute the flip-flop clock-to-Q launch delay;
//! chained operations contribute their own input-mux + functional-unit
//! delays; the path ends with the destination register's sharing multiplexer
//! and setup time.

use hls_nir::{BinKind, CellKind, UnKind};
use hls_tech::{ClockConstraint, ResourceClass, ResourceType, TechLibrary};
use std::collections::HashMap;

/// Cached path-delay calculator.
#[derive(Debug)]
pub struct ChainTiming<'a> {
    lib: &'a TechLibrary,
    clock: ClockConstraint,
    delay_cache: HashMap<ResourceType, f64>,
}

impl<'a> ChainTiming<'a> {
    /// Creates a timing calculator for the given library and clock.
    pub fn new(lib: &'a TechLibrary, clock: ClockConstraint) -> Self {
        ChainTiming {
            lib,
            clock,
            delay_cache: HashMap::new(),
        }
    }

    /// The clock constraint in force.
    pub fn clock(&self) -> ClockConstraint {
        self.clock
    }

    /// Flip-flop launch (clock-to-Q) delay: the arrival time of any value
    /// that comes out of a register at the start of the cycle.
    pub fn register_arrival_ps(&self) -> f64 {
        self.lib.register_clk_to_q_ps()
    }

    /// Combinational delay of a resource type, memoized.
    pub fn resource_delay_ps(&mut self, ty: &ResourceType) -> f64 {
        if let Some(&d) = self.delay_cache.get(ty) {
            return d;
        }
        let d = self.lib.delay_ps(ty);
        self.delay_cache.insert(ty.clone(), d);
        d
    }

    /// Delay of the sharing multiplexer at a functional unit input when the
    /// unit serves `ops_per_instance` operations (1 → no mux).
    pub fn input_mux_delay_ps(&self, ops_per_instance: usize, width: u16) -> f64 {
        if ops_per_instance <= 1 {
            0.0
        } else {
            self.lib
                .mux_delay_ps(ops_per_instance.min(u8::MAX as usize) as u8, width)
        }
    }

    /// Delay charged for the destination register's input multiplexer. The
    /// paper charges one 2-input mux on every register-bound path (registers
    /// are shared by default), which is what reproduces the 1230/1580/1800 ps
    /// figures of Example 1.
    pub fn register_mux_delay_ps(&self, width: u16) -> f64 {
        self.lib.mux_delay_ps(2, width)
    }

    /// Completes a path: arrival time of the last chained operation plus the
    /// register mux and setup. Returns the total register-to-register delay.
    pub fn path_to_register_ps(&self, arrival_ps: f64, width: u16) -> f64 {
        self.path_to_register_shared_ps(arrival_ps, width, true)
    }

    /// Like [`ChainTiming::path_to_register_ps`], but the destination
    /// register's sharing mux is only charged when register sharing is
    /// possible. With `II = 1` every control step is equivalent to every
    /// other, so neither resources nor registers can be shared and the mux
    /// disappears (this is what lets the paper's Example 3 close timing).
    pub fn path_to_register_shared_ps(&self, arrival_ps: f64, width: u16, shared: bool) -> f64 {
        let mux = if shared {
            self.register_mux_delay_ps(width)
        } else {
            0.0
        };
        arrival_ps + mux + self.lib.register_setup_ps()
    }

    /// Slack of a completed path with explicit register-sharing handling.
    pub fn slack_shared_ps(&self, arrival_ps: f64, width: u16, shared: bool) -> f64 {
        self.clock
            .slack_ps(self.path_to_register_shared_ps(arrival_ps, width, shared))
    }

    /// Slack of a completed register-to-register path.
    pub fn slack_ps(&self, arrival_ps: f64, width: u16) -> f64 {
        self.clock
            .slack_ps(self.path_to_register_ps(arrival_ps, width))
    }

    /// Whether a completed path meets the clock.
    pub fn meets_clock(&self, arrival_ps: f64, width: u16) -> bool {
        self.slack_ps(arrival_ps, width) >= 0.0
    }

    /// Flip-flop setup time: the capture cost charged at every
    /// register-input (or output-port) timing endpoint.
    pub fn setup_ps(&self) -> f64 {
        self.lib.register_setup_ps()
    }

    /// Fixed per-cycle register cost: launch (clock-to-Q) plus capture
    /// (setup). No rewrite can create a path cheaper than this, so a clock
    /// period below it is unachievable — timing-driven rewriting uses this
    /// as its feasibility floor.
    pub fn register_overhead_ps(&self) -> f64 {
        self.register_arrival_ps() + self.setup_ps()
    }

    /// Delay of an `n`-leaf steering-mux tree of the given data width — the
    /// paper's per-fan-in sharing-mux cost (mux2 = 110 ps, mux3 = 115 ps,
    /// ~5 ps per further tree level). Fan-ins below 2 cost nothing; fan-ins
    /// beyond 255 saturate at the 255-input figure.
    pub fn mux_tree_delay_ps(&self, fanin: usize, width: u16) -> f64 {
        if fanin <= 1 {
            0.0
        } else {
            self.lib
                .mux_delay_ps(fanin.min(u8::MAX as usize) as u8, width)
        }
    }

    /// Combinational delay of one netlist cell, costed through the same
    /// library figures the scheduler's chaining model uses. `in_widths` are
    /// the operand widths (as found on the cell's operand cells), `out` the
    /// cell's own width. Sources and registers have no *combinational*
    /// delay — their launch cost is [`ChainTiming::register_arrival_ps`] —
    /// and wiring-only cells (slice/resize) are free. Multiplexers are
    /// costed at fan-in 2 here; chain/tree fan-in is the analyzer's job
    /// (see [`ChainTiming::mux_tree_delay_ps`]).
    pub fn cell_delay_ps(&mut self, kind: &CellKind, in_widths: &[u16], out: u16) -> f64 {
        let a = in_widths.first().copied().unwrap_or(out).max(1);
        let b = in_widths.get(1).copied().unwrap_or(a).max(1);
        let out = out.max(1);
        let ty = match kind {
            CellKind::Bin(op) => {
                let class = match op {
                    BinKind::Add | BinKind::Sub => ResourceClass::Adder,
                    BinKind::Mul => ResourceClass::Multiplier,
                    BinKind::Div | BinKind::Rem => ResourceClass::Divider,
                    BinKind::And | BinKind::Or | BinKind::Xor => ResourceClass::Logic,
                    BinKind::Shl | BinKind::Shr => ResourceClass::Shifter,
                    BinKind::Cmp(hls_ir::CmpKind::Eq | hls_ir::CmpKind::Ne) => {
                        ResourceClass::EqualityComparator
                    }
                    BinKind::Cmp(_) => ResourceClass::Comparator,
                };
                ResourceType::binary(class, a, b, out)
            }
            CellKind::Un(op) => {
                let class = match op {
                    UnKind::Not => ResourceClass::Logic,
                    UnKind::Neg => ResourceClass::Adder,
                };
                ResourceType::unary(class, a, out)
            }
            CellKind::Mux => return self.mux_tree_delay_ps(2, out),
            // Wiring, sources and clocked cells: no combinational delay.
            CellKind::Slice { .. }
            | CellKind::Resize
            | CellKind::Const(_)
            | CellKind::Input { .. }
            | CellKind::Output { .. }
            | CellKind::Reg { .. }
            | CellKind::FsmState
            | CellKind::StageValid { .. }
            | CellKind::FirstIter { .. } => return 0.0,
        };
        self.resource_delay_ps(&ty)
    }

    /// Arrival time at the output of an operation chained after its inputs:
    /// `max(input arrivals) + input mux + FU delay`.
    pub fn op_arrival_ps(
        &mut self,
        input_arrivals: &[f64],
        ops_per_instance: usize,
        ty: &ResourceType,
    ) -> f64 {
        let base = input_arrivals.iter().copied().fold(0.0f64, f64::max);
        let width = ty.max_width();
        base + self.input_mux_delay_ps(ops_per_instance, width) + self.resource_delay_ps(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_tech::ResourceClass;

    fn setup() -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(1600.0),
        )
    }

    #[test]
    fn register_overhead_is_the_launch_plus_capture_floor() {
        let (lib, clock) = setup();
        let t = ChainTiming::new(&lib, clock);
        assert!((t.register_overhead_ps() - 80.0).abs() < 1e-9, "40 + 40");
        assert_eq!(
            t.register_overhead_ps(),
            t.register_arrival_ps() + t.setup_ps()
        );
    }

    #[test]
    fn figure8a_mul_binding_is_1230ps() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        // mul shared by 3 candidate operations → 2-way-or-more input mux;
        // the paper charges a mux2 (110 ps) here.
        let arrival = t.op_arrival_ps(&[t.register_arrival_ps()], 2, &mul);
        let total = t.path_to_register_ps(arrival, 32);
        assert!((total - 1230.0).abs() < 1.0, "got {total}");
        assert!(t.meets_clock(arrival, 32));
    }

    #[test]
    fn figure8b_chained_add_is_1580ps() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        let add = ResourceType::binary(ResourceClass::Adder, 32, 32, 32);
        let mul_arrival = t.op_arrival_ps(&[t.register_arrival_ps()], 2, &mul);
        // single addition in the DFG → no input mux on the adder
        let add_arrival = t.op_arrival_ps(&[mul_arrival, t.register_arrival_ps()], 1, &add);
        let total = t.path_to_register_ps(add_arrival, 32);
        assert!((total - 1580.0).abs() < 1.0, "got {total}");
        assert!(t.meets_clock(add_arrival, 32));
    }

    #[test]
    fn figure8c_gt_after_add_misses_clock_by_200ps() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        let add = ResourceType::binary(ResourceClass::Adder, 32, 32, 32);
        let gt = ResourceType::binary(ResourceClass::Comparator, 32, 32, 1);
        let mul_arrival = t.op_arrival_ps(&[t.register_arrival_ps()], 2, &mul);
        let add_arrival = t.op_arrival_ps(&[mul_arrival, t.register_arrival_ps()], 1, &add);
        let gt_arrival = t.op_arrival_ps(&[add_arrival, t.register_arrival_ps()], 1, &gt);
        let slack = t.slack_ps(gt_arrival, 32);
        assert!((slack + 200.0).abs() < 1.0, "slack {slack}");
        assert!(!t.meets_clock(gt_arrival, 32));
    }

    #[test]
    fn two_chained_multiplications_never_fit_1600ps() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        let first = t.op_arrival_ps(&[t.register_arrival_ps()], 1, &mul);
        let second = t.op_arrival_ps(&[first], 1, &mul);
        assert!(
            !t.meets_clock(second, 32),
            "the paper notes 2 muls cannot fit in one cycle"
        );
    }

    #[test]
    fn delay_queries_are_cached() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32);
        let a = t.resource_delay_ps(&mul);
        let b = t.resource_delay_ps(&mul);
        assert_eq!(a, b);
    }

    #[test]
    fn cell_delays_match_the_table1_resources() {
        let (lib, clock) = setup();
        let mut t = ChainTiming::new(&lib, clock);
        let mul = t.cell_delay_ps(&CellKind::Bin(BinKind::Mul), &[32, 32], 32);
        assert!((mul - 930.0).abs() < 1.0, "got {mul}");
        let add = t.cell_delay_ps(&CellKind::Bin(BinKind::Add), &[32, 32], 32);
        assert!((add - 350.0).abs() < 1.0, "got {add}");
        let gt = t.cell_delay_ps(
            &CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Gt)),
            &[32, 32],
            1,
        );
        assert!((gt - 220.0).abs() < 1.0, "got {gt}");
        let neq = t.cell_delay_ps(
            &CellKind::Bin(BinKind::Cmp(hls_ir::CmpKind::Ne)),
            &[32, 32],
            1,
        );
        assert!((neq - 60.0).abs() < 1.0, "got {neq}");
        // wiring is free, sources and registers carry no combinational delay
        assert_eq!(t.cell_delay_ps(&CellKind::Resize, &[8], 16), 0.0);
        assert_eq!(
            t.cell_delay_ps(&CellKind::Slice { hi: 3, lo: 0 }, &[8], 4),
            0.0
        );
        assert_eq!(t.cell_delay_ps(&CellKind::Reg { init: 0 }, &[8, 1], 8), 0.0);
        assert_eq!(t.cell_delay_ps(&CellKind::Const(7), &[], 8), 0.0);
        // a unary negation runs on adder hardware
        let neg = t.cell_delay_ps(&CellKind::Un(UnKind::Neg), &[32], 32);
        assert!((neg - 350.0).abs() < 1.0, "got {neg}");
    }

    #[test]
    fn mux_tree_delay_follows_fanin() {
        let (lib, clock) = setup();
        let t = ChainTiming::new(&lib, clock);
        assert_eq!(t.mux_tree_delay_ps(0, 32), 0.0);
        assert_eq!(t.mux_tree_delay_ps(1, 32), 0.0);
        let m2 = t.mux_tree_delay_ps(2, 32);
        assert!((m2 - 110.0).abs() < 1.0, "got {m2}");
        let m3 = t.mux_tree_delay_ps(3, 32);
        assert!((m3 - 115.0).abs() < 1.0, "got {m3}");
        let m8 = t.mux_tree_delay_ps(8, 32);
        assert!(m8 > m3 && m8 < 2.0 * m2, "a tree, not a chain: {m8}");
        // the per-cell mux cost is the 2-way figure
        let mut t = ChainTiming::new(&lib, clock);
        assert_eq!(t.cell_delay_ps(&CellKind::Mux, &[1, 32, 32], 32), m2);
        // saturates instead of overflowing beyond u8 fan-in
        assert!(t.mux_tree_delay_ps(4096, 32) >= t.mux_tree_delay_ps(255, 32));
    }
}
