//! Cell-level netlist data model.
//!
//! A [`NirModule`] is a flat arena of [`Cell`]s on dense indices. Every cell
//! carries an explicit bit-width and names its operands by [`CellId`]; there
//! are no nets separate from cells — a cell *is* its output net, exactly the
//! SSA-style representation the rewrite passes want. Sequential elements
//! ([`CellKind::Reg`]) and sinks ([`CellKind::Output`]) make clockedness
//! explicit, and the FSM controller is modelled as first-class source cells
//! ([`CellKind::FsmState`], [`CellKind::StageValid`], [`CellKind::FirstIter`])
//! so the datapath below them is pure structure.

use hls_ir::{CmpKind, OpKind, Port};
use std::collections::BTreeMap;
use std::fmt;

/// Dense index of a cell inside a [`NirModule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u32);

impl CellId {
    /// Builds an id from a raw arena index.
    pub fn from_raw(raw: u32) -> Self {
        CellId(raw)
    }

    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Two-input combinational operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Wrapping signed addition.
    Add,
    /// Wrapping signed subtraction.
    Sub,
    /// Wrapping signed multiplication.
    Mul,
    /// Signed division; division by zero yields zero.
    Div,
    /// Signed remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift; the amount reads the right operand as unsigned.
    Shl,
    /// Arithmetic right shift; the amount reads the right operand as unsigned.
    Shr,
    /// Signed comparison producing a 1-bit result.
    Cmp(CmpKind),
}

impl BinKind {
    /// The `hls-ir` operation kind with identical evaluation semantics.
    pub fn op_kind(self) -> OpKind {
        match self {
            BinKind::Add => OpKind::Add,
            BinKind::Sub => OpKind::Sub,
            BinKind::Mul => OpKind::Mul,
            BinKind::Div => OpKind::Div,
            BinKind::Rem => OpKind::Rem,
            BinKind::And => OpKind::And,
            BinKind::Or => OpKind::Or,
            BinKind::Xor => OpKind::Xor,
            BinKind::Shl => OpKind::Shl,
            BinKind::Shr => OpKind::Shr,
            BinKind::Cmp(c) => OpKind::Cmp(c),
        }
    }

    /// Keyword naming the operator in [`NetlistStats`] and in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::Rem => "rem",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Shl => "shl",
            BinKind::Shr => "shr",
            BinKind::Cmp(CmpKind::Eq) => "eq",
            BinKind::Cmp(CmpKind::Ne) => "neq",
            BinKind::Cmp(CmpKind::Lt) => "lt",
            BinKind::Cmp(CmpKind::Le) => "le",
            BinKind::Cmp(CmpKind::Gt) => "gt",
            BinKind::Cmp(CmpKind::Ge) => "ge",
        }
    }
}

/// One-input combinational operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnKind {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnKind {
    /// The `hls-ir` operation kind with identical evaluation semantics.
    pub fn op_kind(self) -> OpKind {
        match self {
            UnKind::Not => OpKind::Not,
            UnKind::Neg => OpKind::Neg,
        }
    }

    /// Keyword naming the operator in [`NetlistStats`] and in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnKind::Not => "not",
            UnKind::Neg => "neg",
        }
    }
}

/// What a cell computes. The number and meaning of `inputs` is fixed per kind.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A constant; the stored value is interpreted at the cell width.
    Const(i64),
    /// A module input port sampled for the iteration whose read is scheduled
    /// in unfolded state `state`. No inputs.
    Input {
        /// Index into the module's port list.
        port: u32,
        /// Unfolded state of the scheduled read.
        state: u32,
    },
    /// A clocked write to a module output port: inputs `[data, enable]`.
    /// `state` is the unfolded state in which the write fires.
    Output {
        /// Index into the module's port list.
        port: u32,
        /// Unfolded state of the scheduled write.
        state: u32,
    },
    /// Two-input combinational operator: inputs `[lhs, rhs]`.
    Bin(BinKind),
    /// One-input combinational operator: inputs `[value]`.
    Un(UnKind),
    /// Two-way multiplexer: inputs `[sel, then, else]`. `sel` may be any
    /// width; selection tests it for non-zero. The lowering builds an
    /// `n`-way steering choice as a linear chain of these; timing charges
    /// such a chain as one `mux_n` tree by its leaf fan-in.
    Mux,
    /// Bit-range extraction `[hi:lo]` of a single input; the cell width is
    /// exactly `hi - lo + 1`.
    Slice {
        /// Most-significant extracted bit.
        hi: u16,
        /// Least-significant extracted bit.
        lo: u16,
    },
    /// Sign-aware width change of a single input to the cell width.
    Resize,
    /// Clocked register: inputs `[data, enable]`; captures `data` on clock
    /// edges where `enable` is non-zero, resets to `init`.
    Reg {
        /// Reset value, interpreted at the cell width.
        init: i64,
    },
    /// The folded FSM state counter (width 8), counting `0..fold_states`.
    FsmState,
    /// One bit of the pipeline fill shift register: true once stage `stage`
    /// has valid work. Always true for sequential (single-stage) schedules.
    StageValid {
        /// Pipeline stage index.
        stage: u32,
    },
    /// One bit of the first-iteration one-hot pipe: true while stage `stage`
    /// is processing iteration 0.
    FirstIter {
        /// Pipeline stage index.
        stage: u32,
    },
}

impl CellKind {
    /// Number of inputs this kind requires.
    pub fn arity(&self) -> usize {
        match self {
            CellKind::Const(_)
            | CellKind::Input { .. }
            | CellKind::FsmState
            | CellKind::StageValid { .. }
            | CellKind::FirstIter { .. } => 0,
            CellKind::Un(_) | CellKind::Slice { .. } | CellKind::Resize => 1,
            CellKind::Bin(_) | CellKind::Reg { .. } | CellKind::Output { .. } => 2,
            CellKind::Mux => 3,
        }
    }

    /// True for clocked cells ([`CellKind::Reg`]); their value does not
    /// combinationally depend on their inputs.
    pub fn is_seq(&self) -> bool {
        matches!(self, CellKind::Reg { .. })
    }

    /// True for cells with no combinational inputs (constants, port reads and
    /// the controller sources).
    pub fn is_source(&self) -> bool {
        matches!(
            self,
            CellKind::Const(_)
                | CellKind::Input { .. }
                | CellKind::FsmState
                | CellKind::StageValid { .. }
                | CellKind::FirstIter { .. }
        )
    }

    /// True for cells the Verilog printer declares as a net of their own
    /// with their own statement (see [`crate::NetNames`]); every other cell
    /// prints inline where it is read, or, for a port write, as a capture.
    pub fn is_declared(&self) -> bool {
        matches!(
            self,
            CellKind::Bin(_)
                | CellKind::Un(_)
                | CellKind::Mux
                | CellKind::Slice { .. }
                | CellKind::Resize
                | CellKind::Reg { .. }
        )
    }

    /// Keyword naming the kind (parameters stripped) in [`NetlistStats`]
    /// and in reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CellKind::Const(_) => "const",
            CellKind::Input { .. } => "input",
            CellKind::Output { .. } => "output",
            CellKind::Bin(b) => b.mnemonic(),
            CellKind::Un(u) => u.mnemonic(),
            CellKind::Mux => "mux",
            CellKind::Slice { .. } => "slice",
            CellKind::Resize => "resize",
            CellKind::Reg { .. } => "reg",
            CellKind::FsmState => "fsm",
            CellKind::StageValid { .. } => "stagevalid",
            CellKind::FirstIter { .. } => "firstiter",
        }
    }
}

/// One cell of the netlist: kind, output width, operand ids and an optional
/// display name carried into the printed Verilog.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// What the cell computes.
    pub kind: CellKind,
    /// Output bit-width.
    pub width: u16,
    /// Operand cell ids; length is fixed by [`CellKind::arity`].
    pub inputs: Vec<CellId>,
    /// Optional display name (sanitized into Verilog identifiers).
    pub name: Option<String>,
}

/// A structural netlist: module interface plus a dense cell arena.
#[derive(Clone, Debug, PartialEq)]
pub struct NirModule {
    /// Module name (display form; the printer sanitizes it).
    pub name: String,
    /// Module ports, shared with the behavioural body (same indices).
    pub ports: Vec<Port>,
    /// The cell arena; a [`CellId`] indexes this vector.
    pub cells: Vec<Cell>,
    /// Folded states per iteration (the FSM modulus / cycles-per-iteration).
    pub fold_states: u32,
    /// Unfolded schedule length in states.
    pub num_states: u32,
    /// Number of pipeline stages (1 for sequential schedules).
    pub stages: u32,
}

impl NirModule {
    /// Creates an empty module with a single folded state.
    pub fn new(name: impl Into<String>) -> Self {
        NirModule {
            name: name.into(),
            ports: Vec::new(),
            cells: Vec::new(),
            fold_states: 1,
            num_states: 1,
            stages: 1,
        }
    }

    /// Appends a cell and returns its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(cell);
        id
    }

    /// Appends an unnamed cell and returns its id.
    pub fn push(&mut self, kind: CellKind, width: u16, inputs: Vec<CellId>) -> CellId {
        self.add_cell(Cell {
            kind,
            width,
            inputs,
            name: None,
        })
    }

    /// The cell behind `id`. Panics when out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Number of cells in the arena.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Iterates `(id, cell)` in arena order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Per-cell fan-out: how many times each cell appears as an operand of
    /// any other cell. A count of zero means nothing in the module reads the
    /// cell's value.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.cells.len()];
        for cell in &self.cells {
            for input in &cell.inputs {
                counts[input.index()] += 1;
            }
        }
        counts
    }

    /// The live cone: `true` for every cell transitively reachable from an
    /// `Output` cell (through both data and enable operands). A module with
    /// no output cells reports everything live.
    pub fn live_cells(&self) -> Vec<bool> {
        let roots: Vec<CellId> = self
            .iter_cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Output { .. }))
            .map(|(id, _)| id)
            .collect();
        if roots.is_empty() {
            return vec![true; self.cells.len()];
        }
        let mut live = vec![false; self.cells.len()];
        let mut stack = roots;
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            for &input in &self.cell(id).inputs {
                if !live[input.index()] {
                    stack.push(input);
                }
            }
        }
        live
    }

    /// Cells in a combinational topological order: every combinational cell
    /// appears after all of its operands. Sequential cells and sources carry
    /// no incoming combinational edges and appear before any combinational
    /// consumer. Every cell appears exactly once, even on combinationally
    /// cyclic logic (which [`crate::validate`] rejects): the walk still
    /// terminates, but some cell of each cycle then comes before one of its
    /// operands. Callers that must not trust such an order check for cycles
    /// themselves.
    pub fn comb_topo_order(&self) -> Vec<CellId> {
        let n = self.cells.len();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        let mut stack: Vec<(u32, bool)> = Vec::new();
        for root in 0..n as u32 {
            if state[root as usize] != 0 {
                continue;
            }
            stack.push((root, false));
            while let Some((id, expanded)) = stack.pop() {
                if expanded {
                    state[id as usize] = 2;
                    order.push(CellId(id));
                    continue;
                }
                if state[id as usize] != 0 {
                    continue;
                }
                state[id as usize] = 1;
                stack.push((id, true));
                let cell = &self.cells[id as usize];
                if cell.kind.is_seq() || cell.kind.is_source() {
                    continue;
                }
                for &input in &cell.inputs {
                    if state[input.index()] == 0 {
                        stack.push((input.0, false));
                    }
                }
            }
        }
        order
    }

    /// Structural statistics over the arena (cell counts by kind, register
    /// totals and the maximum combinational mux-chain depth).
    pub fn stats(&self) -> NetlistStats {
        let mut kind_counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut regs = 0usize;
        let mut reg_bits = 0usize;
        for cell in &self.cells {
            *kind_counts
                .entry(cell.kind.mnemonic().to_string())
                .or_insert(0) += 1;
            if cell.kind.is_seq() {
                regs += 1;
                reg_bits += cell.width as usize;
            }
        }
        NetlistStats {
            cells: self.cells.len(),
            kind_counts,
            regs,
            reg_bits,
            max_mux_depth: self.max_mux_depth(),
        }
    }

    /// Maximum number of 2-way muxes stacked on any register-to-register
    /// combinational path. Registers, sources and sinks contribute depth 0;
    /// a mux contributes `1 + max(depth(then), depth(else))`; every other
    /// combinational cell is transparent (max over its inputs).
    pub fn max_mux_depth(&self) -> u32 {
        // Iterative memoized post-order; chains can be long, so no recursion.
        const UNVISITED: u32 = u32::MAX;
        const ONSTACK: u32 = u32::MAX - 1;
        // A cell still on the DFS stack means a combinational cycle; the
        // validator rejects those, here we just avoid wedging.
        fn depth_of(memo_value: u32) -> u32 {
            if memo_value >= ONSTACK {
                0
            } else {
                memo_value
            }
        }
        let mut memo = vec![UNVISITED; self.cells.len()];
        let mut stack: Vec<(u32, bool)> = Vec::new();
        let mut best = 0u32;
        for root in 0..self.cells.len() as u32 {
            if memo[root as usize] != UNVISITED {
                best = best.max(memo[root as usize]);
                continue;
            }
            stack.push((root, false));
            while let Some((id, expanded)) = stack.pop() {
                let cell = &self.cells[id as usize];
                let comb = !cell.kind.is_seq() && !cell.kind.is_source();
                if !comb {
                    memo[id as usize] = 0;
                    continue;
                }
                if expanded {
                    let depth = match cell.kind {
                        CellKind::Mux => {
                            let a = memo[cell.inputs[1].index()];
                            let b = memo[cell.inputs[2].index()];
                            1 + depth_of(a).max(depth_of(b))
                        }
                        _ => cell
                            .inputs
                            .iter()
                            .map(|i| depth_of(memo[i.index()]))
                            .max()
                            .unwrap_or(0),
                    };
                    memo[id as usize] = depth;
                } else {
                    if memo[id as usize] != UNVISITED {
                        continue;
                    }
                    memo[id as usize] = ONSTACK;
                    stack.push((id, true));
                    for &input in &cell.inputs {
                        if memo[input.index()] == UNVISITED {
                            stack.push((input.0, false));
                        }
                    }
                }
            }
            best = best.max(depth_of(memo[root as usize]));
        }
        best
    }
}

/// Cell-count and structural statistics for a [`NirModule`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Total number of cells.
    pub cells: usize,
    /// Cell counts keyed by [`CellKind::mnemonic`] (binary operators count
    /// under their own operator keyword, e.g. `"mul"`).
    pub kind_counts: BTreeMap<String, usize>,
    /// Number of register cells.
    pub regs: usize,
    /// Total register bits.
    pub reg_bits: usize,
    /// Maximum combinational mux-chain depth (see
    /// [`NirModule::max_mux_depth`]).
    pub max_mux_depth: u32,
}

impl NetlistStats {
    /// Count of cells with the given mnemonic, zero when absent.
    ///
    /// Prefer the typed accessors ([`NetlistStats::count_kind`],
    /// [`NetlistStats::count_bin`], ...) — a typo'd mnemonic silently reads
    /// as zero, a typo'd enum variant does not compile.
    pub fn count(&self, mnemonic: &str) -> usize {
        self.kind_counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Count of cells of the given kind (parameters ignored: every
    /// `Reg { .. }` counts as a reg, every `Cmp` under its own flavour).
    pub fn count_kind(&self, kind: &CellKind) -> usize {
        self.count(kind.mnemonic())
    }

    /// Count of binary-operator cells of the given operator.
    pub fn count_bin(&self, op: BinKind) -> usize {
        self.count(op.mnemonic())
    }

    /// Count of 2-way multiplexer cells.
    pub fn muxes(&self) -> usize {
        self.count("mux")
    }

    /// Count of `Output` port-write cells.
    pub fn outputs(&self) -> usize {
        self.count("output")
    }
}

/// The identifiers the Verilog printer declares for the clock, the reset and
/// the controller; no port or cell prints as one of them.
pub const RESERVED_IDENTIFIERS: [&str; 5] = ["clk", "rst", "state", "stage_valid", "first_iter"];

/// The keywords of Verilog-2005 (IEEE 1364-2005, Annex B), sorted; no port
/// or cell prints as one of them.
#[rustfmt::skip]
pub const VERILOG_KEYWORDS: [&str; 124] = [
    "always", "and", "assign", "automatic", "begin", "buf", "bufif0", "bufif1", "case", "casex",
    "casez", "cell", "cmos", "config", "deassign", "default", "defparam", "design", "disable",
    "edge", "else", "end", "endcase", "endconfig", "endfunction", "endgenerate", "endmodule",
    "endprimitive", "endspecify", "endtable", "endtask", "event", "for", "force", "forever",
    "fork", "function", "generate", "genvar", "highz0", "highz1", "if", "ifnone", "incdir",
    "include", "initial", "inout", "input", "instance", "integer", "join", "large", "liblist",
    "library", "localparam", "macromodule", "medium", "module", "nand", "negedge", "nmos", "nor",
    "noshowcancelled", "not", "notif0", "notif1", "or", "output", "parameter", "pmos", "posedge",
    "primitive", "pull0", "pull1", "pulldown", "pullup", "pulsestyle_ondetect",
    "pulsestyle_onevent", "rcmos", "real", "realtime", "reg", "release", "repeat", "rnmos",
    "rpmos", "rtran", "rtranif0", "rtranif1", "scalared", "showcancelled", "signed", "small",
    "specify", "specparam", "strong0", "strong1", "supply0", "supply1", "table", "task", "time",
    "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand", "trior", "trireg", "unsigned",
    "use", "uwire", "vectored", "wait", "wand", "weak0", "weak1", "while", "wire", "wor", "xnor",
    "xor",
];

/// For each length below 32, the first letters of [`VERILOG_KEYWORDS`] of
/// that length, letter `c` at bit `c - b'a'`.
const KEYWORD_SHAPES: [u32; 32] = {
    let mut shapes = [0u32; 32];
    let mut i = 0;
    while i < VERILOG_KEYWORDS.len() {
        let keyword = VERILOG_KEYWORDS[i].as_bytes();
        shapes[keyword.len()] |= 1 << (keyword[0] - b'a');
        i += 1;
    }
    shapes
};

/// True when Verilog-2005 reserves `identifier` as a keyword. A name whose
/// length and first letter no keyword shares, as most names the lowering
/// assigns, is refused without a search.
pub fn is_verilog_keyword(identifier: &str) -> bool {
    let shaped = match identifier.as_bytes() {
        [c @ b'a'..=b'z', ..] => KEYWORD_SHAPES
            .get(identifier.len())
            .is_some_and(|letters| letters & (1 << (c - b'a')) != 0),
        _ => false,
    };
    shaped && VERILOG_KEYWORDS.binary_search(&identifier).is_ok()
}

/// Turns a display name into a safe Verilog identifier: non-alphanumerics
/// become `_`, and an empty or digit-leading result is prefixed with `m`.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, 'm');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::PortDirection;

    fn port(name: &str, dir: PortDirection, width: u16) -> Port {
        Port {
            name: name.to_string(),
            direction: dir,
            width,
        }
    }

    #[test]
    fn stats_count_kinds_and_registers() {
        let mut m = NirModule::new("t");
        m.ports.push(port("x", PortDirection::Input, 8));
        let c = m.push(CellKind::Const(3), 8, vec![]);
        let i = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let a = m.push(CellKind::Bin(BinKind::Mul), 8, vec![c, i]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let _r = m.push(CellKind::Reg { init: 0 }, 8, vec![a, en]);
        let s = m.stats();
        assert_eq!(s.cells, 5);
        assert_eq!(s.count("mul"), 1);
        assert_eq!(s.count("const"), 2);
        assert_eq!(s.count("nonexistent"), 0);
        assert_eq!(s.regs, 1);
        assert_eq!(s.reg_bits, 8);
        assert_eq!(s.max_mux_depth, 0);
    }

    #[test]
    fn mux_depth_counts_stacked_muxes_and_sees_through_arith() {
        let mut m = NirModule::new("t");
        let s0 = m.push(CellKind::Const(1), 1, vec![]);
        let a = m.push(CellKind::Const(4), 8, vec![]);
        let b = m.push(CellKind::Const(5), 8, vec![]);
        // chain: mux(s, a, mux(s, b, mux(s, a, b)))
        let m1 = m.push(CellKind::Mux, 8, vec![s0, a, b]);
        let m2 = m.push(CellKind::Mux, 8, vec![s0, b, m1]);
        let m3 = m.push(CellKind::Mux, 8, vec![s0, a, m2]);
        // an adder on top is transparent
        let add = m.push(CellKind::Bin(BinKind::Add), 8, vec![m3, a]);
        assert_eq!(m.max_mux_depth(), 3);
        // the select input does not add mux depth
        let _ = add;
        // registers cut the path
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = m.push(CellKind::Reg { init: 0 }, 8, vec![add, en]);
        let m4 = m.push(CellKind::Mux, 8, vec![s0, r, a]);
        let _ = m4;
        assert_eq!(m.max_mux_depth(), 3);
    }

    #[test]
    fn use_counts_and_live_cells_agree_with_structure() {
        let mut m = NirModule::new("t");
        m.ports.push(port("y", PortDirection::Output, 8));
        let a = m.push(CellKind::Const(1), 8, vec![]);
        let b = m.push(CellKind::Const(2), 8, vec![]);
        let s = m.push(CellKind::Bin(BinKind::Add), 8, vec![a, b]);
        let dead = m.push(CellKind::Bin(BinKind::Add), 8, vec![a, a]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 0, state: 0 }, 8, vec![s, en]);
        let uses = m.use_counts();
        assert_eq!(
            uses[a.index()],
            3,
            "a feeds the sum and the dead adder twice"
        );
        assert_eq!(uses[b.index()], 1);
        assert_eq!(uses[s.index()], 1);
        assert_eq!(uses[dead.index()], 0);
        let live = m.live_cells();
        assert!(live[a.index()] && live[b.index()] && live[s.index()] && live[en.index()]);
        assert!(!live[dead.index()], "unreachable from any output");
    }

    #[test]
    fn comb_topo_order_puts_operands_first() {
        let mut m = NirModule::new("t");
        let a = m.push(CellKind::Const(1), 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        // register feedback: r = reg(add(r, a)) — legal, the topo order must
        // still terminate and place the adder after its register operand
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 8,
            inputs: vec![a, en],
            name: None,
        });
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![r, a]);
        m.cells[r.index()].inputs = vec![sum, en];
        let order = m.comb_topo_order();
        assert_eq!(order.len(), m.num_cells());
        let pos = |id: CellId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(r) < pos(sum), "reg launches before the adder consumes");
        assert!(pos(a) < pos(sum));
    }

    #[test]
    fn comb_topo_order_lists_every_cell_of_a_cycle_once_but_out_of_order() {
        // x = y + c, y = x + c: a combinational cycle the validator rejects
        let mut m = NirModule::new("t");
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let x = m.push(CellKind::Bin(BinKind::Add), 8, vec![CellId(2), c]);
        let y = m.push(CellKind::Bin(BinKind::Add), 8, vec![x, c]);
        let order = m.comb_topo_order();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![c, x, y], "every cell exactly once");
        let pos = |id: CellId| order.iter().position(|&o| o == id).unwrap();
        let misplaced = [x, y]
            .into_iter()
            .filter(|&id| m.cell(id).inputs.iter().any(|&op| pos(op) > pos(id)))
            .count();
        assert_eq!(misplaced, 1, "one cycle member comes before its operand");
    }

    #[test]
    fn typed_stat_accessors_match_string_counts() {
        let mut m = NirModule::new("t");
        let c = m.push(CellKind::Const(3), 8, vec![]);
        let d = m.push(CellKind::Const(4), 8, vec![]);
        let p = m.push(CellKind::Bin(BinKind::Mul), 8, vec![c, d]);
        let n = m.push(CellKind::Un(UnKind::Neg), 8, vec![p]);
        let s0 = m.push(CellKind::Const(1), 1, vec![]);
        let _mx = m.push(CellKind::Mux, 8, vec![s0, p, n]);
        let s = m.stats();
        assert_eq!(s.count_bin(BinKind::Mul), s.count("mul"));
        assert_eq!(s.count_bin(BinKind::Mul), 1);
        assert_eq!(s.count(UnKind::Neg.mnemonic()), 1);
        assert_eq!(s.muxes(), 1);
        assert_eq!(s.count("const"), 3);
        assert_eq!(s.count_kind(&CellKind::Mux), 1);
        assert_eq!(s.outputs(), 0);
        assert_eq!(s.count("input"), 0);
    }

    #[test]
    fn verilog_keywords_are_sorted_and_recognized() {
        assert!(VERILOG_KEYWORDS.windows(2).all(|w| w[0] < w[1]));
        for word in VERILOG_KEYWORDS {
            assert!(is_verilog_keyword(word), "{word}");
        }
        for word in [
            "Reg",
            "regs",
            "clk",
            "w_1_mul",
            "",
            "wir",
            "pulsestyle_ondetect_",
        ] {
            assert!(!is_verilog_keyword(word), "{word}");
        }
    }

    #[test]
    fn sanitize_makes_identifiers() {
        assert_eq!(sanitize("demo loop"), "demo_loop");
        assert_eq!(sanitize("3x"), "m3x");
        assert_eq!(sanitize(""), "m");
        assert_eq!(sanitize("a.b-c"), "a_b_c");
    }
}
