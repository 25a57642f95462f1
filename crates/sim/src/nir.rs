//! Cycle-accurate execution of a structural netlist ([`NirModule`]).
//!
//! [`NirSim`] is the crate's one timed engine. It executes lowered
//! hardware: a schedule's per-op netlist, or a binding's shared units with
//! their steering. The combinational cells settle in topological order
//! every cycle, registers capture on enables, and the controller (FSM
//! counter, stage-valid fill, first-iteration one-hot) advances exactly as
//! the printed Verilog's always-blocks do. Running the same stimulus
//! through this engine and the reference interpreter is what proves a
//! schedule, a lowering, and every rewrite pass applied after it correct
//! by execution.
//!
//! [`NirSim::new`] compiles the module once, into one instruction *tape*
//! per value of the FSM counter. It checks every cell's arity, operand ids
//! and pipeline stage, then, state by state, folds the counter to that
//! state's value and keeps only the cone that the state's enabled register
//! captures and port writes read. A tape is a flat list of entries over
//! `i64` slots. A slot holds its cell's value sign-extended at the cell's
//! width, which is the [`BitVal::as_i64`](hls_ir::BitVal::as_i64) reading
//! every [`hls_ir::eval`] rule starts from, so wrapping `i64` arithmetic
//! followed by one sign-extension reproduces `eval_op` bit for bit at every
//! width up to 64.
//!
//! Folding keeps only exact identities. A cell whose operands are all
//! constant is evaluated by its own tape entry; a mux with a constant
//! select becomes its chosen arm, read in place when sign-extension at the
//! mux width leaves the arm's value unchanged and through a resize entry
//! otherwise; an `and` with a constant-zero operand is zero. A capture or
//! port write whose enable folds to zero leaves the state's lists, and a
//! folded operand reads a constant slot that no tape writes. The tapes are
//! keyed by `fsm & 0xFF`, the value the printed 8-bit counter holds: a
//! module with `fold_states` states gets `min(fold_states, 256)` tapes, or
//! a single one when no live cell reads the counter. Cells that do not
//! depend on the counter are folded once for all tapes.
//!
//! Within a level a tape is sorted by opcode, so [`NirSim::run`] walks it
//! as a short list of same-opcode runs with one dispatch per run, reads
//! input ports from a dense (iteration × port) table, and ends each cycle
//! with the state's port writes and register captures. The controller's
//! stage bits are computed, not shifted: after `b` counter wraps, stage `g`
//! holds valid work when `b >= g` and iteration 0 when `b == g`.

use crate::cycle::{CycleTrace, TimedWrite};
use crate::error::SimError;
use crate::stimulus::Stimulus;
use hls_ir::{CmpKind, PortId};
use hls_nir::{BinKind, Cell, CellId, CellKind, NirModule, UnKind};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Tape opcodes: one per combinational cell behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    /// `c` holds the zero-extension shift of the amount operand.
    Shl,
    /// `c` holds the zero-extension shift of the amount operand.
    Shr,
    /// A signed comparison: -1 (one set bit) when true, 0 when false.
    Cmp(CmpKind),
    Not,
    Neg,
    /// `a` selects between `b` (non-zero) and `c` (zero).
    Mux,
    /// Arithmetic shift right by the constant `b`, then the result extension.
    Slice,
    /// Sign-extension of `a` at the result width (also `Output` cells).
    Resize,
}

impl Op {
    /// How many of `a`, `b`, `c` name operand slots.
    fn operands(self) -> usize {
        match self {
            Op::Not | Op::Neg | Op::Slice | Op::Resize => 1,
            Op::Mux => 3,
            _ => 2,
        }
    }
}

/// One tape entry: `slots[dst] = sext(op(slots[a], slots[b], slots[c]))`.
#[derive(Clone, Copy, Debug)]
struct Instr {
    op: Op,
    /// `64 - width` of the result: `(x << ext) >> ext` sign-extends it.
    ext: u8,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

/// Sign-extends the low `64 - ext` bits of `x`.
#[inline(always)]
fn sext(x: i64, ext: u32) -> i64 {
    (x << ext) >> ext
}

/// `64 - width` for a width clamped to `1..=64`, the way `BitVal` clamps.
fn ext_of(width: u16) -> u8 {
    64 - width.clamp(1, 64) as u8
}

/// The value of `op` over `i`'s operand slots, before the result's
/// sign-extension. `op` is passed apart from `i.op` so the tape loop can
/// fix it per run of entries.
#[inline(always)]
fn compute(op: Op, i: &Instr, s: &[i64]) -> i64 {
    let a = s[i.a as usize];
    match op {
        Op::Add => a.wrapping_add(s[i.b as usize]),
        Op::Sub => a.wrapping_sub(s[i.b as usize]),
        Op::Mul => a.wrapping_mul(s[i.b as usize]),
        Op::Div => match s[i.b as usize] {
            0 => 0,
            d => a.wrapping_div(d),
        },
        Op::Rem => match s[i.b as usize] {
            0 => a,
            d => a.wrapping_rem(d),
        },
        Op::And => a & s[i.b as usize],
        Op::Or => a | s[i.b as usize],
        Op::Xor => a ^ s[i.b as usize],
        Op::Shl => {
            // the amount is the unsigned reading of the operand's bits
            let amount = ((s[i.b as usize] as u64) << i.c) >> i.c;
            if amount < 64 {
                a << amount
            } else {
                0
            }
        }
        Op::Shr => {
            let amount = ((s[i.b as usize] as u64) << i.c) >> i.c;
            a >> amount.min(63)
        }
        Op::Cmp(k) => -i64::from(k.eval(a, s[i.b as usize])),
        Op::Not => !a,
        Op::Neg => a.wrapping_neg(),
        Op::Mux => {
            if a != 0 {
                s[i.b as usize]
            } else {
                s[i.c as usize]
            }
        }
        Op::Slice => a >> i.b,
        Op::Resize => a,
    }
}

impl Instr {
    /// The entry's value over `s`, result extension included.
    fn eval_at(&self, s: &[i64]) -> i64 {
        sext(compute(self.op, self, s), u32::from(self.ext))
    }
}

/// Evaluates a run of entries that all carry `op`. Every call site passes
/// a constant `op`, so each opcode gets its own loop with no dispatch.
#[inline(always)]
fn run_entries(op: Op, run: &[Instr], s: &mut [i64]) {
    for i in run {
        s[i.dst as usize] = sext(compute(op, i, s), u32::from(i.ext));
    }
}

/// A maximal run of tape entries sharing one opcode, ending before `end`.
#[derive(Clone, Copy, Debug)]
struct Segment {
    op: Op,
    end: u32,
}

/// A controller flag, read from the number of counter wraps before the
/// cycle.
#[derive(Clone, Copy, Debug)]
enum Control {
    /// Stage `g` holds valid work: at least `g` wraps.
    StageValid(u64),
    /// Stage `g` holds iteration 0: exactly `g` wraps.
    FirstIter(u64),
}

/// An `Input` cell: column `col` of the stimulus table, for the iteration
/// whose read is scheduled in unfolded state `state`.
#[derive(Clone, Copy, Debug)]
struct InputRead {
    slot: u32,
    col: u32,
    state: u32,
    ext: u8,
}

/// An `Output` cell, in cell-id order.
#[derive(Clone, Copy, Debug)]
struct PortWrite {
    value: u32,
    enable: u32,
    port: u32,
    state: u32,
}

/// A register: captures `sext(slots[data])` into `slots[reg]` when
/// `slots[enable]` is non-zero.
#[derive(Clone, Copy, Debug)]
struct Capture {
    reg: u32,
    data: u32,
    enable: u32,
    ext: u8,
}

/// The compiled form of one FSM state.
#[derive(Debug, Default)]
struct Tape {
    /// The state's cone, level by level and sorted by opcode within a
    /// level.
    entries: Vec<Instr>,
    segments: Vec<Segment>,
    inputs: Vec<InputRead>,
    controller: Vec<(u32, Control)>,
    /// The port writes and captures whose enable does not fold to zero.
    writes: Vec<PortWrite>,
    captures: Vec<Capture>,
}

/// Cycle-accurate simulator over a structural netlist, compiled once into
/// one tape per FSM state.
#[derive(Debug)]
pub struct NirSim<'a> {
    /// Slot values at reset: constants and register inits.
    init: Vec<i64>,
    /// The tape of each value of `fsm & 0xFF`, or a single tape when no
    /// live cell reads the counter.
    tapes: Vec<Tape>,
    /// The port each stimulus-table column holds.
    input_ports: Vec<u32>,
    fold_states: u32,
    num_states: u32,
    module: PhantomData<&'a NirModule>,
}

fn netlist_error(cell: usize, reason: String) -> SimError {
    SimError::Netlist {
        cell: cell as u32,
        reason,
    }
}

/// Rejects what would index out of range: a wrong operand count, an
/// operand outside the arena, a controller stage outside the pipeline.
fn check_cell(index: usize, cell: &Cell, n: usize, stages: usize) -> Result<(), SimError> {
    let mnemonic = cell.kind.mnemonic();
    if cell.inputs.len() != cell.kind.arity() {
        return Err(netlist_error(
            index,
            format!(
                "`{mnemonic}` takes {} operand(s), found {}",
                cell.kind.arity(),
                cell.inputs.len()
            ),
        ));
    }
    if let Some((q, op)) = cell.inputs.iter().enumerate().find(|(_, i)| i.index() >= n) {
        return Err(netlist_error(
            index,
            format!("operand {q} is {op}, outside the {n}-cell netlist"),
        ));
    }
    if let CellKind::StageValid { stage } | CellKind::FirstIter { stage } = cell.kind {
        if stage as usize >= stages {
            return Err(netlist_error(
                index,
                format!("`{mnemonic}` stage {stage} is outside the {stages}-stage pipeline"),
            ));
        }
    }
    Ok(())
}

/// Kahn's algorithm over the combinational edges (register inputs are
/// sampled at the clock edge and carry none). Every cell is returned;
/// cells on a combinational cycle are an error.
fn topo_order(m: &NirModule) -> Result<Vec<u32>, SimError> {
    let n = m.num_cells();
    let mut indeg = vec![0u32; n];
    let mut start = vec![0u32; n + 1];
    for (id, cell) in m.iter_cells() {
        if cell.kind.is_seq() {
            continue;
        }
        indeg[id.index()] = cell.inputs.len() as u32;
        for input in &cell.inputs {
            start[input.index() + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut fanout = vec![0u32; start[n] as usize];
    for (id, cell) in m.iter_cells() {
        if cell.kind.is_seq() {
            continue;
        }
        for input in &cell.inputs {
            fanout[fill[input.index()] as usize] = id.index() as u32;
            fill[input.index()] += 1;
        }
    }
    let mut order: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let i = order[head] as usize;
        head += 1;
        for &next in &fanout[start[i] as usize..start[i + 1] as usize] {
            indeg[next as usize] -= 1;
            if indeg[next as usize] == 0 {
                order.push(next);
            }
        }
    }
    if order.len() != n {
        let cell = indeg.iter().position(|&d| d > 0).unwrap_or(0);
        return Err(netlist_error(cell, "combinational cycle".into()));
    }
    Ok(order)
}

/// The width of the value a cell's slot holds, which an unsigned reading
/// (a shift amount) needs: comparisons and the controller's flag bits are
/// one bit and the FSM counter eight, whatever the cell declares.
fn value_width(cell: &Cell) -> u16 {
    match cell.kind {
        CellKind::Bin(BinKind::Cmp(_))
        | CellKind::StageValid { .. }
        | CellKind::FirstIter { .. } => 1,
        CellKind::FsmState => 8,
        _ => cell.width,
    }
}

/// The tape entry of a combinational cell, with operand *cell ids* in
/// `a`/`b`/`c` (and `dst` unset).
fn instr_of(m: &NirModule, cell: &Cell) -> Instr {
    let operand = |q: usize| cell.inputs[q].index() as u32;
    let mut instr = Instr {
        op: Op::Resize,
        ext: ext_of(cell.width),
        dst: 0,
        a: operand(0),
        b: 0,
        c: 0,
    };
    match cell.kind {
        CellKind::Bin(b) => {
            instr.b = operand(1);
            instr.op = match b {
                BinKind::Add => Op::Add,
                BinKind::Sub => Op::Sub,
                BinKind::Mul => Op::Mul,
                BinKind::Div => Op::Div,
                BinKind::Rem => Op::Rem,
                BinKind::And => Op::And,
                BinKind::Or => Op::Or,
                BinKind::Xor => Op::Xor,
                BinKind::Shl => Op::Shl,
                BinKind::Shr => Op::Shr,
                BinKind::Cmp(k) => Op::Cmp(k),
            };
            if matches!(b, BinKind::Shl | BinKind::Shr) {
                instr.c = u32::from(ext_of(value_width(m.cell(cell.inputs[1]))));
            }
        }
        CellKind::Un(UnKind::Not) => instr.op = Op::Not,
        CellKind::Un(UnKind::Neg) => instr.op = Op::Neg,
        CellKind::Mux => {
            instr.op = Op::Mux;
            instr.b = operand(1);
            instr.c = operand(2);
        }
        CellKind::Slice { hi, lo } => {
            // The field `[hi:lo]` of the sign-extended input, sign-extended
            // at its own width and then resized to the cell width: one
            // extension at the narrower of the two.
            let take = hi.saturating_sub(lo).saturating_add(1).min(64);
            instr.op = Op::Slice;
            instr.b = u32::from(lo.min(63));
            instr.ext = ext_of(take.min(cell.width.clamp(1, 64)));
        }
        // `Resize`, and `Output`: the port sees its data operand resized to
        // the cell width; the enable is read by the write list.
        _ => {}
    }
    instr
}

/// The operand cell ids of an entry.
fn operands(instr: &Instr) -> impl Iterator<Item = u32> {
    [instr.a, instr.b, instr.c]
        .into_iter()
        .take(instr.op.operands())
}

/// What compiling one tape decides about a cell.
#[derive(Clone, Copy, Debug)]
enum Fold {
    /// The same value on every cycle of the state.
    Const(i64),
    /// Exactly the value of another cell, one that is no alias itself.
    Alias(u32),
    /// Computed by this entry, whose operands are still cell ids.
    Entry(Instr),
    /// Written outside the tape: a register, an input read or a stage bit.
    Source,
}

const NO_SLOT: u32 = u32::MAX;

/// The entry of a cell no tape computes.
const NO_ENTRY: Instr = Instr {
    op: Op::Resize,
    ext: 0,
    dst: 0,
    a: 0,
    b: 0,
    c: 0,
};

/// Slot allocation, shared by every tape: a cell keeps one slot in all of
/// them, and each distinct folded value gets one constant slot that no
/// tape writes.
struct Slots {
    of_cell: Vec<u32>,
    of_const: HashMap<i64, u32>,
    init: Vec<i64>,
}

impl Slots {
    fn push(&mut self, value: i64) -> u32 {
        self.init.push(value);
        self.init.len() as u32 - 1
    }

    /// The slot of a computed or source cell; a register's starts from its
    /// reset value.
    fn cell(&mut self, m: &NirModule, c: u32) -> u32 {
        if self.of_cell[c as usize] == NO_SLOT {
            let cell = m.cell(CellId::from_raw(c));
            let init = match cell.kind {
                CellKind::Reg { init } => sext(init, u32::from(ext_of(cell.width))),
                _ => 0,
            };
            self.of_cell[c as usize] = self.push(init);
        }
        self.of_cell[c as usize]
    }

    fn constant(&mut self, value: i64) -> u32 {
        match self.of_const.get(&value) {
            Some(&slot) => slot,
            None => {
                let slot = self.push(value);
                self.of_const.insert(value, slot);
                slot
            }
        }
    }
}

/// The stamp of a fold that holds in every state: a source's, or a
/// combinational cell's that does not depend on the counter.
const EVERY_STATE: u32 = u32::MAX;

/// Folds and prunes the netlist one state at a time. The per-cell arrays
/// are shared by the tapes: a fold belongs to the tape being compiled when
/// its stamp is the tape's or [`EVERY_STATE`], and a cell is in the tape's
/// cone when its `needed` stamp is the tape's.
struct Compiler<'m> {
    m: &'m NirModule,
    /// Each combinational cell's entry, with operand cell ids.
    base: Vec<Instr>,
    fold: Vec<Fold>,
    /// The value of each cell folded to a constant, where
    /// [`Instr::eval_at`] reads its operands.
    value: Vec<i64>,
    folded: Vec<u32>,
    needed: Vec<u32>,
    level: Vec<u32>,
    stamp: u32,
    /// Cells waiting on an operand's fold.
    pending: Vec<u32>,
    /// The cone walk's stack: cells to visit, and visited entries to
    /// finish once their operands are.
    walk: Vec<(u32, bool)>,
}

impl Compiler<'_> {
    fn known(&self, c: u32) -> Option<Fold> {
        // tapes are compiled in stamp order, so older stamps are stale
        (self.folded[c as usize] >= self.stamp).then(|| self.fold[c as usize])
    }

    fn set(&mut self, c: u32, fold: Fold) {
        self.fold[c as usize] = fold;
        self.folded[c as usize] = self.stamp;
        if let Fold::Const(v) = fold {
            self.value[c as usize] = v;
        }
    }

    /// `64 - width` of the values a computed or source cell's slot holds.
    fn value_ext(&self, c: u32) -> u8 {
        match self.fold[c as usize] {
            Fold::Entry(instr) => instr.ext,
            _ => match self.m.cell(CellId::from_raw(c)) {
                Cell {
                    kind: CellKind::StageValid { .. } | CellKind::FirstIter { .. },
                    ..
                } => 63,
                cell => ext_of(cell.width),
            },
        }
    }

    /// A combinational cell's fold when its operands' folds decide it, or
    /// else an undecided operand it needs first. Only exact identities
    /// fold: operands that are all constant, a mux with a constant select,
    /// and an `and` with a constant zero.
    fn decide(&self, c: u32) -> Result<Fold, u32> {
        let instr = self.base[c as usize];
        let fold_of = |o: u32| self.known(o).ok_or(o);
        match instr.op {
            Op::Mux => {
                let Fold::Const(select) = fold_of(instr.a)? else {
                    return Ok(Fold::Entry(instr));
                };
                let arm = if select != 0 { instr.b } else { instr.c };
                Ok(match fold_of(arm)? {
                    Fold::Const(v) => Fold::Const(sext(v, u32::from(instr.ext))),
                    f => {
                        let arm = match f {
                            Fold::Alias(target) => target,
                            _ => arm,
                        };
                        // fault mutants narrow widths: an arm wider than
                        // the mux is read through a resize
                        if self.value_ext(arm) >= instr.ext {
                            Fold::Alias(arm)
                        } else {
                            Fold::Entry(Instr {
                                op: Op::Resize,
                                a: arm,
                                b: 0,
                                c: 0,
                                ..instr
                            })
                        }
                    }
                })
            }
            Op::And => {
                let (a, b) = (self.known(instr.a), self.known(instr.b));
                if matches!(a, Some(Fold::Const(0))) || matches!(b, Some(Fold::Const(0))) {
                    return Ok(Fold::Const(0));
                }
                Ok(match (fold_of(instr.a)?, fold_of(instr.b)?) {
                    (Fold::Const(_), Fold::Const(_)) => Fold::Const(instr.eval_at(&self.value)),
                    _ => Fold::Entry(instr),
                })
            }
            _ => {
                for o in operands(&instr) {
                    if !matches!(fold_of(o)?, Fold::Const(_)) {
                        return Ok(Fold::Entry(instr));
                    }
                }
                Ok(Fold::Const(instr.eval_at(&self.value)))
            }
        }
    }

    /// `c`'s fold in this tape, deciding first the operands it needs.
    fn fold_of(&mut self, c: u32) -> Fold {
        if let Some(f) = self.known(c) {
            return f;
        }
        self.pending.push(c);
        while let Some(&x) = self.pending.last() {
            match self.decide(x) {
                Ok(f) => {
                    self.set(x, f);
                    self.pending.pop();
                }
                Err(operand) => self.pending.push(operand),
            }
        }
        self.fold[c as usize]
    }

    /// Marks the cone computing `c` in this tape. Its entries go to
    /// `computed` in topological order, each one level past its deepest
    /// computed operand; its input reads and stage bits go to `sources`.
    fn need(&mut self, c: u32, computed: &mut Vec<(u32, Instr)>, sources: &mut Vec<u32>) {
        self.walk.push((c, false));
        while let Some((x, finish)) = self.walk.pop() {
            if finish {
                let Fold::Entry(instr) = self.fold[x as usize] else {
                    unreachable!("only entries are finished")
                };
                let deepest = operands(&instr).map(|o| self.level_of(o)).max();
                self.level[x as usize] = 1 + deepest.unwrap_or(0);
                computed.push((x, instr));
                continue;
            }
            if self.needed[x as usize] == self.stamp {
                continue;
            }
            self.needed[x as usize] = self.stamp;
            match self.fold_of(x) {
                Fold::Const(_) => {}
                Fold::Alias(target) => self.walk.push((target, false)),
                Fold::Entry(instr) => {
                    // no combinational cycle, so the operands finish first
                    self.walk.push((x, true));
                    self.walk.extend(operands(&instr).map(|o| (o, false)));
                }
                Fold::Source => sources.push(x),
            }
        }
    }

    /// The slot a consumer in this tape reads `c`'s value from.
    fn slot(&self, slots: &mut Slots, c: u32) -> u32 {
        match self.fold[c as usize] {
            Fold::Const(v) => slots.constant(v),
            Fold::Alias(target) => slots.cell(self.m, target),
            _ => slots.cell(self.m, c),
        }
    }

    /// The level of the entry computing `c`'s value, 0 for a constant or a
    /// source.
    fn level_of(&self, c: u32) -> u32 {
        let c = match self.fold[c as usize] {
            Fold::Alias(target) => target,
            _ => c,
        };
        match self.fold[c as usize] {
            Fold::Entry(_) => self.level[c as usize],
            _ => 0,
        }
    }
}

impl<'a> NirSim<'a> {
    /// Compiles `m` into its tapes. Needs no prior [`hls_nir::validate()`]:
    /// the checks that keep the simulation in bounds happen here.
    ///
    /// # Errors
    /// [`SimError::Netlist`] naming the first offending cell when a cell has
    /// the wrong number of operands, an operand id outside the netlist, or a
    /// `StageValid`/`FirstIter` stage outside `0..stages`; or when the
    /// combinational cells cannot be topologically ordered.
    pub fn new(m: &'a NirModule) -> Result<Self, SimError> {
        let n = m.num_cells();
        let stages = m.stages.max(1) as usize;
        for (id, cell) in m.iter_cells() {
            check_cell(id.index(), cell, n, stages)?;
        }
        let order = topo_order(m)?;
        let live = m.live_cells();
        let mut cc = Compiler {
            m,
            base: vec![NO_ENTRY; n],
            fold: vec![Fold::Source; n],
            value: vec![0; n],
            folded: vec![0; n],
            needed: vec![0; n],
            level: vec![0; n],
            stamp: EVERY_STATE,
            pending: Vec::new(),
            walk: Vec::new(),
        };
        // Sources fold the same in every state, and so does every
        // combinational cell the counter does not reach.
        let mut counters = Vec::new();
        let mut varies = vec![false; n];
        let mut roots = Vec::new();
        for &c in &order {
            let cell = m.cell(CellId::from_raw(c));
            if !live[c as usize] {
                continue;
            }
            match cell.kind {
                CellKind::Const(v) => {
                    cc.set(c, Fold::Const(sext(v, u32::from(ext_of(cell.width)))))
                }
                CellKind::FsmState => {
                    counters.push(c);
                    varies[c as usize] = true;
                }
                // stage 0 holds valid work from the first cycle on
                CellKind::StageValid { stage: 0 } => cc.set(c, Fold::Const(-1)),
                CellKind::Input { .. }
                | CellKind::StageValid { .. }
                | CellKind::FirstIter { .. } => {
                    cc.set(c, Fold::Source);
                }
                CellKind::Reg { .. } => {
                    cc.set(c, Fold::Source);
                    roots.push((
                        cell.inputs[1].index() as u32,
                        c,
                        cell.inputs[0].index() as u32,
                    ));
                }
                _ => {
                    cc.base[c as usize] = instr_of(m, cell);
                    varies[c as usize] = cell.inputs.iter().any(|i| varies[i.index()]);
                    if !varies[c as usize] {
                        cc.fold_of(c);
                    }
                    if let CellKind::Output { .. } = cell.kind {
                        roots.push((cell.inputs[1].index() as u32, c, c));
                    }
                }
            }
        }
        // Roots sharing an enable are decided together.
        roots.sort_unstable();
        // The printed counter is eight bits wide, so states 256 apart
        // share a tape.
        let tapes = if counters.is_empty() {
            1
        } else {
            m.fold_states.clamp(1, 256)
        };
        let mut slots = Slots {
            of_cell: vec![NO_SLOT; n],
            of_const: HashMap::new(),
            init: Vec::new(),
        };
        let mut sim = NirSim {
            init: Vec::new(),
            tapes: Vec::with_capacity(tapes as usize),
            input_ports: Vec::new(),
            fold_states: m.fold_states,
            num_states: m.num_states,
            module: PhantomData,
        };
        for state in 0..tapes {
            cc.stamp = state + 1;
            for &c in &counters {
                cc.set(c, Fold::Const(sext(i64::from(state), 56)));
            }
            sim.push_tape(&mut cc, &mut slots, &roots);
        }
        sim.init = slots.init;
        Ok(sim)
    }

    /// Compiles the tape of the compiler's state: the cone of every capture
    /// and port write whose enable does not fold to zero. `roots` holds
    /// each register and port write as `(enable, cell, value)`, sorted.
    fn push_tape(&mut self, cc: &mut Compiler, slots: &mut Slots, roots: &[(u32, u32, u32)]) {
        let m = cc.m;
        let mut fired = Vec::new();
        let mut computed = Vec::new();
        let mut sources = Vec::new();
        let (mut last, mut enabled) = (None, false);
        for &(enable, cell, value) in roots {
            if last != Some(enable) {
                last = Some(enable);
                enabled = !matches!(cc.fold_of(enable), Fold::Const(0));
                if enabled {
                    cc.need(enable, &mut computed, &mut sources);
                }
            }
            if enabled {
                fired.push((cell, value));
            }
        }
        fired.sort_unstable();
        for &(_, value) in &fired {
            cc.need(value, &mut computed, &mut sources);
        }

        // Entries of one level are independent: sort each level by opcode
        // so the tape runs in long same-opcode segments.
        computed.sort_by_key(|&(c, instr)| (cc.level[c as usize], instr.op));
        let mut tape = Tape::default();
        for &(c, _) in &computed {
            slots.cell(m, c);
        }
        for (c, mut instr) in computed {
            instr.dst = slots.cell(m, c);
            instr.a = cc.slot(slots, instr.a);
            if instr.op.operands() > 1 {
                instr.b = cc.slot(slots, instr.b);
            }
            if instr.op.operands() > 2 {
                instr.c = cc.slot(slots, instr.c);
            }
            match tape.segments.last_mut() {
                Some(seg) if seg.op == instr.op => seg.end += 1,
                _ => tape.segments.push(Segment {
                    op: instr.op,
                    end: tape.entries.len() as u32 + 1,
                }),
            }
            tape.entries.push(instr);
        }

        for &c in &sources {
            let cell = m.cell(CellId::from_raw(c));
            let slot = slots.cell(m, c);
            match cell.kind {
                CellKind::Input { port, state } => {
                    let col = match self.input_ports.iter().position(|&p| p == port) {
                        Some(col) => col,
                        None => {
                            self.input_ports.push(port);
                            self.input_ports.len() - 1
                        }
                    };
                    tape.inputs.push(InputRead {
                        slot,
                        col: col as u32,
                        state,
                        ext: ext_of(cell.width),
                    });
                }
                CellKind::StageValid { stage } => {
                    tape.controller
                        .push((slot, Control::StageValid(u64::from(stage))));
                }
                CellKind::FirstIter { stage } => {
                    tape.controller
                        .push((slot, Control::FirstIter(u64::from(stage))));
                }
                _ => {}
            }
        }

        for &(r, _) in &fired {
            let cell = m.cell(CellId::from_raw(r));
            let enable = cc.slot(slots, cell.inputs[1].index() as u32);
            match cell.kind {
                CellKind::Output { port, state } => tape.writes.push(PortWrite {
                    value: cc.slot(slots, r),
                    enable,
                    port,
                    state,
                }),
                _ => tape.captures.push(Capture {
                    reg: slots.cell(m, r),
                    data: cc.slot(slots, cell.inputs[0].index() as u32),
                    enable,
                    ext: ext_of(cell.width),
                }),
            }
        }
        self.tapes.push(tape);
    }

    /// Runs one iteration per stimulus row and collects the write trace.
    ///
    /// # Errors
    /// None: every check happens when [`NirSim::new`] compiles the netlist.
    pub fn run(&self, stimulus: &Stimulus) -> Result<CycleTrace, SimError> {
        let n_iters = stimulus.iterations();
        let cpi = u64::from(self.fold_states.max(1));
        let latency = u64::from(self.num_states.max(1));
        let total = if n_iters == 0 {
            0
        } else {
            (n_iters as u64 - 1) * cpi + latency
        };

        let cols = self.input_ports.len();
        let mut table = Vec::with_capacity(n_iters * cols);
        for k in 0..n_iters {
            for &port in &self.input_ports {
                table.push(stimulus.value(k, PortId::from_raw(port)));
            }
        }

        let mut slots = self.init.clone();
        let mut captured: Vec<(u32, i64)> = Vec::new();
        let mut fsm: u64 = 0;
        // counter wraps before this cycle: stage `g` holds valid work once
        // `g` wraps have passed, and iteration 0 at exactly `g`
        let mut wraps: u64 = 0;

        let mut trace = CycleTrace {
            cycles_per_iteration: cpi as u32,
            writes: Vec::new(),
        };

        for t in 0..total {
            // `fsm & 0xFF` is below the tape count, unless a single tape
            // serves a netlist that never reads the counter
            let tape = &self.tapes[((fsm & 0xFF) as usize).min(self.tapes.len() - 1)];
            for r in &tape.inputs {
                let state = u64::from(r.state);
                let k = if t < state {
                    0
                } else {
                    (((t - state) / cpi) as usize).min(n_iters - 1)
                };
                slots[r.slot as usize] = sext(table[k * cols + r.col as usize], u32::from(r.ext));
            }
            for &(slot, control) in &tape.controller {
                slots[slot as usize] = match control {
                    Control::StageValid(g) => -i64::from(wraps >= g),
                    Control::FirstIter(g) => -i64::from(wraps == g),
                };
            }

            // combinational settle
            let mut start = 0;
            for seg in &tape.segments {
                let run = &tape.entries[start..seg.end as usize];
                start = seg.end as usize;
                macro_rules! dispatch {
                    ($($op:ident),*) => {
                        match seg.op {
                            $(Op::$op => run_entries(Op::$op, run, &mut slots),)*
                            Op::Cmp(k) => run_entries(Op::Cmp(k), run, &mut slots),
                        }
                    };
                }
                dispatch!(
                    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Not, Neg, Mux, Slice, Resize
                );
            }

            // Observable writes, in cell-id order within the cycle. Every
            // enabled write is recorded, not just writes landing in the
            // cell's scheduled slot: the emitted Verilog gates the port
            // register on the enable alone, so a mis-gated enable must
            // surface here as extra writes rather than be masked by the
            // schedule's timing. (For a correct lowering the enable only
            // fires in the scheduled slot, so the two gatings coincide.)
            for w in &tape.writes {
                let s = u64::from(w.state);
                if slots[w.enable as usize] != 0 && t >= s {
                    let k = (t - s) / cpi;
                    if (k as usize) < n_iters {
                        trace.writes.push(TimedWrite {
                            cycle: t,
                            iteration: k as u32,
                            port: PortId::from_raw(w.port),
                            value: slots[w.value as usize],
                        });
                    }
                }
            }

            // register captures (simultaneous, like one posedge)
            captured.clear();
            for c in &tape.captures {
                if slots[c.enable as usize] != 0 {
                    captured.push((c.reg, sext(slots[c.data as usize], u32::from(c.ext))));
                }
            }
            for &(reg, value) in &captured {
                slots[reg as usize] = value;
            }

            // controller advance
            if fsm + 1 >= cpi {
                fsm = 0;
                wraps += 1;
            } else {
                fsm += 1;
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential;
    use crate::interp::Interpreter;
    use hls_bind::{bind, lower, RtlStyle};
    use hls_frontend::designs;
    use hls_ir::eval::{eval_op, BitVal};
    use hls_ir::{LinearBody, OpKind, Port, PortDirection};
    use hls_opt::linearize::prepare_innermost_loop;
    use hls_sched::{Scheduler, SchedulerConfig};
    use hls_tech::{ClockConstraint, TechLibrary};

    fn example1() -> LinearBody {
        let mut cdfg = designs::paper_example1_cdfg().expect("elab");
        prepare_innermost_loop(&mut cdfg).expect("prepare")
    }

    fn schedule(body: &LinearBody, config: SchedulerConfig) -> hls_netlist::ScheduleDesc {
        let lib = TechLibrary::artisan_90nm_typical();
        Scheduler::new(body, &lib, config)
            .run()
            .expect("schedulable")
            .desc
    }

    fn clk() -> ClockConstraint {
        ClockConstraint::from_period_ps(1600.0)
    }

    /// An empty module with the given header and `(name, direction,
    /// width)` ports.
    fn module(
        fold_states: u32,
        num_states: u32,
        stages: u32,
        ports: &[(&str, PortDirection, u16)],
    ) -> NirModule {
        let mut m = NirModule::new("t");
        (m.fold_states, m.num_states, m.stages) = (fold_states, num_states, stages);
        m.ports = ports
            .iter()
            .map(|&(name, direction, width)| Port {
                name: name.into(),
                direction,
                width,
            })
            .collect();
        m
    }

    #[test]
    fn netlist_simulation_matches_the_interpreter_across_microarchitectures() {
        let body = example1();
        for config in [
            SchedulerConfig::sequential(clk(), 1, 3),
            SchedulerConfig::pipelined(clk(), 2, 6),
            SchedulerConfig::pipelined(clk(), 1, 6),
        ] {
            let desc = schedule(&body, config);
            let bound = bind(&body, &desc).expect("bindable");
            for style in [RtlStyle::SharedFu, RtlStyle::PerOp] {
                let m = lower(&body, &desc, &bound, style).expect("lowerable");
                hls_nir::validate(&m).expect("valid netlist");
                let report = differential::random_check_nir(&body, &m, 100, 42).expect("bit-exact");
                assert_eq!(report.iterations, 100);
                assert!(report.writes_checked >= 100);
            }
        }
    }

    #[test]
    fn rewritten_netlists_stay_bit_exact() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::sequential(clk(), 1, 3));
        let bound = bind(&body, &desc).expect("bindable");
        let mut m = lower(&body, &desc, &bound, RtlStyle::SharedFu).expect("lowerable");
        hls_nir::optimize(&mut m);
        hls_nir::validate(&m).expect("still valid");
        differential::random_check_nir(&body, &m, 100, 7).expect("bit-exact after rewrites");
    }

    #[test]
    fn pipelined_netlist_sustains_the_initiation_interval() {
        let body = example1();
        let desc = schedule(&body, SchedulerConfig::pipelined(clk(), 2, 6));
        let bound = bind(&body, &desc).expect("bindable");
        let m = lower(&body, &desc, &bound, RtlStyle::SharedFu).expect("lowerable");
        let stim = Stimulus::random(&body.dfg, 40, 5);
        let trace = NirSim::new(&m).unwrap().run(&stim).unwrap();
        let pixel = body
            .dfg
            .iter_ports()
            .find(|(_, p)| p.direction == PortDirection::Output)
            .map(|(id, _)| id)
            .unwrap();
        assert!(
            trace.write_intervals(pixel).iter().all(|&d| d == 2),
            "intervals: {:?}",
            trace.write_intervals(pixel)
        );
        let reference = Interpreter::new(&body).unwrap().run(&stim).unwrap();
        assert_eq!(reference.port_writes(pixel), trace.port_writes(pixel));
    }

    #[test]
    fn a_combinational_cycle_is_rejected() {
        let mut m = NirModule::new("cyc");
        let c = m.push(CellKind::Const(1), 8, vec![]);
        let a = m.add_cell(Cell {
            kind: CellKind::Bin(BinKind::Add),
            width: 8,
            inputs: vec![CellId::from_raw(1), c],
            name: None,
        });
        assert_eq!(a.index(), 1);
        let err = NirSim::new(&m).unwrap_err();
        assert!(matches!(err, SimError::Netlist { .. }), "{err}");
    }

    #[test]
    fn an_operand_outside_the_netlist_is_an_error_not_a_panic() {
        // nothing checks the operand ids of a module built field by field
        let mut m = module(1, 1, 1, &[]);
        let c = m.push(CellKind::Const(1), 8, vec![]);
        m.push(CellKind::Bin(BinKind::Add), 8, vec![c, CellId::from_raw(7)]);
        let err = NirSim::new(&m).unwrap_err();
        assert!(
            matches!(&err, SimError::Netlist { cell: 1, reason } if reason.contains("%7")),
            "{err}"
        );
        let body = example1();
        let stimulus = Stimulus::random(&body.dfg, 4, 1);
        assert_eq!(
            differential::check_nir(&body, &m, &stimulus).unwrap_err(),
            err
        );
    }

    #[test]
    fn a_cell_missing_operands_is_an_error_not_a_panic() {
        // one operand short on a datapath cell, a port write (its enable)
        // and a register (its enable)
        for kind in [
            CellKind::Bin(BinKind::Add),
            CellKind::Output { port: 0, state: 0 },
            CellKind::Reg { init: 0 },
        ] {
            let mut m = NirModule::new("short");
            m.ports.push(Port {
                name: "y".into(),
                direction: PortDirection::Output,
                width: 8,
            });
            let c = m.push(CellKind::Const(1), 8, vec![]);
            m.push(kind.clone(), 8, vec![c]);
            let err = NirSim::new(&m).unwrap_err();
            assert!(
                matches!(&err, SimError::Netlist { cell: 1, reason } if reason.contains("found 1")),
                "{kind:?}: {err}"
            );
            let body = example1();
            let stimulus = Stimulus::random(&body.dfg, 4, 1);
            assert_eq!(
                differential::check_nir(&body, &m, &stimulus).unwrap_err(),
                err
            );
        }
    }

    #[test]
    fn a_stage_outside_the_pipeline_is_an_error_not_a_panic() {
        for kind in [
            CellKind::StageValid { stage: 2 },
            CellKind::FirstIter { stage: 2 },
        ] {
            let mut m = module(2, 4, 2, &[]);
            m.push(kind.clone(), 1, vec![]);
            let err = NirSim::new(&m).unwrap_err();
            assert!(
                matches!(&err, SimError::Netlist { cell: 0, reason } if reason.contains("stage 2")),
                "{kind:?}: {err}"
            );
        }
    }

    /// `(cycle, iteration, port, value)` of every write of `m` over `rows`.
    fn timed_writes(m: &NirModule, rows: Vec<Vec<(u32, i64)>>) -> Vec<(u64, u32, u32, i64)> {
        let rows = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(p, v)| (PortId::from_raw(p), v))
                    .collect()
            })
            .collect();
        let trace = NirSim::new(m)
            .unwrap()
            .run(&Stimulus::from_rows(rows))
            .unwrap();
        trace
            .writes
            .iter()
            .map(|w| (w.cycle, w.iteration, w.port.index() as u32, w.value))
            .collect()
    }

    #[test]
    fn the_counter_reads_as_data() {
        let mut m = module(5, 5, 1, &[("y", PortDirection::Output, 8)]);
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 0, state: 0 }, 8, vec![fsm, en]);
        let expected: Vec<_> = (0..15u64)
            .map(|t| (t, (t / 5) as u32, 0, (t % 5) as i64))
            .collect();
        assert_eq!(timed_writes(&m, vec![vec![]; 3]), expected);
    }

    #[test]
    fn a_counter_past_eight_bits_reads_as_the_printed_register() {
        // Unvalidated: 300 states do not fit the 8-bit counter, which
        // reads `sext((t mod 300) & 0xFF, 8)`; a decode of state 20 also
        // fires in state 276.
        let out = PortDirection::Output;
        let mut m = module(300, 300, 1, &[("y", out, 16), ("z", out, 1)]);
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let one = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 0, state: 0 }, 16, vec![fsm, one]);
        let twenty = m.push(CellKind::Const(20), 8, vec![]);
        let eq = BinKind::Cmp(CmpKind::Eq);
        let decode = m.push(CellKind::Bin(eq), 1, vec![fsm, twenty]);
        m.push(CellKind::Output { port: 1, state: 0 }, 1, vec![one, decode]);
        let writes = timed_writes(&m, vec![vec![]; 2]);
        let counter: Vec<i64> = writes.iter().filter(|w| w.2 == 0).map(|w| w.3).collect();
        assert_eq!(counter.len(), 600);
        assert_eq!(&counter[125..131], [125, 126, 127, -128, -127, -126]);
        assert_eq!(&counter[254..258], [-2, -1, 0, 1]);
        assert_eq!(&counter[298..302], [42, 43, 0, 1]);
        let decoded: Vec<_> = writes.iter().filter(|w| w.2 == 1).copied().collect();
        assert_eq!(
            decoded,
            [
                (20, 0, 1, -1),
                (276, 0, 1, -1),
                (320, 1, 1, -1),
                (576, 1, 1, -1)
            ]
        );
    }

    #[test]
    fn a_state_decoded_mux_resizes_its_arms() {
        // State 0 selects a 16-bit arm of the 8-bit mux, which truncates
        // it; state 1 a 4-bit arm, which it reads unchanged.
        let (input, out) = (PortDirection::Input, PortDirection::Output);
        let ports = [("w", input, 16), ("n", input, 4), ("y", out, 16)];
        let mut m = module(2, 2, 1, &ports);
        let w = m.push(CellKind::Input { port: 0, state: 0 }, 16, vec![]);
        let n = m.push(CellKind::Input { port: 1, state: 0 }, 4, vec![]);
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let zero = m.push(CellKind::Const(0), 8, vec![]);
        let first = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, zero]);
        let mux = m.push(CellKind::Mux, 8, vec![first, w, n]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 2, state: 0 }, 16, vec![mux, en]);
        let rows = vec![vec![(0, 0x1F0), (1, -3)], vec![(0, 0x17F), (1, 5)]];
        assert_eq!(
            timed_writes(&m, rows),
            [(0, 0, 2, -16), (1, 0, 2, -3), (2, 1, 2, 127), (3, 1, 2, 5)]
        );
    }

    #[test]
    fn a_deep_pipeline_header_runs_at_once() {
        // The controller's stage bits are computed, not shifted: a pipeline
        // of 2^32 - 1 stages costs nothing to run.
        let (input, out) = (PortDirection::Input, PortDirection::Output);
        let mut m = module(1, 1, u32::MAX, &[("x", input, 8), ("y", out, 8)]);
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![x, en]);
        hls_nir::validate(&m).expect("valid");
        let rows = vec![vec![(0, 7)], vec![(0, -8)], vec![(0, 9)]];
        assert_eq!(
            timed_writes(&m, rows),
            [(0, 0, 1, 7), (1, 1, 1, -8), (2, 2, 1, 9)]
        );
    }

    #[test]
    fn a_slice_of_every_u16_bit_compiles_and_reads_its_input() {
        // Unvalidated: the field [65535:0] is wider than any value, so the
        // slice reads the whole sign-extended input.
        let (input, out) = (PortDirection::Input, PortDirection::Output);
        let mut m = module(1, 1, 1, &[("x", input, 8), ("y", out, 8)]);
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let wide = CellKind::Slice {
            hi: u16::MAX,
            lo: 0,
        };
        let s = m.push(wide, 8, vec![x]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![s, en]);
        assert_eq!(timed_writes(&m, vec![vec![(0, -3)]]), [(0, 0, 1, -3)]);
    }

    const WIDTHS: [u16; 7] = [1, 2, 7, 8, 32, 63, 64];

    /// 0, ±1, the width's extremes, and shift amounts around 64, negative
    /// ones included.
    fn edge_values(width: u16) -> [i64; 10] {
        let sign = 1u64 << (width - 1);
        let min = BitVal::from_bits(sign, width).as_i64();
        let max = BitVal::from_bits(sign - 1, width).as_i64();
        [0, 1, -1, min, max, 63, 64, 65, -64, -65]
    }

    /// Feeds every combination of edge values through input ports of the
    /// given widths into one `kind` cell, one combination per iteration (the
    /// netlist holds no state, so iterations are independent), and checks
    /// each written value against `eval_op`. The output port is 64 bits
    /// wide, so it shows the cell's value exactly as later cells read it.
    fn assert_tape_matches_eval(kind: CellKind, op: &OpKind, width: u16, operand_widths: &[u16]) {
        let mut m = NirModule::new("cell");
        let mut operands = Vec::new();
        for (p, &w) in operand_widths.iter().enumerate() {
            m.ports.push(Port {
                name: format!("x{p}"),
                direction: PortDirection::Input,
                width: w,
            });
            let port = p as u32;
            operands.push(m.push(CellKind::Input { port, state: 0 }, w, vec![]));
        }
        let port = m.ports.len() as u32;
        m.ports.push(Port {
            name: "y".into(),
            direction: PortDirection::Output,
            width: 64,
        });
        let cell = m.push(kind.clone(), width, operands);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port, state: 0 }, 64, vec![cell, en]);

        let mut combos: Vec<Vec<BitVal>> = vec![Vec::new()];
        for &w in operand_widths {
            combos = combos
                .into_iter()
                .flat_map(|c| {
                    edge_values(w).into_iter().map(move |v| {
                        let mut c = c.clone();
                        c.push(BitVal::new(v, w));
                        c
                    })
                })
                .collect();
        }
        let rows = combos
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .map(|(p, v)| (PortId::from_raw(p as u32), v.as_i64()))
                    .collect()
            })
            .collect();
        let trace = NirSim::new(&m)
            .unwrap()
            .run(&Stimulus::from_rows(rows))
            .unwrap();
        assert_eq!(trace.writes.len(), combos.len());
        for (write, inputs) in trace.writes.iter().zip(&combos) {
            let expected = eval_op(op, width, inputs).unwrap();
            assert_eq!(
                write.value,
                expected.as_i64(),
                "{kind:?} at w{width} over {inputs:?}"
            );
        }
    }

    #[test]
    fn the_tape_computes_what_eval_op_defines() {
        let bins = [
            BinKind::Add,
            BinKind::Sub,
            BinKind::Mul,
            BinKind::Div,
            BinKind::Rem,
            BinKind::And,
            BinKind::Or,
            BinKind::Xor,
            BinKind::Shl,
            BinKind::Shr,
            BinKind::Cmp(CmpKind::Eq),
            BinKind::Cmp(CmpKind::Ne),
            BinKind::Cmp(CmpKind::Lt),
            BinKind::Cmp(CmpKind::Le),
            BinKind::Cmp(CmpKind::Gt),
            BinKind::Cmp(CmpKind::Ge),
        ];
        for w in WIDTHS {
            for wa in WIDTHS {
                for b in bins {
                    for wb in WIDTHS {
                        assert_tape_matches_eval(CellKind::Bin(b), &b.op_kind(), w, &[wa, wb]);
                    }
                }
                for u in [UnKind::Not, UnKind::Neg] {
                    assert_tape_matches_eval(CellKind::Un(u), &u.op_kind(), w, &[wa]);
                }
                assert_tape_matches_eval(CellKind::Resize, &OpKind::Resize, w, &[wa]);
                for ws in [1, 8, 64] {
                    let mux = CellKind::Mux;
                    assert_tape_matches_eval(mux, &OpKind::Mux, w, &[ws, wa, wa]);
                }
                // `hi` up to and past the input width, and `hi < lo`
                for (hi, lo) in [
                    (0, 0),
                    (3, 0),
                    (7, 4),
                    (15, 8),
                    (31, 1),
                    (62, 0),
                    (63, 0),
                    (63, 63),
                    (70, 60),
                    (100, 2),
                    (2, 5),
                ] {
                    let slice = CellKind::Slice { hi, lo };
                    assert_tape_matches_eval(slice, &OpKind::Slice { hi, lo }, w, &[wa]);
                }
            }
        }
    }

    #[test]
    fn a_comparison_is_one_bit_wide_wherever_it_is_read() {
        // `eval_op` yields a 1-bit value for every comparison, so even a
        // comparison cell declared wider shifts by 1 (not 255) when true
        let mut m = NirModule::new("cmpshift");
        for name in ["x", "a"] {
            m.ports.push(Port {
                name: name.into(),
                direction: PortDirection::Input,
                width: 8,
            });
        }
        m.ports.push(Port {
            name: "y".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let a = m.push(CellKind::Input { port: 1, state: 0 }, 8, vec![]);
        let zero = m.push(CellKind::Const(0), 8, vec![]);
        let lt = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Lt)), 8, vec![a, zero]);
        let shl = m.push(CellKind::Bin(BinKind::Shl), 8, vec![x, lt]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 2, state: 0 }, 8, vec![shl, en]);
        let rows = [(3, -1), (3, 1)]
            .iter()
            .map(|&(x, a)| [(PortId::from_raw(0), x), (PortId::from_raw(1), a)].into())
            .collect();
        let trace = NirSim::new(&m)
            .unwrap()
            .run(&Stimulus::from_rows(rows))
            .unwrap();
        let values: Vec<i64> = trace.writes.iter().map(|w| w.value).collect();
        assert_eq!(values, [6, 3]);
    }
}
