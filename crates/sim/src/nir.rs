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
//! Cells that read only the counter and constants (`state == k` and its
//! `and`/`or`/`not` combinations) are decoded once per netlist, tape by
//! tape, when a steering chain's select or a capture's enable needs them.
//! A mux whose select is such a cell is a *link* of the mux above it when
//! it has that mux's width and that mux's else-operand is its only reader;
//! the topmost mux of a run of links is the chain's *head*. Each head gets
//! a state-ordered list of the arm of its first link whose select is
//! non-zero in a tape, and the other tapes take the lowest link's
//! else-operand. A tape then folds the head as a mux whose select picked
//! that arm, with the same rules, so it never visits the links; since the
//! links share the head's width, reading the arm through the head alone
//! changes no value. Tapes are compiled in state order, and each head
//! reads its list through a cursor. Captures and port writes whose enable
//! reads only the counter are listed by the tapes their enable fires in,
//! so a tape visits only those and the ones it must fold.
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

/// Checks every cell, then orders them topologically over the
/// combinational edges (register inputs are sampled at the clock edge and
/// carry none): by id when every edge runs to a higher id, as the lowering
/// emits them, and by Kahn's algorithm otherwise. Every cell is returned;
/// cells on a combinational cycle are an error. Cell `c` has
/// `readers[c + 1] - readers[c]` combinational readers.
fn topo_order(m: &NirModule) -> Result<(Vec<u32>, Vec<u32>), SimError> {
    let n = m.num_cells();
    let stages = m.stages.max(1) as usize;
    let mut start = vec![0u32; n + 1];
    let mut ascending = true;
    for (id, cell) in m.iter_cells() {
        check_cell(id.index(), cell, n, stages)?;
        if cell.kind.is_seq() {
            continue;
        }
        for input in &cell.inputs {
            start[input.index() + 1] += 1;
            ascending &= input.index() < id.index();
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    if ascending {
        return Ok(((0..n as u32).collect(), start));
    }
    let mut indeg = vec![0u32; n];
    let mut fill = start.clone();
    let mut fanout = vec![0u32; start[n] as usize];
    for (id, cell) in m.iter_cells() {
        if cell.kind.is_seq() {
            continue;
        }
        indeg[id.index()] = cell.inputs.len() as u32;
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
    Ok((order, start))
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

/// A chain's muxes from its head down to its lowest link, over the
/// compiler's entries.
fn links(base: &[Instr], head: u32, low: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors(Some(head), move |&l| (l != low).then(|| base[l as usize].c))
}

/// Calls `f` with each state set in `bits` and not in `taken`, in order,
/// and adds those states to `taken`.
fn take_states(bits: &[u64; 4], taken: &mut [u64; 4], mut f: impl FnMut(u32)) {
    for (w, (&bits, taken)) in bits.iter().zip(taken).enumerate() {
        let mut fresh = bits & !*taken;
        *taken |= fresh;
        while fresh != 0 {
            f(w as u32 * 64 + fresh.trailing_zeros());
            fresh &= fresh - 1;
        }
    }
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

/// Buffers a tape's compile fills, kept from tape to tape.
#[derive(Default)]
struct Scratch {
    /// The `(cell, value)` of each capture and port write that fires.
    fired: Vec<(u32, u32)>,
    /// The cone's entries as `(level, cell, entry)`, in topological order
    /// and then by level.
    computed: Vec<(u32, u32, Instr)>,
    by_level: Vec<(u32, u32, Instr)>,
    /// Where each level starts in `by_level`.
    at: Vec<u32>,
    sources: Vec<u32>,
}

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

/// A `reads` bit: the cell's value depends on the FSM counter.
const READS_COUNTER: u8 = 1;
/// A `reads` bit: the cell's value depends on a value that is neither the
/// counter nor a constant. A cell that reads exactly [`READS_COUNTER`]
/// folds to a constant in each tape, and one that reads no counter folds
/// once for every tape.
const READS_OTHER: u8 = 2;

/// The `chain_of` entry of a cell that heads no chain.
const NO_CHAIN: u32 = u32::MAX;
/// The `chain_of` entry of a link folded into its head's chain.
const LINK: u32 = u32::MAX - 1;

/// A counter-steered mux chain resolved once per netlist: the arm each
/// tape selects, where that is not the default.
#[derive(Clone, Copy, Debug)]
struct Chain {
    /// `chain_arms[next..end]` holds the `(state, arm)` pairs of the tapes
    /// not yet compiled, in state order.
    next: u32,
    end: u32,
    /// The else-operand of the lowest link.
    default: u32,
}

/// Folds and prunes the netlist one state at a time. The per-cell arrays
/// are shared by the tapes: a fold belongs to the tape being compiled when
/// its stamp is the tape's or [`EVERY_STATE`], and a cell is in the tape's
/// cone when its `needed` stamp is the tape's.
struct Compiler<'m> {
    m: &'m NirModule,
    /// Each combinational cell's entry, with operand cell ids; a source's
    /// holds only the `ext` of its values.
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
    /// Each chain head's index in `chains`, [`LINK`] for the links below
    /// it and [`NO_CHAIN`] elsewhere; empty when the netlist has no chain.
    chain_of: Vec<u32>,
    chains: Vec<Chain>,
    chain_arms: Vec<(u32, u32)>,
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
        // a computed cell's entry keeps its base width, and a source's
        // base entry holds only this
        self.base[c as usize].ext
    }

    /// The arm chain head `c` selects in this tape, or `None` when `c`
    /// heads no chain.
    fn chain_arm(&mut self, c: u32) -> Option<u32> {
        let chain = self
            .chains
            .get_mut(*self.chain_of.get(c as usize)? as usize)?;
        let state = self.stamp - 1;
        let arms = &self.chain_arms[..chain.end as usize];
        while arms
            .get(chain.next as usize)
            .is_some_and(|&(s, _)| s < state)
        {
            chain.next += 1;
        }
        Some(match arms.get(chain.next as usize) {
            Some(&(s, arm)) if s == state => arm,
            _ => chain.default,
        })
    }

    /// A combinational cell's fold when its operands' folds decide it, or
    /// else an undecided operand it needs first. Only exact identities
    /// fold: operands that are all constant, a mux with a constant select,
    /// and an `and` with a constant zero. A chain head folds as a mux
    /// whose select picks the arm its chain lists for the tape.
    fn decide(&mut self, c: u32) -> Result<Fold, u32> {
        let instr = self.base[c as usize];
        let chained = if instr.op == Op::Mux {
            self.chain_arm(c)
        } else {
            None
        };
        let fold_of = |o: u32| self.known(o).ok_or(o);
        match instr.op {
            Op::Mux => {
                let arm = match chained {
                    Some(arm) => arm,
                    None => {
                        let Fold::Const(select) = fold_of(instr.a)? else {
                            return Ok(Fold::Entry(instr));
                        };
                        if select != 0 {
                            instr.b
                        } else {
                            instr.c
                        }
                    }
                };
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
    /// `computed` in topological order as `(level, cell, entry)`, each one
    /// level past its deepest computed operand; its input reads and stage
    /// bits go to `sources`.
    fn need(&mut self, c: u32, computed: &mut Vec<(u32, u32, Instr)>, sources: &mut Vec<u32>) {
        self.walk.push((c, false));
        while let Some((x, finish)) = self.walk.pop() {
            if finish {
                let Fold::Entry(instr) = self.fold[x as usize] else {
                    unreachable!("only entries are finished")
                };
                let deepest = operands(&instr).map(|o| self.level_of(o)).max();
                let level = 1 + deepest.unwrap_or(0);
                self.level[x as usize] = level;
                computed.push((level, x, instr));
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
            // a constant in every tape keeps the slot it first reads, and
            // has no slot of its own that this could shadow
            Fold::Const(v) if self.folded[c as usize] == EVERY_STATE => {
                if slots.of_cell[c as usize] == NO_SLOT {
                    slots.of_cell[c as usize] = slots.constant(v);
                }
                slots.of_cell[c as usize]
            }
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

    /// Finds the counter-steered mux chains and marks their links. A mux
    /// whose select reads only the counter and constants is a link of the
    /// mux above it when it has that mux's width and `readers` counts that
    /// mux's else-operand as its only reader. Returns each head with its
    /// lowest link.
    fn find_chains(
        &mut self,
        order: &[u32],
        live: &[bool],
        reads: &[u8],
        readers: &[u32],
    ) -> Vec<(u32, u32)> {
        let base = &self.base;
        let decoded = |c: u32| {
            let mux = base[c as usize];
            mux.op == Op::Mux && reads[mux.a as usize] == READS_COUNTER
        };
        // A link's reader comes after it in topological order, so every
        // chain is met first at its head.
        let mut chain_of = vec![NO_CHAIN; base.len()];
        let mut heads = Vec::new();
        for &c in order.iter().rev() {
            if !live[c as usize] || chain_of[c as usize] == LINK || !decoded(c) {
                continue;
            }
            let mut low = c;
            loop {
                let next = base[low as usize].c;
                let same_width = base[next as usize].ext == base[c as usize].ext;
                if !decoded(next) || !same_width || readers[next as usize] != 1 {
                    break;
                }
                chain_of[next as usize] = LINK;
                low = next;
            }
            if low != c {
                heads.push((c, low));
            }
        }
        self.chain_of = chain_of;
        heads
    }

    /// Decodes, once for the `tapes` states, what reads exactly the
    /// counter: the enables of `roots` (all such, sorted) and the selects
    /// of the chains in `heads`. Their counter-only cones are evaluated
    /// tape by tape. Each head gets a state-ordered list of the arm of its
    /// first link whose select is non-zero in a tape, and the other tapes
    /// take the lowest link's else-operand. Returns `(state, start, end)`
    /// for each tape and each run `roots[start..end]` of one enable that
    /// is non-zero in it, in state order.
    fn decode(
        &mut self,
        roots: &[(u32, u32, u32)],
        heads: Vec<(u32, u32)>,
        reads: &[u8],
        counters: &[u32],
        tapes: u32,
    ) -> Vec<(u32, u32, u32)> {
        // the enables, then each chained select not among them
        let mut cells: Vec<u32> = roots.iter().map(|r| r.0).collect();
        cells.dedup();
        let enables = cells.len();
        let mut index_of = Vec::new();
        if !heads.is_empty() {
            index_of = vec![NO_CHAIN; self.base.len()];
            for (i, &e) in cells.iter().enumerate() {
                index_of[e as usize] = i as u32;
            }
            for &(head, low) in &heads {
                for link in links(&self.base, head, low) {
                    let s = self.base[link as usize].a;
                    if index_of[s as usize] == NO_CHAIN {
                        index_of[s as usize] = cells.len() as u32;
                        cells.push(s);
                    }
                }
            }
        }

        // The counter-only cones in topological order (a depth-first
        // post-order), evaluated tape by tape.
        let base = &self.base;
        let mut seen = vec![false; base.len()];
        let mut cone = Vec::new();
        for &s in &cells {
            self.walk.push((s, false));
            while let Some((x, finish)) = self.walk.pop() {
                if finish {
                    cone.push(x);
                    continue;
                }
                let counter_only = reads[x as usize] == READS_COUNTER && !counters.contains(&x);
                if !seen[x as usize] && counter_only {
                    seen[x as usize] = true;
                    self.walk.push((x, true));
                    self.walk
                        .extend(operands(&base[x as usize]).map(|o| (o, false)));
                }
            }
        }
        // the tapes where each cell is non-zero, one bit per tape
        let mut decodes = vec![[0u64; 4]; cells.len()];
        for state in 0..tapes {
            for &f in counters {
                self.value[f as usize] = sext(i64::from(state), 56);
            }
            for &x in &cone {
                self.value[x as usize] = base[x as usize].eval_at(&self.value);
            }
            for (bits, &c) in decodes.iter_mut().zip(&cells) {
                if self.value[c as usize] != 0 {
                    bits[state as usize / 64] |= 1 << (state % 64);
                }
            }
        }

        for (head, low) in heads {
            let start = self.chain_arms.len() as u32;
            let mut taken = [0u64; 4];
            for link in links(base, head, low) {
                let mux = base[link as usize];
                let bits = &decodes[index_of[mux.a as usize] as usize];
                take_states(bits, &mut taken, |state| {
                    self.chain_arms.push((state, mux.b))
                });
            }
            self.chain_arms[start as usize..].sort_unstable();
            self.chain_of[head as usize] = self.chains.len() as u32;
            self.chains.push(Chain {
                next: start,
                end: self.chain_arms.len() as u32,
                default: base[low as usize].c,
            });
        }

        let mut fires = Vec::new();
        let mut start = 0;
        for bits in &decodes[..enables] {
            let enable = roots[start].0;
            let end = start + roots[start..].partition_point(|r| r.0 == enable);
            take_states(bits, &mut [0; 4], |state| {
                fires.push((state, start as u32, end as u32))
            });
            start = end;
        }
        fires.sort_unstable();
        fires
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
        let (order, readers) = topo_order(m)?;
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
            chain_of: Vec::new(),
            chains: Vec::new(),
            chain_arms: Vec::new(),
        };
        // Sources fold the same in every state, and so does every
        // combinational cell the counter does not reach.
        let mut counters = Vec::new();
        let mut reads = vec![0u8; n];
        // some mux whose select reads only the counter and constants has
        // such a mux of its width as else-operand
        let mut chained = false;
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
                    reads[c as usize] = READS_COUNTER;
                }
                // stage 0 holds valid work from the first cycle on
                CellKind::StageValid { stage: 0 } => cc.set(c, Fold::Const(-1)),
                CellKind::StageValid { .. } | CellKind::FirstIter { .. } => {
                    cc.set(c, Fold::Source);
                    cc.base[c as usize].ext = 63;
                    reads[c as usize] = READS_OTHER;
                }
                CellKind::Input { .. } => {
                    cc.set(c, Fold::Source);
                    cc.base[c as usize].ext = ext_of(cell.width);
                    reads[c as usize] = READS_OTHER;
                }
                CellKind::Reg { .. } => {
                    cc.set(c, Fold::Source);
                    cc.base[c as usize].ext = ext_of(cell.width);
                    reads[c as usize] = READS_OTHER;
                    roots.push((
                        cell.inputs[1].index() as u32,
                        c,
                        cell.inputs[0].index() as u32,
                    ));
                }
                _ => {
                    cc.base[c as usize] = instr_of(m, cell);
                    let r = cell.inputs.iter().fold(0, |r, i| r | reads[i.index()]);
                    if r & READS_COUNTER == 0 {
                        let constant = matches!(cc.fold_of(c), Fold::Const(_));
                        reads[c as usize] = if constant { 0 } else { READS_OTHER };
                    } else {
                        reads[c as usize] = r;
                        let decoded =
                            |x: Instr| x.op == Op::Mux && reads[x.a as usize] == READS_COUNTER;
                        let mux = cc.base[c as usize];
                        if decoded(mux) {
                            let low = cc.base[mux.c as usize];
                            chained |= decoded(low) && low.ext == mux.ext;
                        }
                    }
                    if let CellKind::Output { .. } = cell.kind {
                        roots.push((cell.inputs[1].index() as u32, c, c));
                    }
                }
            }
        }
        // Roots sharing an enable are decided together. Those whose enable
        // reads exactly the counter come first: they fire in the tapes
        // where it decodes to non-zero. The others are decided per tape.
        let counter_only = |r: &(u32, u32, u32)| reads[r.0 as usize] == READS_COUNTER;
        roots.sort_unstable_by_key(|r| (!counter_only(r), *r));
        let (decoded, undecided) = roots.split_at(roots.partition_point(counter_only));
        // The printed counter is eight bits wide, so states 256 apart
        // share a tape.
        let tapes = if counters.is_empty() {
            1
        } else {
            m.fold_states.clamp(1, 256)
        };
        let mut heads = Vec::new();
        if chained {
            // each cell's combinational readers, and the registers it feeds
            let mut readers = readers;
            for c in 0..n {
                readers[c] = readers[c + 1] - readers[c];
            }
            for &(enable, reg, data) in &roots {
                if m.cell(CellId::from_raw(reg)).kind.is_seq() {
                    readers[enable as usize] += 1;
                    readers[data as usize] += 1;
                }
            }
            heads = cc.find_chains(&order, &live, &reads, &readers);
        }
        let fires = if decoded.is_empty() && heads.is_empty() {
            Vec::new()
        } else {
            cc.decode(decoded, heads, &reads, &counters, tapes)
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
        let mut fires = fires.as_slice();
        let mut scratch = Scratch::default();
        for state in 0..tapes {
            cc.stamp = state + 1;
            for &c in &counters {
                cc.set(c, Fold::Const(sext(i64::from(state), 56)));
            }
            let (firing, later) = fires.split_at(fires.partition_point(|f| f.0 == state));
            fires = later;
            let firing = firing
                .iter()
                .map(|&(_, start, end)| &decoded[start as usize..end as usize]);
            sim.push_tape(&mut cc, &mut slots, &mut scratch, firing, undecided);
        }
        sim.init = slots.init;
        Ok(sim)
    }

    /// Compiles the tape of the compiler's state: the cone of every capture
    /// and port write whose enable does not fold to zero. Roots are
    /// registers and port writes as `(enable, cell, value)`: `firing` holds
    /// runs of one enable known to be non-zero in the state, and `undecided`
    /// the roots whose enable is decided here, sorted.
    fn push_tape<'r>(
        &mut self,
        cc: &mut Compiler,
        slots: &mut Slots,
        scratch: &mut Scratch,
        firing: impl Iterator<Item = &'r [(u32, u32, u32)]>,
        undecided: &[(u32, u32, u32)],
    ) {
        let m = cc.m;
        let Scratch {
            fired,
            computed,
            by_level,
            at,
            sources,
        } = scratch;
        fired.clear();
        computed.clear();
        sources.clear();
        for group in firing {
            // a constant in this tape, whose slot reads its fold
            cc.fold_of(group[0].0);
            fired.extend(group.iter().map(|&(_, cell, value)| (cell, value)));
        }
        let mut rest = undecided;
        while let Some(&(enable, _, _)) = rest.first() {
            let (group, after) = rest.split_at(rest.partition_point(|r| r.0 == enable));
            if !matches!(cc.fold_of(enable), Fold::Const(0)) {
                cc.need(enable, computed, sources);
                fired.extend(group.iter().map(|&(_, cell, value)| (cell, value)));
            }
            rest = after;
        }
        fired.sort_unstable();
        for &(_, value) in fired.iter() {
            cc.need(value, computed, sources);
        }

        // Entries of one level are independent: bucket the entries by level,
        // then sort each level by opcode so the tape runs in long
        // same-opcode segments.
        let depth = computed.iter().map(|e| e.0).max().unwrap_or(0) as usize;
        at.clear();
        at.resize(depth + 2, 0);
        for &(level, ..) in computed.iter() {
            at[level as usize + 1] += 1;
        }
        for l in 1..at.len() {
            at[l] += at[l - 1];
        }
        by_level.clear();
        by_level.resize(computed.len(), (0, 0, NO_ENTRY));
        for &e in computed.iter() {
            by_level[at[e.0 as usize] as usize] = e;
            at[e.0 as usize] += 1;
        }
        let mut lo = 0;
        for &hi in &at[..=depth] {
            by_level[lo..hi as usize].sort_by_key(|e| e.2.op);
            lo = hi as usize;
        }
        let mut tape = Tape {
            entries: Vec::with_capacity(by_level.len()),
            ..Tape::default()
        };
        for &(_, c, _) in by_level.iter() {
            slots.cell(m, c);
        }
        for &(_, c, mut instr) in by_level.iter() {
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

        for &c in sources.iter() {
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

        for &(r, _) in fired.iter() {
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

    /// `state == k` over the 8-bit counter `fsm`.
    fn decode(m: &mut NirModule, fsm: CellId, k: i64) -> CellId {
        let k = m.push(CellKind::Const(k), 8, vec![]);
        m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, k])
    }

    /// A module of `states` states reading one input port per entry of
    /// `widths` (ports `0..`, all read in state 0) and writing one 8-bit
    /// output per name in `outputs` (the ports after them), with its input
    /// cells and counter.
    fn steering_module(
        states: u32,
        stages: u32,
        widths: &[u16],
        outputs: &[&str],
    ) -> (NirModule, Vec<CellId>, CellId) {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut ports: Vec<_> = widths
            .iter()
            .zip(NAMES)
            .map(|(&w, name)| (name, PortDirection::Input, w))
            .collect();
        ports.extend(outputs.iter().map(|&o| (o, PortDirection::Output, 8)));
        let num_states = states * stages;
        let mut m = module(states, num_states, stages, &ports);
        let mut x = Vec::new();
        for (port, &w) in (0..).zip(widths) {
            x.push(m.push(CellKind::Input { port, state: 0 }, w, vec![]));
        }
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        (m, x, fsm)
    }

    /// Writes `value` to output port `port` on every cycle.
    fn write_always(m: &mut NirModule, port: u32, value: CellId) {
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port, state: 0 }, 8, vec![value, en]);
    }

    /// The stimulus rows of `values`, one row per iteration and one value
    /// per input port.
    fn rows_of(values: &[&[i64]]) -> Vec<Vec<(u32, i64)>> {
        values
            .iter()
            .map(|row| (0..).zip(row.iter().copied()).collect())
            .collect()
    }

    /// One write to `port` per cycle of `iterations` iterations of a
    /// `states`-state sequential module, of `pick(state, row)`.
    fn every_cycle(
        values: &[&[i64]],
        states: u64,
        port: u32,
        pick: impl Fn(u64, &[i64]) -> i64,
    ) -> Vec<(u64, u32, u32, i64)> {
        (0..values.len() as u64 * states)
            .map(|t| {
                let k = t / states;
                (t, k as u32, port, pick(t % states, values[k as usize]))
            })
            .collect()
    }

    #[test]
    fn a_steering_chain_takes_the_arm_of_its_first_decoded_link() {
        // Four links over six states: the third link decodes states 3 and
        // 4, the fourth decodes state 1 again and loses to the second (its
        // arm is the older cell), and states 2 and 5 take the default arm.
        let (mut m, x, fsm) = steering_module(6, 1, &[8; 5], &["y"]);
        let [s0, s1, s3, s4] = [0, 1, 3, 4].map(|k| decode(&mut m, fsm, k));
        let s34 = m.push(CellKind::Bin(BinKind::Or), 1, vec![s3, s4]);
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![x[2], x[3]]);
        let l3 = m.push(CellKind::Mux, 8, vec![s1, x[0], x[4]]);
        let l2 = m.push(CellKind::Mux, 8, vec![s34, sum, l3]);
        let l1 = m.push(CellKind::Mux, 8, vec![s1, x[1], l2]);
        let head = m.push(CellKind::Mux, 8, vec![s0, x[0], l1]);
        write_always(&mut m, 5, head);
        hls_nir::validate(&m).expect("valid");
        let values: [&[i64]; 2] = [&[10, 11, 12, 13, 14], &[20, 21, 100, 50, 24]];
        let expected = every_cycle(&values, 6, 5, |state, v| match state {
            0 => v[0],
            1 => v[1],
            3 | 4 => sext(v[2] + v[3], 56),
            _ => v[4],
        });
        assert_eq!(expected[9], (9, 1, 5, -106), "150 wraps at 8 bits");
        assert_eq!(timed_writes(&m, rows_of(&values)), expected);
    }

    #[test]
    fn a_narrower_link_truncates_the_arms_below_it() {
        // The third link is 4 bits wide, as a width-narrowing mutant
        // leaves it: the arms it and the links below it select are read
        // through its truncation, the arms above it are not.
        let (mut m, x, fsm) = steering_module(5, 1, &[8; 5], &["y"]);
        let [s0, s1, s2, s3] = [0, 1, 2, 3].map(|k| decode(&mut m, fsm, k));
        let l3 = m.push(CellKind::Mux, 8, vec![s3, x[3], x[4]]);
        let l2 = m.push(CellKind::Mux, 4, vec![s2, x[2], l3]);
        let l1 = m.push(CellKind::Mux, 8, vec![s1, x[1], l2]);
        let head = m.push(CellKind::Mux, 8, vec![s0, x[0], l1]);
        write_always(&mut m, 5, head);
        let values: [&[i64]; 2] = [&[0x35, 0x1B, 0x27, 0x0F, 0x2A], &[-3, 0x18, -9, 0x40, 5]];
        let expected = every_cycle(&values, 5, 5, |state, v| match state {
            0 | 1 => v[state as usize],
            s => sext(v[s as usize], 60),
        });
        assert_eq!(
            expected[1..5],
            [(1, 0, 5, 0x1B), (2, 0, 5, 7), (3, 0, 5, -1), (4, 0, 5, -6)]
        );
        assert_eq!(timed_writes(&m, rows_of(&values)), expected);
    }

    #[test]
    fn a_link_read_twice_serves_both_readers() {
        // The middle link is the else-operand of two heads and also
        // written to a port of its own.
        let (mut m, x, fsm) = steering_module(4, 1, &[8; 4], &["y", "z", "u"]);
        let [s0, s1, s2, s3] = [0, 1, 2, 3].map(|k| decode(&mut m, fsm, k));
        let l2 = m.push(CellKind::Mux, 8, vec![s2, x[2], x[3]]);
        let l1 = m.push(CellKind::Mux, 8, vec![s1, x[1], l2]);
        let head = m.push(CellKind::Mux, 8, vec![s0, x[0], l1]);
        let other = m.push(CellKind::Mux, 8, vec![s3, x[0], l1]);
        write_always(&mut m, 4, head);
        write_always(&mut m, 5, other);
        write_always(&mut m, 6, l1);
        hls_nir::validate(&m).expect("valid");
        let values: [&[i64]; 2] = [&[1, 2, 3, 4], &[-5, 6, -7, 8]];
        let link = |state: u64, v: &[i64]| match state {
            1 => v[1],
            2 => v[2],
            _ => v[3],
        };
        let mut expected = Vec::new();
        for (port, pick) in [(4, 0), (5, 3), (6, u64::MAX)] {
            expected.extend(every_cycle(&values, 4, port, |state, v| {
                if state == pick {
                    v[0]
                } else {
                    link(state, v)
                }
            }));
        }
        // a cycle's writes come in output-cell order
        expected.sort_unstable_by_key(|&(t, _, port, _)| (t, port));
        assert_eq!(timed_writes(&m, rows_of(&values)), expected);
    }

    #[test]
    fn an_inverted_decode_selects_every_other_state() {
        // `not(state == 1)`, as a select-inversion mutant leaves a link:
        // it takes states 2 and 3, and the link below it only state 1.
        let (mut m, x, fsm) = steering_module(4, 1, &[8; 4], &["y"]);
        let [s0, s1] = [0, 1].map(|k| decode(&mut m, fsm, k));
        let not_s1 = m.push(CellKind::Un(UnKind::Not), 1, vec![s1]);
        let l2 = m.push(CellKind::Mux, 8, vec![s1, x[2], x[3]]);
        let l1 = m.push(CellKind::Mux, 8, vec![not_s1, x[1], l2]);
        let head = m.push(CellKind::Mux, 8, vec![s0, x[0], l1]);
        write_always(&mut m, 4, head);
        hls_nir::validate(&m).expect("valid");
        let values: [&[i64]; 2] = [&[1, 2, 3, 4], &[5, 6, 7, 8]];
        let expected = every_cycle(&values, 4, 4, |state, v| match state {
            0 => v[0],
            1 => v[2],
            _ => v[1],
        });
        assert_eq!(timed_writes(&m, rows_of(&values)), expected);
    }

    #[test]
    fn a_decode_anded_with_a_stage_bit_waits_for_the_stage() {
        // Two states and two stages: the head's arm needs stage 1 valid, so
        // the first cycle falls through to the default arm.
        let (mut m, x, fsm) = steering_module(2, 2, &[8; 3], &["y"]);
        let [s0, s1] = [0, 1].map(|k| decode(&mut m, fsm, k));
        let valid = m.push(CellKind::StageValid { stage: 1 }, 1, vec![]);
        let g0 = m.push(CellKind::Bin(BinKind::And), 1, vec![s0, valid]);
        let l1 = m.push(CellKind::Mux, 8, vec![s1, x[1], x[2]]);
        let head = m.push(CellKind::Mux, 8, vec![g0, x[0], l1]);
        write_always(&mut m, 3, head);
        hls_nir::validate(&m).expect("valid");
        let values: [&[i64]; 3] = [&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]];
        assert_eq!(
            timed_writes(&m, rows_of(&values)),
            [
                (0, 0, 3, 3),
                (1, 0, 3, 2),
                (2, 1, 3, 4),
                (3, 1, 3, 5),
                (4, 2, 3, 7),
                (5, 2, 3, 8)
            ]
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
