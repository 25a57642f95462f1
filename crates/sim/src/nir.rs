//! Cycle-accurate execution of a structural netlist ([`NirModule`]).
//!
//! Where [`ScheduleSim`](crate::ScheduleSim) executes the *schedule*,
//! [`NirSim`] executes the lowered hardware itself — the binding's shared
//! units and steering included: the combinational cells settle in topological
//! order every cycle, registers capture on enables, and the controller
//! (FSM counter, stage-valid fill, first-iteration one-hot) advances
//! exactly as the printed Verilog's always-blocks do. Running the same
//! stimulus through this engine and the reference interpreter is what
//! proves a lowering — and every rewrite pass applied after it — correct
//! by execution.
//!
//! [`NirSim::new`] compiles the module once. It checks every cell's arity,
//! operand ids and pipeline stage, levelizes the combinational cells, and
//! emits them as a flat instruction *tape* over `i64` slots. A slot holds
//! its cell's value sign-extended at the cell's width, which is the
//! [`BitVal::as_i64`](hls_ir::BitVal::as_i64) reading every
//! [`hls_ir::eval`] rule starts from, so wrapping `i64` arithmetic followed
//! by one sign-extension reproduces `eval_op` bit for bit at every width up
//! to 64. Constants, and cells computed from constants alone, are folded
//! into the initial slot values; cells no output observes get no slot.
//! Within a level the tape is sorted by opcode, so [`NirSim::run`] walks it
//! as a short list of same-opcode runs with one dispatch per run, reads
//! input ports from a dense (iteration × port) table, and ends each cycle
//! with a short list of port writes and register captures.

use crate::cycle::{CycleRecord, CycleTrace, TimedWrite};
use crate::error::SimError;
use crate::stimulus::Stimulus;
use hls_ir::{CmpKind, PortId};
use hls_nir::{BinKind, Cell, CellId, CellKind, NirModule, UnKind};
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

/// A controller source re-read every cycle.
#[derive(Clone, Copy, Debug)]
enum Control {
    Fsm,
    StageValid(usize),
    FirstIter(usize),
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

/// Cycle-accurate simulator over a structural netlist, compiled once.
#[derive(Debug)]
pub struct NirSim<'a> {
    /// Slot values at reset: folded constants and register inits.
    init: Vec<i64>,
    /// Live combinational cells, level by level, sorted by opcode within
    /// a level.
    tape: Vec<Instr>,
    segments: Vec<Segment>,
    inputs: Vec<InputRead>,
    /// The port each stimulus-table column holds.
    input_ports: Vec<u32>,
    controller: Vec<(u32, Control)>,
    writes: Vec<PortWrite>,
    captures: Vec<Capture>,
    fold_states: u32,
    num_states: u32,
    stages: usize,
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
        CellKind::Mux { .. } => {
            instr.op = Op::Mux;
            instr.b = operand(1);
            instr.c = operand(2);
        }
        CellKind::Slice { hi, lo } => {
            // The field `[hi:lo]` of the sign-extended input, sign-extended
            // at its own width and then resized to the cell width: one
            // extension at the narrower of the two.
            let take = (hi.saturating_sub(lo) + 1).min(64);
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

const NO_SLOT: u32 = u32::MAX;

/// Slot allocation while compiling: cells get slots on first use, and a
/// folded cell's slot starts from its value.
struct Slots {
    of_cell: Vec<u32>,
    init: Vec<i64>,
}

impl Slots {
    fn alloc(&mut self, cell: usize, value: i64) -> u32 {
        let slot = self.init.len() as u32;
        self.of_cell[cell] = slot;
        self.init.push(value);
        slot
    }

    /// The slot of a cell that is either already placed or folded.
    fn of(&mut self, cell: usize, folded_value: &[i64]) -> u32 {
        match self.of_cell[cell] {
            NO_SLOT => self.alloc(cell, folded_value[cell]),
            slot => slot,
        }
    }
}

impl<'a> NirSim<'a> {
    /// Compiles `m` into a tape. Needs no prior [`hls_nir::validate`]: the
    /// checks that keep the simulation in bounds happen here.
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
        let mut sim = NirSim {
            init: Vec::new(),
            tape: Vec::new(),
            segments: Vec::new(),
            inputs: Vec::new(),
            input_ports: Vec::new(),
            controller: Vec::new(),
            writes: Vec::new(),
            captures: Vec::new(),
            fold_states: m.fold_states,
            num_states: m.num_states,
            stages,
            module: PhantomData,
        };
        let mut slots = Slots {
            of_cell: vec![NO_SLOT; n],
            init: Vec::new(),
        };
        // Cells whose value is the same on every cycle, and that value.
        let mut folded = vec![false; n];
        let mut value = vec![0i64; n];

        // Inputs, controller bits and registers: slots written outside the
        // tape.
        for (id, cell) in m.iter_cells() {
            let i = id.index();
            if !live[i] {
                continue;
            }
            let ext = u32::from(ext_of(cell.width));
            let control = match cell.kind {
                CellKind::Const(v) => {
                    folded[i] = true;
                    value[i] = sext(v, ext);
                    continue;
                }
                // A single-state FSM never leaves state 0, and stage 0 is
                // valid from the first cycle on.
                CellKind::FsmState if m.fold_states <= 1 => {
                    folded[i] = true;
                    value[i] = 0;
                    continue;
                }
                CellKind::StageValid { stage: 0 } => {
                    folded[i] = true;
                    value[i] = -1;
                    continue;
                }
                CellKind::Reg { init } => {
                    slots.alloc(i, sext(init, ext));
                    continue;
                }
                CellKind::Input { port, state } => {
                    let col = match sim.input_ports.iter().position(|&p| p == port) {
                        Some(col) => col,
                        None => {
                            sim.input_ports.push(port);
                            sim.input_ports.len() - 1
                        }
                    };
                    let slot = slots.alloc(i, 0);
                    sim.inputs.push(InputRead {
                        slot,
                        col: col as u32,
                        state,
                        ext: ext_of(cell.width),
                    });
                    continue;
                }
                CellKind::FsmState => Control::Fsm,
                CellKind::StageValid { stage } => Control::StageValid(stage as usize),
                CellKind::FirstIter { stage } => Control::FirstIter(stage as usize),
                _ => continue,
            };
            let slot = slots.alloc(i, 0);
            sim.controller.push((slot, control));
        }

        // Combinational cells: fold what constants decide, levelize the
        // rest. Operands are still cell ids here.
        let mut level = vec![0u32; n];
        let mut pending: Vec<(u32, usize, Instr)> = Vec::new();
        for &raw in &order {
            let i = raw as usize;
            let cell = m.cell(CellId::from_raw(raw));
            if !live[i] || cell.kind.is_source() || cell.kind.is_seq() {
                continue;
            }
            let instr = instr_of(m, cell);
            let ids = [instr.a, instr.b, instr.c];
            let ids = &ids[..instr.op.operands()];
            if ids.iter().all(|&c| folded[c as usize]) {
                // operands are cell ids, so the entry evaluates over `value`
                folded[i] = true;
                value[i] = instr.eval_at(&value);
            } else {
                level[i] = 1 + ids.iter().map(|&c| level[c as usize]).max().unwrap_or(0);
                pending.push((level[i], i, instr));
            }
        }

        // Within a level the entries are independent: sort them by opcode
        // so the tape runs in long same-opcode segments, then place their
        // destinations in tape order and resolve operands to slots.
        pending.sort_by_key(|&(lvl, _, instr)| (lvl, instr.op));
        for &(_, cell, _) in &pending {
            slots.alloc(cell, 0);
        }
        for (_, cell, mut instr) in pending {
            instr.dst = slots.of_cell[cell];
            instr.a = slots.of(instr.a as usize, &value);
            if instr.op.operands() > 1 {
                instr.b = slots.of(instr.b as usize, &value);
            }
            if instr.op.operands() > 2 {
                instr.c = slots.of(instr.c as usize, &value);
            }
            match sim.segments.last_mut() {
                Some(seg) if seg.op == instr.op => seg.end += 1,
                _ => sim.segments.push(Segment {
                    op: instr.op,
                    end: sim.tape.len() as u32 + 1,
                }),
            }
            sim.tape.push(instr);
        }

        for (id, cell) in m.iter_cells() {
            let i = id.index();
            if !live[i] {
                continue;
            }
            match cell.kind {
                CellKind::Output { port, state } => {
                    let write = PortWrite {
                        value: slots.of(i, &value),
                        enable: slots.of(cell.inputs[1].index(), &value),
                        port,
                        state,
                    };
                    sim.writes.push(write);
                }
                CellKind::Reg { .. } => {
                    let capture = Capture {
                        reg: slots.of_cell[i],
                        data: slots.of(cell.inputs[0].index(), &value),
                        enable: slots.of(cell.inputs[1].index(), &value),
                        ext: ext_of(cell.width),
                    };
                    sim.captures.push(capture);
                }
                _ => {}
            }
        }
        sim.init = slots.init;
        Ok(sim)
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
        let mut captured: Vec<(u32, i64)> = Vec::with_capacity(self.captures.len());
        let mut fsm: u32 = 0;
        let mut stage_valid = vec![false; self.stages];
        stage_valid[0] = true;
        let mut first_iter = vec![false; self.stages];
        first_iter[0] = true;

        let mut trace = CycleTrace {
            cycles_per_iteration: cpi as u32,
            cycles: Vec::with_capacity(total as usize),
            writes: Vec::new(),
        };

        for t in 0..total {
            for r in &self.inputs {
                let state = u64::from(r.state);
                let k = if t < state {
                    0
                } else {
                    (((t - state) / cpi) as usize).min(n_iters - 1)
                };
                slots[r.slot as usize] = sext(table[k * cols + r.col as usize], u32::from(r.ext));
            }
            for &(slot, control) in &self.controller {
                slots[slot as usize] = match control {
                    Control::Fsm => sext(i64::from(fsm & 0xFF), 56),
                    Control::StageValid(g) => -i64::from(stage_valid[g]),
                    Control::FirstIter(g) => -i64::from(first_iter[g]),
                };
            }

            // combinational settle
            let mut start = 0;
            for seg in &self.segments {
                let run = &self.tape[start..seg.end as usize];
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
            for w in &self.writes {
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
            for c in &self.captures {
                if slots[c.enable as usize] != 0 {
                    captured.push((c.reg, sext(slots[c.data as usize], u32::from(c.ext))));
                }
            }
            for &(reg, value) in &captured {
                slots[reg as usize] = value;
            }

            trace.cycles.push(CycleRecord {
                cycle: t,
                fsm_state: fsm,
                active: Vec::new(),
                fired: Vec::new(),
            });

            // controller advance
            if u64::from(fsm) + 1 >= cpi {
                fsm = 0;
                for g in (1..self.stages).rev() {
                    stage_valid[g] = stage_valid[g - 1];
                    first_iter[g] = first_iter[g - 1];
                }
                stage_valid[0] = true; // pipeline fill
                first_iter[0] = false; // iteration 0 moves down the pipe
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
    use hls_nir::text_parse;
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
        let report = hls_nir::optimize(&mut m);
        hls_nir::validate(&m).expect("still valid");
        assert!(report.mux_depth_after <= report.mux_depth_before);
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
        // the text parser checks neither operand ids nor stage numbers
        let m = text_parse(
            "module \"t\" fold=1 states=1 stages=1\n%0 = const 1 w8\n%1 = add %0 %7 w8\nendmodule\n",
        )
        .expect("parses");
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
        for kind in ["stagevalid", "firstiter"] {
            let text =
                format!("module \"t\" fold=2 states=4 stages=2\n%0 = {kind} 2 w1\nendmodule\n");
            let m = text_parse(&text).expect("parses");
            let err = NirSim::new(&m).unwrap_err();
            assert!(
                matches!(&err, SimError::Netlist { cell: 0, reason } if reason.contains("stage 2")),
                "{kind}: {err}"
            );
        }
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
                    let mux = CellKind::Mux { onehot: false };
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
