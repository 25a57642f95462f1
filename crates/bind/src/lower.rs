//! Lowering a scheduled, bound loop body to the structural netlist IR.
//!
//! This is the step that used to live inside the string-building Verilog
//! emitter: it turns a [`LinearBody`] plus its [`ScheduleDesc`] and
//! [`BoundDesign`] into an [`hls_nir::NirModule`] — explicit cells for the
//! shared functional units, their operand steering muxes, the per-value
//! register chains and the predicated output captures. The Verilog printer
//! in `hls-netlist` is then a thin walk over that object, and `hls-sim`
//! executes it directly for differential verification.
//!
//! ## Timing model
//!
//! Iteration `k` is initiated every `cpi = cycles_per_iteration()` cycles
//! and an operation scheduled in unfolded state `s` fires for iteration `k`
//! at cycle `k * cpi + s` ([`ScheduleDesc::fire_cycle`]). A consumer in
//! state `ctx` reading producer `p` (state `ps`) at iteration distance `d`
//! therefore reads:
//!
//! * the producer's **combinational cell** when `d == 0 && ps == ctx`
//!   (operation chaining within one clock period);
//! * element `j = floor((ctx - ps - 1) / cpi) + d` of the producer's
//!   **register chain** otherwise. Element 0 captures the producer's value
//!   under the producer's state guard; element `j` captures element `j - 1`
//!   under the same guard, so element `j` always holds the value of `j`
//!   capture events ago — which is precisely the iteration the consumer
//!   needs. `j < 0` means the schedule asks for a value before the register
//!   has captured it ([`LowerError::AcausalRead`]).
//!
//! Register chains reset to zero, which reproduces the engines' convention
//! that loop-carried reads reaching before iteration 0 see zero.
//!
//! ## Width model
//!
//! All values are two's-complement signed at explicit widths and every
//! width change is an explicit [`CellKind::Resize`] (sign-extending, like
//! [`hls_ir::BitVal::resize`]). Notably a comparison or first-iteration
//! bit widened beyond 1 bit reads as `-1`, matching the interpreter's
//! 1-bit canonical values — the printed Verilog agrees because every net
//! is declared `signed`.

use crate::fu::{check_fit, check_slots, slot_op};
use crate::{BindError, BoundDesign};
use hls_ir::dfg::SignalSource;
use hls_ir::{CmpKind, DenseOpMap, LinearBody, OpId, OpKind, Predicate, Signal};
use hls_netlist::ScheduleDesc;
use hls_nir::{sanitize, BinKind, Cell, CellId, CellKind, NirModule, UnKind};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{self, Write as _};

/// How operations map onto hardware operators in the lowered netlist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RtlStyle {
    /// One combinational operator per operation: the schedule's own
    /// netlist, which `hls_sim::differential::check` simulates. It reads no
    /// binding and instantiates no shared units.
    PerOp,
    /// One operator per allocated resource instance, with operand muxes
    /// steered by the FSM state (plus stage-valid bits and predicates for
    /// folded or predicated sharing). This reflects the area the
    /// scheduler's resource set actually implies and is the default.
    #[default]
    SharedFu,
}

/// Why a schedule/binding could not be lowered to a netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// A referenced operation has no scheduled state.
    Unscheduled {
        /// The unscheduled operation.
        op: OpId,
    },
    /// A consumer samples a value before any register has captured it.
    AcausalRead {
        /// The consuming operation.
        consumer: OpId,
        /// The producing operation.
        producer: OpId,
        /// The consumer's unfolded state.
        consumer_state: u32,
        /// The read's iteration distance.
        distance: u32,
    },
    /// A combinational dependency cycle (through same-state references or a
    /// shared unit's steering) was encountered while lowering.
    CombLoop {
        /// An operation on the cycle.
        op: OpId,
    },
    /// A chain of free (wiring-only) operations exceeded the inlining depth
    /// limit, indicating a free-operation cycle.
    FreeChainTooDeep {
        /// The operation at which the limit was hit.
        op: OpId,
    },
    /// The binding is not one [`bind`](crate::bind) could have produced for
    /// the schedule, so the shared units lowered from it would disagree
    /// with its statistics and fan-ins.
    InvalidBinding(BindError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Unscheduled { op } => write!(f, "operation {op:?} is not scheduled"),
            LowerError::AcausalRead {
                consumer,
                producer,
                consumer_state,
                distance,
            } => write!(
                f,
                "{consumer} reads the value of {producer} acausally from state \
                 {consumer_state} at distance {distance}"
            ),
            LowerError::CombLoop { op } => {
                write!(f, "combinational dependency cycle through {op:?}")
            }
            LowerError::FreeChainTooDeep { op } => {
                write!(f, "free-operation chain too deep at {op:?}")
            }
            LowerError::InvalidBinding(e) => write!(f, "invalid binding: {e}"),
        }
    }
}

impl std::error::Error for LowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LowerError::InvalidBinding(e) => Some(e),
            _ => None,
        }
    }
}

/// Lowers a scheduled, bound body to a structural netlist.
///
/// The produced module passes [`hls_nir::validate`] and, executed by
/// `hls-sim`'s netlist simulator, reproduces the reference interpreter's
/// write sequences bit for bit.
///
/// Under [`RtlStyle::SharedFu`] the binding is validated first
/// ([`LowerError::InvalidBinding`]); [`RtlStyle::PerOp`] does not read it.
///
/// # Errors
///
/// See [`LowerError`]; all variants indicate an inconsistent schedule or
/// binding (the scheduler and binder never produce them).
pub fn lower(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &BoundDesign,
    style: RtlStyle,
) -> Result<NirModule, LowerError> {
    if style == RtlStyle::SharedFu {
        check_binding(body, desc, bound).map_err(LowerError::InvalidBinding)?;
    }
    let mut m = NirModule::new(body.name.clone());
    m.ports = body.dfg.iter_ports().map(|(_, p)| p.clone()).collect();
    m.fold_states = desc.fold_states();
    m.num_states = desc.num_states.max(1);
    m.stages = desc.num_stages();
    let n_ops = body.dfg.num_ops();
    let n_fus = match style {
        RtlStyle::SharedFu => bound.fus.len(),
        RtlStyle::PerOp => 0,
    };
    let mut states = DenseOpMap::new(n_ops);
    for (&op, so) in desc.ops.range(..OpId::from_raw(n_ops as u32)) {
        states[op] = Some(so.state);
    }
    let mut lw = Lowerer {
        body,
        bound,
        style,
        cpi: desc.cycles_per_iteration(),
        stages: m.stages,
        m,
        states,
        cons: HashMap::new(),
        op_cell: DenseOpMap::new(n_ops),
        chains: DenseOpMap::new(n_ops),
        guards: vec![None; desc.num_states as usize],
        fu_out: vec![None; n_fus],
        building: DenseOpMap::new(n_ops),
        fu_building: vec![false; n_fus],
        dedicated: DenseOpMap::new(n_ops),
        dedicated_building: DenseOpMap::new(n_ops),
    };
    // Every scheduled, non-free computation gets a cell (dead ones are
    // removed by the rewrite engine's sweep, mirroring the old emitter
    // which printed a wire per operation).
    for id in desc.ops.keys() {
        let op = body.dfg.op(*id);
        if op.kind.is_free() || matches!(op.kind, OpKind::Write(_)) {
            continue;
        }
        lw.op_value(*id)?;
    }
    lw.emit_writes(desc)?;
    lw.fill_chains()?;
    Ok(lw.m)
}

/// Checks that `bound` is a binding [`bind`](crate::bind) could have
/// produced for `desc`: `fu_of` and the units' operation lists name the same
/// placements, each unit sits at its own instance index and lists its
/// operations as the schedule places them, in steering-priority order, and
/// every unit passes the binder's own fit and shared-slot checks.
fn check_binding(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &BoundDesign,
) -> Result<(), BindError> {
    for (op, r) in bound.fu_of.iter() {
        let Some(r) = *r else { continue };
        let fu = bound
            .fus
            .get(r.index())
            .ok_or(BindError::UnknownInstance { op, instance: r })?;
        if op.index() >= body.dfg.num_ops() || !fu.ops.iter().any(|s| s.op == op) {
            return Err(BindError::UnitMismatch { op, instance: r });
        }
    }
    for (i, fu) in bound.fus.iter().enumerate() {
        let instance = fu.instance;
        for (k, s) in fu.ops.iter().enumerate() {
            if instance.index() != i {
                return Err(BindError::UnknownInstance { op: s.op, instance });
            }
            let scheduled = desc.ops.get(&s.op).map(|so| slot_op(desc, s.op, so.state));
            let in_order = k == 0 || {
                let prev = &fu.ops[k - 1];
                (prev.folded_state, prev.op) < (s.folded_state, s.op)
            };
            if bound.fu_of.get(s.op) != Some(&Some(instance)) || scheduled != Some(*s) || !in_order
            {
                return Err(BindError::UnitMismatch { op: s.op, instance });
            }
            check_fit(body, desc, s.op, instance)?;
        }
        check_slots(body, desc, fu)?;
    }
    Ok(())
}

/// Most operands any cell kind or operation takes (a mux's select and two
/// arms).
const MAX_OPERANDS: usize = 3;

/// Up to [`MAX_OPERANDS`] cell ids held inline.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Operands {
    len: u8,
    ids: [CellId; MAX_OPERANDS],
}

impl Operands {
    fn new() -> Self {
        Operands {
            len: 0,
            ids: [CellId::from_raw(0); MAX_OPERANDS],
        }
    }

    fn of(ids: &[CellId]) -> Self {
        let mut operands = Operands::new();
        for &id in ids {
            operands.push(id);
        }
        operands
    }

    fn push(&mut self, id: CellId) {
        assert!(
            usize::from(self.len) < MAX_OPERANDS,
            "no cell or operation takes more than {MAX_OPERANDS} operands"
        );
        self.ids[usize::from(self.len)] = id;
        self.len += 1;
    }

    fn as_slice(&self) -> &[CellId] {
        &self.ids[..usize::from(self.len)]
    }
}

/// The display name of a cell, formatted only when [`Lowerer::cons`]
/// creates the cell.
#[derive(Clone, Copy)]
enum Name<'n> {
    /// `w_<op>_<the op's display name>`, with `_dup` appended for a
    /// dedicated duplicate ([`Lowerer::dedicated_value`]).
    Op { op: OpId, dup: bool },
    /// Given text.
    Text(&'n str),
}

/// Incremental netlist builder with hash-consing of combinational cells.
struct Lowerer<'a> {
    body: &'a LinearBody,
    bound: &'a BoundDesign,
    style: RtlStyle,
    cpi: u32,
    stages: u32,
    m: NirModule,
    /// The unfolded state of each scheduled operation.
    states: DenseOpMap<Option<u32>>,
    /// Structural hash-consing of combinational/source cells (never `Reg`
    /// or `Output`): identical (kind, width, operands) share one cell.
    cons: HashMap<(CellKind, u16, Operands), CellId>,
    /// The combinational value cell of each lowered operation.
    op_cell: DenseOpMap<Option<CellId>>,
    /// Register chains per producer; element `j` is `j + 1` captures deep.
    chains: DenseOpMap<Vec<CellId>>,
    /// Per unfolded state: the 1-bit capture enable.
    guards: Vec<Option<CellId>>,
    /// Output cell of each built functional unit, by instance index.
    fu_out: Vec<Option<CellId>>,
    building: DenseOpMap<bool>,
    fu_building: Vec<bool>,
    /// Dedicated (duplicated) operator cells that break sharing-induced
    /// false combinational loops; see [`Lowerer::dedicated_value`].
    dedicated: DenseOpMap<Option<CellId>>,
    dedicated_building: DenseOpMap<bool>,
}

impl Lowerer<'_> {
    fn cons(
        &mut self,
        kind: CellKind,
        width: u16,
        inputs: &[CellId],
        name: Option<Name<'_>>,
    ) -> CellId {
        let slot = match self.cons.entry((kind, width, Operands::of(inputs))) {
            Entry::Occupied(hit) => return *hit.get(),
            Entry::Vacant(slot) => slot,
        };
        let name = name.map(|name| match name {
            Name::Op { op, dup } => {
                let display = sanitize(&self.body.dfg.op(op).display_name());
                let suffix = if dup { "_dup" } else { "" };
                format!("w_{}_{display}{suffix}", op.index())
            }
            Name::Text(text) => text.to_string(),
        });
        let id = self.m.add_cell(Cell {
            kind: slot.key().0.clone(),
            width,
            inputs: inputs.to_vec(),
            name,
        });
        *slot.insert(id)
    }

    fn resized(&mut self, id: CellId, width: u16) -> CellId {
        if self.m.cell(id).width == width {
            id
        } else {
            self.cons(CellKind::Resize, width, &[id], None)
        }
    }

    fn state_of(&self, op: OpId) -> Result<u32, LowerError> {
        self.states
            .get(op)
            .copied()
            .flatten()
            .ok_or(LowerError::Unscheduled { op })
    }

    /// 1-bit conjunction; an empty part list is constant true.
    fn and_fold(&mut self, parts: &[CellId]) -> CellId {
        let Some((&first, rest)) = parts.split_first() else {
            return self.cons(CellKind::Const(1), 1, &[], None);
        };
        let mut acc = first;
        for &p in rest {
            acc = self.cons(CellKind::Bin(BinKind::And), 1, &[acc, p], None);
        }
        acc
    }

    /// `state == folded`, or nothing when the schedule has one folded state.
    fn state_is(&mut self, folded: u32, parts: &mut Operands) {
        if self.cpi > 1 {
            let fsm = self.cons(CellKind::FsmState, 8, &[], None);
            let c = self.cons(CellKind::Const(i64::from(folded)), 8, &[], None);
            let eq = CellKind::Bin(BinKind::Cmp(CmpKind::Eq));
            parts.push(self.cons(eq, 1, &[fsm, c], None));
        }
    }

    /// The capture enable of unfolded state `s`: `state == s % cpi`
    /// conjoined with the stage-valid bit of `s / cpi` where applicable.
    /// Its cells are hash-consed, so the per-state memo only saves the
    /// lookups; a state past the schedule's length is not memoized.
    fn guard(&mut self, s: u32) -> CellId {
        if let Some(&Some(g)) = self.guards.get(s as usize) {
            return g;
        }
        let mut parts = Operands::new();
        self.state_is(s % self.cpi, &mut parts);
        if self.stages > 1 {
            let stage = s / self.cpi;
            parts.push(self.cons(CellKind::StageValid { stage }, 1, &[], None));
        }
        let g = self.and_fold(parts.as_slice());
        if let Some(slot) = self.guards.get_mut(s as usize) {
            *slot = Some(g);
        }
        g
    }

    /// Resolves an input signal of operation `of` as sampled in state `ctx`.
    fn resolve(&mut self, sig: &Signal, of: OpId, ctx: u32) -> Result<CellId, LowerError> {
        self.resolve_depth(sig, of, 0, ctx, 0)
    }

    /// [`Lowerer::resolve`] with `extra_d` iteration distance accumulated
    /// through inlined free ops.
    fn resolve_depth(
        &mut self,
        sig: &Signal,
        of: OpId,
        extra_d: u32,
        ctx: u32,
        depth: u32,
    ) -> Result<CellId, LowerError> {
        match sig.source {
            SignalSource::Const(v) => Ok(self.cons(CellKind::Const(v), sig.width, &[], None)),
            SignalSource::Op(p) => {
                let c = self.producer_ref(p, of, extra_d + sig.distance, ctx, depth)?;
                Ok(self.resized(c, sig.width))
            }
        }
    }

    /// A cell holding operation `p`'s value (at `p`'s width) as observed by
    /// its consumer `of` in state `ctx` at iteration distance `d`.
    fn producer_ref(
        &mut self,
        p: OpId,
        of: OpId,
        d: u32,
        ctx: u32,
        depth: u32,
    ) -> Result<CellId, LowerError> {
        if depth > 64 {
            return Err(LowerError::FreeChainTooDeep { op: p });
        }
        let body = self.body;
        let o = body.dfg.op(p);
        if o.kind.is_free() {
            if let Some(c) = self.inline_free(p, of, d, ctx, depth)? {
                return Ok(c);
            }
        }
        let ps = self.state_of(p)?;
        if d == 0 && ps == ctx {
            return self.op_value(p);
        }
        let j = (i64::from(ctx) - i64::from(ps) - 1).div_euclid(i64::from(self.cpi.max(1)))
            + i64::from(d);
        if j < 0 {
            return Err(LowerError::AcausalRead {
                consumer: of,
                producer: p,
                consumer_state: ctx,
                distance: d,
            });
        }
        Ok(self.chain_cell(p, j as usize))
    }

    /// Free operations are pure wiring and inline straight through to their
    /// sources. Returns `None` only for a first-iteration anchor whose bit
    /// would lie beyond the one-hot pipe — that read falls back to the
    /// registered-chain path.
    fn inline_free(
        &mut self,
        p: OpId,
        of: OpId,
        d: u32,
        ctx: u32,
        depth: u32,
    ) -> Result<Option<CellId>, LowerError> {
        let body = self.body;
        let o = body.dfg.op(p);
        let c = match &o.kind {
            OpKind::Const(v) => self.cons(CellKind::Const(*v), o.width, &[], None),
            OpKind::Slice { hi, lo } => {
                let inner = self.resolve_depth(&o.inputs[0], of, d, ctx, depth + 1)?;
                let take = hi.saturating_sub(*lo) + 1;
                let s = self.cons(CellKind::Slice { hi: *hi, lo: *lo }, take, &[inner], None);
                self.resized(s, o.width)
            }
            OpKind::Resize => {
                let inner = self.resolve_depth(&o.inputs[0], of, d, ctx, depth + 1)?;
                self.resized(inner, o.width)
            }
            OpKind::Pass => match o.inputs.first() {
                Some(inner) => {
                    let inner = *inner;
                    let c = self.resolve_depth(&inner, of, d, ctx, depth + 1)?;
                    self.resized(c, o.width)
                }
                // The anchor's value is a property of the *iteration*: read
                // the one-hot bit of the stage that will be processing the
                // consumer's iteration minus `d` — `ctx/cpi + d` — when the
                // consumer samples.
                None if o.is_first_iter_anchor() => {
                    let g = ctx / self.cpi.max(1) + d;
                    if g >= self.stages {
                        return Ok(None);
                    }
                    let bit = self.cons(CellKind::FirstIter { stage: g }, 1, &[], None);
                    self.resized(bit, o.width)
                }
                // input-less passes (neutralized ops, live-ins) read as zero
                None => self.cons(CellKind::Const(0), o.width, &[], None),
            },
            _ => unreachable!("is_free covers Const/Pass/Slice/Resize only"),
        };
        Ok(Some(c))
    }

    /// Element `j` of `p`'s register chain, creating placeholder registers
    /// on demand; inputs are patched by [`Lowerer::fill_chains`].
    fn chain_cell(&mut self, p: OpId, j: usize) -> CellId {
        while self.chains[p].len() <= j {
            let k = self.chains[p].len();
            let o = self.body.dfg.op(p);
            let mut name = format!("v_{}_{}", p.index(), sanitize(&o.display_name()));
            if k > 0 {
                let _ = write!(name, "_d{k}");
            }
            let reg = self.m.add_cell(Cell {
                kind: CellKind::Reg { init: 0 },
                width: o.width.max(1),
                inputs: Vec::new(),
                name: Some(name),
            });
            self.chains[p].push(reg);
        }
        self.chains[p][j]
    }

    /// The combinational cell computing operation `id`'s value in its own
    /// scheduled state (at the operation's width).
    fn op_value(&mut self, id: OpId) -> Result<CellId, LowerError> {
        if let Some(c) = self.op_cell[id] {
            return Ok(c);
        }
        // Sharing can induce *false* combinational loops: a unit's steered
        // port mixes arms of several states, so a state-s source may reach
        // back (through other shared units) into a unit still being built.
        // The path is never dynamically sensitized, but it is a structural
        // cycle the validator (and synthesis) would reject — break it by
        // duplicating the operator for this consumer instead.
        let unit = match self.style {
            RtlStyle::SharedFu => self.bound.fu_of.get(id).copied().flatten(),
            RtlStyle::PerOp => None,
        };
        let on_busy_fu = unit.is_some_and(|r| self.fu_building[r.index()]);
        if self.building[id] || on_busy_fu {
            return self.dedicated_value(id);
        }
        self.building[id] = true;
        let cell = if let Some(r) = unit {
            let out = self.build_fu(r.index())?;
            self.resized(out, self.body.dfg.op(id).width)
        } else {
            let ins = self.own_operands(id)?;
            self.kind_cell(id, ins.as_slice(), Name::Op { op: id, dup: false })?
        };
        self.building[id] = false;
        self.op_cell[id] = Some(cell);
        Ok(cell)
    }

    /// Operation `id`'s inputs, resolved as sampled in its own state.
    fn own_operands(&mut self, id: OpId) -> Result<Operands, LowerError> {
        let body = self.body;
        let ps = self.state_of(id)?;
        let mut ins = Operands::new();
        for sig in &body.dfg.op(id).inputs {
            ins.push(self.resolve(sig, id, ps)?);
        }
        Ok(ins)
    }

    /// A dedicated (per-op, unshared) operator cell for `id`, used to break
    /// a false combinational loop through a shared unit. The duplicate
    /// computes the same value in the op's own state — the only state in
    /// which any guarded capture or write observes it — so the substitution
    /// is exact; it costs one extra operator, the classic price of breaking
    /// a sharing-induced false path.
    fn dedicated_value(&mut self, id: OpId) -> Result<CellId, LowerError> {
        if let Some(c) = self.dedicated[id] {
            return Ok(c);
        }
        if self.dedicated_building[id] {
            // a genuine same-cycle dependency cycle, not a sharing artifact
            return Err(LowerError::CombLoop { op: id });
        }
        self.dedicated_building[id] = true;
        let ins = self.own_operands(id)?;
        let cell = self.kind_cell(id, ins.as_slice(), Name::Op { op: id, dup: true })?;
        self.dedicated_building[id] = false;
        self.dedicated[id] = Some(cell);
        Ok(cell)
    }

    /// Builds the computing cell for `id`'s kind over already-resolved
    /// operand cells (one per input signal, at the signal widths); the
    /// result is at the operation's width.
    fn kind_cell(
        &mut self,
        id: OpId,
        ins: &[CellId],
        name: Name<'_>,
    ) -> Result<CellId, LowerError> {
        let body = self.body;
        let o = body.dfg.op(id);
        let w = o.width.max(1);
        let name = Some(name);
        let bin = |b: BinKind| (b, ins.first().copied(), ins.get(1).copied());
        let cell = match &o.kind {
            OpKind::Add => self.bin_cell(bin(BinKind::Add), w, name),
            OpKind::Sub => self.bin_cell(bin(BinKind::Sub), w, name),
            OpKind::Mul => self.bin_cell(bin(BinKind::Mul), w, name),
            OpKind::Div => self.bin_cell(bin(BinKind::Div), w, name),
            OpKind::Rem => self.bin_cell(bin(BinKind::Rem), w, name),
            OpKind::And => self.bin_cell(bin(BinKind::And), w, name),
            OpKind::Or => self.bin_cell(bin(BinKind::Or), w, name),
            OpKind::Xor => self.bin_cell(bin(BinKind::Xor), w, name),
            OpKind::Shl => self.bin_cell(bin(BinKind::Shl), w, name),
            OpKind::Shr => self.bin_cell(bin(BinKind::Shr), w, name),
            OpKind::Cmp(c) => {
                let c1 = self.bin_cell(bin(BinKind::Cmp(*c)), 1, name);
                self.resized(c1, w)
            }
            OpKind::Not => self.cons(CellKind::Un(UnKind::Not), w, &[ins[0]], name),
            OpKind::Neg => self.cons(CellKind::Un(UnKind::Neg), w, &[ins[0]], name),
            OpKind::Mux => {
                let a = self.resized(ins[1], w);
                let b = self.resized(ins[2], w);
                self.cons(CellKind::Mux, w, &[ins[0], a, b], name)
            }
            OpKind::Slice { hi, lo } => {
                let take = hi.saturating_sub(*lo) + 1;
                let s = self.cons(CellKind::Slice { hi: *hi, lo: *lo }, take, &[ins[0]], name);
                self.resized(s, w)
            }
            OpKind::Resize | OpKind::Write(_) => self.resized(ins[0], w),
            OpKind::Const(v) => self.cons(CellKind::Const(*v), w, &[], name),
            OpKind::Read(p) => {
                let ps = self.state_of(id)?;
                let pw = body.dfg.port(*p).width.max(1);
                let port = p.index() as u32;
                let i = self.cons(CellKind::Input { port, state: ps }, pw, &[], name);
                self.resized(i, w)
            }
            OpKind::Pass => match ins.first() {
                Some(&i) => self.resized(i, w),
                None if o.is_first_iter_anchor() => {
                    let stage = self.state_of(id)? / self.cpi.max(1);
                    let bit = self.cons(CellKind::FirstIter { stage }, 1, &[], name);
                    self.resized(bit, w)
                }
                None => self.cons(CellKind::Const(0), w, &[], name),
            },
        };
        Ok(cell)
    }

    fn bin_cell(
        &mut self,
        (b, lhs, rhs): (BinKind, Option<CellId>, Option<CellId>),
        w: u16,
        name: Option<Name<'_>>,
    ) -> CellId {
        let lhs = lhs.expect("binary op has two inputs");
        let rhs = rhs.expect("binary op has two inputs");
        self.cons(CellKind::Bin(b), w, &[lhs, rhs], name)
    }

    /// Builds (once) the shared unit for resource instance `r`: one steered
    /// operand mux chain per port, one kind arm per bound operation and a
    /// steered output chain. Returns the output cell (at the unit's widest
    /// operation width).
    fn build_fu(&mut self, r: usize) -> Result<CellId, LowerError> {
        if let Some(out) = self.fu_out[r] {
            return Ok(out);
        }
        let (body, bound) = (self.body, self.bound);
        let ops = &bound.fus[r].ops;
        if self.fu_building[r] {
            return Err(LowerError::CombLoop {
                op: ops.first().map(|s| s.op).unwrap_or(OpId::from_raw(0)),
            });
        }
        self.fu_building[r] = true;
        let prefix = format!("fu_{}_{}", r, sanitize(&bound.fus[r].name));
        let nports = ops
            .iter()
            .map(|s| body.dfg.op(s.op).inputs.len())
            .max()
            .unwrap_or(0);
        let out_w = ops
            .iter()
            .map(|s| body.dfg.op(s.op).width)
            .max()
            .unwrap_or(1)
            .max(1);

        // Steering conditions, in the shared priority order (ascending
        // folded state, then op id); the last arm is the unconditional
        // default. Predicates join only where a folded slot is contended,
        // and never on the slot's last candidate: when no predicate of the
        // slot holds, its operands leak through, observed only by captures
        // whose own predicate is false.
        let slot_count = |fs: u32| ops.iter().filter(|s| s.folded_state == fs).count();
        let last_in_slot = |fs: u32| {
            ops.iter()
                .filter(|s| s.folded_state == fs)
                .map(|s| s.op)
                .max()
        };
        let mut conds: Vec<Option<CellId>> = Vec::with_capacity(ops.len());
        for (i, s) in ops.iter().enumerate() {
            if i + 1 == ops.len() {
                conds.push(None);
                continue;
            }
            let mut parts = Operands::new();
            self.state_is(s.folded_state, &mut parts);
            if self.stages > 1 {
                let stage = s.stage;
                parts.push(self.cons(CellKind::StageValid { stage }, 1, &[], None));
            }
            let pred = &body.dfg.op(s.op).predicate;
            if slot_count(s.folded_state) > 1
                && last_in_slot(s.folded_state) != Some(s.op)
                && !pred.is_true()
            {
                parts.push(self.pred_cell(pred, s.op, s.state)?);
            }
            conds.push(Some(self.and_fold(parts.as_slice())));
        }

        // Operand ports: each a priority chain over the bound operations'
        // resolved sources, resized to the port width (the widest source).
        let mut nets = Operands::new();
        let mut arms = Vec::with_capacity(ops.len());
        for q in 0..nports {
            let pw = ops
                .iter()
                .filter_map(|s| body.dfg.op(s.op).inputs.get(q).map(|g| g.width))
                .max()
                .unwrap_or(1)
                .max(1);
            arms.clear();
            for s in ops {
                let arm = match body.dfg.op(s.op).inputs.get(q) {
                    Some(sig) => {
                        let c = self.resolve(sig, s.op, s.state)?;
                        self.resized(c, pw)
                    }
                    None => self.cons(CellKind::Const(0), pw, &[], None),
                };
                arms.push(arm);
            }
            let name = format!("{prefix}_in{q}");
            nets.push(self.priority_chain(&conds, &arms, pw, &name));
        }

        // The unit's output: the steered operation kind over the port nets.
        // Each arm carries its operation's display name (first name sticks
        // when sharing collapses the arms onto one consed cell), so source
        // variable names survive into the netlist even for unshared units.
        arms.clear();
        for s in ops {
            let mut ins = Operands::new();
            for (q, g) in body.dfg.op(s.op).inputs.iter().enumerate() {
                ins.push(self.resized(nets.as_slice()[q], g.width));
            }
            let name = Name::Op {
                op: s.op,
                dup: false,
            };
            let cell = self.kind_cell(s.op, ins.as_slice(), name)?;
            arms.push(self.resized(cell, out_w));
        }
        let out = self.priority_chain(&conds, &arms, out_w, &prefix);
        self.fu_building[r] = false;
        self.fu_out[r] = Some(out);
        Ok(out)
    }

    /// Right-associated mux priority chain; the last arm is the
    /// unconditional default, and the head mux carries the display name.
    /// The chain stays linear: timing charges it as one `mux_n` tree by
    /// its leaf fan-in, the way synthesis builds it.
    fn priority_chain(
        &mut self,
        conds: &[Option<CellId>],
        arms: &[CellId],
        w: u16,
        name: &str,
    ) -> CellId {
        let mut acc = *arms.last().expect("at least one bound operation");
        if arms.len() == 1 {
            // Degenerate chain (unshared unit): no mux to carry the display
            // name, so attach it to the arm itself when still unnamed.
            if self.m.cell(acc).name.is_none() {
                self.m.cells[acc.index()].name = Some(name.to_string());
            }
            return acc;
        }
        for i in (0..arms.len() - 1).rev() {
            let c = conds[i].expect("non-last arms carry a steering condition");
            let head = (i == 0).then_some(Name::Text(name));
            acc = self.cons(CellKind::Mux, w, &[c, arms[i], acc], head);
        }
        acc
    }

    /// A 1-bit cell evaluating operation `of`'s predicate `p` as sampled in
    /// state `ctx`.
    fn pred_cell(&mut self, p: &Predicate, of: OpId, ctx: u32) -> Result<CellId, LowerError> {
        match p {
            Predicate::True => Ok(self.cons(CellKind::Const(1), 1, &[], None)),
            Predicate::Cond(c) => self.cond_bit(*c, of, ctx),
            Predicate::NotCond(c) => {
                let b = self.cond_bit(*c, of, ctx)?;
                Ok(self.cons(CellKind::Un(UnKind::Not), 1, &[b], None))
            }
            Predicate::And(ps) => {
                let mut parts = Vec::with_capacity(ps.len());
                for q in ps {
                    parts.push(self.pred_cell(q, of, ctx)?);
                }
                Ok(self.and_fold(&parts))
            }
        }
    }

    /// The truth bit of a condition operation: the value itself when 1 bit
    /// wide, a non-zero test otherwise (`is_true` semantics).
    fn cond_bit(&mut self, c: OpId, of: OpId, ctx: u32) -> Result<CellId, LowerError> {
        let v = self.producer_ref(c, of, 0, ctx, 0)?;
        let w = self.m.cell(v).width;
        if w == 1 {
            return Ok(v);
        }
        let z = self.cons(CellKind::Const(0), w, &[], None);
        let ne = CellKind::Bin(BinKind::Cmp(CmpKind::Ne));
        Ok(self.cons(ne, 1, &[v, z], None))
    }

    /// One `Output` cell per scheduled write, enabled by the write state's
    /// guard conjoined with the write's predicate.
    fn emit_writes(&mut self, desc: &ScheduleDesc) -> Result<(), LowerError> {
        let body = self.body;
        for (id, so) in &desc.ops {
            let o = body.dfg.op(*id);
            let OpKind::Write(pid) = o.kind else { continue };
            let ws = so.state;
            let c = self.resolve(&o.inputs[0], *id, ws)?;
            let v = self.resized(c, o.width.max(1));
            let pw = body.dfg.port(pid).width.max(1);
            let v = self.resized(v, pw);
            let mut en = self.guard(ws);
            if !o.predicate.is_true() {
                let pc = self.pred_cell(&o.predicate, *id, ws)?;
                en = self.and_fold(&[en, pc]);
            }
            self.m.add_cell(Cell {
                kind: CellKind::Output {
                    port: pid.index() as u32,
                    state: ws,
                },
                width: pw,
                inputs: vec![v, en],
                name: None,
            });
        }
        Ok(())
    }

    /// Patches every chain register's inputs: element 0 captures the
    /// producer's combinational value under the producer's state guard,
    /// element `k` captures element `k - 1` under the same guard.
    fn fill_chains(&mut self) -> Result<(), LowerError> {
        // Building a producer's value can create further chains (and grow
        // existing ones); iterate until every chained producer has a value.
        let mut done = DenseOpMap::filled(self.chains.len(), false);
        let mut todo: Vec<OpId> = Vec::new();
        loop {
            todo.clear();
            todo.extend(
                self.chains
                    .iter()
                    .filter(|&(p, chain)| !chain.is_empty() && !done[p])
                    .map(|(p, _)| p),
            );
            if todo.is_empty() {
                break;
            }
            for &p in &todo {
                self.op_value(p)?;
                done[p] = true;
            }
        }
        for (p, &chained) in done.iter() {
            if !chained {
                continue;
            }
            let ps = self.state_of(p)?;
            let en = self.guard(ps);
            let value = self.op_value(p)?;
            let w = self.m.cell(self.chains[p][0]).width;
            let mut d = self.resized(value, w);
            for &reg in &self.chains[p] {
                self.m.cells[reg.index()].inputs = vec![d, en];
                d = reg;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind;
    use hls_ir::{Dfg, PortDirection};
    use hls_netlist::ScheduledOp;
    use hls_nir::validate;
    use hls_tech::{ResourceClass, ResourceInstanceId, ResourceSet, ResourceType};
    use std::collections::BTreeMap;

    /// read x -> mul by 3 (on a multiplier) -> write y, over two states.
    fn demo() -> (LinearBody, ScheduleDesc) {
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("pixel out", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let m = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(3, 16)],
        );
        let w = dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(m, 16)]);
        let body = LinearBody::from_dfg("demo loop", dfg);
        let mut resources = ResourceSet::new();
        let mul = resources.add(ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16));
        let mut ops = BTreeMap::new();
        for (id, state, res) in [(r, 0, None), (m, 0, Some(mul)), (w, 1, None)] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource: res,
                },
            );
        }
        (
            body,
            ScheduleDesc {
                num_states: 2,
                ii: None,
                ops,
                resources,
            },
        )
    }

    #[test]
    fn lowers_a_tiny_schedule_to_a_valid_netlist() {
        let (body, desc) = demo();
        let bound = bind(&body, &desc).expect("bindable");
        for style in [RtlStyle::SharedFu, RtlStyle::PerOp] {
            let m = lower(&body, &desc, &bound, style).expect("lowerable");
            validate(&m).expect("valid netlist");
            assert_eq!(m.ports.len(), 2);
            assert_eq!(m.fold_states, 2);
            let stats = m.stats();
            assert_eq!(stats.count_bin(BinKind::Mul), 1, "one multiplier cell");
            assert_eq!(stats.outputs(), 1);
            // the write (state 1) reads the mul (state 0) through one
            // chain register
            assert!(stats.regs >= 1);
        }
    }

    #[test]
    fn shared_unit_names_land_in_the_netlist() {
        let (body, desc) = demo();
        let bound = bind(&body, &desc).expect("bindable");
        let m = lower(&body, &desc, &bound, RtlStyle::SharedFu).expect("lowerable");
        let names: Vec<&str> = m.cells.iter().filter_map(|c| c.name.as_deref()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("v_")),
            "chain registers are named: {names:?}"
        );
    }

    #[test]
    fn acausal_reads_are_rejected() {
        let (body, mut desc) = demo();
        let bound = bind(&body, &desc).expect("bindable");
        // sabotage: move the write before the multiplication feeding it
        // (same-state sampling would be legal chaining, so push the
        // producer strictly later)
        let write = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Write(_)))
            .map(|(id, _)| id)
            .unwrap();
        let mul = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Mul))
            .map(|(id, _)| id)
            .unwrap();
        desc.ops.get_mut(&write).unwrap().state = 0;
        desc.ops.get_mut(&mul).unwrap().state = 1;
        let err = lower(&body, &desc, &bound, RtlStyle::PerOp).unwrap_err();
        assert!(matches!(err, LowerError::AcausalRead { .. }), "{err}");
    }

    #[test]
    fn unscheduled_references_are_rejected() {
        let (body, mut desc) = demo();
        let bound = bind(&body, &desc).expect("bindable");
        let read = body
            .dfg
            .iter_ops()
            .find(|(_, op)| matches!(op.kind, OpKind::Read(_)))
            .map(|(id, _)| id)
            .unwrap();
        desc.ops.remove(&read);
        let err = lower(&body, &desc, &bound, RtlStyle::PerOp).unwrap_err();
        assert!(matches!(err, LowerError::Unscheduled { .. }), "{err}");
    }

    /// The op of the first operation of `kind` in `body`.
    fn first_op(body: &LinearBody, kind: fn(&OpKind) -> bool) -> OpId {
        body.dfg
            .iter_ops()
            .find(|(_, op)| kind(&op.kind))
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn an_out_of_range_instance_is_refused() {
        let (body, desc) = demo();
        let mut bound = bind(&body, &desc).expect("bindable");
        let mul = first_op(&body, |k| matches!(k, OpKind::Mul));
        let r7 = ResourceInstanceId(7);
        bound.fu_of[mul] = Some(r7);
        let err = lower(&body, &desc, &bound, RtlStyle::SharedFu).unwrap_err();
        assert_eq!(
            err,
            LowerError::InvalidBinding(BindError::UnknownInstance {
                op: mul,
                instance: r7
            })
        );
        assert!(std::error::Error::source(&err).is_some(), "{err}");
    }

    /// Sequential Example 1 (Table 2: one multiplier shared by three
    /// steps), scheduled and bound.
    fn example1_seq() -> (LinearBody, ScheduleDesc, BoundDesign) {
        let mut cdfg = hls_frontend::designs::paper_example1_cdfg().expect("elab");
        let body = hls_opt::linearize::prepare_innermost_loop(&mut cdfg).expect("prepare");
        let clk = hls_tech::ClockConstraint::from_period_ps(1600.0);
        let desc = hls_sched::Scheduler::new(
            &body,
            &hls_tech::TechLibrary::artisan_90nm_typical(),
            hls_sched::SchedulerConfig::sequential(clk, 1, 3),
        )
        .run()
        .expect("schedulable")
        .desc;
        let bound = bind(&body, &desc).expect("bindable");
        (body, desc, bound)
    }

    #[test]
    fn an_acausal_write_names_the_write_and_its_producer() {
        // the write moved to state 0 samples its operand before the
        // multiplication feeding it has been computed
        let (body, mut desc, _) = example1_seq();
        let write = first_op(&body, |k| matches!(k, OpKind::Write(_)));
        desc.ops.get_mut(&write).expect("scheduled").state = 0;
        let mut producer = body.dfg.op(write).inputs[0].producer().expect("an op");
        while body.dfg.op(producer).kind.is_free() {
            producer = body.dfg.op(producer).inputs[0].producer().expect("an op");
        }
        let err = lower(&body, &desc, &BoundDesign::default(), RtlStyle::PerOp).unwrap_err();
        assert!(
            matches!(err, LowerError::AcausalRead { consumer, producer: p, .. }
                if consumer == write && p == producer),
            "{err:?}"
        );
        let message = err.to_string();
        assert!(message.contains(&format!("{write} reads")), "{message}");
        assert!(
            message.contains(&format!("value of {producer} ")),
            "{message}"
        );
    }

    #[test]
    fn a_mis_bound_operation_is_refused() {
        // point a multiplication's `fu_of` at another used unit while the
        // units' lists stay as bound: lowering would steer that unit's value
        // into the multiplication's consumers
        let (body, desc, mut bound) = example1_seq();
        let mul = first_op(&body, |k| matches!(k, OpKind::Mul));
        let wrong = bound
            .fus
            .iter()
            .find(|f| !f.ops.is_empty() && Some(f.instance) != bound.fu_of[mul])
            .map(|f| f.instance)
            .expect("another used unit exists");
        bound.fu_of[mul] = Some(wrong);
        let err = lower(&body, &desc, &bound, RtlStyle::SharedFu).unwrap_err();
        assert_eq!(
            err,
            LowerError::InvalidBinding(BindError::UnitMismatch {
                op: mul,
                instance: wrong
            })
        );
    }

    #[test]
    fn unit_entries_out_of_order_or_off_schedule_are_refused() {
        let (body, desc, bound) = example1_seq();
        let shared = bound
            .fus
            .iter()
            .find(|f| f.is_shared())
            .expect("shared mul");
        let (r, first) = (shared.instance, shared.ops[0]);
        let refused = LowerError::InvalidBinding(BindError::UnitMismatch {
            op: first.op,
            instance: r,
        });
        // the priority chain would no longer match the steering order
        let mut swapped = bound.clone();
        swapped.fus[r.index()].ops.swap(0, 1);
        let err = lower(&body, &desc, &swapped, RtlStyle::SharedFu).unwrap_err();
        assert_eq!(err, refused);
        // the unit would steer operands in a state the schedule does not use
        let mut moved = bound.clone();
        moved.fus[r.index()].ops[0].state += 1;
        let err = lower(&body, &desc, &moved, RtlStyle::SharedFu).unwrap_err();
        assert_eq!(err, refused);
    }

    #[test]
    fn chained_same_state_ops_on_one_unit_are_refused() {
        // y = (x * 3) * 5 with both multiplications in state 1 on two
        // multipliers, then hand-moved onto one: a shared unit would feed
        // itself combinationally
        let mut dfg = Dfg::new();
        let x = dfg.add_port("x", PortDirection::Input, 16);
        let y = dfg.add_port("y", PortDirection::Output, 16);
        let r = dfg.add_op(OpKind::Read(x), 16, vec![]);
        let m1 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(3, 16)],
        );
        let m2 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(m1, 16), Signal::constant(5, 16)],
        );
        let w = dfg.add_op(OpKind::Write(y), 16, vec![Signal::op_w(m2, 16)]);
        let body = LinearBody::from_dfg("chained", dfg);
        let mut resources = ResourceSet::new();
        let ty = ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16);
        let mul0 = resources.add(ty.clone());
        let mul1 = resources.add(ty);
        let mut ops = BTreeMap::new();
        for (id, state, resource) in [
            (r, 0, None),
            (m1, 1, Some(mul0)),
            (m2, 1, Some(mul1)),
            (w, 2, None),
        ] {
            ops.insert(
                id,
                ScheduledOp {
                    op: id,
                    state,
                    resource,
                },
            );
        }
        let desc = ScheduleDesc {
            num_states: 3,
            ii: None,
            ops,
            resources,
        };
        let mut bound = bind(&body, &desc).expect("two units bind");
        let slot = bound.fus[mul1.index()].ops.remove(0);
        bound.fus[mul0.index()].ops.push(slot);
        bound.fu_of[m2] = Some(mul0);
        let err = lower(&body, &desc, &bound, RtlStyle::SharedFu).unwrap_err();
        assert_eq!(
            err,
            LowerError::InvalidBinding(BindError::SlotConflict {
                a: m1,
                b: m2,
                instance: mul0,
                folded_state: 1
            })
        );
        // the per-op style does not read the binding
        lower(&body, &desc, &bound, RtlStyle::PerOp).expect("per-op lowering");
    }
}
