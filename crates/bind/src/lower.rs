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
//! at cycle `k * cpi + s` (exactly [`ScheduleSim`]'s model). A consumer in
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
//!
//! [`ScheduleSim`]: ../hls_sim/cycle/struct.ScheduleSim.html

use crate::fu::{check_fit, check_slots, slot_op};
use crate::{BindError, BoundDesign};
use hls_ir::dfg::SignalSource;
use hls_ir::{CmpKind, LinearBody, OpId, OpKind, Predicate, Signal};
use hls_netlist::ScheduleDesc;
use hls_nir::{sanitize, BinKind, Cell, CellId, CellKind, NirModule, UnKind};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How operations map onto hardware operators in the lowered netlist.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RtlStyle {
    /// One combinational operator per operation — the pre-binding layout,
    /// kept for ablation: the resource constraints shape the schedule but
    /// the netlist instantiates no shared units.
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
    /// External calls have no structural lowering.
    UnsupportedCall {
        /// The call operation.
        op: OpId,
        /// The callee name.
        name: String,
    },
    /// A consumer samples a value before any register has captured it.
    AcausalRead {
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
            LowerError::UnsupportedCall { op, name } => {
                write!(f, "operation {op:?}: call `{name}` has no netlist lowering")
            }
            LowerError::AcausalRead {
                producer,
                consumer_state,
                distance,
            } => write!(
                f,
                "value of {producer:?} read acausally from state {consumer_state} \
                 at distance {distance}"
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
    let mut lw = Lowerer {
        body,
        desc,
        bound,
        style,
        cpi: desc.cycles_per_iteration(),
        stages: m.stages,
        m,
        cons: HashMap::new(),
        op_cell: HashMap::new(),
        chains: HashMap::new(),
        guards: HashMap::new(),
        fu_out: HashMap::new(),
        building: HashSet::new(),
        fu_building: HashSet::new(),
        dedicated: HashMap::new(),
        dedicated_building: HashSet::new(),
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
    lw.emit_writes()?;
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

/// Incremental netlist builder with hash-consing of combinational cells.
struct Lowerer<'a> {
    body: &'a LinearBody,
    desc: &'a ScheduleDesc,
    bound: &'a BoundDesign,
    style: RtlStyle,
    cpi: u32,
    stages: u32,
    m: NirModule,
    /// Structural hash-consing of combinational/source cells (never `Reg`
    /// or `Output`): identical (kind, width, operands) share one cell.
    cons: HashMap<(CellKind, u16, Vec<CellId>), CellId>,
    /// The combinational value cell of each lowered operation.
    op_cell: HashMap<OpId, CellId>,
    /// Register chains per producer; element `j` is `j + 1` captures deep.
    chains: HashMap<OpId, Vec<CellId>>,
    /// Per unfolded state: the 1-bit capture enable.
    guards: HashMap<u32, CellId>,
    /// Output cell of each built functional unit, by instance index.
    fu_out: HashMap<usize, CellId>,
    building: HashSet<OpId>,
    fu_building: HashSet<usize>,
    /// Dedicated (duplicated) operator cells that break sharing-induced
    /// false combinational loops; see [`Lowerer::dedicated_value`].
    dedicated: HashMap<OpId, CellId>,
    dedicated_building: HashSet<OpId>,
}

impl Lowerer<'_> {
    fn cons(
        &mut self,
        kind: CellKind,
        width: u16,
        inputs: Vec<CellId>,
        name: Option<String>,
    ) -> CellId {
        let key = (kind.clone(), width, inputs.clone());
        if let Some(&id) = self.cons.get(&key) {
            return id;
        }
        let id = self.m.add_cell(Cell {
            kind,
            width,
            inputs,
            name,
        });
        self.cons.insert(key, id);
        id
    }

    fn resized(&mut self, id: CellId, width: u16) -> CellId {
        if self.m.cell(id).width == width {
            id
        } else {
            self.cons(CellKind::Resize, width, vec![id], None)
        }
    }

    fn state_of(&self, op: OpId) -> Result<u32, LowerError> {
        self.desc
            .ops
            .get(&op)
            .map(|s| s.state)
            .ok_or(LowerError::Unscheduled { op })
    }

    /// 1-bit conjunction; an empty part list is constant true.
    fn and_fold(&mut self, parts: &[CellId]) -> CellId {
        let Some((&first, rest)) = parts.split_first() else {
            return self.cons(CellKind::Const(1), 1, vec![], None);
        };
        let mut acc = first;
        for &p in rest {
            acc = self.cons(CellKind::Bin(BinKind::And), 1, vec![acc, p], None);
        }
        acc
    }

    /// The capture enable of unfolded state `s`: `state == s % cpi`
    /// conjoined with the stage-valid bit of `s / cpi` where applicable.
    fn guard(&mut self, s: u32) -> CellId {
        if let Some(&g) = self.guards.get(&s) {
            return g;
        }
        let mut parts = Vec::new();
        if self.cpi > 1 {
            let fsm = self.cons(CellKind::FsmState, 8, vec![], None);
            let c = self.cons(CellKind::Const(i64::from(s % self.cpi)), 8, vec![], None);
            parts.push(self.cons(
                CellKind::Bin(BinKind::Cmp(CmpKind::Eq)),
                1,
                vec![fsm, c],
                None,
            ));
        }
        if self.stages > 1 {
            parts.push(self.cons(
                CellKind::StageValid {
                    stage: s / self.cpi,
                },
                1,
                vec![],
                None,
            ));
        }
        let g = self.and_fold(&parts);
        self.guards.insert(s, g);
        g
    }

    /// Resolves a signal as sampled by a consumer in state `ctx`, with
    /// `extra_d` iteration distance accumulated through inlined free ops.
    fn resolve(&mut self, sig: &Signal, extra_d: u32, ctx: u32) -> Result<CellId, LowerError> {
        self.resolve_depth(sig, extra_d, ctx, 0)
    }

    fn resolve_depth(
        &mut self,
        sig: &Signal,
        extra_d: u32,
        ctx: u32,
        depth: u32,
    ) -> Result<CellId, LowerError> {
        match sig.source {
            SignalSource::Const(v) => Ok(self.cons(CellKind::Const(v), sig.width, vec![], None)),
            SignalSource::Op(p) => {
                let c = self.producer_ref(p, extra_d + sig.distance, ctx, depth)?;
                Ok(self.resized(c, sig.width))
            }
        }
    }

    /// A cell holding operation `p`'s value (at `p`'s width) as observed by
    /// a consumer in state `ctx` at iteration distance `d`.
    fn producer_ref(
        &mut self,
        p: OpId,
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
            if let Some(c) = self.inline_free(p, d, ctx, depth)? {
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
        d: u32,
        ctx: u32,
        depth: u32,
    ) -> Result<Option<CellId>, LowerError> {
        let body = self.body;
        let o = body.dfg.op(p);
        let c = match &o.kind {
            OpKind::Const(v) => self.cons(CellKind::Const(*v), o.width, vec![], None),
            OpKind::Slice { hi, lo } => {
                let inner = self.resolve_depth(&o.inputs[0], d, ctx, depth + 1)?;
                let take = hi.saturating_sub(*lo) + 1;
                let s = self.cons(
                    CellKind::Slice { hi: *hi, lo: *lo },
                    take,
                    vec![inner],
                    None,
                );
                self.resized(s, o.width)
            }
            OpKind::Resize => {
                let inner = self.resolve_depth(&o.inputs[0], d, ctx, depth + 1)?;
                self.resized(inner, o.width)
            }
            OpKind::Pass => match o.inputs.first() {
                Some(inner) => {
                    let inner = *inner;
                    let c = self.resolve_depth(&inner, d, ctx, depth + 1)?;
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
                    let bit = self.cons(CellKind::FirstIter { stage: g }, 1, vec![], None);
                    self.resized(bit, o.width)
                }
                // input-less passes (neutralized ops, live-ins) read as zero
                None => self.cons(CellKind::Const(0), o.width, vec![], None),
            },
            _ => unreachable!("is_free covers Const/Pass/Slice/Resize only"),
        };
        Ok(Some(c))
    }

    /// Element `j` of `p`'s register chain, creating placeholder registers
    /// on demand; inputs are patched by [`Lowerer::fill_chains`].
    fn chain_cell(&mut self, p: OpId, j: usize) -> CellId {
        let body = self.body;
        let w = body.dfg.op(p).width.max(1);
        let base = format!(
            "v_{}_{}",
            p.index(),
            sanitize(&body.dfg.op(p).display_name())
        );
        while self.chains.get(&p).map_or(0, Vec::len) <= j {
            let k = self.chains.get(&p).map_or(0, Vec::len);
            let name = if k == 0 {
                base.clone()
            } else {
                format!("{base}_d{k}")
            };
            let reg = self.m.add_cell(Cell {
                kind: CellKind::Reg { init: 0 },
                width: w,
                inputs: Vec::new(),
                name: Some(name),
            });
            self.chains.entry(p).or_default().push(reg);
        }
        self.chains[&p][j]
    }

    /// The combinational cell computing operation `id`'s value in its own
    /// scheduled state (at the operation's width).
    fn op_value(&mut self, id: OpId) -> Result<CellId, LowerError> {
        if let Some(&c) = self.op_cell.get(&id) {
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
        let on_busy_fu = unit.is_some_and(|r| self.fu_building.contains(&r.index()));
        if self.building.contains(&id) || on_busy_fu {
            return self.dedicated_value(id);
        }
        self.building.insert(id);
        let body = self.body;
        let o = body.dfg.op(id);
        let cell = if let Some(r) = unit {
            let out = self.build_fu(r.index())?;
            self.resized(out, o.width)
        } else {
            let ps = self.state_of(id)?;
            let mut ins = Vec::with_capacity(o.inputs.len());
            for sig in &o.inputs {
                ins.push(self.resolve(sig, 0, ps)?);
            }
            let name = format!("w_{}_{}", id.index(), sanitize(&o.display_name()));
            self.kind_cell(id, &ins, Some(name))?
        };
        self.building.remove(&id);
        self.op_cell.insert(id, cell);
        Ok(cell)
    }

    /// A dedicated (per-op, unshared) operator cell for `id`, used to break
    /// a false combinational loop through a shared unit. The duplicate
    /// computes the same value in the op's own state — the only state in
    /// which any guarded capture or write observes it — so the substitution
    /// is exact; it costs one extra operator, the classic price of breaking
    /// a sharing-induced false path.
    fn dedicated_value(&mut self, id: OpId) -> Result<CellId, LowerError> {
        if let Some(&c) = self.dedicated.get(&id) {
            return Ok(c);
        }
        if !self.dedicated_building.insert(id) {
            // a genuine same-cycle dependency cycle, not a sharing artifact
            return Err(LowerError::CombLoop { op: id });
        }
        let body = self.body;
        let o = body.dfg.op(id);
        let ps = self.state_of(id)?;
        let mut ins = Vec::with_capacity(o.inputs.len());
        for sig in &o.inputs {
            ins.push(self.resolve(sig, 0, ps)?);
        }
        let name = format!("w_{}_{}_dup", id.index(), sanitize(&o.display_name()));
        let cell = self.kind_cell(id, &ins, Some(name))?;
        self.dedicated_building.remove(&id);
        self.dedicated.insert(id, cell);
        Ok(cell)
    }

    /// Builds the computing cell for `id`'s kind over already-resolved
    /// operand cells (one per input signal, at the signal widths); the
    /// result is at the operation's width.
    fn kind_cell(
        &mut self,
        id: OpId,
        ins: &[CellId],
        name: Option<String>,
    ) -> Result<CellId, LowerError> {
        let body = self.body;
        let o = body.dfg.op(id);
        let w = o.width.max(1);
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
            OpKind::Not => self.cons(CellKind::Un(UnKind::Not), w, vec![ins[0]], name),
            OpKind::Neg => self.cons(CellKind::Un(UnKind::Neg), w, vec![ins[0]], name),
            OpKind::Mux => {
                let a = self.resized(ins[1], w);
                let b = self.resized(ins[2], w);
                self.cons(CellKind::Mux { onehot: false }, w, vec![ins[0], a, b], name)
            }
            OpKind::Slice { hi, lo } => {
                let take = hi.saturating_sub(*lo) + 1;
                let s = self.cons(
                    CellKind::Slice { hi: *hi, lo: *lo },
                    take,
                    vec![ins[0]],
                    name,
                );
                self.resized(s, w)
            }
            OpKind::Resize | OpKind::Write(_) => self.resized(ins[0], w),
            OpKind::Const(v) => self.cons(CellKind::Const(*v), w, vec![], name),
            OpKind::Read(p) => {
                let ps = self.state_of(id)?;
                let pw = body.dfg.port(*p).width.max(1);
                let i = self.cons(
                    CellKind::Input {
                        port: p.index() as u32,
                        state: ps,
                    },
                    pw,
                    vec![],
                    name,
                );
                self.resized(i, w)
            }
            OpKind::Pass => match ins.first() {
                Some(&i) => self.resized(i, w),
                None if o.is_first_iter_anchor() => {
                    let ps = self.state_of(id)?;
                    let bit = self.cons(
                        CellKind::FirstIter {
                            stage: ps / self.cpi.max(1),
                        },
                        1,
                        vec![],
                        name,
                    );
                    self.resized(bit, w)
                }
                None => self.cons(CellKind::Const(0), w, vec![], name),
            },
            OpKind::Call { name: callee, .. } => {
                return Err(LowerError::UnsupportedCall {
                    op: id,
                    name: callee.clone(),
                })
            }
        };
        Ok(cell)
    }

    fn bin_cell(
        &mut self,
        (b, lhs, rhs): (BinKind, Option<CellId>, Option<CellId>),
        w: u16,
        name: Option<String>,
    ) -> CellId {
        let lhs = lhs.expect("binary op has two inputs");
        let rhs = rhs.expect("binary op has two inputs");
        self.cons(CellKind::Bin(b), w, vec![lhs, rhs], name)
    }

    /// Builds (once) the shared unit for resource instance `r`: one steered
    /// operand mux chain per port, one kind arm per bound operation and a
    /// steered output chain. Returns the output cell (at the unit's widest
    /// operation width).
    fn build_fu(&mut self, r: usize) -> Result<CellId, LowerError> {
        if let Some(&out) = self.fu_out.get(&r) {
            return Ok(out);
        }
        let body = self.body;
        let ops = self.bound.fus[r].ops.clone();
        if !self.fu_building.insert(r) {
            return Err(LowerError::CombLoop {
                op: ops.first().map(|s| s.op).unwrap_or(OpId::from_raw(0)),
            });
        }
        let prefix = format!("fu_{}_{}", r, sanitize(&self.bound.fus[r].name));
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
        let mut conds: Vec<Option<CellId>> = Vec::new();
        for (i, s) in ops.iter().enumerate() {
            if i + 1 == ops.len() {
                conds.push(None);
                continue;
            }
            let mut parts = Vec::new();
            if self.cpi > 1 {
                let fsm = self.cons(CellKind::FsmState, 8, vec![], None);
                let c = self.cons(CellKind::Const(i64::from(s.folded_state)), 8, vec![], None);
                parts.push(self.cons(
                    CellKind::Bin(BinKind::Cmp(CmpKind::Eq)),
                    1,
                    vec![fsm, c],
                    None,
                ));
            }
            if self.stages > 1 {
                parts.push(self.cons(CellKind::StageValid { stage: s.stage }, 1, vec![], None));
            }
            let pred = &body.dfg.op(s.op).predicate;
            if slot_count(s.folded_state) > 1
                && last_in_slot(s.folded_state) != Some(s.op)
                && !pred.is_true()
            {
                parts.push(self.pred_cell(pred, s.state)?);
            }
            conds.push(Some(self.and_fold(&parts)));
        }

        // Operand ports: each a priority chain over the bound operations'
        // resolved sources, resized to the port width (the widest source).
        let mut nets = Vec::with_capacity(nports);
        for q in 0..nports {
            let pw = ops
                .iter()
                .filter_map(|s| body.dfg.op(s.op).inputs.get(q).map(|g| g.width))
                .max()
                .unwrap_or(1)
                .max(1);
            let mut arms = Vec::with_capacity(ops.len());
            for s in &ops {
                let arm = match body.dfg.op(s.op).inputs.get(q) {
                    Some(sig) => {
                        let c = self.resolve(sig, 0, s.state)?;
                        self.resized(c, pw)
                    }
                    None => self.cons(CellKind::Const(0), pw, vec![], None),
                };
                arms.push(arm);
            }
            nets.push(self.priority_chain(&conds, &arms, pw, format!("{prefix}_in{q}")));
        }

        // The unit's output: the steered operation kind over the port nets.
        // Each arm carries its operation's display name (first name sticks
        // when sharing collapses the arms onto one consed cell), so source
        // variable names survive into the netlist even for unshared units.
        let mut arms = Vec::with_capacity(ops.len());
        for s in &ops {
            let widths: Vec<u16> = body.dfg.op(s.op).inputs.iter().map(|g| g.width).collect();
            let ins: Vec<CellId> = widths
                .iter()
                .enumerate()
                .map(|(q, &gw)| self.resized(nets[q], gw))
                .collect();
            let name = format!(
                "w_{}_{}",
                s.op.index(),
                sanitize(&body.dfg.op(s.op).display_name())
            );
            let cell = self.kind_cell(s.op, &ins, Some(name))?;
            arms.push(self.resized(cell, out_w));
        }
        let out = self.priority_chain(&conds, &arms, out_w, prefix);
        self.fu_building.remove(&r);
        self.fu_out.insert(r, out);
        Ok(out)
    }

    /// Right-associated mux priority chain; the last arm is the
    /// unconditional default, and the head mux carries the display name.
    /// The muxes are marked `onehot` for the rebalancing rewrite.
    fn priority_chain(
        &mut self,
        conds: &[Option<CellId>],
        arms: &[CellId],
        w: u16,
        name: String,
    ) -> CellId {
        let mut acc = *arms.last().expect("at least one bound operation");
        if arms.len() == 1 {
            // Degenerate chain (unshared unit): no mux to carry the display
            // name, so attach it to the arm itself when still unnamed.
            if self.m.cell(acc).name.is_none() {
                self.m.cells[acc.index()].name = Some(name);
            }
            return acc;
        }
        for i in (0..arms.len() - 1).rev() {
            let c = conds[i].expect("non-last arms carry a steering condition");
            let head = if i == 0 { Some(name.clone()) } else { None };
            acc = self.cons(
                CellKind::Mux { onehot: true },
                w,
                vec![c, arms[i], acc],
                head,
            );
        }
        acc
    }

    /// A 1-bit cell evaluating a predicate as sampled in state `ctx`.
    fn pred_cell(&mut self, p: &Predicate, ctx: u32) -> Result<CellId, LowerError> {
        match p {
            Predicate::True => Ok(self.cons(CellKind::Const(1), 1, vec![], None)),
            Predicate::Cond(c) => self.cond_bit(*c, ctx),
            Predicate::NotCond(c) => {
                let b = self.cond_bit(*c, ctx)?;
                Ok(self.cons(CellKind::Un(UnKind::Not), 1, vec![b], None))
            }
            Predicate::And(ps) => {
                let mut parts = Vec::with_capacity(ps.len());
                for q in ps {
                    parts.push(self.pred_cell(q, ctx)?);
                }
                Ok(self.and_fold(&parts))
            }
        }
    }

    /// The truth bit of a condition operation: the value itself when 1 bit
    /// wide, a non-zero test otherwise (`is_true` semantics).
    fn cond_bit(&mut self, c: OpId, ctx: u32) -> Result<CellId, LowerError> {
        let v = self.producer_ref(c, 0, ctx, 0)?;
        let w = self.m.cell(v).width;
        if w == 1 {
            return Ok(v);
        }
        let z = self.cons(CellKind::Const(0), w, vec![], None);
        Ok(self.cons(
            CellKind::Bin(BinKind::Cmp(CmpKind::Ne)),
            1,
            vec![v, z],
            None,
        ))
    }

    /// One `Output` cell per scheduled write, enabled by the write state's
    /// guard conjoined with the write's predicate.
    fn emit_writes(&mut self) -> Result<(), LowerError> {
        let body = self.body;
        for (id, so) in &self.desc.ops {
            let o = body.dfg.op(*id);
            let OpKind::Write(pid) = o.kind else { continue };
            let ws = so.state;
            let c = self.resolve(&o.inputs[0], 0, ws)?;
            let v = self.resized(c, o.width.max(1));
            let pw = body.dfg.port(pid).width.max(1);
            let v = self.resized(v, pw);
            let mut en = self.guard(ws);
            if !o.predicate.is_true() {
                let pc = self.pred_cell(&o.predicate, ws)?;
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
        let mut done: HashSet<OpId> = HashSet::new();
        loop {
            let mut todo: Vec<OpId> = self
                .chains
                .keys()
                .copied()
                .filter(|p| !done.contains(p))
                .collect();
            if todo.is_empty() {
                break;
            }
            todo.sort();
            for p in todo {
                self.op_value(p)?;
                done.insert(p);
            }
        }
        let mut keys: Vec<OpId> = self.chains.keys().copied().collect();
        keys.sort();
        for p in keys {
            let ps = self.state_of(p)?;
            let en = self.guard(ps);
            let value = self.op_value(p)?;
            let chain = self.chains[&p].clone();
            let w = self.m.cell(chain[0]).width;
            let head = self.resized(value, w);
            for (k, reg) in chain.iter().enumerate() {
                let d = if k == 0 { head } else { chain[k - 1] };
                self.m.cells[reg.index()].inputs = vec![d, en];
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
