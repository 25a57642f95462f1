//! Verified rewrite passes over a [`NirModule`].
//!
//! One untimed family runs after lowering, in [`optimize`]:
//!
//! * **normalization** — constant folding plus identity simplification
//!   (mux with constant select, `x*1`, `x+0`, full-range slices, identity
//!   resizes, …). Every replacement produces a cell of the *same width* as
//!   the replaced one, so consumers never change meaning.
//!
//! The lowered FU steering chains stay linear priority muxes. The
//! sign-off analyzer charges each one as a single `mux_n` by its leaf
//! fan-in, as synthesis would build it, so rebuilding them here would grow
//! the netlist without moving its timing.
//!
//! The restructuring family runs only under the timing-driven loop
//! (`hls_lint::optimize_timed`), gated to cells on negative-slack cones via
//! an `eligible` mask so timing-clean netlists are never churned:
//!
//! * **operator chain rebalancing** ([`rebalance_operator_chains`]) —
//!   associative `add`/`mul`/`and`/`or`/`xor` reduction spines rebuilt as
//!   balanced trees, `ceil(log2 n)` deep instead of `n-1`;
//! * **shift strength reduction** ([`strength_reduce_shifts`]) — an
//!   arithmetic right shift by a constant becomes a sign-extended slice,
//!   which is wiring (0 ps) instead of a barrel shifter;
//! * **register retiming** ([`retime_registers`]) — a register bank feeding
//!   pure combinational logic moves forward across it, splitting the
//!   downstream path at the cost of the upstream one.
//!
//! A final mark-and-sweep from the output cells drops everything the
//! rewrites orphaned and compacts the arena. The synthesis driver re-runs
//! the differential harness on the rewritten netlist, so each pass is proven
//! safe on every verified design, not just argued safe.

use crate::model::{BinKind, Cell, CellId, CellKind, NirModule};
use hls_ir::{eval_op, BitVal, OpKind};

/// What the untimed rewrite pipeline did.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RewriteReport {
    /// Cells replaced by normalization (constant folding + identities).
    pub normalized: usize,
    /// Dead cells removed by the final sweep.
    pub swept: usize,
}

/// Runs the untimed rewrite pipeline in place: normalize to fixpoint, then
/// sweep dead cells.
pub fn optimize(m: &mut NirModule) -> RewriteReport {
    let normalized = normalize(m);
    let swept = sweep(m);
    RewriteReport { normalized, swept }
}

fn const_of(m: &NirModule, id: CellId) -> Option<BitVal> {
    match m.cell(id).kind {
        CellKind::Const(v) => Some(BitVal::new(v, m.cell(id).width)),
        _ => None,
    }
}

/// Returns `id` as-is when it already has width `w`, otherwise appends a
/// `Resize` cell. Used by identity rules whose surviving operand has a
/// different width than the replaced cell.
fn resized(m: &mut NirModule, id: CellId, w: u16) -> CellId {
    if m.cell(id).width == w {
        id
    } else {
        m.push(CellKind::Resize, w, vec![id])
    }
}

fn const_cell(m: &mut NirModule, value: i64, w: u16) -> CellId {
    let canon = BitVal::new(value, w).as_i64();
    m.push(CellKind::Const(canon), w, vec![])
}

/// The `OpKind` to constant-fold a pure combinational cell with, if any.
fn fold_kind(kind: &CellKind) -> Option<OpKind> {
    match kind {
        CellKind::Bin(b) => Some(b.op_kind()),
        CellKind::Un(u) => Some(u.op_kind()),
        CellKind::Mux => Some(OpKind::Mux),
        CellKind::Slice { hi, lo } => Some(OpKind::Slice { hi: *hi, lo: *lo }),
        CellKind::Resize => Some(OpKind::Resize),
        _ => None,
    }
}

/// Constant folding and identity normalization, iterated to fixpoint.
/// Returns the number of cells replaced. Replaced cells are left in place
/// (dead) for [`sweep`] to reclaim; all consumers are re-pointed.
pub fn normalize(m: &mut NirModule) -> usize {
    let mut repl: Vec<Option<CellId>> = vec![None; m.cells.len()];
    let mut replaced = 0usize;

    // Union-find-ish resolution with path compression over the replacement
    // map; replacement chains stay short but compress anyway.
    fn find(repl: &mut Vec<Option<CellId>>, id: CellId) -> CellId {
        match repl.get(id.index()).copied().flatten() {
            None => id,
            Some(next) => {
                let root = find(repl, next);
                repl[id.index()] = Some(root);
                root
            }
        }
    }

    loop {
        let mut changed = false;
        let mut i = 0;
        while i < m.cells.len() {
            let id = CellId::from_raw(i as u32);
            // Keep the map sized for cells appended by `resized`.
            if repl.len() < m.cells.len() {
                repl.resize(m.cells.len(), None);
            }
            // Re-point operands through the replacement map first.
            let n_inputs = m.cells[i].inputs.len();
            for k in 0..n_inputs {
                let cur = m.cells[i].inputs[k];
                let root = find(&mut repl, cur);
                if root != cur {
                    m.cells[i].inputs[k] = root;
                }
            }
            if repl[i].is_none() {
                if let Some(target) = simplify(m, id) {
                    debug_assert_eq!(m.cell(target).width, m.cells[i].width);
                    repl[i] = Some(target);
                    replaced += 1;
                    changed = true;
                }
            }
            i += 1;
        }
        if !changed {
            break;
        }
    }
    replaced
}

/// One normalization step for the cell `id`, or `None` when no rule applies.
/// Every returned cell has the same width as `id`.
fn simplify(m: &mut NirModule, id: CellId) -> Option<CellId> {
    let cell = m.cell(id);
    let w = cell.width;
    let inputs = cell.inputs.clone();
    let kind = cell.kind.clone();

    // Full constant folding via the shared evaluator.
    if let Some(op) = fold_kind(&kind) {
        let consts: Option<Vec<BitVal>> = inputs.iter().map(|&i| const_of(m, i)).collect();
        if let Some(vals) = consts {
            if let Ok(v) = eval_op(&op, w, &vals) {
                return Some(const_cell(m, v.as_i64(), w));
            }
        }
    }

    match kind {
        CellKind::Mux => {
            if let Some(sel) = const_of(m, inputs[0]) {
                // constant select: forward the chosen arm (arm width == w)
                return Some(if sel.is_true() { inputs[1] } else { inputs[2] });
            }
            if inputs[1] == inputs[2] {
                return Some(inputs[1]);
            }
            None
        }
        CellKind::Bin(b) => {
            let lc = const_of(m, inputs[0]);
            let rc = const_of(m, inputs[1]);
            let fwd = |m: &mut NirModule, keep: CellId| Some(resized(m, keep, w));
            // Same-operand identities: the value cancels (`x-x`, `x^x`),
            // passes through (`x&x`, `x|x`), or the comparison is decided
            // by reflexivity regardless of the operand's runtime value.
            if inputs[0] == inputs[1] {
                match b {
                    BinKind::Sub | BinKind::Xor => return Some(const_cell(m, 0, w)),
                    BinKind::And | BinKind::Or => return fwd(m, inputs[0]),
                    BinKind::Cmp(c) => {
                        let v = matches!(
                            c,
                            hls_ir::CmpKind::Eq | hls_ir::CmpKind::Ge | hls_ir::CmpKind::Le
                        );
                        return Some(const_cell(m, i64::from(v), w));
                    }
                    _ => {}
                }
            }
            match b {
                BinKind::Add => {
                    if rc.as_ref().is_some_and(|v| v.as_i64() == 0) {
                        return fwd(m, inputs[0]);
                    }
                    if lc.as_ref().is_some_and(|v| v.as_i64() == 0) {
                        return fwd(m, inputs[1]);
                    }
                    None
                }
                BinKind::Sub => {
                    if rc.as_ref().is_some_and(|v| v.as_i64() == 0) {
                        return fwd(m, inputs[0]);
                    }
                    None
                }
                BinKind::Mul => {
                    if rc.as_ref().is_some_and(|v| v.as_i64() == 1) {
                        return fwd(m, inputs[0]);
                    }
                    if lc.as_ref().is_some_and(|v| v.as_i64() == 1) {
                        return fwd(m, inputs[1]);
                    }
                    if lc.as_ref().is_some_and(|v| v.as_i64() == 0)
                        || rc.as_ref().is_some_and(|v| v.as_i64() == 0)
                    {
                        return Some(const_cell(m, 0, w));
                    }
                    None
                }
                BinKind::And => {
                    if lc.as_ref().is_some_and(|v| v.as_i64() == 0)
                        || rc.as_ref().is_some_and(|v| v.as_i64() == 0)
                    {
                        return Some(const_cell(m, 0, w));
                    }
                    if rc.as_ref().is_some_and(|v| v.as_i64() == -1) {
                        return fwd(m, inputs[0]);
                    }
                    if lc.as_ref().is_some_and(|v| v.as_i64() == -1) {
                        return fwd(m, inputs[1]);
                    }
                    None
                }
                BinKind::Or | BinKind::Xor => {
                    if rc.as_ref().is_some_and(|v| v.as_i64() == 0) {
                        return fwd(m, inputs[0]);
                    }
                    if lc.as_ref().is_some_and(|v| v.as_i64() == 0) {
                        return fwd(m, inputs[1]);
                    }
                    None
                }
                BinKind::Shl | BinKind::Shr => {
                    if rc.as_ref().is_some_and(|v| v.as_u64() == 0) {
                        return fwd(m, inputs[0]);
                    }
                    None
                }
                _ => None,
            }
        }
        CellKind::Slice { hi, lo } => {
            let iw = m.cell(inputs[0]).width;
            if lo == 0 && hi + 1 == iw && w == iw {
                return Some(inputs[0]);
            }
            None
        }
        CellKind::Resize => {
            if m.cell(inputs[0]).width == w {
                return Some(inputs[0]);
            }
            None
        }
        _ => None,
    }
}

/// Whether an `eligible` criticality mask admits the cell at arena index
/// `i`. `None` means every cell is eligible; cells appended after the mask
/// was computed (by an earlier rewrite in the same round) are not.
fn is_eligible(eligible: Option<&[bool]>, i: usize) -> bool {
    match eligible {
        None => true,
        Some(mask) => mask.get(i).copied().unwrap_or(false),
    }
}

/// The associative [`BinKind`]s safe to reassociate at a fixed width: for
/// `add`/`mul` because arithmetic mod 2^w is associative, for the bitwise
/// ops trivially.
fn associative(b: BinKind) -> bool {
    matches!(
        b,
        BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor
    )
}

/// Flattens the reduction tree rooted at `id` (a `Bin(b)` cell): recurses
/// through single-use same-op operands whose width is at least `root_w`,
/// collecting the leaf operands in evaluation order and the interior cells
/// passed through. Returns the nesting depth of the flattened region.
///
/// The width gate is what makes reassociation overflow-safe: every interior
/// wraps at its own width `w_i`, and `w_i ≥ root_w` means the low `root_w`
/// bits — the only ones the root keeps — equal the low bits of the
/// unwrapped reduction, for `add`/`mul` (mod 2^w arithmetic) and the
/// bitwise ops alike. A narrower interior truncates information the root
/// would still see, so it stays a leaf.
fn flatten_op_tree(
    m: &NirModule,
    use_count: &[u32],
    id: CellId,
    b: BinKind,
    root_w: u16,
    leaves: &mut Vec<CellId>,
    interiors: &mut Vec<CellId>,
) -> u32 {
    let mut depth = 0;
    for &x in &m.cell(id).inputs {
        let fuse = matches!(m.cell(x).kind, CellKind::Bin(k) if k == b)
            && use_count.get(x.index()).is_some_and(|&u| u == 1)
            && m.cell(x).width >= root_w;
        if fuse {
            interiors.push(x);
            depth = depth.max(flatten_op_tree(
                m, use_count, x, b, root_w, leaves, interiors,
            ));
        } else {
            leaves.push(x);
        }
    }
    depth + 1
}

/// Balanced reduction tree of `Bin(b)` cells at width `w` over `leaves`,
/// preserving evaluation order (reassociation needs associativity only, not
/// commutativity). The caller guarantees at least two leaves.
fn build_op_tree(m: &mut NirModule, b: BinKind, leaves: &[CellId], w: u16) -> CellId {
    if leaves.len() == 1 {
        return leaves[0];
    }
    let mid = leaves.len().div_ceil(2);
    let l = build_op_tree(m, b, &leaves[..mid], w);
    let r = build_op_tree(m, b, &leaves[mid..], w);
    m.push(CellKind::Bin(b), w, vec![l, r])
}

/// Rebuilds associative operator reduction spines — `add`/`mul`/`and`/`or`/
/// `xor` chains at least 3 deep — as balanced trees, `ceil(log2 n)` deep
/// for `n` leaves. Only chains whose root passes the `eligible` mask are
/// touched (the timed loop passes the negative-slack cone; `None` means
/// everything). Returns the number of chains rebuilt.
///
/// Interiors must be single-use (a tapped intermediate is side-observable
/// and stays a leaf) and at least as wide as the root (see
/// [`flatten_op_tree`] for why that makes the rebuild overflow-safe). A
/// rebuild happens only when it strictly reduces depth, which also makes
/// the pass idempotent: a balanced tree re-flattens to its own depth.
pub fn rebalance_operator_chains(m: &mut NirModule, eligible: Option<&[bool]>) -> usize {
    let use_count = m.use_counts();
    // Consumers before producers, so a chain is flattened from its true
    // root and its interiors are never revisited as roots of sub-chains.
    let order: Vec<CellId> = m.comb_topo_order().into_iter().rev().collect();
    let mut consumed = vec![false; m.cells.len()];
    let mut rebuilt = 0usize;
    for id in order {
        let i = id.index();
        if consumed[i] || !is_eligible(eligible, i) {
            continue;
        }
        let CellKind::Bin(b) = m.cell(id).kind else {
            continue;
        };
        if !associative(b) {
            continue;
        }
        let w = m.cell(id).width;
        let mut leaves = Vec::new();
        let mut interiors = Vec::new();
        let depth = flatten_op_tree(m, &use_count, id, b, w, &mut leaves, &mut interiors);
        let balanced = (leaves.len() as f64).log2().ceil() as u32;
        if depth < 3 || balanced >= depth {
            continue;
        }
        for &x in &interiors {
            consumed[x.index()] = true;
        }
        let root = build_op_tree(m, b, &leaves, w);
        // Overwrite the root in place so consumers stay pointed at it; the
        // flattened interiors become dead and are swept.
        let root_cell = m.cell(root).clone();
        m.cells[i].kind = root_cell.kind;
        m.cells[i].inputs = root_cell.inputs;
        rebuilt += 1;
    }
    rebuilt
}

/// Replaces arithmetic right shifts by a constant with sign-extended
/// slices, which the delay model (and real hardware) treats as wiring:
/// `shr(x, c)` reads bits `[iw-1 : c]` of `x` and sign-extends them to the
/// output width — exactly what [`hls_ir::eval_op`] computes, including the
/// saturating cases `c ≥ iw` (a pure sign fill, one bit sliced) and output
/// widths narrower or wider than the field. Shifts by a non-constant amount
/// and left shifts (which would need zero fill, not expressible as a slice)
/// are left alone. Returns the number of shifts reduced.
pub fn strength_reduce_shifts(m: &mut NirModule, eligible: Option<&[bool]>) -> usize {
    let n = m.cells.len();
    let mut reduced = 0usize;
    for i in 0..n {
        if !matches!(m.cells[i].kind, CellKind::Bin(BinKind::Shr)) || !is_eligible(eligible, i) {
            continue;
        }
        let x = m.cells[i].inputs[0];
        let amt = m.cells[i].inputs[1];
        let CellKind::Const(v) = m.cell(amt).kind else {
            continue;
        };
        // The evaluator reads shift amounts zero-extended (`as_u64`), so a
        // negative-looking constant is a large amount, i.e. a sign fill.
        let c = BitVal::new(v, m.cell(amt).width).as_u64();
        if c == 0 {
            // `x >> 0` is normalize's identity-forwarding job.
            continue;
        }
        let w = m.cells[i].width;
        let iw = m.cell(x).width;
        let hi = iw - 1;
        let lo = c.min(u64::from(hi)) as u16;
        let sw = hi - lo + 1;
        if sw == w {
            m.cells[i].kind = CellKind::Slice { hi, lo };
            m.cells[i].inputs = vec![x];
        } else {
            let s = m.push(CellKind::Slice { hi, lo }, sw, vec![x]);
            m.cells[i].kind = CellKind::Resize;
            m.cells[i].inputs = vec![s];
        }
        reduced += 1;
    }
    reduced
}

/// Moves a register bank forward across the pure combinational cell it
/// feeds: a `Bin`/`Un` cell whose operands are all constants or single-use
/// registers sharing one enable becomes a register (same [`CellId`], so
/// consumers are untouched) capturing the operation applied to the old
/// registers' data inputs, with its initial value the operation folded over
/// the old initial values. Returns the number of cells retimed.
///
/// Correctness is pointwise by induction over cycles: with `R'` the new
/// register and `C = f(R1..Rn)` the old cell, `R'(0) = f(inits) = C(0)`;
/// on an enabled edge every `Ri` captures its data `di` while `R'` captures
/// `f(d1..dn)`, and on a disabled edge all of them hold — either way
/// `R'(t) = f(R1(t)..Rn(t)) = C(t)` for every `t`, including self-loops
/// (a register whose data is the cell itself re-points at the new
/// register). The single-use gate keeps the old registers unobservable so
/// they sweep away; the shared-enable gate is what makes the captures move
/// in lockstep.
pub fn retime_registers(m: &mut NirModule, eligible: Option<&[bool]>) -> usize {
    let n = m.cells.len();
    let use_count = m.use_counts();
    let mut moved = 0usize;
    for i in 0..n {
        let id = CellId::from_raw(i as u32);
        let op = match &m.cell(id).kind {
            CellKind::Bin(b) => b.op_kind(),
            CellKind::Un(u) => u.op_kind(),
            _ => continue,
        };
        if !is_eligible(eligible, i) {
            continue;
        }
        let w = m.cell(id).width;
        let inputs = m.cell(id).inputs.clone();
        // Every operand: a constant, or a register observed only here (a
        // multi-use register must stay — removing it would change its other
        // observers). All registers must share one enable cell so the moved
        // capture fires on exactly the same edges.
        let mut enable: Option<CellId> = None;
        let mut movable = true;
        for &x in &inputs {
            match m.cell(x).kind {
                CellKind::Const(_) => {}
                CellKind::Reg { .. } if use_count[x.index()] == 1 => {
                    let en = m.cell(x).inputs[1];
                    if enable.is_some_and(|e| e != en) {
                        movable = false;
                        break;
                    }
                    enable = Some(en);
                }
                _ => {
                    movable = false;
                    break;
                }
            }
        }
        let Some(en) = enable else { continue };
        if !movable {
            continue;
        }
        let init_vals: Vec<BitVal> = inputs
            .iter()
            .map(|&x| {
                let c = m.cell(x);
                match c.kind {
                    CellKind::Const(v) => BitVal::new(v, c.width),
                    CellKind::Reg { init } => BitVal::new(init, c.width),
                    _ => unreachable!("gated above"),
                }
            })
            .collect();
        let Ok(new_init) = eval_op(&op, w, &init_vals) else {
            continue;
        };
        // The moved logic must see exactly what each register captured:
        // its data operand at the register's own width (`resized` is a
        // no-op on validated netlists, where reg data width == reg width).
        let new_inputs: Vec<CellId> = inputs
            .iter()
            .map(|&x| match m.cell(x).kind {
                CellKind::Const(_) => x,
                CellKind::Reg { .. } => {
                    let data = m.cell(x).inputs[0];
                    let rw = m.cell(x).width;
                    resized(m, data, rw)
                }
                _ => unreachable!("gated above"),
            })
            .collect();
        let kind = m.cells[i].kind.clone();
        let comb = m.push(kind, w, new_inputs);
        m.cells[i].kind = CellKind::Reg {
            init: new_init.as_i64(),
        };
        m.cells[i].inputs = vec![comb, en];
        moved += 1;
    }
    moved
}

/// Mark-and-sweep from the output cells: removes unreachable cells and
/// compacts ids. Returns the number of cells removed. A module without any
/// output cells is left untouched.
pub fn sweep(m: &mut NirModule) -> usize {
    let n = m.cells.len();
    if !m
        .cells
        .iter()
        .any(|c| matches!(c.kind, CellKind::Output { .. }))
    {
        return 0;
    }
    let live = m.live_cells();
    let dead = live.iter().filter(|&&l| !l).count();
    if dead == 0 {
        return 0;
    }
    let mut remap = vec![CellId::from_raw(0); n];
    let mut kept: Vec<Cell> = Vec::with_capacity(n - dead);
    for (i, cell) in m.cells.drain(..).enumerate() {
        if live[i] {
            remap[i] = CellId::from_raw(kept.len() as u32);
            kept.push(cell);
        }
    }
    for cell in &mut kept {
        for input in &mut cell.inputs {
            *input = remap[input.index()];
        }
    }
    m.cells = kept;
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NirModule;
    use crate::validate::validate;
    use hls_ir::{Port, PortDirection};

    fn shell() -> NirModule {
        let mut m = NirModule::new("t");
        m.ports.push(Port {
            name: "o".into(),
            direction: PortDirection::Output,
            width: 8,
        });
        m
    }

    fn finish(m: &mut NirModule, data: CellId) {
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let d8 = resized(m, data, 8);
        m.push(CellKind::Output { port: 0, state: 0 }, 8, vec![d8, en]);
    }

    #[test]
    fn folds_constants_through_the_evaluator() {
        let mut m = shell();
        let a = m.push(CellKind::Const(200), 8, vec![]);
        let b = m.push(CellKind::Const(100), 8, vec![]);
        let s = m.push(CellKind::Bin(BinKind::Add), 8, vec![a, b]);
        finish(&mut m, s);
        let r = optimize(&mut m);
        assert!(r.normalized >= 1);
        validate(&m).unwrap();
        // 200 + 100 wraps to 44 at 8 bits signed
        let out = m
            .iter_cells()
            .find(|(_, c)| matches!(c.kind, CellKind::Output { .. }))
            .unwrap()
            .1
            .inputs[0];
        assert_eq!(m.cell(out).kind, CellKind::Const(44));
    }

    #[test]
    fn forwards_identities_with_width_preserved() {
        let mut m = shell();
        let x = m.push(CellKind::Const(5), 4, vec![]); // opaque? it's const...
        let one = m.push(CellKind::Const(1), 8, vec![]);
        // keep x opaque by running through a register
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = m.push(CellKind::Reg { init: 0 }, 4, vec![x, en]);
        let rz = m.push(CellKind::Resize, 8, vec![r]);
        let prod = m.push(CellKind::Bin(BinKind::Mul), 8, vec![rz, one]);
        finish(&mut m, prod);
        let _ = optimize(&mut m);
        validate(&m).unwrap();
        // the multiply by one is gone
        assert_eq!(m.stats().count_bin(BinKind::Mul), 0);
    }

    #[test]
    fn mux_constant_select_forwards_an_arm() {
        let mut m = shell();
        let t = m.push(CellKind::Const(1), 1, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let x = m.push(CellKind::Input { port: 1, state: 0 }, 8, vec![]);
        m.ports.push(Port {
            name: "i".into(),
            direction: PortDirection::Input,
            width: 8,
        });
        let r = m.push(CellKind::Reg { init: 0 }, 8, vec![x, en]);
        let other = m.push(CellKind::Const(9), 8, vec![]);
        let mx = m.push(CellKind::Mux, 8, vec![t, r, other]);
        finish(&mut m, mx);
        let _ = optimize(&mut m);
        validate(&m).unwrap();
        assert_eq!(m.stats().muxes(), 0);
    }

    /// Cycle-0 combinational snapshot: registers read as their initial
    /// values, so two modules that must be behaviourally identical can be
    /// compared by folding their output data cones through the shared
    /// evaluator.
    fn snapshot_eval(m: &NirModule, id: CellId, memo: &mut Vec<Option<BitVal>>) -> BitVal {
        if let Some(v) = memo[id.index()] {
            return v;
        }
        let cell = m.cell(id);
        let v = match &cell.kind {
            CellKind::Const(c) => BitVal::new(*c, cell.width),
            CellKind::Reg { init } => BitVal::new(*init, cell.width),
            _ => {
                let ins: Vec<BitVal> = cell
                    .inputs
                    .iter()
                    .map(|&x| snapshot_eval(m, x, memo))
                    .collect();
                eval_op(&fold_kind(&cell.kind).expect("pure cell"), cell.width, &ins)
                    .expect("evaluates")
            }
        };
        memo[id.index()] = Some(v);
        v
    }

    fn output_values(m: &NirModule) -> Vec<BitVal> {
        let mut memo = vec![None; m.num_cells()];
        m.iter_cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Output { .. }))
            .map(|(_, c)| c.inputs[0])
            .collect::<Vec<_>>()
            .into_iter()
            .map(|d| snapshot_eval(m, d, &mut memo))
            .collect()
    }

    #[test]
    fn rebalances_operator_chains_and_is_idempotent() {
        // r0 + r1 + ... + r7 as a linear spine: depth 7 → balanced depth 3.
        let mut m = shell();
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let mut regs = Vec::new();
        for k in 0..8i64 {
            let c = m.push(CellKind::Const(k + 1), 8, vec![]);
            let r = m.push(CellKind::Reg { init: 3 * k }, 8, vec![c, en]);
            regs.push(r);
        }
        let mut acc = regs[0];
        for &r in &regs[1..] {
            acc = m.push(CellKind::Bin(BinKind::Add), 8, vec![acc, r]);
        }
        finish(&mut m, acc);
        let reference = m.clone();
        let rebuilt = rebalance_operator_chains(&mut m, None);
        assert_eq!(rebuilt, 1);
        sweep(&mut m);
        validate(&m).unwrap();
        assert_eq!(output_values(&m), output_values(&reference));
        // depth: longest add-to-add input chain is now ceil(log2 8) = 3
        let depth_of = |m: &NirModule| {
            let mut d = vec![0u32; m.num_cells()];
            let mut max = 0;
            for id in m.comb_topo_order() {
                if let CellKind::Bin(BinKind::Add) = m.cell(id).kind {
                    let c = m.cell(id);
                    let inner = c.inputs.iter().map(|&x| d[x.index()]).max().unwrap_or(0);
                    d[id.index()] = inner + 1;
                    max = max.max(d[id.index()]);
                }
            }
            max
        };
        assert_eq!(depth_of(&m), 3, "balanced");
        // idempotent: a second run finds nothing to improve
        let again = rebalance_operator_chains(&mut m, None);
        assert_eq!(again, 0);
    }

    #[test]
    fn operator_rebalance_respects_taps_widths_and_masks() {
        // A chain whose interior is observed elsewhere keeps the tap as a
        // leaf; a narrower interior is never flattened through (its wrap is
        // observable); an eligibility mask that misses the root is a no-op.
        let mut m = shell();
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let mut regs = Vec::new();
        for k in 0..6i64 {
            let c = m.push(CellKind::Const(k), 8, vec![]);
            let r = m.push(CellKind::Reg { init: 17 * k + 1 }, 8, vec![c, en]);
            regs.push(r);
        }
        // narrow = (r0 + r1) at 4 bits — wraps differently than at 8
        let narrow = m.push(CellKind::Bin(BinKind::Add), 4, vec![regs[0], regs[1]]);
        let mut acc: CellId = narrow;
        for &r in &regs[2..] {
            acc = m.push(CellKind::Bin(BinKind::Add), 8, vec![acc, r]);
        }
        finish(&mut m, acc);
        let reference = m.clone();
        let mask = vec![false; m.num_cells()];
        assert_eq!(rebalance_operator_chains(&mut m, Some(&mask)), 0);
        assert_eq!(m, reference, "masked-out roots are untouched");
        let rebuilt = rebalance_operator_chains(&mut m, None);
        assert_eq!(rebuilt, 1);
        validate(&m).unwrap();
        assert_eq!(output_values(&m), output_values(&reference));
        // the 4-bit interior survives as a leaf of the rebuilt tree
        assert_eq!(
            m.cell(narrow).kind,
            CellKind::Bin(BinKind::Add),
            "narrow interior stays"
        );
    }

    #[test]
    fn strength_reduces_constant_shifts_to_slices() {
        // shr by an in-range constant, by a saturating constant, and by a
        // "negative" (large unsigned) constant all become slices.
        for (amount, amount_w) in [(11i64, 5u16), (40, 6), (-1, 5)] {
            let mut m = shell();
            let en = m.push(CellKind::Const(1), 1, vec![]);
            let c = m.push(CellKind::Const(-12345), 32, vec![]);
            let x = m.push(CellKind::Reg { init: -9731 }, 32, vec![c, en]);
            let amt = m.push(CellKind::Const(amount), amount_w, vec![]);
            let sh = m.push(CellKind::Bin(BinKind::Shr), 32, vec![x, amt]);
            finish(&mut m, sh);
            let reference = m.clone();
            let reduced = strength_reduce_shifts(&mut m, None);
            assert_eq!(reduced, 1, "amount {amount}");
            validate(&m).unwrap();
            assert_eq!(
                output_values(&m),
                output_values(&reference),
                "amount {amount}"
            );
            assert_eq!(m.stats().count_bin(BinKind::Shr), 0);
            // idempotent: no shifts left
            assert_eq!(strength_reduce_shifts(&mut m, None), 0);
        }
        // a data-dependent amount is left alone
        let mut m = shell();
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(3), 5, vec![]);
        let amt = m.push(CellKind::Reg { init: 2 }, 5, vec![c, en]);
        let c2 = m.push(CellKind::Const(96), 32, vec![]);
        let x = m.push(CellKind::Reg { init: 64 }, 32, vec![c2, en]);
        let sh = m.push(CellKind::Bin(BinKind::Shr), 32, vec![x, amt]);
        finish(&mut m, sh);
        assert_eq!(strength_reduce_shifts(&mut m, None), 0);
    }

    #[test]
    fn retimes_a_register_bank_across_an_adder() {
        // r1, r2 (shared enable) -> add -> output becomes
        // data1, data2 -> add -> reg -> output, with init = init1 + init2.
        let mut m = shell();
        m.ports.push(Port {
            name: "i".into(),
            direction: PortDirection::Input,
            width: 8,
        });
        let en_src = m.push(CellKind::Input { port: 1, state: 0 }, 8, vec![]);
        let en = m.push(CellKind::Slice { hi: 0, lo: 0 }, 1, vec![en_src]);
        let d1 = m.push(CellKind::Const(100), 8, vec![]);
        let d2 = m.push(CellKind::Const(29), 8, vec![]);
        let r1 = m.push(CellKind::Reg { init: 70 }, 8, vec![d1, en]);
        let r2 = m.push(CellKind::Reg { init: 60 }, 8, vec![d2, en]);
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![r1, r2]);
        finish(&mut m, sum);
        let moved = retime_registers(&mut m, None);
        assert_eq!(moved, 1);
        validate(&m).unwrap();
        // the cell at the old adder's position is now a register holding
        // the folded init (70 + 60 wraps to -126 at 8 bits signed)
        let CellKind::Reg { init } = m.cell(sum).kind else {
            panic!("not retimed: {:?}", m.cell(sum).kind)
        };
        let _ = init;
        assert_eq!(
            BitVal::new(130, 8).as_i64(),
            match m.cell(sum).kind {
                CellKind::Reg { init } => init,
                _ => unreachable!(),
            }
        );
        // the comb adder moved before the register, fed by the old data
        let comb = m.cell(sum).inputs[0];
        assert_eq!(m.cell(comb).kind, CellKind::Bin(BinKind::Add));
        // cycle-0 behaviour is unchanged: output reads init1 + init2
        assert_eq!(output_values(&m)[0], BitVal::new(130, 8));
        sweep(&mut m);
        validate(&m).unwrap();
    }

    #[test]
    fn retime_refuses_observed_registers_and_mixed_enables() {
        let build = |mixed: bool, tapped: bool| {
            let mut m = shell();
            let d = m.push(CellKind::Const(5), 8, vec![]);
            let en_a = m.push(CellKind::Const(1), 1, vec![]);
            let en_b = if mixed {
                m.push(CellKind::Const(1), 1, vec![])
            } else {
                en_a
            };
            let r1 = m.push(CellKind::Reg { init: 1 }, 8, vec![d, en_a]);
            let r2 = m.push(CellKind::Reg { init: 2 }, 8, vec![d, en_b]);
            let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![r1, r2]);
            finish(&mut m, sum);
            if tapped {
                // r1 gains a second observer
                let t = resized(&mut m, r1, 8);
                m.ports.push(Port {
                    name: "t".into(),
                    direction: PortDirection::Output,
                    width: 8,
                });
                m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![t, en_a]);
            }
            m
        };
        let mut ok = build(false, false);
        assert_eq!(retime_registers(&mut ok, None), 1, "the movable shape");
        let mut mixed = build(true, false);
        assert_eq!(retime_registers(&mut mixed, None), 0, "mixed enables");
        let mut tapped = build(false, true);
        assert_eq!(retime_registers(&mut tapped, None), 0, "observed register");
    }

    #[test]
    fn retime_handles_self_loops() {
        // r captures f(r) every cycle (an accumulator): retiming must
        // re-point the moved logic at the new register and keep the module
        // acyclic through it.
        let mut m = shell();
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let one = m.push(CellKind::Const(1), 8, vec![]);
        // placeholder input fixed below: r.data = sum, sum = r + 1
        let r = m.push(CellKind::Reg { init: 7 }, 8, vec![one, en]);
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![r, one]);
        m.cells[r.index()].inputs = vec![sum, en];
        finish(&mut m, sum);
        let moved = retime_registers(&mut m, None);
        assert_eq!(moved, 1);
        validate(&m).unwrap();
        // the retimed register starts at f(init) = 8 and still increments
        let CellKind::Reg { init } = m.cell(sum).kind else {
            panic!("not retimed")
        };
        assert_eq!(init, 8);
        let comb = m.cell(sum).inputs[0];
        assert_eq!(m.cell(comb).kind, CellKind::Bin(BinKind::Add));
        assert!(m.cell(comb).inputs.contains(&sum), "loop closes on the reg");
        sweep(&mut m);
        validate(&m).unwrap();
    }

    #[test]
    fn sweep_drops_orphans_and_compacts() {
        let mut m = shell();
        let live = m.push(CellKind::Const(7), 8, vec![]);
        let _dead = m.push(CellKind::Const(42), 16, vec![]);
        finish(&mut m, live);
        let removed = sweep(&mut m);
        assert_eq!(removed, 1);
        validate(&m).unwrap();
        assert_eq!(m.num_cells(), 3);
    }
}
