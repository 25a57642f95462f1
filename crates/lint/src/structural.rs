//! Structural lints: checks on the netlist graph itself, independent of the
//! delay model.
//!
//! Each check pushes `(lint, cell, message)` triples; the driver in
//! [`crate::analyze`] attaches severities and filters allowed lints. The
//! checks assume a [`hls_nir::validate`]-clean module (the driver bails out
//! with [`Lint::MalformedNetlist`] before calling in here otherwise).

use crate::config::{Lint, LintConfig};
use crate::sta::{cell_name, mux_fanins};
use crate::LintContext;
use hls_ir::{BitVal, CmpKind};
use hls_nir::{identifier, BinKind, CellId, CellKind, NameHolder, NetNames, NirModule};

/// A raw finding before severity assignment.
pub(crate) type Finding = (Lint, Option<CellId>, String);

/// Runs every structural check over the module.
pub(crate) fn structural_findings(
    m: &NirModule,
    ctx: &LintContext,
    cfg: &LintConfig,
) -> Vec<Finding> {
    let mut out = Vec::new();
    duplicate_net_names(m, &mut out);
    dead_registers(m, &mut out);
    fsm_and_mux_reachability(m, &mut out);
    width_truncations(m, &mut out);
    comb_fanin(m, ctx, cfg.max_comb_fanin, &mut out);
    const_foldable(m, &mut out);
    out
}

/// Display names the printer drops: one that sanitizes to a Verilog
/// keyword, or to an identifier a reserved controller net, a port, an
/// earlier cell's name or an earlier cell's fallback `n<id>` already
/// holds. The printer renames such a cell to its own fallback, so the
/// emitted RTL no longer carries the name the lowering assigned. Both read
/// [`NetNames`], so this reports exactly the names the printer drops.
/// Unnamed cells print under fallbacks that skip every taken identifier,
/// and ports that clash are refused by `hls_nir::validate`.
fn duplicate_net_names(m: &NirModule, out: &mut Vec<Finding>) {
    for dropped in NetNames::new(m).dropped() {
        let name = m.cell(dropped.cell).name.as_deref().unwrap_or_default();
        let ident = identifier(name);
        let prev = match dropped.holder {
            NameHolder::Keyword => None,
            NameHolder::Reserved(r) => Some(format!("the reserved identifier `{r}`")),
            NameHolder::Port(p) => Some(format!("port `{}`", m.ports[p as usize].name)),
            NameHolder::Cell(c) => Some(format!("cell {c} `{}`", cell_name(m, c))),
            NameHolder::Fallback(c) => Some(format!("the fallback name of cell {c}")),
        };
        let message = match prev {
            None => format!("`{name}` sanitizes to the Verilog keyword `{ident}`; the printer will drop this name"),
            Some(prev) => format!("`{name}` sanitizes to `{ident}`, already claimed by {prev}; the printer will drop this name"),
        };
        out.push((Lint::DuplicateNetName, Some(dropped.cell), message));
    }
}

/// Registers written but never read: storage that can never influence an
/// output (the sweep pass removes these, so survivors indicate a skipped or
/// incomplete rewrite run).
fn dead_registers(m: &NirModule, out: &mut Vec<Finding>) {
    let uses = m.use_counts();
    for (id, cell) in m.iter_cells() {
        if matches!(cell.kind, CellKind::Reg { .. }) && uses[id.index()] == 0 {
            out.push((
                Lint::DeadRegister,
                Some(id),
                format!("register `{}` is written but never read", cell_name(m, id)),
            ));
        }
    }
}

/// Truth value of a select, when it is statically known: a constant, or an
/// FSM-state compare that can never (or always trivially) match.
fn const_truth(m: &NirModule, id: CellId) -> Option<bool> {
    let cell = m.cell(id);
    match &cell.kind {
        CellKind::Const(v) => Some(BitVal::new(*v, cell.width.max(1)).as_i64() != 0),
        CellKind::Bin(BinKind::Cmp(CmpKind::Eq)) => {
            let (a, b) = (cell.inputs[0], cell.inputs[1]);
            fsm_eq_unreachable(m, a, b)
                .or_else(|| fsm_eq_unreachable(m, b, a))
                .map(|()| false)
        }
        _ => None,
    }
}

/// `Some(())` when `fsm` is the state counter and `k` a constant outside its
/// `0..fold_states` range, making `fsm == k` constantly false.
fn fsm_eq_unreachable(m: &NirModule, fsm: CellId, k: CellId) -> Option<()> {
    if !matches!(m.cell(fsm).kind, CellKind::FsmState) {
        return None;
    }
    let CellKind::Const(v) = m.cell(k).kind else {
        return None;
    };
    let value = BitVal::new(v, m.cell(k).width.max(1)).as_u64();
    (value >= u64::from(m.fold_states.max(1))).then_some(())
}

/// FSM-state compares that can never match, and mux arms that can never be
/// selected because their select is statically known.
fn fsm_and_mux_reachability(m: &NirModule, out: &mut Vec<Finding>) {
    for (id, cell) in m.iter_cells() {
        if let CellKind::Bin(BinKind::Cmp(CmpKind::Eq)) = cell.kind {
            let (a, b) = (cell.inputs[0], cell.inputs[1]);
            if fsm_eq_unreachable(m, a, b)
                .or_else(|| fsm_eq_unreachable(m, b, a))
                .is_some()
            {
                out.push((
                    Lint::UnreachableFsmState,
                    Some(id),
                    format!(
                        "compares the FSM state against a value outside 0..{} — never true",
                        m.fold_states
                    ),
                ));
            }
        }
        if let CellKind::Mux = cell.kind {
            if let Some(truth) = const_truth(m, cell.inputs[0]) {
                let dead = if truth { "else" } else { "then" };
                out.push((
                    Lint::DeadMuxArm,
                    Some(id),
                    format!("select is constantly {truth}; the {dead} arm can never be selected"),
                ));
            }
        }
    }
}

/// Resizes that narrow their operand: legal (the evaluator truncates), but
/// high bits are silently dropped.
fn width_truncations(m: &NirModule, out: &mut Vec<Finding>) {
    for (id, cell) in m.iter_cells() {
        if matches!(cell.kind, CellKind::Resize) {
            let from = m.cell(cell.inputs[0]).width;
            if from > cell.width {
                out.push((
                    Lint::WidthTruncation,
                    Some(id),
                    format!(
                        "resize narrows w{from} to w{}, dropping high bits",
                        cell.width
                    ),
                ));
            }
        }
    }
}

/// Steering trees (and the binding they implement) fanning in more sources
/// than the configured bound: a mux_n past the bound is a long combinational
/// hop and an area hot-spot.
fn comb_fanin(m: &NirModule, ctx: &LintContext, bound: usize, out: &mut Vec<Finding>) {
    let fanins = mux_fanins(m);
    // Only report tree roots: a mux consumed as another mux's arm is an
    // inner element of the same physical mux_n.
    let mut is_arm = vec![false; m.num_cells()];
    for (_, cell) in m.iter_cells() {
        if let CellKind::Mux = cell.kind {
            for &arm in &cell.inputs[1..] {
                if matches!(m.cell(arm).kind, CellKind::Mux) {
                    is_arm[arm.index()] = true;
                }
            }
        }
    }
    for (id, cell) in m.iter_cells() {
        if matches!(cell.kind, CellKind::Mux) && !is_arm[id.index()] && fanins[id.index()] > bound {
            out.push((
                Lint::CombFanin,
                Some(id),
                format!(
                    "steering tree fans in {} sources (bound {bound})",
                    fanins[id.index()]
                ),
            ));
        }
    }
    if let Some(b) = ctx.bound {
        let steer = b.max_steering_fanin();
        if steer > bound {
            out.push((
                Lint::CombFanin,
                None,
                format!(
                    "binding steers {steer} operations onto one functional unit (bound {bound})"
                ),
            ));
        }
    }
}

/// Combinational cells whose every operand is a constant: the normalizer
/// folds these, so survivors are rewrite residue.
fn const_foldable(m: &NirModule, out: &mut Vec<Finding>) {
    for (id, cell) in m.iter_cells() {
        let foldable = matches!(
            cell.kind,
            CellKind::Bin(_)
                | CellKind::Un(_)
                | CellKind::Mux
                | CellKind::Slice { .. }
                | CellKind::Resize
        );
        if !foldable || cell.inputs.is_empty() {
            continue;
        }
        if cell
            .inputs
            .iter()
            .all(|&i| matches!(m.cell(i).kind, CellKind::Const(_)))
        {
            out.push((
                Lint::ConstFoldable,
                Some(id),
                format!(
                    "{} computes on constants only; the normalizer would fold it",
                    cell.kind.mnemonic()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_tech::{ClockConstraint, TechLibrary};

    fn ctx_fixture() -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(1600.0),
        )
    }

    fn findings_of(m: &NirModule, lint: Lint) -> Vec<Finding> {
        let (lib, clock) = ctx_fixture();
        let ctx = crate::LintContext::new(&lib, clock);
        structural_findings(m, &ctx, &LintConfig::default())
            .into_iter()
            .filter(|(l, _, _)| *l == lint)
            .collect()
    }

    fn named_cell(
        m: &mut NirModule,
        kind: CellKind,
        width: u16,
        inputs: Vec<CellId>,
        name: &str,
    ) -> CellId {
        m.add_cell(hls_nir::Cell {
            kind,
            width,
            inputs,
            name: Some(name.to_string()),
        })
    }

    #[test]
    fn sanitize_collisions_are_reported_once_per_extra_name() {
        let mut m = NirModule::new("t");
        let c = m.push(CellKind::Const(1), 8, vec![]);
        // `a.b` and `a-b` both sanitize to `a_b`
        named_cell(&mut m, CellKind::Resize, 8, vec![c], "a.b");
        named_cell(&mut m, CellKind::Resize, 8, vec![c], "a-b");
        // a name that collides with a reserved controller identifier
        named_cell(&mut m, CellKind::Resize, 8, vec![c], "state");
        // and one that is a Verilog keyword
        named_cell(&mut m, CellKind::Resize, 8, vec![c], "wire");
        let hits = findings_of(&m, Lint::DuplicateNetName);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits[0].2.contains("a_b"));
        assert!(hits[1].2.contains("reserved"));
        assert!(hits[2].2.contains("Verilog keyword `wire`"));
        // distinct identifiers are fine
        let mut clean = NirModule::new("t");
        let c = clean.push(CellKind::Const(1), 8, vec![]);
        named_cell(&mut clean, CellKind::Resize, 8, vec![c], "x1");
        named_cell(&mut clean, CellKind::Resize, 8, vec![c], "x2");
        assert!(findings_of(&clean, Lint::DuplicateNetName).is_empty());
    }

    #[test]
    fn a_name_held_by_an_earlier_fallback_is_reported() {
        // The unnamed adder, cell 1, prints as `n1`, so the next adder's
        // name `n1` is dropped.
        let mut m = NirModule::new("t");
        for (name, direction) in [
            ("x", hls_ir::PortDirection::Input),
            ("y", hls_ir::PortDirection::Output),
        ] {
            m.ports.push(hls_ir::Port {
                name: name.into(),
                direction,
                width: 8,
            });
        }
        let x = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        let sum = m.push(CellKind::Bin(BinKind::Add), 8, vec![x, x]);
        let late = named_cell(&mut m, CellKind::Bin(BinKind::Add), 8, vec![sum, x], "n1");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        m.push(CellKind::Output { port: 1, state: 0 }, 8, vec![late, en]);
        let rtl = hls_netlist::emit_verilog(&m);
        assert!(rtl.contains("assign n2 = n1 + x;"), "{rtl}");
        let (lib, clock) = ctx_fixture();
        let ctx = crate::LintContext::new(&lib, clock);
        let report = crate::analyze(&m, &ctx, &LintConfig::default());
        assert_eq!(report.count_of(Lint::DuplicateNetName), 1, "{report:?}");
        let hits = findings_of(&m, Lint::DuplicateNetName);
        assert_eq!(hits[0].1, Some(late));
        assert!(
            hits[0]
                .2
                .contains("claimed by the fallback name of cell %1"),
            "{hits:?}"
        );
    }

    #[test]
    fn dead_registers_and_const_residue_are_flagged() {
        let mut m = NirModule::new("t");
        let c = m.push(CellKind::Const(3), 8, vec![]);
        let en = m.push(CellKind::Const(1), 1, vec![]);
        named_cell(&mut m, CellKind::Reg { init: 0 }, 8, vec![c, en], "dead");
        let folded = m.push(CellKind::Bin(BinKind::Add), 8, vec![c, c]);
        let _reader = m.push(CellKind::Resize, 16, vec![folded]);
        let dead = findings_of(&m, Lint::DeadRegister);
        assert_eq!(dead.len(), 1);
        assert!(dead[0].2.contains("dead"));
        // the all-const adder and the resize over it are both foldable;
        // the resize reads an adder (non-const), so only the adder fires
        let residue = findings_of(&m, Lint::ConstFoldable);
        assert_eq!(residue.len(), 1, "{residue:?}");
        assert_eq!(residue[0].1, Some(folded));
    }

    #[test]
    fn constant_and_contradictory_selects_kill_mux_arms() {
        let mut m = NirModule::new("t");
        m.fold_states = 4;
        let a = m.push(CellKind::Input { port: 0, state: 0 }, 8, vec![]);
        m.ports.push(hls_ir::Port {
            name: "x".into(),
            direction: hls_ir::PortDirection::Input,
            width: 8,
        });
        let b = m.push(CellKind::Un(hls_nir::UnKind::Not), 8, vec![a]);
        let sel1 = m.push(CellKind::Const(2), 2, vec![]);
        let _m1 = m.push(CellKind::Mux, 8, vec![sel1, a, b]);
        // FSM == 7 with fold_states = 4: never true
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let k = m.push(CellKind::Const(7), 8, vec![]);
        let eq = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, k]);
        let _m2 = m.push(CellKind::Mux, 8, vec![eq, a, b]);
        let arms = findings_of(&m, Lint::DeadMuxArm);
        assert_eq!(arms.len(), 2, "{arms:?}");
        assert!(arms[0].2.contains("else arm"), "sel const-true: {arms:?}");
        assert!(arms[1].2.contains("then arm"), "sel const-false: {arms:?}");
        let states = findings_of(&m, Lint::UnreachableFsmState);
        assert_eq!(states.len(), 1);
        // an in-range state compare is fine
        let k2 = m.push(CellKind::Const(3), 8, vec![]);
        m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, k2]);
        assert_eq!(findings_of(&m, Lint::UnreachableFsmState).len(), 1);
    }

    #[test]
    fn narrowing_resizes_and_wide_fanin_are_flagged() {
        let mut m = NirModule::new("t");
        let c = m.push(CellKind::Const(1), 16, vec![]);
        m.push(CellKind::Resize, 8, vec![c]); // narrowing
        m.push(CellKind::Resize, 32, vec![c]); // widening: fine
        assert_eq!(findings_of(&m, Lint::WidthTruncation).len(), 1);

        let sel = m.push(CellKind::Const(1), 1, vec![]);
        let mut arm = m.push(CellKind::Const(0), 16, vec![]);
        for _ in 0..4 {
            arm = m.push(CellKind::Mux, 16, vec![sel, c, arm]);
        }
        let (lib, clock) = ctx_fixture();
        let ctx = crate::LintContext::new(&lib, clock);
        let cfg = LintConfig::default().with_max_comb_fanin(3);
        let hits: Vec<_> = structural_findings(&m, &ctx, &cfg)
            .into_iter()
            .filter(|(l, _, _)| *l == Lint::CombFanin)
            .collect();
        // one root with fan-in 5 > 3; inner tree cells are not re-reported
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].2.contains('5'));
    }
}
