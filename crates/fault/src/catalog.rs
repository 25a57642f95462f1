//! The typed fault catalog: what can be broken in a structural netlist,
//! where, and how.
//!
//! Every fault class models a *plausible lowering or rewrite bug* — the
//! kind of structural damage a wrong pass would inflict — rather than an
//! arbitrary bit flip. Enumeration is deterministic: sites are discovered
//! in cell-arena order, filtered so that the mutation is guaranteed to be
//! a *semantic change candidate* (no swapping of identical operands, no
//! corrupting dead logic), and capped per class by evenly-spaced
//! selection. [`inject`] is a pure function of `(netlist, spec)`, so a
//! sweep is reproducible from its report alone.

use hls_ir::eval::BitVal;
use hls_ir::CmpKind;
use hls_nir::{BinKind, CellId, CellKind, NirModule, UnKind};
use std::fmt;

/// A class of injected faults. See `ROBUSTNESS.md` for the catalog with
/// the expected detecting checker per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Swap the operands of a non-commutative binary operator.
    OperandSwap,
    /// Swap the then/else arms of a multiplexer.
    MuxArmSwap,
    /// Flip the low bit of a constant cell's value.
    ConstCorruption,
    /// Flip the low bit of a register's reset value.
    RegInitFlip,
    /// Tie a register or output enable to constant 1 (write every cycle).
    DroppedEnable,
    /// Route a register or output enable through an inverter.
    WrongEnable,
    /// Narrow a datapath cell's width by one bit.
    WidthNarrowing,
    /// Append a written-but-never-read register (dead logic the sweep
    /// passes should have prevented or the lints must flag).
    DeadCellResurrection,
    /// Route a multiplexer select through an inverter.
    SelectInversion,
}

impl FaultClass {
    /// Every fault class, in catalog order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::OperandSwap,
        FaultClass::MuxArmSwap,
        FaultClass::ConstCorruption,
        FaultClass::RegInitFlip,
        FaultClass::DroppedEnable,
        FaultClass::WrongEnable,
        FaultClass::WidthNarrowing,
        FaultClass::DeadCellResurrection,
        FaultClass::SelectInversion,
    ];

    /// Kebab-case name used in reports and the JSON serialization.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::OperandSwap => "operand-swap",
            FaultClass::MuxArmSwap => "mux-arm-swap",
            FaultClass::ConstCorruption => "const-corruption",
            FaultClass::RegInitFlip => "reg-init-flip",
            FaultClass::DroppedEnable => "dropped-enable",
            FaultClass::WrongEnable => "wrong-enable",
            FaultClass::WidthNarrowing => "width-narrowing",
            FaultClass::DeadCellResurrection => "dead-cell-resurrection",
            FaultClass::SelectInversion => "select-inversion",
        }
    }

    /// The named escape documented for this class, if any: why no
    /// behavioural checker can see such mutants *by construction*, as
    /// opposed to a coverage hole.
    ///
    /// `RegInitFlip` is the one documented escape: lowered netlists
    /// shield every reset value architecturally — first-iteration values
    /// flow through `FirstIter` anchor muxes (never out of a register's
    /// init), and observable writes are stage-valid gated until real data
    /// has flushed through — so a flipped init is unobservable whenever
    /// that shielding is intact. A *killed* reg-init mutant is therefore
    /// evidence the shielding was broken, and an escape is the expected
    /// outcome, not a missed detection.
    pub fn documented_escape(self) -> Option<&'static str> {
        match self {
            FaultClass::RegInitFlip => Some(
                "register reset values are architecturally unobservable: first-iteration \
                 values come from FirstIter anchor muxes and writes are stage-valid gated, \
                 so the flipped init is never read by observable logic",
            ),
            _ => None,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injectable fault: a class anchored at a cell, with a rendered
/// description of the exact mutation. `(class, cell)` fully determines the
/// mutation — [`inject`] takes no other input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault class.
    pub class: FaultClass,
    /// The cell the mutation anchors at.
    pub cell: CellId,
    /// Human-readable rendering of the mutation.
    pub description: String,
}

/// Whether swapping this operator's operands can change its value.
fn non_commutative(kind: BinKind) -> bool {
    matches!(
        kind,
        BinKind::Sub
            | BinKind::Div
            | BinKind::Rem
            | BinKind::Shl
            | BinKind::Shr
            | BinKind::Cmp(CmpKind::Lt | CmpKind::Le | CmpKind::Gt | CmpKind::Ge)
    )
}

/// Evenly-spaced selection of at most `max` site indices — deterministic
/// and spread over the arena instead of biased toward the controller cells
/// at its start.
fn select_sites(sites: Vec<CellId>, max: usize) -> Vec<CellId> {
    if sites.len() <= max || max == 0 {
        return sites;
    }
    (0..max).map(|i| sites[i * sites.len() / max]).collect()
}

/// Enumerates every injectable fault of the catalog over `m`, capped at
/// `max_per_class` sites per class (evenly spaced over the arena when the
/// cap binds). Only live cells are mutated — a fault in dead logic is an
/// equivalent mutant by construction and would say nothing about the
/// checkers.
pub fn enumerate(m: &NirModule, max_per_class: usize) -> Vec<FaultSpec> {
    let live = m.live_cells();
    let is_live = |id: CellId| live[id.index()];
    let mut specs = Vec::new();

    for class in FaultClass::ALL {
        let sites: Vec<CellId> = m
            .iter_cells()
            .filter(|&(id, cell)| {
                is_live(id)
                    && match class {
                        FaultClass::OperandSwap => match cell.kind {
                            CellKind::Bin(b) => {
                                non_commutative(b) && cell.inputs[0] != cell.inputs[1]
                            }
                            _ => false,
                        },
                        FaultClass::MuxArmSwap => {
                            matches!(cell.kind, CellKind::Mux) && cell.inputs[1] != cell.inputs[2]
                        }
                        FaultClass::ConstCorruption => matches!(cell.kind, CellKind::Const(_)),
                        FaultClass::RegInitFlip => matches!(cell.kind, CellKind::Reg { .. }),
                        FaultClass::DroppedEnable => match cell.kind {
                            CellKind::Reg { .. } | CellKind::Output { .. } => {
                                // tying an always-true enable to 1 is a no-op
                                let en = m.cell(cell.inputs[1]);
                                !matches!(en.kind, CellKind::Const(v)
                                    if BitVal::new(v, en.width).as_i64() != 0)
                            }
                            _ => false,
                        },
                        FaultClass::WrongEnable => {
                            matches!(cell.kind, CellKind::Reg { .. } | CellKind::Output { .. })
                                // Not only inverts truthiness at width 1
                                && m.cell(cell.inputs[1]).width == 1
                        }
                        FaultClass::WidthNarrowing => {
                            cell.width >= 2
                                && match cell.kind {
                                    CellKind::Bin(b) => !matches!(b, BinKind::Cmp(_)),
                                    CellKind::Mux | CellKind::Reg { .. } => true,
                                    _ => false,
                                }
                        }
                        FaultClass::DeadCellResurrection => {
                            !matches!(cell.kind, CellKind::Output { .. })
                        }
                        FaultClass::SelectInversion => {
                            matches!(cell.kind, CellKind::Mux)
                                && m.cell(cell.inputs[0]).width == 1
                                && cell.inputs[1] != cell.inputs[2]
                        }
                    }
            })
            .map(|(id, _)| id)
            .collect();
        for cell in select_sites(sites, max_per_class) {
            specs.push(FaultSpec {
                class,
                description: describe(m, class, cell),
                cell,
            });
        }
    }
    specs
}

/// Whether `id` is a register whose data input is a pure combinational
/// function of module inputs and constants — an *input-sampling* register.
///
/// The simulation contract holds port inputs stable for the whole
/// iteration, so every cycle in which such a register could capture sees
/// the same data: mutating its enable (dropping the gate or inverting it)
/// only moves *when* it recaptures an identical value. Any cone that
/// touches sequential state (`Reg`, `FsmState`, `StageValid`, `FirstIter`)
/// disqualifies the site — those values do change cycle to cycle.
pub fn sampling_stable(m: &NirModule, id: CellId) -> bool {
    if !matches!(m.cell(id).kind, CellKind::Reg { .. }) {
        return false;
    }
    let mut seen = vec![false; m.num_cells()];
    let mut stack = vec![m.cell(id).inputs[0]];
    while let Some(c) = stack.pop() {
        if std::mem::replace(&mut seen[c.index()], true) {
            continue;
        }
        let cell = m.cell(c);
        match cell.kind {
            CellKind::Input { .. } | CellKind::Const(_) => {}
            CellKind::Bin(_)
            | CellKind::Un(_)
            | CellKind::Mux
            | CellKind::Slice { .. }
            | CellKind::Resize => stack.extend(cell.inputs.iter().copied()),
            _ => return false,
        }
    }
    true
}

/// The documented reason `spec` is allowed to escape the checker stack on
/// `m`, if any: either the class-level escape
/// ([`FaultClass::documented_escape`]) or the site-level equivalent-mutant
/// family of enable faults on [sampling-stable](sampling_stable) registers.
/// `None` means an escape of this mutant is an undocumented checker hole.
pub fn documented_site_escape(m: &NirModule, spec: &FaultSpec) -> Option<String> {
    if let Some(reason) = spec.class.documented_escape() {
        return Some(reason.to_string());
    }
    if matches!(
        spec.class,
        FaultClass::DroppedEnable | FaultClass::WrongEnable
    ) && sampling_stable(m, spec.cell)
    {
        return Some(
            "equivalent mutant: the register samples a pure function of \
             iteration-stable port inputs, so re-arming its enable recaptures \
             the same value"
                .to_string(),
        );
    }
    None
}

fn describe(m: &NirModule, class: FaultClass, id: CellId) -> String {
    let cell = m.cell(id);
    let at = match &cell.name {
        Some(n) => format!("{id} `{n}`"),
        None => format!("{id}"),
    };
    match class {
        FaultClass::OperandSwap => format!("swap operands of {at} ({:?})", cell.kind),
        FaultClass::MuxArmSwap => format!("swap mux arms of {at}"),
        FaultClass::ConstCorruption => format!("flip low bit of constant {at}"),
        FaultClass::RegInitFlip => format!("flip low bit of reset value of {at}"),
        FaultClass::DroppedEnable => format!("tie enable of {at} to 1"),
        FaultClass::WrongEnable => format!("invert enable of {at}"),
        FaultClass::WidthNarrowing => {
            format!("narrow {at} from {} to {} bits", cell.width, cell.width - 1)
        }
        FaultClass::DeadCellResurrection => {
            format!("append a dead register capturing {at}")
        }
        FaultClass::SelectInversion => format!("invert mux select of {at}"),
    }
}

/// Applies `spec` to a clone of `m` and returns the mutant. Pure and
/// deterministic: the same `(netlist, spec)` always yields the same
/// mutant, so any sweep result is replayable from its report.
///
/// # Panics
/// Panics if `spec` does not fit the cell it names (wrong kind or a
/// degenerate site) — specs are meant to come from [`enumerate`] on the
/// same netlist.
pub fn inject(m: &NirModule, spec: &FaultSpec) -> NirModule {
    let mut mutant = m.clone();
    apply(&mut mutant, spec);
    mutant
}

/// What [`apply`] overwrote: the anchor cell's kind, width and first
/// three operands (no mutation touches a later one), and the arena length
/// before any cell was appended. A mutation edits only its anchor cell and
/// appends cells, so restoring these undoes it.
#[derive(Debug)]
pub(crate) struct Patch {
    cell: usize,
    kind: CellKind,
    width: u16,
    inputs: [CellId; 3],
    cells: usize,
}

impl Patch {
    /// Restores `m` to the netlist [`apply`] patched.
    pub(crate) fn revert(self, m: &mut NirModule) {
        m.cells.truncate(self.cells);
        let cell = &mut m.cells[self.cell];
        cell.kind = self.kind;
        cell.width = self.width;
        let saved = cell.inputs.len().min(3);
        cell.inputs[..saved].copy_from_slice(&self.inputs[..saved]);
    }
}

/// Applies `spec` to `m` in place and returns what undoes it; [`inject`]
/// is this on a clone.
///
/// # Panics
/// As [`inject`].
pub(crate) fn apply(m: &mut NirModule, spec: &FaultSpec) -> Patch {
    let idx = spec.cell.index();
    let anchor = &m.cells[idx];
    let mut inputs = [CellId::from_raw(0); 3];
    let saved = anchor.inputs.len().min(3);
    inputs[..saved].copy_from_slice(&anchor.inputs[..saved]);
    let patch = Patch {
        cell: idx,
        kind: anchor.kind.clone(),
        width: anchor.width,
        inputs,
        cells: m.cells.len(),
    };
    match spec.class {
        FaultClass::OperandSwap => m.cells[idx].inputs.swap(0, 1),
        FaultClass::MuxArmSwap => m.cells[idx].inputs.swap(1, 2),
        FaultClass::ConstCorruption => {
            let width = m.cells[idx].width;
            match &mut m.cells[idx].kind {
                CellKind::Const(v) => *v = BitVal::new(*v ^ 1, width).as_i64(),
                other => panic!("const-corruption at non-const cell {other:?}"),
            }
        }
        FaultClass::RegInitFlip => {
            let width = m.cells[idx].width;
            match &mut m.cells[idx].kind {
                CellKind::Reg { init } => *init = BitVal::new(*init ^ 1, width).as_i64(),
                other => panic!("reg-init-flip at non-register cell {other:?}"),
            }
        }
        FaultClass::DroppedEnable => {
            let one = m.push(CellKind::Const(1), 1, vec![]);
            m.cells[idx].inputs[1] = one;
        }
        FaultClass::WrongEnable => {
            let enable = m.cells[idx].inputs[1];
            let width = m.cell(enable).width;
            let inverted = m.push(CellKind::Un(UnKind::Not), width, vec![enable]);
            m.cells[idx].inputs[1] = inverted;
        }
        FaultClass::WidthNarrowing => m.cells[idx].width -= 1,
        FaultClass::DeadCellResurrection => {
            let width = m.cells[idx].width;
            let one = m.push(CellKind::Const(1), 1, vec![]);
            m.push(CellKind::Reg { init: 0 }, width, vec![spec.cell, one]);
        }
        FaultClass::SelectInversion => {
            let select = m.cells[idx].inputs[0];
            let width = m.cell(select).width;
            let inverted = m.push(CellKind::Un(UnKind::Not), width, vec![select]);
            m.cells[idx].inputs[0] = inverted;
        }
    }
    patch
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_nir::{validate, Cell};

    /// reg → add(reg, const) → reg, with an output and a mux — one site
    /// for most classes.
    fn fixture() -> NirModule {
        let mut m = NirModule::new("fixture");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(5), 16, vec![]);
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 16,
            inputs: vec![],
            name: Some("acc".into()),
        });
        let sub = m.push(CellKind::Bin(BinKind::Sub), 16, vec![r, c]);
        let fsm = m.push(CellKind::FsmState, 8, vec![]);
        let z = m.push(CellKind::Const(0), 8, vec![]);
        let sel = m.push(CellKind::Bin(BinKind::Cmp(CmpKind::Eq)), 1, vec![fsm, z]);
        let mx = m.push(CellKind::Mux, 16, vec![sel, sub, c]);
        m.cells[r.index()].inputs = vec![mx, en];
        m.ports.push(hls_ir::Port {
            name: "out".into(),
            width: 16,
            direction: hls_ir::PortDirection::Output,
        });
        m.push(CellKind::Output { port: 0, state: 0 }, 16, vec![mx, sel]);
        validate(&m).expect("fixture is well-formed");
        m
    }

    #[test]
    fn names_are_kebab_case_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for class in FaultClass::ALL {
            assert!(seen.insert(class.name()), "{class} duplicated");
            assert!(class
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn enumeration_covers_every_class_and_is_deterministic() {
        let m = fixture();
        let specs = enumerate(&m, 8);
        for class in FaultClass::ALL {
            assert!(
                specs.iter().any(|s| s.class == class),
                "{class} found no site in the fixture"
            );
        }
        assert_eq!(specs, enumerate(&m, 8), "deterministic");
    }

    #[test]
    fn site_caps_select_evenly_and_deterministically() {
        let m = fixture();
        let capped = enumerate(&m, 1);
        let mut by_class = std::collections::HashMap::new();
        for s in &capped {
            *by_class.entry(s.class).or_insert(0usize) += 1;
        }
        assert!(by_class.values().all(|&n| n <= 1));
        let full = enumerate(&m, usize::MAX);
        for s in &capped {
            assert!(full.contains(s), "capped sites are a subset");
        }
    }

    #[test]
    fn injection_is_pure_and_changes_the_netlist() {
        let m = fixture();
        for spec in enumerate(&m, 8) {
            let mutant = inject(&m, &spec);
            assert_ne!(mutant, m, "{}: mutant differs", spec.description);
            assert_eq!(mutant, inject(&m, &spec), "{}: pure", spec.description);
        }
    }

    /// The netlists the CI fault job sweeps (`examples/fault_coverage.rs`).
    fn stock_netlists() -> Vec<NirModule> {
        use hls::designs::{fir_filter, moving_average, paper_example1};
        use hls::Synthesizer;
        [
            Synthesizer::new(paper_example1())
                .clock_ps(1600.0)
                .latency_bounds(1, 3),
            Synthesizer::new(paper_example1())
                .clock_ps(1600.0)
                .latency_bounds(1, 6)
                .pipeline(2),
            Synthesizer::new(moving_average(2, 16))
                .clock_ps(1600.0)
                .latency_bounds(1, 8)
                .pipeline(1),
            Synthesizer::new(fir_filter(&[3, -5, 7, 11, 11, 7, -5, 3], 16))
                .clock_ps(1600.0)
                .latency_bounds(1, 16),
            Synthesizer::from_body(hls::explore::idct8_design())
                .clock_ps(2000.0)
                .latency_bounds(1, 16),
        ]
        .into_iter()
        .map(|s| s.run().expect("stock design synthesizes").netlist)
        .collect()
    }

    /// Every spec, uncapped, applied in turn to one working copy as a sweep
    /// does: the patched copy is the mutant `inject` makes from a fresh
    /// clone, and reverting leaves the copy equal to the original.
    #[test]
    fn a_patched_mutant_is_exactly_undone() {
        for m in std::iter::once(fixture()).chain(stock_netlists()) {
            let specs = enumerate(&m, usize::MAX);
            assert!(!specs.is_empty(), "`{}` has no site", m.name);
            let mut working = m.clone();
            for spec in specs {
                let patch = apply(&mut working, &spec);
                assert_eq!(working, inject(&m, &spec), "{}", spec.description);
                patch.revert(&mut working);
                assert_eq!(working, m, "{}: not undone", spec.description);
            }
        }
    }

    #[test]
    fn operand_swap_skips_commutative_and_equal_operand_sites() {
        let mut m = fixture();
        // add(c, c): commutative AND equal operands — never a site
        let c = CellId::from_raw(1);
        let add = m.push(CellKind::Bin(BinKind::Add), 16, vec![c, c]);
        let en = CellId::from_raw(0);
        let r = m.push(CellKind::Reg { init: 0 }, 16, vec![add, en]);
        let out = m
            .iter_cells()
            .find(|(_, c)| matches!(c.kind, CellKind::Output { .. }))
            .map(|(id, _)| id)
            .unwrap();
        m.cells[out.index()].inputs[0] = r;
        let specs = enumerate(&m, usize::MAX);
        assert!(!specs
            .iter()
            .any(|s| s.class == FaultClass::OperandSwap && s.cell == add));
    }

    #[test]
    fn dead_logic_is_never_a_site() {
        let mut m = fixture();
        // a dead subtraction (nothing reads it)
        let c = CellId::from_raw(1);
        let r = CellId::from_raw(2);
        let dead = m.push(CellKind::Bin(BinKind::Sub), 16, vec![c, r]);
        for spec in enumerate(&m, usize::MAX) {
            assert_ne!(spec.cell, dead, "{}: dead cell mutated", spec.description);
        }
    }

    #[test]
    fn const_corruption_stays_canonical_at_width() {
        let mut m = NirModule::new("w1");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = m.push(CellKind::Reg { init: 0 }, 1, vec![en, en]);
        let _ = r;
        let spec = FaultSpec {
            class: FaultClass::ConstCorruption,
            cell: en,
            description: String::new(),
        };
        let mutant = inject(&m, &spec);
        match mutant.cell(en).kind {
            // width-1: 1 ^ 1 = 0
            CellKind::Const(v) => assert_eq!(v, 0),
            _ => unreachable!(),
        }
    }
}
