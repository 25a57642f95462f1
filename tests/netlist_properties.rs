//! Property tests for the structural netlist. Random small programs go
//! through the full flow to a lowered [`NirModule`], which must reach a
//! rewrite fixpoint in one `optimize` run (a second run changes nothing),
//! growing neither the cell count nor the mux depth, and stay
//! differentially bit-exact against the reference interpreter after the
//! untimed and the timed rewrites. A fuzz property edits the public fields
//! of lowered modules and requires every consumer to end in a typed error
//! or a result, never a panic. A chain property breaks every mux chain
//! apart and requires the simulator's write trace to stay the same, on
//! lowered modules and on their edits. A coverage test checks that the generated
//! programs reach every operation and cell kind, a `while` loop and a
//! nested `if`, so a kind the generator stops producing fails a test.

use hls::bind::{bind, lower, RtlStyle};
use hls::frontend::ast::{LoopKind, Stmt};
use hls::ir::{CmpKind, LinearBody, OpKind};
use hls::lint::{analyze, analyze_timing, LintConfig, LintContext};
use hls::netlist::{emit_verilog, ChainTiming};
use hls::nir::{validate, BinKind, CellId, CellKind, NirModule, UnKind};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::{differential, NirSim, Stimulus, TimedWrite};
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "common/random_behavior.rs"]
mod random_behavior;

use random_behavior::random_behavior;

/// The random program `seed`, scheduled at 4200 ps, bound and lowered, or
/// `None` when the random instance is over-constrained.
fn lowered(
    seed: u64,
    pipelined: bool,
    shared: bool,
) -> Result<Option<(LinearBody, NirModule)>, TestCaseError> {
    let behavior = random_behavior(seed);
    let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
    let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(4200.0);
    let config = if pipelined {
        SchedulerConfig::pipelined(clock, 2, 24)
    } else {
        SchedulerConfig::sequential(clock, 1, 24)
    };
    let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
        return Ok(None);
    };
    let bound = bind(&body, &schedule.desc)
        .map_err(|e| TestCaseError::fail(format!("seed {seed}: bind: {e}")))?;
    let style = if shared {
        RtlStyle::SharedFu
    } else {
        RtlStyle::PerOp
    };
    let m = lower(&body, &schedule.desc, &bound, style)
        .map_err(|e| TestCaseError::fail(format!("seed {seed}: lower: {e}")))?;
    Ok(Some((body, m)))
}

/// The families a kind edit swaps within (with `StageValid` and
/// `FirstIter`): a cell's kind is replaced by another of its family, so
/// its operand count stays right. A one-operand cell may also become a
/// `Slice`, which no lowered random program contains.
const BINARY: [BinKind; 16] = [
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
const UNARY: [CellKind; 3] = [
    CellKind::Un(UnKind::Not),
    CellKind::Un(UnKind::Neg),
    CellKind::Resize,
];

/// A replacement for the integer `old`: a neighbour, a small value or a
/// boundary of the field types. The caller truncates it to the field's
/// type.
fn integer(rng: &mut SmallRng, old: i128) -> i128 {
    const EDGES: [i128; 16] = [
        0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 65, 65535, 4294967295, -1,
    ];
    match rng.gen_range(0u32..4) {
        0 => old + 1,
        1 => old - 1,
        2 => EDGES[rng.gen_range(0..EDGES.len())],
        _ => i128::from([i64::MIN, i64::MAX][rng.gen_range(0usize..2)]),
    }
}

/// An item chosen uniformly, or `None` when there is none.
fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// Applies one to three edits to the public fields of `m`, each of one
/// kind chosen uniformly:
/// - an operand retargeted, a third of the time at an `Output` cell,
///   otherwise anywhere in `0..cells + 2`;
/// - a cell's or a port's width;
/// - a kind field: a port or state index, a slice bound, a register's
///   `init`, a constant or a controller stage;
/// - a kind swapped within its family ([`BINARY`], [`UNARY`] or a slice,
///   or `StageValid` and `FirstIter`);
/// - a header field: `fold_states`, `num_states` or `stages`;
/// - an operand added or dropped.
fn mutate(m: &mut NirModule, rng: &mut SmallRng) {
    let cells = m.cells.len();
    let outputs: Vec<usize> = m
        .iter_cells()
        .filter(|(_, c)| matches!(c.kind, CellKind::Output { .. }))
        .map(|(id, _)| id.index())
        .collect();
    let target = |rng: &mut SmallRng| {
        let id = match pick(rng, &outputs) {
            Some(output) if rng.gen_bool(1.0 / 3.0) => output,
            _ => rng.gen_range(0..cells + 2),
        };
        CellId::from_raw(id as u32)
    };
    for _ in 0..rng.gen_range(1u32..=3) {
        let of_kind = |keep: fn(&CellKind) -> bool| -> Vec<usize> {
            (0..cells).filter(|&i| keep(&m.cells[i].kind)).collect()
        };
        match rng.gen_range(0u32..6) {
            0 => {
                let operands: Vec<(usize, usize)> = (0..cells)
                    .flat_map(|c| (0..m.cells[c].inputs.len()).map(move |i| (c, i)))
                    .collect();
                if let Some((c, i)) = pick(rng, &operands) {
                    m.cells[c].inputs[i] = target(rng);
                }
            }
            1 => {
                let k = rng.gen_range(0..cells + m.ports.len());
                let width = match m.cells.get_mut(k) {
                    Some(cell) => &mut cell.width,
                    None => &mut m.ports[k - cells].width,
                };
                *width = integer(rng, (*width).into()) as u16;
            }
            2 => {
                let fielded = of_kind(|k| {
                    matches!(
                        k,
                        CellKind::Const(_)
                            | CellKind::Input { .. }
                            | CellKind::Output { .. }
                            | CellKind::Slice { .. }
                            | CellKind::Reg { .. }
                            | CellKind::StageValid { .. }
                            | CellKind::FirstIter { .. }
                    )
                });
                let Some(c) = pick(rng, &fielded) else {
                    continue;
                };
                let first = rng.gen_bool(0.5);
                match &mut m.cells[c].kind {
                    CellKind::Const(v) | CellKind::Reg { init: v } => {
                        *v = integer(rng, (*v).into()) as i64;
                    }
                    CellKind::Input { port, state } | CellKind::Output { port, state } => {
                        let field = if first { port } else { state };
                        *field = integer(rng, (*field).into()) as u32;
                    }
                    CellKind::Slice { hi, lo } => {
                        let field = if first { hi } else { lo };
                        *field = integer(rng, (*field).into()) as u16;
                    }
                    CellKind::StageValid { stage } | CellKind::FirstIter { stage } => {
                        *stage = integer(rng, (*stage).into()) as u32;
                    }
                    _ => unreachable!("only fielded kinds are picked"),
                }
            }
            3 => {
                let swappable = of_kind(|k| {
                    matches!(
                        k,
                        CellKind::Bin(_)
                            | CellKind::Un(_)
                            | CellKind::Resize
                            | CellKind::StageValid { .. }
                            | CellKind::FirstIter { .. }
                    )
                });
                let Some(c) = pick(rng, &swappable) else {
                    continue;
                };
                let cell = &mut m.cells[c];
                cell.kind = match cell.kind {
                    CellKind::Bin(_) => CellKind::Bin(BINARY[rng.gen_range(0..BINARY.len())]),
                    CellKind::StageValid { stage } | CellKind::FirstIter { stage } => {
                        if rng.gen_bool(0.5) {
                            CellKind::StageValid { stage }
                        } else {
                            CellKind::FirstIter { stage }
                        }
                    }
                    _ if rng.gen_range(0..=UNARY.len()) == 0 => CellKind::Slice {
                        hi: integer(rng, i128::from(cell.width) - 1) as u16,
                        lo: integer(rng, 0) as u16,
                    },
                    _ => UNARY[rng.gen_range(0..UNARY.len())].clone(),
                };
            }
            4 => {
                let field = match rng.gen_range(0u32..3) {
                    0 => &mut m.fold_states,
                    1 => &mut m.num_states,
                    _ => &mut m.stages,
                };
                *field = integer(rng, (*field).into()) as u32;
            }
            _ => {
                let inputs = &mut m.cells[rng.gen_range(0..cells)].inputs;
                if !inputs.is_empty() && rng.gen_bool(0.5) {
                    inputs.remove(rng.gen_range(0..inputs.len()));
                } else {
                    let at = rng.gen_range(0..=inputs.len());
                    inputs.insert(at, target(rng));
                }
            }
        }
    }
}

/// Runs every consumer of a module that the public API offers. The
/// validator and the simulator's compiler take any module; one that
/// validates must also print, analyse and optimize.
fn consume(m: &NirModule) {
    let _ = NirSim::new(m);
    if validate(m).is_err() {
        return;
    }
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(2000.0);
    emit_verilog(m);
    analyze_timing(m, &mut ChainTiming::new(&lib, clock));
    analyze(m, &LintContext::new(&lib, clock), &LintConfig::default());
    hls::nir::optimize(&mut m.clone());
}

/// `m` with an identity `Resize` on the else-operand of every mux, so that
/// no mux reads another mux as its else-operand and the simulator's
/// compiler folds every mux on its own. The resize is 64 bits wide, which
/// keeps every value. Operand ids outside `m` stay outside the result.
fn unchain(m: &NirModule) -> NirModule {
    let n = m.cells.len() as u32;
    let muxes = m
        .cells
        .iter()
        .filter(|c| matches!(c.kind, CellKind::Mux) && c.inputs.len() == 3)
        .count() as u32;
    let mut out = m.clone();
    for cell in &mut out.cells {
        for input in &mut cell.inputs {
            if input.index() as u32 >= n {
                *input = CellId::from_raw(input.index() as u32 + muxes);
            }
        }
    }
    for c in 0..n as usize {
        if matches!(out.cells[c].kind, CellKind::Mux) && out.cells[c].inputs.len() == 3 {
            let low = out.cells[c].inputs[2];
            out.cells[c].inputs[2] = out.push(CellKind::Resize, 64, vec![low]);
        }
    }
    out
}

/// The writes of `m` over `stimulus`, or `None` when it does not compile.
/// A module whose header would run for more than 50 000 cycles is only
/// compiled, and reads as no writes.
fn writes(m: &NirModule, stimulus: &Stimulus) -> Option<Vec<TimedWrite>> {
    let sim = NirSim::new(m).ok()?;
    let cycles = stimulus.iterations() as u64 * u64::from(m.fold_states) + u64::from(m.num_states);
    if cycles > 50_000 {
        return Some(Vec::new());
    }
    Some(sim.run(stimulus).expect("a compiled module runs").writes)
}

/// The fields of `mutant` that differ from `m`, for a failure report.
fn edits(m: &NirModule, mutant: &NirModule) -> String {
    let mut out = Vec::new();
    let header = |m: &NirModule| (m.fold_states, m.num_states, m.stages);
    if header(m) != header(mutant) {
        out.push(format!("(fold, states, stages) = {:?}", header(mutant)));
    }
    for (i, (a, b)) in mutant.ports.iter().zip(&m.ports).enumerate() {
        if a != b {
            out.push(format!("port {i} = {a:?}"));
        }
    }
    for (i, (a, b)) in mutant.cells.iter().zip(&m.cells).enumerate() {
        if a != b {
            out.push(format!("%{i} = {a:?}"));
        }
    }
    out.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn lowered_netlists_reach_a_rewrite_fixpoint_and_stay_bit_exact(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((body, mut m)) = lowered(seed, pipelined, shared)? else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: validate: {e}")))?;

        // rewrites shrink or keep the netlist and reach a fixpoint in one run
        let (cells, depth) = (m.num_cells(), m.max_mux_depth());
        hls::nir::optimize(&mut m);
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: post-opt: {e}")))?;
        prop_assert!(m.num_cells() <= cells, "cells {} -> {}", cells, m.num_cells());
        prop_assert!(m.max_mux_depth() <= depth, "mux depth {} -> {}", depth, m.max_mux_depth());
        let fixpoint = m.clone();
        let again = hls::nir::optimize(&mut m);
        prop_assert_eq!(&m, &fixpoint);
        prop_assert_eq!(again, hls::nir::RewriteReport::default());

        // rewrites preserved observable behaviour
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Netlists containing the timed-rewrite shapes — rebuilt balanced
    /// operator trees, strength-reduced shifts and retimed registers —
    /// validate and stay differentially bit-exact. The passes run unmasked
    /// here to maximize how many of the new cell shapes land in the corpus.
    #[test]
    fn timed_rewrite_shapes_stay_bit_exact(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((body, mut m)) = lowered(seed, pipelined, shared)? else {
            return Ok(());
        };
        hls::nir::optimize(&mut m);

        hls::nir::rebalance_operator_chains(&mut m, None);
        hls::nir::strength_reduce_shifts(&mut m, None);
        hls::nir::retime_registers(&mut m, None);
        hls::nir::normalize(&mut m);
        hls::nir::sweep(&mut m);
        validate(&m)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: post-timed: {e}")))?;

        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Breaking the mux chains apart changes no write: each case lowers one
    /// random program, and the program's module and 16 mutants of it (see
    /// [`mutate`]) must simulate to the same write trace before and after
    /// [`unchain`], or fail to compile on both sides.
    #[test]
    fn unchained_muxes_simulate_as_their_chains_do(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((body, m)) = lowered(seed, pipelined, shared)? else {
            return Ok(());
        };
        let stimulus = Stimulus::random(&body.dfg, 8, seed);
        let mut rng = SmallRng::seed_from_u64(seed.rotate_left(32));
        for k in 0..=16 {
            let mut mutant = m.clone();
            if k > 0 {
                mutate(&mut mutant, &mut rng);
            }
            let chained = writes(&mutant, &stimulus);
            let unchained = writes(&unchain(&mutant), &stimulus);
            prop_assert!(
                chained == unchained,
                "seed {}, mutant {}: {} compile(s) and {} write(s) chained, {} and {} unchained; edited fields:\n{}",
                seed,
                k,
                u8::from(chained.is_some()),
                chained.as_ref().map_or(0, Vec::len),
                u8::from(unchained.is_some()),
                unchained.as_ref().map_or(0, Vec::len),
                edits(&m, &mutant)
            );
        }
    }

    /// Edited netlists never panic a consumer. Each case lowers one random
    /// program and feeds 48 mutants of it (see [`mutate`]) through the
    /// validator and the simulator's compiler and, for every module that
    /// validates, the Verilog printer, the static timing analysis, the lint
    /// analyzer and `optimize`.
    #[test]
    fn mutated_netlist_ends_in_a_typed_error_or_a_result(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((_, m)) = lowered(seed, pipelined, shared)? else {
            return Ok(());
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..48 {
            let mut mutant = m.clone();
            mutate(&mut mutant, &mut rng);
            if catch_unwind(AssertUnwindSafe(|| consume(&mutant))).is_err() {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}, mutant {k} panicked; edited fields:\n{}",
                    edits(&m, &mutant)
                )));
            }
        }
    }
}

fn cmp_name(kind: CmpKind) -> &'static str {
    match kind {
        CmpKind::Eq => "eq",
        CmpKind::Ne => "ne",
        CmpKind::Lt => "lt",
        CmpKind::Le => "le",
        CmpKind::Gt => "gt",
        CmpKind::Ge => "ge",
    }
}

/// An operation kind's name, one per comparison kind. No arm is a
/// wildcard, so a new kind fails to compile until it is named here, and
/// then fails the coverage test until [`OP_KINDS`] lists it.
fn op_kind(kind: &OpKind) -> String {
    let name = match kind {
        OpKind::Add => "add",
        OpKind::Sub => "sub",
        OpKind::Mul => "mul",
        OpKind::Div => "div",
        OpKind::Rem => "rem",
        OpKind::And => "and",
        OpKind::Or => "or",
        OpKind::Xor => "xor",
        OpKind::Not => "not",
        OpKind::Neg => "neg",
        OpKind::Shl => "shl",
        OpKind::Shr => "shr",
        OpKind::Cmp(c) => return format!("cmp-{}", cmp_name(*c)),
        OpKind::Mux => "mux",
        OpKind::Slice { .. } => "slice",
        OpKind::Resize => "resize",
        OpKind::Const(_) => "const",
        OpKind::Read(_) => "read",
        OpKind::Write(_) => "write",
        OpKind::Pass => "pass",
    };
    name.into()
}

/// A cell kind's name, one per binary and unary kind; exhaustive as
/// [`op_kind`] is.
fn cell_kind(kind: &CellKind) -> String {
    let name = match kind {
        CellKind::Const(_) => "const",
        CellKind::Input { .. } => "input",
        CellKind::Output { .. } => "output",
        CellKind::Bin(bin) => {
            return match bin {
                BinKind::Add => "add".into(),
                BinKind::Sub => "sub".into(),
                BinKind::Mul => "mul".into(),
                BinKind::Div => "div".into(),
                BinKind::Rem => "rem".into(),
                BinKind::And => "and".into(),
                BinKind::Or => "or".into(),
                BinKind::Xor => "xor".into(),
                BinKind::Shl => "shl".into(),
                BinKind::Shr => "shr".into(),
                BinKind::Cmp(c) => format!("cmp-{}", cmp_name(*c)),
            }
        }
        CellKind::Un(UnKind::Not) => "not",
        CellKind::Un(UnKind::Neg) => "neg",
        CellKind::Mux => "mux",
        CellKind::Slice { .. } => "slice",
        CellKind::Resize => "resize",
        CellKind::Reg { .. } => "reg",
        CellKind::FsmState => "fsm-state",
        CellKind::StageValid { .. } => "stage-valid",
        CellKind::FirstIter { .. } => "first-iter",
    };
    name.into()
}

const CMP_KINDS: [&str; 6] = ["cmp-eq", "cmp-ne", "cmp-lt", "cmp-le", "cmp-gt", "cmp-ge"];

/// Every operation kind but the comparisons.
const OP_KINDS: [&str; 19] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "not", "neg", "shl", "shr", "mux",
    "slice", "resize", "const", "read", "write", "pass",
];

/// Every cell kind but the comparisons.
const CELL_KINDS: [&str; 22] = [
    "const",
    "input",
    "output",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "and",
    "or",
    "xor",
    "shl",
    "shr",
    "not",
    "neg",
    "mux",
    "slice",
    "resize",
    "reg",
    "fsm-state",
    "stage-valid",
    "first-iter",
];

/// Whether `stmts` hold a `while` loop, and whether they hold an `if`
/// inside a branch of another.
fn shapes(stmts: &[Stmt], in_branch: bool, while_loop: &mut bool, nested_if: &mut bool) {
    for s in stmts {
        match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                *nested_if |= in_branch;
                shapes(then_body, true, while_loop, nested_if);
                shapes(else_body, true, while_loop, nested_if);
            }
            Stmt::Loop { kind, body, .. } => {
                *while_loop |= *kind == LoopKind::While;
                shapes(body, in_branch, while_loop, nested_if);
            }
            Stmt::Assign { .. } | Stmt::WritePort { .. } | Stmt::Wait => {}
        }
    }
}

/// The generator's first 200 programs, sequential and at II = 2, reach
/// every operation kind in their linearized bodies (25, counting each
/// comparison kind), every cell kind in their netlists lowered per
/// operation and with shared units (28 each), a `while` loop and a nested
/// `if`.
#[test]
fn generated_programs_reach_every_operation_and_cell_kind() {
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(4200.0);
    let mut ops = BTreeSet::new();
    let mut cells = [BTreeSet::new(), BTreeSet::new()];
    let (mut while_loop, mut nested_if) = (false, false);
    for seed in 0..200u64 {
        let behavior = random_behavior(seed);
        shapes(&behavior.body, false, &mut while_loop, &mut nested_if);
        let mut cdfg = hls::frontend::elaborate(&behavior).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        ops.extend(body.dfg.iter_ops().map(|(_, op)| op_kind(&op.kind)));
        for config in [
            SchedulerConfig::sequential(clock, 1, 24),
            SchedulerConfig::pipelined(clock, 2, 24),
        ] {
            let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
                continue;
            };
            let bound = bind(&body, &schedule.desc).expect("binds");
            for (style, seen) in [RtlStyle::PerOp, RtlStyle::SharedFu]
                .into_iter()
                .zip(&mut cells)
            {
                let m = lower(&body, &schedule.desc, &bound, style).expect("lowers");
                seen.extend(m.iter_cells().map(|(_, cell)| cell_kind(&cell.kind)));
            }
        }
    }
    let all = |kinds: &[&str]| -> BTreeSet<String> {
        kinds
            .iter()
            .chain(&CMP_KINDS)
            .map(|k| k.to_string())
            .collect()
    };
    assert_eq!(ops, all(&OP_KINDS), "operation kinds");
    for (style, seen) in ["per-op", "shared-FU"].into_iter().zip(&cells) {
        assert_eq!(*seen, all(&CELL_KINDS), "{style} cell kinds");
    }
    assert!(while_loop, "no `while` loop");
    assert!(nested_if, "no nested `if`");
}
