//! Property tests for the structural netlist. Random small programs go
//! through the full flow to a lowered [`NirModule`], which must reach a
//! rewrite fixpoint in one `optimize` run (a second run changes nothing),
//! growing neither the cell count nor the mux depth, and stay
//! differentially bit-exact against the reference interpreter after the
//! untimed and the timed rewrites. A fuzz property edits the public fields
//! of lowered modules and requires every consumer to end in a typed error
//! or a result, never a panic.

use hls::bind::{bind, lower, RtlStyle};
use hls::ir::{CmpKind, LinearBody};
use hls::lint::{analyze, analyze_timing, LintConfig, LintContext};
use hls::netlist::{emit_verilog, ChainTiming};
use hls::nir::{validate, BinKind, CellId, CellKind, NirModule, UnKind};
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::{differential, NirSim};
use hls::tech::{ClockConstraint, TechLibrary};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
