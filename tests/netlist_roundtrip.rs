//! Property tests for the structural netlist: random small programs go
//! through the full flow to a lowered [`NirModule`], and the netlist must
//! (a) survive a text round-trip structurally unchanged —
//! `text_parse(text_emit(n)) == n` — and (b) reach a rewrite fixpoint in one
//! `optimize` run (a second run changes nothing), growing neither the cell
//! count nor the mux depth. Both properties are checked before and after
//! optimization, and the rewritten netlist must stay differentially
//! bit-exact against the reference interpreter. A fuzz property mutates the
//! emitted text and requires every consumer of a parsed netlist to end in a
//! typed error or a result, never a panic.

use hls::bind::{bind, lower, RtlStyle};
use hls::ir::LinearBody;
use hls::lint::{analyze, analyze_timing, LintConfig, LintContext};
use hls::netlist::{emit_verilog, ChainTiming};
use hls::nir::{text_emit, text_parse, validate, NirModule};
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

/// What a mutation may change in the emitted text.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// A cell's `%id` operand.
    Operand,
    /// A cell's `w<N>` width or a port's width.
    Width,
    /// A slice bound, `port=`, `state=`, `init=` or a controller stage.
    Field,
    /// A cell kind, swapped for another kind of the same arity.
    Kind,
    /// The header's `fold=`, `states=` or `stages=`.
    Header,
}

const BINARY: [&str; 16] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "eq", "neq", "lt", "le",
    "gt", "ge",
];
const UNARY: [&str; 3] = ["not", "neg", "resize"];
const STAGED: [&str; 2] = ["stagevalid", "firstiter"];

/// The mutable slots of one tokenized line, with their token indices.
fn slots(line: usize, toks: &[String]) -> Vec<(Slot, usize)> {
    if line == 0 {
        return (2..toks.len()).map(|i| (Slot::Header, i)).collect();
    }
    match toks[0].as_str() {
        "port" => vec![(Slot::Width, toks.len() - 1)],
        "endmodule" => vec![],
        _ => {
            let mut out = Vec::new();
            let kw = toks[2].as_str();
            if BINARY.contains(&kw) || UNARY.contains(&kw) || STAGED.contains(&kw) {
                out.push((Slot::Kind, 2));
            }
            let fielded = ["slice", "input", "output", "reg"].contains(&kw) || STAGED.contains(&kw);
            for (i, t) in toks.iter().enumerate().skip(3) {
                let slot = if t.starts_with('%') {
                    Slot::Operand
                } else if t.starts_with('w') {
                    Slot::Width
                } else if fielded && !t.starts_with("name=") {
                    Slot::Field
                } else {
                    continue;
                };
                out.push((slot, i));
            }
            out
        }
    }
}

/// A replacement integer for `old`: a neighbour, a small value or a
/// boundary of the field types.
fn integer(rng: &mut SmallRng, old: &str) -> String {
    const EDGES: [i128; 16] = [
        0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 65, 65535, 4294967295, -1,
    ];
    let old: i128 = old.parse().unwrap_or(0);
    match rng.gen_range(0u32..4) {
        0 => (old + 1).to_string(),
        1 => (old - 1).to_string(),
        2 => EDGES[rng.gen_range(0..EDGES.len())].to_string(),
        _ => [i64::MIN, i64::MAX][rng.gen_range(0usize..2)].to_string(),
    }
}

/// Keeps a token's non-numeric prefix (`w`, `port=`, …) and replaces the
/// integer after it.
fn renumber(rng: &mut SmallRng, tok: &str) -> String {
    let at = tok
        .find(|c: char| c.is_ascii_digit() || c == '-')
        .unwrap_or(tok.len());
    format!("{}{}", &tok[..at], integer(rng, &tok[at..]))
}

/// Applies one to three mutations to the emitted text of a netlist. The
/// line structure and every token's shape stay; what changes is operand
/// ids (a third of them retargeted at `output` cells), widths, slice
/// bounds, port/state/stage/init values, same-arity kinds and the header.
fn mutate(text: &str, rng: &mut SmallRng) -> String {
    // Splitting at single spaces and joining back reproduces every line;
    // a slot found inside a quoted name only renames the cell.
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(' ').map(String::from).collect())
        .collect();
    let cells = lines.iter().filter(|t| t[0].starts_with('%')).count();
    let outputs: Vec<usize> = lines
        .iter()
        .filter(|t| t[0].starts_with('%') && t[2] == "output")
        .map(|t| t[0][1..].parse().expect("cell id"))
        .collect();
    let all: Vec<(usize, Slot, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| slots(l, toks).into_iter().map(move |(s, i)| (l, s, i)))
        .collect();
    const KINDS: [Slot; 5] = [
        Slot::Operand,
        Slot::Width,
        Slot::Field,
        Slot::Kind,
        Slot::Header,
    ];
    for _ in 0..rng.gen_range(1u32..=3) {
        let want = KINDS[rng.gen_range(0..KINDS.len())];
        let pool: Vec<&(usize, Slot, usize)> = all.iter().filter(|s| s.1 == want).collect();
        if pool.is_empty() {
            continue;
        }
        let &(l, slot, i) = pool[rng.gen_range(0..pool.len())];
        let tok = &lines[l][i];
        let new = match slot {
            Slot::Operand => {
                let id = if !outputs.is_empty() && rng.gen_bool(1.0 / 3.0) {
                    outputs[rng.gen_range(0..outputs.len())]
                } else {
                    rng.gen_range(0..cells + 2)
                };
                format!("%{id}")
            }
            Slot::Kind => {
                let family: &[&str] = if BINARY.contains(&tok.as_str()) {
                    &BINARY
                } else if UNARY.contains(&tok.as_str()) {
                    &UNARY
                } else {
                    &STAGED
                };
                family[rng.gen_range(0..family.len())].to_string()
            }
            Slot::Width | Slot::Field | Slot::Header => renumber(rng, tok),
        };
        lines[l][i] = new;
    }
    let mut out: String = lines
        .iter()
        .map(|t| t.join(" "))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

/// Runs every consumer of a parsed netlist that the public API offers on
/// `text`. Parsing must end in a module or a located error; a module that
/// validates must print, analyse, compile for simulation and optimize.
fn consume(text: &str) {
    let m = match text_parse(text) {
        Ok(m) => m,
        Err(e) => {
            assert!(
                (1..=text.lines().count()).contains(&e.line),
                "error outside the text: {e}"
            );
            return;
        }
    };
    if validate(&m).is_err() {
        return;
    }
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(2000.0);
    emit_verilog(&m);
    analyze_timing(&m, &mut ChainTiming::new(&lib, clock));
    analyze(&m, &LintContext::new(&lib, clock), &LintConfig::default());
    let _ = NirSim::new(&m);
    hls::nir::optimize(&mut m.clone());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn lowered_netlists_round_trip_and_rewrites_are_idempotent(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((body, mut m)) = lowered(seed, pipelined, shared)? else {
            // an over-constrained random instance is acceptable
            return Ok(());
        };
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: validate: {e}")))?;

        // text round-trip on the freshly lowered netlist
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites shrink or keep the netlist, reach a fixpoint in one run…
        let (cells, depth) = (m.num_cells(), m.max_mux_depth());
        hls::nir::optimize(&mut m);
        validate(&m).map_err(|e| TestCaseError::fail(format!("seed {seed}: post-opt: {e}")))?;
        prop_assert!(m.num_cells() <= cells, "cells {} -> {}", cells, m.num_cells());
        prop_assert!(m.max_mux_depth() <= depth, "mux depth {} -> {}", depth, m.max_mux_depth());
        let fixpoint = m.clone();
        let again = hls::nir::optimize(&mut m);
        prop_assert_eq!(&m, &fixpoint);
        prop_assert_eq!(again, hls::nir::RewriteReport::default());

        // …and the rewritten netlist still round-trips
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: re-parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // rewrites preserved observable behaviour
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Netlists containing the timed-rewrite shapes — rebuilt balanced
    /// operator trees, strength-reduced shifts and retimed registers — keep
    /// the text-format contract `text_parse(text_emit(n)) == n` and stay
    /// differentially bit-exact. The passes run unmasked here to maximize
    /// how many of the new cell shapes land in the corpus.
    #[test]
    fn timed_rewrite_shapes_round_trip_and_stay_bit_exact(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((body, mut m)) = lowered(seed, pipelined, shared)? else {
            return Ok(());
        };
        hls::nir::optimize(&mut m);

        let rebalanced = hls::nir::rebalance_operator_chains(&mut m, None);
        let reduced = hls::nir::strength_reduce_shifts(&mut m, None);
        let retimed = hls::nir::retime_registers(&mut m, None);
        hls::nir::normalize(&mut m);
        hls::nir::sweep(&mut m);
        validate(&m)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: post-timed: {e}")))?;
        let _ = (rebalanced, reduced, retimed);

        // the new cell shapes survive the text format unchanged
        let reparsed = text_parse(&text_emit(&m))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: parse: {e}")))?;
        prop_assert_eq!(&reparsed, &m);

        // and observable behaviour is untouched
        differential::random_check_nir(&body, &m, 40, seed)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: differential: {e}")))?;
    }

    /// Mutated netlist text never panics a consumer. Each case lowers one
    /// random program, emits its text and feeds 48 mutants of it (see
    /// [`mutate`]) through the parser, the validator and, for every module
    /// that validates, the Verilog printer, the static timing analysis, the
    /// lint analyzer, the simulator's compiler and `optimize`.
    #[test]
    fn mutated_netlist_text_ends_in_a_typed_error_or_a_result(
        seed in 0u64..10_000,
        pipelined in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let Some((_, m)) = lowered(seed, pipelined, shared)? else {
            return Ok(());
        };
        let text = text_emit(&m);
        let mut rng = SmallRng::seed_from_u64(seed);
        for k in 0..48 {
            let mutant = mutate(&text, &mut rng);
            if catch_unwind(AssertUnwindSafe(|| consume(&mutant))).is_err() {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}, mutant {k} panicked:\n{mutant}"
                )));
            }
        }
    }
}
