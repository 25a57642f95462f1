//! Binding mutants: every bound operation of the stock designs moved onto
//! every other used functional unit, with the verdict of each checker on
//! each mutant, pinned in `tests/golden/binding_mutation_kills.txt`.
//!
//! Three mutant families share the same `(operation, target unit)` pairs:
//!
//! * `moved` — `fu_of` and both units' operation lists change together
//!   (the moved slot keeps the unit's steering-priority order);
//! * `fu_of` — only `fu_of` changes, the units' lists stay as bound;
//! * `schedule` — the schedule assigns the operation the target instance
//!   and `bind` derives the binding.
//!
//! Every line records four verdicts: `bind` (`-` for the hand-edited
//! families, which bypass it), `check_bound`, `lower` (shared-FU style) and
//! `check_nir` on the lowered netlist. A verdict is `ok`, `-` when an
//! earlier stage refused, or the error variant.
//!
//! The `check_bound` column holds the verdicts of the retired op-level
//! bound simulator: it is frozen data, read back from the golden, while the
//! other three columns are recomputed. Run with `UPDATE_GOLDEN=1` to bless
//! an intentional change after reviewing the diff.

mod common;

use common::compare_or_bless;
use hls::bind::{bind, lower, BoundDesign, RtlStyle};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::idct8_design;
use hls::frontend::ast::Behavior;
use hls::ir::{LinearBody, OpId};
use hls::netlist::ScheduleDesc;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential::check_nir;
use hls::sim::Stimulus;
use hls::tech::{ClockConstraint, ResourceInstanceId, TechLibrary};
use std::collections::HashMap;
use std::fmt::{Debug, Write as _};
use std::path::Path;

const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];
const STIMULUS_SEED: u64 = 0x601D;
const VECTORS: usize = 16;
const GOLDEN: &str = "binding_mutation_kills.txt";

fn body_of(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

/// The shared-FU designs and configurations of the netlist-simulator trace
/// golden.
fn designs() -> Vec<(&'static str, LinearBody, SchedulerConfig)> {
    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2000 = ClockConstraint::from_period_ps(2000.0);
    let example1 = body_of(&paper_example1());
    let fir8 = body_of(&fir_filter(&FIR8_TAPS, 16));
    let idct8 = idct8_design();
    vec![
        (
            "example1_seq",
            example1.clone(),
            SchedulerConfig::sequential(c1600, 1, 3),
        ),
        (
            "example1_ii2",
            example1.clone(),
            SchedulerConfig::pipelined(c1600, 2, 6),
        ),
        (
            "example1_ii1",
            example1,
            SchedulerConfig::pipelined(c1600, 1, 6),
        ),
        (
            "moving_average_ii1",
            body_of(&moving_average(2, 16)),
            SchedulerConfig::pipelined(c1600, 1, 8),
        ),
        (
            "fir8_seq",
            fir8.clone(),
            SchedulerConfig::sequential(c1600, 1, 16),
        ),
        ("fir8_ii2", fir8, SchedulerConfig::pipelined(c1600, 2, 16)),
        (
            "idct8_seq",
            idct8.clone(),
            SchedulerConfig::sequential(c2000, 1, 16),
        ),
        ("idct8_ii8", idct8, SchedulerConfig::pipelined(c2000, 8, 16)),
    ]
}

/// The variant name of an error's `Debug` rendering, with the variant of a
/// wrapped error in parentheses: `InvalidBinding(SlotConflict)`.
fn variant(debug: &str) -> String {
    let name: String = debug
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    match debug[name.len()..].strip_prefix('(') {
        Some(inner) => format!("{name}({})", variant(inner)),
        None => name,
    }
}

fn verdict<T, E: Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => variant(&format!("{e:?}")),
    }
}

/// The golden's mutant lines, split into columns.
fn golden_rows() -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect()
}

/// `lower` and `check_nir` verdicts on one binding.
fn check(
    body: &LinearBody,
    desc: &ScheduleDesc,
    bound: &BoundDesign,
    stimulus: &Stimulus,
) -> [String; 2] {
    let lowered = lower(body, desc, bound, RtlStyle::SharedFu);
    let by_nir = match &lowered {
        Ok(m) => verdict(&check_nir(body, m, stimulus)),
        Err(_) => "-".into(),
    };
    [verdict(&lowered), by_nir]
}

/// `bound` with `op` moved onto `to`: `fu_of` and both units' lists.
fn moved(bound: &BoundDesign, op: OpId, to: ResourceInstanceId) -> BoundDesign {
    let mut m = bound.clone();
    let from = m.fu_of[op].expect("a bound operation");
    let ops = &mut m.fus[from.index()].ops;
    let slot = ops.remove(ops.iter().position(|s| s.op == op).expect("listed"));
    let ops = &mut m.fus[to.index()].ops;
    let at = ops.partition_point(|s| (s.folded_state, s.op) < (slot.folded_state, slot.op));
    ops.insert(at, slot);
    m.fu_of[op] = Some(to);
    m
}

/// One line per mutant of `body` under `config`, with the `check_bound`
/// verdict taken from `frozen` (`?` for a mutant the golden lacks).
fn mutant_lines(
    out: &mut String,
    frozen: &HashMap<String, String>,
    name: &str,
    body: &LinearBody,
    config: SchedulerConfig,
) {
    let lib = TechLibrary::artisan_90nm_typical();
    let desc = Scheduler::new(body, &lib, config)
        .run()
        .unwrap_or_else(|e| panic!("{name}: schedules: {e}"))
        .desc;
    let bound = bind(body, &desc).unwrap_or_else(|e| panic!("{name}: binds: {e}"));
    let stimulus = Stimulus::random(&body.dfg, VECTORS, STIMULUS_SEED);
    let used: Vec<ResourceInstanceId> = bound
        .fus
        .iter()
        .filter(|f| !f.ops.is_empty())
        .map(|f| f.instance)
        .collect();
    let mut row = |family: &str, op: OpId, from: ResourceInstanceId, to, verdicts: [&str; 3]| {
        let [by_bind, by_lower, by_nir] = verdicts;
        let key = format!("{name} {family} op{} {from}->{to}", op.index());
        let by_bound = frozen.get(&key).map_or("?", String::as_str);
        let _ = writeln!(out, "{key} {by_bind} {by_bound} {by_lower} {by_nir}");
    };
    for (op, from) in bound.fu_of.iter() {
        let Some(from) = *from else { continue };
        for &to in used.iter().filter(|&&to| to != from) {
            let [l, n] = check(body, &desc, &moved(&bound, op, to), &stimulus);
            row("moved", op, from, to, ["-", &l, &n]);

            let mut fu_of_only = bound.clone();
            fu_of_only.fu_of[op] = Some(to);
            let [l, n] = check(body, &desc, &fu_of_only, &stimulus);
            row("fu_of", op, from, to, ["-", &l, &n]);

            let mut rescheduled = desc.clone();
            rescheduled.ops.get_mut(&op).expect("scheduled").resource = Some(to);
            let rebound = bind(body, &rescheduled);
            let [l, n] = match &rebound {
                Ok(rebound) => check(body, &rescheduled, rebound, &stimulus),
                Err(_) => ["-".into(), "-".into()],
            };
            row("schedule", op, from, to, [&verdict(&rebound), &l, &n]);
        }
    }
}

#[test]
fn binding_mutant_verdicts_match_golden() {
    let frozen: HashMap<String, String> = golden_rows()
        .into_iter()
        .map(|cols| (cols[..4].join(" "), cols[5].clone()))
        .collect();
    let mut out = String::from("# design family op from->to bind check_bound lower check_nir\n");
    for (name, body, config) in designs() {
        mutant_lines(&mut out, &frozen, name, &body, config);
    }
    compare_or_bless(GOLDEN, &out);
}

/// A verdict that stops the mutant: a refusal or a divergence.
fn caught(verdict: &str) -> bool {
    !matches!(verdict, "ok" | "-")
}

#[test]
fn every_check_bound_kill_is_refused_or_caught_by_check_nir() {
    let mut kills = 0;
    for cols in golden_rows() {
        let [.., by_bind, by_bound, by_lower, by_nir] = &cols[..] else {
            panic!("malformed golden line: {cols:?}");
        };
        if caught(by_bound) {
            kills += 1;
            assert!(
                caught(by_bind) || caught(by_lower) || caught(by_nir),
                "check_bound alone kills: {}",
                cols.join(" ")
            );
        }
    }
    assert_eq!(kills, 1516, "check_bound kills in the golden");
}
