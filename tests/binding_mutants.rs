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

use common::{caught, compare_or_bless, golden_rows, mutant_designs, verdict};
use hls::bind::{bind, lower, BoundDesign, RtlStyle};
use hls::ir::{LinearBody, OpId};
use hls::netlist::ScheduleDesc;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential::check_nir;
use hls::sim::Stimulus;
use hls::tech::{ResourceInstanceId, TechLibrary};
use std::collections::HashMap;
use std::fmt::Write as _;

const STIMULUS_SEED: u64 = 0x601D;
const VECTORS: usize = 16;
const GOLDEN: &str = "binding_mutation_kills.txt";

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
    let frozen: HashMap<String, String> = golden_rows(GOLDEN)
        .into_iter()
        .map(|cols| (cols[..4].join(" "), cols[5].clone()))
        .collect();
    let mut out = String::from("# design family op from->to bind check_bound lower check_nir\n");
    for (name, body, config) in mutant_designs() {
        mutant_lines(&mut out, &frozen, name, &body, config);
    }
    compare_or_bless(GOLDEN, &out);
}

#[test]
fn every_check_bound_kill_is_refused_or_caught_by_check_nir() {
    let mut kills = 0;
    for cols in golden_rows(GOLDEN) {
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
