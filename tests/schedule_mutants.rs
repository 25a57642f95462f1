//! Schedule mutants: the stock designs' schedules broken in three ways,
//! with the verdict of each schedule check on each mutant, pinned in
//! `tests/golden/schedule_mutation_kills.txt`.
//!
//! * `move` — one scheduled operation moved to every other state, one
//!   state past the last included;
//! * `ii` — a pipelined schedule's initiation interval lowered by one
//!   (while it stays positive), raised by one and by two, or dropped
//!   (the schedule run unpipelined);
//! * `latency` — one extra state at the end.
//!
//! Every line records two verdicts: the retired per-op schedule simulator
//! (`ScheduleSim`) and the per-op netlist check (`differential::check`,
//! which lowers the schedule with `RtlStyle::PerOp` and runs `check_nir`).
//! A verdict is `ok` or the error variant.
//!
//! The `schedule_sim` column is frozen data, read back from the golden,
//! while the other is recomputed. Run with `UPDATE_GOLDEN=1` to bless an
//! intentional change after reviewing the diff.

mod common;

use common::{caught, compare_or_bless, golden_rows, mutant_designs, verdict};
use hls::ir::{LinearBody, OpId};
use hls::netlist::ScheduleDesc;
use hls::sched::{Scheduler, SchedulerConfig};
use hls::sim::differential::check;
use hls::sim::Stimulus;
use hls::tech::TechLibrary;
use std::collections::HashMap;
use std::fmt::Write as _;

const STIMULUS_SEED: u64 = 0x5C4E;
const VECTORS: usize = 16;
const GOLDEN: &str = "schedule_mutation_kills.txt";

/// The operation's kind as a golden column: `anchor` for a first-iteration
/// anchor, its mnemonic otherwise.
fn kind_of(body: &LinearBody, op: OpId) -> String {
    let o = body.dfg.op(op);
    if o.is_first_iter_anchor() {
        "anchor".into()
    } else {
        o.kind.mnemonic()
    }
}

/// Whether a golden kind column names a free (wiring-only) operation.
fn free_kind(kind: &str) -> bool {
    matches!(kind, "pass" | "anchor" | "resize")
        || kind.starts_with("slice[")
        || kind.starts_with("const(")
}

/// One line per mutant of `body` under `config`, with the `schedule_sim`
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
    let stimulus = Stimulus::random(&body.dfg, VECTORS, STIMULUS_SEED);
    let mut row = |family: &str, target: &str, change: &str, mutant: &ScheduleDesc| {
        let key = format!("{name} {family} {target} {change}");
        let by_sim = frozen.get(&key).map_or("?", String::as_str);
        let by_nir = verdict(&check(body, mutant, &stimulus));
        let _ = writeln!(out, "{key} {by_sim} {by_nir}");
    };
    for (&op, so) in &desc.ops {
        let target = format!("op{}:{}", op.index(), kind_of(body, op));
        for state in (0..=desc.num_states).filter(|&s| s != so.state) {
            let mut mutant = desc.clone();
            mutant.ops.get_mut(&op).expect("scheduled").state = state;
            row(
                "move",
                &target,
                &format!("s{}->s{state}", so.state),
                &mutant,
            );
        }
    }
    if let Some(ii) = desc.ii {
        let changes = [Some(ii - 1), Some(ii + 1), Some(ii + 2), None];
        for to in changes.into_iter().filter(|&to| to != Some(0)) {
            let mut mutant = desc.clone();
            mutant.ii = to;
            let to = to.map_or("seq".into(), |i| i.to_string());
            row("ii", "-", &format!("{ii}->{to}"), &mutant);
        }
    }
    let mut mutant = desc.clone();
    mutant.num_states += 1;
    let change = format!("{}->{}", desc.num_states, mutant.num_states);
    row("latency", "-", &change, &mutant);
}

#[test]
fn schedule_mutant_verdicts_match_golden() {
    let frozen: HashMap<String, String> = golden_rows(GOLDEN)
        .into_iter()
        .map(|cols| (cols[..4].join(" "), cols[4].clone()))
        .collect();
    let mut out = String::from("# design family target change schedule_sim per_op_netlist\n");
    for (name, body, config) in mutant_designs() {
        mutant_lines(&mut out, &frozen, name, &body, config);
    }
    compare_or_bless(GOLDEN, &out);
}

#[test]
fn the_netlist_check_kills_every_schedule_sim_kill_but_free_moves() {
    let mut kills = 0;
    let mut free_moves = 0;
    for cols in golden_rows(GOLDEN) {
        let [_, family, target, _, by_sim, by_nir] = &cols[..] else {
            panic!("malformed golden line: {cols:?}");
        };
        if !caught(by_sim) {
            assert!(
                !caught(by_nir),
                "a passing mutant is killed: {}",
                cols.join(" ")
            );
            continue;
        }
        kills += 1;
        if !caught(by_nir) {
            let kind = target.split_once(':').map_or("", |(_, k)| k);
            assert!(
                family == "move" && free_kind(kind),
                "the schedule simulator alone kills: {}",
                cols.join(" ")
            );
            free_moves += 1;
        }
    }
    assert_eq!(kills, 1336, "schedule-simulator kills in the golden");
    assert_eq!(
        free_moves, 81,
        "free-op moves only the schedule simulator kills"
    );
}
