//! Golden snapshot of the scheduler's decisions on the flow benchmark's
//! designs, so a change that moves them is caught however the scheduler is
//! reworked.
//!
//! `sched_decisions.txt` holds one line per (design, configuration), in the
//! format of `common::success_line` / `common::failure_line`: on success
//! the latency, pass count, relaxation actions, allocated instances per
//! type, worst-slack bits and a digest of every op's (state, instance); on
//! failure the `SchedError` variant with its latency, pass count and
//! worst-slack bits or budget and action digest, and a digest of the
//! rendered restraints, whose order breaks the relaxation's ties.
//!
//! The corpus is the flow benchmark's paper designs, Example 1 at II=1,
//! a genuine refusal (Example 1 capped at one state with no hardware to
//! add), generated designs of 100–300 ops at sequential 1600 ps and
//! II=2 / II=1 at 2200 ps, all with latency bound 24, and three of the
//! flow benchmark's `sched_relax` refusals of 400–600 ops, whose pools
//! grow to hundreds of instances (`Filter/600/s1` at II=2 to 289, five
//! 64-bit words). It reaches every relaxation action and both refusal
//! variants; `Filter/100/s2` and `Filter/300/s2` relax through
//! `ForbidBinding` at sequential 1600 ps.
//!
//! `sched_work.txt` holds one line per scheduled configuration of the same
//! corpus: the control steps scheduled and the placement attempts made,
//! summed over the passes. Those counts are not decisions — a re-pass that
//! redoes work it could have skipped schedules the same — so this golden
//! is the one that fails when an incremental re-pass loses its resume
//! point. A change that lowers them is re-blessed; one that raises them
//! needs a reason.
//!
//! Run with `UPDATE_GOLDEN=1` to bless an intentional change after
//! reviewing the diff.

mod common;

use common::{compare_or_bless, failure_line, success_line};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::frontend::ast::Behavior;
use hls::ir::LinearBody;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{RelaxAction, SchedError, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use std::collections::BTreeSet;
use std::fmt::Write as _;

const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];

fn body_of(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

/// The decision and work goldens being built, and the action kinds and
/// error variants seen so far.
#[derive(Default)]
struct Corpus {
    decisions: String,
    work: String,
    seen: BTreeSet<&'static str>,
}

/// Schedules `body` under `config` and appends its decision line, and its
/// work line if it schedules.
fn record(corpus: &mut Corpus, label: &str, body: &LinearBody, config: SchedulerConfig) {
    let lib = TechLibrary::artisan_90nm_typical();
    let seen = &mut corpus.seen;
    let line = match Scheduler::new(body, &lib, config).run() {
        Ok(s) => {
            let _ = writeln!(
                corpus.work,
                "{label} steps={} attempts={}",
                s.steps_scheduled, s.placement_attempts
            );
            for a in &s.actions {
                seen.insert(match a {
                    RelaxAction::AddState => "AddState",
                    RelaxAction::AddResource(_) => "AddResource",
                    RelaxAction::AddResourceBatch { .. } => "AddResourceBatch",
                    RelaxAction::MoveScc { .. } => "MoveScc",
                    RelaxAction::ForbidBinding { .. } => "ForbidBinding",
                });
            }
            success_line(&s)
        }
        Err(e) => {
            seen.insert(match e {
                SchedError::Overconstrained { .. } => "Overconstrained",
                SchedError::BudgetExhausted { .. } => "BudgetExhausted",
                _ => "other",
            });
            failure_line(&e)
        }
    };
    let _ = writeln!(corpus.decisions, "{label} {line}");
}

#[test]
fn scheduling_decisions_match_golden() {
    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2000 = ClockConstraint::from_period_ps(2000.0);
    let c2200 = ClockConstraint::from_period_ps(2200.0);
    let example1 = body_of(&paper_example1());
    let fir8 = body_of(&fir_filter(&FIR8_TAPS, 16));
    let idct8 = idct8_design();
    let mut corpus = Corpus::default();

    let mut refusal = SchedulerConfig::sequential(c1600, 1, 1);
    refusal.allow_add_resources = false;
    let paper: [(&str, &LinearBody, SchedulerConfig); 9] = [
        (
            "example1/seq@1600ps/L3",
            &example1,
            SchedulerConfig::sequential(c1600, 1, 3),
        ),
        (
            "example1/ii2@1600ps/L6",
            &example1,
            SchedulerConfig::pipelined(c1600, 2, 6),
        ),
        (
            "example1/ii1@1600ps/L6",
            &example1,
            SchedulerConfig::pipelined(c1600, 1, 6),
        ),
        ("example1/seq@1600ps/L1/no-add", &example1, refusal),
        (
            "moving_average/ii1@1600ps/L8",
            &body_of(&moving_average(2, 16)),
            SchedulerConfig::pipelined(c1600, 1, 8),
        ),
        (
            "fir8/seq@1600ps/L16",
            &fir8,
            SchedulerConfig::sequential(c1600, 1, 16),
        ),
        (
            "fir8/ii2@1600ps/L16",
            &fir8,
            SchedulerConfig::pipelined(c1600, 2, 16),
        ),
        (
            "idct8/seq@2000ps/L16",
            &idct8,
            SchedulerConfig::sequential(c2000, 1, 16),
        ),
        (
            "idct8/ii8@2000ps/L16",
            &idct8,
            SchedulerConfig::pipelined(c2000, 8, 16),
        ),
    ];
    for (label, body, config) in paper {
        record(&mut corpus, label, body, config);
    }

    for class in DesignClass::all() {
        for ops in [100usize, 200, 300] {
            for seed in 0..3u64 {
                let body = synthetic_design(class, ops, seed);
                let id = format!("{class:?}/{ops}/s{seed}");
                for (tag, config) in [
                    ("seq@1600ps/L24", SchedulerConfig::sequential(c1600, 1, 24)),
                    ("ii2@2200ps/L24", SchedulerConfig::pipelined(c2200, 2, 24)),
                    ("ii1@2200ps/L24", SchedulerConfig::pipelined(c2200, 1, 24)),
                ] {
                    record(&mut corpus, &format!("{id}/{tag}"), &body, config);
                }
            }
        }
    }

    // Refusals from the flow benchmark's `sched_relax` workload, scheduled
    // without its recovery ladder.
    use DesignClass::{Fft, Filter};
    for (class, ops, seed, tag, config) in [
        (
            Filter,
            400,
            0,
            "seq@1600ps/L24",
            SchedulerConfig::sequential(c1600, 1, 24),
        ),
        (
            Fft,
            600,
            0,
            "seq@1600ps/L24",
            SchedulerConfig::sequential(c1600, 1, 24),
        ),
        (
            Filter,
            600,
            1,
            "ii2@2200ps/L24",
            SchedulerConfig::pipelined(c2200, 2, 24),
        ),
    ] {
        let body = synthetic_design(class, ops, seed);
        record(
            &mut corpus,
            &format!("{class:?}/{ops}/s{seed}/{tag}"),
            &body,
            config,
        );
    }

    for required in [
        "AddState",
        "AddResource",
        "AddResourceBatch",
        "MoveScc",
        "ForbidBinding",
        "Overconstrained",
        "BudgetExhausted",
    ] {
        assert!(
            corpus.seen.contains(required),
            "the decision corpus no longer exercises {required} (saw {:?})",
            corpus.seen
        );
    }
    compare_or_bless("sched_decisions.txt", &corpus.decisions);
    compare_or_bless("sched_work.txt", &corpus.work);
}
