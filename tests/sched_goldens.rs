//! Golden snapshot of the scheduler's decisions, so a change that moves
//! them is caught even when both scheduling drivers move together (the
//! schedule-equivalence suite only compares the drivers with each other).
//!
//! `sched_decisions.txt` holds one line per (design, configuration):
//!
//! * on success — latency, pass count, the relaxation actions in order,
//!   the allocated instances per resource type, the bits of the worst
//!   slack, and an FNV-1a digest of every op's (state, instance);
//! * on failure — the `SchedError` variant, latency and pass count, plus
//!   the bits of the worst slack (`Overconstrained`) or the budget and a
//!   digest of the applied actions (`BudgetExhausted`). The rendered
//!   restraints are left out: they are diagnostics, not decisions.
//!
//! The corpus is the flow benchmark's paper designs, Example 1 at II=1,
//! and generated designs of 100–300 ops at sequential 1600 ps and II=2 /
//! II=1 at 2200 ps, all with latency bound 24. No design of the
//! schedule-equivalence corpus relaxes through `ForbidBinding`, so that
//! action is not required here.
//!
//! Run with `UPDATE_GOLDEN=1` to bless an intentional change after
//! reviewing the diff.

mod common;

use common::{compare_or_bless, Fnv};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::frontend::ast::Behavior;
use hls::ir::LinearBody;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{RelaxAction, SchedError, Schedule, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, ResourceType, TechLibrary};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];

fn body_of(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

fn action_code(action: &RelaxAction) -> String {
    match action {
        RelaxAction::AddState => "S".into(),
        RelaxAction::AddResource(ty) => format!("R:{ty}"),
        RelaxAction::AddResourceBatch { ty, count } => format!("B{count}:{ty}"),
        RelaxAction::MoveScc { scc_index } => format!("M{scc_index}"),
        RelaxAction::ForbidBinding { op, resource } => format!("F:{op}>{}", resource.0),
    }
}

fn success_line(s: &Schedule) -> String {
    let actions: Vec<String> = s.actions.iter().map(action_code).collect();
    let mut per_type: BTreeMap<&ResourceType, usize> = BTreeMap::new();
    for inst in s.desc.resources.iter() {
        *per_type.entry(&inst.ty).or_default() += 1;
    }
    let insts: Vec<String> = per_type
        .iter()
        .map(|(ty, n)| format!("{ty}/{}={n}", ty.out_width))
        .collect();
    let mut digest = Fnv::new();
    for op in s.desc.ops.values() {
        digest.bytes(&op.state.to_le_bytes());
        digest.bytes(&op.resource.map_or(u32::MAX, |r| r.0).to_le_bytes());
    }
    format!(
        "ok latency={} passes={} actions=[{}] insts=[{}] min_slack={:#018x} ops={:#018x}",
        s.latency,
        s.passes,
        actions.join(" "),
        insts.join(" "),
        s.min_slack_ps.to_bits(),
        digest.0
    )
}

fn failure_line(e: &SchedError) -> String {
    match e {
        SchedError::Overconstrained {
            latency,
            passes,
            worst_slack_ps,
            ..
        } => format!(
            "err Overconstrained latency={latency} passes={passes} worst_slack={:#018x}",
            worst_slack_ps.to_bits()
        ),
        SchedError::BudgetExhausted {
            budget,
            latency,
            passes,
            actions,
            ..
        } => {
            let mut digest = Fnv::new();
            for a in actions {
                digest.bytes(a.as_bytes());
                digest.bytes(b"\n");
            }
            format!(
                "err BudgetExhausted latency={latency} passes={passes} budget=[{budget}] \
                 actions={} actions_digest={:#018x}",
                actions.len(),
                digest.0
            )
        }
        other => panic!("unexpected scheduler error in the decision corpus: {other}"),
    }
}

/// Schedules `body` under `config`, appends its line and records the
/// action kinds and error variants seen.
fn record(
    out: &mut String,
    seen: &mut BTreeSet<&'static str>,
    label: &str,
    body: &LinearBody,
    config: SchedulerConfig,
) {
    let lib = TechLibrary::artisan_90nm_typical();
    let line = match Scheduler::new(body, &lib, config).run() {
        Ok(s) => {
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
    let _ = writeln!(out, "{label} {line}");
}

#[test]
fn scheduling_decisions_match_golden() {
    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2000 = ClockConstraint::from_period_ps(2000.0);
    let c2200 = ClockConstraint::from_period_ps(2200.0);
    let example1 = body_of(&paper_example1());
    let fir8 = body_of(&fir_filter(&FIR8_TAPS, 16));
    let idct8 = idct8_design();
    let mut out = String::new();
    let mut seen = BTreeSet::new();

    let paper: [(&str, &LinearBody, SchedulerConfig); 8] = [
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
        record(&mut out, &mut seen, label, body, config);
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
                    record(&mut out, &mut seen, &format!("{id}/{tag}"), &body, config);
                }
            }
        }
    }

    for required in [
        "AddState",
        "AddResource",
        "AddResourceBatch",
        "MoveScc",
        "Overconstrained",
        "BudgetExhausted",
    ] {
        assert!(
            seen.contains(required),
            "the decision corpus no longer exercises {required} (saw {seen:?})"
        );
    }
    compare_or_bless("sched_decisions.txt", &out);
}
