//! Golden snapshot of the static-timing analyzer's verdicts, so a change
//! to how `analyze_timing` walks the netlist cannot move a single figure
//! unnoticed.
//!
//! `sta_summaries.txt` holds one line per (netlist, clock):
//!
//! * the worst and total negative slack as `f64` bits, and the endpoint
//!   count;
//! * an FNV-1a digest of every endpoint's (cell, delay bits, slack bits),
//!   in report order;
//! * the critical path, launch to capture, as `name:incr_ps` steps with
//!   the increment as `f64` bits;
//! * the bits of the scheduler's `min_slack_ps` for the run that produced
//!   the netlist, so the slack the scheduler priced sits next to the slack
//!   the netlist has;
//! * the netlist's operator cells per kind (binary and unary operators with
//!   a non-zero count, by mnemonic);
//! * the schedule's allocated instances per resource class.
//!
//! The last three fields were added, and blessed on the code as it was,
//! before any change to the lowering: a change that makes the netlist
//! build the hardware the scheduler priced moves them, and must say why.
//!
//! The corpus is the flow benchmark's paper designs, each as lowered and as
//! the synthesizer's final netlist at the run's clock; the idct8 II=8
//! netlist synthesized at 2000 ps and analysed at 1700 ps before and after
//! `optimize_timed`, which keeps one round there; and generated designs of
//! 100–300 ops, sequential at 1600 ps and II=2 at 2200 ps, lowered and
//! after `optimize`, at the scheduling clock and at 900 ps, where most
//! endpoints miss.
//!
//! Run with `UPDATE_GOLDEN=1` to bless an intentional change after
//! reviewing the diff.

mod common;

use common::{compare_or_bless, Fnv};
use hls::bind::{bind, lower, RtlStyle};
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::lint::{analyze_timing, optimize_timed, TimingSummary};
use hls::netlist::ChainTiming;
use hls::nir::{CellKind, NirModule};
use hls::sched::{Schedule, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{SynthesisResult, Synthesizer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];

fn summary_line(s: &TimingSummary) -> String {
    let mut digest = Fnv::new();
    for ep in &s.endpoints {
        digest.bytes(&ep.cell.index().to_le_bytes());
        digest.bytes(&ep.delay_ps.to_bits().to_le_bytes());
        digest.bytes(&ep.slack_ps.to_bits().to_le_bytes());
    }
    let path: Vec<String> = s
        .critical_path
        .iter()
        .map(|step| format!("{}:{:x}", step.name, step.incr_ps.to_bits()))
        .collect();
    format!(
        "wns={:#018x} tns={:#018x} endpoints={} digest={:#018x} path=[{}]",
        s.wns_ps.to_bits(),
        s.tns_ps.to_bits(),
        s.endpoints.len(),
        digest.0,
        path.join(" ")
    )
}

/// The scheduler's worst slack, `m`'s operator cells per kind and the
/// schedule's instances per resource class.
fn hardware_line(m: &NirModule, schedule: &Schedule) -> String {
    let mut operators: BTreeMap<&str, usize> = BTreeMap::new();
    for cell in &m.cells {
        if let CellKind::Bin(_) | CellKind::Un(_) = cell.kind {
            *operators.entry(cell.kind.mnemonic()).or_default() += 1;
        }
    }
    let mut per_class = BTreeMap::new();
    for inst in schedule.desc.resources.iter() {
        *per_class.entry(&inst.ty.class).or_insert(0usize) += 1;
    }
    let operators: Vec<String> = operators.iter().map(|(k, n)| format!("{k}={n}")).collect();
    let per_class: Vec<String> = per_class.iter().map(|(c, n)| format!("{c}={n}")).collect();
    format!(
        "sched_slack={:#018x} operators=[{}] insts=[{}]",
        schedule.min_slack_ps.to_bits(),
        operators.join(" "),
        per_class.join(" ")
    )
}

/// Analyses `m` (the netlist of `schedule`) at `clock_ps`, appends its line
/// and returns the WNS.
fn record(out: &mut String, label: &str, m: &NirModule, schedule: &Schedule, clock_ps: f64) -> f64 {
    let lib = TechLibrary::artisan_90nm_typical();
    let mut timing = ChainTiming::new(&lib, ClockConstraint::from_period_ps(clock_ps));
    let summary = analyze_timing(m, &mut timing);
    let _ = writeln!(
        out,
        "{label}@{clock_ps}ps {} {}",
        summary_line(&summary),
        hardware_line(m, schedule)
    );
    summary.wns_ps
}

/// The netlist `Synthesizer` lowered before any rewrite.
fn lowered(r: &SynthesisResult) -> NirModule {
    lower(&r.body, &r.schedule.desc, &r.binding, RtlStyle::SharedFu).expect("lowers")
}

#[test]
fn static_timing_summaries_match_golden() {
    let mut out = String::new();

    let paper: [(&str, Synthesizer, f64); 5] = [
        (
            "example1/seq@1600ps/L3",
            Synthesizer::new(paper_example1()).latency_bounds(1, 3),
            1600.0,
        ),
        (
            "example1/ii2@1600ps/L6",
            Synthesizer::new(paper_example1())
                .latency_bounds(1, 6)
                .pipeline(2),
            1600.0,
        ),
        (
            "moving_average/ii1@1600ps/L8",
            Synthesizer::new(moving_average(2, 16))
                .latency_bounds(1, 8)
                .pipeline(1),
            1600.0,
        ),
        (
            "fir8/seq@1600ps/L16",
            Synthesizer::new(fir_filter(&FIR8_TAPS, 16)).latency_bounds(1, 16),
            1600.0,
        ),
        (
            "fir8/ii2@1600ps/L16",
            Synthesizer::new(fir_filter(&FIR8_TAPS, 16))
                .latency_bounds(1, 16)
                .pipeline(2),
            1600.0,
        ),
    ];
    for (label, syn, clock_ps) in paper {
        let r = syn.clock_ps(clock_ps).run().expect(label);
        record(
            &mut out,
            &format!("{label}/lowered"),
            &lowered(&r),
            &r.schedule,
            clock_ps,
        );
        record(
            &mut out,
            &format!("{label}/final"),
            &r.netlist,
            &r.schedule,
            clock_ps,
        );
    }
    for (label, ii) in [
        ("idct8/seq@2000ps/L16", None),
        ("idct8/ii8@2000ps/L16", Some(8)),
    ] {
        let mut syn = Synthesizer::from_body(idct8_design())
            .clock_ps(2000.0)
            .latency_bounds(1, 16);
        if let Some(ii) = ii {
            syn = syn.pipeline(ii);
        }
        let r = syn.run().expect(label);
        record(
            &mut out,
            &format!("{label}/lowered"),
            &lowered(&r),
            &r.schedule,
            2000.0,
        );
        record(
            &mut out,
            &format!("{label}/final"),
            &r.netlist,
            &r.schedule,
            2000.0,
        );
    }

    // The one probed netlist on which `optimize_timed` keeps a round.
    let lib = TechLibrary::artisan_90nm_typical();
    let idct = Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 32)
        .pipeline(8)
        .run()
        .expect("idct8 synthesizes at 2000 ps, II=8");
    let mut rewritten = idct.netlist.clone();
    let report = optimize_timed(
        &mut rewritten,
        &lib,
        ClockConstraint::from_period_ps(1700.0),
    );
    assert!(report.changed(), "the timed loop keeps a round at 1700 ps");
    record(
        &mut out,
        "idct8/ii8@2000ps/L32/final",
        &idct.netlist,
        &idct.schedule,
        1700.0,
    );
    record(
        &mut out,
        "idct8/ii8@2000ps/L32/timed",
        &rewritten,
        &idct.schedule,
        1700.0,
    );

    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2200 = ClockConstraint::from_period_ps(2200.0);
    let mut failing = 0usize;
    for class in DesignClass::all() {
        for ops in [100usize, 200, 300] {
            for seed in 0..2u64 {
                let body = synthetic_design(class, ops, seed);
                for (tag, config, clock_ps) in [
                    ("seq", SchedulerConfig::sequential(c1600, 1, 24), 1600.0),
                    ("ii2", SchedulerConfig::pipelined(c2200, 2, 24), 2200.0),
                ] {
                    let id = format!("{class:?}/{ops}/s{seed}/{tag}");
                    let Ok(schedule) = Scheduler::new(&body, &lib, config).run() else {
                        let _ = writeln!(out, "{id} unscheduled");
                        continue;
                    };
                    let binding = bind(&body, &schedule.desc).expect("binds");
                    let mut m =
                        lower(&body, &schedule.desc, &binding, RtlStyle::SharedFu).expect("lowers");
                    for stage in ["lowered", "optimized"] {
                        if stage == "optimized" {
                            hls::nir::optimize(&mut m);
                        }
                        record(&mut out, &format!("{id}/{stage}"), &m, &schedule, clock_ps);
                        if record(&mut out, &format!("{id}/{stage}"), &m, &schedule, 900.0) < 0.0 {
                            failing += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        failing > 0,
        "the 900 ps clock no longer produces negative slack"
    );
    compare_or_bless("sta_summaries.txt", &out);
}
