//! Traced replay of one operation: `Synthesizer::attempt`'s stage order,
//! called layer by layer from here so each call gets its own span.
//!
//! The replay re-runs exactly the attempts the untraced run recorded in
//! its recovery trace (on the result, or in `RecoveryExhausted`), applying
//! each recorded action's knobs in turn; it never re-derives the ladder.
//! Its [`Verdict`] must equal the untraced one.

use crate::trace::Tracer;
use crate::workloads::{is_refusal, variant, Input, Qor, SweepSpec, SynthSpec, Verdict};
use hls::bind::RtlStyle;
use hls::ir::LinearBody;
use hls::lint::{Diagnostic, Lint, LintContext, LintReport, Severity};
use hls::netlist::{emit_verilog, Datapath};
use hls::nir::NirModule;
use hls::sched::{SchedError, Scheduler, SchedulerConfig};
use hls::sim::differential::{random_check, random_check_bound, random_check_nir};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{RecoveryAction, SynthesisError};

/// The synthesizer's differential stimulus seed.
const VERIFY_SEED: u64 = 0x5EED;

/// The knobs a recovery action turns, as the synthesizer keeps them.
#[derive(Clone, Copy)]
struct Knobs {
    max_latency: u32,
    ii: Option<u32>,
    timed_rounds: usize,
    sched_clock_ps: f64,
    accept_degraded: bool,
}

impl Knobs {
    fn apply(&mut self, action: &RecoveryAction) {
        match *action {
            RecoveryAction::ExtraTimedRounds { rounds } => self.timed_rounds = rounds,
            RecoveryAction::RelaxLatency { to, .. } => self.max_latency = to,
            RecoveryAction::RelaxIi { to, .. } => self.ii = Some(to),
            RecoveryAction::StretchClock { to_ps, .. } => self.sched_clock_ps = to_ps,
            RecoveryAction::AcceptDegraded => self.accept_degraded = true,
        }
    }
}

fn refused(e: &SynthesisError, actions: &[RecoveryAction]) -> Verdict {
    Verdict::Refused {
        error: variant(e),
        actions: actions.to_vec(),
        refusal: is_refusal(e),
    }
}

/// Replays one synthesis operation under `t`, re-running the attempts
/// recorded in `untraced`.
pub fn synth(t: &mut Tracer, lib: &TechLibrary, spec: &SynthSpec, untraced: &Verdict) -> Verdict {
    let actions: &[RecoveryAction] = match untraced {
        Verdict::Built { actions, .. } | Verdict::Refused { actions, .. } => actions,
        Verdict::Swept { .. } => &[],
    };
    let body = match &spec.input {
        Input::Body(body) => body.clone(),
        Input::Behavior(b) => {
            let elaborated = t.span("frontend", "elaborate", || hls::frontend::elaborate(b));
            let mut cdfg = match elaborated {
                Ok(c) => c,
                Err(e) => return refused(&SynthesisError::Frontend(e), &[]),
            };
            let prepared = t.span("opt", "prepare_innermost_loop", || {
                hls::opt::linearize::prepare_innermost_loop(&mut cdfg)
            });
            match prepared {
                Ok(body) => body,
                Err(e) => return refused(&SynthesisError::Optimizer(e), &[]),
            }
        }
    };
    let c = &spec.config;
    let mut knobs = Knobs {
        max_latency: c.max_latency,
        ii: c.ii,
        timed_rounds: hls::lint::MAX_ROUNDS,
        sched_clock_ps: c.clock_ps,
        accept_degraded: false,
    };
    let mut taken = 0;
    loop {
        t.add("sched.attempts", 1.0);
        let out = t.group("attempt", |t| attempt(t, lib, spec, &body, &knobs));
        match out {
            Ok((latency, qor, degraded)) => {
                return Verdict::Built {
                    latency,
                    qor,
                    actions: actions[..taken].to_vec(),
                    degraded,
                }
            }
            Err(e) if taken == actions.len() => {
                if taken == 0 {
                    return refused(&e, &[]);
                }
                let e = SynthesisError::RecoveryExhausted {
                    attempts: taken as u32 + 1,
                    trace: Vec::new(),
                    last: Box::new(e),
                };
                return refused(&e, actions);
            }
            Err(_) => {
                knobs.apply(&actions[taken]);
                taken += 1;
            }
        }
    }
}

/// Counts what one NIR differential simulates: every cell on every cycle
/// of the stimulus, derived from the netlist's controller, not counted in
/// the simulator.
fn count_nir_check(t: &mut Tracer, m: &NirModule, vectors: usize) {
    let cycles =
        (vectors as u64 - 1) * u64::from(m.fold_states.max(1)) + u64::from(m.num_states.max(1));
    t.add("sim.cell_evals", (m.num_cells() as u64 * cycles) as f64);
    t.add("sim.vectors", vectors as f64);
}

/// One attempt under fixed knobs, in `Synthesizer::attempt`'s order.
fn attempt(
    t: &mut Tracer,
    lib: &TechLibrary,
    spec: &SynthSpec,
    body: &LinearBody,
    knobs: &Knobs,
) -> Result<(u32, Qor, bool), SynthesisError> {
    let body = body.clone();
    let sched_clock = ClockConstraint::from_period_ps(knobs.sched_clock_ps);
    let config = match knobs.ii {
        Some(ii) => SchedulerConfig::pipelined(sched_clock, ii, knobs.max_latency),
        None => SchedulerConfig::sequential(sched_clock, 1, knobs.max_latency),
    };
    let clock = ClockConstraint::from_period_ps(spec.config.clock_ps);

    let start = std::time::Instant::now();
    let scheduled = t.span("sched", "Scheduler::run", || {
        Scheduler::new(&body, lib, config).run()
    });
    let schedule = match scheduled {
        Ok(s) => {
            t.add("sched.passes", f64::from(s.passes));
            s
        }
        Err(e) => {
            t.add("sched.reject_s", start.elapsed().as_secs_f64());
            t.add("sched.reject_msg_bytes", e.to_string().len() as f64);
            t.add(
                "sched.passes",
                f64::from(match &e {
                    SchedError::Overconstrained { passes, .. }
                    | SchedError::BudgetExhausted { passes, .. } => *passes,
                    _ => 0,
                }),
            );
            return Err(e.into());
        }
    };
    let _pipeline = match knobs.ii {
        Some(_) => Some(t.span("pipeline", "fold_schedule", || {
            hls::pipeline::fold_schedule(&body, &schedule)
        })?),
        None => None,
    };
    let binding = t.span("bind", "bind", || hls::bind::bind(&body, &schedule.desc))?;
    let mut netlist = t.span("bind", "lower", || {
        hls::bind::lower(&body, &schedule.desc, &binding, RtlStyle::SharedFu)
    })?;
    t.add("bind.fus", binding.stats.fu_count as f64);
    t.add("bind.regs", binding.stats.register_count as f64);
    t.add("bind.mux_inputs", binding.stats.mux_inputs as f64);
    t.add("nir.cells_lowered", netlist.num_cells() as f64);
    t.span("nir", "validate", || hls::nir::validate(&netlist))?;
    let vectors = spec.config.verify;
    if let Some(v) = vectors {
        t.span("sim", "random_check", || {
            random_check(&body, &schedule.desc, v, VERIFY_SEED)
        })?;
        t.add("sim.vectors", v as f64);
        t.span("sim", "random_check_bound", || {
            random_check_bound(&body, &schedule.desc, &binding, v, VERIFY_SEED)
        })?;
        t.add("sim.vectors", v as f64);
        t.span("sim", "random_check_nir.pre", || {
            random_check_nir(&body, &netlist, v, VERIFY_SEED)
        })?;
        count_nir_check(t, &netlist, v);
    }
    t.span("nir", "optimize", || hls::nir::optimize(&mut netlist));
    t.span("nir", "validate", || hls::nir::validate(&netlist))?;
    if let Some(v) = vectors {
        t.span("sim", "random_check_nir.post", || {
            random_check_nir(&body, &netlist, v, VERIFY_SEED)
        })?;
        count_nir_check(t, &netlist, v);
    }
    let timed = t.span("lint", "optimize_timed_with", || {
        hls::lint::optimize_timed_with(&mut netlist, lib, clock, knobs.timed_rounds)
    });
    t.add("lint.timed_rounds", timed.rounds as f64);
    if timed.changed() {
        t.span("nir", "validate", || hls::nir::validate(&netlist))?;
        if let Some(v) = vectors {
            t.span("sim", "random_check_nir.post", || {
                random_check_nir(&body, &netlist, v, VERIFY_SEED)
            })?;
            count_nir_check(t, &netlist, v);
        }
    }
    let lint_ctx = LintContext::new(lib, clock)
        .with_binding(&binding)
        .with_schedule(&schedule.desc);
    let lint_config = hls::lint::LintConfig::default();
    let mut lint = t.span("lint", "analyze", || {
        hls::lint::analyze(&netlist, &lint_ctx, &lint_config)
    });
    if timed.hit_round_limit {
        lint.push_sorted(Diagnostic {
            lint: Lint::RewriteRoundLimit,
            severity: lint_config.severity(Lint::RewriteRoundLimit),
            cell: None,
            name: None,
            message: format!(
                "timing-driven rewrite stopped at its {}-round budget with worst slack {:.0} ps still negative",
                knobs.timed_rounds, timed.after.wns_ps
            ),
        });
    }
    if lint.has_deny() && !(knobs.accept_degraded && timing_only_denies(&lint)) {
        return Err(SynthesisError::Lint(Box::new(lint)));
    }
    let degraded = lint.has_deny() || knobs.sched_clock_ps > spec.config.clock_ps;
    t.add("nir.cells_final", netlist.num_cells() as f64);
    t.add("nir.mux_depth_final", f64::from(netlist.max_mux_depth()));
    let slack_fraction = (schedule.min_slack_ps / clock.period_ps()).clamp(0.0, 0.9);
    let dp = t.span("netlist", "Datapath::from_schedule", || {
        Datapath::from_schedule(&body, &schedule.desc, lib, clock, slack_fraction)
    });
    let rtl = t.span("netlist", "emit_verilog", || emit_verilog(&netlist));
    t.add("netlist.rtl_bytes", rtl.len() as f64);
    let qor = Qor {
        cells: netlist.num_cells(),
        area: dp.total_area(),
        cycles_per_iter: schedule.cycles_per_iteration(),
    };
    Ok((schedule.latency, qor, degraded))
}

/// Whether every deny-level finding is timing-level, the only kind
/// `AcceptDegraded` may keep.
fn timing_only_denies(report: &LintReport) -> bool {
    report.has_deny()
        && report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .all(|d| matches!(d.lint, Lint::SetupViolation | Lint::RewriteRoundLimit))
}

/// Replays one fault sweep: the sweep is a single call into `hls-fault`.
pub fn sweep(t: &mut Tracer, lib: &TechLibrary, spec: &SweepSpec) -> Verdict {
    let report = t.span("fault", "run_sweep", || spec.run(lib));
    for s in report.summaries() {
        t.add("fault.mutants", s.mutants as f64);
        t.add("fault.killed_validate", s.killed_validator as f64);
        t.add("fault.killed_lint", s.killed_lint as f64);
        t.add("fault.killed_diff", s.killed_differential as f64);
        t.add("fault.escaped_documented", s.escaped_documented as f64);
    }
    Verdict::of_sweep(&report)
}
