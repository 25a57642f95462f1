//! # hls — realistic performance-constrained pipelining in high-level synthesis
//!
//! Facade crate of the `rpp-hls` workspace, a from-scratch Rust reproduction
//! of *Kondratyev, Lavagno, Meyer, Watanabe, "Realistic
//! Performance-constrained Pipelining in High-level Synthesis", DATE 2011*.
//!
//! The [`Synthesizer`] type drives the full flow of the paper's Figure 2:
//! behavioural input → elaboration → optimization (including predicate
//! conversion) → simultaneous scheduling and binding (sequential or
//! pipelined) → folding → area/power estimation → RTL.
//!
//! ```
//! use hls::{Synthesizer, designs};
//!
//! // The paper's Figure 1 example, pipelined with II = 2 at a 1600 ps clock.
//! let result = Synthesizer::new(designs::paper_example1())
//!     .clock_ps(1600.0)
//!     .latency_bounds(1, 6)
//!     .pipeline(2)
//!     .run()?;
//! assert_eq!(result.schedule.cycles_per_iteration(), 2);
//! assert!(result.area > 0.0);
//! # Ok::<(), hls::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hls_bind as bind;
pub use hls_explore as explore;
pub use hls_fault as fault;
pub use hls_frontend as frontend;
pub use hls_frontend::designs;
pub use hls_ir as ir;
pub use hls_lint as lint;
pub use hls_netlist as netlist;
pub use hls_nir as nir;
pub use hls_opt as opt;
pub use hls_pipeline as pipeline;
pub use hls_sched as sched;
pub use hls_sim as sim;
pub use hls_tech as tech;

mod recovery;

pub use recovery::{RecoveryAction, RecoveryPolicy, RecoveryStep};

use hls_bind::RtlStyle;
use hls_frontend::{elaborate, Behavior};
use hls_ir::LinearBody;
use hls_lint::{Diagnostic, Lint, LintConfig, LintContext, LintReport, Severity};
use hls_netlist::{emit_verilog, Datapath};
use hls_nir::{NirModule, RewriteReport};
use hls_opt::linearize::{linearize_loop, prepare_innermost_loop};
use hls_pipeline::{fold_schedule, FoldedPipeline};
use hls_sched::{Schedule, Scheduler, SchedulerConfig};
use hls_tech::{ClockConstraint, TechLibrary};
use std::error::Error;
use std::fmt;

/// Error type of the end-to-end synthesis flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum SynthesisError {
    /// The behavioural front-end failed.
    Frontend(hls_frontend::FrontendError),
    /// The optimizer or linearization failed.
    Optimizer(hls_opt::OptError),
    /// Scheduling failed (over-constrained specification).
    Scheduling(hls_sched::SchedError),
    /// Pipeline folding failed.
    Folding(hls_pipeline::FoldError),
    /// Binding failed: the schedule cannot be realized as steered shared
    /// hardware.
    Binding(hls_bind::BindError),
    /// Lowering the bound design to the structural netlist failed.
    Lowering(hls_bind::LowerError),
    /// The lowered (or rewritten) netlist failed structural validation.
    Netlist(hls_nir::NirError),
    /// Differential verification failed: the cycle-accurate simulation of
    /// the schedule (per-op, bound or netlist-level) disagrees with the
    /// reference interpreter.
    Verification(hls_sim::SimError),
    /// The netlist analyzer found deny-level diagnostics (structural lints
    /// or setup violations, depending on the configured severities). The
    /// full report — including the timing summary — is carried along.
    Lint(Box<LintReport>),
    /// The recovery ladder ([`Synthesizer::recover`]) ran out of rungs: the
    /// trace records every action that was tried, and `last` is the error
    /// the final attempt failed with (also reachable through
    /// [`Error::source`]).
    RecoveryExhausted {
        /// Synthesis attempts made (1 + recovery steps taken).
        attempts: u32,
        /// Every rung of the ladder that was walked, in order.
        trace: Vec<RecoveryStep>,
        /// The error of the final attempt.
        last: Box<SynthesisError>,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Frontend(e) => write!(f, "front-end: {e}"),
            SynthesisError::Optimizer(e) => write!(f, "optimizer: {e}"),
            SynthesisError::Scheduling(e) => write!(f, "scheduler: {e}"),
            SynthesisError::Folding(e) => write!(f, "pipeline folding: {e}"),
            SynthesisError::Binding(e) => write!(f, "binder: {e}"),
            SynthesisError::Lowering(e) => write!(f, "netlist lowering: {e}"),
            SynthesisError::Netlist(e) => write!(f, "netlist validation: {e}"),
            SynthesisError::Verification(e) => write!(f, "differential verification: {e}"),
            SynthesisError::Lint(report) => {
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.severity == hls_lint::Severity::Deny)
                    .map(|d| format!("{}: {}", d.lint, d.message))
                    .unwrap_or_default();
                write!(
                    f,
                    "netlist analysis: {} deny-level finding(s); first: {first}",
                    report.deny_count()
                )
            }
            SynthesisError::RecoveryExhausted {
                attempts,
                trace,
                last,
            } => {
                write!(
                    f,
                    "recovery exhausted after {attempts} attempt(s): {last}; trace:"
                )?;
                for step in trace {
                    write!(f, " [{step}]")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::Frontend(e) => Some(e),
            SynthesisError::Optimizer(e) => Some(e),
            SynthesisError::Scheduling(e) => Some(e),
            SynthesisError::Folding(e) => Some(e),
            SynthesisError::Binding(e) => Some(e),
            SynthesisError::Lowering(e) => Some(e),
            SynthesisError::Netlist(e) => Some(e),
            SynthesisError::Verification(e) => Some(e),
            // the report is data, not an error type
            SynthesisError::Lint(_) => None,
            SynthesisError::RecoveryExhausted { last, .. } => Some(last.as_ref()),
        }
    }
}

impl From<hls_frontend::FrontendError> for SynthesisError {
    fn from(e: hls_frontend::FrontendError) -> Self {
        SynthesisError::Frontend(e)
    }
}
impl From<hls_opt::OptError> for SynthesisError {
    fn from(e: hls_opt::OptError) -> Self {
        SynthesisError::Optimizer(e)
    }
}
impl From<hls_sched::SchedError> for SynthesisError {
    fn from(e: hls_sched::SchedError) -> Self {
        SynthesisError::Scheduling(e)
    }
}
impl From<hls_pipeline::FoldError> for SynthesisError {
    fn from(e: hls_pipeline::FoldError) -> Self {
        SynthesisError::Folding(e)
    }
}
impl From<hls_sim::SimError> for SynthesisError {
    fn from(e: hls_sim::SimError) -> Self {
        SynthesisError::Verification(e)
    }
}
impl From<hls_bind::BindError> for SynthesisError {
    fn from(e: hls_bind::BindError) -> Self {
        SynthesisError::Binding(e)
    }
}
impl From<hls_bind::LowerError> for SynthesisError {
    fn from(e: hls_bind::LowerError) -> Self {
        SynthesisError::Lowering(e)
    }
}
impl From<hls_nir::NirError> for SynthesisError {
    fn from(e: hls_nir::NirError) -> Self {
        SynthesisError::Netlist(e)
    }
}

/// The result of one synthesis run.
#[derive(Debug)]
pub struct SynthesisResult {
    /// The linearized loop body that was scheduled.
    pub body: LinearBody,
    /// The schedule (states, bindings, resources, relaxation history).
    pub schedule: Schedule,
    /// The folded pipeline, when a pipelining request was given.
    pub pipeline: Option<FoldedPipeline>,
    /// The bound design: shared functional units, registers and input muxes
    /// over interned resource ids. The RTL below is emitted from exactly
    /// this sharing structure.
    pub binding: hls_bind::BoundDesign,
    /// The structural netlist the RTL is printed from: the bound design
    /// lowered to cells (muxes, registers, arithmetic, controller bits),
    /// validated and rewritten. This is the hardware object — `rtl` is just
    /// its serialization.
    pub netlist: NirModule,
    /// What the netlist rewrite pipeline did (normalization, steering-chain
    /// rebalancing, dead-cell sweep, mux-depth before/after).
    pub netlist_rewrites: RewriteReport,
    /// What the timing-driven rewrite loop did: operator-chain rebalancing,
    /// shift strength reduction and register retiming over the failing
    /// cones, with the timing summaries before and after. `rounds == 0`
    /// (and `before == after`) when the rewritten netlist already met the
    /// clock — the netlist is then untouched by this stage.
    pub timed_rewrites: hls_lint::TimedRewriteReport,
    /// Estimated total area in library units.
    pub area: f64,
    /// Estimated total power in microwatts.
    pub power_uw: f64,
    /// Generated RTL text.
    pub rtl: String,
    /// The netlist analyzer's report: structural lints plus the static
    /// timing summary (worst slack, critical path) of the emitted netlist.
    /// Runs that return `Ok` never carry deny-level findings.
    pub lint: LintReport,
    /// Differential-verification summary, when [`Synthesizer::verify`] was
    /// requested: the schedule was executed cycle-accurately against the
    /// reference interpreter on random input vectors and agreed bit-exactly.
    pub verification: Option<hls_sim::DifferentialReport>,
    /// Every rung of the recovery ladder that was walked to reach this
    /// result ([`Synthesizer::recover`]). Empty when the first attempt
    /// succeeded — the overwhelmingly common case.
    pub recovery: Vec<RecoveryStep>,
    /// The run was accepted degraded — the result does not meet the
    /// constraints as requested: either its lint report still carries
    /// deny-level *timing* findings, kept visible instead of failing the
    /// run ([`RecoveryAction::AcceptDegraded`]), or the schedule only
    /// exists because the scheduling clock was stretched past the requested
    /// one ([`RecoveryAction::StretchClock`]), with the miss reported by
    /// the signoff STA. Never set without a matching entry in `recovery`.
    pub degraded: bool,
}

impl SynthesisResult {
    /// Paper-style state × resource table (like Table 2).
    pub fn schedule_table(&self) -> String {
        self.schedule.table(&self.body)
    }

    /// Counted binding statistics (FU, register and mux-input counts) — the
    /// real area proxies of the implementation, as opposed to the estimated
    /// `area`.
    pub fn binding_stats(&self) -> hls_bind::BindStats {
        self.binding.stats
    }

    /// Cell-level statistics of the emitted netlist (per-kind cell counts,
    /// register bits, maximum mux depth) — counted from the object the RTL
    /// is printed from, replacing any need to grep the Verilog text.
    pub fn netlist_stats(&self) -> hls_nir::NetlistStats {
        self.netlist.stats()
    }
}

/// End-to-end synthesis driver.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    behavior: Behavior,
    clock_ps: f64,
    min_latency: u32,
    max_latency: u32,
    ii: Option<u32>,
    allow_scc_move: bool,
    library: TechLibrary,
    loop_label: Option<String>,
    verify_vectors: Option<usize>,
    lint_config: LintConfig,
    recovery: RecoveryPolicy,
}

impl Synthesizer {
    /// Starts a synthesis run for a behaviour.
    pub fn new(behavior: Behavior) -> Self {
        Synthesizer {
            behavior,
            clock_ps: 1600.0,
            min_latency: 1,
            max_latency: 32,
            ii: None,
            allow_scc_move: true,
            library: TechLibrary::artisan_90nm_typical(),
            loop_label: None,
            verify_vectors: None,
            lint_config: LintConfig::default(),
            recovery: RecoveryPolicy::disabled(),
        }
    }

    /// Starts a synthesis run from an already-linearized loop body.
    pub fn from_body(body: LinearBody) -> BodySynthesizer {
        BodySynthesizer {
            body,
            inner: Synthesizer::new(Behavior {
                name: String::new(),
                ports: vec![],
                vars: vec![],
                body: vec![],
            }),
        }
    }

    /// Sets the clock period in picoseconds (default 1600 ps, the paper's
    /// example clock).
    pub fn clock_ps(mut self, period_ps: f64) -> Self {
        self.clock_ps = period_ps;
        self
    }

    /// Sets the latency bounds (states) the scheduler may use.
    pub fn latency_bounds(mut self, min: u32, max: u32) -> Self {
        self.min_latency = min;
        self.max_latency = max;
        self
    }

    /// Requests pipelining with the given initiation interval.
    pub fn pipeline(mut self, ii: u32) -> Self {
        self.ii = Some(ii);
        self
    }

    /// Disables the timing-driven SCC move action (Table 4 ablation).
    pub fn without_scc_move(mut self) -> Self {
        self.allow_scc_move = false;
        self
    }

    /// Uses a custom technology library.
    pub fn library(mut self, library: TechLibrary) -> Self {
        self.library = library;
        self
    }

    /// Selects which loop to synthesize by its label (defaults to the
    /// innermost loop).
    pub fn for_loop(mut self, label: impl Into<String>) -> Self {
        self.loop_label = Some(label.into());
        self
    }

    /// Differentially verifies the produced design on `vectors` random input
    /// vectors: three timed engines (`hls-sim`) must each agree bit-exactly
    /// with the reference interpreter, or the run fails with
    /// [`SynthesisError::Verification`]:
    ///
    /// 1. the per-op schedule simulation, which also reports causality
    ///    errors of the schedule;
    /// 2. the netlist lowered from the binding, before the netlist rewrites
    ///    (this is what proves the sharing and steering correct);
    /// 3. the rewritten netlist, after `hls_nir::optimize` and again after
    ///    any timing-driven rewrite round.
    pub fn verify(mut self, vectors: usize) -> Self {
        self.verify_vectors = Some(vectors);
        self
    }

    /// Overrides the netlist analyzer's configuration (per-lint severities
    /// and bounds). The analyzer always runs; deny-level findings fail the
    /// run with [`SynthesisError::Lint`].
    pub fn lint_config(mut self, config: LintConfig) -> Self {
        self.lint_config = config;
        self
    }

    /// Arms the recovery ladder: instead of failing fast, recoverable
    /// errors (scheduling over-constraint, timing-only lint denies) trigger
    /// the policy's escalation actions — extra timed-rewrite rounds,
    /// latency/II relaxation, degraded acceptance — each recorded in
    /// [`SynthesisResult::recovery`]. See [`RecoveryPolicy`].
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    fn config_for(&self, knobs: &Knobs) -> SchedulerConfig {
        let clock = ClockConstraint::from_period_ps(knobs.sched_clock_ps);
        let mut config = match knobs.ii {
            Some(ii) => SchedulerConfig::pipelined(clock, ii, knobs.max_latency),
            None => SchedulerConfig::sequential(clock, self.min_latency, knobs.max_latency),
        };
        config.allow_scc_move = self.allow_scc_move;
        config
    }

    /// Runs the full flow.
    ///
    /// # Errors
    /// Returns a [`SynthesisError`] wrapping the first stage that failed.
    pub fn run(self) -> Result<SynthesisResult, SynthesisError> {
        let mut cdfg = elaborate(&self.behavior)?;
        let body = match &self.loop_label {
            None => prepare_innermost_loop(&mut cdfg)?,
            Some(label) => {
                hls_opt::manager::PassManager::standard().run(&mut cdfg)?;
                let id = cdfg
                    .loops
                    .iter()
                    .find(|l| l.name.as_deref() == Some(label))
                    .map(|l| l.id)
                    .ok_or_else(|| {
                        SynthesisError::Optimizer(hls_opt::OptError::UnknownLoop {
                            loop_id: label.clone(),
                        })
                    })?;
                linearize_loop(&cdfg, id)?
            }
        };
        self.run_on_body(body)
    }

    fn run_on_body(self, body: LinearBody) -> Result<SynthesisResult, SynthesisError> {
        let mut knobs = Knobs {
            max_latency: self.max_latency,
            ii: self.ii,
            timed_rounds: hls_lint::MAX_ROUNDS,
            sched_clock_ps: self.clock_ps,
            accept_degraded: false,
            latency_relaxed: false,
        };
        let mut trace: Vec<RecoveryStep> = Vec::new();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let last = match self.attempt(&body, &knobs) {
                Ok(mut result) => {
                    result.recovery = trace;
                    return Ok(result);
                }
                Err(e) => e,
            };
            let action = if (trace.len() as u32) < self.recovery.max_retries {
                next_action(&last, &self.recovery, &knobs)
            } else {
                None
            };
            match action {
                Some(action) => {
                    knobs.apply(&action);
                    trace.push(RecoveryStep {
                        attempt,
                        trigger: last.to_string(),
                        action,
                    });
                }
                None if trace.is_empty() => return Err(last),
                None => {
                    return Err(SynthesisError::RecoveryExhausted {
                        attempts: attempt,
                        trace,
                        last: Box::new(last),
                    })
                }
            }
        }
    }

    /// One full pass of the flow under the current recovery knobs. Recovery
    /// is driven entirely from the outside: this function fails fast.
    fn attempt(&self, body: &LinearBody, knobs: &Knobs) -> Result<SynthesisResult, SynthesisError> {
        let body = body.clone();
        let config = self.config_for(knobs);
        // The scheduler works against the (possibly stretched) recovery
        // clock; everything downstream — timed rewrites, lint/STA, the
        // estimators — signs off against the clock the user asked for, so a
        // stretched run reports its real setup violations instead of
        // quietly re-targeting.
        let clock = ClockConstraint::from_period_ps(self.clock_ps);
        let schedule = Scheduler::new(&body, &self.library, config).run()?;
        let pipeline = match knobs.ii {
            Some(_) => Some(fold_schedule(&body, &schedule)?),
            None => None,
        };
        let binding = hls_bind::bind(&body, &schedule.desc)?;
        let mut netlist = hls_bind::lower(&body, &schedule.desc, &binding, RtlStyle::SharedFu)?;
        hls_nir::validate(&netlist)?;
        let verification = match self.verify_vectors {
            Some(vectors) => {
                let report =
                    hls_sim::differential::random_check(&body, &schedule.desc, vectors, 0x5EED)?;
                // the netlist lowered from the binding — shared units with
                // steered operand muxes — must agree too, pre-rewrite
                hls_sim::differential::random_check_nir(&body, &netlist, vectors, 0x5EED)?;
                Some(report)
            }
            None => None,
        };
        let netlist_rewrites = hls_nir::optimize(&mut netlist);
        hls_nir::validate(&netlist)?;
        if let Some(vectors) = self.verify_vectors {
            // the rewrites must not change observable behaviour
            hls_sim::differential::random_check_nir(&body, &netlist, vectors, 0x5EED)?;
        }
        // Timing-driven re-optimization: if the rewritten netlist still has
        // negative-slack endpoints, rebalance/retime the failing cones and
        // re-verify. A netlist that already meets the clock is returned
        // byte-identical (`timed_rewrites.rounds == 0`). The round budget
        // defaults to `hls_lint::MAX_ROUNDS`; the recovery ladder may raise
        // it ([`RecoveryAction::ExtraTimedRounds`]).
        let timed_rewrites =
            hls_lint::optimize_timed_with(&mut netlist, &self.library, clock, knobs.timed_rounds);
        if timed_rewrites.changed() {
            hls_nir::validate(&netlist)?;
            if let Some(vectors) = self.verify_vectors {
                hls_sim::differential::random_check_nir(&body, &netlist, vectors, 0x5EED)?;
            }
        }
        // Static analysis of the final netlist: structural lints plus the
        // cell-level timing walk, in the binding/schedule context. Deny-level
        // findings fail the run.
        let lint_ctx = LintContext::new(&self.library, clock)
            .with_binding(&binding)
            .with_schedule(&schedule.desc);
        let mut lint = hls_lint::analyze(&netlist, &lint_ctx, &self.lint_config);
        if timed_rewrites.hit_round_limit {
            // Surface the backstop as a finding: the timed-rewrite search
            // was cut off by its round budget, not by convergence, so the
            // reported timing may be improvable with a larger budget.
            lint.push_sorted(Diagnostic {
                lint: Lint::RewriteRoundLimit,
                severity: self.lint_config.severity(Lint::RewriteRoundLimit),
                cell: None,
                name: None,
                message: format!(
                    "timing-driven rewrite stopped at its {}-round budget with \
                     worst slack {:.0} ps still negative",
                    knobs.timed_rounds, timed_rewrites.after.wns_ps
                ),
            });
        }
        if lint.has_deny() && !(knobs.accept_degraded && timing_only_denies(&lint)) {
            return Err(SynthesisError::Lint(Box::new(lint)));
        }
        // Degraded means "this result does not meet the constraints as
        // requested": timing denies were kept by AcceptDegraded, or the
        // schedule only exists because the scheduling clock was stretched
        // past the requested one (in which case the signoff STA above
        // reports the miss, at whatever severity is configured).
        let degraded = lint.has_deny() || knobs.sched_clock_ps > self.clock_ps;
        let slack_fraction = (schedule.min_slack_ps / clock.period_ps()).clamp(0.0, 0.9);
        let dp =
            Datapath::from_schedule(&body, &schedule.desc, &self.library, clock, slack_fraction);
        let rtl = emit_verilog(&netlist);
        Ok(SynthesisResult {
            body,
            schedule,
            pipeline,
            binding,
            netlist,
            netlist_rewrites,
            timed_rewrites,
            area: dp.total_area(),
            power_uw: dp.total_power_uw(),
            rtl,
            lint,
            verification,
            recovery: Vec::new(),
            degraded,
        })
    }
}

/// The mutable synthesis parameters the recovery ladder is allowed to turn.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    max_latency: u32,
    ii: Option<u32>,
    timed_rounds: usize,
    /// The clock the *scheduler* works against; starts at the requested
    /// clock and only moves via [`RecoveryAction::StretchClock`]. Signoff
    /// always keeps the requested clock.
    sched_clock_ps: f64,
    accept_degraded: bool,
    /// [`RecoveryAction::RelaxLatency`] is a one-shot rung.
    latency_relaxed: bool,
}

impl Knobs {
    fn apply(&mut self, action: &RecoveryAction) {
        match *action {
            RecoveryAction::ExtraTimedRounds { rounds } => self.timed_rounds = rounds,
            RecoveryAction::RelaxLatency { to, .. } => {
                self.max_latency = to;
                self.latency_relaxed = true;
            }
            RecoveryAction::RelaxIi { to, .. } => self.ii = Some(to),
            RecoveryAction::StretchClock { to_ps, .. } => self.sched_clock_ps = to_ps,
            RecoveryAction::AcceptDegraded => self.accept_degraded = true,
        }
    }
}

/// Picks the next rung of the escalation ladder for a failure, or `None`
/// when the failure is unrecoverable (structural denies, verification
/// mismatches, broken lowering — anything that indicates wrong hardware
/// rather than a constraint that was too tight).
fn next_action(
    err: &SynthesisError,
    policy: &RecoveryPolicy,
    knobs: &Knobs,
) -> Option<RecoveryAction> {
    match err {
        SynthesisError::Scheduling(e) => {
            let worst_slack_ps = match e {
                hls_sched::SchedError::Overconstrained { worst_slack_ps, .. } => *worst_slack_ps,
                hls_sched::SchedError::BudgetExhausted { .. } => 0.0,
                // the scheduler names the feasible II — jump straight to it
                hls_sched::SchedError::InfeasibleIi { requested, minimum } => {
                    return (policy.allow_ii_fallback && minimum > requested).then_some(
                        RecoveryAction::RelaxIi {
                            from: *requested,
                            to: *minimum,
                        },
                    );
                }
                _ => return None,
            };
            if policy.latency_headroom > 0 && !knobs.latency_relaxed {
                Some(RecoveryAction::RelaxLatency {
                    from: knobs.max_latency,
                    to: knobs.max_latency + policy.latency_headroom,
                })
            } else if worst_slack_ps < 0.0 && policy.allow_clock_stretch {
                // slack-driven: an operation misses the clock at any
                // latency, so relax exactly what is infeasible — the
                // scheduling clock — by the reported shortfall (plus 1 ps
                // against float edge cases)
                Some(RecoveryAction::StretchClock {
                    from_ps: knobs.sched_clock_ps,
                    to_ps: knobs.sched_clock_ps - worst_slack_ps + 1.0,
                })
            } else if policy.allow_ii_fallback {
                knobs.ii.map(|ii| RecoveryAction::RelaxIi {
                    from: ii,
                    to: ii + 1,
                })
            } else {
                None
            }
        }
        SynthesisError::Lint(report) if timing_only_denies(report) => {
            if policy.extra_timed_rounds > 0 && knobs.timed_rounds == hls_lint::MAX_ROUNDS {
                Some(RecoveryAction::ExtraTimedRounds {
                    rounds: hls_lint::MAX_ROUNDS + policy.extra_timed_rounds,
                })
            } else if policy.allow_degraded && !knobs.accept_degraded {
                Some(RecoveryAction::AcceptDegraded)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Whether every deny-level finding of the report is timing-level — the
/// only family of denies [`RecoveryAction::AcceptDegraded`] may demote.
/// Structural denies (malformed netlists, name collisions) describe broken
/// hardware and are never degradable.
fn timing_only_denies(report: &LintReport) -> bool {
    report.has_deny()
        && report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .all(|d| matches!(d.lint, Lint::SetupViolation | Lint::RewriteRoundLimit))
}

/// Synthesis driver over an already-linearized loop body (used by the
/// exploration experiments, which generate bodies directly).
#[derive(Clone, Debug)]
pub struct BodySynthesizer {
    body: LinearBody,
    inner: Synthesizer,
}

impl BodySynthesizer {
    /// Sets the clock period in picoseconds.
    pub fn clock_ps(mut self, period_ps: f64) -> Self {
        self.inner = self.inner.clock_ps(period_ps);
        self
    }

    /// Sets the latency bounds.
    pub fn latency_bounds(mut self, min: u32, max: u32) -> Self {
        self.inner = self.inner.latency_bounds(min, max);
        self
    }

    /// Requests pipelining with the given initiation interval.
    pub fn pipeline(mut self, ii: u32) -> Self {
        self.inner = self.inner.pipeline(ii);
        self
    }

    /// Differentially verifies the produced design (see
    /// [`Synthesizer::verify`]).
    pub fn verify(mut self, vectors: usize) -> Self {
        self.inner = self.inner.verify(vectors);
        self
    }

    /// Overrides the netlist analyzer's configuration (see
    /// [`Synthesizer::lint_config`]).
    pub fn lint_config(mut self, config: LintConfig) -> Self {
        self.inner = self.inner.lint_config(config);
        self
    }

    /// Arms the recovery ladder (see [`Synthesizer::recover`]).
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.inner = self.inner.recover(policy);
        self
    }

    /// Runs the flow on the body.
    ///
    /// # Errors
    /// Returns a [`SynthesisError`] wrapping the first stage that failed.
    pub fn run(self) -> Result<SynthesisResult, SynthesisError> {
        let BodySynthesizer { body, inner } = self;
        inner.run_on_body(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_synthesis_of_the_paper_example() {
        let result = Synthesizer::new(designs::paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 3)
            .run()
            .expect("synthesizable");
        assert_eq!(result.schedule.latency, 3);
        assert!(result.pipeline.is_none());
        assert!(result.area > 0.0);
        assert!(result.power_uw > 0.0);
        assert!(result.rtl.contains("module"));
        assert!(result.schedule_table().contains("mul"));
    }

    #[test]
    fn pipelined_synthesis_folds_the_loop() {
        let result = Synthesizer::new(designs::paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 6)
            .pipeline(2)
            .run()
            .expect("synthesizable");
        let folded = result.pipeline.as_ref().expect("folded pipeline");
        assert_eq!(folded.ii, 2);
        assert_eq!(folded.stages, 2);
        assert!(result.rtl.contains("stage_valid"));
    }

    #[test]
    fn body_synthesizer_runs_on_generated_designs() {
        let body = explore::idct8_design();
        let result = Synthesizer::from_body(body)
            .clock_ps(2000.0)
            .latency_bounds(1, 16)
            .run()
            .expect("synthesizable");
        assert!(result.schedule.latency <= 16);
    }

    #[test]
    fn verified_synthesis_reports_bit_exact_agreement() {
        let result = Synthesizer::new(designs::paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 6)
            .pipeline(2)
            .verify(100)
            .run()
            .expect("synthesizable and verifiable");
        let report = result.verification.expect("verification ran");
        assert_eq!(report.iterations, 100);
        assert!(report.writes_checked > 0);
        // verification is opt-in
        let unverified = Synthesizer::new(designs::paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 3)
            .run()
            .expect("synthesizable");
        assert!(unverified.verification.is_none());
    }

    #[test]
    fn synthesis_reports_binding_statistics() {
        let result = Synthesizer::new(designs::paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 3)
            .verify(50)
            .run()
            .expect("synthesizable and bindable");
        let stats = result.binding_stats();
        assert!(stats.fu_count >= 3, "{stats:?}");
        assert!(
            stats.fu_count <= result.schedule.desc.resources.len(),
            "binding never invents hardware: {stats:?}"
        );
        assert!(
            stats.shared_fu_count >= 1,
            "one multiplier runs three multiplications: {stats:?}"
        );
        assert!(stats.register_count > 0, "{stats:?}");
        assert!(stats.mux_inputs >= 3, "{stats:?}");
        // the emitted netlist reflects exactly this sharing: one physical
        // multiplier cell, steered
        let nstats = result.netlist_stats();
        assert_eq!(nstats.count_bin(hls_nir::BinKind::Mul), 1, "{nstats:?}");
        assert!(nstats.muxes() >= 2, "{nstats:?}");
        assert!(nstats.regs > 0, "{nstats:?}");
        assert!(result.binding.summary().contains("FUs"));
    }

    #[test]
    fn overconstrained_specification_reports_scheduling_error() {
        let err = Synthesizer::new(designs::paper_example1())
            .clock_ps(600.0) // even a single multiplication cannot fit
            .latency_bounds(1, 2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Scheduling(_)), "{err}");
    }
}
