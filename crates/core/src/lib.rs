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
use hls_opt::linearize::prepare_innermost_loop;
use hls_pipeline::{fold_schedule, FoldedPipeline};
use hls_sched::{Schedule, Scheduler, SchedulerConfig};
use hls_sim::Reference;
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
    /// The requested clock period is not a positive, finite number of
    /// picoseconds (zero, negative, infinite or NaN). Rejected before any
    /// stage runs; the recovery ladder never retries it.
    InvalidClock {
        /// The requested period, ps.
        period_ps: f64,
    },
    /// Scheduling failed (over-constrained specification, or an initiation
    /// interval of 0, reported as `InfeasibleIi` with minimum 1).
    Scheduling(hls_sched::SchedError),
    /// Pipeline folding failed.
    Folding(hls_pipeline::FoldError),
    /// Binding failed: the schedule cannot be realized as steered shared
    /// hardware.
    Binding(hls_bind::BindError),
    /// Lowering the bound design to the structural netlist failed.
    Lowering(hls_bind::LowerError),
    /// The lowered (or rewritten) netlist failed structural validation, or
    /// two ports, or a port and a controller net, would print under one
    /// Verilog identifier ([`hls_nir::NirError::PortNameClash`], refused
    /// before scheduling).
    Netlist(hls_nir::NirError),
    /// Differential verification failed: a netlist simulated cycle by cycle
    /// (the schedule's per-op netlist, the bound netlist or the rewritten
    /// one) disagrees with the reference interpreter, or the schedule
    /// cannot be lowered to its per-op netlist.
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
            SynthesisError::InvalidClock { period_ps } => write!(
                f,
                "invalid clock period of {period_ps} ps: the period must be positive and finite"
            ),
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
            SynthesisError::Lint(_) | SynthesisError::InvalidClock { .. } => None,
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
    /// What the untimed netlist rewrite pipeline did: cells normalized
    /// (constant folding and identities) and dead cells swept.
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
    /// requested: the schedule's per-op netlist was executed cycle by cycle
    /// against the reference interpreter on random input vectors and agreed
    /// bit-exactly.
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

    /// Cell-level statistics of the emitted netlist (per-kind cell counts,
    /// register bits, maximum mux depth) — counted from the object the RTL
    /// is printed from, replacing any need to grep the Verilog text.
    pub fn netlist_stats(&self) -> hls_nir::NetlistStats {
        self.netlist.stats()
    }
}

/// End-to-end synthesis driver, over a behaviour ([`Synthesizer::new`]) or
/// an already-linearized loop body ([`Synthesizer::from_body`]). Every run
/// uses the `artisan_90nm_typical` library.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    input: Input,
    clock_ps: f64,
    min_latency: u32,
    max_latency: u32,
    ii: Option<u32>,
    verify_vectors: Option<usize>,
    lint_config: LintConfig,
    recovery: RecoveryPolicy,
}

/// What a [`Synthesizer`] runs on.
#[derive(Clone, Debug)]
enum Input {
    /// A behaviour, elaborated and linearized by [`Synthesizer::run`].
    Behavior(Behavior),
    /// A loop body that is already linearized.
    Body(LinearBody),
}

/// The name [`Synthesizer::from_body`]'s result had when it was a type of
/// its own, kept for callers that still name it.
pub type BodySynthesizer = Synthesizer;

impl Synthesizer {
    /// Starts a synthesis run for a behaviour.
    pub fn new(behavior: Behavior) -> Self {
        Self::with_input(Input::Behavior(behavior))
    }

    /// Starts a synthesis run from an already-linearized loop body (the
    /// exploration experiments generate bodies directly).
    pub fn from_body(body: LinearBody) -> Self {
        Self::with_input(Input::Body(body))
    }

    fn with_input(input: Input) -> Self {
        Synthesizer {
            input,
            clock_ps: 1600.0,
            min_latency: 1,
            max_latency: 32,
            ii: None,
            verify_vectors: None,
            lint_config: LintConfig::default(),
            recovery: RecoveryPolicy::disabled(),
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

    /// Differentially verifies the produced design on `vectors` random input
    /// vectors: one timed engine, `hls-sim`'s netlist simulator, runs three
    /// checks, each of which must agree bit-exactly with the reference
    /// interpreter, or the run fails with [`SynthesisError::Verification`].
    /// The interpreter runs once per [`Synthesizer::run`]: every check of
    /// every recovery attempt compares against that one trace.
    ///
    /// 1. the schedule's own netlist, lowered with one operator per
    ///    operation; a schedule that reads a value before it is computed is
    ///    refused here, so a failure is attributed to the schedule;
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
        match knobs.ii {
            Some(ii) => SchedulerConfig::pipelined(clock, ii, knobs.max_latency),
            None => SchedulerConfig::sequential(clock, self.min_latency, knobs.max_latency),
        }
    }

    /// Runs the full flow.
    ///
    /// # Errors
    /// Returns a [`SynthesisError`] wrapping the first stage that failed.
    pub fn run(self) -> Result<SynthesisResult, SynthesisError> {
        let elaborated;
        let body = match &self.input {
            Input::Behavior(behavior) => {
                let mut cdfg = elaborate(behavior)?;
                elaborated = prepare_innermost_loop(&mut cdfg)?;
                &elaborated
            }
            Input::Body(body) => body,
        };
        // The clock and pipeline constructors panic on these; a public
        // builder must not, so they are refused before the first attempt,
        // where the recovery ladder cannot retry them.
        if !(self.clock_ps.is_finite() && self.clock_ps > 0.0) {
            return Err(SynthesisError::InvalidClock {
                period_ps: self.clock_ps,
            });
        }
        if self.ii == Some(0) {
            return Err(SynthesisError::Scheduling(
                hls_sched::SchedError::InfeasibleIi {
                    requested: 0,
                    minimum: 1,
                },
            ));
        }
        // Ports that print under one Verilog identifier would make the RTL
        // read or drive the wrong net; `hls_nir::validate` refuses them
        // too, but only after scheduling.
        let ports: Vec<_> = body.dfg.iter_ports().map(|(_, p)| p).collect();
        hls_nir::check_port_names(&ports)?;
        let mut knobs = Knobs {
            max_latency: self.max_latency,
            ii: self.ii,
            timed_rounds: hls_lint::MAX_ROUNDS,
            sched_clock_ps: self.clock_ps,
            accept_degraded: false,
            latency_relaxed: false,
        };
        // The body and the stimulus do not change between attempts, so
        // every check of every attempt compares against one interpreter run.
        let reference = self
            .verify_vectors
            .map(|vectors| Reference::random(body, vectors, 0x5EED));
        let mut trace: Vec<RecoveryStep> = Vec::new();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let last = match self.attempt(body, &knobs, reference.as_ref()) {
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
    fn attempt(
        &self,
        body: &LinearBody,
        knobs: &Knobs,
        reference: Option<&Reference>,
    ) -> Result<SynthesisResult, SynthesisError> {
        let body = body.clone();
        let library = TechLibrary::artisan_90nm_typical();
        let config = self.config_for(knobs);
        // The scheduler works against the (possibly stretched) recovery
        // clock; everything downstream — timed rewrites, lint/STA, the
        // estimators — signs off against the clock the user asked for, so a
        // stretched run reports its real setup violations instead of
        // quietly re-targeting.
        let clock = ClockConstraint::from_period_ps(self.clock_ps);
        let schedule = Scheduler::new(&body, &library, config).run()?;
        let pipeline = match knobs.ii {
            Some(_) => Some(fold_schedule(&body, &schedule)?),
            None => None,
        };
        let binding = hls_bind::bind(&body, &schedule.desc)?;
        let mut netlist = hls_bind::lower(&body, &schedule.desc, &binding, RtlStyle::SharedFu)?;
        hls_nir::validate(&netlist)?;
        let verification = match reference {
            Some(reference) => {
                let report = reference.check(&schedule.desc)?;
                // the netlist lowered from the binding — shared units with
                // steered operand muxes — must agree too, pre-rewrite
                reference.check_nir(&netlist)?;
                Some(report)
            }
            None => None,
        };
        let netlist_rewrites = hls_nir::optimize(&mut netlist);
        hls_nir::validate(&netlist)?;
        if let Some(reference) = reference {
            // the rewrites must not change observable behaviour
            reference.check_nir(&netlist)?;
        }
        // Timing-driven re-optimization: if the rewritten netlist still has
        // negative-slack endpoints, rebalance/retime the failing cones and
        // re-verify. A netlist that already meets the clock is returned
        // byte-identical (`timed_rewrites.rounds == 0`). The round budget
        // defaults to `hls_lint::MAX_ROUNDS`; the recovery ladder may raise
        // it ([`RecoveryAction::ExtraTimedRounds`]).
        let timed_rewrites =
            hls_lint::optimize_timed_with(&mut netlist, &library, clock, knobs.timed_rounds);
        if timed_rewrites.changed() {
            hls_nir::validate(&netlist)?;
            if let Some(reference) = reference {
                reference.check_nir(&netlist)?;
            }
        }
        // Static analysis of the final netlist: structural lints plus the
        // cell-level timing, in the binding/schedule context. The timed loop
        // already analysed the netlist it returned, so its summary is the
        // report's. Deny-level findings fail the run.
        let lint_ctx = LintContext::new(&library, clock)
            .with_binding(&binding)
            .with_schedule(&schedule.desc)
            .with_timing(&timed_rewrites.after);
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
        let dp = Datapath::from_schedule(&body, &schedule.desc, &library, clock, slack_fraction);
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
        let stats = result.binding.stats;
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
    }

    #[test]
    fn a_zero_initiation_interval_is_a_typed_error_on_both_entry_points() {
        let errors = [
            Synthesizer::new(designs::paper_example1())
                .pipeline(0)
                .run()
                .unwrap_err(),
            Synthesizer::from_body(explore::idct8_design())
                .pipeline(0)
                .recover(RecoveryPolicy::standard())
                .run()
                .unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(
                    err,
                    SynthesisError::Scheduling(hls_sched::SchedError::InfeasibleIi {
                        requested: 0,
                        minimum: 1
                    })
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn a_behaviour_and_its_linearized_body_synthesize_alike() {
        let run = |syn: Synthesizer| {
            syn.clock_ps(1600.0)
                .latency_bounds(1, 6)
                .pipeline(2)
                .verify(64)
                .run()
                .expect("synthesizable and verifiable")
        };
        let mut cdfg = elaborate(&designs::paper_example1()).expect("elaborates");
        let body = prepare_innermost_loop(&mut cdfg).expect("linearizes");
        let from_behavior = run(Synthesizer::new(designs::paper_example1()));
        let from_body = run(Synthesizer::from_body(body));
        let (a, b) = (&from_behavior.schedule, &from_body.schedule);
        assert_eq!(a.desc.ops, b.desc.ops);
        assert_eq!(a.desc.resources, b.desc.resources);
        assert_eq!(
            (a.latency, a.desc.ii, a.passes, &a.actions),
            (b.latency, b.desc.ii, b.passes, &b.actions)
        );
        assert_eq!(a.min_slack_ps.to_bits(), b.min_slack_ps.to_bits());
        assert_eq!(from_behavior.netlist, from_body.netlist);
        assert_eq!(from_behavior.area.to_bits(), from_body.area.to_bits());
    }

    #[test]
    fn a_clock_period_that_is_not_positive_is_a_typed_error_on_both_entry_points() {
        for period in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let errors = [
                Synthesizer::new(designs::paper_example1())
                    .clock_ps(period)
                    .run()
                    .unwrap_err(),
                // an armed recovery ladder does not retry it
                Synthesizer::new(designs::paper_example1())
                    .clock_ps(period)
                    .recover(RecoveryPolicy::standard())
                    .run()
                    .unwrap_err(),
                Synthesizer::from_body(explore::idct8_design())
                    .clock_ps(period)
                    .pipeline(2)
                    .run()
                    .unwrap_err(),
            ];
            for err in errors {
                match err {
                    SynthesisError::InvalidClock { period_ps } => {
                        assert_eq!(period_ps.to_bits(), period.to_bits());
                        assert!(err.to_string().contains("invalid clock period"), "{err}");
                    }
                    other => panic!("clock {period}: expected InvalidClock, got {other}"),
                }
            }
        }
    }

    #[test]
    fn a_design_wider_than_the_value_model_is_refused_on_both_entry_points() {
        // v = a + a; o = v + 1 at 128 bits: the value model covers 64 bits,
        // so this design must be refused, not verified at 64 bits and
        // emitted with 128-bit ports
        use hls_ir::{Dfg, OpKind, PortDirection, Signal};
        let mut dfg = Dfg::new();
        let a = dfg.add_port("a", PortDirection::Input, 128);
        let o = dfg.add_port("o", PortDirection::Output, 128);
        let r = dfg.add_op(OpKind::Read(a), 128, vec![]);
        let v = dfg.add_op(OpKind::Add, 128, vec![Signal::op_w(r, 128); 2]);
        let y = dfg.add_op(
            OpKind::Add,
            128,
            vec![Signal::op_w(v, 128), Signal::constant(1, 128)],
        );
        dfg.add_op(OpKind::Write(o), 128, vec![Signal::op_w(y, 128)]);
        let body = LinearBody::from_dfg("wide", dfg);

        let mut b = frontend::BehaviorBuilder::new("wide");
        b.port_in("a", 128);
        b.port_out("o", 128);
        let v = b.var("v", 128, 0);
        let body_stmts = vec![
            b.assign(v, frontend::Expr::add(b.read_port("a"), b.read_port("a"))),
            b.wait(),
            b.write_port(
                "o",
                frontend::Expr::add(b.read_var(v), frontend::Expr::Const(1)),
            ),
        ];
        b.infinite_loop(body_stmts);

        // the body is refused by the scheduler, the behaviour already by
        // the elaborator
        let refused = "port `a` is 128 bits wide; values are at most 64 bits";
        let err = Synthesizer::from_body(body).verify(16).run().unwrap_err();
        assert!(
            matches!(
                &err,
                SynthesisError::Scheduling(hls_sched::SchedError::InvalidBody { message })
                    if message.contains(refused)
            ),
            "{err:?}"
        );
        let err = Synthesizer::new(b.build()).verify(16).run().unwrap_err();
        assert!(
            matches!(
                &err,
                SynthesisError::Frontend(frontend::FrontendError::Elaboration { message })
                    if message.contains(refused)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn an_unwritten_output_is_refused_by_name_before_scheduling() {
        use frontend::{FrontendError, Stmt};
        fn drop_writes(stmts: &mut Vec<Stmt>) {
            stmts.retain(|s| !matches!(s, Stmt::WritePort { .. }));
            for s in stmts {
                match s {
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        drop_writes(then_body);
                        drop_writes(else_body);
                    }
                    Stmt::Loop { body, .. } => drop_writes(body),
                    Stmt::Assign { .. } | Stmt::WritePort { .. } | Stmt::Wait => {}
                }
            }
        }
        // Example 1 without its `pixel = …` statement
        let mut behavior = designs::paper_example1();
        drop_writes(&mut behavior.body);
        let unwritten = FrontendError::UnwrittenOutput {
            name: "pixel".into(),
        };
        assert_eq!(elaborate(&behavior).unwrap_err(), unwritten);
        let err = Synthesizer::new(behavior).run().unwrap_err();
        assert!(
            matches!(&err, SynthesisError::Frontend(e) if *e == unwritten),
            "{err:?}"
        );
    }

    /// Reads input `inputs[0]`, multiplies it by 3, multiplies that by the
    /// read, adds the two products and every further input, and writes the
    /// sum to the 8-bit output `y`.
    fn product_body(inputs: &[&str]) -> LinearBody {
        use hls_ir::{Dfg, OpKind, PortDirection, Signal};
        let mut dfg = Dfg::new();
        let ports: Vec<_> = inputs
            .iter()
            .map(|&name| dfg.add_port(name, PortDirection::Input, 16))
            .collect();
        let y = dfg.add_port("y", PortDirection::Output, 8);
        let r = dfg.add_op(OpKind::Read(ports[0]), 16, vec![]);
        let m1 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(r, 16), Signal::constant(3, 16)],
        );
        let m2 = dfg.add_op(
            OpKind::Mul,
            16,
            vec![Signal::op_w(m1, 16), Signal::op_w(r, 16)],
        );
        let mut sum = dfg.add_op(
            OpKind::Add,
            16,
            vec![Signal::op_w(m1, 16), Signal::op_w(m2, 16)],
        );
        for &port in &ports[1..] {
            let read = dfg.add_op(OpKind::Read(port), 16, vec![]);
            let operands = vec![Signal::op_w(sum, 16), Signal::op_w(read, 16)];
            sum = dfg.add_op(OpKind::Add, 16, operands);
        }
        dfg.add_op(OpKind::Write(y), 8, vec![Signal::op_w(sum, 8)]);
        LinearBody::from_dfg("product", dfg)
    }

    fn synthesize_product(inputs: &[&str]) -> Result<SynthesisResult, SynthesisError> {
        Synthesizer::from_body(product_body(inputs))
            .clock_ps(1600.0)
            .latency_bounds(1, 8)
            .verify(8)
            .run()
    }

    /// Asserts that the product body over `inputs` is refused before
    /// scheduling, and its ports by `hls_nir::validate`, because port
    /// `port` prints as an identifier that is taken.
    fn assert_port_refused(inputs: &[&str], port: u32, earlier: Option<u32>) {
        let name = inputs[port as usize];
        let clash = hls_nir::NirError::PortNameClash {
            port,
            name: name.to_string(),
            identifier: hls_nir::sanitize(name),
            earlier,
        };
        let err = synthesize_product(inputs).unwrap_err();
        assert!(
            matches!(&err, SynthesisError::Netlist(e) if *e == clash),
            "{inputs:?}: {err:?}"
        );
        assert!(err.to_string().contains(&format!("`{name}`")), "{err}");
        let mut module = NirModule::new("ports");
        module.ports = product_body(inputs)
            .dfg
            .iter_ports()
            .map(|(_, p)| p.clone())
            .collect();
        assert_eq!(hls_nir::validate(&module), Err(clash), "{inputs:?}");
    }

    #[test]
    fn an_unnamed_cell_never_prints_as_a_port_name() {
        // The state-0 guard is unnamed cell 3; its fallback name `n3` used
        // to be declared beside the input port `n3`, and the read's
        // register captured the guard.
        let result = synthesize_product(&["n3"]).expect("n3 is a legal port name");
        let mut declared: Vec<&str> = result
            .rtl
            .lines()
            .map(|line| line.trim().trim_end_matches([',', ';']))
            .filter(|line| {
                [
                    "input wire",
                    "output reg",
                    "wire signed",
                    "reg signed",
                    "reg [",
                ]
                .iter()
                .any(|kind| line.starts_with(kind))
            })
            .filter_map(|line| line.rsplit(' ').next())
            .collect();
        assert!(declared.contains(&"n3"), "{}", result.rtl);
        declared.sort_unstable();
        let twice: Vec<_> = declared.windows(2).filter(|w| w[0] == w[1]).collect();
        assert!(
            twice.is_empty(),
            "declared twice: {twice:?}\n{}",
            result.rtl
        );
        assert!(result.rtl.contains(" <= n3;"), "{}", result.rtl);
    }

    #[test]
    fn ports_named_like_controller_nets_are_refused() {
        for name in ["clk", "rst", "state"] {
            assert_port_refused(&[name], 0, None);
        }
    }

    #[test]
    fn ports_named_like_verilog_keywords_are_refused() {
        for name in ["reg", "wire", "module", "input"] {
            assert_port_refused(&[name], 0, None);
            let err = synthesize_product(&[name]).unwrap_err();
            assert!(err.to_string().contains("Verilog reserves"), "{err}");
        }
        // sanitizing can land on a keyword too
        assert_port_refused(&["x", "pulsestyle-onevent"], 1, None);
    }

    #[test]
    fn ports_whose_names_sanitize_alike_are_refused() {
        assert_port_refused(&["a b", "a_b"], 1, Some(0));
        // the first port in port order that clashes is named, with the
        // first port that prints as its identifier
        assert_port_refused(&["b", "a c", "b", "a_c"], 2, Some(0));
    }

    #[test]
    fn two_ports_of_one_name_are_refused() {
        assert_port_refused(&["x", "x"], 1, Some(0));
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
