//! # hls-lint — static netlist analysis for the rpp-hls flow
//!
//! A diagnostics engine over a validated [`NirModule`] plus the synthesis
//! context that produced it (the [`hls_netlist::ScheduleDesc`] and the
//! [`hls_bind::BoundDesign`]). Two analysis families feed one report:
//!
//! * **structural lints** — graph-shape checks: unreachable FSM states,
//!   dead registers, mux arms that can never be selected, width-truncating
//!   resizes, post-sanitize name collisions, steering fan-in past a bound,
//!   and const-foldable rewrite residue ([`Lint`] lists the catalog);
//! * **static timing** — per-cell arrival times under the paper's Figure 8
//!   delay model ([`hls_netlist::ChainTiming`]): flip-flop launch at every
//!   register and registered source, Table 1 delays per cell, steering
//!   trees charged once by leaf fan-in, and flip-flop setup at every
//!   register/output endpoint. The result is a [`TimingSummary`] with
//!   worst/total negative slack and a named cell-by-cell critical path.
//!
//! Findings carry a [`Severity`] configured per lint via [`LintConfig`];
//! deny-level findings make the `hls` facade's synthesizer fail the run.
//! Reports serialize to JSON ([`LintReport::to_json`]) for CI artifacts.
//!
//! The timing analysis also *acts*: [`optimize_timed`] drives the
//! `hls_nir` timing rewrites (operator rebalancing, shift strength
//! reduction, register retiming) from the per-endpoint slack data,
//! restricted to failing cones ([`critical_cells`]) and monotone in worst
//! slack by accept-or-revert rounds.
//!
//! ```
//! use hls_lint::{analyze, LintConfig, LintContext};
//! use hls_nir::{CellKind, NirModule};
//! use hls_tech::{ClockConstraint, TechLibrary};
//!
//! let mut m = NirModule::new("demo");
//! let en = m.push(CellKind::Const(1), 1, vec![]);
//! let c = m.push(CellKind::Const(5), 8, vec![]);
//! m.push(CellKind::Reg { init: 0 }, 8, vec![c, en]); // written, never read
//! let lib = TechLibrary::artisan_90nm_typical();
//! let ctx = LintContext::new(&lib, ClockConstraint::from_period_ps(1600.0));
//! let report = analyze(&m, &ctx, &LintConfig::default());
//! assert_eq!(report.count_of(hls_lint::Lint::DeadRegister), 1);
//! assert!(!report.has_deny());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod sta;
mod structural;
mod timed;

pub use config::{Lint, LintConfig, Severity};
pub use diag::{Diagnostic, LintReport};
pub use sta::{analyze_timing, critical_cells, PathStep, TimingEndpoint, TimingSummary};
pub use timed::{optimize_timed, optimize_timed_with, TimedRewriteReport, MAX_ROUNDS};

use hls_bind::BoundDesign;
use hls_netlist::{ChainTiming, ScheduleDesc};
use hls_nir::{validate, CellId, NirModule};
use hls_tech::{ClockConstraint, TechLibrary};

/// The synthesis context a netlist is analyzed in: the technology library
/// and clock the timing runs against, plus (optionally) the binding and
/// schedule the lowering implemented, for cross-checks, and a timing
/// summary already computed for this netlist.
#[derive(Clone, Copy, Debug)]
pub struct LintContext<'a> {
    /// Delay/area figures for the timing analysis.
    pub library: &'a TechLibrary,
    /// The clock endpoint slacks are measured against.
    pub clock: ClockConstraint,
    /// The bound design the netlist was lowered from, when available.
    pub bound: Option<&'a BoundDesign>,
    /// The schedule the netlist implements, when available.
    pub schedule: Option<&'a ScheduleDesc>,
    /// The netlist's [`analyze_timing`] summary at `clock`, when the caller
    /// already has it.
    pub timing: Option<&'a TimingSummary>,
}

impl<'a> LintContext<'a> {
    /// A context with library and clock only.
    pub fn new(library: &'a TechLibrary, clock: ClockConstraint) -> Self {
        LintContext {
            library,
            clock,
            bound: None,
            schedule: None,
            timing: None,
        }
    }

    /// Attaches the bound design (enables the binding fan-in cross-check).
    pub fn with_binding(mut self, bound: &'a BoundDesign) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Attaches the schedule (enables the fold/stage consistency check).
    pub fn with_schedule(mut self, schedule: &'a ScheduleDesc) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches the netlist's timing summary ([`analyze`] reports it
    /// instead of re-running [`analyze_timing`]). It must be the summary of
    /// the very netlist analyzed, at this context's library and clock, as
    /// [`TimedRewriteReport::after`] is for the netlist
    /// [`optimize_timed`] returns. A summary taken at another clock period
    /// is ignored.
    pub fn with_timing(mut self, timing: &'a TimingSummary) -> Self {
        self.timing = Some(timing);
        self
    }
}

/// Runs every enabled lint plus the static timing analysis and returns the
/// combined report. A summary attached with [`LintContext::with_timing`]
/// stands in for the analysis.
///
/// The module is [`validate`]d first: a malformed netlist yields a single
/// deny-level [`Lint::MalformedNetlist`] finding and no timing summary
/// (the delay walk assumes acyclic, width-consistent structure).
pub fn analyze(m: &NirModule, ctx: &LintContext, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport {
        module: m.name.clone(),
        clock_ps: ctx.clock.period_ps(),
        diagnostics: Vec::new(),
        timing: None,
    };
    let push = |report: &mut LintReport, lint: Lint, cell: Option<CellId>, message: String| {
        let severity = cfg.severity(lint);
        if severity == Severity::Allow {
            return;
        }
        let name = cell.and_then(|c| m.cell(c).name.clone());
        report.diagnostics.push(Diagnostic {
            lint,
            severity,
            cell,
            name,
            message,
        });
    };

    if let Err(e) = validate(m) {
        push(
            &mut report,
            Lint::MalformedNetlist,
            None,
            format!("structural validation failed: {e}"),
        );
        return report;
    }
    if let Some(sched) = ctx.schedule {
        if sched.fold_states() != m.fold_states || sched.num_stages() != m.stages {
            push(
                &mut report,
                Lint::MalformedNetlist,
                None,
                format!(
                    "netlist claims {} folded state(s) / {} stage(s), but the schedule has {} / {}",
                    m.fold_states,
                    m.stages,
                    sched.fold_states(),
                    sched.num_stages()
                ),
            );
        }
    }

    for (lint, cell, message) in structural::structural_findings(m, ctx, cfg) {
        push(&mut report, lint, cell, message);
    }

    let summary = match ctx.timing {
        Some(summary) if summary.clock_ps == ctx.clock.period_ps() => summary.clone(),
        _ => analyze_timing(m, &mut ChainTiming::new(ctx.library, ctx.clock)),
    };
    for ep in &summary.endpoints {
        if ep.slack_ps < 0.0 {
            push(
                &mut report,
                Lint::SetupViolation,
                Some(ep.cell),
                format!(
                    "path into `{}` takes {:.1} ps, {:.1} ps past the {:.0} ps clock",
                    ep.name,
                    ep.delay_ps,
                    -ep.slack_ps,
                    ctx.clock.period_ps()
                ),
            );
        }
    }
    report.timing = Some(summary);

    report.sort_canonical();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_nir::{Cell, CellKind};

    fn fixture() -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(1600.0),
        )
    }

    #[test]
    fn malformed_netlists_deny_and_skip_timing() {
        let mut m = NirModule::new("bad");
        m.push(CellKind::Resize, 8, vec![CellId::from_raw(99)]);
        let (lib, clock) = fixture();
        let report = analyze(&m, &LintContext::new(&lib, clock), &LintConfig::default());
        assert!(report.has_deny());
        assert_eq!(report.count_of(Lint::MalformedNetlist), 1);
        assert!(report.timing.is_none());
        assert!(report.to_json().contains("malformed-netlist"));
    }

    #[test]
    fn severity_overrides_silence_or_gate_findings() {
        let mut m = NirModule::new("t");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(5), 8, vec![]);
        m.push(CellKind::Reg { init: 0 }, 8, vec![c, en]);
        let (lib, clock) = fixture();
        let ctx = LintContext::new(&lib, clock);
        let warn = analyze(&m, &ctx, &LintConfig::default());
        assert_eq!(warn.count_of(Lint::DeadRegister), 1);
        assert!(!warn.has_deny());
        let deny = analyze(
            &m,
            &ctx,
            &LintConfig::default().set(Lint::DeadRegister, Severity::Deny),
        );
        assert!(deny.has_deny());
        let allow = analyze(
            &m,
            &ctx,
            &LintConfig::default().set(Lint::DeadRegister, Severity::Allow),
        );
        assert_eq!(allow.count_of(Lint::DeadRegister), 0);
    }

    #[test]
    fn setup_violations_surface_with_the_endpoint_name() {
        let mut m = NirModule::new("slow");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let r = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 32,
            inputs: vec![],
            name: Some("src".into()),
        });
        m.cells[r.index()].inputs = vec![r, en];
        let p = m.push(CellKind::Bin(hls_nir::BinKind::Mul), 32, vec![r, r]);
        let p2 = m.push(CellKind::Bin(hls_nir::BinKind::Mul), 32, vec![p, r]);
        let cap = m.add_cell(Cell {
            kind: CellKind::Reg { init: 0 },
            width: 32,
            inputs: vec![p2, en],
            name: Some("cap".into()),
        });
        let _ = cap;
        let (lib, clock) = fixture();
        let ctx = LintContext::new(&lib, clock);
        // two chained multipliers cannot fit 1600 ps (40+930+930+40 = 1940)
        let report = analyze(&m, &ctx, &LintConfig::default());
        assert_eq!(report.count_of(Lint::SetupViolation), 1);
        let d = &report.diagnostics[0];
        assert!(d.message.contains("cap"), "{d:?}");
        assert_eq!(d.severity, Severity::Warn);
        let t = report.timing.as_ref().expect("timing ran");
        assert!((t.critical_delay_ps() - 1940.0).abs() < 0.1);
        assert!(!t.meets_clock());
        // deny_timing() turns the same finding into a gate
        let gated = analyze(&m, &ctx, &LintConfig::deny_timing());
        assert!(gated.has_deny());
    }

    /// An attached summary replaces only the timing walk: validation and
    /// the structural lints still run.
    #[test]
    fn an_attached_summary_still_validates_and_lints() {
        let mut m = NirModule::new("t");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(5), 8, vec![]);
        m.push(CellKind::Reg { init: 0 }, 8, vec![c, en]);
        let (lib, clock) = fixture();
        let ctx = LintContext::new(&lib, clock);
        let cfg = LintConfig::default();
        let fresh = analyze(&m, &ctx, &cfg);
        let summary = fresh.timing.clone().expect("timing ran");
        let reused = analyze(&m, &ctx.with_timing(&summary), &cfg);
        assert_eq!(reused, fresh);
        assert_eq!(reused.count_of(Lint::DeadRegister), 1);

        // a summary taken at another clock is not reported
        let tight = LintContext::new(&lib, ClockConstraint::from_period_ps(100.0));
        assert_eq!(
            analyze(&m, &tight.with_timing(&summary), &cfg),
            analyze(&m, &tight, &cfg)
        );

        m.push(CellKind::Resize, 8, vec![CellId::from_raw(99)]);
        let bad = analyze(&m, &ctx.with_timing(&summary), &cfg);
        assert_eq!(bad.count_of(Lint::MalformedNetlist), 1);
        assert!(bad.timing.is_none());
    }

    #[test]
    fn schedule_mismatch_is_malformed() {
        let mut m = NirModule::new("t");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(5), 8, vec![]);
        let r = m.push(CellKind::Reg { init: 0 }, 8, vec![c, en]);
        let _ = r;
        m.fold_states = 3;
        let sched = ScheduleDesc {
            num_states: 2,
            ii: None,
            ops: Default::default(),
            resources: Default::default(),
        };
        let (lib, clock) = fixture();
        let ctx = LintContext::new(&lib, clock).with_schedule(&sched);
        let report = analyze(&m, &ctx, &LintConfig::default());
        assert_eq!(report.count_of(Lint::MalformedNetlist), 1);
        assert!(report.timing.is_some(), "consistency check does not abort");
    }

    #[test]
    fn reports_are_deterministic() {
        let mut m = NirModule::new("t");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let c = m.push(CellKind::Const(5), 8, vec![]);
        m.push(CellKind::Reg { init: 0 }, 8, vec![c, en]);
        m.push(CellKind::Reg { init: 1 }, 8, vec![c, en]);
        let (lib, clock) = fixture();
        let ctx = LintContext::new(&lib, clock);
        let a = analyze(&m, &ctx, &LintConfig::default());
        let b = analyze(&m, &ctx, &LintConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }
}
