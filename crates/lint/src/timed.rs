//! Timing-driven netlist rewriting: the STA feedback loop.
//!
//! PR 7's per-state static timing analysis can *see* operator chains and
//! steering spines that miss the clock; this module acts on that signal.
//! [`optimize_timed`] alternates analysis and rewriting:
//!
//! 1. run [`analyze_timing`] — if the worst slack is already non-negative,
//!    return immediately with the netlist untouched (zero churn on clean
//!    designs, and the structural guarantee behind the "stats identical
//!    when all slacks are positive" acceptance property);
//! 2. compute the failing cone with [`critical_cells`] and hand it as the
//!    eligibility mask to the `hls_nir` timing rewrites — operator
//!    chain/tree rebalancing, constant-shift strength reduction and
//!    register retiming — so passing regions are never rewritten;
//! 3. re-analyze; keep the round only if the worst slack strictly improved
//!    (by at least [`MIN_GAIN_PS`] — the delay model quantizes to 5 ps
//!    steps, so a smaller "gain" is numerical noise), otherwise restore
//!    the pre-round netlist and stop.
//!
//! The accept-or-revert step makes the loop monotone by construction:
//! `optimize_timed` can never worsen WNS, terminates within
//! [`MAX_ROUNDS`], and is deterministic (every pass walks the dense cell
//! arena in index/topological order; the analysis is a pure function of
//! the module). The rewrites themselves are the verified `hls_nir`
//! passes, so the caller's contract — `validate()` clean before implies
//! clean after, bit-exact under `random_check_nir` — is inherited, not
//! re-proven here.

use hls_netlist::ChainTiming;
use hls_nir::{
    normalize, rebalance_operator_chains, retime_registers, strength_reduce_shifts, sweep,
    NirModule,
};
use hls_tech::{ClockConstraint, TechLibrary};

use crate::sta::{analyze_timing, critical_cells, TimingSummary};

/// Upper bound on analyze→rewrite rounds. Each accepted round must improve
/// WNS by [`MIN_GAIN_PS`], so the loop terminates long before this; the
/// bound is a backstop against delay-model pathologies. When the backstop
/// actually fires the report says so ([`TimedRewriteReport::hit_round_limit`])
/// and the `hls` facade surfaces it as a `rewrite-round-limit` lint finding.
pub const MAX_ROUNDS: usize = 32;

/// Minimum worst-slack improvement (picoseconds) for a round to be kept.
/// The Figure 8 delay model is quantized in 5 ps steps; anything below
/// this is floating-point noise, and keeping such a round would let the
/// loop churn without progress.
const MIN_GAIN_PS: f64 = 0.5;

/// What [`optimize_timed`] did: per-pass rewrite counts, accepted round
/// count, and the timing summaries bracketing the run.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedRewriteReport {
    /// Analyze→rewrite rounds that were kept (improved WNS). 0 means the
    /// netlist was already clean, the clock is infeasible, or no rewrite
    /// found traction — in every such case the netlist is untouched.
    pub rounds: usize,
    /// Associative operator chains rebuilt as balanced trees.
    pub rebalanced_ops: usize,
    /// Constant-amount shifts reduced to slice/resize wiring.
    pub reduced_shifts: usize,
    /// Registers retimed forward across combinational cells.
    pub retimed: usize,
    /// Constant/identity normalizations cleaning up after the passes.
    pub normalized: usize,
    /// Dead cells swept after the accepted rounds.
    pub swept: usize,
    /// Timing before any rewriting.
    pub before: TimingSummary,
    /// Timing of the returned netlist. Equal to `before` when `rounds` is
    /// 0 (the netlist is then byte-identical to the input).
    pub after: TimingSummary,
    /// The loop stopped because it spent its whole round budget with timing
    /// still failing — the search was cut off by the backstop, not by
    /// convergence (fixpoint, revert, or non-negative slack).
    pub hit_round_limit: bool,
}

impl TimedRewriteReport {
    /// Whether the netlist was modified.
    pub fn changed(&self) -> bool {
        self.rounds > 0
    }
}

/// Timing-driven rewrite loop over a validated netlist. See the module
/// docs for the round structure and the monotonicity argument.
///
/// The caller owns re-verification policy: the synthesizer re-runs
/// `hls_nir::validate` and the netlist differential after a changed run,
/// exactly as it does for the untimed `optimize()`.
pub fn optimize_timed(
    m: &mut NirModule,
    library: &TechLibrary,
    clock: ClockConstraint,
) -> TimedRewriteReport {
    optimize_timed_with(m, library, clock, MAX_ROUNDS)
}

/// [`optimize_timed`] with an explicit round budget instead of
/// [`MAX_ROUNDS`]. The facade's recovery policy uses this to grant a run
/// that hit the backstop more rounds; tests use it to force the backstop
/// cheaply.
pub fn optimize_timed_with(
    m: &mut NirModule,
    library: &TechLibrary,
    clock: ClockConstraint,
    max_rounds: usize,
) -> TimedRewriteReport {
    let mut timing = ChainTiming::new(library, clock);
    let before = analyze_timing(m, &mut timing);
    // `after` holds the timing of the netlist as it stands: the analysis
    // itself until a round is kept
    let mut report = TimedRewriteReport {
        rounds: 0,
        rebalanced_ops: 0,
        reduced_shifts: 0,
        retimed: 0,
        normalized: 0,
        swept: 0,
        before: before.clone(),
        after: before,
        hit_round_limit: false,
    };
    // Clean netlists are returned untouched; a clock below the flip-flop
    // launch+capture floor can never be met by restructuring, so don't
    // churn the netlist chasing it.
    if report.after.wns_ps >= 0.0 || clock.period_ps() < timing.register_overhead_ps() {
        return report;
    }

    for _ in 0..max_rounds {
        let mask = critical_cells(m, &report.after);
        let snapshot = m.clone();
        let rebalanced = rebalance_operator_chains(m, Some(&mask));
        let reduced = strength_reduce_shifts(m, Some(&mask));
        let retimed = retime_registers(m, Some(&mask));
        if rebalanced + reduced + retimed == 0 {
            break;
        }
        // Clean up rewrite residue before re-measuring: retiming orphans
        // its source registers, rebalancing orphans the old spine.
        let normalized = normalize(m);
        let swept = sweep(m);
        let after = analyze_timing(m, &mut timing);
        if after.wns_ps >= report.after.wns_ps + MIN_GAIN_PS {
            report.after = after;
            report.rounds += 1;
            report.rebalanced_ops += rebalanced;
            report.reduced_shifts += reduced;
            report.retimed += retimed;
            report.normalized += normalized;
            report.swept += swept;
        } else {
            *m = snapshot;
            break;
        }
        if report.after.wns_ps >= 0.0 {
            break;
        }
    }
    // Every round was accepted and slack is still negative: the budget, not
    // convergence, ended the search.
    report.hit_round_limit = report.rounds == max_rounds && report.after.wns_ps < 0.0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_nir::{validate, BinKind, Cell, CellId, CellKind};

    fn fixture(period: f64) -> (TechLibrary, ClockConstraint) {
        (
            TechLibrary::artisan_90nm_typical(),
            ClockConstraint::from_period_ps(period),
        )
    }

    fn named(
        m: &mut NirModule,
        kind: CellKind,
        width: u16,
        inputs: Vec<CellId>,
        name: &str,
    ) -> CellId {
        m.add_cell(Cell {
            kind,
            width,
            inputs,
            name: Some(name.to_string()),
        })
    }

    /// An 8-term add spine: 40 + 7*350 + 40 = 2530 ps linear, 40 + 3*350
    /// + 40 = 1130 ps balanced.
    fn add_spine() -> NirModule {
        let mut m = NirModule::new("spine");
        let en = m.push(CellKind::Const(1), 1, vec![]);
        let mut regs = Vec::new();
        for k in 0..8 {
            let r = named(
                &mut m,
                CellKind::Reg { init: 0 },
                32,
                vec![],
                &format!("r{k}"),
            );
            m.cells[r.index()].inputs = vec![r, en];
            regs.push(r);
        }
        let mut acc = regs[0];
        for &r in &regs[1..] {
            acc = m.push(CellKind::Bin(BinKind::Add), 32, vec![acc, r]);
        }
        named(&mut m, CellKind::Reg { init: 0 }, 32, vec![acc, en], "cap");
        validate(&m).expect("well-formed");
        m
    }

    #[test]
    fn clean_netlists_are_untouched() {
        let mut m = add_spine();
        let reference = m.clone();
        let (lib, clock) = fixture(3000.0); // 2530 ps path passes easily
        let report = optimize_timed(&mut m, &lib, clock);
        assert!(!report.changed());
        assert_eq!(report.before, report.after);
        assert_eq!(m, reference, "zero churn");
    }

    #[test]
    fn failing_spines_are_rebalanced_to_meet_the_clock() {
        let mut m = add_spine();
        let (lib, clock) = fixture(1600.0); // 2530 ps linear fails
        let report = optimize_timed(&mut m, &lib, clock);
        assert!(report.changed());
        assert!(report.before.wns_ps < 0.0);
        assert!(report.after.wns_ps >= 0.0, "{:?}", report.after.wns_ps);
        assert!(report.rebalanced_ops >= 1);
        assert!(report.after.wns_ps - report.before.wns_ps > 0.0);
        validate(&m).unwrap();
        // and the result is a fixpoint: a second run changes nothing
        let reference = m.clone();
        let again = optimize_timed(&mut m, &lib, clock);
        assert!(!again.changed());
        assert_eq!(m, reference);
    }

    #[test]
    fn infeasible_clocks_do_not_churn() {
        let mut m = add_spine();
        let reference = m.clone();
        let (lib, clock) = fixture(50.0); // below the 80 ps register floor
        let report = optimize_timed(&mut m, &lib, clock);
        assert!(!report.changed());
        assert_eq!(m, reference);
    }

    #[test]
    fn hopeless_but_feasible_clocks_leave_the_netlist_valid() {
        // 500 ps: balanced depth-3 adds still fail, but the loop keeps the
        // improvement it found and stops.
        let mut m = add_spine();
        let (lib, clock) = fixture(500.0);
        let report = optimize_timed(&mut m, &lib, clock);
        assert!(report.after.wns_ps >= report.before.wns_ps);
        validate(&m).unwrap();
        let again = optimize_timed(&mut m, &lib, clock);
        assert!(again.after.wns_ps >= again.before.wns_ps);
        assert_eq!(again.after.wns_ps, report.after.wns_ps, "deterministic");
    }

    #[test]
    fn a_one_round_budget_that_keeps_failing_reports_the_limit() {
        // At 1000 ps even the balanced depth-3 spine (1130 ps) fails, so
        // round 1 is accepted (linear → balanced improves WNS) and the
        // budget ends the search with slack still negative.
        let mut m = add_spine();
        let (lib, clock) = fixture(1000.0);
        let report = optimize_timed_with(&mut m, &lib, clock, 1);
        assert_eq!(report.rounds, 1);
        assert!(report.after.wns_ps < 0.0);
        assert!(report.hit_round_limit);
        validate(&m).unwrap();
    }

    #[test]
    fn converged_runs_do_not_claim_the_limit() {
        // Clean run (no rounds) and a successful rebalance (stops on
        // wns >= 0) both converge — neither is a backstop hit.
        let mut clean = add_spine();
        let (lib, relaxed) = fixture(3000.0);
        assert!(!optimize_timed(&mut clean, &lib, relaxed).hit_round_limit);
        let mut fixed = add_spine();
        let (_, tight) = fixture(1600.0);
        let report = optimize_timed(&mut fixed, &lib, tight);
        assert!(report.after.wns_ps >= 0.0);
        assert!(!report.hit_round_limit);
        // A run that stops by revert/fixpoint (500 ps: improvements dry up
        // before 32 accepted rounds) converges too.
        let mut hopeless = add_spine();
        let (_, infight) = fixture(500.0);
        assert!(!optimize_timed(&mut hopeless, &lib, infight).hit_round_limit);
    }

    #[test]
    fn reports_are_deterministic() {
        let (lib, clock) = fixture(1600.0);
        let mut a = add_spine();
        let mut b = add_spine();
        let ra = optimize_timed(&mut a, &lib, clock);
        let rb = optimize_timed(&mut b, &lib, clock);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }
}
