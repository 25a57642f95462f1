//! The mutation sweep: run every cataloged mutant through the verification
//! stack and report which checker killed it.
//!
//! The kill pipeline mirrors the synthesizer's own gate order:
//!
//! 1. `hls_nir::validate` — structural damage (width mismatches, bad
//!    arities) dies here;
//! 2. `hls_lint::analyze` — a mutant is lint-killed when any per-lint
//!    finding count *increases* over the unmutated baseline (the baseline
//!    may legitimately carry warnings);
//! 3. `hls_sim::Reference::check_nir` — the netlist simulator against
//!    the reference interpreter on one shared deterministic stimulus.
//!
//! The interpreter runs twice per sweep: once on the sweep stimulus, whose
//! trace the baseline and every mutant compare against, and once on the
//! escalated stimulus that re-attacks the survivors. Each mutant is patched
//! into one working copy of the netlist and reverted after its verdict,
//! its simulator is compiled once for both stimuli, and the original's
//! escape-certificate traces are simulated at most once per sweep.
//!
//! A mutant that survives all three **escaped**. Escapes are the whole
//! point of the exercise: an undocumented escape is a hole in the checker
//! stack, while a documented one ([`FaultClass::documented_escape`]) is an
//! architectural invariant the report names instead of hiding.

use crate::catalog::{apply, documented_site_escape, enumerate, FaultClass, FaultSpec};
use hls_ir::{LinearBody, PortId};
use hls_lint::diag::{esc, num};
use hls_lint::{analyze, Lint, LintConfig, LintContext};
use hls_nir::{validate, CellId, CellKind, NirModule};
use hls_sim::{NirSim, Reference, Stimulus};
use hls_tech::{ClockConstraint, TechLibrary};
use std::cell::OnceCell;
use std::fmt::Write as _;

/// Which checker of the stack killed a mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Checker {
    /// `hls_nir::validate` rejected the mutant structurally.
    Validator,
    /// `hls_lint::analyze` reported more findings than the baseline.
    Lint,
    /// The netlist differential diverged from the reference interpreter.
    Differential,
}

impl Checker {
    /// Lower-case keyword used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Checker::Validator => "validator",
            Checker::Lint => "lint",
            Checker::Differential => "differential",
        }
    }
}

/// What happened to one mutant.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultOutcome {
    /// A checker flagged the mutant.
    Killed {
        /// The first checker (in gate order) that flagged it.
        by: Checker,
        /// The checker's rendering of what it saw.
        detail: String,
    },
    /// No checker flagged the mutant.
    Escaped {
        /// Whether the class documents this escape as architecturally
        /// expected ([`FaultClass::documented_escape`]).
        documented: bool,
        /// The documented reason, or a description of the hole.
        reason: String,
    },
}

impl FaultOutcome {
    /// Whether the mutant was killed.
    pub fn is_killed(&self) -> bool {
        matches!(self, FaultOutcome::Killed { .. })
    }
}

/// One mutant and its fate.
#[derive(Clone, Debug, PartialEq)]
pub struct MutantOutcome {
    /// The injected fault.
    pub spec: FaultSpec,
    /// What the checker stack did with it.
    pub outcome: FaultOutcome,
}

/// Sweep configuration. The defaults match the synthesizer's verification
/// depth (64 vectors) with a seed reserved for fault sweeps.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Random input vectors for the differential stage.
    pub vectors: usize,
    /// Stimulus seed; the report records it for replay.
    pub seed: u64,
    /// At most this many mutants per fault class (evenly spaced sites).
    pub max_per_class: usize,
    /// Analyzer configuration for the lint stage.
    pub lint: LintConfig,
    /// Whether a datapath mutant (corrupted constant, swapped operands,
    /// narrowed width) that infects architectural state without reaching an
    /// output is a hole (`true`, the default) or a documented *masked
    /// mutant* (`false`).
    ///
    /// Strict mode is the right setting for curated designs, where every
    /// piece of datapath is observable by construction and an
    /// infected-but-not-propagated mutant means the stimulus is too weak.
    /// Randomly *generated* programs routinely contain semantically dead
    /// datapath (`low8(x << 11)`, values shadowed by a later reassignment)
    /// that no stimulus can ever propagate; non-strict mode accepts those
    /// with a machine-checked trace certificate instead of failing the
    /// sweep. Escapees are always re-attacked with an escalated stimulus
    /// (4x vectors, fresh seed) before any certificate is granted.
    pub strict_propagation: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            vectors: 64,
            seed: 0xFA017,
            max_per_class: 8,
            lint: LintConfig::default(),
            strict_propagation: true,
        }
    }
}

/// Per-class kill/escape tallies — one row of the kill matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassSummary {
    /// The fault class.
    pub class: FaultClass,
    /// Mutants injected.
    pub mutants: usize,
    /// Killed by the structural validator.
    pub killed_validator: usize,
    /// Killed by the lint/STA analyzer.
    pub killed_lint: usize,
    /// Killed by the netlist differential.
    pub killed_differential: usize,
    /// Escaped, with the class's documented reason.
    pub escaped_documented: usize,
    /// Escaped with no documented reason — a checker hole.
    pub escaped_undocumented: usize,
}

impl ClassSummary {
    /// Total kills across the three checkers.
    pub fn killed(&self) -> usize {
        self.killed_validator + self.killed_lint + self.killed_differential
    }
}

/// Machine-readable result of one [`run_sweep`]: every mutant's fate, the
/// stimulus parameters for replay, and the coverage verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCoverageReport {
    /// Name of the swept module.
    pub module: String,
    /// Clock the lint/STA stage ran against, picoseconds.
    pub clock_ps: f64,
    /// Differential vectors per mutant.
    pub vectors: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Whether the *unmutated* netlist passed all three checkers — a
    /// failing baseline voids the sweep (kills would be meaningless).
    pub baseline_ok: bool,
    /// Every mutant and its fate, in enumeration order.
    pub outcomes: Vec<MutantOutcome>,
}

impl FaultCoverageReport {
    /// Total mutants injected.
    pub fn mutants(&self) -> usize {
        self.outcomes.len()
    }

    /// Total mutants killed by any checker.
    pub fn killed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.outcome.is_killed())
            .count()
    }

    /// Escaped mutants that no class documents — each one is a hole in
    /// the checker stack.
    pub fn undocumented_escapes(&self) -> Vec<&MutantOutcome> {
        self.outcomes
            .iter()
            .filter(
                |o| matches!(&o.outcome, FaultOutcome::Escaped { documented, .. } if !documented),
            )
            .collect()
    }

    /// The coverage verdict the acceptance tests gate on: the baseline
    /// passed, and every mutant was either killed or is a documented
    /// escape of its class.
    pub fn is_covered(&self) -> bool {
        self.baseline_ok && self.undocumented_escapes().is_empty()
    }

    /// Per-class tallies in catalog order (classes with no site on this
    /// netlist report zero mutants).
    pub fn summaries(&self) -> Vec<ClassSummary> {
        FaultClass::ALL
            .iter()
            .map(|&class| {
                let mut s = ClassSummary {
                    class,
                    mutants: 0,
                    killed_validator: 0,
                    killed_lint: 0,
                    killed_differential: 0,
                    escaped_documented: 0,
                    escaped_undocumented: 0,
                };
                for o in self.outcomes.iter().filter(|o| o.spec.class == class) {
                    s.mutants += 1;
                    match &o.outcome {
                        FaultOutcome::Killed {
                            by: Checker::Validator,
                            ..
                        } => s.killed_validator += 1,
                        FaultOutcome::Killed {
                            by: Checker::Lint, ..
                        } => s.killed_lint += 1,
                        FaultOutcome::Killed {
                            by: Checker::Differential,
                            ..
                        } => s.killed_differential += 1,
                        FaultOutcome::Escaped {
                            documented: true, ..
                        } => s.escaped_documented += 1,
                        FaultOutcome::Escaped {
                            documented: false, ..
                        } => s.escaped_undocumented += 1,
                    }
                }
                s
            })
            .collect()
    }

    /// Renders the kill matrix as a text table (one row per class).
    pub fn kill_matrix(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault coverage for `{}` @ {:.0} ps ({} vectors, seed {:#x}): {}/{} killed{}",
            self.module,
            self.clock_ps,
            self.vectors,
            self.seed,
            self.killed(),
            self.mutants(),
            if self.is_covered() {
                ""
            } else {
                " — NOT COVERED"
            }
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>7} {:>9} {:>5} {:>5} {:>8}",
            "class", "mutants", "validator", "lint", "diff", "escaped"
        );
        for s in self.summaries() {
            let escaped = s.escaped_documented + s.escaped_undocumented;
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>9} {:>5} {:>5} {:>8}{}",
                s.class.name(),
                s.mutants,
                s.killed_validator,
                s.killed_lint,
                s.killed_differential,
                escaped,
                if s.escaped_undocumented > 0 {
                    " (UNDOCUMENTED)"
                } else if s.escaped_documented > 0 {
                    " (documented)"
                } else {
                    ""
                }
            );
        }
        out
    }

    /// Serializes the report to JSON (hand-rolled with `hls_lint`'s report
    /// helpers: stable field order, three-decimal floats).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"module\": \"{}\",", esc(&self.module));
        let _ = writeln!(out, "  \"clock_ps\": {},", num(self.clock_ps));
        let _ = writeln!(out, "  \"vectors\": {},", self.vectors);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"baseline_ok\": {},", self.baseline_ok);
        let _ = writeln!(out, "  \"covered\": {},", self.is_covered());
        let _ = writeln!(out, "  \"mutants\": {},", self.mutants());
        let _ = writeln!(out, "  \"killed\": {},", self.killed());
        out.push_str("  \"classes\": [");
        for (i, s) in self.summaries().iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"class\": \"{}\", \"mutants\": {}, \"killed_validator\": {}, \
                 \"killed_lint\": {}, \"killed_differential\": {}, \
                 \"escaped_documented\": {}, \"escaped_undocumented\": {}}}",
                s.class,
                s.mutants,
                s.killed_validator,
                s.killed_lint,
                s.killed_differential,
                s.escaped_documented,
                s.escaped_undocumented
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"outcomes\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"class\": \"{}\", \"cell\": {}, \"description\": \"{}\", ",
                o.spec.class,
                o.spec.cell.index(),
                esc(&o.spec.description)
            );
            match &o.outcome {
                FaultOutcome::Killed { by, detail } => {
                    let _ = write!(
                        out,
                        "\"outcome\": \"killed\", \"by\": \"{}\", \"detail\": \"{}\"}}",
                        by.name(),
                        esc(detail)
                    );
                }
                FaultOutcome::Escaped { documented, reason } => {
                    let _ = write!(
                        out,
                        "\"outcome\": \"escaped\", \"documented\": {}, \"reason\": \"{}\"}}",
                        documented,
                        esc(reason)
                    );
                }
            }
        }
        out.push_str(if self.outcomes.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }
}

/// Runs the full mutation sweep: enumerate the catalog over `netlist`,
/// inject each mutant, and push it through validate → lint → differential.
/// `body` is the behavioural loop body the netlist implements — the
/// differential's reference semantics.
///
/// Deterministic: the stimulus, the site enumeration and every mutation
/// are pure functions of the inputs and `config`. The reference
/// interpreter runs once per stimulus, not once per mutant, and each
/// mutant is the netlist [`inject`](crate::inject) returns for its spec,
/// patched into one working copy and undone after its verdict.
pub fn run_sweep(
    body: &LinearBody,
    netlist: &NirModule,
    library: &TechLibrary,
    clock: ClockConstraint,
    config: &FaultConfig,
) -> FaultCoverageReport {
    let ctx = LintContext::new(library, clock);
    let stimulus = Stimulus::random(&body.dfg, config.vectors, config.seed);
    let reference = Reference::new(body, &stimulus);
    let baseline_lint = analyze(netlist, &ctx, &config.lint);
    let baseline_ok = validate(netlist).is_ok()
        && !baseline_lint.has_deny()
        && reference.check_nir(netlist).is_ok();

    // Survivors of the base pipeline get one more differential attack with
    // a longer, differently-seeded stimulus before any escape certificate
    // is considered.
    let escalated_stimulus = Stimulus::random(
        &body.dfg,
        config.vectors * 4,
        config.seed.wrapping_add(0x9E37_79B9),
    );
    let judge = Judge {
        original: netlist,
        ctx,
        config,
        baseline_counts: baseline_lint.counts(),
        stimulus: &stimulus,
        reference,
        escalated: Reference::new(body, &escalated_stimulus),
        original_writes: OnceCell::new(),
        original_state: OnceCell::new(),
    };

    let mut working = netlist.clone();
    let outcomes = enumerate(netlist, config.max_per_class)
        .into_iter()
        .map(|spec| {
            let patch = apply(&mut working, &spec);
            let outcome = judge.outcome(&working, &spec);
            patch.revert(&mut working);
            MutantOutcome { spec, outcome }
        })
        .collect();
    FaultCoverageReport {
        module: netlist.name.clone(),
        clock_ps: clock.period_ps(),
        vectors: config.vectors,
        seed: config.seed,
        baseline_ok,
        outcomes,
    }
}

/// What every mutant of one sweep is judged against.
struct Judge<'a> {
    original: &'a NirModule,
    ctx: LintContext<'a>,
    config: &'a FaultConfig,
    baseline_counts: [usize; Lint::ALL.len()],
    /// The sweep stimulus, which `reference` runs.
    stimulus: &'a Stimulus,
    reference: Reference<'a>,
    /// The escalated stimulus's reference, which re-attacks survivors.
    escalated: Reference<'a>,
    /// The original's [`timed_writes`] under the sweep stimulus, simulated
    /// for the first output-enable survivor.
    original_writes: OnceCell<Option<TimedWrites>>,
    /// The original's [`architectural_trace`] under the sweep stimulus,
    /// simulated for the first datapath survivor.
    original_state: OnceCell<Option<StateTrace>>,
}

/// Every port write's `(cycle, port, iteration, value)`.
type TimedWrites = Vec<(u64, u32, u32, i64)>;

/// Per port, its `(iteration, value)` writes with every register probed.
type StateTrace = Vec<Vec<(u32, i64)>>;

impl Judge<'_> {
    /// The mutant's fate: killed by the first checker that flags it, by the
    /// escalated stimulus, or escaped with or without a certificate.
    fn outcome(&self, mutant: &NirModule, spec: &FaultSpec) -> FaultOutcome {
        let sim = match self.kill(mutant) {
            Ok(sim) => sim,
            Err(killed) => return killed,
        };
        if let Err(e) = self.escalated.check_sim(&sim) {
            return FaultOutcome::Killed {
                by: Checker::Differential,
                detail: format!("escalated {}-vector stimulus: {e}", self.config.vectors * 4),
            };
        }
        match documented_site_escape(self.original, spec)
            .or_else(|| self.probed_escape(mutant, &sim, spec))
        {
            Some(reason) => FaultOutcome::Escaped {
                documented: true,
                reason,
            },
            None => FaultOutcome::Escaped {
                documented: false,
                reason: format!(
                    "survived validate, lint, and a {}-vector differential",
                    self.config.vectors
                ),
            },
        }
    }

    /// The three-stage kill pipeline: the outcome of the checker that
    /// kills the mutant, or the mutant's compiled simulator when it
    /// survives. `analyze` validates the mutant first and leaves a
    /// malformed one without a timing summary, so `validate` runs again
    /// only to word that kill.
    fn kill<'m>(&self, mutant: &'m NirModule) -> Result<NirSim<'m>, FaultOutcome> {
        let report = analyze(mutant, &self.ctx, &self.config.lint);
        if report.timing.is_none() {
            if let Err(e) = validate(mutant) {
                return Err(FaultOutcome::Killed {
                    by: Checker::Validator,
                    detail: e.to_string(),
                });
            }
        }
        let counts = report.counts();
        for (i, lint) in Lint::ALL.iter().enumerate() {
            if counts[i] > self.baseline_counts[i] {
                return Err(FaultOutcome::Killed {
                    by: Checker::Lint,
                    detail: format!(
                        "{lint}: {} finding(s), baseline had {}",
                        counts[i], self.baseline_counts[i]
                    ),
                });
            }
        }
        let differential = |e: hls_sim::SimError| FaultOutcome::Killed {
            by: Checker::Differential,
            detail: e.to_string(),
        };
        let sim = NirSim::new(mutant).map_err(differential)?;
        self.reference.check_sim(&sim).map_err(differential)?;
        Ok(sim)
    }

    /// Dynamic escape classification for value-local faults that the static
    /// [`documented_site_escape`] analysis could not explain.
    ///
    /// A per-cycle probe (an always-enabled output reading the mutated cell)
    /// is attached to both the original and the mutant, and their probe traces
    /// are compared under the sweep stimulus:
    ///
    /// * identical traces — the mutated cell never carries a different value;
    ///   the mutant is an *equivalent mutant* (a re-armed register recaptures
    ///   the value it held, an exchanged selection picks arms that agree) and
    ///   no behavioural checker can be expected to see it;
    /// * diverging traces — the fault does corrupt cycle-level values, but the
    ///   schedule's value lifetimes never route a corrupted window to an
    ///   observable write: a *masked* mutant (reached and infected, but never
    ///   propagated), the classic non-propagating case of mutation analysis.
    ///
    /// Both are named escape families with a machine-checked certificate, so
    /// they report as documented. The classification only applies to the
    /// classes whose mutation is value-local to the anchor cell (enable faults
    /// on registers, mux arm/select faults); everything else — and any probe
    /// that fails to simulate — reports as an undocumented hole.
    fn probed_escape(
        &self,
        mutant: &NirModule,
        sim: &NirSim<'_>,
        spec: &FaultSpec,
    ) -> Option<String> {
        let (original, stimulus) = (self.original, self.stimulus);
        // Enable faults on *output* cells get their own certificate. A mutant
        // only reaches escape classification after the differential passed, and
        // the differential checks exactly the per-iteration write values — so
        // the only deviation a mis-gated port write can still hide is its cycle
        // placement inside the iteration. Compare the cycle-level write traces
        // to tell a truly equivalent rewrite of the enable from a pure
        // intra-iteration timing shift; both carry a machine-checked
        // certificate and the iteration-level I/O contract cannot observe
        // either.
        if matches!(
            spec.class,
            FaultClass::DroppedEnable | FaultClass::WrongEnable
        ) && matches!(original.cell(spec.cell).kind, CellKind::Output { .. })
        {
            let a = self
                .original_writes
                .get_or_init(|| timed_writes(&NirSim::new(original).ok()?, stimulus))
                .as_ref()?;
            let b = timed_writes(sim, stimulus)?;
            return if *a == b {
                Some(
                    "equivalent mutant: the rewritten enable fires on exactly the \
                 original cycles under the sweep stimulus, so the port write \
                 trace is unchanged"
                        .to_string(),
                )
            } else {
                Some(
                    "masked mutant: the mis-gated port write lands in a different \
                 cycle of the same iteration with the same value — an \
                 intra-iteration timing shift the iteration-level I/O contract \
                 cannot observe"
                        .to_string(),
                )
            };
        }
        let lifetime_maskable = match spec.class {
            FaultClass::DroppedEnable | FaultClass::WrongEnable => {
                matches!(original.cell(spec.cell).kind, CellKind::Reg { .. })
            }
            FaultClass::MuxArmSwap | FaultClass::SelectInversion => true,
            _ => false,
        };
        if lifetime_maskable {
            let a = probe_trace(original, spec.cell, stimulus)?;
            let b = probe_trace(mutant, spec.cell, stimulus)?;
            return if a == b {
                Some(
                    "equivalent mutant: a per-cycle probe shows the mutated cell never \
                 carries a different value under the sweep stimulus"
                        .to_string(),
                )
            } else {
                Some(
                    "masked mutant: the fault corrupts the cell's cycle-level value \
                 (probe diverges) but the schedule's value lifetimes never read a \
                 corrupted window, so no observable write differs"
                        .to_string(),
                )
            };
        }
        // Datapath-value faults (corrupted constants, swapped operands,
        // narrowed widths) get the stricter certificate: the mutant is only a
        // documented escape when its ENTIRE architectural state — every
        // register, every output, every cycle — is identical to the original's
        // under the stimulus. Such a mutant is behaviourally indistinguishable
        // on this stimulus and no checker can be blamed for missing it. A
        // mutant that infects a register without propagating stays an
        // undocumented hole: richer stimulus should have killed it.
        if matches!(
            spec.class,
            FaultClass::ConstCorruption | FaultClass::OperandSwap | FaultClass::WidthNarrowing
        ) {
            let a = self
                .original_state
                .get_or_init(|| architectural_trace(original, stimulus))
                .as_ref()?;
            let b = architectural_trace(mutant, stimulus)?;
            if *a == b {
                return Some(
                    "equivalent mutant under the sweep stimulus: every register and \
                 output of the mutant is cycle-identical to the original's, so the \
                 programs are behaviourally indistinguishable on this stimulus"
                        .to_string(),
                );
            }
            // Infected but not propagated. In strict mode that is a hole —
            // richer stimulus should have killed it. Non-strict mode accepts
            // it with a trace certificate: the divergence is confined to
            // registers (every output write already matched the reference,
            // including under the escalated stimulus), which on generated
            // programs usually means the infected state is semantically dead.
            if !self.config.strict_propagation {
                return Some(
                    "masked mutant (non-strict): the corruption infects register \
                 state but no output write differs, even under the escalated \
                 stimulus — the infected state never reaches an output"
                        .to_string(),
                );
            }
            return None;
        }
        None
    }
}

/// The cycle-level write trace of `sim` under `stimulus`: every recorded
/// port write with its exact cycle, not just its iteration.
fn timed_writes(sim: &NirSim<'_>, stimulus: &Stimulus) -> Option<TimedWrites> {
    let trace = sim.run(stimulus).ok()?;
    Some(
        trace
            .writes
            .iter()
            .map(|w| (w.cycle, w.port.index() as u32, w.iteration, w.value))
            .collect(),
    )
}

/// The full architectural state trajectory of `m` under `stimulus`: the
/// per-cycle write trace of every output port plus an always-enabled probe
/// on every register.
fn architectural_trace(m: &NirModule, stimulus: &Stimulus) -> Option<StateTrace> {
    let mut probed = m.clone();
    let regs: Vec<CellId> = probed
        .iter_cells()
        .filter(|(_, c)| matches!(c.kind, CellKind::Reg { .. }))
        .map(|(id, _)| id)
        .collect();
    for (i, &reg) in regs.iter().enumerate() {
        let width = probed.cell(reg).width;
        let port = probed.ports.len() as u32;
        probed.ports.push(hls_ir::Port {
            name: format!("__state_probe{i}"),
            direction: hls_ir::PortDirection::Output,
            width,
        });
        let en = probed.push(CellKind::Const(1), 1, vec![]);
        probed.push(CellKind::Output { port, state: 0 }, width, vec![reg, en]);
    }
    let trace = NirSim::new(&probed).ok()?.run(stimulus).ok()?;
    Some(
        (0..probed.ports.len())
            .map(|i| trace.port_writes(PortId::from_raw(i as u32)))
            .collect(),
    )
}

/// Simulates `m` with an always-enabled probe output attached to `cell`
/// and returns the probe's per-cycle write trace.
fn probe_trace(m: &NirModule, cell: CellId, stimulus: &Stimulus) -> Option<Vec<(u32, i64)>> {
    let mut probed = m.clone();
    let width = probed.cell(cell).width;
    let port = probed.ports.len() as u32;
    probed.ports.push(hls_ir::Port {
        name: "__fault_probe".into(),
        direction: hls_ir::PortDirection::Output,
        width,
    });
    let en = probed.push(CellKind::Const(1), 1, vec![]);
    probed.push(CellKind::Output { port, state: 0 }, width, vec![cell, en]);
    let trace = NirSim::new(&probed).ok()?.run(stimulus).ok()?;
    Some(trace.port_writes(PortId::from_raw(port)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(outcomes: Vec<MutantOutcome>) -> FaultCoverageReport {
        FaultCoverageReport {
            module: "demo".into(),
            clock_ps: 1600.0,
            vectors: 64,
            seed: 0xFA017,
            baseline_ok: true,
            outcomes,
        }
    }

    fn mutant(class: FaultClass, outcome: FaultOutcome) -> MutantOutcome {
        MutantOutcome {
            spec: FaultSpec {
                class,
                cell: hls_nir::CellId::from_raw(3),
                description: "test \"mutant\"".into(),
            },
            outcome,
        }
    }

    #[test]
    fn coverage_verdict_accounts_for_documented_escapes() {
        let covered = report(vec![
            mutant(
                FaultClass::OperandSwap,
                FaultOutcome::Killed {
                    by: Checker::Differential,
                    detail: "diverged".into(),
                },
            ),
            mutant(
                FaultClass::RegInitFlip,
                FaultOutcome::Escaped {
                    documented: true,
                    reason: "shielded".into(),
                },
            ),
        ]);
        assert!(covered.is_covered());
        assert_eq!(covered.killed(), 1);
        assert!(covered.undocumented_escapes().is_empty());

        let holey = report(vec![mutant(
            FaultClass::ConstCorruption,
            FaultOutcome::Escaped {
                documented: false,
                reason: "survived".into(),
            },
        )]);
        assert!(!holey.is_covered());
        assert_eq!(holey.undocumented_escapes().len(), 1);

        let mut broken = report(vec![]);
        broken.baseline_ok = false;
        assert!(!broken.is_covered(), "failing baseline voids the sweep");
    }

    #[test]
    fn summaries_tally_by_class_and_checker() {
        let r = report(vec![
            mutant(
                FaultClass::OperandSwap,
                FaultOutcome::Killed {
                    by: Checker::Validator,
                    detail: String::new(),
                },
            ),
            mutant(
                FaultClass::OperandSwap,
                FaultOutcome::Killed {
                    by: Checker::Lint,
                    detail: String::new(),
                },
            ),
        ]);
        let s = r
            .summaries()
            .into_iter()
            .find(|s| s.class == FaultClass::OperandSwap)
            .unwrap();
        assert_eq!(s.mutants, 2);
        assert_eq!(s.killed_validator, 1);
        assert_eq!(s.killed_lint, 1);
        assert_eq!(s.killed(), 2);
        // classes with no site still get a row
        assert_eq!(r.summaries().len(), FaultClass::ALL.len());
    }

    #[test]
    fn json_is_escaped_and_balanced() {
        let r = report(vec![mutant(
            FaultClass::MuxArmSwap,
            FaultOutcome::Escaped {
                documented: false,
                reason: "why\nnot".into(),
            },
        )]);
        let j = r.to_json();
        assert!(j.contains("\"test \\\"mutant\\\"\""));
        assert!(j.contains("\"why\\nnot\""));
        assert!(j.contains("\"covered\": false"));
        assert!(j.contains("\"class\": \"mux-arm-swap\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        // JSON has no infinities: an infinite clock prints as a finite number
        let mut unbounded = report(vec![]);
        unbounded.clock_ps = f64::INFINITY;
        let j = unbounded.to_json();
        assert!(!j.contains("inf"), "{j}");
        assert!(
            j.contains(&format!("\"clock_ps\": {:.3},", f64::MAX)),
            "{j}"
        );
    }

    #[test]
    fn kill_matrix_renders_every_class() {
        let r = report(vec![]);
        let text = r.kill_matrix();
        for class in FaultClass::ALL {
            assert!(text.contains(class.name()), "{class} missing:\n{text}");
        }
    }
}
