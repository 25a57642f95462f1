//! The four workloads: their specs, how one operation runs, and what a
//! correct outcome looks like.
//!
//! Every spec has a stable id built from its class, op count, generator
//! seed and configuration, so a number can be traced back to one design
//! whatever order the run visits it in.

use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::designs::{synthetic_design, DesignClass};
use hls::explore::idct8_design;
use hls::fault::{run_sweep, FaultConfig, FaultCoverageReport};
use hls::frontend::Behavior;
use hls::ir::LinearBody;
use hls::nir::{BinKind, NirModule};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{
    BodySynthesizer, RecoveryAction, RecoveryPolicy, SynthesisError, SynthesisResult, Synthesizer,
};

/// The workloads, by the name the command line uses.
pub const NAMES: [&str; 4] = [
    "paper_designs",
    "kernels_verified",
    "sched_relax",
    "fault_campaign",
];

/// What one synthesis spec feeds the flow.
pub enum Input {
    /// Elaborated and optimized inside the operation.
    Behavior(Behavior),
    /// Already linearized: the operation starts at the scheduler.
    Body(LinearBody),
}

/// The `Synthesizer` knobs a spec sets; the minimum latency is always 1.
pub struct Config {
    pub clock_ps: f64,
    pub max_latency: u32,
    pub ii: Option<u32>,
    pub verify: Option<usize>,
    pub recover: bool,
}

pub struct SynthSpec {
    pub id: String,
    pub input: Input,
    pub config: Config,
}

/// A fault sweep over a netlist synthesized during set-up.
pub struct SweepSpec {
    pub id: String,
    pub body: LinearBody,
    pub netlist: NirModule,
    pub clock_ps: f64,
    /// QoR of the synthesis run that produced the netlist.
    pub qor: Qor,
}

pub enum Spec {
    Synth(SynthSpec),
    Sweep(SweepSpec),
}

impl Spec {
    pub fn id(&self) -> &str {
        match self {
            Spec::Synth(s) => &s.id,
            Spec::Sweep(s) => &s.id,
        }
    }
}

/// A synthesizer with its inputs cloned, ready to run: building it is kept
/// outside the timed window.
pub enum Ready {
    Behavior(Synthesizer),
    Body(BodySynthesizer),
}

impl Ready {
    pub fn run(self) -> Result<SynthesisResult, SynthesisError> {
        match self {
            Ready::Behavior(s) => s.run(),
            Ready::Body(s) => s.run(),
        }
    }
}

macro_rules! configure {
    ($syn:expr, $c:expr) => {{
        let c: &Config = $c;
        let mut s = $syn.clock_ps(c.clock_ps).latency_bounds(1, c.max_latency);
        if let Some(ii) = c.ii {
            s = s.pipeline(ii);
        }
        if let Some(vectors) = c.verify {
            s = s.verify(vectors);
        }
        if c.recover {
            s = s.recover(RecoveryPolicy::standard());
        }
        s
    }};
}

impl SynthSpec {
    pub fn ready(&self) -> Ready {
        match &self.input {
            Input::Behavior(b) => {
                Ready::Behavior(configure!(Synthesizer::new(b.clone()), &self.config))
            }
            Input::Body(body) => Ready::Body(configure!(
                Synthesizer::from_body(body.clone()),
                &self.config
            )),
        }
    }
}

impl SweepSpec {
    pub fn run(&self, lib: &TechLibrary) -> FaultCoverageReport {
        run_sweep(
            &self.body,
            &self.netlist,
            lib,
            ClockConstraint::from_period_ps(self.clock_ps),
            &FaultConfig::default(),
        )
    }
}

/// Quality of result of one synthesized design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Qor {
    pub cells: usize,
    pub area: f64,
    pub cycles_per_iter: u32,
}

impl Qor {
    pub fn of(r: &SynthesisResult) -> Qor {
        Qor {
            cells: r.netlist.num_cells(),
            area: r.area,
            cycles_per_iter: r.schedule.cycles_per_iteration(),
        }
    }
}

/// The observable outcome of one operation: what the untraced run and the
/// traced replay must agree on, and what repetitions must reproduce.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Built {
        latency: u32,
        qor: Qor,
        actions: Vec<RecoveryAction>,
        degraded: bool,
    },
    /// A typed error; `refusal` marks the scheduling/timing verdicts that
    /// `sched_relax` expects, everything else is a failed operation.
    Refused {
        error: String,
        actions: Vec<RecoveryAction>,
        refusal: bool,
    },
    Swept {
        mutants_per_class: Vec<usize>,
        killed: usize,
        covered: bool,
    },
}

impl Verdict {
    pub fn of_synthesis(out: &Result<SynthesisResult, SynthesisError>) -> Verdict {
        match out {
            Ok(r) => Verdict::Built {
                latency: r.schedule.latency,
                qor: Qor::of(r),
                actions: r.recovery.iter().map(|s| s.action.clone()).collect(),
                degraded: r.degraded,
            },
            Err(e) => {
                let actions = match e {
                    SynthesisError::RecoveryExhausted { trace, .. } => {
                        trace.iter().map(|s| s.action.clone()).collect()
                    }
                    _ => Vec::new(),
                };
                Verdict::Refused {
                    error: variant(e),
                    actions,
                    refusal: is_refusal(e),
                }
            }
        }
    }

    pub fn of_sweep(r: &FaultCoverageReport) -> Verdict {
        Verdict::Swept {
            mutants_per_class: r.summaries().iter().map(|s| s.mutants).collect(),
            killed: r.killed(),
            covered: r.is_covered(),
        }
    }

    pub fn is_ok(&self) -> bool {
        match self {
            Verdict::Built { .. } => true,
            Verdict::Refused { .. } => false,
            Verdict::Swept { covered, .. } => *covered,
        }
    }

    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Refused { refusal: false, .. })
    }
}

/// The error's variant path, e.g. `RecoveryExhausted(3, Scheduling(BudgetExhausted))`.
pub fn variant(e: &SynthesisError) -> String {
    match e {
        SynthesisError::Scheduling(s) => {
            let kind = match s {
                hls::sched::SchedError::Overconstrained { .. } => "Overconstrained",
                hls::sched::SchedError::InvalidBody { .. } => "InvalidBody",
                hls::sched::SchedError::InfeasibleIi { .. } => "InfeasibleIi",
                hls::sched::SchedError::BudgetExhausted { .. } => "BudgetExhausted",
                #[allow(unreachable_patterns)]
                _ => "other",
            };
            format!("Scheduling({kind})")
        }
        SynthesisError::RecoveryExhausted { attempts, last, .. } => {
            format!("RecoveryExhausted({attempts}, {})", variant(last))
        }
        SynthesisError::Frontend(_) => "Frontend".into(),
        SynthesisError::Optimizer(_) => "Optimizer".into(),
        SynthesisError::Folding(_) => "Folding".into(),
        SynthesisError::Binding(_) => "Binding".into(),
        SynthesisError::Lowering(_) => "Lowering".into(),
        SynthesisError::Netlist(_) => "Netlist".into(),
        SynthesisError::Verification(_) => "Verification".into(),
        SynthesisError::Lint(_) => "Lint".into(),
        _ => "other".into(),
    }
}

/// Scheduling over-constraint and timing denies are verdicts on the spec;
/// anything else means the flow broke.
pub fn is_refusal(e: &SynthesisError) -> bool {
    match e {
        SynthesisError::Scheduling(_) | SynthesisError::Lint(_) => true,
        SynthesisError::RecoveryExhausted { last, .. } => is_refusal(last),
        _ => false,
    }
}

fn seq(clock_ps: f64, max_latency: u32, verify: Option<usize>, recover: bool) -> Config {
    Config {
        clock_ps,
        max_latency,
        ii: None,
        verify,
        recover,
    }
}

fn pipe(clock_ps: f64, max_latency: u32, ii: u32, verify: Option<usize>, recover: bool) -> Config {
    Config {
        ii: Some(ii),
        ..seq(clock_ps, max_latency, verify, recover)
    }
}

fn config_tag(c: &Config) -> String {
    match c.ii {
        Some(ii) => format!("ii{ii}@{}ps/L{}", c.clock_ps, c.max_latency),
        None => format!("seq@{}ps/L{}", c.clock_ps, c.max_latency),
    }
}

fn behavior(name: &str, b: Behavior, config: Config) -> SynthSpec {
    SynthSpec {
        id: format!("{name}/{}", config_tag(&config)),
        input: Input::Behavior(b),
        config,
    }
}

fn generated(class: DesignClass, ops: usize, seed: u64, config: Config) -> SynthSpec {
    SynthSpec {
        id: format!("{class:?}/{ops}/s{seed}/{}", config_tag(&config)),
        input: Input::Body(synthetic_design(class, ops, seed)),
        config,
    }
}

/// The stock 8-tap FIR of the repository's examples and fault job.
const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];

/// The paper's designs (Example 1, the moving average, an 8-tap FIR and the
/// IDCT8), each sequential and pipelined, verified with 64 vectors.
fn paper_designs() -> Vec<SynthSpec> {
    let v = Some(64);
    vec![
        behavior("example1", paper_example1(), seq(1600.0, 3, v, false)),
        behavior("example1", paper_example1(), pipe(1600.0, 6, 2, v, false)),
        behavior(
            "moving_average",
            moving_average(2, 16),
            pipe(1600.0, 8, 1, v, false),
        ),
        behavior(
            "fir8",
            fir_filter(&FIR8_TAPS, 16),
            seq(1600.0, 16, v, false),
        ),
        behavior(
            "fir8",
            fir_filter(&FIR8_TAPS, 16),
            pipe(1600.0, 16, 2, v, false),
        ),
        SynthSpec {
            id: "idct8/seq@2000ps/L16".into(),
            input: Input::Body(idct8_design()),
            config: seq(2000.0, 16, v, false),
        },
        SynthSpec {
            id: "idct8/ii8@2000ps/L16".into(),
            input: Input::Body(idct8_design()),
            config: pipe(2000.0, 16, 8, v, false),
        },
    ]
}

/// Single-kernel generated designs of about 1000 ops, verified with 64
/// vectors. Every one synthesizes: the generator seeds were picked so.
fn kernels_verified() -> Vec<SynthSpec> {
    use DesignClass::{Fft, Filter, ImageKernel};
    let v = Some(64);
    let mut specs: Vec<SynthSpec> = [
        (Filter, 2),
        (Filter, 6),
        (Fft, 0),
        (Fft, 1),
        (ImageKernel, 0),
        (ImageKernel, 1),
    ]
    .into_iter()
    .map(|(class, s)| generated(class, 1000, s, seq(2200.0, 48, v, false)))
    .collect();
    specs.extend(
        [(Filter, 2), (Fft, 1), (ImageKernel, 1)]
            .into_iter()
            .map(|(class, s)| generated(class, 1000, s, pipe(2200.0, 48, 2, v, false))),
    );
    specs
}

/// Generated designs of 300-1000 ops under Figure 9's two configurations,
/// unverified, with the standard recovery ladder. Four of the eleven end in
/// a typed refusal after two attempts. The five-attempt II=2 refusal
/// `Fft/1000/s0/ii2` is left out: at about 6 s per operation a run saw it
/// once or twice, and its time spread past the benchmark's bound.
fn sched_relax() -> Vec<SynthSpec> {
    use DesignClass::{Fft, Filter, ImageKernel};
    let a = || seq(1600.0, 24, None, true);
    let b = || pipe(2200.0, 24, 2, None, true);
    vec![
        generated(Filter, 300, 1, a()),
        generated(Filter, 400, 0, a()),
        generated(Fft, 600, 0, a()),
        generated(ImageKernel, 600, 0, a()),
        generated(Filter, 800, 1, a()),
        generated(ImageKernel, 800, 0, a()),
        generated(Fft, 1000, 1, a()),
        generated(Fft, 400, 0, b()),
        generated(Filter, 600, 1, b()),
        generated(Fft, 800, 1, b()),
        generated(ImageKernel, 1000, 0, b()),
    ]
}

/// The CI fault job's stock designs: the paper designs it sweeps,
/// synthesized here without verification (set-up work) so the operation
/// is the sweep alone.
fn fault_campaign() -> Result<Vec<SweepSpec>, String> {
    const SWEPT: [&str; 5] = [
        "example1/seq@1600ps/L3",
        "example1/ii2@1600ps/L6",
        "moving_average/ii1@1600ps/L8",
        "fir8/seq@1600ps/L16",
        "idct8/seq@2000ps/L16",
    ];
    paper_designs()
        .into_iter()
        .filter(|spec| SWEPT.contains(&spec.id.as_str()))
        .map(|mut spec| {
            spec.config.verify = None;
            let r = spec
                .ready()
                .run()
                .map_err(|e| format!("{}: {e}", spec.id))?;
            Ok(SweepSpec {
                id: format!("sweep/{}", spec.id),
                qor: Qor::of(&r),
                body: r.body,
                netlist: r.netlist,
                clock_ps: spec.config.clock_ps,
            })
        })
        .collect()
}

/// Builds a workload's specs. They are fixed per workload; the seed only
/// decides the order operations visit them in (see `main.rs`).
pub fn build(workload: &str) -> Result<Vec<Spec>, String> {
    let synth = |v: Vec<SynthSpec>| v.into_iter().map(Spec::Synth).collect();
    Ok(match workload {
        "paper_designs" => synth(paper_designs()),
        "kernels_verified" => synth(kernels_verified()),
        "sched_relax" => synth(sched_relax()),
        "fault_campaign" => fault_campaign()?.into_iter().map(Spec::Sweep).collect(),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?})"
            ))
        }
    })
}

/// The paper's pinned facts about Example 1 (Tables 2 and 3): the
/// sequential schedule takes 3 states on one shared multiplier, the II=2
/// pipeline needs two multipliers.
pub fn check_paper_facts(id: &str, r: &SynthesisResult) -> Result<(), String> {
    let muls = r.netlist_stats().count_bin(BinKind::Mul);
    let latency = r.schedule.latency;
    let ok = match id {
        "example1/seq@1600ps/L3" => latency == 3 && muls == 1,
        "example1/ii2@1600ps/L6" => muls == 2,
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{id}: the paper's Example 1 facts fail: latency {latency}, {muls} multiplier(s)"
        ))
    }
}
