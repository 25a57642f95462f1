//! Helpers shared by the golden-snapshot test targets.

use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::idct8_design;
use hls::frontend::ast::Behavior;
use hls::ir::LinearBody;
use hls::opt::linearize::prepare_innermost_loop;
use hls::sched::{RelaxAction, SchedError, Schedule, SchedulerConfig};
use hls::tech::{ClockConstraint, ResourceType};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;

/// Compares `actual` with `tests/golden/<name>` byte for byte, or writes it
/// there when `UPDATE_GOLDEN` is set (bless only after reviewing the diff).
pub fn compare_or_bless(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(12)
            .map(|(i, (e, a))| format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1))
            .collect();
        panic!(
            "{name} diverged from the golden snapshot ({} vs {} lines).\n{}\n\
             If the change is intentional, re-bless by re-running this test \
             with `UPDATE_GOLDEN=1`.",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

/// 64-bit FNV-1a over a byte stream: the digest the golden lines carry.
#[allow(dead_code)] // not every golden target digests
pub struct Fnv(pub u64);

#[allow(dead_code)]
impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digests formatted text as it is written, so a large `Debug` rendering
/// is never held in memory.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A relaxation action in the scheduling goldens' compact form.
#[allow(dead_code)] // only the scheduling goldens render decisions
pub fn action_code(action: &RelaxAction) -> String {
    match action {
        RelaxAction::AddState => "S".into(),
        RelaxAction::AddResource(ty) => format!("R:{ty}"),
        RelaxAction::AddResourceBatch { ty, count } => format!("B{count}:{ty}"),
        RelaxAction::MoveScc { scc_index } => format!("M{scc_index}"),
        RelaxAction::ForbidBinding { op, resource } => format!("F:{op}>{}", resource.0),
    }
}

/// A scheduling golden's line for a success: latency, pass count, the
/// relaxation actions in order, the allocated instances per resource type,
/// the bits of the worst slack, and an FNV-1a digest of every op's (state,
/// instance).
#[allow(dead_code)]
pub fn success_line(s: &Schedule) -> String {
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

/// A scheduling golden's line for a refusal: the `SchedError` variant,
/// latency and pass count, plus the bits of the worst slack and a digest
/// of the rendered restraints (`Overconstrained`), or the budget and
/// digests of the applied actions and of the outstanding restraints
/// (`BudgetExhausted`). The restraints are diagnostics, but their order
/// breaks `choose_action`'s ties, so the digests pin it.
#[allow(dead_code)]
pub fn failure_line(e: &SchedError) -> String {
    let lines_digest = |lines: &[String]| {
        let mut digest = Fnv::new();
        for line in lines {
            digest.bytes(line.as_bytes());
            digest.bytes(b"\n");
        }
        digest.0
    };
    match e {
        SchedError::Overconstrained {
            latency,
            passes,
            details,
            worst_slack_ps,
        } => {
            let mut digest = Fnv::new();
            digest.bytes(details.as_bytes());
            format!(
                "err Overconstrained latency={latency} passes={passes} worst_slack={:#018x} \
                 details_digest={:#018x}",
                worst_slack_ps.to_bits(),
                digest.0
            )
        }
        SchedError::BudgetExhausted {
            budget,
            latency,
            passes,
            restraints,
            actions,
        } => format!(
            "err BudgetExhausted latency={latency} passes={passes} budget=[{budget}] \
             actions={} actions_digest={:#018x} restraints={} restraints_digest={:#018x}",
            actions.len(),
            lines_digest(actions),
            restraints.len(),
            lines_digest(restraints)
        ),
        other => panic!("unexpected scheduler error in a decision corpus: {other}"),
    }
}

/// The elaborated, linearized innermost loop of `behavior`.
#[allow(dead_code)] // only the mutant goldens build designs
pub fn body_of(behavior: &Behavior) -> LinearBody {
    let mut cdfg = hls::frontend::elaborate(behavior).expect("elaborates");
    prepare_innermost_loop(&mut cdfg).expect("linearizes")
}

/// The stock designs and configurations the mutant goldens mutate: those of
/// the netlist-simulator trace golden.
#[allow(dead_code)]
pub fn mutant_designs() -> Vec<(&'static str, LinearBody, SchedulerConfig)> {
    const FIR8_TAPS: [i64; 8] = [3, -5, 7, 11, 11, 7, -5, 3];
    let c1600 = ClockConstraint::from_period_ps(1600.0);
    let c2000 = ClockConstraint::from_period_ps(2000.0);
    let example1 = body_of(&paper_example1());
    let fir8 = body_of(&fir_filter(&FIR8_TAPS, 16));
    let idct8 = idct8_design();
    vec![
        (
            "example1_seq",
            example1.clone(),
            SchedulerConfig::sequential(c1600, 1, 3),
        ),
        (
            "example1_ii2",
            example1.clone(),
            SchedulerConfig::pipelined(c1600, 2, 6),
        ),
        (
            "example1_ii1",
            example1,
            SchedulerConfig::pipelined(c1600, 1, 6),
        ),
        (
            "moving_average_ii1",
            body_of(&moving_average(2, 16)),
            SchedulerConfig::pipelined(c1600, 1, 8),
        ),
        (
            "fir8_seq",
            fir8.clone(),
            SchedulerConfig::sequential(c1600, 1, 16),
        ),
        ("fir8_ii2", fir8, SchedulerConfig::pipelined(c1600, 2, 16)),
        (
            "idct8_seq",
            idct8.clone(),
            SchedulerConfig::sequential(c2000, 1, 16),
        ),
        ("idct8_ii8", idct8, SchedulerConfig::pipelined(c2000, 8, 16)),
    ]
}

/// The variant name of an error's `Debug` rendering, with the variant of a
/// wrapped error in parentheses: `InvalidBinding(SlotConflict)`.
#[allow(dead_code)]
pub fn variant(debug: &str) -> String {
    let name: String = debug
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    match debug[name.len()..].strip_prefix('(') {
        Some(inner) => format!("{name}({})", variant(inner)),
        None => name,
    }
}

/// A mutant golden's verdict: `ok`, or the error's variant.
#[allow(dead_code)]
pub fn verdict<T, E: Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => variant(&format!("{e:?}")),
    }
}

/// The mutant lines of `tests/golden/<name>`, split into columns.
#[allow(dead_code)]
pub fn golden_rows(name: &str) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().map(String::from).collect())
        .collect()
}

/// A verdict that stops a mutant: a refusal or a divergence.
#[allow(dead_code)]
pub fn caught(verdict: &str) -> bool {
    !matches!(verdict, "ok" | "-")
}
