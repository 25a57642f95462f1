//! Flow benchmark for the rpp-hls workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload kernels_verified --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload runs as a single-threaded closed loop: one client, one
//! operation at a time, passes over the spec set in a seeded order until
//! `--seconds` have elapsed (the first pass always completes). An
//! operation is one public `Synthesizer::run` (or one
//! `hls_fault::run_sweep` on `fault_campaign`). Each operation is timed in
//! wall seconds and in units of a fixed reference loop run right before and
//! after it; the reported times are in those units.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs every
//! operation twice, untraced and then as a traced replay of the flow's
//! stage order (see `replay.rs`), checks that both agree, and reports the
//! per-layer metrics; it also writes the spans as Chrome trace-event JSON
//! under `flowbench/out/`. The last line of standard output is one JSON
//! object with the verdict and the metrics. Any wrong output aborts the
//! run with a non-zero exit code and no result line.

mod replay;
mod trace;
mod workloads;

use hls::ir::LinearBody;
use hls::nir::NirModule;
use hls::sim::differential::random_check_nir;
use hls::tech::TechLibrary;
use hls::SynthesisResult;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Tracer, LAYERS};
use workloads::{Input, Qor, Spec, Verdict};

/// Set-up (building the specs, then one warm-up operation on the first
/// spec) is repeated this many times; `setup_s` reports the median.
const SETUP_REPS: usize = 5;

/// Vectors of the post-run netlist re-check of `sched_relax` successes.
const RECHECK_VECTORS: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("flowbench: {e}");
        std::process::exit(1);
    }
}

/// Wall seconds of one pass of the reference loop: a fixed, seeded mix of
/// small allocations and ordered-map inserts and lookups (about 1.5 ms on a
/// 2.0 GHz Xeon), written here so that no change to the library moves it.
///
/// On a shared host an operation's wall time moves by up to 40% with the
/// load other tenants put on the machine, in episodes of many consecutive
/// operations. The reference loop, run right before and after each
/// operation, slows down in the same episodes by about two thirds as much,
/// so an operation's time in reference units moves far less than its wall
/// time (see README, "Why reference units").
fn reference_seconds() -> f64 {
    let start = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut lists: Vec<Vec<u64>> = Vec::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..4_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, i);
        lists.push(vec![x; (x % 16) as usize]);
    }
    let mut acc = 0u64;
    for i in 0..8_000u64 {
        if let Some((_, w)) = map.range(i * 13..).next() {
            acc = acc.wrapping_add(*w);
        }
    }
    std::hint::black_box((&map, &lists, acc));
    start.elapsed().as_secs_f64()
}

/// One operation's outcome plus what the checks need from it.
struct Done {
    /// Wall seconds of the operation.
    secs: f64,
    /// The operation's wall time over the mean of the reference loop's
    /// times right before and right after it.
    rel: f64,
    verdict: Verdict,
    result: Option<SynthesisResult>,
}

/// Runs `f` between two passes of the reference loop. Returns its result,
/// its wall seconds and its time in reference units.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reference_seconds();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let after = reference_seconds();
    (out, secs, secs / (0.5 * (before + after)))
}

fn run_op(spec: &Spec, lib: &TechLibrary) -> Done {
    match spec {
        Spec::Synth(s) => {
            let ready = s.ready();
            let (out, secs, rel) = timed(|| ready.run());
            Done {
                secs,
                rel,
                verdict: Verdict::of_synthesis(&out),
                result: out.ok(),
            }
        }
        Spec::Sweep(s) => {
            let (report, secs, rel) = timed(|| s.run(lib));
            Done {
                secs,
                rel,
                verdict: Verdict::of_sweep(&report),
                result: None,
            }
        }
    }
}

/// What a spec's first operation established; every later repetition must
/// reproduce its verdict, QoR included.
struct Reference {
    verdict: Verdict,
    /// DFG ops of the design (known once elaborated).
    dfg_ops: usize,
    qor: Option<Qor>,
    /// An unverified success, kept for the post-run netlist re-check.
    unverified: Option<(LinearBody, NirModule)>,
}

impl Reference {
    fn first(spec: &Spec, done: Done) -> Result<Reference, String> {
        if let Verdict::Swept { covered: false, .. } = done.verdict {
            return Err(format!("{}: fault sweep is not covered", spec.id()));
        }
        let (dfg_ops, qor, unverified) = match spec {
            Spec::Synth(s) => {
                if let Some(r) = &done.result {
                    workloads::check_paper_facts(&s.id, r)?;
                }
                let ops = match (&s.input, &done.result) {
                    (Input::Body(b), _) => b.dfg.num_ops(),
                    (_, Some(r)) => r.body.dfg.num_ops(),
                    (_, None) => 0,
                };
                let qor = done.result.as_ref().map(Qor::of);
                let unverified = done
                    .result
                    .filter(|_| s.config.verify.is_none())
                    .map(|r| (r.body, r.netlist));
                (ops, qor, unverified)
            }
            Spec::Sweep(s) => (s.body.dfg.num_ops(), Some(s.qor), None),
        };
        Ok(Reference {
            verdict: done.verdict,
            dfg_ops,
            qor,
            unverified,
        })
    }
}

/// Records the first outcome of each spec and checks every repetition
/// against it.
fn observe(
    refs: &mut [Option<Reference>],
    specs: &[Spec],
    i: usize,
    done: Done,
) -> Result<(), String> {
    match &refs[i] {
        None => refs[i] = Some(Reference::first(&specs[i], done)?),
        Some(r) if r.verdict != done.verdict => {
            return Err(format!(
                "{}: outcome changed between repetitions: {:?} then {:?}",
                specs[i].id(),
                r.verdict,
                done.verdict
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// Re-checks each distinct unverified success against the reference
/// interpreter, outside the timed window, on a stimulus drawn from the seed.
fn recheck(refs: &[Reference], specs: &[Spec], seed: u64) -> Result<(), String> {
    for (r, spec) in refs.iter().zip(specs) {
        if let Some((body, netlist)) = &r.unverified {
            random_check_nir(body, netlist, RECHECK_VECTORS, seed)
                .map_err(|e| format!("{}: netlist re-check failed: {e}", spec.id()))?;
        }
    }
    Ok(())
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it (never below
/// the median), as (percentile, value).
fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 20 {
        let mut v = sorted.to_vec();
        return (50.0, median(&mut v));
    }
    let i = n - 11;
    (100.0 * (i + 1) as f64 / n as f64, sorted[i])
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line")?;
    Ok(kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0
        self.0.push((
            name.into(),
            if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
        ));
    }

    /// Prints one line per metric, then the result object as the last line.
    fn print(&self, attempted: usize, failed: usize) {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            println!("{name:<28} {value:>16.6} {unit}");
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        println!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}");
    }
}

/// SplitMix64: the seed's only job is the order operations visit the specs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// Runs passes over the specs, each in a fresh seeded order: the first one
/// whole, so every spec runs at least once, then operation by operation
/// until `seconds` have elapsed. `op` gets each spec index in turn.
fn passes(
    n: usize,
    seconds: f64,
    rng: &mut Rng,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<Duration, String> {
    let start = Instant::now();
    for pass in 0.. {
        for i in rng.permutation(n) {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                return Ok(start.elapsed());
            }
            op(i)?;
        }
    }
    unreachable!("the pass loop only ends by returning")
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let lib = TechLibrary::artisan_90nm_typical();

    // Set-up: build the specs (generating and elaborating whatever is not
    // part of an operation), then warm up on the first spec.
    let mut setup_times = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        specs = workloads::build(&args.workload)?;
        match &specs[0] {
            Spec::Synth(s) => drop(s.ready().run()),
            Spec::Sweep(s) => drop(s.run(&lib)),
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&mut setup_times);

    let mut refs: Vec<Option<Reference>> = specs.iter().map(|_| None).collect();
    let mut rng = Rng(args.seed);
    let mut tracer = args.trace.then(Tracer::new);
    let mut samples = Vec::new();
    let mut wall_per_spec: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut rel_per_spec: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut ref_times = Vec::new();
    let mut failed = 0usize;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let wall = passes(specs.len(), args.seconds, &mut rng, |i| {
        let done = run_op(&specs[i], &lib);
        let (secs, verdict) = (done.secs, done.verdict.clone());
        wall_per_spec[i].push(secs);
        rel_per_spec[i].push(done.rel);
        ref_times.push(secs / done.rel);
        samples.push(secs);
        failed += usize::from(verdict.is_failure());
        observe(&mut refs, &specs, i, done)?;
        if let Some(t) = tracer.as_mut() {
            let start = Instant::now();
            let replayed = t.op(i, |t| match &specs[i] {
                Spec::Synth(s) => replay::synth(t, &lib, s, &verdict),
                Spec::Sweep(s) => replay::sweep(t, &lib, s),
            });
            traced_s += start.elapsed().as_secs_f64();
            untraced_s += secs;
            if replayed != verdict {
                return Err(format!(
                    "{}: traced replay diverged from the untraced run: {replayed:?} vs {verdict:?}",
                    specs[i].id()
                ));
            }
        }
        Ok(())
    })?;
    let refs: Vec<Reference> = refs.into_iter().flatten().collect();
    recheck(&refs, &specs, args.seed)?;

    let n = samples.len();
    println!(
        "# {} seed {}: {n} operations in {:.3} s over {} specs",
        args.workload,
        args.seed,
        wall.as_secs_f64(),
        specs.len()
    );
    if let Some(t) = tracer {
        return report_layers(
            &args,
            &t,
            &specs,
            &refs,
            traced_s / untraced_s - 1.0,
            failed,
        );
    }
    // Every spec counts once, however often the run visited it: the
    // operation-weighted figures would move with where the last pass ended.
    let rel_means: Vec<f64> = rel_per_spec.iter().map(|v| mean(v)).collect();
    for (((spec, times), rel), r) in specs
        .iter()
        .zip(&mut wall_per_spec)
        .zip(&rel_means)
        .zip(&refs)
    {
        let outcome = match &r.verdict {
            Verdict::Built { .. } => "built",
            Verdict::Refused { error, .. } => error,
            Verdict::Swept { .. } => "swept",
        };
        println!(
            "#   {:<36} {outcome:<36} {rel:>10.3} ref; wall mean {:>10.3} ms, median {:>10.3} ms over {} runs",
            spec.id(),
            mean(times) * 1e3,
            median(times) * 1e3,
            times.len()
        );
    }
    // Wall-clock figures are printed, not reported: they move with the load
    // other tenants put on the host (see README).
    let wall_means: Vec<f64> = wall_per_spec.iter().map(|v| mean(v)).collect();
    samples.sort_by(f64::total_cmp);
    let (pct, tail_s) = tail(&samples);
    println!(
        "# wall: mean over specs {:.3} ms, pooled p50 {:.3} ms, p{pct:.1} {:.3} ms over {n} operations; reference loop median {:.1} us",
        mean(&wall_means) * 1e3,
        median(&mut samples) * 1e3,
        tail_s * 1e3,
        median(&mut ref_times) * 1e6
    );
    let decided_ops: usize = refs
        .iter()
        .filter(|r| !r.verdict.is_failure())
        .map(|r| r.dfg_ops)
        .sum();
    let ok_specs = refs.iter().filter(|r| r.verdict.is_ok()).count();
    let qors: Vec<Qor> = refs.iter().filter_map(|r| r.qor).collect();
    let mut m = Metrics(Vec::new());
    m.put("setup_s", setup_s, "s");
    m.put("run_ref_mean", mean(&rel_means), "ref");
    m.put(
        "run_ref_worst_spec",
        rel_means.iter().copied().fold(0.0, f64::max),
        "ref",
    );
    m.put(
        "dfg_ops_per_ref",
        decided_ops as f64 / rel_means.iter().sum::<f64>(),
        "ops/ref",
    );
    m.put("ok_ratio", ok_specs as f64 / refs.len() as f64, "ratio");
    m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    m.put(
        "netlist_cells",
        qors.iter().map(|q| q.cells as f64).sum(),
        "cells",
    );
    m.put("area_units", qors.iter().map(|q| q.area).sum(), "units");
    m.put(
        "cycles_per_iter",
        qors.iter().map(|q| f64::from(q.cycles_per_iter)).sum(),
        "cycles",
    );
    m.print(n, failed);
    Ok(())
}

/// Writes the spans, prints the stage table, and reports the per-layer
/// metrics of a traced run.
fn report_layers(
    args: &Args,
    t: &Tracer,
    specs: &[Spec],
    refs: &[Reference],
    overhead: f64,
    failed: usize,
) -> Result<(), String> {
    let ids: Vec<&str> = specs.iter().map(Spec::id).collect();
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace-{}-s{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&out_dir)
        .and_then(|_| std::fs::write(&path, t.chrome_json(&ids)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    print_stage_table(t, specs, refs);

    let ops = t.ops() as f64;
    let total = t.op_seconds();
    let per_op = |v: f64| v / ops;
    let mut m = Metrics(Vec::new());
    for layer in LAYERS {
        let s = t.seconds(layer, None);
        m.put(format!("{layer}.s"), per_op(s), "s");
        m.put(format!("{layer}.share"), s / total, "ratio");
    }
    m.put("uncovered.s", per_op(t.uncovered_seconds()), "s");
    m.put("uncovered.share", t.uncovered_seconds() / total, "ratio");
    let nir_sim = t.seconds("sim", Some("random_check_nir.pre"))
        + t.seconds("sim", Some("random_check_nir.post"));
    for (name, call) in [
        ("sim.sched_s", "random_check"),
        ("sim.bound_s", "random_check_bound"),
        ("sim.nir_pre_s", "random_check_nir.pre"),
        ("sim.nir_post_s", "random_check_nir.post"),
    ] {
        m.put(name, per_op(t.seconds("sim", Some(call))), "s");
    }
    m.put(
        "lint.timed_s",
        per_op(t.seconds("lint", Some("optimize_timed_with"))),
        "s",
    );
    m.put(
        "lint.analyze_s",
        per_op(t.seconds("lint", Some("analyze"))),
        "s",
    );
    for (name, unit) in [
        ("sim.vectors", "count"),
        ("sim.cell_evals", "count"),
        ("sched.passes", "count"),
        ("sched.attempts", "count"),
        ("sched.reject_s", "s"),
        ("sched.reject_msg_bytes", "bytes"),
        ("lint.timed_rounds", "count"),
        ("nir.cells_lowered", "cells"),
        ("nir.cells_final", "cells"),
        ("nir.mux_depth_final", "count"),
        ("bind.fus", "count"),
        ("bind.regs", "count"),
        ("bind.mux_inputs", "count"),
        ("netlist.rtl_bytes", "bytes"),
        ("fault.mutants", "count"),
        ("fault.killed_validate", "count"),
        ("fault.killed_lint", "count"),
        ("fault.killed_diff", "count"),
        ("fault.escaped_documented", "count"),
    ] {
        m.put(name, per_op(t.counter(name)), unit);
    }
    let cell_evals = t.counter("sim.cell_evals");
    m.put(
        "sim.ns_per_cell_eval",
        if cell_evals > 0.0 {
            nir_sim * 1e9 / cell_evals
        } else {
            0.0
        },
        "ns",
    );
    let mutants = t.counter("fault.mutants");
    let killed = t.counter("fault.killed_validate")
        + t.counter("fault.killed_lint")
        + t.counter("fault.killed_diff");
    m.put(
        "fault.kill_ratio",
        if mutants > 0.0 { killed / mutants } else { 0.0 },
        "ratio",
    );
    let fault_s = t.seconds("fault", None);
    m.put(
        "fault.mutants_per_s",
        if fault_s > 0.0 {
            mutants / fault_s
        } else {
            0.0
        },
        "1/s",
    );
    m.put("trace.overhead", overhead, "ratio");
    m.print(t.ops(), failed);
    Ok(())
}

/// Per-spec stage times in the columns of the ROADMAP's measurement table
/// (mean over the spec's traced operations), then each layer's self time
/// with the time no layer span covers on its own line.
fn print_stage_table(t: &Tracer, specs: &[Spec], refs: &[Reference]) {
    let cols: [fn(&trace::Span) -> bool; 5] = [
        |s| s.layer == "sched",
        |s| s.layer == "sim",
        |s| s.name == "optimize_timed_with",
        |s| s.name == "analyze",
        |s| s.layer == "op",
    ];
    let sums: Vec<_> = cols.iter().map(|pred| t.per_spec(pred)).collect();
    let mut count = vec![0usize; specs.len()];
    for &i in &t.op_specs {
        count[i] += 1;
    }
    if specs.iter().any(|s| matches!(s, Spec::Synth(_))) {
        println!("| design | ops | final cells | schedule | differential checks | timed loop | lint/STA | total |");
        println!("|---|---|---|---|---|---|---|---|");
    }
    for (i, spec) in specs.iter().enumerate() {
        if count[i] == 0 || matches!(spec, Spec::Sweep(_)) {
            continue;
        }
        let cells = refs[i].qor.map_or("-".to_string(), |q| q.cells.to_string());
        let mut row = format!("| {} | {} | {cells} |", spec.id(), refs[i].dfg_ops);
        for sum in &sums {
            let ms = sum.get(&i).copied().unwrap_or(0.0) * 1e3 / count[i] as f64;
            let _ = write!(row, " {ms:.2} ms |");
        }
        println!("{row}");
    }
    let total = t.op_seconds();
    println!(
        "# layer self time over {} traced operations ({total:.3} s):",
        t.ops()
    );
    for layer in LAYERS {
        let s = t.seconds(layer, None);
        println!("#   {layer:<10} {s:>10.4} s {:>6.1}%", 100.0 * s / total);
    }
    let u = t.uncovered_seconds();
    println!(
        "#   {:<10} {u:>10.4} s {:>6.1}%",
        "uncovered",
        100.0 * u / total
    );
}
