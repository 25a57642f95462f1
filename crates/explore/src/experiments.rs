//! Experiment drivers: one function per table / figure of the paper.
//!
//! Every driver returns a structured, serializable result and can render the
//! same rows the paper prints. The examples print them: `paper_example`
//! Tables 1–4 and the scheduling ablation, `idct_explore` Figures 10 and 11,
//! and `figure9_perf` Figure 9 and `BENCH_sched.json`.
//! `tests/integration_experiments.rs` runs reduced-size versions as smoke
//! tests; `tests/integration_paper_examples.rs` asserts the paper's worked
//! Examples 1–3 and the ordering of Table 3.

use crate::designs::{idct8_design, synthetic_design, DesignClass, MULTI_KERNEL_THRESHOLD};
use crate::pareto::ExplorationPoint;
use hls_frontend::designs as paper_designs;
use hls_ir::LinearBody;
use hls_netlist::Datapath;
use hls_opt::linearize::prepare_innermost_loop;
use hls_sched::{Schedule, Scheduler, SchedulerConfig};
use hls_tech::{ClockConstraint, ResourceClass, TechLibrary};
use std::time::Instant;

/// The paper's reference clock for the running example (1600 ps).
pub const EXAMPLE_CLOCK_PS: f64 = 1600.0;

fn example1_body() -> LinearBody {
    let mut cdfg = paper_designs::paper_example1_cdfg().expect("paper example elaborates");
    prepare_innermost_loop(&mut cdfg).expect("paper example linearizes")
}

fn schedule_and_estimate(
    body: &LinearBody,
    lib: &TechLibrary,
    config: SchedulerConfig,
) -> Option<(Schedule, Datapath)> {
    let clock = config.clock;
    let schedule = Scheduler::new(body, lib, config).run().ok()?;
    let slack_fraction = (schedule.min_slack_ps / clock.period_ps()).clamp(0.0, 0.9);
    let dp = Datapath::from_schedule(body, &schedule.desc, lib, clock, slack_fraction);
    Some((schedule, dp))
}

/// Binds a schedule and returns the counted hardware statistics; every
/// schedule the drivers emit must be realizable as steered shared hardware,
/// so a binder rejection here is a bug worth failing loudly on.
fn bind_stats(body: &LinearBody, schedule: &Schedule) -> hls_bind::BindStats {
    hls_bind::bind(body, &schedule.desc)
        .expect("emitted schedule must be bindable")
        .stats
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: the fastest-implementation delays of the example's resources.
pub fn table1_library() -> Vec<(String, f64)> {
    TechLibrary::artisan_90nm_typical().table1_rows()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Result of the Table 2 experiment (sequential schedule of Example 1).
#[derive(Clone, Debug)]
pub struct Table2Result {
    /// Achieved latency in states.
    pub latency: u32,
    /// Scheduling passes used.
    pub passes: u32,
    /// Number of multipliers allocated.
    pub multipliers: usize,
    /// State (1-based) of each of the named multiplications.
    pub mul_states: Vec<(String, u32)>,
    /// The rendered state × resource table.
    pub table: String,
}

/// Table 2: schedule of the paper's Example 1 with the minimum resource set.
pub fn table2_example1_schedule() -> Table2Result {
    let body = example1_body();
    let lib = TechLibrary::artisan_90nm_typical();
    let config =
        SchedulerConfig::sequential(ClockConstraint::from_period_ps(EXAMPLE_CLOCK_PS), 1, 3);
    let schedule = Scheduler::new(&body, &lib, config)
        .run()
        .expect("example 1 schedules");
    let mut mul_states = Vec::new();
    for (id, op) in body.dfg.iter_ops() {
        let name = op.display_name();
        if name.starts_with("mul") {
            mul_states.push((name, schedule.desc.state_of(id) + 1));
        }
    }
    mul_states.sort();
    Table2Result {
        latency: schedule.latency,
        passes: schedule.passes,
        multipliers: schedule
            .desc
            .resources
            .count_of_class(&ResourceClass::Multiplier),
        mul_states,
        table: schedule.table(&body),
    }
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Micro-architecture name (`Sequential`, `Pipe II=2`, `Pipe II=1`).
    pub name: String,
    /// Cycles per iteration.
    pub cycles_per_iteration: u32,
    /// Estimated area in library units.
    pub area: f64,
    /// Number of multipliers allocated.
    pub multipliers: usize,
}

/// Table 3: comparing the sequential, II=2 and II=1 micro-architectures of
/// Example 1 by throughput and area.
pub fn table3_microarchitectures() -> Vec<Table3Row> {
    let body = example1_body();
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(EXAMPLE_CLOCK_PS);
    let configs = vec![
        (
            "Sequential".to_string(),
            SchedulerConfig::sequential(clock, 1, 3),
        ),
        (
            "Pipe II=2".to_string(),
            SchedulerConfig::pipelined(clock, 2, 6),
        ),
        (
            "Pipe II=1".to_string(),
            SchedulerConfig::pipelined(clock, 1, 6),
        ),
    ];
    let mut rows = Vec::new();
    for (name, config) in configs {
        if let Some((schedule, dp)) = schedule_and_estimate(&body, &lib, config) {
            rows.push(Table3Row {
                name,
                cycles_per_iteration: schedule.cycles_per_iteration(),
                area: dp.total_area(),
                multipliers: schedule
                    .desc
                    .resources
                    .count_of_class(&ResourceClass::Multiplier),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// Result of the Table 4 ablation.
#[derive(Clone, Debug)]
pub struct Table4Result {
    /// Per-design percentage area penalty when the SCC-move action is
    /// disabled (the seven most timing-critical designs).
    pub penalties_percent: Vec<f64>,
    /// Average penalty.
    pub average_percent: f64,
}

/// Table 4: impact of the timing-driven SCC placement. Pipelines a set of
/// recurrence-heavy synthetic designs with and without the `MoveScc`
/// relaxation action and reports the area penalty of disabling it on the
/// seven most timing-critical designs (smallest baseline slack).
pub fn table4_scc_move_ablation(num_designs: usize, ops_per_design: usize) -> Table4Result {
    let lib = TechLibrary::artisan_90nm_typical();
    let clock = ClockConstraint::from_period_ps(1500.0);
    let mut measured: Vec<(f64, f64)> = Vec::new(); // (baseline slack, penalty %)
    for i in 0..num_designs.max(1) {
        let class = DesignClass::all()[i % 3];
        let body = synthetic_design(class, ops_per_design, 1000 + i as u64);
        let with_move = SchedulerConfig::pipelined(clock, 2, 24);
        let without_move = SchedulerConfig::pipelined(clock, 2, 24).without_scc_move();
        let Some((sched_with, dp_with)) = schedule_and_estimate(&body, &lib, with_move) else {
            continue;
        };
        let Some((_, dp_without)) = schedule_and_estimate(&body, &lib, without_move) else {
            continue;
        };
        let penalty =
            (dp_without.total_area() - dp_with.total_area()) / dp_with.total_area() * 100.0;
        measured.push((sched_with.min_slack_ps, penalty.max(0.0)));
    }
    // the paper examines the most timing-critical designs
    measured.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let penalties: Vec<f64> = measured.iter().take(7).map(|(_, p)| *p).collect();
    let average = if penalties.is_empty() {
        0.0
    } else {
        penalties.iter().sum::<f64>() / penalties.len() as f64
    };
    Table4Result {
        penalties_percent: penalties,
        average_percent: average,
    }
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// One point of Figure 9.
#[derive(Clone, Debug)]
pub struct Figure9Point {
    /// Number of DFG operations in the design.
    pub ops: usize,
    /// Scheduling (plus estimation) wall-clock time in seconds.
    pub seconds: f64,
    /// Achieved latency.
    pub latency: u32,
    /// Scheduling passes executed by the run that produced the point.
    pub passes: u32,
    /// Design class.
    pub class: String,
    /// Bound functional units (binder statistic; binding runs outside the
    /// timed scheduling window).
    pub fus: usize,
    /// Bound datapath registers.
    pub regs: usize,
    /// Total data inputs over the binding's physical operand muxes.
    pub mux_inputs: usize,
}

/// Region size target for large Figure 9 points.
const FIGURE9_REGION_TARGET: usize = 600;

/// Schedules one Figure 9 point (class, clock, and micro-architecture keyed
/// off the point index, as the sweep has always done). The designs that
/// [`synthetic_design`] splits into independent kernels schedule with
/// region decomposition and a larger pass budget: the DFG is condensed
/// into independently scheduled regions and only dirty regions re-pass
/// during relaxation (see `hls_sched::region`). Single-kernel designs run
/// the exact historical configuration.
fn figure9_point(i: usize, target: usize, lib: &TechLibrary) -> Option<Figure9Point> {
    let class = DesignClass::all()[i % 3];
    let body = synthetic_design(class, target, 42 + i as u64);
    let regions = target > MULTI_KERNEL_THRESHOLD;
    let start = Instant::now();
    let result = if regions {
        // Multi-kernel points: one sequential region-decomposed
        // configuration for every size. The relaxed clock keeps the deep
        // 32-bit multiply chains of the synthetic kernels feasible, and the
        // wide latency window covers the deepest kernel the generator
        // produces; the relaxer's batched resource additions converge in a
        // bounded number of passes regardless of the op count.
        let clock = ClockConstraint::from_period_ps(2200.0);
        let mut config = SchedulerConfig::sequential(clock, 48, 192)
            .with_region_decomposition(FIGURE9_REGION_TARGET);
        config.max_passes = 4096;
        Scheduler::new(&body, lib, config).run()
    } else {
        let clock = ClockConstraint::from_period_ps(if i % 2 == 0 { 1600.0 } else { 2200.0 });
        let mut config = if i % 2 == 0 {
            SchedulerConfig::sequential(clock, 1, 24)
        } else {
            SchedulerConfig::pipelined(clock, 2, 24)
        };
        config.max_passes = 256;
        Scheduler::new(&body, lib, config).run().or_else(|_| {
            // Fall back to a sequential schedule (mirroring what a designer
            // would do when a pipelining request proves over-constrained);
            // the point still contributes a (size, time) sample.
            let mut fallback = SchedulerConfig::sequential(clock, 1, 48);
            fallback.max_passes = 256;
            Scheduler::new(&body, lib, fallback).run()
        })
    };
    let seconds = start.elapsed().as_secs_f64();
    result.ok().map(|schedule| {
        let stats = bind_stats(&body, &schedule);
        Figure9Point {
            ops: body.dfg.num_ops(),
            seconds,
            latency: schedule.latency,
            passes: schedule.passes,
            class: format!("{class:?}"),
            fus: stats.fu_count,
            regs: stats.register_count,
            mux_inputs: stats.mux_inputs,
        }
    })
}

/// The default Figure 9 sweep: 12 designs spanning the 100..2000 op range
/// (a scaled-down version of the paper's 40-design population; sizes grow
/// roughly geometrically).
pub fn figure9_default_sizes() -> Vec<usize> {
    vec![
        100, 150, 220, 320, 450, 600, 800, 1000, 1250, 1500, 1750, 2000,
    ]
}

/// The large region-decomposed sizes: multi-kernel designs an order of
/// magnitude (and more) past the paper's biggest, schedulable in seconds
/// thanks to per-region scheduling with incremental re-passes.
pub fn figure9_large_sizes() -> Vec<usize> {
    vec![10_000, 30_000, 100_000]
}

/// A measured Figure 9 sweep: the points plus the end-to-end wall-clock.
#[derive(Clone, Debug)]
pub struct Figure9Sweep {
    /// One point per successfully scheduled size.
    pub points: Vec<Figure9Point>,
    /// End-to-end wall-clock of the whole sweep, seconds.
    pub total_seconds: f64,
    /// Number of sizes requested (points may be fewer: unschedulable sizes
    /// contribute time but no point).
    pub requested: usize,
}

impl Figure9Sweep {
    /// Renders the paper-style table plus the end-to-end total, as the
    /// `figure9_perf` example prints it.
    pub fn table(&self) -> String {
        let mut out = String::from("FIGURE 9 — scheduling time vs design size:\n");
        out.push_str(&format!(
            "  {:>6} {:>10} {:>8} {:>7} {:>12} {:>6} {:>6} {:>8}\n",
            "ops", "seconds", "latency", "passes", "class", "fus", "regs", "mux_in"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "  {:>6} {:>10.3} {:>8} {:>7} {:>12} {:>6} {:>6} {:>8}\n",
                p.ops, p.seconds, p.latency, p.passes, p.class, p.fus, p.regs, p.mux_inputs
            ));
        }
        out.push_str(&format!(
            "total: {:.3}s end-to-end ({} of {} sizes scheduled)\n",
            self.total_seconds,
            self.points.len(),
            self.requested
        ));
        out
    }

    /// Serializes the sweep as the machine-readable perf-trajectory record
    /// `BENCH_sched.json`: one `{ops, seconds, latency, passes, class, fus,
    /// regs, mux_inputs}` object per line, plus the end-to-end wall-clock
    /// of the whole sweep. The binder statistics record the counted hardware
    /// each point's schedule costs, so the trajectory tracks area proxies
    /// next to time.
    pub fn to_json(&self) -> String {
        let mut out =
            String::from("{\n  \"bench\": \"figure9_scheduling_time\",\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"ops\": {}, \"seconds\": {:.6}, \"latency\": {}, \"passes\": {}, \"class\": \"{}\", \"fus\": {}, \"regs\": {}, \"mux_inputs\": {}}}{}\n",
                p.ops,
                p.seconds,
                p.latency,
                p.passes,
                p.class,
                p.fus,
                p.regs,
                p.mux_inputs,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total_seconds\": {:.6}\n}}\n",
            self.total_seconds
        ));
        out
    }

    /// Writes [`Self::to_json`] to `path` (the repo root's
    /// `BENCH_sched.json` by convention).
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Figure 9: scheduling time vs design size over a population of synthetic
/// "industrial" designs. Runs the points of `sizes` and measures the
/// end-to-end wall-clock of the whole sweep, the headline perf-trajectory
/// number.
///
/// The designs are independent, so they are scheduled across
/// [`crate::parallel::map_indexed`] workers; results come back in size
/// order and are identical to a sequential run (set `HLS_EXPLORE_THREADS=1`
/// for single-threaded per-point timings). With a `budget`, once it is spent,
/// points that have not started yet are skipped instead of scheduled (the
/// first point always runs, so a sweep returns at least one sample).
/// Skipped sizes count toward `requested` but contribute no point.
pub fn figure9_sweep_with_budget(
    sizes: &[usize],
    budget: Option<std::time::Duration>,
) -> Figure9Sweep {
    let lib = TechLibrary::artisan_90nm_typical();
    let start = Instant::now();
    let points = crate::parallel::map_indexed(sizes, |i, &target| {
        if i > 0 && budget.is_some_and(|b| start.elapsed() >= b) {
            return None;
        }
        figure9_point(i, target, &lib)
    });
    Figure9Sweep {
        points: points.into_iter().flatten().collect(),
        total_seconds: start.elapsed().as_secs_f64(),
        requested: sizes.len(),
    }
}

// ---------------------------------------------------------------------------
// Figures 10 and 11
// ---------------------------------------------------------------------------

/// The IDCT micro-architecture sweep shared by Figures 10 and 11: latencies
/// 8/16/32 cycles, pipelined (II = latency/2) and non-pipelined, over a range
/// of clock periods. Returns one exploration point per successful run.
pub fn idct_exploration(clock_periods_ps: &[f64]) -> Vec<ExplorationPoint> {
    idct_exploration_with(clock_periods_ps, None)
        .expect("exploration without verification cannot fail")
}

/// [`idct_exploration`] with an optional differential-verification hook:
/// when `verify` is given, **every** emitted point's schedule is lowered to
/// its per-op netlist and executed cycle by cycle against the reference
/// interpreter on random input vectors, and the sweep fails on the first
/// disagreement — so a Pareto front built from the result contains only
/// demonstrably working designs.
///
/// # Errors
/// Propagates the first [`hls_sim::SimError`] when verification is enabled.
pub fn idct_exploration_with(
    clock_periods_ps: &[f64],
    verify: Option<&crate::verify::VerifyOptions>,
) -> Result<Vec<ExplorationPoint>, hls_sim::SimError> {
    let lib = TechLibrary::artisan_90nm_typical();
    let body = idct8_design();
    // Every (latency, pipelining, clock) micro-architecture candidate is an
    // independent schedule-estimate-verify problem: fan them out across
    // workers and collect in sweep order, propagating the first error in
    // that (deterministic) order.
    let mut combos: Vec<(u32, bool, f64)> = Vec::new();
    for &latency in &[8u32, 16, 32] {
        for &pipelined in &[false, true] {
            for &period in clock_periods_ps {
                combos.push((latency, pipelined, period));
            }
        }
    }
    type PointResult = Result<Option<ExplorationPoint>, hls_sim::SimError>;
    let results =
        crate::parallel::map_indexed(&combos, |_, &(latency, pipelined, period)| -> PointResult {
            let clock = ClockConstraint::from_period_ps(period);
            let (family, config) = if pipelined {
                (
                    format!("Pipelined {latency}"),
                    SchedulerConfig::pipelined(clock, (latency / 2).max(1), latency),
                )
            } else {
                (
                    format!("Non-Pipelined {latency}"),
                    SchedulerConfig::sequential(clock, 1, latency),
                )
            };
            let Some((schedule, dp)) = schedule_and_estimate(&body, &lib, config) else {
                return Ok(None);
            };
            if let Some(options) = verify {
                crate::verify::verify_schedule(&body, &schedule.desc, options)?;
            }
            let stats = bind_stats(&body, &schedule);
            let ii = schedule.cycles_per_iteration();
            Ok(Some(ExplorationPoint {
                label: format!("{family} @ {:.1} ns", period / 1000.0),
                family,
                delay_ns: f64::from(ii) * period / 1000.0,
                area: dp.total_area(),
                power_uw: dp.total_power_uw(),
                clock_ps: period,
                latency_cycles: schedule.latency,
                ii_cycles: ii,
                fu_count: stats.fu_count,
                register_count: stats.register_count,
                mux_inputs: stats.mux_inputs,
            }))
        });
    let mut points = Vec::new();
    for r in results {
        if let Some(p) = r? {
            points.push(p);
        }
    }
    Ok(points)
}

/// Figures 10 and 11: the IDCT micro-architectures over six clock periods,
/// read for area vs delay (Figure 10) and power vs delay (Figure 11).
pub fn figure10_idct_area_delay() -> Vec<ExplorationPoint> {
    idct_exploration(&[1000.0, 1300.0, 1600.0, 2100.0, 2600.0, 3200.0])
}

/// Renders exploration points as a CSV-like text block (one row per point).
pub fn render_points(points: &[ExplorationPoint]) -> String {
    let mut out = String::from("family,label,delay_ns,area,power_uw,clock_ps,latency,ii\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.2},{:.0},{:.1},{:.0},{},{}\n",
            p.family,
            p.label,
            p.delay_ns,
            p.area,
            p.power_uw,
            p.clock_ps,
            p.latency_cycles,
            p.ii_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front;

    #[test]
    fn table1_matches_paper_delays() {
        let rows = table1_library();
        let get = |n: &str| rows.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("mul").round() as i64, 930);
        assert_eq!(get("add").round() as i64, 350);
        assert_eq!(get("gt").round() as i64, 220);
        assert_eq!(get("neq").round() as i64, 60);
    }

    #[test]
    fn table2_reproduces_three_state_schedule() {
        let t2 = table2_example1_schedule();
        assert_eq!(t2.latency, 3);
        assert_eq!(t2.multipliers, 1);
        // one multiplication per state, in order
        let states: Vec<u32> = t2.mul_states.iter().map(|(_, s)| *s).collect();
        assert_eq!(states, vec![1, 2, 3]);
        assert!(t2.table.contains("mul1_op"));
    }

    #[test]
    fn table3_area_grows_with_throughput() {
        let rows = table3_microarchitectures();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].cycles_per_iteration, 3);
        assert_eq!(rows[1].cycles_per_iteration, 2);
        assert_eq!(rows[2].cycles_per_iteration, 1);
        assert!(rows[0].area < rows[1].area, "{rows:?}");
        assert!(rows[1].area < rows[2].area, "{rows:?}");
        assert_eq!(rows[0].multipliers, 1);
        assert_eq!(rows[1].multipliers, 2);
        assert_eq!(rows[2].multipliers, 3);
    }

    #[test]
    fn figure9_produces_points_without_size_time_blowup() {
        let points = figure9_sweep_with_budget(&[120, 240, 400], None).points;
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(
                p.seconds < 60.0,
                "scheduling {} ops took {}s",
                p.ops,
                p.seconds
            );
        }
    }

    #[test]
    fn figure9_budget_skips_later_points() {
        let sweep = figure9_sweep_with_budget(&[120, 240, 400], Some(std::time::Duration::ZERO));
        assert_eq!(sweep.requested, 3);
        assert_eq!(
            sweep.points.len(),
            1,
            "only the first point runs on a zero budget"
        );
        assert!(sweep.points[0].ops >= 100);
    }

    #[test]
    fn bench_sched_json_has_one_point_per_line() {
        let points = vec![
            Figure9Point {
                ops: 102,
                seconds: 0.003_117_4,
                latency: 22,
                passes: 22,
                class: "Filter".into(),
                fus: 6,
                regs: 30,
                mux_inputs: 176,
            },
            Figure9Point {
                ops: 152,
                seconds: 0.001_745_49,
                latency: 7,
                passes: 5,
                class: "Fft".into(),
                fus: 73,
                regs: 63,
                mux_inputs: 286,
            },
        ];
        let expected = r#"{
  "bench": "figure9_scheduling_time",
  "points": [
    {"ops": 102, "seconds": 0.003117, "latency": 22, "passes": 22, "class": "Filter", "fus": 6, "regs": 30, "mux_inputs": 176},
    {"ops": 152, "seconds": 0.001745, "latency": 7, "passes": 5, "class": "Fft", "fus": 73, "regs": 63, "mux_inputs": 286}
  ],
  "total_seconds": 64.763998
}
"#;
        let sweep = Figure9Sweep {
            points,
            total_seconds: 64.763_998_1,
            requested: 2,
        };
        assert_eq!(sweep.to_json(), expected);
    }

    #[test]
    fn figure9_region_path_schedules_a_multi_kernel_point() {
        let points = figure9_sweep_with_budget(&[2600], None).points;
        assert_eq!(points.len(), 1, "the region-decomposed point schedules");
        assert!(points[0].ops >= 2000, "{:?}", points[0]);
    }

    #[test]
    fn idct_exploration_pipelining_extends_the_pareto_front() {
        let points = idct_exploration(&[1600.0, 2600.0]);
        assert!(
            points.len() >= 8,
            "expected a populated sweep, got {}",
            points.len()
        );
        let front = pareto_front(&points);
        assert!(
            front.iter().any(|p| p.family.starts_with("Pipelined")),
            "at least one Pareto point must be pipelined: {front:?}"
        );
        // delay of a pipelined point equals II × clock
        for p in &points {
            assert!((p.delay_ns - f64::from(p.ii_cycles) * p.clock_ps / 1000.0).abs() < 1e-6);
        }
        let csv = render_points(&points);
        assert!(csv.lines().count() == points.len() + 1);
    }

    #[test]
    fn exploration_points_carry_binding_statistics() {
        let points = idct_exploration(&[2600.0]);
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.fu_count > 0, "{p:?}");
            assert!(p.register_count > 0, "{p:?}");
        }
        // tighter initiation intervals buy throughput with more functional
        // units: the fastest point must not be the cheapest one
        let fastest = points
            .iter()
            .min_by(|a, b| a.delay_ns.partial_cmp(&b.delay_ns).unwrap())
            .unwrap();
        let slowest = points
            .iter()
            .max_by(|a, b| a.delay_ns.partial_cmp(&b.delay_ns).unwrap())
            .unwrap();
        assert!(
            fastest.fu_count >= slowest.fu_count,
            "fastest {fastest:?} vs slowest {slowest:?}"
        );
    }

    #[test]
    fn verified_exploration_accepts_every_emitted_point() {
        let verify = crate::verify::VerifyOptions {
            vectors: 20,
            seed: 3,
        };
        let points = idct_exploration_with(&[2600.0], Some(&verify)).expect("all points bit-exact");
        assert!(!points.is_empty());
    }

    #[test]
    fn table4_reports_nonnegative_penalties() {
        let t4 = table4_scc_move_ablation(4, 160);
        assert!(!t4.penalties_percent.is_empty());
        assert!(t4.penalties_percent.iter().all(|p| *p >= 0.0));
        assert!(t4.average_percent >= 0.0);
    }
}
