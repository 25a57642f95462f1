//! Reproduces the paper's running example end to end: Table 1 (library),
//! Table 2 (sequential schedule), Table 3 (micro-architecture comparison),
//! the Example 2/3 pipelined schedules, Table 4 (SCC-move ablation) and the
//! ablation of Example 1 against the separated flow and modulo scheduling.
use hls::explore::{
    table1_library, table2_example1_schedule, table3_microarchitectures, table4_scc_move_ablation,
};
use hls::opt::linearize::prepare_innermost_loop;
use hls::pipeline::modulo_schedule;
use hls::sched::{schedule_separated, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{designs, Synthesizer};
use std::error::Error;
use std::fmt::Write;

/// The text this example prints.
pub fn render() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    writeln!(out, "TABLE 1 — resource delays (ps)")?;
    for (name, delay) in table1_library() {
        writeln!(out, "  {name:6} {delay:6.0}")?;
    }

    let t2 = table2_example1_schedule();
    writeln!(
        out,
        "\nTABLE 2 — sequential schedule (latency {}, {} passes)\n{}",
        t2.latency, t2.passes, t2.table
    )?;

    writeln!(out, "TABLE 3 — micro-architecture comparison")?;
    for row in table3_microarchitectures() {
        writeln!(
            out,
            "  {:12} {:>2} cycles/iteration  area {:>9.0}  ({} multipliers)",
            row.name, row.cycles_per_iteration, row.area, row.multipliers
        )?;
    }

    writeln!(out, "\nExample 2 — pipelined, II = 2")?;
    let p2 = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(2)
        .run()?;
    writeln!(out, "{}", p2.schedule_table())?;
    writeln!(out, "Example 3 — pipelined, II = 1")?;
    let p1 = Synthesizer::new(designs::paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(1)
        .run()?;
    writeln!(out, "{}", p1.schedule_table())?;

    let t4 = table4_scc_move_ablation(10, 180);
    writeln!(
        out,
        "TABLE 4 — % area penalty with SCC-move disabled (7 most critical designs)"
    )?;
    for (i, penalty) in t4.penalties_percent.iter().enumerate() {
        writeln!(out, "  D{} {penalty:6.1}%", i + 1)?;
    }
    writeln!(out, "  avg {:6.1}%", t4.average_percent)?;

    writeln!(
        out,
        "\nABLATION — unified vs separated scheduling/binding (Example 1)"
    )?;
    let mut cdfg = designs::paper_example1_cdfg()?;
    let body = prepare_innermost_loop(&mut cdfg)?;
    let lib = TechLibrary::artisan_90nm_typical();
    let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 3);
    let unified = Scheduler::new(&body, &lib, config.clone()).run()?;
    let separated = schedule_separated(&body, &lib, config)?;
    for (flow, schedule) in [("unified", &unified), ("separated", &separated)] {
        writeln!(
            out,
            "  {flow:9} : latency {}  worst slack {:+.0} ps",
            schedule.latency, schedule.min_slack_ps
        )?;
    }
    let modulo = modulo_schedule(&body, &lib, 1600.0, 2, 8, |_| 2)
        .ok_or("the modulo-scheduling baseline finds no II in 2..=8")?;
    writeln!(
        out,
        "  modulo-scheduling baseline: II {}  latency {}",
        modulo.ii,
        modulo.latency()
    )?;
    Ok(out)
}

fn main() -> Result<(), Box<dyn Error>> {
    print!("{}", render()?);
    Ok(())
}
