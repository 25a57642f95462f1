//! Executes synthesized designs: reference interpretation, cycle-accurate
//! netlist simulation, and differential verification of the paper's
//! Example 1 micro-architectures plus a pipelined FIR running at full
//! throughput.
use hls::designs::{fir_filter, paper_example1};
use hls::ir::PortDirection;
use hls::sim::{differential, NirSim, Stimulus};
use hls::Synthesizer;
use std::error::Error;
use std::fmt::Write;

/// The text this example prints.
pub fn render() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    // --- Example 1, sequential and pipelined, differentially verified -----
    writeln!(out, "== paper example 1: differential verification ==")?;
    for (label, ii) in [("sequential", None), ("pipelined II=2", Some(2))] {
        let mut synth = Synthesizer::new(paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 6)
            .verify(100);
        if let Some(ii) = ii {
            synth = synth.pipeline(ii);
        }
        let result = synth.run()?;
        let report = result.verification.expect("verification requested");
        writeln!(
            out,
            "  {label:<15} latency {} / {} cycles per iteration — \
             interpreter and netlist simulation agree on {} writes over {} random vectors",
            result.schedule.latency,
            result.schedule.cycles_per_iteration(),
            report.writes_checked,
            report.iterations,
        )?;
    }

    // --- a per-cycle look at the pipelined schedule -----------------------
    let result = Synthesizer::new(paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(2)
        .run()?;
    let body = &result.body;
    let desc = &result.schedule.desc;
    let folded = result.pipeline.as_ref().expect("pipelined");
    writeln!(
        out,
        "\n== pipelined Example 1, first 8 cycles (fill + steady state) =="
    )?;
    writeln!(out, "cycle | state | active (it.stage) | fired")?;
    for cycle in 0..8u64 {
        let mut active = Vec::new();
        let mut fired = Vec::new();
        for (k, stage) in folded.active_iterations(cycle) {
            active.push(format!("it{k}.s{stage}"));
            let state = (cycle - k * u64::from(folded.ii)) as u32;
            for op in desc.ops_in_state(state) {
                let op = body.dfg.op(op);
                if !op.kind.is_free() {
                    fired.push(format!("{}@it{k}", op.display_name()));
                }
            }
        }
        writeln!(
            out,
            "{cycle:>5} | s{:<4} | {:<17} | {}",
            cycle % u64::from(desc.fold_states()) + 1,
            active.join(" "),
            fired.join(" ")
        )?;
    }

    // the emitted netlist, simulated cycle by cycle
    let stim = Stimulus::random(&body.dfg, 6, 42);
    let trace = NirSim::new(&result.netlist)?.run(&stim)?;

    let pixel = body
        .dfg
        .iter_ports()
        .find(|(_, p)| p.direction == PortDirection::Output)
        .map(|(id, _)| id)
        .expect("output port");
    writeln!(
        out,
        "pixel written at cycles {:?} — every II=2 cycles once filled",
        trace.write_cycles(pixel)
    )?;

    // --- FIR at II=1: one result per clock, bit-exact ---------------------
    writeln!(out, "\n== 8-tap FIR pipelined at II=1 ==")?;
    let taps = [3, -5, 7, 11, 11, 7, -5, 3];
    let fir = Synthesizer::new(fir_filter(&taps, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 16)
        .pipeline(1)
        .run()?;
    let folded = fir.pipeline.as_ref().expect("pipelined");
    let stim = Stimulus::random(&fir.body.dfg, 100, 7);
    let report = differential::check(&fir.body, &fir.schedule.desc, &stim)?;
    let trace = NirSim::new(&fir.netlist)?.run(&stim)?;
    let y = fir
        .body
        .dfg
        .iter_ports()
        .find(|(_, p)| p.direction == PortDirection::Output)
        .map(|(id, _)| id)
        .expect("output port");
    let intervals = trace.write_intervals(y);
    writeln!(
        out,
        "  LI {} / II {} ({} stages), {} verified writes, steady-state interval {} cycle(s) → throughput {:.0}%",
        folded.li,
        folded.ii,
        folded.stages,
        report.writes_checked,
        intervals.last().copied().unwrap_or(0),
        100.0 * folded.throughput(),
    )?;
    writeln!(
        out,
        "  pipeline occupancy at cycle 12: {:?} (iteration, stage)",
        folded.active_iterations(12)
    )?;
    Ok(out)
}

fn main() -> Result<(), Box<dyn Error>> {
    print!("{}", render()?);
    Ok(())
}
