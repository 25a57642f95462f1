//! Quickstart: describe a small behaviour, synthesize it sequentially and
//! pipelined, and compare the two implementations.
use hls::frontend::{BehaviorBuilder, Expr};
use hls::ir::CmpKind;
use hls::Synthesizer;
use std::error::Error;
use std::fmt::Write;

/// The text this example prints.
pub fn render() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    // y = (a*b + c) per iteration — a tiny multiply-accumulate kernel.
    let mut b = BehaviorBuilder::new("mac");
    b.port_in("a", 16);
    b.port_in("b", 16);
    b.port_in("c", 16);
    b.port_out("y", 32);
    let acc = b.var("acc", 32, 0);
    let body = vec![
        b.assign(
            acc,
            Expr::add(
                Expr::mul(b.read_port("a"), b.read_port("b")),
                b.read_port("c"),
            ),
        ),
        b.write_port("y", b.read_var(acc)),
        b.wait(),
    ];
    let loop_stmt = b.do_while(
        "mac_loop",
        body,
        Expr::cmp(CmpKind::Ne, b.read_port("a"), Expr::Const(0)),
    );
    b.infinite_loop(vec![loop_stmt]);
    let behavior = b.build();

    writeln!(out, "== sequential ==")?;
    let seq = Synthesizer::new(behavior.clone())
        .clock_ps(1600.0)
        .latency_bounds(1, 4)
        .run()?;
    writeln!(out, "{}", seq.schedule_table())?;
    writeln!(
        out,
        "latency {} cycles, area {:.0}, power {:.1} uW",
        seq.schedule.latency, seq.area, seq.power_uw
    )?;

    writeln!(out, "\n== pipelined, II = 1 ==")?;
    let pipe = Synthesizer::new(behavior)
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(1)
        .run()?;
    writeln!(out, "{}", pipe.schedule_table())?;
    let folded = pipe.pipeline.as_ref().expect("pipelined");
    writeln!(
        out,
        "II {} / LI {} ({} stages), area {:.0}, power {:.1} uW",
        folded.ii, folded.li, folded.stages, pipe.area, pipe.power_uw
    )?;
    writeln!(
        out,
        "\nThroughput gain: {:.1}x",
        seq.schedule.cycles_per_iteration() as f64 / folded.ii as f64
    )?;
    Ok(out)
}

fn main() -> Result<(), Box<dyn Error>> {
    print!("{}", render()?);
    Ok(())
}
