//! Pipelines an 8-tap FIR filter at several initiation intervals and shows
//! the throughput / area trade-off — the bread-and-butter use case the
//! paper's industrial designs (filters, FFTs) represent.
use hls::designs::fir_filter;
use hls::Synthesizer;
use std::error::Error;
use std::fmt::Write;

/// The text this example prints.
pub fn render() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    let taps = [3, -5, 7, 11, 11, 7, -5, 3];
    writeln!(out, "8-tap FIR, 1600 ps clock")?;
    writeln!(
        out,
        "  {:>4} {:>8} {:>8} {:>10} {:>10}",
        "II", "LI", "stages", "area", "power_uW"
    )?;
    for ii in [4u32, 2, 1] {
        let result = Synthesizer::new(fir_filter(&taps, 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 16)
            .pipeline(ii)
            .run()?;
        let folded = result.pipeline.as_ref().expect("pipelined");
        writeln!(
            out,
            "  {:>4} {:>8} {:>8} {:>10.0} {:>10.1}",
            folded.ii, folded.li, folded.stages, result.area, result.power_uw
        )?;
    }
    let seq = Synthesizer::new(fir_filter(&taps, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 16)
        .run()?;
    writeln!(
        out,
        "  {:>4} {:>8} {:>8} {:>10.0} {:>10.1}   (sequential)",
        "-", seq.schedule.latency, 1, seq.area, seq.power_uw
    )?;
    Ok(out)
}

fn main() -> Result<(), Box<dyn Error>> {
    print!("{}", render()?);
    Ok(())
}
