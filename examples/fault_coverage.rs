//! Runs the fault-injection campaign over the repository's stock designs
//! and writes one coverage JSON report per design.
//!
//! CI runs this and uploads the reports as artifacts; locally:
//!
//! ```text
//! cargo run --release --example fault_coverage [out_dir]
//! ```
//!
//! Each kill matrix is followed by the sweep's wall time and mutants per
//! second, so the job log records how fast the checker stack runs. Exits
//! non-zero if any design fails to synthesize or any mutant escapes the
//! checker stack without a documented justification.
use hls::designs::{fir_filter, moving_average, paper_example1};
use hls::explore::idct8_design;
use hls::fault::{run_sweep, FaultConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{SynthesisResult, Synthesizer};

fn report(
    name: &str,
    clock_ps: f64,
    result: Result<SynthesisResult, hls::SynthesisError>,
    out_dir: &std::path::Path,
) -> Result<bool, Box<dyn std::error::Error>> {
    let result = result.map_err(|e| format!("{name}: {e}"))?;
    let lib = TechLibrary::artisan_90nm_typical();
    let started = std::time::Instant::now();
    let sweep = run_sweep(
        &result.body,
        &result.netlist,
        &lib,
        ClockConstraint::from_period_ps(clock_ps),
        &FaultConfig::default(),
    );
    let seconds = started.elapsed().as_secs_f64();
    print!("{}", sweep.kill_matrix());
    println!(
        "  sweep wall time {seconds:.3} s, {:.0} mutants/s",
        sweep.mutants() as f64 / seconds
    );
    std::fs::write(out_dir.join(format!("{name}.json")), sweep.to_json())?;
    Ok(sweep.is_covered())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/fault-coverage".into()),
    );
    std::fs::create_dir_all(&out_dir)?;

    let mut covered = true;
    covered &= report(
        "example1_sequential",
        1600.0,
        Synthesizer::new(paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 3)
            .run(),
        &out_dir,
    )?;
    covered &= report(
        "example1_ii2",
        1600.0,
        Synthesizer::new(paper_example1())
            .clock_ps(1600.0)
            .latency_bounds(1, 6)
            .pipeline(2)
            .run(),
        &out_dir,
    )?;
    covered &= report(
        "moving_average_ii1",
        1600.0,
        Synthesizer::new(moving_average(2, 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 8)
            .pipeline(1)
            .run(),
        &out_dir,
    )?;
    covered &= report(
        "fir8_sequential",
        1600.0,
        Synthesizer::new(fir_filter(&[3, -5, 7, 11, 11, 7, -5, 3], 16))
            .clock_ps(1600.0)
            .latency_bounds(1, 16)
            .run(),
        &out_dir,
    )?;
    covered &= report(
        "idct8_sequential",
        2000.0,
        Synthesizer::from_body(idct8_design())
            .clock_ps(2000.0)
            .latency_bounds(1, 16)
            .run(),
        &out_dir,
    )?;
    println!("reports written to {}", out_dir.display());
    if !covered {
        return Err("undocumented escapes — see the kill matrices above".into());
    }
    Ok(())
}
