//! Design-space exploration of the IDCT (Figures 10 and 11): pipelined and
//! non-pipelined micro-architectures over six clock periods, with delay,
//! area and power per point, the Pareto front and the power range.
use hls::explore::experiments::render_points;
use hls::explore::{figure10_idct_area_delay, pareto_front};
use std::fmt::Write;

/// The text this example prints.
pub fn render() -> String {
    let mut out = String::new();
    let points = figure10_idct_area_delay();
    writeln!(out, "{}", render_points(&points)).unwrap();
    writeln!(out, "Pareto-optimal implementations (delay vs area):").unwrap();
    for p in pareto_front(&points) {
        writeln!(
            out,
            "  {:26} delay {:7.1} ns  area {:9.0}  power {:8.1} uW",
            p.label, p.delay_ns, p.area, p.power_uw
        )
        .unwrap();
    }
    let (min, max) = points
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(min, max), p| {
            (min.min(p.power_uw), max.max(p.power_uw))
        });
    writeln!(out, "Power range explored: {:.1}x", max / min.max(1e-9)).unwrap();
    out
}

fn main() {
    print!("{}", render());
}
