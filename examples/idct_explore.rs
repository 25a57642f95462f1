//! Design-space exploration of the IDCT (Figures 10 and 11): pipelined and
//! non-pipelined micro-architectures over six clock periods, with delay,
//! area and power per point, the Pareto front and the power range.
use hls::explore::experiments::render_points;
use hls::explore::{figure10_idct_area_delay, pareto_front};

fn main() {
    let points = figure10_idct_area_delay();
    println!("{}", render_points(&points));
    println!("Pareto-optimal implementations (delay vs area):");
    for p in pareto_front(&points) {
        println!(
            "  {:26} delay {:7.1} ns  area {:9.0}  power {:8.1} uW",
            p.label, p.delay_ns, p.area, p.power_uw
        );
    }
    let (min, max) = points
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(min, max), p| {
            (min.min(p.power_uw), max.max(p.power_uw))
        });
    println!("Power range explored: {:.1}x", max / min.max(1e-9));
}
