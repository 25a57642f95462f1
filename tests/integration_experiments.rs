//! Smoke tests of the experiment drivers (reduced sizes) — the full versions
//! run in the `paper_example`, `idct_explore` and `figure9_perf` examples.
use hls::explore::experiments::{
    figure9_sweep_with_budget, idct_exploration, table4_scc_move_ablation,
};
use hls::explore::{pareto_front, table1_library, table2_example1_schedule};

#[test]
fn table1_has_all_eight_rows() {
    let rows = table1_library();
    assert_eq!(rows.len(), 8);
    assert!(rows.iter().all(|(_, d)| *d >= 0.0));
}

#[test]
fn table2_schedule_is_three_states() {
    assert_eq!(table2_example1_schedule().latency, 3);
}

#[test]
fn figure9_smoke() {
    let pts = figure9_sweep_with_budget(&[120, 260], None).points;
    assert_eq!(pts.len(), 2);
    assert!(pts.iter().all(|p| p.seconds < 120.0));
}

#[test]
fn figure10_smoke_pipelining_reaches_lowest_delay() {
    let points = idct_exploration(&[1600.0]);
    let best_delay = points
        .iter()
        .map(|p| p.delay_ns)
        .fold(f64::INFINITY, f64::min);
    let best_is_pipelined = points
        .iter()
        .filter(|p| (p.delay_ns - best_delay).abs() < 1e-9)
        .any(|p| p.family.starts_with("Pipelined"));
    assert!(
        best_is_pipelined,
        "the fastest implementation should be pipelined"
    );
    assert!(!pareto_front(&points).is_empty());
}

#[test]
fn table4_smoke() {
    let t4 = table4_scc_move_ablation(3, 140);
    assert!(t4.average_percent >= 0.0);
}
