//! The examples' stdout, pinned. Each example renders its text in one
//! function, which this target includes by `#[path]`, so the example and
//! the test run the same code: Tables 1–4, the scheduling ablation and
//! Figures 10 and 11 (`paper_example`, `idct_explore`), the quickstart's
//! schedules, the FIR's II sweep and the simulation walk-through. The
//! goldens live under `tests/golden/examples/`; run with `UPDATE_GOLDEN=1`
//! to bless an intentional change after reviewing the diff.

mod common;

use common::compare_or_bless;

#[allow(dead_code)] // `main` only prints
#[path = "../examples/fir_pipeline.rs"]
mod fir_pipeline;
#[allow(dead_code)]
#[path = "../examples/idct_explore.rs"]
mod idct_explore;
#[allow(dead_code)]
#[path = "../examples/paper_example.rs"]
mod paper_example;
#[allow(dead_code)]
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[allow(dead_code)]
#[path = "../examples/simulate.rs"]
mod simulate;

#[test]
fn paper_example_prints_tables_1_to_4_and_the_ablation() {
    let text = paper_example::render().expect("paper_example runs");
    compare_or_bless("examples/paper_example.txt", &text);
}

#[test]
fn idct_explore_prints_figures_10_and_11() {
    compare_or_bless("examples/idct_explore.txt", &idct_explore::render());
}

#[test]
fn quickstart_prints_both_schedules() {
    let text = quickstart::render().expect("quickstart runs");
    compare_or_bless("examples/quickstart.txt", &text);
}

#[test]
fn fir_pipeline_prints_the_ii_sweep() {
    let text = fir_pipeline::render().expect("fir_pipeline runs");
    compare_or_bless("examples/fir_pipeline.txt", &text);
}

#[test]
fn simulate_prints_the_verified_runs() {
    let text = simulate::render().expect("simulate runs");
    compare_or_bless("examples/simulate.txt", &text);
}
