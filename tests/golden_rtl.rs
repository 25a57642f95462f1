//! Golden-snapshot tests for the RTL emitter on the paper's Example 1.
//!
//! The emitted text for the sequential (Table 2) and II=2 pipelined
//! (Example 2) schedules is pinned byte-for-byte under `tests/golden/`.
//! An emitter refactor that changes the output now diffs textually instead
//! of failing silently; run with `UPDATE_GOLDEN=1` to bless intentional
//! changes after reviewing the diff.

mod common;

use common::compare_or_bless;
use hls::designs::paper_example1;
use hls::Synthesizer;

#[test]
fn example1_sequential_rtl_matches_golden() {
    let result = Synthesizer::new(paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .run()
        .expect("example 1 schedules sequentially");
    compare_or_bless("example1_sequential.v", &result.rtl);
}

#[test]
fn example1_pipelined_ii2_rtl_matches_golden() {
    let result = Synthesizer::new(paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(2)
        .run()
        .expect("example 1 pipelines at II=2");
    compare_or_bless("example1_pipelined_ii2.v", &result.rtl);
}

#[test]
fn example1_shared_fu_rtl_has_one_multiplier_and_three_way_muxes() {
    // Example 1 with the minimum resource set: ONE multiplier runs all
    // three multiplications. The sharing is asserted on the netlist object
    // the RTL is printed from — no grepping of emitted comments.
    let result = Synthesizer::new(paper_example1())
        .clock_ps(1600.0)
        .latency_bounds(1, 3)
        .verify(50)
        .run()
        .expect("example 1 schedules sequentially");
    assert_eq!(
        result.rtl.matches(" * ").count(),
        1,
        "one physical multiplier in the text"
    );
    let nstats = result.netlist_stats();
    assert_eq!(
        nstats.count_bin(hls::nir::BinKind::Mul),
        1,
        "one multiplier cell: {nstats:?}"
    );
    // the shared multiplier's ports carry steering muxes; three ops on one
    // unit need at least two 3-arm chains (2 muxes each)
    assert!(nstats.muxes() >= 4, "{nstats:?}");
    assert!(nstats.regs > 0 && nstats.reg_bits > 0, "{nstats:?}");
    // the 3-arm chains are already depth-optimal, so rewrites must not
    // deepen them
    let report = &result.netlist_rewrites;
    assert!(
        report.mux_depth_after <= report.mux_depth_before,
        "{report:?}"
    );
    // the shared-unit names survive into the netlist and the printed text
    assert!(
        result
            .netlist
            .iter_cells()
            .any(|(_, c)| c.name.as_deref().is_some_and(|n| n.contains("mul1"))),
        "mul1 steering nets are named after the unit"
    );
    // netlist cell counts agree with the binder's counted statistics
    let stats = result.binding_stats();
    let mul_fu = result
        .binding
        .fus
        .iter()
        .find(|f| f.name == "mul1")
        .expect("mul1 bound");
    assert_eq!(mul_fu.ops.len(), 3);
    let mul_mux_inputs: usize = result
        .binding
        .muxes
        .iter()
        .filter(|m| m.fu == mul_fu.instance && m.is_real())
        .map(|m| m.sources.len())
        .sum();
    assert_eq!(mul_mux_inputs, 6, "two 3-input operand muxes on mul1");
    assert!(stats.shared_fu_count >= 1);
}

#[test]
fn deep_sharing_gets_its_steering_chains_rebalanced() {
    // The 8-point IDCT shares units across many states, producing long
    // priority-mux spines; the rewrite pipeline must rebuild them as
    // balanced trees (shallower) without changing observable behaviour
    // (the run is differentially verified at the netlist level).
    let result = Synthesizer::from_body(hls::explore::idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 16)
        .verify(30)
        .run()
        .expect("idct8 synthesizes and verifies");
    let report = &result.netlist_rewrites;
    assert!(report.rebalanced > 0, "{report:?}");
    assert!(
        report.mux_depth_after < report.mux_depth_before,
        "rebalancing must reduce mux depth: {report:?}"
    );
    assert!(result.verification.is_some());
}
