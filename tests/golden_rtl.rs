//! Golden-snapshot tests for the RTL emitter on the paper's Example 1.
//!
//! The emitted text for the sequential (Table 2) and II=2 pipelined
//! (Example 2) schedules is pinned byte-for-byte under `tests/golden/`.
//! An emitter refactor that changes the output now diffs textually instead
//! of failing silently; run with `UPDATE_GOLDEN=1` to bless intentional
//! changes after reviewing the diff.

mod common;

use common::compare_or_bless;
use hls::bind::{lower, RtlStyle};
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
    // the shared-unit names survive into the netlist and the printed text
    assert!(
        result
            .netlist
            .iter_cells()
            .any(|(_, c)| c.name.as_deref().is_some_and(|n| n.contains("mul1"))),
        "mul1 steering nets are named after the unit"
    );
    // netlist cell counts agree with the binder's counted statistics
    let stats = result.binding.stats;
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
fn deep_sharing_meets_its_clock_no_larger_than_lowered() {
    // The 8-point IDCT shares units across many states, so its steering
    // chains are long. Timing charges each chain as one mux tree, so at the
    // paper's 2000 ps clock both schedules must meet timing without a timed
    // round, and the untimed rewrites may only shrink the lowered netlist.
    let runs = [
        (
            "seq",
            Synthesizer::from_body(hls::explore::idct8_design()).latency_bounds(1, 16),
        ),
        (
            "ii8",
            Synthesizer::from_body(hls::explore::idct8_design())
                .latency_bounds(1, 32)
                .pipeline(8),
        ),
    ];
    for (label, synth) in runs {
        let result = synth
            .clock_ps(2000.0)
            .verify(30)
            .run()
            .unwrap_or_else(|e| panic!("idct8 {label} synthesizes and verifies: {e}"));
        assert!(result.verification.is_some(), "{label}");
        let timing = result.lint.timing.as_ref().expect("analysis ran");
        assert!(timing.meets_clock(), "{label}: wns {}", timing.wns_ps);
        assert_eq!(result.timed_rewrites.rounds, 0, "{label}");
        let lowered = lower(
            &result.body,
            &result.schedule.desc,
            &result.binding,
            RtlStyle::SharedFu,
        )
        .expect("lowers");
        assert!(
            result.netlist.num_cells() <= lowered.num_cells(),
            "{label}: {} cells after the flow, {} lowered",
            result.netlist.num_cells(),
            lowered.num_cells()
        );
    }
}
