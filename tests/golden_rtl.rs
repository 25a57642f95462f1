//! Golden-snapshot tests for the back end after scheduling: the lowering,
//! the Verilog printer and the reference interpreter.
//!
//! The emitted text for Example 1's sequential (Table 2) and II=2 pipelined
//! (Example 2) schedules is pinned byte-for-byte under `tests/golden/`, and
//! `backend_digests.txt` pins digests of every netlist, the RTL and the
//! interpreter's writes for the flow benchmark's verified kernels. A
//! refactor that changes the output now diffs textually instead of failing
//! silently; run with `UPDATE_GOLDEN=1` to bless intentional changes after
//! reviewing the diff.

mod common;

use common::{compare_or_bless, Fnv};
use hls::bind::{lower, RtlStyle};
use hls::designs::paper_example1;
use hls::explore::{synthetic_design, DesignClass};
use hls::sim::{Interpreter, Stimulus};
use hls::Synthesizer;
use std::fmt::Write as _;

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

/// FNV-1a over a value's `Debug` text.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut digest = Fnv::new();
    write!(digest, "{value:?}").expect("digesting never fails");
    digest.0
}

/// One line per design: the cell counts of the per-op netlist, of the
/// shared-unit netlist before the rewrites and of the final netlist, the
/// FNV-1a digests of the three netlists' `Debug` text and of the RTL, and
/// the count and digest of the reference interpreter's writes under the
/// stimulus `verify` draws. The designs are the flow benchmark's nine
/// verified 1000-op kernels and Example 1, sequential and at II = 2.
#[test]
fn backend_outputs_match_their_digests() {
    use DesignClass::{Fft, Filter, ImageKernel};
    let kernel = |class: DesignClass, seed: u64| {
        Synthesizer::from_body(synthetic_design(class, 1000, seed))
            .clock_ps(2200.0)
            .latency_bounds(1, 48)
    };
    let mut runs: Vec<(String, Synthesizer)> = Vec::new();
    for (class, seed) in [
        (Filter, 2),
        (Filter, 6),
        (Fft, 0),
        (Fft, 1),
        (ImageKernel, 0),
        (ImageKernel, 1),
    ] {
        runs.push((format!("{class:?}/1000/s{seed}/seq"), kernel(class, seed)));
    }
    for (class, seed) in [(Filter, 2), (Fft, 1), (ImageKernel, 1)] {
        let synth = kernel(class, seed).pipeline(2);
        runs.push((format!("{class:?}/1000/s{seed}/ii2"), synth));
    }
    let example1 = || Synthesizer::new(paper_example1()).clock_ps(1600.0);
    runs.push(("example1/seq".into(), example1().latency_bounds(1, 3)));
    let pipelined = example1().latency_bounds(1, 6).pipeline(2);
    runs.push(("example1/ii2".into(), pipelined));

    let mut golden = String::new();
    for (label, synth) in runs {
        let result = synth
            .verify(64)
            .run()
            .unwrap_or_else(|e| panic!("{label} synthesizes and verifies: {e}"));
        let (body, desc) = (&result.body, &result.schedule.desc);
        let per_op = lower(body, desc, &result.binding, RtlStyle::PerOp).expect("per-op lowers");
        let shared = lower(body, desc, &result.binding, RtlStyle::SharedFu).expect("lowers");
        let stimulus = Stimulus::random(&body.dfg, 64, 0x5EED);
        let trace = Interpreter::new(body)
            .and_then(|interp| interp.run(&stimulus))
            .expect("the interpreter runs");
        let mut writes = Fnv::new();
        for w in &trace.writes {
            writes.bytes(&w.iteration.to_le_bytes());
            writes.bytes(&(w.port.index() as u32).to_le_bytes());
            writes.bytes(&w.value.to_le_bytes());
        }
        let mut rtl = Fnv::new();
        rtl.bytes(result.rtl.as_bytes());
        let _ = writeln!(
            golden,
            "{label} cells per_op={} shared={} final={} digests per_op={:#018x} \
             shared={:#018x} final={:#018x} rtl={:#018x} writes={} trace={:#018x}",
            per_op.num_cells(),
            shared.num_cells(),
            result.netlist.num_cells(),
            debug_digest(&per_op),
            debug_digest(&shared),
            debug_digest(&result.netlist),
            rtl.0,
            trace.writes.len(),
            writes.0
        );
    }
    compare_or_bless("backend_digests.txt", &golden);
}
