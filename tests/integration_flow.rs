//! End-to-end flow tests across the front-end, optimizer, scheduler, netlist
//! and RTL emission.
use hls::designs::{fir_filter, moving_average};
use hls::frontend::parser::parse;
use hls::frontend::{elaborate, FrontendError};
use hls::opt::linearize::prepare_innermost_loop;
use hls::Synthesizer;
use proptest::prelude::*;

#[test]
fn textual_source_flows_to_rtl() {
    let src = r#"
module scaler {
  in x : 16; in k : 16;
  out y : 32;
  var acc : 32 = 0;
  thread {
    acc = x * k + acc;
    y = acc;
    wait;
  }
}
"#;
    let behavior = parse(src).expect("parses");
    let result = Synthesizer::new(behavior)
        .clock_ps(1600.0)
        .latency_bounds(1, 4)
        .run()
        .expect("synthesizes");
    // the RTL is emitted for the linearized loop body (the implicit thread loop)
    assert!(result.rtl.contains("module"));
    assert!(result.rtl.contains("acc"));
    assert!(result.area > 0.0);
}

/// The paper's Example 1 in the textual language: the seed of the parser
/// fuzz property below.
const EXAMPLE1_SRC: &str = r#"
module example1 {
  in mask : 32; in chrome : 32; in scale : 32; in th : 32;
  out pixel : 32;
  var aver : 32 = 0; var delta : 32 = 0; var filt : 32 = 0;
  thread {
    aver = 0;
    wait;
    do {
      filt = mask;
      delta = mask * chrome;
      aver = aver + delta;
      if (aver > th) { aver = aver * scale; }
      wait;
      pixel = aver * filt;
    } while (delta != 0);
  }
}
"#;

/// Tokens the fuzz property inserts, one space apart: every keyword and
/// symbol class of the language, a declared and an undeclared name, widths
/// at and past the value model's 64 bits, a number past `i64`, a comment
/// and a line break.
const FUZZ_TOKENS: &str =
    "module thread in out var wait do while if else { } ( ) ; : = == != < <= \
     >> * - mask nosuch 0 64 65 99999999999999999999 // \n";

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, .. ProptestConfig::default() })]

    /// Mutated Example 1 sources (a deleted span, a truncation, an inserted
    /// token or a duplicated fragment) end in `Ok` or a typed error through
    /// parse, elaborate and loop preparation, and a parse error names a
    /// line of the source.
    #[test]
    fn mutated_example1_source_parses_or_fails_with_a_located_error(
        kind in 0u8..4,
        at in 0..EXAMPLE1_SRC.len(),
        from in 0..EXAMPLE1_SRC.len(),
        span in 1usize..40,
        token in 0..FUZZ_TOKENS.split(' ').count(),
    ) {
        let mut src = EXAMPLE1_SRC.to_string();
        match kind {
            0 => drop(src.drain(at..(at + span).min(src.len()))),
            1 => src.truncate(at),
            2 => src.insert_str(at, FUZZ_TOKENS.split(' ').nth(token).unwrap_or_default()),
            _ => {
                let fragment = src[from..(from + span).min(src.len())].to_string();
                src.insert_str(at, &fragment);
            }
        }
        match parse(&src) {
            Ok(behavior) => {
                if let Ok(mut cdfg) = elaborate(&behavior) {
                    let _ = prepare_innermost_loop(&mut cdfg);
                }
            }
            Err(FrontendError::Parse { line, .. }) => {
                let lines = src.lines().count().max(1);
                prop_assert!((1..=lines).contains(&line), "line {line} of {lines} in {src:?}");
            }
            Err(_) => {}
        }
    }
}

#[test]
fn moving_average_sequential_and_pipelined_agree_on_resources() {
    let seq = Synthesizer::new(moving_average(4, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 4)
        .run()
        .expect("seq");
    let pipe = Synthesizer::new(moving_average(4, 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 6)
        .pipeline(1)
        .run()
        .expect("pipe");
    assert_eq!(pipe.schedule.cycles_per_iteration(), 1);
    assert!(pipe.schedule.cycles_per_iteration() <= seq.schedule.cycles_per_iteration());
    assert!(
        pipe.area >= seq.area * 0.8,
        "pipelining should not magically shrink the datapath"
    );
}

#[test]
fn fir_resources_grow_with_throughput() {
    use hls::tech::ResourceClass;
    let slow = Synthesizer::new(fir_filter(&[3, 5, 7, 11], 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 12)
        .pipeline(4)
        .run()
        .expect("ii4");
    let fast = Synthesizer::new(fir_filter(&[3, 5, 7, 11], 16))
        .clock_ps(1600.0)
        .latency_bounds(1, 12)
        .pipeline(1)
        .run()
        .expect("ii1");
    // II=1 forbids sharing: one multiplier per multiplication, against one
    // shared multiplier at II=4 (narrow 16-bit multipliers are cheap enough
    // that register/mux overheads dominate total area, so the robust claim is
    // about functional units and throughput, not total area).
    let muls = |r: &hls::SynthesisResult| {
        r.schedule
            .desc
            .resources
            .count_of_class(&ResourceClass::Multiplier)
    };
    assert!(muls(&fast) > muls(&slow));
    assert!(fast.schedule.cycles_per_iteration() < slow.schedule.cycles_per_iteration());
}

#[test]
fn faster_clock_costs_more_states() {
    let relaxed = Synthesizer::new(fir_filter(&[1, 2, 3, 4], 16))
        .clock_ps(3200.0)
        .latency_bounds(1, 16)
        .run()
        .expect("3.2ns");
    let tight = Synthesizer::new(fir_filter(&[1, 2, 3, 4], 16))
        .clock_ps(1250.0)
        .latency_bounds(1, 16)
        .run()
        .expect("1.25ns");
    assert!(tight.schedule.latency >= relaxed.schedule.latency);
}
