//! Heap allocations of the identifier resolution that `hls_lint::analyze`
//! and `hls_netlist::emit_verilog` share, of one fault sweep, and of the
//! timing-driven rewrite loop.
//!
//! Both the `duplicate-net-name` lint and the Verilog printer read
//! `hls_nir::NetNames`, which borrows every name that sanitizing keeps and
//! stores fallbacks as numbers. Before it, the lint rebuilt the printer's
//! naming in a map of owned strings and the printer made two strings per
//! declared cell; a fault sweep also cloned the netlist for every mutant
//! and compiled each survivor's simulator twice. The ceilings below sit
//! between those counts and today's (see each test), so a resolver, a
//! printer or a sweep that allocates per cell or per mutant again fails
//! here.
//!
//! The counting allocator counts per thread, so the tests of this binary,
//! running side by side, do not count each other's allocations.
//! None of the measured calls spawns a thread.

use hls::explore::{idct8_design, synthetic_design, DesignClass};
use hls::fault::{run_sweep, FaultConfig};
use hls::lint::{analyze, optimize_timed_with, LintConfig, LintContext, MAX_ROUNDS};
use hls::netlist::emit_verilog;
use hls::tech::{ClockConstraint, TechLibrary};
use hls::{SynthesisResult, Synthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting every allocation and reallocation of the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the heap allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// IDCT8 sequential at 2000 ps, as the CI fault job sweeps it.
fn idct8() -> SynthesisResult {
    Synthesizer::from_body(idct8_design())
        .clock_ps(2000.0)
        .latency_bounds(1, 16)
        .run()
        .expect("idct8 synthesizes at 2000 ps")
}

/// 391 allocations when the lint kept its own map of owned names, 142 now.
#[test]
fn analyze_resolves_names_without_a_string_per_cell() {
    const CEILING: u64 = 250;
    let result = idct8();
    let lib = TechLibrary::artisan_90nm_typical();
    let ctx = LintContext::new(&lib, ClockConstraint::from_period_ps(2000.0));
    let (report, n) = allocations(|| analyze(&result.netlist, &ctx, &LintConfig::default()));
    assert!(!report.has_deny());
    assert!(
        n < CEILING,
        "analyze made {n} heap allocations (ceiling {CEILING})"
    );
}

/// 57 408 allocations with a netlist clone per mutant and a second
/// simulator compile per survivor, 22 487 now.
#[test]
fn a_fault_sweep_patches_mutants_in_place() {
    const CEILING: u64 = 40_000;
    let result = idct8();
    let lib = TechLibrary::artisan_90nm_typical();
    let (report, n) = allocations(|| {
        run_sweep(
            &result.body,
            &result.netlist,
            &lib,
            ClockConstraint::from_period_ps(2000.0),
            &FaultConfig::default(),
        )
    });
    assert!(report.is_covered(), "{}", report.kill_matrix());
    assert!(
        n < CEILING,
        "run_sweep made {n} heap allocations (ceiling {CEILING})"
    );
}

/// `Filter/1000/s2` sequential at 2200 ps: 4 193 declared cells, 3 265 of
/// them unnamed. 12 602 allocations with two strings per declared cell,
/// 42 now.
#[test]
fn the_printer_makes_no_string_per_declared_cell() {
    const CEILING: u64 = 2_000;
    let result = Synthesizer::from_body(synthetic_design(DesignClass::Filter, 1000, 2))
        .clock_ps(2200.0)
        .latency_bounds(1, 48)
        .run()
        .expect("Filter/1000/s2 synthesizes at 2200 ps");
    let declared = result
        .netlist
        .cells
        .iter()
        .filter(|c| c.kind.is_declared())
        .count();
    assert_eq!(declared, 4193);
    let (rtl, n) = allocations(|| emit_verilog(&result.netlist));
    assert_eq!(rtl, result.rtl);
    assert!(
        n < CEILING,
        "emit_verilog made {n} heap allocations (ceiling {CEILING})"
    );
}

/// `Filter/1000/s2` sequential at 2200 ps, whose final netlist still
/// misses the clock. The rewrite loop snapshots the netlist before each
/// round and analyzes its timing once per round; the report's `before` is
/// the one copy of the first analysis. 8 528 allocations when the report
/// cloned that analysis twice and dropped one clone (918 of them), 7 610
/// now; 5 184 of either are the one round's snapshot.
#[test]
fn the_timed_rewrite_keeps_one_copy_of_its_first_analysis() {
    const CEILING: u64 = 8_000;
    let result = Synthesizer::from_body(synthetic_design(DesignClass::Filter, 1000, 2))
        .clock_ps(2200.0)
        .latency_bounds(1, 48)
        .run()
        .expect("Filter/1000/s2 synthesizes at 2200 ps");
    let lib = TechLibrary::artisan_90nm_typical();
    let mut netlist = result.netlist.clone();
    let clock = ClockConstraint::from_period_ps(2200.0);
    let (report, n) = allocations(|| optimize_timed_with(&mut netlist, &lib, clock, MAX_ROUNDS));
    assert!(report.before.wns_ps < 0.0, "{:?}", report.before.wns_ps);
    assert!(
        n < CEILING,
        "optimize_timed_with made {n} heap allocations (ceiling {CEILING})"
    );
}
