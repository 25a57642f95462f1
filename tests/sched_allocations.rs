//! Heap allocations of `Scheduler::run`: one run that exhausts its pass
//! budget and one that schedules.
//!
//! `Filter/400/s0` at sequential 1600 ps with latency at most 24 fails all
//! 64 of its passes and ends in `BudgetExhausted`, so most of its placement
//! attempts fail. A failed attempt records its reasons in its region's
//! reason arena and allocates nothing; the public restraints are built only
//! when a failed pass's report is assembled. `Filter/1000/s2` at sequential
//! 2200 ps with latency at most 48 schedules in 52 passes; a pass keeps its
//! busy table, combinational graph and ready set through the undo journal
//! instead of rebuilding them, and the run's per-op tables are flat arrays.
//! The ceilings below sit between the counts before those changes and
//! today's (see each test), so a failed attempt, a pass or a run's set-up
//! that allocates per op again fails here.
//!
//! The counting allocator counts per thread, so the tests of this binary,
//! running side by side, do not count each other's allocations. Neither
//! run decomposes its body into regions, so neither spawns a thread.

use hls::explore::{synthetic_design, DesignClass};
use hls::sched::{SchedError, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
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

/// 36 759 allocations when every failed attempt built a restraint list,
/// 8 600 when each pass rebuilt its tables and the run built a `Vec` per
/// op, 4 839 now.
#[test]
fn a_budget_exhausted_run_allocates_little_per_failed_attempt() {
    const CEILING: u64 = 5_200;
    let body = synthetic_design(DesignClass::Filter, 400, 0);
    let lib = TechLibrary::artisan_90nm_typical();
    let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 24);
    let scheduler = Scheduler::new(&body, &lib, config);
    let (run, n) = allocations(|| scheduler.run());
    let Err(SchedError::BudgetExhausted { passes, .. }) = &run else {
        panic!("Filter/400/s0 must exhaust its pass budget: {run:?}");
    };
    assert_eq!(*passes, 64);
    assert!(
        n < CEILING,
        "Scheduler::run made {n} heap allocations (ceiling {CEILING})"
    );
}

/// 16 488 allocations when each pass rebuilt its tables and the run built
/// a `Vec` per op, 7 190 now.
#[test]
fn a_successful_run_allocates_per_run_not_per_pass() {
    const CEILING: u64 = 11_000;
    let body = synthetic_design(DesignClass::Filter, 1000, 2);
    let lib = TechLibrary::artisan_90nm_typical();
    let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(2200.0), 1, 48);
    let scheduler = Scheduler::new(&body, &lib, config);
    let (run, n) = allocations(|| scheduler.run());
    let schedule = run.expect("Filter/1000/s2 schedules at 2200 ps");
    assert_eq!(schedule.passes, 52);
    assert!(
        n < CEILING,
        "Scheduler::run made {n} heap allocations (ceiling {CEILING})"
    );
}
