//! Heap allocations of one `Scheduler::run` that exhausts its pass budget.
//!
//! `Filter/400/s0` at sequential 1600 ps with latency at most 24 fails all
//! 64 of its passes and ends in `BudgetExhausted`, so most of its placement
//! attempts fail. A failed attempt records its reasons in its region's
//! reason arena and allocates nothing; the public restraints are built only
//! when a failed pass's report is assembled. The bound below catches a
//! failed attempt that allocates again: before the arena the run made
//! 36 759 allocations, with it 8 650.
//!
//! The binary holds this one test so that nothing else allocates while it
//! counts; its global allocator counts every allocation of every thread.

use hls::explore::{synthetic_design, DesignClass};
use hls::sched::{SchedError, Scheduler, SchedulerConfig};
use hls::tech::{ClockConstraint, TechLibrary};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The run's allocation ceiling, well under the 36 759 the run made when
/// every failed attempt built a restraint list.
const CEILING: u64 = 16_000;

#[test]
fn a_budget_exhausted_run_allocates_little_per_failed_attempt() {
    let body = synthetic_design(DesignClass::Filter, 400, 0);
    let lib = TechLibrary::artisan_90nm_typical();
    let config = SchedulerConfig::sequential(ClockConstraint::from_period_ps(1600.0), 1, 24);
    let scheduler = Scheduler::new(&body, &lib, config);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = scheduler.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let Err(SchedError::BudgetExhausted { passes, .. }) = &run else {
        panic!("Filter/400/s0 must exhaust its pass budget: {run:?}");
    };
    assert_eq!(*passes, 64);
    assert!(
        allocations < CEILING,
        "Scheduler::run made {allocations} heap allocations (ceiling {CEILING})"
    );
}
