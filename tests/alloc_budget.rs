//! Allocation budget of the cold compile path. A counting global allocator
//! tallies every heap allocation (a `realloc` counts as one: the allocator
//! may move the block) while four programs compile cold at `large`: gemm,
//! heat-3d (a 3-D stencil), ludcmp (triangular domains) and sdpa-bert (an
//! ML graph). Allocator churn is
//! invisible in the compiler's output, so this is the test that keeps it
//! from creeping back: the budget sits about 15% above the measured count
//! (8,034 on Linux/x86-64; 8,935 before solver systems, propagated
//! intervals and candidate points were held in place, 10,281 before count
//! questions were written as rows and counted per independent component,
//! 13,868 before the dependence analysis decided pieces on the pair
//! relation and the bounds pass built each half-space once, and 56,319
//! when `LinExpr` coefficients, polysum terms and count-cache keys each
//! had heap storage of their own).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use polyufc::Pipeline;
use polyufc_machine::Platform;
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

/// Allocations allowed for one cold compile of each of the four programs.
const BUDGET: u64 = 9_250;

struct Counting;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` states; counting
// touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn cold_compiles_stay_within_the_allocation_budget() {
    let mut programs: Vec<_> = polybench_suite(PolybenchSize::Large)
        .into_iter()
        .filter(|w| ["gemm", "heat-3d", "ludcmp"].contains(&w.name))
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    programs.extend(
        ml_suite()
            .into_iter()
            .filter(|w| w.name == "sdpa-bert")
            .map(|w| (w.name.to_string(), w.affine())),
    );
    assert_eq!(programs.len(), 4, "a program of the fixed set is missing");
    let pipe = Pipeline::new(Platform::broadwell());
    // One untimed round builds what a process sets up once (lazy tables,
    // the worker pool), which no single compile should be charged for.
    for (name, p) in &programs {
        pipe.compile_affine(p)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let mut report = String::new();
    let mut total = 0;
    for (name, p) in &programs {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        pipe.compile_affine(p)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let used = ALLOCATIONS.load(Ordering::Relaxed) - before;
        report.push_str(&format!(" {name} {used}"));
        total += used;
    }
    assert!(
        total <= BUDGET,
        "{total} allocations for four cold compiles ({report}), budget {BUDGET}"
    );
}
