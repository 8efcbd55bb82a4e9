//! Allocation budget of the compile → simulate path.
//!
//! Building, compiling and simulating a zoo graph once made about 36
//! heap allocations per graph node, and allocator time was half of
//! compile time. Shapes and operand lists are now stored inline, step
//! plans keep one flat dependency array, and the scheduler builds its
//! dependents as one offsets array plus one flat list, so the path
//! makes a few dozen allocations per compile whatever the graph's size.
//! This test pins that count: a per-node or per-step allocation that
//! creeps back in fails here.
//!
//! A counting global allocator counts fresh allocations (`alloc` and
//! `alloc_zeroed`, not the `realloc` of a growing buffer), and only
//! while the test thread switches it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tpugen::arch::catalog;
use tpugen::hlo::{compile, CompilerOptions};
use tpugen::serving::latency::DEFAULT_BATCHES;
use tpugen::sim::Simulator;
use tpugen::workloads::{frontend, zoo::production_apps};

/// Mean allocations per build + compile + simulate measured on the
/// sweep below when the budget was set. The previous layout (a `Vec`
/// per shape, operand list, step dependency list and tag) made 8,252 on
/// the same sweep.
const MEASURED_PER_COMPILE: f64 = 59.7;

/// The measured mean plus 25% headroom: 74.6 allocations per compile.
const BUDGET_PER_COMPILE: f64 = MEASURED_PER_COMPILE * 1.25;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    // `try_with` fails only while this thread's locals are torn down;
    // nothing is counted then.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract. Counting touches only an
// atomic and a const-initialized thread local, neither of which
// allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, and the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn compile_path_stays_within_its_allocation_budget() {
    let chip = catalog::tpu_v4i();
    let options = CompilerOptions::for_chip(&chip);
    let simulate = |graph: &tpugen::hlo::Graph| {
        let exe =
            compile(graph, &chip, &options).unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        Simulator::new(chip.clone())
            .run(exe.plan())
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name()))
            .seconds
    };

    let (mut compiles, mut allocations) = (0u64, 0u64);
    for app in production_apps() {
        for &batch in &DEFAULT_BATCHES {
            let (seconds, n) =
                allocations_in(|| simulate(&app.build(batch).expect("zoo apps build")));
            assert!(seconds > 0.0, "{} at batch {batch}", app.spec.name);
            compiles += 1;
            allocations += n;
        }
        // The Lesson 2 recompile: a naive frontend's graph makes every
        // pass rewrite.
        let (seconds, n) = allocations_in(|| {
            let clean = app.build(4).expect("zoo apps build");
            simulate(&frontend::deoptimize(&clean).expect("deoptimizes"))
        });
        assert!(seconds > 0.0, "{} deoptimized", app.spec.name);
        compiles += 1;
        allocations += n;
    }

    let mean = allocations as f64 / compiles as f64;
    eprintln!("{compiles} compiles, {mean:.1} allocations per compile");
    assert!(
        mean <= BUDGET_PER_COMPILE,
        "{mean:.1} allocations per build + compile + simulate, over the budget of \
         {BUDGET_PER_COMPILE:.1} ({MEASURED_PER_COMPILE} measured + 25%)"
    );
}
