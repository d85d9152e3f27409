//! Gate: the hot simulation loop must not allocate.
//!
//! `SimBatch::new` builds the template and arena; every subsequent
//! `SimBatch::run` must reuse them — the batched system-DSE sweep calls
//! `run` thousands of times per proposal, and a single per-tick or
//! per-run allocation would put the allocator back on the profile the
//! SoA rewrite removed. A counting global allocator wraps the system
//! one; after a warm-up run, a full grid of `run` and `bound` calls must
//! leave the allocation counter untouched. The counter is per thread, so
//! only the thread that runs the grid is counted, not the test harness's
//! other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use overgen_adg::{mesh, MeshSpec, SysAdg, SystemParams};
use overgen_compiler::{lower, LowerChoices};
use overgen_ir::{expr, DataType, KernelBuilder, Suite};
use overgen_scheduler::schedule;
use overgen_sim::{SimBatch, SimConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on this thread. `try_with` skips the count while
/// the thread-local is being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocation count so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_batch_runs_allocate_nothing() {
    let k = KernelBuilder::new("vecadd", Suite::Dsp, DataType::I64)
        .array_input("a", 4096)
        .array_input("b", 4096)
        .array_output("c", 4096)
        .loop_const("i", 4096)
        .assign(
            "c",
            expr::idx("i"),
            expr::load("a", expr::idx("i")) + expr::load("b", expr::idx("i")),
        )
        .build()
        .unwrap();
    let mdfg = lower(
        &k,
        0,
        &LowerChoices {
            unroll: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let adg = mesh(&MeshSpec::default());
    let sys0 = SysAdg::new(adg.clone(), SystemParams::default());
    let sched = schedule(&mdfg, &sys0, None).unwrap();
    let cfg = SimConfig::default();

    let mut batch = SimBatch::new(&mdfg, &sched, &adg, &cfg);
    // Warm up once so lazily-grown state (none expected, but e.g. a lazy
    // stdout handle inside an assert would show here) is paid for.
    let warm = batch.run(&SystemParams::default());
    assert!(warm.firings > 0);

    let grid: Vec<SystemParams> = [1u32, 2, 4, 8]
        .iter()
        .flat_map(|&tiles| {
            [(2u32, 256u32, 32u32), (8, 512, 64), (16, 2048, 64)]
                .iter()
                .map(move |&(l2_banks, l2_kb, noc_bw_bytes)| SystemParams {
                    tiles,
                    l2_banks,
                    l2_kb,
                    noc_bw_bytes,
                    dram_channels: 1,
                })
        })
        .collect();

    let before = allocations();
    let mut sink = 0u64;
    for sys in &grid {
        let bound = batch.bound(sys);
        let report = batch.run(sys);
        let cached = batch.run_cached(sys);
        sink = sink
            .wrapping_add(report.cycles)
            .wrapping_add(cached.cycles)
            .wrapping_add(bound.cycles);
    }
    let after = allocations();
    assert!(sink > 0);
    assert_eq!(
        after - before,
        0,
        "hot loop allocated {} times across {} grid points",
        after - before,
        grid.len()
    );
}
