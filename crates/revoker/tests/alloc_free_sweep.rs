//! Proves the "allocation-free sweep scratch" claim: once a
//! [`revoker::SweepScratch`] has been warmed by one sweep, further
//! steady-state uncosted sweeps through a one-worker
//! [`revoker::SweepEngine`] perform **zero** heap allocations — the walk,
//! the chunk plan, the per-page capability accounting and the revoke
//! inner loop all reuse the scratch's buffers.
//!
//! The proof is a counting `#[global_allocator]`: every `alloc`/`realloc`
//! bumps an atomic, and the measured region asserts the counter does not
//! move. Multi-worker sweeps are deliberately out of scope — spawning
//! scoped worker threads allocates O(workers) per sweep by design (see
//! the [`revoker::SweepScratch`] docs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cheri::Capability;
use revoker::{
    segment_runs, CLoadTagsLines, CapDirtyPurge, Kernel, NoCost, NoFilter, ShadowMap, SweepEngine,
    SweepScratch,
};
use tagmem::{PageTable, TaggedMemory};

struct CountingAlloc;

// Per-thread, const-initialised (so reading it from inside the allocator
// never itself allocates): the libtest harness thread allocates
// concurrently with the test thread, so a process-global counter would
// pick up its noise.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by *this* thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const BASE: u64 = 0x1000_0000;
const LEN: u64 = 1 << 20;
/// The one run covering the whole image.
const WHOLE: [(u64, u64); 1] = [(BASE, LEN)];

/// A 1 MiB image with a capability every 256 bytes, a painted stripe in
/// the shadow, and one warm-up sweep already absorbed by `scratch`.
fn warmed(kernel: Kernel, scratch: &mut SweepScratch) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(BASE, LEN);
    let cap = Capability::root_rw(BASE, 64);
    let mut addr = BASE;
    while addr < BASE + LEN {
        mem.write_cap(addr, &cap).expect("inside image");
        addr += 256;
    }
    let mut shadow = ShadowMap::new(BASE, LEN);
    // Paint a stripe that does NOT cover the capabilities' base granule,
    // so sweeps keep finding live capabilities to inspect every pass
    // (nothing is revoked, the inner loop stays hot).
    shadow.paint(BASE + 4096, 4096);
    let engine = SweepEngine::new(kernel);
    engine.sweep_with(
        std::slice::from_mut(&mut mem),
        &WHOLE,
        NoFilter,
        &shadow,
        &mut NoCost,
        scratch,
    );
    (mem, shadow)
}

/// One test function (not several) so no concurrently-running sibling test
/// can bump the process-global counter inside a measured region.
#[test]
fn steady_state_scratched_sweeps_allocate_nothing() {
    for kernel in [Kernel::Unrolled, Kernel::Fast, Kernel::Simd] {
        let mut scratch = SweepScratch::new();
        let (mut mem, shadow) = warmed(kernel, &mut scratch);
        let engine = SweepEngine::new(kernel);

        // NoFilter steady state.
        let before = allocations();
        let mut inspected = 0u64;
        for _ in 0..8 {
            let stats = engine.sweep_with(
                std::slice::from_mut(&mut mem),
                &WHOLE,
                NoFilter,
                &shadow,
                &mut NoCost,
                &mut scratch,
            );
            inspected += stats.caps_inspected;
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state NoFilter sweep allocated ({kernel:?})"
        );
        assert!(inspected > 0, "sweeps must have inspected capabilities");

        // Filtered steady state: the line/page span consumers must reuse
        // the scratch too (the hoisted per-page buffers).
        engine.sweep_with(
            std::slice::from_mut(&mut mem),
            &WHOLE,
            CLoadTagsLines::new(),
            &shadow,
            &mut NoCost,
            &mut scratch,
        );
        let before = allocations();
        for _ in 0..8 {
            engine.sweep_with(
                std::slice::from_mut(&mut mem),
                &WHOLE,
                CLoadTagsLines::new(),
                &shadow,
                &mut NoCost,
                &mut scratch,
            );
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state filtered sweep allocated ({kernel:?})"
        );

        // The epoch's CapDirty sweep: its visit set's runs through the
        // page-granular purge reuse the same scratch.
        let mut table = PageTable::new();
        let mut addr = BASE;
        while addr < BASE + LEN {
            table.note_cap_store(addr);
            addr += 256;
        }
        let mut runs = Vec::new();
        let dirty = Some(table.cap_dirty_pages_in(BASE, BASE + LEN));
        segment_runs(BASE, BASE + LEN, dirty, &mut runs);
        let memories = std::slice::from_mut(&mut mem);
        engine.sweep_with(
            memories,
            &runs,
            CapDirtyPurge::new(&mut table),
            &shadow,
            &mut NoCost,
            &mut scratch,
        );
        let before = allocations();
        let mut inspected = 0u64;
        for _ in 0..8 {
            let stats = engine.sweep_with(
                memories,
                &runs,
                CapDirtyPurge::new(&mut table),
                &shadow,
                &mut NoCost,
                &mut scratch,
            );
            inspected += stats.caps_inspected;
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state CapDirty sweep allocated ({kernel:?})"
        );
        assert!(inspected > 0, "CapDirty sweeps must stay on the hot path");
    }
}
