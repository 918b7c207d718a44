//! Proves the epoch lifecycle's allocation-free claim (the companion to
//! `revoker/tests/alloc_free_sweep.rs`, one layer up): once a
//! [`CherivokeHeap`]'s scratch buffers are warm, `begin_revocation` —
//! seal, paint, worklist build — and every **non-final** `revoke_step`
//! slice (CapDirty-filtered) perform zero heap allocations.
//!
//! Out of scope, by design:
//!
//! * the **final** (drain-completing) step: returning chunks to the
//!   allocator's free bins inserts into its size-class `BTreeMap`s;
//! * `malloc`/`free` themselves: quarantining a chunk inserts into the
//!   open generation's `BTreeSet`.
//!
//! Those are the allocator's own data structures doing their job — the
//! claim is about the *revocation* hot path, which runs far more often
//! per epoch than the one seal and one drain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cherivoke::{CherivokeHeap, HeapConfig, RevocationPolicy};

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

const SLICE: u64 = 4 << 10;

/// One round of churn: allocate a spread of objects, stash each one's
/// capability in the long-lived museum (dirtying its pages),
/// free them all. Identical every round, so the warm-up rounds size every
/// scratch buffer for the measured round.
fn churn(h: &mut CherivokeHeap, museum: &cheri::Capability) {
    let slots = museum.length() / 16;
    let mut objs = Vec::new();
    for i in 0..512u64 {
        objs.push(h.malloc(48 + (i % 7) * 32).expect("churn allocation"));
    }
    for (i, cap) in objs.iter().enumerate() {
        // Stride the stashes across the whole museum so every page takes
        // capability stores (the worklist then spans multiple slices).
        h.store_cap(museum, (i as u64 * 4 % slots) * 16, cap)
            .expect("stash into museum");
    }
    for cap in objs {
        h.free(cap).expect("freeing a live allocation");
    }
}

/// Drives one manual epoch, which seals and drains the whole quarantine.
fn drain(h: &mut CherivokeHeap) {
    assert!(h.begin_revocation(), "non-empty quarantine must seal");
    while h.revoke_step(SLICE).is_none() {}
    assert_eq!(h.quarantined_bytes(), 0);
}

/// One test function (not several) so no concurrently-running sibling
/// test can bump a measured region's counter.
#[test]
fn warm_epoch_seal_and_slices_allocate_nothing() {
    let mut config = HeapConfig {
        policy: RevocationPolicy {
            // Manual epochs only: frees never trigger revocation.
            incremental_slice_bytes: Some(SLICE),
            sweep_workers: 1, // the parallel pool spawns (= allocates)
            ..RevocationPolicy::paper_default()
        },
        ..HeapConfig::default()
    };
    config.policy.quarantine.fraction = f64::INFINITY;
    let mut h = CherivokeHeap::new(config).expect("heap");
    let museum = h.malloc(32 << 10).expect("museum");

    // Two warm-up rounds: the first grows every scratch buffer (seal
    // ranges, worklist, slice, drain, sweep scratch), the second
    // exercises them at the same shape to confirm the sizing holds.
    for _ in 0..2 {
        churn(&mut h, &museum);
        drain(&mut h);
    }

    // Measured round: same churn shape (allocations here are fine —
    // free() inserting into the quarantine is out of scope).
    churn(&mut h, &museum);
    let before = allocations();
    assert!(h.begin_revocation(), "non-empty quarantine must seal");
    assert_eq!(allocations() - before, 0, "begin_revocation allocated");
    let mut non_final_steps = 0u64;
    loop {
        let before = allocations();
        let done = h.revoke_step(SLICE).is_some();
        let after = allocations();
        if done {
            // The drain-completing step returns chunks to the
            // allocator's free-bin BTreeMaps — excluded by design.
            break;
        }
        assert_eq!(
            after - before,
            0,
            "non-final revoke_step allocated (step {non_final_steps})"
        );
        non_final_steps += 1;
    }
    assert!(
        non_final_steps >= 2,
        "epoch must have spanned multiple measured slices, got {non_final_steps}"
    );

    // The heap still works and the museum's stale stashes are dead.
    assert_eq!(h.quarantined_bytes(), 0);
    assert!(!h.load_cap(&museum, 0).expect("museum is live").tag());
    assert!(h.malloc(64).expect("post-epoch allocation").tag());
}
