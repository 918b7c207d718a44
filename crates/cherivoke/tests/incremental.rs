//! Tests for incremental revocation epochs (paper §3.5): bounded sweep
//! slices interleaved with execution, kept sound by capability load/store
//! barriers.

use cheri::CapError;
use cherivoke::{CherivokeHeap, HeapConfig, HeapError, RevocationPolicy};

fn incremental_heap(slice: u64) -> CherivokeHeap {
    let mut cfg = HeapConfig::small();
    cfg.policy = RevocationPolicy {
        incremental_slice_bytes: Some(slice),
        ..RevocationPolicy::paper_default()
    };
    CherivokeHeap::new(cfg).expect("heap")
}

#[test]
fn epoch_lifecycle_completes_in_slices() {
    let mut h = incremental_heap(4096);
    let _ballast = h.malloc(256 << 10).unwrap();
    let obj = h.malloc(64).unwrap();
    let holder = h.malloc(16).unwrap();
    h.store_cap(&holder, 0, &obj).unwrap();
    h.free(obj).unwrap();

    assert!(
        h.begin_revocation(),
        "epoch should open with sealed quarantine"
    );
    assert!(h.revocation_active());
    assert!(!h.begin_revocation(), "no nested epochs");

    // Drive it with small slices until completion.
    let mut steps = 0;
    let stats = loop {
        steps += 1;
        if let Some(stats) = h.revoke_step(2048) {
            break stats;
        }
        assert!(steps < 10_000, "epoch must terminate");
    };
    assert!(!h.revocation_active());
    assert!(
        steps > 1,
        "work should have spanned multiple slices, got {steps}"
    );
    assert_eq!(stats.caps_revoked, 1);
    assert!(!h.load_cap(&holder, 0).unwrap().tag());
    assert_eq!(h.stats().sweeps, 1);
    assert_eq!(h.quarantined_bytes(), 0);
}

/// The race §3.5's concurrency creates: copying a dangling capability from
/// an unswept region into an already-swept one. The store barrier must
/// catch it.
#[test]
fn store_barrier_stops_dangling_escape() {
    let mut h = incremental_heap(1 << 20);
    let _ballast = h.malloc(256 << 10).unwrap();
    let obj = h.malloc(64).unwrap();
    let src = h.malloc(16).unwrap(); // holds the dangling copy
    let dst = h.malloc(16).unwrap(); // the would-be escape destination
    h.store_cap(&src, 0, &obj).unwrap();
    h.free(obj).unwrap();

    assert!(h.begin_revocation());
    // Mid-epoch (no slices processed yet), the program copies src -> dst.
    let dangling = h.load_cap(&src, 0).unwrap();
    // The LOAD barrier already strips the tag on the way out…
    assert!(
        !dangling.tag(),
        "load barrier must filter painted capabilities"
    );
    // …and even a raced tagged copy cannot be stored live:
    let raced = src; // a tagged capability whose base is NOT painted
    h.store_cap(&dst, 0, &raced).unwrap();
    assert!(
        h.load_cap(&dst, 0).unwrap().tag(),
        "live caps pass the barrier"
    );

    h.finish_revocation();
    assert!(!h.revocation_active());
    // Post-epoch, the original copy is revoked in memory too.
    assert!(!h.load_cap(&src, 0).unwrap().tag());
}

#[test]
fn register_barrier_filters_dangling_caps() {
    let mut h = incremental_heap(1 << 20);
    let _ballast = h.malloc(256 << 10).unwrap();
    let obj = h.malloc(64).unwrap();
    h.free(obj).unwrap();
    assert!(h.begin_revocation());
    // Installing the dangling cap into a register mid-epoch is filtered.
    h.set_register(3, obj);
    assert!(!h.register(3).tag());
    assert!(h.stats().barrier_revocations >= 1);
    h.finish_revocation();
}

#[test]
fn frees_during_epoch_wait_for_the_next_one() {
    let mut h = incremental_heap(1 << 20);
    let _ballast = h.malloc(256 << 10).unwrap();
    let first = h.malloc(64).unwrap();
    h.free(first).unwrap();
    assert!(h.begin_revocation());

    // Freed while the epoch runs: joins the *next* generation.
    let second = h.malloc(64).unwrap();
    let holder = h.malloc(16).unwrap();
    h.store_cap(&holder, 0, &second).unwrap();
    h.free(second).unwrap();

    h.finish_revocation();
    // `second`'s copy must still be tagged: its generation wasn't painted.
    assert!(h.load_cap(&holder, 0).unwrap().tag());
    assert!(
        h.quarantined_bytes() > 0,
        "second generation still detained"
    );

    // The next epoch takes care of it.
    assert!(h.begin_revocation());
    h.finish_revocation();
    assert!(!h.load_cap(&holder, 0).unwrap().tag());
    assert_eq!(h.stats().sweeps, 2);
}

/// Automatic mode: the policy opens epochs and pumps slices from
/// malloc/free; safety holds throughout a churny run.
#[test]
fn automatic_incremental_mode_is_safe_under_churn() {
    let mut h = incremental_heap(8 << 10);
    let _ballast = h.malloc(128 << 10).unwrap();
    let museum = h.malloc(2048).unwrap();
    let mut slot = 0u64;

    let mut rng = 0xdead_beefu64;
    let mut live = Vec::new();
    for _ in 0..4000 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        if rng.is_multiple_of(3) && !live.is_empty() {
            let cap = live.swap_remove((rng >> 33) as usize % live.len());
            if slot < 128 {
                h.store_cap(&museum, slot * 16, &cap).unwrap();
                slot += 1;
            }
            h.free(cap).unwrap();
        } else {
            live.push(h.malloc(32 + (rng >> 40) % 256).unwrap());
        }
    }
    // Epochs ran incrementally.
    assert!(
        h.stats().sweeps > 0,
        "automatic mode should have opened epochs"
    );

    // Finish any tail epoch, then force a final full revocation.
    h.finish_revocation();
    for cap in live.drain(..) {
        h.free(cap).unwrap();
    }
    h.revoke_now();
    // Every museum exhibit is now dead.
    for s in 0..slot {
        let cap = h.load_cap(&museum, s * 16).unwrap();
        assert!(!cap.tag(), "slot {s} survived");
        assert_eq!(
            h.load_u64(&cap, 0),
            Err(HeapError::Cap(CapError::TagCleared))
        );
    }
}

/// revoke_now during an active epoch completes it first and never
/// double-paints or double-drains.
#[test]
fn stop_the_world_fallback_is_clean() {
    let mut h = incremental_heap(1024);
    let _ballast = h.malloc(256 << 10).unwrap();
    let a = h.malloc(4096).unwrap();
    h.free(a).unwrap();
    assert!(h.begin_revocation());
    h.revoke_step(1024); // partial progress
    let b = h.malloc(4096).unwrap();
    h.free(b).unwrap(); // next generation
    let _ = h.revoke_now(); // finishes epoch, then sweeps generation 2
    assert!(!h.revocation_active());
    assert_eq!(h.quarantined_bytes(), 0);
    // Both a and b's regions are reusable and clean.
    let c = h.malloc(4096).unwrap();
    let d = h.malloc(4096).unwrap();
    assert!(c.tag() && d.tag());
}

#[test]
fn realloc_always_moves_and_revokes_the_old_block() {
    let mut h = CherivokeHeap::new(HeapConfig::small()).expect("heap");
    let _ballast = h.malloc(512 << 10).unwrap();
    let a = h.malloc(64).unwrap();
    h.store_u64(&a, 0, 0x1111).unwrap();
    let inner = h.malloc(32).unwrap();
    h.store_cap(&a, 16, &inner).unwrap(); // a capability inside the object
    let holder = h.malloc(16).unwrap();
    h.store_cap(&holder, 0, &a).unwrap(); // a dangling-copy-to-be

    let b = h.realloc(a, 256).unwrap();
    assert_ne!(
        b.base(),
        a.base(),
        "CHERIvoke realloc never resizes in place"
    );
    // Data and interior capability copied with tags intact.
    assert_eq!(h.load_u64(&b, 0).unwrap(), 0x1111);
    assert!(h.load_cap(&b, 16).unwrap().tag());
    assert_eq!(h.load_cap(&b, 16).unwrap().base(), inner.base());

    // The old block is quarantined; after a sweep the stale copy is dead.
    h.revoke_now();
    assert!(!h.load_cap(&holder, 0).unwrap().tag());
}

#[test]
fn calloc_zeroes_recycled_memory() {
    let mut h = CherivokeHeap::new(HeapConfig::small()).expect("heap");
    let _ballast = h.malloc(512 << 10).unwrap();
    let dirty = h.malloc(4096).unwrap();
    for i in 0..512 {
        h.store_u64(&dirty, i * 8, 0xdead_beef).unwrap();
    }
    h.free(dirty).unwrap();
    h.revoke_now();
    // calloc over the recycled region reads back zero everywhere.
    let clean = h.calloc(512, 8).unwrap();
    assert_eq!(clean.base(), dirty.base(), "memory was recycled");
    for i in 0..512 {
        assert_eq!(h.load_u64(&clean, i * 8).unwrap(), 0, "offset {i}");
    }
    // Overflow is rejected.
    assert!(h.calloc(u64::MAX, 16).is_err());
}

#[test]
fn live_allocations_and_leak_report_track_the_heap() {
    let mut h = CherivokeHeap::new(HeapConfig::small()).expect("heap");
    assert_eq!(h.leak_report(), (0, 0));
    let a = h.malloc(100).unwrap();
    let b = h.malloc(200).unwrap();
    let c = h.malloc(300).unwrap();
    let live: Vec<(u64, u64)> = h.live_allocations().collect();
    assert_eq!(live.len(), 3);
    assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "address order");
    assert_eq!(h.leak_report(), (3, a.length() + b.length() + c.length()));
    // Quarantined chunks leave the report immediately.
    h.free(b).unwrap();
    assert_eq!(h.leak_report().0, 2);
    h.free(a).unwrap();
    h.free(c).unwrap();
    h.revoke_now();
    assert_eq!(h.leak_report(), (0, 0));
}
