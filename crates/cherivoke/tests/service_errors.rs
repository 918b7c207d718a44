//! Error-path tests for [`ConcurrentHeap`]: every abuse of the API must
//! come back as the documented typed [`HeapError`] — on *every* shard —
//! and must never panic or wedge the service.

use cheri::CapError;
use cherivoke::{ConcurrentHeap, HeapError, ServiceConfig};
use cvkalloc::AllocError;

fn service() -> ConcurrentHeap {
    ConcurrentHeap::new(ServiceConfig::small()).unwrap()
}

#[test]
fn malloc_after_exhaustion_is_typed_oom_on_every_shard() {
    let heap = service();
    for shard in 0..heap.shards() {
        let client = heap.handle_on(shard);
        let mut held = Vec::new();
        let err = loop {
            match client.malloc(64 << 10) {
                Ok(cap) => held.push(cap),
                Err(e) => break e,
            }
            assert!(held.len() < 1 << 10, "shard {shard} never filled");
        };
        assert!(
            matches!(err, HeapError::OutOfMemory { .. }),
            "shard {shard}: expected OutOfMemory, got {err:?}"
        );
        // The shard recovers fully once memory is returned.
        for cap in held {
            client.free(cap).unwrap();
        }
        heap.revoke_all_now();
        assert!(client.malloc(64 << 10).is_ok());
    }
}

#[test]
fn double_free_is_typed_invalid_free_on_every_shard() {
    let heap = service();
    for shard in 0..heap.shards() {
        let client = heap.handle_on(shard);
        let cap = client.malloc(128).unwrap();
        client.free(cap).unwrap();
        // The register copy still carries a tag; the allocator rejects the
        // second free of the same (still-quarantined) chunk.
        let err = client.free(cap).unwrap_err();
        assert!(
            matches!(err, HeapError::Alloc(AllocError::InvalidFree { .. })),
            "shard {shard}: expected InvalidFree, got {err:?}"
        );
    }
    // Double frees corrupted nothing: the quarantine still drains.
    heap.revoke_all_now();
    assert_eq!(heap.quarantined_bytes(), 0);
}

#[test]
fn free_of_revoked_capability_is_typed_tag_cleared() {
    let heap = service();
    for shard in 0..heap.shards() {
        let client = heap.handle_on(shard);
        let victim = client.malloc(64).unwrap();
        let stash = heap
            .handle_on((shard + 1) % heap.shards())
            .malloc(16)
            .unwrap();
        client.store_cap(&stash, 0, &victim).unwrap();
        client.free(victim).unwrap();
        heap.revoke_all_now();
        // Pick up the architecturally-revoked copy and try to free it.
        // The sweep cleared the whole capability word, so the copy either
        // fails tag validation or (bounds gone too) routes to no shard —
        // both documented typed errors, never a panic.
        let revoked = client.load_cap(&stash, 0).unwrap();
        assert!(!revoked.tag());
        let err = client.free(revoked).unwrap_err();
        assert!(
            matches!(
                err,
                HeapError::Cap(CapError::TagCleared) | HeapError::NotAnAllocation { .. }
            ),
            "shard {shard}: expected TagCleared/NotAnAllocation, got {err:?}"
        );
        client.free(stash).unwrap();
    }
}

#[test]
fn out_of_bounds_store_cap_is_typed_bounds_error() {
    let heap = service();
    for shard in 0..heap.shards() {
        let client = heap.handle_on(shard);
        let slot = client.malloc(16).unwrap();
        let value = client.malloc(32).unwrap();
        // Offset 16 needs bytes [16, 32) — outside the 16-byte slot.
        let err = client.store_cap(&slot, 16, &value).unwrap_err();
        assert!(
            matches!(err, HeapError::Cap(CapError::BoundsViolation { .. })),
            "shard {shard}: expected BoundsViolation, got {err:?}"
        );
        // And far outside any shard: same typed error, no panic.
        let err = client.store_cap(&slot, 1 << 40, &value).unwrap_err();
        assert!(matches!(
            err,
            HeapError::Cap(CapError::BoundsViolation { .. })
        ));
        client.free(slot).unwrap();
        client.free(value).unwrap();
    }
}

#[test]
fn free_of_foreign_address_is_not_an_allocation() {
    let heap = service();
    // A capability whose base lies outside every shard routes nowhere.
    let cap = cheri::Capability::root_rw(0x10, 0x10);
    let err = heap.handle().free(cap).unwrap_err();
    assert!(matches!(err, HeapError::NotAnAllocation { .. }));
}
