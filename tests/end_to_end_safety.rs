//! Cross-crate integration tests: the temporal-safety guarantees of the
//! full system (capability model + tagged memory + allocator + revoker),
//! exercised through the public `CherivokeHeap` API.

use cheri::{CapError, Capability, Perms};
use cherivoke::{
    CherivokeHeap, ConcurrentHeap, HeapConfig, HeapError, RevocationPolicy, ServiceConfig,
};

fn heap() -> CherivokeHeap {
    CherivokeHeap::new(HeapConfig::small()).expect("heap")
}

/// The headline guarantee (paper §4.2): after a sweep, *no* reference to
/// freed memory exists anywhere, even with copies in every root set.
#[test]
fn no_reference_survives_revocation_anywhere() {
    let mut h = heap();
    let _ballast = h.malloc(512 << 10).unwrap();
    let obj = h.malloc(128).unwrap();

    // Scatter eight copies across every kind of sweep root.
    let heap_holder = h.malloc(256).unwrap();
    for i in 0..4 {
        h.store_cap(&heap_holder, i * 16, &obj).unwrap();
    }
    let stack = h.stack_root();
    h.store_cap(&stack, 0, &obj).unwrap();
    let globals = h.globals_root();
    h.store_cap(&globals, 0, &obj).unwrap();
    h.set_register(1, obj);
    h.set_register(30, obj.incremented(64).unwrap()); // wandered copy

    h.free(obj).unwrap();
    let stats = h.revoke_now();
    assert_eq!(stats.caps_revoked, 8);

    for i in 0..4 {
        assert!(!h.load_cap(&heap_holder, i * 16).unwrap().tag());
    }
    assert!(!h.load_cap(&stack, 0).unwrap().tag());
    assert!(!h.load_cap(&globals, 0).unwrap().tag());
    assert!(!h.register(1).tag());
    assert!(!h.register(30).tag());
}

/// Derived (re-bounded, perm-stripped, wandered) capabilities are still
/// attributed to the allocation and revoked with it.
#[test]
fn derived_capabilities_are_revoked_with_their_allocation() {
    let mut h = heap();
    let _ballast = h.malloc(512 << 10).unwrap();
    let obj = h.malloc(256).unwrap();
    let field = obj.set_bounds_exact(obj.base() + 64, 32).unwrap();
    let ro = obj
        .with_perms(Perms::LOAD | Perms::LOAD_CAP | Perms::GLOBAL)
        .unwrap();
    let oob = obj.incremented(256).unwrap();

    let holder = h.malloc(64).unwrap();
    h.store_cap(&holder, 0, &field).unwrap();
    h.store_cap(&holder, 16, &ro).unwrap();
    h.store_cap(&holder, 32, &oob).unwrap();

    h.free(obj).unwrap();
    let stats = h.revoke_now();
    assert_eq!(
        stats.caps_revoked, 3,
        "all derivations share the base attribution"
    );
}

/// Unrelated capabilities are never harmed by a sweep — the precision claim
/// of §4.1 (no false positives).
#[test]
fn sweeps_never_revoke_live_allocations() {
    let mut h = heap();
    let _ballast = h.malloc(256 << 10).unwrap();
    let survivors: Vec<Capability> = (0..50).map(|_| h.malloc(64).unwrap()).collect();
    let holder = h.malloc(1024).unwrap();
    for (i, s) in survivors.iter().enumerate() {
        h.store_cap(&holder, (i * 16) as u64, s).unwrap();
    }
    // Interleave doomed allocations and free them all.
    let doomed: Vec<Capability> = (0..50).map(|_| h.malloc(64).unwrap()).collect();
    for d in doomed {
        h.free(d).unwrap();
    }
    h.revoke_now();
    for (i, s) in survivors.iter().enumerate() {
        let got = h.load_cap(&holder, (i * 16) as u64).unwrap();
        assert!(got.tag(), "survivor {i} was wrongly revoked");
        assert_eq!(got.base(), s.base());
        // And still usable.
        assert!(h.load_u64(&got, 0).is_ok());
    }
}

/// Heavy churn with reuse: after every sweep, memory that gets recycled is
/// unreachable through any old capability (the use-after-reallocation
/// guarantee, exercised hundreds of times).
#[test]
fn reallocation_is_always_safe_under_churn() {
    let mut cfg = HeapConfig::small();
    cfg.policy = RevocationPolicy::with_fraction(0.25);
    let mut h = CherivokeHeap::new(cfg).unwrap();
    let _ballast = h.malloc(128 << 10).unwrap();

    // The "old pointer museum": one holder slot per freed object.
    let museum = h.malloc(4096).unwrap();
    let mut next_slot = 0u64;

    let mut rng: u64 = 0x1234_5678;
    let mut live: Vec<Capability> = Vec::new();
    for step in 0..3000u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if rng.is_multiple_of(3) && !live.is_empty() {
            let victim = live.swap_remove((rng >> 32) as usize % live.len());
            if next_slot < 256 {
                h.store_cap(&museum, next_slot * 16, &victim).unwrap();
                next_slot += 1;
            }
            h.free(victim).unwrap();
        } else {
            let size = 32 + (rng >> 40) % 512;
            live.push(h.malloc(size).unwrap());
        }
        // Every 500 steps, audit the museum: any still-tagged exhibit must
        // point at memory that has NOT been reallocated (i.e. it is still
        // quarantined). Revoked exhibits must fault.
        if step % 500 == 499 {
            for slot in 0..next_slot {
                let exhibit = h.load_cap(&museum, slot * 16).unwrap();
                if exhibit.tag() {
                    // Quarantined: reads work but the memory was never
                    // handed out again — verified by the allocator state.
                    assert!(h.load_u64(&exhibit, 0).is_ok());
                } else {
                    assert_eq!(
                        h.load_u64(&exhibit, 0),
                        Err(HeapError::Cap(CapError::TagCleared))
                    );
                }
            }
        }
    }
    assert!(h.stats().sweeps > 0, "churn must have triggered sweeps");
    assert!(h.stats().caps_revoked > 0);
}

/// Strict mode gives per-free revocation (the §3.7 debugging mode).
#[test]
fn strict_mode_revokes_immediately() {
    let mut cfg = HeapConfig::small();
    cfg.policy.strict = true;
    // Strict per-free revocation requires the stock backend (the
    // sweep-avoidance backends schedule partial sweeps, which validated()
    // rejects as InvalidConfig) — pin it so a CHERIVOKE_BACKEND override
    // in the environment cannot invalidate this config.
    cfg.policy.backend = cherivoke::BackendKind::Stock;
    let mut h = CherivokeHeap::new(cfg).unwrap();
    let obj = h.malloc(64).unwrap();
    let holder = h.malloc(16).unwrap();
    h.store_cap(&holder, 0, &obj).unwrap();
    h.free(obj).unwrap();
    // No revoke_now() call: strict free already swept. (Note: `obj` itself
    // is a Rust-side value — the model's equivalent of a CPU register the
    // simulator does not track; the architectural copies are what the sweep
    // reaches, and the in-memory one is dead.)
    let dangling = h.load_cap(&holder, 0).unwrap();
    assert!(!dangling.tag());
    assert_eq!(
        h.load_u64(&dangling, 0),
        Err(HeapError::Cap(CapError::TagCleared))
    );
    assert_eq!(h.stats().sweeps, 1);
}

/// Capability unforgeability end-to-end: data writes that reproduce a
/// capability's bit pattern do not produce authority.
#[test]
fn capabilities_cannot_be_forged_through_data_writes() {
    let mut h = heap();
    let _ballast = h.malloc(512 << 10).unwrap();
    let secret = h.malloc(64).unwrap();
    h.store_u64(&secret, 0, 0x5ec2e7).unwrap();

    // The "attacker" writes the exact 16 bytes of the capability into
    // memory as data, via a perfectly legitimate buffer it owns.
    let buffer = h.malloc(64).unwrap();
    let word = cheri::CapWord::encode(&secret);
    let bytes = word.to_le_bytes();
    let lo = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let hi = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    h.store_u64(&buffer, 0, lo).unwrap();
    h.store_u64(&buffer, 8, hi).unwrap();

    // Reading it back as a capability yields an untagged word: no authority.
    let forged = h.load_cap(&buffer, 0).unwrap();
    assert!(!forged.tag());
    assert_eq!(
        forged.address(),
        secret.address(),
        "bit pattern copied faithfully"
    );
    assert_eq!(
        h.load_u64(&forged, 0),
        Err(HeapError::Cap(CapError::TagCleared))
    );
}

/// Freeing through anything but the exact allocation capability fails.
#[test]
fn free_validates_provenance() {
    let mut h = heap();
    let _ballast = h.malloc(512 << 10).unwrap();
    let obj = h.malloc(128).unwrap();

    // Interior-bounded derivation: rejected.
    let interior = obj.set_bounds_exact(obj.base() + 16, 16).unwrap();
    assert!(matches!(h.free(interior), Err(HeapError::Alloc(_))));

    // Untagged copy: rejected.
    assert_eq!(
        h.free(obj.cleared()),
        Err(HeapError::Cap(CapError::TagCleared))
    );

    // Stack/global capabilities are not heap allocations.
    assert!(matches!(h.free(h.stack_root()), Err(HeapError::Alloc(_))));

    // The real thing works (address may have wandered — base decides).
    let wandered = obj.incremented(64).unwrap();
    h.free(wandered).unwrap();
}

/// The quarantine + shadow memory accounting matches the configured
/// overhead envelope.
#[test]
fn memory_overhead_stays_within_envelope() {
    let mut cfg = HeapConfig::small();
    cfg.policy = RevocationPolicy::with_fraction(0.25);
    let mut h = CherivokeHeap::new(cfg).unwrap();
    let _ballast = h.malloc(256 << 10).unwrap();
    for _ in 0..2000 {
        let c = h.malloc(256).unwrap();
        h.free(c).unwrap();
    }
    let s = h.stats();
    let footprint_ratio = s.alloc.peak_footprint_bytes as f64 / s.alloc.peak_live_bytes as f64;
    assert!(
        footprint_ratio <= 1.30,
        "quarantine should cap near 25% of live, got {footprint_ratio}"
    );
    // Shadow is 1/128 of the heap (paper §3.2: "less than 1% of the heap").
    assert!(h.shadow_bytes() * 128 >= 1 << 20);
    assert!((h.shadow_bytes() as f64) < 0.01 * (1 << 20) as f64 * 1.3);
}

/// Multi-threaded use-after-free on the concurrent service: mutator
/// threads churn in parallel while each keeps stashing dangling
/// **cross-shard** copies of capabilities it frees. At every probe, a
/// still-tagged stale copy must read back the exact bytes the thread wrote
/// (the memory is quarantined, never reallocated); a revoked copy must be
/// untagged. After the final drain no stale copy survives anywhere.
#[test]
fn concurrent_churn_has_no_use_after_reallocation() {
    const THREADS: usize = 4;
    const OPS: u64 = 2_000;
    let heap = ConcurrentHeap::new(ServiceConfig::small()).unwrap();

    // Each thread's stash holder lives on the *next* shard, so every
    // dangling copy crosses shards — the §3.5 foreign-sweep path.
    let holders: Vec<Capability> = (0..THREADS)
        .map(|t| heap.handle_on((t + 1) % THREADS).malloc(32 * 16).unwrap())
        .collect();

    std::thread::scope(|scope| {
        for (t, holder) in holders.iter().enumerate() {
            let client = heap.handle_on(t);
            scope.spawn(move || {
                // slot -> session id written to the stashed (now freed)
                // allocation. None = slot's copy not expected to be stale.
                let mut expect: [Option<u64>; 32] = [None; 32];
                for i in 0..OPS {
                    let id = (t as u64) << 32 | i;
                    let obj = client.malloc(64 + (i % 13) * 32).unwrap();
                    client.store_u64(&obj, 0, id).unwrap();
                    let slot = i % 32;
                    client.store_cap(holder, slot * 16, &obj).unwrap();
                    client.free(obj).unwrap();
                    expect[slot as usize] = Some(id);

                    // Probe an older stale stash: use-after-free attempt.
                    let probe = (i * 7 + 3) % 32;
                    if let Some(id) = expect[probe as usize] {
                        let stale = client.load_cap(holder, probe * 16).unwrap();
                        if stale.tag() {
                            // Not yet revoked: must still be quarantined,
                            // so the bytes are exactly as this thread left
                            // them — reallocation never exposed the memory.
                            assert_eq!(client.load_u64(&stale, 0), Ok(id));
                        }
                        // Untagged = revoked before reuse: the safe fault.
                    }
                }
            });
        }
    });

    heap.revoke_all_now();
    assert_eq!(
        heap.quarantined_bytes(),
        0,
        "final drain leaves quarantine empty"
    );
    let client = heap.handle();
    for holder in &holders {
        for slot in 0..32 {
            let cap = client.load_cap(holder, slot * 16).unwrap();
            assert!(!cap.tag(), "stale cross-shard stash survived revocation");
        }
    }
    let stats = heap.stats();
    assert!(
        stats.foreign_sweeps > 0,
        "cross-shard handshake must have run"
    );
}

/// An OOM caused by quarantine pressure recovers via an emergency sweep and
/// stays safe: the recycled memory is unreachable through any old pointers.
#[test]
fn emergency_sweep_preserves_safety() {
    let mut cfg = HeapConfig::small();
    cfg.policy.quarantine.fraction = f64::INFINITY;
    let mut h = CherivokeHeap::new(cfg).unwrap();
    let holder = h.malloc(4096).unwrap();
    let mut slot = 0;
    let mut freed = Vec::new();
    // Fill most of the heap and free it all (everything quarantined).
    while let Ok(c) = h.malloc(32 << 10) {
        if slot < 256 {
            h.store_cap(&holder, slot * 16, &c).unwrap();
            slot += 1;
        }
        freed.push(c);
        if freed.len() >= 25 {
            break;
        }
    }
    for c in freed {
        h.free(c).unwrap();
    }
    // This malloc cannot be satisfied without draining quarantine.
    let big = h.malloc(512 << 10).unwrap();
    assert!(big.tag());
    assert_eq!(h.stats().oom_sweeps, 1);
    // Every stored copy of the freed capabilities is now dead.
    for i in 0..slot {
        assert!(!h.load_cap(&holder, i * 16).unwrap().tag());
    }
}
