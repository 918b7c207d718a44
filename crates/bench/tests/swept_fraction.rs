//! The CapDirty swept-fraction probe: how much of the sweepable address
//! space one CapDirty-filtered revocation pass visits, on a heap whose
//! pages hold capabilities at a Table 2 workload's pointer page density.
//!
//! Pure counts, no wall clock, so the fraction is pinned bit for bit: any
//! change means the visit set now walks more or fewer pages.

use workloads::profiles;

/// A 16 MiB heap tiled with ~60 KiB arenas, each holding capabilities to
/// itself on its first page and on further pages at
/// `pointer_page_density`, with exactly one arena freed. One `revoke_now`
/// then reports the share of the sweepable address space it swept.
fn swept_fraction_probe(pointer_page_density: f64, seed: u64) -> f64 {
    let mut policy = cherivoke::RevocationPolicy::paper_default();
    policy.use_capdirty = true;
    policy.strict = false;
    policy.incremental_slice_bytes = None;
    policy.sweep_workers = 1;
    policy.quarantine.fraction = f64::INFINITY; // only the explicit pass sweeps
    let config = cherivoke::HeapConfig {
        policy,
        ..cherivoke::HeapConfig::default()
    };
    let mut heap = cherivoke::CherivokeHeap::new(config).expect("probe heap");

    const ARENA_BYTES: u64 = 60 << 10;
    const PAGE: u64 = 4096;
    let mut arenas = Vec::new();
    while arenas.len() < 4096 {
        match heap.malloc(ARENA_BYTES) {
            Ok(cap) => arenas.push(cap),
            Err(_) => break, // heap full: the tiling is complete
        }
    }
    assert!(
        arenas.len() >= 32,
        "probe heap tiled {} arenas",
        arenas.len()
    );
    // Each arena stores a capability to itself on its first page, and on
    // each further page with probability `pointer_page_density`, via a
    // fixed-seed LCG.
    let mut rng = seed | 1;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as f64 / (1u64 << 31) as f64
    };
    for arena in &arenas {
        for page in 0..arena.length() / PAGE {
            if page == 0 || next() < pointer_page_density {
                heap.store_cap(arena, page * PAGE, arena)
                    .expect("probe store");
            }
        }
    }
    let victim = arenas.swap_remove(0);
    heap.free(victim).expect("probe free");
    let stats = heap.revoke_now();
    assert!(stats.caps_revoked > 0, "the victim arena held a capability");
    let sweepable: u64 = heap
        .space()
        .segments()
        .iter()
        .filter(|s| s.kind().sweepable())
        .map(|s| s.mem().len())
        .sum();
    stats.bytes_swept as f64 / sweepable as f64
}

#[test]
fn swept_fraction_probe_is_deterministic() {
    for (workload, want) in [
        ("omnetpp", 0.9254261363636364f64),
        ("xalancbmk", 0.8425662878787878),
    ] {
        let density = profiles::by_name(workload).unwrap().pointer_page_density;
        let got = swept_fraction_probe(density, 42);
        assert_eq!(got.to_bits(), want.to_bits(), "{workload}: {got}");
    }
}
