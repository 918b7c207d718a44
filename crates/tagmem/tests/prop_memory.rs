//! Property tests for tagged-memory invariants: tag/data coupling,
//! CLoadTags consistency, and CapDirty soundness.

use cheri::Capability;
use proptest::prelude::*;
use tagmem::{AddressSpace, SegmentKind, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

const BASE: u64 = 0x10_0000;
const LEN: u64 = 1 << 16;

fn granule_addr() -> impl Strategy<Value = u64> {
    (0u64..LEN / GRANULE_SIZE).prop_map(|g| BASE + g * GRANULE_SIZE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any data write of any width and placement clears exactly the tags of
    /// the granules it touches, and no others.
    #[test]
    fn data_writes_clear_only_covered_tags(
        cap_addrs in proptest::collection::btree_set(granule_addr(), 1..20),
        write_off in 0u64..(LEN - 64),
        write_len in 1usize..64,
    ) {
        let mut mem = TaggedMemory::new(BASE, LEN);
        let cap = Capability::root_rw(BASE, 64);
        for &a in &cap_addrs {
            mem.write_cap(a, &cap).unwrap();
        }
        let waddr = BASE + write_off;
        mem.write_bytes(waddr, &vec![0xa5u8; write_len]).unwrap();
        let wfirst = waddr / GRANULE_SIZE;
        let wlast = (waddr + write_len as u64 - 1) / GRANULE_SIZE;
        for &a in &cap_addrs {
            let g = a / GRANULE_SIZE;
            let covered = g >= wfirst && g <= wlast;
            prop_assert_eq!(mem.tag_at(a), !covered, "granule at {:#x}", a);
        }
    }

    /// load_tags agrees with per-granule tag_at for every line.
    #[test]
    fn cloadtags_matches_tag_bits(
        cap_addrs in proptest::collection::btree_set(granule_addr(), 0..30),
    ) {
        let mut mem = TaggedMemory::new(BASE, LEN);
        let cap = Capability::root_rw(BASE, 64);
        for &a in &cap_addrs {
            mem.write_cap(a, &cap).unwrap();
        }
        let mut line = BASE;
        while line < BASE + LEN {
            let mask = mem.load_tags(line).unwrap();
            for i in 0..8u64 {
                let expect = mem.tag_at(line + i * GRANULE_SIZE);
                prop_assert_eq!(mask >> i & 1 == 1, expect);
            }
            line += 128;
        }
    }

    /// The tag bits a CLoadTags-filtered sweep reads never claim a line or
    /// page is empty when it holds a tag (no false negatives — a sweep may
    /// never miss a pointer).
    #[test]
    fn tag_table_has_no_false_negatives(
        cap_addrs in proptest::collection::btree_set(granule_addr(), 0..40),
    ) {
        let mut mem = TaggedMemory::new(BASE, LEN);
        let cap = Capability::root_rw(BASE, 64);
        for &a in &cap_addrs {
            mem.write_cap(a, &cap).unwrap();
        }
        for &a in &cap_addrs {
            let mask = mem.load_tags(a).unwrap();
            prop_assert_eq!(mask >> ((a % 128) / GRANULE_SIZE) & 1, 1);
            prop_assert!(mem.count_tags_in(a & !(PAGE_SIZE - 1), PAGE_SIZE) > 0);
        }
        prop_assert_eq!(mem.tag_count(), cap_addrs.len() as u64);
    }

    /// CapDirty is sound: every page holding a tagged capability is dirty.
    /// (It may be over-approximate — false positives are allowed — but a
    /// clean page must never hold a tag.)
    #[test]
    fn capdirty_is_sound(
        stores in proptest::collection::vec((granule_addr(), any::<bool>()), 1..50),
    ) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, BASE, LEN)
            .build();
        let cap = Capability::root_rw(BASE, 64);
        for &(addr, tagged) in &stores {
            if tagged {
                space.store_cap(addr, &cap).unwrap();
            } else {
                // Data store at the same location.
                space.store_u64(addr, 0x1234).unwrap();
            }
        }
        let heap = space.segment(SegmentKind::Heap).unwrap().mem().clone();
        for a in heap.tagged_addrs() {
            prop_assert!(
                space.page_table().is_cap_dirty(a),
                "page of tagged granule {a:#x} not CapDirty"
            );
        }
        // Pages never named in a store can't be dirty.
        let touched: std::collections::BTreeSet<u64> =
            stores.iter().map(|&(a, _)| a / PAGE_SIZE).collect();
        for page in (BASE / PAGE_SIZE)..((BASE + LEN) / PAGE_SIZE) {
            if !touched.contains(&page) {
                prop_assert!(!space.page_table().is_cap_dirty(page * PAGE_SIZE));
            }
        }
    }

    /// Capability round-trip through memory preserves the decoded view, and
    /// clearing the tag in memory never destroys data.
    #[test]
    fn cap_memory_roundtrip(addr in granule_addr(), obj_base in 0u64..(1 << 30), obj_len in 1u64..(1 << 16)) {
        let mut mem = TaggedMemory::new(BASE, LEN);
        let cap = Capability::root().set_bounds(obj_base, obj_len).unwrap();
        mem.write_cap(addr, &cap).unwrap();
        let got = mem.read_cap(addr).unwrap();
        prop_assert_eq!(got.base(), cap.base());
        prop_assert_eq!(got.top(), cap.top());
        prop_assert!(got.tag());
        let (before, _) = mem.read_cap_word(addr).unwrap();
        mem.clear_tag_at(addr);
        let (after, tag) = mem.read_cap_word(addr).unwrap();
        prop_assert_eq!(before, after);
        prop_assert!(!tag);
    }
}
