//! The peer sweep revokes what a whole-space sweep revokes: one heap image
//! — capabilities into a foreign painted quarantine in the heap, the
//! stack, the globals and the registers, beside capabilities the sweep
//! must keep and a CapDirty page that holds no capability — swept once by
//! [`CherivokeHeap::sweep_foreign`] (which visits only the CapDirty runs
//! of its visit set) and once by an unfiltered sweep of every sweepable
//! segment and the registers ends in the same memory, tags and registers,
//! with the same capabilities inspected and revoked. The peer sweep's
//! bytes and skipped pages are its visit set's sizes, the false positive
//! is re-cleaned and every page still holding a capability stays
//! CapDirty. A second round of stores and paint checks the warm path,
//! whose run buffer is recycled.

use cheri::Capability;
use cherivoke::{CherivokeHeap, HeapConfig, RevocationPolicy};
use revoker::{sweep_register_file, visit_set, NoFilter, ShadowMap, SweepEngine, SweepStats};
use tagmem::{NUM_CAP_REGS, PAGE_SIZE};

/// A peer heap's range: disjoint from the swept heap, as in a
/// `ConcurrentHeap`.
const FOREIGN_BASE: u64 = 0x2000_0000;
const FOREIGN_LEN: u64 = 1 << 20;

/// A capability to `len` bytes of the peer heap at `offset`.
fn foreign(offset: u64, len: u64) -> Capability {
    Capability::root_rw(FOREIGN_BASE + offset, len)
}

/// Builds the image: the same calls on every heap, so every copy is
/// identical. Returns the heap and its own allocations.
fn image(use_capdirty: bool) -> (CherivokeHeap, Vec<Capability>) {
    let mut config = HeapConfig::small();
    config.policy = RevocationPolicy {
        use_capdirty,
        ..RevocationPolicy::paper_default()
    };
    let mut heap = CherivokeHeap::new(config).expect("heap");
    // Blocks spread over many heap pages; most pages stay clean.
    let blocks: Vec<Capability> = (0..12)
        .map(|i| heap.malloc(256 + i * 1024).expect("malloc"))
        .collect();
    for (i, block) in blocks.iter().enumerate() {
        let i = i as u64;
        // Into the painted part of the peer, into its unpainted part, and
        // into this heap.
        heap.store_cap(block, 0, &foreign(i * 64, 64)).unwrap();
        heap.store_cap(block, 32, &foreign(FOREIGN_LEN / 2 + i * 64, 64))
            .unwrap();
        heap.store_cap(block, 64, &blocks[(i as usize + 1) % blocks.len()])
            .unwrap();
    }
    // A CapDirty false positive: a page whose only capability was
    // overwritten by data. Both sweeps must re-clean it.
    let fp = heap.malloc(2 * PAGE_SIZE).expect("malloc");
    heap.store_cap(&fp, PAGE_SIZE, &foreign(0, 16)).unwrap();
    heap.store_u64(&fp, PAGE_SIZE, 7).unwrap();
    // Stack and globals roots, at both ends of each segment.
    let (stack, globals) = (heap.stack_root(), heap.globals_root());
    for root in [stack, globals] {
        let last = root.length() - 16;
        heap.store_cap(&root, 0, &foreign(128, 32)).unwrap();
        heap.store_cap(&root, 3 * PAGE_SIZE + 16, &foreign(FOREIGN_LEN - 64, 64))
            .unwrap();
        heap.store_cap(&root, last, &foreign(4096, 16)).unwrap();
    }
    // Registers: one dangling, one into the unpainted part, one local.
    heap.set_register(1, foreign(512, 16));
    heap.set_register(2, foreign(FOREIGN_LEN / 2, 16));
    heap.set_register(3, blocks[0]);
    let mut all = blocks;
    all.push(fp);
    (heap, all)
}

/// The second round: more capabilities, to be swept against a shadow map
/// painted over a different span.
fn second_round(heap: &mut CherivokeHeap, blocks: &[Capability]) {
    for (i, block) in blocks.iter().enumerate().step_by(3) {
        let i = i as u64;
        heap.store_cap(block, 128, &foreign(FOREIGN_LEN / 2 + 4096 + i * 16, 16))
            .unwrap();
    }
    heap.set_register(4, foreign(FOREIGN_LEN / 2 + 8192, 16));
}

/// The oracle: every sweepable segment whole, unfiltered, then the
/// registers.
fn whole_space_sweep(heap: &mut CherivokeHeap, shadow: &ShadowMap) -> SweepStats {
    let kernel = heap.policy().kernel;
    let mut runs = Vec::new();
    visit_set(heap.space(), false, &mut runs);
    let (segments, regs, _) = heap.space_mut().sweep_parts_mut();
    let mut stats = SweepEngine::new(kernel).sweep(segments, &runs, NoFilter, shadow);
    stats += sweep_register_file(regs, shadow);
    stats
}

/// Every page of every sweepable segment that holds a tagged granule is
/// CapDirty.
fn tagged_pages_are_dirty(heap: &CherivokeHeap) -> bool {
    let space = heap.space();
    space
        .segments()
        .iter()
        .filter(|s| s.kind().sweepable())
        .flat_map(|s| s.mem().tagged_addrs())
        .all(|addr| space.page_table().is_cap_dirty(addr))
}

fn registers(heap: &CherivokeHeap) -> Vec<Capability> {
    (0..NUM_CAP_REGS).map(|i| heap.register(i)).collect()
}

/// Sweeps both copies against `shadow` and checks they agree.
fn sweep_both(new: &mut CherivokeHeap, old: &mut CherivokeHeap, shadow: &ShadowMap) -> SweepStats {
    let mut runs = Vec::new();
    let clean = visit_set(new.space(), new.policy().use_capdirty, &mut runs);
    let got = new.sweep_foreign(shadow);
    let want = whole_space_sweep(old, shadow);
    assert_eq!(
        new.dump().segments(),
        old.dump().segments(),
        "memory or tags differ"
    );
    assert_eq!(registers(new), registers(old), "registers differ");
    assert!(
        tagged_pages_are_dirty(new),
        "a page with a capability was cleaned"
    );
    let visited: u64 = runs.iter().map(|&(_, len)| len).sum();
    assert_eq!(got.bytes_swept, visited, "bytes_swept");
    assert_eq!(got.pages_skipped, clean, "pages_skipped");
    assert_eq!(got.caps_inspected, want.caps_inspected, "caps_inspected");
    assert_eq!(got.caps_revoked, want.caps_revoked, "caps_revoked");
    assert_eq!(got.regs_revoked, want.regs_revoked, "regs_revoked");
    got
}

fn check(use_capdirty: bool) {
    let (mut new, blocks) = image(use_capdirty);
    let (mut old, _) = image(use_capdirty);
    let fp_page = blocks.last().unwrap().base() + PAGE_SIZE;
    assert!(new.space().page_table().is_cap_dirty(fp_page));

    let mut shadow = ShadowMap::new(FOREIGN_BASE, FOREIGN_LEN);
    shadow.paint(FOREIGN_BASE, FOREIGN_LEN / 2);
    let first = sweep_both(&mut new, &mut old, &shadow);
    // 12 heap, 4 stack and globals, 1 register capability dangle.
    assert_eq!(first.caps_revoked, 12 + 4 + 1);
    assert_eq!(first.regs_revoked, 1);
    if use_capdirty {
        assert!(first.pages_skipped > 0, "clean pages are left out");
        assert!(
            first.bytes_swept < 32 * PAGE_SIZE,
            "only dirty pages are swept, not the segments: {} B",
            first.bytes_swept
        );
        assert!(
            !new.space().page_table().is_cap_dirty(fp_page),
            "the false positive is purged"
        );
    } else {
        assert_eq!(first.pages_skipped, 0);
        assert!(new.space().page_table().is_cap_dirty(fp_page));
    }

    // Warm path: new capabilities, a different painted span.
    second_round(&mut new, &blocks);
    second_round(&mut old, &blocks);
    shadow.clear(FOREIGN_BASE, FOREIGN_LEN / 2);
    shadow.paint(FOREIGN_BASE + FOREIGN_LEN / 2, FOREIGN_LEN / 4);
    let second = sweep_both(&mut new, &mut old, &shadow);
    assert!(second.caps_revoked > 0 && second.regs_revoked == 2);
}

#[test]
fn peer_sweep_equals_whole_space_sweep_with_capdirty() {
    check(true);
}

#[test]
fn peer_sweep_equals_whole_space_sweep_without_capdirty() {
    check(false);
}
