//! Property tests for allocator invariants under arbitrary operation
//! sequences: tiling, non-overlap, conservation, quarantine isolation.

use cvkalloc::{CherivokeAllocator, ChunkMap, ChunkState, DlAllocator};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BASE: u64 = 0x1000_0000;
const SIZE: u64 = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    Malloc(u64),
    /// Free the n-th oldest live allocation (mod live count).
    Free(usize),
    Drain,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            5 => (1u64..8192).prop_map(Op::Malloc),
            4 => (0usize..64).prop_map(Op::Free),
            1 => Just(Op::Drain),
        ],
        1..200,
    )
}

/// Full coalescing: no two adjacent chunks are both free, and no free
/// chunk directly precedes the top chunk (it would have folded into it).
fn assert_coalesced(chunks: &ChunkMap) {
    let mut prev: Option<(u64, ChunkState)> = None;
    for (addr, _, state) in chunks.iter() {
        if let Some((paddr, ChunkState::Free)) = prev {
            assert!(
                !matches!(state, ChunkState::Free | ChunkState::Top),
                "free chunk {paddr:#x} not coalesced with its {state:?} successor {addr:#x}"
            );
        }
        prev = Some((addr, state));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The base allocator never hands out overlapping blocks, keeps its
    /// chunk map tiling the heap, and conserves bytes.
    #[test]
    fn dlmalloc_invariants(ops in ops()) {
        let mut heap = DlAllocator::new(BASE, SIZE);
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Malloc(size) => {
                    if let Ok(b) = heap.malloc(size) {
                        // Non-overlap with every live block.
                        for (&a, &s) in &live {
                            prop_assert!(
                                b.addr + b.size <= a || a + s <= b.addr,
                                "{:#x}+{} overlaps {:#x}+{}", b.addr, b.size, a, s
                            );
                        }
                        prop_assert!(b.addr >= BASE && b.addr + b.size <= BASE + SIZE);
                        prop_assert!(b.size >= size);
                        prop_assert_eq!(b.addr % 16, 0);
                        live.insert(b.addr, b.size);
                    }
                }
                Op::Free(n) => {
                    if !live.is_empty() {
                        let &addr = live.keys().nth(n % live.len()).expect("key");
                        live.remove(&addr);
                        prop_assert!(heap.free(addr).is_ok());
                        assert_coalesced(heap.chunks());
                    }
                }
                Op::Drain => {}
            }
            heap.chunks().assert_tiling();
        }
        let live_sum: u64 = live.values().sum();
        prop_assert_eq!(heap.live_bytes(), live_sum);
        prop_assert_eq!(heap.free_bytes(), SIZE - live_sum);
    }

    /// The quarantining allocator: freed memory is never re-issued before a
    /// drain, and quarantined bytes are conserved exactly.
    #[test]
    fn quarantine_isolation(ops in ops()) {
        let mut heap = CherivokeAllocator::new(DlAllocator::new(BASE, SIZE), f64::INFINITY);
        let mut live: BTreeMap<u64, u64> = BTreeMap::new();
        let mut quarantined: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Malloc(size) => {
                    if let Ok(b) = heap.malloc(size) {
                        // The new block must not intersect any quarantined
                        // byte — the core CHERIvoke guarantee.
                        for (&a, &s) in &quarantined {
                            prop_assert!(
                                b.addr + b.size <= a || a + s <= b.addr,
                                "malloc {:#x}+{} reused quarantined {:#x}+{}",
                                b.addr, b.size, a, s
                            );
                        }
                        live.insert(b.addr, b.size);
                    }
                }
                Op::Free(n) => {
                    if !live.is_empty() {
                        let &addr = live.keys().nth(n % live.len()).expect("key");
                        let size = live.remove(&addr).expect("size");
                        prop_assert!(heap.free(addr).is_ok());
                        quarantined.insert(addr, size);
                        assert_coalesced(heap.inner().chunks());
                    }
                }
                Op::Drain => {
                    heap.drain_quarantine();
                    quarantined.clear();
                    assert_coalesced(heap.inner().chunks());
                }
            }
            let qsum: u64 = quarantined.values().sum();
            prop_assert_eq!(heap.quarantined_bytes(), qsum);
            heap.inner().chunks().assert_tiling();
            // The aggregated sizes the quarantine keeps are the chunk
            // map's extents.
            heap.for_each_quarantined_range(|addr, size| {
                assert_eq!(
                    heap.inner().chunks().get(addr),
                    Some((size, ChunkState::Quarantined)),
                    "quarantined range {addr:#x}+{size}"
                );
            });
        }
        // Quarantined ranges must cover exactly the quarantined bytes.
        let ranges_sum: u64 = heap.quarantined_ranges().iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(ranges_sum, heap.quarantined_bytes());
    }

    /// Sealing is a partition: sealed + open ranges together equal the
    /// pre-seal quarantine, and draining the sealed generation leaves the
    /// open one intact.
    #[test]
    fn seal_partitions_quarantine(
        sizes in proptest::collection::vec(16u64..2048, 2..40),
        at in 1usize..39,
    ) {
        let mut heap = CherivokeAllocator::new(DlAllocator::new(BASE, SIZE), f64::INFINITY);
        let blocks: Vec<_> = sizes.iter().map(|&s| heap.malloc(s).expect("space")).collect();
        let split = at.min(blocks.len() - 1);
        for b in &blocks[..split] {
            heap.free(b.addr).expect("free");
        }
        let before = heap.quarantined_bytes();
        let sealed = heap.seal_quarantine().to_vec();
        // Each sealed extent is exactly the chunk the map holds there.
        for &(addr, size) in &sealed {
            prop_assert_eq!(
                heap.inner().chunks().get(addr),
                Some((size, ChunkState::Quarantined))
            );
        }
        let sealed_sum: u64 = sealed.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(sealed_sum, before);
        prop_assert_eq!(heap.sealed_bytes(), before);

        // Free the rest: goes to the open generation.
        for b in &blocks[split..] {
            heap.free(b.addr).expect("free");
        }
        let open_bytes = heap.quarantined_bytes() - heap.sealed_bytes();
        heap.drain_sealed();
        assert_coalesced(heap.inner().chunks());
        prop_assert_eq!(heap.quarantined_bytes(), open_bytes);
        prop_assert_eq!(heap.sealed_bytes(), 0);
        heap.inner().chunks().assert_tiling();
        // No chunk is left in a stale Quarantined state beyond the open set.
        let q_chunks = heap.inner().chunks().bytes_in_state(ChunkState::Quarantined);
        prop_assert_eq!(q_chunks, open_bytes);
    }
}
