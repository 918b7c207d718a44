//! Property tests for the revocation machinery: all kernels compute the
//! same result, sweeps are precise (revoke exactly the painted bases), and
//! shadow-map painting matches a reference implementation.

use cheri::Capability;
use proptest::prelude::*;
use revoker::{Kernel, NoFilter, ShadowMap, SweepEngine, SweepStats};
use tagmem::{TaggedMemory, GRANULE_SIZE};

const HEAP: u64 = 0x1000_0000;
const LEN: u64 = 1 << 16;

#[derive(Debug, Clone, Copy)]
struct PlantedCap {
    /// Granule slot the capability is stored in.
    slot: u64,
    /// The object (granule index) it points to.
    obj: u64,
}

fn planted() -> impl Strategy<Value = Vec<PlantedCap>> {
    proptest::collection::vec(
        (0u64..LEN / GRANULE_SIZE, 0u64..LEN / GRANULE_SIZE)
            .prop_map(|(slot, obj)| PlantedCap { slot, obj }),
        0..80,
    )
}

fn painted_granules() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..LEN / GRANULE_SIZE, 0..40)
}

fn build(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, LEN);
    for p in plants {
        let cap = Capability::root_rw(HEAP + p.obj * GRANULE_SIZE, GRANULE_SIZE);
        mem.write_cap(HEAP + p.slot * GRANULE_SIZE, &cap)
            .expect("in range");
    }
    let mut shadow = ShadowMap::new(HEAP, LEN);
    // Dedupe: painting the same granule twice violates the shadow map's
    // strict paint/clear contract (each granule painted once per
    // quarantine generation).
    let paint: std::collections::BTreeSet<u64> = paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, shadow)
}

/// One sequential whole-segment sweep with `kernel`.
fn sweep(kernel: Kernel, mem: &mut TaggedMemory, shadow: &ShadowMap) -> SweepStats {
    SweepEngine::new(kernel).sweep(std::slice::from_mut(mem), &[(HEAP, LEN)], NoFilter, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every kernel, and a three-worker sweep, produces byte-identical
    /// post-sweep memory and identical statistics.
    #[test]
    fn kernels_are_equivalent(plants in planted(), paint in painted_granules()) {
        let kernels = [
            Kernel::Simple,
            Kernel::Unrolled,
            Kernel::Fast,
            Kernel::Simd,
        ];
        let mut outcomes = Vec::new();
        for kernel in kernels {
            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep(kernel, &mut mem, &shadow);
            outcomes.push((mem, stats));
        }
        let (mut mem, shadow) = build(&plants, &paint);
        let stats = SweepEngine::new(Kernel::Simd).with_workers(3).sweep(
            std::slice::from_mut(&mut mem),
            &[(HEAP, LEN)],
            NoFilter,
            &shadow,
        );
        outcomes.push((mem, stats));
        for other in &outcomes[1..] {
            prop_assert_eq!(&outcomes[0].0, &other.0, "memory diverged");
            prop_assert_eq!(outcomes[0].1, other.1);
        }
    }

    /// Precision: the sweep revokes exactly the capabilities whose base is
    /// painted — no false positives, no false negatives.
    #[test]
    fn sweep_is_precise(plants in planted(), paint in painted_granules()) {
        let (mut mem, shadow) = build(&plants, &paint);
        // Note: later plants may overwrite earlier slots; read ground truth
        // from memory, not from the plant list.
        let ground_truth: Vec<(u64, bool)> = mem
            .tagged_addrs()
            .map(|addr| {
                let cap = mem.read_cap(addr).expect("tagged");
                (addr, shadow.is_painted(cap.base()))
            })
            .collect();
        let expect_revoked = ground_truth.iter().filter(|&&(_, dangling)| dangling).count();

        let stats = sweep(Kernel::Simd, &mut mem, &shadow);
        prop_assert_eq!(stats.caps_revoked as usize, expect_revoked);
        prop_assert_eq!(stats.caps_inspected as usize, ground_truth.len());
        for (addr, dangling) in ground_truth {
            let (word, tag) = mem.read_cap_word(addr).expect("aligned");
            if dangling {
                prop_assert!(!tag, "dangling cap at {addr:#x} survived");
                prop_assert_eq!(word.bits(), 0, "revoked word not zeroed");
            } else {
                prop_assert!(tag, "live cap at {addr:#x} was wrongly revoked");
            }
        }
    }

    /// Sweeping is idempotent: a second sweep finds nothing new.
    #[test]
    fn sweep_is_idempotent(plants in planted(), paint in painted_granules()) {
        let (mut mem, shadow) = build(&plants, &paint);
        sweep(Kernel::Simd, &mut mem, &shadow);
        let snapshot = mem.clone();
        let again = sweep(Kernel::Simd, &mut mem, &shadow);
        prop_assert_eq!(again.caps_revoked, 0);
        prop_assert_eq!(mem, snapshot);
    }

    /// Shadow painting and clearing with the per-word masks equal the
    /// bit-at-a-time reference for arbitrary **disjoint** (aligned) range
    /// sets — disjoint because the strict paint/clear contract forbids
    /// repainting a painted granule. Short ranges and short gaps dominate,
    /// so several ranges often share one shadow word, and a random subset
    /// is cleared range by range, as an epoch's drain does, with the map
    /// checked against a reference of the ranges still painted after
    /// every step.
    #[test]
    fn painting_matches_bitwise_reference(
        gaps_lens in proptest::collection::vec(
            (
                prop_oneof![3 => 0u64..4, 1 => 0u64..64],
                prop_oneof![3 => 1u64..8, 1 => 1u64..512],
            ),
            0..40,
        ),
        clears in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        // Turn (gap, len) pairs into non-overlapping granule runs.
        let mut ranges = Vec::new();
        let mut g = 0u64;
        for &(gap, n) in &gaps_lens {
            let start = g + gap;
            let end = start + n;
            if end > LEN / GRANULE_SIZE {
                break;
            }
            ranges.push((HEAP + start * GRANULE_SIZE, n * GRANULE_SIZE));
            g = end;
        }
        let reference = |ranges: &[(u64, u64)]| {
            let mut slow = ShadowMap::new(HEAP, LEN);
            for &(addr, len) in ranges {
                slow.paint_bitwise(addr, len);
            }
            slow
        };
        let mut fast = ShadowMap::new(HEAP, LEN);
        for &(addr, len) in &ranges {
            fast.paint(addr, len);
        }
        let slow = reference(&ranges);
        prop_assert_eq!(fast.as_words(), slow.as_words());
        prop_assert_eq!(fast.summary_words(), slow.summary_words());
        prop_assert_eq!(fast.painted_bytes(), slow.painted_bytes());

        // Clear a random subset, one range at a time.
        let mut painted = ranges.clone();
        for &pick in &clears {
            if painted.is_empty() {
                break;
            }
            let (addr, len) = painted.remove(pick % painted.len());
            fast.clear(addr, len);
            let slow = reference(&painted);
            prop_assert_eq!(fast.as_words(), slow.as_words());
            prop_assert_eq!(fast.summary_words(), slow.summary_words());
            prop_assert_eq!(fast.painted_bytes(), slow.painted_bytes());
        }
        // Clearing the rest empties the map, summary included.
        for &(addr, len) in &painted {
            fast.clear(addr, len);
        }
        prop_assert_eq!(fast.painted_bytes(), 0);
        prop_assert!(fast.as_words().iter().all(|&w| w == 0));
        prop_assert!(fast.summary_words().iter().all(|&w| w == 0));
    }
}
