//! Property tests for the revocation machinery: every kernel tier, worker
//! count, filter and cost model sweeps exactly like the reference tier, no
//! filter changes what a sweep revokes, sweeps are precise (revoke exactly
//! the painted bases) and idempotent, and shadow-map painting matches a
//! reference implementation.

mod common;

use common::{
    build, capdirty_sweep, dirty_table, false_positive_pages, painted_granules, planted,
    sweep_whole, PlantedCap, Recording, HEAP, LEN,
};
use proptest::prelude::*;
use revoker::{
    CLoadTagsLines, EveryLine, IdealLines, Kernel, NoCost, NoFilter, ShadowMap, SweepCost,
    SweepEngine, SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE};

/// The filter columns of the kernel-equivalence table.
#[derive(Debug, Clone, Copy)]
enum Filter {
    /// The whole image as one chunk.
    None,
    /// The whole image line by line.
    EveryLine,
    /// The whole image, skipping tag-free lines (§3.4.1).
    CLoadTags,
    /// The whole image, reading only capability-bearing lines (Fig. 8b's
    /// oracle).
    Ideal,
    /// The CapDirty visit set, false positives included, through the
    /// purge (§3.4.2).
    CapDirty,
}

/// `Filter::None` comes first: every other column must revoke what it
/// revokes.
const FILTERS: [Filter; 5] = [
    Filter::None,
    Filter::EveryLine,
    Filter::CLoadTags,
    Filter::Ideal,
    Filter::CapDirty,
];

/// The kernel rows; Fast comes before Simd, whose costed charges must
/// replay Fast's in order.
const KERNELS: [Kernel; 3] = [Kernel::Simple, Kernel::Fast, Kernel::Simd];

/// What one sweep of a fresh image leaves: memory, stats, page table.
type Outcome = (TaggedMemory, SweepStats, PageTable);

/// Sweeps a fresh image of `plants`, `paint` and `false_positives` with
/// `engine` under `filter`, charging `cost`.
fn sweep_case<C: SweepCost>(
    engine: &SweepEngine,
    filter: Filter,
    (plants, paint, false_positives): (&[PlantedCap], &[u64], &[u64]),
    cost: &mut C,
) -> Outcome {
    let (mut mem, shadow) = build(plants, paint);
    let mut table = dirty_table(plants, false_positives);
    let stats = match filter {
        Filter::None => sweep_whole(engine, &mut mem, NoFilter, &shadow, cost),
        Filter::EveryLine => sweep_whole(engine, &mut mem, EveryLine, &shadow, cost),
        Filter::CLoadTags => sweep_whole(engine, &mut mem, CLoadTagsLines::new(), &shadow, cost),
        Filter::Ideal => sweep_whole(engine, &mut mem, IdealLines, &shadow, cost),
        Filter::CapDirty => capdirty_sweep(engine, &mut mem, &mut table, &shadow, cost),
    };
    (mem, stats, table)
}

fn assert_same(got: &Outcome, want: &Outcome, case: &str) {
    assert!(got.0 == want.0, "{case}: memory diverged");
    assert_eq!(got.1, want.1, "{case}: stats diverged");
    assert_eq!(got.2, want.2, "{case}: page table diverged");
}

/// One sequential whole-image sweep with the shipped kernel.
fn sweep(mem: &mut TaggedMemory, shadow: &ShadowMap) -> SweepStats {
    let engine = SweepEngine::new(Kernel::Simd);
    sweep_whole(&engine, mem, NoFilter, shadow, &mut NoCost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Fig. 7 tiers are one sweep: for every filter, each kernel at
    /// the sampled worker count, costed and uncosted, leaves the memory,
    /// stats and page table of a costed Unrolled sweep. Costed, it also
    /// charges Unrolled's accesses of each kind in Unrolled's order, and
    /// Simd charges Fast's exact stream, the fallback it runs whenever a
    /// cost model is attached. And the hardware assists (§3.4) change only
    /// what a sweep reads: each filter's Unrolled sweep leaves the
    /// unfiltered sweep's memory and inspects and revokes as many
    /// capabilities.
    #[test]
    fn kernels_are_equivalent(
        plants in planted(),
        paint in painted_granules(),
        false_positives in false_positive_pages(),
        workers in 1..=8usize,
    ) {
        let images = (&plants[..], &paint[..], &false_positives[..]);
        let mut unfiltered = None;
        for filter in FILTERS {
            let mut want_charges = Recording::default();
            let unrolled = SweepEngine::new(Kernel::Unrolled);
            let want = sweep_case(&unrolled, filter, images, &mut want_charges);
            let (mem, stats, _) = unfiltered.get_or_insert_with(|| want.clone());
            prop_assert!(want.0 == *mem, "{:?} revoked a different set", filter);
            prop_assert_eq!(want.1.caps_revoked, stats.caps_revoked, "{:?} revoked", filter);
            prop_assert_eq!(want.1.caps_inspected, stats.caps_inspected, "{:?} inspected", filter);
            prop_assert!(want.1.bytes_swept <= stats.bytes_swept, "{:?} read more", filter);
            let mut fast_charges = Recording::default();
            for kernel in KERNELS {
                let engine = SweepEngine::new(kernel).with_workers(workers);
                let name = format!("{kernel:?} at {workers} workers under {filter:?}");
                assert_same(&sweep_case(&engine, filter, images, &mut NoCost), &want, &name);
                let mut charges = Recording::default();
                let got = sweep_case(&engine, filter, images, &mut charges);
                assert_same(&got, &want, &format!("costed {name}"));
                prop_assert_eq!(charges.per_kind(), want_charges.per_kind(), "{} charges", name);
                match kernel {
                    Kernel::Fast => fast_charges = charges,
                    Kernel::Simd => prop_assert!(charges == fast_charges, "{} charge order", name),
                    _ => {}
                }
            }
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

        let stats = sweep(&mut mem, &shadow);
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
        sweep(&mut mem, &shadow);
        let snapshot = mem.clone();
        let again = sweep(&mut mem, &shadow);
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
