//! Property tests pinning the word-at-a-time fast kernel and the vector
//! kernel to the unrolled reference tier: for any random heap image, paint
//! set, filter and worker count, [`Kernel::Fast`] and [`Kernel::Simd`]
//! revoke exactly the same capability set with exactly the same
//! [`SweepStats`] as [`Kernel::Unrolled`]. (The test names predate the
//! retired `Wide` tier, the previous reference.) The fast path's shortcuts —
//! partial base-only decode, shadow-word screening, the empty-shadow bulk
//! fall-through — and the simd tier's lane-parallel decode, clean-span
//! skip, and prefetching must be invisible except in time. (The simd
//! tier's scalar fallback and costed charges are pinned separately in
//! `prop_simd_fallback.rs`.)

use cheri::Capability;
use proptest::prelude::*;
use revoker::{
    segment_runs, CLoadTagsLines, CapDirtyPurge, EveryLine, GranuleFilter, Kernel, NoFilter,
    ShadowMap, SweepEngine, SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE};

const HEAP: u64 = 0x1000_0000;
const LEN: u64 = 1 << 16;

/// Wider image for the CapDirty visit-set pinning test: 2 MiB of mostly
/// clean pages, so the visit set leaves pages out; paint stays in the
/// first 128 KiB.
const BLEN: u64 = 1 << 21;
const PAINT_WINDOW: u64 = 1 << 17;

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

/// Plants for the wide image: slots anywhere, pointees either anywhere
/// or biased into the paint window.
fn planted_wide() -> impl Strategy<Value = Vec<PlantedCap>> {
    let obj = prop_oneof![0u64..PAINT_WINDOW / GRANULE_SIZE, 0u64..BLEN / GRANULE_SIZE,];
    proptest::collection::vec(
        (0u64..BLEN / GRANULE_SIZE, obj).prop_map(|(slot, obj)| PlantedCap { slot, obj }),
        0..80,
    )
}

fn painted_window_granules() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..PAINT_WINDOW / GRANULE_SIZE, 0..40)
}

fn build_wide(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, BLEN);
    for p in plants {
        let cap = Capability::root_rw(HEAP + p.obj * GRANULE_SIZE, GRANULE_SIZE);
        mem.write_cap(HEAP + p.slot * GRANULE_SIZE, &cap)
            .expect("in range");
    }
    let mut shadow = ShadowMap::new(HEAP, BLEN);
    let paint: std::collections::BTreeSet<u64> = paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, shadow)
}

/// The page table a real heap would carry: each stored capability noted
/// at the store choke point (its page's CapDirty bit).
fn dirty_table(plants: &[PlantedCap]) -> PageTable {
    let mut table = PageTable::new();
    for p in plants {
        let slot = HEAP + p.slot * GRANULE_SIZE;
        table.note_cap_store(slot).expect("stores not inhibited");
    }
    table
}

fn build(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, LEN);
    for p in plants {
        let cap = Capability::root_rw(HEAP + p.obj * GRANULE_SIZE, GRANULE_SIZE);
        mem.write_cap(HEAP + p.slot * GRANULE_SIZE, &cap)
            .expect("in range");
    }
    let mut shadow = ShadowMap::new(HEAP, LEN);
    // Dedupe: the shadow map's strict contract paints each granule once
    // per quarantine generation.
    let paint: std::collections::BTreeSet<u64> = paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, shadow)
}

/// Sweeps all of `mem` with `engine` under `filter`.
fn sweep_whole<F: GranuleFilter>(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    filter: F,
    shadow: &ShadowMap,
) -> SweepStats {
    let run = [(mem.base(), mem.len())];
    engine.sweep(std::slice::from_mut(mem), &run, filter, shadow)
}

/// Unrolled-tier reference sweep of a fresh image under `filter`.
fn reference<F: GranuleFilter>(
    plants: &[PlantedCap],
    paint: &[u64],
    filter: F,
) -> (TaggedMemory, SweepStats) {
    let (mut mem, shadow) = build(plants, paint);
    let stats = sweep_whole(
        &SweepEngine::new(Kernel::Unrolled),
        &mut mem,
        filter,
        &shadow,
    );
    (mem, stats)
}

/// The epoch's CapDirty sweep of `mem`: the runs of `table`'s dirty
/// pages ([`segment_runs`]), through the false-positive purge.
fn capdirty_sweep(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    table: &mut PageTable,
    shadow: &ShadowMap,
) -> SweepStats {
    let (base, end) = (mem.base(), mem.end());
    let mut runs = Vec::new();
    let dirty = Some(table.cap_dirty_pages_in(base, end));
    let pages_skipped = segment_runs(base, end, dirty, &mut runs);
    let stats = engine.sweep(
        std::slice::from_mut(mem),
        &runs,
        CapDirtyPurge::new(table),
        shadow,
    );
    SweepStats {
        pages_skipped,
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unfiltered and line-granular sweeps: fast == simd == unrolled, bit for
    /// bit — memory, tags and every stats counter.
    #[test]
    fn fast_matches_wide_sequential(
        plants in planted(),
        paint in painted_granules(),
    ) {
        for kernel in [Kernel::Fast, Kernel::Simd] {
            let (ref_mem, ref_stats) = reference(&plants, &paint, NoFilter);
            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep_whole(&SweepEngine::new(kernel), &mut mem, NoFilter, &shadow);
            prop_assert_eq!(&mem, &ref_mem, "{:?} kernel revoked a different set", kernel);
            prop_assert_eq!(stats, ref_stats);

            let (ref_mem, ref_stats) = reference(&plants, &paint, EveryLine);
            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep_whole(&SweepEngine::new(kernel), &mut mem, EveryLine, &shadow);
            prop_assert_eq!(&mem, &ref_mem, "line-granular {:?} sweep diverged", kernel);
            prop_assert_eq!(stats, ref_stats);

            let (ref_mem, ref_stats) = reference(&plants, &paint, CLoadTagsLines::new());
            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep_whole(&SweepEngine::new(kernel), &mut mem, CLoadTagsLines::new(), &shadow);
            prop_assert_eq!(&mem, &ref_mem, "CLoadTags {:?} sweep diverged", kernel);
            prop_assert_eq!(stats, ref_stats);
        }
    }

    /// A CapDirty visit-set sweep composes with the fast kernel exactly as
    /// with the unrolled one (same dirty set in ⇒ same revocations and same
    /// re-cleaned pages out).
    #[test]
    fn fast_matches_wide_under_capdirty(
        plants in planted(),
        paint in painted_granules(),
    ) {
        let dirty = |mem: &TaggedMemory| {
            let mut table = PageTable::new();
            for addr in mem.tagged_addrs().collect::<Vec<_>>() {
                table.note_cap_store(addr).expect("stores not inhibited");
            }
            table
        };

        let (mut ref_mem, shadow) = build(&plants, &paint);
        let mut ref_table = dirty(&ref_mem);
        let ref_stats = capdirty_sweep(&SweepEngine::new(Kernel::Unrolled), &mut ref_mem, &mut ref_table, &shadow);

        for kernel in [Kernel::Fast, Kernel::Simd] {
            let (mut mem, shadow) = build(&plants, &paint);
            let mut table = dirty(&mem);
            let stats = capdirty_sweep(&SweepEngine::new(kernel), &mut mem, &mut table, &shadow);
            prop_assert_eq!(&mem, &ref_mem, "CapDirty {:?} sweep diverged", kernel);
            prop_assert_eq!(stats, ref_stats);
            prop_assert_eq!(
                ref_table.cap_dirty_pages(),
                table.cap_dirty_pages(),
                "{:?} page re-cleaning diverged", kernel
            );
        }
    }

    /// The engine running the fast or simd kernel at any worker
    /// count in 1..=8 matches the sequential unrolled reference — both
    /// unfiltered and on a chunked line-granular plan.
    #[test]
    fn parallel_fast_matches_wide(
        plants in planted(),
        paint in painted_granules(),
        workers in 1..=8usize,
    ) {
        for kernel in [Kernel::Fast, Kernel::Simd] {
            let (ref_mem, ref_stats) = reference(&plants, &paint, NoFilter);
            let engine = SweepEngine::new(kernel).with_workers(workers);

            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep_whole(&engine, &mut mem, NoFilter, &shadow);
            prop_assert_eq!(
                &mem, &ref_mem,
                "parallel {:?} diverged at {} workers", kernel, workers
            );
            prop_assert_eq!(stats, ref_stats);

            let (line_mem, line_stats) = reference(&plants, &paint, EveryLine);
            let (mut mem, shadow) = build(&plants, &paint);
            let stats = sweep_whole(&engine, &mut mem, EveryLine, &shadow);
            prop_assert_eq!(
                &mem, &line_mem,
                "parallel line-plan {:?} diverged at {} workers", kernel, workers
            );
            prop_assert_eq!(stats, line_stats);
        }
    }

    /// The fast and simd kernels over the epoch's CapDirty visit set
    /// match the unrolled reference on the 2 MiB image bit for bit —
    /// memory, stats, and which
    /// pages stayed dirty afterwards — sequentially and at any worker
    /// count in 1..=8.
    #[test]
    fn fast_matches_wide_under_capdirty_filter(
        plants in planted_wide(),
        paint in painted_window_granules(),
        workers in 1..=8usize,
    ) {
        let (mut ref_mem, shadow) = build_wide(&plants, &paint);
        let mut ref_table = dirty_table(&plants);
        let ref_stats = capdirty_sweep(&SweepEngine::new(Kernel::Unrolled), &mut ref_mem, &mut ref_table, &shadow);

        for kernel in [Kernel::Fast, Kernel::Simd] {
            let (mut mem, shadow) = build_wide(&plants, &paint);
            let mut table = dirty_table(&plants);
            let stats = capdirty_sweep(&SweepEngine::new(kernel), &mut mem, &mut table, &shadow);
            prop_assert_eq!(&mem, &ref_mem, "{:?} sweep diverged", kernel);
            prop_assert_eq!(stats, ref_stats);
            prop_assert_eq!(
                ref_table.cap_dirty_pages(),
                table.cap_dirty_pages(),
                "{:?} CapDirty purging diverged", kernel
            );

            let (mut mem, shadow) = build_wide(&plants, &paint);
            let mut table = dirty_table(&plants);
            let par = capdirty_sweep(&SweepEngine::new(kernel).with_workers(workers), &mut mem, &mut table, &shadow);
            prop_assert_eq!(
                &mem, &ref_mem,
                "parallel {:?} diverged at {} workers", kernel, workers
            );
            prop_assert_eq!(par, ref_stats);
        }
    }
}
