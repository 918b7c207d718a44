//! Property tests for the sweep engine: its uncosted walk (plan, then
//! execute at any worker count) is observationally identical to its
//! costed walk (interleaved, on the calling thread), and the
//! hardware-assist filters (PTE CapDirty pages, CLoadTags lines) never
//! change *what* a sweep revokes — only how much it reads.

use cheri::Capability;
use proptest::prelude::*;
use revoker::timed::{sweep_image, TimedMode};
use revoker::{
    segment_runs, CLoadTagsLines, CapDirtyPurge, EveryLine, GranuleFilter, IdealLines, Kernel,
    NoCost, NoFilter, ShadowMap, SweepCost, SweepEngine, SweepScratch, SweepStats,
};
use tagmem::{PageTable, SegmentImage, SegmentKind, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

const HEAP: u64 = 0x1000_0000;
const LEN: u64 = 1 << 16;

/// A wider image for the CapDirty visit-set test: 2 MiB holds 512 pages
/// and few plants, so most pages are clean and the visit set actually
/// leaves pages out. The paint window is confined to the first 128 KiB to
/// keep the revoked sets narrow.
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

fn kernels() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Simple),
        Just(Kernel::Unrolled),
        Just(Kernel::Fast),
        Just(Kernel::Simd),
    ]
}

fn build_len(len: u64, plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, len);
    for p in plants {
        let cap = Capability::root_rw(HEAP + p.obj * GRANULE_SIZE, GRANULE_SIZE);
        mem.write_cap(HEAP + p.slot * GRANULE_SIZE, &cap)
            .expect("in range");
    }
    let mut shadow = ShadowMap::new(HEAP, len);
    // Dedupe: painting the same granule twice violates the shadow map's
    // strict paint/clear contract (each granule painted once per
    // quarantine generation).
    let paint: std::collections::BTreeSet<u64> = paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, shadow)
}

fn build(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    build_len(LEN, plants, paint)
}

/// Plants for the wide image: slots anywhere, pointees either anywhere or
/// biased into the paint window (so sweeps actually revoke something).
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

/// The page table a real heap would carry for this image: every stored
/// capability noted on the store choke point (its page's CapDirty bit).
/// Overwritten slots keep their page dirty — exactly the
/// over-approximation the live table accumulates.
fn dirty_table(plants: &[PlantedCap]) -> PageTable {
    let mut table = PageTable::new();
    for p in plants {
        let slot = HEAP + p.slot * GRANULE_SIZE;
        table.note_cap_store(slot).expect("stores not inhibited");
    }
    table
}

/// A recording cost model: attaching it selects the engine's costed walk
/// (walk and execute interleaved, on the calling thread).
#[derive(Debug, Default)]
struct Recording {
    bytes_read: u64,
    cloadtags: u64,
}

impl SweepCost for Recording {
    fn chunk_read(&mut self, _addr: u64, len: u64) {
        self.bytes_read += len;
    }

    fn cloadtags(&mut self, _addr: u64) {
        self.cloadtags += 1;
    }
}

/// The one run covering all of the `LEN`-byte image.
const WHOLE: [(u64, u64); 1] = [(HEAP, LEN)];

/// A costed sweep of `runs` of `mem`: the reference every uncosted sweep
/// must match.
fn costed<F: GranuleFilter>(
    kernel: Kernel,
    mem: &mut TaggedMemory,
    runs: &[(u64, u64)],
    filter: F,
    shadow: &ShadowMap,
) -> SweepStats {
    let mut cost = Recording::default();
    let stats = SweepEngine::new(kernel).sweep_with(
        std::slice::from_mut(mem),
        runs,
        filter,
        shadow,
        &mut cost,
        &mut SweepScratch::new(),
    );
    assert_eq!(cost.bytes_read, stats.bytes_swept);
    stats
}

/// Costed reference sweep of a fresh image.
fn sequential(plants: &[PlantedCap], paint: &[u64], kernel: Kernel) -> (TaggedMemory, SweepStats) {
    let (mut mem, shadow) = build(plants, paint);
    let stats = costed(kernel, &mut mem, &WHOLE, NoFilter, &shadow);
    (mem, stats)
}

/// The image as a one-segment dump, with its CapDirty page list (every
/// page holding a tag, plus `false_positives`), for the Fig. 8 filter
/// compositions [`sweep_image`] builds.
fn dump_image(mem: &TaggedMemory, false_positives: &[u64]) -> (Vec<SegmentImage>, Vec<u64>) {
    let mut pages: Vec<u64> = mem
        .tagged_addrs()
        .map(|addr| addr & !(PAGE_SIZE - 1))
        .chain(false_positives.iter().map(|&p| HEAP + p * PAGE_SIZE))
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let image = SegmentImage {
        kind: SegmentKind::Heap,
        mem: mem.clone(),
    };
    (vec![image], pages)
}

const MODES: [TimedMode; 4] = [
    TimedMode::Full,
    TimedMode::PteCapDirty,
    TimedMode::CLoadTags,
    TimedMode::Ideal,
];

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

    /// The uncosted walk with any worker count in 1..=8 produces
    /// byte-identical memory, tags and `SweepStats` to the costed walk —
    /// both on the single-chunk (region) plan and on a line-granular plan
    /// large enough to actually split across workers.
    #[test]
    fn parallel_engine_matches_sequential(
        plants in planted(),
        paint in painted_granules(),
        kernel in kernels(),
    ) {
        let (seq_mem, seq_stats) = sequential(&plants, &paint, kernel);
        // Line-granular reference: same revocations, chunked plan.
        let (mut line_mem, shadow) = build(&plants, &paint);
        let line_stats = costed(kernel, &mut line_mem, &WHOLE, EveryLine, &shadow);
        prop_assert_eq!(&seq_mem, &line_mem, "chunking changed the result");

        for workers in 1..=8usize {
            let engine = SweepEngine::new(kernel).with_workers(workers);

            let (mut mem, shadow) = build(&plants, &paint);
            let stats = engine.sweep(std::slice::from_mut(&mut mem), &WHOLE, NoFilter, &shadow);
            prop_assert_eq!(&mem, &seq_mem, "memory diverged at {} workers", workers);
            prop_assert_eq!(stats, seq_stats, "stats diverged at {} workers", workers);

            let (mut mem, shadow) = build(&plants, &paint);
            let stats = engine.sweep(std::slice::from_mut(&mut mem), &WHOLE, EveryLine, &shadow);
            prop_assert_eq!(&mem, &seq_mem, "line-plan memory diverged at {} workers", workers);
            prop_assert_eq!(stats, line_stats, "line-plan stats diverged at {} workers", workers);
        }
    }

    /// A sweep of the PTE CapDirty visit set (§3.4.2) revokes exactly the
    /// same capability set as an unfiltered sweep, provided the dirty set
    /// covers every page that took a capability store — which is what the
    /// page table guarantees by construction. Extra (false-positive) dirty
    /// pages are visited harmlessly and re-cleaned.
    #[test]
    fn capdirty_filter_revokes_same_set(
        plants in planted(),
        paint in painted_granules(),
        false_positives in proptest::collection::vec(0u64..LEN / PAGE_SIZE, 0..4),
        kernel in kernels(),
    ) {
        let (seq_mem, seq_stats) = sequential(&plants, &paint, kernel);

        let (mut mem, shadow) = build(&plants, &paint);
        let cap_pages: std::collections::BTreeSet<u64> = mem
            .tagged_addrs()
            .map(|addr| addr & !(PAGE_SIZE - 1))
            .collect();
        let mut table = PageTable::new();
        for addr in mem.tagged_addrs().collect::<Vec<_>>() {
            table.note_cap_store(addr).expect("stores not inhibited");
        }
        for &page in &false_positives {
            table.note_cap_store(HEAP + page * PAGE_SIZE).expect("stores not inhibited");
        }

        let stats = capdirty_sweep(&SweepEngine::new(kernel), &mut mem, &mut table, &shadow);
        prop_assert_eq!(&mem, &seq_mem, "filtered sweep revoked a different set");
        prop_assert_eq!(stats.caps_revoked, seq_stats.caps_revoked);
        prop_assert_eq!(stats.caps_inspected, seq_stats.caps_inspected);
        prop_assert!(stats.bytes_swept <= seq_stats.bytes_swept);
        // Visited + skipped covers the whole image.
        prop_assert_eq!(
            stats.bytes_swept / PAGE_SIZE + stats.pages_skipped,
            LEN / PAGE_SIZE
        );
        // Every capability-free page the sweep visited got re-cleaned:
        // whatever is still dirty held a capability before the sweep.
        for page in table.cap_dirty_pages() {
            prop_assert!(
                cap_pages.contains(&page),
                "false-positive page {page:#x} not re-cleaned"
            );
        }
    }

    /// CLoadTags line skipping (§3.4.1) — and the ideal-oracle variant —
    /// revoke exactly the same capability set as an unfiltered sweep: the
    /// skip decision reads the very tags the kernel would.
    #[test]
    fn line_filters_revoke_same_set(
        plants in planted(),
        paint in painted_granules(),
        kernel in kernels(),
    ) {
        let (seq_mem, seq_stats) = sequential(&plants, &paint, kernel);

        let (mut mem, shadow) = build(&plants, &paint);
        let stats = SweepEngine::new(kernel).sweep(
            std::slice::from_mut(&mut mem),
            &WHOLE,
            CLoadTagsLines::new(),
            &shadow,
        );
        prop_assert_eq!(&mem, &seq_mem, "CLoadTags sweep revoked a different set");
        prop_assert_eq!(stats.caps_revoked, seq_stats.caps_revoked);
        prop_assert_eq!(stats.caps_inspected, seq_stats.caps_inspected);

        let (mut mem, shadow) = build(&plants, &paint);
        let ideal = SweepEngine::new(kernel).sweep(
            std::slice::from_mut(&mut mem),
            &WHOLE,
            IdealLines,
            &shadow,
        );
        prop_assert_eq!(&mem, &seq_mem, "ideal-lines sweep revoked a different set");
        prop_assert_eq!(ideal.caps_revoked, seq_stats.caps_revoked);
        // The oracle reads exactly the capability-bearing lines.
        prop_assert_eq!(
            ideal.lines_skipped + ideal.bytes_swept / tagmem::LINE_SIZE,
            LEN / tagmem::LINE_SIZE
        );
    }

    /// Filtered sweeps behave identically on both walks too: the plan is
    /// built by the same filter walk, so neither the cost model nor the
    /// worker count can change which chunks are skipped. Covered for a
    /// bare CLoadTags filter and for every visit set and line filter the
    /// timed sweeps build (Fig. 8's modes over a CapDirty page list with
    /// false positives), at 1 and `workers` workers.
    #[test]
    fn parallel_filtered_matches_sequential_filtered(
        plants in planted(),
        paint in painted_granules(),
        false_positives in proptest::collection::vec(0u64..LEN / PAGE_SIZE, 0..4),
        kernel in kernels(),
        workers in 2..=8usize,
    ) {
        let (mut seq_mem, shadow) = build(&plants, &paint);
        let seq = costed(kernel, &mut seq_mem, &WHOLE, CLoadTagsLines::new(), &shadow);
        let (images, dirty) = dump_image(&build(&plants, &paint).0, &false_positives);

        for n in [1, workers] {
            let engine = SweepEngine::new(kernel).with_workers(n);
            let (mut par_mem, shadow) = build(&plants, &paint);
            let par = engine.sweep(std::slice::from_mut(&mut par_mem), &WHOLE, CLoadTagsLines::new(), &shadow);
            prop_assert_eq!(&par_mem, &seq_mem, "memory diverged at {} workers", n);
            prop_assert_eq!(par, seq, "stats diverged at {} workers", n);

            for mode in MODES {
                let mut reference = images.clone();
                let mut cost = Recording::default();
                let want = sweep_image(&engine, &mut reference, &dirty, &shadow, mode, &mut cost);
                prop_assert_eq!(cost.bytes_read, want.bytes_swept);
                let mut image = images.clone();
                let got = sweep_image(&engine, &mut image, &dirty, &shadow, mode, &mut NoCost);
                prop_assert_eq!(&image, &reference, "{:?} memory diverged at {} workers", mode, n);
                prop_assert_eq!(got, want, "{:?} stats diverged at {} workers", mode, n);
            }
        }
    }

    /// The no-tagged-cap-to-reused-granule invariant survives the
    /// epoch's CapDirty visit set and purge: it leaves byte-identical
    /// memory to the unfiltered sweep — the left-out pages provably held no
    /// capability — for any kernel and any worker count.
    #[test]
    fn capdirty_filter_matches_unfiltered_at_any_worker_count(
        plants in planted_wide(),
        paint in painted_window_granules(),
        kernel in kernels(),
        workers in 1..=8usize,
    ) {
        let (mut seq_mem, shadow) = build_len(BLEN, &plants, &paint);
        let seq_stats = costed(kernel, &mut seq_mem, &[(HEAP, BLEN)], NoFilter, &shadow);

        // Costed, over the epoch's visit set and through its purge.
        let (mut mem, shadow) = build_len(BLEN, &plants, &paint);
        let mut table = dirty_table(&plants);
        let mut runs = Vec::new();
        let dirty = Some(table.cap_dirty_pages_in(HEAP, HEAP + BLEN));
        let pages_skipped = segment_runs(HEAP, HEAP + BLEN, dirty, &mut runs);
        let stats = SweepStats {
            pages_skipped,
            ..costed(kernel, &mut mem, &runs, CapDirtyPurge::new(&mut table), &shadow)
        };
        prop_assert_eq!(&mem, &seq_mem, "CapDirty sweep revoked a different set");
        prop_assert_eq!(stats.caps_revoked, seq_stats.caps_revoked);
        prop_assert!(stats.caps_inspected <= seq_stats.caps_inspected);
        prop_assert!(stats.bytes_swept <= seq_stats.bytes_swept);
        // Pages the filter visited but found capability-free were
        // re-cleaned: whatever stayed dirty really holds caps.
        for page in table.cap_dirty_pages() {
            prop_assert!(
                plants.iter().any(|p| (HEAP + p.slot * GRANULE_SIZE)
                    & !(PAGE_SIZE - 1) == page),
                "dirty page {page:#x} holds no capability"
            );
        }

        // Uncosted at the sampled worker count: same memory, same
        // revocations and the same pages re-cleaned.
        let costed_dirty = table.cap_dirty_pages();
        let (mut mem, shadow) = build_len(BLEN, &plants, &paint);
        let mut table = dirty_table(&plants);
        let par = capdirty_sweep(&SweepEngine::new(kernel).with_workers(workers), &mut mem, &mut table, &shadow);
        prop_assert_eq!(&mem, &seq_mem, "CapDirty sweep diverged at {} workers", workers);
        prop_assert_eq!(par, stats, "stats diverged at {} workers", workers);
        prop_assert_eq!(table.cap_dirty_pages(), costed_dirty, "re-cleaning diverged");
    }
}
