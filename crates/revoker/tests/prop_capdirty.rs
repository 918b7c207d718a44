//! Property tests for the CapDirty filter's page-table cursor: a sweep
//! through [`CapDirtyPages`], which answers from a cached dirty run and
//! seeks the page table once per run, leaves exactly what a filter that
//! looks every page up leaves. Memory, tags, [`SweepStats`] and every
//! page's CapDirty bit must match, over regions with unaligned ends, in
//! any order, with false-positive purges between them, and over two sweeps
//! in a row.

use cheri::Capability;
use proptest::prelude::*;
use revoker::{
    CLoadTagsLines, CapDirtyPages, CapSource, FilterGranularity, GranuleFilter, Kernel, NoCost,
    ShadowMap, SweepCost, SweepEngine, SweepScratch, SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

const HEAP: u64 = 0x1000_0000;
/// 512 pages: room for dirty runs and clean stretches longer than the
/// page table's 64-entry scan bound.
const LEN: u64 = 2 << 20;
const PAGES: u64 = LEN / PAGE_SIZE;
/// Pointees fall in the first 128 KiB, where the shadow paints.
const PAINT_WINDOW: u64 = 1 << 17;

/// The reference: one page-table lookup per page, the purge applied
/// directly.
struct PerPage<'a>(&'a mut PageTable);

impl GranuleFilter for PerPage<'_> {
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Page
    }

    fn visit_page<C: SweepCost>(&mut self, page: u64, _mem: &TaggedMemory, _cost: &mut C) -> bool {
        self.0.is_cap_dirty(page)
    }

    fn page_swept(&mut self, page: u64, caps_found: u64) {
        if caps_found == 0 {
            self.0.clear_cap_dirty(page);
        }
    }
}

/// Several ranges of one memory, swept in the listed order.
struct Regions<'a> {
    mem: &'a mut TaggedMemory,
    ranges: &'a [(u64, u64)],
}

impl CapSource for Regions<'_> {
    fn for_each_region(&mut self, mut f: impl FnMut(&mut TaggedMemory, u64, u64)) {
        for &(start, len) in self.ranges {
            f(self.mem, start, len);
        }
    }
}

/// What a stretch of pages holds, beyond the scattered capabilities.
#[derive(Debug, Clone, Copy)]
enum Stretch {
    /// One capability per page.
    Caps,
    /// CapDirty with no capability: the purge re-cleans these.
    FalsePositive,
    /// A table entry that only inhibits capability stores (clean).
    InhibitOnly,
    /// Dirtied, then re-cleaned: a clean entry.
    Recleaned,
}

#[derive(Debug, Clone)]
struct Image {
    stretches: Vec<(Stretch, u64, u64)>,
    /// `(slot granule, pointee granule)` capabilities.
    caps: Vec<(u64, u64)>,
    paint: Vec<u64>,
}

fn image() -> impl Strategy<Value = Image> {
    let kind = prop_oneof![
        Just(Stretch::Caps),
        Just(Stretch::FalsePositive),
        Just(Stretch::InhibitOnly),
        Just(Stretch::Recleaned),
    ];
    let stretches = proptest::collection::vec((kind, 0..PAGES, 1u64..160), 0..8);
    let caps = proptest::collection::vec(
        (0..LEN / GRANULE_SIZE, 0..PAINT_WINDOW / GRANULE_SIZE),
        0..60,
    );
    let paint = proptest::collection::vec(0..PAINT_WINDOW / GRANULE_SIZE, 0..40);
    (stretches, caps, paint).prop_map(|(stretches, caps, paint)| Image {
        stretches,
        caps,
        paint,
    })
}

/// Builds the memory, its page table and the shadow map.
fn build(img: &Image) -> (TaggedMemory, PageTable, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, LEN);
    let mut table = PageTable::new();
    let mut store = |mem: &mut TaggedMemory, slot: u64, obj: u64| {
        let cap = Capability::root_rw(HEAP + obj * GRANULE_SIZE, GRANULE_SIZE);
        let addr = HEAP + slot * GRANULE_SIZE;
        mem.write_cap(addr, &cap).expect("in range");
        table.note_cap_store(addr).expect("stores not inhibited");
    };
    for &(slot, obj) in &img.caps {
        store(&mut mem, slot, obj);
    }
    let pages =
        |start: u64, len: u64| (start..(start + len).min(PAGES)).map(|p| HEAP + p * PAGE_SIZE);
    for &(kind, start, len) in &img.stretches {
        if let Stretch::Caps = kind {
            for page in pages(start, len) {
                let slot = (page - HEAP) / GRANULE_SIZE + page / PAGE_SIZE % 256;
                store(&mut mem, slot, slot % (PAINT_WINDOW / GRANULE_SIZE));
            }
        }
    }
    for &(kind, start, len) in &img.stretches {
        for page in pages(start, len) {
            let flags = table.flags(page);
            if flags.cap_dirty || flags.cap_store_inhibit {
                continue; // a dirty or inhibited page keeps its state
            }
            match kind {
                Stretch::Caps => {}
                Stretch::FalsePositive => {
                    table.note_cap_store(page).expect("not inhibited");
                }
                Stretch::InhibitOnly => table.set_cap_store_inhibit(page, true),
                Stretch::Recleaned => {
                    table.note_cap_store(page).expect("not inhibited");
                    table.clear_cap_dirty(page);
                }
            }
        }
    }
    let mut shadow = ShadowMap::new(HEAP, LEN);
    let paint: std::collections::BTreeSet<u64> = img.paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, table, shadow)
}

/// Splits the image at granule `cuts` into regions, keeps those `keep`
/// selects and orders them by `order` keys.
fn regions(cuts: &[u64], keep: &[bool], order: &[u64]) -> Vec<(u64, u64)> {
    let mut points: Vec<u64> = cuts.iter().map(|&g| g * GRANULE_SIZE).collect();
    points.extend([0, LEN]);
    points.sort_unstable();
    points.dedup();
    let mut keyed: Vec<(u64, (u64, u64))> = points
        .windows(2)
        .enumerate()
        .filter(|&(i, _)| keep.get(i).copied().unwrap_or(true))
        .map(|(i, w)| {
            (
                order.get(i).copied().unwrap_or(0),
                (HEAP + w[0], w[1] - w[0]),
            )
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// A cost model that records nothing but selects the costed walk.
struct Costed;

impl SweepCost for Costed {}

/// Sweeps `ranges` of `mem` through `filter`, on the costed or the
/// uncosted walk.
fn sweep<F: GranuleFilter>(
    engine: &SweepEngine,
    costed: bool,
    mem: &mut TaggedMemory,
    ranges: &[(u64, u64)],
    filter: F,
    shadow: &ShadowMap,
) -> SweepStats {
    let source = Regions { mem, ranges };
    let scratch = &mut SweepScratch::new();
    if costed {
        engine.sweep_with(source, filter, shadow, &mut Costed, scratch)
    } else {
        engine.sweep_with(source, filter, shadow, &mut NoCost, scratch)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cursor filter and the per-page reference agree on memory,
    /// tags, stats and the page table after each of two sweeps, alone and
    /// composed with CLoadTags line skipping.
    #[test]
    fn cursor_matches_per_page_lookups(
        img in image(),
        cuts in proptest::collection::vec(0..LEN / GRANULE_SIZE, 0..6),
        keep in proptest::collection::vec(prop_oneof![3 => Just(true), 1 => Just(false)], 7),
        order in proptest::collection::vec(0u64..8, 7),
        lines in any::<bool>(),
        costed in any::<bool>(),
        workers in 1usize..=3,
    ) {
        let engine = SweepEngine::new(Kernel::Fast).with_workers(workers);
        let ranges = regions(&cuts, &keep, &order);
        let (mut want_mem, mut want_table, shadow) = build(&img);
        let (mut got_mem, mut got_table, _) = build(&img);
        for round in 0..2 {
            let (want, got) = if lines {
                (
                    sweep(&engine, costed, &mut want_mem, &ranges,
                        (PerPage(&mut want_table), CLoadTagsLines::new()), &shadow),
                    sweep(&engine, costed, &mut got_mem, &ranges,
                        (CapDirtyPages::new(&mut got_table), CLoadTagsLines::new()), &shadow),
                )
            } else {
                (
                    sweep(&engine, costed, &mut want_mem, &ranges,
                        PerPage(&mut want_table), &shadow),
                    sweep(&engine, costed, &mut got_mem, &ranges,
                        CapDirtyPages::new(&mut got_table), &shadow),
                )
            };
            prop_assert_eq!(got, want, "stats, round {}", round);
            prop_assert_eq!(&got_mem, &want_mem, "memory, round {}", round);
            prop_assert_eq!(&got_table, &want_table, "page table, round {}", round);
        }
    }
}

/// Two regions share a false-positive page: the first sweeps its
/// capability-free half and purges it, so the second must skip the page,
/// as the per-page reference does, although the cursor had cached it as
/// dirty.
#[test]
fn a_purge_between_regions_reaches_the_next_region() {
    let img = Image {
        stretches: vec![(Stretch::Caps, 0, 2), (Stretch::Caps, 3, 2)],
        caps: vec![],
        paint: vec![],
    };
    let (mut want_mem, mut want_table, shadow) = build(&img);
    let (mut got_mem, mut got_table, _) = build(&img);
    // Page 2 is dirty but holds nothing; cut it in two.
    want_table.note_cap_store(HEAP + 2 * PAGE_SIZE).unwrap();
    got_table.note_cap_store(HEAP + 2 * PAGE_SIZE).unwrap();
    let half = HEAP + 2 * PAGE_SIZE + PAGE_SIZE / 2;
    let ranges = [(HEAP, half - HEAP), (half, HEAP + 5 * PAGE_SIZE - half)];
    let engine = SweepEngine::new(Kernel::Fast);
    let want = sweep(
        &engine,
        false,
        &mut want_mem,
        &ranges,
        PerPage(&mut want_table),
        &shadow,
    );
    let got = sweep(
        &engine,
        false,
        &mut got_mem,
        &ranges,
        CapDirtyPages::new(&mut got_table),
        &shadow,
    );
    assert_eq!(
        want.pages_skipped, 1,
        "the second half of page 2 is skipped"
    );
    assert_eq!(got, want);
    assert_eq!(got_mem, want_mem);
    assert_eq!(got_table, want_table);
}
