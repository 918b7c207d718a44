//! Property tests for the CapDirty false-positive purge: a sweep through
//! [`CapDirtyPurge`] revokes exactly what an unfiltered sweep of the same
//! regions revokes, leaves every frame that still holds a tagged granule
//! CapDirty, and re-cleans exactly the dirty frames one region swept
//! whole and found capability-free. Regions have unaligned ends, are cut
//! at any granule (as epoch slices cut their worklist), share frames, and
//! come in any order; they are taken from the whole image or from its
//! visit set ([`segment_runs`]), over two sweeps in a row.

mod common;

use cheri::Capability;
use common::{Recording, HEAP};
use proptest::prelude::*;
use revoker::{
    segment_runs, CapDirtyPurge, GranuleFilter, Kernel, NoCost, NoFilter, ShadowMap, SweepEngine,
    SweepScratch, SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

/// 512 pages: room for dirty runs and long clean stretches.
const LEN: u64 = 2 << 20;
const PAGES: u64 = LEN / PAGE_SIZE;
/// Pointees fall in the first 128 KiB, where the shadow paints.
const PAINT_WINDOW: u64 = 1 << 17;

/// What a stretch of pages holds, beyond the scattered capabilities.
#[derive(Debug, Clone, Copy)]
enum Stretch {
    /// One capability per page.
    Caps,
    /// CapDirty with no capability: the purge re-cleans these.
    FalsePositive,
    /// Dirtied, then re-cleaned: clean again.
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
        table.note_cap_store(addr);
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
            if table.is_cap_dirty(page) {
                continue; // a dirty page keeps its state
            }
            match kind {
                Stretch::Caps => {}
                Stretch::FalsePositive => table.note_cap_store(page),
                Stretch::Recleaned => {
                    table.note_cap_store(page);
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

/// Cuts `base` (ascending, disjoint ranges) at granule `cuts`, keeps the
/// pieces `keep` selects and orders them by `order` keys.
fn regions(base: &[(u64, u64)], cuts: &[u64], keep: &[bool], order: &[u64]) -> Vec<(u64, u64)> {
    let mut points: Vec<u64> = cuts.iter().map(|&g| HEAP + g * GRANULE_SIZE).collect();
    points.sort_unstable();
    let mut pieces = Vec::new();
    for &(start, len) in base {
        let mut at = start;
        for &p in points.iter().filter(|&&p| start < p && p < start + len) {
            if p > at {
                pieces.push((at, p - at));
                at = p;
            }
        }
        pieces.push((at, start + len - at));
    }
    let mut keyed: Vec<(u64, (u64, u64))> = pieces
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| keep.get(i % keep.len()).copied().unwrap_or(true))
        .map(|(i, r)| (order[i % order.len()], r))
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Sweeps `ranges` of `mem` through `filter`, through the entry point
/// the heap uses, on the costed or the uncosted walk.
fn sweep<F: GranuleFilter>(
    engine: &SweepEngine,
    costed: bool,
    mem: &mut TaggedMemory,
    ranges: &[(u64, u64)],
    filter: F,
    shadow: &ShadowMap,
) -> SweepStats {
    let memories = std::slice::from_mut(mem);
    let scratch = &mut SweepScratch::new();
    if costed {
        let cost = &mut Recording::default();
        engine.sweep_with(memories, ranges, filter, shadow, cost, scratch)
    } else {
        engine.sweep_with(memories, ranges, filter, shadow, &mut NoCost, scratch)
    }
}

/// Whether `frame` holds any tagged granule.
fn tagged(mem: &TaggedMemory, frame: u64) -> bool {
    (frame..frame + PAGE_SIZE)
        .step_by(GRANULE_SIZE as usize)
        .any(|a| mem.tag_at(a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The purge revokes what an unfiltered sweep of the same regions
    /// revokes and re-cleans exactly the dirty frames one region swept
    /// whole and found capability-free, so every frame that still holds
    /// a tagged granule stays CapDirty, over two sweeps in a row.
    #[test]
    fn purge_cleans_only_frames_swept_whole_and_capability_free(
        img in image(),
        from_visit_set in any::<bool>(),
        cuts in proptest::collection::vec(0..LEN / GRANULE_SIZE, 0..6),
        keep in proptest::collection::vec(prop_oneof![3 => Just(true), 1 => Just(false)], 1..8),
        order in proptest::collection::vec(0u64..8, 1..8),
        costed in any::<bool>(),
        workers in 1usize..=3,
    ) {
        let engine = SweepEngine::new(Kernel::Fast).with_workers(workers);
        let (mut want_mem, _, shadow) = build(&img);
        let (mut got_mem, mut table, _) = build(&img);
        let mut base = Vec::new();
        let dirty = from_visit_set.then(|| table.cap_dirty_pages_in(HEAP, HEAP + LEN));
        segment_runs(HEAP, HEAP + LEN, dirty, &mut base);
        let ranges = regions(&base, &cuts, &keep, &order);
        for round in 0..2 {
            // Frames each region covers whole, and what they held first.
            let before = table.clone();
            let purgeable: Vec<u64> = ranges
                .iter()
                .flat_map(|&(start, len)| {
                    (start.div_ceil(PAGE_SIZE)..(start + len) / PAGE_SIZE).map(|p| p * PAGE_SIZE)
                })
                .filter(|&frame| !tagged(&got_mem, frame))
                .collect();
            let want = sweep(&engine, costed, &mut want_mem, &ranges, NoFilter, &shadow);
            let got = sweep(&engine, costed, &mut got_mem, &ranges,
                CapDirtyPurge::new(&mut table), &shadow);
            prop_assert_eq!(&got_mem, &want_mem, "memory, round {}", round);
            prop_assert_eq!(got.caps_revoked, want.caps_revoked, "round {}", round);
            prop_assert_eq!(got.caps_inspected, want.caps_inspected);
            prop_assert_eq!(got.bytes_swept, want.bytes_swept);
            for frame in (0..PAGES).map(|p| HEAP + p * PAGE_SIZE) {
                if tagged(&got_mem, frame) {
                    prop_assert!(table.is_cap_dirty(frame), "tagged {:#x} cleaned", frame);
                }
                let purged = before.is_cap_dirty(frame) && purgeable.contains(&frame);
                prop_assert_eq!(
                    table.is_cap_dirty(frame),
                    before.is_cap_dirty(frame) && !purged,
                    "frame {:#x}, round {}", frame, round
                );
            }
        }
    }
}
