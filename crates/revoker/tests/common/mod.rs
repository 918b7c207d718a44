//! Helpers shared by the revoker property tests: a random heap image
//! (planted capabilities, a painted shadow map and the page table its
//! stores left), the sweeps the properties run over it, and a cost model
//! that records every charge.

#![allow(dead_code)] // each test binary uses a subset

use std::collections::BTreeMap;

use cheri::Capability;
use proptest::prelude::*;
use revoker::{
    segment_runs, CapDirtyPurge, GranuleFilter, ShadowMap, SweepCost, SweepEngine, SweepScratch,
    SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

pub const HEAP: u64 = 0x1000_0000;
/// 128 KiB less 47 granules: 31 whole page frames and a partial last one
/// that ends inside a cache line and a tag word, so a sweep meets every
/// ragged edge.
pub const LEN: u64 = (1 << 17) - 47 * GRANULE_SIZE;
/// Page frames the image overlaps.
pub const PAGES: u64 = LEN.div_ceil(PAGE_SIZE);
/// The first page's granules, where half the slots, pointees and paint
/// fall: its tag words hold enough capabilities for the vector kernel's
/// four-wide decode, and sweeps revoke some of them.
const HOT: u64 = PAGE_SIZE / GRANULE_SIZE;

#[derive(Debug, Clone, Copy)]
pub struct PlantedCap {
    /// Granule slot the capability is stored in.
    pub slot: u64,
    /// The object (granule index) it points to.
    pub obj: u64,
}

fn granule() -> impl Strategy<Value = u64> {
    prop_oneof![0..HOT, 0..LEN / GRANULE_SIZE]
}

pub fn planted() -> impl Strategy<Value = Vec<PlantedCap>> {
    proptest::collection::vec(
        (granule(), granule()).prop_map(|(slot, obj)| PlantedCap { slot, obj }),
        0..80,
    )
}

pub fn painted_granules() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(granule(), 0..40)
}

/// Frames marked CapDirty with no store behind them, the partial last
/// frame often among them.
pub fn false_positive_pages() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![Just(PAGES - 1), 0..PAGES], 0..4)
}

/// The image: `plants` stored in order (a later plant may overwrite an
/// earlier one) and the shadow map with `paint` painted.
pub fn build(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
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

/// The page table a real heap would carry for `plants`: each store's
/// page CapDirty (an overwritten slot keeps its page dirty, the
/// over-approximation a live table accumulates), plus the
/// `false_positives` frames.
pub fn dirty_table(plants: &[PlantedCap], false_positives: &[u64]) -> PageTable {
    let mut table = PageTable::new();
    for p in plants {
        table.note_cap_store(HEAP + p.slot * GRANULE_SIZE);
    }
    for &page in false_positives {
        table.note_cap_store(HEAP + page * PAGE_SIZE);
    }
    table
}

/// Sweeps all of `mem` with `engine` under `filter`, charging `cost`.
pub fn sweep_whole<F: GranuleFilter, C: SweepCost>(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    filter: F,
    shadow: &ShadowMap,
    cost: &mut C,
) -> SweepStats {
    let run = [(mem.base(), mem.len())];
    let (memories, scratch) = (std::slice::from_mut(mem), &mut SweepScratch::new());
    engine.sweep_with(memories, &run, filter, shadow, cost, scratch)
}

/// The epoch's CapDirty sweep of `mem`, charging `cost`: the runs of
/// `table`'s dirty frames ([`segment_runs`]) through the false-positive
/// purge. Asserts the purge rule: exactly the dirty frames that lie whole
/// in `mem` and held no capability are re-cleaned.
pub fn capdirty_sweep<C: SweepCost>(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    table: &mut PageTable,
    shadow: &ShadowMap,
    cost: &mut C,
) -> SweepStats {
    let (base, end) = (mem.base(), mem.end());
    let mut want = table.clone();
    for frame in (base.div_ceil(PAGE_SIZE)..end / PAGE_SIZE).map(|p| p * PAGE_SIZE) {
        if mem.count_tags_in(frame, PAGE_SIZE) == 0 {
            want.clear_cap_dirty(frame);
        }
    }
    let mut runs = Vec::new();
    let dirty = Some(table.cap_dirty_pages_in(base, end));
    let pages_skipped = segment_runs(base, end, dirty, &mut runs);
    let (memories, scratch) = (std::slice::from_mut(mem), &mut SweepScratch::new());
    let purge = CapDirtyPurge::new(table);
    let stats = engine.sweep_with(memories, &runs, purge, shadow, cost, scratch);
    assert_eq!(
        table.cap_dirty_pages(),
        want.cap_dirty_pages(),
        "the purge re-cleaned other than the capability-free frames it swept whole"
    );
    SweepStats {
        pages_skipped,
        ..stats
    }
}

/// Records every [`SweepCost`] charge, in order, with its operands.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Recording(pub Vec<(&'static str, u64, u64)>);

impl Recording {
    /// The charges of each kind, each kind's in charge order.
    pub fn per_kind(&self) -> BTreeMap<&'static str, Vec<(u64, u64)>> {
        let mut kinds: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for &(kind, a, b) in &self.0 {
            kinds.entry(kind).or_default().push((a, b));
        }
        kinds
    }

    /// Bytes the recorded chunk reads cover.
    pub fn bytes_read(&self) -> u64 {
        self.0
            .iter()
            .filter(|&&(kind, ..)| kind == "chunk_read")
            .map(|&(_, _, len)| len)
            .sum()
    }
}

impl SweepCost for Recording {
    fn chunk_read(&mut self, addr: u64, len: u64) {
        self.0.push(("chunk_read", addr, len));
    }
    fn cloadtags(&mut self, addr: u64) {
        self.0.push(("cloadtags", addr, 0));
    }
    fn shadow_lookup(&mut self, cap_base: u64) {
        self.0.push(("shadow_lookup", cap_base, 0));
    }
    fn revoke_store(&mut self, addr: u64) {
        self.0.push(("revoke_store", addr, 0));
    }
    fn branch_mispredict(&mut self) {
        self.0.push(("branch_mispredict", 0, 0));
    }
}
