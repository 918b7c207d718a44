//! Revocation epochs: the one state machine behind every revocation cycle
//! (paper fig. 3, and §3.5's incremental form of it) — **open** (seal,
//! paint, fix the visit set) → **step** (sweep a slice of the visit set)
//! → **retire** (sweep registers, unpaint, drain, commit).
//! `begin_revocation` opens over the quarantine and slices interleave
//! with execution; `revoke_now` opens the same way and runs one slice;
//! crash recovery re-paints the sealed chunks restored from the heap
//! image and completes the epoch over an exhaustive visit set.
//!
//! An epoch keeps no copy of what it sealed: the allocator's sealed list
//! ([`cvkalloc::CherivokeAllocator::sealed_ranges`]) is the one record of
//! the sealed set from seal to drain. Open paints it, retire unpaints and
//! drains it, the journal names only the epoch, and the heap image
//! persists it as `QuarantinedSealed` chunks.
//!
//! Slicing is sound (paper §3.5, and the CheriBSD/Cornucopia lineage that
//! followed it) because of three rules:
//!
//! * When an epoch opens, the quarantine is *sealed* and painted;
//!   frees issued while it runs join the next generation.
//! * While an epoch is active, every capability moved through
//!   [`crate::CherivokeHeap::load_cap`] / `store_cap` / `set_register` is
//!   checked against the shadow map and revoked in flight, so a dangling
//!   capability never reaches an already-swept or left-out page.
//! * The epoch retires only once its worklist is empty.

use revoker::{visit_set, SweepStats};
use tagmem::{AddressSpace, GRANULE_SIZE};

/// The persistent state of an open revocation epoch.
#[derive(Debug, Clone)]
pub(crate) struct Epoch {
    /// Remaining `(start, len)` regions to sweep, in segment order and
    /// address order within a segment.
    pub worklist: Vec<(u64, u64)>,
    /// Whether the worklist holds CapDirty runs (and slices purge
    /// CapDirty false positives) rather than whole segments.
    pub use_capdirty: bool,
    /// Accumulated sweep statistics.
    pub stats: SweepStats,
}

impl Epoch {
    /// An epoch over the painted sealed set, its visit set fixed now by
    /// [`visit_set`] (whole segments when `use_capdirty` is off: the
    /// exhaustive set). `worklist` is a recycled buffer, so a warm open
    /// allocates nothing.
    pub fn open(space: &AddressSpace, use_capdirty: bool, mut worklist: Vec<(u64, u64)>) -> Epoch {
        let pages_skipped = visit_set(space, use_capdirty, &mut worklist);
        Epoch {
            worklist,
            use_capdirty,
            stats: SweepStats {
                pages_skipped,
                ..SweepStats::default()
            },
        }
    }

    /// Total bytes remaining in the worklist.
    pub fn remaining_bytes(&self) -> u64 {
        self.worklist.iter().map(|&(_, l)| l).sum()
    }

    /// Takes up to `max_bytes` of work off the front of the worklist,
    /// returning the regions to sweep now.
    #[cfg(test)]
    pub fn take_slice(&mut self, max_bytes: u64) -> Vec<(u64, u64)> {
        let mut slice = Vec::new();
        self.take_slice_into(max_bytes, &mut slice);
        slice
    }

    /// Takes up to `max_bytes` (at least one granule) of work off the
    /// front of the worklist, appending the regions to sweep now to `out`
    /// (a caller-recycled buffer — the steady-state slice path allocates
    /// nothing). Linear in the runs taken: the taken prefix is drained
    /// once. A split may fall inside a page: neither part of that page
    /// covers it whole, so the engine purges neither.
    pub fn take_slice_into(&mut self, max_bytes: u64, out: &mut Vec<(u64, u64)>) {
        let mut budget = max_bytes.max(GRANULE_SIZE);
        let mut taken = 0;
        for run in &mut self.worklist {
            if budget == 0 {
                break;
            }
            let (start, len) = *run;
            if len <= budget {
                out.push(*run);
                budget -= len;
                taken += 1;
                continue;
            }
            let take = budget - budget % GRANULE_SIZE;
            if take > 0 {
                out.push((start, take));
                *run = (start + take, len - take);
            }
            break;
        }
        self.worklist.drain(..taken);
    }

    /// `true` once every region has been swept.
    pub fn is_done(&self) -> bool {
        self.worklist.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagmem::{SegmentKind, PAGE_SIZE};

    /// Heap and stack adjacent at a page boundary, the stack's end and
    /// both of the globals' ends off page boundaries, and a shadow
    /// segment the sweep never visits.
    fn space() -> AddressSpace {
        AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x10_0000, 4 * PAGE_SIZE)
            .segment(SegmentKind::Stack, 0x10_4000, 2 * PAGE_SIZE - 0x100)
            .segment(SegmentKind::Globals, 0x20_0100, 2 * PAGE_SIZE - 0x80)
            .segment(SegmentKind::Shadow, 0x30_0000, PAGE_SIZE)
            .build()
    }

    fn dirty(space: &mut AddressSpace, addrs: &[u64]) {
        for &addr in addrs {
            space.page_table_mut().note_cap_store(addr);
        }
    }

    /// The builder the ranged `visit_set` replaced: one walk of the whole
    /// table per segment.
    fn whole_table_visit_set(space: &AddressSpace) -> (Vec<(u64, u64)>, u64) {
        let dirty = space.page_table().cap_dirty_pages();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut skipped = 0;
        for seg in space.segments().iter().filter(|s| s.kind().sweepable()) {
            let (base, end) = (seg.mem().base(), seg.mem().end());
            let first = runs.len();
            let mut clean = end.div_ceil(PAGE_SIZE) - base / PAGE_SIZE;
            for &page in &dirty {
                if page < end && page + PAGE_SIZE > base {
                    clean -= 1;
                    let start = page.max(base);
                    let len = (page + PAGE_SIZE).min(end) - start;
                    match runs[first..].last_mut() {
                        Some((rs, rl)) if *rs + *rl == start => *rl += len,
                        _ => runs.push((start, len)),
                    }
                }
            }
            skipped += clean;
        }
        (runs, skipped)
    }

    #[test]
    fn visit_set_is_the_clamped_dirty_runs_of_each_sweepable_segment() {
        let mut space = space();
        dirty(
            &mut space,
            &[
                0x10_0000, 0x10_1000, 0x10_3ff0, // heap pages 0, 1 and 3
                0x10_4000, 0x10_5000, // both stack pages
                0x20_0000, 0x20_2000, // globals pages cut by its ends
                0x30_0000, // the shadow segment
                0x40_0000, // no segment at all
            ],
        );
        let mut runs = vec![(1, 1)]; // a recycled buffer is cleared first
        let skipped = visit_set(&space, true, &mut runs);
        assert_eq!(
            runs,
            vec![
                (0x10_0000, 2 * PAGE_SIZE),
                // Ends where the stack begins, yet does not join its run.
                (0x10_3000, PAGE_SIZE),
                (0x10_4000, 2 * PAGE_SIZE - 0x100),
                (0x20_0100, PAGE_SIZE - 0x100),
                (0x20_2000, 0x80),
            ]
        );
        // Heap page 2 and globals page 0x20_1000; the shadow and
        // out-of-segment pages are neither swept nor counted.
        assert_eq!(skipped, 2);
        assert_eq!(whole_table_visit_set(&space), (runs.clone(), skipped));

        // CapDirty off: whole sweepable segments, nothing skipped.
        assert_eq!(visit_set(&space, false, &mut runs), 0);
        assert_eq!(
            runs,
            vec![
                (0x10_0000, 4 * PAGE_SIZE),
                (0x10_4000, 2 * PAGE_SIZE - 0x100),
                (0x20_0100, 2 * PAGE_SIZE - 0x80),
            ]
        );
    }

    #[test]
    fn visit_set_matches_the_whole_table_builder() {
        // Every page of the sweepable segments plus neighbours outside
        // them, dirtied in seeded patterns of varying density.
        let pages: Vec<u64> = (0x0f_f000..0x10_7000)
            .chain(0x1f_f000..0x20_4000)
            .chain(0x30_0000..0x30_2000)
            .step_by(PAGE_SIZE as usize)
            .collect();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut runs = Vec::new();
        for round in 0..64u64 {
            let mut space = space();
            for &page in &pages {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                if seed % 8 < round % 9 {
                    dirty(&mut space, &[page]);
                }
            }
            let skipped = visit_set(&space, true, &mut runs);
            assert_eq!(
                whole_table_visit_set(&space),
                (runs.clone(), skipped),
                "round {round}"
            );
            let page_table = space.page_table();
            for &(start, len) in &runs {
                assert!(space
                    .segments()
                    .iter()
                    .any(|s| s.kind().sweepable() && s.mem().contains(start, len)));
                assert!(page_table.is_cap_dirty(start) && page_table.is_cap_dirty(start + len - 1));
            }
        }
    }

    fn epoch() -> Epoch {
        Epoch {
            worklist: vec![(0x1000, 4096), (0x3000, 1024)],
            use_capdirty: true,
            stats: SweepStats::default(),
        }
    }

    #[test]
    fn slices_respect_budget_and_granularity() {
        let mut e = epoch();
        let s1 = e.take_slice(1000);
        assert_eq!(s1, vec![(0x1000, 992)]); // rounded down to granules
        assert_eq!(e.remaining_bytes(), 4096 - 992 + 1024);
        let s2 = e.take_slice(1 << 20);
        assert_eq!(s2, vec![(0x1000 + 992, 4096 - 992), (0x3000, 1024)]);
        assert!(e.is_done());
    }

    #[test]
    fn tiny_budgets_still_progress() {
        let mut e = epoch();
        let s = e.take_slice(1);
        assert_eq!(s, vec![(0x1000, 16)]);
    }
}
