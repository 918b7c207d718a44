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

use revoker::{CapDirtyPages, CapSource, FilterGranularity, GranuleFilter, SweepCost, SweepStats};
use tagmem::{AddressSpace, Segment, TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

/// The persistent state of an open revocation epoch.
#[derive(Debug, Clone)]
pub(crate) struct Epoch {
    /// Remaining `(start, len)` regions to sweep, in segment order and
    /// address order within a segment.
    pub worklist: Vec<(u64, u64)>,
    /// Whether the worklist holds CapDirty runs (and slices skip clean
    /// pages) rather than whole segments.
    pub use_capdirty: bool,
    /// The page frame the last slice cut in two, if any (see
    /// [`SliceFilter`]).
    pub cut: Option<u64>,
    /// Accumulated sweep statistics.
    pub stats: SweepStats,
}

impl Epoch {
    /// An epoch over the painted sealed set, its visit set fixed now: the
    /// coalesced CapDirty runs of every sweepable segment of `space` (whole
    /// segments when `use_capdirty` is off; pages left out count as
    /// skipped), which every slice filters through [`CapDirtyPages`].
    /// CapDirty off is the exhaustive set: whole segments, no filter.
    /// `worklist` is a recycled buffer, so a warm open allocates nothing.
    pub fn open(space: &AddressSpace, use_capdirty: bool, mut worklist: Vec<(u64, u64)>) -> Epoch {
        worklist.clear();
        let table = space.page_table();
        let mut pages_skipped = 0;
        for seg in space.segments().iter().filter(|s| s.kind().sweepable()) {
            let (base, end) = (seg.mem().base(), seg.mem().end());
            if !use_capdirty {
                if end > base {
                    worklist.push((base, end - base));
                }
                continue;
            }
            // Runs never coalesce across a segment boundary: a slice
            // sweeps each range inside one segment.
            let first = worklist.len();
            let mut clean = end.div_ceil(PAGE_SIZE) - base / PAGE_SIZE;
            table.for_each_cap_dirty_page(|page, _| {
                if page < end && page + PAGE_SIZE > base {
                    clean -= 1;
                    let start = page.max(base);
                    let len = (page + PAGE_SIZE).min(end) - start;
                    match worklist[first..].last_mut() {
                        Some((ws, wl)) if *ws + *wl == start => *wl += len,
                        _ => worklist.push((start, len)),
                    }
                }
            });
            pages_skipped += clean;
        }
        Epoch {
            worklist,
            use_capdirty,
            cut: None,
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
    /// once. Records in [`Epoch::cut`] the page a mid-page split leaves
    /// half swept.
    pub fn take_slice_into(&mut self, max_bytes: u64, out: &mut Vec<(u64, u64)>) {
        let mut budget = max_bytes.max(GRANULE_SIZE);
        let mut taken = 0;
        self.cut = None;
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
                let split = start + take;
                self.cut = (!split.is_multiple_of(PAGE_SIZE)).then_some(split - split % PAGE_SIZE);
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

/// One slice's worklist ranges as a sweep root set, so a slice is one
/// engine call. No registers: the epoch sweeps those once, at retire.
pub(crate) struct SliceSource<'a> {
    /// The address space's segments (each range lies inside one).
    pub segments: &'a mut [Segment],
    /// The slice's `(start, len)` ranges.
    pub ranges: &'a [(u64, u64)],
}

impl CapSource for SliceSource<'_> {
    fn for_each_region(&mut self, mut f: impl FnMut(&mut TaggedMemory, u64, u64)) {
        for &(start, len) in self.ranges {
            let seg = self
                .segments
                .iter_mut()
                .find(|s| s.mem().contains(start, len))
                .expect("worklist regions lie in segments");
            f(seg.mem_mut(), start, len);
        }
    }
}

/// The epoch's page filter for one slice — [`CapDirtyPages`] when the
/// epoch uses CapDirty, none otherwise — withholding the
/// false-positive purge from the pages a slice boundary cuts in two. Such
/// a page is swept in two visits and neither sees all of its
/// capabilities, so neither may declare it capability-free.
pub(crate) struct SliceFilter<'a> {
    /// The epoch's page filter.
    pub inner: Option<CapDirtyPages<'a>>,
    /// The page frames cut at this slice's start and end.
    pub cut: [Option<u64>; 2],
}

impl GranuleFilter for SliceFilter<'_> {
    fn granularity(&self) -> FilterGranularity {
        self.inner.granularity()
    }

    fn visit_page<C: SweepCost>(&mut self, page: u64, mem: &TaggedMemory, cost: &mut C) -> bool {
        self.inner.visit_page(page, mem, cost)
    }

    fn page_swept(&mut self, page: u64, caps_found: u64) {
        if !self.cut.contains(&Some(page)) {
            self.inner.page_swept(page, caps_found);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> Epoch {
        Epoch {
            worklist: vec![(0x1000, 4096), (0x3000, 1024)],
            use_capdirty: true,
            cut: None,
            stats: SweepStats::default(),
        }
    }

    #[test]
    fn slices_respect_budget_and_granularity() {
        let mut e = epoch();
        let s1 = e.take_slice(1000);
        assert_eq!(s1, vec![(0x1000, 992)]); // rounded down to granules
        assert_eq!(e.cut, Some(0x1000), "a mid-page split cuts its page");
        assert_eq!(e.remaining_bytes(), 4096 - 992 + 1024);
        let s2 = e.take_slice(1 << 20);
        assert_eq!(s2, vec![(0x1000 + 992, 4096 - 992), (0x3000, 1024)]);
        assert_eq!(e.cut, None);
        assert!(e.is_done());
    }

    #[test]
    fn tiny_budgets_still_progress() {
        let mut e = epoch();
        let s = e.take_slice(1);
        assert_eq!(s, vec![(0x1000, 16)]);
    }
}
