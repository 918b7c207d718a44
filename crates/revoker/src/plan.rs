//! Sweep planning under the paper's hardware assists (§3.4, Fig. 8a).
//!
//! A [`SweepPlan`] is the list of memory ranges a sweep must actually read
//! after filtering with PTE CapDirty bits (page granularity) and/or
//! `CLoadTags` (cache-line granularity). The planned/total byte ratio is
//! exactly the "proportion of memory that needs to be swept" of Figure 8(a).

use tagmem::{CoreDump, LINE_SIZE, PAGE_SIZE};

/// Which work-elimination hardware to use when planning a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipMode {
    /// Sweep everything (no assists).
    None,
    /// Skip pages whose PTE CapDirty bit is clear (§3.4.2).
    PteCapDirty,
    /// Skip cache lines whose `CLoadTags` mask is zero (§3.4.1). Implies
    /// page-level skipping first, as the paper's "both … necessary for
    /// optimal work reduction" conclusion (§6.3).
    CLoadTags,
}

/// The ranges a sweep must read, after filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    mode: SkipMode,
    /// `(addr, len)` ranges to read, in address order.
    regions: Vec<(u64, u64)>,
    bytes_total: u64,
    lines_queried: u64,
}

impl SweepPlan {
    /// Plans a sweep over a captured [`CoreDump`] under `mode`.
    ///
    /// For [`SkipMode::PteCapDirty`] the dump's captured CapDirty page list
    /// is authoritative (false positives included, §3.4.2); for
    /// [`SkipMode::CLoadTags`] every line of every CapDirty page is queried
    /// and capability-free lines are dropped.
    pub fn for_dump(dump: &CoreDump, mode: SkipMode) -> SweepPlan {
        let mut regions = Vec::new();
        let mut bytes_total = 0u64;
        let mut lines_queried = 0u64;

        for img in dump.segments() {
            let mem = &img.mem;
            bytes_total += mem.len();
            match mode {
                SkipMode::None => {
                    if !mem.is_empty() {
                        regions.push((mem.base(), mem.len()));
                    }
                }
                SkipMode::PteCapDirty => {
                    for &page in dump.cap_dirty_pages() {
                        if page >= mem.base() && page < mem.end() {
                            let len = (mem.end() - page).min(PAGE_SIZE);
                            regions.push((page, len));
                        }
                    }
                }
                SkipMode::CLoadTags => {
                    for &page in dump.cap_dirty_pages() {
                        if page >= mem.base() && page < mem.end() {
                            let page_end = (page + PAGE_SIZE).min(mem.end());
                            let mut line = page;
                            while line < page_end {
                                lines_queried += 1;
                                let len = (page_end - line).min(LINE_SIZE);
                                if mem.load_tags(line).map(|m| m != 0).unwrap_or(true) {
                                    regions.push((line, len));
                                }
                                line += len;
                            }
                        }
                    }
                }
            }
        }
        regions.sort_unstable();
        SweepPlan {
            mode,
            regions,
            bytes_total,
            lines_queried,
        }
    }

    /// The mode this plan was built under.
    pub fn mode(&self) -> SkipMode {
        self.mode
    }

    /// The `(addr, len)` ranges to read.
    pub fn regions(&self) -> &[(u64, u64)] {
        &self.regions
    }

    /// Bytes the sweep will actually read.
    pub fn bytes_planned(&self) -> u64 {
        self.regions.iter().map(|&(_, l)| l).sum()
    }

    /// Bytes in the full image.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// `CLoadTags` queries the plan issued (each costs a tag-cache round
    /// trip in the timed model).
    pub fn lines_queried(&self) -> u64 {
        self.lines_queried
    }

    /// The Figure 8(a) metric: fraction of memory that must be swept.
    pub fn sweep_fraction(&self) -> f64 {
        if self.bytes_total == 0 {
            0.0
        } else {
            self.bytes_planned() as f64 / self.bytes_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;
    use tagmem::{AddressSpace, SegmentKind};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 16; // 16 pages, 512 lines

    fn dump_with_caps(addrs: &[u64]) -> CoreDump {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, LEN)
            .build();
        let cap = Capability::root_rw(HEAP, 64);
        for &a in addrs {
            space.store_cap(a, &cap).unwrap();
        }
        CoreDump::capture(&space)
    }

    #[test]
    fn no_skipping_covers_everything() {
        let dump = dump_with_caps(&[HEAP]);
        let plan = SweepPlan::for_dump(&dump, SkipMode::None);
        assert_eq!(plan.bytes_planned(), LEN);
        assert_eq!(plan.sweep_fraction(), 1.0);
        assert_eq!(plan.regions(), &[(HEAP, LEN)]);
    }

    #[test]
    fn page_skipping_keeps_only_dirty_pages() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x5000]);
        let plan = SweepPlan::for_dump(&dump, SkipMode::PteCapDirty);
        assert_eq!(plan.bytes_planned(), 2 * PAGE_SIZE);
        assert!((plan.sweep_fraction() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn line_skipping_keeps_only_tagged_lines() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x5000]);
        let plan = SweepPlan::for_dump(&dump, SkipMode::CLoadTags);
        assert_eq!(plan.bytes_planned(), 2 * LINE_SIZE);
        // Queried every line of the two dirty pages.
        assert_eq!(plan.lines_queried(), 2 * PAGE_SIZE / LINE_SIZE);
        assert!((plan.sweep_fraction() - 2.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn plans_are_ordered_and_disjoint() {
        let dump = dump_with_caps(&[HEAP + 0x5000, HEAP + 0x100, HEAP + 0x5040, HEAP + 0xf000]);
        for mode in [SkipMode::None, SkipMode::PteCapDirty, SkipMode::CLoadTags] {
            let plan = SweepPlan::for_dump(&dump, mode);
            let mut prev_end = 0u64;
            for &(a, l) in plan.regions() {
                assert!(a >= prev_end, "{mode:?} overlapping regions");
                prev_end = a + l;
            }
            assert!(plan.bytes_planned() <= plan.bytes_total());
        }
    }

    #[test]
    fn empty_image_has_empty_plan() {
        let dump = dump_with_caps(&[]);
        let plan = SweepPlan::for_dump(&dump, SkipMode::PteCapDirty);
        assert_eq!(plan.bytes_planned(), 0);
        assert_eq!(plan.sweep_fraction(), 0.0);
    }

    #[test]
    fn modes_are_monotonically_better() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x2000, HEAP + 0x2040, HEAP + 0x9000]);
        let none = SweepPlan::for_dump(&dump, SkipMode::None).bytes_planned();
        let pte = SweepPlan::for_dump(&dump, SkipMode::PteCapDirty).bytes_planned();
        let clt = SweepPlan::for_dump(&dump, SkipMode::CLoadTags).bytes_planned();
        assert!(pte <= none);
        assert!(clt <= pte);
    }
}
