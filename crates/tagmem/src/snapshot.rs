//! Core-dump snapshots and pointer-density statistics.
//!
//! The paper evaluates sweeping over "application memory dumps" (§5.1, §5.3):
//! memory images captured when the quarantine filled, preprocessed so that
//! capabilities are architecturally identifiable, then swept repeatedly on
//! the target machine. [`CoreDump`] reproduces that methodology, and
//! [`PointerStats`] computes the page/line/granule pointer densities that
//! drive Table 2 and Figure 8(a).

use crate::{AddressSpace, Segment, SegmentKind, TaggedMemory, GRANULE_SIZE, LINE_SIZE, PAGE_SIZE};

/// A snapshot of one segment: name, placement, data bytes and tag bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentImage {
    /// The segment's role.
    pub kind: SegmentKind,
    /// A full copy of the segment's memory (data + tags).
    pub mem: TaggedMemory,
}

impl AsMut<TaggedMemory> for SegmentImage {
    fn as_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }
}

/// A captured process image, sweepable offline.
///
/// # Examples
///
/// ```
/// use tagmem::{AddressSpace, CoreDump, SegmentKind};
/// use cheri::Capability;
///
/// # fn main() -> Result<(), tagmem::MemError> {
/// let mut space = AddressSpace::builder()
///     .segment(SegmentKind::Heap, 0x1000, 1 << 16)
///     .build();
/// space.store_cap(0x2000, &Capability::root_rw(0x1000, 64))?;
/// let dump = CoreDump::capture(&space);
/// assert_eq!(dump.stats().tagged_granules, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDump {
    segments: Vec<SegmentImage>,
    cap_dirty_pages: Vec<u64>,
}

impl CoreDump {
    /// Captures all sweepable segments of an address space, plus the page
    /// table's CapDirty page list.
    pub fn capture(space: &AddressSpace) -> CoreDump {
        CoreDump {
            segments: space
                .segments()
                .iter()
                .filter(|s| s.kind().sweepable())
                .map(|s| SegmentImage {
                    kind: s.kind(),
                    mem: s.mem().clone(),
                })
                .collect(),
            cap_dirty_pages: space.page_table().cap_dirty_pages(),
        }
    }

    /// Reassembles a dump from parts (deserialisation).
    pub(crate) fn from_parts(segments: Vec<SegmentImage>, cap_dirty_pages: Vec<u64>) -> CoreDump {
        CoreDump {
            segments,
            cap_dirty_pages,
        }
    }

    /// Builds a dump directly from segment images (synthetic experiments).
    pub fn from_images(segments: Vec<SegmentImage>) -> CoreDump {
        let mut cap_dirty_pages = Vec::new();
        for img in &segments {
            let mem = &img.mem;
            let mut page = mem.base() & !(PAGE_SIZE - 1);
            while page < mem.end() {
                let span = (mem.end() - page).min(PAGE_SIZE);
                let probe_start = page.max(mem.base());
                let any_tag = (probe_start..page + span)
                    .step_by(GRANULE_SIZE as usize)
                    .any(|a| mem.tag_at(a));
                if any_tag {
                    cap_dirty_pages.push(page);
                }
                page += PAGE_SIZE;
            }
        }
        cap_dirty_pages.sort_unstable();
        CoreDump {
            segments,
            cap_dirty_pages,
        }
    }

    /// The captured segment images.
    #[inline]
    pub fn segments(&self) -> &[SegmentImage] {
        &self.segments
    }

    /// Mutable segment images — sweeping a dump mutates its tags.
    #[inline]
    pub fn segments_mut(&mut self) -> &mut [SegmentImage] {
        &mut self.segments
    }

    /// Page-aligned addresses of pages the PTEs said may hold capabilities
    /// at capture time (the §5.3 "array of pages that could contain
    /// capabilities").
    #[inline]
    pub fn cap_dirty_pages(&self) -> &[u64] {
        &self.cap_dirty_pages
    }

    /// Restores the dump's segments into mutable segments of a live space
    /// (used to replay an image repeatedly for timing runs).
    pub fn restore_into(&self, segments: &mut [Segment]) {
        for img in &self.segments {
            if let Some(seg) = segments
                .iter_mut()
                .find(|s| s.mem().base() == img.mem.base())
            {
                *seg.mem_mut() = img.mem.clone();
            }
        }
    }

    /// Computes pointer-density statistics over the whole dump.
    pub fn stats(&self) -> PointerStats {
        let mut s = PointerStats::default();
        for img in &self.segments {
            let mem = &img.mem;
            s.total_bytes += mem.len();
            s.tagged_granules += mem.tag_count();
            s.total_granules += mem.granules();

            // Line density.
            let mut addr = mem.base();
            while addr < mem.end() {
                let line_end = (addr + LINE_SIZE).min(mem.end());
                let any = (addr..line_end)
                    .step_by(GRANULE_SIZE as usize)
                    .any(|a| mem.tag_at(a));
                s.total_lines += 1;
                if any {
                    s.lines_with_pointers += 1;
                }
                addr = line_end;
            }

            // Page density (ground truth, not the CapDirty approximation).
            let mut page = mem.base() & !(PAGE_SIZE - 1);
            while page < mem.end() {
                let page_end = (page + PAGE_SIZE).min(mem.end());
                let start = page.max(mem.base());
                let any = (start..page_end)
                    .step_by(GRANULE_SIZE as usize)
                    .any(|a| mem.tag_at(a));
                s.total_pages += 1;
                if any {
                    s.pages_with_pointers += 1;
                }
                page += PAGE_SIZE;
            }
        }
        s
    }
}

/// Pointer-density statistics of a memory image, at the three granularities
/// the paper's hardware assists exploit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointerStats {
    /// Total bytes in the image.
    pub total_bytes: u64,
    /// Tag granules in the image.
    pub total_granules: u64,
    /// Granules whose tag is set.
    pub tagged_granules: u64,
    /// 128-byte cache lines in the image.
    pub total_lines: u64,
    /// Lines holding at least one tagged granule (what `CLoadTags` must
    /// still sweep).
    pub lines_with_pointers: u64,
    /// Pages in the image.
    pub total_pages: u64,
    /// Pages holding at least one tagged granule (what PTE CapDirty must
    /// still sweep, assuming no false positives).
    pub pages_with_pointers: u64,
}

impl PointerStats {
    /// Fraction of granules that are tagged.
    pub fn granule_density(&self) -> f64 {
        ratio(self.tagged_granules, self.total_granules)
    }

    /// Fraction of cache lines containing pointers (Fig. 8a, CLoadTags bar).
    pub fn line_density(&self) -> f64 {
        ratio(self.lines_with_pointers, self.total_lines)
    }

    /// Fraction of pages containing pointers (Table 2 column 1; Fig. 8a
    /// PTE CapDirty bar).
    pub fn page_density(&self) -> f64 {
        ratio(self.pages_with_pointers, self.total_pages)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;

    fn dumped_space() -> CoreDump {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x1_0000, 1 << 16) // 16 pages, 512 lines
            .segment(SegmentKind::Shadow, 0x80_0000, 1 << 12)
            .build();
        let cap = Capability::root_rw(0x1_0000, 64);
        // Two capabilities on one line, one on another page.
        space.store_cap(0x1_0000, &cap).unwrap();
        space.store_cap(0x1_0010, &cap).unwrap();
        space.store_cap(0x1_5000, &cap).unwrap();
        CoreDump::capture(&space)
    }

    #[test]
    fn capture_excludes_shadow_segments() {
        let dump = dumped_space();
        assert_eq!(dump.segments().len(), 1);
        assert_eq!(dump.segments()[0].kind, SegmentKind::Heap);
    }

    #[test]
    fn stats_count_densities() {
        let stats = dumped_space().stats();
        assert_eq!(stats.tagged_granules, 3);
        assert_eq!(stats.total_pages, 16);
        assert_eq!(stats.pages_with_pointers, 2);
        assert_eq!(stats.lines_with_pointers, 2);
        assert!((stats.page_density() - 2.0 / 16.0).abs() < 1e-12);
        assert!((stats.line_density() - 2.0 / 512.0).abs() < 1e-12);
        assert!((stats.granule_density() - 3.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn cap_dirty_pages_recorded() {
        let dump = dumped_space();
        assert_eq!(dump.cap_dirty_pages(), &[0x1_0000, 0x1_5000]);
    }

    #[test]
    fn from_images_derives_dirty_pages() {
        let mut mem = TaggedMemory::new(0x2_0000, 2 * PAGE_SIZE);
        mem.write_cap(0x2_0000 + PAGE_SIZE, &Capability::root_rw(0x2_0000, 64))
            .unwrap();
        let dump = CoreDump::from_images(vec![SegmentImage {
            kind: SegmentKind::Heap,
            mem,
        }]);
        assert_eq!(dump.cap_dirty_pages(), &[0x2_0000 + PAGE_SIZE]);
    }

    #[test]
    fn restore_into_replays_image() {
        let dump = dumped_space();
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x1_0000, 1 << 16)
            .build();
        assert_eq!(space.tag_count(), 0);
        dump.restore_into(space.sweep_parts_mut().0);
        assert_eq!(space.tag_count(), 3);
        assert!(space
            .segment(SegmentKind::Heap)
            .unwrap()
            .mem()
            .tag_at(0x1_5000));
    }

    #[test]
    fn empty_dump_stats_are_zero() {
        let dump = CoreDump::from_images(vec![]);
        let s = dump.stats();
        assert_eq!(s.granule_density(), 0.0);
        assert_eq!(s.page_density(), 0.0);
        assert_eq!(s.line_density(), 0.0);
    }
}
