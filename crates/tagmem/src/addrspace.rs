//! The program's full memory image: segments + registers + page table.

use cheri::Capability;

use crate::{MemError, PageTable, RegisterFile, TaggedMemory};

/// The role of a memory segment. A revocation sweep must cover every
/// segment kind that can hold capabilities (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SegmentKind {
    /// The heap — the segment CHERIvoke protects.
    Heap,
    /// The stack.
    Stack,
    /// Global data (`.data`/`.bss`).
    Globals,
    /// The revocation shadow map's own backing store (never contains
    /// capabilities; excluded from sweeps).
    Shadow,
}

impl SegmentKind {
    /// `true` if a sweep must visit this segment (it can hold capabilities).
    pub fn sweepable(self) -> bool {
        !matches!(self, SegmentKind::Shadow)
    }
}

/// A named segment of tagged memory within an [`AddressSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    kind: SegmentKind,
    mem: TaggedMemory,
}

impl Segment {
    /// The segment's role.
    #[inline]
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The backing tagged memory.
    #[inline]
    pub fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Mutable access to the backing tagged memory (used by sweep kernels).
    #[inline]
    pub fn mem_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }
}

impl AsMut<TaggedMemory> for Segment {
    fn as_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }
}

/// Builder for [`AddressSpace`].
///
/// # Examples
///
/// ```
/// use tagmem::{AddressSpace, SegmentKind};
///
/// let space = AddressSpace::builder()
///     .segment(SegmentKind::Heap, 0x1000_0000, 1 << 20)
///     .segment(SegmentKind::Stack, 0x7fff_0000, 1 << 16)
///     .segment(SegmentKind::Globals, 0x60_0000, 1 << 16)
///     .build();
/// assert_eq!(space.segments().len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct AddressSpaceBuilder {
    segments: Vec<Segment>,
}

impl AddressSpaceBuilder {
    /// Adds a zeroed segment covering `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the new segment overlaps an existing one, or if `base`/`len`
    /// are not 16-byte aligned.
    pub fn segment(mut self, kind: SegmentKind, base: u64, len: u64) -> Self {
        let mem = TaggedMemory::new(base, len);
        for s in &self.segments {
            let disjoint = mem.end() <= s.mem.base() || mem.base() >= s.mem.end();
            assert!(
                disjoint,
                "segment {kind:?} at {base:#x} overlaps {:?}",
                s.kind
            );
        }
        self.segments.push(Segment { kind, mem });
        self
    }

    /// Finalises the address space (segments sorted by base address).
    pub fn build(mut self) -> AddressSpace {
        self.segments.sort_by_key(|s| s.mem.base());
        AddressSpace {
            segments: self.segments,
            regs: RegisterFile::new(),
            page_table: PageTable::new(),
        }
    }
}

/// A simulated process address space: disjoint tagged segments, a capability
/// register file, and a page table with CapDirty tracking.
///
/// All capability stores are routed through the page table so that CapDirty
/// bits stay faithful to §3.4.2 (first capability store to a clean page
/// traps and marks the PTE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    segments: Vec<Segment>,
    regs: RegisterFile,
    page_table: PageTable,
}

impl AddressSpace {
    /// Starts building an address space.
    pub fn builder() -> AddressSpaceBuilder {
        AddressSpaceBuilder::default()
    }

    /// All segments, ordered by base address.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The first segment of the given kind, if any.
    pub fn segment(&self, kind: SegmentKind) -> Option<&Segment> {
        self.segments.iter().find(|s| s.kind == kind)
    }

    /// The capability register file.
    #[inline]
    pub fn registers(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register file.
    #[inline]
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// The page table.
    #[inline]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page table (sweeps re-clean false-positive CapDirty pages).
    #[inline]
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Simultaneous mutable access to segments and page table, as the sweep
    /// needs both (clear tags in segments, re-clean PTEs).
    pub fn sweep_parts_mut(&mut self) -> (&mut [Segment], &mut RegisterFile, &mut PageTable) {
        (&mut self.segments, &mut self.regs, &mut self.page_table)
    }

    /// Mutable access to all segments (for incremental sweeps that walk one
    /// region at a time).
    pub fn segments_mut(&mut self) -> &mut [Segment] {
        &mut self.segments
    }

    fn seg_for(&self, addr: u64, len: u64) -> Result<&TaggedMemory, MemError> {
        self.segments
            .iter()
            .map(|s| &s.mem)
            .find(|m| m.contains(addr, len))
            .ok_or(MemError::Unmapped { addr })
    }

    fn seg_for_mut(&mut self, addr: u64, len: u64) -> Result<&mut TaggedMemory, MemError> {
        self.segments
            .iter_mut()
            .map(|s| &mut s.mem)
            .find(|m| m.contains(addr, len))
            .ok_or(MemError::Unmapped { addr })
    }

    // --- Data access --------------------------------------------------------

    /// Reads bytes at `addr` from whichever segment maps it.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if no single segment maps the whole range.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        self.seg_for(addr, buf.len() as u64)?.read_bytes(addr, buf)
    }

    /// Writes bytes at `addr` as data (clears covered tags).
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if no single segment maps the whole range.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        self.seg_for_mut(addr, buf.len() as u64)?
            .write_bytes(addr, buf)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if the range is not mapped.
    pub fn load_u64(&self, addr: u64) -> Result<u64, MemError> {
        self.seg_for(addr, 8)?.read_u64(addr)
    }

    /// Writes a little-endian `u64` as data (clears covered tags).
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`] if the range is not mapped.
    pub fn store_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.seg_for_mut(addr, 8)?.write_u64(addr, value)
    }

    // --- Capability access ---------------------------------------------------

    /// Loads the capability at 16-byte-aligned `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::Unmapped`], [`MemError::Misaligned`].
    pub fn load_cap(&self, addr: u64) -> Result<Capability, MemError> {
        self.seg_for(addr, 16)?.read_cap(addr)
    }

    /// Stores a capability at `addr`, marking its page CapDirty when the
    /// stored word is tagged. A store that fails leaves the page table as
    /// it was.
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::load_cap`].
    pub fn store_cap(&mut self, addr: u64, cap: &Capability) -> Result<(), MemError> {
        self.seg_for_mut(addr, 16)?.write_cap(addr, cap)?;
        if cap.tag() {
            self.page_table.note_cap_store(addr);
        }
        Ok(())
    }

    /// Total tagged granules across all segments.
    pub fn tag_count(&self) -> u64 {
        self.segments.iter().map(|s| s.mem.tag_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x1000_0000, 1 << 20)
            .segment(SegmentKind::Stack, 0x7fff_0000, 1 << 16)
            .segment(SegmentKind::Globals, 0x60_0000, 1 << 16)
            .build()
    }

    #[test]
    fn routing_by_address() {
        let mut s = space();
        s.store_u64(0x1000_0000, 1).unwrap();
        s.store_u64(0x7fff_0008, 2).unwrap();
        s.store_u64(0x60_0010, 3).unwrap();
        assert_eq!(s.load_u64(0x1000_0000).unwrap(), 1);
        assert_eq!(s.load_u64(0x7fff_0008).unwrap(), 2);
        assert_eq!(s.load_u64(0x60_0010).unwrap(), 3);
        assert!(matches!(
            s.load_u64(0x5000_0000),
            Err(MemError::Unmapped { .. })
        ));
    }

    #[test]
    fn cap_store_marks_page_dirty_everywhere() {
        let mut s = space();
        let cap = Capability::root_rw(0x1000_0000, 64);
        s.store_cap(0x7fff_0020, &cap).unwrap(); // stack holds heap pointer
        assert!(s.page_table().is_cap_dirty(0x7fff_0020));
        assert!(!s.page_table().is_cap_dirty(0x1000_0000));
        assert_eq!(s.tag_count(), 1);
    }

    #[test]
    fn untagged_store_does_not_dirty_page() {
        let mut s = space();
        let dead = Capability::root_rw(0x1000_0000, 64).cleared();
        s.store_cap(0x1000_0040, &dead).unwrap();
        assert!(!s.page_table().is_cap_dirty(0x1000_0040));
    }

    #[test]
    fn failed_cap_store_leaves_page_clean() {
        let mut s = space();
        let cap = Capability::root_rw(0x1000_0000, 64);
        assert!(matches!(
            s.store_cap(0x5000_0000, &cap),
            Err(MemError::Unmapped { .. })
        ));
        assert_eq!(
            s.store_cap(0x1000_0008, &cap),
            Err(MemError::Misaligned { addr: 0x1000_0008 })
        );
        assert!(s.page_table().cap_dirty_pages().is_empty());
        assert_eq!(s.tag_count(), 0);
    }

    #[test]
    fn segment_lookup_by_kind() {
        let s = space();
        assert_eq!(
            s.segment(SegmentKind::Heap).unwrap().mem().base(),
            0x1000_0000
        );
        assert!(s.segment(SegmentKind::Shadow).is_none());
        assert!(SegmentKind::Heap.sweepable());
        assert!(!SegmentKind::Shadow.sweepable());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_segments_panic() {
        let _ = AddressSpace::builder()
            .segment(SegmentKind::Heap, 0x1000, 0x1000)
            .segment(SegmentKind::Stack, 0x1800, 0x1000)
            .build();
    }

    #[test]
    fn cross_segment_access_is_unmapped() {
        let s = space();
        // 8 bytes straddling the end of the globals segment.
        assert!(matches!(
            s.load_u64(0x60_0000 + (1 << 16) - 4),
            Err(MemError::Unmapped { .. })
        ));
    }
}
