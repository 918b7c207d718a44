//! Page table with CapDirty tracking (paper §3.4.2).

use std::collections::BTreeSet;

/// Bytes per virtual page.
pub const PAGE_SIZE: u64 = 4096;

/// A software-managed page table tracking the **CapDirty** state the paper
/// adds to CHERI-MIPS PTEs: the set of pages that may hold capabilities.
///
/// The model follows §3.4.2 precisely:
///
/// * Pages start **clean**; storing a tagged capability to a clean page
///   raises a (modelled) exception, and the "OS" marks the page CapDirty.
///   [`PageTable::note_cap_store`] performs both steps.
/// * CapDirty has **false positives**: clearing all capabilities in a page
///   does not reset it. A sweep that finds a dirty page tag-free may call
///   [`PageTable::clear_cap_dirty`] to re-clean it.
///
/// # Examples
///
/// ```
/// use tagmem::{PageTable, PAGE_SIZE};
///
/// let mut pt = PageTable::new();
/// assert!(!pt.is_cap_dirty(0x5000));
/// pt.note_cap_store(0x5008);
/// assert!(pt.is_cap_dirty(0x5fff));
/// pt.clear_cap_dirty(0x5000);
/// assert!(!pt.is_cap_dirty(0x5008));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable {
    /// Page numbers (`addr / PAGE_SIZE`) of the CapDirty pages.
    dirty: BTreeSet<u64>,
}

impl PageTable {
    /// Creates an empty page table (all pages clean).
    pub fn new() -> PageTable {
        PageTable::default()
    }

    #[inline]
    fn page_of(addr: u64) -> u64 {
        addr / PAGE_SIZE
    }

    /// `true` if the page containing `addr` may hold capabilities.
    #[inline]
    pub fn is_cap_dirty(&self, addr: u64) -> bool {
        self.dirty.contains(&Self::page_of(addr))
    }

    /// Records a tagged capability store to `addr`: the page containing it
    /// becomes CapDirty (a no-op if it already is).
    pub fn note_cap_store(&mut self, addr: u64) {
        self.dirty.insert(Self::page_of(addr));
    }

    /// Re-cleans the page containing `addr` (a sweep found it tag-free).
    pub fn clear_cap_dirty(&mut self, addr: u64) {
        self.dirty.remove(&Self::page_of(addr));
    }

    /// The page-aligned start addresses of all CapDirty pages, in order.
    /// This models the "array of pages that could contain capabilities" API
    /// of §5.3 (compare Windows `GetWriteWatch`).
    pub fn cap_dirty_pages(&self) -> Vec<u64> {
        self.cap_dirty_pages_in(0, u64::MAX).collect()
    }

    /// The start address of every CapDirty page overlapping `[base, end)`,
    /// in address order, without materialising a vector. Walks only that
    /// range of the table, so a visit-set builder pays for the pages of
    /// the segment it builds, not for the whole table.
    pub fn cap_dirty_pages_in(&self, base: u64, end: u64) -> impl Iterator<Item = u64> + '_ {
        let pages = (end > base).then(|| Self::page_of(base)..=Self::page_of(end - 1));
        pages
            .into_iter()
            .flat_map(|pages| self.dirty.range(pages))
            .map(|&p| p * PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_store_traps_then_quiesces() {
        // The first store marks its page; later ones to it change nothing.
        let mut pt = PageTable::new();
        pt.note_cap_store(0x1000);
        let marked = pt.clone();
        pt.note_cap_store(0x1ff0);
        assert_eq!(pt, marked);
        // A different page is marked on its own.
        pt.note_cap_store(0x2000);
        assert_eq!(pt.cap_dirty_pages(), vec![0x1000, 0x2000]);
    }

    #[test]
    fn dirty_pages_listing_is_sorted_and_page_aligned() {
        let mut pt = PageTable::new();
        for addr in [0x9000u64, 0x1000, 0x5500] {
            pt.note_cap_store(addr);
        }
        assert_eq!(pt.cap_dirty_pages(), vec![0x1000, 0x5000, 0x9000]);
    }

    #[test]
    fn clear_cap_dirty_recleans() {
        let mut pt = PageTable::new();
        pt.note_cap_store(0x1000);
        pt.clear_cap_dirty(0x1234);
        assert!(!pt.is_cap_dirty(0x1000));
        // And the next store marks it again (false positives were purged).
        pt.note_cap_store(0x1000);
        assert!(pt.is_cap_dirty(0x1000));
    }

    #[test]
    fn ranged_walk_visits_exactly_the_overlapping_dirty_pages() {
        let mut pt = PageTable::new();
        for page in [0u64, 1, 2, 5, 6, 9] {
            pt.note_cap_store(page * PAGE_SIZE + 8);
        }
        // A re-cleaned page is left out.
        pt.clear_cap_dirty(6 * PAGE_SIZE);
        let walk = |base, end| pt.cap_dirty_pages_in(base, end).collect::<Vec<_>>();
        let pages = |ps: &[u64]| ps.iter().map(|p| p * PAGE_SIZE).collect::<Vec<_>>();
        // Page-aligned ends: `end` is exclusive.
        assert_eq!(walk(PAGE_SIZE, 5 * PAGE_SIZE), pages(&[1, 2]));
        assert_eq!(walk(PAGE_SIZE, 5 * PAGE_SIZE + 1), pages(&[1, 2, 5]));
        // Unaligned ends: a page counts once any byte of it overlaps.
        assert_eq!(walk(2 * PAGE_SIZE + 16, 5 * PAGE_SIZE + 16), pages(&[2, 5]));
        assert_eq!(walk(2 * PAGE_SIZE - 16, 2 * PAGE_SIZE + 16), pages(&[1, 2]));
        // Inside one page, and empty or inverted ranges.
        assert_eq!(walk(9 * PAGE_SIZE + 64, 9 * PAGE_SIZE + 128), pages(&[9]));
        assert_eq!(walk(3 * PAGE_SIZE, 3 * PAGE_SIZE), pages(&[]));
        assert_eq!(walk(4 * PAGE_SIZE, 3 * PAGE_SIZE), pages(&[]));
        assert_eq!(walk(6 * PAGE_SIZE, 9 * PAGE_SIZE), pages(&[]));
        // The full listing walks the whole address space.
        assert_eq!(pt.cap_dirty_pages(), pages(&[0, 1, 2, 5, 9]));
    }
}
