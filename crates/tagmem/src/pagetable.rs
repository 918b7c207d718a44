//! Page table with CapDirty tracking (paper §3.4.2).

use std::collections::BTreeMap;

/// Bytes per virtual page.
pub const PAGE_SIZE: u64 = 4096;

/// Per-page flags relevant to capability sweeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags {
    /// A tagged capability has been stored to this page since the flag was
    /// last cleared. Clean pages need not be swept.
    pub cap_dirty: bool,
    /// Capability stores to this page trap (paper footnote 3: used for
    /// shared memory segments and file mappings that cannot hold tags).
    pub cap_store_inhibit: bool,
}

/// A software-managed page table tracking the **CapDirty** state the paper
/// adds to CHERI-MIPS PTEs.
///
/// The model follows §3.4.2 precisely:
///
/// * Pages start **clean**; storing a tagged capability to a clean page
///   raises a (modelled) exception, and the "OS" marks the page CapDirty.
///   [`PageTable::note_cap_store`] performs both steps and reports whether
///   the trap fired, so experiments can count trap overhead.
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
/// let trapped = pt.note_cap_store(0x5008).unwrap();
/// assert!(trapped);                       // first store traps…
/// assert!(!pt.note_cap_store(0x5010).unwrap()); // …later ones do not
/// assert!(pt.is_cap_dirty(0x5fff));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTable {
    pages: BTreeMap<u64, PageFlags>,
    traps: u64,
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

    /// Flags for the page containing `addr` (default flags if untouched).
    pub fn flags(&self, addr: u64) -> PageFlags {
        self.pages
            .get(&Self::page_of(addr))
            .copied()
            .unwrap_or_default()
    }

    /// `true` if the page containing `addr` may hold capabilities.
    #[inline]
    pub fn is_cap_dirty(&self, addr: u64) -> bool {
        self.flags(addr).cap_dirty
    }

    /// Marks the page containing `addr` as inhibiting capability stores.
    pub fn set_cap_store_inhibit(&mut self, addr: u64, inhibit: bool) {
        self.pages
            .entry(Self::page_of(addr))
            .or_default()
            .cap_store_inhibit = inhibit;
    }

    /// Records a tagged capability store to `addr`.
    ///
    /// Returns `Ok(true)` if this store trapped (page was clean — the OS has
    /// now marked it CapDirty), `Ok(false)` if the page was already dirty.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` if the page inhibits capability stores; the caller
    /// converts this into [`crate::MemError::CapStoreInhibited`].
    #[allow(clippy::result_unit_err)]
    pub fn note_cap_store(&mut self, addr: u64) -> Result<bool, ()> {
        let entry = self.pages.entry(Self::page_of(addr)).or_default();
        if entry.cap_store_inhibit {
            return Err(());
        }
        if entry.cap_dirty {
            Ok(false)
        } else {
            entry.cap_dirty = true;
            self.traps += 1;
            Ok(true)
        }
    }

    /// Re-cleans the page containing `addr` (a sweep found it tag-free).
    pub fn clear_cap_dirty(&mut self, addr: u64) {
        if let Some(flags) = self.pages.get_mut(&Self::page_of(addr)) {
            flags.cap_dirty = false;
        }
    }

    /// Number of CapDirty traps taken so far (each models one exception +
    /// OS fixup, cheap but countable).
    #[inline]
    pub fn trap_count(&self) -> u64 {
        self.traps
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
            .flat_map(|pages| self.pages.range(pages))
            .filter(|(_, flags)| flags.cap_dirty)
            .map(|(&p, _)| p * PAGE_SIZE)
    }

    /// Of the pages overlapping `[base, base+len)`, the fraction that are
    /// CapDirty. This is the page-granularity pointer density of Table 2.
    pub fn cap_dirty_fraction(&self, base: u64, len: u64) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let first = base / PAGE_SIZE;
        let last = (base + len - 1) / PAGE_SIZE;
        let total = last - first + 1;
        let dirty = self
            .pages
            .range(first..=last)
            .filter(|(_, f)| f.cap_dirty)
            .count() as u64;
        dirty as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_store_traps_then_quiesces() {
        let mut pt = PageTable::new();
        assert!(pt.note_cap_store(0x1000).unwrap());
        assert!(!pt.note_cap_store(0x1ff0).unwrap());
        assert_eq!(pt.trap_count(), 1);
        // A different page traps again.
        assert!(pt.note_cap_store(0x2000).unwrap());
        assert_eq!(pt.trap_count(), 2);
    }

    #[test]
    fn inhibited_pages_reject_cap_stores() {
        let mut pt = PageTable::new();
        pt.set_cap_store_inhibit(0x3000, true);
        assert!(pt.note_cap_store(0x3008).is_err());
        assert!(!pt.is_cap_dirty(0x3000));
        pt.set_cap_store_inhibit(0x3000, false);
        assert!(pt.note_cap_store(0x3008).unwrap());
    }

    #[test]
    fn dirty_pages_listing_is_sorted_and_page_aligned() {
        let mut pt = PageTable::new();
        for addr in [0x9000u64, 0x1000, 0x5500] {
            pt.note_cap_store(addr).unwrap();
        }
        assert_eq!(pt.cap_dirty_pages(), vec![0x1000, 0x5000, 0x9000]);
    }

    #[test]
    fn clear_cap_dirty_recleans() {
        let mut pt = PageTable::new();
        pt.note_cap_store(0x1000).unwrap();
        pt.clear_cap_dirty(0x1234);
        assert!(!pt.is_cap_dirty(0x1000));
        // And the next store traps again (false positives were purged).
        assert!(pt.note_cap_store(0x1000).unwrap());
    }

    #[test]
    fn ranged_walk_visits_exactly_the_overlapping_dirty_pages() {
        let mut pt = PageTable::new();
        for page in [0u64, 1, 2, 5, 6, 9] {
            pt.note_cap_store(page * PAGE_SIZE + 8).unwrap();
        }
        // A re-cleaned page and an inhibit-only entry are in the table but
        // not dirty.
        pt.clear_cap_dirty(6 * PAGE_SIZE);
        pt.set_cap_store_inhibit(7 * PAGE_SIZE, true);
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

    #[test]
    fn dirty_fraction_counts_overlapping_pages() {
        let mut pt = PageTable::new();
        pt.note_cap_store(0x0).unwrap();
        pt.note_cap_store(0x2000).unwrap();
        // Range covering pages 0..=3, two dirty.
        assert!((pt.cap_dirty_fraction(0, 4 * PAGE_SIZE) - 0.5).abs() < 1e-12);
        assert_eq!(pt.cap_dirty_fraction(0, 0), 0.0);
        // A clean region reports zero.
        assert_eq!(pt.cap_dirty_fraction(0x10_0000, PAGE_SIZE), 0.0);
    }
}
