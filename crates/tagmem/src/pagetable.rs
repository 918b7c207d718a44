//! Page table with CapDirty tracking (paper §3.4.2).

use std::collections::BTreeMap;
use std::ops::Range;

/// Bytes per virtual page.
pub const PAGE_SIZE: u64 = 4096;

/// Table entries [`PageTable::cap_dirty_run_from`] scans after its seek.
/// Bounds how far past the end of a short sweep region one lookup walks.
const RUN_SCAN_LIMIT: usize = 64;

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
        let mut pages = Vec::new();
        self.for_each_cap_dirty_page_in(0, u64::MAX, |p| pages.push(p));
        pages
    }

    /// Visits the start address of every CapDirty page overlapping
    /// `[base, end)`, in address order, without materialising a vector.
    /// Walks only that range of the table, so a visit-set builder pays for
    /// the pages of the segment it builds, not for the whole table.
    pub fn for_each_cap_dirty_page_in(&self, base: u64, end: u64, mut f: impl FnMut(u64)) {
        if end <= base {
            return;
        }
        let pages = self
            .pages
            .range(Self::page_of(base)..=Self::page_of(end - 1));
        for (&p, flags) in pages {
            if flags.cap_dirty {
                f(p * PAGE_SIZE);
            }
        }
    }

    /// The run of consecutive CapDirty pages at or after the page holding
    /// `addr`, found with one `BTreeMap::range` seek and a scan of at most
    /// 64 table entries.
    ///
    /// Returns page-aligned `lo..hi`. Every page from `addr`'s page up to
    /// `lo` is clean, and every page in `lo..hi` is CapDirty, so the page
    /// holding `addr` is always one or the other. The run is empty
    /// (`lo == hi`) when the scan met no dirty page before its bound; then
    /// only the stretch it scanned is known clean, and `lo` is the end of
    /// that stretch. When the scan reaches the end of the table everything
    /// from `addr` on is clean and the result is `u64::MAX..u64::MAX`. A
    /// run the bound truncates ends after the last dirty page scanned.
    pub fn cap_dirty_run_from(&self, addr: u64) -> Range<u64> {
        let to_addr = |page: u64| page.saturating_mul(PAGE_SIZE);
        let mut entries = self.pages.range(Self::page_of(addr)..);
        let mut budget = RUN_SCAN_LIMIT;
        // The clean gap: pages before the first dirty entry.
        let mut clean_to = Self::page_of(addr);
        let lo = loop {
            if budget == 0 {
                return to_addr(clean_to)..to_addr(clean_to);
            }
            budget -= 1;
            match entries.next() {
                None => return u64::MAX..u64::MAX,
                Some((&page, flags)) if flags.cap_dirty => break page,
                Some((&page, _)) => clean_to = page + 1,
            }
        };
        // The run: dirty entries with no page between them.
        let mut hi = lo + 1;
        while budget > 0 {
            budget -= 1;
            match entries.next() {
                Some((&page, flags)) if page == hi && flags.cap_dirty => hi += 1,
                _ => break,
            }
        }
        to_addr(lo)..to_addr(hi)
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
        let walk = |base, end| {
            let mut seen = Vec::new();
            pt.for_each_cap_dirty_page_in(base, end, |p| seen.push(p));
            seen
        };
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
    fn run_lookup_finds_the_next_dirty_run_within_its_bound() {
        let mut pt = PageTable::new();
        let dirty = |pt: &mut PageTable, pages: std::ops::Range<u64>| {
            for page in pages {
                pt.note_cap_store(page * PAGE_SIZE).unwrap();
            }
        };
        dirty(&mut pt, 10..20);
        dirty(&mut pt, 30..32);
        // An inhibit-only entry, a re-cleaned entry, then a dirty page.
        pt.set_cap_store_inhibit(40 * PAGE_SIZE, true);
        dirty(&mut pt, 41..43);
        pt.clear_cap_dirty(41 * PAGE_SIZE);
        // A run split by a re-cleaned entry.
        dirty(&mut pt, 50..54);
        pt.clear_cap_dirty(52 * PAGE_SIZE);
        // A run longer than the scan bound.
        dirty(&mut pt, 100..200);
        // A clean stretch of entries longer than the scan bound.
        for page in 300..400 {
            pt.set_cap_store_inhibit(page * PAGE_SIZE, true);
        }
        dirty(&mut pt, 400..401);

        let run = |page: u64| pt.cap_dirty_run_from(page * PAGE_SIZE);
        let pages = |r: std::ops::Range<u64>| r.start * PAGE_SIZE..r.end * PAGE_SIZE;
        // Inside a run, and unaligned.
        assert_eq!(run(12), pages(12..20));
        assert_eq!(pt.cap_dirty_run_from(12 * PAGE_SIZE + 8), pages(12..20));
        // Across a gap of absent entries.
        assert_eq!(run(20), pages(30..32));
        assert_eq!(run(0), pages(10..20));
        // Inhibit-only and re-cleaned entries are clean.
        assert_eq!(run(40), pages(42..43));
        assert_eq!(run(50), pages(50..52));
        assert_eq!(run(52), pages(53..54));
        // The bound truncates a long run, from inside it or from a gap.
        let bound = RUN_SCAN_LIMIT as u64;
        assert_eq!(run(100), pages(100..100 + bound));
        assert_eq!(run(60), pages(100..100 + bound));
        assert_eq!(run(180), pages(180..200));
        // A clean stretch past the bound: only the scanned entries are
        // known clean, not the rest of the table.
        assert_eq!(run(300), pages(300 + bound..300 + bound));
        assert_eq!(run(300 + bound), pages(400..401));
        // Past the last entry everything is clean.
        assert_eq!(run(401), u64::MAX..u64::MAX);
        assert_eq!(PageTable::new().cap_dirty_run_from(0), u64::MAX..u64::MAX);

        // Every answer agrees with the per-page flags it summarises.
        for q in 0..420 {
            let r = run(q);
            assert!(
                r.start > q * PAGE_SIZE || r.contains(&(q * PAGE_SIZE)),
                "page {q}"
            );
            for page in q..420 {
                let addr = page * PAGE_SIZE;
                if addr < r.start {
                    assert!(!pt.is_cap_dirty(addr), "page {page} from {q}");
                } else if r.contains(&addr) {
                    assert!(pt.is_cap_dirty(addr), "page {page} from {q}");
                }
            }
        }
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
