//! Pluggable **revocation backends**: the quarantine→sweep lifecycle
//! policy behind the [`SweepEngine`][crate::SweepEngine].
//!
//! Stock CHERIvoke sweeps *every* capability-bearing page once per
//! quarantine epoch. The related work shows the bigger win is sweeping
//! *less*: PICASSO partitions quarantine by capability color so a sweep
//! only visits memory that can hold matching colors, and PoisonCap
//! consults a coarse region poison map before any fine granule work. A
//! [`RevocationBackend`] owns exactly those decisions:
//!
//! * how freed chunks are **binned** into quarantine partitions
//!   ([`RevocationBackend::bin_of`]),
//! * which bins an epoch **seals** ([`RevocationBackend::select_bins`]),
//! * and which memory the sweep must **visit** ([`BackendFilter`], built
//!   by [`BackendFilter::for_epoch`] from the painted shadow map and the
//!   live page table).
//!
//! The three implementations:
//!
//! | backend | bins | sweep restriction |
//! |---|---|---|
//! | [`StockBackend`] | 1 | none (CapDirty pages as before) |
//! | [`ColoredBackend`] | [`cheri::NUM_COLORS`] | pages whose stored-capability **color summary** intersects the revoked color set |
//! | [`HierarchicalBackend`] | 1 | pages whose coarse 1 MiB **poison-region** summary intersects the poisoned regions |
//!
//! Both restrictions are sound for the same reason CapDirty is: the
//! per-page summaries ([`tagmem::PageFlags::pointee_colors`] /
//! [`tagmem::PageFlags::pointee_regions`]) are maintained on the one
//! tagged-store choke point and only ever over-approximate, so a
//! non-intersecting page provably holds no capability into the revoked
//! set. Skipped work is reported as `pages_skipped` in
//! [`SweepStats`][crate::SweepStats], which is what the lab's
//! deterministic `swept_fraction` metric measures.

use crate::engine::{CapDirtyPages, FilterGranularity, GranuleFilter, SweepCost, TagProbe};
use crate::shadow::ShadowMap;
use tagmem::PageTable;

/// Selects one of the built-in [`RevocationBackend`] implementations —
/// the `RevocationPolicy::backend` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Today's behaviour: one quarantine bin, full sweeps.
    #[default]
    Stock,
    /// PICASSO-style colored revocation.
    Colored,
    /// PoisonCap-style hierarchical (coarse-region-first) revocation.
    Hierarchical,
}

impl BackendKind {
    /// All backends, in the order the lab matrix compares them.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Stock,
        BackendKind::Colored,
        BackendKind::Hierarchical,
    ];

    /// The stable lowercase name (`stock` / `colored` / `hierarchical`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Stock => "stock",
            BackendKind::Colored => "colored",
            BackendKind::Hierarchical => "hierarchical",
        }
    }

    /// The backend implementation (stateless, shared).
    pub fn backend(self) -> &'static dyn RevocationBackend {
        match self {
            BackendKind::Stock => &StockBackend,
            BackendKind::Colored => &ColoredBackend,
            BackendKind::Hierarchical => &HierarchicalBackend,
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "stock" => Ok(BackendKind::Stock),
            "colored" => Ok(BackendKind::Colored),
            "hierarchical" => Ok(BackendKind::Hierarchical),
            other => Err(format!(
                "unknown revocation backend {other:?} (expected stock, colored or hierarchical)"
            )),
        }
    }
}

/// Upper bound on quarantine partitions a backend may request (bins are
/// selected through a 64-bit mask).
pub const MAX_QUARANTINE_BINS: u8 = 64;

/// Lifecycle policy for one revocation strategy: how frees are binned,
/// which bins an epoch seals, and (via [`BackendFilter::for_epoch`]) what
/// a sweep may skip. Implementations are stateless — all state lives in
/// the allocator's bins, the page table's summaries and the shadow map —
/// so one `&'static dyn RevocationBackend` serves every heap.
pub trait RevocationBackend: Sync {
    /// Which built-in backend this is.
    fn kind(&self) -> BackendKind;

    /// Number of quarantine bins frees are partitioned into (1 ⇒ the
    /// stock single-buffer quarantine). At most [`MAX_QUARANTINE_BINS`].
    fn partitions(&self) -> u8;

    /// The quarantine bin for a freed chunk whose allocation starts at
    /// `base`. Must be `< self.partitions()`.
    fn bin_of(&self, base: u64) -> u8;

    /// Which bins the next epoch should seal, as a bit mask over
    /// `bin_bytes` (quarantined bytes per bin). Returning a superset of
    /// the non-empty bins is fine; the caller ignores empty bins. Must
    /// select at least every non-empty bin's share eventually — the
    /// built-ins guarantee each epoch seals at least half the quarantined
    /// bytes, so quarantine occupancy stays bounded.
    fn select_bins(&self, bin_bytes: &[u64]) -> u64;
}

/// The extracted stock lifecycle: one bin, every epoch seals everything,
/// sweeps are filtered exactly as before (CapDirty or nothing).
#[derive(Debug, Clone, Copy, Default)]
pub struct StockBackend;

impl RevocationBackend for StockBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Stock
    }

    fn partitions(&self) -> u8 {
        1
    }

    fn bin_of(&self, _base: u64) -> u8 {
        0
    }

    fn select_bins(&self, _bin_bytes: &[u64]) -> u64 {
        u64::MAX
    }
}

/// PICASSO-style colored revocation: quarantine is partitioned by the
/// freed chunk's [`cheri::color_of`] color, an epoch seals the richest
/// bins (at least half the quarantined bytes, so progress per epoch is
/// bounded below), and the sweep visits only pages whose stored
/// capabilities can carry one of the sealed colors.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoredBackend;

impl RevocationBackend for ColoredBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Colored
    }

    fn partitions(&self) -> u8 {
        cheri::NUM_COLORS
    }

    fn bin_of(&self, base: u64) -> u8 {
        cheri::color_of(base)
    }

    /// Greedily takes the richest bins until at least half the
    /// quarantined bytes are covered (allocation-free: bins are capped at
    /// [`MAX_QUARANTINE_BINS`]). Concentrated churn seals one color and
    /// sweeps almost nothing; uniform churn degrades gracefully towards
    /// the stock full seal.
    fn select_bins(&self, bin_bytes: &[u64]) -> u64 {
        let total: u64 = bin_bytes.iter().sum();
        if total == 0 {
            return u64::MAX;
        }
        let mut remaining = [0u64; MAX_QUARANTINE_BINS as usize];
        let n = bin_bytes.len().min(remaining.len());
        remaining[..n].copy_from_slice(&bin_bytes[..n]);
        let mut mask = 0u64;
        let mut covered = 0u64;
        while covered * 2 < total {
            // Richest remaining bin; ties break to the lowest index so the
            // selection is deterministic.
            let (best, &bytes) = remaining
                .iter()
                .enumerate()
                .max_by_key(|&(i, &b)| (b, usize::MAX - i))
                .expect("bins are non-empty");
            if bytes == 0 {
                break;
            }
            mask |= 1 << best;
            covered += bytes;
            remaining[best] = 0;
        }
        mask
    }
}

/// PoisonCap-style hierarchical revocation: one bin (epochs seal
/// everything, like stock), but the sweep consults a coarse poison map:
/// the [`BackendFilter::Poison`] page filter skips every page whose
/// capabilities cannot point into any poisoned 1 MiB region.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalBackend;

impl RevocationBackend for HierarchicalBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Hierarchical
    }

    fn partitions(&self) -> u8 {
        1
    }

    fn bin_of(&self, _base: u64) -> u8 {
        0
    }

    fn select_bins(&self, _bin_bytes: &[u64]) -> u64 {
        u64::MAX
    }
}

/// The backend-aware [`GranuleFilter`]: what one epoch's sweep may skip,
/// decided per page frame from the live [`PageTable`] summaries.
pub enum BackendFilter<'a> {
    /// Visit everything (stock with CapDirty disabled).
    Pass,
    /// Stock CapDirty page skipping (byte-identical to
    /// [`CapDirtyPages`]).
    CapDirty(CapDirtyPages<'a>),
    /// Colored: skip pages whose stored-capability color summary misses
    /// every revoked color.
    Colored {
        /// The live page table carrying per-page color summaries.
        table: &'a mut PageTable,
        /// The sealed epoch's revoked color set.
        revoked: u8,
    },
    /// Hierarchical: skip pages whose coarse-region summary misses every
    /// poisoned region.
    Poison {
        /// The live page table carrying per-page region summaries.
        table: &'a mut PageTable,
        /// The sealed epoch's poisoned coarse regions.
        poisoned: u64,
    },
}

impl<'a> BackendFilter<'a> {
    /// The filter for one epoch of `kind`'s lifecycle: the revoked color /
    /// poison-region sets are read from the painted `shadow`, so foreign
    /// sweeps (which only receive the painting heap's shadow map) restrict
    /// themselves exactly like local ones. `use_capdirty` is the stock
    /// policy's existing page-skip toggle and is ignored by the
    /// sweep-avoidance backends (their summaries subsume it).
    pub fn for_epoch(
        kind: BackendKind,
        use_capdirty: bool,
        table: &'a mut PageTable,
        shadow: &ShadowMap,
    ) -> BackendFilter<'a> {
        match kind {
            BackendKind::Stock => {
                if use_capdirty {
                    BackendFilter::CapDirty(CapDirtyPages::new(table))
                } else {
                    BackendFilter::Pass
                }
            }
            BackendKind::Colored => BackendFilter::Colored {
                table,
                revoked: shadow.painted_color_mask(),
            },
            BackendKind::Hierarchical => BackendFilter::Poison {
                table,
                poisoned: shadow.painted_poison_mask(),
            },
        }
    }
}

impl<M: TagProbe> GranuleFilter<M> for BackendFilter<'_> {
    fn granularity(&self) -> FilterGranularity {
        match self {
            BackendFilter::Pass => FilterGranularity::Region,
            BackendFilter::CapDirty(inner) => GranuleFilter::<M>::granularity(inner),
            BackendFilter::Colored { .. } | BackendFilter::Poison { .. } => FilterGranularity::Page,
        }
    }

    fn visit_page<C: SweepCost>(&mut self, page: u64, mem: &M, cost: &mut C) -> bool {
        match self {
            BackendFilter::Pass => true,
            BackendFilter::CapDirty(inner) => inner.visit_page(page, mem, cost),
            // A page whose summary misses the revoked set provably holds no
            // capability into it (summaries over-approximate); a clean page
            // has empty summaries, so CapDirty skipping is subsumed.
            BackendFilter::Colored { table, revoked } => table.pointee_colors(page) & *revoked != 0,
            BackendFilter::Poison { table, poisoned } => {
                table.pointee_regions(page) & *poisoned != 0
            }
        }
    }

    fn page_swept(&mut self, page: u64, caps_found: u64) {
        match self {
            BackendFilter::Pass => {}
            BackendFilter::CapDirty(inner) => {
                GranuleFilter::<M>::page_swept(inner, page, caps_found)
            }
            BackendFilter::Colored { table, .. } | BackendFilter::Poison { table, .. } => {
                if caps_found == 0 {
                    // Same false-positive purge as CapDirty: a visited page
                    // with no capabilities resets its summaries too.
                    table.clear_cap_dirty(page);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NoCost;
    use tagmem::{TaggedMemory, PAGE_SIZE};

    #[test]
    fn kinds_parse_and_name_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.backend().kind(), kind);
        }
        assert_eq!(
            "  Colored ".parse::<BackendKind>().unwrap(),
            BackendKind::Colored
        );
        assert!("picasso".parse::<BackendKind>().is_err());
    }

    #[test]
    fn colored_bins_follow_the_address_color() {
        let b = ColoredBackend;
        assert_eq!(b.partitions(), cheri::NUM_COLORS);
        for stripe in 0..u64::from(2 * cheri::NUM_COLORS) {
            let base = stripe * cheri::COLOR_REGION_BYTES + 0x40;
            assert_eq!(b.bin_of(base), cheri::color_of(base));
            assert!(b.bin_of(base) < b.partitions());
        }
    }

    #[test]
    fn colored_seal_selection_covers_half_richest_first() {
        let b = ColoredBackend;
        // One dominant bin: it alone is sealed.
        assert_eq!(b.select_bins(&[10, 1000, 10, 0, 0, 0, 0, 0]), 1 << 1);
        // Uniform bins: half of them are sealed, lowest indices first.
        let mask = b.select_bins(&[100; 8]);
        assert_eq!(mask.count_ones(), 4);
        assert_eq!(mask, 0b1111);
        // Empty quarantine seals everything (harmless: nothing to paint).
        assert_eq!(b.select_bins(&[0; 8]), u64::MAX);
        // Selected bins always cover at least half the total.
        let bins = [5u64, 30, 1, 64, 8, 8, 2, 2];
        let mask = b.select_bins(&bins);
        let covered: u64 = (0..8)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| bins[i])
            .sum();
        assert!(covered * 2 >= bins.iter().sum::<u64>());
    }

    #[test]
    fn stock_and_hierarchical_are_single_bin_full_seal() {
        for backend in [
            &StockBackend as &dyn RevocationBackend,
            &HierarchicalBackend,
        ] {
            assert_eq!(backend.partitions(), 1);
            assert_eq!(backend.bin_of(0xdead_0000), 0);
            assert_eq!(backend.select_bins(&[123]), u64::MAX);
        }
    }

    #[test]
    fn backend_filters_skip_only_provably_clean_pages() {
        const BASE: u64 = 0x1000_0000;
        let mem = TaggedMemory::new(BASE, 4 * PAGE_SIZE);
        let mut table = PageTable::new();
        // Page 0 points into color 0 / region bit 16; page 1 into color 3;
        // page 2 is capability-free; page 3 untracked.
        table.note_cap_store(BASE).unwrap();
        table.note_cap_pointee(BASE, BASE);
        table.note_cap_store(BASE + PAGE_SIZE).unwrap();
        table.note_cap_pointee(BASE + PAGE_SIZE, 3 * cheri::COLOR_REGION_BYTES);
        table.note_cap_store(BASE + 2 * PAGE_SIZE).unwrap();

        let mut shadow = ShadowMap::new(BASE, 4 * PAGE_SIZE);
        shadow.paint(BASE + 0x40, 0x40); // revokes color_of(BASE), poison_bit(BASE)

        let mut colored = BackendFilter::for_epoch(BackendKind::Colored, true, &mut table, &shadow);
        let visit = |f: &mut BackendFilter, page: u64| {
            GranuleFilter::<TaggedMemory>::visit_page(f, page, &mem, &mut NoCost)
        };
        assert!(visit(&mut colored, BASE));
        assert!(
            !visit(&mut colored, BASE + PAGE_SIZE),
            "wrong color is skipped"
        );
        assert!(!visit(&mut colored, BASE + 2 * PAGE_SIZE), "no pointees");
        assert!(!visit(&mut colored, BASE + 3 * PAGE_SIZE), "untracked");
        // False-positive purge resets the page's summaries.
        GranuleFilter::<TaggedMemory>::page_swept(&mut colored, BASE, 0);
        assert!(!visit(&mut colored, BASE));

        let mut table = PageTable::new();
        table.note_cap_store(BASE).unwrap();
        table.note_cap_pointee(BASE, BASE);
        table.note_cap_store(BASE + PAGE_SIZE).unwrap();
        table.note_cap_pointee(BASE + PAGE_SIZE, BASE + 200 * cheri::POISON_REGION_BYTES);
        let mut poison =
            BackendFilter::for_epoch(BackendKind::Hierarchical, true, &mut table, &shadow);
        assert!(visit(&mut poison, BASE));
        assert!(
            !visit(&mut poison, BASE + PAGE_SIZE),
            "other region is skipped"
        );

        // Stock maps onto the existing filters.
        let mut table = PageTable::new();
        table.note_cap_store(BASE).unwrap();
        let mut stock = BackendFilter::for_epoch(BackendKind::Stock, true, &mut table, &shadow);
        assert!(visit(&mut stock, BASE));
        assert!(!visit(&mut stock, BASE + PAGE_SIZE));
        let mut table = PageTable::new();
        let mut pass = BackendFilter::for_epoch(BackendKind::Stock, false, &mut table, &shadow);
        assert!(visit(&mut pass, BASE + 3 * PAGE_SIZE));
    }
}
