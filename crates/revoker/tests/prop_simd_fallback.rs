//! Property tests for [`Kernel::Simd`]'s guaranteed-equivalent fallbacks.
//!
//! Two guarantees live here:
//!
//! * **Scalar fallback** — without a usable vector unit, `kernel_simd`
//!   calls the fast kernel, so [`Kernel::Fast`] is that fallback arm. Both
//!   the simd kernel's vector path and the fast kernel must produce
//!   byte-identical memory and stats to the [`Kernel::Unrolled`]
//!   reference, across filters, worker counts and a CapDirty visit set.
//! * **Identical `SweepCost` charges** — a costed simd sweep must replay
//!   the exact scalar access stream: every `SweepCost` hook invocation, in
//!   order, with the same operands as [`Kernel::Fast`].
//!
//! Together these pin the dispatch contract in `kernel_simd`: costed or
//! scalar-fallback sweeps are the fast kernel, bit for bit and charge for
//! charge.

use cheri::Capability;
use proptest::prelude::*;
use revoker::{
    segment_runs, CapDirtyPurge, EveryLine, GranuleFilter, Kernel, NoCost, NoFilter, ShadowMap,
    SweepCost, SweepEngine, SweepScratch, SweepStats,
};
use tagmem::{PageTable, TaggedMemory, GRANULE_SIZE};

const HEAP: u64 = 0x1000_0000;
const LEN: u64 = 1 << 17;

#[derive(Debug, Clone, Copy)]
struct PlantedCap {
    slot: u64,
    obj: u64,
}

fn planted() -> impl Strategy<Value = Vec<PlantedCap>> {
    proptest::collection::vec(
        (0u64..LEN / GRANULE_SIZE, 0u64..LEN / GRANULE_SIZE)
            .prop_map(|(slot, obj)| PlantedCap { slot, obj }),
        0..80,
    )
}

fn painted_granules() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..LEN / GRANULE_SIZE, 0..40)
}

fn build(plants: &[PlantedCap], paint: &[u64]) -> (TaggedMemory, ShadowMap) {
    let mut mem = TaggedMemory::new(HEAP, LEN);
    for p in plants {
        let cap = Capability::root_rw(HEAP + p.obj * GRANULE_SIZE, GRANULE_SIZE);
        mem.write_cap(HEAP + p.slot * GRANULE_SIZE, &cap)
            .expect("in range");
    }
    let mut shadow = ShadowMap::new(HEAP, LEN);
    let paint: std::collections::BTreeSet<u64> = paint.iter().copied().collect();
    for &g in &paint {
        shadow.paint(HEAP + g * GRANULE_SIZE, GRANULE_SIZE);
    }
    (mem, shadow)
}

fn dirty_table(plants: &[PlantedCap]) -> PageTable {
    let mut table = PageTable::new();
    for p in plants {
        let slot = HEAP + p.slot * GRANULE_SIZE;
        table.note_cap_store(slot).expect("stores not inhibited");
    }
    table
}

/// Records every [`SweepCost`] hook invocation, in order, with operands.
#[derive(Debug, Default, PartialEq, Eq)]
struct RecordingCost(Vec<(&'static str, u64, u64)>);

impl SweepCost for RecordingCost {
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

/// Sweeps all of `mem` with `engine` under `filter`, charging `cost`.
fn sweep_whole<F: GranuleFilter, C: SweepCost>(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    filter: F,
    shadow: &ShadowMap,
    cost: &mut C,
) -> SweepStats {
    let run = [(mem.base(), mem.len())];
    engine.sweep_with(
        std::slice::from_mut(mem),
        &run,
        filter,
        shadow,
        cost,
        &mut SweepScratch::new(),
    )
}

/// The epoch's CapDirty sweep of `mem`: the runs of `table`'s dirty
/// pages ([`segment_runs`]), through the false-positive purge.
fn capdirty_sweep(
    engine: &SweepEngine,
    mem: &mut TaggedMemory,
    table: &mut PageTable,
    shadow: &ShadowMap,
) -> SweepStats {
    let (base, end) = (mem.base(), mem.end());
    let mut runs = Vec::new();
    let dirty = Some(table.cap_dirty_pages_in(base, end));
    let pages_skipped = segment_runs(base, end, dirty, &mut runs);
    let stats = engine.sweep(
        std::slice::from_mut(mem),
        &runs,
        CapDirtyPurge::new(table),
        shadow,
    );
    SweepStats {
        pages_skipped,
        ..stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simd kernel's vector path (where the host has one) and the
    /// fast kernel, its scalar fallback, match the unrolled reference bit
    /// for bit: simd sequentially; fast in parallel at 1..=8 workers on a
    /// line-granular plan and over a CapDirty visit set. (Fast's
    /// sequential unfiltered sweep is pinned in `prop_fast_kernel.rs`.)
    #[test]
    fn simd_and_fast_fallback_match_wide(
        plants in planted(),
        paint in painted_granules(),
        workers in 1..=8usize,
    ) {
        let (mut ref_mem, shadow) = build(&plants, &paint);
        let ref_stats =
            sweep_whole(&SweepEngine::new(Kernel::Unrolled), &mut ref_mem, NoFilter, &shadow, &mut NoCost);

        let (mut vec_mem, shadow) = build(&plants, &paint);
        let vec_stats =
            sweep_whole(&SweepEngine::new(Kernel::Simd), &mut vec_mem, NoFilter, &shadow, &mut NoCost);
        prop_assert_eq!(&vec_mem, &ref_mem, "vector simd diverged from unrolled");
        prop_assert_eq!(vec_stats, ref_stats);

        let (mut mem, shadow) = build(&plants, &paint);
        let engine = SweepEngine::new(Kernel::Fast).with_workers(workers);
        let stats = sweep_whole(&engine, &mut mem, EveryLine, &shadow, &mut NoCost);
        prop_assert_eq!(
            &mem, &ref_mem,
            "parallel fast diverged at {} workers", workers
        );
        prop_assert_eq!(stats.caps_revoked, ref_stats.caps_revoked);
        prop_assert_eq!(stats.caps_inspected, ref_stats.caps_inspected);

        let (mut ref_mem, shadow) = build(&plants, &paint);
        let mut ref_table = dirty_table(&plants);
        let ref_stats = capdirty_sweep(&SweepEngine::new(Kernel::Unrolled), &mut ref_mem, &mut ref_table, &shadow);
        let (mut mem, shadow) = build(&plants, &paint);
        let mut table = dirty_table(&plants);
        let stats = capdirty_sweep(&SweepEngine::new(Kernel::Fast), &mut mem, &mut table, &shadow);
        prop_assert_eq!(&mem, &ref_mem, "CapDirty fast diverged");
        prop_assert_eq!(stats, ref_stats);
    }

    /// A costed simd sweep charges exactly the hooks, in exactly the
    /// order, with exactly the operands of a costed fast sweep, and both
    /// report the same stats.
    #[test]
    fn costed_simd_charges_match_fast(
        plants in planted(),
        paint in painted_granules(),
    ) {
        let (mut fast_mem, shadow) = build(&plants, &paint);
        let mut fast_cost = RecordingCost::default();
        let fast_stats =
            sweep_whole(&SweepEngine::new(Kernel::Fast), &mut fast_mem, EveryLine, &shadow, &mut fast_cost);

        let (mut simd_mem, shadow) = build(&plants, &paint);
        let mut simd_cost = RecordingCost::default();
        let simd_stats =
            sweep_whole(&SweepEngine::new(Kernel::Simd), &mut simd_mem, EveryLine, &shadow, &mut simd_cost);

        prop_assert_eq!(&simd_mem, &fast_mem, "costed simd revoked a different set");
        prop_assert_eq!(simd_stats, fast_stats);
        prop_assert_eq!(
            simd_cost, fast_cost,
            "costed simd charged a different access stream"
        );
    }
}
