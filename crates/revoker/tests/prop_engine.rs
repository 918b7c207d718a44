//! Property tests for the sweep engine's hardware-assist paths beyond
//! kernel equivalence (`prop_sweep.rs`): the CapDirty visit set and the
//! ideal line oracle never change *what* a sweep revokes, only how much
//! it reads, and Fig. 8's timed compositions sweep alike on both walks at
//! any worker count.

mod common;

use common::{
    build, capdirty_sweep, dirty_table, false_positive_pages, painted_granules, planted,
    sweep_whole, Recording, HEAP, LEN, PAGES,
};
use proptest::prelude::*;
use revoker::timed::{sweep_image, TimedMode};
use revoker::{IdealLines, Kernel, NoCost, NoFilter, SweepEngine};
use tagmem::{SegmentImage, SegmentKind, LINE_SIZE, PAGE_SIZE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sweep of the PTE CapDirty visit set (§3.4.2) revokes exactly the
    /// same capability set as an unfiltered sweep, provided the dirty set
    /// covers every page that took a capability store, which is what the
    /// page table guarantees by construction. The visited and the
    /// left-out pages cover the image, and extra (false-positive) dirty
    /// pages are visited harmlessly and re-cleaned (`capdirty_sweep`
    /// checks which).
    #[test]
    fn capdirty_filter_revokes_same_set(
        plants in planted(),
        paint in painted_granules(),
        false_positives in false_positive_pages(),
    ) {
        let engine = SweepEngine::new(Kernel::Simd);
        let (mut full_mem, shadow) = build(&plants, &paint);
        let full = sweep_whole(&engine, &mut full_mem, NoFilter, &shadow, &mut NoCost);

        let (mut mem, shadow) = build(&plants, &paint);
        let mut table = dirty_table(&plants, &false_positives);
        let stats = capdirty_sweep(&engine, &mut mem, &mut table, &shadow, &mut NoCost);
        prop_assert!(mem == full_mem, "filtered sweep revoked a different set");
        prop_assert_eq!(stats.caps_revoked, full.caps_revoked);
        prop_assert_eq!(stats.caps_inspected, full.caps_inspected);
        prop_assert!(stats.bytes_swept <= full.bytes_swept);
        // Visited + skipped covers the whole image (only its last frame
        // is partial).
        prop_assert_eq!(stats.bytes_swept.div_ceil(PAGE_SIZE) + stats.pages_skipped, PAGES);
    }

    /// The ideal line oracle (Fig. 8b's lower bound) revokes exactly what
    /// an unfiltered sweep revokes and reads only the capability-bearing
    /// lines.
    #[test]
    fn line_filters_revoke_same_set(
        plants in planted(),
        paint in painted_granules(),
    ) {
        let engine = SweepEngine::new(Kernel::Simd);
        let (mut full_mem, shadow) = build(&plants, &paint);
        let full = sweep_whole(&engine, &mut full_mem, NoFilter, &shadow, &mut NoCost);

        let (mut mem, shadow) = build(&plants, &paint);
        let end = HEAP + LEN;
        let tag_free_lines = (HEAP..end)
            .step_by(LINE_SIZE as usize)
            .filter(|&line| line + LINE_SIZE <= end && mem.count_tags_in(line, LINE_SIZE) == 0)
            .count() as u64;
        let ideal = sweep_whole(&engine, &mut mem, IdealLines, &shadow, &mut NoCost);
        prop_assert!(mem == full_mem, "ideal-lines sweep revoked a different set");
        prop_assert_eq!(ideal.caps_revoked, full.caps_revoked);
        // It skips every tag-free line it can query (the partial last
        // line cannot be, so it is read) and reads the rest.
        prop_assert_eq!(ideal.lines_skipped, tag_free_lines);
        prop_assert_eq!(
            ideal.lines_skipped + ideal.bytes_swept.div_ceil(LINE_SIZE),
            LEN.div_ceil(LINE_SIZE)
        );
    }

    /// Every visit set and line filter the timed sweeps build (Fig. 8's
    /// modes over a CapDirty page list with false positives) sweeps alike
    /// on the costed walk and on the uncosted one at 1 and `workers`
    /// workers, and the costed walk reads what it reports as swept.
    #[test]
    fn parallel_filtered_matches_sequential_filtered(
        plants in planted(),
        paint in painted_granules(),
        false_positives in false_positive_pages(),
        workers in 2..=8usize,
    ) {
        let (mem, shadow) = build(&plants, &paint);
        let images = vec![SegmentImage { kind: SegmentKind::Heap, mem }];
        let dirty = dirty_table(&plants, &false_positives).cap_dirty_pages();
        for mode in [TimedMode::Full, TimedMode::PteCapDirty, TimedMode::CLoadTags, TimedMode::Ideal] {
            let mut want_image = images.clone();
            let mut cost = Recording::default();
            let engine = SweepEngine::new(Kernel::Simd);
            let want = sweep_image(&engine, &mut want_image, &dirty, &shadow, mode, &mut cost);
            prop_assert_eq!(cost.bytes_read(), want.bytes_swept);
            for n in [1, workers] {
                let mut image = images.clone();
                let engine = SweepEngine::new(Kernel::Simd).with_workers(n);
                let got = sweep_image(&engine, &mut image, &dirty, &shadow, mode, &mut NoCost);
                prop_assert!(image == want_image, "{:?} memory diverged at {} workers", mode, n);
                prop_assert_eq!(got, want, "{:?} stats diverged at {} workers", mode, n);
            }
        }
    }
}
