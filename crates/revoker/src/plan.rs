//! The plan step of a sweep (§3.4–§3.5): which chunks the walk visits.
//!
//! [`walk_region`] walks one region (a visit-set run, so CapDirty-clean
//! pages are already left out) under a
//! [`GranuleFilter`](crate::engine::GranuleFilter), skipping tag-free
//! lines, and hands every chunk that must be swept to its caller in
//! ascending address order; both of
//! [`SweepEngine`](crate::SweepEngine)'s walks run it. An uncosted sweep
//! first collects the region's chunk list with [`plan_region`] — the
//! planned bytes are Fig. 8a's memory that must be swept — and, with more
//! than one worker, [`plan_groups`] splits that list across the worker
//! pool before the engine's execute step runs it.

use tagmem::{TaggedMemory, GRANULE_SIZE, PAGE_SIZE};

use crate::engine::{line_spans, page_spans, FilterGranularity, GranuleFilter, SweepCost};
use crate::{ShadowMap, SweepStats};

/// Walks one region under `filter`, calling `emit(mem, start, len, cost,
/// stats)` for each chunk that must be swept; `emit` returns the number of
/// capabilities it inspected. The page frames the region covers whole are
/// collected into `pages` (cleared first) as `(frame, caps_found)` pairs
/// (a frame the region covers in part gets no feedback) — the engine
/// feeds these to [`GranuleFilter::page_swept`] once the region is swept
/// (page feedback only affects *future* sweeps, so deferring it preserves
/// semantics). Taking the buffer from the caller lets a reused
/// [`SweepScratch`] make this walk allocation-free after warm-up.
#[allow(clippy::too_many_arguments)] // walk ABI: region + hooks + scratch
pub(crate) fn walk_region<F, C>(
    mem: &mut TaggedMemory,
    start: u64,
    len: u64,
    filter: &mut F,
    cost: &mut C,
    stats: &mut SweepStats,
    pages: &mut Vec<(u64, u64)>,
    mut emit: impl FnMut(&mut TaggedMemory, u64, u64, &mut C, &mut SweepStats) -> u64,
) where
    F: GranuleFilter,
    C: SweepCost,
{
    pages.clear();
    match filter.granularity() {
        FilterGranularity::Region => {
            emit(mem, start, len, cost, stats);
        }
        granularity => {
            for (frame, page_start, page_end) in page_spans(start, len) {
                filter.visit_page(frame);
                let mut caps = 0u64;
                if granularity == FilterGranularity::Page {
                    caps += emit(mem, page_start, page_end - page_start, cost, stats);
                } else {
                    for (line, line_len) in line_spans(page_start, page_end - page_start) {
                        if filter.visit_line(line, mem, cost) {
                            caps += emit(mem, line, line_len, cost, stats);
                        } else {
                            stats.lines_skipped = stats.lines_skipped.saturating_add(1);
                        }
                    }
                }
                if page_end - page_start == PAGE_SIZE {
                    pages.push((frame, caps));
                }
            }
        }
    }
}

/// Plans one region of an uncosted sweep: walks it under `filter` and
/// fills `chunks` (cleared first) with the `(start, len)` chunks that must
/// be swept, in ascending address order, and `pages` with the visited
/// whole pages (their capability counts still zero). Nothing is executed.
#[allow(clippy::too_many_arguments)] // walk ABI: region + hooks + scratch
pub(crate) fn plan_region<F, C>(
    mem: &mut TaggedMemory,
    start: u64,
    len: u64,
    filter: &mut F,
    cost: &mut C,
    stats: &mut SweepStats,
    pages: &mut Vec<(u64, u64)>,
    chunks: &mut Vec<(u64, u64)>,
) where
    F: GranuleFilter,
    C: SweepCost,
{
    chunks.clear();
    walk_region(
        mem,
        start,
        len,
        filter,
        cost,
        stats,
        pages,
        |_mem, s, l, _cost, _stats| {
            chunks.push((s, l));
            0
        },
    );
}

/// Scheduling weight of one tagged granule relative to one clean byte:
/// a tagged granule costs its 16 streamed bytes *plus* `DECODE_WEIGHT ×
/// 16` for the capability decode, shadow probe, and (potential)
/// revocation store. The value is a planning heuristic, not a cost model
/// — it only shifts worker group boundaries, never what executes.
const DECODE_WEIGHT: u64 = 4;

/// Bytes of swept data covered by one modeled tag-cache line, from
/// `simcache`'s FPGA-like machine geometry (one 128-byte tag line carries
/// the tag bits for 16 KiB of data). Worker group boundaries prefer these
/// seams so no modeled tag line is shared between two workers' streams.
fn tag_cache_line_coverage() -> u64 {
    static COVERAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *COVERAGE.get_or_init(|| {
        simcache::TagCache::new(&simcache::MachineConfig::cheri_fpga_like()).coverage_per_line()
    })
}

/// Splits a planned chunk list into at most `workers` groups, filling
/// the empty `groups` with chunk-index ranges (one group means "do
/// not split"). `windows` holds the chunks' granule windows; `weights` is
/// a reused buffer for their scheduling weights.
///
/// Tag-cache-aware grouping (DESIGN.md §19). Two refinements over a
/// plain equal-bytes split, both scheduling-only — every chunk still
/// executes in plan order within its group, so memory, stats, and
/// filter feedback stay byte-identical to a one-worker sweep:
///
/// * Chunks are weighted by the work the kernel will actually do: bytes
///   streamed plus [`DECODE_WEIGHT`]× the tagged granules (each forces a
///   capability decode and shadow probe). An empty shadow collapses the
///   decode term — the fast kernels then take their empty-shadow bulk
///   fall-through and tagged granules cost no more than clean ones.
/// * Groups preferentially close on modeled tag-cache-line coverage
///   boundaries (`simcache`'s tag-cache geometry: one 128-byte tag line
///   covers 16 KiB of data), so no modeled tag line is shared between
///   workers and each worker streams whole tag lines in address order. A
///   group already one full line's coverage past its target closes at
///   any tag-word boundary, bounding the imbalance a boundary-poor plan
///   could otherwise accumulate.
///
/// Groups always close *at least* on tag-word boundaries (64 granules =
/// 1 KiB), so groups own disjoint word ranges of both arrays.
pub(crate) fn plan_groups(
    workers: usize,
    mem: &TaggedMemory,
    chunks: &[(u64, u64)],
    shadow: &ShadowMap,
    windows: &[(usize, usize)],
    weights: &mut Vec<u64>,
    groups: &mut Vec<(usize, usize)>,
) {
    let summary_clean = shadow.painted_bytes() == 0;
    weights.clear();
    weights.extend(chunks.iter().map(|&(s, l)| {
        if summary_clean {
            l
        } else {
            l.saturating_add(DECODE_WEIGHT * mem.count_tags_in(s, l) * GRANULE_SIZE)
        }
    }));
    let total_weight: u64 = weights.iter().sum();
    let target = (total_weight / workers as u64).max(1);
    let line_coverage = tag_cache_line_coverage();
    let words_per_tag_line = ((line_coverage / (64 * GRANULE_SIZE)) as usize).max(1);
    let mut group_start = 0;
    let mut acc = 0u64;
    for i in 0..chunks.len() {
        acc += weights[i];
        if acc < target || groups.len() + 1 >= workers || i + 1 == chunks.len() {
            continue;
        }
        let (next_w, last_w) = (windows[i + 1].0 / 64, (windows[i].1 - 1) / 64);
        if next_w <= last_w {
            continue; // not even a tag-word boundary
        }
        let line_boundary = next_w / words_per_tag_line > last_w / words_per_tag_line;
        if line_boundary || acc >= target.saturating_add(line_coverage) {
            groups.push((group_start, i + 1));
            group_start = i + 1;
            acc = 0;
        }
    }
    if group_start < chunks.len() {
        groups.push((group_start, chunks.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{segment_runs, CLoadTagsLines, EveryLine, NoFilter};
    use cheri::Capability;
    use tagmem::{AddressSpace, CoreDump, SegmentKind, LINE_SIZE, PAGE_SIZE};

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

    /// Counts the `CLoadTags` queries a walk issues.
    #[derive(Default)]
    struct Queries(u64);

    impl SweepCost for Queries {
        fn cloadtags(&mut self, _addr: u64) {
            self.0 += 1;
        }
    }

    /// The planned chunk list of `dump`'s heap image under `filter`, and
    /// the `CLoadTags` queries planning it issued: over the whole image,
    /// or with `capdirty` over the runs of its CapDirty pages.
    fn plan_runs(
        dump: &CoreDump,
        capdirty: bool,
        mut filter: impl GranuleFilter,
    ) -> (Vec<(u64, u64)>, u64) {
        let mut image = dump.clone();
        let mem = &mut image.segments_mut()[0].mem;
        let mut runs = Vec::new();
        let dirty = capdirty.then(|| dump.cap_dirty_pages().iter().copied());
        segment_runs(HEAP, HEAP + LEN, dirty, &mut runs);
        let (mut all, mut chunks, mut pages) = (Vec::new(), Vec::new(), Vec::new());
        let mut queries = Queries::default();
        for (start, len) in runs {
            plan_region(
                mem,
                start,
                len,
                &mut filter,
                &mut queries,
                &mut SweepStats::default(),
                &mut pages,
                &mut chunks,
            );
            all.extend_from_slice(&chunks);
        }
        (all, queries.0)
    }

    fn plan(dump: &CoreDump, filter: impl GranuleFilter) -> (Vec<(u64, u64)>, u64) {
        plan_runs(dump, false, filter)
    }

    fn bytes(chunks: &[(u64, u64)]) -> u64 {
        chunks.iter().map(|&(_, l)| l).sum()
    }

    /// The plans of Fig. 8a's three sweep modes: no assist, PTE CapDirty
    /// page skipping, and page skipping plus `CLoadTags` line skipping.
    fn mode_plans(dump: &CoreDump) -> [Vec<(u64, u64)>; 3] {
        [
            plan(dump, EveryLine).0,
            plan_runs(dump, true, EveryLine).0,
            plan_runs(dump, true, CLoadTagsLines::new()).0,
        ]
    }

    #[test]
    fn no_skipping_covers_everything() {
        let dump = dump_with_caps(&[HEAP]);
        assert_eq!(plan(&dump, NoFilter).0, vec![(HEAP, LEN)]);
        let (lines, queries) = plan(&dump, EveryLine);
        assert_eq!(bytes(&lines), LEN);
        assert_eq!(lines.len() as u64, LEN / LINE_SIZE);
        assert_eq!(queries, 0);
    }

    #[test]
    fn page_skipping_keeps_only_dirty_pages() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x5000]);
        let (chunks, _) = plan_runs(&dump, true, EveryLine);
        assert_eq!(bytes(&chunks), 2 * PAGE_SIZE);
        assert!(chunks
            .iter()
            .all(|&(a, _)| a < HEAP + PAGE_SIZE || (HEAP + 0x5000..HEAP + 0x6000).contains(&a)));
    }

    #[test]
    fn line_skipping_keeps_only_tagged_lines() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x5000]);
        let (chunks, queries) = plan_runs(&dump, true, CLoadTagsLines::new());
        assert_eq!(
            chunks,
            vec![(HEAP + 0x100, LINE_SIZE), (HEAP + 0x5000, LINE_SIZE)]
        );
        // Queried every line of the two dirty pages.
        assert_eq!(queries, 2 * PAGE_SIZE / LINE_SIZE);
    }

    #[test]
    fn plans_are_ordered_and_disjoint() {
        let dump = dump_with_caps(&[HEAP + 0x5000, HEAP + 0x100, HEAP + 0x5040, HEAP + 0xf000]);
        for (mode, chunks) in mode_plans(&dump).iter().enumerate() {
            let mut prev_end = 0u64;
            for &(a, l) in chunks {
                assert!(a >= prev_end, "mode {mode}: overlapping chunks");
                prev_end = a + l;
            }
            assert!(bytes(chunks) <= LEN);
        }
    }

    #[test]
    fn empty_image_has_empty_plan() {
        let dump = dump_with_caps(&[]);
        let (chunks, queries) = plan_runs(&dump, true, CLoadTagsLines::new());
        assert!(chunks.is_empty());
        assert_eq!(queries, 0);
        assert!(plan_runs(&dump, true, EveryLine).0.is_empty());
    }

    #[test]
    fn modes_are_monotonically_better() {
        let dump = dump_with_caps(&[HEAP + 0x100, HEAP + 0x2000, HEAP + 0x2040, HEAP + 0x9000]);
        let [none, pte, clt] = mode_plans(&dump).map(|chunks| bytes(&chunks));
        assert!(pte <= none);
        assert!(clt <= pte);
    }
}
