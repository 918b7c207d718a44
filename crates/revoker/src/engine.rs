//! The sweep engine: roots × filters × kernels (§3.3–§3.5).
//!
//! Revocation sweeping decomposes into three orthogonal choices:
//!
//! * **What to walk** — the visit set: `(start, len)` runs over a slice
//!   of memories (an [`AddressSpace`]'s segments, a core dump's images,
//!   or one [`TaggedMemory`]). The visit set is where PTE CapDirty skips
//!   clean pages (§3.4.2, §5.3): one builder, [`segment_runs`], turns a
//!   segment's dirty frames into the runs a sweep visits, for a live
//!   space ([`visit_set`]) and for a core dump
//!   ([`crate::timed::sweep_image`]) alike. The register file, the other
//!   §3.3 root, is swept by its caller with [`sweep_register_file`].
//! * **What to skip** — a [`GranuleFilter`]: nothing ([`NoFilter`]) or
//!   capability-free cache lines ([`CLoadTagsLines`], [`IdealLines`];
//!   §3.4.1). [`CapDirtyPurge`] skips nothing; it re-cleans the CapDirty
//!   false positives a sweep finds. An `Option` of a filter toggles it
//!   at run time.
//! * **How to revoke** — a [`Kernel`]: the Figure 7 optimisation tiers.
//!
//! [`SweepEngine`] composes the three, owning chunked visitation,
//! [`SweepStats`] accumulation, the worker split of §3.5, fault recovery
//! and sweep telemetry. Because the *same* walk drives both the
//! functional sweep and the cycle-accounted one (via [`SweepCost`] hooks,
//! implemented over [`simcache::Machine`] in [`crate::timed`]), the timed
//! and untimed paths share one visitation order by construction.

use std::time::{Duration, Instant};

use faultinject::{FaultInjector, FaultPoint, InjectedFault};
use tagmem::{
    AddressSpace, PageTable, RegisterFile, TaggedMemory, GRANULE_SIZE, LINE_SIZE, PAGE_SIZE,
};

use crate::plan::{plan_groups, plan_region, walk_region};
use crate::sweep::run_kernel;
use crate::{Kernel, ShadowMap, SweepPhases, SweepStats, SweepTelemetry};

/// Hooks charging the memory-system cost of a sweep's accesses.
///
/// A costed [`SweepEngine`] sweep invokes these in exactly the order the
/// sweep touches memory, so a cost model (e.g. [`crate::timed`]'s machine
/// replay) observes the same access stream the functional sweep performs.
/// Every method defaults to a no-op; [`NoCost`] is the free implementation
/// used by untimed sweeps.
pub trait SweepCost {
    /// Whether this cost model observes nothing (every hook is a no-op).
    /// When `true` the engine takes its uncosted walk (plan, then execute
    /// on the worker pool), and kernels may take accounting-free
    /// shortcuts — e.g. the fast kernel's empty-shadow bulk fall-through —
    /// so cost-charging sweeps always see the full access stream in
    /// order. Anything that records state must leave this `false` (the
    /// conservative default).
    const IS_FREE: bool = false;

    /// A data read of `len` bytes at `addr` (one chunk the engine visits).
    fn chunk_read(&mut self, addr: u64, len: u64) {
        let _ = (addr, len);
    }
    /// A `CLoadTags` tag query for the line at `addr` (§3.4.1).
    fn cloadtags(&mut self, addr: u64) {
        let _ = addr;
    }
    /// A shadow-map lookup for a capability with base `cap_base` (§3.2).
    fn shadow_lookup(&mut self, cap_base: u64) {
        let _ = cap_base;
    }
    /// The revocation store zeroing the granule at `addr` (§3.3).
    fn revoke_store(&mut self, addr: u64) {
        let _ = addr;
    }
    /// A data-dependent branch misprediction in the inner loop (§6.3).
    fn branch_mispredict(&mut self) {}
}

/// The free cost model: untimed sweeps charge nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCost;

impl SweepCost for NoCost {
    const IS_FREE: bool = true;
}

/// The visit-set builder: the one place that decides which pages of a
/// segment a sweep visits (PTE CapDirty, §3.4.2; §5.3 hands the sweep
/// "an array of pages that could contain capabilities" rather than
/// having it probe every PTE).
///
/// Appends to `runs` the runs of the segment `[base, end)` to sweep and
/// returns how many of its pages it left out. With `dirty` frames (the
/// page-aligned CapDirty frames overlapping the segment, ascending) those
/// are the frames clamped to the segment and coalesced, and every other
/// page of the segment is left out; with `None` (CapDirty off) the run is
/// the whole segment. Runs never reach past the segment, so runs of
/// adjacent segments are never joined.
pub fn segment_runs(
    base: u64,
    end: u64,
    dirty: Option<impl IntoIterator<Item = u64>>,
    runs: &mut Vec<(u64, u64)>,
) -> u64 {
    if end <= base {
        return 0;
    }
    let Some(dirty) = dirty else {
        runs.push((base, end - base));
        return 0;
    };
    let first = runs.len();
    let mut clean = end.div_ceil(PAGE_SIZE) - base / PAGE_SIZE;
    for frame in dirty {
        clean -= 1;
        let start = frame.max(base);
        let len = (frame + PAGE_SIZE).min(end) - start;
        match runs[first..].last_mut() {
            Some((rs, rl)) if *rs + *rl == start => *rl += len,
            _ => runs.push((start, len)),
        }
    }
    clean
}

/// The visit set of a sweep over `space`'s sweepable segments: fills
/// `runs` (cleared first) with [`segment_runs`] of each segment in
/// segment order, its dirty frames read from that segment's range of the
/// page table when `use_capdirty` is on, and returns the pages left out.
pub fn visit_set(space: &AddressSpace, use_capdirty: bool, runs: &mut Vec<(u64, u64)>) -> u64 {
    runs.clear();
    let table = space.page_table();
    space
        .segments()
        .iter()
        .filter(|s| s.kind().sweepable())
        .map(|seg| {
            let (base, end) = (seg.mem().base(), seg.mem().end());
            let dirty = use_capdirty.then(|| table.cap_dirty_pages_in(base, end));
            segment_runs(base, end, dirty, runs)
        })
        .sum()
}

/// How finely a [`GranuleFilter`] partitions the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterGranularity {
    /// One chunk per run (no skip opportunities).
    Region,
    /// One chunk per page ([`PAGE_SIZE`] frames; §3.4.2).
    Page,
    /// One chunk per cache line ([`LINE_SIZE`]; §3.4.1).
    Line,
}

/// A line-skipping predicate over the walk (the `CLoadTags` assist,
/// §3.4.1), plus page feedback for the CapDirty purge (§3.4.2). Which
/// pages a sweep visits is not a filter's decision: the sweep's runs are
/// the visit set ([`segment_runs`]). Filters are stateful. Within a run
/// the engine consults them in ascending address order; runs come in the
/// caller's order, which need not be ascending.
pub trait GranuleFilter {
    /// The chunking this filter needs. Defaults to whole runs.
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Region
    }

    /// The walk enters the page frame at `page` (called once per frame,
    /// ascending within a region, on page- and line-granular walks).
    fn visit_page(&mut self, page: u64) {
        let _ = page;
    }

    /// Whether the line at `line` (within a visited page) must be swept.
    /// Defaults to sweeping.
    fn visit_line<C: SweepCost>(&mut self, line: u64, mem: &TaggedMemory, cost: &mut C) -> bool {
        let _ = (line, mem, cost);
        true
    }

    /// Feedback after one region has swept the whole page frame at
    /// `page`: `caps_found` is the number of capabilities inspected on it
    /// (0 ⇒ CapDirty false positive, §3.4.2). A frame a region covers only
    /// in part (a slice cut, a segment end, a frame two segments share)
    /// gets no feedback, since no one region saw all of it.
    fn page_swept(&mut self, page: u64, caps_found: u64) {
        let _ = (page, caps_found);
    }
}

/// No filtering: sweep every byte of every region.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFilter;

impl GranuleFilter for NoFilter {}

/// An optional filter: `None` filters nothing (as [`NoFilter`]), so a
/// policy toggle such as CapDirty picks its filter at run time.
impl<F: GranuleFilter> GranuleFilter for Option<F> {
    fn granularity(&self) -> FilterGranularity {
        self.as_ref()
            .map_or(FilterGranularity::Region, F::granularity)
    }

    fn visit_page(&mut self, page: u64) {
        if let Some(f) = self {
            f.visit_page(page);
        }
    }

    fn visit_line<C: SweepCost>(&mut self, line: u64, mem: &TaggedMemory, cost: &mut C) -> bool {
        self.as_mut().is_none_or(|f| f.visit_line(line, mem, cost))
    }

    fn page_swept(&mut self, page: u64, caps_found: u64) {
        if let Some(f) = self {
            f.page_swept(page, caps_found);
        }
    }
}

/// The PTE CapDirty false-positive purge over a live [`PageTable`]
/// (§3.4.2): a page frame swept whole and found capability-free is
/// re-cleaned, so later visit sets leave it out. It skips nothing.
pub struct CapDirtyPurge<'a>(&'a mut PageTable);

impl<'a> CapDirtyPurge<'a> {
    /// A purge over `table`'s CapDirty bits.
    pub fn new(table: &'a mut PageTable) -> CapDirtyPurge<'a> {
        CapDirtyPurge(table)
    }
}

impl GranuleFilter for CapDirtyPurge<'_> {
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Page
    }

    fn page_swept(&mut self, page: u64, caps_found: u64) {
        if caps_found == 0 {
            self.0.clear_cap_dirty(page);
        }
    }
}

/// The `CLoadTags` primitive (§3.4.1): whether the cache line containing
/// `line` holds any tagged granule. Conservative: a line that cannot be
/// queried counts as tagged.
fn line_has_tags(mem: &TaggedMemory, line: u64) -> bool {
    mem.load_tags(line).map(|mask| mask != 0).unwrap_or(true)
}

/// `CLoadTags` line skipping (§3.4.1): each line pays a tag query, and the
/// skip decision is a data-dependent branch mispredicted whenever it flips
/// (§6.3) — which is why this filter can *lose* at high line density.
#[derive(Debug, Clone, Copy, Default)]
pub struct CLoadTagsLines {
    prev_skipped: bool,
}

impl CLoadTagsLines {
    /// A fresh filter (predictor state reset).
    pub fn new() -> CLoadTagsLines {
        CLoadTagsLines::default()
    }
}

impl GranuleFilter for CLoadTagsLines {
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Line
    }

    fn visit_page(&mut self, _page: u64) {
        self.prev_skipped = false;
    }

    fn visit_line<C: SweepCost>(&mut self, line: u64, mem: &TaggedMemory, cost: &mut C) -> bool {
        cost.cloadtags(line);
        let skip = !line_has_tags(mem, line);
        if skip != self.prev_skipped {
            cost.branch_mispredict();
        }
        self.prev_skipped = skip;
        !skip
    }
}

/// Oracle line skipping: reads exactly the lines containing capabilities
/// with zero query overhead (Fig. 8b's dotted lower bound).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealLines;

impl GranuleFilter for IdealLines {
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Line
    }

    fn visit_line<C: SweepCost>(&mut self, line: u64, mem: &TaggedMemory, _cost: &mut C) -> bool {
        line_has_tags(mem, line)
    }
}

/// Forces line-granular chunking without skipping anything: a timed full
/// sweep reads line by line, like the hardware it models.
#[derive(Debug, Clone, Copy, Default)]
pub struct EveryLine;

impl GranuleFilter for EveryLine {
    fn granularity(&self) -> FilterGranularity {
        FilterGranularity::Line
    }
}

/// Yields the page frames overlapping `[start, start + len)` as
/// `(frame, clamped_start, clamped_end)` triples, ascending. `frame` is
/// the [`PAGE_SIZE`]-aligned key used by page tables.
pub(crate) fn page_spans(start: u64, len: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let end = start + len;
    let mut page = start & !(PAGE_SIZE - 1);
    core::iter::from_fn(move || {
        if page >= end {
            return None;
        }
        let frame = page;
        let span = (frame.max(start), (frame + PAGE_SIZE).min(end));
        page += PAGE_SIZE;
        Some((frame, span.0, span.1))
    })
}

/// Yields `(line_start, line_len)` chunks of at most [`LINE_SIZE`] bytes
/// covering `[start, start + len)`, ascending — the visitation order the
/// engine uses for line-granular walks.
pub(crate) fn line_spans(start: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
    let end = start + len;
    let mut line = start;
    core::iter::from_fn(move || {
        if line >= end {
            return None;
        }
        let chunk = (line, (end - line).min(LINE_SIZE));
        line += chunk.1;
        Some(chunk)
    })
}

/// Reusable working memory for sweeps.
///
/// Each sweep needs a handful of growable buffers: the visited-page
/// feedback list, the planned chunk list, per-chunk granule windows,
/// worker group boundaries and per-worker capability-count buffers. A
/// `SweepScratch` owns all of them, so a caller that threads the *same*
/// scratch through every [`SweepEngine::sweep_with`] call pays each
/// allocation once: the buffers grow to their high-water mark during
/// warm-up and are then reused, leaving steady-state sweeps with **zero
/// heap allocations** in the walk and inner loop (apart from the
/// O(workers) thread spawns of a multi-worker sweep). [`SweepEngine::sweep`]
/// builds a fresh scratch per call.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// `(frame, caps_found)` pairs from the page walk of one region.
    pages: Vec<(u64, u64)>,
    /// Planned `(start, len)` chunk list of one region.
    chunks: Vec<(u64, u64)>,
    /// Buffers for executing the planned chunks.
    exec: ExecScratch,
}

impl SweepScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> SweepScratch {
        SweepScratch::default()
    }
}

/// The buffers [`SweepEngine`]'s execute step reuses.
#[derive(Debug, Default)]
struct ExecScratch {
    /// Granule windows per planned chunk.
    windows: Vec<(usize, usize)>,
    /// Per-chunk `caps_inspected` counts, in plan order.
    caps_per_chunk: Vec<u64>,
    /// Per-chunk scheduling weights (bytes + decode work), in plan order.
    weights: Vec<u64>,
    /// Worker group boundaries as chunk-index ranges.
    groups: Vec<(usize, usize)>,
    /// Per-worker capability-count buffers (never shrunk, so a worker
    /// pool's buffers persist across sweeps).
    worker_caps: Vec<Vec<u64>>,
}

/// Sweeps the capability register file against `shadow` (§3.3's register
/// roots).
pub fn sweep_register_file(regs: &mut RegisterFile, shadow: &ShadowMap) -> SweepStats {
    let mut stats = SweepStats::default();
    for cap in regs.iter_mut() {
        if cap.tag() {
            stats.caps_inspected += 1;
            if shadow.is_painted(cap.base()) {
                *cap = cap.cleared();
                stats.caps_revoked += 1;
                stats.regs_revoked += 1;
            }
        }
    }
    stats
}

/// Upper bound on a sweep's worker count: beyond this, thread spawn and
/// merge overhead dominates any sweep this repo models, so
/// `RevocationPolicy::validated` clamps larger requests (with a warning)
/// rather than honouring them.
pub const MAX_SWEEP_WORKERS: usize = 64;

/// The sweep engine: one `runs × filter × kernel` composition (§3.3–§3.5).
///
/// An engine holds the [`Kernel`], a worker count (default 1, set with
/// [`SweepEngine::with_workers`]), a [`SweepTelemetry`] and a
/// [`FaultInjector`]. A sweep's root set is a list of memories (segments,
/// dump images or bare [`TaggedMemory`]) and the `(start, len)` runs to
/// walk in them, each granule-aligned and inside one memory; the runs
/// come in the caller's order, and each is walked in ascending address
/// order, one of two ways, picked by [`SweepCost::IS_FREE`]:
///
/// * **Costed** (a cost model is attached, as in [`crate::timed`]): each
///   chunk is executed on the calling thread the moment the walk reaches
///   it, so the cost model observes every access in visitation order.
/// * **Uncosted**: the walk first plans the region's chunk list, then the
///   execute step runs it. Skip decisions cannot depend on execution
///   (revocations only clear tags in already-visited chunks), so
///   plan-then-execute revokes exactly what the interleaved walk does.
///   With more than one worker the plan is split across scoped threads on
///   tag-word boundaries (workers own disjoint 64-granule words, so no two
///   touch the same tag word; §3.5's embarrassing parallelism), and
///   per-worker stats merge deterministically with
///   [`SweepStats::merge_parallel`]. An armed fault injector runs each
///   chunk under `catch_unwind` and retries a poisoned chunk on the
///   reference kernel.
///
/// Both walks leave byte-identical memory, tags and [`SweepStats`] for
/// any worker count. The register file is not a run: a caller whose root
/// set includes it sweeps it with [`sweep_register_file`]. Attached
/// telemetry times each sweep and reports it
/// as metrics plus one structured event; detached telemetry (the
/// default) costs one branch per sweep.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    kernel: Kernel,
    workers: usize,
    telemetry: SweepTelemetry,
    faults: FaultInjector,
}

impl SweepEngine {
    /// A one-worker engine revoking with `kernel`.
    pub fn new(kernel: Kernel) -> SweepEngine {
        SweepEngine {
            kernel,
            workers: 1,
            telemetry: SweepTelemetry::default(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Splits uncosted sweeps across `workers` threads (clamped to ≥ 1;
    /// 1 executes on the calling thread with no thread overhead).
    pub fn with_workers(mut self, workers: usize) -> SweepEngine {
        self.workers = workers.max(1);
        self
    }

    /// Attaches sweep telemetry: every subsequent sweep records its
    /// duration, volume and revocation counts.
    pub fn with_telemetry(mut self, telemetry: SweepTelemetry) -> SweepEngine {
        self.telemetry = telemetry;
        self
    }

    /// Arms fault injection: uncosted sweep chunks then run under
    /// `catch_unwind` with injected [`FaultPoint::SweepWorkerPanic`] /
    /// [`FaultPoint::TagReadError`] faults, recovering by retrying the
    /// poisoned chunk on the sequential reference kernel
    /// ([`Kernel::Unrolled`]). A disabled injector (the default) keeps the
    /// unguarded fast path.
    pub fn with_faults(mut self, faults: FaultInjector) -> SweepEngine {
        self.faults = faults;
        self
    }

    /// Sweeps `runs` of `memories` under `filter` without cost accounting,
    /// with a fresh [`SweepScratch`].
    pub fn sweep<M, F>(
        &self,
        memories: &mut [M],
        runs: &[(u64, u64)],
        filter: F,
        shadow: &ShadowMap,
    ) -> SweepStats
    where
        M: AsMut<TaggedMemory>,
        F: GranuleFilter,
    {
        self.sweep_with(
            memories,
            runs,
            filter,
            shadow,
            &mut NoCost,
            &mut SweepScratch::new(),
        )
    }

    /// Sweeps `runs` of `memories` under `filter`, charging every access
    /// to `cost` in visitation order (the costed walk; [`NoCost`] selects
    /// the uncosted one) and reusing `scratch`'s buffers.
    ///
    /// # Panics
    ///
    /// If a run is not granule-aligned or lies inside no one of
    /// `memories`.
    pub fn sweep_with<M, F, C>(
        &self,
        memories: &mut [M],
        runs: &[(u64, u64)],
        mut filter: F,
        shadow: &ShadowMap,
        cost: &mut C,
        scratch: &mut SweepScratch,
    ) -> SweepStats
    where
        M: AsMut<TaggedMemory>,
        F: GranuleFilter,
        C: SweepCost,
    {
        let timer = self.telemetry.is_enabled().then(Instant::now);
        let mut clock = PhaseClock { last: timer };
        let mut phases = SweepPhases::default();
        let mut stats = SweepStats::default();
        let SweepScratch {
            pages,
            chunks,
            exec,
        } = scratch;
        for &(start, len) in runs {
            // The root-set check: the run is granule-aligned and lies
            // inside one memory.
            let mem = memories
                .iter_mut()
                .map(AsMut::as_mut)
                .find(|mem| mem.contains(start, len))
                .filter(|_| (start | len) % GRANULE_SIZE == 0)
                .unwrap_or_else(|| {
                    panic!("sweep run ({start:#x}, {len:#x}) is unaligned or in no one memory")
                });
            if C::IS_FREE {
                // Uncosted: plan the region's chunks, then execute them.
                plan_region(
                    mem,
                    start,
                    len,
                    &mut filter,
                    cost,
                    &mut stats,
                    pages,
                    chunks,
                );
                phases.plan += clock.lap();
                self.execute_chunks(mem, chunks, shadow, &mut stats, exec);
                phases.execute += clock.lap();
                // Fold per-chunk capability counts back onto their pages:
                // both lists ascend, so one forward merge pairs them.
                let mut i = 0;
                for (&(chunk_start, _), &caps) in chunks.iter().zip(exec.caps_per_chunk.iter()) {
                    let frame = chunk_start & !(PAGE_SIZE - 1);
                    while pages.get(i).is_some_and(|&(f, _)| f < frame) {
                        i += 1;
                    }
                    match pages.get_mut(i) {
                        Some((f, found)) if *f == frame => *found += caps,
                        _ => {}
                    }
                }
            } else {
                // Costed: execute each chunk as the walk reaches it.
                walk_region(
                    mem,
                    start,
                    len,
                    &mut filter,
                    cost,
                    &mut stats,
                    pages,
                    |mem, s, l, cost, stats| {
                        cost.chunk_read(s, l);
                        let before = stats.caps_inspected;
                        let base = mem.base();
                        let g0 = ((s - base) / GRANULE_SIZE) as usize;
                        let g1 = g0 + (l / GRANULE_SIZE) as usize;
                        let (data, tags) = mem.as_parts_mut();
                        run_kernel(self.kernel, data, tags, g0, g1, shadow, base, cost, stats);
                        stats.bytes_swept = stats.bytes_swept.saturating_add(l);
                        stats.caps_inspected - before
                    },
                );
                phases.execute += clock.lap();
            }
            for &(frame, caps) in pages.iter() {
                filter.page_swept(frame, caps);
            }
            phases.plan += clock.lap();
        }
        if stats.chunks_retried > 0 {
            self.telemetry
                .observe_retries(stats.chunks_retried, self.kernel.name());
        }
        if let Some(timer) = timer {
            self.telemetry.observe(
                &stats,
                timer.elapsed(),
                phases,
                self.workers,
                self.kernel.name(),
            );
        }
        stats
    }

    /// The execute step of an uncosted sweep: runs a planned chunk list,
    /// split across the worker pool when `workers > 1` and the plan is
    /// large enough to split. Fills `exec.caps_per_chunk` with per-chunk
    /// `caps_inspected` counts in plan order.
    fn execute_chunks(
        &self,
        mem: &mut TaggedMemory,
        chunks: &[(u64, u64)],
        shadow: &ShadowMap,
        stats: &mut SweepStats,
        exec: &mut ExecScratch,
    ) {
        let (kernel, faults) = (self.kernel, &self.faults);
        let base = mem.base();
        // Granule windows per chunk (chunks are granule-aligned by
        // construction: regions, pages, and lines are all multiples of 16).
        let windows = &mut exec.windows;
        windows.clear();
        windows.extend(chunks.iter().map(|&(s, l)| {
            let g0 = ((s - base) / GRANULE_SIZE) as usize;
            (g0, g0 + (l / GRANULE_SIZE) as usize)
        }));
        exec.caps_per_chunk.clear();
        exec.groups.clear();
        if self.workers > 1 && chunks.len() > 1 {
            plan_groups(
                self.workers,
                mem,
                chunks,
                shadow,
                &exec.windows,
                &mut exec.weights,
                &mut exec.groups,
            );
        }

        if exec.groups.len() <= 1 {
            let (data, tags) = mem.as_parts_mut();
            for (&(_, l), &(g0, g1)) in chunks.iter().zip(exec.windows.iter()) {
                let before = stats.caps_inspected;
                run_chunk_guarded(kernel, faults, data, tags, g0, g1, shadow, base, stats);
                stats.bytes_swept = stats.bytes_swept.saturating_add(l);
                exec.caps_per_chunk.push(stats.caps_inspected - before);
            }
            return;
        }

        // Carve each group's word range out of the data and tag arrays.
        let ExecScratch {
            windows,
            caps_per_chunk,
            groups,
            worker_caps,
            ..
        } = exec;
        let (data, tags) = mem.as_parts_mut();
        let mut data_rest: &mut [u8] = data;
        let mut tags_rest: &mut [u64] = tags;
        let mut word_off = 0usize;
        let mut jobs = Vec::with_capacity(groups.len());
        for &(c0, c1) in groups.iter() {
            let w_lo = windows[c0].0 / 64;
            let w_hi = (windows[c1 - 1].1).div_ceil(64);
            // Discard [word_off, w_lo).
            let skip = w_lo - word_off;
            let taken_d = std::mem::take(&mut data_rest);
            let (_, d) =
                taken_d.split_at_mut((skip * 64 * GRANULE_SIZE as usize).min(taken_d.len()));
            let taken_t = std::mem::take(&mut tags_rest);
            let (_, t) = taken_t.split_at_mut(skip.min(taken_t.len()));
            // Take [w_lo, w_hi).
            let take_w = w_hi - w_lo;
            let (dj, d_rest) = d.split_at_mut((take_w * 64 * GRANULE_SIZE as usize).min(d.len()));
            let (tj, t_rest) = t.split_at_mut(take_w.min(t.len()));
            data_rest = d_rest;
            tags_rest = t_rest;
            word_off = w_hi;
            jobs.push((c0, c1, w_lo, dj, tj));
        }

        // Per-worker capability buffers persist in the scratch; grow the pool
        // but never shrink it (shrinking would free a warmed-up buffer).
        if worker_caps.len() < groups.len() {
            worker_caps.resize_with(groups.len(), Vec::new);
        }
        let windows: &[(usize, usize)] = windows;
        let partials: Vec<SweepStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .zip(worker_caps.iter_mut())
                .map(|((c0, c1, w_lo, dj, tj), caps)| {
                    scope.spawn(move || {
                        caps.clear();
                        let mut local = SweepStats::default();
                        let local_base = base + (w_lo as u64) * 64 * GRANULE_SIZE;
                        for i in c0..c1 {
                            let (g0, g1) = windows[i];
                            let before = local.caps_inspected;
                            run_chunk_guarded(
                                kernel,
                                faults,
                                dj,
                                tj,
                                g0 - w_lo * 64,
                                g1 - w_lo * 64,
                                shadow,
                                local_base,
                                &mut local,
                            );
                            local.bytes_swept = local.bytes_swept.saturating_add(chunks[i].1);
                            caps.push(local.caps_inspected - before);
                        }
                        local
                    })
                })
                .collect();
            // A worker only panics when even the reference-kernel retry in
            // `run_chunk_guarded` failed (a genuine kernel bug, not an
            // injected fault); propagate it with its original payload.
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(partial) => partial,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        for caps in worker_caps.iter().take(groups.len()) {
            caps_per_chunk.extend_from_slice(caps);
        }
        *stats += SweepStats::merge_parallel(partials);
    }
}

/// Laps an attached sweep's clock for its plan/execute split. Detached,
/// it holds no instant and reads no clock.
struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    /// The time since the previous lap, or zero when detached.
    fn lap(&mut self) -> Duration {
        let Some(last) = &mut self.last else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        let elapsed = now - *last;
        *last = now;
        elapsed
    }
}

/// Runs one planned chunk through the kernel, panic-safely when fault
/// injection is armed.
///
/// With a disabled injector this is exactly `run_kernel` — no
/// `catch_unwind`, no extra branches beyond the enablement check. Armed,
/// the chunk runs under [`std::panic::catch_unwind`] with injected
/// [`FaultPoint::SweepWorkerPanic`] / [`FaultPoint::TagReadError`] faults;
/// a panicking chunk is retried once on the sequential reference kernel
/// ([`Kernel::Unrolled`]), which is sound because revocation is idempotent —
/// kernels only *clear* tags, never set them, so re-sweeping a partially
/// swept chunk revokes exactly the capabilities the aborted attempt
/// missed. A panicked attempt's partial stats are discarded (the retry
/// re-counts what is still tagged), so `caps_revoked` stays exact while
/// `caps_inspected` may undercount caps revoked by the aborted attempt.
/// A second panic is a genuine kernel bug and propagates.
#[allow(clippy::too_many_arguments)] // mirrors run_kernel's plan ABI
fn run_chunk_guarded(
    kernel: Kernel,
    faults: &FaultInjector,
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    stats: &mut SweepStats,
) {
    if !faults.is_enabled() {
        run_kernel(kernel, data, tags, g0, g1, shadow, base, &mut NoCost, stats);
        return;
    }
    let inject = if faults.should_fire(FaultPoint::SweepWorkerPanic) {
        Some(InjectedFault::WorkerPanic)
    } else if faults.should_fire(FaultPoint::TagReadError) {
        Some(InjectedFault::TagReadError)
    } else {
        None
    };
    let mut attempt = SweepStats::default();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(fault) = inject {
            std::panic::panic_any(fault);
        }
        run_kernel(
            kernel,
            data,
            tags,
            g0,
            g1,
            shadow,
            base,
            &mut NoCost,
            &mut attempt,
        );
    }));
    match outcome {
        Ok(()) => *stats += attempt,
        Err(_poisoned) => {
            stats.chunks_retried = stats.chunks_retried.saturating_add(1);
            let mut retry = SweepStats::default();
            let retried = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_kernel(
                    Kernel::Unrolled,
                    data,
                    tags,
                    g0,
                    g1,
                    shadow,
                    base,
                    &mut NoCost,
                    &mut retry,
                );
            }));
            match retried {
                Ok(()) => *stats += retry,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{sweep_image, TimedMode};
    use cheri::Capability;
    use tagmem::{CoreDump, SegmentKind};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 16;

    fn seeded_space(seed: u64) -> (AddressSpace, ShadowMap) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, LEN)
            .build();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = HEAP + (x >> 20) % (LEN - 16) / 16 * 16;
            let obj = HEAP + ((x >> 40) % 4096) * 16;
            space
                .store_cap(slot, &Capability::root_rw(obj, 16))
                .unwrap();
        }
        let mut shadow = ShadowMap::new(HEAP, LEN);
        for g in 0..4096u64 {
            if g % 3 == 0 {
                shadow.paint(HEAP + g * 16, 16);
            }
        }
        (space, shadow)
    }

    #[test]
    fn line_spans_cover_range_exactly() {
        let spans: Vec<_> = line_spans(HEAP + 32, 300).collect();
        let total: u64 = spans.iter().map(|s| s.1).sum();
        assert_eq!(total, 300);
        assert_eq!(spans[0], (HEAP + 32, 128));
        assert_eq!(spans.last().unwrap().1, 300 - 256);
        // Chunks are contiguous.
        for w in spans.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0);
        }
    }

    #[test]
    fn page_spans_use_aligned_frames() {
        let spans: Vec<_> = page_spans(HEAP + 100, PAGE_SIZE + 200).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], (HEAP, HEAP + 100, HEAP + PAGE_SIZE));
        assert_eq!(
            spans[1],
            (HEAP + PAGE_SIZE, HEAP + PAGE_SIZE, HEAP + PAGE_SIZE + 300)
        );
    }

    /// A recording cost model: attaching it selects the costed walk.
    #[derive(Default)]
    struct BytesRead(u64);

    impl SweepCost for BytesRead {
        fn chunk_read(&mut self, _addr: u64, len: u64) {
            self.0 += len;
        }
    }

    /// The runs of `space`'s sweepable segments, each whole.
    fn whole_runs(space: &AddressSpace) -> Vec<(u64, u64)> {
        let mut runs = Vec::new();
        visit_set(space, false, &mut runs);
        runs
    }

    /// Sweeps `space` the epoch's way: its CapDirty visit set, through the
    /// false-positive purge.
    fn sweep_visit_set<C: SweepCost>(
        engine: &SweepEngine,
        space: &mut AddressSpace,
        shadow: &ShadowMap,
        cost: &mut C,
        scratch: &mut SweepScratch,
    ) -> SweepStats {
        let mut runs = Vec::new();
        visit_set(space, true, &mut runs);
        let (segments, _, table) = space.sweep_parts_mut();
        engine.sweep_with(
            segments,
            &runs,
            CapDirtyPurge::new(table),
            shadow,
            cost,
            scratch,
        )
    }

    #[test]
    fn parallel_engine_matches_sequential_on_all_filters() {
        // The costed walk (interleaved, on the calling thread) is the
        // reference; the uncosted walk matches it at any worker count,
        // under the epoch's purge and every line filter `timed` builds.
        let dump = CoreDump::capture(&seeded_space(7).0);
        for workers in [1, 2, 3, 8] {
            let engine = SweepEngine::new(Kernel::Unrolled).with_workers(workers);
            let (mut a, shadow) = seeded_space(7);
            let (mut b, _) = seeded_space(7);

            let mut cost = BytesRead::default();
            let costed = sweep_visit_set(
                &engine,
                &mut a,
                &shadow,
                &mut cost,
                &mut SweepScratch::new(),
            );
            let uncosted = sweep_visit_set(
                &engine,
                &mut b,
                &shadow,
                &mut NoCost,
                &mut SweepScratch::new(),
            );
            assert_eq!(costed, uncosted, "workers={workers}");
            assert_eq!(cost.0, costed.bytes_swept, "workers={workers}");
            assert_eq!(CoreDump::capture(&a), CoreDump::capture(&b));

            for mode in [
                TimedMode::Full,
                TimedMode::PteCapDirty,
                TimedMode::CLoadTags,
                TimedMode::Ideal,
            ] {
                let dirty = dump.cap_dirty_pages();
                let (mut x, mut y) = (dump.clone(), dump.clone());
                let costed = sweep_image(
                    &engine,
                    x.segments_mut(),
                    dirty,
                    &shadow,
                    mode,
                    &mut BytesRead::default(),
                );
                let uncosted =
                    sweep_image(&engine, y.segments_mut(), dirty, &shadow, mode, &mut NoCost);
                assert_eq!(costed, uncosted, "{mode:?}, workers={workers}");
                assert_eq!(x, y, "{mode:?}, workers={workers}");
            }
        }
    }

    #[test]
    fn injected_sweep_faults_recover_with_identical_results() {
        faultinject::silence_injected_panics();
        for workers in [1, 4] {
            let (mut a, shadow) = seeded_space(11);
            let (mut b, _) = seeded_space(11);
            let runs = whole_runs(&a);

            let clean = SweepEngine::new(Kernel::Fast).with_workers(workers).sweep(
                a.segments_mut(),
                &runs,
                CLoadTagsLines::new(),
                &shadow,
            );

            // Panic on most chunks: every other chunk with a worker
            // panic, every other remaining one with a tag read error.
            let plan =
                faultinject::FaultPlan::parse("worker_panic@1/2,tag_read_error@2/2").unwrap();
            let inj = FaultInjector::new(plan);
            let faulted = SweepEngine::new(Kernel::Fast)
                .with_workers(workers)
                .with_faults(inj.clone())
                .sweep(b.segments_mut(), &runs, CLoadTagsLines::new(), &shadow);

            assert!(faulted.chunks_retried > 0, "workers={workers}");
            assert!(inj.fired(FaultPoint::SweepWorkerPanic) > 0);
            // Injected panics fire before the kernel touches the chunk
            // and the retry runs the reference kernel over the whole
            // window, so results and stats are identical to a clean run.
            let mut normalised = faulted;
            normalised.chunks_retried = 0;
            assert_eq!(clean, normalised, "workers={workers}");
            assert_eq!(a.tag_count(), b.tag_count(), "workers={workers}");
        }
    }

    #[test]
    fn sweep_retries_are_observable_in_telemetry() {
        faultinject::silence_injected_panics();
        let registry = telemetry::Registry::new(16);
        let (mut space, shadow) = seeded_space(3);
        let inj = FaultInjector::new(faultinject::FaultPlan::parse("worker_panic@1x2").unwrap());
        let runs = whole_runs(&space);
        let stats = SweepEngine::new(Kernel::Fast)
            .with_workers(2)
            .with_telemetry(crate::SweepTelemetry::register(&registry))
            .with_faults(inj)
            .sweep(space.segments_mut(), &runs, NoFilter, &shadow);
        assert!(stats.chunks_retried > 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["cvk_sweep_retries_total"],
            stats.chunks_retried
        );
        assert!(registry
            .recent_events(16)
            .iter()
            .any(|e| matches!(e.kind, telemetry::EventKind::SweepRetried { .. })));
    }

    #[test]
    fn scratched_sweeps_match_unscratched() {
        let mut scratch = SweepScratch::new();
        for seed in 0..3u64 {
            for engine in [
                SweepEngine::new(Kernel::Fast),
                SweepEngine::new(Kernel::Fast).with_workers(4),
            ] {
                // The page-feedback, plan and worker buffers are reused.
                let (mut a, shadow) = seeded_space(seed);
                let (mut b, _) = seeded_space(seed);
                let plain = sweep_visit_set(
                    &engine,
                    &mut a,
                    &shadow,
                    &mut NoCost,
                    &mut SweepScratch::new(),
                );
                let scratched =
                    sweep_visit_set(&engine, &mut b, &shadow, &mut NoCost, &mut scratch);
                assert_eq!(plain, scratched, "seed {seed}");
                assert_eq!(a.tag_count(), b.tag_count(), "seed {seed}");
            }
        }
    }

    /// A heap and a stack that abut at `HEAP + LEN`, and a shadow.
    fn abutting_segments() -> (AddressSpace, ShadowMap) {
        let space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, LEN)
            .segment(SegmentKind::Stack, HEAP + LEN, LEN)
            .build();
        (space, ShadowMap::new(HEAP, LEN))
    }

    #[test]
    #[should_panic(expected = "is unaligned or in no one memory")]
    fn a_run_straddling_two_memories_panics() {
        let (mut space, shadow) = abutting_segments();
        let runs = [(HEAP + LEN - PAGE_SIZE, 2 * PAGE_SIZE)];
        SweepEngine::new(Kernel::Fast).sweep(space.segments_mut(), &runs, NoFilter, &shadow);
    }

    #[test]
    #[should_panic(expected = "is unaligned or in no one memory")]
    fn a_run_in_no_memory_panics() {
        let (mut space, shadow) = abutting_segments();
        let runs = [(HEAP + 2 * LEN, PAGE_SIZE)];
        SweepEngine::new(Kernel::Fast).sweep(space.segments_mut(), &runs, NoFilter, &shadow);
    }

    #[test]
    #[should_panic(expected = "is unaligned or in no one memory")]
    fn an_unaligned_run_panics() {
        let (mut space, shadow) = abutting_segments();
        let runs = [(HEAP + GRANULE_SIZE / 2, PAGE_SIZE)];
        SweepEngine::new(Kernel::Fast).sweep(space.segments_mut(), &runs, NoFilter, &shadow);
    }

    #[test]
    fn a_frame_two_segments_share_is_swept_by_both() {
        // The heap ends and the stack begins in the middle of one frame.
        // The heap's part of it holds no capability; the stack's part
        // holds one to a painted granule.
        let shared = HEAP + 3 * PAGE_SIZE;
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 3 * PAGE_SIZE + PAGE_SIZE / 2)
            .segment(SegmentKind::Stack, shared + PAGE_SIZE / 2, PAGE_SIZE / 2)
            .build();
        let slot = shared + PAGE_SIZE / 2 + 0x40;
        space
            .store_cap(slot, &Capability::root_rw(HEAP + 0x100, 16))
            .unwrap();
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x100, 16);
        // The epoch's way: the visit set's runs, then the purge.
        let mut runs = Vec::new();
        assert_eq!(visit_set(&space, true, &mut runs), 3);
        assert_eq!(
            runs,
            vec![
                (shared, PAGE_SIZE / 2),
                (shared + PAGE_SIZE / 2, PAGE_SIZE / 2)
            ]
        );
        let (segments, _, table) = space.sweep_parts_mut();
        let stats = SweepEngine::new(Kernel::Fast).sweep(
            segments,
            &runs,
            CapDirtyPurge::new(table),
            &shadow,
        );
        assert_eq!(stats.caps_revoked, 1, "the stack's capability is revoked");
        assert_eq!(stats.bytes_swept, PAGE_SIZE);
        assert!(!space.load_cap(slot).unwrap().tag());
        assert!(
            space.page_table().is_cap_dirty(shared),
            "no one region swept the shared frame whole"
        );
    }
}
