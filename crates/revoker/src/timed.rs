//! Cycle-accounted sweeps on a modelled machine (paper Fig. 8b).
//!
//! [`timed_sweep`] replays the access stream a revocation sweep issues —
//! data-line reads, `CLoadTags` queries, shadow-map lookups, revocation
//! stores, and the inner loop's data-dependent branches — against a
//! [`simcache::Machine`], yielding the cycle cost of the sweep under each
//! hardware-assist mode. This reproduces the paper's FPGA measurements:
//! page-level skipping tracks the ideal line closely, while `CLoadTags` pays
//! a per-line tag-cache round trip and an unpredictable branch, so it can
//! *lose* to page skipping at high line density (§6.3).
//!
//! The timed path is the *same walk* as the functional path: it runs the
//! [`SweepEngine`] with a [`SweepCost`] hook
//! that charges each access to the machine, so the visitation order (and
//! therefore the revocation set) cannot diverge from an untimed sweep by
//! construction. Each [`TimedMode`] is a visit set (whole images, or the
//! runs of the dump's CapDirty pages from the same builder a live heap
//! uses, [`segment_runs`]) and a line
//! [`GranuleFilter`](crate::engine::GranuleFilter), built in one place
//! ([`sweep_image`]); swept without a cost model, the same compositions
//! measure Fig. 8a's proportion of memory swept.

use simcache::Machine;
use tagmem::{CoreDump, SegmentImage, GRANULE_SIZE, PAGE_SIZE};

use crate::engine::{
    segment_runs, CLoadTagsLines, EveryLine, IdealLines, SweepCost, SweepEngine, SweepScratch,
};
use crate::{Kernel, ShadowMap, SweepStats};

/// The hardware configuration a timed sweep models (the four lines of
/// Fig. 8b; the first three are also Fig. 8a's sweep modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedMode {
    /// Read and inspect every line (no assists).
    Full,
    /// Skip CapDirty-clean pages; read every line of dirty pages (§3.4.2).
    PteCapDirty,
    /// Page skip + `CLoadTags` per line of dirty pages, reading only lines
    /// with tags (§3.4.1).
    CLoadTags,
    /// Oracle: read exactly the lines containing capabilities, with zero
    /// query overhead (the dotted x = y line of Fig. 8b).
    Ideal,
}

/// Cost accounting from one timed sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedSweepReport {
    /// Core cycles consumed.
    pub cycles: u64,
    /// Seconds at the machine's clock.
    pub seconds: f64,
    /// Data bytes actually read.
    pub bytes_read: u64,
    /// `CLoadTags` queries issued.
    pub cloadtags_issued: u64,
    /// Tagged words inspected.
    pub caps_inspected: u64,
    /// Capabilities that would be revoked.
    pub caps_revoked: u64,
}

/// Cycles of pure compute per inspected granule (tag test + shift + mask,
/// §3.3's inner loop on a scalar core).
const INSPECT_CYCLES: u64 = 2;

/// Simulated placement of the shadow map in the machine's address space
/// (only locality matters, not the absolute value).
const SHADOW_BASE: u64 = 0x7000_0000_0000;

/// A [`SweepCost`] that charges every engine access to a
/// [`simcache::Machine`] in visitation order.
struct MachineCost<'a> {
    machine: &'a mut Machine,
    shadow: &'a ShadowMap,
    bytes_read: u64,
    cloadtags_issued: u64,
}

impl SweepCost for MachineCost<'_> {
    fn chunk_read(&mut self, addr: u64, len: u64) {
        self.machine.read(addr, len);
        self.bytes_read += len;
        self.machine.charge((len / GRANULE_SIZE) * INSPECT_CYCLES);
    }

    fn cloadtags(&mut self, addr: u64) {
        self.machine.cloadtags(addr);
        self.cloadtags_issued += 1;
    }

    fn shadow_lookup(&mut self, cap_base: u64) {
        // Shadow-map lookup (usually LLC/L2-resident, §3.2).
        self.machine
            .read(self.shadow.shadow_addr(SHADOW_BASE, cap_base), 1);
    }

    fn revoke_store(&mut self, addr: u64) {
        // Revocation store (the data-dependent store, §3.3).
        self.machine.write(addr, GRANULE_SIZE);
    }

    fn branch_mispredict(&mut self) {
        self.machine.branch_mispredict();
    }
}

/// Sweeps `segments` (a core dump's images) with `engine` under `mode`,
/// charging `cost`: every mode but [`TimedMode::Full`] visits only the
/// runs of `dirty_pages` (the dump's sorted CapDirty page list) and counts
/// the rest as `pages_skipped`. With [`NoCost`](crate::NoCost) this is
/// the engine's uncosted walk, whose `bytes_swept` is Fig. 8a's memory
/// that must be swept; with a machine model it is [`timed_sweep`]'s walk.
pub fn sweep_image<C: SweepCost>(
    engine: &SweepEngine,
    segments: &mut [SegmentImage],
    dirty_pages: &[u64],
    shadow: &ShadowMap,
    mode: TimedMode,
    cost: &mut C,
) -> SweepStats {
    let mut runs = Vec::new();
    let mut pages_skipped = 0;
    for img in segments.iter() {
        let (base, end) = (img.mem.base(), img.mem.end());
        let dirty = (mode != TimedMode::Full).then(|| {
            let lo = dirty_pages.partition_point(|&p| p < base - base % PAGE_SIZE);
            let hi = dirty_pages.partition_point(|&p| p < end);
            dirty_pages[lo..hi].iter().copied()
        });
        pages_skipped += segment_runs(base, end, dirty, &mut runs);
    }
    let scratch = &mut SweepScratch::new();
    let mut stats = match mode {
        TimedMode::Full | TimedMode::PteCapDirty => {
            engine.sweep_with(segments, &runs, EveryLine, shadow, cost, scratch)
        }
        TimedMode::CLoadTags => engine.sweep_with(
            segments,
            &runs,
            CLoadTagsLines::new(),
            shadow,
            cost,
            scratch,
        ),
        TimedMode::Ideal => engine.sweep_with(segments, &runs, IdealLines, shadow, cost, scratch),
    };
    stats.pages_skipped += pages_skipped;
    stats
}

/// Replays a revocation sweep of `dump` on `machine` under `mode`,
/// returning its cost. The dump is not mutated (so one image can be timed
/// repeatedly, like the paper's 20-sweep averages, §5.3): the sweep runs
/// on a scratch clone whose revocations are discarded.
///
/// Uses [`Kernel::Simple`], the scalar loop the paper times. Every kernel
/// charges the same [`SweepCost`] events of each kind for the same image,
/// so tier choice moves only the host-side inner-loop cost, never the
/// modelled access stream.
pub fn timed_sweep(
    dump: &CoreDump,
    shadow: &ShadowMap,
    machine: &mut Machine,
    mode: TimedMode,
) -> TimedSweepReport {
    let mut scratch = dump.clone();
    let start_cycles = machine.cycles();
    let mut cost = MachineCost {
        machine,
        shadow,
        bytes_read: 0,
        cloadtags_issued: 0,
    };
    let stats = sweep_image(
        &SweepEngine::new(Kernel::Simple),
        scratch.segments_mut(),
        dump.cap_dirty_pages(),
        shadow,
        mode,
        &mut cost,
    );
    let (bytes_read, cloadtags_issued) = (cost.bytes_read, cost.cloadtags_issued);
    let cycles = machine.cycles() - start_cycles;
    TimedSweepReport {
        cycles,
        seconds: machine.config().cycles_to_seconds(cycles),
        bytes_read,
        cloadtags_issued,
        caps_inspected: stats.caps_inspected,
        caps_revoked: stats.caps_revoked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;
    use simcache::MachineConfig;
    use tagmem::{AddressSpace, SegmentKind, LINE_SIZE, PAGE_SIZE};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 20; // 256 pages

    /// An image with `density` of its pages holding one capability line.
    fn image(page_density: f64) -> (CoreDump, ShadowMap) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, LEN)
            .build();
        let cap = Capability::root_rw(HEAP + 0x40, 64);
        let pages = LEN / PAGE_SIZE;
        let dirty = (pages as f64 * page_density) as u64;
        for p in 0..dirty {
            space.store_cap(HEAP + p * PAGE_SIZE, &cap).unwrap();
        }
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 64);
        (CoreDump::capture(&space), shadow)
    }

    fn run(mode: TimedMode, density: f64) -> TimedSweepReport {
        let (dump, shadow) = image(density);
        let mut m = Machine::new(MachineConfig::cheri_fpga_like());
        timed_sweep(&dump, &shadow, &mut m, mode)
    }

    #[test]
    fn full_sweep_reads_everything() {
        let r = run(TimedMode::Full, 0.25);
        assert_eq!(r.bytes_read, LEN);
        assert!(r.cycles > 0);
        assert_eq!(r.caps_revoked, r.caps_inspected);
    }

    #[test]
    fn pte_skipping_scales_with_page_density() {
        let quarter = run(TimedMode::PteCapDirty, 0.25);
        let full = run(TimedMode::PteCapDirty, 1.0);
        assert_eq!(quarter.bytes_read, LEN / 4);
        assert_eq!(full.bytes_read, LEN);
        assert!(quarter.cycles < full.cycles / 2);
    }

    #[test]
    fn cloadtags_reads_least_but_pays_queries() {
        let r = run(TimedMode::CLoadTags, 0.25);
        // Only one line per dirty page actually holds tags.
        assert_eq!(r.bytes_read, (LEN / PAGE_SIZE / 4) * LINE_SIZE);
        assert_eq!(
            r.cloadtags_issued,
            (LEN / PAGE_SIZE / 4) * (PAGE_SIZE / LINE_SIZE)
        );
        // Still cheaper than reading the dirty pages wholesale here (lines
        // are very sparse inside pages).
        let pte = run(TimedMode::PteCapDirty, 0.25);
        assert!(r.cycles < pte.cycles);
    }

    #[test]
    fn cloadtags_can_lose_when_lines_are_dense() {
        // Build an image where *every* line of every page holds a pointer:
        // CLoadTags pays the query on top of reading everything (§6.3).
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 18)
            .build();
        let cap = Capability::root_rw(HEAP + 0x40, 64);
        let mut a = HEAP;
        while a < HEAP + (1 << 18) {
            space.store_cap(a, &cap).unwrap();
            a += LINE_SIZE;
        }
        let shadow = ShadowMap::new(HEAP, 1 << 18);
        let dump = CoreDump::capture(&space);
        let mut m1 = Machine::new(MachineConfig::cheri_fpga_like());
        let pte = timed_sweep(&dump, &shadow, &mut m1, TimedMode::PteCapDirty);
        let mut m2 = Machine::new(MachineConfig::cheri_fpga_like());
        let clt = timed_sweep(&dump, &shadow, &mut m2, TimedMode::CLoadTags);
        assert!(
            clt.cycles > pte.cycles,
            "CLoadTags {} <= PTE {}",
            clt.cycles,
            pte.cycles
        );
    }

    #[test]
    fn ideal_is_lower_bound() {
        for density in [0.1, 0.5, 1.0] {
            let ideal = run(TimedMode::Ideal, density);
            for mode in [
                TimedMode::Full,
                TimedMode::PteCapDirty,
                TimedMode::CLoadTags,
            ] {
                let r = run(mode, density);
                assert!(
                    ideal.cycles <= r.cycles,
                    "ideal {} > {mode:?} {} at density {density}",
                    ideal.cycles,
                    r.cycles
                );
            }
        }
    }

    #[test]
    fn revocation_counts_match_untimed_sweep() {
        let (dump, shadow) = image(0.5);
        let mut m = Machine::new(MachineConfig::cheri_fpga_like());
        let timed = timed_sweep(&dump, &shadow, &mut m, TimedMode::Full);
        // Untimed reference sweep on a copy.
        let mut dump2 = dump.clone();
        let total = crate::SweepEngine::new(crate::Kernel::Unrolled).sweep(
            dump2.segments_mut(),
            &[(HEAP, LEN)],
            crate::NoFilter,
            &shadow,
        );
        assert_eq!(timed.caps_revoked, total.caps_revoked);
        assert_eq!(timed.caps_inspected, total.caps_inspected);
    }

    /// Fig. 8a's metric for an image holding capabilities at `caps`, and
    /// the pages its visit set left out.
    fn bytes_swept(caps: &[u64], mode: TimedMode) -> (u64, u64) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, LEN)
            .build();
        for &a in caps {
            space.store_cap(a, &Capability::root_rw(HEAP, 64)).unwrap();
        }
        let mut dump = CoreDump::capture(&space);
        let dirty = dump.cap_dirty_pages().to_vec();
        let shadow = ShadowMap::new(HEAP, LEN);
        let engine = SweepEngine::new(Kernel::Fast);
        let stats = sweep_image(
            &engine,
            dump.segments_mut(),
            &dirty,
            &shadow,
            mode,
            &mut crate::NoCost,
        );
        (stats.bytes_swept, stats.pages_skipped)
    }

    #[test]
    fn assisted_sweeps_read_only_what_they_must() {
        // Two dirty pages; the second holds two capabilities in one line.
        let caps = [HEAP + 0x100, HEAP + 0x5000, HEAP + 0x5040];
        let pages = LEN / PAGE_SIZE;
        assert_eq!(bytes_swept(&caps, TimedMode::Full), (LEN, 0));
        assert_eq!(
            bytes_swept(&caps, TimedMode::PteCapDirty),
            (2 * PAGE_SIZE, pages - 2)
        );
        assert_eq!(
            bytes_swept(&caps, TimedMode::CLoadTags),
            (2 * LINE_SIZE, pages - 2)
        );
        // A capability-free image needs no sweep under either assist.
        assert_eq!(bytes_swept(&[], TimedMode::PteCapDirty), (0, pages));
        assert_eq!(bytes_swept(&[], TimedMode::CLoadTags), (0, pages));
    }

    #[test]
    fn dump_is_not_mutated_by_timing() {
        let (dump, shadow) = image(0.5);
        let before = dump.stats();
        let mut m = Machine::new(MachineConfig::cheri_fpga_like());
        timed_sweep(&dump, &shadow, &mut m, TimedMode::Full);
        assert_eq!(dump.stats(), before);
    }
}
