//! The [`CherivokeHeap`]: allocator + shadow map + sweep engine (paper
//! fig. 3). Every revocation cycle — stop-the-world, incremental, and
//! recovery's roll-forward — is one epoch state machine (see the `epoch`
//! module). All sweeps — epoch slices and foreign root-set sweeps — run
//! through one [`SweepEngine`], sized by
//! [`RevocationPolicy::sweep_workers`].

use cheri::{CapError, Capability, Perms};
use cvkalloc::{CherivokeAllocator, ChunkState, DlAllocator};
use journal::{Journal, Record, TailState};
use revoker::fault::FaultPoint;
use revoker::{
    audit_dump, sweep_register_file, visit_set, AuditReport, CapDirtyPurge, NoCost, ShadowMap,
    SweepEngine, SweepScratch, SweepStats,
};
use tagmem::{AddressSpace, CoreDump, SegmentKind};

use crate::epoch::Epoch;
use crate::obs::HeapTelemetry;
use crate::recovery::{
    warn_once, HeapImage, ImageChunk, ImageChunkState, RecoveryAction, RecoveryError,
    RecoveryReport,
};
use crate::{HeapError, HeapStats, RevocationPolicy};

/// Memory layout and policy for a [`CherivokeHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapConfig {
    /// Heap segment base address (granule-aligned).
    pub heap_base: u64,
    /// Heap segment size in bytes (granule-aligned).
    pub heap_size: u64,
    /// Stack segment size (placed just below `0x7fff_0000_0000`).
    pub stack_size: u64,
    /// Globals segment size (placed at `0x60_0000`).
    pub globals_size: u64,
    /// Revocation policy.
    pub policy: RevocationPolicy,
}

impl Default for HeapConfig {
    /// 16 MiB heap, 256 KiB stack and globals, the paper's default policy.
    fn default() -> Self {
        HeapConfig {
            heap_base: 0x1000_0000,
            heap_size: 16 << 20,
            stack_size: 256 << 10,
            globals_size: 256 << 10,
            policy: RevocationPolicy::paper_default(),
        }
    }
}

impl HeapConfig {
    /// A small heap for tests and examples.
    pub fn small() -> HeapConfig {
        HeapConfig {
            heap_size: 1 << 20,
            ..HeapConfig::default()
        }
    }
}

/// A temporally-safe heap: every allocation is reached only through
/// capabilities, every free is quarantined, and periodic sweeps revoke all
/// dangling capabilities before memory is reused.
///
/// The allocator itself is TCB (§3.6): it holds an untagged-by-construction
/// internal view (Rust-side chunk metadata plus a heap-spanning root
/// capability that is never quarantined), while every capability handed to
/// the program is bounded to exactly one allocation.
///
/// See the crate-level example for the end-to-end flow.
#[derive(Debug)]
pub struct CherivokeHeap {
    space: AddressSpace,
    alloc: CherivokeAllocator,
    shadow: ShadowMap,
    engine: SweepEngine,
    /// Reusable sweep working memory: persists across epochs so
    /// steady-state sweeps allocate nothing in the walk and inner loop.
    scratch: SweepScratch,
    /// Recycled range buffers for the epoch lifecycle (worklist build,
    /// slice take) and the peer sweep's visit set: retained across
    /// epochs, so the steady-state seal → sweep → drain path and warm peer
    /// sweeps perform no Vec allocations. The sealed ranges need none:
    /// they stay in the allocator's sealed list.
    worklist_scratch: Vec<(u64, u64)>,
    slice_scratch: Vec<(u64, u64)>,
    policy: RevocationPolicy,
    heap_root: Capability,
    stack_root: Capability,
    globals_root: Capability,
    stats: HeapStats,
    epoch: Option<Epoch>,
    epoch_hold: bool,
    telemetry: HeapTelemetry,
    epoch_opened_at: Option<std::time::Instant>,
    faults: revoker::fault::FaultInjector,
    /// Write-ahead epoch journal (crash consistency). `None` — the
    /// default — leaves every epoch path byte-for-byte as before.
    journal: Option<Journal>,
    /// Set when a journal write failed: the journal is dropped and, to
    /// preserve the crash-consistency contract without it, epochs from
    /// then on complete synchronously (no in-flight state to lose).
    journal_degraded: bool,
    /// Monotonic epoch sequence number (journaled; survives recovery).
    epoch_seq: u64,
    /// Where `maybe_crash` persists the heap image before dying. Crash
    /// fault points are inert unless this is armed, so seeded chaos
    /// plans on ordinary heaps never kill the process.
    crash_image_path: Option<std::path::PathBuf>,
    /// `true` = `abort()` the process at the crash point (the fork/exec
    /// harness); `false` = raise an `InjectedFault::CrashRequested`
    /// panic the in-process probe can catch.
    crash_hard: bool,
}

impl CherivokeHeap {
    /// Builds the address space (heap + stack + globals + shadow segment)
    /// and the revocation machinery.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::InvalidConfig`] for a policy that fails
    /// validation (see [`RevocationPolicy::validated`]; repairable values
    /// are clamped with a warning on stderr instead), or
    /// [`HeapError::Cap`] if the configured heap range cannot be covered
    /// by a root capability (never happens for sane configs).
    pub fn new(mut config: HeapConfig) -> Result<CherivokeHeap, HeapError> {
        let (policy, warnings) = config.policy.validated()?;
        for warning in &warnings {
            // Deduplicated process-wide: a fleet of heaps (or a hot
            // construction loop) sharing one misconfigured knob warns
            // once, not once per heap.
            warn_once(warning);
        }
        config.policy = policy;
        // The heap-spanning root capability needs exactly-representable
        // bounds, so the heap size is rounded up to the CHERI-representable
        // length (the base addresses used here are generously aligned).
        config.heap_size = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
            config.heap_size,
        ));
        config.stack_size = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
            config.stack_size,
        ));
        config.globals_size = cheri::CompressedBounds::representable_length(
            cheri::granule_round_up(config.globals_size),
        );
        let stack_base = 0x7fff_0000_0000u64 - config.stack_size;
        let globals_base = 0x60_0000u64;
        // The shadow map's backing store is a real segment (it occupies
        // memory, fig. 5b counts it), placed at the fixed transform base.
        let shadow_base = 0x7000_0000_0000u64;
        let shadow_size = cheri::granule_round_up(config.heap_size / 128);
        let space = AddressSpace::builder()
            .segment(SegmentKind::Heap, config.heap_base, config.heap_size)
            .segment(SegmentKind::Stack, stack_base, config.stack_size)
            .segment(SegmentKind::Globals, globals_base, config.globals_size)
            .segment(SegmentKind::Shadow, shadow_base, shadow_size)
            .build();
        let root = Capability::root();
        let heap_root = root
            .set_bounds_exact(config.heap_base, config.heap_size)?
            .with_perms(Perms::RW_DATA)?;
        let stack_root = root
            .set_bounds_exact(stack_base, config.stack_size)?
            .with_perms(Perms::RW_DATA)?;
        let globals_root = root
            .set_bounds_exact(globals_base, config.globals_size)?
            .with_perms(Perms::RW_DATA)?;
        let alloc = CherivokeAllocator::with_config(
            DlAllocator::new(config.heap_base, config.heap_size),
            config.policy.quarantine,
        );
        Ok(CherivokeHeap {
            space,
            alloc,
            shadow: ShadowMap::new(config.heap_base, config.heap_size),
            engine: SweepEngine::new(config.policy.kernel)
                .with_workers(config.policy.sweep_workers),
            scratch: SweepScratch::new(),
            worklist_scratch: Vec::new(),
            slice_scratch: Vec::new(),
            policy: config.policy,
            heap_root,
            stack_root,
            globals_root,
            stats: HeapStats::default(),
            epoch: None,
            epoch_hold: false,
            telemetry: HeapTelemetry::default(),
            epoch_opened_at: None,
            faults: revoker::fault::FaultInjector::disabled(),
            journal: None,
            journal_degraded: false,
            epoch_seq: 0,
            crash_image_path: None,
            crash_hard: false,
        })
    }

    /// Arms fault injection across the heap's machinery: sweep chunks run
    /// panic-guarded with injected worker panics / tag read errors (see
    /// [`SweepEngine::with_faults`]), and the allocator can fail requests
    /// spuriously to exercise the emergency-sweep path. Chaos tests attach
    /// a shared injector here; production heaps leave it disabled.
    pub fn set_fault_injector(&mut self, faults: revoker::fault::FaultInjector) {
        self.faults = faults;
        self.alloc.set_fault_injector(self.faults.clone());
        self.rebuild_engine();
    }

    // --- Crash consistency ---------------------------------------------------

    /// Attaches a write-ahead epoch journal: every epoch's seal and
    /// commit is durably recorded before the heap moves on, so
    /// [`CherivokeHeap::recover`] can classify an interrupted epoch after
    /// a crash. Off by default; the disabled path is unchanged.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
        self.journal_degraded = false;
    }

    /// `true` while a journal is attached and healthy.
    pub fn journal_active(&self) -> bool {
        self.journal.is_some()
    }

    /// `true` once a journal write failed and the heap fell back to
    /// synchronous epoch completion (see [`CherivokeHeap::set_journal`]).
    pub fn journal_degraded(&self) -> bool {
        self.journal_degraded
    }

    /// The current epoch sequence number (the next epoch opens as
    /// `epoch_seq + 1`).
    pub fn epoch_seq(&self) -> u64 {
        self.epoch_seq
    }

    /// Arms crash persistence: when an armed `crash_*` fault point fires
    /// mid-epoch, the heap persists its [`HeapImage`] to `image_path` and
    /// dies — `abort()` when `hard` (the fork/exec chaos harness), or an
    /// [`revoker::fault::InjectedFault::CrashRequested`] panic otherwise
    /// (the in-process probe). Crash points are inert until this is
    /// called, so seeded fault plans on ordinary heaps never kill the
    /// process.
    pub fn set_crash_persist(&mut self, image_path: std::path::PathBuf, hard: bool) {
        self.crash_image_path = Some(image_path);
        self.crash_hard = hard;
    }

    /// Captures the heap's persistent half: the memory image of every
    /// sweepable segment plus the allocator's chunk and quarantine
    /// records (see [`HeapImage`] for the split).
    pub fn capture_image(&self) -> HeapImage {
        let sealed: std::collections::HashSet<u64> = self
            .alloc
            .sealed_ranges()
            .iter()
            .map(|&(addr, _)| addr)
            .collect();
        let chunks = self
            .alloc
            .inner()
            .chunks()
            .iter()
            .map(|(addr, size, state)| ImageChunk {
                addr,
                size,
                state: match state {
                    ChunkState::Free => ImageChunkState::Free,
                    ChunkState::Allocated => ImageChunkState::Allocated,
                    ChunkState::Top => ImageChunkState::Top,
                    ChunkState::Quarantined if sealed.contains(&addr) => {
                        ImageChunkState::QuarantinedSealed
                    }
                    ChunkState::Quarantined => ImageChunkState::QuarantinedOpen,
                },
            })
            .collect();
        HeapImage {
            chunks,
            dump: CoreDump::capture(&self.space),
        }
    }

    /// Appends one record to the journal (no-op without one). Appends
    /// only buffer, so real write failures surface at
    /// [`CherivokeHeap::journal_flush`]; an injected
    /// [`FaultPoint::JournalAppend`] failure degrades the heap here (see
    /// [`CherivokeHeap::journal_failed`]).
    fn journal_append(&mut self, rec: Record) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if !self.faults.should_fire(FaultPoint::JournalAppend) {
            j.append(rec);
            return;
        }
        self.journal_failed(&std::io::Error::other("injected journal write failure"));
    }

    /// Degraded mode after a journal write failure: warn once, drop the
    /// journal, and complete all future epochs synchronously so there is
    /// never in-flight state an unjournaled crash could lose.
    fn journal_failed(&mut self, e: &std::io::Error) {
        warn_once(&format!(
            "epoch journal write failed ({e}); journaling disabled, \
             epochs will complete synchronously"
        ));
        self.journal = None;
        self.journal_degraded = true;
        self.telemetry.on_journal_degraded();
    }

    /// Flushes pending journal frames to the backing file — the
    /// durability points are the armed crash sites (unconditional, the
    /// write-ahead contract), epoch commits once the buffer has grown
    /// past [`CherivokeHeap::JOURNAL_FLUSH_BYTES`], and drop. Appends
    /// themselves are buffered ([`Journal::flush`]); frames pending at
    /// an unflushed real crash classify like a torn tail, and no such
    /// crash can leave a recoverable image anyway (images are only
    /// persisted by armed crash sites, which flush first). A flush
    /// failure degrades exactly like an append failure.
    fn journal_flush(&mut self) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if let Err(e) = j.flush() {
            self.journal_failed(&e);
        }
    }

    /// Epoch-commit flush batching threshold: a commit leaves its
    /// records buffered until this many bytes accumulate, amortising
    /// the journal to one `write(2)` per few dozen epochs. Safety never
    /// rests on the commit flush — see [`CherivokeHeap::journal_flush`].
    const JOURNAL_FLUSH_BYTES: usize = 4 << 10;

    /// Commit-time flush: drains the journal buffer only once it has
    /// grown past [`CherivokeHeap::JOURNAL_FLUSH_BYTES`]. High-churn
    /// shards cycle epochs every few dozen ops; flushing each commit
    /// individually is what the 1% `journal_overhead` bar caught.
    fn journal_flush_batched(&mut self) {
        let over = self
            .journal
            .as_ref()
            .is_some_and(|j| j.pending_len() >= Self::JOURNAL_FLUSH_BYTES);
        if over {
            self.journal_flush();
        }
    }

    /// An injected crash point: if crash persistence is armed and the
    /// fault plan fires `point`, persist the heap image and die (see
    /// [`CherivokeHeap::set_crash_persist`]). The journal flushes every
    /// record preceding the point before the crash can fire — that
    /// ordering is the write-ahead contract recovery relies on.
    fn maybe_crash(&mut self, point: FaultPoint) {
        if self.crash_image_path.is_none() {
            return;
        }
        self.journal_flush();
        if !self.faults.should_fire(point) {
            return;
        }
        let path = self.crash_image_path.clone().expect("checked above");
        let image = self.capture_image();
        if let Err(e) = std::fs::write(&path, image.encode()) {
            warn_once(&format!(
                "crash persistence failed to write {}: {e}",
                path.display()
            ));
            return;
        }
        if self.crash_hard {
            std::process::abort();
        }
        std::panic::panic_any(revoker::fault::InjectedFault::CrashRequested(point));
    }

    /// Rebuilds the sweep engine from the current policy, telemetry and
    /// fault injector (the engine is immutable-by-construction).
    fn rebuild_engine(&mut self) {
        self.engine = SweepEngine::new(self.policy.kernel)
            .with_workers(self.policy.sweep_workers)
            .with_telemetry(self.telemetry.sweep())
            .with_faults(self.faults.clone());
    }

    /// Attaches telemetry: the heap's epoch lifecycle (the `cvk_heap_*`
    /// metrics), its allocator and its sweep engine all report into
    /// `registry`. Equivalent to
    /// [`CherivokeHeap::set_telemetry_for_shard`] with shard 0.
    pub fn set_telemetry(&mut self, registry: &telemetry::Registry) {
        self.set_telemetry_for_shard(registry, 0);
    }

    /// Attaches telemetry with an explicit shard label for lifecycle
    /// events (used by [`crate::ConcurrentHeap`], whose shards share one
    /// registry — counters and gauges aggregate, events stay
    /// distinguishable).
    pub fn set_telemetry_for_shard(&mut self, registry: &telemetry::Registry, shard: usize) {
        self.telemetry = HeapTelemetry::register(registry, shard);
        self.alloc.set_telemetry(registry);
        self.rebuild_engine();
    }

    // --- Allocation ---------------------------------------------------------

    /// Allocates `size` bytes, returning a capability bounded to exactly
    /// the granted allocation.
    ///
    /// # Errors
    ///
    /// [`HeapError::Alloc`] on allocator rejection (bad request), or
    /// [`HeapError::OutOfMemory`] when the heap is genuinely full. If the
    /// policy allows, an out-of-memory first triggers an emergency
    /// revocation sweep to recycle quarantined memory, and only fails if
    /// that doesn't help — memory pressure never panics.
    pub fn malloc(&mut self, size: u64) -> Result<Capability, HeapError> {
        let block = match self.alloc.malloc(size) {
            Ok(b) => b,
            Err(cvkalloc::AllocError::OutOfMemory { .. })
                if self.policy.sweep_on_oom && self.alloc.quarantined_bytes() > 0 =>
            {
                self.stats.oom_sweeps += 1;
                self.telemetry.on_oom_sweep();
                self.revoke_now();
                self.alloc.malloc(size).map_err(|e| match e {
                    cvkalloc::AllocError::OutOfMemory { requested } => {
                        HeapError::OutOfMemory { requested }
                    }
                    other => HeapError::Alloc(other),
                })?
            }
            Err(cvkalloc::AllocError::OutOfMemory { requested }) => {
                return Err(HeapError::OutOfMemory { requested })
            }
            Err(e) => return Err(e.into()),
        };
        let cap = self
            .heap_root
            .set_bounds_exact(block.addr, block.size)
            .expect("allocator grants representable blocks");
        self.pump_epoch();
        Ok(cap)
    }

    /// Frees the allocation referenced by `cap`, quarantining it until the
    /// next revocation sweep. Sweeps immediately if the quarantine is full
    /// (or on every free under a strict policy).
    ///
    /// `cap` is taken **by value**: a `Capability` held in a Rust variable
    /// models a value in a CPU register that the simulator does not track
    /// as a sweep root. Architectural copies — in simulated memory and in
    /// the [`CherivokeHeap::register`] file — are what sweeps revoke; avoid
    /// retaining Rust-side copies of freed capabilities (they would
    /// correspond to registers the real sweep *would* have cleared).
    ///
    /// # Errors
    ///
    /// * [`HeapError::Cap`] if `cap` is untagged (freeing through a revoked
    ///   pointer — itself a use-after-free, detected!) or sealed.
    /// * [`HeapError::Alloc`] for double frees and non-allocation
    ///   capabilities.
    pub fn free(&mut self, cap: Capability) -> Result<(), HeapError> {
        if !cap.tag() {
            return Err(CapError::TagCleared.into());
        }
        if cap.is_sealed() {
            return Err(CapError::Sealed.into());
        }
        // The base identifies the allocation (monotonic bounds guarantee it
        // is inside the original allocation, §4.1 — and the allocator
        // demands it be exactly the chunk start).
        self.alloc.free(cap.base())?;
        // Stop-the-world unless incremental. Degraded mode (a journal
        // write failed) can no longer make in-flight epoch state
        // crash-consistent, so it completes synchronously too — slower,
        // never less safe.
        let stop_the_world = self.policy.incremental_slice_bytes.is_none() || self.journal_degraded;
        if self.policy.strict || (stop_the_world && self.alloc.needs_sweep()) {
            self.revoke_now();
        } else if self.alloc.needs_sweep() {
            // §3.5 mode: open an epoch (if none is running) and let slices
            // interleave with execution. If the quarantine doubles past its
            // threshold while an epoch runs, the mutator is outpacing the
            // sweeper: fall back to finishing synchronously.
            if self.epoch.is_none() {
                self.begin_revocation();
            } else {
                let q = self.alloc.quarantined_bytes() as f64;
                let live = self.live_bytes().max(1) as f64;
                if q >= 2.0 * self.policy.quarantine.fraction * live {
                    self.finish_revocation();
                }
            }
        }
        self.pump_epoch();
        Ok(())
    }

    /// Advances an active incremental epoch by one policy-sized slice.
    fn pump_epoch(&mut self) {
        if self.epoch.is_some() {
            let slice = self.policy.incremental_slice_bytes.unwrap_or(u64::MAX);
            self.revoke_step(slice);
        }
    }

    /// Opens an incremental revocation epoch (paper §3.5) over the whole
    /// open quarantine: seal, paint, and fix the visit set (the coalesced
    /// CapDirty runs, or whole segments with CapDirty off). Frees issued
    /// while it runs wait for the next epoch. Slices then run through
    /// [`CherivokeHeap::revoke_step`]; [`CherivokeHeap::revoke_now`] and
    /// crash recovery run this same epoch pipeline. Returns `false` if an
    /// epoch is already active or there is nothing to revoke.
    pub fn begin_revocation(&mut self) -> bool {
        if self.epoch.is_some() {
            return false;
        }
        self.open_epoch()
    }

    /// The epoch's open step: seals the open quarantine, journals the
    /// seal, paints the sealed list and fixes the visit set. Returns
    /// `false` (opening nothing) when the open quarantine is empty.
    fn open_epoch(&mut self) -> bool {
        if self.alloc.seal_quarantine().is_empty() {
            return false;
        }
        // Write-ahead: the seal record lands before any crash point can
        // observe the paint, so a crash before it (`CrashAfterSeal`)
        // leaves a clean tail plus sealed chunks in the image, which
        // recovery re-opens (see the recovery decision table).
        self.epoch_seq += 1;
        self.maybe_crash(FaultPoint::CrashAfterSeal);
        self.journal_append(Record::Sealed {
            epoch: self.epoch_seq,
        });
        let painted = self.install_epoch(self.policy.use_capdirty);
        self.maybe_crash(FaultPoint::CrashAfterPaint);
        if self.telemetry.is_enabled() {
            let sealed = self.alloc.sealed_ranges().len() as u64;
            self.telemetry.on_quarantine_sealed(painted, sealed);
            self.telemetry.on_epoch_opened(painted);
            self.epoch_opened_at = Some(std::time::Instant::now());
        }
        true
    }

    /// Paints the allocator's sealed list and installs the epoch over
    /// it, its visit set fixed by [`Epoch::open`]. Shared by
    /// [`CherivokeHeap::open_epoch`] and recovery's roll-forward. Returns
    /// the bytes painted.
    fn install_epoch(&mut self, use_capdirty: bool) -> u64 {
        let mut painted = 0u64;
        for &(addr, len) in self.alloc.sealed_ranges() {
            self.shadow.paint(addr, len);
            painted += len;
        }
        let worklist = std::mem::take(&mut self.worklist_scratch);
        self.epoch = Some(Epoch::open(&self.space, use_capdirty, worklist));
        painted
    }

    /// `true` while an incremental epoch is in progress.
    pub fn revocation_active(&self) -> bool {
        self.epoch.is_some()
    }

    /// Bytes the active incremental epoch still has to sweep (0 when no
    /// epoch is active) — lets callers pace their own slices.
    pub fn revocation_remaining_bytes(&self) -> u64 {
        self.epoch
            .as_ref()
            .map(|e| e.remaining_bytes())
            .unwrap_or(0)
    }

    /// The epoch's step: sweeps up to `max_bytes` of the active epoch's
    /// worklist in one engine call, through the epoch's purge; once the
    /// worklist is empty, retires the epoch (registers, unpaint, drain,
    /// commit). Returns the epoch's total statistics when it completes,
    /// `None` if work remains (or no epoch is active, or the epoch is held
    /// open — see [`CherivokeHeap::set_epoch_hold`]).
    pub fn revoke_step(&mut self, max_bytes: u64) -> Option<SweepStats> {
        let mut epoch = self.epoch.take()?;
        let mut slice = std::mem::take(&mut self.slice_scratch);
        slice.clear();
        epoch.take_slice_into(max_bytes, &mut slice);
        if !slice.is_empty() {
            let (segments, _, table) = self.space.sweep_parts_mut();
            epoch.stats += self.engine.sweep_with(
                segments,
                &slice,
                epoch.use_capdirty.then(|| CapDirtyPurge::new(table)),
                &self.shadow,
                &mut NoCost,
                &mut self.scratch,
            );
            // Slices are not journaled: recovery re-sweeps exhaustively
            // (sweeps are idempotent).
            self.maybe_crash(FaultPoint::CrashMidSweep);
        }
        self.slice_scratch = slice;
        if !epoch.is_done() || self.epoch_hold {
            self.epoch = Some(epoch);
            return None;
        }
        // Epoch complete: registers, unpaint, drain.
        let (_, regs, _) = self.space.sweep_parts_mut();
        epoch.stats += sweep_register_file(regs, &self.shadow);
        self.maybe_crash(FaultPoint::CrashBeforeDrain);
        let mut painted = 0;
        for &(addr, len) in self.alloc.sealed_ranges() {
            self.shadow.clear(addr, len);
            painted += len;
        }
        self.alloc.drain_sealed();
        // No allocation can occur between the drain above and the commit
        // record below, so a crash here is safely rolled forward: the
        // image holds no sealed chunk, so recovery repaints nothing and
        // its re-sweep finds no capability into the drained ranges.
        self.maybe_crash(FaultPoint::CrashBeforeCommit);
        self.journal_append(Record::EpochCommitted {
            epoch: self.epoch_seq,
        });
        self.journal_flush_batched();
        // Recycle the epoch's worklist for the next build.
        epoch.worklist.clear();
        self.worklist_scratch = std::mem::take(&mut epoch.worklist);
        self.stats.absorb_sweep(&epoch.stats, painted);
        if self.telemetry.is_enabled() {
            let elapsed_ns = self
                .epoch_opened_at
                .take()
                .map(|t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            self.telemetry.on_epoch_retired(elapsed_ns);
        }
        Some(epoch.stats)
    }

    /// Runs the active epoch to completion (a stop-the-world fallback).
    /// Overrides any epoch hold ([`CherivokeHeap::set_epoch_hold`]).
    pub fn finish_revocation(&mut self) -> Option<SweepStats> {
        self.epoch_hold = false;
        while self.epoch.is_some() {
            if let Some(stats) = self.revoke_step(u64::MAX) {
                return Some(stats);
            }
        }
        None
    }

    /// Holds the active epoch open: while set, [`CherivokeHeap::revoke_step`]
    /// keeps sweeping but never *completes* the epoch (no quarantine drain,
    /// no shadow clear), even when the worklist empties.
    ///
    /// A multi-heap orchestrator (see [`crate::ConcurrentHeap`]) needs this:
    /// before this heap's quarantined memory may be reused, *other* heaps'
    /// root sets must be swept against this heap's shadow map, and mutator
    /// threads that pump the epoch as a side effect of `malloc`/`free` must
    /// not race the drain past those foreign sweeps.
    pub fn set_epoch_hold(&mut self, hold: bool) {
        self.epoch_hold = hold;
    }

    /// The active epoch's painted `(addr, len)` ranges — the allocator's
    /// sealed list (empty when no epoch is active). These are the ranges
    /// an orchestrator publishes to its global revocation barrier.
    pub fn epoch_ranges(&self) -> Vec<(u64, u64)> {
        if self.epoch.is_some() {
            self.alloc.sealed_ranges().to_vec()
        } else {
            Vec::new()
        }
    }

    /// Sweeps this heap's entire root set (heap, stack, globals, registers)
    /// against a **foreign** shadow map, revoking capabilities that point
    /// into another heap's painted quarantine. Addresses outside the foreign
    /// map's coverage are never painted, so this clears no local tags by
    /// mistake. Statistics are returned, not folded into this heap's own
    /// sweep counters (the orchestrator accounts for foreign sweeps).
    ///
    /// The memory roots are the visit set an epoch would build now
    /// ([`revoker::visit_set`]): only the CapDirty runs are walked,
    /// through the same false-positive purge, so the cost follows the
    /// dirty pages rather than the segments' size. The run buffer is
    /// recycled, so a warm peer sweep allocates nothing.
    pub fn sweep_foreign(&mut self, shadow: &ShadowMap) -> SweepStats {
        let use_capdirty = self.policy.use_capdirty;
        let mut runs = std::mem::take(&mut self.slice_scratch);
        let pages_skipped = visit_set(&self.space, use_capdirty, &mut runs);
        let (segments, regs, table) = self.space.sweep_parts_mut();
        let mut stats = self.engine.sweep_with(
            segments,
            &runs,
            use_capdirty.then(|| CapDirtyPurge::new(table)),
            shadow,
            &mut NoCost,
            &mut self.scratch,
        );
        self.slice_scratch = runs;
        stats.pages_skipped += pages_skipped;
        stats += sweep_register_file(regs, shadow);
        stats
    }

    /// The §3.5 barrier: while an epoch is active, no dangling capability
    /// may pass through an architectural move.
    fn barrier(&self, cap: Capability) -> Capability {
        if self.epoch.is_some() && cap.tag() && self.shadow.is_painted(cap.base()) {
            cap.cleared()
        } else {
            cap
        }
    }

    /// `calloc`: allocates and zero-fills (the simulated memory retains
    /// prior contents after recycling, and the paper leaves initialisation
    /// leaks to orthogonal mechanisms, §2.3 — `calloc` is the portable way
    /// to opt out of them).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::malloc`]; also rejects `count * size` overflow
    /// as a bad request.
    pub fn calloc(&mut self, count: u64, size: u64) -> Result<Capability, HeapError> {
        let total = count
            .checked_mul(size)
            .ok_or(cvkalloc::AllocError::BadRequest { size: u64::MAX })?;
        let cap = self.malloc(total)?;
        let mut addr = cap.base();
        let end = cap.base() + cap.length();
        while addr < end {
            let chunk = (end - addr).min(4096);
            self.space
                .write_bytes(addr, &vec![0u8; chunk as usize])
                .expect("own allocation is mapped");
            addr += chunk;
        }
        Ok(cap)
    }

    /// `realloc` with CHERIvoke semantics: **always moves**. An in-place
    /// shrink would leave the program's old capability with authority over
    /// the released tail, and an in-place grow would hand out overlapping
    /// authority — so the data is copied (tags preserved, like a
    /// capability-aware `memcpy`) to a fresh allocation and the old one is
    /// quarantined like any other free.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::malloc`] and [`CherivokeHeap::free`].
    pub fn realloc(&mut self, cap: Capability, new_size: u64) -> Result<Capability, HeapError> {
        if !cap.tag() {
            return Err(CapError::TagCleared.into());
        }
        let new_cap = self.malloc(new_size)?;
        // Capability-aware copy: granule-wise, preserving tags.
        let copy = cap.length().min(new_cap.length());
        let mut off = 0;
        while off + 16 <= copy {
            let word = self.space.load_cap(cap.base() + off).expect("mapped");
            self.space
                .store_cap(new_cap.base() + off, &word)
                .expect("mapped");
            off += 16;
        }
        self.free(cap)?;
        Ok(new_cap)
    }

    /// Runs a full revocation cycle now (fig. 3), as one stop-the-world
    /// epoch: finishes any open epoch, opens one over the quarantine,
    /// and runs it to completion through
    /// [`CherivokeHeap::revoke_step`] in a single slice. Returns the
    /// epoch's sweep statistics; with an empty quarantine nothing is
    /// swept and the statistics are zero.
    pub fn revoke_now(&mut self) -> SweepStats {
        // An in-progress incremental epoch completes first (its painted
        // ranges must not be re-painted or double-drained).
        self.finish_revocation();
        if !self.open_epoch() {
            return SweepStats::default();
        }
        self.finish_revocation()
            .expect("an open epoch runs to completion")
    }

    // --- Crash recovery ------------------------------------------------------

    /// Rebuilds a heap from a persisted [`HeapImage`] and its epoch
    /// journal, deterministically finishing whatever the crash
    /// interrupted. The decision table (see `DESIGN.md` §20):
    ///
    /// | journal tail          | action                                      |
    /// |-----------------------|---------------------------------------------|
    /// | clean                 | re-open any sealed chunks the image holds   |
    /// | sweep interrupted     | re-paint sealed chunks, full re-sweep, drain|
    ///
    /// The image's `QuarantinedSealed` chunks are the one record of the
    /// sealed set; the journal says only whether its seal was durable
    /// and uncommitted. Both actions are safe in every crash order:
    /// sealed memory stays quarantined until a completed sweep drains
    /// it, and sweeps are idempotent. Registers and the shadow map are
    /// process state — the recovered heap starts with fresh ones (plus
    /// whatever the roll-forward re-painted and cleared).
    ///
    /// Ends with a full-heap safety audit ([`CherivokeHeap::audit`]);
    /// the report's [`RecoveryReport::safe`] is the harness's verdict.
    ///
    /// # Errors
    ///
    /// [`RecoveryError`] when the image or journal header is corrupt,
    /// the chunk records are inconsistent, or the image does not match
    /// `config`'s heap extent. Torn journal *tails* are not errors —
    /// they classify as the interrupted step they tore in.
    pub fn recover(
        config: HeapConfig,
        image_bytes: &[u8],
        journal_bytes: &[u8],
    ) -> Result<(CherivokeHeap, RecoveryReport), RecoveryError> {
        let image = HeapImage::decode(image_bytes)?;
        let outcome = journal::read_bytes(journal_bytes)?;
        let tail = journal::classify(&outcome.records);
        let mut heap = CherivokeHeap::new(config)?;

        // Memory: replay the dump into the fresh segments, then rebuild
        // the page table's CapDirty flags by re-storing every tagged
        // capability through the normal store path (the table is process
        // state the dump does not carry).
        image.dump.restore_into(heap.space.segments_mut());
        let mut tagged: Vec<u64> = Vec::new();
        for seg in heap
            .space
            .segments()
            .iter()
            .filter(|s| s.kind().sweepable())
        {
            tagged.extend(seg.mem().tagged_addrs());
        }
        let caps_replayed = tagged.len() as u64;
        for addr in tagged {
            let cap = heap.space.load_cap(addr).map_err(HeapError::from)?;
            heap.space.store_cap(addr, &cap).map_err(HeapError::from)?;
        }

        // Allocator: chunk map, free lists and quarantine bookkeeping.
        let base = heap.alloc.inner().base();
        let size = heap.alloc.inner().size();
        let found_base = image.chunks.first().map(|c| c.addr).unwrap_or(0);
        let found_size: u64 = image.chunks.iter().map(|c| c.size).sum();
        if found_base != base || found_size != size {
            return Err(RecoveryError::LayoutMismatch {
                expected: (base, size),
                found: (found_base, found_size),
            });
        }
        let triples: Vec<(u64, u64, ChunkState)> = image
            .chunks
            .iter()
            .map(|c| {
                let state = match c.state {
                    ImageChunkState::Free => ChunkState::Free,
                    ImageChunkState::Allocated => ChunkState::Allocated,
                    ImageChunkState::Top => ChunkState::Top,
                    ImageChunkState::QuarantinedOpen | ImageChunkState::QuarantinedSealed => {
                        ChunkState::Quarantined
                    }
                };
                (c.addr, c.size, state)
            })
            .collect();
        let mut open = Vec::new();
        let mut sealed_records = Vec::new();
        for c in &image.chunks {
            match c.state {
                ImageChunkState::QuarantinedOpen => open.push(c.addr),
                ImageChunkState::QuarantinedSealed => sealed_records.push((c.addr, c.size)),
                _ => {}
            }
        }
        let inner = DlAllocator::restore(base, size, &triples)?;
        heap.alloc =
            CherivokeAllocator::restore(inner, heap.policy.quarantine, &open, &sealed_records)?;

        // The journal's epoch numbering continues across the crash.
        heap.epoch_seq = outcome.records.iter().map(Record::epoch).max().unwrap_or(0);

        let mut report = RecoveryReport {
            action: RecoveryAction::None,
            epoch: None,
            torn_tail: outcome.torn_tail,
            chunks_restored: image.chunks.len(),
            caps_replayed,
            reopened_chunks: 0,
            repainted_ranges: 0,
            caps_revoked: 0,
            audit: AuditReport::default(),
        };
        match tail {
            TailState::Clean => {
                // A clean tail with sealed chunks means the process died
                // between the seal and a durable `Sealed` record (or the
                // journal was attached mid-epoch). Re-opening is the safe
                // default: the memory stays quarantined and the next
                // epoch re-seals it.
                if !heap.alloc.sealed_ranges().is_empty() {
                    report.reopened_chunks = heap.alloc.unseal_sealed();
                    report.action = RecoveryAction::ReopenSeal;
                }
            }
            TailState::SweepInterrupted { epoch } => {
                report.epoch = Some(epoch);
                report.action = RecoveryAction::RollForward;
                report.repainted_ranges = heap.alloc.sealed_ranges().len();
                // Re-paint the restored sealed set and complete the epoch
                // over the exhaustive visit set — every byte of every
                // sweepable segment, no filter: the journal records no
                // sweep progress, and re-sweeping swept memory is
                // harmless.
                heap.install_epoch(false);
                report.caps_revoked = heap
                    .finish_revocation()
                    .expect("an open epoch runs to completion")
                    .caps_revoked;
            }
        }
        heap.telemetry.on_recovery(&report);
        report.audit = heap.audit();
        Ok((heap, report))
    }

    /// Full-heap safety audit: proves that **no tagged capability points
    /// into a granule the allocator may hand out again** (free or
    /// wilderness memory). Capabilities into *quarantined* memory are
    /// legal — that is the paper's §3.7 window between free and sweep —
    /// so the audit shadow paints exactly the reusable set.
    ///
    /// The check reuses the sweep engine as its kernel over a clone of
    /// the memory image (see [`revoker::audit`]); the live heap is never
    /// mutated. Runs after every recovery, and as the chaos harness's
    /// post-run invariant.
    pub fn audit(&self) -> AuditReport {
        let base = self.alloc.inner().base();
        let size = self.alloc.inner().size();
        let mut reusable = ShadowMap::new(base, size);
        for (addr, csize, state) in self.alloc.inner().chunks().iter() {
            if matches!(state, ChunkState::Free | ChunkState::Top) {
                reusable.paint(addr, csize);
            }
        }
        let mut dump = CoreDump::capture(&self.space);
        let report = audit_dump(&self.engine, &mut dump, self.space.registers(), &reusable);
        self.telemetry.on_audit(&report);
        report
    }

    // --- Capability-mediated memory access -----------------------------------

    fn checked_addr(
        &self,
        cap: &Capability,
        offset: u64,
        len: u64,
        need: Perms,
    ) -> Result<u64, HeapError> {
        let addr = cap
            .address()
            .checked_add(offset)
            .ok_or(CapError::AddressOverflow)?;
        cap.check_access(addr, len, need)?;
        Ok(addr)
    }

    /// Loads a `u64` at `cap.address() + offset`.
    ///
    /// # Errors
    ///
    /// [`HeapError::Cap`] on tag/bounds/permission failure — including
    /// every access through a revoked capability.
    pub fn load_u64(&self, cap: &Capability, offset: u64) -> Result<u64, HeapError> {
        let addr = self.checked_addr(cap, offset, 8, Perms::LOAD)?;
        Ok(self.space.load_u64(addr)?)
    }

    /// Stores a `u64` at `cap.address() + offset` (clears any tag there).
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`], requiring [`Perms::STORE`].
    pub fn store_u64(
        &mut self,
        cap: &Capability,
        offset: u64,
        value: u64,
    ) -> Result<(), HeapError> {
        let addr = self.checked_addr(cap, offset, 8, Perms::STORE)?;
        Ok(self.space.store_u64(addr, value)?)
    }

    /// Loads the capability stored at `cap.address() + offset`.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`], requiring [`Perms::LOAD_CAP`] and
    /// 16-byte alignment.
    pub fn load_cap(&self, cap: &Capability, offset: u64) -> Result<Capability, HeapError> {
        let addr = self.checked_addr(cap, offset, 16, Perms::LOAD | Perms::LOAD_CAP)?;
        Ok(self.barrier(self.space.load_cap(addr)?))
    }

    /// Stores capability `value` at `cap.address() + offset`. This is how
    /// pointers get into memory — and how the sweep later finds them.
    ///
    /// # Errors
    ///
    /// As [`CherivokeHeap::load_u64`], requiring [`Perms::STORE_CAP`].
    pub fn store_cap(
        &mut self,
        cap: &Capability,
        offset: u64,
        value: &Capability,
    ) -> Result<(), HeapError> {
        let addr = self.checked_addr(cap, offset, 16, Perms::STORE | Perms::STORE_CAP)?;
        let filtered = self.barrier(*value);
        if filtered.tag() != value.tag() {
            self.stats.barrier_revocations += 1;
            self.telemetry.on_barrier_revocation();
        }
        Ok(self.space.store_cap(addr, &filtered)?)
    }

    // --- Registers ----------------------------------------------------------

    /// Reads capability register `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn register(&self, idx: usize) -> Capability {
        self.space.registers().get(idx)
    }

    /// Writes capability register `idx` (registers are sweep roots, §3.3).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_register(&mut self, idx: usize, cap: Capability) {
        let filtered = self.barrier(cap);
        if filtered.tag() != cap.tag() {
            self.stats.barrier_revocations += 1;
            self.telemetry.on_barrier_revocation();
        }
        self.space.registers_mut().set(idx, filtered);
    }

    // --- Introspection --------------------------------------------------------

    /// A capability spanning the whole stack segment (for examples that
    /// model stack-resident pointers).
    pub fn stack_root(&self) -> Capability {
        self.stack_root
    }

    /// A capability spanning the globals segment.
    pub fn globals_root(&self) -> Capability {
        self.globals_root
    }

    /// The revocation policy in force.
    pub fn policy(&self) -> RevocationPolicy {
        self.policy
    }

    /// Counts a peer sweep of this heap's roots
    /// ([`CherivokeHeap::sweep_foreign`]) in its statistics: the pages its
    /// visit set left out and the capabilities it inspected. Its bytes and
    /// revocations are the orchestrator's to count.
    pub(crate) fn count_peer_sweep(&mut self, s: &SweepStats) {
        self.stats.pages_skipped += s.pages_skipped;
        self.stats.caps_inspected += s.caps_inspected;
    }

    /// Heap statistics (sweeps, revocations, allocator counters).
    pub fn stats(&self) -> HeapStats {
        let mut s = self.stats;
        s.alloc = self.alloc.stats();
        s
    }

    /// Bytes currently in quarantine.
    pub fn quarantined_bytes(&self) -> u64 {
        self.alloc.quarantined_bytes()
    }

    /// Bytes currently allocated to the program.
    pub fn live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// The shadow map's own memory cost in bytes (1/128 of the heap).
    pub fn shadow_bytes(&self) -> u64 {
        self.shadow.shadow_bytes()
    }

    /// The revocation shadow map (read-only) — foreign heaps sweep their
    /// root sets against this map via [`CherivokeHeap::sweep_foreign`].
    pub fn shadow(&self) -> &ShadowMap {
        &self.shadow
    }

    /// The underlying address space (read-only).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable address space — for workload drivers that populate memory
    /// images directly. Misuse can of course violate the temporal-safety
    /// story (this is the simulator's "god mode").
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The quarantining allocator (read-only).
    pub fn allocator(&self) -> &CherivokeAllocator {
        &self.alloc
    }

    /// Captures a core dump of the current memory image (the paper's §5.3
    /// methodology for offline sweep timing).
    pub fn dump(&self) -> CoreDump {
        CoreDump::capture(&self.space)
    }

    /// Iterates over the program's live allocations as `(base, size)`
    /// pairs, in address order — heap introspection for leak reports and
    /// debuggers. Quarantined and free chunks are not included.
    pub fn live_allocations(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.alloc
            .inner()
            .chunks()
            .iter()
            .filter(|&(_, _, state)| state == cvkalloc::ChunkState::Allocated)
            .map(|(addr, size, _)| (addr, size))
    }

    /// A leak report: total live allocations and bytes (what a clean exit
    /// would expect to be zero after the program frees everything).
    pub fn leak_report(&self) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        for (_, size) in self.live_allocations() {
            count += 1;
            bytes += size;
        }
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use telemetry::EventKind;

    fn heap() -> CherivokeHeap {
        CherivokeHeap::new(HeapConfig::small()).unwrap()
    }

    #[test]
    fn malloc_returns_exactly_bounded_caps() {
        let mut h = heap();
        let c = h.malloc(100).unwrap();
        assert!(c.tag());
        assert_eq!(c.length(), 112); // granule-rounded
        assert_eq!(c.base(), c.address());
        assert!(c.perms().contains(Perms::RW_DATA));
        // Out-of-bounds access is impossible.
        assert!(h.load_u64(&c, 112).is_err());
        assert!(h.load_u64(&c, 104).is_ok());
    }

    #[test]
    fn store_load_roundtrip_through_caps() {
        let mut h = heap();
        let c = h.malloc(64).unwrap();
        h.store_u64(&c, 8, 0xdead_beef).unwrap();
        assert_eq!(h.load_u64(&c, 8).unwrap(), 0xdead_beef);
    }

    #[test]
    fn use_after_free_before_sweep_still_reads_quarantined_memory() {
        // §3.7: CHERIvoke prevents use-after-REALLOCATION; between free and
        // sweep the dangling pointer still works (and that's safe, because
        // the memory cannot be reallocated).
        let mut h = heap();
        // Ballast keeps the quarantine below its trigger fraction.
        let _ballast = h.malloc(512 << 10).unwrap();
        let c = h.malloc(64).unwrap();
        h.store_u64(&c, 0, 42).unwrap();
        h.free(c).unwrap();
        assert_eq!(h.stats().sweeps, 0, "no sweep should have fired yet");
        assert_eq!(h.load_u64(&c, 0).unwrap(), 42);
        // But the memory is NOT reusable: a new malloc lands elsewhere.
        let d = h.malloc(64).unwrap();
        assert_ne!(d.base(), c.base());
    }

    #[test]
    fn sweep_revokes_all_copies_everywhere() {
        let mut h = heap();
        let _ballast = h.malloc(512 << 10).unwrap();
        let obj = h.malloc(64).unwrap();
        let holder = h.malloc(64).unwrap();
        // Copies: in the heap, on the stack, in globals, in a register.
        h.store_cap(&holder, 0, &obj).unwrap();
        let stack = h.stack_root();
        h.store_cap(&stack, 16, &obj).unwrap();
        let globals = h.globals_root();
        h.store_cap(&globals, 32, &obj).unwrap();
        h.set_register(3, obj);
        h.free(obj).unwrap();
        let stats = h.revoke_now();
        assert_eq!(stats.caps_revoked, 4);
        assert!(!h.load_cap(&holder, 0).unwrap().tag());
        assert!(!h.load_cap(&stack, 16).unwrap().tag());
        assert!(!h.load_cap(&globals, 32).unwrap().tag());
        assert!(!h.register(3).tag());
    }

    #[test]
    fn use_after_reallocation_is_impossible() {
        let mut h = heap();
        let victim = h.malloc(64).unwrap();
        let holder = h.malloc(16).unwrap();
        h.store_cap(&holder, 0, &victim).unwrap();
        h.free(victim).unwrap();
        h.revoke_now();
        // Memory is recycled…
        let attacker = h.malloc(64).unwrap();
        assert_eq!(attacker.base(), victim.base(), "address space was reused");
        h.store_u64(&attacker, 0, 0x41414141).unwrap();
        // …but the old pointer is dead: the attacker's data is unreachable
        // through it.
        let dangling = h.load_cap(&holder, 0).unwrap();
        assert!(!dangling.tag());
        assert_eq!(
            h.load_u64(&dangling, 0),
            Err(HeapError::Cap(CapError::TagCleared))
        );
        // And freeing through it is also caught.
        assert_eq!(h.free(dangling), Err(HeapError::Cap(CapError::TagCleared)));
    }

    #[test]
    fn quarantine_policy_triggers_sweeps() {
        let mut cfg = HeapConfig::small();
        cfg.policy = RevocationPolicy::with_fraction(0.25);
        let mut h = CherivokeHeap::new(cfg).unwrap();
        // Keep 64 KiB live; free memory until a sweep fires.
        let _live: Vec<_> = (0..16).map(|_| h.malloc(4096).unwrap()).collect();
        let mut sweeps = 0;
        for _ in 0..100 {
            let t = h.malloc(4096).unwrap();
            h.free(t).unwrap();
            if h.stats().sweeps > 0 {
                sweeps = h.stats().sweeps;
                break;
            }
        }
        assert!(sweeps > 0, "quarantine never triggered a sweep");
        // After the sweep, quarantine is empty.
        assert_eq!(h.quarantined_bytes(), 0);
    }

    #[test]
    fn strict_mode_sweeps_every_free() {
        let mut cfg = HeapConfig::small();
        cfg.policy.strict = true;
        let mut h = CherivokeHeap::new(cfg).unwrap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.stats().sweeps, 2);
    }

    #[test]
    fn oom_triggers_emergency_sweep() {
        let mut cfg = HeapConfig::small();
        cfg.policy.quarantine.fraction = f64::INFINITY; // never sweep voluntarily
        let mut h = CherivokeHeap::new(cfg).unwrap();
        // Fill the heap, free everything (all quarantined), then allocate.
        let blocks: Vec<_> = (0..15).map(|_| h.malloc(64 << 10).unwrap()).collect();
        for b in blocks {
            h.free(b).unwrap();
        }
        assert!(h.quarantined_bytes() > 0);
        let c = h.malloc(512 << 10).unwrap();
        assert!(c.tag());
        assert_eq!(h.stats().oom_sweeps, 1);
    }

    #[test]
    fn double_free_detected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(HeapError::Alloc(_))));
    }

    #[test]
    fn freeing_non_allocation_detected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let inner = a.set_bounds_exact(a.base() + 16, 16).unwrap();
        assert!(matches!(h.free(inner), Err(HeapError::Alloc(_))));
        h.free(a).unwrap();
    }

    #[test]
    fn perms_are_enforced_on_access() {
        let mut h = heap();
        let c = h.malloc(64).unwrap();
        let ro = c
            .with_perms(Perms::LOAD | Perms::LOAD_CAP | Perms::GLOBAL)
            .unwrap();
        assert!(h.load_u64(&ro, 0).is_ok());
        assert_eq!(
            h.store_u64(&ro, 0, 1),
            Err(HeapError::Cap(CapError::PermissionDenied))
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut h = heap();
        let _ballast = h.malloc(512 << 10).unwrap();
        let a = h.malloc(64).unwrap();
        let holder = h.malloc(16).unwrap();
        // With no capabilities in memory, CapDirty skips everything; store
        // one so the sweep has a dirty page to walk.
        h.store_cap(&holder, 0, &a).unwrap();
        h.free(a).unwrap();
        h.revoke_now();
        let s = h.stats();
        assert_eq!(s.sweeps, 1);
        assert_eq!(s.alloc.mallocs, 3);
        assert_eq!(s.alloc.frees, 1);
        assert!(s.bytes_painted >= 64);
        assert!(s.bytes_swept > 0);
        assert_eq!(s.caps_revoked, 1);
    }

    #[test]
    fn capdirty_and_full_sweep_policies_agree() {
        for slice in [None, Some(4 << 10)] {
            for use_capdirty in [false, true] {
                let what = format!("use_capdirty={use_capdirty} slice={slice:?}");
                let mut cfg = HeapConfig::small();
                cfg.policy.use_capdirty = use_capdirty;
                cfg.policy.kernel = Kernel::Simple;
                cfg.policy.incremental_slice_bytes = slice;
                let mut h = CherivokeHeap::new(cfg).unwrap();
                let _ballast = h.malloc(512 << 10).unwrap();
                let obj = h.malloc(64).unwrap();
                let holder = h.malloc(16).unwrap();
                h.store_cap(&holder, 0, &obj).unwrap();
                h.free(obj).unwrap();
                let stats = match slice {
                    None => h.revoke_now(),
                    Some(bytes) => {
                        assert!(h.begin_revocation(), "{what}");
                        loop {
                            if let Some(stats) = h.revoke_step(bytes) {
                                break stats;
                            }
                        }
                    }
                };
                assert_eq!(stats.caps_revoked, 1, "{what}");
                let sweepable: u64 = h
                    .space()
                    .segments()
                    .iter()
                    .filter(|s| s.kind().sweepable())
                    .map(|s| s.mem().len())
                    .sum();
                if use_capdirty {
                    assert!(stats.bytes_swept < sweepable, "{what}");
                } else {
                    assert_eq!(stats.bytes_swept, sweepable, "{what}");
                }
            }
        }
    }

    #[test]
    fn slices_that_cut_a_page_keep_its_capdirty_bit() {
        let mut cfg = HeapConfig::small();
        cfg.policy.incremental_slice_bytes = Some(1024);
        let mut h = CherivokeHeap::new(cfg).unwrap();
        let _ballast = h.malloc(512 << 10).unwrap();
        let obj = h.malloc(64).unwrap();
        // The only capability-bearing page, and its first 2 KiB hold no
        // capability: the first slices sweep a capability-free fragment.
        let stack = h.stack_root();
        h.store_cap(&stack, 2048, &obj).unwrap();
        h.free(obj).unwrap();
        assert!(h.begin_revocation());
        let stats = loop {
            if let Some(stats) = h.revoke_step(1024) {
                break stats;
            }
        };
        assert_eq!(stats.caps_revoked, 1);
        assert!(!h.load_cap(&stack, 2048).unwrap().tag());
    }

    #[test]
    fn stop_the_world_cycles_are_epochs() {
        let mut h = heap();
        let registry = telemetry::Registry::new(64);
        h.set_telemetry(&registry);
        let _ballast = h.malloc(512 << 10).unwrap();
        let obj = h.malloc(64).unwrap();
        h.free(obj).unwrap();
        h.revoke_now();
        assert_eq!(registry.snapshot().counters["cvk_heap_epochs_total"], 1);
        let events = registry.recent_events(64);
        assert!(matches!(events[0].kind, EventKind::QuarantineSealed { .. }));
        assert!(matches!(events[1].kind, EventKind::EpochOpened { .. }));
        assert!(matches!(events[2].kind, EventKind::EpochRetired { .. }));
        // An empty quarantine opens no epoch and sweeps nothing.
        assert_eq!(h.revoke_now(), SweepStats::default());
        assert_eq!(registry.snapshot().counters["cvk_heap_epochs_total"], 1);
        assert_eq!(h.stats().sweeps, 1);
    }

    #[test]
    fn audit_is_clean_across_the_lifecycle() {
        let mut h = heap();
        let _ballast = h.malloc(512 << 10).unwrap();
        let obj = h.malloc(64).unwrap();
        let holder = h.malloc(16).unwrap();
        h.store_cap(&holder, 0, &obj).unwrap();
        assert!(h.audit().clean(), "live heap");
        h.free(obj).unwrap();
        assert!(h.audit().clean(), "dangling-into-quarantine is legal");
        h.revoke_now();
        assert!(h.audit().clean(), "post-sweep");
    }

    #[test]
    fn audit_catches_a_cap_into_reusable_memory() {
        let mut h = heap();
        let holder = h.malloc(16).unwrap();
        // God mode: forge a capability into the wilderness (reusable
        // memory no allocation covers) and plant it in the heap.
        let top_addr = h
            .allocator()
            .inner()
            .chunks()
            .iter()
            .find(|&(_, _, s)| s == cvkalloc::ChunkState::Top)
            .map(|(addr, _, _)| addr)
            .unwrap();
        let rogue = Capability::root_rw(top_addr + 64, 32);
        h.space_mut().store_cap(holder.base(), &rogue).unwrap();
        let report = h.audit();
        assert!(!report.clean());
        assert_eq!(report.violations, 1);
        assert_eq!(report.offenders.len(), 1);
        assert_eq!(report.offenders[0].at, holder.base());
        // The audit never mutates the live heap: the rogue cap survives.
        assert!(h.space().load_cap(holder.base()).unwrap().tag());
    }

    #[test]
    fn capture_image_round_trips_through_recover_clean() {
        let mut cfg = HeapConfig::small();
        cfg.policy.quarantine.fraction = f64::INFINITY; // the free stays quarantined
        let mut h = CherivokeHeap::new(cfg).unwrap();
        let keep = h.malloc(128).unwrap();
        let holder = h.malloc(16).unwrap();
        h.store_cap(&holder, 0, &keep).unwrap();
        let gone = h.malloc(64).unwrap();
        let gone_base = gone.base();
        h.free(gone).unwrap();
        let image = h.capture_image().encode();
        let empty_journal = journal::Journal::in_memory().into_bytes();
        let (mut rh, report) = CherivokeHeap::recover(cfg, &image, &empty_journal).unwrap();
        assert_eq!(report.action, RecoveryAction::None);
        assert!(report.safe(), "audit: {:?}", report.audit);
        assert_eq!(
            report.chunks_restored,
            rh.allocator().inner().chunks().len()
        );
        assert_eq!(rh.live_bytes(), h.live_bytes());
        assert_eq!(rh.quarantined_bytes(), h.quarantined_bytes());
        // The replayed capability still works through the normal path.
        let stored = rh.space().load_cap(holder.base()).unwrap();
        assert!(stored.tag());
        assert_eq!(stored.base(), keep.base());
        // The open quarantine comes back open, and the next epoch drains it.
        assert_eq!(
            rh.allocator().open_chunks().collect::<Vec<_>>(),
            vec![gone_base]
        );
        rh.revoke_now();
        assert_eq!(rh.quarantined_bytes(), 0);
    }

    #[test]
    fn recover_rejects_mismatched_layout() {
        let h = heap();
        let image = h.capture_image().encode();
        let empty_journal = journal::Journal::in_memory().into_bytes();
        let mut other = HeapConfig::small();
        other.heap_size = 2 << 20;
        assert!(matches!(
            CherivokeHeap::recover(other, &image, &empty_journal),
            Err(RecoveryError::LayoutMismatch { .. })
        ));
    }

    fn incremental_config() -> HeapConfig {
        let mut cfg = HeapConfig::small();
        cfg.policy.quarantine.fraction = 0.125;
        cfg.policy.incremental_slice_bytes = Some(16 << 10);
        cfg
    }

    /// Drives a crash-armed heap until the injected crash point fires
    /// (as an `InjectedFault::CrashRequested` panic), then recovers from
    /// the persisted image + journal and asserts safety.
    fn soft_crash_and_recover(point: revoker::fault::FaultPoint) {
        use revoker::fault::{silence_injected_panics, FaultInjector, FaultPlan, FaultRule};
        silence_injected_panics();
        let dir = std::env::temp_dir().join(format!(
            "cvk-heap-crash-{}-{}",
            std::process::id(),
            point.name()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let image_path = dir.join("heap.img");
        let journal_path = dir.join("heap.cvj");
        let cfg = incremental_config();
        let mut h = CherivokeHeap::new(cfg).unwrap();
        h.set_journal(journal::Journal::create(&journal_path).unwrap());
        h.set_crash_persist(image_path.clone(), false);
        h.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
            FaultRule::once(point, 0),
        ])));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ballast = Vec::new();
            for _ in 0..4 {
                ballast.push(h.malloc(64 << 10).unwrap());
            }
            let holder = h.malloc(16).unwrap();
            for _ in 0..200 {
                let obj = h.malloc(4 << 10).unwrap();
                h.store_cap(&holder, 0, &obj).unwrap();
                h.free(obj).unwrap();
            }
        }));
        assert!(
            crashed.is_err(),
            "{point:?} never fired — workload too small?"
        );
        drop(h);
        let image = std::fs::read(&image_path).unwrap();
        let journal_bytes = std::fs::read(&journal_path).unwrap();
        let (mut rh, report) = CherivokeHeap::recover(cfg, &image, &journal_bytes).unwrap();
        assert!(
            report.safe(),
            "{point:?} recovery unsafe: {:?}",
            report.audit
        );
        match point {
            revoker::fault::FaultPoint::CrashAfterSeal => {
                assert_eq!(report.action, RecoveryAction::ReopenSeal);
                assert_eq!(report.epoch, None);
                assert!(report.reopened_chunks > 0);
            }
            // The drain already ran: the image holds no sealed chunk, so
            // the roll-forward repaints nothing.
            revoker::fault::FaultPoint::CrashBeforeCommit => {
                assert_eq!(report.action, RecoveryAction::RollForward);
                assert!(report.epoch.is_some());
                assert_eq!(report.repainted_ranges, 0);
            }
            _ => {
                assert_eq!(report.action, RecoveryAction::RollForward);
                assert!(report.epoch.is_some());
                assert!(report.repainted_ranges > 0);
            }
        }
        // Post-recovery the heap is a normal heap: no sealed leftovers,
        // and the full lifecycle still works.
        assert!(rh.allocator().sealed_ranges().is_empty());
        let c = rh.malloc(256).unwrap();
        rh.free(c).unwrap();
        rh.revoke_now();
        assert!(rh.audit().clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_seal_recovers_by_reopening() {
        soft_crash_and_recover(revoker::fault::FaultPoint::CrashAfterSeal);
    }

    #[test]
    fn crash_after_paint_rolls_forward() {
        soft_crash_and_recover(revoker::fault::FaultPoint::CrashAfterPaint);
    }

    #[test]
    fn crash_mid_sweep_rolls_forward() {
        soft_crash_and_recover(revoker::fault::FaultPoint::CrashMidSweep);
    }

    #[test]
    fn crash_before_drain_rolls_forward() {
        soft_crash_and_recover(revoker::fault::FaultPoint::CrashBeforeDrain);
    }

    #[test]
    fn crash_before_commit_rolls_forward() {
        soft_crash_and_recover(revoker::fault::FaultPoint::CrashBeforeCommit);
    }

    /// The allocator's sealed list is the one record of the sealed set:
    /// what the epoch painted, what it publishes and what the image
    /// persists are all that list, even while frees join the next
    /// generation mid-epoch.
    #[test]
    fn sealed_list_is_what_the_epoch_paints_and_the_image_persists() {
        let mut cfg = incremental_config();
        cfg.policy.quarantine.fraction = f64::INFINITY; // epochs open by hand
        let mut h = CherivokeHeap::new(cfg).unwrap();
        let _ballast = h.malloc(256 << 10).unwrap();
        let mut objs: Vec<_> = (0..12).map(|_| h.malloc(1 << 10).unwrap()).collect();
        // Free every other object: the seal holds non-adjacent spans.
        for obj in objs.iter().step_by(2) {
            h.free(*obj).unwrap();
        }
        assert!(h.begin_revocation());
        // Held open, so the slices the frees below pump cannot retire it.
        h.set_epoch_hold(true);
        h.revoke_step(4 << 10);
        // Frees mid-epoch join the open generation, not the sealed set.
        for obj in objs.drain(..).skip(1).step_by(2) {
            h.free(obj).unwrap();
        }
        let sealed: Vec<(u64, u64)> = h
            .capture_image()
            .chunks
            .iter()
            .filter(|c| c.state == ImageChunkState::QuarantinedSealed)
            .map(|c| (c.addr, c.size))
            .collect();
        assert_eq!(sealed.len(), 6);
        assert_eq!(
            h.shadow().painted_bytes(),
            sealed.iter().map(|&(_, size)| size).sum::<u64>()
        );
        for &(addr, size) in &sealed {
            assert!(h.shadow().is_painted(addr), "first granule of {addr:#x}");
            assert!(
                h.shadow().is_painted(addr + size - tagmem::GRANULE_SIZE),
                "last granule of {addr:#x}"
            );
        }
        assert!(h.revocation_active());
        assert_eq!(h.epoch_ranges(), h.allocator().sealed_ranges());
        assert_eq!(h.allocator().open_chunks().count(), 6);
        h.finish_revocation().expect("the epoch retires");
        assert_eq!(h.shadow().painted_bytes(), 0);
        assert!(h.allocator().sealed_ranges().is_empty());
        assert!(h.epoch_ranges().is_empty());
    }

    #[test]
    fn journal_write_failure_degrades_to_synchronous_epochs() {
        use revoker::fault::{FaultInjector, FaultPlan, FaultPoint, FaultRule};
        let cfg = incremental_config();
        let mut h = CherivokeHeap::new(cfg).unwrap();
        h.set_journal(journal::Journal::in_memory());
        h.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
            FaultRule::once(FaultPoint::JournalAppend, 0),
        ])));
        assert!(h.journal_active());
        let holder = h.malloc(16).unwrap();
        for _ in 0..200 {
            let obj = h.malloc(4 << 10).unwrap();
            h.store_cap(&holder, 0, &obj).unwrap();
            h.free(obj).unwrap();
        }
        assert!(h.journal_degraded(), "injected append failure never hit");
        assert!(!h.journal_active());
        // Degraded mode never leaves an epoch in flight: every free that
        // needed a sweep completed it synchronously.
        assert!(!h.revocation_active());
        assert!(h.audit().clean());
    }

    #[test]
    fn crash_points_are_inert_without_crash_persistence() {
        use revoker::fault::{FaultInjector, FaultPlan, FaultPoint, FaultRule};
        let cfg = incremental_config();
        let mut h = CherivokeHeap::new(cfg).unwrap();
        // Armed plan, but no set_crash_persist: the heap must run as if
        // the crash points did not exist (seeded chaos plans rely on it).
        h.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
            FaultRule::once(FaultPoint::CrashMidSweep, 0),
            FaultRule::once(FaultPoint::CrashBeforeCommit, 0),
        ])));
        let holder = h.malloc(16).unwrap();
        for _ in 0..100 {
            let obj = h.malloc(4 << 10).unwrap();
            h.store_cap(&holder, 0, &obj).unwrap();
            h.free(obj).unwrap();
        }
        h.revoke_now();
        assert!(h.audit().clean());
    }

    #[test]
    fn shadow_is_clean_after_sweep() {
        let mut h = heap();
        let a = h.malloc(4096).unwrap();
        h.free(a).unwrap();
        h.revoke_now();
        // Next allocation of the same region must not be revoked by stale
        // shadow bits.
        let b = h.malloc(4096).unwrap();
        let holder = h.malloc(16).unwrap();
        h.store_cap(&holder, 0, &b).unwrap();
        // A sweep with an empty quarantine revokes nothing.
        let stats = h.revoke_now();
        assert_eq!(stats.caps_revoked, 0);
        assert!(h.load_cap(&holder, 0).unwrap().tag());
    }
}
