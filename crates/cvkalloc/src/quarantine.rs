//! The quarantine buffer: `dlmalloc_cherivoke` (paper §3.1, §5.2).

use std::collections::BTreeMap;

use crate::obs::{AllocTelemetry, ByteLevels};
use crate::{AllocError, AllocStats, Block, ChunkState, DlAllocator, RestoreError};

/// Sizing policy for the quarantine buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Trigger a sweep when quarantined bytes reach this fraction of the
    /// *live* heap ("the rest of the heap", §3.1). The paper's default is
    /// 0.25 — a 25% heap-size overhead.
    pub fraction: f64,
    /// Never trigger below this many quarantined bytes (avoids degenerate
    /// sweeping of tiny heaps; 0 disables the floor).
    pub min_bytes: u64,
    /// Aggregate adjacent freed chunks in the quarantine (§5.2). `false`
    /// exists only for the ablation study — it multiplies drain-time
    /// internal frees.
    pub aggregate: bool,
}

impl QuarantineConfig {
    /// The paper's default configuration: quarantine up to 25% of the heap.
    pub fn paper_default() -> QuarantineConfig {
        QuarantineConfig {
            fraction: 0.25,
            min_bytes: 0,
            aggregate: true,
        }
    }

    /// A policy with the given heap-overhead fraction.
    pub fn with_fraction(fraction: f64) -> QuarantineConfig {
        QuarantineConfig {
            fraction,
            min_bytes: 0,
            aggregate: true,
        }
    }
}

/// `dlmalloc_cherivoke`: wraps [`DlAllocator`] so that `free` detains chunks
/// in a quarantine buffer instead of recycling them.
///
/// Freed neighbours are aggregated in constant time (the chunk map gives
/// both neighbours directly), so "the number of internal frees may be much
/// smaller than the number of frees" (§5.2) — see
/// [`AllocStats::internal_frees`].
///
/// The owner (the `cherivoke` crate's heap) is responsible for:
///
/// 1. polling [`CherivokeAllocator::needs_sweep`],
/// 2. painting [`CherivokeAllocator::quarantined_ranges`] into the shadow
///    map,
/// 3. running the revocation sweep, and
/// 4. calling [`CherivokeAllocator::drain_quarantine`].
#[derive(Debug, Clone)]
pub struct CherivokeAllocator {
    inner: DlAllocator,
    config: QuarantineConfig,
    /// Open generation: chunks freed since the last seal, still
    /// aggregating, from address to aggregated size. The sizes travel
    /// with the aggregation so sealing reads no chunk map.
    open: BTreeMap<u64, u64>,
    /// Sealed generation: chunks whose shadow bits are painted for an
    /// in-progress (incremental) revocation epoch. No further aggregation —
    /// the `(addr, size)` extents are frozen at seal time because they must
    /// match what was painted. The one record of the sealed set: the owner
    /// paints, unpaints and persists it from here. A plain vector (rather
    /// than a set) so the buffer's capacity survives
    /// [`CherivokeAllocator::drain_sealed`] and steady-state epochs
    /// allocate nothing here.
    sealed: Vec<(u64, u64)>,
    /// Metric handles (detached by default; see
    /// [`CherivokeAllocator::set_telemetry`]).
    telemetry: AllocTelemetry,
    /// Fault injection (disabled by default; see
    /// [`CherivokeAllocator::set_fault_injector`]).
    faults: faultinject::FaultInjector,
}

impl CherivokeAllocator {
    /// Wraps `inner` with a quarantine sized at `fraction` of the live heap.
    pub fn new(inner: DlAllocator, fraction: f64) -> CherivokeAllocator {
        CherivokeAllocator::with_config(inner, QuarantineConfig::with_fraction(fraction))
    }

    /// Wraps `inner` with an explicit [`QuarantineConfig`].
    pub fn with_config(inner: DlAllocator, config: QuarantineConfig) -> CherivokeAllocator {
        CherivokeAllocator {
            inner,
            config,
            open: BTreeMap::new(),
            sealed: Vec::new(),
            telemetry: AllocTelemetry::default(),
            faults: faultinject::FaultInjector::disabled(),
        }
    }

    /// Arms fault injection: `malloc` fails with a spurious
    /// [`AllocError::OutOfMemory`] whenever the armed plan fires
    /// [`faultinject::FaultPoint::AllocFailure`], exercising callers'
    /// emergency-sweep paths exactly as genuine memory pressure would.
    pub fn set_fault_injector(&mut self, faults: faultinject::FaultInjector) {
        self.faults = faults;
    }

    /// Attaches allocator telemetry: mallocs/frees/drains count into
    /// `registry` and the live/quarantined/free-bin byte pools become
    /// shared gauges (delta-updated, so shards aggregate). The gauges are
    /// seeded with this allocator's current levels.
    pub fn set_telemetry(&mut self, registry: &telemetry::Registry) {
        self.telemetry = AllocTelemetry::register(registry);
        self.telemetry.seed_levels(self.byte_levels());
    }

    /// Current (live, quarantined, free-bin) byte pools, for gauge deltas.
    fn byte_levels(&self) -> ByteLevels {
        (
            self.inner.live_bytes(),
            self.inner.stats().quarantined_bytes,
            self.inner.free_bytes(),
        )
    }

    /// The quarantine policy.
    pub fn config(&self) -> QuarantineConfig {
        self.config
    }

    /// Allocates `size` bytes (delegates to the base allocator — quarantined
    /// chunks are *not* eligible).
    ///
    /// # Errors
    ///
    /// As [`DlAllocator::malloc`]. Note that memory detained in quarantine
    /// can produce out-of-memory conditions a non-quarantining allocator
    /// would not hit; callers may respond by sweeping early.
    pub fn malloc(&mut self, size: u64) -> Result<Block, AllocError> {
        if self
            .faults
            .should_fire(faultinject::FaultPoint::AllocFailure)
        {
            return Err(AllocError::OutOfMemory { requested: size });
        }
        if !self.telemetry.is_enabled() {
            return self.inner.malloc(size);
        }
        let before = self.byte_levels();
        let block = self.inner.malloc(size)?;
        self.telemetry.on_malloc(size, before, self.byte_levels());
        Ok(block)
    }

    /// Frees `addr` into the quarantine buffer.
    ///
    /// The chunk is validated and live accounting updated exactly as for a
    /// real free, but the memory stays unavailable until
    /// [`CherivokeAllocator::drain_quarantine`]. Adjacent quarantined chunks
    /// are aggregated immediately.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] as for [`DlAllocator::free`] — in
    /// particular, freeing an already-quarantined chunk is a detected double
    /// free.
    pub fn free(&mut self, addr: u64) -> Result<u64, AllocError> {
        let levels_before = self.telemetry.is_enabled().then(|| self.byte_levels());
        let size = self.inner.begin_free(addr)?;
        self.inner.set_chunk_state(addr, ChunkState::Quarantined);
        self.inner.stats_mut().quarantined_bytes += size;
        self.inner.stats_mut().note_footprint();

        // Aggregate with quarantined neighbours (constant-time, §5.2) — but
        // only within the *open* generation: sealed chunks' extents are
        // frozen because their shadow bits are already painted.
        if !self.config.aggregate {
            self.open.insert(addr, size);
        } else {
            // The successor first, so the entry that ends up holding this
            // chunk is written once, with its final size.
            let mut total = size;
            if let Some((naddr, _, ChunkState::Quarantined)) =
                self.inner.chunks().next_neighbour(addr)
            {
                if let Some(nsize) = self.open.remove(&naddr) {
                    self.inner.chunks_mut().merge_with_next(addr);
                    total += nsize;
                }
            }
            let into_prev = match self.inner.chunks().prev_neighbour(addr) {
                Some((paddr, _, ChunkState::Quarantined)) => {
                    self.open.get_mut(&paddr).map(|psize| {
                        *psize += total;
                        paddr
                    })
                }
                _ => None,
            };
            match into_prev {
                Some(paddr) => {
                    self.inner.chunks_mut().merge_with_next(paddr);
                }
                None => {
                    self.open.insert(addr, total);
                }
            }
        }
        if let Some(before) = levels_before {
            self.telemetry.on_free(before, self.byte_levels());
        }
        Ok(size)
    }

    /// Bytes currently detained.
    pub fn quarantined_bytes(&self) -> u64 {
        self.inner.stats().quarantined_bytes
    }

    /// Number of (aggregated) chunks in quarantine (both generations).
    pub fn quarantined_chunks(&self) -> usize {
        self.open.len() + self.sealed.len()
    }

    /// `true` when the quarantine policy says it is time to sweep:
    /// `quarantined >= fraction × live` (and above the configured floor).
    pub fn needs_sweep(&self) -> bool {
        let q = self.quarantined_bytes();
        q >= self.config.min_bytes
            && q as f64 >= self.config.fraction * self.inner.live_bytes().max(1) as f64
    }

    /// Visits every aggregated `(addr, size)` range currently in quarantine
    /// — sealed generation first, then the open one — without
    /// materialising a vector. This is the allocation-free spine behind
    /// [`CherivokeAllocator::quarantined_ranges`].
    pub fn for_each_quarantined_range(&self, mut f: impl FnMut(u64, u64)) {
        for &(addr, size) in &self.sealed {
            f(addr, size);
        }
        for (&addr, &size) in &self.open {
            f(addr, size);
        }
    }

    /// The aggregated `(addr, size)` ranges currently in quarantine — the
    /// ranges to paint into the revocation shadow map before a sweep
    /// (both generations). Allocates the result; epoch paths use
    /// [`CherivokeAllocator::for_each_quarantined_range`] instead.
    pub fn quarantined_ranges(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        self.for_each_quarantined_range(|a, s| v.push((a, s)));
        v.sort_unstable();
        v
    }

    /// Seals the open generation for a revocation epoch: its chunks stop
    /// aggregating (their extents are about to be painted) and will be
    /// released by [`CherivokeAllocator::drain_sealed`]. Returns the newly
    /// sealed `(addr, size)` ranges, the tail of
    /// [`CherivokeAllocator::sealed_ranges`]; nothing is copied, so
    /// steady-state sealing allocates nothing. Frees arriving while the
    /// epoch runs open the next generation.
    pub fn seal_quarantine(&mut self) -> &[(u64, u64)] {
        let sealed_before = self.sealed.len();
        for (&addr, &size) in &self.open {
            debug_assert_eq!(
                self.inner.chunks().get(addr),
                Some((size, ChunkState::Quarantined)),
                "open generation out of step with the chunk map at {addr:#x}"
            );
            self.sealed.push((addr, size));
        }
        self.open.clear();
        &self.sealed[sealed_before..]
    }

    /// Bytes in the sealed generation.
    pub fn sealed_bytes(&self) -> u64 {
        self.sealed.iter().map(|&(_, s)| s).sum()
    }

    /// Releases the sealed generation into the free lists (call after the
    /// epoch's sweep completes, once the caller has cleared the shadow
    /// bits of [`CherivokeAllocator::sealed_ranges`]).
    pub fn drain_sealed(&mut self) {
        let levels_before = self.telemetry.is_enabled().then(|| self.byte_levels());
        let mut drained = 0u64;
        for &(addr, size) in &self.sealed {
            self.inner.release(addr);
            drained += size;
        }
        self.sealed.clear();
        let stats = self.inner.stats_mut();
        stats.quarantined_bytes -= drained;
        stats.drains += 1;
        if let Some(before) = levels_before {
            self.telemetry.on_drain(before, self.byte_levels());
        }
    }

    /// Empties the *entire* quarantine into the free lists (the
    /// stop-the-world path: call after a full revocation sweep). Returns
    /// the drained `(addr, size)` ranges, whose shadow bits the caller
    /// clears.
    pub fn drain_quarantine(&mut self) -> Vec<(u64, u64)> {
        self.seal_quarantine();
        let ranges = self.sealed.clone();
        self.drain_sealed();
        ranges
    }

    /// Statistics snapshot (includes quarantine counters).
    pub fn stats(&self) -> AllocStats {
        self.inner.stats()
    }

    /// Bytes currently allocated to the program.
    pub fn live_bytes(&self) -> u64 {
        self.inner.live_bytes()
    }

    /// The base allocator (read-only).
    pub fn inner(&self) -> &DlAllocator {
        &self.inner
    }

    /// Rebuilds a quarantining allocator from a restored base allocator
    /// plus the persisted quarantine bookkeeping (crash recovery): the
    /// open generation's chunk addresses `open`, and the sealed
    /// generation's frozen `(addr, size)` extents. Every referenced
    /// address must be a [`ChunkState::Quarantined`] chunk in `inner`,
    /// and together the open and sealed records must account for every
    /// quarantined chunk (the caller's image format guarantees this by
    /// construction).
    ///
    /// Telemetry and fault injection come back detached, exactly as
    /// after [`CherivokeAllocator::with_config`].
    ///
    /// # Errors
    ///
    /// [`RestoreError::NotQuarantined`] when a record references an
    /// address that is not the start of a quarantined chunk.
    pub fn restore(
        inner: DlAllocator,
        config: QuarantineConfig,
        open: &[u64],
        sealed: &[(u64, u64)],
    ) -> Result<CherivokeAllocator, RestoreError> {
        let mut open_sizes = BTreeMap::new();
        for &addr in open {
            match inner.chunks().get(addr) {
                Some((size, ChunkState::Quarantined)) => {
                    open_sizes.insert(addr, size);
                }
                _ => return Err(RestoreError::NotQuarantined { addr }),
            }
        }
        for &(addr, size) in sealed {
            match inner.chunks().get(addr) {
                Some((csize, ChunkState::Quarantined)) if csize == size => {}
                _ => return Err(RestoreError::NotQuarantined { addr }),
            }
        }
        Ok(CherivokeAllocator {
            inner,
            config,
            open: open_sizes,
            sealed: sealed.to_vec(),
            telemetry: AllocTelemetry::default(),
            faults: faultinject::FaultInjector::disabled(),
        })
    }

    /// Moves every sealed chunk back into the open generation — the
    /// recovery action for an epoch that died *before* its `Sealed`
    /// journal record became durable: no sweep of it can be relied on,
    /// so the safe rollback is to pretend the seal never happened.
    /// Returns the number of chunks re-opened. Safe in both crash orders
    /// because the memory stays quarantined throughout.
    pub fn unseal_sealed(&mut self) -> usize {
        let count = self.sealed.len();
        self.open.extend(self.sealed.drain(..));
        count
    }

    /// The open generation's chunk addresses, ascending — the persistence
    /// inverse of the `open` argument to [`CherivokeAllocator::restore`].
    pub fn open_chunks(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.keys().copied()
    }

    /// The sealed generation's frozen `(addr, size)` extents — the
    /// persistence inverse of the `sealed` argument to
    /// [`CherivokeAllocator::restore`].
    pub fn sealed_ranges(&self) -> &[(u64, u64)] {
        &self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x1000_0000;

    fn heap() -> CherivokeAllocator {
        CherivokeAllocator::new(DlAllocator::new(BASE, 1 << 20), 0.25)
    }

    #[test]
    fn freed_memory_is_not_reused_before_drain() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let guard = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        // A new allocation of the same size must NOT land on a's address.
        let b = h.malloc(64).unwrap();
        assert_ne!(b.addr, a.addr);
        // After draining, it can.
        h.free(b.addr).unwrap();
        h.free(guard.addr).unwrap();
        h.drain_quarantine();
        let c = h.malloc(64).unwrap();
        assert_eq!(c.addr, a.addr);
    }

    #[test]
    fn double_free_of_quarantined_chunk_is_detected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        assert_eq!(
            h.free(a.addr),
            Err(AllocError::InvalidFree { addr: a.addr })
        );
    }

    #[test]
    fn adjacent_frees_aggregate() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        let c = h.malloc(64).unwrap();
        let _guard = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        h.free(c.addr).unwrap();
        assert_eq!(h.quarantined_chunks(), 2);
        h.free(b.addr).unwrap(); // bridges a and c
        assert_eq!(h.quarantined_chunks(), 1);
        assert_eq!(h.quarantined_ranges(), vec![(a.addr, 192)]);
        assert_eq!(h.quarantined_bytes(), 192);
    }

    #[test]
    fn aggregation_reduces_internal_frees() {
        let mut h = heap();
        let blocks: Vec<_> = (0..100).map(|_| h.malloc(64).unwrap()).collect();
        let _guard = h.malloc(64).unwrap();
        for b in &blocks {
            h.free(b.addr).unwrap();
        }
        assert_eq!(
            h.quarantined_chunks(),
            1,
            "contiguous frees aggregate to one chunk"
        );
        h.drain_quarantine();
        let s = h.stats();
        assert_eq!(s.frees, 100);
        assert_eq!(
            s.internal_frees, 1,
            "one internal free after aggregation (§6.1.1)"
        );
    }

    #[test]
    fn needs_sweep_follows_fraction() {
        let mut h = heap();
        // live = 4 KiB.
        let keep: Vec<_> = (0..64).map(|_| h.malloc(64).unwrap()).collect();
        // Quarantine just under 25%: 960 bytes < 1024.
        let extra: Vec<_> = (0..15).map(|_| h.malloc(64).unwrap()).collect();
        for b in &extra {
            h.free(b.addr).unwrap();
        }
        assert!(!h.needs_sweep());
        // One more free tips it over.
        let last = h.malloc(64).unwrap();
        h.free(last.addr).unwrap();
        assert!(h.needs_sweep());
        drop(keep);
    }

    #[test]
    fn min_bytes_floor_suppresses_tiny_sweeps() {
        let mut h = CherivokeAllocator::with_config(
            DlAllocator::new(BASE, 1 << 20),
            QuarantineConfig {
                fraction: 0.25,
                min_bytes: 1 << 16,
                aggregate: true,
            },
        );
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        // 100% of live heap quarantined but below the floor.
        assert!(!h.needs_sweep());
    }

    #[test]
    fn drain_returns_ranges_and_resets() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let _guard = h.malloc(16).unwrap();
        let b = h.malloc(512).unwrap();
        h.free(a.addr).unwrap();
        h.free(b.addr).unwrap();
        let mut ranges = h.drain_quarantine();
        ranges.sort_unstable();
        assert_eq!(ranges, vec![(a.addr, a.size), (b.addr, b.size)]);
        assert_eq!(h.quarantined_bytes(), 0);
        assert_eq!(h.quarantined_chunks(), 0);
        assert_eq!(h.stats().drains, 1);
        h.inner().chunks().assert_tiling();
    }

    #[test]
    fn sealed_extents_survive_neighbouring_frees() {
        // A free adjacent to a *sealed* chunk must not merge with it (its
        // painted extent is frozen).
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        let _guard = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        assert_eq!(h.seal_quarantine(), &[(a.addr, a.size)]);
        h.free(b.addr).unwrap();
        assert_eq!(h.quarantined_chunks(), 2, "no merge across the seal");
        assert_eq!(h.sealed_ranges(), &[(a.addr, a.size)]);
        h.drain_sealed();
        assert!(h.sealed_ranges().is_empty());
        assert_eq!(h.quarantined_ranges(), vec![(b.addr, b.size)]);
        h.drain_quarantine();
        h.inner().chunks().assert_tiling();
    }

    #[test]
    fn scratch_buffers_are_reused_without_growth() {
        // The allocation-free contract: once warm, a seal/drain cycle fits
        // in the sealed list's existing capacity, and the seal hands out
        // that list rather than a copy.
        let mut h = heap();
        let mut capacity = None;
        for _ in 0..16 {
            let a = h.malloc(64).unwrap();
            let _guard = h.malloc(16).unwrap();
            h.free(a.addr).unwrap();
            let sealed = h.seal_quarantine();
            assert_eq!(sealed, &[(a.addr, a.size)]);
            assert!(std::ptr::eq(sealed.as_ptr(), h.sealed.as_ptr()));
            h.drain_sealed();
            assert!(h.sealed.is_empty());
            assert_eq!(
                *capacity.get_or_insert(h.sealed.capacity()),
                h.sealed.capacity()
            );
        }
    }

    #[test]
    fn footprint_includes_quarantine() {
        let mut h = heap();
        let a = h.malloc(1024).unwrap();
        let b = h.malloc(1024).unwrap();
        h.free(a.addr).unwrap();
        let s = h.stats();
        assert_eq!(s.live_bytes, b.size);
        assert_eq!(s.quarantined_bytes, a.size);
        assert_eq!(s.peak_footprint_bytes, a.size + b.size);
    }

    #[test]
    fn telemetry_gauges_track_pool_movement() {
        let registry = telemetry::Registry::new(8);
        let mut h = heap();
        let pre = h.malloc(1024).unwrap(); // allocated before attach
        h.set_telemetry(&registry);
        // Gauges seeded with the pre-attach live bytes.
        assert_eq!(registry.snapshot().gauges["cvk_alloc_live_bytes"], pre.size);

        let a = h.malloc(256).unwrap();
        h.free(a.addr).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cvk_alloc_mallocs_total"], 1);
        assert_eq!(snap.counters["cvk_alloc_frees_total"], 1);
        assert_eq!(snap.gauges["cvk_alloc_live_bytes"], pre.size);
        assert_eq!(snap.gauges["cvk_alloc_quarantined_bytes"], a.size);

        h.drain_quarantine();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cvk_alloc_quarantine_drains_total"], 1);
        assert_eq!(snap.gauges["cvk_alloc_quarantined_bytes"], 0);
        // Gauge agrees with the allocator's own accounting throughout.
        assert_eq!(
            snap.gauges["cvk_alloc_free_bin_bytes"],
            h.inner().free_bytes()
        );
    }

    #[test]
    fn restore_round_trips_allocator_state() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(128).unwrap();
        let c = h.malloc(64).unwrap();
        let _guard = h.malloc(16).unwrap();
        h.free(c.addr).unwrap();
        h.seal_quarantine(); // c sealed
        h.free(a.addr).unwrap(); // a open

        // Persist: chunk tiling + quarantine bookkeeping.
        let chunks: Vec<_> = h.inner().chunks().iter().collect();
        let open: Vec<u64> = h.open_chunks().collect();
        assert_eq!(open, vec![a.addr]);
        let sealed_ranges = h.sealed_ranges().to_vec();

        let inner = DlAllocator::restore(BASE, 1 << 20, &chunks).unwrap();
        let mut r = CherivokeAllocator::restore(inner, h.config(), &open, &sealed_ranges).unwrap();
        assert_eq!(r.quarantined_bytes(), h.quarantined_bytes());
        assert_eq!(r.quarantined_chunks(), h.quarantined_chunks());
        assert_eq!(r.sealed_ranges(), &[(c.addr, c.size)]);
        assert_eq!(r.quarantined_ranges(), h.quarantined_ranges());
        assert_eq!(r.live_bytes(), h.live_bytes());
        r.inner().chunks().assert_tiling();

        // The restored heap behaves: drain the sealed generation, then
        // allocate from the recycled space.
        let quarantined = r.quarantined_bytes();
        r.drain_sealed();
        assert!(r.sealed_ranges().is_empty());
        assert_eq!(r.quarantined_bytes(), quarantined - c.size);
        // b is still live in both worlds.
        assert_eq!(
            r.inner().chunks().get(b.addr),
            Some((b.size, ChunkState::Allocated))
        );
        r.free(b.addr).unwrap();
        r.inner().chunks().assert_tiling();
    }

    #[test]
    fn unseal_returns_sealed_chunks_to_open_generation() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let _guard = h.malloc(16).unwrap();
        h.free(a.addr).unwrap();
        h.seal_quarantine();
        assert_eq!(h.sealed_bytes(), a.size);
        let n = h.unseal_sealed();
        assert_eq!(n, 1);
        assert_eq!(h.sealed_bytes(), 0);
        assert_eq!(
            h.open_chunks().collect::<Vec<_>>(),
            vec![a.addr],
            "chunk back in the open generation"
        );
        // And it still drains normally later.
        assert_eq!(h.drain_quarantine(), vec![(a.addr, a.size)]);
    }

    #[test]
    fn restore_rejects_inconsistent_quarantine_records() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        let chunks: Vec<_> = h.inner().chunks().iter().collect();
        let inner = DlAllocator::restore(BASE, 1 << 20, &chunks).unwrap();
        // Open record pointing at a non-quarantined address.
        assert_eq!(
            CherivokeAllocator::restore(inner.clone(), h.config(), &[BASE + 0x8000], &[])
                .unwrap_err(),
            RestoreError::NotQuarantined {
                addr: BASE + 0x8000
            }
        );
        // Sealed record with the wrong extent.
        assert!(
            CherivokeAllocator::restore(inner, h.config(), &[], &[(a.addr, a.size + 16)]).is_err()
        );
    }

    #[test]
    fn oom_can_be_caused_by_quarantine() {
        let mut h = CherivokeAllocator::new(DlAllocator::new(BASE, 4096), 0.25);
        let a = h.malloc(2048).unwrap();
        h.free(a.addr).unwrap();
        // 2 KiB live in quarantine: a 3 KiB request fails…
        assert!(h.malloc(3072).is_err());
        // …until the quarantine is drained.
        h.drain_quarantine();
        assert!(h.malloc(3072).is_ok());
    }
}
