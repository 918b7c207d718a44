//! Shared infrastructure for the comparator heaps.

use std::collections::HashMap;

use cvkalloc::{AllocError, Block, DlAllocator};

/// Calibrated unit costs shared by the comparator models. Each constant is
/// documented with the operation it prices; values are order-of-magnitude
/// calibrations against the systems' published overheads, not measurements
/// of the original artifacts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineCosts {
    /// Boehm GC: marking one reachable object (pointer-chasing, cache-hostile).
    pub t_gc_mark_obj_s: f64,
    /// Boehm GC: conservative scan rate over heap bytes during collection
    /// ("complex and memory-irregular", far below CHERIvoke's streaming
    /// sweep — §7.3).
    pub gc_scan_rate_bytes_s: f64,
    /// DangSan: recording one pointer store into the target's registry.
    pub t_track_ptr_s: f64,
    /// DangSan: nullifying one registry entry at free time.
    pub t_nullify_s: f64,
    /// DangSan: registry bytes per recorded pointer store.
    pub registry_bytes_per_entry: u64,
    /// Oscar: creating an allocation's private page alias (mmap path).
    pub t_page_alias_s: f64,
    /// Oscar: revoking the alias on free (mprotect/munmap path).
    pub t_page_unmap_s: f64,
    /// pSweeper: per-pointer-store instrumentation barrier.
    pub t_ptr_barrier_s: f64,
    /// pSweeper: main-thread slowdown fraction while the concurrent sweeper
    /// saturates shared memory bandwidth.
    pub sweeper_contention: f64,
    /// pSweeper: concurrent sweep scan rate (on the second core).
    pub psweep_scan_rate_bytes_s: f64,
    /// Implied pointer stores per second in a fully pointer-dense program
    /// (scaled by each profile's density): models the pointer writes real
    /// programs perform between allocator events, which instrumentation
    /// systems pay for but CHERIvoke does not.
    pub implied_ptr_stores_per_s: f64,
}

impl Default for BaselineCosts {
    fn default() -> Self {
        BaselineCosts {
            t_gc_mark_obj_s: 70e-9,
            gc_scan_rate_bytes_s: 1.0 * 1024.0 * 1024.0 * 1024.0,
            t_track_ptr_s: 45e-9,
            t_nullify_s: 40e-9,
            registry_bytes_per_entry: 24,
            t_page_alias_s: 1.8e-6,
            t_page_unmap_s: 1.6e-6,
            t_ptr_barrier_s: 6e-9,
            sweeper_contention: 0.25,
            psweep_scan_rate_bytes_s: 4.0 * 1024.0 * 1024.0 * 1024.0,
            implied_ptr_stores_per_s: 4.0e7,
        }
    }
}

/// Measures this machine's actual sweep throughput (bytes/second) by
/// running a real [`revoker::SweepEngine`] sweep over a synthetic tagged
/// heap image, instead of assuming the default 4 GiB/s constant. The image
/// holds one capability per page — sparse enough that the sweep streams,
/// dense enough that shadow lookups are exercised — and the sweep repeats
/// until enough wall time accumulates for a stable rate.
///
/// The sweep runs [`revoker::Kernel::Simd`], the kernel heaps ship with,
/// against a shadow with its top quarter painted: a non-empty shadow keeps
/// the kernel off its empty-shadow shortcut, so every base is decoded and
/// probed, while the capabilities all point below the painted quarter, so
/// nothing is revoked and every repeat sweeps the same image.
///
/// Used by [`crate::PSweeperHeap::with_measured_rate`] so the analytic
/// contention model is grounded in the same kernel CHERIvoke's own numbers
/// come from.
pub fn measured_sweep_rate() -> f64 {
    use revoker::{Kernel, NoCost, NoFilter, SegmentSource, ShadowMap, SweepEngine, SweepScratch};

    const BASE: u64 = 0x1000_0000;
    const LEN: u64 = 4 << 20;
    let mut mem = tagmem::TaggedMemory::new(BASE, LEN);
    let cap = cheri::Capability::root_rw(BASE, 64);
    let mut addr = BASE;
    while addr < BASE + LEN {
        mem.write_cap(addr, &cap).expect("address inside image");
        addr += tagmem::PAGE_SIZE;
    }
    let mut shadow = ShadowMap::new(BASE, LEN);
    shadow.paint(BASE + LEN - LEN / 4, LEN / 4);
    let engine = SweepEngine::new(Kernel::Simd);
    let mut scratch = SweepScratch::new();
    let t0 = std::time::Instant::now();
    let mut bytes = 0u64;
    // At least one sweep; then repeat until ~2 ms of signal. One scratch is
    // reused across the repeats so the measured rate is the steady-state,
    // allocation-free sweep throughput.
    while bytes == 0 || t0.elapsed().as_secs_f64() < 2e-3 {
        let stats = engine.sweep_with(
            SegmentSource::new(&mut mem),
            NoFilter,
            &shadow,
            &mut NoCost,
            &mut scratch,
        );
        debug_assert_eq!(stats.caps_revoked, 0, "repeats must sweep one image");
        bytes += stats.bytes_swept;
    }
    (bytes as f64 / t0.elapsed().as_secs_f64().max(1e-9)).max(1.0)
}

/// A real allocator plus id→block bookkeeping, shared by all baselines so
/// their memory accounting is as honest as CHERIvoke's.
#[derive(Debug)]
pub(crate) struct BaseAlloc {
    pub alloc: DlAllocator,
    pub blocks: HashMap<u64, Block>,
}

impl BaseAlloc {
    pub fn new(heap_bytes: u64) -> BaseAlloc {
        let size = cheri::CompressedBounds::representable_length(cheri::granule_round_up(
            (heap_bytes as f64 * 2.5) as u64,
        ));
        BaseAlloc {
            alloc: DlAllocator::new(0x1000_0000, size),
            blocks: HashMap::new(),
        }
    }

    pub fn malloc(&mut self, id: u64, size: u64) -> Result<Block, String> {
        let block = self
            .alloc
            .malloc(size)
            .map_err(|e| format!("malloc {id}: {e}"))?;
        self.blocks.insert(id, block);
        Ok(block)
    }

    pub fn free(&mut self, id: u64) -> Result<u64, String> {
        let block = self
            .blocks
            .remove(&id)
            .ok_or_else(|| format!("free of unknown id {id}"))?;
        match self.alloc.free(block.addr) {
            Ok(size) => Ok(size),
            Err(AllocError::InvalidFree { .. }) => Err(format!("double free of id {id}")),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn peak_live(&self) -> u64 {
        self.alloc.stats().peak_live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_alloc_tracks_blocks() {
        let mut b = BaseAlloc::new(1 << 20);
        b.malloc(1, 100).unwrap();
        b.malloc(2, 200).unwrap();
        assert_eq!(b.free(1).unwrap(), 112);
        assert!(b.free(1).is_err());
        assert!(b.peak_live() >= 300);
    }

    #[test]
    fn default_costs_are_positive() {
        let c = BaselineCosts::default();
        assert!(c.t_gc_mark_obj_s > 0.0);
        assert!(c.gc_scan_rate_bytes_s > 0.0);
        assert!(
            c.t_page_alias_s > c.t_track_ptr_s,
            "Oscar ops are syscall-scale"
        );
    }
}
