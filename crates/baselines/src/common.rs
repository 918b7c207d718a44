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
