//! The base dlmalloc-style allocator.

use cheri::CompressedBounds;

use crate::bins::Bins;
use crate::{AllocError, AllocStats, ChunkMap, ChunkState, RestoreError, GRANULE};

/// A successful allocation: start address and *granted* size (the requested
/// size rounded up to a granule multiple and a CHERI-representable length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First byte of the allocation.
    pub addr: u64,
    /// Granted size in bytes; the capability bounds cover exactly this.
    pub size: u64,
}

/// A dlmalloc-flavoured allocator over a fixed heap range.
///
/// Design points carried over from dlmalloc (paper §5.2 extends dlmalloc):
///
/// * 16-byte granularity and alignment.
/// * Exact small bins with LIFO reuse; best-fit for large chunks.
/// * Immediate coalescing of freed neighbours (constant-time via the chunk
///   map's neighbour queries).
/// * A *top* (wilderness) chunk that serves requests no free chunk fits.
///
/// CHERI addition: requests are padded to **representable lengths** and
/// aligned to **representable alignment** (see
/// [`cheri::CompressedBounds::representable_length`]) so the issuing
/// capability's compressed bounds cover the allocation exactly — no
/// neighbouring allocation can ever fall inside another's bounds (paper
/// §4.1).
///
/// # Examples
///
/// ```
/// use cvkalloc::DlAllocator;
///
/// # fn main() -> Result<(), cvkalloc::AllocError> {
/// let mut heap = DlAllocator::new(0x1000_0000, 1 << 20);
/// let a = heap.malloc(100)?;
/// assert_eq!(a.size, 112); // rounded to the 16-byte granule
/// heap.free(a.addr)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DlAllocator {
    chunks: ChunkMap,
    bins: Bins,
    top: Option<u64>,
    stats: AllocStats,
}

impl DlAllocator {
    /// Creates an allocator managing `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `size` are 16-byte aligned and `size > 0`.
    pub fn new(base: u64, size: u64) -> DlAllocator {
        assert!(size > 0, "empty heap");
        assert_eq!(base % GRANULE, 0, "heap base must be granule-aligned");
        assert_eq!(size % GRANULE, 0, "heap size must be granule-aligned");
        DlAllocator {
            chunks: ChunkMap::new(base, size),
            bins: Bins::new(),
            top: Some(base),
            stats: AllocStats::default(),
        }
    }

    /// Heap base address.
    pub fn base(&self) -> u64 {
        self.chunks.base()
    }

    /// Heap size in bytes.
    pub fn size(&self) -> u64 {
        self.chunks.size()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The chunk map (read-only; tests and sweep bookkeeping).
    pub fn chunks(&self) -> &ChunkMap {
        &self.chunks
    }

    /// Bytes currently allocated to the program.
    pub fn live_bytes(&self) -> u64 {
        self.stats.live_bytes
    }

    /// Bytes immediately available for reuse (free bins plus the top chunk).
    pub fn free_bytes(&self) -> u64 {
        let top = self
            .top
            .and_then(|t| self.chunks.get(t))
            .map(|(size, _)| size)
            .unwrap_or(0);
        self.bins.free_bytes() + top
    }

    /// The size a request for `size` bytes will actually be granted:
    /// granule-rounded and CHERI-representable.
    pub fn granted_size(size: u64) -> u64 {
        CompressedBounds::representable_length(cheri::granule_round_up(size))
    }

    /// Allocates `size` bytes.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadRequest`] for `size == 0` or sizes that overflow
    /// when padded; [`AllocError::OutOfMemory`] when no chunk fits.
    pub fn malloc(&mut self, size: u64) -> Result<Block, AllocError> {
        if size == 0 || size > u64::MAX / 2 {
            return Err(AllocError::BadRequest { size });
        }
        let padded = Self::granted_size(size);
        let align = CompressedBounds::representable_alignment(padded).max(GRANULE);

        // 1. Free bins (ask for extra when alignment padding may be needed).
        let want = if align > GRANULE {
            padded + align
        } else {
            padded
        };
        if let Some((addr, csize)) = self.bins.take_fit(want) {
            let block = self.place(addr, csize, padded, align);
            self.note_malloc(block);
            return Ok(block);
        }

        // 2. Carve from the top chunk.
        if let Some(top) = self.top {
            let (tsize, state) = self.chunks.get(top).expect("top chunk exists");
            debug_assert_eq!(state, ChunkState::Top);
            let pad = top.next_multiple_of(align) - top;
            if pad + padded <= tsize {
                let block = self.place_from_top(top, tsize, padded, pad);
                self.note_malloc(block);
                return Ok(block);
            }
        }

        Err(AllocError::OutOfMemory { requested: padded })
    }

    fn note_malloc(&mut self, block: Block) {
        self.stats.mallocs += 1;
        self.stats.live_bytes += block.size;
        self.stats.note_footprint();
        debug_assert!(block.addr.is_multiple_of(GRANULE));
    }

    /// Places `padded` bytes inside the free chunk `[addr, addr+csize)`,
    /// returning leading/trailing remainders to the free bins.
    fn place(&mut self, mut addr: u64, mut csize: u64, padded: u64, align: u64) -> Block {
        debug_assert_eq!(self.chunks.get(addr).map(|(s, _)| s), Some(csize));
        let aligned = addr.next_multiple_of(align);
        let pad = aligned - addr;
        debug_assert!(
            pad + padded <= csize,
            "chunk too small for aligned placement"
        );
        if pad > 0 {
            let right = self.chunks.split(addr, pad);
            self.chunks.set_state(addr, ChunkState::Free);
            self.bins.insert(addr, pad);
            addr = right;
            csize -= pad;
        }
        if csize > padded {
            let right = self.chunks.split(addr, padded);
            self.chunks.set_state(right, ChunkState::Free);
            self.bins.insert(right, csize - padded);
        }
        self.chunks.set_state(addr, ChunkState::Allocated);
        Block { addr, size: padded }
    }

    /// Carves from the top chunk, advancing the wilderness pointer.
    fn place_from_top(&mut self, top: u64, tsize: u64, padded: u64, pad: u64) -> Block {
        let mut addr = top;
        let mut remaining = tsize;
        if pad > 0 {
            let right = self.chunks.split(addr, pad);
            self.chunks.set_state(addr, ChunkState::Free);
            self.bins.insert(addr, pad);
            addr = right;
            remaining -= pad;
        }
        if remaining > padded {
            let new_top = self.chunks.split(addr, padded);
            self.top = Some(new_top);
        } else {
            self.top = None;
        }
        self.chunks.set_state(addr, ChunkState::Allocated);
        Block { addr, size: padded }
    }

    /// Frees the allocation starting at `addr`, coalescing immediately.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is not the start of a live
    /// allocation (double free, interior pointer, quarantined chunk).
    pub fn free(&mut self, addr: u64) -> Result<u64, AllocError> {
        let size = self.begin_free(addr)?;
        self.release(addr);
        Ok(size)
    }

    /// Validates a free and updates live accounting, leaving the chunk
    /// marked [`ChunkState::Allocated`] for the caller to transition
    /// (quarantine buffers call this, then keep the chunk detained).
    pub(crate) fn begin_free(&mut self, addr: u64) -> Result<u64, AllocError> {
        match self.chunks.get(addr) {
            Some((size, ChunkState::Allocated)) => {
                self.stats.frees += 1;
                self.stats.freed_bytes_total += size;
                self.stats.live_bytes -= size;
                Ok(size)
            }
            _ => Err(AllocError::InvalidFree { addr }),
        }
    }

    /// Returns the chunk at `addr` (in any non-free state) to the free
    /// lists, coalescing with free/top neighbours. Internal engine of both
    /// `free` and quarantine draining.
    pub(crate) fn release(&mut self, addr: u64) {
        self.stats.internal_frees += 1;
        let merged = self.chunks.coalesce_free(addr);
        if let Some((paddr, psize)) = merged.prev {
            self.bins.remove(paddr, psize);
        }
        if let Some((naddr, nsize)) = merged.next {
            self.bins.remove(naddr, nsize);
        }
        if merged.state == ChunkState::Top {
            // Folded into the wilderness.
            self.top = Some(merged.addr);
        } else {
            self.bins.insert(merged.addr, merged.size);
        }
    }

    /// Mutable chunk-state transition for quarantine bookkeeping.
    pub(crate) fn set_chunk_state(&mut self, addr: u64, state: ChunkState) {
        self.chunks.set_state(addr, state);
    }

    /// Mutable access to the chunk map for quarantine aggregation.
    pub(crate) fn chunks_mut(&mut self) -> &mut ChunkMap {
        &mut self.chunks
    }

    /// Mutable statistics for wrappers.
    pub(crate) fn stats_mut(&mut self) -> &mut AllocStats {
        &mut self.stats
    }

    /// Rebuilds an allocator from a persisted chunk tiling (crash
    /// recovery). `chunks` must be `(addr, size, state)` records in
    /// address order that exactly tile `[base, base + size)`. Free chunks
    /// re-enter the free bins, a trailing [`ChunkState::Top`] chunk
    /// becomes the wilderness, and allocated/quarantined chunks are
    /// restored as-is. Level stats (`live_bytes`, `quarantined_bytes`)
    /// are recomputed from the tiling; cumulative counters (mallocs,
    /// frees, drains, …) died with the process and restart at zero.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the records do not tile the heap, a value is
    /// not granule-aligned, or a top chunk is not at the heap end.
    pub fn restore(
        base: u64,
        size: u64,
        chunks: &[(u64, u64, ChunkState)],
    ) -> Result<DlAllocator, RestoreError> {
        if size == 0 || !size.is_multiple_of(GRANULE) {
            return Err(RestoreError::Unaligned { value: size });
        }
        if !base.is_multiple_of(GRANULE) {
            return Err(RestoreError::Unaligned { value: base });
        }
        let end = base + size;
        let mut map = ChunkMap::new(base, size);
        let mut cursor = base;
        for &(addr, csize, _) in chunks {
            if addr != cursor {
                return Err(RestoreError::BadTiling {
                    expected: cursor,
                    found: addr,
                });
            }
            if csize == 0 || !csize.is_multiple_of(GRANULE) {
                return Err(RestoreError::Unaligned { value: csize });
            }
            cursor = addr + csize;
            if cursor > end {
                return Err(RestoreError::BadTiling {
                    expected: end,
                    found: cursor,
                });
            }
            if cursor < end {
                map.split(addr, csize);
            }
        }
        if cursor != end {
            return Err(RestoreError::BadTiling {
                expected: end,
                found: u64::MAX,
            });
        }
        let mut bins = Bins::new();
        let mut top = None;
        let mut stats = AllocStats::default();
        for &(addr, csize, state) in chunks {
            map.set_state(addr, state);
            match state {
                ChunkState::Free => bins.insert(addr, csize),
                ChunkState::Allocated => stats.live_bytes += csize,
                ChunkState::Quarantined => stats.quarantined_bytes += csize,
                ChunkState::Top => {
                    if addr + csize != end {
                        return Err(RestoreError::MisplacedTop { addr });
                    }
                    top = Some(addr);
                }
            }
        }
        stats.note_footprint();
        map.assert_tiling();
        Ok(DlAllocator {
            chunks: map,
            bins,
            top,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x1000_0000;
    const SIZE: u64 = 1 << 20;

    fn heap() -> DlAllocator {
        DlAllocator::new(BASE, SIZE)
    }

    #[test]
    fn free_bytes_plus_live_is_heap_size() {
        let mut h = heap();
        assert_eq!(h.free_bytes(), SIZE);
        let a = h.malloc(1000).unwrap();
        assert_eq!(h.free_bytes() + h.live_bytes(), SIZE);
        h.free(a.addr).unwrap();
        assert_eq!(h.free_bytes(), SIZE);
    }

    #[test]
    fn first_allocation_comes_from_heap_base() {
        let mut h = heap();
        let b = h.malloc(64).unwrap();
        assert_eq!(b.addr, BASE);
        assert_eq!(b.size, 64);
        h.chunks().assert_tiling();
    }

    #[test]
    fn sizes_are_granule_rounded() {
        let mut h = heap();
        assert_eq!(h.malloc(1).unwrap().size, 16);
        assert_eq!(h.malloc(17).unwrap().size, 32);
        assert_eq!(h.malloc(4096).unwrap().size, 4096);
    }

    #[test]
    fn zero_size_is_rejected() {
        assert_eq!(heap().malloc(0), Err(AllocError::BadRequest { size: 0 }));
    }

    #[test]
    fn free_then_realloc_reuses_memory() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let _b = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        let c = h.malloc(64).unwrap();
        assert_eq!(c.addr, a.addr, "immediate reuse of freed chunk");
        h.chunks().assert_tiling();
    }

    #[test]
    fn double_free_is_rejected() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        assert_eq!(
            h.free(a.addr),
            Err(AllocError::InvalidFree { addr: a.addr })
        );
        // Interior pointer too.
        let b = h.malloc(64).unwrap();
        assert_eq!(
            h.free(b.addr + 16),
            Err(AllocError::InvalidFree { addr: b.addr + 16 })
        );
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(64).unwrap();
        let c = h.malloc(64).unwrap();
        let _guard = h.malloc(64).unwrap(); // keep top away
        h.free(a.addr).unwrap();
        h.free(c.addr).unwrap();
        h.free(b.addr).unwrap(); // should merge a+b+c into one 192-byte chunk
        let d = h.malloc(192).unwrap();
        assert_eq!(d.addr, a.addr);
        h.chunks().assert_tiling();
    }

    #[test]
    fn freeing_last_allocation_returns_to_top() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        // Everything back in the wilderness: a huge allocation succeeds.
        let big = h.malloc(SIZE / 2).unwrap();
        assert!(big.addr >= BASE);
        h.chunks().assert_tiling();
    }

    #[test]
    fn out_of_memory_reports_padded_size() {
        let mut h = heap();
        let err = h.malloc(SIZE * 2).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        // Fill the heap, then fail.
        let mut n = 0;
        while h.malloc(1 << 10).is_ok() {
            n += 1;
        }
        assert_eq!(n, SIZE / (1 << 10));
    }

    #[test]
    fn large_allocations_are_representably_aligned() {
        let mut h = DlAllocator::new(BASE, 1 << 24);
        let _pad = h.malloc(48).unwrap(); // misalign the wilderness
        let size = (1 << 20) + 100;
        let b = h.malloc(size).unwrap();
        let align = CompressedBounds::representable_alignment(b.size);
        assert!(align > GRANULE);
        assert_eq!(b.addr % align, 0, "base must be representably aligned");
        assert_eq!(b.size % align, 0);
        // The capability for this block has exact bounds.
        assert!(CompressedBounds::encode_exact(b.addr, b.size).is_ok());
        h.chunks().assert_tiling();
    }

    #[test]
    fn stats_track_live_and_peak() {
        let mut h = heap();
        let a = h.malloc(1000).unwrap();
        let b = h.malloc(2000).unwrap();
        assert_eq!(h.live_bytes(), a.size + b.size);
        h.free(a.addr).unwrap();
        assert_eq!(h.live_bytes(), b.size);
        let s = h.stats();
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.peak_live_bytes, a.size + b.size);
        assert_eq!(s.freed_bytes_total, a.size);
    }

    #[test]
    fn restore_rebuilds_tiling_bins_and_top() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let b = h.malloc(128).unwrap();
        let _c = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        let chunks: Vec<_> = h.chunks().iter().collect();
        let mut r = DlAllocator::restore(BASE, SIZE, &chunks).unwrap();
        r.chunks().assert_tiling();
        assert_eq!(r.live_bytes(), h.live_bytes());
        assert_eq!(r.free_bytes(), h.free_bytes());
        // The freed chunk is back in the bins: same-size malloc reuses it.
        let d = r.malloc(64).unwrap();
        assert_eq!(d.addr, a.addr);
        // The wilderness still serves large requests.
        assert!(r.malloc(SIZE / 2).is_ok());
        r.free(b.addr).unwrap();
        r.chunks().assert_tiling();
    }

    #[test]
    fn restore_without_top_chunk() {
        let mut h = heap();
        // Exhaust the wilderness completely.
        while h.malloc(1 << 10).is_ok() {}
        assert!(h.chunks().iter().all(|(_, _, s)| s != ChunkState::Top));
        let chunks: Vec<_> = h.chunks().iter().collect();
        let mut r = DlAllocator::restore(BASE, SIZE, &chunks).unwrap();
        assert!(matches!(r.malloc(16), Err(AllocError::OutOfMemory { .. })));
        r.chunks().assert_tiling();
    }

    #[test]
    fn restore_rejects_corrupt_tilings() {
        use crate::RestoreError;
        // Gap between records.
        assert!(matches!(
            DlAllocator::restore(
                BASE,
                SIZE,
                &[
                    (BASE, 64, ChunkState::Allocated),
                    (BASE + 128, SIZE - 128, ChunkState::Top),
                ]
            ),
            Err(RestoreError::BadTiling { .. })
        ));
        // Records stop short of the heap end.
        assert!(matches!(
            DlAllocator::restore(BASE, SIZE, &[(BASE, 64, ChunkState::Allocated)]),
            Err(RestoreError::BadTiling { .. })
        ));
        // Top chunk not at the end.
        assert!(matches!(
            DlAllocator::restore(
                BASE,
                SIZE,
                &[
                    (BASE, 64, ChunkState::Top),
                    (BASE + 64, SIZE - 64, ChunkState::Allocated),
                ]
            ),
            Err(RestoreError::MisplacedTop { .. })
        ));
        // Unaligned chunk size.
        assert!(matches!(
            DlAllocator::restore(
                BASE,
                SIZE,
                &[
                    (BASE, 24, ChunkState::Allocated),
                    (BASE + 24, SIZE - 24, ChunkState::Top),
                ]
            ),
            Err(RestoreError::Unaligned { .. })
        ));
    }

    #[test]
    fn churn_preserves_tiling_invariant() {
        let mut h = DlAllocator::new(BASE, 1 << 24);
        let mut live: Vec<Block> = Vec::new();
        for i in 0..2000u64 {
            if i % 3 == 2 && !live.is_empty() {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                h.free(victim.addr).unwrap();
            } else {
                let size = 16 + (i * 37) % 4000;
                live.push(h.malloc(size).unwrap());
            }
        }
        h.chunks().assert_tiling();
        let live_sum: u64 = live.iter().map(|b| b.size).sum();
        assert_eq!(h.live_bytes(), live_sum);
        for b in live {
            h.free(b.addr).unwrap();
        }
        assert_eq!(h.live_bytes(), 0);
        h.chunks().assert_tiling();
    }
}

impl DlAllocator {
    /// Resizes the allocation at `addr` to `new_size` (a conventional
    /// `realloc`): shrinks in place, grows in place when the neighbouring
    /// chunk is free or wilderness, and otherwise moves the block (the
    /// caller copies the data; this allocator only manages space).
    ///
    /// Note for temporal safety: in-place resizing is a *conventional*
    /// allocator behaviour. A CHERIvoke heap must not shrink in place —
    /// the program's capability would keep authority over the released
    /// tail — so [`crate::CherivokeAllocator`] always moves instead.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is not a live allocation;
    /// [`AllocError::BadRequest`]/[`AllocError::OutOfMemory`] as for
    /// [`DlAllocator::malloc`].
    pub fn realloc(&mut self, addr: u64, new_size: u64) -> Result<Block, AllocError> {
        if new_size == 0 || new_size > u64::MAX / 2 {
            return Err(AllocError::BadRequest { size: new_size });
        }
        let (old_size, state) = match self.chunks.get(addr) {
            Some(x) => x,
            None => return Err(AllocError::InvalidFree { addr }),
        };
        if state != ChunkState::Allocated {
            return Err(AllocError::InvalidFree { addr });
        }
        let padded = Self::granted_size(new_size);
        let align = CompressedBounds::representable_alignment(padded).max(GRANULE);
        if padded == old_size {
            return Ok(Block {
                addr,
                size: old_size,
            });
        }
        // Shrink in place (only when the current base satisfies the new
        // size's representable alignment).
        if padded < old_size && addr.is_multiple_of(align) {
            let tail = self.chunks.split(addr, padded);
            self.release(tail);
            self.stats.internal_frees -= 1; // not a user-visible free
            self.stats.live_bytes -= old_size - padded;
            return Ok(Block { addr, size: padded });
        }
        // Grow in place: absorb a free/top successor when alignment holds.
        if padded > old_size && addr.is_multiple_of(align) {
            if let Some((naddr, nsize, nstate)) = self.chunks.next_neighbour(addr) {
                let extra = padded - old_size;
                let absorbable = match nstate {
                    ChunkState::Free => nsize >= extra,
                    ChunkState::Top => nsize > extra,
                    _ => false,
                };
                if absorbable {
                    match nstate {
                        ChunkState::Free => {
                            self.bins.remove(naddr, nsize);
                            self.chunks.set_state(naddr, ChunkState::Allocated);
                            self.chunks.merge_with_next(addr);
                            if nsize > extra {
                                let rest = self.chunks.split(addr, padded);
                                self.chunks.set_state(rest, ChunkState::Free);
                                self.bins.insert(rest, nsize - extra);
                            }
                        }
                        ChunkState::Top => {
                            let new_top = self.chunks.split(naddr, extra);
                            self.chunks.set_state(naddr, ChunkState::Allocated);
                            self.chunks.merge_with_next(addr);
                            self.top = Some(new_top);
                        }
                        _ => unreachable!(),
                    }
                    self.stats.live_bytes += extra;
                    self.stats.note_footprint();
                    return Ok(Block { addr, size: padded });
                }
            }
        }
        // Move: allocate fresh, release the old block.
        let block = self.malloc(new_size)?;
        self.stats.mallocs -= 1; // realloc is one user-visible operation
        self.begin_free(addr).expect("validated above");
        self.stats.frees -= 1;
        self.release(addr);
        Ok(block)
    }
}

#[cfg(test)]
mod realloc_tests {
    use super::*;

    const BASE: u64 = 0x1000_0000;

    fn heap() -> DlAllocator {
        DlAllocator::new(BASE, 1 << 20)
    }

    #[test]
    fn realloc_same_size_is_identity() {
        let mut h = heap();
        let a = h.malloc(100).unwrap();
        let b = h.realloc(a.addr, 112).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn realloc_shrinks_in_place() {
        let mut h = heap();
        let a = h.malloc(1024).unwrap();
        let _guard = h.malloc(16).unwrap();
        let b = h.realloc(a.addr, 256).unwrap();
        assert_eq!(b.addr, a.addr);
        assert_eq!(b.size, 256);
        // Freed tail is immediately reusable.
        let c = h.malloc(768).unwrap();
        assert_eq!(c.addr, a.addr + 256);
        h.chunks().assert_tiling();
    }

    #[test]
    fn realloc_grows_into_top() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let b = h.realloc(a.addr, 4096).unwrap();
        assert_eq!(b.addr, a.addr, "adjacent wilderness absorbed");
        assert_eq!(b.size, 4096);
        h.chunks().assert_tiling();
    }

    #[test]
    fn realloc_grows_into_free_neighbour() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let b = h.malloc(512).unwrap();
        let _guard = h.malloc(16).unwrap();
        h.free(b.addr).unwrap();
        let grown = h.realloc(a.addr, 512).unwrap();
        assert_eq!(grown.addr, a.addr);
        // Remainder of b's chunk is still free.
        let c = h.malloc(256).unwrap();
        assert_eq!(c.addr, a.addr + 512);
        h.chunks().assert_tiling();
    }

    #[test]
    fn realloc_moves_when_blocked() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let _wall = h.malloc(256).unwrap();
        let b = h.realloc(a.addr, 1024).unwrap();
        assert_ne!(b.addr, a.addr);
        assert!(
            h.chunks().get(a.addr).is_none()
                || h.chunks().get(a.addr).unwrap().1 != ChunkState::Allocated
        );
        // Live accounting: one block of 1024.
        assert_eq!(h.live_bytes(), 1024 + 256);
        h.chunks().assert_tiling();
    }

    #[test]
    fn realloc_of_dead_block_fails() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        h.free(a.addr).unwrap();
        assert!(matches!(
            h.realloc(a.addr, 128),
            Err(AllocError::InvalidFree { .. })
        ));
        assert!(matches!(
            h.realloc(0x123, 128),
            Err(AllocError::InvalidFree { .. })
        ));
    }

    #[test]
    fn realloc_preserves_stats_counts() {
        let mut h = heap();
        let a = h.malloc(256).unwrap();
        let _wall = h.malloc(256).unwrap();
        h.realloc(a.addr, 2048).unwrap(); // forced move
        let s = h.stats();
        assert_eq!(s.mallocs, 2, "realloc is not an extra malloc");
        assert_eq!(s.frees, 0, "realloc is not a user free");
    }
}

impl DlAllocator {
    /// Allocates `size` bytes at an address that is a multiple of `align`
    /// (a `posix_memalign` analogue; `align` must be a power of two).
    /// The CHERI representable alignment is still applied on top, so the
    /// granted block's capability bounds remain exact.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadRequest`] for a non-power-of-two `align`; otherwise
    /// as [`DlAllocator::malloc`].
    pub fn malloc_aligned(&mut self, size: u64, align: u64) -> Result<Block, AllocError> {
        if !align.is_power_of_two() {
            return Err(AllocError::BadRequest { size: align });
        }
        if align <= GRANULE {
            return self.malloc(size);
        }
        // Over-allocate, then trim the head to the requested alignment.
        let padded = Self::granted_size(size);
        let block = self.malloc(padded + align)?;
        let aligned = block.addr.next_multiple_of(align);
        if aligned == block.addr {
            // Lucky: shrink the tail and return.
            return self.realloc(block.addr, padded.max(size));
        }
        // Split off the head pad and the tail remainder via the chunk map.
        let head = aligned - block.addr;
        let right = self.chunks.split(block.addr, head);
        debug_assert_eq!(right, aligned);
        self.release(block.addr);
        self.stats.internal_frees -= 1;
        self.stats.live_bytes -= head;
        // Trim any tail beyond the padded size.
        let (cur_size, _) = self.chunks.get(aligned).expect("aligned chunk");
        if cur_size > padded {
            let tail = self.chunks.split(aligned, padded);
            self.release(tail);
            self.stats.internal_frees -= 1;
            self.stats.live_bytes -= cur_size - padded;
        }
        Ok(Block {
            addr: aligned,
            size: padded,
        })
    }
}

#[cfg(test)]
mod aligned_tests {
    use super::*;

    #[test]
    fn aligned_allocations_are_aligned_and_live() {
        let mut h = DlAllocator::new(0x1000_0000, 1 << 20);
        let _skew = h.malloc(48).unwrap(); // misalign the wilderness
        for align in [32u64, 256, 4096] {
            let b = h.malloc_aligned(100, align).unwrap();
            assert_eq!(b.addr % align, 0, "align {align}");
            assert_eq!(b.size, 112);
            h.chunks().assert_tiling();
        }
        // Accounting: three 112-byte blocks + the skew block live.
        assert_eq!(h.live_bytes(), 48 + 3 * 112);
        // All reusable space still reachable.
        assert_eq!(h.free_bytes() + h.live_bytes(), 1 << 20);
    }

    #[test]
    fn bad_alignment_is_rejected() {
        let mut h = DlAllocator::new(0x1000_0000, 1 << 20);
        assert!(matches!(
            h.malloc_aligned(64, 48),
            Err(AllocError::BadRequest { .. })
        ));
        // Granule-or-smaller alignments are the normal path.
        assert!(h.malloc_aligned(64, 16).is_ok());
        assert!(h.malloc_aligned(64, 1).is_ok());
    }

    #[test]
    fn aligned_blocks_free_normally() {
        let mut h = DlAllocator::new(0x1000_0000, 1 << 20);
        let _skew = h.malloc(16).unwrap();
        let b = h.malloc_aligned(1000, 512).unwrap();
        h.free(b.addr).unwrap();
        h.chunks().assert_tiling();
        assert_eq!(h.live_bytes(), 16);
    }
}
