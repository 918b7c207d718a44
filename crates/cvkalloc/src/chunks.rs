//! The chunk map: every byte of the heap is covered by exactly one chunk.

use std::collections::BTreeMap;

/// Lifecycle state of a heap chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkState {
    /// On a free list, available for allocation.
    Free,
    /// Handed out to the program.
    Allocated,
    /// Freed by the program but detained until the next revocation sweep
    /// (paper §3.1).
    Quarantined,
    /// The wilderness chunk at the end of the heap (grows allocations that
    /// no free chunk fits).
    Top,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Chunk {
    pub size: u64,
    pub state: ChunkState,
}

/// The outcome of [`ChunkMap::coalesce_free`]: the merged chunk and the
/// free neighbours it absorbed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Coalesced {
    /// Start of the merged chunk.
    pub addr: u64,
    /// Size of the merged chunk.
    pub size: u64,
    /// [`ChunkState::Top`] if it absorbed the wilderness, else
    /// [`ChunkState::Free`].
    pub state: ChunkState,
    /// The absorbed free predecessor, `(addr, size)`.
    pub prev: Option<(u64, u64)>,
    /// The absorbed free (not top) successor, `(addr, size)`.
    pub next: Option<(u64, u64)>,
}

/// An ordered map from chunk start address to chunk, maintaining the
/// *tiling invariant*: chunks are disjoint, contiguous, and cover the whole
/// heap. This plays the role of dlmalloc's boundary tags — it gives O(log n)
/// access to both neighbours of any chunk, which is what coalescing and
/// quarantine aggregation (paper §5.2) need.
///
/// Metadata is out-of-band (see crate docs), so user writes can never
/// corrupt it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMap {
    base: u64,
    size: u64,
    chunks: BTreeMap<u64, Chunk>,
}

impl ChunkMap {
    /// Creates a map whose whole range is one [`ChunkState::Top`] chunk.
    pub fn new(base: u64, size: u64) -> ChunkMap {
        let mut chunks = BTreeMap::new();
        chunks.insert(
            base,
            Chunk {
                size,
                state: ChunkState::Top,
            },
        );
        ChunkMap { base, size, chunks }
    }

    /// Heap base address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Heap size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` if the map is empty (zero-sized heap).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The state and size of the chunk starting at exactly `addr`.
    pub fn get(&self, addr: u64) -> Option<(u64, ChunkState)> {
        self.chunks.get(&addr).map(|c| (c.size, c.state))
    }

    /// The chunk containing `addr`: `(start, size, state)`.
    pub fn containing(&self, addr: u64) -> Option<(u64, u64, ChunkState)> {
        let (&start, c) = self.chunks.range(..=addr).next_back()?;
        if addr < start + c.size {
            Some((start, c.size, c.state))
        } else {
            None
        }
    }

    pub(crate) fn set_state(&mut self, addr: u64, state: ChunkState) {
        self.chunks.get_mut(&addr).expect("chunk exists").state = state;
    }

    /// Splits the chunk at `addr` into `[addr, addr+left_size)` and the
    /// remainder, both keeping the original state. Returns the remainder's
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if there is no chunk at `addr` or `left_size` is not smaller
    /// than the chunk (callers check first — internal API).
    pub(crate) fn split(&mut self, addr: u64, left_size: u64) -> u64 {
        let chunk = *self.chunks.get(&addr).expect("chunk exists");
        assert!(left_size > 0 && left_size < chunk.size, "bad split");
        self.chunks.insert(
            addr,
            Chunk {
                size: left_size,
                state: chunk.state,
            },
        );
        let right = addr + left_size;
        self.chunks.insert(
            right,
            Chunk {
                size: chunk.size - left_size,
                state: chunk.state,
            },
        );
        right
    }

    /// Merges the chunk at `addr` with its immediate successor (which must
    /// share its state). Returns the merged size.
    pub(crate) fn merge_with_next(&mut self, addr: u64) -> u64 {
        let size = self.chunks.get(&addr).expect("chunk exists").size;
        let next_addr = addr + size;
        let next = self.chunks.remove(&next_addr).expect("successor exists");
        let me = self.chunks.get_mut(&addr).expect("chunk exists");
        assert_eq!(me.state, next.state, "merging chunks in different states");
        me.size += next.size;
        me.size
    }

    /// Frees the chunk at `addr` (in any non-free state) in the map,
    /// absorbing a [`ChunkState::Free`] predecessor and a
    /// [`ChunkState::Free`] or [`ChunkState::Top`] successor. The three
    /// chunks are read with one backward and one forward range lookup and
    /// the merged chunk is written once; the caller moves the absorbed
    /// neighbours out of its free bins.
    pub(crate) fn coalesce_free(&mut self, addr: u64) -> Coalesced {
        let prev = self
            .chunks
            .range(..addr)
            .next_back()
            .filter(|&(&p, c)| p + c.size == addr && c.state == ChunkState::Free)
            .map(|(&p, c)| (p, c.size));
        let mut at = self.chunks.range(addr..);
        let (_, me) = at
            .next()
            .filter(|&(&a, _)| a == addr)
            .expect("chunk exists");
        debug_assert_ne!(me.state, ChunkState::Free, "releasing a free chunk");
        let size = me.size;
        let next = at
            .next()
            .filter(|&(&n, c)| {
                n == addr + size && matches!(c.state, ChunkState::Free | ChunkState::Top)
            })
            .map(|(&n, c)| (n, c.size, c.state));

        let mut merged = Coalesced {
            addr,
            size,
            state: ChunkState::Free,
            prev,
            next: None,
        };
        if let Some((paddr, psize)) = prev {
            self.chunks.remove(&addr);
            merged.addr = paddr;
            merged.size += psize;
        }
        if let Some((naddr, nsize, nstate)) = next {
            self.chunks.remove(&naddr);
            merged.size += nsize;
            if nstate == ChunkState::Top {
                merged.state = ChunkState::Top;
            } else {
                merged.next = Some((naddr, nsize));
            }
        }
        self.chunks.insert(
            merged.addr,
            Chunk {
                size: merged.size,
                state: merged.state,
            },
        );
        merged
    }

    /// The chunk immediately before `addr`, if contiguous: `(start, size,
    /// state)`.
    pub fn prev_neighbour(&self, addr: u64) -> Option<(u64, u64, ChunkState)> {
        let (&start, c) = self.chunks.range(..addr).next_back()?;
        (start + c.size == addr).then_some((start, c.size, c.state))
    }

    /// The chunk immediately after the chunk at `addr`: `(start, size,
    /// state)`.
    pub fn next_neighbour(&self, addr: u64) -> Option<(u64, u64, ChunkState)> {
        let size = self.chunks.get(&addr)?.size;
        let next = addr + size;
        self.chunks.get(&next).map(|c| (next, c.size, c.state))
    }

    /// Iterates `(addr, size, state)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, ChunkState)> + '_ {
        self.chunks.iter().map(|(&a, c)| (a, c.size, c.state))
    }

    /// Total bytes in chunks of the given state.
    pub fn bytes_in_state(&self, state: ChunkState) -> u64 {
        self.chunks
            .values()
            .filter(|c| c.state == state)
            .map(|c| c.size)
            .sum()
    }

    /// Verifies the tiling invariant; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if chunks do not exactly tile `[base, base + size)`.
    pub fn assert_tiling(&self) {
        let mut cursor = self.base;
        for (&addr, c) in &self.chunks {
            assert_eq!(addr, cursor, "gap or overlap at {cursor:#x}");
            assert!(c.size > 0, "zero-sized chunk at {addr:#x}");
            cursor = addr + c.size;
        }
        assert_eq!(
            cursor,
            self.base + self.size,
            "chunks do not reach heap end"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ChunkMap {
        ChunkMap::new(0x1000, 0x1000)
    }

    #[test]
    fn starts_as_single_top() {
        let m = map();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0x1000), Some((0x1000, ChunkState::Top)));
        m.assert_tiling();
    }

    #[test]
    fn split_preserves_tiling() {
        let mut m = map();
        let right = m.split(0x1000, 0x100);
        assert_eq!(right, 0x1100);
        assert_eq!(m.get(0x1000), Some((0x100, ChunkState::Top)));
        assert_eq!(m.get(0x1100), Some((0xf00, ChunkState::Top)));
        m.assert_tiling();
    }

    #[test]
    fn merge_restores_single_chunk() {
        let mut m = map();
        m.split(0x1000, 0x100);
        let merged = m.merge_with_next(0x1000);
        assert_eq!(merged, 0x1000u64);
        assert_eq!(m.len(), 1);
        m.assert_tiling();
    }

    #[test]
    fn containing_finds_interior_addresses() {
        let mut m = map();
        m.split(0x1000, 0x100);
        assert_eq!(m.containing(0x10ff), Some((0x1000, 0x100, ChunkState::Top)));
        assert_eq!(m.containing(0x1100), Some((0x1100, 0xf00, ChunkState::Top)));
        assert_eq!(m.containing(0x0fff), None);
        assert_eq!(m.containing(0x2000), None);
    }

    #[test]
    fn neighbours() {
        let mut m = map();
        let b = m.split(0x1000, 0x100);
        let c = m.split(b, 0x200);
        assert_eq!(m.prev_neighbour(b), Some((0x1000, 0x100, ChunkState::Top)));
        assert_eq!(m.next_neighbour(b), Some((c, 0xd00, ChunkState::Top)));
        assert_eq!(m.prev_neighbour(0x1000), None);
        assert_eq!(m.next_neighbour(c), None);
    }

    #[test]
    fn coalesce_free_absorbs_free_neighbours_and_top() {
        let mut m = map();
        let b = m.split(0x1000, 0x100);
        let c = m.split(b, 0x100);
        let d = m.split(c, 0x100);
        let e = m.split(d, 0x100);
        m.set_state(0x1000, ChunkState::Free);
        m.set_state(b, ChunkState::Quarantined);
        m.set_state(c, ChunkState::Free);
        m.set_state(d, ChunkState::Allocated);
        // b: free on both sides.
        let merged = m.coalesce_free(b);
        assert_eq!(
            merged,
            Coalesced {
                addr: 0x1000,
                size: 0x300,
                state: ChunkState::Free,
                prev: Some((0x1000, 0x100)),
                next: Some((c, 0x100)),
            }
        );
        assert_eq!(m.get(0x1000), Some((0x300, ChunkState::Free)));
        m.assert_tiling();
        // d: free predecessor, top successor — folds into the wilderness.
        let merged = m.coalesce_free(d);
        assert_eq!(merged.addr, 0x1000);
        assert_eq!(merged.state, ChunkState::Top);
        assert_eq!(merged.prev, Some((0x1000, 0x300)));
        assert_eq!(merged.next, None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0x1000), Some((0x1000, ChunkState::Top)));
        assert_eq!(m.get(e), None);
        m.assert_tiling();
    }

    #[test]
    fn bytes_in_state_sums() {
        let mut m = map();
        let b = m.split(0x1000, 0x100);
        m.set_state(0x1000, ChunkState::Allocated);
        m.set_state(b, ChunkState::Top);
        assert_eq!(m.bytes_in_state(ChunkState::Allocated), 0x100);
        assert_eq!(m.bytes_in_state(ChunkState::Top), 0xf00);
        assert_eq!(m.bytes_in_state(ChunkState::Quarantined), 0);
    }

    #[test]
    #[should_panic(expected = "different states")]
    fn merging_mixed_states_panics() {
        let mut m = map();
        let b = m.split(0x1000, 0x100);
        m.set_state(b, ChunkState::Free);
        m.merge_with_next(0x1000);
    }
}
