//! A contiguous segment of tagged memory.

use cheri::{CapWord, Capability, CAP_SIZE};

use crate::{MemError, GRANULE_SIZE, LINE_SIZE};

/// A contiguous, byte-addressable region of memory with one out-of-band tag
/// bit per 16-byte granule.
///
/// Invariants maintained:
///
/// * Any **data** write (of any width) clears the tags of every granule it
///   touches — data can never masquerade as a capability.
/// * Tags can only be set by [`TaggedMemory::write_cap`] with a tagged
///   source capability.
/// * Tag bits beyond the segment's final granule are always zero (sweep
///   kernels rely on this to process the bitmap in whole `u64` words).
///
/// # Examples
///
/// ```
/// use tagmem::TaggedMemory;
/// use cheri::Capability;
///
/// # fn main() -> Result<(), tagmem::MemError> {
/// let mut mem = TaggedMemory::new(0x4000, 4096);
/// let cap = Capability::root_rw(0x4000, 64);
/// mem.write_cap(0x4010, &cap)?;
/// assert!(mem.tag_at(0x4010));
/// assert_eq!(mem.read_cap(0x4010)?.base(), 0x4000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedMemory {
    base: u64,
    data: Vec<u8>,
    /// One bit per granule, little-endian within each u64.
    tags: Vec<u64>,
}

impl AsMut<TaggedMemory> for TaggedMemory {
    fn as_mut(&mut self) -> &mut TaggedMemory {
        self
    }
}

impl TaggedMemory {
    /// Creates a zeroed segment covering `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `len` is not 16-byte aligned, or `base + len`
    /// overflows.
    pub fn new(base: u64, len: u64) -> TaggedMemory {
        assert_eq!(
            base % GRANULE_SIZE,
            0,
            "segment base must be granule-aligned"
        );
        assert_eq!(
            len % GRANULE_SIZE,
            0,
            "segment length must be granule-aligned"
        );
        base.checked_add(len)
            .expect("segment end overflows the address space");
        let granules = (len / GRANULE_SIZE) as usize;
        TaggedMemory {
            base,
            data: vec![0; len as usize],
            tags: vec![0; granules.div_ceil(64)],
        }
    }

    /// First mapped address.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last mapped address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` if the segment is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of tag granules.
    #[inline]
    pub fn granules(&self) -> u64 {
        self.len() / GRANULE_SIZE
    }

    /// `true` if `[addr, addr + len)` lies within this segment.
    #[inline]
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr as u128 + len as u128 <= self.end() as u128
    }

    #[inline]
    fn offset_of(&self, addr: u64, len: u64) -> Result<usize, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    #[inline]
    fn granule_index(&self, addr: u64) -> usize {
        ((addr - self.base) / GRANULE_SIZE) as usize
    }

    // --- Data access ------------------------------------------------------

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the segment.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let off = self.offset_of(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `addr` as **data**, clearing every covered tag.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the segment.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let off = self.offset_of(addr, buf.len() as u64)?;
        self.data[off..off + buf.len()].copy_from_slice(buf);
        self.clear_tags_covering(addr, buf.len() as u64);
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr` (no alignment requirement).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the segment.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let off = self.offset_of(addr, 8)?;
        Ok(u64::from_le_bytes(
            self.data[off..off + 8].try_into().expect("8-byte slice"),
        ))
    }

    /// Writes a little-endian `u64` at `addr` as data (clears covered tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the segment.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Fills `[addr, addr+len)` with `byte` as data (clears covered tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the segment.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) -> Result<(), MemError> {
        let off = self.offset_of(addr, len)?;
        self.data[off..off + len as usize].fill(byte);
        self.clear_tags_covering(addr, len);
        Ok(())
    }

    // --- Capability access --------------------------------------------------

    /// Reads the capability word (and its tag) at 16-byte-aligned `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] for unaligned addresses,
    /// [`MemError::OutOfRange`] if outside the segment.
    pub fn read_cap(&self, addr: u64) -> Result<Capability, MemError> {
        let (word, tag) = self.read_cap_word(addr)?;
        Ok(word.decode(tag))
    }

    /// Reads the raw 128-bit word and tag at 16-byte-aligned `addr`.
    ///
    /// # Errors
    ///
    /// As [`TaggedMemory::read_cap`].
    pub fn read_cap_word(&self, addr: u64) -> Result<(CapWord, bool), MemError> {
        if !addr.is_multiple_of(CAP_SIZE) {
            return Err(MemError::Misaligned { addr });
        }
        let off = self.offset_of(addr, CAP_SIZE)?;
        let word = CapWord::try_from_le_bytes(&self.data[off..off + 16])
            .expect("16-byte slice always converts");
        Ok((word, self.tag_at(addr)))
    }

    /// Stores a capability at 16-byte-aligned `addr`, setting the granule's
    /// tag iff `cap` is tagged.
    ///
    /// # Errors
    ///
    /// As [`TaggedMemory::read_cap`].
    pub fn write_cap(&mut self, addr: u64, cap: &Capability) -> Result<(), MemError> {
        self.write_cap_word(addr, CapWord::encode(cap), cap.tag())
    }

    /// Stores a raw capability word and tag at 16-byte-aligned `addr`.
    ///
    /// # Errors
    ///
    /// As [`TaggedMemory::read_cap`].
    pub fn write_cap_word(&mut self, addr: u64, word: CapWord, tag: bool) -> Result<(), MemError> {
        if !addr.is_multiple_of(CAP_SIZE) {
            return Err(MemError::Misaligned { addr });
        }
        let off = self.offset_of(addr, CAP_SIZE)?;
        self.data[off..off + 16].copy_from_slice(&word.to_le_bytes());
        self.set_tag(addr, tag);
        Ok(())
    }

    // --- Tag access -------------------------------------------------------

    /// The tag bit covering `addr`'s granule.
    #[inline]
    pub fn tag_at(&self, addr: u64) -> bool {
        let g = self.granule_index(addr);
        self.tags[g / 64] >> (g % 64) & 1 == 1
    }

    #[inline]
    fn set_tag(&mut self, addr: u64, tag: bool) {
        let g = self.granule_index(addr);
        if tag {
            self.tags[g / 64] |= 1 << (g % 64);
        } else {
            self.tags[g / 64] &= !(1 << (g % 64));
        }
    }

    /// Clears the tag covering `addr` **without touching the data** — this
    /// is exactly what a revocation sweep does to a dangling capability when
    /// it does not also zero the word.
    #[inline]
    pub fn clear_tag_at(&mut self, addr: u64) {
        self.set_tag(addr, false);
    }

    fn clear_tags_covering(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = self.granule_index(addr);
        let last = self.granule_index(addr + len - 1);
        for g in first..=last {
            self.tags[g / 64] &= !(1 << (g % 64));
        }
    }

    /// `CLoadTags`: the tag bits of the [`LINE_SIZE`]-byte line containing
    /// `addr`, as a mask with bit *i* covering granule *i* of the line. A
    /// zero result means the whole line can be skipped by a sweep.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the line is not fully inside the segment.
    pub fn load_tags(&self, addr: u64) -> Result<u8, MemError> {
        let line = addr & !(LINE_SIZE - 1);
        if !self.contains(line, LINE_SIZE) {
            return Err(MemError::OutOfRange {
                addr: line,
                len: LINE_SIZE,
            });
        }
        let first = self.granule_index(line);
        let mut mask = 0u8;
        for i in 0..(LINE_SIZE / GRANULE_SIZE) as usize {
            let g = first + i;
            if self.tags[g / 64] >> (g % 64) & 1 == 1 {
                mask |= 1 << i;
            }
        }
        Ok(mask)
    }

    /// Total number of set tag bits.
    pub fn tag_count(&self) -> u64 {
        self.tags.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of set tag bits covering `[addr, addr + len)`.
    ///
    /// Word-at-a-time popcount with masked edges, so chunk planners can
    /// weight sweep work (tagged granules force capability decodes) without
    /// walking individual granules.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the segment or not granule-aligned.
    pub fn count_tags_in(&self, addr: u64, len: u64) -> u64 {
        assert!(self.contains(addr, len), "range outside segment");
        assert_eq!(
            addr % GRANULE_SIZE,
            0,
            "range start must be granule-aligned"
        );
        assert_eq!(
            len % GRANULE_SIZE,
            0,
            "range length must be granule-aligned"
        );
        if len == 0 {
            return 0;
        }
        let g0 = self.granule_index(addr);
        let g1 = g0 + (len / GRANULE_SIZE) as usize; // exclusive
        let (w0, w1) = (g0 / 64, (g1 - 1) / 64);
        let lo_mask = !0u64 << (g0 % 64);
        let hi_mask = !0u64 >> (63 - (g1 - 1) % 64);
        if w0 == w1 {
            return (self.tags[w0] & lo_mask & hi_mask).count_ones() as u64;
        }
        let mut n = (self.tags[w0] & lo_mask).count_ones() as u64;
        for &w in &self.tags[w0 + 1..w1] {
            n += w.count_ones() as u64;
        }
        n + (self.tags[w1] & hi_mask).count_ones() as u64
    }

    /// Iterates over the addresses of all tagged granules.
    pub fn tagged_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = self.base;
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                Some(base + (wi as u64 * 64 + b) * GRANULE_SIZE)
            })
        })
    }

    /// The tag **leaf word** covering `addr`'s 64-granule group (1 KiB of
    /// data): bit `i` covers granule `group_start + i`. Word-at-a-time
    /// sweep kernels fetch this once per window instead of probing 64
    /// individual tag bits.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `addr` is outside the segment.
    #[inline]
    pub fn tag_word(&self, addr: u64) -> u64 {
        self.tags[self.granule_index(addr) / 64]
    }

    /// Iterates over the non-zero tag leaf words as `(group_start_addr,
    /// word)` pairs — the capability-bearing 1 KiB windows of the segment,
    /// in address order. Zero words (capability-free windows) are skipped
    /// without per-granule work, which is the whole point of the word
    /// layout.
    pub fn iter_nonzero_tag_words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let base = self.base;
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(move |(wi, &w)| (base + wi as u64 * 64 * GRANULE_SIZE, w))
    }

    // --- Raw views for sweep kernels ----------------------------------------

    /// The raw data bytes (read-only).
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The raw tag bitmap: bit `i` of word `i / 64` covers granule `i`.
    #[inline]
    pub fn tag_bitmap(&self) -> &[u64] {
        &self.tags
    }

    /// Simultaneous mutable views of data and tag bitmap for high-performance
    /// sweep kernels.
    ///
    /// Callers must preserve the crate invariant: only clear tags (never
    /// set), and only zero/rewrite data of granules whose tags they clear.
    #[inline]
    pub fn as_parts_mut(&mut self) -> (&mut [u8], &mut [u64]) {
        (&mut self.data, &mut self.tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Perms;

    fn mem() -> TaggedMemory {
        TaggedMemory::new(0x4000, 4096)
    }

    fn cap() -> Capability {
        Capability::root_rw(0x4000, 256)
    }

    #[test]
    fn fresh_memory_is_zero_and_untagged() {
        let m = mem();
        assert_eq!(m.read_u64(0x4000).unwrap(), 0);
        assert_eq!(m.tag_count(), 0);
        assert!(!m.tag_at(0x4000));
        assert_eq!(m.len(), 4096);
        assert_eq!(m.granules(), 256);
    }

    #[test]
    fn cap_store_sets_tag_and_roundtrips() {
        let mut m = mem();
        m.write_cap(0x4020, &cap()).unwrap();
        assert!(m.tag_at(0x4020));
        assert_eq!(m.tag_count(), 1);
        let c = m.read_cap(0x4020).unwrap();
        assert!(c.tag());
        assert_eq!(c.base(), 0x4000);
        assert_eq!(c.length(), 256);
        assert!(c.perms().contains(Perms::RW_DATA));
    }

    #[test]
    fn data_write_clears_tag() {
        let mut m = mem();
        m.write_cap(0x4020, &cap()).unwrap();
        // Even a one-byte data write anywhere in the granule kills the tag.
        m.write_bytes(0x402f, &[0xff]).unwrap();
        assert!(!m.tag_at(0x4020));
        let c = m.read_cap(0x4020).unwrap();
        assert!(!c.tag());
        // The data itself is otherwise intact apart from the poked byte.
        assert_eq!(m.data()[0x2f], 0xff);
    }

    #[test]
    fn wide_data_write_clears_all_covered_tags() {
        let mut m = mem();
        m.write_cap(0x4020, &cap()).unwrap();
        m.write_cap(0x4030, &cap()).unwrap();
        m.write_cap(0x4040, &cap()).unwrap();
        m.fill(0x4028, 0x20, 0).unwrap(); // touches granules at 0x4020,0x4030,0x4040
        assert!(!m.tag_at(0x4020));
        assert!(!m.tag_at(0x4030));
        assert!(!m.tag_at(0x4040));
    }

    #[test]
    fn untagged_cap_store_keeps_tag_clear() {
        let mut m = mem();
        m.write_cap(0x4020, &cap()).unwrap();
        m.write_cap(0x4020, &cap().cleared()).unwrap();
        assert!(!m.tag_at(0x4020));
    }

    #[test]
    fn count_tags_in_matches_per_granule_probes() {
        let mut m = TaggedMemory::new(0x4000, 64 * 1024);
        // Tags scattered across several leaf words, including word edges.
        for off in [0x0, 0x10, 0x3f0, 0x400, 0x7f0, 0x1000, 0x20f0, 0xfff0] {
            m.write_cap(0x4000 + off, &Capability::root_rw(0x4000, 64))
                .unwrap();
        }
        for (start, len) in [
            (0x4000, 64 * 1024),
            (0x4000, 0),
            (0x4000, 16),
            (0x4010, 0x3f0),
            (0x4400, 0x400),
            (0x43f0, 0x20),
            (0x5000, 0x2000),
        ] {
            let expect = (0..len / GRANULE_SIZE)
                .filter(|&g| m.tag_at(start + g * GRANULE_SIZE))
                .count() as u64;
            assert_eq!(m.count_tags_in(start, len), expect, "[{start:#x};{len:#x})");
        }
        assert_eq!(m.count_tags_in(0x4000, 64 * 1024), m.tag_count());
    }

    #[test]
    fn misaligned_cap_access_fails() {
        let mut m = mem();
        assert_eq!(
            m.read_cap(0x4001).unwrap_err(),
            MemError::Misaligned { addr: 0x4001 }
        );
        assert_eq!(
            m.write_cap(0x4008, &cap()).unwrap_err(),
            MemError::Misaligned { addr: 0x4008 }
        );
    }

    #[test]
    fn out_of_range_accesses_fail() {
        let mut m = mem();
        assert!(m.read_u64(0x4000 + 4096).is_err());
        assert!(m.read_u64(0x4000 + 4089).is_err()); // 8 bytes would spill
        assert!(m.write_bytes(0x3fff, &[0]).is_err());
        assert!(matches!(
            m.read_cap(0x2000),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn clear_tag_preserves_data() {
        let mut m = mem();
        m.write_cap(0x4020, &cap()).unwrap();
        let (word_before, _) = m.read_cap_word(0x4020).unwrap();
        m.clear_tag_at(0x4020);
        let (word_after, tag) = m.read_cap_word(0x4020).unwrap();
        assert_eq!(word_before, word_after);
        assert!(!tag);
    }

    #[test]
    fn load_tags_reports_line_mask() {
        let mut m = mem();
        // Line at 0x4000 covers granules 0x4000..0x4080.
        m.write_cap(0x4000, &cap()).unwrap();
        m.write_cap(0x4070, &cap()).unwrap();
        let mask = m.load_tags(0x4000).unwrap();
        assert_eq!(mask, 0b1000_0001);
        // Any address within the line gives the same answer.
        assert_eq!(m.load_tags(0x407f).unwrap(), mask);
        // An empty line reports zero — sweep can skip it.
        assert_eq!(m.load_tags(0x4080).unwrap(), 0);
    }

    #[test]
    fn tagged_addrs_iterates_in_order() {
        let mut m = mem();
        for addr in [0x4000u64, 0x4050, 0x4ff0] {
            m.write_cap(addr, &cap()).unwrap();
        }
        let addrs: Vec<u64> = m.tagged_addrs().collect();
        assert_eq!(addrs, vec![0x4000, 0x4050, 0x4ff0]);
    }

    #[test]
    fn tag_words_expose_the_leaf_layout() {
        let mut m = TaggedMemory::new(0x4000, 4096); // 256 granules, 4 words
        m.write_cap(0x4000, &cap()).unwrap(); // granule 0, word 0
        m.write_cap(0x4ff0, &cap()).unwrap(); // granule 255, word 3
        assert_eq!(m.tag_word(0x4000), 1);
        assert_eq!(m.tag_word(0x43ff), 1); // anywhere in the 1 KiB window
        assert_eq!(m.tag_word(0x4400), 0);
        assert_eq!(m.tag_word(0x4ff0), 1 << 63);
        let words: Vec<(u64, u64)> = m.iter_nonzero_tag_words().collect();
        assert_eq!(words, vec![(0x4000, 1), (0x4c00, 1 << 63)]);
        // The iterator agrees with the bit-at-a-time view.
        let from_words: u64 = words.iter().map(|(_, w)| w.count_ones() as u64).sum();
        assert_eq!(from_words, m.tag_count());
    }

    #[test]
    #[should_panic(expected = "granule-aligned")]
    fn unaligned_base_panics() {
        let _ = TaggedMemory::new(0x4001, 4096);
    }

    #[test]
    fn contains_checks_both_ends() {
        let m = mem();
        assert!(m.contains(0x4000, 4096));
        assert!(!m.contains(0x4000, 4097));
        assert!(!m.contains(0x3fff, 1));
        assert!(m.contains(0x4fff, 1));
    }
}
