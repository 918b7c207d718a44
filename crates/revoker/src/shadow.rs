//! The revocation shadow map (paper §3.2).

use tagmem::GRANULE_SIZE;

/// Granules covered by one shadow word (1 KiB of heap). One bit of the
/// hierarchical summary covers one such word; a whole summary word covers
/// 64 × 64 granules = 4 MiB of heap.
const WORD_GRANULES: u64 = 64;

/// One bit per 16-byte allocation granule: set means "references to this
/// granule are to be revoked in the next sweep".
///
/// The map covers the heap only, at a fixed transform from the heap base
/// (§5.2 maps the shadow at a fixed offset from each allocation so lookup
/// is a shift and an add). It occupies 1/128 of the heap — "less than 1% of
/// the heap" (§3.2).
///
/// Painting and clearing are optimised like the paper's wide stores: a
/// range touches each 64-bit shadow word it overlaps with one masked
/// read-modify-write, a whole-word mask in the body and a partial one at
/// each ragged end, so a range costs O(words), never O(granules).
///
/// # Examples
///
/// ```
/// use revoker::ShadowMap;
///
/// let mut shadow = ShadowMap::new(0x1000_0000, 1 << 20);
/// shadow.paint(0x1000_0040, 64);
/// assert!(shadow.is_painted(0x1000_0040));
/// assert!(shadow.is_painted(0x1000_0070));
/// assert!(!shadow.is_painted(0x1000_0080));
/// assert_eq!(shadow.painted_bytes(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowMap {
    heap_base: u64,
    granules: u64,
    bits: Vec<u64>,
    /// Hierarchical summary: bit `i` is set iff `bits[i] != 0`. One
    /// summary word covers 64 shadow words = 4 MiB of heap, so a sweep of
    /// a mostly-clean heap falls through in O(heap / 4 MiB) compares.
    summary: Vec<u64>,
    painted_granules: u64,
}

impl ShadowMap {
    /// Creates an all-clear shadow map covering `[heap_base, heap_base +
    /// heap_len)`.
    ///
    /// # Panics
    ///
    /// Panics unless base and length are 16-byte aligned.
    pub fn new(heap_base: u64, heap_len: u64) -> ShadowMap {
        assert_eq!(
            heap_base % GRANULE_SIZE,
            0,
            "heap base must be granule-aligned"
        );
        assert_eq!(
            heap_len % GRANULE_SIZE,
            0,
            "heap length must be granule-aligned"
        );
        let granules = heap_len / GRANULE_SIZE;
        let words = (granules as usize).div_ceil(64);
        ShadowMap {
            heap_base,
            granules,
            bits: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            painted_granules: 0,
        }
    }

    /// The heap base this map shadows.
    #[inline]
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Bytes of heap covered.
    #[inline]
    pub fn covered_bytes(&self) -> u64 {
        self.granules * GRANULE_SIZE
    }

    /// Size of the shadow map itself in bytes (1/128 of the heap).
    pub fn shadow_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    #[inline]
    fn granule_of(&self, addr: u64) -> Option<u64> {
        if addr < self.heap_base {
            return None;
        }
        let g = (addr - self.heap_base) / GRANULE_SIZE;
        (g < self.granules).then_some(g)
    }

    /// Paints `[addr, addr + len)` for revocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is not granule-aligned or leaves the heap — the
    /// allocator only ever paints whole quarantined chunks, so anything
    /// else is a bookkeeping bug.
    pub fn paint(&mut self, addr: u64, len: u64) {
        self.run(addr, len, true);
    }

    /// Clears `[addr, addr + len)` after the sweep (quarantine drain).
    ///
    /// # Panics
    ///
    /// As [`ShadowMap::paint`].
    pub fn clear(&mut self, addr: u64, len: u64) {
        self.run(addr, len, false);
    }

    /// Paints one bit at a time, without the wide-store fast path — the
    /// un-optimised painting loop, kept for the ablation study of the
    /// §5.2 optimisation ("byte, half-word, word, and double-word store
    /// instructions when possible, rather than setting individual bits").
    ///
    /// # Panics
    ///
    /// As [`ShadowMap::paint`].
    pub fn paint_bitwise(&mut self, addr: u64, len: u64) {
        assert_eq!(addr % GRANULE_SIZE, 0, "unaligned shadow paint");
        assert_eq!(len % GRANULE_SIZE, 0, "unaligned shadow paint length");
        if len == 0 {
            return;
        }
        let first = self.granule_of(addr).expect("paint outside shadowed heap");
        let last = self
            .granule_of(addr + len - GRANULE_SIZE)
            .expect("paint runs past shadowed heap");
        for g in first..=last {
            self.put(g);
        }
    }

    fn run(&mut self, addr: u64, len: u64, set: bool) {
        assert_eq!(addr % GRANULE_SIZE, 0, "unaligned shadow paint");
        assert_eq!(len % GRANULE_SIZE, 0, "unaligned shadow paint length");
        if len == 0 {
            return;
        }
        let first = self.granule_of(addr).expect("paint outside shadowed heap");
        let last = self
            .granule_of(addr + len - GRANULE_SIZE)
            .expect("paint runs past shadowed heap");

        // One masked read-modify-write per shadow word: the ragged ends
        // take a partial mask, the body whole words (the paper's
        // wide-store optimisation, §5.2).
        let (w_first, w_last) = ((first / 64) as usize, (last / 64) as usize);
        let head = u64::MAX << (first % 64);
        let tail = u64::MAX >> (63 - last % 64);
        if w_first == w_last {
            self.put_word(w_first, head & tail, set);
            return;
        }
        self.put_word(w_first, head, set);
        for w in w_first + 1..w_last {
            self.put_word(w, u64::MAX, set);
        }
        self.put_word(w_last, tail, set);
    }

    /// Sets (or clears) the granules `mask` selects in shadow word `w`,
    /// keeping `painted_granules` and the summary bit in step.
    #[inline]
    fn put_word(&mut self, w: usize, mask: u64, set: bool) {
        let old = self.bits[w];
        if set {
            // Under the strict paint/clear contract (each granule is
            // painted exactly once per quarantine generation) the masked
            // granules are all clean; anything else means
            // `painted_granules` was about to drift.
            debug_assert_eq!(
                old & mask,
                0,
                "repainting already-painted granules in word {w}"
            );
            self.painted_granules += u64::from((mask & !old).count_ones());
            self.bits[w] = old | mask;
            self.summary[w / 64] |= 1 << (w % 64);
        } else {
            debug_assert_eq!(
                old & mask,
                mask,
                "clearing already-clean granules in word {w}"
            );
            self.painted_granules -= u64::from((old & mask).count_ones());
            let new = old & !mask;
            self.bits[w] = new;
            if new == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        }
    }

    /// Paints the single granule `g`: the bit-at-a-time loop of
    /// [`ShadowMap::paint_bitwise`].
    #[inline]
    fn put(&mut self, g: u64) {
        let w = (g / 64) as usize;
        let mask = 1u64 << (g % 64);
        let was = self.bits[w] & mask != 0;
        debug_assert!(!was, "repainting already-painted granule {g}");
        if !was {
            self.bits[w] |= mask;
            self.summary[w / 64] |= 1 << (w % 64);
            self.painted_granules += 1;
        }
    }

    /// The sweep's hot lookup: is the granule containing `addr` painted?
    /// Addresses outside the shadowed heap return `false` (capabilities to
    /// the stack or globals are never revoked by a heap sweep).
    #[inline]
    pub fn is_painted(&self, addr: u64) -> bool {
        match self.granule_of(addr) {
            Some(g) => self.bits[(g / 64) as usize] >> (g % 64) & 1 == 1,
            None => false,
        }
    }

    /// The whole shadow **word** covering `addr`'s 64-granule group (1 KiB
    /// of heap): bit `i` covers granule `group_start + i`. Zero means no
    /// granule in the window is painted, so a word-at-a-time sweep kernel
    /// can discharge the entire window with one compare. Addresses outside
    /// the shadowed heap return 0 (never painted).
    #[inline]
    pub fn word(&self, addr: u64) -> u64 {
        match self.granule_of(addr) {
            Some(g) => self.bits[(g / WORD_GRANULES) as usize],
            None => 0,
        }
    }

    /// The raw pieces of the [`ShadowMap::painted_bit`] computation —
    /// `(heap_base, granules, bit words)` — for the vector sweep kernel,
    /// which replays the same lookup with the per-call empty and bounds
    /// checks hoisted out of its inner loop.
    pub(crate) fn raw_parts(&self) -> (u64, u64, &[u64]) {
        (self.heap_base, self.granules, &self.bits)
    }

    /// [`ShadowMap::is_painted`] as a branch-free 0/1 — the sweep kernels'
    /// inner-loop form. Out-of-coverage addresses (including anything
    /// below the heap base, via the wrapping subtraction) select word 0
    /// masked to zero, so the load always hits the map and the result is
    /// computed with compares and masks only — no data-dependent branch
    /// for the predictor to miss on random pointees.
    #[inline]
    pub fn painted_bit(&self, addr: u64) -> u64 {
        let g = addr.wrapping_sub(self.heap_base) / GRANULE_SIZE;
        let in_range = g < self.granules;
        // `granules > 0` whenever `in_range` can be true, so index 0 is
        // always loadable when it matters; an empty map short-circuits.
        if self.bits.is_empty() {
            return 0;
        }
        let idx = if in_range {
            (g / WORD_GRANULES) as usize
        } else {
            0
        };
        (self.bits[idx] >> (g % WORD_GRANULES)) & 1 & u64::from(in_range)
    }

    /// `true` if any granule of `[addr, addr + len)` is painted. Portions
    /// of the range outside the shadowed heap count as unpainted. Large
    /// mostly-clean ranges are answered through the hierarchical summary
    /// in O(len / 4 MiB).
    pub fn any_painted_in(&self, addr: u64, len: u64) -> bool {
        if len == 0 || self.painted_granules == 0 {
            return false;
        }
        let end = addr.saturating_add(len);
        let lo = addr.max(self.heap_base);
        let hi = end.min(self.heap_base + self.covered_bytes());
        if lo >= hi {
            return false;
        }
        let g0 = (lo - self.heap_base) / GRANULE_SIZE;
        let g1 = (hi - self.heap_base).div_ceil(GRANULE_SIZE);
        let w0 = (g0 / WORD_GRANULES) as usize;
        let w1 = ((g1 - 1) / WORD_GRANULES) as usize;
        if w0 == w1 {
            let mask = (u64::MAX << (g0 % 64)) & (u64::MAX >> ((64 - g1 % 64) % 64));
            return self.bits[w0] & mask != 0;
        }
        if self.bits[w0] & (u64::MAX << (g0 % 64)) != 0 {
            return true;
        }
        let tail_mask = u64::MAX >> ((64 - g1 % 64) % 64);
        if self.bits[w1] & tail_mask != 0 {
            return true;
        }
        // Whole interior words, skipping 64 (4 MiB of heap) at a time
        // wherever the summary word is clean.
        let mut w = w0 + 1;
        while w < w1 {
            let s = w / 64;
            if self.summary[s] == 0 {
                w = (s + 1) * 64;
                continue;
            }
            if self.bits[w] != 0 {
                return true;
            }
            w += 1;
        }
        false
    }

    /// The hierarchical summary words: bit `i` of word `i / 64` is set iff
    /// shadow word `i` holds any paint. One summary bit covers 1 KiB of
    /// heap ([`ShadowMap::word`]); one summary word covers 4 MiB.
    #[inline]
    pub fn summary_words(&self) -> &[u64] {
        &self.summary
    }

    /// Total painted bytes.
    pub fn painted_bytes(&self) -> u64 {
        self.painted_granules * GRANULE_SIZE
    }

    /// Clears the entire map (constant-time bulk store).
    pub fn clear_all(&mut self) {
        self.bits.fill(0);
        self.summary.fill(0);
        self.painted_granules = 0;
    }

    /// Raw bitmap view (for the timed sweep's shadow-access modelling).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }

    /// The simulated address of the shadow byte covering `addr`, given the
    /// fixed transform `shadow_base + (addr - heap_base) / 128` (§5.2) —
    /// used by the cache model to charge shadow-lookup accesses.
    #[inline]
    pub fn shadow_addr(&self, shadow_base: u64, addr: u64) -> u64 {
        shadow_base + (addr.saturating_sub(self.heap_base)) / (GRANULE_SIZE * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 20;

    #[test]
    fn paint_and_clear_roundtrip() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + 0x100, 0x200);
        assert_eq!(s.painted_bytes(), 0x200);
        assert!(s.is_painted(BASE + 0x100));
        assert!(s.is_painted(BASE + 0x2f0));
        assert!(!s.is_painted(BASE + 0x300));
        s.clear(BASE + 0x100, 0x200);
        assert_eq!(s.painted_bytes(), 0);
    }

    #[test]
    fn interior_addresses_hit_their_granule() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + 0x40, 16);
        // Any byte inside the granule matches.
        assert!(s.is_painted(BASE + 0x4f));
        assert!(!s.is_painted(BASE + 0x50));
        assert!(!s.is_painted(BASE + 0x3f));
    }

    #[test]
    fn large_runs_use_word_stores_and_count_correctly() {
        let mut s = ShadowMap::new(BASE, LEN);
        // 100 KiB starting at a ragged offset.
        s.paint(BASE + 0x30, 100 * 1024 + 16);
        assert_eq!(s.painted_bytes(), 100 * 1024 + 16);
        s.clear_all();
        assert_eq!(s.painted_bytes(), 0);
    }

    #[test]
    fn clear_all_and_repaint_roundtrips_painted_bytes() {
        // The bookkeeping-drift guard: after a bulk clear, repainting the
        // identical range set must reproduce the identical byte count and
        // bitmap — `painted_granules` cannot diverge from the bits.
        let mut s = ShadowMap::new(BASE, LEN);
        let ranges = [
            (BASE + 0x30, 100 * 1024 + 16),
            (BASE + 0x2_0000, 0x40),
            (BASE + LEN - 0x1000, 0x1000),
        ];
        for &(a, l) in &ranges {
            s.paint(a, l);
        }
        let bytes = s.painted_bytes();
        let words = s.as_words().to_vec();
        let summary = s.summary_words().to_vec();
        s.clear_all();
        assert_eq!(s.painted_bytes(), 0);
        assert!(s.summary_words().iter().all(|&w| w == 0));
        for &(a, l) in &ranges {
            s.paint(a, l);
        }
        assert_eq!(s.painted_bytes(), bytes);
        assert_eq!(s.as_words(), &words[..]);
        assert_eq!(s.summary_words(), &summary[..]);
    }

    #[test]
    #[should_panic(expected = "repainting")]
    #[cfg(debug_assertions)]
    fn repainting_a_painted_granule_is_a_bug() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + 0x40, 16);
        s.paint(BASE + 0x40, 16);
    }

    #[test]
    #[should_panic(expected = "clearing already-clean")]
    #[cfg(debug_assertions)]
    fn clearing_a_clean_granule_is_a_bug() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.clear(BASE + 0x40, 16);
    }

    #[test]
    fn word_exposes_the_window_mask() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + 0x40, 16); // granule 4 of word 0
        assert_eq!(s.word(BASE), 1 << 4);
        assert_eq!(s.word(BASE + 0x3ff), 1 << 4); // same 1 KiB window
        assert_eq!(s.word(BASE + 0x400), 0); // next window is clean
        assert_eq!(s.word(BASE - 16), 0); // outside: never painted
        assert_eq!(s.word(BASE + LEN), 0);
    }

    #[test]
    fn painted_bit_matches_is_painted() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + 0x400, 16);
        s.paint(BASE + 0x8230, 0x20);
        s.paint(BASE + LEN - 16, 16);
        // In-range addresses (granule-aligned and interior bytes), the
        // heap edges, and out-of-range addresses on both sides — the
        // branch-free form must agree with the boolean everywhere.
        for addr in [
            BASE,
            BASE + 0x400,
            BASE + 0x407,
            BASE + 0x410,
            BASE + 0x8230,
            BASE + 0x824f,
            BASE + 0x8250,
            BASE + LEN - 16,
            BASE + LEN - 1,
            BASE + LEN,
            BASE - 16,
            0,
            u64::MAX,
        ] {
            assert_eq!(
                s.painted_bit(addr),
                u64::from(s.is_painted(addr)),
                "addr {addr:#x}"
            );
        }
        // An empty map never reports painted, in or out of range.
        let empty = ShadowMap::new(BASE, 0);
        assert_eq!(empty.painted_bit(BASE), 0);
        assert_eq!(empty.painted_bit(BASE - 16), 0);
    }

    #[test]
    fn any_painted_in_matches_per_granule_scan() {
        let mut s = ShadowMap::new(BASE, LEN);
        // Paint at a word boundary, mid-word, and near the heap end.
        s.paint(BASE + 0x400, 16);
        s.paint(BASE + 0x8230, 0x20);
        s.paint(BASE + LEN - 16, 16);
        let reference = |addr: u64, len: u64| {
            (0..len / GRANULE_SIZE).any(|i| s.is_painted(addr + i * GRANULE_SIZE))
        };
        for (addr, len) in [
            (BASE, 0x400),            // clean prefix
            (BASE, 0x410),            // just reaches the first paint
            (BASE + 0x410, 0x7e20),   // between paints
            (BASE + 0x8000, 0x1000),  // covers the mid-word paint
            (BASE, LEN),              // everything
            (BASE + LEN - 32, 32),    // ragged tail at heap end
            (BASE + 0x10_0000, 0x40), // clean interior
        ] {
            assert_eq!(
                s.any_painted_in(addr, len),
                reference(addr, len),
                "range {addr:#x}+{len:#x}"
            );
        }
        // Zero-length and fully-outside ranges are never painted.
        assert!(!s.any_painted_in(BASE, 0));
        assert!(!s.any_painted_in(0x100, 0x100));
        assert!(!s.any_painted_in(BASE + LEN, 0x1000));
    }

    #[test]
    fn summary_tracks_nonzero_words() {
        let mut s = ShadowMap::new(BASE, LEN);
        assert!(s.summary_words().iter().all(|&w| w == 0));
        s.paint(BASE + 0x400, 16); // shadow word 1
        assert_eq!(s.summary_words()[0], 1 << 1);
        // A wide paint covering whole words sets their summary bits too.
        s.paint(BASE + 0x1_0000, 0x1_0000); // granules 4096..8192, words 64..128
        assert_eq!(s.summary_words()[1], u64::MAX);
        s.clear(BASE + 0x1_0000, 0x1_0000);
        assert_eq!(s.summary_words()[1], 0);
        s.clear(BASE + 0x400, 16);
        assert!(s.summary_words().iter().all(|&w| w == 0));
    }

    #[test]
    fn outside_addresses_never_painted() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE, LEN);
        assert!(!s.is_painted(BASE - 16));
        assert!(!s.is_painted(BASE + LEN));
        assert!(!s.is_painted(0));
        assert!(!s.is_painted(!0xf)); // the top granule-aligned address
    }

    #[test]
    fn shadow_is_1_128th_of_heap() {
        let s = ShadowMap::new(BASE, LEN);
        assert_eq!(s.shadow_bytes(), LEN / 128);
        assert_eq!(s.covered_bytes(), LEN);
    }

    #[test]
    fn shadow_addr_transform() {
        let s = ShadowMap::new(BASE, LEN);
        let sb = 0x7000_0000;
        assert_eq!(s.shadow_addr(sb, BASE), sb);
        assert_eq!(s.shadow_addr(sb, BASE + 128), sb + 1);
        assert_eq!(s.shadow_addr(sb, BASE + 4096), sb + 32);
    }

    #[test]
    #[should_panic(expected = "outside shadowed heap")]
    fn painting_outside_heap_panics() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE - 0x100, 16);
    }

    #[test]
    #[should_panic(expected = "runs past")]
    fn painting_past_end_panics() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE + LEN - 16, 32);
    }

    #[test]
    fn zero_length_paint_is_noop() {
        let mut s = ShadowMap::new(BASE, LEN);
        s.paint(BASE, 0);
        assert_eq!(s.painted_bytes(), 0);
    }
}
