//! The paper's x86 evaluation methodology (§5.1, §5.3): conservative
//! pointer identification over preprocessed memory images.
//!
//! The paper could not run CHERI binaries on x86, so it *simulated*
//! capability visibility: every 64-bit word whose value is a valid virtual
//! address is conservatively considered a pointer (as in conservative
//! garbage collectors); the core dump is preprocessed to **zero all
//! non-pointer words**, after which the sweep's tag test becomes a simple
//! compare-with-zero — cheap enough to vectorise. This module reproduces
//! that pipeline:
//!
//! * [`ConservativeImage`] — a memory image preprocessed exactly as §5.3
//!   describes (non-pointer words zeroed).
//! * [`ConsKernel`] — the fig. 7 tiers over such images: scalar,
//!   manually unrolled, and a genuine AVX2 implementation (`std::arch`)
//!   used when the host supports it.
//! * [`sweep_scalar`] / [`sweep_unrolled`] / [`sweep_avx2`] — one sweep
//!   of a whole image with each tier. An image sweep has no roots to
//!   choose and no pages or lines to skip, so it calls the tier's scan
//!   directly rather than going through the [`crate::SweepEngine`].
//!
//! Unlike the tag-exact kernels of [`crate::SweepEngine`], conservative
//! identification has **false positives**: integers that happen to look
//! like heap addresses are treated as pointers (and, if they "point" into
//! quarantined memory, zeroed). The paper accepts the same imprecision for
//! its x86 measurements; CHERI itself does not (§4.1).

use tagmem::TaggedMemory;

use crate::ShadowMap;

/// A §5.3-preprocessed image: 64-bit words, with every word whose value is
/// not a valid in-range virtual address zeroed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservativeImage {
    base: u64,
    words: Vec<u64>,
}

/// Result counters of a conservative sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservativeStats {
    /// Words inspected (all of them — the test is part of the loop).
    pub words_scanned: u64,
    /// Words that looked like pointers (non-zero after preprocessing).
    pub pointers_seen: u64,
    /// Words zeroed because they pointed into painted memory.
    pub revoked: u64,
}

impl ConservativeImage {
    /// Preprocesses a tagged-memory image: any 64-bit word whose value
    /// falls within `[range_base, range_end)` is kept (it "is" a pointer
    /// under conservative estimation); every other word is zeroed.
    pub fn from_memory(mem: &TaggedMemory, range_base: u64, range_end: u64) -> ConservativeImage {
        let data = mem.data();
        let words = data
            .chunks_exact(8)
            .map(|c| {
                let w = u64::from_le_bytes(c.try_into().expect("8 bytes"));
                if w >= range_base && w < range_end {
                    w
                } else {
                    0
                }
            })
            .collect();
        ConservativeImage {
            base: mem.base(),
            words,
        }
    }

    /// Builds an image directly from words (testing / synthetic densities).
    pub fn from_words(base: u64, words: Vec<u64>) -> ConservativeImage {
        ConservativeImage { base, words }
    }

    /// The image's base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The image's word array.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Image length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Non-zero (pointer-looking) words.
    pub fn pointer_count(&self) -> u64 {
        self.words.iter().filter(|&&w| w != 0).count() as u64
    }
}

/// The fig. 7 optimisation tiers for conservative images.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsKernel {
    /// The paper's §3.3 inner loop, verbatim shape: test, shift, shadow
    /// byte, bit test, conditional zero.
    Scalar,
    /// Manually unrolled/pipelined (the second fig. 7 tier): four words
    /// per iteration, tests hoisted.
    Unrolled,
    /// The AVX2 tier: 256-bit loads test four words against zero at a
    /// time (runtime-detected; falls back to [`ConsKernel::Unrolled`]
    /// elsewhere).
    #[default]
    Avx2,
}

fn run(image: &mut ConservativeImage, shadow: &ShadowMap, kernel: ConsKernel) -> ConservativeStats {
    let words = &mut image.words;
    let (pointers_seen, revoked) = match kernel {
        ConsKernel::Scalar => scan_scalar(words, shadow),
        ConsKernel::Unrolled => scan_unrolled(words, shadow),
        ConsKernel::Avx2 => scan_avx2(words, shadow),
    };
    ConservativeStats {
        words_scanned: words.len() as u64,
        pointers_seen,
        revoked,
    }
}

/// Sweeps `image` with [`ConsKernel::Scalar`].
pub fn sweep_scalar(image: &mut ConservativeImage, shadow: &ShadowMap) -> ConservativeStats {
    run(image, shadow, ConsKernel::Scalar)
}

/// Sweeps `image` with [`ConsKernel::Unrolled`].
pub fn sweep_unrolled(image: &mut ConservativeImage, shadow: &ShadowMap) -> ConservativeStats {
    run(image, shadow, ConsKernel::Unrolled)
}

/// Sweeps `image` with [`ConsKernel::Avx2`] (falling back to the unrolled
/// loop when the host lacks AVX2).
pub fn sweep_avx2(image: &mut ConservativeImage, shadow: &ShadowMap) -> ConservativeStats {
    run(image, shadow, ConsKernel::Avx2)
}

/// Scalar inner loop over one word window. Returns (pointers_seen,
/// revoked).
fn scan_scalar(words: &mut [u64], shadow: &ShadowMap) -> (u64, u64) {
    let (mut seen, mut revoked) = (0, 0);
    for w in words.iter_mut() {
        let capword = *w;
        if capword != 0 {
            seen += 1;
            if shadow.is_painted(capword) {
                *w = 0;
                revoked += 1;
            }
        }
    }
    (seen, revoked)
}

/// Unrolled inner loop: four words per iteration, tests hoisted.
fn scan_unrolled(words: &mut [u64], shadow: &ShadowMap) -> (u64, u64) {
    let (mut seen, mut revoked) = (0, 0);
    let n = words.len() & !3;
    let mut i = 0;
    while i < n {
        let (a, b, c, d) = (words[i], words[i + 1], words[i + 2], words[i + 3]);
        // Fast path: a whole iteration of zeros (common at low density).
        if a | b | c | d != 0 {
            for (k, w) in [a, b, c, d].into_iter().enumerate() {
                if w != 0 {
                    seen += 1;
                    if shadow.is_painted(w) {
                        words[i + k] = 0;
                        revoked += 1;
                    }
                }
            }
        }
        i += 4;
    }
    while i < words.len() {
        let w = words[i];
        if w != 0 {
            seen += 1;
            if shadow.is_painted(w) {
                words[i] = 0;
                revoked += 1;
            }
        }
        i += 1;
    }
    (seen, revoked)
}

/// AVX2 inner loop when available; the unrolled loop otherwise.
#[allow(unsafe_code)]
fn scan_avx2(words: &mut [u64], shadow: &ShadowMap) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked at runtime immediately above.
            return unsafe { simd::scan(words, shadow) };
        }
    }
    scan_unrolled(words, shadow)
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    //! One of the workspace's two `unsafe` islands (the other is the
    //! `Kernel::Simd` sweep kernel in `sweep.rs`): AVX2 intrinsics for the
    //! fig. 7 vector tier. Soundness rests on (a) the caller's runtime
    //! `is_x86_feature_detected!("avx2")` check and (b) `loadu` tolerating
    //! unaligned addresses, so any `&[u64]` chunk of ≥ 4 words is valid.

    use core::arch::x86_64::{
        __m256i, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_setzero_si256,
    };

    use crate::ShadowMap;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan(words: &mut [u64], shadow: &ShadowMap) -> (u64, u64) {
        let (mut seen, mut revoked) = (0, 0);
        let n = words.len() & !3;
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i < n {
            // SAFETY: i + 4 <= words.len(), and loadu has no alignment
            // requirement.
            let v = unsafe { _mm256_loadu_si256(words.as_ptr().add(i) as *const __m256i) };
            let eq = _mm256_cmpeq_epi64(v, zero);
            let mask = _mm256_movemask_epi8(eq) as u32;
            // All four lanes zero: skip (mask is all ones).
            if mask != u32::MAX {
                for k in 0..4 {
                    let w = words[i + k];
                    if w != 0 {
                        seen += 1;
                        if shadow.is_painted(w) {
                            words[i + k] = 0;
                            revoked += 1;
                        }
                    }
                }
            }
            i += 4;
        }
        while i < words.len() {
            let w = words[i];
            if w != 0 {
                seen += 1;
                if shadow.is_painted(w) {
                    words[i] = 0;
                    revoked += 1;
                }
            }
            i += 1;
        }
        (seen, revoked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 16;

    fn image_with(ptrs: &[(usize, u64)]) -> ConservativeImage {
        let mut words = vec![0u64; (LEN / 8) as usize];
        for &(slot, value) in ptrs {
            words[slot] = value;
        }
        ConservativeImage::from_words(HEAP, words)
    }

    fn all_sweeps(
        img: &ConservativeImage,
        shadow: &ShadowMap,
    ) -> Vec<(&'static str, ConservativeImage, ConservativeStats)> {
        let mut out = Vec::new();
        for (name, f) in [
            (
                "scalar",
                sweep_scalar as fn(&mut ConservativeImage, &ShadowMap) -> ConservativeStats,
            ),
            ("unrolled", sweep_unrolled),
            ("avx2", sweep_avx2),
        ] {
            let mut copy = img.clone();
            let stats = f(&mut copy, shadow);
            out.push((name, copy, stats));
        }
        out
    }

    #[test]
    fn preprocessing_zeroes_non_addresses() {
        let mut mem = tagmem::TaggedMemory::new(HEAP, 4096);
        mem.write_u64(HEAP, HEAP + 0x40).unwrap(); // a "pointer"
        mem.write_u64(HEAP + 8, 1234).unwrap(); // an integer
        mem.write_u64(HEAP + 16, HEAP + 4096).unwrap(); // out of range
        let img = ConservativeImage::from_memory(&mem, HEAP, HEAP + 4096);
        assert_eq!(img.words()[0], HEAP + 0x40);
        assert_eq!(img.words()[1], 0);
        assert_eq!(img.words()[2], 0);
        assert_eq!(img.pointer_count(), 1);
    }

    #[test]
    fn conservative_false_positives_are_kept() {
        // An integer that *looks* like a heap address survives
        // preprocessing — the §5.1 conservatism.
        let mut mem = tagmem::TaggedMemory::new(HEAP, 4096);
        mem.write_u64(HEAP, HEAP + 0x80).unwrap(); // data, but address-like
        let img = ConservativeImage::from_memory(&mem, HEAP, HEAP + 4096);
        assert_eq!(img.pointer_count(), 1);
    }

    #[test]
    fn all_kernels_agree() {
        let img = image_with(&[
            (0, HEAP + 0x40),  // dangling (painted below)
            (7, HEAP + 0x400), // live
            (63, HEAP + 0x50), // dangling
            (64, HEAP + 0x800),
            (4093, HEAP + 0x40),
        ]);
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 32);
        let results = all_sweeps(&img, &shadow);
        for (name, swept, stats) in &results {
            assert_eq!(stats.pointers_seen, 5, "{name}");
            assert_eq!(stats.revoked, 3, "{name}");
            assert_eq!(swept.words()[0], 0, "{name}");
            assert_eq!(swept.words()[7], HEAP + 0x400, "{name}");
            assert_eq!(swept.words()[63], 0, "{name}");
        }
        for (name, swept, _) in &results[1..] {
            assert_eq!(swept, &results[0].1, "{name} diverged from scalar");
        }
    }

    #[test]
    fn tag_exact_and_conservative_agree_when_no_false_positives() {
        // Plant genuine capabilities; the conservative sweep over the
        // preprocessed image revokes the same set the tag-exact sweep does.
        let mut mem = tagmem::TaggedMemory::new(HEAP, LEN);
        for i in 0..20u64 {
            let obj = HEAP + 0x4000 + i * 64;
            mem.write_cap(HEAP + i * 16, &Capability::root_rw(obj, 64))
                .unwrap();
        }
        let mut shadow = ShadowMap::new(HEAP, LEN);
        for i in (0..20u64).step_by(2) {
            shadow.paint(HEAP + 0x4000 + i * 64, 64);
        }
        let mut img = ConservativeImage::from_memory(&mem, HEAP, HEAP + LEN);
        let cons = sweep_avx2(&mut img, &shadow);
        let exact = crate::SweepEngine::new(crate::Kernel::Unrolled).sweep(
            std::slice::from_mut(&mut mem),
            &[(HEAP, LEN)],
            crate::NoFilter,
            &shadow,
        );
        assert_eq!(cons.revoked, exact.caps_revoked);
    }

    #[test]
    fn empty_image_sweeps_clean() {
        let img = image_with(&[]);
        let shadow = ShadowMap::new(HEAP, LEN);
        for (name, _, stats) in all_sweeps(&img, &shadow) {
            assert_eq!(stats.pointers_seen, 0, "{name}");
            assert_eq!(stats.words_scanned, LEN / 8, "{name}");
        }
    }
}
