//! Sweep kernels and stats (§3.3, §6.2).
//!
//! The walk logic lives in [`crate::engine`]; this module contributes the
//! Figure 7 kernel tiers (the inner loops) that
//! [`SweepEngine`](crate::engine::SweepEngine) and
//! [`ParallelSweepEngine`](crate::engine::ParallelSweepEngine) dispatch to.

use cheri::CapWord;
use tagmem::GRANULE_SIZE;

use crate::engine::SweepCost;
use crate::ShadowMap;

/// Which inner-loop implementation to use — the paper's Figure 7 compares
/// exactly this set of optimisation levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The naïve per-granule loop of §3.3: check the tag, decode, branch.
    Simple,
    /// Loop over 64-granule tag words, skipping all-zero words; per-bit
    /// scan of nonzero words (the paper's "unrolling + manual pipelining"
    /// tier).
    Unrolled,
    /// Bit-parallel scan: only *set* tag bits are visited (via
    /// count-trailing-zeros), with a branch-minimised revocation write —
    /// the role AVX2 plays in the paper.
    Wide,
    /// The word-at-a-time fast path: like [`Kernel::Wide`], but each
    /// capability is read as two 8-byte loads (no `u128` round trip), only
    /// its **base** is decoded (the partial 64-bit decode,
    /// [`cheri::CompressedBounds::decode_base_partial`]), and the decoded
    /// base is first tested against the whole 64-granule shadow word
    /// covering it — one `u64` compare rejects unpainted bases without a
    /// bit extraction. The default kernel (see [`crate::kernel_from_env`]).
    Fast,
    /// The vectorised tier (the role AVX2 plays in the paper's Fig. 7
    /// hardware sweep): tag words are scanned four at a time with a
    /// compare/movemask clean-span skip, candidate capability bases are
    /// decoded lane-parallel through the same partial decode
    /// [`Kernel::Fast`] uses ([`cheri::CompressedBounds::decode_base_partial`],
    /// four candidates per 256-bit lane), and software prefetches pull the
    /// next tag-word span while the current one is processed. Vector units
    /// are detected at runtime (AVX2 on x86_64, NEON on aarch64); without
    /// them — or whenever a [`SweepCost`] model is attached, so timed
    /// replays observe the exact scalar access stream — the kernel falls
    /// back to [`Kernel::Fast`], which it matches bit-for-bit by
    /// construction. Selected via `CHERIVOKE_KERNEL=simd`
    /// (see [`crate::kernel_from_env`]).
    Simd,
}

impl Kernel {
    /// A short stable name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Simple => "simple",
            Kernel::Unrolled => "unrolled",
            Kernel::Wide => "wide",
            Kernel::Fast => "fast",
            Kernel::Simd => "simd",
        }
    }

    /// The default sweep kernel honouring
    /// `CHERIVOKE_KERNEL=reference|wide|simple|unrolled|fast|simd`,
    /// defaulting to [`Kernel::Fast`] (see [`crate::kernel_from_env`] for
    /// the clamp+warn semantics).
    pub fn from_env() -> Kernel {
        crate::engine::kernel_from_env()
    }
}

/// Counters from one revocation sweep.
///
/// All accumulation is **saturating**: merging worker partials or summing
/// across epochs can never wrap (see [`SweepStats::merge_parallel`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Segments visited.
    pub segments_swept: u64,
    /// Bytes of memory the kernel walked over.
    pub bytes_swept: u64,
    /// Tagged words inspected (capabilities found).
    pub caps_inspected: u64,
    /// Capabilities revoked (tag cleared, word zeroed).
    pub caps_revoked: u64,
    /// Register-file capabilities revoked.
    pub regs_revoked: u64,
    /// Pages skipped by PTE CapDirty filtering (when enabled).
    pub pages_skipped: u64,
    /// Cache lines skipped by CLoadTags filtering (when enabled).
    pub lines_skipped: u64,
    /// Chunks whose kernel panicked and were retried on the sequential
    /// reference kernel (only ever non-zero with fault injection armed or
    /// a genuinely buggy kernel; see `ParallelSweepEngine`).
    pub chunks_retried: u64,
}

impl SweepStats {
    /// Merges per-worker partial stats from one parallel sweep.
    ///
    /// Only the per-granule *work* counters (`bytes_swept`,
    /// `caps_inspected`, `caps_revoked`, `regs_revoked`) are summed
    /// (saturating). The *plan-level* counters (`segments_swept`,
    /// `pages_skipped`, `lines_skipped`) belong to the single planning
    /// pass that produced the workers' chunks, so they are left at zero —
    /// summing them per worker would double-count skipped work.
    pub fn merge_parallel(parts: impl IntoIterator<Item = SweepStats>) -> SweepStats {
        let mut out = SweepStats::default();
        for p in parts {
            out.bytes_swept = out.bytes_swept.saturating_add(p.bytes_swept);
            out.caps_inspected = out.caps_inspected.saturating_add(p.caps_inspected);
            out.caps_revoked = out.caps_revoked.saturating_add(p.caps_revoked);
            out.regs_revoked = out.regs_revoked.saturating_add(p.regs_revoked);
            out.chunks_retried = out.chunks_retried.saturating_add(p.chunks_retried);
        }
        out
    }
}

impl core::ops::AddAssign for SweepStats {
    fn add_assign(&mut self, rhs: SweepStats) {
        self.segments_swept = self.segments_swept.saturating_add(rhs.segments_swept);
        self.bytes_swept = self.bytes_swept.saturating_add(rhs.bytes_swept);
        self.caps_inspected = self.caps_inspected.saturating_add(rhs.caps_inspected);
        self.caps_revoked = self.caps_revoked.saturating_add(rhs.caps_revoked);
        self.regs_revoked = self.regs_revoked.saturating_add(rhs.regs_revoked);
        self.pages_skipped = self.pages_skipped.saturating_add(rhs.pages_skipped);
        self.lines_skipped = self.lines_skipped.saturating_add(rhs.lines_skipped);
        self.chunks_retried = self.chunks_retried.saturating_add(rhs.chunks_retried);
    }
}

/// Dispatches `kernel` over granules `[g0, g1)` of a data/tag slice pair.
/// `base` is the address of granule 0 (for cost hooks). The engine's
/// single entry point into the inner loops.
#[allow(clippy::too_many_arguments)] // kernel ABI: slices + window + hooks
pub(crate) fn run_kernel<C: SweepCost>(
    kernel: Kernel,
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    match kernel {
        Kernel::Simple => kernel_simple(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Unrolled => kernel_unrolled(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Wide => kernel_wide(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Fast => kernel_fast(data, tags, g0, g1, shadow, base, cost, stats),
        Kernel::Simd => kernel_simd(data, tags, g0, g1, shadow, base, cost, stats),
    }
}

/// Forces [`Kernel::Simd`] onto its scalar fallback path (test hook).
///
/// Process-global so the parallel engine's scoped worker threads observe
/// it too. Equivalence tests use it to prove the fallback is exercised and
/// bit-identical; it is not part of the public API surface.
#[doc(hidden)]
pub fn force_scalar_kernel(force: bool) {
    FORCE_SCALAR.store(force, std::sync::atomic::Ordering::SeqCst);
}

static FORCE_SCALAR: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[inline]
fn scalar_forced() -> bool {
    FORCE_SCALAR.load(std::sync::atomic::Ordering::Relaxed)
}

/// Revokes granule `g`: clears the tag bit and zeroes the 16 data bytes
/// (the paper's `*x = 0`).
#[inline]
fn revoke(data: &mut [u8], tags: &mut [u64], g: usize) {
    tags[g / 64] &= !(1 << (g % 64));
    data[g * 16..g * 16 + 16].fill(0);
}

#[inline]
fn word_base(data: &[u8], g: usize) -> u64 {
    let bytes: [u8; 16] = data[g * 16..g * 16 + 16].try_into().expect("granule slice");
    CapWord::from(bytes).base()
}

/// §3.3's naïve loop: visit every granule, test its tag, branch.
#[allow(clippy::too_many_arguments)] // kernel ABI: slices + window + hooks
fn kernel_simple<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    for g in g0..g1 {
        let tagged = tags[g / 64] >> (g % 64) & 1 == 1;
        if tagged {
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            if shadow.is_painted(cap_base) {
                revoke(data, tags, g);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
        // The naïve kernel still "reads" every granule; callers charge
        // bandwidth for the full range via bytes_swept.
        core::hint::black_box(&data[g * 16]);
    }
}

/// Word-skipping loop: all-zero tag words (64 granules = 1 KiB) fall
/// through in one test.
#[allow(clippy::too_many_arguments)]
fn kernel_unrolled<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let mut g = g0;
    while g < g1 {
        let w = g / 64;
        if g.is_multiple_of(64) && g + 64 <= g1 && tags[w] == 0 {
            g += 64;
            continue;
        }
        let tagged = tags[w] >> (g % 64) & 1 == 1;
        if tagged {
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            if shadow.is_painted(cap_base) {
                revoke(data, tags, g);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
        g += 1;
    }
}

/// Bit-parallel loop: visit only set bits via count-trailing-zeros, build
/// the revocation mask, and write the tag word back once.
#[allow(clippy::too_many_arguments)]
fn kernel_wide<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let w0 = g0 / 64;
    let w1 = g1.div_ceil(64);
    #[allow(clippy::needless_range_loop)] // `w` also derives `lo`; indexing is the clear form
    for w in w0..w1 {
        // Mask the word to the requested granule range (ragged edges).
        let lo = w * 64;
        let mut live = tags[w];
        if lo < g0 {
            live &= u64::MAX << (g0 - lo);
        }
        if lo + 64 > g1 {
            live &= u64::MAX >> (lo + 64 - g1);
        }
        if live == 0 {
            continue;
        }
        let mut kill = 0u64;
        let mut bits = live;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let g = lo + b;
            stats.caps_inspected += 1;
            let cap_base = word_base(data, g);
            cost.shadow_lookup(cap_base);
            // Branch-minimised: accumulate the kill mask.
            kill |= u64::from(shadow.is_painted(cap_base)) << b;
        }
        if kill != 0 {
            tags[w] &= !kill;
            let mut bits = kill;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                data[g * 16..g * 16 + 16].fill(0);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
    }
}

/// The tentpole fast path: [`kernel_wide`]'s visitation order and exact
/// statistics, with three per-capability savings.
///
/// * The word is read as two `u64` halves straight out of the data slice —
///   no 16-byte slice → `u128` widen/narrow round trip.
/// * Only the base is decoded, with the partial 64-bit bounds decode
///   ([`CapWord::base_from_halves`]); the unused `top` is never
///   reconstructed and no 128-bit arithmetic runs.
/// * The decoded base probes the shadow through the branch-free
///   [`ShadowMap::painted_bit`]: one load of the `u64` covering its
///   64-granule window, folded into the kill mask with shifts and masks
///   only — no data-dependent branch for random pointees to mispredict.
///
/// When no cost model is attached (`C::IS_FREE`) and the shadow map is
/// entirely empty, whole tag words fall through without decoding at all:
/// every live bit is counted as inspected (the result an empty shadow
/// forces) and nothing else happens. Cost-charging sweeps never take this
/// shortcut, so timed replays observe the full access stream.
#[allow(clippy::too_many_arguments)]
fn kernel_fast<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    let empty_shadow = C::IS_FREE && shadow.painted_bytes() == 0;
    let w0 = g0 / 64;
    let w1 = g1.div_ceil(64);
    #[allow(clippy::needless_range_loop)] // `w` also derives `lo`; indexing is the clear form
    for w in w0..w1 {
        // Mask the word to the requested granule range (ragged edges).
        let lo = w * 64;
        let mut live = tags[w];
        if lo < g0 {
            live &= u64::MAX << (g0 - lo);
        }
        if lo + 64 > g1 {
            live &= u64::MAX >> (lo + 64 - g1);
        }
        if live == 0 {
            continue;
        }
        if empty_shadow {
            // Nothing is painted: every tagged word survives. Count the
            // inspections (identical stats to the decoding path) and move
            // on without touching the data array.
            stats.caps_inspected += u64::from(live.count_ones());
            continue;
        }
        let mut kill = 0u64;
        let mut bits = live;
        {
            // Reborrow the data as aligned 8-byte halves: each capability
            // word is two direct u64 loads, no 16-byte slice → u128 round
            // trip and no per-load range construction.
            let (halves, _) = data.as_chunks::<8>();
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                stats.caps_inspected += 1;
                let half_lo = u64::from_le_bytes(halves[2 * g]);
                let half_hi = u64::from_le_bytes(halves[2 * g + 1]);
                let cap_base = CapWord::base_from_halves(half_lo, half_hi);
                cost.shadow_lookup(cap_base);
                kill |= shadow.painted_bit(cap_base) << b;
            }
        }
        if kill != 0 {
            tags[w] &= !kill;
            let mut bits = kill;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let g = lo + b;
                data[g * 16..g * 16 + 16].fill(0);
                cost.revoke_store(base + (g as u64) * GRANULE_SIZE);
                cost.branch_mispredict();
                stats.caps_revoked += 1;
            }
        }
    }
}

/// [`Kernel::Simd`]'s dispatcher: picks the vector implementation the host
/// supports, or [`kernel_fast`] when none applies.
///
/// Three conditions force the scalar fallback, each preserving
/// bit-identical memory, stats, and [`SweepCost`] charges:
///
/// * a cost model is attached (`!C::IS_FREE`) — timed replays must observe
///   the exact scalar access stream, so the vector path never runs costed;
/// * the test hook [`force_scalar_kernel`] is armed;
/// * runtime feature detection finds no usable vector unit.
///
/// The empty-shadow bulk count also routes through [`kernel_fast`], whose
/// shortcut already produces the stats an empty shadow forces.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)] // sole caller of the feature-gated vector modules
fn kernel_simd<C: SweepCost>(
    data: &mut [u8],
    tags: &mut [u64],
    g0: usize,
    g1: usize,
    shadow: &ShadowMap,
    base: u64,
    cost: &mut C,
    stats: &mut SweepStats,
) {
    if !C::IS_FREE || scalar_forced() || shadow.painted_bytes() == 0 {
        return kernel_fast(data, tags, g0, g1, shadow, base, cost, stats);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just verified on this CPU.
        unsafe { simd_avx2::sweep(data, tags, g0, g1, shadow, stats) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        // SAFETY: NEON presence was just verified on this CPU.
        unsafe { simd_neon::sweep(data, tags, g0, g1, shadow, stats) };
        return;
    }
    kernel_fast(data, tags, g0, g1, shadow, base, cost, stats)
}

/// AVX2 implementation of [`Kernel::Simd`] (see DESIGN.md §19). AVX2 is
/// deliberately the widest tier dispatched: an AVX-512 variant (8-wide
/// clean skip and decode) measured 10–30% *slower* on the reference host —
/// any 512-bit op in the loop trips frequency licensing / port splitting —
/// so the 256-bit datapath stays (§19 records the experiment).
///
/// Together with `conservative.rs`'s stack scanner, one of the only two
/// `unsafe` islands in the workspace, and for the same reason: `std::arch`
/// vector intrinsics. Everything here is plain lane arithmetic on values
/// loaded from the same slices the scalar kernels index; the only safety
/// obligation is the AVX2 cpuid check the dispatcher performs.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd_avx2 {
    use core::arch::x86_64::*;

    use super::SweepStats;
    use crate::ShadowMap;

    const MASK14: i64 = 0x3fff; // CHERI Concentrate mantissa mask (MW = 14)
    const MAX_LEN_MANT: i64 = 1 << 12;
    const MAX_EXPONENT: i64 = 52;

    /// Four [`cheri::CompressedBounds::decode_base_partial`] decodes in one
    /// 256-bit lane: lane `i` of `lo`/`hi` holds the low/high half of
    /// candidate word `i`, lane `i` of the result its decoded base.
    ///
    /// Lane-for-lane transcription of the scalar (see `cheri::compress`):
    /// the `shift >= 64` guards map onto `_mm256_srlv_epi64` /
    /// `_mm256_sllv_epi64` semantics (counts ≥ 64 yield zero), the `b < r` /
    /// `a_mid < r` unsigned compares are safe as signed `_mm256_cmpgt_epi64`
    /// because both operands are 14-bit, and the `(b < r) - (a_mid < r)`
    /// correction adds the compare masks directly (an all-ones lane is −1).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn decode_bases(lo: __m256i, hi: __m256i) -> __m256i {
        let mask14 = _mm256_set1_epi64x(MASK14);
        let b = _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask14);
        let e_raw = _mm256_and_si256(_mm256_srli_epi64::<28>(hi), _mm256_set1_epi64x(0x3f));
        let cap = _mm256_set1_epi64x(MAX_EXPONENT);
        // e = min(e_raw, MAX_EXPONENT)
        let e = _mm256_blendv_epi8(e_raw, cap, _mm256_cmpgt_epi64(e_raw, cap));
        let shift = _mm256_add_epi64(e, _mm256_set1_epi64x(14)); // E + MW, 14..=66
        let a_mid = _mm256_and_si256(_mm256_srlv_epi64(lo, e), mask14);
        let a_hi = _mm256_srlv_epi64(lo, shift); // count >= 64 → 0 (the scalar guard)
        let r = _mm256_and_si256(
            _mm256_sub_epi64(b, _mm256_set1_epi64x(MAX_LEN_MANT)),
            mask14,
        );
        let b_lt_r = _mm256_cmpgt_epi64(r, b); // −1 where b < r
        let a_lt_r = _mm256_cmpgt_epi64(r, a_mid); // −1 where a_mid < r
                                                   // cb = a_hi + (b < r) − (a_mid < r): subtract/add the −1 masks.
        let cb = _mm256_add_epi64(_mm256_sub_epi64(a_hi, b_lt_r), a_lt_r);
        let hi_part = _mm256_sllv_epi64(cb, shift); // count >= 64 → 0
        _mm256_add_epi64(hi_part, _mm256_sllv_epi64(b, e))
    }

    /// [`decode_bases`] specialised to `e_raw == 0` in every lane — the
    /// common case on real heaps, where allocations small enough for a
    /// 12-bit length mantissa (≤ 4 KiB slabs) encode with exponent zero.
    /// With `e = 0` the exponent clamp disappears and every
    /// variable-count shift collapses to an immediate-count one
    /// (`shift = MW = 14`), shortening the decode dependency chain by a
    /// third. The caller guards with a `vptest` of the exponent bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Every lane of `hi` must have zero exponent bits
    /// (bits 28..34).
    #[target_feature(enable = "avx2")]
    unsafe fn decode_bases_e0(lo: __m256i, hi: __m256i) -> __m256i {
        let mask14 = _mm256_set1_epi64x(MASK14);
        let b = _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask14);
        let a_mid = _mm256_and_si256(lo, mask14);
        let a_hi = _mm256_srli_epi64::<14>(lo);
        let r = _mm256_and_si256(
            _mm256_sub_epi64(b, _mm256_set1_epi64x(MAX_LEN_MANT)),
            mask14,
        );
        let b_lt_r = _mm256_cmpgt_epi64(r, b); // −1 where b < r
        let a_lt_r = _mm256_cmpgt_epi64(r, a_mid); // −1 where a_mid < r
        let cb = _mm256_add_epi64(_mm256_sub_epi64(a_hi, b_lt_r), a_lt_r);
        _mm256_add_epi64(_mm256_slli_epi64::<14>(cb), b)
    }

    /// The vector sweep loop. Bit-identical to `kernel_fast` under `NoCost`
    /// (the dispatcher guarantees no cost model is attached here).
    ///
    /// # Safety
    ///
    /// Requires AVX2. All memory access is through slice indexing or
    /// in-bounds raw loads derived from the same indices the scalar kernel
    /// uses.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sweep(
        data: &mut [u8],
        tags: &mut [u64],
        g0: usize,
        g1: usize,
        shadow: &ShadowMap,
        stats: &mut SweepStats,
    ) {
        // How far ahead (in 64-granule tag words) to pull the next span.
        // One tag word covers 1 KiB of data; 4 words ahead keeps roughly a
        // tag-cache line's worth of future tag state in flight without
        // outrunning the L1 (DESIGN.md §19 discusses the choice).
        const PREFETCH_WORDS: usize = 4;
        let w0 = g0 / 64;
        let w1 = g1.div_ceil(64);
        let zero = _mm256_setzero_si256();
        // Hoisted pieces of the lean painted-bit lookup (phase 3 replays
        // `ShadowMap::painted_bit` without its per-call empty and bounds
        // checks). The dispatcher only enters this path with a painted
        // shadow, so the bit array is never empty and the scalar
        // `is_empty` short-circuit has no counterpart here.
        let (shadow_base, shadow_granules, shadow_bits) = shadow.raw_parts();
        debug_assert!(!shadow_bits.is_empty());
        let mut w = w0;
        while w < w1 {
            // Clean-span bulk skip: compare four tag words against zero at
            // once; the movemask is a 4-bit "lane is clean" summary. A
            // fully clean quad advances four words on one branch. Ragged
            // edge words are legal here: a zero word contributes no work
            // in any kernel, masked or not.
            if w + 4 <= w1 {
                // SAFETY: w + 4 <= w1 <= tags.len(), so the 32-byte load
                // stays inside the tag slice (unaligned load).
                let quad = unsafe { _mm256_loadu_si256(tags.as_ptr().add(w).cast()) };
                let clean = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(quad, zero)));
                if clean == 0xf {
                    if w + 4 < w1 {
                        // SAFETY: in-bounds by the check above; prefetch
                        // faults are suppressed by the ISA anyway.
                        unsafe {
                            _mm_prefetch::<_MM_HINT_T0>(tags.as_ptr().add(w + 4).cast());
                        }
                    }
                    w += 4;
                    continue;
                }
            }
            // Mask the word to the requested granule range (ragged edges),
            // exactly as the scalar kernels do.
            let lo_g = w * 64;
            let mut live = tags[w];
            if lo_g < g0 {
                live &= u64::MAX << (g0 - lo_g);
            }
            if lo_g + 64 > g1 {
                live &= u64::MAX >> (lo_g + 64 - g1);
            }
            if live == 0 {
                w += 1;
                continue;
            }
            // Pull the next tag-word span while this word's candidates
            // decode.
            if w + PREFETCH_WORDS < w1 {
                // SAFETY: index checked in bounds.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(tags.as_ptr().add(w + PREFETCH_WORDS).cast());
                }
            }
            // Prefetch the *entire* 1 KiB data span of the next word (16
            // cache lines). On a dense image every line of the span holds
            // a candidate, and a bit-walk's demand loads expose each miss
            // serially; issuing the whole next span now keeps ~16 misses
            // in flight while this word decodes, which is where the
            // vector tier's dense-image headroom actually comes from
            // (DESIGN.md §19). Wider batches were tried and regressed:
            // gathering several words per phased pass means burstier
            // prefetch (dropped once the fill buffers fill) and a larger
            // working set, both of which cost more than the extra
            // memory-level parallelism buys.
            let next_span = (w + 1) * 64 * 16;
            if next_span + 64 * 16 <= data.len() {
                for line in 0..16 {
                    // SAFETY: span end checked in bounds above.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(
                            data.as_ptr().add(next_span + line * 64).cast(),
                        );
                    }
                }
            }
            let mut kill = 0u64;
            // The word's candidates are processed in two phases instead
            // of one fused per-candidate loop: decode every base (lane
            // parallel), then run every shadow lookup. Phasing removes
            // the decode -> lookup serialisation, so the out-of-order
            // core sees a word's worth of independent decode chains and
            // a word's worth of independent shadow loads at once
            // (maximum memory-level parallelism per tag word).
            //
            // Phase 1: peel candidate granule offsets out of the live
            // mask four at a time, decoding each quad's bases in one
            // 256-bit lane. Each candidate capability word is one
            // 16-byte unaligned vector load (both halves at once); two
            // inserts and an unpack pair transpose four of them into a
            // lo-halves lane and a hi-halves lane. The unpack
            // interleaves 128-bit lanes, putting decoded lanes in
            // candidate order [0, 2, 1, 3] — rather than permuting the
            // lanes back (a port-5 shuffle on the critical path into the
            // store phase 2 reloads), the *offsets* are recorded in the
            // same interleaved order: phase 2 and the revoke loop only
            // need `grans[k]` and `idxs[k]` paired, not any particular
            // order. What's stored per candidate is not the raw base but
            // the shadow granule it falls in (`(base - shadow_base) /
            // 16`), computed lane-parallel while still in registers.
            let n = live.count_ones() as usize;
            stats.caps_inspected += n as u64;
            let mut idxs = [0u8; 64];
            let mut grans = [0u64; 64];
            let p = data.as_ptr();
            let shadow_base_v = _mm256_set1_epi64x(shadow_base as i64);
            let mut bits = live;
            let mut i = 0usize;
            while i + 4 <= n {
                let i0 = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i1 = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i2 = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i3 = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // SAFETY: each granule g = lo_g + ik < g1 <=
                // data.len() / 16, so the 16 bytes at byte offset g*16
                // are in bounds (no alignment requirement).
                let cap = |g: usize| unsafe { _mm_loadu_si128(p.add((lo_g + g) * 16).cast()) };
                let a = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(cap(i0)), cap(i1));
                let b = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(cap(i2)), cap(i3));
                let lo_v = _mm256_unpacklo_epi64(a, b); // [lo0, lo2, lo1, lo3]
                let hi_v = _mm256_unpackhi_epi64(a, b); // [hi0, hi2, hi1, hi3]
                                                        // All-lanes-exponent-zero fast path: one vptest picks the
                                                        // short decode (see decode_bases_e0) — near-universally
                                                        // taken on dense small-allocation heaps, and a predicted
                                                        // branch either way.
                let e_bits = _mm256_set1_epi64x(0x3f << 28);
                // SAFETY: AVX2 (function-level target_feature); the
                // vptest guarantees decode_bases_e0's zero-exponent
                // precondition.
                let bases_v = unsafe {
                    if _mm256_testz_si256(hi_v, e_bits) != 0 {
                        decode_bases_e0(lo_v, hi_v)
                    } else {
                        decode_bases(lo_v, hi_v)
                    }
                };
                // Offsets in the unpack's interleaved lane order.
                idxs[i] = i0 as u8;
                idxs[i + 1] = i2 as u8;
                idxs[i + 2] = i1 as u8;
                idxs[i + 3] = i3 as u8;
                let g_v = _mm256_srli_epi64::<4>(_mm256_sub_epi64(bases_v, shadow_base_v));
                // SAFETY: i + 4 <= n <= 64, destination is in the stack
                // array.
                unsafe { _mm256_storeu_si256(grans.as_mut_ptr().add(i).cast(), g_v) };
                i += 4;
            }
            if i < n {
                // Ragged tail (< 4 candidates): scalar partial decode,
                // same arithmetic as the lanes.
                let (halves, _) = data.as_chunks::<8>();
                while bits != 0 {
                    let g = lo_g + bits.trailing_zeros() as usize;
                    idxs[i] = bits.trailing_zeros() as u8;
                    bits &= bits - 1;
                    let half_lo = u64::from_le_bytes(halves[2 * g]);
                    let half_hi = u64::from_le_bytes(halves[2 * g + 1]);
                    let base = super::CapWord::base_from_halves(half_lo, half_hi);
                    grans[i] = base.wrapping_sub(shadow_base) >> 4;
                    i += 1;
                }
            }
            // Phase 2: shadow lookups — a lean `ShadowMap::painted_bit`
            // from the hoisted raw_parts, dropping the per-call empty
            // check and the bounds check (g < granules ⇒ g/64 in bounds);
            // the granule arithmetic already happened in vector lanes.
            for k in 0..n {
                let g = grans[k];
                if g < shadow_granules {
                    // SAFETY: g < granules ⇒ g/64 < bits.len().
                    let word = unsafe { *shadow_bits.get_unchecked((g >> 6) as usize) };
                    kill |= ((word >> (g & 63)) & 1) << idxs[k];
                }
            }
            if kill != 0 {
                tags[w] &= !kill;
                stats.caps_revoked += u64::from(kill.count_ones());
                let zero128 = _mm_setzero_si128();
                let pm = data.as_mut_ptr();
                let mut bits = kill;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let g = lo_g + b;
                    // SAFETY: g < g1 <= data.len() / 16, one 16-byte
                    // store inside the slice (no alignment requirement).
                    unsafe { _mm_storeu_si128(pm.add(g * 16).cast(), zero128) };
                }
            }
            w += 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use cheri::CapWord;

        #[test]
        fn lane_decode_matches_scalar_on_raw_patterns() {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return;
            }
            let mut x = 0x0123_4567_89ab_cdefu64;
            let mut next = move || {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            for round in 0..10_000 {
                let lo = [next(), next(), next(), next()];
                let mut hi = [next(), next(), next(), next()];
                // Hit the exponent-clamp and shift>=64 edges explicitly.
                if round % 7 == 0 {
                    hi[0] |= 0x3f << 28; // e_raw = 63 → clamped to 52
                    hi[1] = (hi[1] & !(0x3f << 28)) | (50 << 28); // shift = 64
                    hi[2] = (hi[2] & !(0x3f << 28)) | (49 << 28); // shift = 63
                    hi[3] &= !(0x3f << 28); // e = 0
                }
                // SAFETY: AVX2 checked above; arrays are 32 bytes.
                let got = unsafe {
                    let lo_v = _mm256_loadu_si256(lo.as_ptr().cast());
                    let hi_v = _mm256_loadu_si256(hi.as_ptr().cast());
                    let mut out = [0u64; 4];
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), decode_bases(lo_v, hi_v));
                    out
                };
                let want = CapWord::bases_from_halves_x4(lo, hi);
                assert_eq!(got, want, "lo={lo:#x?} hi={hi:#x?}");
            }
        }

        #[test]
        fn e0_lane_decode_matches_scalar_on_raw_patterns() {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return;
            }
            let mut x = 0x243f_6a88_85a3_08d3u64;
            let mut next = move || {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            for _ in 0..10_000 {
                let lo = [next(), next(), next(), next()];
                // The e0 path's precondition: exponent bits all zero.
                let hi = [
                    next() & !(0x3f << 28),
                    next() & !(0x3f << 28),
                    next() & !(0x3f << 28),
                    next() & !(0x3f << 28),
                ];
                // SAFETY: AVX2 checked above; arrays are 32 bytes; hi
                // lanes carry zero exponents by construction.
                let got = unsafe {
                    let lo_v = _mm256_loadu_si256(lo.as_ptr().cast());
                    let hi_v = _mm256_loadu_si256(hi.as_ptr().cast());
                    let mut out = [0u64; 4];
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), decode_bases_e0(lo_v, hi_v));
                    out
                };
                let want = CapWord::bases_from_halves_x4(lo, hi);
                assert_eq!(got, want, "lo={lo:#x?} hi={hi:#x?}");
            }
        }
    }
}

/// NEON implementation of [`Kernel::Simd`]: a 128-bit two-word clean-span
/// skip feeding the scalar-batch decode ([`CapWord::bases_from_halves_x4`]),
/// which the compiler can keep lane-parallel on aarch64. There is no
/// stable aarch64 prefetch intrinsic, so this tier relies on the
/// hardware prefetcher the clean-skip's sequential pattern trains.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod simd_neon {
    use core::arch::aarch64::*;

    use super::SweepStats;
    use crate::ShadowMap;

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn sweep(
        data: &mut [u8],
        tags: &mut [u64],
        g0: usize,
        g1: usize,
        shadow: &ShadowMap,
        stats: &mut SweepStats,
    ) {
        let w0 = g0 / 64;
        let w1 = g1.div_ceil(64);
        let mut w = w0;
        while w < w1 {
            if w + 2 <= w1 {
                // SAFETY: two-word load stays inside the tag slice.
                let pair = unsafe { vld1q_u64(tags.as_ptr().add(w)) };
                if vmaxvq_u32(vreinterpretq_u32_u64(pair)) == 0 {
                    w += 2;
                    continue;
                }
            }
            let lo_g = w * 64;
            let mut live = tags[w];
            if lo_g < g0 {
                live &= u64::MAX << (g0 - lo_g);
            }
            if lo_g + 64 > g1 {
                live &= u64::MAX >> (lo_g + 64 - g1);
            }
            if live == 0 {
                w += 1;
                continue;
            }
            let mut kill = 0u64;
            let mut bits = live;
            let (halves, _) = data.as_chunks::<8>();
            while bits != 0 {
                let mut idx = [0usize; 4];
                let mut n = 0;
                while n < 4 && bits != 0 {
                    idx[n] = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    n += 1;
                }
                stats.caps_inspected += n as u64;
                if n == 4 {
                    let at = |k: usize| {
                        let g = lo_g + idx[k];
                        (
                            u64::from_le_bytes(halves[2 * g]),
                            u64::from_le_bytes(halves[2 * g + 1]),
                        )
                    };
                    let (l0, h0) = at(0);
                    let (l1, h1) = at(1);
                    let (l2, h2) = at(2);
                    let (l3, h3) = at(3);
                    let bases =
                        super::CapWord::bases_from_halves_x4([l0, l1, l2, l3], [h0, h1, h2, h3]);
                    for k in 0..4 {
                        kill |= shadow.painted_bit(bases[k]) << idx[k];
                    }
                } else {
                    for &i in &idx[..n] {
                        let g = lo_g + i;
                        let cap_base = super::CapWord::base_from_halves(
                            u64::from_le_bytes(halves[2 * g]),
                            u64::from_le_bytes(halves[2 * g + 1]),
                        );
                        kill |= shadow.painted_bit(cap_base) << i;
                    }
                }
            }
            if kill != 0 {
                tags[w] &= !kill;
                let zero128 = _mm_setzero_si128();
                let pm = data.as_mut_ptr();
                let mut bits = kill;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let g = lo_g + b;
                    // SAFETY: g < g1 <= data.len() / 16, one 16-byte
                    // store inside the slice (no alignment requirement).
                    unsafe { _mm_storeu_si128(pm.add(g * 16).cast(), zero128) };
                    stats.caps_revoked += 1;
                }
            }
            w += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        sweep_register_file, CapDirtyPages, NoFilter, ParallelSweepEngine, RangeSource,
        SegmentSource, SpaceSource, SweepEngine,
    };
    use cheri::Capability;
    use tagmem::{AddressSpace, RegisterFile, TaggedMemory};

    const HEAP: u64 = 0x1000_0000;
    const LEN: u64 = 1 << 18;

    /// Builds a segment with `n` capabilities, half pointing at painted
    /// granules. Returns (memory, shadow, expected revocations).
    fn scenario(n: u64) -> (TaggedMemory, ShadowMap, u64) {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let mut shadow = ShadowMap::new(HEAP, LEN);
        let mut expect = 0;
        for i in 0..n {
            let obj_base = HEAP + 0x8000 + i * 64;
            let cap = Capability::root_rw(obj_base, 64);
            mem.write_cap(HEAP + i * 16, &cap).unwrap();
            if i % 2 == 0 {
                shadow.paint(obj_base, 64);
                expect += 1;
            }
        }
        (mem, shadow, expect)
    }

    fn sweep_segment(kernel: Kernel, mem: &mut TaggedMemory, shadow: &ShadowMap) -> SweepStats {
        SweepEngine::new(kernel).sweep(SegmentSource::new(mem), NoFilter, shadow)
    }

    fn sweep_range(
        kernel: Kernel,
        mem: &mut TaggedMemory,
        shadow: &ShadowMap,
        start: u64,
        len: u64,
    ) -> SweepStats {
        SweepEngine::new(kernel).sweep(RangeSource::new(mem, start, len), NoFilter, shadow)
    }

    fn all_kernels() -> Vec<Kernel> {
        vec![
            Kernel::Simple,
            Kernel::Unrolled,
            Kernel::Wide,
            Kernel::Fast,
            Kernel::Simd,
        ]
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Simple.name(), "simple");
        assert_eq!(Kernel::Unrolled.name(), "unrolled");
        assert_eq!(Kernel::Wide.name(), "wide");
        assert_eq!(Kernel::Fast.name(), "fast");
        assert_eq!(Kernel::Simd.name(), "simd");
    }

    #[test]
    fn simd_matches_fast_on_ragged_ranges() {
        // Partial ranges exercise the ragged-edge masks around the vector
        // clean-span skip; the two kernels must agree bit-for-bit.
        for (start_g, len_g) in [(0u64, 37u64), (3, 61), (5, 400), (64, 256), (70, 130)] {
            let (mut fast_mem, shadow, _) = scenario(300);
            let mut simd_mem = fast_mem.clone();
            let fast = sweep_range(
                Kernel::Fast,
                &mut fast_mem,
                &shadow,
                HEAP + start_g * 16,
                len_g * 16,
            );
            let simd = sweep_range(
                Kernel::Simd,
                &mut simd_mem,
                &shadow,
                HEAP + start_g * 16,
                len_g * 16,
            );
            assert_eq!(fast, simd, "range ({start_g}, {len_g})");
            assert_eq!(fast_mem, simd_mem, "range ({start_g}, {len_g})");
        }
    }

    #[test]
    fn forced_scalar_simd_matches_vector_simd() {
        let (mut vec_mem, shadow, expect) = scenario(333);
        let mut scalar_mem = vec_mem.clone();
        let vec_stats = sweep_segment(Kernel::Simd, &mut vec_mem, &shadow);
        force_scalar_kernel(true);
        let scalar_stats = sweep_segment(Kernel::Simd, &mut scalar_mem, &shadow);
        force_scalar_kernel(false);
        assert_eq!(vec_stats, scalar_stats);
        assert_eq!(vec_stats.caps_revoked, expect);
        assert_eq!(vec_mem, scalar_mem);
    }

    #[test]
    fn fast_kernel_sweeps_empty_shadow_with_identical_stats() {
        // The C::IS_FREE bulk path must report the same stats the decoding
        // path would: every tagged word inspected, none revoked.
        let (mut mem, _, _) = scenario(100);
        let empty = ShadowMap::new(HEAP, LEN);
        let fast = sweep_segment(Kernel::Fast, &mut mem, &empty);
        let (mut mem2, _, _) = scenario(100);
        let wide = sweep_segment(Kernel::Wide, &mut mem2, &empty);
        assert_eq!(fast, wide);
        assert_eq!(fast.caps_inspected, 100);
        assert_eq!(fast.caps_revoked, 0);
        assert_eq!(mem, mem2);
    }

    #[test]
    fn stats_addassign_saturates() {
        let mut a = SweepStats {
            bytes_swept: u64::MAX - 1,
            caps_inspected: u64::MAX,
            ..SweepStats::default()
        };
        let b = SweepStats {
            bytes_swept: 100,
            caps_inspected: 7,
            lines_skipped: 3,
            ..SweepStats::default()
        };
        a += b;
        assert_eq!(a.bytes_swept, u64::MAX, "saturates instead of wrapping");
        assert_eq!(a.caps_inspected, u64::MAX);
        assert_eq!(a.lines_skipped, 3);
    }

    #[test]
    fn merge_parallel_sums_work_but_not_plan_counters() {
        let worker = SweepStats {
            segments_swept: 1,
            bytes_swept: 1000,
            caps_inspected: 10,
            caps_revoked: 4,
            regs_revoked: 1,
            pages_skipped: 5,
            lines_skipped: 9,
            chunks_retried: 1,
        };
        let merged = SweepStats::merge_parallel([worker, worker]);
        assert_eq!(merged.bytes_swept, 2000);
        assert_eq!(merged.caps_inspected, 20);
        assert_eq!(merged.caps_revoked, 8);
        assert_eq!(merged.regs_revoked, 2);
        // Retries are work-level: each worker's own retries count.
        assert_eq!(merged.chunks_retried, 2);
        // Plan-level counters are not double-counted across workers.
        assert_eq!(merged.segments_swept, 0);
        assert_eq!(merged.pages_skipped, 0);
        assert_eq!(merged.lines_skipped, 0);
    }

    #[test]
    fn merge_parallel_saturates() {
        let big = SweepStats {
            caps_revoked: u64::MAX / 2 + 1,
            ..SweepStats::default()
        };
        let merged = SweepStats::merge_parallel([big, big, big]);
        assert_eq!(merged.caps_revoked, u64::MAX);
    }

    #[test]
    fn all_kernels_agree_on_revocations() {
        for kernel in all_kernels() {
            let (mut mem, shadow, expect) = scenario(100);
            let stats = sweep_segment(kernel, &mut mem, &shadow);
            assert_eq!(stats.caps_inspected, 100, "{kernel:?}");
            assert_eq!(stats.caps_revoked, expect, "{kernel:?}");
            assert_eq!(stats.bytes_swept, LEN);
            // Surviving capabilities: odd indices.
            for i in 0..100u64 {
                let c = mem.read_cap(HEAP + i * 16).unwrap();
                assert_eq!(c.tag(), i % 2 == 1, "{kernel:?} granule {i}");
            }
        }
    }

    #[test]
    fn revoked_words_are_zeroed() {
        let (mut mem, shadow, _) = scenario(10);
        sweep_segment(Kernel::Wide, &mut mem, &shadow);
        let (word, tag) = mem.read_cap_word(HEAP).unwrap();
        assert!(!tag);
        assert_eq!(
            word.bits(),
            0,
            "paper's loop stores zero over dangling pointers"
        );
    }

    #[test]
    fn untagged_data_is_never_touched() {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        // Plant data that *looks* like a capability to painted memory.
        let fake = Capability::root_rw(HEAP + 0x40, 64);
        mem.write_cap(HEAP, &fake.cleared()).unwrap(); // untagged!
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 64);
        for kernel in all_kernels() {
            let stats = sweep_segment(kernel, &mut mem, &shadow);
            assert_eq!(stats.caps_inspected, 0);
            assert_eq!(stats.caps_revoked, 0);
        }
        // The data survives (it is not a pointer, just data).
        let (word, _) = mem.read_cap_word(HEAP).unwrap();
        assert_ne!(word.bits(), 0);
    }

    #[test]
    fn interior_pointers_are_revoked_via_base() {
        // A capability whose *address* has wandered past the object still
        // dangles: revocation keys on the base (§3.2 footnote 2).
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let obj = Capability::root_rw(HEAP + 0x100, 64);
        let wandered = obj.incremented(64).unwrap(); // one past the end
        mem.write_cap(HEAP, &wandered).unwrap();
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x100, 64);
        let stats = sweep_segment(Kernel::Wide, &mut mem, &shadow);
        assert_eq!(stats.caps_revoked, 1);
    }

    #[test]
    fn capabilities_to_unpainted_memory_survive() {
        let mut mem = TaggedMemory::new(HEAP, LEN);
        let obj = Capability::root_rw(HEAP + 0x100, 64);
        mem.write_cap(HEAP, &obj).unwrap();
        let shadow = ShadowMap::new(HEAP, LEN);
        let stats = sweep_segment(Kernel::Wide, &mut mem, &shadow);
        assert_eq!(stats.caps_inspected, 1);
        assert_eq!(stats.caps_revoked, 0);
        assert!(mem.read_cap(HEAP).unwrap().tag());
    }

    #[test]
    fn register_file_is_swept() {
        let mut regs = RegisterFile::new();
        regs.set(0, Capability::root_rw(HEAP + 0x40, 64));
        regs.set(1, Capability::root_rw(HEAP + 0x1000, 64));
        let mut shadow = ShadowMap::new(HEAP, LEN);
        shadow.paint(HEAP + 0x40, 64);
        let stats = sweep_register_file(&mut regs, &shadow);
        assert_eq!(stats.regs_revoked, 1);
        assert!(!regs.get(0).tag());
        assert!(regs.get(1).tag());
    }

    #[test]
    fn sweep_space_covers_all_root_segments() {
        use tagmem::SegmentKind;
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .segment(SegmentKind::Stack, 0x7fff_0000, 1 << 16)
            .segment(SegmentKind::Globals, 0x60_0000, 1 << 16)
            .build();
        let obj = Capability::root_rw(HEAP + 0x40, 64);
        // Dangling references scattered across all segments + a register.
        space.store_cap(HEAP + 0x1000, &obj).unwrap();
        space.store_cap(0x7fff_0100, &obj).unwrap();
        space.store_cap(0x60_0040, &obj).unwrap();
        space.registers_mut().set(5, obj);
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        let (source, _) = SpaceSource::split(&mut space);
        let stats = SweepEngine::new(Kernel::Wide).sweep(source, NoFilter, &shadow);
        assert_eq!(stats.caps_revoked, 4);
        assert_eq!(stats.segments_swept, 3);
        assert_eq!(space.tag_count(), 0);
    }

    #[test]
    fn capdirty_skipping_finds_everything_and_recleans() {
        use tagmem::SegmentKind;
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16) // 16 pages
            .build();
        let obj = Capability::root_rw(HEAP + 0x40, 64);
        space.store_cap(HEAP + 0x2000, &obj).unwrap();
        // Overwrite with data: page stays CapDirty (false positive).
        space.store_cap(HEAP + 0x5000, &obj).unwrap();
        space.store_u64(HEAP + 0x5000, 0).unwrap();
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        let (source, table) = SpaceSource::split(&mut space);
        let stats =
            SweepEngine::new(Kernel::Wide).sweep(source, CapDirtyPages::new(table), &shadow);
        assert_eq!(stats.caps_revoked, 1);
        assert_eq!(stats.pages_skipped, 14, "14 never-dirty pages skipped");
        // The false-positive page was re-cleaned.
        assert!(!space.page_table().is_cap_dirty(HEAP + 0x5000));
        // And the genuinely swept page stays dirty (it held a cap, now
        // revoked — next sweep may re-clean it).
        assert!(space.page_table().is_cap_dirty(HEAP + 0x2000));
    }

    #[test]
    fn skipping_sweep_equals_full_sweep() {
        use tagmem::SegmentKind;
        for seed in 0..5u64 {
            let build = || {
                let mut space = AddressSpace::builder()
                    .segment(SegmentKind::Heap, HEAP, 1 << 16)
                    .build();
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                for _ in 0..40 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let slot = HEAP + (x >> 20) % ((1 << 16) - 16) / 16 * 16;
                    let obj = HEAP + ((x >> 40) % 4096) * 16;
                    let cap = Capability::root_rw(obj, 16);
                    space.store_cap(slot, &cap).unwrap();
                }
                space
            };
            let mut shadow = ShadowMap::new(HEAP, 1 << 16);
            for g in 0..4096u64 {
                if g % 3 == 0 {
                    shadow.paint(HEAP + g * 16, 16);
                }
            }
            let mut full = build();
            let mut skip = build();
            let engine = SweepEngine::new(Kernel::Wide);
            let a = engine.sweep(SpaceSource::split(&mut full).0, NoFilter, &shadow);
            let (source, table) = SpaceSource::split(&mut skip);
            let b = engine.sweep(source, CapDirtyPages::new(table), &shadow);
            assert_eq!(a.caps_revoked, b.caps_revoked, "seed {seed}");
            assert_eq!(full.tag_count(), skip.tag_count(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_engine_handles_odd_partitions() {
        for threads in [1, 2, 3, 7, 16] {
            let (mut mem, shadow, expect) = scenario(333);
            let stats = ParallelSweepEngine::new(Kernel::Wide, threads).sweep(
                SegmentSource::new(&mut mem),
                NoFilter,
                &shadow,
            );
            assert_eq!(stats.caps_revoked, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_range_respects_bounds() {
        let (mut mem, shadow, _) = scenario(100);
        // Sweep only the first 32 granules (two tag words): 16 caps live
        // there (i = 0..32 at 16-byte spacing → granules 0..32).
        let stats = sweep_range(Kernel::Wide, &mut mem, &shadow, HEAP, 32 * 16);
        assert_eq!(stats.caps_inspected, 32);
        // Capabilities outside the range are untouched even if dangling:
        // granule 40 holds a cap to a painted object (i=40 is even).
        assert!(mem.read_cap(HEAP + 40 * 16).unwrap().tag());
        assert_eq!(stats.bytes_swept, 32 * 16);
    }
}

#[cfg(test)]
mod line_skip_tests {
    use super::*;
    use crate::engine::{CLoadTagsLines, CapDirtyPages, NoFilter, SpaceSource, SweepEngine};
    use cheri::Capability;
    use tagmem::{AddressSpace, SegmentKind};

    const HEAP: u64 = 0x1000_0000;

    fn seeded_space() -> (AddressSpace, ShadowMap) {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .build();
        let doomed = Capability::root_rw(HEAP + 0x40, 64);
        let live = Capability::root_rw(HEAP + 0x200, 64);
        space.store_cap(HEAP + 0x1000, &doomed).unwrap();
        space.store_cap(HEAP + 0x1080, &live).unwrap(); // next line, same page
        space.store_cap(HEAP + 0x7000, &doomed).unwrap(); // other page
        let mut shadow = ShadowMap::new(HEAP, 1 << 16);
        shadow.paint(HEAP + 0x40, 64);
        (space, shadow)
    }

    /// Sweeps with both hardware assists (§3.4): PTE CapDirty skips clean
    /// pages, and within dirty pages `CLoadTags` skips capability-free
    /// cache lines.
    fn sweep_skipping_lines(space: &mut AddressSpace, shadow: &ShadowMap) -> SweepStats {
        let (source, table) = SpaceSource::split(space);
        SweepEngine::new(Kernel::Wide).sweep(
            source,
            (CapDirtyPages::new(table), CLoadTagsLines::new()),
            shadow,
        )
    }

    #[test]
    fn line_skipping_agrees_with_full_sweep() {
        let (mut a, shadow) = seeded_space();
        let (mut b, _) = seeded_space();
        let full =
            SweepEngine::new(Kernel::Wide).sweep(SpaceSource::split(&mut a).0, NoFilter, &shadow);
        let skip = sweep_skipping_lines(&mut b, &shadow);
        assert_eq!(full.caps_revoked, skip.caps_revoked);
        assert_eq!(a.tag_count(), b.tag_count());
        assert_eq!(skip.caps_revoked, 2);
    }

    #[test]
    fn line_skipping_skips_both_granularities() {
        let (mut space, shadow) = seeded_space();
        let stats = sweep_skipping_lines(&mut space, &shadow);
        // 16 pages total, 2 dirty, 14 skipped at page level.
        assert_eq!(stats.pages_skipped, 14);
        // Dirty pages hold 2×32 = 64 lines; only 3 hold tags.
        assert_eq!(stats.lines_skipped, 61);
        // Bytes actually walked: three lines.
        assert_eq!(stats.bytes_swept, 3 * tagmem::LINE_SIZE);
    }

    #[test]
    fn line_skipping_recleans_false_positive_pages() {
        let mut space = AddressSpace::builder()
            .segment(SegmentKind::Heap, HEAP, 1 << 16)
            .build();
        let cap = Capability::root_rw(HEAP + 0x40, 64);
        space.store_cap(HEAP + 0x2000, &cap).unwrap();
        space.store_u64(HEAP + 0x2000, 0).unwrap(); // tag gone, page still dirty
        let shadow = ShadowMap::new(HEAP, 1 << 16);
        sweep_skipping_lines(&mut space, &shadow);
        assert!(!space.page_table().is_cap_dirty(HEAP + 0x2000));
    }
}
