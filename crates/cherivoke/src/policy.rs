//! Revocation policy: when and how to sweep.

use cvkalloc::QuarantineConfig;
use revoker::{Kernel, MAX_SWEEP_WORKERS};

use crate::HeapError;

/// The revocation lifecycle a [`RevocationPolicy`] runs. Stock CHERIvoke
/// (paper §3) is the only one, so this is not a knob: the type is kept
/// because callers print [`RevocationPolicy::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The paper's lifecycle: each epoch seals the whole quarantine, and
    /// sweeps skip only CapDirty-clean pages (when
    /// [`RevocationPolicy::use_capdirty`] is set).
    #[default]
    Stock,
}

/// Controls when sweeps trigger and how they execute.
///
/// # Examples
///
/// ```
/// use cherivoke::{Kernel, RevocationPolicy};
///
/// let p = RevocationPolicy::paper_default();
/// assert!((p.quarantine.fraction - 0.25).abs() < 1e-9);
///
/// // A debugging policy that revokes on every free (§3.7's "strict
/// // use-after-free for debugging").
/// let strict = RevocationPolicy { strict: true, ..RevocationPolicy::paper_default() };
/// assert!(strict.strict);
/// let _ = Kernel::Simple;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationPolicy {
    /// Quarantine sizing (sweep trigger): the paper's default is 25% of the
    /// live heap.
    pub quarantine: QuarantineConfig,
    /// Sweep on *every* free — strict use-after-free detection for
    /// debugging (§3.7). Expensive; not for deployment.
    pub strict: bool,
    /// The sweep kernel to use (§6.2's optimisation tiers).
    pub kernel: Kernel,
    /// Use PTE CapDirty filtering to skip capability-free pages (§3.4.2).
    pub use_capdirty: bool,
    /// Attempt an emergency sweep (instead of failing) when an allocation
    /// hits out-of-memory while quarantine holds reusable space.
    pub sweep_on_oom: bool,
    /// Incremental revocation (paper §3.5): when set, sweeps run as
    /// bounded slices of this many bytes interleaved with execution
    /// instead of stop-the-world pauses, with capability load/store
    /// barriers keeping the interleaving sound. `None` = stop-the-world.
    pub incremental_slice_bytes: Option<u64>,
    /// Worker threads for each sweep (§3.5's parallel sweeps): 1 runs
    /// sequentially; more fan chunk execution out across a scoped pool via
    /// [`revoker::SweepEngine`]. At most [`MAX_SWEEP_WORKERS`]
    /// ([`RevocationPolicy::validated`] clamps larger counts).
    pub sweep_workers: usize,
    /// The revocation lifecycle: always [`BackendKind::Stock`], the paper's.
    /// It carries no choice; run reports print it.
    pub backend: BackendKind,
}

impl RevocationPolicy {
    /// The configuration evaluated in the paper: 25% quarantine, buffered
    /// (non-strict) revocation, CapDirty page skipping, one sweep worker,
    /// and the vectorised [`Kernel::Simd`] (the AVX2 tier of the paper's
    /// Fig. 7). Without AVX2/NEON, or under a cost model, Simd runs the
    /// scalar [`Kernel::Fast`] and matches it bit for bit. Other
    /// configurations set these fields.
    pub fn paper_default() -> RevocationPolicy {
        RevocationPolicy {
            quarantine: QuarantineConfig::paper_default(),
            strict: false,
            kernel: Kernel::Simd,
            use_capdirty: true,
            sweep_on_oom: true,
            incremental_slice_bytes: None,
            sweep_workers: 1,
            backend: BackendKind::Stock,
        }
    }

    /// A policy with a different quarantine fraction (the fig. 9 knob).
    pub fn with_fraction(fraction: f64) -> RevocationPolicy {
        RevocationPolicy {
            quarantine: QuarantineConfig::with_fraction(fraction),
            ..RevocationPolicy::paper_default()
        }
    }

    /// Validates and normalises the policy, as heap/service constructors
    /// do. Values no clamp can repair — a NaN or non-positive quarantine
    /// fraction — are typed [`HeapError::InvalidConfig`] errors; values
    /// with an obvious safe reading are clamped with a warning: a
    /// `sweep_workers` of 0 becomes 1 and one above [`MAX_SWEEP_WORKERS`]
    /// becomes the maximum. Returns the normalised policy and the warnings
    /// (callers print them to stderr).
    ///
    /// A finite fraction above 1.0 is *valid* (the fig. 9 trade-off sweeps
    /// past 1.0: quarantine may outgrow the live heap) but warned about;
    /// `f64::INFINITY` is the documented "never trigger by size" sentinel
    /// and passes silently.
    pub fn validated(mut self) -> Result<(RevocationPolicy, Vec<String>), HeapError> {
        let fraction = self.quarantine.fraction;
        if fraction.is_nan() || fraction <= 0.0 {
            return Err(HeapError::InvalidConfig(
                "quarantine fraction must be > 0 (f64::INFINITY disables the size trigger)",
            ));
        }
        let mut warnings = Vec::new();
        if fraction.is_finite() && fraction > 1.0 {
            warnings.push(format!(
                "quarantine fraction {fraction} exceeds 1.0: quarantine may outgrow \
                 the live heap (valid for trade-off sweeps, unusual in deployment)"
            ));
        }
        if self.sweep_workers == 0 {
            warnings.push("sweep_workers 0 cannot execute; clamping to 1".to_string());
            self.sweep_workers = 1;
        } else if self.sweep_workers > MAX_SWEEP_WORKERS {
            warnings.push(format!(
                "sweep_workers {} exceeds the maximum {MAX_SWEEP_WORKERS}; clamping",
                self.sweep_workers
            ));
            self.sweep_workers = MAX_SWEEP_WORKERS;
        }
        if self.incremental_slice_bytes == Some(0) {
            warnings.push(
                "incremental_slice_bytes 0 makes no sweep progress; clamping to one \
                 granule (16 B)"
                    .to_string(),
            );
            self.incremental_slice_bytes = Some(16);
        }
        Ok((self, warnings))
    }
}

impl Default for RevocationPolicy {
    fn default() -> Self {
        RevocationPolicy::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = RevocationPolicy::default();
        assert_eq!(p.quarantine.fraction, 0.25);
        assert!(!p.strict);
        assert!(p.use_capdirty);
        assert!(p.sweep_on_oom);
        assert!(
            p.incremental_slice_bytes.is_none(),
            "paper evaluates stop-the-world"
        );
        assert_eq!(p.kernel, Kernel::Simd);
        assert_eq!(p.sweep_workers, 1);
        assert_eq!(p.backend, BackendKind::Stock);
    }

    #[test]
    fn with_fraction_overrides_only_quarantine() {
        let p = RevocationPolicy::with_fraction(1.0);
        assert_eq!(
            p,
            RevocationPolicy {
                quarantine: QuarantineConfig::with_fraction(1.0),
                ..RevocationPolicy::paper_default()
            }
        );
    }

    #[test]
    fn validation_rejects_unrepairable_fractions() {
        for bad in [f64::NAN, 0.0, -0.25, f64::NEG_INFINITY] {
            let p = RevocationPolicy::with_fraction(bad);
            assert!(
                matches!(p.validated(), Err(HeapError::InvalidConfig(_))),
                "fraction {bad} must be rejected"
            );
        }
        // INFINITY is the documented "no size trigger" sentinel: valid,
        // no warning.
        let (_, warnings) = RevocationPolicy::with_fraction(f64::INFINITY)
            .validated()
            .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        // Finite > 1 is valid (fig. 9 sweeps past 1.0) but warned.
        let (p, warnings) = RevocationPolicy::with_fraction(2.0).validated().unwrap();
        assert_eq!(p.quarantine.fraction, 2.0);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn validation_clamps_with_warnings() {
        let p = RevocationPolicy {
            sweep_workers: 0,
            incremental_slice_bytes: Some(0),
            ..RevocationPolicy::paper_default()
        };
        let (fixed, warnings) = p.validated().unwrap();
        assert_eq!(fixed.sweep_workers, 1);
        assert_eq!(fixed.incremental_slice_bytes, Some(16));
        assert_eq!(warnings.len(), 2);

        let p = RevocationPolicy {
            sweep_workers: 10_000,
            ..RevocationPolicy::paper_default()
        };
        let (fixed, warnings) = p.validated().unwrap();
        assert_eq!(fixed.sweep_workers, revoker::MAX_SWEEP_WORKERS);
        assert_eq!(warnings.len(), 1);
    }
}
