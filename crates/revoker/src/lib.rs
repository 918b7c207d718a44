//! Revocation machinery: the shadow map and the sweeping procedure
//! (paper §3.2–§3.5).
//!
//! CHERIvoke revokes dangling capabilities by:
//!
//! 1. **Painting** the quarantined allocation granules into a
//!    [`ShadowMap`] — one bit per 16-byte granule, 1/128 of the heap —
//!    using wide aligned stores where possible (§5.2).
//! 2. **Sweeping** every segment that can hold capabilities (heap, stack,
//!    globals, register file): each tagged word's *base* indexes the shadow
//!    map; a painted base means the capability dangles and its tag is
//!    cleared (§3.3's inner loop).
//! 3. Optionally skipping work with the paper's two hardware assists:
//!    **PTE CapDirty** bits skip whole capability-free pages and
//!    **CLoadTags** skips capability-free cache lines (§3.4) — see
//!    [`visit_set`], [`CLoadTagsLines`] and [`timed`].
//!
//! Sweep kernels come in the tiers the paper benchmarks in Figure 7: the
//! naïve [`Kernel::Simple`], the word-skipping [`Kernel::Unrolled`], the
//! word-at-a-time scalar [`Kernel::Fast`] and the vectorised
//! [`Kernel::Simd`] that heaps run by default (falling back to Fast
//! without AVX2/NEON).
//!
//! All tag-exact sweeping runs through the [`engine`] module's one
//! [`SweepEngine`]: a composition of a visit set's runs over a slice of
//! memories (what to walk), a [`GranuleFilter`] (what to skip), and a
//! [`Kernel`] (the inner loop). The register file is swept beside it with
//! [`sweep_register_file`].
//! The same engine splits a sweep across worker threads, exploiting the
//! embarrassing parallelism of §3.5, and replays it against a cost model
//! for the timed figures.
//!
//! # Example
//!
//! ```
//! use cheri::Capability;
//! use revoker::{sweep_register_file, visit_set, CapDirtyPurge, Kernel, ShadowMap, SweepEngine};
//! use tagmem::{AddressSpace, SegmentKind};
//!
//! # fn main() -> Result<(), tagmem::MemError> {
//! let heap_base = 0x1000_0000u64;
//! let mut space = AddressSpace::builder()
//!     .segment(SegmentKind::Heap, heap_base, 1 << 20)
//!     .build();
//!
//! // The program holds a capability to a (soon-dangling) object.
//! let obj = Capability::root_rw(heap_base + 0x40, 64);
//! space.store_cap(heap_base + 0x1000, &obj)?;
//!
//! // The allocator quarantines the object and paints its granules.
//! let mut shadow = ShadowMap::new(heap_base, 1 << 20);
//! shadow.paint(heap_base + 0x40, 64);
//!
//! // One sweep later the stored capability is revoked: build the visit
//! // set (the PTE CapDirty runs of each sweepable segment, §3.4.2), then
//! // sweep those runs with a kernel, re-cleaning CapDirty false positives,
//! // then sweep the register file.
//! let mut runs = Vec::new();
//! let clean_pages = visit_set(&space, true, &mut runs);
//! let (segments, registers, page_table) = space.sweep_parts_mut();
//! let mut stats = SweepEngine::new(Kernel::Simd).sweep(
//!     segments,
//!     &runs,
//!     CapDirtyPurge::new(page_table),
//!     &shadow,
//! );
//! stats += sweep_register_file(registers, &shadow);
//! assert_eq!(stats.caps_revoked, 1);
//! assert_eq!(clean_pages, 255, "one of the heap's 256 pages is swept");
//! assert!(!space.load_cap(heap_base + 0x1000)?.tag());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod conservative;
pub mod engine;
pub mod obs;
mod plan;
mod shadow;
mod sweep;
pub mod timed;

pub use audit::{audit_dump, AuditReport, AuditViolation};
pub use engine::{
    segment_runs, sweep_register_file, visit_set, CLoadTagsLines, CapDirtyPurge, EveryLine,
    FilterGranularity, GranuleFilter, IdealLines, NoCost, NoFilter, SweepCost, SweepEngine,
    SweepScratch, MAX_SWEEP_WORKERS,
};
/// Deterministic fault injection for chaos testing the sweep machinery
/// (re-export of the `faultinject` crate; see its docs for plan syntax).
pub use faultinject as fault;
pub use obs::{SweepPhases, SweepTelemetry};
pub use shadow::ShadowMap;
pub use sweep::{Kernel, SweepStats};
