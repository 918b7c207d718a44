//! **CHERIvoke**: deterministic, fast sweeping revocation for heap temporal
//! memory safety on CHERI (the paper's primary contribution, §3).
//!
//! [`CherivokeHeap`] is the complete system: a quarantining
//! `dlmalloc_cherivoke` allocator, the revocation [`revoker::ShadowMap`],
//! and the memory sweep, orchestrated by a [`RevocationPolicy`]. The
//! life-cycle is figure 3's:
//!
//! 1. [`CherivokeHeap::malloc`] returns a **capability** whose bounds cover
//!    exactly the allocation.
//! 2. [`CherivokeHeap::free`] validates the capability and moves the chunk
//!    into the quarantine buffer — the address space is *not* reusable yet,
//!    so no use-after-reallocation is possible.
//! 3. When quarantine reaches the configured fraction of the heap, the
//!    heap paints the shadow map, sweeps every root (heap, stack, globals,
//!    registers), revokes every dangling capability, clears the shadow
//!    map, and recycles the quarantined memory.
//!
//! After the sweep, **no reference to the freed memory exists anywhere in
//! the program**, so reallocation is safe even against adversarial pointer
//! copies (§4.2).
//!
//! The analytic cost model of §6.1.3 is available as [`OverheadModel`].
//!
//! # Example: a use-after-free attack, stopped
//!
//! ```
//! use cherivoke::{CherivokeHeap, HeapConfig};
//! use cheri::CapError;
//!
//! # fn main() -> Result<(), cherivoke::HeapError> {
//! let mut heap = CherivokeHeap::new(HeapConfig::default())?;
//!
//! // The program allocates an object and stashes a second pointer to it.
//! let obj = heap.malloc(64)?;
//! let stash_slot = heap.malloc(16)?;
//! heap.store_cap(&stash_slot, 0, &obj)?;
//!
//! // The object is freed; the stashed pointer now dangles.
//! heap.free(obj)?;
//!
//! // Force the revocation sweep (normally policy-triggered).
//! heap.revoke_now();
//!
//! // The dangling copy has been revoked in place:
//! let dangling = heap.load_cap(&stash_slot, 0)?;
//! assert!(!dangling.tag());
//! assert_eq!(heap.load_u64(&dangling, 0), Err(cherivoke::HeapError::Cap(CapError::TagCleared)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod error;
pub mod fleet;
mod heap;
mod model;
mod obs;
mod policy;
pub mod recovery;
mod service;
mod stats;

pub use error::HeapError;
pub use fleet::{
    FleetConfig, FleetError, FleetStats, HeapService, TenantCrashArtifact, TenantPolicy,
    TenantRecovery,
};
pub use heap::{CherivokeHeap, HeapConfig};
pub use model::OverheadModel;
pub use policy::{BackendKind, RevocationPolicy};
pub use recovery::{
    HeapImage, ImageChunk, ImageChunkState, RecoveryAction, RecoveryError, RecoveryReport,
};
pub use service::{ConcurrentHeap, HeapClient, ServiceConfig};
pub use stats::{HeapStats, ServiceStats, ShardStats};

pub use cvkalloc::QuarantineConfig;
pub use revoker::{AuditReport, AuditViolation, Kernel};

/// Deterministic fault injection ([`fault::FaultInjector`],
/// [`fault::FaultPlan`]), armed by passing `FaultInjector::new(plan)` to a
/// runtime's `with_journal_dir` — re-exported so chaos harnesses depend
/// only on `cherivoke`.
pub use faultinject as fault;
