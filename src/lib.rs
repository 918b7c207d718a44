//! Umbrella crate for the CHERIvoke reproduction workspace.
//!
//! This crate exists so that workspace-level integration tests (in `tests/`)
//! and runnable examples (in `examples/`) have a single dependency root. The
//! actual functionality lives in the member crates, re-exported here:
//!
//! * [`cheri`] — software model of CHERI Concentrate capabilities.
//! * [`tagmem`] — tagged memory, hierarchical tag tables, page tables with
//!   CapDirty bits.
//! * [`simcache`] — cycle-approximate cache/DRAM hierarchy model.
//! * [`cvkalloc`] — dlmalloc-style allocator plus the quarantining
//!   `dlmalloc_cherivoke` variant.
//! * [`revoker`] — revocation shadow map and sweeping kernels.
//! * [`cherivoke`] — the paper's contribution: buffered sweeping revocation.
//! * [`baselines`] — comparator systems (Boehm-GC, DangSan, Oscar, pSweeper).
//! * [`workloads`] — benchmark profiles, trace generation, and the driver.

pub use baselines;
pub use cheri;
pub use cherivoke;
pub use cvkalloc;
pub use revoker;
pub use simcache;
pub use tagmem;
pub use workloads;
