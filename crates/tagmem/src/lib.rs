//! Tagged memory and page tables with CapDirty bits — the memory
//! substrate CHERIvoke sweeps.
//!
//! CHERI memory attaches one out-of-band **tag bit to every 16-byte
//! granule** (paper §2.2): the bit is set only by legitimate capability
//! stores and cleared by any data write, making capabilities unforgeable and
//! *architecturally visible*. This crate models:
//!
//! * [`TaggedMemory`] — a contiguous segment of byte-addressable memory plus
//!   its tag bitmap; data writes clear tags, capability reads/writes move
//!   [`cheri::CapWord`]s with their tags, and [`TaggedMemory::load_tags`]
//!   is the **CLoadTags** instruction (paper §3.4.1) that lets a sweep
//!   skip capability-free cache lines without touching their data.
//! * [`AddressSpace`] — the program's memory image: heap, stack and globals
//!   segments, a [`RegisterFile`], and a [`PageTable`] whose **CapDirty**
//!   bits record which pages have ever held capabilities (paper §3.4.2).
//! * [`CoreDump`] — snapshots of an address space, mirroring the paper's
//!   methodology of sweeping application memory dumps (§5.3).
//!
//! # Example
//!
//! ```
//! use cheri::{Capability, Perms};
//! use tagmem::{AddressSpace, SegmentKind};
//!
//! # fn main() -> Result<(), tagmem::MemError> {
//! let mut space = AddressSpace::builder()
//!     .segment(SegmentKind::Heap, 0x1000_0000, 1 << 20)
//!     .build();
//!
//! // Store a capability: memory remembers the tag, the PTE turns CapDirty.
//! let cap = Capability::root_rw(0x1000_0040, 64);
//! space.store_cap(0x1000_0100, &cap)?;
//! assert!(space.load_cap(0x1000_0100)?.tag());
//! assert!(space.page_table().is_cap_dirty(0x1000_0100));
//!
//! // A data write to the same granule destroys the tag (unforgeability).
//! space.store_u64(0x1000_0100, 0xdead_beef)?;
//! assert!(!space.load_cap(0x1000_0100)?.tag());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addrspace;
mod error;
mod memory;
mod pagetable;
mod regfile;
mod snapshot;
pub mod snapshot_io;

pub use addrspace::{AddressSpace, AddressSpaceBuilder, Segment, SegmentKind};
pub use error::MemError;
pub use memory::TaggedMemory;
pub use pagetable::{PageTable, PAGE_SIZE};
pub use regfile::{RegisterFile, NUM_CAP_REGS};
pub use snapshot::{CoreDump, PointerStats, SegmentImage};

/// Bytes per tag granule (one tag bit covers this much data).
pub const GRANULE_SIZE: u64 = cheri::GRANULE;

/// Bytes per cache line in the modelled CHERI memory subsystem (CHERI-MIPS
/// uses 128-byte lines; `CLoadTags` returns one tag mask per line).
pub const LINE_SIZE: u64 = 128;

/// Tag granules per cache line.
pub const GRANULES_PER_LINE: u64 = LINE_SIZE / GRANULE_SIZE;
