//! Comparator temporal-safety systems (paper Figure 5).
//!
//! The paper compares CHERIvoke against four software systems from the
//! literature, using their published SPEC CPU2006 results. Those binaries
//! are not reproducible here, so this crate implements each system's
//! *algorithm* over the same simulated heap and drives it with the same
//! traces, charging calibrated unit costs for the operations each design
//! performs. The goal is the figure's **shape** — who wins, whose
//! pathologies fire on which workloads — not the absolute decimals:
//!
//! * [`BoehmGcHeap`] — Boehm–Demers–Weiser-style conservative mark-sweep
//!   garbage collection: manual frees only drop roots; collection pays a
//!   pointer-chasing mark over the live graph plus a conservative root
//!   scan, and garbage accumulates between collections (§7.3).
//! * [`DangSanHeap`] — DangSan-style per-allocation pointer registries:
//!   every pointer store appends to the target's list; `free` walks the
//!   list nullifying entries. Pointer-dense, allocation-heavy programs pay
//!   enormously in both time and registry memory (§7.1).
//! * [`OscarHeap`] — Oscar-style page-permission shadows: every allocation
//!   gets its own virtual page alias, unmapped on free. Costs scale with
//!   allocation *count*, which is fatal for small-object churn (§7.2).
//! * [`PSweeperHeap`] — pSweeper-style concurrent pointer sweeping:
//!   per-store instrumentation plus an asynchronous sweeper that contends
//!   for memory bandwidth (§7.1).
//!
//! All four implement [`workloads::WorkloadHeap`], so they run under the
//! same driver as [`workloads::CherivokeUnderTest`].
//!
//! Two further *partial*-safety schemes from the paper's related work are
//! modelled for the security comparison (they are not fig. 5 systems):
//!
//! * [`MteHeap`] — Arm MTE / SPARC ADI-style 4-bit memory colouring
//!   (§7.5): probabilistic detection an attacker can exhaust.
//! * [`ClingHeap`] — Cling-style type-safe reuse (§7.4): dangling
//!   pointers can only alias same-site objects.
//!
//! # Example
//!
//! ```
//! use baselines::OscarHeap;
//! use workloads::{profiles, run_trace, TraceGenerator};
//!
//! let p = profiles::by_name("xalancbmk").unwrap();
//! let trace = TraceGenerator::new(p, 1.0 / 2048.0, 1).generate();
//! let mut oscar = OscarHeap::new(&trace);
//! let report = run_trace(&mut oscar, &trace).unwrap();
//! // Oscar pays per allocation: small-object churn is its worst case.
//! assert!(report.normalized_time > 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boehm;
mod cling;
mod common;
mod dangsan;
mod mte;
mod oscar;
mod psweeper;

pub use boehm::BoehmGcHeap;
pub use cling::{ClingHeap, SiteId};
pub use common::BaselineCosts;
pub use dangsan::DangSanHeap;
pub use mte::{MteFault, MteHeap, MtePtr, MTE_COLOURS};
pub use oscar::OscarHeap;
pub use psweeper::PSweeperHeap;
