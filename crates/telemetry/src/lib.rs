//! Continuous, low-overhead observability for the CHERIvoke runtime.
//!
//! The paper's entire evaluation is a measurement story — free rate,
//! pointer density, sweep rate and quarantine occupancy drive the §6.1.3
//! overhead model — and a revocation service under production traffic is
//! only understandable if exactly those quantities are observable on a
//! *live* run. This crate provides the three layers:
//!
//! * **[`Registry`]** — a lock-free metrics registry. Recording a
//!   [`Counter`], [`Gauge`] or [`LogHistogram`] sample is a single relaxed
//!   atomic RMW; registration (naming a metric) takes a lock once, after
//!   which handles are plain `Arc`s shared by any number of threads.
//!   Handles from a *disabled* registry are `None`-backed: every record
//!   call is one branch and no memory traffic, so instrumentation can stay
//!   compiled into the hot paths permanently.
//! * **Event tracing** — a fixed-capacity ring of structured
//!   [`TelemetryEvent`]s ([`EventKind`]: sweeps, epoch lifecycle,
//!   quarantine seals/drains, foreign sweeps, OOM revocations) for
//!   tailing what the revocation machinery *did*, not just how much.
//! * **Exporters** — deterministic Prometheus text format and JSON
//!   renderings of a [`MetricsSnapshot`], plus a [`PeriodicExporter`]
//!   thread that snapshots a registry on an interval.
//!
//! Snapshots support **delta semantics**: `later.delta(&earlier)` subtracts
//! monotonic counters and histogram buckets while keeping the latest gauge
//! values, which is how a `top`-style viewer derives rates.
//!
//! # Example
//!
//! ```
//! use telemetry::{EventKind, Registry};
//!
//! let registry = Registry::new(64);
//! let sweeps = registry.counter("cvk_sweeps_total");
//! let pause = registry.histogram("cvk_pause_ns");
//! sweeps.inc();
//! pause.record(1500);
//! registry.event(EventKind::Sweep {
//!     bytes_swept: 4096,
//!     caps_inspected: 12,
//!     caps_revoked: 3,
//!     duration_ns: 1500,
//!     workers: 1,
//!     kernel: "simd",
//! });
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["cvk_sweeps_total"], 1);
//! assert!(snap.to_prometheus().contains("cvk_sweeps_total 1"));
//! assert_eq!(registry.recent_events(8).len(), 1);
//!
//! // Disabled telemetry: same call sites, near-zero cost.
//! let off = Registry::disabled();
//! off.counter("cvk_sweeps_total").inc(); // no-op
//! assert!(off.snapshot().counters.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod export;
mod registry;

pub use events::{EventKind, TelemetryEvent};
pub use export::PeriodicExporter;
pub use registry::{
    labeled_name, Counter, Gauge, HistogramSnapshot, LogHistogram, MetricsSnapshot, Registry,
    HIST_BUCKETS,
};
