//! Benchmark workloads and the experiment driver (paper §5).
//!
//! The paper evaluates CHERIvoke on SPEC CPU2006 plus ffmpeg. Those exact
//! binaries and reference inputs are not reproducible here, but the paper
//! itself proves (§6.1.3) that CHERIvoke's costs depend only on a small set
//! of per-application statistics — **free rate**, **pointer density**, and
//! allocation granularity — which the paper publishes in Table 2. This
//! crate regenerates equivalent workloads from those statistics:
//!
//! * [`BenchmarkProfile`] — one entry per Table 2 row (free rate in MiB/s,
//!   frees per second, fraction of pages holding pointers), extended with
//!   calibrated heap sizes and cache-sensitivity parameters.
//! * [`TraceGenerator`] — deterministic, seeded allocation traces matching
//!   a profile's statistics: timestamped malloc/free/pointer-write events
//!   with a feedback controller that steers the realised pointer density
//!   onto the profile's value.
//! * [`WorkloadHeap`] / [`run_trace`] — the driver: replays a trace against
//!   any system under test (CHERIvoke or the `baselines` crate's
//!   comparators) and reports normalised execution time and memory, with
//!   the fig. 6 breakdown (quarantine / shadow / sweep).
//! * [`CherivokeUnderTest`] — the adapter wiring a real
//!   [`cherivoke::CherivokeHeap`] into the driver, with the measured-cost
//!   model of §5.2–5.3 (quarantine op costs, shadow painting rate, sweep
//!   scan rate).
//!
//! # Example
//!
//! ```
//! use workloads::{profiles, CherivokeUnderTest, CostModel, TraceGenerator};
//!
//! let profile = profiles::by_name("dealII").unwrap();
//! let trace = TraceGenerator::new(profile, 1.0 / 1024.0, 42).generate();
//! let mut sut = CherivokeUnderTest::paper_default(&trace).unwrap();
//! let report = workloads::run_trace(&mut sut, &trace).unwrap();
//! assert!(report.normalized_time >= 1.0 - 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod driver;
pub mod profiles;
mod table2;
mod trace;
pub mod trace_io;

pub use adapter::{CherivokeUnderTest, CostModel, Stage};
pub use driver::{run_trace, MechanismBreakdown, ReplayError, RunReport, WorkloadHeap};
pub use profiles::BenchmarkProfile;
pub use table2::{measure_table2, Table2Row};
pub use trace::{Trace, TraceEvent, TraceGenerator, TraceOp};
