//! The measurement loop shared by every workload: per-op clock reads, the
//! traced/untraced segment plan, layer counters read at segment
//! boundaries, and the correctness gate's bookkeeping.

use std::time::{Duration, Instant};

use crate::hist::{Hist, Percentile};
use crate::spans::Tracer;

/// Untraced segments are measured in windows of this length; end-to-end
/// metrics are medians over windows, which shrugs off a burst of noise
/// from the rest of the host.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Test-visible workload sizes: `Full` is what the benchmark measures,
/// `Tiny` pushes every workload through the same paths in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// How an untraced run tells the ops that ran a revocation (the pauses)
/// from the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The runtime's revocation counter is a field read: it is read after
    /// every op, and an op during which it advanced is a pause.
    EveryOp,
    /// Reading the counter takes the runtime's locks: the workload reads
    /// it every [`SAMPLE_EVERY`] ops and hands it to
    /// [`Recorder::block_end`]. The slowest op of a block during which it
    /// advanced is a pause.
    Blocks,
}

/// Workloads sample memory (and, under [`Probe::Blocks`], the revocation
/// counter) once every this many ops.
pub const SAMPLE_EVERY: u64 = 64;

/// Records every op a load thread issues. Untraced, an op costs one
/// clock read and its latency is the gap since the previous completion.
/// Traced, each op is a span from a clock read before the call to one
/// after it, and the runtime's revocation counter is read after every
/// call to tell which ops ran an epoch.
pub struct Recorder {
    last: Instant,
    lat: Hist,
    windows: Vec<Window>,
    tracer: Tracer,
    tracing: bool,
    probe: Probe,
    /// Latencies of the untraced ops that ran a revocation, ns.
    pauses: Vec<u64>,
    /// The slowest op of the current [`Probe::Blocks`] block, ns.
    block_max: u64,
    next_sample: u64,
    attempted: u64,
    completed: u64,
    failed: u64,
    revocations_seen: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            last: Instant::now(),
            lat: Hist::default(),
            windows: Vec::new(),
            tracer: Tracer::new(),
            tracing: false,
            probe: Probe::EveryOp,
            pauses: Vec::new(),
            block_max: 0,
            next_sample: SAMPLE_EVERY,
            attempted: 0,
            completed: 0,
            failed: 0,
            revocations_seen: 0,
        }
    }

    /// Starts one op and returns its start stamp. Every op started must
    /// be finished.
    pub fn start(&mut self) -> u64 {
        self.attempted += 1;
        self.stamp()
    }

    /// A time stamp for a span edge, read only while tracing.
    pub fn stamp(&self) -> u64 {
        if self.tracing {
            self.tracer.now()
        } else {
            0
        }
    }

    /// Records work inside the op in progress, from `start` to now.
    pub fn child(&mut self, name: &'static str, start: u64) {
        if self.tracing {
            let end = self.tracer.now();
            self.tracer.child(name, start, end);
        }
    }

    /// Completes one op: a call to `name` begun at `start` (from
    /// [`Recorder::start`]) that returned `result`. `revocations` reads the
    /// runtime's revocation counter; untraced, it runs only under
    /// [`Probe::EveryOp`].
    pub fn finish<T, E>(
        &mut self,
        name: &'static str,
        start: u64,
        result: Result<T, E>,
        revocations: impl FnOnce() -> u64,
    ) -> Result<T, E> {
        let now = Instant::now();
        match result {
            Ok(_) => self.completed += 1,
            Err(_) => self.failed += 1,
        }
        if self.tracing {
            let end = self.tracer.at(now);
            let seen = revocations();
            let ran_epoch = seen != self.revocations_seen;
            self.revocations_seen = seen;
            self.tracer
                .finish_op(self.attempted, name, start, end, ran_epoch);
        } else {
            let lat = now.duration_since(self.last).as_nanos() as u64;
            self.lat.record(lat);
            match self.probe {
                Probe::EveryOp => {
                    let seen = revocations();
                    if seen != self.revocations_seen {
                        self.revocations_seen = seen;
                        self.pauses.push(lat);
                    }
                }
                Probe::Blocks => self.block_max = self.block_max.max(lat),
            }
        }
        self.last = now;
        result
    }

    /// Ends a [`Probe::Blocks`] block, given the runtime's revocation
    /// counter read now. Ignored while tracing, which reads the counter
    /// after every op.
    pub fn block_end(&mut self, revocations: u64) {
        if self.tracing {
            return;
        }
        if revocations != self.revocations_seen && self.block_max > 0 {
            self.pauses.push(self.block_max);
        }
        self.revocations_seen = revocations;
        self.block_max = 0;
    }

    /// Latencies of the untraced ops that ran a revocation, ns.
    pub fn pauses(&mut self) -> &mut Vec<u64> {
        &mut self.pauses
    }

    /// True once every [`SAMPLE_EVERY`] ops: time to sample memory.
    pub fn sample_due(&mut self) -> bool {
        if self.attempted < self.next_sample {
            return false;
        }
        self.next_sample = self.attempted + SAMPLE_EVERY;
        true
    }

    /// Restarts the latency clock after load-thread work that is not an op
    /// (memory sampling), so the next op's latency excludes it.
    pub fn resync(&mut self) {
        self.last = Instant::now();
    }

    /// Ops started so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Ops that returned successfully.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Ops that returned an error.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Closes an untraced window of `ops` ops over `secs` seconds.
    fn close_window(&mut self, ops: u64, secs: f64) {
        let lat = std::mem::take(&mut self.lat);
        if let (Some(p50), Some(p99)) = (lat.percentile(50.0), lat.percentile(99.0)) {
            self.windows.push(Window {
                ops,
                secs,
                pct: [p50, p99],
            });
        }
    }

    /// The untraced windows measured so far.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
}

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Cumulative counters of the layers under a runtime, read at
        /// segment boundaries. A field a runtime does not expose stays 0.
        #[derive(Debug, Default, Clone, Copy, PartialEq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// Adds what each counter gained from `earlier` to `later`.
            pub fn add_delta(&mut self, later: &Counters, earlier: &Counters) {
                $(self.$field += later.$field.saturating_sub(earlier.$field);)*
            }
        }
    };
}

counters! {
    epochs,
    bytes_swept,
    bytes_painted,
    pages_skipped,
    caps_inspected,
    caps_revoked,
    internal_frees,
    drains,
    /// Time a background revoker spent sweeping, ns.
    sweep_ns,
    journal_bytes,
    foreign_sweeps,
    emergency_sweeps,
    revoker_restarts,
    barrier_revocations,
    throttled,
    steals,
}

/// One window of an untraced segment: its op count, length, and op
/// latency p50 and p99 in ns.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub secs: f64,
    pub pct: [Percentile; 2],
}

/// A workload: a runtime under a closed-loop load.
pub trait Workload {
    /// Issues the load's next step: a few ops, each started and
    /// finished on the [`Recorder`].
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// The runtime's revocation counter, read after each traced call and,
    /// under [`Probe::EveryOp`], after each untraced one.
    fn revocations(&self) -> u64;
    /// How untraced runs find the ops that ran a revocation.
    fn probe(&self) -> Probe {
        Probe::EveryOp
    }
    /// The layer counters now.
    fn counters(&self) -> Counters;
    /// Figure 5b's memory overhead, averaged over the run (see
    /// [`MemSamples::mem_overhead`]).
    fn mem_overhead(&self) -> f64;
    /// Largest quarantined / (live + quarantined) sampled.
    fn peak_quarantine_frac(&self) -> f64;
    /// Largest quarantine / quota sampled across fleet tenants.
    fn max_budget_fraction(&self) -> f64 {
        0.0
    }
    /// The kernel, backend and sweep workers the runtime resolved.
    fn resolved(&self) -> String;
    /// The correctness gate: a final revocation, a clean audit, and every
    /// stashed capability to a freed object loading untagged.
    fn gate(&mut self) -> Result<(), String>;
}

/// Op counts and wall time of the traced and untraced segments.
#[derive(Debug, Default)]
pub struct Measured {
    pub untraced_ops: u64,
    pub untraced_secs: f64,
    pub traced_ops: u64,
    pub traced_secs: f64,
    /// Counter deltas over the untraced segments.
    pub untraced: Counters,
    /// Counter deltas over the traced segments.
    pub traced: Counters,
}

/// Drives `w` through `plan`: segments of `(traced, length)`.
pub fn measure(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    plan: &[(bool, Duration)],
) -> Result<Measured, String> {
    let mut m = Measured::default();
    rec.probe = w.probe();
    for &(traced, len) in plan {
        let before = w.counters();
        rec.tracing = traced;
        rec.revocations_seen = w.revocations();
        rec.block_max = 0;
        rec.resync();
        let (t0, ops0) = (rec.last, rec.attempted);
        let end = t0 + len;
        let (mut win_start, mut win_ops) = (t0, ops0);
        while rec.last < end {
            w.step(rec)?;
            if !traced && (rec.last >= win_start + WINDOW || rec.last >= end) {
                let secs = (rec.last - win_start).as_secs_f64();
                rec.close_window(rec.attempted - win_ops, secs);
                rec.resync();
                (win_start, win_ops) = (rec.last, rec.attempted);
            }
        }
        let secs = (rec.last - t0).as_secs_f64();
        let ops = rec.attempted - ops0;
        if traced {
            m.traced.add_delta(&w.counters(), &before);
            m.traced_ops += ops;
            m.traced_secs += secs;
        } else {
            m.untraced.add_delta(&w.counters(), &before);
            m.untraced_ops += ops;
            m.untraced_secs += secs;
        }
    }
    rec.tracing = false;
    Ok(m)
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// SplitMix64: the workloads' seeded stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The correctness gate's stash: a never-freed object that receives a
/// copy of every [`Stash::EVERY`]th capability just before the workload
/// frees it. Once the final revocation has run, each slot must load
/// untagged.
pub struct Stash {
    frees: u64,
    written: u64,
}

impl Stash {
    /// Capability slots in a stash object.
    pub const SLOTS: u64 = 64;
    /// Bytes to allocate for a stash object.
    pub const BYTES: u64 = Stash::SLOTS * 16;
    /// One free in this many is stashed first.
    const EVERY: u64 = 61;

    pub fn new() -> Stash {
        Stash {
            frees: 0,
            written: 0,
        }
    }

    /// Called before each free: the stash offset to copy the capability
    /// to, when this free is sampled.
    pub fn before_free(&mut self) -> Option<u64> {
        self.frees += 1;
        if !self.frees.is_multiple_of(Stash::EVERY) {
            return None;
        }
        let offset = (self.written % Stash::SLOTS) * 16;
        self.written += 1;
        Some(offset)
    }

    /// Offsets of the slots written so far.
    pub fn offsets(&self) -> impl Iterator<Item = u64> {
        (0..self.written.min(Stash::SLOTS)).map(|slot| slot * 16)
    }
}

/// Live and quarantined bytes, sampled every few ops.
pub struct MemSamples {
    shadow: u64,
    live: u128,
    footprint: u128,
    n: u128,
    qfrac: f64,
}

impl MemSamples {
    /// `shadow` is the runtime's shadow-map bytes, counted in footprint.
    pub fn new(shadow: u64) -> MemSamples {
        MemSamples {
            shadow,
            live: 0,
            footprint: 0,
            n: 0,
            qfrac: 0.0,
        }
    }

    pub fn sample(&mut self, live: u64, quarantined: u64) {
        self.live += u128::from(live);
        self.footprint += u128::from(live + quarantined);
        self.n += 1;
        self.qfrac = self
            .qfrac
            .max(quarantined as f64 / (live + quarantined).max(1) as f64);
    }

    /// Figure 5b's ratio averaged over the run: mean (footprint + shadow)
    /// / mean live. Its peak is set by the run's slowest revoker wake-up,
    /// and moved by up to 67% between runs of `service-churn` where the
    /// mean moved by 1%. Peak memory is `peak_rss_mib`'s job.
    pub fn mem_overhead(&self) -> f64 {
        (self.footprint + self.n * u128::from(self.shadow)) as f64 / self.live.max(1) as f64
    }

    /// Largest quarantined / (live + quarantined) sampled.
    pub fn peak_quarantine_frac(&self) -> f64 {
        self.qfrac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(rec: &mut Recorder, sleep: Duration, counter: impl FnOnce() -> u64) {
        let s = rec.start();
        std::thread::sleep(sleep);
        let _ = rec.finish("free", s, Ok::<(), ()>(()), counter);
    }

    #[test]
    fn every_op_probe_keeps_the_ops_that_ran_a_revocation() {
        let mut rec = Recorder::new();
        for (counter, sleep) in [(0, 0), (0, 0), (1, 2), (1, 0), (3, 1)] {
            op(&mut rec, Duration::from_millis(sleep), || counter);
        }
        let pauses = rec.pauses().clone();
        assert_eq!(pauses.len(), 2, "{pauses:?}");
        assert!(
            pauses[0] >= 2_000_000 && pauses[1] >= 1_000_000,
            "{pauses:?}"
        );
    }

    #[test]
    fn block_probe_keeps_the_slowest_op_of_blocks_that_saw_an_epoch() {
        let mut rec = Recorder::new();
        rec.probe = Probe::Blocks;
        let unread = || -> u64 { panic!("a block probe reads no counter per op") };
        op(&mut rec, Duration::ZERO, unread);
        rec.block_end(0);
        op(&mut rec, Duration::ZERO, unread);
        op(&mut rec, Duration::from_millis(2), unread);
        op(&mut rec, Duration::ZERO, unread);
        rec.block_end(1);
        op(&mut rec, Duration::from_millis(1), unread);
        rec.block_end(1);
        let pauses = rec.pauses().clone();
        assert_eq!(pauses.len(), 1, "{pauses:?}");
        assert!(pauses[0] >= 2_000_000, "{pauses:?}");
        // A traced segment reads the counter after every op instead.
        rec.tracing = true;
        rec.block_end(5);
        assert_eq!(rec.pauses().len(), 1);
    }

    #[test]
    fn samples_fall_due_every_sample_every_ops() {
        let mut rec = Recorder::new();
        let mut due = Vec::new();
        for _ in 0..3 * SAMPLE_EVERY + 3 {
            op(&mut rec, Duration::ZERO, || 0);
            if rec.sample_due() {
                due.push(rec.attempted());
            }
        }
        assert_eq!(due, [1, 2, 3].map(|k| k * SAMPLE_EVERY));
    }
}
