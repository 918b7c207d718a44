//! The repo's acceptance-bar verdicts, as library calls. Each is computed
//! once, here, and `cargo xtask lab` is the one consumer. The wall-clock
//! ratio verdicts decide through [`crate::paired`].

use cherivoke::{ConcurrentHeap, ServiceConfig};
use revoker::{Kernel, ShadowMap};
use serde::Serialize;
use std::time::Instant;
use tagmem::TaggedMemory;

pub use crate::paired::Status;
use crate::paired::{Better, Paired};
use crate::service::{churn, ChurnParams, ServiceRow, SHARDS, SHARD_MIB};

/// One acceptance check: a measured `value` against a `target`, with the
/// comparison direction baked into `status`.
#[derive(Debug, Clone, Serialize)]
pub struct Verdict {
    /// Stable verdict name (`fast_kernel`, `telemetry_disabled`, …).
    pub name: String,
    /// Did the measurement clear the bar?
    pub status: Status,
    /// The measured value.
    pub value: f64,
    /// The bar.
    pub target: f64,
    /// Human-readable one-liner (what CI logs).
    pub detail: String,
}

impl Verdict {
    /// Whether the verdict passed.
    pub fn passed(&self) -> bool {
        self.status == Status::Pass
    }
}

/// Timed pairs behind each paired verdict ([`fast_kernel_verdict`],
/// [`simd_kernel_verdict`], [`journal_overhead_verdict`]).
pub const PAIRS: usize = 20;

/// Image size the kernel verdicts sweep (4 MiB, the Criterion bench's
/// image).
pub const FAST_VERDICT_IMAGE_BYTES: u64 = 4 << 20;

/// A kernel acceptance bar: `change` must sweep `mem`, with a quarter of
/// it painted, at least `bar` times as fast as `base`, judged by
/// [`Paired::against`] over [`PAIRS`] alternating pairs of
/// [`crate::engine_sweep_rate`] readings.
fn kernel_verdict(
    name: &str,
    mem: &TaggedMemory,
    base: Kernel,
    change: Kernel,
    bar: f64,
) -> Verdict {
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    let rate = |kernel| crate::engine_sweep_rate(kernel, 1, mem, &shadow);
    let (mut b, mut c) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            b.push(rate(base));
            c.push(rate(change));
        } else {
            c.push(rate(change));
            b.push(rate(base));
        }
    }
    let p = Paired::new(&b, &c, Better::Higher);
    Verdict {
        name: name.to_string(),
        status: p.against(bar, Better::Higher),
        value: p.ratio,
        target: bar,
        detail: format!(
            "median of {PAIRS} pairs: {:.0} MiB/s {}, {:.0} MiB/s {}, {:.2}x (95% interval \
             {:.2}-{:.2}x), target {bar:.2}x",
            p.base.1,
            base.name(),
            p.change.1,
            change.name(),
            p.ratio,
            p.interval.0,
            p.interval.1
        ),
    }
}

/// The fast-kernel acceptance bar: [`Kernel::Fast`] must clear 3× the
/// §3.3 reference loop on a sparse clustered image (5% tag density).
pub fn fast_kernel_verdict() -> Verdict {
    let mem = crate::image_with_clustered_caps(FAST_VERDICT_IMAGE_BYTES, 0.05);
    kernel_verdict("fast_kernel", &mem, Kernel::Simple, Kernel::Fast, 3.0)
}

/// The simd-kernel acceptance bar: [`Kernel::Simd`] must clear 2× the
/// word-at-a-time fast kernel on a **dense** image (25% uniformly spread
/// self-caps — no tag word is skippable, so lane-parallel decode is doing
/// the work, not the clean-span skip).
pub fn simd_kernel_verdict() -> Verdict {
    let mem = crate::image_with_self_caps(FAST_VERDICT_IMAGE_BYTES, 0.25);
    kernel_verdict("simd_kernel", &mem, Kernel::Fast, Kernel::Simd, 2.0)
}

/// Median of three timed runs of `f`, in nanoseconds per iteration.
pub fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples = [0.0f64; 3];
    for s in &mut samples {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        *s = t0.elapsed().as_nanos() as f64 / iters as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[1]
}

/// A continuous service malloc/free churn on a small
/// [`ConcurrentHeap`], timed in blocks.
struct Churn {
    client: cherivoke::HeapClient,
    held: Vec<cheri::Capability>,
    i: u64,
    // Keeps the shards (and their journals) alive across blocks.
    _heap: ConcurrentHeap,
}

impl Churn {
    /// A churn on a telemetry-off heap, journaling into `dir` if given.
    fn new(dir: Option<&std::path::Path>) -> Churn {
        let heap = ConcurrentHeap::with_journal_dir(
            ServiceConfig::small(),
            cherivoke::fault::FaultInjector::disabled(),
            dir,
        )
        .expect("service");
        Churn {
            client: heap.handle(),
            held: Vec::with_capacity(16),
            i: 0,
            _heap: heap,
        }
    }

    /// Runs one timed block of churn ops and returns ns/op. State
    /// (held capabilities, op counter) persists across blocks so the
    /// workload is one continuous churn split into time slices.
    fn block_ns(&mut self, iters: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            let i = self.i;
            self.i += 1;
            let cap = self.client.malloc(64 + (i % 8) * 48).expect("malloc");
            self.held.push(cap);
            if self.held.len() >= 16 {
                let victim = self.held.swap_remove((i % 16) as usize);
                self.client.free(victim).expect("free");
            }
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    }
}

/// Nanoseconds per service malloc/free op on a small telemetry-off
/// [`ConcurrentHeap`] — the denominator both overhead verdicts share:
/// the median of three blocks of `iters` ops.
pub fn service_op_ns(iters: u64) -> f64 {
    let mut churn = Churn::new(None);
    let blocks: Vec<f64> = (0..3).map(|_| churn.block_ns(iters)).collect();
    crate::paired::quartiles(&blocks).1
}

/// The telemetry acceptance bar: a *disabled* telemetry site must cost
/// under 1% of a service malloc/free op, even assuming 4 such sites per
/// op (the real count on the malloc/free paths is 1-2).
///
/// `record_iters` sizes the disabled-record timing loop; the bench uses
/// 50M, the lab smoke run 10M.
pub fn telemetry_disabled_verdict(record_iters: u64) -> Verdict {
    let counter = telemetry::Counter::default();
    let histogram = telemetry::LogHistogram::default();
    let disabled_ns = ns_per_iter(record_iters, |i| {
        std::hint::black_box(&counter).inc();
        std::hint::black_box(&histogram).record(std::hint::black_box(i));
    }) / 2.0; // two records per iteration

    let op_ns = service_op_ns(40_000);
    let budget_sites = 4.0;
    let pct = disabled_ns * budget_sites / op_ns * 100.0;
    Verdict {
        name: "telemetry_disabled".to_string(),
        status: Status::from_pass(pct < 1.0),
        value: pct,
        target: 1.0,
        detail: format!(
            "{disabled_ns:.2} ns/disabled record x {budget_sites:.0} sites = {:.2} ns \
             vs {op_ns:.0} ns/service op = {pct:.3}%, target < 1%",
            disabled_ns * budget_sites
        ),
    }
}

/// Disabled `should_fire` branches a single service op crosses: mallocs
/// cross exactly one (the allocator's alloc-failure check), frees cross
/// none, and the sweep/barrier/revoker sites run on the sweep path behind
/// an `is_enabled()` gate, amortising to a rounding error per op — so 1.0
/// over-counts the true per-op average (which is ~0.5 across a
/// malloc+free pair).
const FAULT_SITES_PER_OP: f64 = 1.0;

/// Nanoseconds per call of `should_fire` on a *disabled* injector — the
/// cost every instrumented hot-path site pays in production.
fn disabled_fault_branch_ns(iters: u64) -> f64 {
    let injector = cherivoke::fault::FaultInjector::disabled();
    let mut fired = 0u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        if std::hint::black_box(&injector).should_fire(cherivoke::fault::FaultPoint::AllocFailure) {
            fired += 1;
        }
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    assert_eq!(std::hint::black_box(fired), 0);
    ns
}

/// The fault-injection acceptance bar: a disabled
/// [`cherivoke::fault::FaultInjector`] must cost under 1% of a service op.
/// Prices the disabled `should_fire` branch directly (`branch_iters`
/// calls) and scales by `FAULT_SITES_PER_OP`; `op_ns` is the caller's
/// [`service_op_ns`] reading.
pub fn fault_overhead_verdict(branch_iters: u64, op_ns: f64) -> Verdict {
    let branch_ns = disabled_fault_branch_ns(branch_iters);
    let pct = 100.0 * FAULT_SITES_PER_OP * branch_ns / op_ns;
    Verdict {
        name: "fault_disabled".to_string(),
        status: Status::from_pass(pct < 1.0),
        value: pct,
        target: 1.0,
        detail: format!(
            "{branch_ns:.2} ns/branch x {FAULT_SITES_PER_OP:.0} sites \
             = {pct:.3}% of a {op_ns:.0} ns service op, target < 1%"
        ),
    }
}

/// The journal-overhead acceptance bar: attaching an epoch journal to
/// every shard of a [`ConcurrentHeap`] must cost under 1% of a service
/// malloc/free op, measured on the churn [`service_op_ns`] uses,
/// journal-off vs journal-on in the same process. Each of [`PAIRS`] pairs
/// builds a fresh journal-off and journal-on heap, warms both, and times
/// one block on each; the verdict is [`Paired::against`] the 1.01 on/off
/// bar.
///
/// The second heap built lands on whatever memory the first left behind.
/// Fresh heaps per pair let that creation order alternate, as the timing
/// order does, so its layout penalty falls on both sides alike and the
/// pairs stay independent samples for the bootstrap.
pub fn journal_overhead_verdict(iters: u64) -> Verdict {
    let block = (iters / PAIRS as u64).max(50);
    let root = std::env::temp_dir().join(format!("cvk-journal-verdict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    let mut journaled = true;
    for pair in 0..PAIRS {
        let dir = root.join(format!("pair-{pair}"));
        std::fs::create_dir_all(&dir).expect("journal verdict scratch dir");
        let (mut off, mut on) = if pair % 2 == 0 {
            let off = Churn::new(None);
            (off, Churn::new(Some(&dir)))
        } else {
            let on = Churn::new(Some(&dir));
            (Churn::new(None), on)
        };
        // One warm-up block each: first-touch page faults and allocator
        // warm-up are not journal overhead.
        off.block_ns(block);
        on.block_ns(block);
        if pair % 4 < 2 {
            offs.push(off.block_ns(block));
            ons.push(on.block_ns(block));
        } else {
            ons.push(on.block_ns(block));
            offs.push(off.block_ns(block));
        }
        // The measurement is only meaningful if the shards actually
        // journaled (creation failure degrades to unjournaled shards).
        journaled &= std::fs::read_dir(&dir).is_ok_and(|d| d.count() > 0);
    }
    let _ = std::fs::remove_dir_all(&root);
    let p = Paired::new(&offs, &ons, Better::Lower);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    Verdict {
        name: "journal_overhead".to_string(),
        status: if journaled {
            p.against(1.01, Better::Lower)
        } else {
            Status::Fail
        },
        value: pct(p.ratio),
        target: 1.0,
        detail: format!(
            "median of {PAIRS} pairs of fresh heaps: {:.0} ns/op journal-off vs {:.0} ns/op \
             journal-on = {:.3}% overhead (95% interval {:.2}% to {:.2}%), target < 1%{}",
            p.base.1,
            p.change.1,
            pct(p.ratio),
            pct(p.interval.0),
            pct(p.interval.1),
            if journaled {
                ""
            } else {
                " (shards ran degraded — no journal files written)"
            }
        ),
    }
}

/// The crash-recovery acceptance bar: every entry of the soft-crash
/// matrix — 5 crash points × 3 start indices = 15 seeded crashes — must
/// persist an image, recover via [`cherivoke::CherivokeHeap::recover`]
/// with the expected decision-table action and a clean full-heap safety
/// audit (no tagged capability into reusable granules), and come back
/// within the wall-clock budget. The process-kill (`SIGABRT`) variant lives in
/// the `crash_chaos` integration test; this in-process probe is what the
/// lab gates on, so a regression in the journal format, the recovery
/// decision table, or the audit kernel fails `BENCH_trajectory.json`
/// directly.
pub fn recovery_safety_verdict() -> Verdict {
    use cherivoke::fault::{
        silence_injected_panics, FaultInjector, FaultPlan, FaultPoint, FaultRule, CRASH_POINTS,
    };
    use cherivoke::{CherivokeHeap, HeapConfig, RecoveryAction};

    silence_injected_panics();
    const STARTS: [u64; 3] = [0, 2, 4];
    // The matrix must not shrink unnoticed: 5 points × 3 starts.
    const FLOOR: usize = 15;
    const BUDGET_MS: f64 = 500.0;

    let dir = std::env::temp_dir().join(format!("cvk-recovery-verdict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("recovery verdict scratch dir");

    let mut recovered = 0usize;
    let mut total = 0usize;
    let mut max_ms = 0.0f64;
    let mut failure: Option<String> = None;
    'matrix: for point in CRASH_POINTS {
        for start in STARTS {
            total += 1;
            let entry = format!("{}/{start}", point.name());
            let image_path = dir.join(format!("{total}.img"));
            let journal_path = dir.join(format!("{total}.cvj"));
            let mut cfg = HeapConfig::small();
            cfg.policy.quarantine.fraction = 0.125;
            cfg.policy.incremental_slice_bytes = Some(16 << 10);
            let mut heap = CherivokeHeap::new(cfg).expect("verdict heap");
            heap.set_journal(journal::Journal::create(&journal_path).expect("journal"));
            heap.set_crash_persist(image_path.clone(), false);
            heap.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
                FaultRule::once(point, start),
            ])));
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut ballast = Vec::new();
                for _ in 0..4 {
                    ballast.push(heap.malloc(64 << 10).expect("ballast"));
                }
                let holder = heap.malloc(16).expect("holder");
                for _ in 0..1200 {
                    let obj = heap.malloc(4 << 10).expect("malloc");
                    heap.store_cap(&holder, 0, &obj).expect("store");
                    heap.free(obj).expect("free");
                }
            }));
            drop(heap);
            if crashed.is_ok() {
                failure = Some(format!("{entry}: armed crash point never fired"));
                break 'matrix;
            }
            let image = std::fs::read(&image_path).expect("crashed heap persisted an image");
            let journal_bytes = std::fs::read(&journal_path).expect("crashed heap journaled");
            let t0 = Instant::now();
            let (rh, report) = match CherivokeHeap::recover(cfg, &image, &journal_bytes) {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(format!("{entry}: recovery failed: {e}"));
                    break 'matrix;
                }
            };
            max_ms = max_ms.max(t0.elapsed().as_secs_f64() * 1e3);
            if !report.safe() {
                failure = Some(format!("{entry}: unsafe recovery: {:?}", report.audit));
                break 'matrix;
            }
            let action_ok = match point {
                FaultPoint::CrashAfterSeal => report.action == RecoveryAction::ReopenSeal,
                _ => report.action == RecoveryAction::RollForward,
            };
            if !action_ok {
                failure = Some(format!("{entry}: unexpected action {:?}", report.action));
                break 'matrix;
            }
            drop(rh);
            recovered += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let pass = failure.is_none() && recovered == total && recovered >= FLOOR && max_ms <= BUDGET_MS;
    Verdict {
        name: "recovery_safety".to_string(),
        status: Status::from_pass(pass),
        value: max_ms,
        target: BUDGET_MS,
        detail: format!(
            "{recovered}/{total} seeded crashes recovered safely (floor {FLOOR}), max recovery \
             {max_ms:.2} ms, budget {BUDGET_MS:.0} ms{}",
            failure.map(|f| format!(" — {f}")).unwrap_or_default()
        ),
    }
}

/// The quarantine-bound acceptance bar: five service churns (100 000
/// malloc/free pairs per mutator, mutators capped at the host's
/// parallelism, since oversubscribing a small host turns the run into
/// scheduler noise) must each keep every shard's quarantine within that
/// shard's own bound.
pub fn quarantine_bound_verdict() -> Verdict {
    const REPEATS: usize = 5;
    let params = ChurnParams {
        threads: ChurnParams::default()
            .threads
            .min(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ops_per_thread: 100_000,
        ..ChurnParams::default()
    };
    let rows: Vec<_> = (0..REPEATS).map(|_| churn(&params).0).collect();
    judge_quarantine_bound(&rows, &params)
}

/// Judges [`quarantine_bound_verdict`]'s churns: the peak shard load
/// ([`crate::service::shard_load`]) of every churn must be at most 1.0.
fn judge_quarantine_bound(rows: &[ServiceRow], params: &ChurnParams) -> Verdict {
    let peak = rows.iter().map(|r| r.peak_shard_load).fold(0.0, f64::max);
    let epochs: u64 = rows.iter().map(|r| r.epochs).sum();
    Verdict {
        name: "quarantine_bound".to_string(),
        status: Status::from_pass(peak <= 1.0),
        value: peak,
        target: 1.0,
        detail: format!(
            "{} churns of {} threads x {} ops on {SHARDS} x {SHARD_MIB} MiB shards, {epochs} \
             epochs: peak shard quarantine {peak:.4} of its bound",
            rows.len(),
            params.threads,
            params.ops_per_thread
        ),
    }
}

/// The telemetry-smoke checks CI used to run as inline Python over the
/// exported JSON snapshot: a telemetry-enabled churn must actually have
/// recorded allocator traffic, service epochs and pause samples.
pub fn telemetry_snapshot_verdict(snap: &telemetry::MetricsSnapshot) -> Verdict {
    let mallocs = *snap.counters.get("cvk_alloc_mallocs_total").unwrap_or(&0);
    let epochs = *snap.counters.get("cvk_service_epochs_total").unwrap_or(&0);
    let pauses = snap
        .histograms
        .get("cvk_service_pause_ns")
        .map_or(0, telemetry::HistogramSnapshot::count);
    Verdict {
        name: "telemetry_snapshot".to_string(),
        status: Status::from_pass(mallocs > 0 && epochs > 0 && pauses > 0),
        value: mallocs as f64,
        target: 1.0,
        detail: format!(
            "{mallocs} mallocs, {epochs} epochs, {pauses} pause samples recorded \
             ({} counters, {} gauges, {} histograms)",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_verdict_math() {
        // 2 ns branch on a 1000 ns op at 1 site/op = 0.2% < 1%: the
        // threshold arithmetic, with the branch measured for real.
        let v = fault_overhead_verdict(100_000, 1000.0);
        assert_eq!(v.name, "fault_disabled");
        assert!(v.value >= 0.0);
        // And an op so fast the branch must blow the budget:
        let v = fault_overhead_verdict(100_000, 1e-9);
        assert!(!v.passed());
    }

    #[test]
    fn recovery_safety_verdict_passes() {
        let v = recovery_safety_verdict();
        assert_eq!(v.name, "recovery_safety");
        assert!(v.passed(), "{}", v.detail);
    }

    #[test]
    fn journal_overhead_verdict_measures_both_sides() {
        // Tiny iteration count: the shape of the measurement, not the
        // bar — a 1% delta is not meaningful at this size.
        let v = journal_overhead_verdict(4_000);
        assert_eq!(v.name, "journal_overhead");
        assert!(v.value.is_finite(), "{}", v.detail);
        assert!(v.detail.contains("journal-on"));
    }

    /// Diagnostic companion to [`journal_overhead_bar`]: how much does
    /// the journal actually write during the overhead workload? Run it
    /// when the bar moves — record counts localise whether the cost is
    /// frame volume (epoch cadence) or flush frequency.
    #[test]
    #[ignore = "diagnostic"]
    fn journal_bytes_probe() {
        let dir = std::env::temp_dir().join(format!("cvk-journal-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let heap = ConcurrentHeap::with_journal_dir(
            ServiceConfig::small(),
            cherivoke::fault::FaultInjector::disabled(),
            Some(&dir),
        )
        .expect("service");
        let client = heap.handle();
        let mut held = Vec::with_capacity(16);
        for i in 0u64..40_000 {
            let cap = client.malloc(64 + (i % 8) * 48).expect("malloc");
            held.push(cap);
            if held.len() >= 16 {
                let victim = held.swap_remove((i % 16) as usize);
                client.free(victim).expect("free");
            }
        }
        drop(heap);
        let mut total = 0u64;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            total += bytes.len() as u64;
            let out = journal::read_bytes(&bytes).expect("readable");
            let mut counts = std::collections::BTreeMap::new();
            for r in &out.records {
                let k = match r {
                    journal::Record::Sealed { .. } => "sealed",
                    journal::Record::EpochCommitted { .. } => "committed",
                };
                *counts.entry(k).or_insert(0u64) += 1;
            }
            eprintln!(
                "{}: {} bytes, {} records, {:?}",
                entry.file_name().to_string_lossy(),
                bytes.len(),
                out.records.len(),
                counts
            );
        }
        eprintln!("total journal bytes for 40k ops: {total}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Full-size journal-overhead measurement — the exact bar the lab
    /// gates. Ignored by default (seconds of churn); run it explicitly
    /// when touching the journal hot path:
    /// `cargo test -p bench --lib journal_overhead_bar -- --ignored --nocapture`
    #[test]
    #[ignore = "full-size bar measurement; run explicitly"]
    fn journal_overhead_bar() {
        let v = journal_overhead_verdict(40_000);
        eprintln!("{}", v.detail);
        assert!(v.passed(), "{}", v.detail);
    }

    #[test]
    fn quarantine_bound_fails_one_shard_over_its_own_bound() {
        let config = ServiceConfig {
            shards: SHARDS,
            shard_heap_size: SHARD_MIB << 20,
            ..ServiceConfig::default()
        };
        // Shard 0 holds 1 MiB, twice its 512 KiB bound (0.25 × 4 MiB / 2),
        // while the whole heap holds only 1/16 ≈ 0.06 of its bytes: under
        // the policy fraction 0.25 a whole-heap rule would pass it.
        let quarantined = [1 << 20, 0, 0, 0];
        let whole_heap =
            quarantined.iter().sum::<u64>() as f64 / (SHARDS as u64 * (SHARD_MIB << 20)) as f64;
        assert!(whole_heap < 0.07);
        let row = |peak_shard_load| ServiceRow {
            epochs: 1,
            peak_shard_load,
        };
        let params = ChurnParams::default();
        let load = crate::service::shard_load(&quarantined, &config);
        let v = judge_quarantine_bound(&[row(0.5), row(load)], &params);
        assert_eq!(v.status, Status::Fail, "{}", v.detail);
        assert_eq!(v.value, 2.0);
        assert!(judge_quarantine_bound(&[row(0.5), row(1.0)], &params).passed());
    }

    #[test]
    fn snapshot_verdict_requires_activity() {
        let empty = telemetry::MetricsSnapshot::default();
        assert!(!telemetry_snapshot_verdict(&empty).passed());
    }
}
