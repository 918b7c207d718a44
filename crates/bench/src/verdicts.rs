//! The repo's acceptance-bar verdicts, as library calls.
//!
//! Before the scalability lab these checks lived in three places — the
//! `sweep_kernel` / `telemetry_overhead` Criterion mains printed verdict
//! lines, and inline Python in `.github/workflows/ci.yml` re-parsed and
//! re-asserted them. Now each verdict is computed exactly once, here, and
//! every consumer (`cargo xtask lab`, the Criterion bench mains, the
//! `service_throughput` binary) calls the same function, so a local run
//! reproduces the CI verdict bit-for-bit modulo host speed.

use cherivoke::{ConcurrentHeap, ServiceConfig};
use revoker::{Kernel, ShadowMap};
use serde::Serialize;
use std::time::Instant;

use crate::service::{disabled_fault_branch_ns, FAULT_SITES_PER_OP};

/// One acceptance check: a measured `value` against a `target`, with the
/// comparison direction baked into `pass`.
#[derive(Debug, Clone, Serialize)]
pub struct Verdict {
    /// Stable verdict name (`fast_kernel`, `telemetry_disabled`, …).
    pub name: String,
    /// Did the measurement clear the bar?
    pub pass: bool,
    /// The measured value.
    pub value: f64,
    /// The bar.
    pub target: f64,
    /// Human-readable one-liner (what CI logs).
    pub detail: String,
}

impl Verdict {
    /// `PASS` / `BELOW-BAR`, as the bench verdict lines print it.
    pub fn status(&self) -> &'static str {
        if self.pass {
            "PASS"
        } else {
            "BELOW-BAR"
        }
    }
}

/// Image size the fast-kernel verdict sweeps (4 MiB, the Criterion bench's
/// image).
pub const FAST_VERDICT_IMAGE_BYTES: u64 = 4 << 20;

/// The fast-kernel acceptance bar: [`Kernel::Fast`] must clear 3× the
/// §3.3 reference loop on a sparse clustered image (5% tag density) with
/// a quarter of the heap painted — warmed best-of-five via
/// [`crate::engine_sweep_rate`], the measurement every experiment binary
/// uses.
pub fn fast_kernel_verdict() -> Verdict {
    let mem = crate::image_with_clustered_caps(FAST_VERDICT_IMAGE_BYTES, 0.05);
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    let reference = crate::engine_sweep_rate(Kernel::Simple, 1, &mem, &shadow);
    let fast = crate::engine_sweep_rate(Kernel::Fast, 1, &mem, &shadow);
    let speedup = fast / reference;
    let pass = speedup >= 3.0;
    Verdict {
        name: "fast_kernel".to_string(),
        pass,
        value: speedup,
        target: 3.0,
        detail: format!(
            "{reference:.0} MiB/s reference, {fast:.0} MiB/s fast, {speedup:.2}x, target 3.00x"
        ),
    }
}

/// The simd-kernel acceptance bar: [`Kernel::Simd`] must clear 2× the
/// word-at-a-time fast kernel on a **dense** image (25% uniformly spread
/// self-caps — no tag word is skippable, so lane-parallel decode is doing
/// the work, not the clean-span skip) with a quarter of the heap painted.
/// Warmed best-of-five via [`crate::engine_sweep_rate`], same as the
/// fast-kernel bar, but a below-bar reading is re-measured (up to three
/// attempts, best ratio) before it is believed: the vector kernel runs at
/// DRAM bandwidth, so a noisy neighbor's memory traffic suppresses it far
/// more than the scalar tiers it is compared against, and one burst of
/// contention would otherwise fail a bar the kernel clears with margin on
/// a quiet host — the same confirm-before-fail policy the trajectory gate
/// applies to wall-clock regressions.
pub fn simd_kernel_verdict() -> Verdict {
    let mem = crate::image_with_self_caps(FAST_VERDICT_IMAGE_BYTES, 0.25);
    let mut shadow = ShadowMap::new(mem.base(), mem.len());
    shadow.paint(mem.base(), mem.len() / 4);
    let mut fast = 0.0f64;
    let mut simd = 0.0f64;
    let mut speedup = 0.0f64;
    for _ in 0..3 {
        let f = crate::engine_sweep_rate(Kernel::Fast, 1, &mem, &shadow);
        let s = crate::engine_sweep_rate(Kernel::Simd, 1, &mem, &shadow);
        if s / f > speedup {
            speedup = s / f;
            fast = f;
            simd = s;
        }
        if speedup >= 2.0 {
            break;
        }
    }
    let pass = speedup >= 2.0;
    Verdict {
        name: "simd_kernel".to_string(),
        pass,
        value: speedup,
        target: 2.0,
        detail: format!(
            "{fast:.0} MiB/s fast, {simd:.0} MiB/s simd on the dense image, {speedup:.2}x, \
             target 2.00x"
        ),
    }
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

/// Nanoseconds per service malloc/free op on a small telemetry-off
/// [`ConcurrentHeap`] — the denominator both overhead verdicts share.
pub fn service_op_ns(iters: u64) -> f64 {
    let heap = ConcurrentHeap::new(ServiceConfig::small()).expect("service");
    let client = heap.handle();
    let mut held = Vec::with_capacity(16);
    ns_per_iter(iters, |i| {
        let cap = client.malloc(64 + (i % 8) * 48).expect("malloc");
        held.push(cap);
        if held.len() >= 16 {
            let victim = held.swap_remove((i % 16) as usize);
            client.free(victim).expect("free");
        }
    })
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
        pass: pct < 1.0,
        value: pct,
        target: 1.0,
        detail: format!(
            "{disabled_ns:.2} ns/disabled record x {budget_sites:.0} sites = {:.2} ns \
             vs {op_ns:.0} ns/service op = {pct:.3}%, target < 1%",
            disabled_ns * budget_sites
        ),
    }
}

/// The fault-injection acceptance bar: a disabled
/// [`cherivoke::fault::FaultInjector`] must cost under 1% of a service op.
/// Prices the disabled `should_fire` branch directly (`branch_iters`
/// calls) and scales by [`FAULT_SITES_PER_OP`]; `op_ns` comes from a real
/// churn run (the caller's measurement, so the binary and the lab charge
/// the same denominator they report).
pub fn fault_overhead_verdict(branch_iters: u64, op_ns: f64) -> Verdict {
    let branch_ns = disabled_fault_branch_ns(branch_iters);
    let pct = 100.0 * FAULT_SITES_PER_OP * branch_ns / op_ns;
    Verdict {
        name: "fault_disabled".to_string(),
        pass: pct < 1.0,
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
/// malloc/free op. Journal frames are buffered at epoch transitions and
/// flushed in batched `write(2)`s (a few KiB per syscall, plus the
/// armed crash sites), so the hot path pays nothing —
/// but the bar is measured end-to-end on the same churn loop
/// [`service_op_ns`] uses, journal-off vs journal-on in the same
/// process. A sub-1% delta is far below this host's noise floor for any
/// paired whole-run comparison (1-core VMs throttle in multi-second
/// waves, swinging op cost by tens of percent), so the measurement
/// interleaves at fine grain instead: both heaps stay alive while short
/// alternating blocks run on each, and the verdict compares the median
/// block cost of each side. Interleaving spreads host drift evenly over
/// both sides, and the medians discard the outlier blocks. A failing reading escalates to fresh
/// attempts (up to four, best median believed) before it is reported —
/// the same confirm-before-fail policy as [`simd_kernel_verdict`]:
/// symmetric noise cannot fail four consecutive attempts, a real
/// multi-percent regression fails all of them.
pub fn journal_overhead_verdict(iters: u64) -> Verdict {
    use cherivoke::HeapClient;
    struct Churn {
        client: HeapClient,
        held: Vec<cheri::Capability>,
        i: u64,
        // Keeps the shards (and their journals) alive across blocks.
        _heap: ConcurrentHeap,
    }
    impl Churn {
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
        /// (held capabilities, op counter) persists across blocks so
        /// the workload is one continuous churn split into time slices.
        fn block_ns(&mut self, iters: u64) -> f64 {
            let t = std::time::Instant::now();
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
    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    }
    const ROUNDS: u64 = 20;
    let block = (iters / ROUNDS).max(50);
    let scratch = std::env::temp_dir().join(format!("cvk-journal-verdict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut off = 0.0f64;
    let mut on = 0.0f64;
    let mut pct = f64::INFINITY;
    let mut journaled = false;
    for attempt in 0..4 {
        let dir = scratch.join(format!("attempt-{attempt}"));
        std::fs::create_dir_all(&dir).expect("journal verdict scratch dir");
        // Alternate heap creation order: the second-created heap lands
        // on whatever memory the first left behind, and that layout
        // penalty must not always fall on the journaled side.
        let (mut off_churn, mut on_churn) = if attempt % 2 == 0 {
            let off = Churn::new(None);
            (off, Churn::new(Some(&dir)))
        } else {
            let on = Churn::new(Some(&dir));
            (Churn::new(None), on)
        };
        // One warm-up block each: first-touch page faults and allocator
        // warm-up are not journal overhead.
        off_churn.block_ns(block);
        on_churn.block_ns(block);
        let mut offs = Vec::new();
        let mut ons = Vec::new();
        for round in 0..ROUNDS {
            // Alternate order within the round so even intra-round
            // drift cancels across rounds.
            let (o, j) = if round % 2 == 0 {
                let o = off_churn.block_ns(block);
                (o, on_churn.block_ns(block))
            } else {
                let j = on_churn.block_ns(block);
                (off_churn.block_ns(block), j)
            };
            offs.push(o);
            ons.push(j);
        }
        // The measurement is only meaningful if the shards actually
        // journaled (creation failure degrades to unjournaled shards).
        journaled = std::fs::read_dir(&dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false);
        // Ratio of per-side medians, not median of per-round ratios:
        // the ratio distribution is skewed by the occasional hammered
        // block, and its median drifts percents away from the per-side
        // medians, which stay put.
        let (o, j) = (median(offs), median(ons));
        let p = (j - o) / o * 100.0;
        if p < pct {
            pct = p;
            off = o;
            on = j;
        }
        if pct < 1.0 && journaled {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Verdict {
        name: "journal_overhead".to_string(),
        pass: journaled && pct < 1.0,
        value: pct,
        target: 1.0,
        detail: format!(
            "median of {ROUNDS} interleaved blocks: {off:.0} ns/op journal-off vs {on:.0} ns/op \
             journal-on = {pct:.3}% overhead, target < 1%{}",
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
        pass,
        value: max_ms,
        target: BUDGET_MS,
        detail: format!(
            "{recovered}/{total} seeded crashes recovered safely (floor {FLOOR}), max recovery \
             {max_ms:.2} ms, budget {BUDGET_MS:.0} ms{}",
            failure.map(|f| format!(" — {f}")).unwrap_or_default()
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
    let pass = mallocs > 0 && epochs > 0 && pauses > 0;
    Verdict {
        name: "telemetry_snapshot".to_string(),
        pass,
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
        assert!(!v.pass);
    }

    #[test]
    fn recovery_safety_verdict_passes() {
        let v = recovery_safety_verdict();
        assert_eq!(v.name, "recovery_safety");
        assert!(v.pass, "{}", v.detail);
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
        assert!(v.pass, "{}", v.detail);
    }

    #[test]
    fn snapshot_verdict_requires_activity() {
        let empty = telemetry::MetricsSnapshot::default();
        assert!(!telemetry_snapshot_verdict(&empty).pass);
    }
}
