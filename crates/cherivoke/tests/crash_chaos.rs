//! Process-kill crash chaos: fork/re-exec children `abort()` mid-epoch
//! at seeded fault points; the parent recovers every crash from the
//! persisted heap image + epoch journal and audits the result.
//!
//! Each matrix entry re-execs this test binary with `CVK_CRASH_SPEC`
//! (`kernel/slice/point/start`) set. The child arms **hard** crash persistence
//! ([`CherivokeHeap::set_crash_persist`] with `hard = true`), runs an
//! alloc/stash/free workload until the seeded crash point fires, writes
//! the image, and dies with `SIGABRT` — a real process kill, not an
//! unwound panic. The parent then rebuilds the heap in-process via
//! [`CherivokeHeap::recover`] and asserts the full-heap safety audit is
//! clean: no tagged capability points into reusable memory.
//!
//! The matrix is 5 crash points × 3 start indices × 2 sweep kernels
//! (word-at-a-time and vector) × 2 epoch modes (incremental slices and
//! stop-the-world `revoke_now` cycles) = 60 seeded kills. Both modes run
//! the same epoch pipeline, so every crash point fires in both. A failing
//! entry's spec, image and journal are exported to `$CARGO_TARGET_TMPDIR`
//! for artifact upload.
//!
//! The image's `QuarantinedSealed` chunks are the one record of the
//! sealed set; the journal names only the epoch that sealed it. Before
//! recovering, each kill checks that the two agree on where the epoch
//! died: at `crash_after_seal` the tail is clean (the `Sealed` frame is
//! not yet written) and the image holds sealed chunks; from the paint
//! to the drain the tail is `SweepInterrupted` at the journal's latest
//! epoch and the image holds sealed chunks; at `crash_before_commit` the
//! drain has run, so the tail is `SweepInterrupted` and the image holds
//! none. Every roll-forward must then repaint exactly the image's sealed
//! chunks. The workload keeps live fences between freed objects, so an
//! epoch seals several non-adjacent spans, and the matrix asserts that
//! some kill's image held such a sealed set.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cherivoke::fault::{FaultInjector, FaultPlan, FaultPoint, FaultRule, CRASH_POINTS};
use cherivoke::{CherivokeHeap, HeapConfig, HeapImage, ImageChunkState, Kernel, RecoveryAction};
use journal::{Record, TailState};

/// Child-mode selector: `kernel/slice/point/start`.
const SPEC_ENV: &str = "CVK_CRASH_SPEC";
/// Directory the child persists its image + journal into.
const DIR_ENV: &str = "CVK_CRASH_DIR";
/// Child exit code meaning "the armed crash point never fired".
const EXIT_NEVER_FIRED: i32 = 86;

/// Epoch-crash start indices per point: the Nth time the
/// point is reached is when the process dies, so early, mid-run and
/// late-run epochs are all killed.
const START_INDICES: [u64; 3] = [0, 2, 5];

/// Sweep kernels the heap is killed under: the word-at-a-time
/// default and the vector tier.
const KERNELS: [Kernel; 2] = [Kernel::Fast, Kernel::Simd];

/// Epoch modes the heap is killed under: incremental 16 KiB slices,
/// and `None` — each full quarantine runs one stop-the-world cycle. The
/// spec names a mode by its slice bytes, 0 for `None`.
const SLICES: [Option<u64>; 2] = [Some(16 << 10), None];

fn heap_config(kernel: Kernel, slice: Option<u64>) -> HeapConfig {
    let mut cfg = HeapConfig::small();
    cfg.policy.kernel = kernel;
    cfg.policy.quarantine.fraction = 0.125;
    cfg.policy.incremental_slice_bytes = slice;
    cfg
}

/// Child mode: run the workload with a hard crash armed. On the expected
/// path this never returns — the crash point aborts the process after
/// persisting the image. Exits [`EXIT_NEVER_FIRED`] if the workload
/// finishes without the point firing.
fn run_child(spec: &str, dir: &Path) -> ! {
    let mut parts = spec.split('/');
    let kernel_name = parts.next().expect("spec kernel");
    let kernel = KERNELS
        .into_iter()
        .find(|k| k.name() == kernel_name)
        .unwrap_or_else(|| panic!("unknown kernel {kernel_name:?} in {SPEC_ENV}"));
    let slice = match parts
        .next()
        .expect("spec slice")
        .parse()
        .expect("slice bytes")
    {
        0 => None,
        bytes => Some(bytes),
    };
    let point = FaultPoint::from_name(parts.next().expect("spec point")).expect("known point");
    let start: u64 = parts
        .next()
        .expect("spec start")
        .parse()
        .expect("start index");
    let mut heap = CherivokeHeap::new(heap_config(kernel, slice)).unwrap();
    heap.set_journal(journal::Journal::create(dir.join("heap.cvj")).unwrap());
    heap.set_crash_persist(dir.join("heap.img"), true);
    heap.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
        FaultRule::once(point, start),
    ])));
    // Live ballast keeps the epoch trigger meaningfully sized; the loop
    // stashes each allocation before freeing it so dangling architectural
    // copies exist in memory at every crash window. A small fence
    // allocated after each object outlives it by FENCES iterations, so
    // the newest freed objects of every epoch stay apart and the epoch
    // seals several non-adjacent spans, not one coalesced run.
    const FENCES: usize = 4;
    let mut ballast = Vec::new();
    for _ in 0..4 {
        ballast.push(heap.malloc(64 << 10).unwrap());
    }
    let holder = heap.malloc(16).unwrap();
    let mut fences = std::collections::VecDeque::with_capacity(FENCES + 1);
    for _ in 0..2000 {
        let obj = heap.malloc(4 << 10).unwrap();
        fences.push_back(heap.malloc(16).unwrap());
        heap.store_cap(&holder, 0, &obj).unwrap();
        heap.free(obj).unwrap();
        if fences.len() > FENCES {
            heap.free(fences.pop_front().unwrap()).unwrap();
        }
    }
    std::process::exit(EXIT_NEVER_FIRED);
}

/// Exports the failing entry's reproducer + artifacts and panics.
fn fail_entry(spec: &str, dir: &Path, why: &str) -> ! {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let plan = tmp.join("crash_chaos_failing_plan.txt");
    let journal_copy = tmp.join("crash_chaos_failing.cvj");
    let image_copy = tmp.join("crash_chaos_failing.img");
    let _ = std::fs::write(
        &plan,
        format!("{SPEC_ENV}={spec}\n{why}\nre-run: {SPEC_ENV}={spec} {DIR_ENV}=<dir> <test bin>\n"),
    );
    let _ = std::fs::copy(dir.join("heap.cvj"), &journal_copy);
    let _ = std::fs::copy(dir.join("heap.img"), &image_copy);
    panic!(
        "crash-chaos {spec} failed: {why}\nartifacts: {}, {}, {}",
        plan.display(),
        journal_copy.display(),
        image_copy.display()
    );
}

/// The bytes `(start, len)` ranges cover, as sorted, disjoint,
/// non-adjacent `[start, end)` spans.
fn byte_spans(ranges: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = ranges
        .into_iter()
        .filter(|&(_, len)| len > 0)
        .map(|(start, len)| (start, start + len))
        .collect();
    spans.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (start, end) in spans {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// The image's sealed set at a kill, as [`check_sealed_sets`] read it.
struct SealedSet {
    /// `QuarantinedSealed` chunks in the image.
    chunks: usize,
    /// Non-adjacent byte spans those chunks cover.
    spans: usize,
}

/// Checks the persisted image's sealed chunks and the journal's tail
/// against where `point` kills an epoch; `Err` says how they disagree.
fn check_sealed_sets(
    point: FaultPoint,
    image: &[u8],
    journal_bytes: &[u8],
) -> Result<SealedSet, String> {
    let image = HeapImage::decode(image).map_err(|e| format!("image does not decode: {e}"))?;
    let outcome =
        journal::read_bytes(journal_bytes).map_err(|e| format!("journal does not read: {e}"))?;
    let sealed: Vec<(u64, u64)> = image
        .chunks
        .iter()
        .filter(|c| c.state == ImageChunkState::QuarantinedSealed)
        .map(|c| (c.addr, c.size))
        .collect();
    let latest = outcome.records.iter().map(Record::epoch).max();
    let tail = journal::classify(&outcome.records);
    let tail_ok = match point {
        // The seal happened, its record did not: recovery re-opens.
        FaultPoint::CrashAfterSeal => tail == TailState::Clean,
        _ => matches!(tail, TailState::SweepInterrupted { epoch } if Some(epoch) == latest),
    };
    if !tail_ok {
        return Err(format!(
            "journal tail {tail:?} at {} (latest epoch {latest:?})",
            point.name()
        ));
    }
    let drained = point == FaultPoint::CrashBeforeCommit;
    if drained && !sealed.is_empty() {
        return Err(format!(
            "drained image still holds sealed chunks {sealed:x?}"
        ));
    }
    if !drained && sealed.is_empty() {
        return Err("image holds no sealed chunk before the drain".into());
    }
    Ok(SealedSet {
        chunks: sealed.len(),
        spans: byte_spans(sealed).len(),
    })
}

/// One matrix entry: kill a child at `spec`, recover in-process, audit.
/// Returns how many non-adjacent spans the image's sealed set covered.
fn kill_and_recover(
    test_name: &str,
    kernel: Kernel,
    slice: Option<u64>,
    point: FaultPoint,
    start: u64,
) -> usize {
    let spec = format!(
        "{}/{}/{}/{start}",
        kernel.name(),
        slice.unwrap_or(0),
        point.name()
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("crash-chaos-{}", spec.replace('/', "-")));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    // The child's output is captured, not inherited: its test harness
    // prints a `test <name> ... ` line that the abort leaves unfinished,
    // which would otherwise splice into the parent run's own report.
    let child = Command::new(&exe)
        .arg(test_name)
        .arg("--exact")
        .arg("--test-threads=1")
        .env(SPEC_ENV, &spec)
        .env(DIR_ENV, &dir)
        .stdin(Stdio::null())
        .output()
        .expect("re-exec test binary");
    let child_stderr = String::from_utf8_lossy(&child.stderr);
    if child.status.code() == Some(EXIT_NEVER_FIRED) {
        fail_entry(
            &spec,
            &dir,
            "armed crash point never fired (workload too small?)",
        );
    }
    if child.status.success() {
        fail_entry(&spec, &dir, "child exited cleanly instead of crashing");
    }
    let image = match std::fs::read(dir.join("heap.img")) {
        Ok(b) => b,
        Err(e) => fail_entry(
            &spec,
            &dir,
            &format!("child died without persisting image: {e}\nchild stderr:\n{child_stderr}"),
        ),
    };
    let journal_bytes = match std::fs::read(dir.join("heap.cvj")) {
        Ok(b) => b,
        Err(e) => fail_entry(&spec, &dir, &format!("child died without a journal: {e}")),
    };
    let sealed = match check_sealed_sets(point, &image, &journal_bytes) {
        Ok(sealed) => sealed,
        Err(why) => fail_entry(&spec, &dir, &why),
    };
    let started = Instant::now();
    let (mut heap, report) =
        match CherivokeHeap::recover(heap_config(kernel, slice), &image, &journal_bytes) {
            Ok(r) => r,
            Err(e) => fail_entry(&spec, &dir, &format!("recovery failed: {e}")),
        };
    let recovery_time = started.elapsed();
    if !report.safe() {
        fail_entry(
            &spec,
            &dir,
            &format!("recovered heap failed its safety audit: {:?}", report.audit),
        );
    }
    let action_ok = match point {
        FaultPoint::CrashAfterSeal => report.action == RecoveryAction::ReopenSeal,
        _ => report.action == RecoveryAction::RollForward,
    };
    if !action_ok {
        fail_entry(
            &spec,
            &dir,
            &format!("unexpected recovery action {:?}", report.action),
        );
    }
    if report.action == RecoveryAction::RollForward && report.repainted_ranges != sealed.chunks {
        fail_entry(
            &spec,
            &dir,
            &format!(
                "roll-forward repainted {} ranges, the image holds {} sealed chunks",
                report.repainted_ranges, sealed.chunks
            ),
        );
    }
    // Bounded recovery: a 1 MiB heap must come back interactively fast.
    // (The bench verdict gates the precise budget; this is a backstop
    // against pathological rescan loops.)
    if recovery_time > Duration::from_secs(10) {
        fail_entry(&spec, &dir, &format!("recovery took {recovery_time:?}"));
    }
    // The recovered heap is a normal heap: full lifecycle, clean audit.
    let c = heap.malloc(256).unwrap();
    heap.free(c).unwrap();
    heap.revoke_now();
    if !heap.audit().clean() {
        fail_entry(&spec, &dir, "post-recovery lifecycle left an unclean audit");
    }
    let _ = std::fs::remove_dir_all(&dir);
    sealed.spans
}

/// The full kill matrix: 60 seeded process kills.
#[test]
fn crash_chaos_stock() {
    let test_name = "crash_chaos_stock";
    // Child mode short-circuits everything: this process IS a matrix
    // entry, re-execed by a parent run of the same test.
    if let Ok(spec) = std::env::var(SPEC_ENV) {
        let dir = PathBuf::from(std::env::var(DIR_ENV).expect("child needs CVK_CRASH_DIR"));
        run_child(&spec, &dir);
    }
    let mut kills = 0;
    let mut multi_span_kills = 0;
    for kernel in KERNELS {
        for slice in SLICES {
            for point in CRASH_POINTS {
                for start in START_INDICES {
                    let spans = kill_and_recover(test_name, kernel, slice, point, start);
                    kills += 1;
                    if spans >= 2 {
                        multi_span_kills += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        kills,
        KERNELS.len() * SLICES.len() * CRASH_POINTS.len() * START_INDICES.len()
    );
    // The sealed-set check above must have seen an image whose sealed
    // chunks are not one contiguous run.
    assert!(
        multi_span_kills > 0,
        "no kill's image sealed two or more non-adjacent spans"
    );
}
