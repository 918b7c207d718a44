//! Process-kill crash chaos: fork/re-exec children `abort()` mid-epoch
//! at seeded fault points; the parent recovers every crash from the
//! persisted heap image + epoch journal and audits the result.
//!
//! Each matrix entry re-execs this test binary with `CVK_CRASH_SPEC`
//! set. The child arms **hard** crash persistence
//! ([`CherivokeHeap::set_crash_persist`] with `hard = true`), runs an
//! alloc/stash/free workload until the seeded crash point fires, writes
//! the image, and dies with `SIGABRT` — a real process kill, not an
//! unwound panic. The parent then rebuilds the heap in-process via
//! [`CherivokeHeap::recover`] and asserts the full-heap safety audit is
//! clean: no tagged capability points into reusable memory.
//!
//! The matrix is 5 crash points × 3 start indices × 3 backends = 45
//! seeded kills (the ISSUE's ≥ 32 floor). CI shards it by backend via
//! `CHERIVOKE_CRASH_BACKEND`; a failing entry's spec, image and journal
//! are exported to `$CARGO_TARGET_TMPDIR` for artifact upload.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cherivoke::fault::{FaultInjector, FaultPlan, FaultPoint, FaultRule, CRASH_POINTS};
use cherivoke::{BackendKind, CherivokeHeap, HeapConfig, RecoveryAction};

/// Child-mode selector: `backend/point/start`.
const SPEC_ENV: &str = "CVK_CRASH_SPEC";
/// Directory the child persists its image + journal into.
const DIR_ENV: &str = "CVK_CRASH_DIR";
/// Child exit code meaning "the armed crash point never fired".
const EXIT_NEVER_FIRED: i32 = 86;

/// Epoch-crash start indices per (point, backend): the Nth time the
/// point is reached is when the process dies, so early, mid-run and
/// late-run epochs are all killed.
const START_INDICES: [u64; 3] = [0, 2, 5];

fn heap_config(backend: BackendKind) -> HeapConfig {
    let mut cfg = HeapConfig::small();
    cfg.policy.backend = backend;
    cfg.policy.quarantine.fraction = 0.125;
    cfg.policy.incremental_slice_bytes = Some(16 << 10);
    cfg
}

fn backend_by_name(name: &str) -> BackendKind {
    match name {
        "stock" => BackendKind::Stock,
        "colored" => BackendKind::Colored,
        "hierarchical" => BackendKind::Hierarchical,
        other => panic!("unknown backend {other:?} in {SPEC_ENV}"),
    }
}

/// Child mode: run the workload with a hard crash armed. On the expected
/// path this never returns — the crash point aborts the process after
/// persisting the image. Exits [`EXIT_NEVER_FIRED`] if the workload
/// finishes without the point firing.
fn run_child(spec: &str, dir: &Path) -> ! {
    let mut parts = spec.split('/');
    let backend = backend_by_name(parts.next().expect("spec backend"));
    let point = FaultPoint::from_name(parts.next().expect("spec point")).expect("known point");
    let start: u64 = parts
        .next()
        .expect("spec start")
        .parse()
        .expect("start index");
    let mut heap = CherivokeHeap::new(heap_config(backend)).unwrap();
    heap.set_journal(journal::Journal::create(dir.join("heap.cvj")).unwrap());
    heap.set_crash_persist(dir.join("heap.img"), true);
    heap.set_fault_injector(FaultInjector::new(FaultPlan::from_rules(vec![
        FaultRule::once(point, start),
    ])));
    // Live ballast keeps the epoch trigger meaningfully sized; the loop
    // stashes each allocation before freeing it so dangling architectural
    // copies exist in memory at every crash window.
    let mut ballast = Vec::new();
    for _ in 0..4 {
        ballast.push(heap.malloc(64 << 10).unwrap());
    }
    let holder = heap.malloc(16).unwrap();
    for _ in 0..2000 {
        let obj = heap.malloc(4 << 10).unwrap();
        heap.store_cap(&holder, 0, &obj).unwrap();
        heap.free(obj).unwrap();
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

/// One matrix entry: kill a child at `spec`, recover in-process, audit.
fn kill_and_recover(test_name: &str, backend: BackendKind, point: FaultPoint, start: u64) {
    let spec = format!("{}/{}/{start}", backend.name(), point.name());
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "crash-chaos-{}-{}-{start}",
        backend.name(),
        point.name()
    ));
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
    let started = Instant::now();
    let (mut heap, report) =
        match CherivokeHeap::recover(heap_config(backend), &image, &journal_bytes) {
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
        _ => matches!(report.action, RecoveryAction::RollForward { .. }),
    };
    if !action_ok {
        fail_entry(
            &spec,
            &dir,
            &format!("unexpected recovery action {:?}", report.action),
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
}

/// Runs the full kill matrix for one backend (15 seeded process kills).
fn run_matrix(test_name: &str, backend: BackendKind) {
    // Child mode short-circuits everything: this process IS a matrix
    // entry, re-execed by a parent run of the same test.
    if let Ok(spec) = std::env::var(SPEC_ENV) {
        let dir = PathBuf::from(std::env::var(DIR_ENV).expect("child needs CVK_CRASH_DIR"));
        run_child(&spec, &dir);
    }
    // CI shards the matrix one backend per job.
    if let Ok(filter) = std::env::var("CHERIVOKE_CRASH_BACKEND") {
        if !filter.is_empty() && filter != backend.name() {
            eprintln!(
                "crash-chaos: skipping backend {} (CHERIVOKE_CRASH_BACKEND={filter})",
                backend.name()
            );
            return;
        }
    }
    let mut kills = 0;
    for point in CRASH_POINTS {
        for start in START_INDICES {
            kill_and_recover(test_name, backend, point, start);
            kills += 1;
        }
    }
    assert_eq!(kills, CRASH_POINTS.len() * START_INDICES.len());
}

#[test]
fn crash_chaos_stock() {
    run_matrix("crash_chaos_stock", BackendKind::Stock);
}

#[test]
fn crash_chaos_colored() {
    run_matrix("crash_chaos_colored", BackendKind::Colored);
}

#[test]
fn crash_chaos_hierarchical() {
    run_matrix("crash_chaos_hierarchical", BackendKind::Hierarchical);
}
