//! Integration tests asserting the paper's *qualitative evaluation claims*
//! hold in this reproduction — scaled-down versions of the figure
//! pipelines, so `cargo test` continuously verifies the headline results.

use baselines::{BoehmGcHeap, DangSanHeap, OscarHeap, PSweeperHeap};
use bench::{geomean, image_with_line_density, image_with_page_density};
use revoker::timed::{timed_sweep, TimedMode};
use revoker::ShadowMap;
use simcache::{Machine, MachineConfig};
use tagmem::{CoreDump, SegmentImage, SegmentKind};
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator};

const SCALE: f64 = 1.0 / 1024.0;
const SEED: u64 = 7;

/// Figure 5 claim: CHERIvoke "significantly outperforms any other
/// technique" in geomean execution time, and its average is in single-digit
/// percent.
#[test]
fn fig5_cherivoke_beats_every_comparator() {
    let mut cv = Vec::new();
    let mut oscar = Vec::new();
    let mut psweeper = Vec::new();
    let mut dangsan = Vec::new();
    let mut boehm = Vec::new();

    for p in profiles::spec() {
        let trace = TraceGenerator::new(p, SCALE, SEED).generate();
        let run = |r: Result<workloads::RunReport, workloads::ReplayError>| {
            r.unwrap_or_else(|e| panic!("{}: {e}", p.name))
                .normalized_time
        };
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("heap");
        cv.push(run(run_trace(&mut sut, &trace)));
        oscar.push(run(run_trace(&mut OscarHeap::new(&trace), &trace)));
        psweeper.push(run(run_trace(&mut PSweeperHeap::new(&trace), &trace)));
        dangsan.push(run(run_trace(&mut DangSanHeap::new(&trace), &trace)));
        boehm.push(run(run_trace(&mut BoehmGcHeap::new(&trace), &trace)));
    }

    let cv_geo = geomean(&cv);
    assert!(
        cv_geo < 1.10,
        "CHERIvoke average must be single-digit %, got {cv_geo}"
    );
    for (name, xs) in [
        ("Oscar", &oscar),
        ("pSweeper", &psweeper),
        ("DangSan", &dangsan),
        ("Boehm-GC", &boehm),
    ] {
        let other = geomean(xs);
        assert!(
            cv_geo < other,
            "CHERIvoke ({cv_geo:.3}) must beat {name} ({other:.3})"
        );
    }
    // Worst case stays bounded (paper: max 1.51).
    let max = cv.iter().cloned().fold(1.0f64, f64::max);
    assert!(
        max < 1.8,
        "CHERIvoke worst case should stay moderate, got {max}"
    );
}

/// Figure 6 claim: stages are cumulative, sweeping dominates where overhead
/// is high, and some benchmarks *gain* from free batching.
#[test]
fn fig6_decomposition_shape() {
    use workloads::{CostModel, Stage};
    let p = profiles::by_name("omnetpp").unwrap();
    let trace = TraceGenerator::new(p, SCALE, SEED).generate();
    let mut times = Vec::new();
    for stage in [Stage::QuarantineOnly, Stage::WithShadow, Stage::Full] {
        let mut sut = CherivokeUnderTest::new(
            &trace,
            cherivoke::RevocationPolicy::paper_default(),
            CostModel::x86_default(),
            stage,
        )
        .expect("heap");
        times.push(run_trace(&mut sut, &trace).expect("run").normalized_time);
    }
    assert!(times[0] <= times[1] && times[1] <= times[2]);
    assert!(
        times[2] - times[1] > times[1] - times[0],
        "sweeping dominates for omnetpp"
    );

    // dealII gains from batching: quarantine-only below 1.0 (fig. 6).
    let p = profiles::by_name("dealII").unwrap();
    let trace = TraceGenerator::new(p, SCALE, SEED).generate();
    let mut sut = CherivokeUnderTest::new(
        &trace,
        cherivoke::RevocationPolicy::paper_default(),
        CostModel::x86_default(),
        Stage::QuarantineOnly,
    )
    .expect("heap");
    let t = run_trace(&mut sut, &trace).expect("run").normalized_time;
    assert!(
        t < 1.0,
        "dealII quarantine-only should beat baseline, got {t}"
    );
}

/// Figure 8(b) claim: PTE CapDirty tracks the ideal line; CLoadTags wins at
/// low density and loses above a crossover.
#[test]
fn fig8b_hardware_assist_shape() {
    let len = 4 << 20;
    let normalised = |mem: tagmem::TaggedMemory, mode: TimedMode| -> f64 {
        let shadow = ShadowMap::new(mem.base(), mem.len());
        let dump = CoreDump::from_images(vec![SegmentImage {
            kind: SegmentKind::Heap,
            mem,
        }]);
        let mut m_full = Machine::new(MachineConfig::cheri_fpga_like());
        let full = timed_sweep(&dump, &shadow, &mut m_full, TimedMode::Full).cycles;
        let mut m = Machine::new(MachineConfig::cheri_fpga_like());
        timed_sweep(&dump, &shadow, &mut m, mode).cycles as f64 / full as f64
    };

    // PTE hugs x = y at page granularity.
    for d in [0.2, 0.5, 0.8] {
        let t = normalised(image_with_page_density(len, d), TimedMode::PteCapDirty);
        assert!((t - d).abs() < 0.1, "PTE at density {d} gave {t}");
    }
    // CLoadTags beats a full sweep at low line density…
    let low = normalised(image_with_line_density(len, 0.1), TimedMode::CLoadTags);
    assert!(
        low < 0.6,
        "CLoadTags should pay off at 10% density, got {low}"
    );
    // …and exceeds it at full density (the §6.3 'can even lower performance').
    let high = normalised(image_with_line_density(len, 1.0), TimedMode::CLoadTags);
    assert!(
        high > 1.0,
        "CLoadTags must cost extra at 100% density, got {high}"
    );
}

/// Figure 9 claim: time falls monotonically as the quarantine grows, and
/// memory rises.
#[test]
fn fig9_tradeoff_is_monotone() {
    use workloads::{CostModel, Stage};
    let p = profiles::by_name("xalancbmk").unwrap();
    let trace = TraceGenerator::new(p, SCALE, SEED).generate();
    let mut last_time = f64::INFINITY;
    let mut last_mem = 0.0;
    for fraction in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let mut sut = CherivokeUnderTest::new(
            &trace,
            cherivoke::RevocationPolicy::with_fraction(fraction),
            CostModel::x86_default(),
            Stage::Full,
        )
        .expect("heap");
        let r = run_trace(&mut sut, &trace).expect("run");
        assert!(
            r.normalized_time < last_time,
            "time should fall with fraction {fraction}: {} !< {last_time}",
            r.normalized_time
        );
        assert!(
            r.normalized_memory > last_mem,
            "memory should rise with fraction {fraction}"
        );
        last_time = r.normalized_time;
        last_mem = r.normalized_memory;
    }
}

/// §6.1.3 claim: the analytic model predicts the measured sweep overhead
/// within a small factor for every benchmark with meaningful overhead.
#[test]
fn analytic_model_matches_measurement() {
    for p in profiles::all() {
        let trace = TraceGenerator::new(p, SCALE, SEED).generate();
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("heap");
        let report = run_trace(&mut sut, &trace).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let measured = report.breakdown.sweep / report.app_seconds;
        let model = cherivoke::OverheadModel {
            free_rate_mib_s: p.free_rate_mib_s,
            pointer_density: p.pointer_page_density,
            scan_rate_mib_s: 8.0 * 1024.0,
            quarantine_fraction: 0.25 * 0.45,
        }
        .runtime_overhead();
        if model > 0.005 {
            let ratio = measured / model;
            assert!(
                (0.2..=3.0).contains(&ratio),
                "{}: measured {measured:.4} vs model {model:.4} (ratio {ratio:.2})",
                p.name
            );
        }
    }
}

/// Figure 10 claim: for the allocation-intensive workloads, sweep traffic
/// per second stays at or below the level implied by the time overhead
/// (sweeping is bandwidth-efficient).
#[test]
fn fig10_traffic_is_proportionate() {
    for name in ["omnetpp", "xalancbmk", "dealII"] {
        let p = profiles::by_name(name).unwrap();
        let trace = TraceGenerator::new(p, SCALE, SEED).generate();
        let mut sut = CherivokeUnderTest::paper_default(&trace).expect("heap");
        let report = run_trace(&mut sut, &trace).expect("run");
        let sweep_mib_s =
            sut.heap().stats().bytes_swept as f64 / (1024.0 * 1024.0) / report.app_seconds;
        // Sweeping at 8 GiB/s: traffic (MiB/s) = 8192 × time-fraction.
        let implied = 8192.0 * (report.breakdown.sweep / report.app_seconds);
        assert!(
            sweep_mib_s <= implied * 1.05 + 1.0,
            "{name}: sweep traffic {sweep_mib_s:.0} MiB/s exceeds implied {implied:.0}"
        );
    }
}
