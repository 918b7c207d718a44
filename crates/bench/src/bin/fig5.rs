//! Regenerates **Figure 5**: normalised execution time (a) and memory
//! utilisation (b) for CHERIvoke vs Oscar, pSweeper, DangSan and Boehm-GC
//! across the 16 SPEC benchmarks, with geometric means.
//!
//! Each system is the real algorithm replaying the same trace (see the
//! `baselines` crate docs); the numbers reproduce the figure's *shape*:
//! CHERIvoke lowest and flattest, each comparator blowing up on its
//! characteristic pathology.

use baselines::{BoehmGcHeap, DangSanHeap, OscarHeap, PSweeperHeap};
use workloads::{profiles, run_trace, CherivokeUnderTest, TraceGenerator, WorkloadHeap};

struct Fig5Row {
    benchmark: String,
    cherivoke_time: f64,
    oscar_time: f64,
    psweeper_time: f64,
    dangsan_time: f64,
    boehm_time: f64,
    cherivoke_mem: f64,
    oscar_mem: f64,
    psweeper_mem: f64,
    dangsan_mem: f64,
    boehm_mem: f64,
}

fn run_system<H: WorkloadHeap>(mut h: H, trace: &workloads::Trace) -> (f64, f64) {
    match run_trace(&mut h, trace) {
        Ok(r) => (r.normalized_time, r.normalized_memory),
        Err(e) => panic!("{}: {e}", trace.profile.name),
    }
}

fn main() {
    let scale = 1.0 / 512.0;
    let seed = 42;
    let mut rows = Vec::new();

    for p in profiles::spec() {
        let trace = TraceGenerator::new(p, scale, seed).generate();
        let (cv_t, cv_m) = run_system(
            CherivokeUnderTest::paper_default(&trace).expect("construct heap"),
            &trace,
        );
        let (os_t, os_m) = run_system(OscarHeap::new(&trace), &trace);
        let (ps_t, ps_m) = run_system(PSweeperHeap::new(&trace), &trace);
        let (ds_t, ds_m) = run_system(DangSanHeap::new(&trace), &trace);
        let (gc_t, gc_m) = run_system(BoehmGcHeap::new(&trace), &trace);
        rows.push(Fig5Row {
            benchmark: p.name.to_string(),
            cherivoke_time: cv_t,
            oscar_time: os_t,
            psweeper_time: ps_t,
            dangsan_time: ds_t,
            boehm_time: gc_t,
            cherivoke_mem: cv_m,
            oscar_mem: os_m,
            psweeper_mem: ps_m,
            dangsan_mem: ds_m,
            boehm_mem: gc_m,
        });
    }

    // Geomean row.
    let g = |f: &dyn Fn(&Fig5Row) -> f64| bench::geomean(&rows.iter().map(f).collect::<Vec<_>>());
    let geo = Fig5Row {
        benchmark: "geomean".to_string(),
        cherivoke_time: g(&|r| r.cherivoke_time),
        oscar_time: g(&|r| r.oscar_time),
        psweeper_time: g(&|r| r.psweeper_time),
        dangsan_time: g(&|r| r.dangsan_time),
        boehm_time: g(&|r| r.boehm_time),
        cherivoke_mem: g(&|r| r.cherivoke_mem),
        oscar_mem: g(&|r| r.oscar_mem),
        psweeper_mem: g(&|r| r.psweeper_mem),
        dangsan_mem: g(&|r| r.dangsan_mem),
        boehm_mem: g(&|r| r.boehm_mem),
    };
    rows.push(geo);

    println!("Figure 5(a): normalised execution time (25% quarantine)\n");
    bench::print_table(
        &[
            "benchmark",
            "CHERIvoke",
            "Oscar",
            "pSweeper",
            "DangSan",
            "Boehm-GC",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.3}", r.cherivoke_time),
                    format!("{:.2}", r.oscar_time),
                    format!("{:.2}", r.psweeper_time),
                    format!("{:.2}", r.dangsan_time),
                    format!("{:.2}", r.boehm_time),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nFigure 5(b): normalised memory utilisation\n");
    bench::print_table(
        &[
            "benchmark",
            "CHERIvoke",
            "Oscar",
            "pSweeper",
            "DangSan",
            "Boehm-GC",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    format!("{:.3}", r.cherivoke_mem),
                    format!("{:.2}", r.oscar_mem),
                    format!("{:.2}", r.psweeper_mem),
                    format!("{:.2}", r.dangsan_mem),
                    format!("{:.2}", r.boehm_mem),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let last = rows.last().expect("geomean row");
    println!(
        "\nCHERIvoke geomean: {:.1}% time, {:.1}% memory overhead (paper: 4.7% / 12.5%)",
        (last.cherivoke_time - 1.0) * 100.0,
        (last.cherivoke_mem - 1.0) * 100.0,
    );
}
