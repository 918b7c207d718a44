//! Regenerates **Table 2**: deallocation metadata from applications.
//!
//! For every benchmark the harness generates its workload trace, replays it
//! against the real CHERIvoke heap, and measures the realised pointer page
//! density, free rate and free count — printed beside the paper's values.

use workloads::measure_table2;

fn main() {
    let scale = 1.0 / 512.0;
    let rows = measure_table2(scale, 42);

    println!("Table 2: deallocation metadata (paper vs regenerated, heap scale 1/512)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0}%", r.paper_page_density * 100.0),
                format!("{:.0}%", r.measured_page_density * 100.0),
                format!("{:.0}", r.paper_free_rate),
                format!("{:.0}", r.measured_free_rate),
                format!("{:.0}", r.paper_frees_k),
                format!("{:.0}", r.measured_frees_k),
            ]
        })
        .collect();
    print_header();
    bench::print_table(
        &[
            "benchmark",
            "pages w/ ptrs (paper)",
            "(measured)",
            "free MiB/s (paper)",
            "(measured)",
            "frees k/s (paper)",
            "(measured)",
        ],
        &table,
    );
}

fn print_header() {
    println!(
        "Note: frees k/s for large-object benchmarks (mcf, milc, soplex, lbm) is higher\n\
         than the paper because heap scaling clamps the mean allocation size while\n\
         preserving the free rate in MiB/s — the quantity CHERIvoke's costs depend on.\n"
    );
}
