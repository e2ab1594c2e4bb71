//! Table II: the evaluation benchmarks — ML kernels with their model
//! sources and shapes, and the PolyBench suite with problem sizes and
//! memory footprints.

use polyufc_bench::{print_table, size_from_args};
use polyufc_workloads::{ml_suite, polybench_suite};

fn main() {
    let size = size_from_args();

    println!("# Table II(a) — selected ML kernels");
    let mut rows = Vec::new();
    for w in ml_suite() {
        let ap = w.affine();
        let flops: i128 = ap
            .kernels
            .iter()
            .map(|k| k.total_flops().unwrap_or(0))
            .sum();
        rows.push(vec![
            w.name.to_string(),
            w.source.to_string(),
            w.domain.to_string(),
            format!("{}", ap.kernels.len()),
            format!("{:.1} MiB", ap.footprint_bytes() as f64 / (1 << 20) as f64),
            format!("{:.2} Gflop", flops as f64 / 1e9),
            if w.scaled {
                "scaled".into()
            } else {
                "paper shape".into()
            },
        ]);
    }
    print_table(
        &[
            "kernel",
            "source",
            "domain",
            "nests",
            "footprint",
            "flops",
            "shape",
        ],
        &rows,
    );

    println!("\n# Table II(b) — PolyBench suite (size preset: {size:?})");
    let mut rows = Vec::new();
    for w in polybench_suite(size) {
        let flops: i128 = w
            .program
            .kernels
            .iter()
            .map(|k| k.total_flops().unwrap_or(0))
            .sum();
        rows.push(vec![
            w.name.to_string(),
            w.category.to_string(),
            format!("{}", w.program.kernels.len()),
            format!(
                "{:.1} MiB",
                w.program.footprint_bytes() as f64 / (1 << 20) as f64
            ),
            format!("{:.2} Gflop", flops as f64 / 1e9),
            w.paper_class.unwrap_or("-").to_string(),
        ]);
    }
    print_table(
        &[
            "kernel",
            "category",
            "nests",
            "footprint",
            "flops",
            "paper class",
        ],
        &rows,
    );
}
