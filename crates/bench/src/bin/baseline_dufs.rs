//! Extra comparison (Sec. VIII context): PolyUFC's static inter-kernel
//! capping vs. a reactive DUFS governor vs. the stock max-frequency
//! driver, on representative CB and BB kernels. Compiler-driven capping
//! wins on short kernels and phase changes because it has no control-loop
//! latency (the paper's Sec. VII-F argument, quantified).

use polyufc::Pipeline;
use polyufc_bench::{fault_plan_from_args, guard_from_args, pct, print_table, size_from_args};
use polyufc_machine::{DufsGovernor, ExecutionEngine, GuardedCapRuntime, Platform, UfsDriver};
use polyufc_workloads::ml::sdpa_bert;
use polyufc_workloads::polybench;

fn main() {
    let size = size_from_args();
    let fault = fault_plan_from_args();
    let guard = guard_from_args();
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::new(plat.clone()).with_fault_plan(fault.clone());

    let sdpa = sdpa_bert().affine();
    let programs = vec![
        ("gemm (CB)", polybench::gemm(size.n3())),
        ("mvt (BB)", polybench::mvt(size.n2())),
        ("sdpa-bert (phases)", sdpa),
    ];

    println!(
        "# PolyUFC vs DUFS governor vs stock driver on {}",
        plat.name
    );
    if !fault.is_pristine() {
        println!("(fault plan: {})", fault.spec_string());
    }
    let mut rows = Vec::new();
    let mut guard_lines = Vec::new();
    // Compile + trace-measure each workload in parallel; the governor
    // comparisons below consume the input-ordered results sequentially.
    let prepared = polyufc_par::par_map(&programs, |(_, program)| {
        pipe.compile_affine(program).map(|out| {
            let counters = eng.measure_program(&out.optimized);
            (out, counters)
        })
    });
    for ((name, _), result) in programs.iter().zip(prepared) {
        let (out, counters) = match result {
            Ok(oc) => oc,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                continue;
            }
        };
        let stock = UfsDriver::stock().run_baseline(&eng, &counters);
        let capped = if guard {
            let predictions = pipe.cap_predictions(&out);
            let (r, rep) = GuardedCapRuntime::new(&eng).run_scf(&out.scf, &counters, &predictions);
            guard_lines.push(format!("  {:<20} {}", name, rep.one_line()));
            r
        } else {
            eng.run_scf(&out.scf, &counters)
        };
        // The governor starts from its previous steady state — assume a
        // half-range idle frequency, like a machine between jobs.
        let start = (plat.uncore_min_ghz + plat.uncore_max_ghz) / 2.0;
        let (dufs, _) = DufsGovernor::default().run(&eng, &counters, start);
        rows.push(vec![
            name.to_string(),
            format!("{:.3e}", stock.edp()),
            format!(
                "{:.3e} ({})",
                dufs.edp(),
                pct(1.0 - dufs.edp() / stock.edp())
            ),
            format!(
                "{:.3e} ({})",
                capped.edp(),
                pct(1.0 - capped.edp() / stock.edp())
            ),
        ]);
    }
    print_table(
        &[
            "workload",
            "stock EDP",
            "DUFS EDP (vs stock)",
            "PolyUFC EDP (vs stock)",
        ],
        &rows,
    );
    println!("\n(DUFS pays control-loop latency on every phase change; PolyUFC sets the");
    println!(" frequency before each kernel starts — the Sec. VII-F argument.)");
    if guard {
        println!("\n## Guard decisions");
        for line in &guard_lines {
            println!("{line}");
        }
    }
    polyufc_bench::report_measure_cache();
}
