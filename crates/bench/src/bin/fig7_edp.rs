//! Fig. 7: time, energy, and EDP of PolyUFC-capped programs vs. the stock
//! Intel UFS driver baseline, on both platforms, over the full evaluation
//! suite; PolyBench geomean EDP improvement per platform (paper: 12% on
//! BDW, 10.6% on RPL; up to 42% CB / 54% BB overall, ε = 1e-3).

use polyufc::Pipeline;
use polyufc_bench::{
    evaluate_guarded, fault_plan_from_args, geomean, guard_from_args, pct, print_table,
    size_from_args,
};
use polyufc_machine::{ExecutionEngine, Platform};
use polyufc_workloads::{ml_suite, polybench_suite};

fn main() {
    let size = size_from_args();
    let fault = fault_plan_from_args();
    let guard = guard_from_args();
    for plat in Platform::all() {
        let pipe = Pipeline::new(plat.clone());
        let eng = ExecutionEngine::new(plat.clone()).with_fault_plan(fault.clone());
        println!(
            "\n# Fig. 7 — vs. Intel UFS baseline on {} (ε = 1e-3)",
            plat.name
        );
        if !fault.is_pristine() {
            println!("(fault plan: {})", fault.spec_string());
        }

        let mut rows = Vec::new();
        let mut pb_edp_ratio = Vec::new();
        let mut best_cb: (f64, String) = (0.0, String::new());
        let mut best_bb: (f64, String) = (0.0, String::new());

        let mut programs: Vec<(String, bool, polyufc_ir::affine::AffineProgram)> = Vec::new();
        for w in polybench_suite(size) {
            programs.push((w.name.to_string(), true, w.program));
        }
        for w in ml_suite() {
            programs.push((w.name.to_string(), false, w.affine()));
        }

        // Independent evaluation points: fan out, then build rows from the
        // input-ordered results so the table is byte-identical to a serial
        // run.
        let evals = polyufc_par::par_map(&programs, |(name, _, program)| {
            evaluate_guarded(&pipe, &eng, program, name, guard)
        });
        let mut guard_lines = Vec::new();
        for ((name, is_pb, _), result) in programs.iter().zip(evals) {
            let e = match result {
                Ok(e) => e,
                Err(err) => {
                    eprintln!("skipping {name}: {err}");
                    continue;
                }
            };
            let caps: Vec<String> = e
                .steady_caps_ghz
                .iter()
                .map(|f| format!("{f:.1}"))
                .collect();
            let edp_impr = e.steady_edp_improvement();
            if *is_pb {
                pb_edp_ratio.push(e.steady.edp() / e.baseline.edp());
            }
            let class = e.class();
            match class {
                polyufc::Boundedness::ComputeBound if edp_impr > best_cb.0 => {
                    best_cb = (edp_impr, name.clone());
                }
                polyufc::Boundedness::BandwidthBound if edp_impr > best_bb.0 => {
                    best_bb = (edp_impr, name.clone());
                }
                _ => {}
            }
            if let Some(rep) = &e.guard {
                guard_lines.push(format!("  {:<20} {}", name, rep.one_line()));
            }
            rows.push(vec![
                name.clone(),
                format!("{class}"),
                summarize_caps(&caps),
                pct(e.steady_time_improvement()),
                pct(e.steady_energy_improvement()),
                pct(edp_impr),
                pct(e.edp_improvement()),
            ]);
        }
        print_table(
            &[
                "kernel",
                "class",
                "caps (GHz)",
                "Δtime",
                "Δenergy",
                "ΔEDP",
                "ΔEDP(deploy)",
            ],
            &rows,
        );
        println!(
            "\nPolyBench geomean EDP improvement (steady state): {} (paper: 12% BDW, 10.6% RPL)",
            pct(1.0 - geomean(&pb_edp_ratio))
        );
        println!("(`deploy` includes cap-switch overheads on these scaled-down kernels;");
        println!(" the paper's kernels run for seconds, making the steady-state column the comparable one)");
        println!("best CB improvement: {} ({})", pct(best_cb.0), best_cb.1);
        println!("best BB improvement: {} ({})", pct(best_bb.0), best_bb.1);
        if guard {
            println!("\n## Guard decisions ({})", plat.name);
            for line in &guard_lines {
                println!("{line}");
            }
        }
    }
    polyufc_bench::report_measure_cache();
}

fn summarize_caps(caps: &[String]) -> String {
    if caps.len() <= 3 {
        caps.join(",")
    } else {
        let uniq: std::collections::BTreeSet<_> = caps.iter().collect();
        format!(
            "{} kernels, caps {{{}}}",
            caps.len(),
            uniq.into_iter().cloned().collect::<Vec<_>>().join(",")
        )
    }
}
