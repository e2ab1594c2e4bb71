//! Fig. 6 (+ Table I): roofline characterization of every evaluation
//! workload on both platforms — static OI vs. measured OI, CB/BB class,
//! estimated vs. "hardware" performance and power at the maximum uncore
//! frequency, and the CB/BB split of the PolyBench suite.

use polyufc::{Boundedness, ParametricModel, Pipeline};
use polyufc_bench::{evaluate, fault_plan_from_args, flag_from_args, print_table, size_from_args};
use polyufc_machine::{ExecutionEngine, Platform};
use polyufc_workloads::{ml_suite, polybench_suite};

fn main() {
    let size = size_from_args();
    // `--only <workload>` restricts the characterization to one point —
    // the CI Large-size smoke uses `--size large --only gemm`.
    let only = flag_from_args("--only");
    let fault = fault_plan_from_args();
    for plat in Platform::all() {
        let pipe = Pipeline::new(plat.clone());
        let eng = ExecutionEngine::new(plat.clone()).with_fault_plan(fault.clone());

        println!("\n# Fig. 6 — characterization on {}", plat.name);
        if !fault.is_pristine() {
            println!("(fault plan: {})", fault.spec_string());
        }
        println!("## Table I constants (calibrated rooflines)");
        let r = &pipe.roofline;
        println!(
            "t_FPU        = {:.3e} s/flop (peak {:.1} Gflop/s)",
            r.t_fpu(),
            r.peak_flops / 1e9
        );
        println!(
            "B^t_DRAM     = {:.2} FpB at f_max, {:.2} FpB at f_min",
            r.time_balance(plat.uncore_max_ghz),
            r.time_balance(plat.uncore_min_ghz)
        );
        println!(
            "e_FPU        = {:.3e} J/flop; p̂_FPU = {:.1} W",
            r.e_fpu, r.p_hat_fpu
        );
        println!("p_con        = {:.1} W", r.p_con);
        println!(
            "P̂_DRAM(f)    = {:.2}·f + {:.2} W",
            r.p_dram_fit.0, r.p_dram_fit.1
        );
        println!(
            "M^t(f)       = {:.2}/f + {:.2} ns",
            r.miss_t_fit.0 * 1e9,
            r.miss_t_fit.1 * 1e9
        );
        println!(
            "M^p(f)       = {:.3e}·f + {:.3e} J/B",
            r.miss_p_fit.0, r.miss_p_fit.1
        );

        let mut rows = Vec::new();
        let mut cb = 0;
        let mut bb = 0;
        let mut perf_errs = Vec::new();
        let f_max = plat.uncore_max_ghz;
        let conc = plat.cores as f64;

        let mut programs: Vec<(String, polyufc_ir::affine::AffineProgram)> = Vec::new();
        for w in polybench_suite(size) {
            programs.push((w.name.to_string(), w.program));
        }
        for w in ml_suite() {
            programs.push((w.name.to_string(), w.affine()));
        }
        if let Some(only) = &only {
            programs.retain(|(name, _)| name == only);
            if programs.is_empty() {
                eprintln!("--only {only}: no such workload");
                std::process::exit(2);
            }
        }

        // Every (workload) point is independent: fan the evaluations out
        // and render the table sequentially from the input-ordered
        // results, so the output is byte-identical to a serial run.
        let evals = polyufc_par::par_map(&programs, |(name, program)| {
            evaluate(&pipe, &eng, program, name)
        });
        for ((name, _), result) in programs.iter().zip(evals) {
            let e = match result {
                Ok(e) => e,
                Err(err) => {
                    eprintln!("skipping {name}: {err}");
                    continue;
                }
            };
            match e.class() {
                Boundedness::ComputeBound => cb += 1,
                Boundedness::BandwidthBound => bb += 1,
            }
            // Estimated vs measured performance and power at f_max
            // (whole program; power is time-weighted over kernels).
            let mut t_est = 0.0;
            let mut e_est = 0.0;
            let mut p_peak: f64 = 0.0;
            for (k, st) in e.out.optimized.kernels.iter().zip(&e.out.cache_stats) {
                let pm =
                    ParametricModel::new(&pipe.roofline, st, k.outer_parallel().is_some(), conc);
                t_est += pm.exec_time(f_max);
                e_est += pm.energy(f_max);
                p_peak = p_peak.max(pm.peak_power(f_max));
            }
            let p_est = e_est / t_est.max(1e-15);
            let flops: f64 = e.counters.iter().map(|c| c.flops as f64).sum();
            let perf_est = flops / t_est;
            let perf_meas = flops / e.baseline.time_s;
            let err = (perf_est / perf_meas - 1.0).abs();
            perf_errs.push(err);
            rows.push(vec![
                name.clone(),
                format!("{}", e.class()),
                format!("{:.2}", e.static_oi()),
                format!("{:.2}", e.measured_oi()),
                format!("{:.2}", perf_est / 1e9),
                format!("{:.2}", perf_meas / 1e9),
                format!("{:.0}%", err * 100.0),
                format!("{:.1}", p_est),
                format!("{:.1}", e.baseline.avg_power_w),
                format!("{:.1}", p_peak),
            ]);
        }
        print_table(
            &[
                "kernel",
                "class",
                "OI(est)",
                "OI(meas)",
                "Gflops(est)",
                "Gflops(meas)",
                "perf err",
                "P(est) W",
                "P(meas) W",
                "P̂ ceiling W",
            ],
            &rows,
        );
        println!(
            "\nCB/BB split: {cb} CB, {bb} BB (paper on RPL: 13 CB + 9 BB of 22 PolyBench kernels)"
        );
        println!(
            "median perf estimation error: {:.1}% (paper: <7% for conv2d-convnext)",
            median(&mut perf_errs) * 100.0
        );
    }
    polyufc_bench::report_measure_cache();
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if xs.is_empty() {
        0.0
    } else {
        xs[xs.len() / 2]
    }
}
