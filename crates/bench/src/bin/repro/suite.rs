//! The suite evaluation and the two views that print from it.

use polyufc::{Boundedness, Error, Pipeline};
use polyufc_bench::{evaluate, geomean, pct, print_table, Eval};
use polyufc_machine::{ExecutionEngine, Platform};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

use crate::{models, Ctx};

/// Every workload of the evaluation suite (PolyBench, then ML), compiled
/// and run on each platform.
#[derive(Debug)]
pub struct Suite {
    /// How many of each platform's results, from the first, are PolyBench.
    polybench: usize,
    /// Per platform: its pipeline and one input-ordered result per
    /// workload. A failed compile was reported on stderr.
    platforms: Vec<(Pipeline, Vec<Result<Eval, Error>>)>,
}

/// Evaluates the suite at `size` (restricted to the workload `only`, if
/// given) on every platform, with the noisy engine and no guard.
pub fn evaluate_suite(size: PolybenchSize, only: Option<&str>) -> Suite {
    let wanted = |name: &str| only.is_none_or(|o| o == name);
    let mut programs: Vec<_> = polybench_suite(size)
        .into_iter()
        .filter(|w| wanted(w.name))
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    let polybench = programs.len();
    programs.extend(
        ml_suite()
            .into_iter()
            .filter(|w| wanted(w.name))
            .map(|w| (w.name.to_string(), w.affine())),
    );
    // Every (workload) point is independent: fan the evaluations out; the
    // views render from the input-ordered results, so the output is
    // byte-identical to a serial run.
    let platforms = Platform::all()
        .into_iter()
        .map(|plat| {
            let pipe = Pipeline::new(plat.clone());
            let eng = ExecutionEngine::new(plat);
            let evals = polyufc_par::par_map(&programs, |(name, program)| {
                evaluate(&pipe, &eng, program, name)
            });
            for ((name, _), result) in programs.iter().zip(&evals) {
                if let Err(err) = result {
                    eprintln!("skipping {name}: {err}");
                }
            }
            (pipe, evals)
        })
        .collect();
    Suite {
        polybench,
        platforms,
    }
}

/// Fig. 6 (+ Table I): roofline characterization of every evaluation
/// workload on both platforms — static OI vs. measured OI, CB/BB class,
/// estimated vs. "hardware" performance and power at the maximum uncore
/// frequency, and the CB/BB split of the PolyBench suite.
pub fn fig6(ctx: &Ctx) {
    let suite = ctx.suite();
    for (pipe, results) in &suite.platforms {
        let plat = &pipe.platform;
        println!("\n# Fig. 6 — characterization on {}", plat.name);
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
        for e in results.iter().flatten() {
            match e.class() {
                Boundedness::ComputeBound => cb += 1,
                Boundedness::BandwidthBound => bb += 1,
            }
            // Estimated vs measured performance and power at f_max
            // (whole program; power is time-weighted over kernels).
            let mut t_est = 0.0;
            let mut e_est = 0.0;
            let mut p_peak: f64 = 0.0;
            for (_, pm) in models(pipe, &e.out) {
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
                e.name.clone(),
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
        perf_errs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN error"));
        let median = perf_errs.get(perf_errs.len() / 2).copied().unwrap_or(0.0);
        println!(
            "median perf estimation error: {:.1}% (paper: <7% for conv2d-convnext)",
            median * 100.0
        );
    }
}

/// Fig. 7: time, energy, and EDP of PolyUFC-capped programs vs. the stock
/// Intel UFS driver baseline, on both platforms, over the full evaluation
/// suite; PolyBench geomean EDP improvement per platform (paper: 12% on
/// BDW, 10.6% on RPL; up to 42% CB / 54% BB overall, ε = 1e-3).
pub fn fig7(ctx: &Ctx) {
    let suite = ctx.suite();
    for (pipe, results) in &suite.platforms {
        println!(
            "\n# Fig. 7 — vs. Intel UFS baseline on {} (ε = 1e-3)",
            pipe.platform.name
        );
        let mut rows = Vec::new();
        let mut pb_edp_ratio = Vec::new();
        let mut best_cb: (f64, String) = (0.0, String::new());
        let mut best_bb: (f64, String) = (0.0, String::new());
        for (i, e) in results.iter().enumerate() {
            let Ok(e) = e else { continue };
            let edp_impr = e.steady_edp_improvement();
            if i < suite.polybench {
                pb_edp_ratio.push(e.steady.edp() / e.baseline.edp());
            }
            let class = e.class();
            match class {
                Boundedness::ComputeBound if edp_impr > best_cb.0 => {
                    best_cb = (edp_impr, e.name.clone());
                }
                Boundedness::BandwidthBound if edp_impr > best_bb.0 => {
                    best_bb = (edp_impr, e.name.clone());
                }
                _ => {}
            }
            rows.push(vec![
                e.name.clone(),
                format!("{class}"),
                summarize_caps(&e.steady_caps_ghz),
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
    }
}

/// Up to three caps verbatim; more as a count and the set of distinct caps.
fn summarize_caps(caps_ghz: &[f64]) -> String {
    let caps: Vec<String> = caps_ghz.iter().map(|f| format!("{f:.1}")).collect();
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
