//! Cross-validation of the static stack against the exact simulators:
//! PolyUFC-CM vs. the trace-driven cache simulator, the parametric time
//! model vs. the machine, and static vs. measured operational intensity.

use polyufc::{ParametricModel, Pipeline};
use polyufc_machine::{measure_kernel, ExecutionEngine, Platform};
use polyufc_workloads::{polybench_suite, PolybenchSize};

/// Static OI must track measured OI within an order of magnitude on every
/// kernel, and within 2x on at least three quarters of the suite.
#[test]
fn static_oi_tracks_measured_oi() {
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let mut within_2x = 0;
    let mut total = 0;
    for w in polybench_suite(PolybenchSize::Small) {
        let out = pipe
            .compile_affine(&w.program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let omega: f64 = out.cache_stats.iter().map(|s| s.flops).sum();
        let q_est: f64 = out.cache_stats.iter().map(|s| s.q_dram_bytes).sum();
        let mut q_meas = 0.0;
        for k in &out.optimized.kernels {
            let c = measure_kernel(&plat, &out.optimized, k);
            q_meas += (c.dram_fills * c.line_bytes) as f64;
        }
        let oi_est = omega / q_est.max(1.0);
        let oi_meas = omega / q_meas.max(1.0);
        let ratio = (oi_est / oi_meas).max(oi_meas / oi_est);
        assert!(
            ratio < 12.0,
            "{}: OI est {oi_est:.2} vs meas {oi_meas:.2} (x{ratio:.1})",
            w.name
        );
        total += 1;
        if ratio < 2.0 {
            within_2x += 1;
        }
    }
    assert!(
        within_2x * 4 >= total * 3,
        "only {within_2x}/{total} kernels within 2x OI accuracy"
    );
}

/// The parametric execution-time estimate must track the machine within a
/// factor band at both frequency extremes for most of the suite.
#[test]
fn model_time_tracks_machine() {
    let plat = Platform::raptor_lake();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::noiseless(plat.clone());
    let conc = plat.cores as f64;
    let mut good = 0;
    let mut total = 0;
    for w in polybench_suite(PolybenchSize::Small) {
        let out = pipe
            .compile_affine(&w.program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for f in [plat.uncore_min_ghz, plat.uncore_max_ghz] {
            let mut t_est = 0.0;
            let mut t_hw = 0.0;
            for (k, st) in out.optimized.kernels.iter().zip(&out.cache_stats) {
                let pm =
                    ParametricModel::new(&pipe.roofline, st, k.outer_parallel().is_some(), conc);
                t_est += pm.exec_time(f);
                let c = measure_kernel(&plat, &out.optimized, k);
                t_hw += eng.run_kernel(&c, f).time_s;
            }
            total += 1;
            let ratio = (t_est / t_hw).max(t_hw / t_est);
            if ratio < 2.0 {
                good += 1;
            }
            assert!(
                ratio < 15.0,
                "{} at {f} GHz: est {t_est:.3e} vs hw {t_hw:.3e}",
                w.name
            );
        }
    }
    assert!(
        good * 4 >= total * 3,
        "only {good}/{total} time estimates within 2x"
    );
}

/// PolyUFC-CM's LLC miss counts vs. the exact simulator across the suite:
/// every kernel within an order of magnitude; most within 2x.
#[test]
fn cache_model_tracks_simulator() {
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let mut close = 0;
    let mut total = 0;
    for w in polybench_suite(PolybenchSize::Small) {
        let out = pipe
            .compile_affine(&w.program)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (k, st) in out.optimized.kernels.iter().zip(&out.cache_stats) {
            let c = measure_kernel(&plat, &out.optimized, k);
            let est = st.levels.last().unwrap().misses.max(1.0);
            let meas = (c.dram_fills as f64).max(1.0);
            let ratio = (est / meas).max(meas / est);
            total += 1;
            if ratio < 2.0 {
                close += 1;
            }
            assert!(
                ratio < 60.0,
                "{}::{}: LLC misses est {est:.3e} vs sim {meas:.3e}",
                w.name,
                k.name
            );
        }
    }
    assert!(
        close * 2 >= total,
        "only {close}/{total} kernels within 2x LLC misses"
    );
}

/// The characterization threshold B^t(f) and the machine agree on deep
/// cases: a kernel far above the balance must not speed up with uncore
/// frequency; one far below must.
#[test]
fn boundedness_matches_machine_behavior() {
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::noiseless(plat.clone());
    for w in polybench_suite(PolybenchSize::Small) {
        if w.name != "gemm" && w.name != "mvt" {
            continue;
        }
        let out = pipe.compile_affine(&w.program).unwrap();
        let main = out
            .optimized
            .kernels
            .iter()
            .zip(&out.cache_stats)
            .max_by(|a, b| a.1.flops.partial_cmp(&b.1.flops).unwrap())
            .unwrap();
        let c = measure_kernel(&plat, &out.optimized, main.0);
        let t_lo = eng.run_kernel(&c, plat.uncore_min_ghz).time_s;
        let t_hi = eng.run_kernel(&c, plat.uncore_max_ghz).time_s;
        let oi = main.1.operational_intensity();
        let balance = pipe.roofline.time_balance(plat.uncore_max_ghz);
        if oi > 3.0 * balance {
            assert!(
                t_lo < t_hi * 1.25,
                "{}: deep CB but uncore-sensitive",
                w.name
            );
        }
        if oi < balance / 3.0 {
            assert!(
                t_hi < t_lo * 0.7,
                "{}: deep BB but uncore-insensitive",
                w.name
            );
        }
    }
}
