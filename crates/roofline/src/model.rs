//! The calibrated roofline model: performance and power constants of
//! Table I, obtained by one-time microbenchmarking of a platform.

use polyufc_machine::{ExecutionEngine, Platform};
use serde::{Deserialize, Serialize};

use crate::fit::{linear_fit, reciprocal_fit};
use crate::microbench::{flop_microbench, llc_chase, pointer_chase, stream_microbench};
use std::sync::Mutex;

/// Measured roofline constants of one platform (paper Table I).
///
/// All quantities parameterized by the uncore frequency are stored both as
/// a measured table and as the fitted curve the paper uses (`a/f + b` for
/// time, `α·f + γ` for power).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RooflineModel {
    /// Platform name.
    pub platform: String,
    /// Measured peak compute, flops/s, all cores (`1/t_FPU` aggregated).
    pub peak_flops: f64,
    /// Measured single-thread peak compute, flops/s.
    pub peak_flops_1t: f64,
    /// Measured achievable DRAM bandwidth per uncore frequency:
    /// `(f_ghz, bytes/s)` ascending.
    pub bw_table: Vec<(f64, f64)>,
    /// Constant power `p_con` (W), from the activity-regression intercept.
    pub p_con: f64,
    /// Energy per flop `e_FPU` (J).
    pub e_fpu: f64,
    /// Peak power per unit compute `p̂_FPU` (W at full FPU utilization,
    /// beyond `p_con`).
    pub p_hat_fpu: f64,
    /// Linear fit `P̂_DRAM(f) = α·f + γ` of peak memory-subsystem power
    /// (W) during streaming.
    pub p_dram_fit: (f64, f64),
    /// Reciprocal fit of the DRAM miss penalty `M^t(f) = a/f + b`
    /// (seconds per serialized miss).
    pub miss_t_fit: (f64, f64),
    /// Linear fit of the per-byte memory power `M^p(f) = α·f + γ`
    /// (J per byte moved at frequency `f`).
    pub miss_p_fit: (f64, f64),
    /// Reciprocal fit of the LLC hit latency `H_LLC(f) = a/f + b`
    /// (seconds per serialized LLC hit).
    pub llc_t_fit: (f64, f64),
    /// Linear fit of the uncore power with no memory activity
    /// (`P_uncore_idle(f) = α·f + γ`, W) — the background cost of an
    /// over-provisioned uncore, which is what capping saves on CB kernels.
    pub uncore_idle_fit: (f64, f64),
}

/// One cached calibration: platform, noise bits, model.
type Calibration = (Platform, u64, RooflineModel);

static CALIBRATIONS: Mutex<Vec<Calibration>> = Mutex::new(Vec::new());

impl RooflineModel {
    /// [`RooflineModel::calibrate`] with a process-wide cache.
    ///
    /// Calibration is a pure function of the engine (platform constants +
    /// noise amplitude; the noise stream itself is deterministic per
    /// kernel×frequency), so sweeps that construct many pipelines for the
    /// same platform can share one calibration instead of re-running the
    /// microbenchmarks every time. An entry matches on every platform
    /// field (`Platform`'s field-wise `==`) and the noise bits, so
    /// distinct platform configurations never collide; a handful of
    /// platforms per process keeps the scan short.
    pub fn calibrate_cached(engine: &ExecutionEngine) -> RooflineModel {
        let noise = engine.noise.to_bits();
        let find = |cache: &[Calibration]| {
            let (_, _, m) = cache
                .iter()
                .find(|(p, n, _)| *n == noise && *p == engine.platform)?;
            Some(m.clone())
        };
        if let Some(m) = find(&CALIBRATIONS.lock().unwrap()) {
            return m;
        }
        // Calibrate outside the lock: it takes milliseconds and parallel
        // sweeps must not serialize behind one another. A racing thread
        // computes the same (deterministic) model; the first insert wins.
        let model = RooflineModel::calibrate(engine);
        let mut cache = CALIBRATIONS.lock().unwrap();
        if find(&cache).is_none() {
            cache.push((engine.platform.clone(), noise, model.clone()));
        }
        model
    }

    /// One-time microbenchmark calibration against a machine (paper
    /// footnote 3: both rooflines come from our own microbenchmarking).
    pub fn calibrate(engine: &ExecutionEngine) -> RooflineModel {
        // Calibration is a trusted-measurement path: running the
        // microbenchmarks through an injected fault plan would bake the
        // faults into every constant the compiler later predicts with.
        // Strip the plan; the caller's faults apply to *runs*, not to
        // the one-time roofline fits.
        let engine = &engine.sanitized();
        let plat = &engine.platform;
        let line = plat.hierarchy.line_bytes();
        let fmax = plat.uncore_max_ghz;

        // Peak compute: flop-only microbenchmark (uncore-independent).
        let fl = flop_microbench(2_000_000_000, line);
        let r = engine.run_kernel(&fl, fmax);
        let peak_flops = fl.flops as f64 / r.time_s;
        let mut fl1 = fl.clone();
        fl1.parallel = false;
        let r1 = engine.run_kernel(&fl1, fmax);
        let peak_flops_1t = fl1.flops as f64 / r1.time_s;

        // Bandwidth table over the whole uncore range.
        let stream = stream_microbench(2u64 << 30, line);
        let mut bw_table = Vec::new();
        for f in plat.uncore_freqs() {
            let r = engine.run_kernel(&stream, f);
            bw_table.push((f, (2u64 << 30) as f64 / r.time_s));
        }

        // Power constants. The flop-only run separates compute power; the
        // stream run separates memory-subsystem power.
        // p_con: intercept of package power vs. utilization — approximated
        // by the non-compute, non-uncore share of a compute-only run.
        let p_comp_run = engine.run_kernel(&fl, plat.uncore_min_ghz);
        let p_con = p_comp_run.energy.static_j / p_comp_run.time_s;
        let e_fpu = p_comp_run.energy.core_j / fl.flops as f64;
        let p_hat_fpu = p_comp_run.energy.core_j / p_comp_run.time_s;

        // P̂_DRAM(f): uncore + DRAM power while streaming, per frequency.
        let mut fs = Vec::new();
        let mut pmem = Vec::new();
        let mut pbyte = Vec::new();
        for f in plat.uncore_freqs() {
            let r = engine.run_kernel(&stream, f);
            let pw = (r.energy.uncore_j + r.energy.dram_j) / r.time_s;
            fs.push(f);
            pmem.push(pw);
            let bytes = stream.dram_bytes();
            pbyte.push((r.energy.uncore_j + r.energy.dram_j) / bytes);
        }
        let p_dram_fit = {
            let (a, g) = linear_fit(&fs, &pmem);
            (a, g)
        };
        let miss_p_fit = linear_fit(&fs, &pbyte);

        // M^t(f): serialized pointer chase, seconds per miss.
        let chase = pointer_chase(2_000_000, line);
        let mut penalties = Vec::new();
        for &f in &fs {
            let r = engine.run_kernel(&chase, f);
            penalties.push(r.time_s / chase.dram_fills as f64);
        }
        let miss_t_fit = reciprocal_fit(&fs, &penalties);

        // H_LLC(f): LLC-resident chase.
        let lchase = llc_chase(4_000_000, line);
        let mut lat = Vec::new();
        for &f in &fs {
            let r = engine.run_kernel(&lchase, f);
            lat.push(r.time_s / 4_000_000.0);
        }
        let llc_t_fit = reciprocal_fit(&fs, &lat);

        // Uncore idle power vs f: package uncore power during a flop-only
        // run (no memory activity).
        let mut p_idle = Vec::new();
        for &f in &fs {
            let r = engine.run_kernel(&fl, f);
            p_idle.push(r.energy.uncore_j / r.time_s);
        }
        let uncore_idle_fit = linear_fit(&fs, &p_idle);

        RooflineModel {
            platform: plat.name.clone(),
            peak_flops,
            peak_flops_1t,
            bw_table,
            p_con,
            e_fpu,
            p_hat_fpu,
            p_dram_fit,
            miss_t_fit,
            miss_p_fit,
            llc_t_fit,
            uncore_idle_fit,
        }
    }

    /// Achievable bandwidth at an uncore frequency (linear interpolation
    /// of the measured table), bytes/s.
    pub fn bandwidth(&self, f_ghz: f64) -> f64 {
        let t = &self.bw_table;
        if f_ghz <= t[0].0 {
            return t[0].1;
        }
        for w in t.windows(2) {
            if f_ghz <= w[1].0 {
                let frac = (f_ghz - w[0].0) / (w[1].0 - w[0].0);
                return w[0].1 + frac * (w[1].1 - w[0].1);
            }
        }
        t.last().unwrap().1
    }

    /// The time machine balance `B^t_DRAM(f) = peak_flops / BW(f)` in
    /// flops per byte. A kernel with `OI >= B^t` is compute-bound at `f`.
    pub fn time_balance(&self, f_ghz: f64) -> f64 {
        self.peak_flops / self.bandwidth(f_ghz)
    }

    /// `t_FPU` (seconds per flop, all cores).
    pub fn t_fpu(&self) -> f64 {
        1.0 / self.peak_flops
    }

    /// DRAM miss penalty `M^t(f) = a/f + b`, seconds.
    pub fn miss_penalty_t(&self, f_ghz: f64) -> f64 {
        self.miss_t_fit.0 / f_ghz + self.miss_t_fit.1
    }

    /// LLC hit latency `H_LLC(f) = a/f + b`, seconds (serialized).
    pub fn llc_hit_latency(&self, f_ghz: f64) -> f64 {
        self.llc_t_fit.0 / f_ghz + self.llc_t_fit.1
    }

    /// Per-byte memory power `M^p(f) = α·f + γ`, joules per byte.
    pub fn miss_penalty_p(&self, f_ghz: f64) -> f64 {
        self.miss_p_fit.0 * f_ghz + self.miss_p_fit.1
    }

    /// Idle uncore power `P_uncore_idle(f) = α·f + γ`, watts.
    pub fn uncore_idle(&self, f_ghz: f64) -> f64 {
        self.uncore_idle_fit.0 * f_ghz + self.uncore_idle_fit.1
    }

    /// Peak memory-subsystem power at `f`, watts (`P̂_DRAM(f)`).
    pub fn p_dram_hat(&self, f_ghz: f64) -> f64 {
        self.p_dram_fit.0 * f_ghz + self.p_dram_fit.1
    }

    /// Whether an operational intensity is compute-bound at frequency `f`
    /// (Sec. IV-D: `I >= B^t_DRAM`).
    pub fn is_compute_bound(&self, oi: f64, f_ghz: f64) -> bool {
        oi >= self.time_balance(f_ghz)
    }

    /// Attainable performance at intensity `oi` and frequency `f`
    /// (the classic roofline `min(peak, oi · BW(f))`), flops/s.
    pub fn attainable(&self, oi: f64, f_ghz: f64) -> f64 {
        (oi * self.bandwidth(f_ghz)).min(self.peak_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_machine::{ExecutionEngine, Platform};

    fn model(p: Platform) -> RooflineModel {
        RooflineModel::calibrate(&ExecutionEngine::noiseless(p))
    }

    #[test]
    fn calibration_cache_keys_on_every_platform_field() {
        let mut plat = Platform::broadwell();
        plat.name = "calibration-cache-probe".into();
        let entries = || {
            let cache = CALIBRATIONS.lock().unwrap();
            cache.iter().filter(|(p, ..)| p.name == plat.name).count()
        };
        let first = RooflineModel::calibrate_cached(&ExecutionEngine::noiseless(plat.clone()));
        let again = RooflineModel::calibrate_cached(&ExecutionEngine::noiseless(plat.clone()));
        assert_eq!(entries(), 1, "the same platform returns the cached model");
        assert_eq!(format!("{again:?}"), format!("{first:?}"));
        let mut narrower = plat.clone();
        narrower.dram_bw_peak_gbps /= 2.0;
        let other = RooflineModel::calibrate_cached(&ExecutionEngine::noiseless(narrower));
        assert_eq!(entries(), 2, "a one-field change gets its own model");
        assert!(other.bw_table.last().unwrap().1 < first.bw_table.last().unwrap().1);
    }

    #[test]
    fn peak_flops_close_to_platform() {
        let plat = Platform::broadwell();
        let peak = plat.peak_flops(plat.cores);
        let m = model(plat);
        assert!((m.peak_flops / peak - 1.0).abs() < 0.06);
        assert!(m.peak_flops_1t < m.peak_flops);
    }

    #[test]
    fn bandwidth_table_monotone_then_flat() {
        let m = model(Platform::raptor_lake());
        let bws: Vec<f64> = m.bw_table.iter().map(|&(_, b)| b).collect();
        for w in bws.windows(2) {
            assert!(w[1] >= w[0] * 0.99, "bandwidth must be non-decreasing in f");
        }
        // Balance shrinks as f rises (more bandwidth per flop).
        assert!(m.time_balance(0.8) > m.time_balance(4.6));
    }

    #[test]
    fn miss_penalty_fit_matches_ground_truth() {
        let plat = Platform::broadwell();
        let truth_a = plat.dram_latency.0;
        let m = model(plat.clone());
        // The fitted a/f slope recovers the platform latency shape,
        // scaled by the serialization factor (1/mlp for the chase).
        let scale = m.miss_t_fit.0 * 1e9 * plat.mlp / truth_a;
        assert!((scale - 1.0).abs() < 0.15, "scale {scale}");
        assert!(m.miss_penalty_t(1.2) > m.miss_penalty_t(2.8));
    }

    #[test]
    fn memory_power_rises_with_f() {
        let m = model(Platform::broadwell());
        assert!(m.p_dram_fit.0 > 0.0, "α̂ must be positive");
        assert!(m.p_dram_hat(2.8) > m.p_dram_hat(1.2));
        assert!(m.miss_penalty_p(2.8) > 0.0);
    }

    #[test]
    fn characterization_threshold_behaves() {
        let m = model(Platform::raptor_lake());
        let b = m.time_balance(4.6);
        assert!(m.is_compute_bound(b * 2.0, 4.6));
        assert!(!m.is_compute_bound(b / 2.0, 4.6));
        // A kernel CB at low f can be BB at high f is impossible (balance
        // shrinks with f) — but BB at low f can become CB... verify
        // monotonicity of the threshold itself.
        assert!(m.time_balance(0.8) >= m.time_balance(4.6));
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let m = model(Platform::broadwell());
        let tiny = m.attainable(0.01, 2.8);
        assert!(tiny < m.peak_flops * 0.05);
        let huge = m.attainable(1e6, 2.8);
        assert_eq!(huge, m.peak_flops);
    }
}
