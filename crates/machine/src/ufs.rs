//! The Intel uncore frequency scaling (UFS) driver model — the paper's
//! hardware baseline.
//!
//! The stock `intel_uncore_frequency` driver leaves the uncore governor
//! free to scale within `[min, max]`; under sustained load it runs at (or
//! near) the maximum uncore frequency, which is precisely the
//! over-provisioning PolyUFC attacks (`f_s ≫ f_c`, Sec. II-F). The driver
//! also exposes the max-frequency knob that PolyUFC's generated
//! `set_uncore_cap` calls write to.

use crate::exec::{ExecutionEngine, KernelCounters, RunResult};

/// The baseline driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct UfsDriver {
    /// Optional system-wide cap (what `write_max_freq` would set); `None`
    /// models the untouched default configuration.
    pub max_cap_ghz: Option<f64>,
}

impl UfsDriver {
    /// The untouched default driver (governor free to reach max).
    pub fn stock() -> Self {
        UfsDriver { max_cap_ghz: None }
    }

    /// The uncore frequency the governor settles at under load.
    pub fn effective_frequency(&self, engine: &ExecutionEngine) -> f64 {
        match self.max_cap_ghz {
            Some(f) => engine.platform.clamp_uncore(f),
            None => engine.platform.uncore_max_ghz,
        }
    }

    /// Runs a program under the baseline driver: every kernel executes at
    /// the governor's settled frequency; no cap-switch overheads.
    pub fn run_baseline(&self, engine: &ExecutionEngine, counters: &[KernelCounters]) -> RunResult {
        let f = self.effective_frequency(engine);
        let mut time = 0.0;
        let mut energy = crate::rapl::EnergyBreakdown::default();
        for c in counters {
            let r = engine.run_kernel(c, f);
            time += r.time_s;
            energy = energy.add(&r.energy);
        }
        RunResult {
            time_s: time,
            energy,
            avg_power_w: energy.total() / time.max(1e-12),
            uncore_ghz: f,
            guard: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::measure_kernel;
    use crate::platform::Platform;
    use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
    use polyufc_ir::types::ElemType;
    use polyufc_presburger::LinExpr;

    fn stream_kernel() -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("s");
        let a = p.add_array("A", vec![1 << 20], ElemType::F64);
        let k = AffineKernel {
            name: "s".into(),
            loops: vec![Loop::range(1 << 20)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![LinExpr::var(0)])],
                flops: 1,
            }],
        };
        p.kernels.push(k.clone());
        (p, k)
    }

    #[test]
    fn stock_runs_at_max() {
        let plat = Platform::raptor_lake();
        let eng = ExecutionEngine::noiseless(plat);
        assert_eq!(UfsDriver::stock().effective_frequency(&eng), 4.6);
    }

    #[test]
    fn capped_driver_clamps() {
        let plat = Platform::broadwell();
        let eng = ExecutionEngine::noiseless(plat);
        let d = UfsDriver {
            max_cap_ghz: Some(9.0),
        };
        assert_eq!(d.effective_frequency(&eng), 2.8);
    }

    #[test]
    fn baseline_equals_max_frequency_runs() {
        let (p, k) = stream_kernel();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let base = UfsDriver::stock().run_baseline(&eng, std::slice::from_ref(&c));
        let direct = eng.run_kernel(&c, eng.platform.uncore_max_ghz);
        assert!((base.time_s - direct.time_s).abs() < 1e-12);
        assert!((base.energy.total() - direct.energy.total()).abs() < 1e-9);
    }
}
