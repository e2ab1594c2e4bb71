//! The parametric performance / bandwidth / power / energy model of
//! Sec. V: every estimate is a function of the uncore frequency cap `f_c`
//! and the (statically computed) operational intensity `I`.
//!
//! Equation map (paper → code):
//!
//! * Eqn. 2 `T = T^Ω + T^Q` → [`ParametricModel::exec_time_additive`]
//!   (paper-literal); [`ParametricModel::exec_time`] is the bounded-overlap
//!   default (see DESIGN.md).
//! * Eqn. 3 `T^Ω = Ω·t_FPU` → compute term (single-thread peak when the
//!   kernel is not parallelized).
//! * Eqn. 4 `T^Q` → per-level hit traffic at the fitted hit latencies
//!   plus `Q_DRAM · M^t(f_c)`, overlapped by the measured memory
//!   concurrency; the bandwidth roof `Q_DRAM / BW(f_c)` bounds it below.
//! * Eqns. 5/6 `Perf`, `BW` → [`ParametricModel::performance`],
//!   [`ParametricModel::bandwidth`].
//! * Eqn. 8 `P̂(f_s, I)` → [`ParametricModel::peak_power`].
//! * Eqn. 10 `P(f_c, I)` → [`ParametricModel::avg_power`] (the CB branch
//!   derates memory power by `B/I`, the BB branch derates FPU power by
//!   `I/B`).
//! * Eqn. 11 `E = Ω·e_FPU + T^Q·P` → [`ParametricModel::energy`]; EDP is
//!   [`ParametricModel::edp`].

use polyufc_cache::KernelCacheStats;
use polyufc_roofline::RooflineModel;

use crate::characterize::Boundedness;

/// The per-kernel parametric model: roofline constants + PolyUFC-CM
/// statistics, with `f_c` as the free parameter.
#[derive(Debug, Clone)]
pub struct ParametricModel<'a> {
    /// Calibrated roofline constants.
    pub roofline: &'a RooflineModel,
    /// Static cache statistics of the kernel.
    pub stats: &'a KernelCacheStats,
    /// Whether the kernel runs on all cores (Pluto-parallel outer loop).
    pub parallel: bool,
    /// Cross-core memory concurrency (the number of cores). Per-core
    /// memory-level parallelism is already baked into the calibrated
    /// `M^t(f)` / `H_LLC(f)` fits, which are measured through the machine
    /// like any microbenchmark.
    pub concurrency: f64,
}

impl<'a> ParametricModel<'a> {
    /// Builds a model for one kernel.
    pub fn new(
        roofline: &'a RooflineModel,
        stats: &'a KernelCacheStats,
        parallel: bool,
        concurrency: f64,
    ) -> Self {
        ParametricModel {
            roofline,
            stats,
            parallel,
            concurrency: concurrency.max(1.0),
        }
    }

    /// Operational intensity `I`.
    pub fn oi(&self) -> f64 {
        self.stats.operational_intensity()
    }

    /// Compute time `T^Ω = Ω · t_FPU` (Eqn. 3).
    pub fn compute_time(&self) -> f64 {
        let peak = if self.parallel {
            self.roofline.peak_flops
        } else {
            self.roofline.peak_flops_1t
        };
        self.stats.flops / peak
    }

    /// Memory time `T^Q(f_c)` (Eqn. 4): level-wise hit service plus the
    /// DRAM miss penalty, overlapped by the memory concurrency, bounded
    /// below by the bandwidth roof.
    pub fn memory_time(&self, f_c: f64) -> f64 {
        let n = self.stats.levels.len();
        let llc_hits = if n >= 1 {
            self.stats.levels[n - 1].hits
        } else {
            0.0
        };
        let dram_misses = self.stats.levels.last().map(|l| l.misses).unwrap_or(0.0);
        let serial = llc_hits * self.roofline.llc_hit_latency(f_c)
            + dram_misses * self.roofline.miss_penalty_t(f_c);
        let conc = if self.parallel { self.concurrency } else { 1.0 };
        let t_lat = serial / conc;
        let t_bw = self.stats.q_dram_bytes / self.roofline.bandwidth(f_c);
        t_lat.max(t_bw)
    }

    /// Total execution time `T(f_c, I)`: bounded-overlap combination of
    /// the compute and memory phases. Out-of-order cores overlap the two
    /// almost fully, so the default is `max(T^Ω, T^Q)` plus a small
    /// non-overlapped residue; the paper's literal additive Eqn. 2 is
    /// available as [`ParametricModel::exec_time_additive`] and compared
    /// in the ablation benches.
    pub fn exec_time(&self, f_c: f64) -> f64 {
        let tc = self.compute_time();
        let tm = self.memory_time(f_c);
        tc.max(tm) + 0.04 * tc.min(tm)
    }

    /// The paper's additive Eqn. 2: `T = T^Ω + T^Q` (ablation variant;
    /// overestimates CB kernels' sensitivity to the uncore frequency).
    pub fn exec_time_additive(&self, f_c: f64) -> f64 {
        self.compute_time() + self.memory_time(f_c)
    }

    /// Every estimate at frequency `f_c`, from one `T(f_c, I)`, one
    /// `time_balance(f_c)` and one class decision: the one home of Eqns.
    /// 5, 6, 10 and 11, which the per-quantity methods below read.
    pub fn point(&self, f_c: f64) -> ModelPoint {
        let time = self.exec_time(f_c);
        let b = self.roofline.time_balance(f_c);
        let oi = self.oi();
        let class = if oi >= b {
            Boundedness::ComputeBound
        } else {
            Boundedness::BandwidthBound
        };
        // Eqn. 10. Structure: constant power, the uncore's
        // frequency-dependent idle power (over-provisioning cost — what CB
        // capping saves), the *active* memory power `BW_max(f)·M^p(f) −
        // P_idle(f)` derated by `B/I` for CB kernels, and the FPU power
        // derated by `I/B` for BB kernels — the Eqn. 10 case split.
        let i = oi.max(1e-9);
        let p_idle = self.roofline.uncore_idle(f_c);
        // Full-rate memory power: the measured streaming-power fit
        // P̂_DRAM(f) = α·f + γ (equivalent to the paper's Q·M^p(f) term at
        // full bandwidth, but monotone in f even past the bandwidth knee,
        // where the per-byte fit M^p(f) inverts its slope).
        let p_mem_active = (self.roofline.p_dram_hat(f_c) - p_idle).max(0.0);
        let pf = self.roofline.p_hat_fpu * if self.parallel { 1.0 } else { 0.25 };
        // Eqn. 11 subtracts the FPU share already inside the power.
        let (dynamic, fpu_share) = match class {
            Boundedness::ComputeBound => (p_mem_active * (b / i).min(1.0) + pf, pf),
            Boundedness::BandwidthBound => {
                (p_mem_active + pf * (i / b).min(1.0), pf * (oi / b).min(1.0))
            }
        };
        let power = self.roofline.p_con + p_idle + dynamic;
        // Eqn. 11: the flop energy `Ω·e_FPU` plus the non-FPU power
        // integrated over the whole run. Because `Ω·e_FPU` equals the FPU
        // power over the compute phase, this degenerates to `P·T` for
        // fully compute-bound kernels and to the paper's `Ω·e_FPU + T^Q·P`
        // shape when phases do not overlap.
        let energy = self.stats.flops * self.roofline.e_fpu + (power - fpu_share).max(0.0) * time;
        ModelPoint {
            time,
            performance: self.stats.flops / time.max(1e-15),
            bandwidth: self.stats.q_dram_bytes / time.max(1e-15),
            power,
            energy,
            edp: energy * time,
            class,
        }
    }

    /// Performance `Perf(f_c, I) = Ω / T` (Eqn. 5), flops/s.
    pub fn performance(&self, f_c: f64) -> f64 {
        self.point(f_c).performance
    }

    /// Achieved bandwidth `BW(f_c, I) = Q_DRAM / T` (Eqn. 6), bytes/s.
    pub fn bandwidth(&self, f_c: f64) -> f64 {
        self.point(f_c).bandwidth
    }

    /// The kernel's class at frequency `f`.
    pub fn class_at(&self, f: f64) -> Boundedness {
        self.point(f).class
    }

    /// Peak (ceiling) power `P̂(f_s, I)` (Eqn. 8), watts.
    pub fn peak_power(&self, f_s: f64) -> f64 {
        let b = self.roofline.time_balance(f_s);
        let i = self.oi().max(1e-9);
        let pd = self.roofline.p_dram_hat(f_s);
        let pf = self.roofline.p_hat_fpu;
        let dynamic = match self.class_at(f_s) {
            Boundedness::ComputeBound => pd * (b / i) + pf,
            Boundedness::BandwidthBound => pd + pf * (i / b),
        };
        self.roofline.p_con + dynamic
    }

    /// Average power `P(f_c, I)` (Eqn. 10), watts.
    pub fn avg_power(&self, f_c: f64) -> f64 {
        self.point(f_c).power
    }

    /// Total energy `E(f_c, I)` (Eqn. 11), joules.
    pub fn energy(&self, f_c: f64) -> f64 {
        self.point(f_c).energy
    }

    /// Energy-delay product `EDP(f_c) = E · T`.
    pub fn edp(&self, f_c: f64) -> f64 {
        self.point(f_c).edp
    }
}

/// The model at one frequency ([`ParametricModel::point`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPoint {
    /// Execution time `T(f_c, I)`, seconds.
    pub time: f64,
    /// `Perf = Ω / T` (Eqn. 5), flops/s.
    pub performance: f64,
    /// `BW = Q_DRAM / T` (Eqn. 6), bytes/s.
    pub bandwidth: f64,
    /// Average power `P(f_c, I)` (Eqn. 10), watts.
    pub power: f64,
    /// `E(f_c, I)` (Eqn. 11), joules.
    pub energy: f64,
    /// `E · T`.
    pub edp: f64,
    /// The kernel's class at this frequency.
    pub class: Boundedness,
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_cache::LevelStats;
    use polyufc_machine::{ExecutionEngine, Platform};

    fn stats(flops: f64, q_dram: f64, llc_hits: f64) -> KernelCacheStats {
        KernelCacheStats {
            levels: vec![
                LevelStats {
                    accesses: 0.0,
                    hits: 0.0,
                    misses: q_dram / 64.0,
                    fit_level: 0,
                },
                LevelStats {
                    accesses: 0.0,
                    hits: llc_hits,
                    misses: q_dram / 64.0,
                    fit_level: 0,
                },
            ],
            cold_lines: q_dram / 64.0,
            q_dram_bytes: q_dram,
            flops,
            total_accesses: 0.0,
        }
    }

    fn rl(p: Platform) -> RooflineModel {
        RooflineModel::calibrate(&ExecutionEngine::noiseless(p))
    }

    #[test]
    fn cb_time_flat_in_f() {
        let r = rl(Platform::broadwell());
        let st = stats(1e11, 1e8, 0.0); // OI = 1000: deep CB
        let m = ParametricModel::new(&r, &st, true, 96.0);
        let t_lo = m.exec_time(1.2);
        let t_hi = m.exec_time(2.8);
        assert!(
            (t_lo - t_hi).abs() / t_hi < 0.1,
            "CB time nearly flat: {t_lo} vs {t_hi}"
        );
    }

    #[test]
    fn bb_time_falls_with_f() {
        let r = rl(Platform::broadwell());
        let st = stats(1e9, 3.2e10, 0.0); // OI ≈ 0.03: deep BB
        let m = ParametricModel::new(&r, &st, true, 96.0);
        assert!(m.exec_time(2.8) < m.exec_time(1.2) * 0.6);
        // Bandwidth estimate approaches the measured roof.
        let bw = m.bandwidth(2.8);
        assert!(bw <= r.bandwidth(2.8) * 1.01);
        assert!(bw >= r.bandwidth(2.8) * 0.5);
    }

    #[test]
    fn power_rises_with_f_for_bb() {
        let r = rl(Platform::broadwell());
        let st = stats(1e9, 3.2e10, 0.0);
        let m = ParametricModel::new(&r, &st, true, 96.0);
        assert!(m.avg_power(2.8) > m.avg_power(1.2));
        assert!(m.peak_power(2.8) > m.peak_power(1.2));
    }

    #[test]
    fn cb_energy_rises_with_f() {
        // For CB kernels time is flat but uncore power rises: energy up.
        let r = rl(Platform::broadwell());
        let st = stats(1e11, 1e8, 1e6);
        let m = ParametricModel::new(&r, &st, true, 96.0);
        assert!(
            m.energy(2.8) > m.energy(1.2),
            "CB energy: {} @2.8 vs {} @1.2",
            m.energy(2.8),
            m.energy(1.2)
        );
    }

    #[test]
    fn bb_edp_minimum_interior_or_high() {
        let r = rl(Platform::broadwell());
        let st = stats(1e9, 3.2e10, 0.0);
        let m = ParametricModel::new(&r, &st, true, 96.0);
        let freqs: Vec<f64> = (12..=28).map(|x| x as f64 / 10.0).collect();
        let best = freqs
            .iter()
            .copied()
            .min_by(|a, b| m.edp(*a).partial_cmp(&m.edp(*b)).unwrap())
            .unwrap();
        assert!(
            best >= 1.8,
            "BB EDP optimum should be at higher f, got {best}"
        );
    }

    #[test]
    fn model_tracks_machine_for_bb_kernel() {
        // Build a real streaming kernel, measure it on the machine, and
        // compare the model's absolute time at several frequencies.
        use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
        use polyufc_ir::types::ElemType;
        use polyufc_presburger::LinExpr;
        let mut p = AffineProgram::new("stream");
        let n = 4_000_000usize;
        let a = p.add_array("A", vec![n], ElemType::F64);
        let b = p.add_array("B", vec![n], ElemType::F64);
        let mut l = Loop::range(n as i64);
        l.parallel = true;
        let k = AffineKernel {
            name: "stream".into(),
            loops: vec![l],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0)]),
                    Access::write(b, vec![LinExpr::var(0)]),
                ],
                flops: 1,
            }],
        };
        p.kernels.push(k.clone());
        let plat = Platform::broadwell();
        let eng = ExecutionEngine::noiseless(plat.clone());
        let r = RooflineModel::calibrate(&eng);
        let cm = polyufc_cache::CacheModel::new(
            plat.hierarchy.clone(),
            polyufc_cache::AssocMode::SetAssociative,
        );
        let st = cm.analyze_kernel(&p, &k).unwrap();
        let m = ParametricModel::new(&r, &st, true, plat.cores as f64);
        let counters = polyufc_machine::measure_kernel(&plat, &p, &k);
        for f in [1.2, 2.0, 2.8] {
            let hw = eng.run_kernel(&counters, f);
            let est = m.exec_time(f);
            let ratio = est / hw.time_s;
            assert!(
                (0.4..2.5).contains(&ratio),
                "time est {est} vs hw {} at f={f} (ratio {ratio})",
                hw.time_s
            );
        }
    }
}
