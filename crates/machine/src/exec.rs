//! The execution engine: "runs" programs on a simulated platform.
//!
//! Execution is two-phase, like real measurement campaigns: first the
//! kernel's memory behavior is measured once by exact trace simulation
//! (producing frequency-independent counters), then time/energy at any
//! uncore frequency follow from the platform's timing and power models.
//! This mirrors the physics: cache hit/miss behavior does not depend on
//! the uncore frequency, while latency, bandwidth, and uncore power do.

use polyufc_cache::CacheSim;
use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_ir::interp::interpret_kernel;
use polyufc_ir::scf::ScfProgram;
use rand::{RngExt as _, SeedableRng};

use crate::fault::{fnv1a, FaultPlan, FNV_OFFSET};
use crate::guard::GuardSummary;
use crate::platform::Platform;
use crate::rapl::EnergyBreakdown;

/// Frequency-independent counters of one kernel on one platform,
/// gathered by exact trace simulation (the PAPI-counter stand-in).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCounters {
    /// Kernel name.
    pub name: String,
    /// Total flops.
    pub flops: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Per-level hits.
    pub hits: Vec<u64>,
    /// Per-level misses.
    pub misses: Vec<u64>,
    /// Lines fetched from DRAM.
    pub dram_fills: u64,
    /// Dirty lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Cache line size (bytes).
    pub line_bytes: u64,
    /// Whether the kernel has an outer parallel loop.
    pub parallel: bool,
}

impl KernelCounters {
    /// DRAM traffic in bytes (fills + writebacks).
    pub fn dram_bytes(&self) -> f64 {
        (self.dram_fills + self.dram_writebacks) as f64 * self.line_bytes as f64
    }

    /// Measured operational intensity (flops per DRAM fill byte).
    pub fn measured_oi(&self) -> f64 {
        let q = self.dram_fills as f64 * self.line_bytes as f64;
        if q <= 0.0 {
            f64::INFINITY
        } else {
            self.flops as f64 / q
        }
    }
}

/// One simulated run (a kernel or a whole program) at a fixed uncore
/// frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Wall-clock time, seconds.
    pub time_s: f64,
    /// Energy by zone.
    pub energy: EnergyBreakdown,
    /// Mean package power, watts.
    pub avg_power_w: f64,
    /// The uncore frequency the run used (GHz); for multi-kernel programs
    /// with several caps this is the time-weighted mean.
    pub uncore_ghz: f64,
    /// Summary of the guard's decisions when the run went through a
    /// [`crate::guard::GuardedCapRuntime`]; `None` for unguarded runs.
    pub guard: Option<GuardSummary>,
}

impl RunResult {
    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.energy.total() * self.time_s
    }
}

/// Measures a kernel's frequency-independent counters by running its
/// trace through the platform's cache hierarchy.
///
/// Counters are deterministic in the (platform, kernel, layout) point, so
/// results are memoized process-wide (see [`crate::measure_cache`]):
/// re-measuring a structurally identical point returns the cached
/// counters instead of re-simulating the trace.
pub fn measure_kernel(
    platform: &Platform,
    program: &AffineProgram,
    kernel: &AffineKernel,
) -> KernelCounters {
    measure_kernel_under(platform, program, kernel, &FaultPlan::pristine())
}

/// [`measure_kernel`] under a fault plan: the trace simulation itself is
/// exact, but the plan perturbs the returned hit/miss/DRAM counts the way
/// a noisy multiplexed PAPI read would (a pristine plan leaves them
/// alone). Faulted points are cached under a key that includes the plan's
/// fingerprint, so they can never poison (or be served from) the clean
/// cache namespace.
fn measure_kernel_under(
    platform: &Platform,
    program: &AffineProgram,
    kernel: &AffineKernel,
    plan: &FaultPlan,
) -> KernelCounters {
    let key = crate::measure_cache::fingerprint(platform, program, kernel, plan);
    if let Some(cached) = crate::measure_cache::lookup(&key, &kernel.name) {
        return cached;
    }
    let mut sim = CacheSim::new(&platform.hierarchy, program);
    interpret_kernel(program, kernel, &mut sim);
    let st = sim.stats;
    let mut counters = KernelCounters {
        name: kernel.name.clone(),
        flops: st.flops,
        accesses: st.accesses,
        hits: st.hits,
        misses: st.misses,
        dram_fills: st.dram_line_fills,
        dram_writebacks: st.dram_writebacks,
        line_bytes: platform.hierarchy.line_bytes(),
        parallel: kernel.outer_parallel().is_some(),
    };
    // Key the perturbation by the structural fingerprint, not the kernel
    // name: names are excluded from the cache key, so two identically
    // shaped kernels must perturb identically or a cache hit would depend
    // on which one was measured first.
    plan.perturb_counters(&mut counters, &key);
    crate::measure_cache::insert(key, &counters);
    counters
}

/// Measures every kernel of a program under `plan`. Kernels are measured
/// by independent trace simulations, so fan them out; results come back
/// in kernel order (par_map preserves input order), keeping downstream
/// reports byte-identical to a serial run.
fn measure_program_under(
    platform: &Platform,
    program: &AffineProgram,
    plan: &FaultPlan,
) -> Vec<KernelCounters> {
    polyufc_par::par_map(&program.kernels, |k| {
        measure_kernel_under(platform, program, k, plan)
    })
}

/// Measures every kernel of a program (no faults; see
/// [`ExecutionEngine::measure_program`] for the plan-aware entry).
pub fn measure_program(platform: &Platform, program: &AffineProgram) -> Vec<KernelCounters> {
    measure_program_under(platform, program, &FaultPlan::pristine())
}

/// The execution engine for a platform.
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    /// The platform being simulated.
    pub platform: Platform,
    /// Multiplicative measurement noise amplitude (e.g. 0.005 = ±0.5%);
    /// deterministic per (kernel, frequency). Zero disables noise.
    pub noise: f64,
    /// Active fault-injection plan; [`FaultPlan::pristine`] (the default)
    /// leaves every run byte-identical to an engine without the fault
    /// layer.
    pub fault: FaultPlan,
}

impl ExecutionEngine {
    /// Engine with realistic measurement noise.
    pub fn new(platform: Platform) -> Self {
        ExecutionEngine {
            platform,
            noise: 0.004,
            fault: FaultPlan::pristine(),
        }
    }

    /// Engine without noise (for model-validation tests).
    pub fn noiseless(platform: Platform) -> Self {
        ExecutionEngine {
            platform,
            noise: 0.0,
            fault: FaultPlan::pristine(),
        }
    }

    /// Replaces the engine's fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// A copy of this engine with the fault plan stripped — what
    /// calibration and other trusted-measurement paths must run through.
    pub fn sanitized(&self) -> ExecutionEngine {
        ExecutionEngine {
            platform: self.platform.clone(),
            noise: self.noise,
            fault: FaultPlan::pristine(),
        }
    }

    /// Measures every kernel of a program under this engine's fault plan.
    pub fn measure_program(&self, program: &AffineProgram) -> Vec<KernelCounters> {
        measure_program_under(&self.platform, program, &self.fault)
    }

    /// Simulates one kernel at an uncore frequency: the clean physics
    /// first, then the fault plan's transforms — a transient
    /// thermal-throttle window forcing part of the work to a lower uncore
    /// frequency, observation noise on the timer and RAPL readings, and
    /// measurement timeouts inflating the observed wall-clock. Under a
    /// pristine plan each transform is an identity (no window, ×1.0, no
    /// timeout).
    pub fn run_kernel(&self, c: &KernelCounters, f_uncore_ghz: f64) -> RunResult {
        let p = &self.platform;
        let f = p.clamp_uncore(f_uncore_ghz);
        let (base_time, base_energy) = self.physics(c, f);
        let mut time = base_time;
        let mut energy = base_energy;
        let mut f_eff = f;

        let key = c.name.as_bytes();
        let salt = (f * 1000.0) as u64;

        // Thermal throttle: `share` of the work runs at the forced
        // frequency; time and energy blend by work share.
        if let Some((share, f_thr)) = self.fault.throttle_window(p, key, f) {
            if (f_thr - f).abs() > 1e-9 {
                let (slow_time, slow) = self.physics(c, f_thr);
                let blend = |fast: f64, slow: f64| (1.0 - share) * fast + share * slow;
                time = blend(base_time, slow_time);
                energy = EnergyBreakdown {
                    static_j: blend(base_energy.static_j, slow.static_j),
                    core_j: blend(base_energy.core_j, slow.core_j),
                    uncore_j: blend(base_energy.uncore_j, slow.uncore_j),
                    dram_j: blend(base_energy.dram_j, slow.dram_j),
                };
                f_eff = blend(f, f_thr);
            }
        }

        // Observation noise: the timer and the RAPL meter read through
        // independent noisy channels.
        time *= self.fault.observe_scale("timer", key, salt);
        energy = energy.observed(&self.fault, key, salt);

        // Measurement timeout: the harness re-arms and re-reads, roughly
        // doubling the observed interval.
        if self.fault.read_times_out(key, salt) {
            time *= crate::fault::TIMEOUT_STALL_SCALE;
        }

        let time = time.max(1e-9);
        RunResult {
            time_s: time,
            energy,
            avg_power_w: energy.total() / time,
            uncore_ghz: f_eff,
            guard: None,
        }
    }

    /// Time and energy of one kernel at an on-grid uncore frequency `f`,
    /// with the engine's measurement noise: the model every run is built
    /// from.
    fn physics(&self, c: &KernelCounters, f: f64) -> (f64, EnergyBreakdown) {
        let p = &self.platform;
        let cores_used = if c.parallel { p.cores } else { 1 };

        // Compute time.
        let t_comp = c.flops as f64 / p.peak_flops(cores_used).max(1.0);

        // Memory time: bandwidth-bound or latency-bound, whichever
        // dominates; LLC hit service time also scales with the uncore.
        let dram_bytes = (c.dram_fills + c.dram_writebacks) as f64 * c.line_bytes as f64;
        let t_bw = dram_bytes / p.dram_bandwidth(f);
        let n = c.hits.len();
        let llc_hits = if n >= 1 { c.hits[n - 1] as f64 } else { 0.0 };
        let concurrency = p.mlp * cores_used as f64;
        let t_lat = (c.dram_fills as f64 * p.dram_latency_s(f) + llc_hits * p.llc_latency_s(f))
            / concurrency;
        let t_mem = t_bw.max(t_lat);

        // Bounded overlap of compute and memory.
        let time = t_comp.max(t_mem) + 0.04 * t_comp.min(t_mem);
        let time = time.max(1e-9);

        // Energy.
        let comp_util = (t_comp / time).clamp(0.0, 1.0);
        let mem_util = (t_mem / time).clamp(0.0, 1.0);
        let e_static = p.p_static_w * time;
        let e_core = c.flops as f64 * p.e_flop_j
            + p.core_dyn_w * cores_used as f64 * time * (0.25 + 0.75 * comp_util);
        let e_uncore = p.uncore_power(f, mem_util) * time;
        let e_dram = dram_bytes * p.e_dram_byte_j;

        let mut energy = EnergyBreakdown {
            static_j: e_static,
            core_j: e_core,
            uncore_j: e_uncore,
            dram_j: e_dram,
        };
        let mut time = time;
        if self.noise > 0.0 {
            let mut rng = noise_rng(&c.name, f);
            let jitter =
                |r: &mut rand::rngs::StdRng, n: f64| 1.0 + n * (r.random::<f64>() * 2.0 - 1.0);
            time *= jitter(&mut rng, self.noise);
            let ej = jitter(&mut rng, self.noise);
            energy.static_j *= ej;
            energy.core_j *= ej;
            energy.uncore_j *= ej;
            energy.dram_j *= ej;
        }
        (time, energy)
    }

    /// Simulates an scf program: kernels run under the most recent
    /// `set_uncore_cap` (the platform maximum before the first call, which
    /// is the UFS default), and each cap *change* costs the platform's
    /// switch latency (35 µs on BDW, 21 µs on RPL — Sec. VII-F).
    ///
    /// `counters` must hold one entry per kernel, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `counters` does not match the program's kernels.
    pub fn run_scf(&self, scf: &ScfProgram, counters: &[KernelCounters]) -> RunResult {
        let pairs = scf.kernels_with_caps();
        assert_eq!(
            pairs.len(),
            counters.len(),
            "one counter set per kernel required"
        );
        let mut time = 0.0;
        let mut energy = EnergyBreakdown::default();
        let mut weighted_f = 0.0;
        let mut current = self.platform.uncore_max_ghz;
        let mut switches = 0u32;
        for (i, ((cap, _k), c)) in pairs.iter().zip(counters).enumerate() {
            let requested = match cap {
                Some(mhz) => self.platform.clamp_uncore(*mhz as f64 / 1000.0),
                None => self.platform.uncore_max_ghz,
            };
            // An unguarded runtime trusts every write: dropped or stuck
            // writes silently leave the knob somewhere else.
            let f = self.fault.perturb_write(
                current,
                requested,
                &self.platform,
                c.name.as_bytes(),
                i as u64,
            );
            if (f - current).abs() > 1e-9 {
                switches += 1;
                current = f;
            }
            let r = self.run_kernel(c, f);
            time += r.time_s;
            energy = energy.add(&r.energy);
            weighted_f += f * r.time_s;
        }
        // Cap-switch overhead: time at roughly static power.
        let overhead = switches as f64 * self.platform.cap_switch_us * 1e-6;
        time += overhead;
        energy.static_j += overhead * self.platform.p_static_w;
        RunResult {
            time_s: time,
            energy,
            avg_power_w: energy.total() / time.max(1e-12),
            uncore_ghz: if time > 0.0 {
                weighted_f / time
            } else {
                current
            },
            guard: None,
        }
    }

    /// Sweeps all uncore frequencies for a kernel, returning
    /// `(f_ghz, result)` pairs — the Fig. 1 primitive.
    pub fn sweep_kernel(&self, c: &KernelCounters) -> Vec<(f64, RunResult)> {
        self.platform
            .uncore_freqs()
            .iter()
            .map(|&f| (f, self.run_kernel(c, f)))
            .collect()
    }
}

fn noise_rng(name: &str, f: f64) -> rand::rngs::StdRng {
    // FNV-1a over the kernel name and the mHz-quantized frequency. The
    // hash is spelled out (rather than `DefaultHasher`) because simulated
    // measurement noise must be reproducible across Rust releases:
    // `DefaultHasher`'s algorithm is explicitly unspecified and has
    // changed before.
    let h = fnv1a(FNV_OFFSET, name.as_bytes());
    let h = fnv1a(h, &((f * 1000.0) as u64).to_le_bytes());
    rand::rngs::StdRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, Loop, Statement};
    use polyufc_ir::types::ElemType;
    use polyufc_presburger::LinExpr;

    /// Compute-heavy kernel: small data, many flops.
    fn compute_bound() -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("cb");
        let a = p.add_array("A", vec![64, 64], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        let mut l0 = Loop::range(64);
        l0.parallel = true;
        let k = AffineKernel {
            name: "cb".into(),
            loops: vec![l0, Loop::range(64), Loop::range(64)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![Access::read(a, vec![vi.clone(), vj.clone()]), {
                    let _ = vk;
                    Access::write(a, vec![vi, vj])
                }],
                flops: 8,
            }],
        };
        p.kernels.push(k.clone());
        (p, k)
    }

    /// Bandwidth-heavy kernel: streaming, few flops.
    fn bandwidth_bound() -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("bb");
        let n = 3_000_000; // 24 MB > BDW LLC
        let a = p.add_array("A", vec![n], ElemType::F64);
        let b = p.add_array("B", vec![n], ElemType::F64);
        let mut l0 = Loop::range(n as i64);
        l0.parallel = true;
        let k = AffineKernel {
            name: "bb".into(),
            loops: vec![l0],
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
        (p, k)
    }

    #[test]
    fn noise_stream_is_pinned() {
        // The FNV-1a → SplitMix64 noise stream is part of the simulator's
        // reproducibility contract: the same (kernel, frequency) must
        // yield the same jitter on every host and Rust release. These
        // constants pin the stream; a change here is a breaking change to
        // every recorded experiment.
        let mut r = noise_rng("gemm", 2.2);
        let draw_t = r.random::<f64>();
        let draw_e = r.random::<f64>();
        assert_eq!(draw_t, 0.8983106640629496);
        assert_eq!(draw_e, 0.13156881817303678);

        // The induced jitter on a noisy run: time scales by the first
        // draw, every energy component by the second.
        let (p, k) = compute_bound();
        let plat = Platform::broadwell();
        let mut c = measure_kernel(&plat, &p, &k);
        c.name = "gemm".into();
        let noisy = ExecutionEngine {
            platform: plat.clone(),
            noise: 0.004,
            fault: FaultPlan::pristine(),
        };
        let clean = ExecutionEngine::noiseless(plat);
        let rn = noisy.run_kernel(&c, 2.2);
        let rc = clean.run_kernel(&c, 2.2);
        let jt = 1.0 + 0.004 * (draw_t * 2.0 - 1.0);
        let je = 1.0 + 0.004 * (draw_e * 2.0 - 1.0);
        assert_eq!(rn.time_s, rc.time_s * jt);
        assert_eq!(rn.energy.core_j, rc.energy.core_j * je);
        assert_eq!(rn.energy.uncore_j, rc.energy.uncore_j * je);
    }

    #[test]
    fn cb_time_flat_energy_rises_with_uncore() {
        let (p, k) = compute_bound();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let lo = eng.run_kernel(&c, 1.2);
        let hi = eng.run_kernel(&c, 2.8);
        // CB: time barely changes, energy strictly higher at high uncore.
        assert!(
            (lo.time_s - hi.time_s).abs() / hi.time_s < 0.05,
            "CB time should be flat"
        );
        assert!(
            lo.energy.total() < hi.energy.total(),
            "CB energy must rise with uncore f"
        );
        assert!(lo.edp() < hi.edp());
    }

    #[test]
    fn bb_time_improves_with_uncore() {
        let (p, k) = bandwidth_bound();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let lo = eng.run_kernel(&c, 1.2);
        let hi = eng.run_kernel(&c, 2.8);
        assert!(
            hi.time_s < lo.time_s * 0.7,
            "BB must speed up with uncore f"
        );
    }

    #[test]
    fn bb_optimal_edp_below_max_frequency() {
        // The motivating observation (Fig. 1): even BB kernels often have
        // their EDP/energy optimum slightly below the maximum uncore
        // frequency once bandwidth saturates.
        let (p, k) = bandwidth_bound();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let sweep = eng.sweep_kernel(&c);
        let best_edp = sweep
            .iter()
            .min_by(|a, b| a.1.edp().partial_cmp(&b.1.edp()).unwrap())
            .unwrap();
        let max_f = plat_max(&eng);
        assert!(best_edp.0 <= max_f);
        assert!(
            best_edp.0 >= 1.8,
            "BB optimum should not be at the minimum either"
        );
    }

    fn plat_max(e: &ExecutionEngine) -> f64 {
        e.platform.uncore_max_ghz
    }

    #[test]
    fn parallel_flag_speeds_up_compute() {
        let (p, k) = compute_bound();
        let plat = Platform::broadwell();
        let mut c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let par = eng.run_kernel(&c, 2.0);
        c.parallel = false;
        let seq = eng.run_kernel(&c, 2.0);
        assert!(par.time_s < seq.time_s / 3.0);
    }

    #[test]
    fn scf_cap_switch_overhead_charged() {
        use polyufc_ir::scf::{ScfOp, ScfProgram};
        let (p, k) = compute_bound();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::noiseless(plat);
        let no_caps = ScfProgram {
            name: "n".into(),
            arrays: p.arrays.clone(),
            ops: vec![ScfOp::Kernel(k.clone())],
        };
        let with_caps = ScfProgram {
            name: "c".into(),
            arrays: p.arrays.clone(),
            ops: vec![ScfOp::SetUncoreCap { mhz: 1200 }, ScfOp::Kernel(k.clone())],
        };
        let r0 = eng.run_scf(&no_caps, std::slice::from_ref(&c));
        let r1 = eng.run_scf(&with_caps, std::slice::from_ref(&c));
        // One switch: 35 µs extra on BDW, but lower uncore energy.
        assert!(r1.time_s > r0.time_s);
        assert!((r1.time_s - r0.time_s - 35e-6).abs() / 35e-6 < 0.25 || r1.time_s > r0.time_s);
        assert!(r1.energy.uncore_j < r0.energy.uncore_j);
    }

    #[test]
    fn noise_is_deterministic_and_small() {
        let (p, k) = compute_bound();
        let plat = Platform::broadwell();
        let c = measure_kernel(&plat, &p, &k);
        let eng = ExecutionEngine::new(plat);
        let a = eng.run_kernel(&c, 2.0);
        let b = eng.run_kernel(&c, 2.0);
        assert_eq!(a.time_s, b.time_s, "same seed, same result");
        let clean = ExecutionEngine::noiseless(eng.platform.clone()).run_kernel(&c, 2.0);
        assert!((a.time_s - clean.time_s).abs() / clean.time_s < 0.01);
    }

    #[test]
    fn rapl_zone_visibility_matches_platform() {
        let (p, k) = bandwidth_bound();
        for plat in Platform::all() {
            let c = measure_kernel(&plat, &p, &k);
            let has_zone = plat.has_uncore_rapl_zone;
            let eng = ExecutionEngine::noiseless(plat);
            let r = eng.run_kernel(&c, 2.0);
            let (pkg, unc) = r.energy.rapl_read(has_zone);
            assert!(pkg > 0.0);
            assert_eq!(unc.is_some(), has_zone);
        }
    }
}
