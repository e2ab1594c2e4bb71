//! Platform descriptors mirroring the paper's Table III.

use polyufc_cache::{CacheHierarchy, CacheLevelConfig};
use serde::{Deserialize, Serialize};

/// A simulated x86 server/desktop platform.
///
/// Timing: DRAM miss latency follows the paper's `M^t(f) = a/f + b` shape
/// and achievable DRAM bandwidth grows linearly with the uncore frequency
/// until the DIMMs saturate. Power: uncore dynamic power is linear in the
/// uncore frequency (`α·f + γ`), core power is charged per active core at
/// the fixed base frequency, and a constant `p_con` models static power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Short name ("BDW", "RPL").
    pub name: String,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads.
    pub threads: u32,
    /// Fixed core frequency in GHz (P-state performance governor).
    pub core_freq_ghz: f64,
    /// Minimum uncore frequency (GHz).
    pub uncore_min_ghz: f64,
    /// Maximum uncore frequency (GHz).
    pub uncore_max_ghz: f64,
    /// Uncore frequency step (GHz); the UFS interface exposes 100 MHz.
    pub uncore_step_ghz: f64,
    /// Cache hierarchy (L1 → LLC).
    #[serde(skip, default = "default_hierarchy")]
    pub hierarchy: CacheHierarchy,
    /// Double-precision flops per cycle per core (FMA width).
    pub flops_per_cycle: f64,
    /// L1/L2 hit latency in ns (uncore-independent levels).
    pub private_hit_latency_ns: Vec<f64>,
    /// LLC hit latency: `a/f + b` ns with `f` in GHz.
    pub llc_latency: (f64, f64),
    /// DRAM miss latency: `a/f + b` ns.
    pub dram_latency: (f64, f64),
    /// Achievable DRAM bandwidth: `min(peak, slope·f)` GB/s.
    pub dram_bw_peak_gbps: f64,
    /// Bandwidth slope per GHz of uncore.
    pub dram_bw_slope: f64,
    /// Memory-level parallelism per core (outstanding misses, including
    /// what hardware prefetchers sustain).
    pub mlp: f64,
    /// Static (constant) power `p_con` in watts.
    pub p_static_w: f64,
    /// Dynamic power per active core at base frequency, watts.
    pub core_dyn_w: f64,
    /// Energy per flop, joules.
    pub e_flop_j: f64,
    /// Uncore dynamic power slope `α` (W per GHz).
    pub uncore_alpha_w_per_ghz: f64,
    /// Uncore idle/offset power `γ` (W).
    pub uncore_gamma_w: f64,
    /// DRAM energy per byte transferred, joules.
    pub e_dram_byte_j: f64,
    /// Cost of one uncore cap change, microseconds (Sec. VII-F).
    pub cap_switch_us: f64,
    /// Whether RAPL exposes a separate uncore energy zone (BDW does not,
    /// paper footnote 15).
    pub has_uncore_rapl_zone: bool,
}

// Referenced by the `#[serde(default = "...")]` attribute above; the
// vendored offline serde derive ignores helper attributes, so the
// reference is invisible to dead-code analysis.
#[allow(dead_code)]
fn default_hierarchy() -> CacheHierarchy {
    Platform::broadwell().hierarchy
}

impl Platform {
    /// Intel Broadwell: Xeon E5-1650 v4, 6C/12T, uncore 1.2–2.8 GHz
    /// (Table III).
    pub fn broadwell() -> Self {
        Platform {
            name: "BDW".into(),
            cores: 6,
            threads: 12,
            core_freq_ghz: 3.6,
            uncore_min_ghz: 1.2,
            uncore_max_ghz: 2.8,
            uncore_step_ghz: 0.1,
            hierarchy: CacheHierarchy::new(vec![
                CacheLevelConfig {
                    size_bytes: 32 << 10,
                    line_bytes: 64,
                    assoc: 8,
                    shared: false,
                },
                CacheLevelConfig {
                    size_bytes: 256 << 10,
                    line_bytes: 64,
                    assoc: 8,
                    shared: false,
                },
                CacheLevelConfig {
                    size_bytes: 15 << 20,
                    line_bytes: 64,
                    assoc: 20,
                    shared: true,
                },
            ]),
            flops_per_cycle: 16.0, // AVX2 2×FMA×4 lanes DP
            private_hit_latency_ns: vec![1.1, 3.3],
            llc_latency: (34.0, 4.0),
            dram_latency: (38.0, 62.0),
            dram_bw_peak_gbps: 68.0, // 4ch DDR4-2133
            dram_bw_slope: 27.0,
            mlp: 16.0,
            p_static_w: 18.0,
            core_dyn_w: 6.0,
            e_flop_j: 4.0e-11,
            uncore_alpha_w_per_ghz: 12.0,
            uncore_gamma_w: 6.0,
            e_dram_byte_j: 5.0e-11,
            cap_switch_us: 35.0,
            has_uncore_rapl_zone: false,
        }
    }

    /// Intel Raptor Lake: Core i5-13600, 14C/20T, uncore 0.8–4.6 GHz
    /// (Table III). Larger LLC and more bandwidth than BDW, which is what
    /// shifts several kernels from BB to CB in Fig. 6.
    pub fn raptor_lake() -> Self {
        Platform {
            name: "RPL".into(),
            cores: 14,
            threads: 20,
            core_freq_ghz: 3.9,
            uncore_min_ghz: 0.8,
            uncore_max_ghz: 4.6,
            uncore_step_ghz: 0.1,
            hierarchy: CacheHierarchy::new(vec![
                CacheLevelConfig {
                    size_bytes: 48 << 10,
                    line_bytes: 64,
                    assoc: 12,
                    shared: false,
                },
                CacheLevelConfig {
                    size_bytes: 2 << 20,
                    line_bytes: 64,
                    assoc: 16,
                    shared: false,
                },
                CacheLevelConfig {
                    size_bytes: 24 << 20,
                    line_bytes: 64,
                    assoc: 12,
                    shared: true,
                },
            ]),
            flops_per_cycle: 12.0, // mixed P/E-core average
            private_hit_latency_ns: vec![1.0, 3.0],
            llc_latency: (40.0, 3.0),
            dram_latency: (30.0, 58.0),
            dram_bw_peak_gbps: 86.0, // 2ch DDR5-5600
            dram_bw_slope: 22.0,
            mlp: 18.0,
            p_static_w: 14.0,
            core_dyn_w: 4.5,
            e_flop_j: 3.0e-11,
            uncore_alpha_w_per_ghz: 7.0,
            uncore_gamma_w: 4.5,
            e_dram_byte_j: 4.0e-11,
            cap_switch_us: 21.0,
            has_uncore_rapl_zone: true,
        }
    }

    /// Both evaluation platforms.
    pub fn all() -> Vec<Platform> {
        vec![Platform::broadwell(), Platform::raptor_lake()]
    }

    /// The uncore frequencies selectable through the UFS interface, in
    /// GHz, ascending (the paper's ≈39-step search space on RPL).
    pub fn uncore_freqs(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut f = self.uncore_min_ghz;
        while f <= self.uncore_max_ghz + 1e-9 {
            out.push((f * 10.0).round() / 10.0);
            f += self.uncore_step_ghz;
        }
        out
    }

    /// Clamps and quantizes a requested cap to the valid range/step
    /// (MHz precision, avoiding floating-point dust).
    pub fn clamp_uncore(&self, f_ghz: f64) -> f64 {
        let f = f_ghz.clamp(self.uncore_min_ghz, self.uncore_max_ghz);
        let q = (f / self.uncore_step_ghz).round() * self.uncore_step_ghz;
        (q * 1000.0).round() / 1000.0
    }

    /// Peak double-precision compute throughput with `cores` active, in
    /// flops/s.
    pub fn peak_flops(&self, cores: u32) -> f64 {
        cores as f64 * self.core_freq_ghz * 1e9 * self.flops_per_cycle
    }

    /// Achievable DRAM bandwidth at an uncore frequency, bytes/s.
    pub fn dram_bandwidth(&self, f_ghz: f64) -> f64 {
        (self.dram_bw_slope * f_ghz).min(self.dram_bw_peak_gbps) * 1e9
    }

    /// DRAM miss latency at an uncore frequency, seconds.
    pub fn dram_latency_s(&self, f_ghz: f64) -> f64 {
        (self.dram_latency.0 / f_ghz + self.dram_latency.1) * 1e-9
    }

    /// LLC hit latency at an uncore frequency, seconds.
    pub fn llc_latency_s(&self, f_ghz: f64) -> f64 {
        (self.llc_latency.0 / f_ghz + self.llc_latency.1) * 1e-9
    }

    /// Uncore power at frequency `f` with memory utilization `util` in
    /// `[0, 1]`, watts.
    pub fn uncore_power(&self, f_ghz: f64, util: f64) -> f64 {
        self.uncore_gamma_w
            + self.uncore_alpha_w_per_ghz * f_ghz * (0.35 + 0.65 * util.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_ranges() {
        let bdw = Platform::broadwell();
        assert_eq!(bdw.cores, 6);
        assert_eq!((bdw.uncore_min_ghz, bdw.uncore_max_ghz), (1.2, 2.8));
        assert!(!bdw.has_uncore_rapl_zone);
        let rpl = Platform::raptor_lake();
        assert_eq!(rpl.cores, 14);
        assert_eq!((rpl.uncore_min_ghz, rpl.uncore_max_ghz), (0.8, 4.6));
        assert!(rpl.has_uncore_rapl_zone);
    }

    #[test]
    fn rpl_search_space_is_39_steps() {
        // Paper Sec. VII-F: 100 MHz precision -> ≈39 steps.
        let rpl = Platform::raptor_lake();
        assert_eq!(rpl.uncore_freqs().len(), 39);
        let bdw = Platform::broadwell();
        assert_eq!(bdw.uncore_freqs().len(), 17);
    }

    #[test]
    fn clamping_and_quantization() {
        let bdw = Platform::broadwell();
        assert_eq!(bdw.clamp_uncore(0.3), 1.2);
        assert_eq!(bdw.clamp_uncore(9.9), 2.8);
        assert!((bdw.clamp_uncore(1.234) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_scales_then_saturates() {
        let bdw = Platform::broadwell();
        assert!(bdw.dram_bandwidth(1.2) < bdw.dram_bandwidth(2.0));
        assert_eq!(bdw.dram_bandwidth(2.6), bdw.dram_bandwidth(2.8)); // saturated
    }

    #[test]
    fn latency_decreases_with_uncore() {
        let rpl = Platform::raptor_lake();
        assert!(rpl.dram_latency_s(0.8) > rpl.dram_latency_s(4.6));
        assert!(rpl.llc_latency_s(0.8) > rpl.llc_latency_s(4.6));
    }

    #[test]
    fn uncore_power_linear_in_f() {
        let bdw = Platform::broadwell();
        let p1 = bdw.uncore_power(1.2, 1.0);
        let p2 = bdw.uncore_power(2.8, 1.0);
        assert!(p2 > p1);
        // ~30% of package power at max (paper's motivation).
        let pkg = bdw.p_static_w + bdw.core_dyn_w * 6.0 + p2;
        assert!(
            p2 / pkg > 0.2 && p2 / pkg < 0.5,
            "uncore share {}",
            p2 / pkg
        );
    }
}
