//! Deterministic, seedable fault injection for the machine model.
//!
//! Real measurement campaigns are not clean: RAPL counters are noisy and
//! occasionally report wild outliers, uncore-frequency writes get dropped
//! or land on the wrong step (the MSR write races the firmware's own
//! power management), thermal events transparently throttle the uncore
//! for part of a run, and counter reads time out under multiplexing
//! pressure. A [`FaultPlan`] describes one such adversarial environment.
//!
//! Two invariants make the layer safe to compile in everywhere:
//!
//! * **Off by default.** [`FaultPlan::pristine`] is the `Default`, every
//!   injection site checks [`FaultPlan::is_pristine`] first, and the
//!   pristine path is byte-identical to a build without the layer — the
//!   figure harnesses' stdout does not change (A/B checked in CI).
//! * **Deterministic.** Every fault decision is a pure function of
//!   `(seed, domain, key, salt)` through the same FNV-1a → SplitMix64
//!   construction as the engine's measurement noise, so a seeded fault
//!   scenario reproduces bit-for-bit across hosts and Rust releases.
//!
//! Plans are serializable as compact `key=value` spec strings
//! ([`FaultPlan::parse_spec`] / [`FaultPlan::spec_string`] round-trip),
//! which is also how the `--fault-plan` CLI flag takes them.

use rand::{rngs::StdRng, RngCore as _, RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::platform::Platform;

/// The FNV-1a offset basis: the `h` a fresh [`fnv1a`] fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a hash `h`. The workspace's one
/// spelling of the loop: every seeded stream (measurement noise, fault
/// and chaos events) hashes through it, so their values are reproducible
/// across Rust releases.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `(seed, domain, key, salt)` fold that keys one injected event:
/// distinct sites, keys and retry attempts draw independent streams from
/// one plan seed.
pub fn fnv1a_event(seed: u64, domain: &str, key: &[u8], salt: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    let h = fnv1a(h, domain.as_bytes());
    let h = fnv1a(h, key);
    fnv1a(h, &salt.to_le_bytes())
}

/// Multiplier applied to an observed wall-clock reading when a
/// measurement times out: the harness re-arms the counter and re-reads,
/// roughly doubling the observed interval.
pub const TIMEOUT_STALL_SCALE: f64 = 2.0;

/// A seeded description of the faults to inject into the machine model.
///
/// All probabilities are per-event in `[0, 1]`; a field at zero disables
/// that fault class entirely. The all-zero plan is [`FaultPlan::pristine`]
/// and injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision (mixed with the event key).
    pub seed: u64,
    /// Multiplicative noise amplitude on observed counters and RAPL
    /// readings (e.g. `0.02` = ±2%), on top of the engine's own noise.
    pub counter_noise: f64,
    /// Probability that a reading is a wild outlier.
    pub outlier_prob: f64,
    /// Multiplier applied to outlier readings (e.g. `4.0`).
    pub outlier_scale: f64,
    /// Probability that an uncore-cap write is silently dropped (the
    /// knob keeps its previous value).
    pub write_drop_prob: f64,
    /// Probability that an uncore-cap write lands on a *different*
    /// frequency step than requested (stuck/misrouted write).
    pub write_stuck_prob: f64,
    /// Maximum distance, in 100 MHz steps, of a stuck write's landing
    /// point from the requested step (at least 1 when stuck writes are
    /// enabled).
    pub stuck_span_steps: u32,
    /// Probability that a kernel run overlaps a transient thermal
    /// throttle window.
    pub throttle_prob: f64,
    /// Uncore frequency forced during a throttle window (GHz); `0.0`
    /// means the platform minimum.
    pub throttle_ghz: f64,
    /// Fraction of the kernel's work executed inside the throttle
    /// window.
    pub throttle_share: f64,
    /// Probability that a measurement (or a guard's verify read) times
    /// out.
    pub timeout_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::pristine()
    }
}

impl FaultPlan {
    /// The no-fault plan: every injection site becomes a no-op and the
    /// machine model behaves byte-identically to a build without the
    /// fault layer.
    pub fn pristine() -> Self {
        FaultPlan {
            seed: 0,
            counter_noise: 0.0,
            outlier_prob: 0.0,
            outlier_scale: 1.0,
            write_drop_prob: 0.0,
            write_stuck_prob: 0.0,
            stuck_span_steps: 0,
            throttle_prob: 0.0,
            throttle_ghz: 0.0,
            throttle_share: 0.0,
            timeout_prob: 0.0,
        }
    }

    /// The documented "standard fault matrix" used by the robustness
    /// acceptance tests and the CI `fault-matrix` job: noisy counters
    /// with occasional outliers plus a 25% chance that any cap write is
    /// dropped.
    pub fn standard_matrix(seed: u64) -> Self {
        FaultPlan {
            seed,
            counter_noise: 0.02,
            outlier_prob: 0.02,
            outlier_scale: 4.0,
            write_drop_prob: 0.25,
            ..FaultPlan::pristine()
        }
    }

    /// Every cap write lands off-target by up to `span` steps — the
    /// scenario the guard's verify-after-write exists for.
    pub fn stuck_writes(seed: u64, prob: f64, span: u32) -> Self {
        FaultPlan {
            seed,
            write_stuck_prob: prob,
            stuck_span_steps: span.max(1),
            ..FaultPlan::pristine()
        }
    }

    /// Transient thermal throttling: with the given probability a run
    /// spends `share` of its work at the platform's minimum uncore
    /// frequency.
    pub fn thermal_throttle(seed: u64, prob: f64, share: f64) -> Self {
        FaultPlan {
            seed,
            throttle_prob: prob,
            throttle_share: share.clamp(0.0, 1.0),
            ..FaultPlan::pristine()
        }
    }

    /// Flaky measurement reads: timeouts plus mild counter noise.
    pub fn flaky_reads(seed: u64, timeout_prob: f64) -> Self {
        FaultPlan {
            seed,
            counter_noise: 0.01,
            timeout_prob,
            ..FaultPlan::pristine()
        }
    }

    /// Whether this plan injects nothing (the fast-path check at every
    /// injection site).
    pub fn is_pristine(&self) -> bool {
        self.counter_noise == 0.0
            && self.outlier_prob == 0.0
            && self.write_drop_prob == 0.0
            && self.write_stuck_prob == 0.0
            && self.throttle_prob == 0.0
            && self.timeout_prob == 0.0
    }

    /// A deterministic RNG for one fault event, keyed by `(seed, domain,
    /// key, salt)`. Same construction as the engine's measurement-noise
    /// stream: FNV-1a folded into SplitMix64, never `DefaultHasher`
    /// (whose algorithm is unspecified across Rust releases).
    fn event_rng(&self, domain: &str, key: &[u8], salt: u64) -> StdRng {
        StdRng::seed_from_u64(fnv1a_event(self.seed, domain, key, salt))
    }

    /// Bernoulli draw for one event.
    fn chance(&self, p: f64, domain: &str, key: &[u8], salt: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.event_rng(domain, key, salt).random::<f64>() < p
    }

    /// Multiplicative scale a noisy observation (timer or RAPL reading)
    /// picks up: `1 + counter_noise·U(-1,1)`, times `outlier_scale` on
    /// outlier events. `1.0` when observation faults are disabled.
    pub fn observe_scale(&self, domain: &str, key: &[u8], salt: u64) -> f64 {
        if self.counter_noise == 0.0 && self.outlier_prob == 0.0 {
            return 1.0;
        }
        let mut rng = self.event_rng(domain, key, salt);
        let mut scale = 1.0 + self.counter_noise * (rng.random::<f64>() * 2.0 - 1.0);
        if self.outlier_prob > 0.0 && rng.random::<f64>() < self.outlier_prob {
            scale *= self.outlier_scale.max(0.0);
        }
        scale
    }

    /// Where an uncore-cap write actually lands: `requested` normally,
    /// the previous value (`current`) when the write is dropped, or a
    /// neighboring frequency step when it sticks. The result is always on
    /// the platform's frequency grid.
    pub fn perturb_write(
        &self,
        current_ghz: f64,
        requested_ghz: f64,
        platform: &Platform,
        key: &[u8],
        salt: u64,
    ) -> f64 {
        if self.write_drop_prob <= 0.0 && self.write_stuck_prob <= 0.0 {
            return requested_ghz;
        }
        if self.chance(self.write_drop_prob, "write-drop", key, salt) {
            return current_ghz;
        }
        if self.chance(self.write_stuck_prob, "write-stuck", key, salt) {
            let span = self.stuck_span_steps.max(1) as u64;
            let mut rng = self.event_rng("stuck-step", key, salt);
            let steps = 1 + rng.next_u64() % span;
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let landed = platform.clamp_uncore(requested_ghz + sign * steps as f64 * 0.1);
            if (landed - requested_ghz).abs() > 1e-9 {
                return landed;
            }
            // Clamping folded the miss back onto the target; stick the
            // other way so a stuck write is observably stuck.
            let other = platform.clamp_uncore(requested_ghz - sign * steps as f64 * 0.1);
            return other;
        }
        requested_ghz
    }

    /// The throttle window (if any) a kernel run at frequency `f` hits:
    /// `(work_share, forced_ghz)`.
    pub fn throttle_window(
        &self,
        platform: &Platform,
        key: &[u8],
        f_ghz: f64,
    ) -> Option<(f64, f64)> {
        if self.throttle_prob <= 0.0 || self.throttle_share <= 0.0 {
            return None;
        }
        let salt = (f_ghz * 1000.0) as u64;
        if !self.chance(self.throttle_prob, "throttle", key, salt) {
            return None;
        }
        let forced = if self.throttle_ghz > 0.0 {
            platform.clamp_uncore(self.throttle_ghz)
        } else {
            platform.uncore_min_ghz
        };
        Some((self.throttle_share.clamp(0.0, 1.0), forced))
    }

    /// Whether a measurement read for this event times out.
    pub fn read_times_out(&self, key: &[u8], salt: u64) -> bool {
        self.chance(self.timeout_prob, "timeout", key, salt)
    }

    /// Deterministically perturbs measured cache/DRAM event counters the
    /// way a multiplexed PAPI read would: multiplicative jitter with
    /// occasional outliers on the hit/miss/fill/writeback counts.
    /// Instruction-derived counters (`flops`, `accesses`) stay exact.
    /// Keyed by the structural fingerprint so identically shaped kernels
    /// perturb identically regardless of their names.
    pub fn perturb_counters(&self, c: &mut crate::exec::KernelCounters, structural_key: &[u8]) {
        if self.counter_noise == 0.0 && self.outlier_prob == 0.0 {
            return;
        }
        let mut salt = 0u64;
        let mut jitter = |v: u64| -> u64 {
            salt += 1;
            let s = self.observe_scale("papi", structural_key, salt);
            ((v as f64 * s).round().max(0.0)) as u64
        };
        for h in &mut c.hits {
            *h = jitter(*h);
        }
        for m in &mut c.misses {
            *m = jitter(*m);
        }
        c.dram_fills = jitter(c.dram_fills);
        c.dram_writebacks = jitter(c.dram_writebacks);
    }

    /// A byte fingerprint for cache keying: the literal `pristine` marker
    /// for the no-fault plan (so the clean cache namespace is stable), or
    /// a self-delimiting dump of every field.
    pub fn fingerprint(&self) -> Vec<u8> {
        if self.is_pristine() {
            return b"pristine".to_vec();
        }
        let mut out = b"fault:".to_vec();
        out.extend_from_slice(&self.seed.to_le_bytes());
        for v in [
            self.counter_noise,
            self.outlier_prob,
            self.outlier_scale,
            self.write_drop_prob,
            self.write_stuck_prob,
            self.throttle_prob,
            self.throttle_ghz,
            self.throttle_share,
            self.timeout_prob,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.stuck_span_steps as u64).to_le_bytes());
        out
    }

    /// Serializes the plan as a canonical spec string that
    /// [`FaultPlan::parse_spec`] round-trips.
    pub fn spec_string(&self) -> String {
        if self.is_pristine() {
            return "pristine".to_string();
        }
        format!(
            "seed={},noise={},outlier={},outlier-scale={},drop={},stuck={},stuck-span={},\
             throttle={},throttle-ghz={},throttle-share={},timeout={}",
            self.seed,
            self.counter_noise,
            self.outlier_prob,
            self.outlier_scale,
            self.write_drop_prob,
            self.write_stuck_prob,
            self.stuck_span_steps,
            self.throttle_prob,
            self.throttle_ghz,
            self.throttle_share,
            self.timeout_prob
        )
    }

    /// Parses a fault-plan spec: a preset name (`pristine`/`none`/`off`,
    /// `standard`, `stuck`, `thermal`, `flaky`) and/or comma-separated
    /// `key=value` overrides, e.g. `standard,seed=7` or
    /// `noise=0.05,drop=0.5,seed=1`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown key or malformed value.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::pristine();
        for (i, tok) in spec.split(',').enumerate() {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            if let Some((k, v)) = tok.split_once('=') {
                let k = k.trim();
                let v = v.trim();
                let f = |v: &str| -> Result<f64, String> {
                    v.parse::<f64>()
                        .map_err(|_| format!("fault-plan: bad number '{v}' for '{k}'"))
                };
                match k {
                    "seed" => {
                        plan.seed = v
                            .parse::<u64>()
                            .map_err(|_| format!("fault-plan: bad seed '{v}'"))?;
                    }
                    "noise" => plan.counter_noise = f(v)?,
                    "outlier" => plan.outlier_prob = f(v)?,
                    "outlier-scale" => plan.outlier_scale = f(v)?,
                    "drop" => plan.write_drop_prob = f(v)?,
                    "stuck" => plan.write_stuck_prob = f(v)?,
                    "stuck-span" => {
                        plan.stuck_span_steps = v
                            .parse::<u32>()
                            .map_err(|_| format!("fault-plan: bad stuck-span '{v}'"))?;
                    }
                    "throttle" => plan.throttle_prob = f(v)?,
                    "throttle-ghz" => plan.throttle_ghz = f(v)?,
                    "throttle-share" => plan.throttle_share = f(v)?,
                    "timeout" => plan.timeout_prob = f(v)?,
                    _ => return Err(format!("fault-plan: unknown key '{k}'")),
                }
            } else {
                // Preset name; only meaningful as the leading token so
                // overrides compose on top of it.
                let preset = match tok {
                    "pristine" | "none" | "off" => FaultPlan::pristine(),
                    "standard" => FaultPlan::standard_matrix(42),
                    "stuck" => FaultPlan::stuck_writes(42, 1.0, 4),
                    "thermal" => FaultPlan::thermal_throttle(42, 0.5, 0.5),
                    "flaky" => FaultPlan::flaky_reads(42, 0.3),
                    _ => return Err(format!("fault-plan: unknown preset '{tok}'")),
                };
                if i != 0 {
                    return Err(format!(
                        "fault-plan: preset '{tok}' must be the first token"
                    ));
                }
                plan = preset;
            }
        }
        // Normalize probabilities so downstream draws stay well-defined.
        for p in [
            &mut plan.counter_noise,
            &mut plan.outlier_prob,
            &mut plan.write_drop_prob,
            &mut plan.write_stuck_prob,
            &mut plan.throttle_prob,
            &mut plan.throttle_share,
            &mut plan.timeout_prob,
        ] {
            if !p.is_finite() || *p < 0.0 {
                return Err(format!("fault-plan: negative or non-finite rate {p}"));
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_is_default_and_injects_nothing() {
        let p = FaultPlan::default();
        assert!(p.is_pristine());
        let plat = Platform::broadwell();
        assert_eq!(p.observe_scale("time", b"k", 0), 1.0);
        assert_eq!(p.perturb_write(2.8, 1.2, &plat, b"k", 0), 1.2);
        assert!(p.throttle_window(&plat, b"k", 2.0).is_none());
        assert!(!p.read_times_out(b"k", 0));
        assert_eq!(p.fingerprint(), b"pristine");
    }

    #[test]
    fn fnv1a_matches_published_vectors_and_folds_incrementally() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        let cat = [
            &7u64.to_le_bytes()[..],
            b"rapl",
            b"gemm",
            &3u64.to_le_bytes(),
        ]
        .concat();
        assert_eq!(fnv1a_event(7, "rapl", b"gemm", 3), fnv1a(FNV_OFFSET, &cat));
    }

    #[test]
    fn events_are_deterministic_per_key() {
        let p = FaultPlan::standard_matrix(7);
        let a = p.observe_scale("rapl", b"gemm", 3);
        let b = p.observe_scale("rapl", b"gemm", 3);
        assert_eq!(a, b);
        // Different salt, key, or seed → independent draws.
        assert_ne!(a, p.observe_scale("rapl", b"gemm", 4));
        assert_ne!(a, p.observe_scale("rapl", b"mvt", 3));
        assert_ne!(
            a,
            FaultPlan::standard_matrix(8).observe_scale("rapl", b"gemm", 3)
        );
    }

    #[test]
    fn dropped_writes_keep_current_frequency() {
        let plat = Platform::broadwell();
        let p = FaultPlan {
            seed: 1,
            write_drop_prob: 1.0,
            ..FaultPlan::pristine()
        };
        assert_eq!(p.perturb_write(2.8, 1.2, &plat, b"k", 0), 2.8);
    }

    #[test]
    fn stuck_writes_land_on_grid_but_off_target() {
        let plat = Platform::broadwell();
        let p = FaultPlan::stuck_writes(3, 1.0, 5);
        for salt in 0..32 {
            let landed = p.perturb_write(2.8, 2.0, &plat, b"k", salt);
            assert!((landed - 2.0).abs() > 1e-9, "stuck write must miss");
            // On the 100 MHz grid, inside the platform range.
            assert!(landed >= plat.uncore_min_ghz - 1e-9);
            assert!(landed <= plat.uncore_max_ghz + 1e-9);
            let steps = (landed - 2.0).abs() / 0.1;
            assert!((steps - steps.round()).abs() < 1e-6);
        }
    }

    #[test]
    fn spec_round_trips() {
        let p = FaultPlan::standard_matrix(9);
        let s = p.spec_string();
        assert_eq!(FaultPlan::parse_spec(&s).unwrap(), p);
        assert_eq!(
            FaultPlan::parse_spec("pristine").unwrap(),
            FaultPlan::pristine()
        );
        assert_eq!(
            FaultPlan::parse_spec("standard").unwrap(),
            FaultPlan::standard_matrix(42)
        );
        assert_eq!(
            FaultPlan::parse_spec("standard,seed=7").unwrap(),
            FaultPlan::standard_matrix(7)
        );
        assert!(FaultPlan::parse_spec("bogus").is_err());
        assert!(FaultPlan::parse_spec("noise=abc").is_err());
        assert!(FaultPlan::parse_spec("seed=1,standard").is_err());
    }

    #[test]
    fn fingerprints_distinguish_plans() {
        let a = FaultPlan::standard_matrix(1);
        let b = FaultPlan::standard_matrix(2);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), FaultPlan::pristine().fingerprint());
    }

    #[test]
    fn counter_perturbation_is_structural_not_name_keyed() {
        let p = FaultPlan::standard_matrix(5);
        let mk = |name: &str| crate::exec::KernelCounters {
            name: name.to_string(),
            flops: 1000,
            accesses: 500,
            hits: vec![400, 50],
            misses: vec![100, 50],
            dram_fills: 50,
            dram_writebacks: 25,
            line_bytes: 64,
            parallel: false,
        };
        let mut a = mk("a");
        let mut b = mk("b");
        p.perturb_counters(&mut a, b"same-structure");
        p.perturb_counters(&mut b, b"same-structure");
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.dram_fills, b.dram_fills);
        assert_eq!(a.flops, 1000, "instruction counts stay exact");
        let mut c = mk("a");
        p.perturb_counters(&mut c, b"other-structure");
        assert_ne!(
            (c.hits.clone(), c.dram_fills),
            (a.hits.clone(), a.dram_fills)
        );
    }
}
