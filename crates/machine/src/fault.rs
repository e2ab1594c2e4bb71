//! Deterministic, seedable fault injection for the machine model, and
//! the seeded-event core the daemon's chaos layer shares.
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
//! * **Off by default.** [`FaultPlan::pristine`] is the `Default`, and
//!   under it every transform is an identity: `observe_scale` is `1.0`,
//!   `throttle_window` is `None`, `read_times_out` is `false`, and
//!   `perturb_write` / `perturb_counters` return before drawing. The
//!   machine model therefore has no pristine branch of its own, and the
//!   figure harnesses' stdout does not change (pinned by
//!   `pristine_is_default_and_injects_nothing` here,
//!   `pristine_guard_is_byte_identical` in `tests/guard.rs` and the
//!   bench crate's `pristine_guarded_eval_matches_unguarded_bit_for_bit`).
//! * **Deterministic.** Every decision is a pure function of
//!   `(seed, domain, key, salt)`: FNV-1a ([`fnv1a`]) folds the key material
//!   and the vendored `StdRng` (SplitMix64) generates from the fold.
//!   `serve::chaos` draws its events through the same [`chance`] and
//!   [`event_u64`] this module's plan uses, so seeded fault and chaos
//!   scenarios reproduce bit-for-bit across hosts and Rust releases
//!   (`draws_are_pinned` holds the first decisions of every kind). The
//!   engine's measurement noise (`exec.rs` `noise_rng`) is not a fault
//!   event: it keeps its own fold of kernel name and frequency, because
//!   moving it here would change every pinned figure.
//!
//! Both plans are spelled as `preset,key=value` spec strings, parsed by
//! one tokenizer ([`parse_plan_spec`]); that is how the `--fault-plan` and
//! `--chaos` CLI flags take them.

use rand::{rngs::StdRng, RngCore as _, RngExt as _, SeedableRng};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

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
fn fnv1a_event(seed: u64, domain: &str, key: &[u8], salt: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    let h = fnv1a(h, domain.as_bytes());
    let h = fnv1a(h, key);
    fnv1a(h, &salt.to_le_bytes())
}

/// The generator for one seeded event: [`fnv1a_event`] folded into the
/// vendored `StdRng` (SplitMix64), never `DefaultHasher`, whose algorithm
/// is unspecified across Rust releases.
fn event_rng(seed: u64, domain: &str, key: &[u8], salt: u64) -> StdRng {
    StdRng::seed_from_u64(fnv1a_event(seed, domain, key, salt))
}

/// Bernoulli draw for one event: `true` with probability `p`. Rates at or
/// below 0 and at or above 1 decide without drawing.
pub fn chance(seed: u64, p: f64, domain: &str, key: &[u8], salt: u64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    event_rng(seed, domain, key, salt).random::<f64>() < p
}

/// The first 64 bits of one event's stream (a length or offset draw).
pub fn event_u64(seed: u64, domain: &str, key: &[u8], salt: u64) -> u64 {
    event_rng(seed, domain, key, salt).next_u64()
}

/// One `key=value` override of a plan spec, as [`parse_plan_spec`] hands
/// it to the plan's setter.
#[derive(Debug, Clone, Copy)]
pub struct SpecOverride<'a> {
    prefix: &'static str,
    /// The key, trimmed.
    pub key: &'a str,
    value: &'a str,
}

impl SpecOverride<'_> {
    /// The value as a rate, scale, share or frequency: a finite,
    /// non-negative float.
    ///
    /// # Errors
    ///
    /// Malformed, negative or non-finite values (`inf`, `NaN`).
    pub fn number(&self) -> Result<f64, String> {
        let (prefix, key, value) = (self.prefix, self.key, self.value);
        match value.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            Ok(_) => Err(format!(
                "{prefix}: negative or non-finite number '{value}' for '{key}'"
            )),
            Err(_) => Err(format!("{prefix}: bad number '{value}' for '{key}'")),
        }
    }

    /// The value as an unsigned integer (a seed, count, span or size).
    ///
    /// # Errors
    ///
    /// Values that do not parse as `T`.
    pub fn integer<T: FromStr>(&self) -> Result<T, String> {
        self.value.parse().map_err(|_| {
            format!(
                "{}: bad integer '{}' for '{}'",
                self.prefix, self.value, self.key
            )
        })
    }

    /// The error for a key the plan does not have.
    pub fn unknown(&self) -> String {
        format!("{}: unknown key '{}'", self.prefix, self.key)
    }
}

/// Parses a plan spec, the one grammar of `--fault-plan` and `--chaos`:
/// comma-separated tokens, trimmed, empty ones skipped. A bare token is a
/// preset name (`preset` maps it; `None` is an unknown preset) and is
/// allowed only as the first token, so overrides compose on top of it;
/// without one, parsing starts from `pristine`. Every `key=value` token
/// goes to `set`.
///
/// # Errors
///
/// The first unknown preset, misplaced preset or error from `set`; every
/// message starts with `prefix:` (`fault-plan`, `chaos`).
pub fn parse_plan_spec<P>(
    spec: &str,
    prefix: &'static str,
    pristine: P,
    preset: impl Fn(&str) -> Option<P>,
    mut set: impl FnMut(&mut P, SpecOverride<'_>) -> Result<(), String>,
) -> Result<P, String> {
    let mut plan = pristine;
    for (i, tok) in spec.split(',').enumerate() {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        if let Some((key, value)) = tok.split_once('=') {
            let key = key.trim();
            let value = value.trim();
            set(&mut plan, SpecOverride { prefix, key, value })?;
        } else {
            let named = preset(tok).ok_or_else(|| format!("{prefix}: unknown preset '{tok}'"))?;
            if i != 0 {
                return Err(format!("{prefix}: preset '{tok}' must be the first token"));
            }
            plan = named;
        }
    }
    Ok(plan)
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

    /// Whether this plan injects nothing (it then keys the clean
    /// measurement-cache namespace, see [`FaultPlan::fingerprint`]).
    pub fn is_pristine(&self) -> bool {
        self.counter_noise == 0.0
            && self.outlier_prob == 0.0
            && self.write_drop_prob == 0.0
            && self.write_stuck_prob == 0.0
            && self.throttle_prob == 0.0
            && self.timeout_prob == 0.0
    }

    /// Multiplicative scale a noisy observation (timer or RAPL reading)
    /// picks up: `1 + counter_noise·U(-1,1)`, times `outlier_scale` on
    /// outlier events. `1.0` when observation faults are disabled.
    pub fn observe_scale(&self, domain: &str, key: &[u8], salt: u64) -> f64 {
        if self.counter_noise == 0.0 && self.outlier_prob == 0.0 {
            return 1.0;
        }
        let mut rng = event_rng(self.seed, domain, key, salt);
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
        if chance(self.seed, self.write_drop_prob, "write-drop", key, salt) {
            return current_ghz;
        }
        if chance(self.seed, self.write_stuck_prob, "write-stuck", key, salt) {
            let span = self.stuck_span_steps.max(1) as u64;
            let mut rng = event_rng(self.seed, "stuck-step", key, salt);
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
        if !chance(self.seed, self.throttle_prob, "throttle", key, salt) {
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
        chance(self.seed, self.timeout_prob, "timeout", key, salt)
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

    /// Parses a fault-plan spec: a preset name (`pristine`/`none`/`off`,
    /// `standard`, `stuck`, `thermal`, `flaky`) and/or comma-separated
    /// `key=value` overrides, e.g. `standard,seed=7` or
    /// `noise=0.05,drop=0.5,seed=1`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown preset or key, or the
    /// first malformed, negative or non-finite value.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let preset = |name: &str| match name {
            "pristine" | "none" | "off" => Some(FaultPlan::pristine()),
            "standard" => Some(FaultPlan::standard_matrix(42)),
            "stuck" => Some(FaultPlan::stuck_writes(42, 1.0, 4)),
            "thermal" => Some(FaultPlan::thermal_throttle(42, 0.5, 0.5)),
            "flaky" => Some(FaultPlan::flaky_reads(42, 0.3)),
            _ => None,
        };
        parse_plan_spec(
            spec,
            "fault-plan",
            FaultPlan::pristine(),
            preset,
            |plan, o| {
                match o.key {
                    "seed" => plan.seed = o.integer()?,
                    "noise" => plan.counter_noise = o.number()?,
                    "outlier" => plan.outlier_prob = o.number()?,
                    "outlier-scale" => plan.outlier_scale = o.number()?,
                    "drop" => plan.write_drop_prob = o.number()?,
                    "stuck" => plan.write_stuck_prob = o.number()?,
                    "stuck-span" => plan.stuck_span_steps = o.integer()?,
                    "throttle" => plan.throttle_prob = o.number()?,
                    "throttle-ghz" => plan.throttle_ghz = o.number()?,
                    "throttle-share" => plan.throttle_share = o.number()?,
                    "timeout" => plan.timeout_prob = o.number()?,
                    _ => return Err(o.unknown()),
                }
                Ok(())
            },
        )
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
    fn spec_rejects_non_finite_and_negative_numbers() {
        // Every float key, not only the rates: an `inf` outlier scale
        // once parsed and then reported `time inf energy inf`.
        for key in [
            "noise",
            "outlier",
            "outlier-scale",
            "drop",
            "stuck",
            "throttle",
            "throttle-ghz",
            "throttle-share",
            "timeout",
        ] {
            for bad in ["inf", "-inf", "NaN", "-0.5"] {
                let spec = format!("seed=1,outlier=1,{key}={bad}");
                let err = FaultPlan::parse_spec(&spec).unwrap_err();
                assert!(err.starts_with("fault-plan: "), "{spec}: {err}");
            }
        }
        assert!(FaultPlan::parse_spec("seed=1,outlier=1,outlier-scale=0").is_ok());
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

    /// FNV-1a over a word sequence: pins a run of draws bit for bit.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .fold(FNV_OFFSET, |h, w| fnv1a(h, &w.to_le_bytes()))
    }

    /// The first 32 decisions of every event kind, for a plan.
    fn first_draws(p: &FaultPlan) -> (u64, u64, u64, String, u64) {
        let plat = Platform::broadwell();
        let observe = digest((0..32).map(|s| p.observe_scale("rapl", b"gemm", s).to_bits()));
        let write = digest((0..32).map(|s| p.perturb_write(2.8, 1.6, &plat, b"gemm", s).to_bits()));
        let throttle = digest((0..32).flat_map(|i| {
            let f = 1.2 + 0.05 * i as f64;
            match p.throttle_window(&plat, b"gemm", f) {
                Some((share, ghz)) => [share.to_bits(), ghz.to_bits()],
                None => [u64::MAX; 2],
            }
        }));
        let timeouts = (0..32)
            .map(|s| ['.', 'x'][usize::from(p.read_times_out(b"gemm", s))])
            .collect();
        let counters = digest((0..32u64).flat_map(|i| {
            let mut c = crate::exec::KernelCounters {
                name: "gemm".into(),
                flops: 1000,
                accesses: 500,
                hits: vec![400, 50],
                misses: vec![100, 50],
                dram_fills: 50,
                dram_writebacks: 25,
                line_bytes: 64,
                parallel: false,
            };
            p.perturb_counters(&mut c, &i.to_le_bytes());
            let mut words = c.hits;
            words.extend(c.misses);
            words.extend([c.dram_fills, c.dram_writebacks]);
            words
        }));
        (observe, write, throttle, timeouts, counters)
    }

    #[test]
    fn draws_are_pinned() {
        // The draws every recorded fault run made: a change here moves
        // every seeded fault scenario and robustness figure.
        let none = "................................".to_string();
        assert_eq!(
            first_draws(&FaultPlan::standard_matrix(7)),
            (
                4393138375910922729,
                15183992019789219241,
                13724927516841532709,
                none,
                4437847516374374146
            )
        );
        let every_class = FaultPlan {
            write_stuck_prob: 0.3,
            stuck_span_steps: 3,
            throttle_prob: 0.4,
            throttle_share: 0.5,
            timeout_prob: 0.3,
            ..FaultPlan::standard_matrix(7)
        };
        assert_eq!(
            first_draws(&every_class),
            (
                4393138375910922729,
                2146962466508830833,
                1668446092887328197,
                "x.......x.x.x...x...........xx..".to_string(),
                4437847516374374146
            )
        );
    }
}
