//! Deterministic, seedable chaos injection for the serving path.
//!
//! The daemon's failure story is only as good as its worst untested
//! timing: a compile that hangs a pool worker, a client socket that
//! dribbles bytes one at a time, a signal storm landing mid-`epoll_wait`.
//! A [`ChaosPlan`] describes one such adversarial environment for
//! `polyufc serve` the way [`polyufc_machine`]'s `FaultPlan` describes
//! one for the capping runtime, and it is built on the same core
//! (`polyufc_machine::fault`):
//!
//! * **Off by default.** [`ChaosPlan::pristine`] is the `Default`, and
//!   under it every draw is a zero-rate [`chance`], which returns `false`
//!   without drawing: the reactor and the workers call the plan
//!   unconditionally and behave byte-identically to a build without the
//!   layer (checked by the `serve_chaos` harness and
//!   `pristine_is_default_and_injects_nothing`). Only the engine keeps a
//!   pristine early-out, which spares every compile the attempts-table
//!   mutex.
//! * **Deterministic.** Every chaos decision is a pure function of
//!   `(seed, domain, key, salt)`, drawn by the fault layer's [`chance`]
//!   and [`event_u64`] (FNV-1a folded into the vendored `StdRng`), so a
//!   seeded chaos scenario reproduces bit-for-bit (`draws_are_pinned`).
//!
//! Plans are spelled in the fault layer's `preset,key=value` grammar
//! ([`ChaosPlan::parse_spec`] / [`ChaosPlan::spec_string`] round-trip),
//! which is also how the `--chaos` CLI flag takes them.
//!
//! An optional **budget** bounds the total number of injections: tests
//! use `panic=1,budget=2` to get exactly two deterministic panics and
//! then pristine behavior, instead of tuning probabilities. The budget
//! counter counts every granted injection, budget or not; it is what the
//! daemon's `stats` report as `chaos_injections`.

use polyufc_machine::fault::{chance, event_u64, parse_plan_spec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the worker should do to one compile job before running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileFault {
    /// Sleep this long, then compile normally (latency injection).
    Slow(Duration),
    /// Sleep this long while *appearing* hung: long enough to trip the
    /// deadline watchdog, bounded so detached workers eventually exit.
    Hang(Duration),
    /// Panic inside the compile (exercises `catch_unwind` containment,
    /// session rebuild, and the quarantine strike path).
    Panic,
}

/// A seeded description of the chaos to inject into the serving path.
///
/// All probabilities are per-event in `[0, 1]`; a field at zero disables
/// that chaos class entirely. The all-zero plan is
/// [`ChaosPlan::pristine`] and injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for every chaos decision (mixed with the event key).
    pub seed: u64,
    /// Probability that a compile is delayed before running.
    pub slow_prob: f64,
    /// Delay applied to slow compiles, in milliseconds.
    pub slow_ms: u64,
    /// Probability that a compile hangs its worker.
    pub hang_prob: f64,
    /// How long a hung compile occupies its worker, in milliseconds
    /// (bounded, so a detached worker eventually exits).
    pub hang_ms: u64,
    /// Probability that a compile panics mid-pipeline.
    pub panic_prob: f64,
    /// Probability that one socket read is clamped short.
    pub short_read_prob: f64,
    /// Max bytes a clamped read may return (at least 1).
    pub short_read_cap: usize,
    /// Probability that one socket write is clamped short.
    pub short_write_prob: f64,
    /// Max bytes a clamped write may move (at least 1).
    pub short_write_cap: usize,
    /// Total injections allowed across the plan's lifetime; `0` means
    /// unlimited. Shared across clones, so an engine-wide plan has one
    /// budget no matter how many threads consult it.
    pub budget: u64,
    used: Arc<AtomicU64>,
}

impl PartialEq for ChaosPlan {
    fn eq(&self, other: &Self) -> bool {
        // The budget counter is runtime state, not plan identity.
        self.seed == other.seed
            && self.slow_prob == other.slow_prob
            && self.slow_ms == other.slow_ms
            && self.hang_prob == other.hang_prob
            && self.hang_ms == other.hang_ms
            && self.panic_prob == other.panic_prob
            && self.short_read_prob == other.short_read_prob
            && self.short_read_cap == other.short_read_cap
            && self.short_write_prob == other.short_write_prob
            && self.short_write_cap == other.short_write_cap
            && self.budget == other.budget
    }
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::pristine()
    }
}

impl ChaosPlan {
    /// The no-chaos plan: every injection site becomes a no-op and the
    /// daemon behaves byte-identically to a build without the layer.
    pub fn pristine() -> Self {
        ChaosPlan {
            seed: 0,
            slow_prob: 0.0,
            slow_ms: 0,
            hang_prob: 0.0,
            hang_ms: 0,
            panic_prob: 0.0,
            short_read_prob: 0.0,
            short_read_cap: 0,
            short_write_prob: 0.0,
            short_write_cap: 0,
            budget: 0,
            used: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Latency injection: compiles randomly pause before running.
    pub fn slow_compiles(seed: u64, prob: f64, ms: u64) -> Self {
        ChaosPlan {
            seed,
            slow_prob: prob,
            slow_ms: ms,
            ..ChaosPlan::pristine()
        }
    }

    /// Hung compiles: a worker sits on one job long enough to trip the
    /// deadline watchdog (and get itself detached and replaced).
    pub fn hung_compiles(seed: u64, prob: f64, ms: u64) -> Self {
        ChaosPlan {
            seed,
            hang_prob: prob,
            hang_ms: ms,
            ..ChaosPlan::pristine()
        }
    }

    /// Panicking compiles: exercises containment, session rebuild, and
    /// the quarantine circuit breaker.
    pub fn panicking_compiles(seed: u64, prob: f64) -> Self {
        ChaosPlan {
            seed,
            panic_prob: prob,
            ..ChaosPlan::pristine()
        }
    }

    /// Socket-level chaos: short reads and short writes force the
    /// reactor's partial-I/O state machines through every resume path.
    pub fn socket_faults(seed: u64, prob: f64) -> Self {
        ChaosPlan {
            seed,
            short_read_prob: prob,
            short_read_cap: 7,
            short_write_prob: prob,
            short_write_cap: 33,
            ..ChaosPlan::pristine()
        }
    }

    /// The documented "standard chaos matrix" the `serve_chaos` harness
    /// and the CI `serve-chaos` job run: a mild mix of every class at
    /// once.
    pub fn standard_matrix(seed: u64) -> Self {
        ChaosPlan {
            seed,
            slow_prob: 0.10,
            slow_ms: 5,
            hang_prob: 0.03,
            hang_ms: 800,
            panic_prob: 0.03,
            short_read_prob: 0.20,
            short_read_cap: 7,
            short_write_prob: 0.20,
            short_write_cap: 33,
            ..ChaosPlan::pristine()
        }
    }

    /// Whether this plan injects nothing (the engine's compile early-out
    /// and the CLI's banner ask).
    pub fn is_pristine(&self) -> bool {
        self.slow_prob == 0.0
            && self.hang_prob == 0.0
            && self.panic_prob == 0.0
            && self.short_read_prob == 0.0
            && self.short_write_prob == 0.0
    }

    /// Consumes one budget unit; `false` when the budget is exhausted
    /// (the plan then behaves pristine for that event). Unbounded plans
    /// (budget 0) always succeed but still count the injection.
    fn charge(&self) -> bool {
        if self.budget == 0 {
            self.used.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            if cur >= self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total injections this plan has granted so far (shared across
    /// clones, counted whether or not a budget bounds them).
    pub fn injections_charged(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The fault (if any) to apply to one compile, keyed by the
    /// request's prefix key (its fingerprint) and a per-fingerprint attempt
    /// counter — retry N of the same kernel draws independently from
    /// retry N+1, so a hang on the first attempt does not doom every
    /// retry.
    pub fn compile_fault(&self, fingerprint: &[u8], attempt: u64) -> Option<CompileFault> {
        let draw = |p: f64, domain: &str| chance(self.seed, p, domain, fingerprint, attempt);
        if draw(self.panic_prob, "compile-panic") && self.charge() {
            return Some(CompileFault::Panic);
        }
        if draw(self.hang_prob, "compile-hang") && self.charge() {
            return Some(CompileFault::Hang(Duration::from_millis(
                self.hang_ms.max(1),
            )));
        }
        if draw(self.slow_prob, "compile-slow") && self.charge() {
            return Some(CompileFault::Slow(Duration::from_millis(
                self.slow_ms.max(1),
            )));
        }
        None
    }

    /// Byte cap (if any) for one socket read, keyed by connection id and
    /// a per-connection I/O counter. Always at least 1 — a zero-byte
    /// read would be indistinguishable from EOF.
    pub fn read_clamp(&self, conn: u64, io_seq: u64) -> Option<usize> {
        let (p, cap) = (self.short_read_prob, self.short_read_cap);
        self.clamp(p, cap, ["short-read", "short-read-len"], conn, io_seq)
    }

    /// Byte cap (if any) for one socket write, keyed like
    /// [`ChaosPlan::read_clamp`]. Always at least 1 — a zero-byte write
    /// reads back as `WriteZero` and would kill the connection.
    pub fn write_clamp(&self, conn: u64, io_seq: u64) -> Option<usize> {
        let (p, cap) = (self.short_write_prob, self.short_write_cap);
        self.clamp(p, cap, ["short-write", "short-write-len"], conn, io_seq)
    }

    /// One socket clamp: with probability `prob` (and budget left), a
    /// length in `1..=cap`, drawn from the `event` and `len` streams.
    fn clamp(
        &self,
        prob: f64,
        cap: usize,
        [event, len]: [&str; 2],
        conn: u64,
        io_seq: u64,
    ) -> Option<usize> {
        let key = conn.to_le_bytes();
        if !chance(self.seed, prob, event, &key, io_seq) || !self.charge() {
            return None;
        }
        let cap = cap.max(1) as u64;
        Some((1 + event_u64(self.seed, len, &key, io_seq) % cap) as usize)
    }

    /// Serializes the plan as a canonical spec string that
    /// [`ChaosPlan::parse_spec`] round-trips.
    pub fn spec_string(&self) -> String {
        if self.is_pristine() && self.budget == 0 {
            return "pristine".to_string();
        }
        format!(
            "seed={},slow={},slow-ms={},hang={},hang-ms={},panic={},short-read={},\
             short-read-cap={},short-write={},short-write-cap={},budget={}",
            self.seed,
            self.slow_prob,
            self.slow_ms,
            self.hang_prob,
            self.hang_ms,
            self.panic_prob,
            self.short_read_prob,
            self.short_read_cap,
            self.short_write_prob,
            self.short_write_cap,
            self.budget
        )
    }

    /// Parses a chaos spec: a preset name (`pristine`/`none`/`off`,
    /// `slow`, `hung`, `panic`, `socket`, `standard`) and/or
    /// comma-separated `key=value` overrides, e.g. `standard,seed=7` or
    /// `hang=1,hang-ms=500,budget=1`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown preset or key, or the
    /// first malformed, negative or non-finite value.
    pub fn parse_spec(spec: &str) -> Result<ChaosPlan, String> {
        let preset = |name: &str| match name {
            "pristine" | "none" | "off" => Some(ChaosPlan::pristine()),
            "slow" => Some(ChaosPlan::slow_compiles(42, 0.3, 10)),
            "hung" => Some(ChaosPlan::hung_compiles(42, 0.08, 800)),
            "panic" => Some(ChaosPlan::panicking_compiles(42, 0.08)),
            "socket" => Some(ChaosPlan::socket_faults(42, 0.4)),
            "standard" => Some(ChaosPlan::standard_matrix(42)),
            _ => None,
        };
        parse_plan_spec(spec, "chaos", ChaosPlan::pristine(), preset, |plan, o| {
            match o.key {
                "seed" => plan.seed = o.integer()?,
                "slow" => plan.slow_prob = o.number()?,
                "slow-ms" => plan.slow_ms = o.integer()?,
                "hang" => plan.hang_prob = o.number()?,
                "hang-ms" => plan.hang_ms = o.integer()?,
                "panic" => plan.panic_prob = o.number()?,
                "short-read" => plan.short_read_prob = o.number()?,
                "short-read-cap" => plan.short_read_cap = o.integer()?,
                "short-write" => plan.short_write_prob = o.number()?,
                "short-write-cap" => plan.short_write_cap = o.integer()?,
                "budget" => plan.budget = o.integer()?,
                _ => return Err(o.unknown()),
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_is_default_and_injects_nothing() {
        let p = ChaosPlan::default();
        assert!(p.is_pristine());
        assert_eq!(p.compile_fault(b"k", 0), None);
        assert_eq!(p.read_clamp(1, 0), None);
        assert_eq!(p.write_clamp(1, 0), None);
        assert_eq!(p.injections_charged(), 0);
        assert_eq!(p.spec_string(), "pristine");
    }

    #[test]
    fn events_are_deterministic_per_key() {
        let p = ChaosPlan::standard_matrix(7);
        let a = p.compile_fault(b"gemm", 3);
        assert_eq!(a, p.compile_fault(b"gemm", 3));
        let clamp = p.read_clamp(9, 2);
        assert_eq!(clamp, p.read_clamp(9, 2));
        // Across 64 attempts at 3% hang + 3% panic + 10% slow, some draw
        // must trip and some must not — and a different seed must not
        // reproduce the same trip pattern.
        let trips = |plan: &ChaosPlan| -> Vec<bool> {
            (0..64)
                .map(|s| plan.compile_fault(b"gemm", s).is_some())
                .collect()
        };
        let t7 = trips(&p);
        assert!(t7.iter().any(|&b| b) && t7.iter().any(|&b| !b));
        assert_ne!(t7, trips(&ChaosPlan::standard_matrix(8)));
    }

    #[test]
    fn certain_faults_fire_and_clamps_stay_positive() {
        let p = ChaosPlan::hung_compiles(1, 1.0, 250);
        assert_eq!(
            p.compile_fault(b"k", 0),
            Some(CompileFault::Hang(Duration::from_millis(250)))
        );
        let s = ChaosPlan::socket_faults(1, 1.0);
        for io in 0..32 {
            let r = s.read_clamp(5, io).expect("certain clamp");
            assert!((1..=7).contains(&r));
            let w = s.write_clamp(5, io).expect("certain clamp");
            assert!((1..=33).contains(&w));
        }
    }

    #[test]
    fn budget_bounds_total_injections_then_goes_pristine() {
        let p = ChaosPlan::parse_spec("panic=1,budget=2").unwrap();
        assert_eq!(p.compile_fault(b"a", 0), Some(CompileFault::Panic));
        assert_eq!(p.compile_fault(b"a", 1), Some(CompileFault::Panic));
        assert_eq!(p.compile_fault(b"a", 2), None, "budget exhausted");
        assert_eq!(p.injections_charged(), 2);
        // Clones share the budget: an engine-wide plan has one pool.
        assert_eq!(p.clone().compile_fault(b"b", 0), None);
    }

    #[test]
    fn spec_round_trips() {
        let p = ChaosPlan::standard_matrix(9);
        assert_eq!(ChaosPlan::parse_spec(&p.spec_string()).unwrap(), p);
        assert_eq!(
            ChaosPlan::parse_spec("pristine").unwrap(),
            ChaosPlan::pristine()
        );
        assert_eq!(
            ChaosPlan::parse_spec("standard,seed=7").unwrap(),
            ChaosPlan::standard_matrix(7)
        );
        assert!(ChaosPlan::parse_spec("bogus").is_err());
        assert!(ChaosPlan::parse_spec("hang=abc").is_err());
        assert!(ChaosPlan::parse_spec("seed=1,standard").is_err());
        assert!(ChaosPlan::parse_spec("slow=-0.5").is_err());
    }

    #[test]
    fn spec_rejects_non_finite_and_negative_numbers() {
        for key in ["slow", "hang", "panic", "short-read", "short-write"] {
            for bad in ["inf", "-inf", "NaN", "-0.5"] {
                let spec = format!("seed=1,{key}={bad}");
                let err = ChaosPlan::parse_spec(&spec).unwrap_err();
                assert!(err.starts_with("chaos: "), "{spec}: {err}");
            }
        }
        assert!(ChaosPlan::parse_spec("seed=1,slow=0").is_ok());
    }

    #[test]
    fn draws_are_pinned() {
        // The draws every recorded chaos run made: a change here moves
        // every seeded chaos scenario.
        let p = ChaosPlan::standard_matrix(7);
        let compiles: String = (0..32)
            .map(|a| match p.compile_fault(b"gemm", a) {
                None => '.',
                Some(CompileFault::Slow(_)) => 's',
                Some(CompileFault::Hang(_)) => 'h',
                Some(CompileFault::Panic) => 'p',
            })
            .collect();
        let clamps = |f: &dyn Fn(u64) -> Option<usize>| -> String {
            let caps: Vec<String> = (0..32)
                .map(|io| f(io).map_or("-".into(), |k| k.to_string()))
                .collect();
            caps.join(" ")
        };
        let reads = clamps(&|io| p.read_clamp(9, io));
        let writes = clamps(&|io| p.write_clamp(9, io));
        assert_eq!(compiles, "..............p..s.....p.s.h.s..");
        assert_eq!(
            reads,
            "- 7 1 - - - 4 - - - - - - - - - - - - - - - - - 5 - 4 - 2 - - -"
        );
        assert_eq!(
            writes,
            "- - - - - - - - - - 1 - - 10 5 29 - - 18 - 6 16 23 11 - - - - 9 - - -"
        );
        // Every granted injection above was charged once.
        assert_eq!(p.injections_charged(), 6 + 6 + 10);
    }
}
