//! The guarded capping runtime: trust, but verify.
//!
//! The compiler's static caps are only advice to hardware that may not
//! take it: cap writes get dropped or land on the wrong step, counters
//! read back garbage, and the analytic `T(f_c,I)`/`E(f_c,I)` model that
//! chose the cap carries systematic error. [`GuardedCapRuntime`] wraps
//! cap application the way a production runtime library would:
//!
//! 1. **Verify after write.** Every cap write is read back; a mismatch
//!    (or a timed-out read) triggers a bounded retry with exponential
//!    backoff, each backoff interval charged to the run's wall-clock at
//!    static power.
//! 2. **Misprediction watchdog.** After each kernel the observed time and
//!    energy are compared against the static model predictions; relative
//!    error above 75% is a *strike*.
//! 3. **Hysteresis + graceful fallback.** One bad kernel is tolerated
//!    (noise and model outliers happen); two consecutive strikes — or a
//!    cap write that still fails verification after all retries, which
//!    is an unambiguous hardware fault — degrade
//!    the run to the stock [`crate::UfsDriver`] behavior: the cap is
//!    released and every remaining kernel runs at the governor's maximum
//!    frequency. Degraded ≈ stock baseline plus the already-sunk
//!    overheads, which bounds the worst case.
//!
//! Every decision is recorded in a [`GuardReport`]; a compact
//! [`GuardSummary`] is threaded through [`RunResult`] so harness tables
//! can surface guard activity without carrying the full report.
//!
//! With a pristine fault plan the guard is an exact pass-through: its
//! accumulation mirrors [`ExecutionEngine::run_scf`] operation-for-
//! operation, so the output is byte-identical to the unguarded path
//! (property-tested in `tests/guard.rs`).

use polyufc_ir::scf::ScfProgram;

use crate::exec::{ExecutionEngine, KernelCounters, RunResult};
use crate::rapl::EnergyBreakdown;

/// The static model's prediction for one kernel at its chosen cap —
/// plain data, so the machine crate needs no dependency on the compiler's
/// `ParametricModel` (the dependency points the other way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapPrediction {
    /// The cap the prediction was made at (GHz).
    pub f_ghz: f64,
    /// Predicted execution time `T(f_c, I)`, seconds.
    pub time_s: f64,
    /// Predicted energy `E(f_c, I)`, joules.
    pub energy_j: f64,
}

/// Maximum verify-after-write retries per cap application.
const MAX_RETRIES: u32 = 3;

/// First retry's backoff interval (µs); doubles per retry. An MSR write
/// plus read-back verify is microseconds of work, so the backoff is
/// µs-scale — large backoffs would dominate millisecond kernels and break
/// the degradation bound for no modeling gain.
const BACKOFF_BASE_US: f64 = 5.0;

/// Consecutive mispredicted kernels required before degrading to the
/// stock governor (a verified-good kernel resets the streak).
const HYSTERESIS: u32 = 2;

/// Relative time error above which a kernel counts as mispredicted.
/// Generous by design: the analytic model itself carries tens of percent
/// of systematic error (Hofmann et al.), and the watchdog must fire on
/// *faults*, not on the model being a model.
const TIME_REL_ERR: f64 = 0.75;

/// Relative energy error threshold, same convention.
const ENERGY_REL_ERR: f64 = 0.75;

/// How one kernel's cap application ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapOutcome {
    /// The ambient frequency already matched; no write was issued.
    Inherited,
    /// The write verified on the first attempt.
    Verified,
    /// The write verified after at least one retry.
    VerifiedAfterRetry,
    /// Verification still failed after all retries; the cap was released
    /// and the kernel ran at the governor's maximum (an untrusted knob
    /// could be stuck arbitrarily low — stock behavior bounds the loss).
    Unverified,
    /// The guard had already degraded to the stock governor; the kernel
    /// ran at the governor's maximum frequency.
    Degraded,
}

impl std::fmt::Display for CapOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CapOutcome::Inherited => "inherited",
            CapOutcome::Verified => "verified",
            CapOutcome::VerifiedAfterRetry => "verified-after-retry",
            CapOutcome::Unverified => "unverified",
            CapOutcome::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// One kernel's guard record.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGuardRecord {
    /// Kernel name.
    pub kernel: String,
    /// The cap the compiler asked for (GHz).
    pub requested_ghz: f64,
    /// The frequency the kernel actually ran at (GHz).
    pub applied_ghz: f64,
    /// How the cap application ended.
    pub outcome: CapOutcome,
    /// Verify-after-write retries spent on this kernel.
    pub retries: u32,
    /// Verify reads that timed out.
    pub timeouts: u32,
    /// Observed-vs-predicted relative time error (`None` without a
    /// prediction or after degradation).
    pub time_rel_err: Option<f64>,
    /// Observed-vs-predicted relative energy error.
    pub energy_rel_err: Option<f64>,
    /// Whether this kernel counted as a watchdog strike.
    pub mispredicted: bool,
}

/// Compact, copyable roll-up of a [`GuardReport`], threaded through
/// [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardSummary {
    /// Total verify-after-write retries.
    pub retries: u32,
    /// Total timed-out verify reads.
    pub timeouts: u32,
    /// Kernels flagged by the misprediction watchdog.
    pub mispredictions: u32,
    /// Kernels that ran with an unverified cap.
    pub unverified: u32,
    /// Whether the run degraded to the stock governor.
    pub fell_back: bool,
}

/// Every decision the guard made during one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GuardReport {
    /// Per-kernel records, in program order.
    pub records: Vec<KernelGuardRecord>,
    /// Whether the run degraded to the stock governor.
    pub fell_back: bool,
    /// The kernel whose strike triggered the fallback.
    pub fallback_kernel: Option<String>,
    /// Total wall-clock spent in retry backoff, seconds.
    pub backoff_s: f64,
}

impl GuardReport {
    /// Total verify-after-write retries.
    pub fn retries(&self) -> u32 {
        self.records.iter().map(|r| r.retries).sum()
    }

    /// Total timed-out verify reads.
    pub fn timeouts(&self) -> u32 {
        self.records.iter().map(|r| r.timeouts).sum()
    }

    /// Kernels flagged by the misprediction watchdog.
    pub fn mispredictions(&self) -> u32 {
        self.records.iter().filter(|r| r.mispredicted).count() as u32
    }

    /// Kernels that ran with an unverified cap.
    pub fn unverified(&self) -> u32 {
        self.records
            .iter()
            .filter(|r| r.outcome == CapOutcome::Unverified)
            .count() as u32
    }

    /// The compact roll-up threaded through [`RunResult`].
    pub fn summary(&self) -> GuardSummary {
        GuardSummary {
            retries: self.retries(),
            timeouts: self.timeouts(),
            mispredictions: self.mispredictions(),
            unverified: self.unverified(),
            fell_back: self.fell_back,
        }
    }

    /// One-line roll-up for harness tables.
    pub fn one_line(&self) -> String {
        let mut s = format!(
            "{} kernels, {} retries, {} timeouts, {} mispredicted, {} unverified",
            self.records.len(),
            self.retries(),
            self.timeouts(),
            self.mispredictions(),
            self.unverified()
        );
        if self.fell_back {
            s.push_str(&format!(
                ", FELL BACK to stock governor at '{}'",
                self.fallback_kernel.as_deref().unwrap_or("?")
            ));
        }
        s
    }

    /// Multi-line human-readable rendering (per-kernel decisions).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let err = match (r.time_rel_err, r.energy_rel_err) {
                (Some(t), Some(e)) => format!(" Δt={:.0}% ΔE={:.0}%", t * 100.0, e * 100.0),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {:<16} req {:.1} GHz, ran {:.1} GHz, {}{}{}\n",
                r.kernel,
                r.requested_ghz,
                r.applied_ghz,
                r.outcome,
                if r.retries > 0 {
                    format!(" ({} retries)", r.retries)
                } else {
                    String::new()
                },
                err
            ));
        }
        out.push_str(&format!("  => {}\n", self.one_line()));
        out
    }
}

/// The guarded capping runtime: wraps an engine's scf execution with
/// verify-after-write, bounded retry, a misprediction watchdog, and
/// graceful degradation to the stock governor.
#[derive(Debug, Clone)]
pub struct GuardedCapRuntime<'e> {
    /// The engine (and through it the platform and fault plan) to run on.
    pub engine: &'e ExecutionEngine,
}

impl<'e> GuardedCapRuntime<'e> {
    /// A guard over `engine`.
    pub fn new(engine: &'e ExecutionEngine) -> Self {
        GuardedCapRuntime { engine }
    }

    /// Runs an scf program with guarded cap application.
    ///
    /// `predictions` holds the static model's per-kernel expectations at
    /// the chosen caps; pass an empty slice to disable the misprediction
    /// watchdog (verify-after-write still runs).
    ///
    /// # Panics
    ///
    /// Panics if `counters` does not match the program's kernels, or if
    /// `predictions` is non-empty but mismatched.
    pub fn run_scf(
        &self,
        scf: &ScfProgram,
        counters: &[KernelCounters],
        predictions: &[CapPrediction],
    ) -> (RunResult, GuardReport) {
        let pairs = scf.kernels_with_caps();
        assert_eq!(
            pairs.len(),
            counters.len(),
            "one counter set per kernel required"
        );
        assert!(
            predictions.is_empty() || predictions.len() == pairs.len(),
            "one prediction per kernel (or none at all) required"
        );
        let plat = &self.engine.platform;
        let fault = &self.engine.fault;

        let mut time = 0.0;
        let mut energy = EnergyBreakdown::default();
        let mut weighted_f = 0.0;
        let mut current = plat.uncore_max_ghz;
        let mut switches = 0u32;
        let mut backoff_s = 0.0;
        // The consecutive strike streak the hysteresis watches.
        let mut streak = 0u32;
        let mut degraded = false;
        let mut report = GuardReport::default();

        for (i, ((cap, _k), c)) in pairs.iter().zip(counters).enumerate() {
            let requested = match cap {
                Some(mhz) => plat.clamp_uncore(*mhz as f64 / 1000.0),
                None => plat.uncore_max_ghz,
            };
            // Degraded mode: the cap is released and the stock governor
            // runs the uncore at its maximum.
            let target = if degraded {
                plat.uncore_max_ghz
            } else {
                requested
            };

            let mut retries = 0u32;
            let mut timeouts = 0u32;
            let outcome;
            // The frequency the kernel runs at. Mirrors the unguarded
            // path exactly when nothing faults: run at `target` (the
            // unguarded path runs at the requested frequency even when
            // it is within the switch epsilon of the ambient one), fall
            // back to the knob's observed state only on a failed write.
            let applied;
            if (target - current).abs() <= 1e-9 {
                // Nothing to write; the ambient frequency already
                // satisfies the cap (also the degraded steady state).
                outcome = if degraded {
                    CapOutcome::Degraded
                } else {
                    CapOutcome::Inherited
                };
                applied = target;
            } else if degraded {
                // Releasing the cap: the governor ramps to max on its
                // own; there is no MSR write to drop or verify.
                switches += 1;
                current = plat.uncore_max_ghz;
                applied = current;
                outcome = CapOutcome::Degraded;
            } else {
                // Write → verify → retry with exponential backoff.
                // `cap_switch_us` is charged per *net* transition the
                // kernel waits to settle; intermediate landings during
                // the retry loop are already covered by the backoff
                // wall-clock, so the episode costs at most one switch.
                let f0 = current;
                let mut verified = false;
                let mut attempt = 0u32;
                loop {
                    let salt = ((i as u64) << 8) | attempt as u64;
                    current = fault.perturb_write(current, target, plat, c.name.as_bytes(), salt);
                    let read_ok = !fault.read_times_out(c.name.as_bytes(), salt);
                    if !read_ok {
                        timeouts += 1;
                    } else if (current - target).abs() <= 1e-9 {
                        verified = true;
                        break;
                    }
                    if attempt >= MAX_RETRIES {
                        break;
                    }
                    attempt += 1;
                    retries += 1;
                    backoff_s += BACKOFF_BASE_US * 1e-6 * (1u64 << (attempt - 1).min(16)) as f64;
                }
                outcome = if verified && retries == 0 {
                    CapOutcome::Verified
                } else if verified {
                    CapOutcome::VerifiedAfterRetry
                } else {
                    CapOutcome::Unverified
                };
                if verified {
                    applied = target;
                } else {
                    // The knob cannot be trusted; running at whatever
                    // frequency it stuck at could be arbitrarily bad.
                    // Release the cap (reliable — the governor ramps to
                    // max on its own, there is no MSR write to verify)
                    // and run this kernel like the stock driver would.
                    current = plat.uncore_max_ghz;
                    applied = current;
                }
                if (current - f0).abs() > 1e-9 {
                    switches += 1;
                }
            }

            let r = self.engine.run_kernel(c, applied);
            time += r.time_s;
            energy = energy.add(&r.energy);
            weighted_f += applied * r.time_s;

            // Misprediction watchdog.
            let mut t_err = None;
            let mut e_err = None;
            let mut mispredicted = false;
            if !degraded {
                if !predictions.is_empty() {
                    let pr = &predictions[i];
                    let te = (r.time_s - pr.time_s).abs() / pr.time_s.max(1e-12);
                    let ee = (r.energy.total() - pr.energy_j).abs() / pr.energy_j.max(1e-12);
                    t_err = Some(te);
                    e_err = Some(ee);
                    if te > TIME_REL_ERR || ee > ENERGY_REL_ERR {
                        mispredicted = true;
                    }
                }
                if outcome == CapOutcome::Unverified {
                    // A write that still fails after every retry is an
                    // unambiguous hardware fault, not model error.
                    mispredicted = true;
                }
                if mispredicted {
                    streak += 1;
                    let hard_fault = outcome == CapOutcome::Unverified;
                    if streak >= HYSTERESIS || hard_fault {
                        degraded = true;
                        report.fell_back = true;
                        report.fallback_kernel = Some(c.name.clone());
                    }
                } else {
                    streak = 0;
                }
            }

            report.records.push(KernelGuardRecord {
                kernel: c.name.clone(),
                requested_ghz: requested,
                applied_ghz: applied,
                outcome,
                retries,
                timeouts,
                time_rel_err: t_err,
                energy_rel_err: e_err,
                mispredicted,
            });
        }

        // Same overhead accounting as the unguarded path, plus the
        // guard's own backoff time (zero without faults).
        let overhead = switches as f64 * plat.cap_switch_us * 1e-6 + backoff_s;
        time += overhead;
        energy.static_j += overhead * plat.p_static_w;
        report.backoff_s = backoff_s;
        let result = RunResult {
            time_s: time,
            energy,
            avg_power_w: energy.total() / time.max(1e-12),
            uncore_ghz: if time > 0.0 {
                weighted_f / time
            } else {
                current
            },
            guard: Some(report.summary()),
        };
        (result, report)
    }
}
