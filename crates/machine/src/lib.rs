//! The hardware substitute: simulated Intel platforms (Broadwell and
//! Raptor Lake, Table III), an execution engine that turns interpreter
//! traces into time/energy "measurements" as a function of the uncore
//! frequency, a RAPL-style energy meter with per-zone readings, and a
//! model of the stock Intel UFS driver used as the paper's baseline.
//!
//! See DESIGN.md for the substitution rationale: the paper evaluates on
//! real hardware; this crate reproduces the *mechanics* that make uncore
//! capping interesting — DRAM latency and bandwidth that scale with the
//! uncore frequency, and uncore power that rises linearly with it — so
//! the shape of every time/energy/EDP-vs-frequency curve is preserved.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dufs;
pub mod exec;
pub mod fault;
pub mod guard;
pub mod measure_cache;
pub mod platform;
pub mod rapl;
pub mod ufs;

pub use dufs::DufsGovernor;
pub use exec::{measure_kernel, measure_program, ExecutionEngine, KernelCounters, RunResult};
pub use fault::FaultPlan;
pub use guard::{
    CapOutcome, CapPrediction, GuardReport, GuardSummary, GuardedCapRuntime, KernelGuardRecord,
};
pub use measure_cache::{
    kernel_fingerprint, measure_cache_reset, measure_cache_stats, program_fingerprint,
    MeasureCacheStats,
};
pub use platform::Platform;
pub use rapl::EnergyBreakdown;
pub use ufs::UfsDriver;
