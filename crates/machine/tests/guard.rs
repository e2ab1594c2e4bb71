//! Guarded-runtime contract tests: byte-identical pass-through with no
//! faults (property-tested over random programs), and deterministic
//! seeded fault scenarios exercising retry, fallback, and the watchdog.

use proptest::prelude::*;

use polyufc_ir::affine::{AffineKernel, Loop};
use polyufc_ir::scf::{ScfOp, ScfProgram};
use polyufc_machine::{
    CapOutcome, CapPrediction, ExecutionEngine, FaultPlan, GuardedCapRuntime, KernelCounters,
    Platform, UfsDriver,
};

fn arb_counters() -> impl Strategy<Value = KernelCounters> {
    (
        1u64..10_000_000_000,
        0u64..100_000_000,
        0u64..50_000_000,
        0u64..10_000_000,
        any::<bool>(),
    )
        .prop_map(
            |(flops, l1_hits, llc_hits, fills, parallel)| KernelCounters {
                name: String::new(),
                flops,
                accesses: l1_hits + llc_hits + fills,
                hits: vec![l1_hits, 0, llc_hits],
                misses: vec![llc_hits + fills, llc_hits + fills, fills],
                dram_fills: fills,
                dram_writebacks: fills / 4,
                line_bytes: 64,
                parallel,
            },
        )
}

/// A random scf program: kernels with arbitrary (possibly absent) cap
/// calls, plus matching counters.
fn arb_program() -> impl Strategy<Value = (ScfProgram, Vec<KernelCounters>)> {
    proptest::collection::vec((any::<bool>(), 800u32..3500, arb_counters()), 1..5).prop_map(
        |entries| {
            let mut ops = Vec::new();
            let mut counters = Vec::new();
            for (i, (has_cap, mhz, mut c)) in entries.into_iter().enumerate() {
                if has_cap {
                    ops.push(ScfOp::SetUncoreCap { mhz });
                }
                c.name = format!("k{i}");
                ops.push(ScfOp::Kernel(AffineKernel {
                    name: format!("k{i}"),
                    loops: vec![Loop::range(4)],
                    statements: vec![],
                }));
                counters.push(c);
            }
            (
                ScfProgram {
                    name: "prop".into(),
                    arrays: vec![],
                    ops,
                },
                counters,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a pristine fault plan the guard is an exact pass-through:
    /// every physical field of the run result is bit-identical to the
    /// unguarded `run_scf` (the guard field itself differs by design).
    #[test]
    fn pristine_guard_is_byte_identical((scf, counters) in arb_program()) {
        for plat in Platform::all() {
            let eng = ExecutionEngine::new(plat.clone());
            prop_assert!(eng.fault.is_pristine());
            let plain = eng.run_scf(&scf, &counters);
            let (guarded, report) =
                GuardedCapRuntime::new(&eng).run_scf(&scf, &counters, &[]);
            prop_assert_eq!(plain.time_s.to_bits(), guarded.time_s.to_bits());
            prop_assert_eq!(plain.energy.static_j.to_bits(), guarded.energy.static_j.to_bits());
            prop_assert_eq!(plain.energy.core_j.to_bits(), guarded.energy.core_j.to_bits());
            prop_assert_eq!(plain.energy.uncore_j.to_bits(), guarded.energy.uncore_j.to_bits());
            prop_assert_eq!(plain.energy.dram_j.to_bits(), guarded.energy.dram_j.to_bits());
            prop_assert_eq!(plain.avg_power_w.to_bits(), guarded.avg_power_w.to_bits());
            prop_assert_eq!(plain.uncore_ghz.to_bits(), guarded.uncore_ghz.to_bits());
            // And no guard activity of any kind.
            prop_assert!(!report.fell_back);
            prop_assert_eq!(report.retries(), 0);
            prop_assert_eq!(report.timeouts(), 0);
            prop_assert_eq!(report.unverified(), 0);
            prop_assert_eq!(report.backoff_s, 0.0);
        }
    }
}

fn counters(name: &str) -> KernelCounters {
    KernelCounters {
        name: name.into(),
        flops: 4_000_000_000,
        accesses: 50_000_000,
        hits: vec![40_000_000, 0, 5_000_000],
        misses: vec![10_000_000, 10_000_000, 5_000_000],
        dram_fills: 5_000_000,
        dram_writebacks: 1_000_000,
        line_bytes: 64,
        parallel: true,
    }
}

fn capped_program(names: &[&str], cap_mhz: u32) -> (ScfProgram, Vec<KernelCounters>) {
    let mut ops = Vec::new();
    let mut cs = Vec::new();
    for name in names {
        ops.push(ScfOp::SetUncoreCap { mhz: cap_mhz });
        ops.push(ScfOp::Kernel(AffineKernel {
            name: (*name).into(),
            loops: vec![Loop::range(4)],
            statements: vec![],
        }));
        cs.push(counters(name));
    }
    (
        ScfProgram {
            name: "test".into(),
            arrays: vec![],
            ops,
        },
        cs,
    )
}

/// 100%-stuck writes: the guard must exhaust its retries, record the
/// kernel as unverified, release the cap (run at governor max, like the
/// stock driver), and fall back for the rest of the program.
#[test]
fn stuck_writes_exhaust_retries_then_fall_back() {
    let plat = Platform::broadwell();
    let plan = FaultPlan::stuck_writes(7, 1.0, 4);
    let eng = ExecutionEngine::noiseless(plat.clone()).with_fault_plan(plan);
    let (scf, cs) = capped_program(&["a", "b"], 1600);
    let runtime = GuardedCapRuntime::new(&eng);
    let (run, report) = runtime.run_scf(&scf, &cs, &[]);

    assert!(report.fell_back, "stuck writes must trigger fallback");
    assert_eq!(report.fallback_kernel.as_deref(), Some("a"));
    let a = &report.records[0];
    assert_eq!(a.outcome, CapOutcome::Unverified);
    // Every attempt fails, so the kernel spends the guard's whole retry
    // budget (its private `MAX_RETRIES`).
    assert_eq!(a.retries, 3);
    assert!(
        (a.applied_ghz - plat.uncore_max_ghz).abs() < 1e-9,
        "unverified cap must be released to governor max, ran at {}",
        a.applied_ghz
    );
    // Everything after the hard fault runs degraded, at max.
    let b = &report.records[1];
    assert_eq!(b.outcome, CapOutcome::Degraded);
    assert!((b.applied_ghz - plat.uncore_max_ghz).abs() < 1e-9);
    assert!(report.backoff_s > 0.0, "retries must charge backoff time");

    // The summary threaded through RunResult matches the report.
    let summary = run.guard.expect("guarded runs carry a summary");
    assert!(summary.fell_back);
    assert_eq!(summary.retries, report.retries());
    assert_eq!(summary.unverified, 1);

    // Graceful degradation bound: the guarded run costs at most the stock
    // baseline plus the sunk retry overhead (both kernels ran at max).
    let stock = UfsDriver::stock().run_baseline(&eng, &cs);
    assert!(run.time_s >= stock.time_s);
    assert!(
        run.time_s <= stock.time_s + report.backoff_s + 4.0 * plat.cap_switch_us * 1e-6 + 1e-12,
        "degraded time {} vs stock {} exceeds the sunk-overhead bound",
        run.time_s,
        stock.time_s
    );
}

/// Wildly wrong static predictions trip the watchdog after `hysteresis`
/// consecutive strikes, and the remainder of the run degrades.
#[test]
fn misprediction_watchdog_degrades_after_hysteresis() {
    let plat = Platform::broadwell();
    let eng = ExecutionEngine::noiseless(plat.clone());
    let (scf, cs) = capped_program(&["a", "b", "c"], 1600);
    let runtime = GuardedCapRuntime::new(&eng);
    // Predictions 10x off in time: every kernel is a strike.
    let predictions: Vec<CapPrediction> = cs
        .iter()
        .map(|c| {
            let r = eng.run_kernel(c, 1.6);
            CapPrediction {
                f_ghz: 1.6,
                time_s: r.time_s * 10.0,
                energy_j: r.energy.total(),
            }
        })
        .collect();
    let (_, report) = runtime.run_scf(&scf, &cs, &predictions);
    assert!(report.fell_back);
    // Strikes on kernels 0 and 1 reach the default hysteresis of 2.
    assert_eq!(report.fallback_kernel.as_deref(), Some("b"));
    assert!(report.records[0].mispredicted);
    assert!(report.records[1].mispredicted);
    assert_eq!(report.records[2].outcome, CapOutcome::Degraded);
}

/// Accurate predictions keep the guard quiet: verified writes, no
/// strikes, no fallback.
#[test]
fn accurate_predictions_stay_verified() {
    let plat = Platform::broadwell();
    let eng = ExecutionEngine::noiseless(plat.clone());
    let (scf, cs) = capped_program(&["a", "b"], 1600);
    let predictions: Vec<CapPrediction> = cs
        .iter()
        .map(|c| {
            let r = eng.run_kernel(c, 1.6);
            CapPrediction {
                f_ghz: 1.6,
                time_s: r.time_s,
                energy_j: r.energy.total(),
            }
        })
        .collect();
    let (_, report) = GuardedCapRuntime::new(&eng).run_scf(&scf, &cs, &predictions);
    assert!(!report.fell_back);
    assert_eq!(report.records[0].outcome, CapOutcome::Verified);
    // Same cap twice: the second kernel inherits the ambient frequency.
    assert_eq!(report.records[1].outcome, CapOutcome::Inherited);
    assert_eq!(report.mispredictions(), 0);
}

/// Dropped writes are recovered by retry: a plan that drops some (but
/// not all) write attempts still ends verified, with retries > 0 and no
/// fallback — the scenario verify-after-write exists for.
#[test]
fn dropped_writes_recover_via_retry() {
    let plat = Platform::broadwell();
    // Heavy but not total drop probability; with 1 + max_retries
    // attempts per write and many seeds, recovery is overwhelmingly
    // likely. Scan seeds for a deterministic one that exercises both a
    // drop and a recovery.
    let mut exercised = false;
    for seed in 0..64 {
        let plan = FaultPlan {
            seed,
            write_drop_prob: 0.6,
            ..FaultPlan::pristine()
        };
        let eng = ExecutionEngine::noiseless(plat.clone()).with_fault_plan(plan);
        let (scf, cs) = capped_program(&["a"], 1600);
        let (_, report) = GuardedCapRuntime::new(&eng).run_scf(&scf, &cs, &[]);
        if report.retries() > 0 && !report.fell_back {
            assert_eq!(report.records[0].outcome, CapOutcome::VerifiedAfterRetry);
            assert!((report.records[0].applied_ghz - 1.6).abs() < 1e-9);
            exercised = true;
            break;
        }
    }
    assert!(
        exercised,
        "no seed in 0..64 produced a drop-then-recover trace"
    );
}
