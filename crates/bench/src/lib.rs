//! Shared helpers for the `repro` views and the other harness binaries:
//! end-to-end workload evaluation (compile with PolyUFC, "run" on the
//! machine model, compare against the stock UFS driver baseline) and
//! small table/stat utilities.

#![warn(missing_docs)]

use polyufc::{Boundedness, Error, Pipeline, PipelineOutput};
use polyufc_ir::affine::AffineProgram;
use polyufc_machine::{
    ExecutionEngine, GuardReport, GuardedCapRuntime, KernelCounters, RunResult, UfsDriver,
};
use polyufc_workloads::PolybenchSize;

/// The outcome of evaluating one workload on one platform.
#[derive(Debug)]
pub struct Eval {
    /// Workload name.
    pub name: String,
    /// Platform name.
    pub platform: String,
    /// Pipeline output (characterizations, caps, compile report, ...).
    pub out: PipelineOutput,
    /// Per-kernel machine counters (the PAPI stand-in).
    pub counters: Vec<KernelCounters>,
    /// Run with PolyUFC's caps (deployable: includes cap-switch
    /// overheads; short kernels inherit the ambient frequency per the
    /// switch guard).
    pub capped: RunResult,
    /// Steady-state run: every kernel at its searched cap with switch
    /// overheads amortized away — the paper's regime, where kernels run
    /// for seconds and the ~20-35 µs switches vanish.
    pub steady: RunResult,
    /// Caps chosen without the switch guard (the steady-state plan).
    pub steady_caps_ghz: Vec<f64>,
    /// Run under the stock UFS driver.
    pub baseline: RunResult,
    /// The guard's decisions when the capped run went through a
    /// `GuardedCapRuntime` ([`evaluate_guarded`] with `guard`); `None` for
    /// unguarded runs.
    pub guard: Option<GuardReport>,
}

impl Eval {
    /// Program-level class: CB iff the flop-weighted majority of kernels
    /// is CB.
    pub fn class(&self) -> Boundedness {
        let (mut cb, mut bb) = (0.0, 0.0);
        for (ch, st) in self.out.characterizations.iter().zip(&self.out.cache_stats) {
            match ch.class {
                Boundedness::ComputeBound => cb += st.flops,
                Boundedness::BandwidthBound => bb += st.flops,
            }
        }
        if cb >= bb {
            Boundedness::ComputeBound
        } else {
            Boundedness::BandwidthBound
        }
    }

    /// Static OI over the whole program (Σ Ω / Σ Q).
    pub fn static_oi(&self) -> f64 {
        let omega: f64 = self.out.cache_stats.iter().map(|s| s.flops).sum();
        let q: f64 = self.out.cache_stats.iter().map(|s| s.q_dram_bytes).sum();
        if q > 0.0 {
            omega / q
        } else {
            f64::INFINITY
        }
    }

    /// Measured OI from the machine counters.
    pub fn measured_oi(&self) -> f64 {
        let omega: f64 = self.counters.iter().map(|c| c.flops as f64).sum();
        let q: f64 = self
            .counters
            .iter()
            .map(|c| (c.dram_fills * c.line_bytes) as f64)
            .sum();
        if q > 0.0 {
            omega / q
        } else {
            f64::INFINITY
        }
    }

    /// Relative EDP improvement (positive = better).
    pub fn edp_improvement(&self) -> f64 {
        1.0 - self.capped.edp() / self.baseline.edp()
    }

    /// Steady-state EDP improvement (switch overheads amortized).
    pub fn steady_edp_improvement(&self) -> f64 {
        1.0 - self.steady.edp() / self.baseline.edp()
    }

    /// Steady-state time improvement.
    pub fn steady_time_improvement(&self) -> f64 {
        1.0 - self.steady.time_s / self.baseline.time_s
    }

    /// Steady-state energy improvement.
    pub fn steady_energy_improvement(&self) -> f64 {
        1.0 - self.steady.energy.total() / self.baseline.energy.total()
    }
}

/// Compiles and "runs" one affine program on one platform, with and
/// without PolyUFC caps.
///
/// # Errors
///
/// Propagates pipeline analysis failures.
pub fn evaluate(
    pipe: &Pipeline,
    engine: &ExecutionEngine,
    program: &AffineProgram,
    name: &str,
) -> Result<Eval, Error> {
    evaluate_guarded(pipe, engine, program, name, false)
}

/// [`evaluate`], optionally routing the capped run through a
/// [`GuardedCapRuntime`] fed with the pipeline's static `T`/`E`
/// predictions. With `guard` off this is exactly the historical
/// evaluation (byte-identical results); with it on, `Eval::capped`
/// carries the guarded run and `Eval::guard` the full decision report.
///
/// # Errors
///
/// Propagates pipeline analysis failures.
pub fn evaluate_guarded(
    pipe: &Pipeline,
    engine: &ExecutionEngine,
    program: &AffineProgram,
    name: &str,
    guard: bool,
) -> Result<Eval, Error> {
    let out = pipe.compile_affine(program)?;
    // Kernel counters come from independent trace simulations;
    // `measure_program` fans them out across cores (input-ordered) and
    // applies the engine's fault plan (pristine by default).
    let counters: Vec<KernelCounters> = engine.measure_program(&out.optimized);
    let (capped, guard_report) = if guard {
        let predictions = pipe.cap_predictions(&out);
        let runtime = GuardedCapRuntime::new(engine);
        let (r, report) = runtime.run_scf(&out.scf, &counters, &predictions);
        (r, Some(report))
    } else {
        (engine.run_scf(&out.scf, &counters), None)
    };
    let baseline = UfsDriver::stock().run_baseline(engine, &counters);
    // Steady state: caps without the switch guard, no switch costs. With
    // the guard disabled the pipeline's cap loop always takes the searched
    // frequency verbatim (fallback kernels already carry the max-frequency
    // reset in their search result), so the steady plan is exactly the
    // per-kernel search outcome — no second `compile_affine` needed.
    let steady_caps_ghz: Vec<f64> = out.search.iter().map(|r| r.f_ghz).collect();
    let mut time = 0.0;
    let mut energy = polyufc_machine::EnergyBreakdown::default();
    let mut weighted_f = 0.0;
    for (c, &f) in counters.iter().zip(&steady_caps_ghz) {
        let r = engine.run_kernel(c, f);
        time += r.time_s;
        energy = energy.add(&r.energy);
        weighted_f += f * r.time_s;
    }
    let steady = RunResult {
        time_s: time,
        energy,
        avg_power_w: energy.total() / time.max(1e-12),
        uncore_ghz: if time > 0.0 { weighted_f / time } else { 0.0 },
        guard: None,
    };
    Ok(Eval {
        name: name.to_string(),
        platform: engine.platform.name.clone(),
        out,
        counters,
        capped,
        steady,
        steady_caps_ghz,
        baseline,
        guard: guard_report,
    })
}

/// Geometric mean of strictly positive values (non-positive entries are
/// clamped to a small epsilon, matching common benchmarking practice for
/// "geomean improvement" over ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Reads the size preset from argv: either positional (`table4_compile_time
/// large`) or via the `--size` flag (`--size large`, `--size=large`).
/// Accepted presets are `mini`, `small`, `large`, `xl` (alias
/// `extralarge`); no argument defaults to large — the evaluation setting.
/// An unrecognized preset is a hard error listing the supported sizes,
/// rather than a silent fall-through to large.
///
/// Other `--flag value` pairs are skipped, so binaries may parse
/// additional flags from the same argv.
pub fn size_from_args() -> PolybenchSize {
    let mut args = std::env::args().skip(1);
    let mut spelled: Option<String> = None;
    while let Some(a) = args.next() {
        if a == "--size" {
            spelled = args.next();
            break;
        } else if let Some(v) = a.strip_prefix("--size=") {
            spelled = Some(v.to_string());
            break;
        } else if a.starts_with("--") {
            // Another binary-specific flag; skip it and its value.
            if !a.contains('=') {
                args.next();
            }
        } else {
            spelled = Some(a);
            break;
        }
    }
    match spelled.as_deref() {
        None => PolybenchSize::Large,
        Some(s) => s.parse().unwrap_or_else(|()| {
            eprintln!("unknown size '{s}' (expected mini|small|large|xl|extralarge)");
            std::process::exit(2);
        }),
    }
}

/// Reports the process-wide measured-counter cache statistics on stderr
/// (stderr so the figure tables on stdout stay byte-identical across
/// runs: the hit/miss split can vary with parallel scheduling when two
/// workers race to measure the same point).
pub fn report_measure_cache() {
    let st = polyufc_machine::measure_cache_stats();
    eprintln!(
        "[measure-cache] {} hits / {} misses ({:.0}% hit rate, {} entries, {} clears)",
        st.hits,
        st.misses,
        st.hit_rate() * 100.0,
        st.len,
        st.evictions
    );
}

/// Renders a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_machine::Platform;
    use polyufc_workloads::polybench;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn evaluate_small_gemm() {
        let plat = Platform::broadwell();
        let pipe = Pipeline::new(plat.clone());
        let eng = ExecutionEngine::noiseless(plat);
        let e = evaluate(&pipe, &eng, &polybench::gemm(96), "gemm").unwrap();
        assert_eq!(e.class(), Boundedness::ComputeBound);
        assert!(e.static_oi() > 1.0);
        assert!(e.capped.time_s > 0.0 && e.baseline.time_s > 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.123), "+12.3%");
        assert_eq!(pct(-0.05), "-5.0%");
    }
}
