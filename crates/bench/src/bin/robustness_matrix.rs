//! Robustness matrix: seeded fault scenarios × {unguarded, guarded}
//! capped runs, each compared against the stock UFS driver under the
//! *same* faults. The table quantifies the guarded runtime's contract:
//! under injected counter noise, dropped/stuck cap writes, thermal
//! throttling, and flaky measurement reads, guarded EDP stays within a
//! small bound of the stock governor (graceful degradation), while the
//! unguarded run can be arbitrarily hurt by a cap that never landed.
//!
//! Usage: `robustness_matrix [mini|small|large|xl]` (seeds are fixed at
//! 42, so the table is reproducible run-to-run).

use polyufc::Pipeline;
use polyufc_bench::{pct, print_table, size_from_args};
use polyufc_machine::{ExecutionEngine, FaultPlan, GuardedCapRuntime, Platform, UfsDriver};
use polyufc_workloads::ml::sdpa_bert;
use polyufc_workloads::polybench;

/// The standard scenario set (all seeded at 42): a clean control row and
/// one scenario per fault class, plus the combined standard matrix. The
/// third field is the enforced guarded-EDP bound vs stock (as a ratio):
///
/// * recoverable scenarios (clean/noise/standard/thermal) get the tight
///   10% degradation bound — retries recover dropped writes, so the
///   guard should track (or beat) the stock driver;
/// * `stuck` (100% stuck writes) is unrecoverable by construction: every
///   capped kernel pays the full retry + release overhead before running
///   at stock frequency. On this harness's millisecond-scale kernels
///   that overhead is a visible fraction (bounded at 25%); the paper's
///   seconds-scale kernels amortize it below 0.1%;
/// * `flaky` is informational only (`None`): a timed-out measurement
///   stalls the *observed* wall-clock itself, and the stall hits stock
///   and capped runs at different frequency points, so their EDPs are
///   incomparable by construction, not by any fault of the guard.
const SCENARIOS: &[(&str, &str, Option<f64>)] = &[
    ("clean", "pristine", Some(1.10)),
    ("noise", "seed=42,noise=0.05,outlier=0.02", Some(1.10)),
    ("standard", "standard,seed=42", Some(1.10)),
    ("stuck", "stuck,seed=42", Some(1.25)),
    ("thermal", "thermal,seed=42", Some(1.10)),
    ("flaky", "flaky,seed=42", None),
];

fn main() {
    let size = size_from_args();
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());

    let sdpa = sdpa_bert().affine();
    let programs = vec![
        ("gemm (CB)", polybench::gemm(size.n3())),
        ("mvt (BB)", polybench::mvt(size.n2())),
        ("sdpa-bert (phases)", sdpa),
    ];

    println!("# Robustness matrix on {} (seed 42)", plat.name);
    println!("(EDP ratios vs the stock driver under the same fault plan; guarded");
    println!(" should stay near the stock bound even when the unguarded run drifts)");

    // Compile once per workload — the static plan does not depend on the
    // fault scenario; only measurement and execution do.
    let compiled = polyufc_par::par_map(&programs, |(_, program)| pipe.compile_affine(program));
    let mut prepared = Vec::new();
    for ((name, _), result) in programs.iter().zip(compiled) {
        match result {
            Ok(out) => {
                let predictions = pipe.cap_predictions(&out);
                prepared.push((*name, out, predictions));
            }
            Err(e) => eprintln!("skipping {name}: {e}"),
        }
    }

    let mut rows = Vec::new();
    let mut worst_margin = f64::NEG_INFINITY;
    let mut violations = Vec::new();
    let mut fallbacks = 0usize;
    for (scenario, spec, bound) in SCENARIOS {
        let plan = FaultPlan::parse_spec(spec).expect("scenario spec must parse");
        let eng = ExecutionEngine::new(plat.clone()).with_fault_plan(plan);
        for (name, out, predictions) in &prepared {
            let counters = eng.measure_program(&out.optimized);
            let stock = UfsDriver::stock().run_baseline(&eng, &counters);
            let unguarded = eng.run_scf(&out.scf, &counters);
            let (guarded, report) =
                GuardedCapRuntime::new(&eng).run_scf(&out.scf, &counters, predictions);
            let g_ratio = guarded.edp() / stock.edp();
            if let Some(b) = bound {
                worst_margin = worst_margin.max(g_ratio - b);
                if g_ratio > *b {
                    violations.push(format!(
                        "{scenario}/{name}: guarded {:.1}% over stock (bound {:.0}%)",
                        (g_ratio - 1.0) * 100.0,
                        (b - 1.0) * 100.0
                    ));
                }
            }
            if report.fell_back {
                fallbacks += 1;
            }
            rows.push(vec![
                scenario.to_string(),
                name.to_string(),
                format!("{:.3e}", stock.edp()),
                pct(1.0 - unguarded.edp() / stock.edp()),
                pct(1.0 - g_ratio),
                format!(
                    "{}r/{}t{}",
                    report.retries(),
                    report.timeouts(),
                    if report.fell_back { " FALLBACK" } else { "" }
                ),
            ]);
        }
    }
    print_table(
        &[
            "scenario",
            "workload",
            "stock EDP",
            "ΔEDP unguarded",
            "ΔEDP guarded",
            "guard activity",
        ],
        &rows,
    );
    if violations.is_empty() {
        println!(
            "\nall bounded scenarios within their degradation bound (worst margin {:+.1}pp)",
            worst_margin * 100.0
        );
    } else {
        println!("\nDEGRADATION BOUND VIOLATIONS:");
        for v in &violations {
            println!("  {v}");
        }
    }
    println!("(bounds: 10% for recoverable scenarios, 25% retry-overhead bound for");
    println!(" 100%-stuck writes on these millisecond kernels; flaky is informational —");
    println!(" a timed-out read stalls the observed wall-clock itself, so stock and");
    println!(" capped EDPs are incomparable there)");
    println!("guard fallbacks across the matrix: {fallbacks}");
    polyufc_bench::report_measure_cache();
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
