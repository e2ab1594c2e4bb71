//! The repository's benchmark: five seeded workloads over compile, serve
//! and evaluate, bounded end-to-end metrics, and a traced per-layer
//! ledger. See `README.md` next to this package.
//!
//! ```text
//! polyufc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! polyufc-benchmark run    [--seed <n>] [--seconds <s>] [--trace]
//! polyufc-benchmark repeat [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, the result object the benchmark contract asks for. `run`
//! starts one such process per workload, so peak memory is per workload;
//! `repeat` does that twice and compares the two sets.

mod affinity;
mod batch;
mod corpus;
mod replay;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use polyufc_serve::json::{self, Value};

use report::Outcome;
use spec::{
    Better, MetricSpec, Spec, Workload, CORES_NEEDED, DEFAULT_SECONDS, DEFAULT_SEED, PAR_THREADS,
    UNTRACED_BUDGET_S,
};

/// Where the traced pass writes its span files.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_workload(workload: Workload, args: &Args, spec: &Spec) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < CORES_NEEDED {
        eprintln!(
            "refusing to run: generator and reactor need a core and the compile worker \
             another, and there is {cores}; sharing one would measure the scheduler"
        );
        return ExitCode::from(2);
    }
    polyufc_par::set_worker_override(Some(PAR_THREADS));
    report::fix_malloc_mmap_threshold();

    let batch = match workload {
        Workload::CompileCold => Some(batch::Batch::Compile),
        Workload::EvaluateSim => Some(batch::Batch::Evaluate),
        _ => None,
    };
    let mut out = Outcome::default();
    let specs = if args.trace {
        let rec = match batch {
            Some(kind) => batch::run_traced(kind, args.seed, &mut out),
            None => serve::run_traced(workload, args.seed, args.seconds, &mut out),
        };
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, rec.to_json(workload.name(), args.seed)));
        match written {
            Ok(()) => println!("  wrote {path} ({} spans)", rec.spans.len()),
            Err(e) => out.fail(|| format!("writing {path}: {e}")),
        }
        &spec.per_layer
    } else {
        match batch {
            Some(kind) => batch::run(kind, args.seed, args.seconds, &mut out),
            None => serve::run(workload, args.seed, args.seconds, &mut out),
        }
        &spec.end_to_end
    };
    out.print(workload.name(), specs);
    println!("{}", out.detail_line(specs));
    println!("{}", out.result_line(specs));
    ExitCode::SUCCESS
}

/// What the parent keeps of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
    spreads: Vec<f64>,
}

/// Runs one workload in a child process and parses its last two lines.
fn run_child(
    workload: Workload,
    args: &Args,
    trace: bool,
    specs: &[MetricSpec],
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or("no output")?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("detail: "))
        .ok_or("no detail line")?;
    for l in lines {
        println!("{l}");
    }
    let result = json::parse(result).map_err(|e| format!("result line: {e}"))?;
    let detail = json::parse(detail).map_err(|e| format!("detail line: {e}"))?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    Ok(ChildResult {
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: num(result.get("attempted")) as u64,
        failed: num(result.get("failed")) as u64,
        values: specs
            .iter()
            .map(|m| {
                num(result
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name)?.get("value")))
            })
            .collect(),
        spreads: specs.iter().map(|m| num(detail.get(&m.name))).collect(),
    })
}

/// One pass over every workload, each in its own process. Returns the
/// results, or `None` when a workload failed a check.
fn run_all(args: &Args, trace: bool, specs: &[MetricSpec]) -> Option<Vec<ChildResult>> {
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        match run_child(w, args, trace, specs) {
            Ok(r) => {
                if !r.correct {
                    eprintln!(
                        "{}: {} of {} operations failed their check (failed_share {:.6})",
                        w.name(),
                        r.failed,
                        r.attempted,
                        r.failed as f64 / r.attempted.max(1) as f64
                    );
                    ok = false;
                }
                results.push(r);
            }
            Err(e) => {
                eprintln!("{e}");
                return None;
            }
        }
    }
    ok.then_some(results)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(m: &MetricSpec, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// `repeat`: the full untraced set twice, back to back, compared metric
/// by metric against the benchmark's own bounds.
fn repeat(args: &Args, spec: &Spec) -> ExitCode {
    let specs = &spec.end_to_end;
    let (Some(first), Some(second)) = (run_all(args, false, specs), run_all(args, false, specs))
    else {
        return ExitCode::FAILURE;
    };
    println!(
        "\n{:<22} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut disagree = false;
    for (w, (a, b)) in Workload::ALL.iter().zip(first.iter().zip(&second)) {
        for (i, m) in specs.iter().enumerate() {
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(m, a.values[i], b.values[i]).abs();
            // A difference beyond the bound is a disagreement only when
            // the rounds inside each run were steadier than the bound;
            // otherwise the benchmark cannot resolve it either way.
            let verdict = if worse <= bound {
                "agree"
            } else if a.spreads[i].max(b.spreads[i]) > bound {
                "unresolved"
            } else {
                disagree = true;
                "DISAGREE"
            };
            println!(
                "{:<22} {:<20} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}%  {verdict}",
                w.name(),
                m.name,
                a.values[i],
                b.values[i],
                worsening(m, a.values[i], b.values[i]) * 100.0,
                bound * 100.0
            );
        }
    }
    if disagree {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => match Workload::parse(name) {
            Some(w) => run_workload(w, &args, &spec),
            None => {
                eprintln!("unknown workload `{name}`");
                ExitCode::from(2)
            }
        },
        (Some("run"), None) => {
            let t = std::time::Instant::now();
            let mut ok = run_all(&args, false, &spec.end_to_end).is_some();
            println!(
                "untraced pass: {:.1} s (budget {UNTRACED_BUDGET_S} s on 2 cores)",
                t.elapsed().as_secs_f64()
            );
            if args.trace {
                ok &= run_all(&args, true, &spec.per_layer).is_some();
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Some("repeat"), None) => repeat(&args, &spec),
        _ => {
            eprintln!(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run [--trace] | repeat"
            );
            ExitCode::from(2)
        }
    }
}
