//! `polyufc` — the command-line compiler driver.
//!
//! ```text
//! polyufc compile <file.c> [--platform bdw|rpl] [--objective edp|energy|perf]
//!                          [--epsilon 1e-3] [--assoc set|full] [--emit scf|affine|openscop]
//! polyufc run     <file.c> [--platform ...] [--objective ...]   # compile + simulate vs baseline
//! polyufc bench   <name>   [--platform ...]                     # built-in workload by name
//! polyufc list                                                  # built-in workloads
//! ```

use std::process::ExitCode;

use polyufc::{Objective, Pipeline, PipelineOutput};
use polyufc_analysis::{AnalysisReport, Analyzer, Diagnostic, Location, ModelCounts, Severity};
use polyufc_cache::{AssocMode, CacheModel};
use polyufc_cgeist::parse_scop;
use polyufc_ir::affine::AffineProgram;
use polyufc_machine::{ExecutionEngine, FaultPlan, GuardedCapRuntime, Platform, UfsDriver};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  polyufc compile <file.c|file.mlir> [--platform bdw|rpl] [--objective edp|energy|perf]
                           [--epsilon <float>] [--assoc set|full]
                           [--emit scf|affine|openscop] [--json]
  polyufc run     <file.c> [options]      compile, then simulate vs the UFS baseline
  polyufc bench   <name>   [options]      run a built-in workload (see `polyufc list`)
  polyufc lint    <file.c|file.mlir> [--json]
  polyufc lint    --workloads [--size mini|small|large|xl] [--json]
                                          static verifier: races, bounds, IR,
                                          model audit; exit 0/1/2 = clean/warn/error
  polyufc lint    --self [--json]         concurrency self-lint over the daemon's
                                          own (compiled-in) sources: signal
                                          safety, EINTR restarts, reactor
                                          blocking, lockdep adoption
  polyufc serve   [--listen <addr>] [--unix <path>] [--threads N]
                  [--queue N] [--cache-cap N] [--max-conns N]
                  [--deadline-ms N] [--quarantine N] [--chaos <spec>]
                                          compile-and-cap daemon (NDJSON,
                                          pipelined requests, one per line;
                                          SIGTERM drains; --max-conns caps
                                          connections (default 1024);
                                          --deadline-ms bounds each compile
                                          (default: none) with a watchdog
                                          that aborts + replaces stalled
                                          workers; --quarantine N poisons
                                          kernels after N failures; --chaos
                                          injects seeded faults, e.g.
                                          `standard,seed=7`)
  polyufc stats   [--connect <addr>] [--unix <path>] [--json]
                                          query a running daemon's cache/pool
                                          counters and latency percentiles
  polyufc list                            list built-in workloads

global options:
  --threads <n>         worker threads for parallel passes and the daemon
                        pool (default: POLYUFC_THREADS or all cores; every
                        other serve setting is a flag only, with no
                        environment variable)

simulation options (run/bench):
  --fault-plan <spec>   inject faults: a preset (standard|stuck|thermal|flaky)
                        and/or key=value overrides, e.g. `standard,seed=7`
  --guard on|off        route cap application through the guarded runtime
                        (verify-after-write, retry, misprediction fallback)";

struct Options {
    platform: Platform,
    objective: Objective,
    epsilon: f64,
    assoc: AssocMode,
    emit: String,
    fault: FaultPlan,
    guard: bool,
    json: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        platform: Platform::broadwell(),
        objective: Objective::Edp,
        epsilon: 1e-3,
        assoc: AssocMode::SetAssociative,
        emit: "scf".into(),
        fault: FaultPlan::pristine(),
        guard: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--platform" => {
                let name = value("--platform")?;
                o.platform = name
                    .parse()
                    .map_err(|()| format!("unknown platform `{name}` (bdw|rpl)"))?;
            }
            "--objective" => {
                o.objective = match value("--objective")?.as_str() {
                    "edp" => Objective::Edp,
                    "energy" => Objective::Energy,
                    "perf" | "performance" => Objective::Performance,
                    other => return Err(format!("unknown objective `{other}`")),
                }
            }
            "--epsilon" => {
                o.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|_| "epsilon must be a float".to_string())?;
            }
            "--assoc" => {
                o.assoc = match value("--assoc")?.as_str() {
                    "set" => AssocMode::SetAssociative,
                    "full" => AssocMode::FullyAssociative,
                    other => return Err(format!("unknown assoc mode `{other}` (set|full)")),
                }
            }
            "--emit" => {
                let v = value("--emit")?;
                if !["scf", "affine", "openscop"].contains(&v.as_str()) {
                    return Err(format!("unknown emit kind `{v}`"));
                }
                o.emit = v;
            }
            "--fault-plan" => {
                o.fault = FaultPlan::parse_spec(&value("--fault-plan")?)?;
            }
            "--guard" => {
                o.guard = match value("--guard")?.as_str() {
                    "on" | "1" | "true" => true,
                    "off" | "0" | "false" => false,
                    other => return Err(format!("--guard: expected on|off, got `{other}`")),
                }
            }
            "--threads" => {
                polyufc_par::set_worker_override(Some(parse_threads(&value("--threads")?)?))
            }
            "--json" => o.json = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

fn run(args: &[String]) -> Result<u8, String> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    match cmd.as_str() {
        "list" => {
            println!("PolyBench (use `polyufc bench <name>`):");
            for w in polybench_suite(PolybenchSize::Small) {
                println!("  {:<16} [{}]", w.name, w.category);
            }
            println!("ML kernels:");
            for w in ml_suite() {
                println!("  {:<20} [{} / {}]", w.name, w.source, w.domain);
            }
            Ok(0)
        }
        "compile" | "run" => {
            let path = args.get(1).ok_or("missing input file")?;
            let opts = parse_options(&args[2..])?;
            if cmd == "compile" && opts.json {
                // One-shot artifact through the exact serve render path:
                // the printed line is byte-identical to the daemon's
                // response for the same request (cached or not).
                println!(
                    "{}",
                    polyufc_serve::oneshot_response(&wire_request(path, &opts)?)
                );
                return Ok(0);
            }
            let mut program = parse_input_file(path)?;
            // Parsed inputs carry unverified `parallel` markers; downgrade
            // any the race detector cannot prove before compiling.
            for d in polyufc_analysis::sanitize_parallel(&mut program) {
                eprintln!("{d}");
            }
            let out = compile(&program, &opts)?;
            report(&program, &out, &opts);
            if cmd == "run" {
                simulate(&out, &opts);
            }
            Ok(0)
        }
        "bench" => {
            let name = args.get(1).ok_or("missing workload name")?;
            let opts = parse_options(&args[2..])?;
            let program = find_workload(name)
                .ok_or_else(|| format!("unknown workload `{name}` (try `polyufc list`)"))?;
            let out = compile(&program, &opts)?;
            report(&program, &out, &opts);
            simulate(&out, &opts);
            Ok(0)
        }
        "lint" => lint(&args[1..]),
        "serve" => serve(&args[1..]),
        "stats" => stats(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--threads: expected a positive integer, got `{v}`")),
    }
}

/// Builds the wire-level compile request the serve protocol would carry
/// for this file + options, so `compile --json` and the daemon share one
/// code path end to end.
fn wire_request(path: &str, opts: &Options) -> Result<polyufc_serve::CompileRequest, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".c")
        .trim_end_matches(".mlir")
        .to_string();
    let format = if path.ends_with(".mlir") {
        polyufc_serve::SourceFormat::TextualIr
    } else {
        polyufc_serve::SourceFormat::C
    };
    if opts.json && !["scf", "affine"].contains(&opts.emit.as_str()) {
        return Err(format!(
            "--json supports --emit scf|affine, not `{}`",
            opts.emit
        ));
    }
    Ok(polyufc_serve::CompileRequest {
        format,
        source,
        name,
        opts: polyufc_serve::CompileOptions {
            platform: opts.platform.clone(),
            objective: opts.objective,
            epsilon: opts.epsilon,
            assoc: opts.assoc,
            emit_scf: opts.emit == "scf",
        },
    })
}

/// `polyufc serve`: run the compile-and-cap daemon until SIGINT/SIGTERM
/// or a `shutdown` request.
fn serve(args: &[String]) -> Result<u8, String> {
    let mut listen = polyufc_serve::Listen::Tcp("127.0.0.1:7077".to_string());
    let mut queue: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut max_conns: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut quarantine: Option<u32> = None;
    let mut chaos: Option<polyufc_serve::ChaosPlan> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--listen" => listen = polyufc_serve::Listen::Tcp(value("--listen")?),
            #[cfg(unix)]
            "--unix" => listen = polyufc_serve::Listen::Unix(value("--unix")?.into()),
            "--threads" => {
                polyufc_par::set_worker_override(Some(parse_threads(&value("--threads")?)?))
            }
            "--queue" => {
                queue = Some(
                    value("--queue")?
                        .parse()
                        .map_err(|_| "--queue: expected an integer".to_string())?,
                )
            }
            "--cache-cap" => {
                cache_cap = Some(
                    value("--cache-cap")?
                        .parse()
                        .map_err(|_| "--cache-cap: expected an integer".to_string())?,
                )
            }
            "--max-conns" => {
                max_conns = Some(
                    value("--max-conns")?
                        .parse()
                        .map_err(|_| "--max-conns: expected an integer".to_string())?,
                )
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms: expected an integer".to_string())?;
                deadline_ms = Some(ms);
            }
            "--quarantine" => {
                quarantine = Some(
                    value("--quarantine")?
                        .parse()
                        .map_err(|_| "--quarantine: expected an integer".to_string())?,
                )
            }
            "--chaos" => {
                chaos = Some(
                    polyufc_serve::ChaosPlan::parse_spec(&value("--chaos")?)
                        .map_err(|e| format!("--chaos: {e}"))?,
                )
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    let mut engine = polyufc_serve::EngineConfig::default();
    if let Some(q) = queue {
        engine.queue_cap = q.max(1);
    }
    if let Some(c) = cache_cap {
        engine.cache_capacity = c.max(1);
    }
    if let Some(ms) = deadline_ms {
        // `--deadline-ms 0` means no deadline, the default.
        engine.deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(q) = quarantine {
        engine.quarantine_threshold = q;
    }
    if let Some(plan) = chaos {
        if !plan.is_pristine() {
            eprintln!("polyufc serve: CHAOS ACTIVE ({})", plan.spec_string());
        }
        engine.chaos = plan;
    }
    polyufc_serve::install_signal_handlers();
    let mut server = polyufc_serve::Server::bind(&polyufc_serve::ServerConfig {
        listen: listen.clone(),
        engine: engine.clone(),
    })
    .map_err(|e| format!("bind: {e}"))?;
    if let Some(n) = max_conns {
        server.set_max_conns(n.max(1));
    }
    match (&listen, server.local_addr()) {
        (_, Some(addr)) => eprintln!(
            "polyufc serve: listening on {addr} ({} workers, queue {})",
            engine.workers, engine.queue_cap
        ),
        #[cfg(unix)]
        (polyufc_serve::Listen::Unix(p), None) => eprintln!(
            "polyufc serve: listening on {} ({} workers, queue {})",
            p.display(),
            engine.workers,
            engine.queue_cap
        ),
        _ => {}
    }
    server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!("polyufc serve: drained, shutting down");
    Ok(0)
}

/// `polyufc stats`: query a running daemon and pretty-print its counters.
fn stats(args: &[String]) -> Result<u8, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut connect = "127.0.0.1:7077".to_string();
    let mut unix: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--connect" => connect = it.next().cloned().ok_or("missing value for --connect")?,
            "--unix" => unix = Some(it.next().cloned().ok_or("missing value for --unix")?),
            other => return Err(format!("unknown stats option `{other}`")),
        }
    }
    let line = {
        let fetch = |mut stream: Box<dyn ReadWrite>| -> Result<String, String> {
            stream
                .write_all(b"{\"op\":\"stats\"}\n")
                .map_err(|e| format!("send: {e}"))?;
            let mut line = String::new();
            BufReader::new(stream)
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            Ok(line.trim().to_string())
        };
        match &unix {
            #[cfg(unix)]
            Some(path) => fetch(Box::new(
                std::os::unix::net::UnixStream::connect(path)
                    .map_err(|e| format!("connect `{path}`: {e}"))?,
            ))?,
            #[cfg(not(unix))]
            Some(_) => return Err("--unix is not supported on this platform".into()),
            None => fetch(Box::new(
                std::net::TcpStream::connect(&connect)
                    .map_err(|e| format!("connect `{connect}`: {e}"))?,
            ))?,
        }
    };
    if json {
        println!("{line}");
        return Ok(0);
    }
    print_stats(&line)
}

trait ReadWrite: std::io::Read + std::io::Write {}
impl<T: std::io::Read + std::io::Write> ReadWrite for T {}

fn print_stats(line: &str) -> Result<u8, String> {
    let v = polyufc_serve::json::parse(line).map_err(|e| format!("bad stats response: {e}"))?;
    if v.get("ok").and_then(|o| o.as_bool()) != Some(true) {
        return Err(format!("daemon returned an error: {line}"));
    }
    let n = |sect: &str, key: &str| -> f64 {
        v.get(sect)
            .and_then(|s| s.get(key))
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
    };
    let pct = |sect: &str| 100.0 * n(sect, "hit_rate");
    println!("== polyufc daemon stats ==");
    println!(
        "server:         workers {} | queue {} | requests {} | compiled {} | errors {} | shed {}",
        n("server", "workers"),
        n("server", "queue_capacity"),
        n("server", "requests"),
        n("server", "compiled"),
        n("server", "errors"),
        n("server", "shed"),
    );
    println!(
        "latency:        requests {} | p50 {} µs | p99 {} µs | max {} µs",
        n("latency", "count"),
        n("latency", "p50_us"),
        n("latency", "p99_us"),
        n("latency", "max_us"),
    );
    println!(
        "artifact cache: hits {} | misses {} | evictions {} | entries {} | inflight {} | hit rate {:.1}%",
        n("artifact_cache", "hits"),
        n("artifact_cache", "misses"),
        n("artifact_cache", "evictions"),
        n("artifact_cache", "entries"),
        n("artifact_cache", "inflight"),
        pct("artifact_cache"),
    );
    println!(
        "measure cache:  hits {} | misses {} | evictions {} | entries {} | hit rate {:.1}%",
        n("measure_cache", "hits"),
        n("measure_cache", "misses"),
        n("measure_cache", "evictions"),
        n("measure_cache", "entries"),
        pct("measure_cache"),
    );
    println!(
        "count cache:    hits {} | misses {} | symbolic {} | enumerated {} | evictions {} | parallel splits {}",
        n("count_cache", "hits"),
        n("count_cache", "misses"),
        n("count_cache", "symbolic"),
        n("count_cache", "enumerated"),
        n("count_cache", "evictions"),
        n("count_cache", "parallel_splits"),
    );
    println!(
        "self-heal:      deadline {} ms | deadlines fired {} | workers replaced {} | quarantined {} (total {}, hits {}) | chaos injections {}",
        n("self_heal", "deadline_ms"),
        n("self_heal", "deadlines"),
        n("self_heal", "workers_replaced"),
        n("self_heal", "quarantined"),
        n("self_heal", "quarantined_total"),
        n("self_heal", "quarantine_hits"),
        n("self_heal", "chaos_injections"),
    );
    // Only emitted by lockdep-instrumented daemons.
    if v.get("chk").is_some() {
        println!(
            "chk (lockdep):  lock sites {} | order edges {} | max chain {} | cycles {}",
            n("chk", "lock_sites"),
            n("chk", "order_edges"),
            n("chk", "max_chain"),
            n("chk", "cycles"),
        );
    }
    Ok(0)
}

fn parse_input_file(path: &str) -> Result<AffineProgram, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".c")
        .trim_end_matches(".mlir");
    if path.ends_with(".mlir") {
        polyufc_ir::textual::parse_affine_program(&src).map_err(|e| e.to_string())
    } else {
        parse_scop(&src, name).map_err(|e| e.to_string())
    }
}

/// `polyufc lint`: run the static verifier (IR checks, bounds, races and
/// the cache-model audit) over a file or the built-in workload suites.
/// Exit code is the maximum severity: 0 clean, 1 warnings, 2 errors.
fn lint(args: &[String]) -> Result<u8, String> {
    let mut json = false;
    let mut workloads = false;
    let mut self_lint = false;
    let mut size = PolybenchSize::Mini;
    let mut path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--workloads" => workloads = true,
            "--self" => self_lint = true,
            "--size" => {
                let name = it.next().map(String::as_str);
                size = name
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("--size: expected mini|small|large|xl, got {name:?}"))?;
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(a),
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }
    if self_lint {
        let report = polyufc_analysis::selflint::lint_sources(&self_lint_sources());
        emit_reports(std::slice::from_ref(&report), json);
        return Ok(match report.max_severity() {
            Some(Severity::Error) => 2,
            Some(Severity::Warning) => 1,
            _ => 0,
        });
    }
    let programs: Vec<AffineProgram> = if workloads {
        polybench_suite(size)
            .into_iter()
            .map(|w| w.program)
            .chain(ml_suite().into_iter().map(|w| w.affine()))
            .collect()
    } else {
        let path = path.ok_or("lint: missing input file (or pass --workloads)")?;
        match parse_input_file(path) {
            Ok(p) => vec![p],
            Err(e) => {
                // A program that does not parse is reported through the
                // same diagnostic channel as one that parses but is broken.
                let report = AnalysisReport {
                    program: path.clone(),
                    diagnostics: vec![Diagnostic {
                        pass: "ir-verify",
                        severity: Severity::Error,
                        location: Location::default(),
                        message: format!("parse error: {e}"),
                        witness: None,
                    }],
                    ..Default::default()
                };
                emit_reports(&[report], json);
                return Ok(2);
            }
        }
    };
    let reports: Vec<AnalysisReport> = programs.iter().map(lint_program).collect();
    emit_reports(&reports, json);
    let worst = reports
        .iter()
        .map(AnalysisReport::max_severity)
        .max()
        .flatten();
    Ok(match worst {
        Some(Severity::Error) => 2,
        Some(Severity::Warning) => 1,
        _ => 0,
    })
}

/// The daemon's concurrency-sensitive sources, embedded at build time
/// so `lint --self` lints exactly what this binary was built from, from
/// any working directory.
fn self_lint_sources() -> Vec<polyufc_analysis::selflint::SourceFile> {
    macro_rules! src {
        ($path:literal) => {
            polyufc_analysis::selflint::SourceFile::new(
                $path,
                include_str!(concat!("../../../", $path)),
            )
        };
    }
    vec![
        src!("crates/serve/src/lib.rs"),
        src!("crates/serve/src/server.rs"),
        src!("crates/serve/src/reactor.rs"),
        src!("crates/serve/src/engine.rs"),
        src!("crates/serve/src/shard.rs"),
        src!("crates/serve/src/protocol.rs"),
        src!("crates/serve/src/json.rs"),
        src!("crates/serve/src/chaos.rs"),
        src!("crates/par/src/lib.rs"),
        src!("crates/par/src/pool.rs"),
    ]
}

fn lint_program(program: &AffineProgram) -> AnalysisReport {
    // Model audit needs the cache model's counts; skip it (structural
    // passes still run) for programs the model itself rejects.
    let model = CacheModel::new(
        Platform::broadwell().hierarchy.clone(),
        AssocMode::SetAssociative,
    );
    let line_bytes = Platform::broadwell().hierarchy.line_bytes();
    match model.analyze_program(program) {
        Ok(stats) => {
            let counts: Vec<ModelCounts> = stats
                .iter()
                .map(|(name, s)| ModelCounts {
                    kernel: name.clone(),
                    total_accesses: s.total_accesses,
                    flops: s.flops,
                    cold_lines: s.cold_lines,
                })
                .collect();
            Analyzer::new().analyze_with_model(program, &counts, line_bytes)
        }
        Err(_) => Analyzer::new().analyze(program),
    }
}

fn emit_reports(reports: &[AnalysisReport], json: bool) {
    if json {
        let objs: Vec<String> = reports.iter().map(AnalysisReport::to_json).collect();
        println!("[{}]", objs.join(","));
    } else {
        for r in reports {
            print!("{}", r.render_text());
        }
    }
}

fn find_workload(name: &str) -> Option<AffineProgram> {
    if let Some(w) = polybench_suite(PolybenchSize::Small)
        .into_iter()
        .find(|w| w.name == name)
    {
        return Some(w.program);
    }
    ml_suite()
        .into_iter()
        .find(|w| w.name == name)
        .map(|w| w.affine())
}

fn pipeline_for(opts: &Options) -> Pipeline {
    let mut pipe = Pipeline::new(opts.platform.clone())
        .with_objective(opts.objective)
        .with_assoc_mode(opts.assoc);
    pipe.epsilon = opts.epsilon;
    pipe
}

fn compile(program: &AffineProgram, opts: &Options) -> Result<PipelineOutput, String> {
    pipeline_for(opts)
        .compile_affine(program)
        .map_err(|e| e.to_string())
}

fn report(program: &AffineProgram, out: &PipelineOutput, opts: &Options) {
    println!(
        "== PolyUFC: `{}` for {} (objective {:?}, ε = {}) ==",
        program.name, opts.platform.name, opts.objective, opts.epsilon
    );
    for ((ch, res), cap) in out
        .characterizations
        .iter()
        .zip(&out.search)
        .zip(&out.caps_ghz)
    {
        println!(
            "  {:<20} OI {:>9.3} FpB  {}  cap {:.1} GHz ({} evals)",
            ch.kernel, ch.oi, ch.class, cap, res.steps
        );
    }
    let r = &out.report;
    println!(
        "  compile: preprocess {} µs | pluto {} µs | polyufc-cm {} µs | steps 4-6 {} µs",
        r.preprocess_us, r.pluto_us, r.polyufc_cm_us, r.steps_4_6_us
    );
    if !r.fallback_kernels.is_empty() {
        println!(
            "  analysis fallback (cap reset to max): {:?}",
            r.fallback_kernels
        );
    }
    match opts.emit.as_str() {
        "affine" => println!("\n{}", out.optimized),
        "openscop" => println!("\n{}", polyufc_ir::openscop::emit_program(&out.optimized)),
        _ => println!("\n{}", out.scf),
    }
}

fn simulate(out: &PipelineOutput, opts: &Options) {
    let eng = ExecutionEngine::new(opts.platform.clone()).with_fault_plan(opts.fault.clone());
    let counters = eng.measure_program(&out.optimized);
    let (capped, guard_report) = if opts.guard {
        let predictions = pipeline_for(opts).cap_predictions(out);
        let (r, rep) = GuardedCapRuntime::new(&eng).run_scf(&out.scf, &counters, &predictions);
        (r, Some(rep))
    } else {
        (eng.run_scf(&out.scf, &counters), None)
    };
    let baseline = UfsDriver::stock().run_baseline(&eng, &counters);
    println!("== simulation vs stock UFS driver ==");
    println!(
        "  baseline: {:>10.4} ms  {:>9.4} J  EDP {:.4e}",
        baseline.time_s * 1e3,
        baseline.energy.total(),
        baseline.edp()
    );
    println!(
        "  capped  : {:>10.4} ms  {:>9.4} J  EDP {:.4e}",
        capped.time_s * 1e3,
        capped.energy.total(),
        capped.edp()
    );
    println!(
        "  Δtime {:+.2}%  Δenergy {:+.2}%  ΔEDP {:+.2}%",
        (1.0 - capped.time_s / baseline.time_s) * 100.0,
        (1.0 - capped.energy.total() / baseline.energy.total()) * 100.0,
        (1.0 - capped.edp() / baseline.edp()) * 100.0
    );
    if let Some(rep) = &guard_report {
        println!("== guard report ==");
        print!("{}", rep.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_defaults_and_overrides() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.platform.name, "BDW");
        let args: Vec<String> = [
            "--platform",
            "rpl",
            "--objective",
            "energy",
            "--epsilon",
            "0.01",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.platform.name, "RPL");
        assert_eq!(o.objective, Objective::Energy);
        assert!((o.epsilon - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bad_options_rejected() {
        for bad in [
            vec!["--platform".to_string(), "m1".to_string()],
            vec!["--objective".to_string()],
            vec!["--frobnicate".to_string()],
        ] {
            assert!(parse_options(&bad).is_err());
        }
    }

    #[test]
    fn builtin_workloads_resolve() {
        assert!(find_workload("gemm").is_some());
        assert!(find_workload("sdpa-bert").is_some());
        assert!(find_workload("nope").is_none());
    }

    #[test]
    fn list_and_compile_paths_work() {
        assert!(run(&["list".to_string()]).is_ok());
        assert!(run(&["bogus".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn lint_workloads_clean_at_mini_and_large() {
        for size in ["mini", "large"] {
            let args: Vec<String> = ["lint", "--workloads", "--size", size]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(run(&args).unwrap(), 0, "size {size}");
        }
    }

    #[test]
    fn lint_self_is_clean() {
        // The daemon's own sources must satisfy the concurrency self-lint
        // (exit 0: no errors, no warnings); regressions here mean a new
        // signal-unsafe call, unrestarted syscall, blocking reactor call,
        // or bare std lock slipped into the serving stack.
        let args: Vec<String> = ["lint", "--self"].iter().map(|s| s.to_string()).collect();
        assert_eq!(run(&args).unwrap(), 0);
    }

    #[test]
    fn lint_rejects_bad_options() {
        assert!(lint(&["--size".to_string(), "huge".to_string()]).is_err());
        assert!(lint(&["--frobnicate".to_string()]).is_err());
        assert!(lint(&[]).is_err());
    }

    #[test]
    fn lint_missing_file_reports_parse_diag_and_exits_2() {
        let args: Vec<String> = ["lint", "/nonexistent/x.mlir", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args).unwrap(), 2);
    }
}
