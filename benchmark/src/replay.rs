//! The `--trace` pass's layered replay: one input is pushed through the
//! layers' public entry points in pipeline order, each layer fed the
//! previous layer's output, with a span around every call.
//!
//! The stage order and the cap-switch guard mirror `Pipeline::
//! compile_affine_in`; callers assert that the replay's caps equal the
//! untraced path's on every input, so the trace is known to measure the
//! same program. A change to the pipeline that breaks that equality
//! fails the traced run, which is the signal to redefine this replay.

use polyufc::{
    characterize_kernel, insert_caps, remove_redundant_caps, search_cap, CapPlan,
    CharacterizedProgram, CompileReport, CompileSession, ParametricModel, Pipeline,
};
use polyufc_analysis::{sanitize_parallel, Analyzer};
use polyufc_cache::CacheModel;
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::{interpret_kernel, AccessEvent, RunGroup, TraceSink};
use polyufc_ir::scf::ScfProgram;
use polyufc_ir::textual::parse_affine_program;
use polyufc_machine::{
    program_fingerprint, ExecutionEngine, KernelCounters, Platform, RunResult, UfsDriver,
};

use std::time::Duration;

use crate::report::Outcome;
use crate::trace::Recorder;

/// Counter deltas of one staged compile (existing public counters only).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    /// Emptiness checks the verify gate issued.
    pub emptiness_checks: u64,
    /// Batches those checks were grouped into.
    pub emptiness_batches: u64,
    /// High-water mark of the verify gate's solver arena.
    pub arena_peak_bytes: u64,
    /// Counting queries answered from the session's `CountCache`.
    pub count_hits: u64,
    /// Counting queries that ran a counter.
    pub count_misses: u64,
    /// Components counted in closed form.
    pub count_symbolic: u64,
    /// Components enumerated.
    pub count_enumerated: u64,
    /// Polysum region splits fanned out to the pool.
    pub par_splits: u64,
    /// Kernels PolyUFC-CM analysed.
    pub model_kernels: u64,
    /// Kernels Pluto tiled.
    pub kernels_tiled: u64,
    /// Size of the optimized program's textual form.
    pub ir_bytes_out: u64,
}

impl StageCounts {
    /// Adds another compile's counts; the arena high-water mark is a
    /// maximum, not a sum.
    pub fn absorb(&mut self, o: &StageCounts) {
        self.emptiness_checks += o.emptiness_checks;
        self.emptiness_batches += o.emptiness_batches;
        self.arena_peak_bytes = self.arena_peak_bytes.max(o.arena_peak_bytes);
        self.count_hits += o.count_hits;
        self.count_misses += o.count_misses;
        self.count_symbolic += o.count_symbolic;
        self.count_enumerated += o.count_enumerated;
        self.par_splits += o.par_splits;
        self.model_kernels += o.model_kernels;
        self.kernels_tiled += o.kernels_tiled;
        self.ir_bytes_out += o.ir_bytes_out;
    }
}

/// Stages 1–4a on `input`: verify, Pluto, PolyUFC-CM, characterize.
///
/// # Errors
///
/// A description when the verifier rejects the program or a kernel's
/// analysis fails or overruns its budget (the benchmark's workloads are
/// chosen so that none does).
pub fn characterize_staged(
    rec: &mut Recorder,
    parent: usize,
    request: usize,
    pipe: &Pipeline,
    input: &AffineProgram,
    session: &mut CompileSession,
) -> Result<(CharacterizedProgram, StageCounts), String> {
    let mut counts = StageCounts::default();
    let (batches0, checks0) = (session.ctx.batches(), session.ctx.checks());
    let cc = &session.count_cache;
    let cc0 = (
        cc.hits(),
        cc.misses(),
        cc.symbolic(),
        cc.enumerated(),
        cc.parallel_splits(),
    );

    let report = rec.span("analysis.verify", Some(parent), request, || {
        Analyzer::new().analyze_in(input, &mut session.ctx)
    });
    if report.has_errors() {
        return Err(format!("verifier rejected `{}`", input.name));
    }
    counts.emptiness_batches = report.stats.emptiness_batches.saturating_sub(batches0);
    counts.emptiness_checks = report.stats.emptiness_checks.saturating_sub(checks0);
    counts.arena_peak_bytes = report.stats.peak_arena_bytes as u64;
    input.validate().map_err(|e| format!("malformed: {e}"))?;

    let (optimized, pluto_report) = rec.span("pluto.optimize", Some(parent), request, || {
        pipe.pluto.optimize(input)
    });
    counts.kernels_tiled = pluto_report.decisions.iter().filter(|d| d.tiled).count() as u64;
    counts.ir_bytes_out = format!("{optimized}").len() as u64;

    let cm = CacheModel::new(pipe.platform.hierarchy.clone(), pipe.assoc_mode);
    let mut cache_stats = Vec::with_capacity(optimized.kernels.len());
    for k in &optimized.kernels {
        let st = rec.span("cache.model", Some(parent), request, || {
            cm.analyze_kernel_cached(&optimized, k, &mut session.count_cache)
        });
        counts.model_kernels += 1;
        match st {
            Ok(st) if pipe.thread_sharing && k.outer_parallel().is_some() => {
                cache_stats.push(st.with_thread_sharing(pipe.platform.threads));
            }
            Ok(st) => cache_stats.push(st),
            Err(e) => return Err(format!("cache model on `{}`: {e}", k.name)),
        }
    }
    let cc = &session.count_cache;
    counts.count_hits = cc.hits() - cc0.0;
    counts.count_misses = cc.misses() - cc0.1;
    counts.count_symbolic = cc.symbolic() - cc0.2;
    counts.count_enumerated = cc.enumerated() - cc0.3;
    counts.par_splits = cc.parallel_splits() - cc0.4;

    let f_ref = pipe.platform.uncore_max_ghz;
    let characterizations = rec.span("core.characterize", Some(parent), request, || {
        optimized
            .kernels
            .iter()
            .zip(&cache_stats)
            .map(|(k, st)| characterize_kernel(&k.name, st, &pipe.roofline, f_ref))
            .collect()
    });
    Ok((
        CharacterizedProgram {
            optimized,
            cache_stats,
            characterizations,
            pluto_report,
            report: CompileReport::default(),
        },
        counts,
    ))
}

/// Stages 4b–6 on a characterized program: POLYUFC-SEARCH with the
/// cap-switch guard, then cap insertion. Returns the deployed caps, the
/// per-kernel searched caps and the scf program.
pub fn finish_staged(
    rec: &mut Recorder,
    parent: usize,
    request: usize,
    pipe: &Pipeline,
    ch: &CharacterizedProgram,
) -> (Vec<f64>, Vec<f64>, ScfProgram) {
    let (caps_ghz, searched) = rec.span("core.search", Some(parent), request, || {
        let freqs = pipe.platform.uncore_freqs();
        let conc = pipe.platform.cores as f64;
        let switch_s = pipe.platform.cap_switch_us * 1e-6;
        let mut current = pipe.platform.uncore_max_ghz;
        let mut caps = Vec::with_capacity(ch.optimized.kernels.len());
        let mut searched = Vec::with_capacity(ch.optimized.kernels.len());
        for (k, st) in ch.optimized.kernels.iter().zip(&ch.cache_stats) {
            let pm = ParametricModel::new(&pipe.roofline, st, k.outer_parallel().is_some(), conc);
            let wanted = search_cap(&pm, &freqs, pipe.objective, pipe.epsilon).f_ghz;
            if (wanted - current).abs() < 1e-9
                || pipe.cap_switch_guard <= 0.0
                || pm.exec_time(wanted) >= pipe.cap_switch_guard * switch_s
            {
                current = wanted;
            }
            caps.push(current);
            searched.push(wanted);
        }
        (caps, searched)
    });
    let scf = rec.span("core.codegen", Some(parent), request, || {
        let plan = CapPlan::from_ghz(
            ch.optimized
                .kernels
                .iter()
                .zip(&caps_ghz)
                .map(|(k, &f)| (k.name.clone(), f)),
        );
        remove_redundant_caps(&insert_caps(&ch.optimized, &plan))
    });
    (caps_ghz, searched, scf)
}

/// What the server's `prepare` does to a compile request's source, from
/// its public parts: parse, sanitize, and the two inputs of the artifact
/// key (rendered text and structural fingerprint). Returns the sanitized
/// program and the size of its rendered text.
///
/// # Errors
///
/// The parse error, for sources that are not textual IR.
pub fn prepare_staged(
    rec: &mut Recorder,
    parent: usize,
    request: usize,
    platform: &Platform,
    source: &str,
) -> Result<(AffineProgram, usize), String> {
    let prep = rec.open("serve.prepare", Some(parent), request);
    let parsed = rec.span("ir.parse", Some(prep), request, || {
        parse_affine_program(source)
    });
    let mut program = match parsed {
        Ok(p) => p,
        Err(e) => {
            rec.close(prep);
            return Err(format!("textual IR: {e}"));
        }
    };
    rec.span("analysis.sanitize", Some(prep), request, || {
        sanitize_parallel(&mut program)
    });
    let text_len = rec.span("ir.print", Some(prep), request, || {
        std::hint::black_box(format!("{program}")).len()
    });
    rec.span("machine.fingerprint", Some(prep), request, || {
        std::hint::black_box(program_fingerprint(platform, &program))
    });
    rec.close(prep);
    Ok((program, text_len))
}

/// A [`TraceSink`] that forwards to the cache simulator and accumulates
/// the time spent inside it. The interpreter enters the sink once per
/// innermost-loop instance, so the two clock reads per entry are the
/// tracing overhead `bench.trace_overhead_pct` reports.
struct TimedSim {
    sim: polyufc_cache::CacheSim,
    busy: std::time::Duration,
}

impl TraceSink for TimedSim {
    fn access(&mut self, ev: AccessEvent) {
        self.sim.access(ev);
    }
    fn flops(&mut self, n: u64) {
        self.sim.flops(n);
    }
    fn run(&mut self, group: RunGroup<'_>) {
        let t = std::time::Instant::now();
        self.sim.run(group);
        self.busy += t.elapsed();
    }
}

/// `measure_program` from its public parts: per kernel, the trace
/// interpreter feeding the cache simulator, fanned out over the pool the
/// way the untraced path does. `ir.interp` spans wrap the interpreter;
/// each has one aggregated `cache.sim` child holding the simulator time.
pub fn measure_staged(
    rec: &mut Recorder,
    parent: usize,
    request: usize,
    platform: &Platform,
    program: &AffineProgram,
) -> Vec<KernelCounters> {
    let measure = rec.open("machine.measure", Some(parent), request);
    let results = polyufc_par::par_map(&program.kernels, |kernel| {
        let mut local = rec.fork();
        let interp = local.open("ir.interp", None, request);
        let mut sink = TimedSim {
            sim: polyufc_cache::CacheSim::new(&platform.hierarchy, program),
            busy: std::time::Duration::ZERO,
        };
        interpret_kernel(program, kernel, &mut sink);
        local.close(interp);
        local.aggregated(
            "cache.sim",
            interp,
            u64::try_from(sink.busy.as_nanos()).unwrap_or(u64::MAX),
        );
        let st = sink.sim.stats;
        let counters = KernelCounters {
            name: kernel.name.clone(),
            flops: st.flops,
            accesses: st.accesses,
            hits: st.hits,
            misses: st.misses,
            dram_fills: st.dram_line_fills,
            dram_writebacks: st.dram_writebacks,
            line_bytes: platform.hierarchy.line_bytes(),
            parallel: kernel.outer_parallel().is_some(),
        };
        (counters, local)
    });
    let mut counters = Vec::with_capacity(results.len());
    for (c, local) in results {
        counters.push(c);
        rec.adopt(local, measure);
    }
    rec.close(measure);
    counters
}

/// One program's scores on the machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct Scores {
    /// Deployed run with the compiler's caps (switch costs included).
    pub capped: RunResult,
    /// Run under the stock UFS driver.
    pub baseline: RunResult,
    /// EDP with every kernel at its searched cap, switches amortized away
    /// (the paper's Fig. 7 regime).
    pub steady_edp: f64,
    /// Per kernel: EDP at the searched cap ÷ EDP at the best frequency of
    /// the exhaustive sweep (≥ 1; the simulator is the oracle).
    pub regret_ratios: Vec<f64>,
}

/// Runs the compiled program, the stock baseline and the exhaustive
/// frequency sweep on the machine model. Spans are recorded when a
/// recorder is given.
pub fn score(
    mut rec: Option<(&mut Recorder, usize, usize)>,
    engine: &ExecutionEngine,
    scf: &ScfProgram,
    searched_ghz: &[f64],
    counters: &[KernelCounters],
) -> Scores {
    let capped = timed(&mut rec, "machine.run_scf", || {
        engine.run_scf(scf, counters)
    });
    let baseline = timed(&mut rec, "machine.baseline", || {
        UfsDriver::stock().run_baseline(engine, counters)
    });
    let (steady, regret_ratios) = timed(&mut rec, "machine.sweep", || {
        let mut steady = (0.0, 0.0);
        let mut regret_ratios = Vec::with_capacity(counters.len());
        for (c, &f) in counters.iter().zip(searched_ghz) {
            let at_cap = engine.run_kernel(c, f);
            steady.0 += at_cap.time_s;
            steady.1 += at_cap.energy.total();
            let best = engine
                .sweep_kernel(c)
                .into_iter()
                .map(|(_, r)| r.edp())
                .fold(f64::INFINITY, f64::min);
            regret_ratios.push(at_cap.edp() / best);
        }
        (steady, regret_ratios)
    });
    Scores {
        capped,
        baseline,
        steady_edp: steady.0 * steady.1,
        regret_ratios,
    }
}

/// Runs `f` under a span when a recorder (with parent and request) is
/// given, bare otherwise.
fn timed<T>(
    rec: &mut Option<(&mut Recorder, usize, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some((rec, parent, request)) => rec.span(name, Some(*parent), *request, f),
        None => f(),
    }
}

impl StageCounts {
    /// Reports the counter deltas of the replayed compiles.
    pub fn report(&self, out: &mut Outcome) {
        let c = self;
        out.set("analysis.emptiness_checks", c.emptiness_checks as f64);
        out.set("analysis.emptiness_batches", c.emptiness_batches as f64);
        out.set("presburger.arena_peak_bytes", c.arena_peak_bytes as f64);
        let queries = c.count_hits + c.count_misses;
        out.set("presburger.count_queries", queries as f64);
        if queries > 0 {
            out.set(
                "presburger.count_hit_ratio",
                c.count_hits as f64 / queries as f64,
            );
        }
        out.set("presburger.count_symbolic", c.count_symbolic as f64);
        out.set("presburger.count_enumerated", c.count_enumerated as f64);
        out.set("presburger.par_splits", c.par_splits as f64);
        out.set("cache.model_kernels", c.model_kernels as f64);
        out.set("pluto.kernels_tiled", c.kernels_tiled as f64);
        out.set("pluto.ir_bytes_out", c.ir_bytes_out as f64);
    }
}

/// Turns the recorded spans into per-layer metrics: `<span name>_us` is
/// the layer's mean self time per replayed input, and the guard rails
/// say how much of the replayed time named layers cover and what tracing
/// cost against the untraced wall time of the same inputs. Shares are of
/// the `request` roots.
pub fn report_spans(rec: &Recorder, inputs: f64, untraced: Duration, out: &mut Outcome) {
    let by_name = rec.self_time_by_name();
    let total = rec.root_total_ns("request") as f64;
    let mut ledger: Vec<(&str, u64)> = by_name.iter().map(|(n, t)| (*n, *t)).collect();
    ledger.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (name, ns) in ledger {
        let per_input = ns as f64 / 1e3 / inputs;
        match name {
            "request" => out.rows.push(format!(
                "self time {:<22} {per_input:>12.1} us/input {:>6.2}% of replayed time (glue between layers)",
                "(replay)",
                100.0 * ns as f64 / total.max(1.0)
            )),
            // The serve workloads' real `handle_line` roots stand beside
            // the replay, not inside it; their owner reports them.
            "serve.engine" => {}
            _ => {
                out.set(&format!("{name}_us"), per_input);
                out.rows.push(format!(
                    "self time {name:<22} {per_input:>12.1} us/input {:>6.2}% of replayed time",
                    100.0 * ns as f64 / total.max(1.0)
                ));
            }
        }
    }
    if total > 0.0 {
        let glue = by_name.get("request").copied().unwrap_or(0) as f64;
        out.set("bench.layer_coverage_pct", 100.0 * (1.0 - glue / total));
    }
    out.set("bench.replay_us", total / 1e3 / inputs);
    let untraced_ns = untraced.as_nanos() as f64;
    if untraced_ns > 0.0 {
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (total - untraced_ns) / untraced_ns,
        );
    }
}
