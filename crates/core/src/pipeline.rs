//! The end-to-end PolyUFC pipeline (Fig. 3) with per-stage compile-time
//! accounting (Table IV): preprocessing/extraction, the Pluto optimizer,
//! PolyUFC-CM + OI (stages 3a/3b), and characterization + search +
//! code generation (stages 4–6).

use std::fmt;
use std::time::Instant;

use polyufc_analysis::Analyzer;
use polyufc_cache::{AssocMode, CacheModel, KernelCacheStats, ModelError};
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::lower::lower_tensor_to_linalg;
use polyufc_ir::scf::ScfProgram;
use polyufc_ir::tensor::TensorGraph;
use polyufc_ir::types::ElemType;
use polyufc_machine::{ExecutionEngine, Platform};
use polyufc_pluto::{PlutoOptimizer, PlutoReport};
use polyufc_roofline::RooflineModel;
use serde::{Deserialize, Serialize};

use crate::capping::capped_scf;
use crate::characterize::{characterize_kernel, Characterization};
use crate::model::ParametricModel;
use crate::search::{search_cap, Objective, SearchResult};

/// Why a compilation failed.
#[derive(Debug)]
pub enum Error {
    /// A kernel could not be analyzed by the cache model.
    Model(ModelError),
    /// The pre-compilation static verifier found errors in the input
    /// program; the report carries every diagnostic with its witness.
    AnalysisRejected(polyufc_analysis::AnalysisReport),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Model(e) => write!(f, "{e}"),
            Error::AnalysisRejected(r) => {
                write!(
                    f,
                    "static verifier rejected `{}`:\n{}",
                    r.program,
                    r.render_text()
                )
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Self {
        Error::Model(e)
    }
}

/// Per-stage compile times in microseconds (the Table IV columns).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CompileReport {
    /// Kernels whose PolyUFC-CM analysis exceeded the solver budget and
    /// fell back to a compulsory-miss estimate with the cap reset to the
    /// maximum frequency (the paper's 30-minute-timeout behavior).
    pub fallback_kernels: Vec<String>,
    /// Warnings from the pre-compilation static verifier (rendered
    /// diagnostics; errors abort compilation instead).
    pub verify_warnings: Vec<String>,
    /// Pre-compilation static verification (bounds, races, IR lints).
    pub verify_us: u128,
    /// Stage 2 extraction / preprocessing.
    pub preprocess_us: u128,
    /// Stage 2 optimizer (Pluto).
    pub pluto_us: u128,
    /// Stages 3a–3b (PolyUFC-CM + OI).
    pub polyufc_cm_us: u128,
    /// Stages 4–6 (characterization, search, code generation).
    pub steps_4_6_us: u128,
    /// Count-cache lookups (whole counting questions and their
    /// independent components) answered from the memoization cache during
    /// PolyUFC-CM analysis (Table IV compile-time saving).
    pub count_cache_hits: u64,
    /// Count-cache lookups that found no entry: a whole question, and
    /// each component of it that had to run the counter.
    pub count_cache_misses: u64,
    /// Coupled components resolved by the closed-form symbolic counting
    /// layer (size-independent work) across all cache misses.
    pub count_symbolic: u64,
    /// Coupled components that fell back to the recursive enumerator.
    pub count_enumerated: u64,
    /// Cache entries discarded by the counting cache's capacity guard.
    pub count_cache_evictions: u64,
    /// Emptiness batches the verify gate issued through its shared
    /// Presburger context (one per access-pair / bounds sweep).
    pub emptiness_batches: u64,
    /// Individual emptiness checks inside those batches.
    pub emptiness_checks: u64,
    /// High-water mark of one verify-gate query's solver row storage, in
    /// bytes.
    pub presburger_arena_bytes: u64,
    /// Polysum region splits fanned out across the worker pool during
    /// counting (0 when every count stayed sequential).
    pub count_parallel_splits: u64,
}

impl CompileReport {
    /// Total compile time.
    pub fn total_us(&self) -> u128 {
        self.verify_us + self.preprocess_us + self.pluto_us + self.polyufc_cm_us + self.steps_4_6_us
    }
}

/// Reusable per-worker compile state for long-running callers (the serve
/// daemon): the cache model's Presburger counting cache and the verify
/// gate's batched-emptiness [`Context`](polyufc_presburger::Context) both
/// persist across compilations, so a hot daemon amortizes
/// canonicalization and repeated iteration-domain counts across requests
/// instead of rebuilding them per compile. The session
/// holds one count cache: the verify gate only checks emptiness and
/// samples witnesses, and a [`Context`](polyufc_presburger::Context) does
/// not count.
///
/// [`Pipeline::compile_affine`] uses a throwaway session; a daemon calls
/// [`Pipeline::compile_affine_in`] with one session per worker thread.
/// Reports stay per-compile: the pipeline snapshots the session's
/// counters around each call and records the deltas.
#[derive(Debug, Default)]
pub struct CompileSession {
    /// Memoized Presburger counting shared across compiles (the cache
    /// model's; the only count cache a session holds).
    pub count_cache: polyufc_presburger::CountCache,
    /// Persistent batched-emptiness and sampling solver context for the
    /// verify gate.
    pub ctx: polyufc_presburger::Context,
}

impl CompileSession {
    /// A fresh session with empty caches.
    pub fn new() -> Self {
        CompileSession::default()
    }
}

/// The ε- and objective-independent prefix of a compilation: the result
/// of stages 1–3 plus roofline characterization (verify, preprocessing,
/// Pluto, PolyUFC-CM + OI, characterize), which depend only on the input
/// program, the platform, and the associativity mode. POLYUFC-SEARCH and
/// code generation — the only stages that read `epsilon` and `objective`
/// — run in [`Pipeline::finish_characterized`].
///
/// Long-running callers (the serve daemon) cache these per
/// `(platform, assoc, program)`: a request that differs only in ε or
/// objective then skips the Pluto re-optimization that dominates warm
/// compile time and pays only the microsecond-scale search.
#[derive(Debug, Clone)]
pub struct CharacterizedProgram {
    /// The Pluto-optimized affine program.
    pub optimized: AffineProgram,
    /// Per-kernel PolyUFC-CM statistics (thread-sharing applied).
    pub cache_stats: Vec<KernelCacheStats>,
    /// Per-kernel roofline characterizations at the reference frequency.
    pub characterizations: Vec<Characterization>,
    /// What the optimizer did.
    pub pluto_report: PlutoReport,
    /// Stage 1–3 timings and counter deltas; `steps_4_6_us` holds only
    /// the characterization share until `finish_characterized` adds the
    /// search and code-generation time.
    pub report: CompileReport,
}

/// What the search adds to a [`CharacterizedProgram`] ([`capped_scf`] on
/// the caps is the rest of stages 4–6).
#[derive(Debug)]
pub struct Finished {
    /// Per-kernel search outcomes.
    pub search: Vec<SearchResult>,
    /// Chosen caps in GHz, per kernel.
    pub caps_ghz: Vec<f64>,
    /// Search time: a share of `steps_4_6_us` the prefix's report does
    /// not yet hold (code generation is the other).
    pub elapsed_us: u128,
}

/// Everything the pipeline produces for one input program.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The Pluto-optimized affine program (also the baseline binary).
    pub optimized: AffineProgram,
    /// The final scf program with embedded caps.
    pub scf: ScfProgram,
    /// Per-kernel PolyUFC-CM statistics.
    pub cache_stats: Vec<KernelCacheStats>,
    /// Per-kernel roofline characterizations.
    pub characterizations: Vec<Characterization>,
    /// Per-kernel search outcomes.
    pub search: Vec<SearchResult>,
    /// Chosen caps in GHz, per kernel.
    pub caps_ghz: Vec<f64>,
    /// Compile-time breakdown.
    pub report: CompileReport,
    /// What the optimizer did.
    pub pluto_report: PlutoReport,
}

/// The configured compilation pipeline for one platform.
///
/// ```
/// use polyufc::Pipeline;
/// use polyufc_machine::Platform;
/// use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
/// use polyufc_ir::types::ElemType;
/// use polyufc_presburger::LinExpr;
///
/// // A small streaming kernel...
/// let mut program = AffineProgram::new("copy");
/// let a = program.add_array("A", vec![4096], ElemType::F64);
/// let b = program.add_array("B", vec![4096], ElemType::F64);
/// program.kernels.push(AffineKernel {
///     name: "copy".into(),
///     loops: vec![Loop::range(4096)],
///     statements: vec![Statement {
///         name: "S".into(),
///         accesses: vec![
///             Access::read(a, vec![LinExpr::var(0)]),
///             Access::write(b, vec![LinExpr::var(0)]),
///         ],
///         flops: 1,
///     }],
/// });
///
/// // ...compiled end-to-end: Pluto, PolyUFC-CM, search, cap insertion.
/// let pipeline = Pipeline::new(Platform::broadwell());
/// let out = pipeline.compile_affine(&program)?;
/// assert_eq!(out.caps_ghz.len(), 1);
/// # Ok::<(), polyufc::pipeline::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Target platform (used for the frequency grid and concurrency).
    pub platform: Platform,
    /// Calibrated roofline model.
    pub roofline: RooflineModel,
    /// Cache-model associativity mode.
    pub assoc_mode: AssocMode,
    /// Search objective.
    pub objective: Objective,
    /// The ε threshold of POLYUFC-SEARCH (paper uses 1e-3).
    pub epsilon: f64,
    /// The Pluto stage.
    pub pluto: PlutoOptimizer,
    /// Whether to apply the paper's thread-sharing heuristic to parallel
    /// kernels (sequential misses divided by the thread count).
    pub thread_sharing: bool,
    /// Cap-switch guard: a kernel receives its own cap only when its
    /// estimated runtime is at least this many cap-switch latencies (or
    /// the cap equals the one already in effect, which is free). Encodes
    /// the Sec. VII-F overhead argument; 0 disables the guard.
    pub cap_switch_guard: f64,
}

impl Pipeline {
    /// Creates a pipeline for a platform, calibrating the rooflines by
    /// one-time microbenchmarking on its (noiseless) machine model.
    /// Calibration is cached per platform, so sweeps constructing many
    /// pipelines (one per evaluation point) microbenchmark each platform
    /// only once per process.
    pub fn new(platform: Platform) -> Self {
        let roofline =
            RooflineModel::calibrate_cached(&ExecutionEngine::noiseless(platform.clone()));
        Pipeline {
            platform,
            roofline,
            assoc_mode: AssocMode::SetAssociative,
            objective: Objective::Edp,
            epsilon: 1e-3,
            pluto: PlutoOptimizer,
            thread_sharing: false,
            cap_switch_guard: 20.0,
        }
    }

    /// Sets the optimization objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the associativity mode of PolyUFC-CM.
    pub fn with_assoc_mode(mut self, mode: AssocMode) -> Self {
        self.assoc_mode = mode;
        self
    }

    /// Compiles an affine program end-to-end.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AnalysisRejected`] if the static verifier finds
    /// errors in the input, or [`Error::Model`] if a kernel cannot be
    /// analyzed by the cache model.
    pub fn compile_affine(&self, input: &AffineProgram) -> Result<PipelineOutput, Error> {
        self.compile_affine_in(input, &mut CompileSession::new())
    }

    /// [`Pipeline::compile_affine`] against a caller-owned
    /// [`CompileSession`], so the Presburger counting cache and the
    /// verify gate's solver context persist across compilations (the
    /// serve daemon keeps one session per worker). The returned
    /// [`CompileReport`] counts only this compile's cache traffic and
    /// solver work (session counters are snapshot-deltaed).
    ///
    /// # Errors
    ///
    /// See [`Pipeline::compile_affine`].
    pub fn compile_affine_in(
        &self,
        input: &AffineProgram,
        session: &mut CompileSession,
    ) -> Result<PipelineOutput, Error> {
        let ch = self.characterize_affine_in(input, session)?;
        Ok(self.finish_characterized(ch))
    }

    /// Stages 1–3 plus characterization: everything in the pipeline that
    /// is independent of `epsilon` and `objective`. The result can be
    /// cached and re-finished under different search parameters via
    /// [`Pipeline::finish_characterized`]; the two calls compose to
    /// exactly [`Pipeline::compile_affine_in`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::compile_affine`].
    pub fn characterize_affine_in(
        &self,
        input: &AffineProgram,
        session: &mut CompileSession,
    ) -> Result<CharacterizedProgram, Error> {
        // Session counters are cumulative; snapshot them so the report
        // carries per-compile deltas regardless of session age.
        let batches0 = session.ctx.batches();
        let checks0 = session.ctx.checks();
        let cc0 = (
            session.count_cache.hits(),
            session.count_cache.misses(),
            session.count_cache.symbolic(),
            session.count_cache.enumerated(),
            session.count_cache.evictions(),
            session.count_cache.parallel_splits(),
        );

        // Stage 1: static verification (IR lints, bounds proofs, race
        // detection on `parallel` flags). Always runs, before anything
        // trusts the program's structure or `parallel` flags: textual and
        // cgeist inputs are untrusted, and the builtin workloads verify
        // cleanly. Errors abort; warnings land in the report.
        let t_v = Instant::now();
        let report = Analyzer::new().analyze_in(input, &mut session.ctx);
        if report.has_errors() {
            return Err(Error::AnalysisRejected(report));
        }
        let verify_stats = report.stats;
        let verify_warnings = report.diagnostics.iter().map(|d| d.to_string()).collect();
        let verify_us = t_v.elapsed().as_micros();

        // Stage 2a: preprocessing (validation / extraction).
        let t0 = Instant::now();
        input.validate().map_err(ModelError::Malformed)?;
        let preprocess_us = t0.elapsed().as_micros();

        // Stage 2b: Pluto, on the gate's dependence summaries.
        let t1 = Instant::now();
        let (optimized, pluto_report) = self.pluto.optimize_with(input, report.deps);
        let pluto_us = t1.elapsed().as_micros();

        // Stages 3a/3b: PolyUFC-CM + OI.
        let t2 = Instant::now();
        let cm = CacheModel::new(self.platform.hierarchy.clone(), self.assoc_mode);
        let mut cache_stats = Vec::with_capacity(optimized.kernels.len());
        let mut fallback_kernels = Vec::new();
        // One counting cache across all kernels (and, via the session,
        // across compiles): iteration-domain queries recur heavily
        // between references, levels, sibling kernels, and repeat
        // requests for structurally similar programs.
        let count_cache = &mut session.count_cache;
        for k in &optimized.kernels {
            let mut st = match cm.analyze_kernel_cached(&optimized, k, count_cache) {
                Ok(st) => st,
                Err(ModelError::Presburger(_)) => {
                    // Solver budget exceeded (the paper's timeout case):
                    // fall back to a compulsory-miss estimate; the cap is
                    // reset to the maximum below.
                    fallback_kernels.push(k.name.clone());
                    fallback_stats(&optimized, k, &self.platform.hierarchy)
                }
                Err(e) => return Err(e.into()),
            };
            if self.thread_sharing && k.outer_parallel().is_some() {
                st = st.with_thread_sharing(self.platform.threads);
            }
            cache_stats.push(st);
        }
        let polyufc_cm_us = t2.elapsed().as_micros();

        // Stage 4a: roofline characterization at the reference frequency
        // (program- and platform-determined, independent of the search
        // parameters; its time is accounted to `steps_4_6_us`, which
        // `finish_characterized` completes).
        let t3 = Instant::now();
        let f_ref = self.platform.uncore_max_ghz;
        let characterizations: Vec<Characterization> = optimized
            .kernels
            .iter()
            .zip(&cache_stats)
            .map(|(k, st)| characterize_kernel(&k.name, st, &self.roofline, f_ref))
            .collect();
        let steps_4_6_us = t3.elapsed().as_micros();

        Ok(CharacterizedProgram {
            report: CompileReport {
                fallback_kernels,
                verify_warnings,
                verify_us,
                preprocess_us,
                pluto_us,
                polyufc_cm_us,
                steps_4_6_us,
                count_cache_hits: count_cache.hits() - cc0.0,
                count_cache_misses: count_cache.misses() - cc0.1,
                count_symbolic: count_cache.symbolic() - cc0.2,
                count_enumerated: count_cache.enumerated() - cc0.3,
                count_cache_evictions: count_cache.evictions() - cc0.4,
                // `analyze_in` reports the context's cumulative counters;
                // subtract the pre-compile snapshot so a session's Nth
                // request reports only its own solver traffic. (The row
                // storage high-water mark is monotone and stays cumulative.)
                emptiness_batches: verify_stats.emptiness_batches.saturating_sub(batches0),
                emptiness_checks: verify_stats.emptiness_checks.saturating_sub(checks0),
                presburger_arena_bytes: verify_stats.peak_arena_bytes as u64,
                count_parallel_splits: count_cache.parallel_splits() - cc0.5,
            },
            optimized,
            cache_stats,
            characterizations,
            pluto_report,
        })
    }

    /// Stages 4–6 on a characterized program: POLYUFC-SEARCH under this
    /// pipeline's `objective`/`epsilon` and the cap-switch guard
    /// ([`Pipeline::finish`]), then cap insertion ([`capped_scf`]).
    /// Composes with [`Pipeline::characterize_affine_in`] to exactly
    /// [`Pipeline::compile_affine_in`]; callers re-finishing a cached
    /// prefix must use a pipeline whose platform and associativity mode
    /// match the one that characterized it.
    pub fn finish_characterized(&self, ch: CharacterizedProgram) -> PipelineOutput {
        let Finished {
            search,
            caps_ghz,
            elapsed_us,
        } = self.finish(&ch);
        let t = Instant::now();
        let scf = capped_scf(&ch.optimized, &caps_ghz);
        let mut report = ch.report;
        report.steps_4_6_us += elapsed_us + t.elapsed().as_micros();
        PipelineOutput {
            optimized: ch.optimized,
            scf,
            cache_stats: ch.cache_stats,
            characterizations: ch.characterizations,
            search,
            caps_ghz,
            report,
            pluto_report: ch.pluto_report,
        }
    }

    /// The search half of [`Pipeline::finish_characterized`], on a
    /// borrow: the prefix stays with its owner (the serve daemon's
    /// per-worker cache), and a caller that needs the scf program runs
    /// [`capped_scf`] on the caps.
    pub fn finish(&self, ch: &CharacterizedProgram) -> Finished {
        let t3 = Instant::now();
        let freqs = self.platform.uncore_freqs();
        let conc = self.platform.cores as f64;
        let mut search = Vec::new();
        let mut caps_ghz = Vec::new();
        // Greedy switch-overhead guard: a new cap is only worth paying a
        // switch for if the kernel runs long enough; matching the cap
        // already in effect is free.
        let switch_s = self.platform.cap_switch_us * 1e-6;
        let mut current = self.platform.uncore_max_ghz;
        // Membership probe built once: the per-kernel `Vec::contains` scan
        // was O(kernels²) on ML graphs with hundreds of kernels.
        let fallback_set: std::collections::HashSet<&str> = ch
            .report
            .fallback_kernels
            .iter()
            .map(String::as_str)
            .collect();
        for (k, st) in ch.optimized.kernels.iter().zip(&ch.cache_stats) {
            let pm = ParametricModel::new(&self.roofline, st, k.outer_parallel().is_some(), conc);
            let mut res = search_cap(&pm, &freqs, self.objective, self.epsilon);
            if fallback_set.contains(k.name.as_str()) {
                // Paper Sec. VII-F: kernels that overshoot the analysis
                // budget keep the maximum uncore frequency.
                res.f_ghz = self.platform.uncore_max_ghz;
            }
            let wanted = res.f_ghz;
            let est_t = pm.exec_time(wanted);
            let cap = if (wanted - current).abs() < 1e-9
                || self.cap_switch_guard <= 0.0
                || est_t >= self.cap_switch_guard * switch_s
            {
                current = wanted;
                wanted
            } else {
                current
            };
            caps_ghz.push(cap);
            search.push(res);
        }
        Finished {
            search,
            caps_ghz,
            elapsed_us: t3.elapsed().as_micros(),
        }
    }

    /// The static model's per-kernel expectations `T(f_c,I)` / `E(f_c,I)`
    /// at the *deployed* caps (`caps_ghz`, switch guard applied) — the
    /// reference a [`polyufc_machine::GuardedCapRuntime`] watchdog
    /// compares observed runs against. One entry per kernel, in program
    /// order, as plain data (the machine crate cannot see
    /// [`ParametricModel`]; the dependency points the other way).
    pub fn cap_predictions(&self, out: &PipelineOutput) -> Vec<polyufc_machine::CapPrediction> {
        let conc = self.platform.cores as f64;
        out.optimized
            .kernels
            .iter()
            .zip(&out.cache_stats)
            .zip(&out.caps_ghz)
            .map(|((k, st), &f)| {
                let pm =
                    ParametricModel::new(&self.roofline, st, k.outer_parallel().is_some(), conc);
                polyufc_machine::CapPrediction {
                    f_ghz: f,
                    time_s: pm.exec_time(f),
                    energy_j: pm.energy(f),
                }
            })
            .collect()
    }

    /// Compiles a tensor graph (torch entry point): lowers tensor →
    /// linalg → affine, then runs the affine pipeline.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::compile_affine`].
    pub fn compile_tensor(
        &self,
        graph: &TensorGraph,
        elem: ElemType,
    ) -> Result<PipelineOutput, Error> {
        let lp = lower_tensor_to_linalg(graph, elem);
        let ap = lp.lower_to_affine();
        self.compile_affine(&ap)
    }
}

/// Conservative per-kernel statistics used when the full PolyUFC-CM
/// analysis exceeds its solver budget: trip counts from interval bounds,
/// compulsory misses assumed equal to the touched arrays' footprints,
/// in lines of the hierarchy's own size (as PolyUFC-CM counts them).
fn fallback_stats(
    program: &AffineProgram,
    kernel: &polyufc_ir::affine::AffineKernel,
    hierarchy: &polyufc_cache::CacheHierarchy,
) -> KernelCacheStats {
    let (n_levels, line) = (hierarchy.n_levels(), hierarchy.line_bytes() as f64);
    let mut points = 1.0f64;
    if let Ok(Some(iv)) = kernel.domain().basics()[0].var_intervals() {
        for bounds in iv.iter().take(kernel.depth()) {
            if let (Some(lo), Some(hi)) = bounds {
                points *= ((hi - lo + 1).max(0)) as f64;
            }
        }
    }
    let per_point_accesses: f64 = kernel
        .statements
        .iter()
        .map(|s| s.accesses.len() as f64)
        .sum();
    let per_point_flops: f64 = kernel.statements.iter().map(|s| s.flops as f64).sum();
    let mut arrays: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for s in &kernel.statements {
        for a in &s.accesses {
            arrays.insert(a.array.0);
        }
    }
    let cold_bytes: f64 = arrays
        .iter()
        .map(|&a| program.arrays[a].size_bytes() as f64)
        .sum();
    let cold_lines = (cold_bytes / line).ceil();
    let total_accesses = points * per_point_accesses;
    let mut levels = Vec::with_capacity(n_levels);
    let mut prev = total_accesses;
    for _ in 0..n_levels {
        let misses = cold_lines.min(prev);
        levels.push(polyufc_cache::LevelStats {
            accesses: prev,
            hits: prev - misses,
            misses,
            fit_level: 0,
        });
        prev = misses;
    }
    KernelCacheStats {
        levels,
        cold_lines,
        q_dram_bytes: cold_lines * line,
        flops: points * per_point_flops,
        total_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, AffineKernel, Loop, Statement};
    use polyufc_presburger::LinExpr;

    fn matmul_program(n: usize) -> AffineProgram {
        let mut p = AffineProgram::new("gemm");
        let a = p.add_array("A", vec![n, n], ElemType::F64);
        let b = p.add_array("B", vec![n, n], ElemType::F64);
        let c = p.add_array("C", vec![n, n], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        p.kernels.push(AffineKernel {
            name: "gemm".into(),
            loops: vec![Loop::range(n as i64); 3],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone(), vk.clone()]),
                    Access::read(b, vec![vk, vj.clone()]),
                    Access::read(c, vec![vi.clone(), vj.clone()]),
                    Access::write(c, vec![vi, vj]),
                ],
                flops: 2,
            }],
        });
        p
    }

    fn mvt_like(n: usize) -> AffineProgram {
        let mut p = AffineProgram::new("mvt");
        let a = p.add_array("A", vec![n, n], ElemType::F64);
        let x = p.add_array("x", vec![n], ElemType::F64);
        let y = p.add_array("y", vec![n], ElemType::F64);
        let (vi, vj) = (LinExpr::var(0), LinExpr::var(1));
        p.kernels.push(AffineKernel {
            name: "mvt".into(),
            loops: vec![Loop::range(n as i64), Loop::range(n as i64)],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone(), vj.clone()]),
                    Access::read(x, vec![vj]),
                    Access::read(y, vec![vi.clone()]),
                    Access::write(y, vec![vi]),
                ],
                flops: 2,
            }],
        });
        p
    }

    #[test]
    fn gemm_is_cb_and_capped_low() {
        let mut pipe = Pipeline::new(Platform::raptor_lake());
        pipe.cap_switch_guard = 0.0; // the kernel is small; test the search itself
        let out = pipe.compile_affine(&matmul_program(256)).unwrap();
        assert_eq!(out.characterizations.len(), 1);
        assert_eq!(
            out.characterizations[0].class,
            crate::characterize::Boundedness::ComputeBound
        );
        assert!(out.caps_ghz[0] < pipe.platform.uncore_max_ghz);
        assert_eq!(out.scf.cap_count(), 1);
        assert!(out.pluto_report.decisions[0].tiled);
    }

    #[test]
    fn mvt_is_bb_and_capped_high() {
        let pipe = Pipeline::new(Platform::broadwell());
        let out = pipe.compile_affine(&mvt_like(2048)).unwrap();
        assert_eq!(
            out.characterizations[0].class,
            crate::characterize::Boundedness::BandwidthBound
        );
        assert!(out.caps_ghz[0] >= 2.0, "BB cap {}", out.caps_ghz[0]);
    }

    #[test]
    fn fallback_stats_count_lines_of_the_hierarchys_size() {
        // gemm(32) touches three 8 KiB arrays: 24 KiB cold.
        let p = matmul_program(32);
        let hierarchy = |line_bytes| {
            polyufc_cache::CacheHierarchy::new(vec![polyufc_cache::CacheLevelConfig {
                size_bytes: 32 << 10,
                line_bytes,
                assoc: 8,
                shared: false,
            }])
        };
        for (line_bytes, lines) in [(64, 384.0), (128, 192.0)] {
            let st = fallback_stats(&p, &p.kernels[0], &hierarchy(line_bytes));
            assert_eq!(st.cold_lines, lines, "{line_bytes}-byte lines");
            assert_eq!(st.levels[0].misses, lines);
            assert_eq!(st.q_dram_bytes, 24.0 * 1024.0);
        }
    }

    #[test]
    fn report_accounts_all_stages() {
        let pipe = Pipeline::new(Platform::broadwell());
        let out = pipe.compile_affine(&matmul_program(128)).unwrap();
        let r = out.report;
        assert!(r.total_us() >= r.polyufc_cm_us);
        assert!(r.pluto_us > 0);
    }

    #[test]
    fn tensor_entry_point_compiles_sdpa() {
        use polyufc_ir::tensor::{TensorOp, TensorOpKind};
        let mut g = TensorGraph::new("bert_sdpa");
        g.push(TensorOp {
            name: "sdpa".into(),
            kind: TensorOpKind::Sdpa {
                b: 1,
                h: 4,
                s: 64,
                d: 32,
            },
            inputs: vec!["Q".into(), "K".into(), "V".into()],
            output: "O".into(),
        });
        let pipe = Pipeline::new(Platform::raptor_lake());
        let out = pipe.compile_tensor(&g, ElemType::F32).unwrap();
        assert_eq!(out.characterizations.len(), 9);
        // The generated scf has at most one cap per kernel, fewer after
        // the redundancy rewrite.
        assert!(out.scf.cap_count() <= 9);
        assert!(out.scf.kernel_count() == 9);
    }

    #[test]
    fn verify_gate_rejects_broken_input_with_diagnostics() {
        let mut p = matmul_program(32);
        // Mark the reduction loop parallel: the verifier must refuse.
        p.kernels[0].loops[2].parallel = true;
        let pipe = Pipeline::new(Platform::broadwell());
        match pipe.compile_affine(&p) {
            Err(Error::AnalysisRejected(r)) => {
                assert!(r.has_errors());
                assert!(r.diagnostics.iter().any(|d| d.pass == "race"));
            }
            other => panic!("expected AnalysisRejected, got {other:?}"),
        }
        // The same program verifies after the flag is sanitized away.
        let warns = polyufc_analysis::sanitize_parallel(&mut p);
        assert_eq!(warns.len(), 1);
        let out = pipe.compile_affine(&p).unwrap();
        assert!(out.report.verify_warnings.is_empty());
    }

    #[test]
    fn verify_gate_rejects_out_of_bounds() {
        let mut p = matmul_program(32);
        p.kernels[0].statements[0].accesses[0].indices[0] = LinExpr::var(0) + LinExpr::constant(1);
        let pipe = Pipeline::new(Platform::broadwell());
        match pipe.compile_affine(&p) {
            Err(Error::AnalysisRejected(r)) => {
                assert!(r.diagnostics.iter().any(|d| d.pass == "bounds"));
            }
            other => panic!("expected AnalysisRejected, got {other:?}"),
        }
    }

    #[test]
    fn session_reuse_matches_fresh_compile_and_warms_caches() {
        let pipe = Pipeline::new(Platform::broadwell());
        let input = matmul_program(128);
        let fresh = pipe.compile_affine(&input).unwrap();

        let mut session = CompileSession::new();
        let first = pipe.compile_affine_in(&input, &mut session).unwrap();
        let second = pipe.compile_affine_in(&input, &mut session).unwrap();

        // Results are independent of session age.
        assert_eq!(fresh.caps_ghz, first.caps_ghz);
        assert_eq!(first.caps_ghz, second.caps_ghz);
        assert_eq!(format!("{}", first.scf), format!("{}", second.scf));

        // The second compile answers its counting queries from the warm
        // session cache, and its report is a per-compile delta (no
        // cumulative double counting).
        assert_eq!(
            first.report.count_cache_misses,
            fresh.report.count_cache_misses
        );
        assert!(second.report.count_cache_hits >= first.report.count_cache_misses);
        assert_eq!(second.report.count_cache_misses, 0);
        assert!(second.report.emptiness_batches <= first.report.emptiness_batches);
    }

    #[test]
    fn characterize_then_finish_matches_monolithic_compile() {
        let input = matmul_program(128);
        let mut pipe = Pipeline::new(Platform::broadwell());
        pipe.cap_switch_guard = 0.0;
        let whole = pipe.compile_affine(&input).unwrap();

        // One characterization prefix, re-finished under several search
        // parameters — each must match the monolithic pipeline exactly.
        let prefix = pipe
            .characterize_affine_in(&input, &mut CompileSession::new())
            .unwrap();
        for (objective, epsilon) in [
            (Objective::Edp, 1e-3),
            (Objective::Energy, 5e-3),
            (Objective::Performance, 1e-2),
        ] {
            let mut variant = pipe.clone().with_objective(objective);
            variant.epsilon = epsilon;
            let split = variant.finish_characterized(prefix.clone());
            let mono = variant.compile_affine(&input).unwrap();
            assert_eq!(split.caps_ghz, mono.caps_ghz);
            assert_eq!(
                split.search.iter().map(|s| s.steps).collect::<Vec<_>>(),
                mono.search.iter().map(|s| s.steps).collect::<Vec<_>>()
            );
            assert_eq!(format!("{}", split.scf), format!("{}", mono.scf));
            assert_eq!(split.report.fallback_kernels, mono.report.fallback_kernels);
        }
        // And the default-parameter composition reproduces the original.
        let recomposed = pipe.finish_characterized(prefix);
        assert_eq!(recomposed.caps_ghz, whole.caps_ghz);
        assert_eq!(format!("{}", recomposed.scf), format!("{}", whole.scf));
    }

    #[test]
    fn capped_program_beats_baseline_edp() {
        // The headline end-to-end property: PolyUFC's output must not be
        // worse than the stock-driver baseline in EDP.
        let plat = Platform::broadwell();
        let pipe = Pipeline::new(plat.clone());
        let input = matmul_program(512);
        let out = pipe.compile_affine(&input).unwrap();
        let eng = ExecutionEngine::noiseless(plat);
        let counters: Vec<_> = out
            .optimized
            .kernels
            .iter()
            .map(|k| polyufc_machine::measure_kernel(&eng.platform, &out.optimized, k))
            .collect();
        let capped = eng.run_scf(&out.scf, &counters);
        let baseline = polyufc_machine::UfsDriver::stock().run_baseline(&eng, &counters);
        assert!(
            capped.edp() <= baseline.edp() * 1.02,
            "capped {} vs baseline {}",
            capped.edp(),
            baseline.edp()
        );
    }
}
