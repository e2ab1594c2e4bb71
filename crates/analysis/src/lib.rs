//! Static verification of affine programs: a pass framework over the
//! PolyUFC affine IR with structured diagnostics, backed by the
//! Presburger layer and the dependence summaries of [`polyufc_ir::deps`].
//!
//! Four passes, in fixed order:
//!
//! 1. [`verify_ir`] — structural lints (dangling arrays, arity/scope
//!    violations, empty domains, unused arrays). Kernels with structural
//!    *errors* are skipped by the later polyhedral passes.
//! 2. [`bounds`] — proves every access-map image lies inside its memref
//!    shape, with a sampled witness iteration on violation.
//! 3. [`races`] — proves every `parallel`-flagged loop free of
//!    loop-carried dependences by asking the kernel's dependence summary
//!    (built here, returned as [`AnalysisReport::deps`]), with a witness
//!    iteration pair on violation.
//! 4. [`audit`] — cross-checks the cache model's per-kernel counters
//!    against independently recomputed access-relation cardinalities
//!    (optional: needs the model's numbers, see
//!    [`Analyzer::analyze_with_model`]).
//!
//! The same report feeds two consumers: the `polyufc lint` subcommand
//! and the pipeline's pre-compilation verify gate.
//!
//! # Example
//!
//! ```
//! use polyufc_analysis::Analyzer;
//! use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
//! use polyufc_ir::types::ElemType;
//! use polyufc_presburger::LinExpr;
//!
//! let mut p = AffineProgram::new("demo");
//! let a = p.add_array("A", vec![8], ElemType::F64);
//! let mut l = Loop::range(8);
//! l.parallel = true; // provably safe: disjoint writes
//! p.kernels.push(AffineKernel {
//!     name: "init".into(),
//!     loops: vec![l],
//!     statements: vec![Statement {
//!         name: "S0".into(),
//!         accesses: vec![Access::write(a, vec![LinExpr::var(0)])],
//!         flops: 0,
//!     }],
//! });
//! let report = Analyzer::new().analyze(&p);
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod bounds;
pub mod diag;
pub mod races;
pub mod selflint;
pub mod verify_ir;

pub use audit::ModelCounts;
pub use diag::{AnalysisReport, AnalysisStats, Diagnostic, Location, Severity, Witness};

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_ir::deps::analyze_kernel;
use polyufc_presburger::Context;

/// Drives the pass pipeline over a program.
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    /// An analyzer running all structural and polyhedral passes.
    pub fn new() -> Self {
        Analyzer
    }

    /// Runs the structural, bounds, and race passes.
    ///
    /// All Presburger queries of one run outside the dependence summaries
    /// go through a single batched [`Context`], one arena-backed solver
    /// system; the report's [`AnalysisStats`] records its accounting.
    pub fn analyze(&self, program: &AffineProgram) -> AnalysisReport {
        self.analyze_in(program, &mut Context::new())
    }

    /// [`Analyzer::analyze`] against a caller-provided solver context
    /// (e.g. the pipeline's, so its stats aggregate across phases).
    pub fn analyze_in(&self, program: &AffineProgram, ctx: &mut Context) -> AnalysisReport {
        let verdict = verify_ir::check_program_in(program, ctx);
        let mut diagnostics = verdict.diagnostics;
        let mut deps = Vec::with_capacity(program.kernels.len());
        for (kernel, &malformed) in program.kernels.iter().zip(&verdict.malformed) {
            if malformed {
                continue;
            }
            let summary = analyze_kernel(kernel);
            diagnostics.extend(bounds::check_kernel_in(program, kernel, ctx));
            diagnostics.extend(races::check_kernel_in(program, kernel, &summary, ctx));
            deps.push(summary);
        }
        AnalysisReport {
            program: program.name.clone(),
            diagnostics,
            stats: AnalysisStats {
                emptiness_batches: ctx.batches(),
                emptiness_checks: ctx.checks(),
                peak_arena_bytes: ctx.peak_arena_bytes(),
            },
            deps,
        }
    }

    /// Runs all passes including the model-consistency audit.
    /// `counts` holds the cache model's per-kernel numbers in kernel
    /// order; `line_bytes` is the model's cache-line size.
    pub fn analyze_with_model(
        &self,
        program: &AffineProgram,
        counts: &[ModelCounts],
        line_bytes: u64,
    ) -> AnalysisReport {
        let mut report = self.analyze(program);
        report
            .diagnostics
            .extend(audit::audit_program(program, counts, line_bytes));
        report
    }
}

/// Downgrades every `parallel` flag that cannot be *proven* safe to a
/// sequential loop, returning one warning diagnostic per downgrade.
///
/// This is the trust-hole fix for frontends (`ir::textual`,
/// `cgeist`) that accept parallel markers from the input file: instead of
/// trusting the marker, the dependence test either proves it or the loop
/// runs sequentially. Only a flagged kernel's dependences are analysed.
pub fn sanitize_parallel(program: &mut AffineProgram) -> Vec<Diagnostic> {
    let flagged = |k: &AffineKernel| k.loops.iter().any(|l| l.parallel);
    if !program.kernels.iter().any(flagged) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut ctx = Context::new();
    let malformed_kernels = verify_ir::check_program_in(program, &mut ctx).malformed;
    for (kernel, malformed) in program.kernels.iter_mut().zip(malformed_kernels) {
        if !flagged(kernel) {
            continue;
        }
        let deps = (!malformed).then(|| analyze_kernel(kernel));
        for d in 0..kernel.depth() {
            if !kernel.loops[d].parallel {
                continue;
            }
            let reason = match &deps {
                None => Some("kernel is structurally malformed".to_string()),
                Some(deps) => match races::carried_in(kernel, deps, d, &mut ctx) {
                    Ok(None) => None,
                    Ok(Some(w)) => Some(format!(
                        "carries a {} dependence (witness iterations {:?} -> {:?})",
                        w.kind, w.src, w.dst
                    )),
                    Err(e) => Some(format!("independence not provable (solver: {e})")),
                },
            };
            if let Some(reason) = reason {
                kernel.loops[d].parallel = false;
                out.push(Diagnostic {
                    pass: races::PASS,
                    severity: Severity::Warning,
                    location: Location::kernel(&kernel.name).loop_index(d),
                    message: format!(
                        "unverified `parallel` marker downgraded to sequential: {reason}"
                    ),
                    witness: None,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, AffineKernel, Loop, Statement};
    use polyufc_ir::types::ElemType;
    use polyufc_presburger::LinExpr;

    /// A reduction `s[0] += A[i]` with a (false) parallel marker.
    fn false_parallel_reduction() -> AffineProgram {
        let mut p = AffineProgram::new("red");
        let a = p.add_array("A", vec![8], ElemType::F64);
        let s = p.add_array("s", vec![1], ElemType::F64);
        let mut l = Loop::range(8);
        l.parallel = true;
        p.kernels.push(AffineKernel {
            name: "red".into(),
            loops: vec![l],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0)]),
                    Access::read(s, vec![LinExpr::constant(0)]),
                    Access::write(s, vec![LinExpr::constant(0)]),
                ],
                flops: 1,
            }],
        });
        p
    }

    #[test]
    fn analyzer_orders_passes_and_skips_malformed() {
        let mut p = false_parallel_reduction();
        // Break the kernel structurally: the race pass must not run on it.
        p.kernels[0].statements[0].accesses[0].array = polyufc_ir::types::ArrayId(9);
        let r = Analyzer::new().analyze(&p);
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().all(|d| d.pass != races::PASS));
    }

    #[test]
    fn analyzer_catches_false_parallel() {
        let r = Analyzer::new().analyze(&false_parallel_reduction());
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.pass == races::PASS));
    }

    #[test]
    fn sanitize_downgrades_with_warning() {
        let mut p = false_parallel_reduction();
        let diags = sanitize_parallel(&mut p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(!p.kernels[0].loops[0].parallel);
        // Now clean: the downgraded program passes the analyzer.
        assert!(Analyzer::new().analyze(&p).is_clean());
        // Idempotent.
        assert!(sanitize_parallel(&mut p).is_empty());
    }

    #[test]
    fn sanitize_keeps_provable_flags() {
        let mut p = AffineProgram::new("ok");
        let a = p.add_array("A", vec![4], ElemType::F64);
        let mut l = Loop::range(4);
        l.parallel = true;
        p.kernels.push(AffineKernel {
            name: "k".into(),
            loops: vec![l],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![Access::write(a, vec![LinExpr::var(0)])],
                flops: 0,
            }],
        });
        assert!(sanitize_parallel(&mut p).is_empty());
        assert!(p.kernels[0].loops[0].parallel);
    }
}
