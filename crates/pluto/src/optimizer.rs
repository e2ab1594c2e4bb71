//! The Pluto-style driver: per-kernel optional skewing, legality-checked
//! tiling, and parallel-loop marking off the kernel's dependence summary.

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_ir::deps::{analyze_kernel, DepSummary};

use crate::transform::{skew_loop, tile_kernel};

/// Rectangular tile size of the paper's baseline, Pluto v0.11.4.
const TILE_SIZE: i64 = 32;

/// Kernels whose iteration domain is smaller than this stay untiled
/// (tiling tiny kernels only adds loop overhead).
const MIN_POINTS_TO_TILE: i128 = 4096;

/// The optimizer, fixed to the paper's baseline: Pluto v0.11.4 tiling
/// every permutable band at 32 and marking every parallel loop.
#[derive(Debug, Clone, Copy)]
pub struct PlutoOptimizer;

/// What the optimizer did to one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDecision {
    /// Kernel name.
    pub name: String,
    /// Every skew applied, in order, as `(inner, factor)`: loop `inner`
    /// is shifted by `factor` times the outermost loop.
    pub skewed: Vec<(usize, i64)>,
    /// Whether the kernel was tiled.
    pub tiled: bool,
    /// Parallel loop indices (in the transformed kernel).
    pub parallel_loops: Vec<usize>,
    /// Whether dependence analysis hit its budget (conservative fallback).
    pub analysis_conservative: bool,
}

/// Per-program optimization report (feeds the Table IV compile-time
/// breakdown).
#[derive(Debug, Clone, Default)]
pub struct PlutoReport {
    /// One decision per kernel, in program order.
    pub decisions: Vec<KernelDecision>,
}

impl PlutoOptimizer {
    /// Analyses and optimizes every kernel of a program, returning the
    /// transformed program and a report of the decisions taken.
    pub fn optimize(&self, program: &AffineProgram) -> (AffineProgram, PlutoReport) {
        let deps = program.kernels.iter().map(analyze_kernel).collect();
        self.optimize_with(program, deps)
    }

    /// [`PlutoOptimizer::optimize`] on summaries already built, one per
    /// kernel in program order (the pipeline passes the verify gate's).
    pub fn optimize_with(
        &self,
        program: &AffineProgram,
        deps: Vec<DepSummary>,
    ) -> (AffineProgram, PlutoReport) {
        assert_eq!(deps.len(), program.kernels.len(), "one summary per kernel");
        let mut out = program.clone();
        let mut report = PlutoReport::default();
        for (k, deps) in out.kernels.iter_mut().zip(deps) {
            let (nk, dec) = self.optimize_kernel(k, deps);
            *k = nk;
            report.decisions.push(dec);
        }
        debug_assert_eq!(out.validate(), Ok(()));
        (out, report)
    }

    /// Optimizes a single kernel, given its dependence summary.
    pub fn optimize_kernel(
        &self,
        kernel: &AffineKernel,
        mut deps: DepSummary,
    ) -> (AffineKernel, KernelDecision) {
        let mut dec = KernelDecision {
            name: kernel.name.clone(),
            skewed: Vec::new(),
            tiled: false,
            parallel_loops: Vec::new(),
            analysis_conservative: false,
        };
        let mut k = kernel.clone();
        // Clear any pre-existing parallel marks; we recompute from deps.
        for l in &mut k.loops {
            l.parallel = false;
        }
        dec.analysis_conservative = deps.budget_exceeded;

        // Skew to enable tiling if some inner level can be negative; the
        // summary follows each skew instead of being rebuilt.
        if !deps.fully_permutable() {
            for inner in 1..k.depth() {
                if let Some(min_d @ ..=-1) = deps.min_delta_at(inner, 8) {
                    let factor = -min_d;
                    k = skew_loop(&k, 0, inner, factor);
                    deps = deps.skewed(inner, factor);
                    dec.skewed.push((inner, factor));
                }
            }
        }

        // Mark parallel loops on the (possibly skewed) kernel.
        let parallel: Vec<bool> = (0..k.depth()).map(|d| deps.loop_parallel(d)).collect();
        for (l, &p) in k.loops.iter_mut().zip(&parallel) {
            l.parallel = p;
        }

        // Tile fully permutable bands. Counting the domain is the gate's
        // one costly test, so it goes last.
        let big_enough = || k.domain_size().is_ok_and(|s| s >= MIN_POINTS_TO_TILE);
        if k.depth() >= 2 && deps.fully_permutable() && big_enough() {
            if let Some(tiled) = tile_kernel(&k, TILE_SIZE) {
                k = tiled;
                dec.tiled = true;
            }
        }
        dec.parallel_loops = k
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.parallel)
            .map(|(i, _)| i)
            .collect();
        (k, dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, Bound, Loop, Statement};
    use polyufc_ir::types::ElemType;
    use polyufc_presburger::LinExpr;

    fn matmul_program(n: usize) -> AffineProgram {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![n, n], ElemType::F64);
        let b = p.add_array("B", vec![n, n], ElemType::F64);
        let c = p.add_array("C", vec![n, n], ElemType::F64);
        let (vi, vj, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        p.kernels.push(AffineKernel {
            name: "mm".into(),
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

    #[test]
    fn matmul_gets_tiled_and_parallel() {
        let p = matmul_program(64);
        let (opt, report) = PlutoOptimizer.optimize(&p);
        let d = &report.decisions[0];
        assert!(d.tiled);
        assert!(d.skewed.is_empty());
        let k = &opt.kernels[0];
        assert_eq!(k.depth(), 6);
        // Tile loops for i and j are parallel, k is not.
        assert!(k.loops[0].parallel && k.loops[1].parallel && !k.loops[2].parallel);
        // Domain preserved.
        assert_eq!(k.domain_size().unwrap(), 64 * 64 * 64);
    }

    #[test]
    fn small_kernels_left_untiled() {
        let p = matmul_program(8);
        let (opt, report) = PlutoOptimizer.optimize(&p);
        assert!(!report.decisions[0].tiled);
        assert_eq!(opt.kernels[0].depth(), 3);
    }

    #[test]
    fn stencil_skewed_then_tiled() {
        let mut p = AffineProgram::new("j1d");
        let a = p.add_array("A", vec![128], ElemType::F64);
        let vi = LinExpr::var(1);
        p.kernels.push(AffineKernel {
            name: "j1d".into(),
            loops: vec![
                Loop::range(64),
                Loop::new(Bound::constant(1), Bound::constant(127)),
            ],
            statements: vec![Statement {
                name: "S".into(),
                accesses: vec![
                    Access::read(a, vec![vi.clone() - LinExpr::constant(1)]),
                    Access::read(a, vec![vi.clone()]),
                    Access::read(a, vec![vi.clone() + LinExpr::constant(1)]),
                    Access::write(a, vec![vi]),
                ],
                flops: 3,
            }],
        });
        let (opt, report) = PlutoOptimizer.optimize(&p);
        let d = &report.decisions[0];
        assert_eq!(d.skewed, [(1, 1)]);
        assert!(d.tiled);
        assert_eq!(opt.kernels[0].domain_size().unwrap(), 64 * 126);
    }

    #[test]
    fn optimized_trace_equals_original() {
        use polyufc_ir::interp::{interpret_program, TraceStats};
        let p = matmul_program(40);
        let (opt, _) = PlutoOptimizer.optimize(&p);
        let mut s1 = TraceStats::default();
        interpret_program(&p, &mut s1);
        let mut s2 = TraceStats::default();
        interpret_program(&opt, &mut s2);
        assert_eq!(s1, s2);
    }

    /// jacobi-2d-style: `for t, i, j { s0: B[i][j] = f(A ·5); s1: A[i][j] =
    /// f(B ·5) }` — the two arrays' taps yield the same delta sets.
    fn five_point_kernel() -> AffineKernel {
        let mut p = AffineProgram::new("j2d");
        let a = p.add_array("A", vec![66, 66], ElemType::F64);
        let b = p.add_array("B", vec![66, 66], ElemType::F64);
        let (vi, vj) = (LinExpr::var(1), LinExpr::var(2));
        let sweep = |name: &str, src, dst| {
            let mut accesses: Vec<Access> = [(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)]
                .iter()
                .map(|&(di, dj)| {
                    let tap = vec![
                        vi.clone() + LinExpr::constant(di),
                        vj.clone() + LinExpr::constant(dj),
                    ];
                    Access::read(src, tap)
                })
                .collect();
            accesses.push(Access::write(dst, vec![vi.clone(), vj.clone()]));
            Statement {
                name: name.into(),
                accesses,
                flops: 5,
            }
        };
        let interior = || Loop::new(Bound::constant(1), Bound::constant(65));
        AffineKernel {
            name: "j2d".into(),
            loops: vec![Loop::range(8), interior(), interior()],
            statements: vec![sweep("s0", a, b), sweep("s1", b, a)],
        }
    }

    #[test]
    fn repeated_dependences_are_recorded_once() {
        let k = five_point_kernel();
        let d = analyze_kernel(&k);
        for (i, dep) in d.dependences.iter().enumerate() {
            for other in &d.dependences[i + 1..] {
                assert_ne!(dep.delta.basics(), other.delta.basics());
            }
        }
        // Dropping the repeats changes no answer: the decision is the one
        // taken with every pair's delta set kept.
        let (_, dec) = PlutoOptimizer.optimize_kernel(&k, d);
        assert_eq!(
            dec,
            KernelDecision {
                name: "j2d".into(),
                skewed: vec![(1, 1), (2, 1)],
                tiled: true,
                parallel_loops: vec![],
                analysis_conservative: false,
            }
        );
    }
}
