//! Race detection for `parallel`-flagged loops, read off the kernel's
//! dependence summary ([`polyufc_ir::deps`]), with sampled witness
//! iteration pairs.
//!
//! A loop at depth `d` may run in parallel iff no two iterations that agree
//! on the outer iterators and differ at `d` touch one element with at least
//! one write: iff [`DepSummary::loop_parallel`]. Only a refuted flag pays
//! for a witness: the relation of the access pair `(p, q)` behind the
//! level's first dependence (the first pair, in nesting order, that has
//! one) is rebuilt and sampled,
//!
//! ```text
//! { [i] -> [i'] : i, i' ∈ D,  E_p(i) = E_q(i'),  i_j = i'_j (j < d),  i_d < i'_d }
//! ```

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_ir::deps::{access_relation, analyze_kernel, DepSummary};
use polyufc_presburger::{Context, Emptiness, LinExpr, Result as PresburgerResult};

use crate::diag::{Diagnostic, Location, Severity, Witness};

/// Pass identifier.
pub const PASS: &str = "race";

/// Proof that a loop level carries a dependence: two conflicting
/// iteration instances and what they collide on.
#[derive(Debug, Clone)]
pub struct RaceWitness {
    /// Source iteration vector.
    pub src: Vec<i64>,
    /// Later conflicting iteration vector.
    pub dst: Vec<i64>,
    /// Index of the conflicting array in the program's symbol table.
    pub array: usize,
    /// Statements of the two conflicting accesses.
    pub statements: (String, String),
    /// `"write-write"` or `"read-write"`.
    pub kind: &'static str,
}

/// Decides whether loop `level` of `kernel` carries a loop-carried
/// dependence, returning a concrete witness pair if one exists and `None`
/// if the loop is proven independent.
///
/// Preconditions: the kernel is structurally valid (array arities and
/// subscript depths check out) — run the IR verifier first.
///
/// # Errors
///
/// Propagates Presburger solver errors (budget exhaustion); callers must
/// treat an error as "cannot prove independent".
pub fn carried_dependence(
    kernel: &AffineKernel,
    level: usize,
) -> PresburgerResult<Option<RaceWitness>> {
    if level >= kernel.depth() {
        return Ok(None);
    }
    carried_in(kernel, &analyze_kernel(kernel), level, &mut Context::new())
}

/// [`carried_dependence`] against the kernel's summary, sampling through
/// `ctx`; `level` must be below the kernel's depth.
pub(crate) fn carried_in(
    kernel: &AffineKernel,
    deps: &DepSummary,
    level: usize,
    ctx: &mut Context,
) -> PresburgerResult<Option<RaceWitness>> {
    if deps.loop_parallel(level) {
        return Ok(None);
    }
    let depth = kernel.depth();
    let dom = kernel.domain();
    for dep in deps.dependences.iter().filter(|d| d.level == level) {
        let [(si, ai), (sj, aj)] = dep.pair;
        let (sp, sq) = (&kernel.statements[si], &kernel.statements[sj]);
        let (p, q) = (&sp.accesses[ai], &sq.accesses[aj]);
        let mut m = access_relation(&dom.basics()[0], p, q);
        // Same outer iterators, strictly later at `level`.
        for j in 0..level {
            m.basic_set_mut()
                .add_eq(LinExpr::var(j) - LinExpr::var(depth + j));
        }
        m.basic_set_mut()
            .add_ge0(LinExpr::var(depth + level) - LinExpr::var(level) - LinExpr::constant(1));
        // Only a set kept on an exhausted budget can be empty, and a sample
        // search over an empty set exhausts its own: decide emptiness first.
        match ctx.check(m.as_basic_set()) {
            Emptiness::Empty => continue,
            Emptiness::Unknown(e) => return Err(e),
            Emptiness::NonEmpty => {}
        }
        if let Some((src, dst)) = m.sample_pair_in(ctx)? {
            return Ok(Some(RaceWitness {
                src,
                dst,
                array: p.array.0,
                statements: (sp.name.clone(), sq.name.clone()),
                kind: if p.is_write && q.is_write {
                    "write-write"
                } else {
                    "read-write"
                },
            }));
        }
    }
    Ok(None)
}

/// Checks every `parallel`-flagged loop of `kernel` against its summary
/// `deps`, emitting one error per racy (or unprovable) loop.
pub fn check_kernel_in(
    program: &AffineProgram,
    kernel: &AffineKernel,
    deps: &DepSummary,
    ctx: &mut Context,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (d, l) in kernel.loops.iter().enumerate() {
        if !l.parallel {
            continue;
        }
        match carried_in(kernel, deps, d, ctx) {
            Ok(None) => {}
            Ok(Some(w)) => {
                let arr = program
                    .array(polyufc_ir::types::ArrayId(w.array))
                    .name
                    .clone();
                out.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    location: Location::kernel(&kernel.name)
                        .loop_index(d)
                        .array(arr.clone()),
                    message: format!(
                        "`parallel` loop carries a {} dependence on `{}` ({} vs {})",
                        w.kind, arr, w.statements.0, w.statements.1
                    ),
                    witness: Some(Witness::IterationPair {
                        src: w.src,
                        dst: w.dst,
                    }),
                });
            }
            Err(e) => out.push(Diagnostic {
                pass: PASS,
                severity: Severity::Error,
                location: Location::kernel(&kernel.name).loop_index(d),
                message: format!("cannot prove `parallel` loop independent (solver: {e})"),
                witness: None,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, Loop, Statement};
    use polyufc_ir::types::ElemType;

    /// The race pass over one kernel, as the analyzer runs it.
    fn check_kernel(program: &AffineProgram, kernel: &AffineKernel) -> Vec<Diagnostic> {
        check_kernel_in(
            program,
            kernel,
            &analyze_kernel(kernel),
            &mut Context::new(),
        )
    }

    /// matmul: `C[i][j] += A[i][k] * B[k][j]`, 4x4x4.
    fn matmul(parallel_levels: &[usize]) -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![4, 4], ElemType::F64);
        let b = p.add_array("B", vec![4, 4], ElemType::F64);
        let c = p.add_array("C", vec![4, 4], ElemType::F64);
        let (i, j, k) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        let mut loops = vec![Loop::range(4), Loop::range(4), Loop::range(4)];
        for &d in parallel_levels {
            loops[d].parallel = true;
        }
        let kern = AffineKernel {
            name: "mm".into(),
            loops,
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![i.clone(), k.clone()]),
                    Access::read(b, vec![k, j.clone()]),
                    Access::read(c, vec![i.clone(), j.clone()]),
                    Access::write(c, vec![i, j]),
                ],
                flops: 2,
            }],
        };
        p.kernels.push(kern.clone());
        (p, kern)
    }

    #[test]
    fn matmul_outer_loops_are_independent() {
        let (_, k) = matmul(&[]);
        assert!(carried_dependence(&k, 0).unwrap().is_none());
        assert!(carried_dependence(&k, 1).unwrap().is_none());
    }

    #[test]
    fn matmul_reduction_loop_races_with_witness() {
        let (_, kern) = matmul(&[]);
        let w = carried_dependence(&kern, 2).unwrap().expect("race on k");
        // The witness is a genuine conflict: same (i, j), different k, and
        // both instances touch C[i][j] with at least one write.
        assert_eq!(w.src[0], w.dst[0]);
        assert_eq!(w.src[1], w.dst[1]);
        assert!(w.src[2] < w.dst[2]);
        assert_eq!(w.array, 2);
    }

    #[test]
    fn check_kernel_flags_only_marked_loops() {
        let (p, kern) = matmul(&[0, 1]);
        assert!(check_kernel(&p, &kern).is_empty());
        let (p, kern) = matmul(&[2]);
        let diags = check_kernel(&p, &kern);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, PASS);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].location.loop_index, Some(2));
        assert!(matches!(
            diags[0].witness,
            Some(Witness::IterationPair { .. })
        ));
    }

    #[test]
    fn stencil_shift_race_is_caught() {
        // for i in 0..8 (parallel): A[i] = A[i+1] — cross-iteration
        // read-write dependence.
        let mut p = AffineProgram::new("shift");
        let a = p.add_array("A", vec![9], ElemType::F64);
        let mut l = Loop::range(8);
        l.parallel = true;
        let kern = AffineKernel {
            name: "shift".into(),
            loops: vec![l],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0) + LinExpr::constant(1)]),
                    Access::write(a, vec![LinExpr::var(0)]),
                ],
                flops: 1,
            }],
        };
        p.kernels.push(kern.clone());
        let w = carried_dependence(&kern, 0).unwrap().expect("race");
        assert_eq!(w.dst[0], w.src[0] + 1);
        assert_eq!(w.kind, "read-write");
    }

    #[test]
    fn disjoint_writes_are_parallel() {
        // for i in 0..8 (parallel): B[i] = A[i] — no conflict.
        let mut p = AffineProgram::new("copy");
        let a = p.add_array("A", vec![8], ElemType::F64);
        let b = p.add_array("B", vec![8], ElemType::F64);
        let mut l = Loop::range(8);
        l.parallel = true;
        let kern = AffineKernel {
            name: "copy".into(),
            loops: vec![l],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0)]),
                    Access::write(b, vec![LinExpr::var(0)]),
                ],
                flops: 0,
            }],
        };
        p.kernels.push(kern.clone());
        assert!(check_kernel(&p, &kern).is_empty());
    }
}
