//! Bounds checking: prove every access-map image lies inside its memref
//! shape by intersecting the iteration domain with the out-of-shape
//! half-spaces and deciding integer emptiness; a nonempty intersection is
//! sampled into a concrete violating iteration.

use polyufc_ir::affine::{AffineKernel, AffineProgram};
use polyufc_presburger::{BasicSet, Context, Emptiness, LinExpr};

use crate::diag::{Diagnostic, Location, Severity, Witness};

/// Pass identifier.
pub const PASS: &str = "bounds";

/// One side of one subscript to check, with everything needed to render a
/// diagnostic if its out-of-shape half-space turns out inhabited.
struct SideCheck<'a> {
    /// Identifies the subscript: (statement index, access index, dim).
    subscript: (usize, usize, usize),
    statement: &'a str,
    array: &'a str,
    is_write: bool,
    side: &'static str,
    extent: i64,
    expr: &'a LinExpr,
    /// Index of the half-space in the deduplicated list.
    space: usize,
}

/// Checks every access of `kernel` against its array's declared shape.
///
/// For each subscript `e_j` of an access to an array with extent `n_j` in
/// dimension `j`, the access is in bounds iff both
/// `D ∩ { i : e_j(i) <= -1 }` and `D ∩ { i : e_j(i) >= n_j }` are empty.
///
/// Structurally malformed accesses (bad array id, wrong arity, subscripts
/// referencing out-of-scope iterators) are skipped — the IR verifier
/// reports those.
///
/// Every distinct out-of-shape half-space of the kernel is built once —
/// subscripts repeat across accesses, and a half-space is fixed by its
/// constraint alone — and all are decided in one emptiness batch through
/// the shared solver [`Context`]; each side shares its half-space's
/// verdict, and only inhabited ones pay for a witness sample.
pub fn check_kernel_in(
    program: &AffineProgram,
    kernel: &AffineKernel,
    ctx: &mut Context,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let depth = kernel.depth();
    let dom = kernel.domain();
    let dom_b = &dom.basics()[0];
    let mut checks = Vec::new();
    // (excess, D ∩ { excess >= 0 }) per distinct half-space.
    let mut spaces: Vec<(LinExpr, BasicSet)> = Vec::new();
    for (si, s) in kernel.statements.iter().enumerate() {
        for (ai, a) in s.accesses.iter().enumerate() {
            if a.array.0 >= program.arrays.len() {
                continue;
            }
            let decl = program.array(a.array);
            if a.indices.len() != decl.dims.len() {
                continue;
            }
            for (j, e) in a.indices.iter().enumerate() {
                if e.terms().any(|(i, _)| i >= depth) {
                    continue;
                }
                let extent = decl.dims[j] as i64;
                // (side name, out-of-shape half-space constraint e' >= 0).
                let sides = [
                    ("below", LinExpr::constant(-1) - e.clone()),
                    ("above", e.clone() - LinExpr::constant(extent)),
                ];
                for (side, excess) in sides {
                    let space = spaces.iter().position(|(x, _)| *x == excess);
                    let space = space.unwrap_or_else(|| {
                        spaces.push((excess.clone(), dom_b.with_ge0(excess)));
                        spaces.len() - 1
                    });
                    checks.push(SideCheck {
                        subscript: (si, ai, j),
                        statement: &s.name,
                        array: &decl.name,
                        is_write: a.is_write,
                        side,
                        extent,
                        expr: e,
                        space,
                    });
                }
            }
        }
    }
    let verdicts = ctx.check_all(spaces.iter().map(|(_, viol)| viol));
    // One witness per subscript dimension suffices: once a subscript has
    // produced a diagnostic, its remaining sides are skipped (matching the
    // sequential checker's per-subscript `break`).
    let mut done_subscript = None;
    for c in &checks {
        if done_subscript == Some(c.subscript) {
            continue;
        }
        let location = || {
            Location::kernel(&kernel.name)
                .statement(c.statement)
                .array(c.array)
        };
        match &verdicts[c.space] {
            Emptiness::Empty => {}
            Emptiness::NonEmpty => {
                let pt = match ctx.sample(&spaces[c.space].1) {
                    Ok(Some(pt)) => pt,
                    Ok(None) => continue,
                    Err(e) => {
                        out.push(Diagnostic {
                            pass: PASS,
                            severity: Severity::Error,
                            location: location(),
                            message: format!(
                                "cannot prove subscript {} of `{}` in bounds (solver: {e})",
                                c.subscript.2, c.array
                            ),
                            witness: None,
                        });
                        done_subscript = Some(c.subscript);
                        continue;
                    }
                };
                let iters = pt[..depth].to_vec();
                let index_value = c.expr.eval(&iters);
                out.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    location: location(),
                    message: format!(
                        "{} access to `{}` escapes dim {} ({}; extent {})",
                        if c.is_write { "store" } else { "load" },
                        c.array,
                        c.subscript.2,
                        c.side,
                        c.extent
                    ),
                    witness: Some(Witness::Point {
                        iters,
                        dim: c.subscript.2,
                        index_value,
                    }),
                });
                done_subscript = Some(c.subscript);
            }
            Emptiness::Unknown(e) => {
                out.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    location: location(),
                    message: format!(
                        "cannot prove subscript {} of `{}` in bounds (solver: {e})",
                        c.subscript.2, c.array
                    ),
                    witness: None,
                });
                done_subscript = Some(c.subscript);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
    use polyufc_ir::types::ElemType;

    fn stencil(extent: i64, array_len: usize, shift: i64) -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("st");
        let a = p.add_array("A", vec![array_len], ElemType::F64);
        let b = p.add_array("B", vec![extent as usize], ElemType::F64);
        let kern = AffineKernel {
            name: "st".into(),
            loops: vec![Loop::range(extent)],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0) + LinExpr::constant(shift)]),
                    Access::write(b, vec![LinExpr::var(0)]),
                ],
                flops: 1,
            }],
        };
        p.kernels.push(kern.clone());
        (p, kern)
    }

    #[test]
    fn in_bounds_is_clean() {
        let (p, k) = stencil(15, 16, 1);
        assert!(check_kernel_in(&p, &k, &mut Context::new()).is_empty());
    }

    #[test]
    fn overflow_above_with_witness() {
        let (p, k) = stencil(16, 16, 1);
        let d = check_kernel_in(&p, &k, &mut Context::new());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].pass, PASS);
        match &d[0].witness {
            Some(Witness::Point {
                iters,
                dim,
                index_value,
            }) => {
                assert_eq!(*dim, 0);
                assert!(*index_value >= 16);
                assert_eq!(iters[0] + 1, *index_value);
            }
            other => panic!("expected point witness, got {other:?}"),
        }
    }

    #[test]
    fn underflow_below_with_witness() {
        let (p, k) = stencil(16, 16, -1);
        let d = check_kernel_in(&p, &k, &mut Context::new());
        assert_eq!(d.len(), 1);
        match &d[0].witness {
            Some(Witness::Point { index_value, .. }) => assert!(*index_value < 0),
            other => panic!("expected point witness, got {other:?}"),
        }
        assert!(d[0].message.contains("below"));
    }

    #[test]
    fn empty_domain_is_vacuously_in_bounds() {
        let (mut p, mut k) = stencil(16, 4, 100);
        // Make the domain empty: lb 8, ub 4.
        k.loops[0] = Loop::new(
            polyufc_ir::affine::Bound::constant(8),
            polyufc_ir::affine::Bound::constant(4),
        );
        p.kernels[0] = k.clone();
        assert!(check_kernel_in(&p, &k, &mut Context::new()).is_empty());
    }

    #[test]
    fn triangular_domain_bounds_are_exact() {
        // for i in 0..8 { for j in 0..=i { B[i][j] } } with B 8x8: clean;
        // with B 8x7 the diagonal j = 7 only occurs at i = 7.
        use polyufc_ir::affine::Bound;
        let mut p = AffineProgram::new("tri");
        let b = p.add_array("B", vec![8, 7], ElemType::F64);
        let kern = AffineKernel {
            name: "tri".into(),
            loops: vec![
                Loop::range(8),
                Loop::new(
                    Bound::constant(0),
                    Bound::expr(LinExpr::var(0) + LinExpr::constant(1)),
                ),
            ],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![Access::write(b, vec![LinExpr::var(0), LinExpr::var(1)])],
                flops: 0,
            }],
        };
        p.kernels.push(kern.clone());
        let d = check_kernel_in(&p, &kern, &mut Context::new());
        assert_eq!(d.len(), 1);
        match &d[0].witness {
            Some(Witness::Point {
                iters,
                dim,
                index_value,
            }) => {
                assert_eq!(*dim, 1);
                assert_eq!(*index_value, 7);
                assert_eq!(iters[0], 7);
            }
            other => panic!("expected point witness, got {other:?}"),
        }
    }
}
