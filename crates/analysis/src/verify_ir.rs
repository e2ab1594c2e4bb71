//! Structural IR verification: the lints that need no dependence analysis
//! — dangling arrays, arity and scope violations, dead (empty) iteration
//! domains, unused arrays. Runs first; kernels it marks malformed are
//! skipped by the bounds and race passes (their polyhedral constructions
//! assume a well-formed kernel).

use std::collections::BTreeSet;

use polyufc_ir::affine::AffineProgram;
use polyufc_presburger::{Context, Emptiness};

use crate::diag::{Diagnostic, Location, Severity};

/// Pass identifier.
pub const PASS: &str = "ir-verify";

/// Outcome of the structural pass: the findings plus a per-kernel flag
/// telling downstream passes which kernels are too broken to analyze.
#[derive(Debug, Clone, Default)]
pub struct IrVerdict {
    /// All structural findings.
    pub diagnostics: Vec<Diagnostic>,
    /// `malformed[k]` — kernel `k` has a structural error (bad array id,
    /// arity mismatch, out-of-scope iterator).
    pub malformed: Vec<bool>,
}

/// Runs all structural checks over a program. The per-kernel dead-domain
/// emptiness queries go through the shared batched solver [`Context`].
pub fn check_program_in(program: &AffineProgram, ctx: &mut Context) -> IrVerdict {
    let mut v = IrVerdict::default();
    let mut used_arrays: BTreeSet<usize> = BTreeSet::new();
    for kernel in &program.kernels {
        let mut malformed = false;
        let depth = kernel.depth();
        let loc = || Location::kernel(&kernel.name);
        // Loop bounds may only reference enclosing (outer) iterators.
        for (d, l) in kernel.loops.iter().enumerate() {
            for e in l.lb.exprs.iter().chain(&l.ub.exprs) {
                if let Some(bad) = e
                    .terms()
                    .filter(|&(i, c)| c != 0 && i >= d)
                    .map(|(i, _)| i)
                    .max()
                {
                    malformed = true;
                    v.diagnostics.push(Diagnostic {
                        pass: PASS,
                        severity: Severity::Error,
                        location: loc().loop_index(d),
                        message: format!(
                            "bound of loop %i{d} references iterator %i{bad} (only outer iterators are in scope)"
                        ),
                        witness: None,
                    });
                }
            }
        }
        for s in &kernel.statements {
            for a in &s.accesses {
                if a.array.0 >= program.arrays.len() {
                    malformed = true;
                    v.diagnostics.push(Diagnostic {
                        pass: PASS,
                        severity: Severity::Error,
                        location: loc().statement(&s.name),
                        message: format!(
                            "access references undeclared array {} ({} arrays declared)",
                            a.array,
                            program.arrays.len()
                        ),
                        witness: None,
                    });
                    continue;
                }
                used_arrays.insert(a.array.0);
                let decl = program.array(a.array);
                if a.indices.len() != decl.dims.len() {
                    malformed = true;
                    v.diagnostics.push(Diagnostic {
                        pass: PASS,
                        severity: Severity::Error,
                        location: loc().statement(&s.name).array(decl.name.clone()),
                        message: format!(
                            "access has {} subscripts, `{}` has {} dims",
                            a.indices.len(),
                            decl.name,
                            decl.dims.len()
                        ),
                        witness: None,
                    });
                }
                for (j, e) in a.indices.iter().enumerate() {
                    if let Some(bad) = e
                        .terms()
                        .filter(|&(i, c)| c != 0 && i >= depth)
                        .map(|(i, _)| i)
                        .max()
                    {
                        malformed = true;
                        v.diagnostics.push(Diagnostic {
                            pass: PASS,
                            severity: Severity::Error,
                            location: loc().statement(&s.name).array(decl.name.clone()),
                            message: format!(
                                "subscript {j} references iterator %i{bad} beyond nest depth {depth}"
                            ),
                            witness: None,
                        });
                    }
                }
            }
        }
        if kernel.statements.is_empty() {
            v.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                location: loc(),
                message: "kernel has no statements".into(),
                witness: None,
            });
        }
        // Dead domain: statements can never execute. The cache model
        // rejects such kernels outright, so this is an error, not a lint.
        // Only decidable when the bounds themselves are well-formed.
        if !malformed && depth > 0 {
            match ctx.check_set(&kernel.domain()) {
                Emptiness::Empty => v.diagnostics.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    location: loc(),
                    message: "empty iteration domain: no statement instance can execute".into(),
                    witness: None,
                }),
                Emptiness::NonEmpty => {}
                Emptiness::Unknown(e) => v.diagnostics.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Warning,
                    location: loc(),
                    message: format!("cannot decide whether the iteration domain is empty ({e})"),
                    witness: None,
                }),
            }
        }
        v.malformed.push(malformed);
    }
    for (idx, a) in program.arrays.iter().enumerate() {
        if a.is_empty() {
            v.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                location: Location::default().array(a.name.clone()),
                message: "array has zero elements".into(),
                witness: None,
            });
        }
        if !used_arrays.contains(&idx) {
            v.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                location: Location::default().array(a.name.clone()),
                message: "array is declared but never accessed".into(),
                witness: None,
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{Access, AffineKernel, Bound, Loop, Statement};
    use polyufc_ir::types::{ArrayId, ElemType};
    use polyufc_presburger::LinExpr;

    fn clean_program() -> AffineProgram {
        let mut p = AffineProgram::new("ok");
        let a = p.add_array("A", vec![4], ElemType::F64);
        p.kernels.push(AffineKernel {
            name: "k".into(),
            loops: vec![Loop::range(4)],
            statements: vec![Statement {
                name: "S0".into(),
                accesses: vec![Access::write(a, vec![LinExpr::var(0)])],
                flops: 1,
            }],
        });
        p
    }

    #[test]
    fn clean_program_has_no_findings() {
        let v = check_program_in(&clean_program(), &mut Context::new());
        assert!(v.diagnostics.is_empty());
        assert_eq!(v.malformed, vec![false]);
    }

    #[test]
    fn dangling_array_is_malformed() {
        let mut p = clean_program();
        p.kernels[0].statements[0].accesses[0].array = ArrayId(7);
        let v = check_program_in(&p, &mut Context::new());
        assert_eq!(v.malformed, vec![true]);
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("undeclared array")));
        // A now stands unused as well.
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.message.contains("never accessed")));
    }

    #[test]
    fn arity_and_scope_violations() {
        let mut p = clean_program();
        p.kernels[0].statements[0].accesses.push(Access::read(
            ArrayId(0),
            vec![LinExpr::var(0), LinExpr::var(1)],
        ));
        let v = check_program_in(&p, &mut Context::new());
        assert!(v.malformed[0]);
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.message.contains("subscripts")));
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.message.contains("beyond nest depth")));
    }

    #[test]
    fn empty_domain_is_an_error() {
        let mut p = clean_program();
        p.kernels[0].loops[0] = Loop::new(Bound::constant(8), Bound::constant(4));
        let v = check_program_in(&p, &mut Context::new());
        assert!(!v.malformed[0]);
        assert!(
            v.diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error
                    && d.message.contains("empty iteration domain"))
        );
    }

    #[test]
    fn bad_bound_scope_is_an_error() {
        let mut p = clean_program();
        p.kernels[0].loops[0].ub = Bound::expr(LinExpr::var(2));
        let v = check_program_in(&p, &mut Context::new());
        assert!(v.malformed[0]);
        assert!(v
            .diagnostics
            .iter()
            .any(|d| d.message.contains("only outer iterators")));
    }

    #[test]
    fn empty_kernel_and_zero_array_warn() {
        let mut p = AffineProgram::new("warn");
        p.add_array("Z", vec![0, 4], ElemType::F32);
        p.kernels.push(AffineKernel {
            name: "k".into(),
            loops: vec![Loop::range(2)],
            statements: vec![],
        });
        let v = check_program_in(&p, &mut Context::new());
        assert_eq!(v.malformed, vec![false]);
        let warnings: Vec<_> = v
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect();
        assert_eq!(warnings.len(), 3); // no statements, zero elements, unused
    }
}
