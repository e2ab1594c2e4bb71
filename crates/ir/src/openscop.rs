//! OpenSCoP emission (Bastoul's polyhedral exchange format) for affine
//! kernels — the representation PolyUFC's flow passes between tools
//! (paper Fig. 3: "the code is converted to OpenSCoP and PET
//! representations for analyses").
//!
//! The emitter produces the textual OpenSCoP 1.0 layout: one `<statement>`
//! per kernel statement with DOMAIN, SCATTERING and READ/WRITE access
//! relations in the standard `e/i | iterators | parameters | constant`
//! matrix encoding. Problem sizes are concrete in this reproduction, so
//! the parameter column block is empty.

use std::fmt::Write as _;

use crate::affine::{AffineKernel, AffineProgram};
use polyufc_presburger::LinExpr;

/// Renders one kernel as an OpenSCoP `<OpenScop>` document.
///
/// # Panics
///
/// Panics if the kernel references arrays outside `program`.
pub fn emit_kernel(program: &AffineProgram, kernel: &AffineKernel) -> String {
    let depth = kernel.depth();
    let mut out = String::new();
    let _ = writeln!(out, "<OpenScop>");
    let _ = writeln!(
        out,
        "# =============================================== Global"
    );
    let _ = writeln!(out, "# Language\nC\n");
    let _ = writeln!(out, "# Context");
    let _ = writeln!(out, "CONTEXT\n0 2 0 0 0 0\n");
    let _ = writeln!(out, "# Parameters are not provided\n0\n");
    let _ = writeln!(out, "# Number of statements\n{}\n", kernel.statements.len());

    for (si, s) in kernel.statements.iter().enumerate() {
        let _ = writeln!(
            out,
            "# =============================================== Statement {}",
            si + 1
        );
        let _ = writeln!(out, "# Number of relations describing the statement:");
        let n_rel = 2 + s.accesses.len();
        let _ = writeln!(out, "{n_rel}\n");

        // DOMAIN: rows = 2 per loop (lb, ub components expanded).
        let mut rows: Vec<(i64, Vec<i64>, i64)> = Vec::new(); // (e/i, iter coeffs, const)
        for (d, l) in kernel.loops.iter().enumerate() {
            for e in &l.lb.exprs {
                // i_d - e >= 0
                let mut c = vec![0i64; depth];
                c[d] = 1;
                for (v, k) in e.terms() {
                    c[v] -= k;
                }
                rows.push((1, c, -e.constant_term()));
            }
            for e in &l.ub.exprs {
                // e - i_d - 1 >= 0
                let mut c = vec![0i64; depth];
                c[d] = -1;
                for (v, k) in e.terms() {
                    c[v] += k;
                }
                rows.push((1, c, e.constant_term() - 1));
            }
        }
        let _ = writeln!(out, "DOMAIN");
        let _ = writeln!(out, "{} {} {} 0 0 0", rows.len(), depth + 2, depth);
        for (ei, coeffs, k) in &rows {
            let body: Vec<String> = coeffs.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(out, "{ei} {} {k}", body.join(" "));
        }
        let _ = writeln!(out);

        // SCATTERING: 2d+1 dims, identity schedule with statement position.
        let sdim = 2 * depth + 1;
        let _ = writeln!(out, "SCATTERING");
        let _ = writeln!(out, "{} {} {} {} 0 0", sdim, sdim + depth + 2, sdim, depth);
        for r in 0..sdim {
            let mut row = vec![0i64; sdim + depth + 1];
            row[r] = -1; // -c_r
            if r % 2 == 1 {
                row[sdim + r / 2] = 1; // + i_{r/2}
            }
            let k = if r == sdim - 1 { si as i64 } else { 0 };
            let body: Vec<String> = row.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(out, "0 {} {k}", body.join(" "));
        }
        let _ = writeln!(out);

        // Accesses.
        for a in &s.accesses {
            let decl = program.array(a.array);
            let kind = if a.is_write { "WRITE" } else { "READ" };
            let adim = a.indices.len() + 1; // Arr id row + per-dim rows
            let _ = writeln!(out, "{kind}");
            let _ = writeln!(out, "{} {} {} {} 0 0", adim, adim + depth + 2, adim, depth);
            // First row: Arr = array id + 1.
            {
                let mut row = vec![0i64; adim + depth + 1];
                row[0] = -1;
                let body: Vec<String> = row.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "0 {} {}", body.join(" "), a.array.0 + 1);
            }
            for (j, idx) in a.indices.iter().enumerate() {
                let mut row = vec![0i64; adim + depth + 1];
                row[j + 1] = -1;
                for (v, k) in idx.terms() {
                    row[adim + v] = k;
                }
                let body: Vec<String> = row.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "0 {} {}", body.join(" "), idx.constant_term());
            }
            let _ = writeln!(out, "# accessed array: {}", decl.name);
            let _ = writeln!(out);
        }
        // Statement body metadata.
        let _ = writeln!(out, "<body>");
        let iters: Vec<String> = (0..depth).map(|d| format!("i{d}")).collect();
        let _ = writeln!(out, "# Number of original iterators\n{depth}");
        let _ = writeln!(out, "# List of original iterators\n{}", iters.join(" "));
        let _ = writeln!(
            out,
            "# Statement body expression\n{} // {} flops",
            s.name, s.flops
        );
        let _ = writeln!(out, "</body>\n");
    }
    let _ = writeln!(out, "</OpenScop>");
    out
}

/// Emits every kernel of a program, concatenated with separators.
pub fn emit_program(program: &AffineProgram) -> String {
    let mut out = String::new();
    for k in &program.kernels {
        let _ = writeln!(out, "# ---- kernel {} ----", k.name);
        out.push_str(&emit_kernel(program, k));
        out.push('\n');
    }
    out
}

// Suppress an unused-import lint when LinExpr is only used via terms().
#[allow(unused)]
fn _type_anchor(_: &LinExpr) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{Access, AffineKernel, Bound, Loop, Statement};
    use crate::types::ElemType;
    use polyufc_presburger::LinExpr;

    fn sample() -> (AffineProgram, AffineKernel) {
        let mut p = AffineProgram::new("s");
        let a = p.add_array("A", vec![8, 8], ElemType::F64);
        let k = AffineKernel {
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
                accesses: vec![
                    Access::read(a, vec![LinExpr::var(0), LinExpr::var(1)]),
                    Access::write(a, vec![LinExpr::var(1), LinExpr::var(0)]),
                ],
                flops: 1,
            }],
        };
        p.kernels.push(k.clone());
        (p, k)
    }

    #[test]
    fn emits_wellformed_scop() {
        let (p, k) = sample();
        let s = emit_kernel(&p, &k);
        assert!(s.starts_with("<OpenScop>"));
        assert!(s.trim_end().ends_with("</OpenScop>"));
        assert!(s.contains("DOMAIN"));
        assert!(s.contains("SCATTERING"));
        assert!(s.contains("READ"));
        assert!(s.contains("WRITE"));
        assert!(s.contains("accessed array: A"));
    }

    #[test]
    fn domain_rows_match_bound_count() {
        let (p, k) = sample();
        let s = emit_kernel(&p, &k);
        // 2 loops × (1 lb + 1 ub) = 4 rows over 2 iterators.
        assert!(s.contains("DOMAIN\n4 4 2 0 0 0\n"));
    }

    #[test]
    fn statement_count_scales() {
        let (mut p, mut k) = sample();
        k.statements.push(k.statements[0].clone());
        p.kernels[0] = k.clone();
        let s = emit_kernel(&p, &k);
        assert_eq!(s.matches("<body>").count(), 2);
        assert_eq!(s.matches("DOMAIN\n").count(), 2);
    }

    #[test]
    fn program_emission_separates_kernels() {
        let (p, _) = sample();
        let s = emit_program(&p);
        assert!(s.contains("# ---- kernel tri ----"));
    }
}
