//! Model-consistency audit: cross-checks the OI pipeline's per-kernel
//! counters (total accesses, flops, compulsory-miss lines) against
//! independently recomputed access-relation cardinalities.
//!
//! The access and flop counts must match exactly (both are integer counts
//! of the same relations, computed here through map-space counting rather
//! than the pipeline's cached domain counts). The cold-line count is a
//! heuristic in the model — per-array distinct lines with midpoint
//! substitution — so it is only required to sit between an exact
//! footprint *lower bound* (distinct elements of injective access
//! relations, packed as densely as a cache line allows) and the exact
//! per-array line-capacity *upper bound*, within [`COLD_TOLERANCE`].

use std::collections::{BTreeMap, BTreeSet};

use polyufc_ir::affine::{Access, AffineKernel, AffineProgram};
use polyufc_presburger::{BasicSet, CountCache, LinExpr, Set, Space};

use crate::diag::{Diagnostic, Location, Severity};

/// Pass identifier.
pub const PASS: &str = "model-audit";

/// Relative tolerance for exact-count comparisons (floats in the model).
const EXACT_REL_TOL: f64 = 1e-6;

/// Multiplicative slack allowed between the model's cold-line count and
/// the recomputed footprint lower bound.
pub const COLD_TOLERANCE: f64 = 2.0;

/// The pipeline-side counters audited for one kernel, in kernel order.
/// Mirrors the relevant fields of the cache model's per-kernel stats
/// without depending on the cache crate (which sits above this one).
#[derive(Debug, Clone)]
pub struct ModelCounts {
    /// Kernel name (must match the program's kernel at the same index).
    pub kernel: String,
    /// Model's total issued accesses.
    pub total_accesses: f64,
    /// Model's total flops `Ω`.
    pub flops: f64,
    /// Model's compulsory-miss (distinct cache line) count.
    pub cold_lines: f64,
}

/// Audits every kernel of `program` against the model counters.
/// `line_bytes` is the cache-line size the model used.
///
/// All relation and domain cardinalities go through one memoizing
/// [`CountCache`] owned by this call, so e.g. the same iteration domain
/// counted for several array references is solved once.
pub fn audit_program(
    program: &AffineProgram,
    counts: &[ModelCounts],
    line_bytes: u64,
) -> Vec<Diagnostic> {
    let mut cache = CountCache::new();
    let mut out = Vec::new();
    if counts.len() != program.kernels.len() {
        out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Warning,
            location: Location::default(),
            message: format!(
                "model reported {} kernels, program has {}; audit skipped",
                counts.len(),
                program.kernels.len()
            ),
            witness: None,
        });
        return out;
    }
    for (kernel, c) in program.kernels.iter().zip(counts) {
        if kernel.name != c.kernel {
            out.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                location: Location::kernel(&kernel.name),
                message: format!(
                    "model counters are for `{}`; kernel order mismatch, audit skipped",
                    c.kernel
                ),
                witness: None,
            });
            continue;
        }
        audit_kernel(program, kernel, c, line_bytes, &mut cache, &mut out);
    }
    out
}

fn audit_kernel(
    program: &AffineProgram,
    kernel: &AffineKernel,
    c: &ModelCounts,
    line_bytes: u64,
    cache: &mut CountCache,
    out: &mut Vec<Diagnostic>,
) {
    let loc = || Location::kernel(&kernel.name);
    let dom = kernel.domain();
    let dom_b = &dom.basics()[0];
    let depth = kernel.depth();

    // (1) Total accesses: Σ over accesses of |access relation|, counted in
    // map space (domain ++ image with the subscript equalities) — an
    // independent path from the model's |D| × refs-per-point product.
    let mut recomputed_accesses: Option<f64> = Some(0.0);
    for s in &kernel.statements {
        for a in &s.accesses {
            let pairs = a.index_map(depth).intersect_domain(dom_b).ok().map(|m| {
                let sp = m.space();
                let as_set = Space::set(sp.n_param(), sp.n_dim());
                Set::from_basic(m.as_basic_set().clone().recast(as_set))
            });
            match pairs.map(|s| s.count_cached(cache)) {
                Some(Ok(n)) => {
                    if let Some(acc) = recomputed_accesses.as_mut() {
                        *acc += n as f64;
                    }
                }
                _ => recomputed_accesses = None,
            }
        }
    }
    match recomputed_accesses {
        Some(n) if !close(n, c.total_accesses) => out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Error,
            location: loc(),
            message: format!(
                "model counted {} accesses, access relations contain {}",
                c.total_accesses, n
            ),
            witness: None,
        }),
        Some(_) => {}
        None => out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Info,
            location: loc(),
            message: "access-count audit skipped (relation not countable)".into(),
            witness: None,
        }),
    }

    // (2) Flops: fresh domain count × Σ_s ω_s.
    let per_point_flops: f64 = kernel.statements.iter().map(|s| s.flops as f64).sum();
    match dom.count_cached(cache) {
        Ok(d) => {
            let n = d as f64 * per_point_flops;
            if !close(n, c.flops) {
                out.push(Diagnostic {
                    pass: PASS,
                    severity: Severity::Error,
                    location: loc(),
                    message: format!("model counted {} flops, domain × ω gives {}", c.flops, n),
                    witness: None,
                });
            }
        }
        Err(e) => out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Info,
            location: loc(),
            message: format!("flop audit skipped (domain not countable: {e})"),
            witness: None,
        }),
    }

    // (3) Cold lines can never exceed the total line capacity of the
    // arrays the kernel touches.
    let touched: BTreeSet<usize> = kernel
        .statements
        .iter()
        .flat_map(|s| s.accesses.iter().map(|a| a.array.0))
        .collect();
    let cap: f64 = touched
        .iter()
        .map(|&i| (program.arrays[i].size_bytes() as f64 / line_bytes as f64).ceil())
        .sum();
    if c.cold_lines > cap * (1.0 + EXACT_REL_TOL) {
        out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Error,
            location: loc(),
            message: format!(
                "model cold-line count {} exceeds the {} lines the touched arrays occupy",
                c.cold_lines, cap
            ),
            witness: None,
        });
    }

    // (4) Cold lines must cover the exact footprint lower bound: for every
    // array, the largest injective access relation's range cardinality,
    // divided by the line's element capacity. Accesses whose relations are
    // not provably injective over a bounds-closed iterator subset are
    // skipped (the bound stays sound, just looser).
    let mut lb_by_array: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &kernel.statements {
        for a in &s.accesses {
            if a.array.0 >= program.arrays.len() {
                continue;
            }
            let Some(elements) = injective_range_count(kernel, a, cache) else {
                continue;
            };
            let decl = &program.arrays[a.array.0];
            let per_line = (line_bytes as f64 / decl.elem.size_bytes() as f64).max(1.0);
            let lines = (elements as f64 / per_line).ceil();
            let e = lb_by_array.entry(a.array.0).or_insert(0.0);
            *e = e.max(lines);
        }
    }
    let lb: f64 = lb_by_array.values().sum();
    if c.cold_lines * COLD_TOLERANCE < lb {
        out.push(Diagnostic {
            pass: PASS,
            severity: Severity::Error,
            location: loc(),
            message: format!(
                "model cold-line count {} diverges from the footprint lower bound {} (tolerance ×{})",
                c.cold_lines, lb, COLD_TOLERANCE
            ),
            witness: None,
        });
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= EXACT_REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Exact range cardinality of an access relation, when the relation is
/// injective by construction: every subscript references at most one
/// iterator (nonzero coefficient), all such iterators are distinct, and
/// their loop bounds only reference iterators of the same subset (so the
/// subset's sub-domain is self-contained). Returns `None` when those
/// conditions don't hold or counting fails.
fn injective_range_count(
    kernel: &AffineKernel,
    access: &Access,
    cache: &mut CountCache,
) -> Option<i128> {
    let mut selected: BTreeSet<usize> = BTreeSet::new();
    for e in &access.indices {
        let vars: Vec<usize> = e.terms().filter(|&(_, c)| c != 0).map(|(i, _)| i).collect();
        match vars.as_slice() {
            [] => {}
            [v] => {
                if *v >= kernel.depth() || !selected.insert(*v) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    if selected.is_empty() {
        // A constant access touches exactly one element.
        return Some(1);
    }
    // Bounds closure: the selected loops' bounds may only reference
    // selected iterators.
    for &v in &selected {
        let l = &kernel.loops[v];
        for e in l.lb.exprs.iter().chain(&l.ub.exprs) {
            if e.terms().any(|(i, c)| c != 0 && !selected.contains(&i)) {
                return None;
            }
        }
    }
    // Count the sub-domain over the selected iterators (remapped densely).
    let order: Vec<usize> = selected.iter().copied().collect();
    let pos = |v: usize| order.iter().position(|&x| x == v).expect("selected");
    let remap = |e: &LinExpr| {
        let mut out = LinExpr::constant(e.constant_term());
        for (i, c) in e.terms() {
            if c != 0 {
                out = out + LinExpr::var(pos(i)) * c;
            }
        }
        out
    };
    let mut b = BasicSet::universe(Space::set(0, order.len()));
    for (p, &v) in order.iter().enumerate() {
        let l = &kernel.loops[v];
        for e in &l.lb.exprs {
            b.add_ge0(LinExpr::var(p) - remap(e));
        }
        for e in &l.ub.exprs {
            b.add_ge0(remap(e) - LinExpr::var(p) - LinExpr::constant(1));
        }
    }
    Set::from_basic(b).count_cached(cache).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{AffineKernel, AffineProgram, Loop, Statement};
    use polyufc_ir::types::ElemType;

    /// matmul 8³ over 8x8 f64 arrays; one statement, 4 accesses, 2 flops.
    fn matmul() -> AffineProgram {
        let mut p = AffineProgram::new("mm");
        let a = p.add_array("A", vec![8, 8], ElemType::F64);
        let b = p.add_array("B", vec![8, 8], ElemType::F64);
        let c = p.add_array("C", vec![8, 8], ElemType::F64);
        let (i, j, k) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        p.kernels.push(AffineKernel {
            name: "mm".into(),
            loops: vec![Loop::range(8), Loop::range(8), Loop::range(8)],
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
        });
        p
    }

    fn good_counts() -> Vec<ModelCounts> {
        // |D| = 512; 4 accesses/point; 2 flops/point. Each array is 64
        // elements = 8 lines of 64 B; 3 arrays touched -> 24 cold lines.
        vec![ModelCounts {
            kernel: "mm".into(),
            total_accesses: 2048.0,
            flops: 1024.0,
            cold_lines: 24.0,
        }]
    }

    #[test]
    fn consistent_counts_are_clean() {
        let d = audit_program(&matmul(), &good_counts(), 64);
        assert!(d.iter().all(|x| x.severity == Severity::Info), "{d:?}");
    }

    #[test]
    fn access_miscount_is_flagged() {
        let mut c = good_counts();
        c[0].total_accesses = 2000.0;
        let d = audit_program(&matmul(), &c, 64);
        assert!(d
            .iter()
            .any(|x| x.severity == Severity::Error && x.message.contains("accesses")));
    }

    #[test]
    fn flop_miscount_is_flagged() {
        let mut c = good_counts();
        c[0].flops = 999.0;
        let d = audit_program(&matmul(), &c, 64);
        assert!(d
            .iter()
            .any(|x| x.severity == Severity::Error && x.message.contains("flops")));
    }

    #[test]
    fn cold_overcount_and_undercount_are_flagged() {
        let mut c = good_counts();
        c[0].cold_lines = 1000.0; // > 24-line capacity
        let d = audit_program(&matmul(), &c, 64);
        assert!(d.iter().any(|x| x.message.contains("exceeds")));
        c[0].cold_lines = 2.0; // < 24-line footprint / tolerance
        let d = audit_program(&matmul(), &c, 64);
        assert!(d.iter().any(|x| x.message.contains("lower bound")));
    }

    #[test]
    fn kernel_count_mismatch_skips() {
        let d = audit_program(&matmul(), &[], 64);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn injective_count_respects_triangular_closure() {
        use polyufc_ir::affine::Bound;
        // for i in 0..8 { for j in 0..=i { C[i][j] } }: j's bound
        // references i and both are selected -> closed, count = 36.
        let mut p = AffineProgram::new("tri");
        let c = p.add_array("C", vec![8, 8], ElemType::F64);
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
                accesses: vec![Access::write(c, vec![LinExpr::var(0), LinExpr::var(1)])],
                flops: 0,
            }],
        };
        let mut cache = CountCache::new();
        assert_eq!(
            injective_range_count(&k, &k.statements[0].accesses[0], &mut cache),
            Some(36)
        );
        // B[j] alone is NOT closed (j's bound references unselected i).
        let b = Access::read(c, vec![LinExpr::var(1), LinExpr::constant(0)]);
        assert_eq!(injective_range_count(&k, &b, &mut cache), None);
        let _ = p;
    }
}
