//! `DepSummary` against brute force: on random tiny kernels (depth 1–3,
//! extents ≤ 6, triangular bounds, 1–2 statements, uniform / shifted /
//! transposed / broadcast accesses), every pair of statement instances in
//! execution order that touches one element with at least one write gives
//! an exact distance vector, and every query must agree with what those
//! vectors say — before and after `skewed(inner, f)`, whose oracle is the
//! brute force of the kernel `skew_loop` actually builds. Pluto fed a
//! summary the verify gate built transforms exactly as Pluto analysing for
//! itself.

use std::collections::{HashMap, HashSet};

use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Bound, Loop, Statement};
use polyufc_ir::types::ElemType;
use polyufc_pluto::{analyze_kernel, skew_loop, DepSummary, PlutoOptimizer};
use polyufc_presburger::LinExpr;
use proptest::prelude::*;

/// A program holding one random kernel drawn from `seed`.
fn program(seed: u64) -> AffineProgram {
    let mut rng = TestRng::new(seed);
    let mut pick = |lo: i64, hi: i64| rng.next_in_range(lo as i128, hi as i128) as i64;
    let depth = pick(1, 3) as usize;
    let loops = (0..depth)
        .map(|l| {
            let n = pick(1, 6);
            match (l, pick(0, 2)) {
                // j <= i
                (1.., 1) => Loop::new(
                    Bound::constant(0),
                    Bound::expr(LinExpr::var(l - 1) + LinExpr::constant(1)),
                ),
                // i <= j < n
                (1.., 2) => Loop::new(Bound::expr(LinExpr::var(l - 1)), Bound::constant(n)),
                _ => Loop::range(n),
            }
        })
        .collect();
    let mut p = AffineProgram::new("oracle");
    let arrays: Vec<_> = (0..2)
        .map(|a| {
            let rank = pick(1, 2);
            (
                p.add_array(format!("A{a}"), vec![8; rank as usize], ElemType::F64),
                rank,
            )
        })
        .collect();
    let statements = (0..pick(1, 2))
        .map(|s| {
            let accesses = (0..pick(1, 3))
                .map(|a| {
                    let (array, rank) = arrays[pick(0, 1) as usize];
                    // Each index is one iterator plus a shift, or a constant
                    // (a broadcast, as in a reduction's output).
                    let indices = (0..rank)
                        .map(|_| match pick(0, 3) {
                            0 => LinExpr::constant(pick(0, 1)),
                            _ => {
                                LinExpr::var(pick(0, depth as i64 - 1) as usize)
                                    + LinExpr::constant(pick(-1, 1))
                            }
                        })
                        .collect();
                    if a == 0 || pick(0, 2) == 0 {
                        Access::write(array, indices)
                    } else {
                        Access::read(array, indices)
                    }
                })
                .collect();
            Statement {
                name: format!("S{s}"),
                accesses,
                flops: 1,
            }
        })
        .collect();
    p.kernels.push(AffineKernel {
        name: format!("k{seed:x}"),
        loops,
        statements,
    });
    p
}

/// The domain's points in execution (lexicographic) order.
fn points(k: &AffineKernel) -> Vec<Vec<i64>> {
    fn walk(k: &AffineKernel, prefix: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        let Some(l) = k.loops.get(prefix.len()) else {
            out.push(prefix.clone());
            return;
        };
        for v in l.lb.eval_lb(prefix)..l.ub.eval_ub(prefix) {
            prefix.push(v);
            walk(k, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(k, &mut Vec::new(), &mut out);
    out
}

/// Every exact distance vector of the kernel.
fn distances(k: &AffineKernel) -> HashSet<Vec<i64>> {
    // Per element, its accesses in execution order: (point, statement, write).
    let mut touches: HashMap<_, Vec<(usize, usize, bool)>> = HashMap::new();
    let pts = points(k);
    for (pi, pt) in pts.iter().enumerate() {
        for (si, s) in k.statements.iter().enumerate() {
            for a in &s.accesses {
                let elem: Vec<i64> = a.indices.iter().map(|e| e.eval(pt)).collect();
                touches
                    .entry((a.array, elem))
                    .or_default()
                    .push((pi, si, a.is_write));
            }
        }
    }
    let mut out = HashSet::new();
    for list in touches.values() {
        for (x, &(p1, s1, w1)) in list.iter().enumerate() {
            for &(p2, s2, w2) in &list[x + 1..] {
                // One statement instance is not a dependence on itself.
                if (w1 || w2) && (p1, s1) != (p2, s2) {
                    out.insert(pts[p2].iter().zip(&pts[p1]).map(|(b, a)| b - a).collect());
                }
            }
        }
    }
    out
}

/// Compares every query of `deps` with the answer the distances give.
fn check(
    deps: &DepSummary,
    depth: usize,
    dist: &HashSet<Vec<i64>>,
    what: &str,
) -> Result<(), String> {
    let carried = |d: &Vec<i64>| d.iter().position(|&x| x != 0).unwrap_or(d.len());
    prop_assert!(!deps.budget_exceeded, "{what}: budget");
    prop_assert_eq!(deps.dependences.is_empty(), dist.is_empty(), "{what}");
    for l in 0..depth {
        let min = dist.iter().map(|d| d[l].min(0)).min().unwrap_or(0);
        let parallel = dist.iter().all(|d| carried(d) != l);
        prop_assert_eq!(deps.loop_parallel(l), parallel, "{what}: parallel({l})");
        prop_assert_eq!(deps.can_be_negative_at(l), min < 0, "{what}: negative({l})");
        let want = (min >= -8).then_some(min);
        prop_assert_eq!(deps.min_delta_at(l, 8), want, "{what}: min({l})");
    }
    let permutable = dist.iter().all(|d| d.iter().all(|&x| x >= 0));
    prop_assert_eq!(deps.fully_permutable(), permutable, "{what}: permutable");
    Ok(())
}

proptest! {
    #[test]
    fn dep_summary_matches_brute_force(seed in any::<u64>()) {
        let p = program(seed);
        let k = &p.kernels[0];
        let deps = analyze_kernel(k);
        check(&deps, k.depth(), &distances(k), &format!("{k:?}"))?;
        for inner in 1..k.depth() {
            for f in 1..=2 {
                let skewed = skew_loop(k, 0, inner, f);
                let what = format!("{k:?} skewed({inner}, {f})");
                check(&deps.skewed(inner, f), k.depth(), &distances(&skewed), &what)?;
            }
        }
    }

    /// The gate analyses the input kernel, `parallel` flags and all, and
    /// its race pass asks `loop_parallel` at each flagged level before the
    /// summary reaches Pluto; Pluto must then transform and decide exactly
    /// as `optimize`, which clears the flags and analyses for itself.
    #[test]
    fn pluto_on_gate_summary_matches_optimize(seed in any::<u64>(), flags in any::<u8>()) {
        let mut p = program(seed);
        for (l, lp) in p.kernels[0].loops.iter_mut().enumerate() {
            lp.parallel = (flags >> l) & 1 == 1;
        }
        let k = &p.kernels[0];
        let gate = analyze_kernel(k);
        for l in (0..k.depth()).filter(|&l| k.loops[l].parallel) {
            gate.loop_parallel(l);
        }
        let (want, want_report) = PlutoOptimizer.optimize(&p);
        let (got, got_report) = PlutoOptimizer.optimize_with(&p, vec![gate]);
        prop_assert_eq!(&got.kernels, &want.kernels, "{:?}", k);
        prop_assert_eq!(&got_report.decisions, &want_report.decisions, "{:?}", k);
    }
}
