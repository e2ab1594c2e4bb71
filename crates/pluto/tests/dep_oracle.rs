//! `DepSummary` against brute force: on random tiny kernels (depth 1–3,
//! extents ≤ 6, triangular bounds, 1–2 statements, uniform / shifted /
//! transposed / broadcast accesses), every pair of statement instances in
//! execution order that touches one element with at least one write gives
//! an exact distance vector, and every query must agree with what those
//! vectors say — before and after `skewed(inner, f)`, whose oracle is the
//! brute force of the kernel `skew_loop` actually builds. Pluto fed a
//! summary the verify gate built transforms exactly as Pluto analysing for
//! itself. `analyze_kernel`, which decides each lexicographic piece on
//! the pair relation, records exactly the dependences the per-piece
//! delta-set analysis it replaced recorded, on the random kernels (also
//! with every index function shared by two arrays) and on every suite
//! kernel.

use std::collections::{HashMap, HashSet};

use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Bound, Loop, Statement};
use polyufc_ir::deps::access_relation;
use polyufc_ir::types::ElemType;
use polyufc_pluto::{analyze_kernel, skew_loop, DepSummary, PlutoOptimizer};
use polyufc_presburger::{lex_lt_map, BasicMap, BasicSet, LinExpr};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};
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

/// `program(seed)` with a twin of each array that every access repeats on:
/// every index function is then shared by two arrays.
fn program_with_twins(seed: u64) -> AffineProgram {
    let mut p = program(seed);
    let twins: Vec<_> = (0..p.arrays.len())
        .map(|a| {
            let dims = p.arrays[a].dims.clone();
            p.add_array(format!("T{a}"), dims, ElemType::F64)
        })
        .collect();
    for s in &mut p.kernels[0].statements {
        let copies: Vec<Access> = s
            .accesses
            .iter()
            .map(|a| Access {
                array: twins[a.array.0],
                ..a.clone()
            })
            .collect();
        s.accesses.extend(copies);
    }
    p
}

/// One recorded dependence: carrying level, delta set, access pair.
type Recorded = (usize, BasicSet, [(usize, usize); 2]);

/// The dependence analysis before pieces were decided on the pair
/// relation: per ordered pair (keyed with its array), every piece's delta
/// set is built, skipped if already recorded, then decided on its own.
fn analyze_per_piece_deltas(kernel: &AffineKernel) -> (Vec<Recorded>, bool) {
    let depth = kernel.depth();
    let (mut recorded, mut budget_exceeded) = (Vec::<Recorded>::new(), false);
    if depth == 0 {
        return (recorded, budget_exceeded);
    }
    let domain = kernel.domain();
    let lex = lex_lt_map(0, depth);
    let identity = BasicMap::identity(0, depth);
    let accesses: Vec<(usize, usize)> = kernel
        .statements
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.accesses.len()).map(move |ai| (si, ai)))
        .collect();
    let mut analysed = HashSet::new();
    for &(si, ai) in &accesses {
        for &(sj, aj) in &accesses {
            let a1 = &kernel.statements[si].accesses[ai];
            let a2 = &kernel.statements[sj].accesses[aj];
            if a1.array != a2.array || (!a1.is_write && !a2.is_write) {
                continue;
            }
            if !analysed.insert((a1.array, &a1.indices, &a2.indices, si < sj)) {
                continue;
            }
            let rel = access_relation(&domain.basics()[0], a1, a2);
            let pieces = lex.basics().iter().chain((si < sj).then_some(&identity));
            for (level, piece) in pieces.enumerate() {
                let delta = rel.intersect(piece).expect("same space").deltas();
                if recorded.iter().any(|(_, d, _)| *d == delta) {
                    continue;
                }
                let empty = delta.is_empty();
                budget_exceeded |= empty.is_err();
                if !matches!(empty, Ok(true)) {
                    recorded.push((level, delta, [(si, ai), (sj, aj)]));
                }
            }
        }
    }
    (recorded, budget_exceeded)
}

/// `analyze_kernel` against [`analyze_per_piece_deltas`]: the same
/// dependences (level, delta set, pair) in the same order, and the same
/// budget flag.
fn matches_per_piece_deltas(k: &AffineKernel) -> Result<(), String> {
    let got = analyze_kernel(k);
    let got_recorded: Vec<Recorded> = got
        .dependences
        .iter()
        .map(|d| (d.level, d.delta.basics()[0].clone(), d.pair))
        .collect();
    let (want, want_budget) = analyze_per_piece_deltas(k);
    prop_assert_eq!(got_recorded, want, "{}", k.name);
    prop_assert_eq!(got.budget_exceeded, want_budget, "{}", k.name);
    Ok(())
}

#[test]
fn suite_kernels_match_per_piece_deltas() {
    for size in [PolybenchSize::Mini, PolybenchSize::Large] {
        let programs = polybench_suite(size)
            .into_iter()
            .map(|w| w.program)
            .chain(ml_suite().into_iter().map(|w| w.affine()));
        for p in programs {
            for k in &p.kernels {
                matches_per_piece_deltas(k).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            }
        }
    }
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

    #[test]
    fn relation_level_pieces_match_per_piece_deltas(seed in any::<u64>()) {
        matches_per_piece_deltas(&program(seed).kernels[0])?;
        matches_per_piece_deltas(&program_with_twins(seed).kernels[0])?;
    }
}
