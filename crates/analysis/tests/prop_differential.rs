//! Differential property test for the race detector: on random small
//! kernels, the Presburger verdict for every loop level must agree with a
//! brute-force replay that enumerates all iteration pairs and checks for
//! conflicting element accesses. The detector is exact, so agreement is
//! required in both directions — no missed races, no phantom races.

use std::collections::BTreeSet;

use proptest::prelude::*;

use polyufc_analysis::races::carried_dependence;
use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
use polyufc_ir::types::ElemType;
use polyufc_presburger::LinExpr;

const MAX_DEPTH: usize = 3;

/// One access: per-iterator coefficients, constant offset, write flag,
/// and which of the two arrays it touches.
type AccessSpec = (Vec<i64>, i64, bool, bool);

#[derive(Debug, Clone)]
struct KernelSpec {
    extents: Vec<i64>,
    accesses: Vec<AccessSpec>,
}

fn kernel_spec() -> impl Strategy<Value = KernelSpec> {
    // The vendored proptest has no `prop_flat_map`: draw everything at the
    // maximum depth and truncate to the drawn depth in `prop_map`.
    let coeff = prop_oneof![Just(0i64), Just(1), Just(-1), Just(2), Just(-2)];
    let accesses = proptest::collection::vec(
        (
            proptest::collection::vec(coeff, MAX_DEPTH),
            -2i64..3,
            any::<bool>(),
            any::<bool>(),
        ),
        1..5,
    );
    (
        1usize..=MAX_DEPTH,
        proptest::collection::vec(1i64..5, MAX_DEPTH),
        accesses,
    )
        .prop_map(|(depth, mut extents, mut accesses)| {
            extents.truncate(depth);
            for (coeffs, _, _, _) in &mut accesses {
                coeffs.truncate(depth);
            }
            KernelSpec { extents, accesses }
        })
}

fn build_kernel(spec: &KernelSpec) -> AffineKernel {
    let mut p = AffineProgram::new("diff");
    let a = p.add_array("A", vec![64], ElemType::F64);
    let b = p.add_array("B", vec![64], ElemType::F64);
    let accesses = spec
        .accesses
        .iter()
        .map(|(coeffs, offset, is_write, on_a)| {
            let mut e = LinExpr::constant(*offset);
            for (v, &c) in coeffs.iter().enumerate() {
                if c != 0 {
                    e = e + LinExpr::var(v) * c;
                }
            }
            let arr = if *on_a { a } else { b };
            if *is_write {
                Access::write(arr, vec![e])
            } else {
                Access::read(arr, vec![e])
            }
        })
        .collect();
    AffineKernel {
        name: "k".into(),
        loops: spec.extents.iter().map(|&e| Loop::range(e)).collect(),
        statements: vec![Statement {
            name: "S0".into(),
            accesses,
            flops: 1,
        }],
    }
}

fn points(extents: &[i64]) -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    for &e in extents {
        out = out
            .into_iter()
            .flat_map(|p| {
                (0..e).map(move |v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    out
}

/// Brute force: does any iteration pair agreeing on the first `level`
/// iterators and ordered at `level` touch a common element with at least
/// one write?
type ElemSet = BTreeSet<(usize, i64)>;

fn brute_force_race(kernel: &AffineKernel, level: usize) -> bool {
    let pts = points(
        &kernel
            .loops
            .iter()
            .map(|l| l.ub.exprs[0].constant_term())
            .collect::<Vec<_>>(),
    );
    let touched = |pt: &[i64]| -> (ElemSet, ElemSet) {
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for s in &kernel.statements {
            for a in &s.accesses {
                let elem = (a.array.0, a.indices[0].eval(pt));
                if a.is_write {
                    writes.insert(elem);
                } else {
                    reads.insert(elem);
                }
            }
        }
        (reads, writes)
    };
    for x in &pts {
        for y in &pts {
            if x[..level] != y[..level] || x[level] >= y[level] {
                continue;
            }
            let (rx, wx) = touched(x);
            let (ry, wy) = touched(y);
            if wx.intersection(&wy).next().is_some()
                || wx.intersection(&ry).next().is_some()
                || rx.intersection(&wy).next().is_some()
            {
                return true;
            }
        }
    }
    false
}

proptest! {
    #[test]
    fn race_detector_matches_brute_force(spec in kernel_spec()) {
        let kernel = build_kernel(&spec);
        for level in 0..kernel.depth() {
            let verdict = carried_dependence(&kernel, level)
                .expect("tiny domains stay within the solver budget");
            let expected = brute_force_race(&kernel, level);
            prop_assert_eq!(
                verdict.is_some(),
                expected,
                "level {} of {:?}: detector {:?}, brute force {}",
                level,
                spec,
                verdict,
                expected
            );
            // When the detector reports a race, its witness must replay:
            // prefix-equal, ordered, and produced by a real conflict.
            if let Some(w) = verdict {
                prop_assert_eq!(&w.src[..level], &w.dst[..level]);
                prop_assert!(w.src[level] < w.dst[level]);
                let in_domain = |pt: &[i64]| {
                    pt.len() == spec.extents.len()
                        && pt.iter().zip(&spec.extents).all(|(&x, &e)| (0..e).contains(&x))
                };
                prop_assert!(in_domain(&w.src) && in_domain(&w.dst), "{:?}", w);
                // The named statements' accesses to the named array: one
                // at `src` and one at `dst` hit the same element, and at
                // least one of the two writes.
                let touches = |stmt: &str, pt: &[i64]| -> Vec<(i64, bool)> {
                    kernel
                        .statements
                        .iter()
                        .filter(|s| s.name == stmt)
                        .flat_map(|s| &s.accesses)
                        .filter(|a| a.array.0 == w.array)
                        .map(|a| (a.indices[0].eval(pt), a.is_write))
                        .collect()
                };
                let (at_src, at_dst) = (touches(&w.statements.0, &w.src), touches(&w.statements.1, &w.dst));
                let conflict = at_src
                    .iter()
                    .any(|&(e1, w1)| at_dst.iter().any(|&(e2, w2)| e1 == e2 && (w1 || w2)));
                prop_assert!(conflict, "{:?} is no conflict", w);
            }
        }
    }
}
