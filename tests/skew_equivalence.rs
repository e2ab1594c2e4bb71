//! A skew is applied to the dependence summary, not re-analysed: on every
//! suite kernel the optimizer skews (nine at `mini`), each query at each
//! level of `analyze_kernel(k).skewed(..)` must equal the same query on
//! `analyze_kernel(&skew_loop(k, ..))`, skew after skew — and the
//! optimizer's decision must list every one of those skews, in order.

use std::collections::BTreeMap;

use polyufc_pluto::{analyze_kernel, skew_loop, DepSummary, PlutoOptimizer};
use polyufc_workloads::{polybench_suite, PolybenchSize};

/// Every answer the optimizer can ask of a summary.
fn answers(d: &DepSummary) -> Vec<String> {
    let mut out = vec![format!(
        "free {} permutable {} budget {}",
        d.is_dependence_free(),
        d.fully_permutable(),
        d.budget_exceeded
    )];
    for l in 0..d.depth() {
        out.push(format!(
            "level {l}: parallel {} negative {} min {:?}",
            d.loop_parallel(l),
            d.can_be_negative_at(l),
            d.min_delta_at(l, 8)
        ));
    }
    out
}

#[test]
fn skewed_summary_equals_reanalysis() {
    let mut skewed = BTreeMap::new();
    for w in polybench_suite(PolybenchSize::Mini) {
        for kernel in &w.program.kernels {
            // The optimizer's skew loop, checked after every skew.
            let mut k = kernel.clone();
            let mut deps = analyze_kernel(&k);
            let mut applied = Vec::new();
            for inner in 1..k.depth() {
                if let Some(min_d @ ..=-1) = deps.min_delta_at(inner, 8) {
                    k = skew_loop(&k, 0, inner, -min_d);
                    deps = deps.skewed(inner, -min_d);
                    assert_eq!(
                        answers(&deps),
                        answers(&analyze_kernel(&k)),
                        "{} after skewing level {inner} by {}",
                        kernel.name,
                        -min_d
                    );
                    applied.push((inner, -min_d));
                }
            }
            // The decision reports every skew, in order.
            let (_, decision) = PlutoOptimizer.optimize_kernel(kernel);
            assert_eq!(decision.skewed, applied, "{}", kernel.name);
            if !applied.is_empty() {
                skewed.insert(kernel.name.clone(), applied);
            }
        }
    }
    // Five of the nine kernels skew more than one level.
    let expected = [
        ("adi_col", vec![(2, 1)]),
        ("adi_row", vec![(2, 1)]),
        ("doitgen_sum", vec![(1, 2), (3, 5)]),
        ("fdtd2d_sweep", vec![(1, 1), (2, 1)]),
        ("heat3d_sweep", vec![(1, 1), (2, 1), (3, 1)]),
        ("jacobi1d_sweep", vec![(1, 1)]),
        ("jacobi2d_sweep", vec![(1, 1), (2, 1)]),
        ("nussinov_split", vec![(2, 8)]),
        ("seidel2d_sweep", vec![(1, 1), (2, 1)]),
    ];
    assert_eq!(skewed, expected.map(|(n, s)| (n.to_string(), s)).into());
}
