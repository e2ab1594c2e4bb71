//! A skew is applied to the dependence summary, not re-analysed: on every
//! suite kernel the optimizer skews (nine at `mini`), each query at each
//! level of `analyze_kernel(k).skewed(..)` must equal the same query on
//! `analyze_kernel(&skew_loop(k, ..))`, skew after skew.

use std::collections::BTreeSet;

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
    let (mut skewed, mut by_optimizer) = (BTreeSet::new(), BTreeSet::new());
    for w in polybench_suite(PolybenchSize::Mini) {
        for kernel in &w.program.kernels {
            let (_, decision) = PlutoOptimizer::default().optimize_kernel(kernel);
            if decision.skewed.is_some() {
                by_optimizer.insert(kernel.name.clone());
            }
            // The optimizer's skew loop, checked after every skew.
            let mut k = kernel.clone();
            let mut deps = analyze_kernel(&k);
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
                    skewed.insert(kernel.name.clone());
                }
            }
        }
    }
    assert_eq!(skewed, by_optimizer);
    let expected = [
        "adi_col",
        "adi_row",
        "doitgen_sum",
        "fdtd2d_sweep",
        "heat3d_sweep",
        "jacobi1d_sweep",
        "jacobi2d_sweep",
        "nussinov_split",
        "seidel2d_sweep",
    ];
    assert_eq!(skewed, expected.map(String::from).into());
}
