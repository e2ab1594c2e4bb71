//! The paper's figures and tables (Figs. 1/4–8, Tables II–III) and the
//! Sec. VII-F studies, as views over one evaluation of the workload suite.
//!
//! ```text
//! repro <view>... [--size mini|small|large|xl] [--only <workload>]
//! ```
//!
//! `all` runs every view in paper order. `fig6` and `fig7` print from one
//! suite evaluation (every workload compiled and run on each platform),
//! computed at most once per process; `--only` restricts it to one
//! workload. The other views compile their own few kernels, and their
//! re-measurement of a suite kernel is answered by the process-wide
//! measure cache. No `--size` means large, the evaluation setting.

mod figures;
mod studies;
mod suite;

use std::cell::OnceCell;

use polyufc::{ParametricModel, Pipeline, PipelineOutput};
use polyufc_ir::affine::AffineKernel;
use polyufc_machine::{ExecutionEngine, KernelCounters};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

/// A view's name and the function that prints it to stdout.
type View = (&'static str, fn(&Ctx));

/// Every view, in `all` order.
const VIEWS: [View; 15] = [
    ("fig1", figures::fig1),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", suite::fig6),
    ("fig7", suite::fig7),
    ("fig8", figures::fig8),
    ("table2", figures::table2),
    ("table3", figures::table3),
    ("disc_overhead", studies::disc_overhead),
    ("ablation_search", studies::ablation_search),
    ("ablation_time_model", studies::ablation_time_model),
    ("ablation_epsilon", studies::ablation_epsilon),
    ("baseline_dufs", studies::baseline_dufs),
    ("intra_vs_inter", studies::intra_vs_inter),
    ("objectives", studies::objectives),
];

const USAGE: &str = "usage: repro <view>... [--size mini|small|large|xl] [--only <workload>]";

/// Parses argv (without the program name) into the views to run, in
/// order, and their context. Each error message says what was wrong and
/// what is accepted; `main` prints it and exits 2.
fn parse_args(argv: &[String]) -> Result<(Vec<View>, Ctx), String> {
    let names = VIEWS.map(|(name, _)| name);
    let mut views = Vec::new();
    let mut ctx = Ctx {
        size: PolybenchSize::Large,
        only: None,
        suite: OnceCell::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--size" | "--only" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value; {USAGE}"))?;
                if a == "--only" {
                    ctx.only = Some(v.clone());
                } else {
                    ctx.size = v.parse().map_err(|()| {
                        format!("unknown size '{v}' (expected mini|small|large|xl|extralarge)")
                    })?;
                }
            }
            "all" => views.extend(VIEWS),
            _ => views.push(*VIEWS.iter().find(|(n, _)| n == a).ok_or_else(|| {
                format!(
                    "unknown view '{a}' (expected all|{}); {USAGE}",
                    names.join("|")
                )
            })?),
        }
    }
    if views.is_empty() {
        return Err(format!("{USAGE}; views: all|{}", names.join("|")));
    }
    if let Some(only) = &ctx.only {
        let known = polybench_suite(ctx.size).iter().any(|w| w.name == only)
            || ml_suite().iter().any(|w| w.name == only);
        if !known {
            return Err(format!("--only {only}: no such workload"));
        }
    }
    Ok((views, ctx))
}

/// What the views read: the size preset, and the suite evaluation that
/// `fig6` and `fig7` share.
#[derive(Debug)]
struct Ctx {
    size: PolybenchSize,
    /// Restricts the suite evaluation to this workload.
    only: Option<String>,
    suite: OnceCell<suite::Suite>,
}

impl Ctx {
    /// The suite evaluation, computed on first use.
    fn suite(&self) -> &suite::Suite {
        self.suite
            .get_or_init(|| suite::evaluate_suite(self.size, self.only.as_deref()))
    }
}

/// Each optimized kernel of `out` with its parametric model under
/// `pipe`'s rooflines, running on all of the platform's cores.
fn models<'a>(
    pipe: &'a Pipeline,
    out: &'a PipelineOutput,
) -> impl Iterator<Item = (&'a AffineKernel, ParametricModel<'a>)> {
    let conc = pipe.platform.cores as f64;
    out.optimized
        .kernels
        .iter()
        .zip(&out.cache_stats)
        .map(move |(k, st)| {
            let parallel = k.outer_parallel().is_some();
            (k, ParametricModel::new(&pipe.roofline, st, parallel, conc))
        })
}

/// Total time and energy of running each kernel at its cap, with no
/// switch costs (the steady state).
fn run_caps(
    eng: &ExecutionEngine,
    counters: &[KernelCounters],
    caps: impl IntoIterator<Item = f64>,
) -> (f64, f64) {
    let (mut time, mut energy) = (0.0, 0.0);
    for (c, f) in counters.iter().zip(caps) {
        let r = eng.run_kernel(c, f);
        time += r.time_s;
        energy += r.energy.total();
    }
    (time, energy)
}

/// The first row with the smallest value in column `col`.
fn argmin(rows: &[[f64; 4]], col: usize) -> &[f64; 4] {
    rows.iter()
        .min_by(|a, b| a[col].partial_cmp(&b[col]).expect("no NaN in a sweep"))
        .expect("a sweep has rows")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (views, ctx) = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for (_, view) in views {
        view(&ctx);
    }
    polyufc_bench::report_measure_cache();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args`, naming the views instead of pointing at them.
    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, Ctx), String> {
        let (views, ctx) = parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())?;
        Ok((views.into_iter().map(|(name, _)| name).collect(), ctx))
    }

    #[test]
    fn unknown_view_lists_the_accepted_views() {
        let err = parse(&["fig9"]).unwrap_err();
        assert!(err.contains("unknown view 'fig9'"), "{err}");
        for (name, _) in VIEWS {
            assert!(err.contains(name), "{err} misses {name}");
        }
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn unknown_size_lists_the_presets() {
        let err = parse(&["fig7", "--size", "huge"]).unwrap_err();
        assert_eq!(
            err,
            "unknown size 'huge' (expected mini|small|large|xl|extralarge)"
        );
        assert!(parse(&["fig7", "--size"]).is_err());
    }

    #[test]
    fn unknown_workload_is_a_hard_error() {
        let err = parse(&["fig6", "--only", "nosuch"]).unwrap_err();
        assert_eq!(err, "--only nosuch: no such workload");
        let ok = parse(&["fig6", "--size", "large", "--only", "gemm"]).unwrap();
        assert_eq!(ok.1.only.as_deref(), Some("gemm"));
        assert!(parse(&["fig6", "--only", "conv2d-convnext"]).is_ok());
    }

    #[test]
    fn all_expands_to_the_documented_order() {
        let (views, ctx) = parse(&["all", "--size", "mini"]).unwrap();
        assert_eq!(
            views,
            [
                "fig1",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "table2",
                "table3",
                "disc_overhead",
                "ablation_search",
                "ablation_time_model",
                "ablation_epsilon",
                "baseline_dufs",
                "intra_vs_inter",
                "objectives",
            ]
        );
        assert_eq!(ctx.size, PolybenchSize::Mini);
        assert_eq!(parse(&["table3", "fig1"]).unwrap().0, ["table3", "fig1"]);
    }

    #[test]
    fn size_defaults_to_large() {
        assert_eq!(parse(&["fig7"]).unwrap().1.size, PolybenchSize::Large);
        assert!(parse(&[]).is_err());
    }
}
