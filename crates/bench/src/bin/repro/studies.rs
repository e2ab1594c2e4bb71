//! The Sec. VII-F studies (cap-switch overheads, inter- vs intra-kernel
//! capping), the ablations of POLYUFC-SEARCH and the time model, the DUFS
//! comparison and the multi-objective claim.

use polyufc::{search::scan_cap, search_cap};
use polyufc::{CapGranularity, MlPolyUfc, Objective, Pipeline, PipelineOutput};
use polyufc_bench::{evaluate, pct, print_table};
use polyufc_ir::affine::AffineProgram;
use polyufc_machine::{
    measure_program, DufsGovernor, ExecutionEngine, Platform, RunResult, UfsDriver,
};
use polyufc_workloads::ml::{sdpa_bert, sdpa_gemma2};
use polyufc_workloads::{polybench, polybench_suite};

use crate::{models, run_caps, Ctx};

/// Sec. VII-F: cap-switch overheads of inter-kernel capping on the
/// multi-kernel sdpa (Gemma-2) benchmark — per-switch cost (35 µs BDW /
/// 21 µs RPL), cumulative overhead, and the granularity trade-off
/// (tensor-level = 1 cap, linalg-level = per-op caps).
pub fn disc_overhead(_: &Ctx) {
    for w in [sdpa_gemma2(), sdpa_bert()] {
        for plat in Platform::all() {
            println!(
                "\n# Sec. VII-F — cap overheads for {} on {}",
                w.name, plat.name
            );
            println!("per-switch cost: {:.0} µs", plat.cap_switch_us);
            let eng = ExecutionEngine::new(plat.clone());
            for gran in [CapGranularity::Linalg, CapGranularity::Tensor] {
                let mut ml = MlPolyUfc::new(Pipeline::new(plat.clone()));
                // Per-kernel caps regardless of kernel length: this study
                // quantifies the switch overhead itself (the guard would
                // hide it on these short kernels).
                ml.pipeline.cap_switch_guard = 0.0;
                ml.granularity = gran;
                let out = ml.compile(&w.graph, w.elem).expect("analysis");
                let counters = measure_program(&plat, &out.optimized);
                let capped = eng.run_scf(&out.scf, &counters);
                let baseline = UfsDriver::stock().run_baseline(&eng, &counters);
                // Count actual switches (cap changes) during execution.
                let mut switches = 0;
                let mut current = None;
                for (cap, _) in out.scf.kernels_with_caps() {
                    if cap != current {
                        switches += 1;
                        current = cap;
                    }
                }
                let overhead_us = switches as f64 * plat.cap_switch_us;
                println!(
                    "{:?} granularity: {} kernels, {} cap calls, {} switches -> {:.0} µs cumulative overhead",
                    gran,
                    out.scf.kernel_count(),
                    out.scf.cap_count(),
                    switches,
                    overhead_us
                );
                println!(
                    "  time {:.3} ms (baseline {:.3} ms), EDP vs baseline: {}",
                    capped.time_s * 1e3,
                    baseline.time_s * 1e3,
                    pct(1.0 - capped.edp() / baseline.edp())
                );
            }
            println!("(paper: ≈1 ms cumulative on BDW / ≈0.8 ms on RPL for its 28-kernel sdpa;");
            println!(" our lowering yields 9 linalg kernels per sdpa, so cumulative overhead scales accordingly)");
        }
    }
}

/// Ablation: POLYUFC-SEARCH's binary search vs. the exhaustive 0.1 GHz
/// scan — result parity and evaluation counts (the paper reduces the
/// space to ≈39 steps; bisection needs ~⌈log₂ 39⌉ probes).
pub fn ablation_search(ctx: &Ctx) {
    for plat in Platform::all() {
        let pipe = Pipeline::new(plat.clone());
        println!(
            "\n# Ablation — binary search vs exhaustive scan on {}",
            plat.name
        );
        let mut rows = Vec::new();
        let mut agree = 0;
        let mut total = 0;
        for w in polybench_suite(ctx.size) {
            let Ok(out) = pipe.compile_affine(&w.program) else {
                continue;
            };
            for (k, pm) in models(&pipe, &out) {
                let fast = search_cap(&pm, &plat.uncore_freqs(), Objective::Edp, 1e-3);
                let slow = scan_cap(&pm, &plat.uncore_freqs(), Objective::Edp, 1e-3);
                total += 1;
                let quality = pm.edp(fast.f_ghz) / pm.edp(slow.f_ghz);
                if quality <= 1.005 {
                    agree += 1;
                }
                rows.push(vec![
                    format!("{}::{}", w.name, k.name),
                    format!("{:.1}", fast.f_ghz),
                    format!("{:.1}", slow.f_ghz),
                    format!("{}", fast.steps),
                    format!("{}", slow.steps),
                    format!("{:.3}", quality),
                ]);
            }
        }
        print_table(
            &[
                "kernel",
                "binary cap",
                "scan cap",
                "binary evals",
                "scan evals",
                "EDP ratio",
            ],
            &rows,
        );
        println!("\nnear-optimal (≤0.5% EDP loss): {agree}/{total} kernels");
    }
}

/// Ablation: the paper's additive execution-time model (Eqn. 2,
/// `T = T^Ω + T^Q`) vs. the bounded-overlap default — prediction error
/// against the machine and the effect on chosen caps.
pub fn ablation_time_model(ctx: &Ctx) {
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::noiseless(plat.clone());
    let f = plat.uncore_max_ghz;

    println!(
        "# Ablation — additive (paper Eqn. 2) vs overlap time model on {}",
        plat.name
    );
    let mut rows = Vec::new();
    let mut err_add = Vec::new();
    let mut err_ovl = Vec::new();
    for w in polybench_suite(ctx.size) {
        let Ok(out) = pipe.compile_affine(&w.program) else {
            continue;
        };
        let counters = measure_program(&plat, &out.optimized);
        let (t_hw, _) = run_caps(&eng, &counters, std::iter::repeat(f));
        let mut t_add = 0.0;
        let mut t_ovl = 0.0;
        for (_, pm) in models(&pipe, &out) {
            t_add += pm.exec_time_additive(f);
            t_ovl += pm.exec_time(f);
        }
        let ea = (t_add / t_hw - 1.0).abs();
        let eo = (t_ovl / t_hw - 1.0).abs();
        err_add.push(ea);
        err_ovl.push(eo);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.3e}", t_hw),
            format!("{:.3e} ({:+.0}%)", t_add, (t_add / t_hw - 1.0) * 100.0),
            format!("{:.3e} ({:+.0}%)", t_ovl, (t_ovl / t_hw - 1.0) * 100.0),
        ]);
    }
    print_table(&["kernel", "t machine", "t additive", "t overlap"], &rows);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nmean |error|: additive {:.1}%, overlap {:.1}%",
        mean(&err_add) * 100.0,
        mean(&err_ovl) * 100.0
    );
    println!("(the overlap model is the default; the additive Eqn. 2 over-penalizes CB kernels");
    println!(" at low uncore frequencies and biases the search toward higher caps)");
}

/// Ablation: sensitivity of POLYUFC-SEARCH to the ε threshold
/// (Sec. VI-C "Tuning"): caps and steady-state EDP across ε values.
pub fn ablation_epsilon(ctx: &Ctx) {
    let plat = Platform::broadwell();
    let eng = ExecutionEngine::noiseless(plat.clone());
    let suite = polybench_suite(ctx.size);
    println!(
        "# Ablation — ε sensitivity on {} (paper sets ε = 1e-3)",
        plat.name
    );
    let mut rows = Vec::new();
    for eps in [1e-6, 1e-3, 1e-2, 0.1] {
        for name in ["gemm", "mvt", "jacobi-2d", "trisolv"] {
            let w = suite
                .iter()
                .find(|w| w.name == name)
                .expect("kernel exists");
            let mut pipe = Pipeline::new(plat.clone());
            pipe.epsilon = eps;
            let Ok(e) = evaluate(&pipe, &eng, &w.program, name) else {
                continue;
            };
            let caps: Vec<String> = e
                .steady_caps_ghz
                .iter()
                .map(|f| format!("{f:.1}"))
                .collect();
            rows.push(vec![
                format!("{eps:.0e}"),
                name.to_string(),
                caps.join(","),
                pct(e.steady_edp_improvement()),
                pct(e.steady_time_improvement()),
            ]);
        }
    }
    print_table(&["ε", "kernel", "caps (GHz)", "ΔEDP", "Δtime"], &rows);
}

/// Extra comparison (Sec. VIII context): PolyUFC's static inter-kernel
/// capping vs. a reactive DUFS governor vs. the stock max-frequency
/// driver, on representative CB and BB kernels. Compiler-driven capping
/// wins on short kernels and phase changes because it has no control-loop
/// latency (the paper's Sec. VII-F argument, quantified).
pub fn baseline_dufs(ctx: &Ctx) {
    let size = ctx.size;
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::new(plat.clone());

    let programs = vec![
        ("gemm (CB)", polybench::gemm(size.n3())),
        ("mvt (BB)", polybench::mvt(size.n2())),
        ("sdpa-bert (phases)", sdpa_bert().affine()),
    ];

    println!(
        "# PolyUFC vs DUFS governor vs stock driver on {}",
        plat.name
    );
    let mut rows = Vec::new();
    // Compile + trace-measure each workload in parallel; the governor
    // comparisons below consume the input-ordered results sequentially.
    let prepared = polyufc_par::par_map(&programs, |(_, program)| {
        pipe.compile_affine(program).map(|out| {
            let counters = measure_program(&plat, &out.optimized);
            (out, counters)
        })
    });
    for ((name, _), result) in programs.iter().zip(prepared) {
        let (out, counters) = match result {
            Ok(oc) => oc,
            Err(e) => {
                eprintln!("skipping {name}: {e}");
                continue;
            }
        };
        let stock = UfsDriver::stock().run_baseline(&eng, &counters);
        let capped = eng.run_scf(&out.scf, &counters);
        // The governor starts from its previous steady state — assume a
        // half-range idle frequency, like a machine between jobs.
        let start = (plat.uncore_min_ghz + plat.uncore_max_ghz) / 2.0;
        let (dufs, _) = DufsGovernor::default().run(&eng, &counters, start);
        rows.push(vec![
            name.to_string(),
            format!("{:.3e}", stock.edp()),
            format!(
                "{:.3e} ({})",
                dufs.edp(),
                pct(1.0 - dufs.edp() / stock.edp())
            ),
            format!(
                "{:.3e} ({})",
                capped.edp(),
                pct(1.0 - capped.edp() / stock.edp())
            ),
        ]);
    }
    print_table(
        &[
            "workload",
            "stock EDP",
            "DUFS EDP (vs stock)",
            "PolyUFC EDP (vs stock)",
        ],
        &rows,
    );
    println!("\n(DUFS pays control-loop latency on every phase change; PolyUFC sets the");
    println!(" frequency before each kernel starts — the Sec. VII-F argument.)");
}

/// Sec. VII-F: inter-kernel capping vs. intra-kernel control — each
/// kernel's outer loop is split into chunks that can each carry their own
/// cap (the intra-kernel DVFS/DUFS style of the related work). For
/// single-phase loop nests the chunks want the same frequency, so the
/// finer control only adds switch opportunities and analysis cost,
/// validating the paper's claim that inter-kernel capping is the
/// practical choice.
pub fn intra_vs_inter(ctx: &Ctx) {
    let size = ctx.size;
    let plat = Platform::broadwell();
    let mut pipe = Pipeline::new(plat.clone());
    // Granularity study: caps regardless of kernel length (the guard is a
    // deployment safety, orthogonal to the inter/intra question).
    pipe.cap_switch_guard = 0.0;
    let eng = ExecutionEngine::new(plat.clone());

    println!(
        "# Sec. VII-F — inter-kernel caps vs intra-kernel (outer-loop chunk) caps on {}",
        plat.name
    );
    let mut rows = Vec::new();
    for (name, program) in [
        ("gemm", polybench::gemm(size.n3())),
        ("mvt", polybench::mvt(size.n2())),
        (
            "jacobi-2d",
            polybench::jacobi_2d(size.tsteps(), size.stencil_n()),
        ),
    ] {
        // Steady-state comparison (switch costs reported separately; for
        // short chunks they dominate, which is itself the intra-kernel
        // penalty the paper calls out).
        let run = |prog: &AffineProgram| {
            let (out, stock, time, energy) = steady_vs_stock(&pipe, &eng, prog)?;
            let gain = 1.0 - energy * time / stock.edp();
            Some((gain, out.scf.cap_count(), out.caps_ghz))
        };
        let Some((inter_gain, inter_caps, _)) = run(&program) else {
            continue;
        };
        // Split each kernel's outer loop into 4 chunks.
        let mut split = AffineProgram::new(format!("{}_split", program.name));
        split.arrays = program.arrays.clone();
        for k in &program.kernels {
            split.kernels.extend(k.split_outer(4));
        }
        let Some((intra_gain, intra_caps, intra_freqs)) = run(&split) else {
            continue;
        };
        let uniq: std::collections::BTreeSet<String> =
            intra_freqs.iter().map(|f| format!("{f:.1}")).collect();
        rows.push(vec![
            name.to_string(),
            format!("{inter_caps} caps, {}", pct(inter_gain)),
            format!("{intra_caps} caps, {}", pct(intra_gain)),
            format!(
                "chunk caps: {{{}}}",
                uniq.into_iter().collect::<Vec<_>>().join(",")
            ),
        ]);
    }
    print_table(
        &[
            "kernel",
            "inter-kernel (PolyUFC)",
            "intra-kernel (4 chunks)",
            "chunk uniformity",
        ],
        &rows,
    );
    println!("\nUniform chunk caps confirm single-phase nests gain nothing from finer");
    println!("control; intra-kernel capping only pays on genuine phase changes, which");
    println!("PolyUFC already separates at kernel/linalg granularity (Fig. 5).");
}

/// The paper's multi-objective claim (abstract: "can handle multiple
/// optimization goals like performance, energy and EDP"): the same
/// kernels compiled under each POLYUFC-SEARCH objective, measured on the
/// machine in steady state.
pub fn objectives(ctx: &Ctx) {
    let plat = Platform::broadwell();
    let eng = ExecutionEngine::noiseless(plat.clone());
    println!(
        "# Multi-objective capping on {} (vs stock driver, steady state)",
        plat.name
    );
    let mut rows = Vec::new();
    for w in polybench_suite(ctx.size) {
        if !["gemm", "mvt", "gemver", "durbin", "jacobi-2d"].contains(&w.name) {
            continue;
        }
        let mut cells = vec![w.name.to_string()];
        for obj in [Objective::Performance, Objective::Energy, Objective::Edp] {
            let mut pipe = Pipeline::new(plat.clone()).with_objective(obj);
            pipe.cap_switch_guard = 0.0;
            let Some((_, baseline, time, energy)) = steady_vs_stock(&pipe, &eng, &w.program) else {
                continue;
            };
            cells.push(format!(
                "t {} E {}",
                pct(1.0 - time / baseline.time_s),
                pct(1.0 - energy / baseline.energy.total())
            ));
        }
        rows.push(cells);
    }
    print_table(
        &[
            "kernel",
            "perf objective (Δt ΔE)",
            "energy objective",
            "EDP objective",
        ],
        &rows,
    );
    println!("\nThe performance objective never sacrifices time; the energy objective");
    println!("accepts bounded slowdowns for the largest savings; EDP sits between.");
}

/// Compiles `program` and runs it in steady state at its caps: the
/// compiler output, the stock driver's run, and the capped time and
/// energy. `None` if the program does not compile.
fn steady_vs_stock(
    pipe: &Pipeline,
    eng: &ExecutionEngine,
    program: &AffineProgram,
) -> Option<(PipelineOutput, RunResult, f64, f64)> {
    let out = pipe.compile_affine(program).ok()?;
    let counters = measure_program(&pipe.platform, &out.optimized);
    let stock = UfsDriver::stock().run_baseline(eng, &counters);
    let (time, energy) = run_caps(eng, &counters, out.caps_ghz.iter().copied());
    Some((out, stock, time, energy))
}
