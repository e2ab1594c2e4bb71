//! Figs. 1, 4, 5 and 8 and Tables II and III: the motivating frequency
//! sweep, the reuse-map example, the ML phase changes, the associativity
//! study, the benchmarks and the platforms.

use polyufc::{MlPolyUfc, PhaseReport, Pipeline};
use polyufc_bench::{pct, print_table};
use polyufc_cache::exact::analyze_exact;
use polyufc_cache::{AssocMode, CacheHierarchy, CacheLevelConfig, CacheSim};
use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
use polyufc_ir::types::ElemType;
use polyufc_machine::{measure_program, ExecutionEngine, Platform};
use polyufc_presburger::LinExpr;
use polyufc_workloads::ml::{conv2d_convnext, sdpa_bert, sdpa_gemma2};
use polyufc_workloads::{ml_suite, polybench, polybench_suite};

use crate::{argmin, models, run_caps, Ctx};

/// Fig. 1: execution time, energy, and EDP across uncore frequency caps
/// for the motivating kernels (conv2d, 2mm, gemver, mvt), Pluto-optimized,
/// on Broadwell. Prints one series per kernel and marks the minima.
pub fn fig1(ctx: &Ctx) {
    let size = ctx.size;
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::new(plat.clone());

    let programs = vec![
        ("conv2d", conv2d_convnext().affine()),
        ("2mm", polybench::two_mm(size.n3())),
        ("gemver", polybench::gemver(size.n2())),
        ("mvt", polybench::mvt(size.n2())),
    ];

    println!(
        "# Fig. 1 — time / energy / EDP vs uncore frequency cap ({})",
        plat.name
    );
    // Compile + trace-measure the four kernels in parallel; the frequency
    // sweeps below print from the input-ordered results.
    let prepared = polyufc_par::par_map(&programs, |(_, program)| {
        let out = pipe.compile_affine(program).expect("analysis");
        measure_program(&plat, &out.optimized)
    });
    for ((name, _), counters) in programs.iter().zip(prepared) {
        println!("\n## {name}");
        println!(
            "{:>6} {:>12} {:>12} {:>14}",
            "f/GHz", "time/s", "energy/J", "EDP/Js"
        );
        let mut series = Vec::new();
        for f in plat.uncore_freqs() {
            let (time, energy) = run_caps(&eng, &counters, std::iter::repeat(f));
            let edp = energy * time;
            println!("{f:>6.1} {time:>12.6} {energy:>12.4} {edp:>14.6e}");
            series.push([f, time, energy, edp]);
        }
        let [tmin, emin, dmin] = [1, 2, 3].map(|col| argmin(&series, col));
        let fmax = series.last().expect("a sweep has rows");
        println!(
            "min time @ {:.1} GHz; min energy @ {:.1} GHz ({} vs max-f); min EDP @ {:.1} GHz ({} vs max-f)",
            tmin[0],
            emin[0],
            pct(1.0 - emin[2] / fmax[2]),
            dmin[0],
            pct(1.0 - dmin[3] / fmax[3]),
        );
    }
}

/// Fig. 4: forward/backward reuse maps of the example two-statement
/// affine program, computed with the exact Presburger formulation
/// (access maps with line/set dimensions, lexicographic orders), and the
/// resulting miss counts validated against the trace simulator.
pub fn fig4(_: &Ctx) {
    // Code 4(a): s0 reads B[d], s1 writes B[d+1].
    let n = 16i64;
    let mut p = AffineProgram::new("fig4");
    let b = p.add_array("B", vec![n as usize + 1], ElemType::F64);
    p.kernels.push(AffineKernel {
        name: "fig4".into(),
        loops: vec![Loop::range(n)],
        statements: vec![
            Statement {
                name: "s0".into(),
                accesses: vec![Access::read(b, vec![LinExpr::var(0)])],
                flops: 1,
            },
            Statement {
                name: "s1".into(),
                accesses: vec![Access::write(
                    b,
                    vec![LinExpr::var(0) + LinExpr::constant(1)],
                )],
                flops: 1,
            },
        ],
    });

    let level = CacheLevelConfig {
        size_bytes: 4 * 64,
        line_bytes: 64,
        assoc: 2,
        shared: false,
    };
    println!("# Fig. 4 — exact reuse analysis of the example program");
    println!("cache level: {level}");
    println!("\naccess relation {{ (d, pos) -> (line, set) }}:");
    let ex = analyze_exact(&p, &p.kernels[0], &level, 100_000).expect("exact analysis");
    for (t, line, set) in &ex.trace {
        println!("  S{}(d={})  ->  line {line}, set {set}", t[1], t[0]);
    }
    println!("\nforward reuse pairs F (next access to the same line):");
    for (a, bb) in &ex.forward_pairs {
        println!("  S{}(d={})  ->  S{}(d={})", a[1], a[0], bb[1], bb[0]);
    }
    println!("\nbackward reuse pairs B (previous access to the same line):");
    for (a, bb) in ex.backward_pairs.iter().take(6) {
        println!("  S{}(d={})  ->  S{}(d={})", a[1], a[0], bb[1], bb[0]);
    }
    if ex.backward_pairs.len() > 6 {
        println!("  ... ({} total)", ex.backward_pairs.len());
    }
    println!("\ncold misses      = {}", ex.cold_misses);
    println!("capacity/conflict = {}", ex.capacity_conflict_misses);
    println!("total misses      = {}", ex.total_misses());

    let h = CacheHierarchy::new(vec![level]);
    let mut sim = CacheSim::new(&h, &p);
    polyufc_ir::interp::interpret_program(&p, &mut sim);
    println!("\ntrace simulator   = {} misses", sim.stats.misses[0]);
    assert_eq!(
        ex.total_misses(),
        sim.stats.misses[0],
        "exact model must match simulation"
    );
    println!("exact formulation matches the simulator. ✓");
}

/// Fig. 5: CB/BB phase changes of BERT's scaled dot-product attention
/// across the torch (tensor), linalg, and affine dialect levels.
pub fn fig5(_: &Ctx) {
    let plat = Platform::raptor_lake();
    let ml = MlPolyUfc::new(Pipeline::new(plat.clone()));
    for w in [sdpa_bert(), sdpa_gemma2()] {
        let rep = ml.phase_report(&w.graph, w.elem).expect("analysis");
        println!("# Fig. 5 — {} on {}", w.name, plat.name);
        println!("torch level : {}", PhaseReport::phase_string(&rep.tensor));
        println!("linalg level: {}", PhaseReport::phase_string(&rep.linalg));
        println!("affine level: {}", PhaseReport::phase_string(&rep.affine));
        println!("linalg ops:");
        for (name, class) in &rep.linalg {
            println!("  {class}  {name}");
        }
        println!();
    }
}

/// Fig. 8: estimated EDP over the uncore frequency range with PolyUFC-CM
/// in set-associative vs. fully-associative mode, against "hardware"
/// (machine-model) measurements — gemm on BDW, 2mm on RPL.
pub fn fig8(ctx: &Ctx) {
    let size = ctx.size;
    let cases = vec![
        ("gemm", Platform::broadwell(), polybench::gemm(size.n3())),
        ("2mm", Platform::raptor_lake(), polybench::two_mm(size.n3())),
    ];
    for (name, plat, program) in cases {
        println!(
            "\n# Fig. 8 — {} on {}: EDP, set- vs fully-associative model vs HW",
            name, plat.name
        );
        let eng = ExecutionEngine::new(plat.clone());

        let pipe_sa = Pipeline::new(plat.clone()).with_assoc_mode(AssocMode::SetAssociative);
        let pipe_fa = Pipeline::new(plat.clone()).with_assoc_mode(AssocMode::FullyAssociative);
        let out_sa = pipe_sa
            .compile_affine(&program)
            .expect("set-assoc analysis");
        let out_fa = pipe_fa
            .compile_affine(&program)
            .expect("fully-assoc analysis");
        let counters = measure_program(&plat, &out_sa.optimized);

        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            "f/GHz", "EDP set-assoc", "EDP full-assoc", "EDP HW"
        );
        let mut rows = Vec::new();
        for f in plat.uncore_freqs() {
            // Both models read the set-associative pipeline's rooflines.
            let edp = |out: &polyufc::PipelineOutput| {
                let mut t = 0.0;
                let mut e = 0.0;
                for (_, pm) in models(&pipe_sa, out) {
                    t += pm.exec_time(f);
                    e += pm.energy(f);
                }
                e * t
            };
            let (t_hw, e_hw) = run_caps(&eng, &counters, std::iter::repeat(f));
            let row = [f, edp(&out_sa), edp(&out_fa), e_hw * t_hw];
            println!(
                "{:>6.1} {:>14.4e} {:>14.4e} {:>14.4e}",
                row[0], row[1], row[2], row[3]
            );
            rows.push(row);
        }
        // Each optimum's frequency, and the HW EDP gain of running there.
        let hw_max = rows.last().expect("a sweep has rows")[3];
        for (col, label) in [
            (1, "set-assoc model optimum:  "),
            (2, "fully-assoc model optimum:"),
            (3, "HW optimum:               "),
        ] {
            let best = argmin(&rows, col);
            println!(
                "{label} {:.1} GHz -> HW EDP gain {}",
                best[0],
                pct(1.0 - best[3] / hw_max)
            );
        }
    }
}

/// Table II: the evaluation benchmarks — ML kernels with their model
/// sources and shapes, and the PolyBench suite with problem sizes and
/// memory footprints.
pub fn table2(ctx: &Ctx) {
    let size = ctx.size;
    // Nests, footprint and flops of one program.
    let shape = |p: &AffineProgram| {
        let flops: i128 = p.kernels.iter().map(|k| k.total_flops().unwrap_or(0)).sum();
        [
            format!("{}", p.kernels.len()),
            format!("{:.1} MiB", p.footprint_bytes() as f64 / (1 << 20) as f64),
            format!("{:.2} Gflop", flops as f64 / 1e9),
        ]
    };
    println!("# Table II(a) — selected ML kernels");
    let mut rows = Vec::new();
    for w in ml_suite() {
        let mut row = vec![w.name.to_string(), w.source.into(), w.domain.into()];
        row.extend(shape(&w.affine()));
        row.push(if w.scaled { "scaled" } else { "paper shape" }.into());
        rows.push(row);
    }
    print_table(
        &[
            "kernel",
            "source",
            "domain",
            "nests",
            "footprint",
            "flops",
            "shape",
        ],
        &rows,
    );

    println!("\n# Table II(b) — PolyBench suite (size preset: {size:?})");
    let mut rows = Vec::new();
    for w in polybench_suite(size) {
        let mut row = vec![w.name.to_string(), w.category.into()];
        row.extend(shape(&w.program));
        row.push(w.paper_class.unwrap_or("-").into());
        rows.push(row);
    }
    print_table(
        &[
            "kernel",
            "category",
            "nests",
            "footprint",
            "flops",
            "paper class",
        ],
        &rows,
    );
}

/// Table III: the simulated microarchitecture platforms.
pub fn table3(_: &Ctx) {
    println!("# Table III — platforms");
    let mut rows = Vec::new();
    for p in Platform::all() {
        rows.push(vec![
            p.name.clone(),
            match p.name.as_str() {
                "BDW" => "Xeon E5-1650 v4 (2015)".into(),
                "RPL" => "Core i5-13600 (2023)".into(),
                _ => "custom".into(),
            },
            format!("{}C/{}T", p.cores, p.threads),
            format!("{:.1} GHz", p.core_freq_ghz),
            format!("{:.1}-{:.1} GHz", p.uncore_min_ghz, p.uncore_max_ghz),
            format!("{}", p.hierarchy.llc()),
            format!("{:.0} GB/s", p.dram_bw_peak_gbps),
            format!("{:.0} µs", p.cap_switch_us),
            if p.has_uncore_rapl_zone {
                "yes".into()
            } else {
                "no (package only)".into()
            },
        ]);
    }
    print_table(
        &[
            "arch",
            "CPU",
            "cores",
            "core f",
            "uncore f",
            "LLC",
            "DRAM BW",
            "cap switch",
            "uncore RAPL",
        ],
        &rows,
    );
    for p in Platform::all() {
        println!("\n{} cache hierarchy:", p.name);
        for (i, l) in p.hierarchy.levels.iter().enumerate() {
            println!("  L{}: {}", i + 1, l);
        }
        println!(
            "  uncore search space: {} steps of {:.1} GHz",
            p.uncore_freqs().len(),
            p.uncore_step_ghz
        );
    }
}
