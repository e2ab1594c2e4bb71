//! Table IV: compile-time breakdown of the PolyUFC flow per benchmark —
//! preprocessing, the Pluto stage, PolyUFC-CM (stages 3a/3b), and
//! characterization + search + codegen (stages 4–6). Times in
//! milliseconds for the BDW cache configuration, like the paper.

use polyufc::Pipeline;
use polyufc_bench::{print_table, size_from_args};
use polyufc_machine::Platform;
use polyufc_workloads::{ml_suite, polybench_suite};

/// Renders the Presburger counting-cache saving as `hits/lookups (rate)`; a
/// lookup is a whole counting question or one of its components.
fn hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        "-".into()
    } else {
        format!(
            "{}/{} ({:.0}%)",
            hits,
            total,
            hits as f64 * 100.0 / total as f64
        )
    }
}

/// Renders the per-strategy component tallies of the cold counts as
/// `symbolic/enumerated`.
fn strategy(symbolic: u64, enumerated: u64) -> String {
    if symbolic + enumerated == 0 {
        "-".into()
    } else {
        format!("{symbolic}/{enumerated}")
    }
}

fn main() {
    let size = size_from_args();
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat);

    let mut programs: Vec<(String, polyufc_ir::affine::AffineProgram)> = Vec::new();
    for w in ml_suite() {
        programs.push((w.name.to_string(), w.affine()));
    }
    for w in polybench_suite(size) {
        programs.push((w.name.to_string(), w.program));
    }

    println!("# Table IV — compile-time breakdown (ms, BDW cache configuration)");
    let mut rows = Vec::new();
    let ms = |us: u128| format!("{:.2}", us as f64 / 1000.0);
    let mut totals = (0u128, 0u128, 0u128, 0u128);
    let mut verify_total = 0u128;
    let mut cache_totals = (0u64, 0u64);
    let mut strategy_totals = (0u64, 0u64);
    let mut emptiness_totals = (0u64, 0u64);
    let mut splits_total = 0u64;
    let mut arena_peak = 0u64;
    let mut all_fallbacks: Vec<String> = Vec::new();
    // Compiles are independent; fan them out and aggregate the
    // input-ordered reports sequentially. Per-stage wall-clocks are
    // measured inside each compile, so rows stay meaningful (modulo
    // scheduler contention) while the whole table finishes in the time of
    // the slowest program.
    let outputs = polyufc_par::par_map(&programs, |(_, program)| pipe.compile_affine(program));
    for ((name, _), output) in programs.iter().zip(outputs) {
        match output {
            Ok(out) => {
                let r = out.report;
                totals.0 += r.preprocess_us;
                totals.1 += r.pluto_us;
                totals.2 += r.polyufc_cm_us;
                totals.3 += r.steps_4_6_us;
                verify_total += r.verify_us;
                cache_totals.0 += r.count_cache_hits;
                cache_totals.1 += r.count_cache_misses;
                strategy_totals.0 += r.count_symbolic;
                strategy_totals.1 += r.count_enumerated;
                emptiness_totals.0 += r.emptiness_batches;
                emptiness_totals.1 += r.emptiness_checks;
                splits_total += r.count_parallel_splits;
                arena_peak = arena_peak.max(r.presburger_arena_bytes);
                for k in &r.fallback_kernels {
                    all_fallbacks.push(format!("{name}/{k}"));
                }
                rows.push(vec![
                    name.clone(),
                    ms(r.verify_us),
                    ms(r.preprocess_us),
                    ms(r.pluto_us),
                    ms(r.polyufc_cm_us),
                    ms(r.steps_4_6_us),
                    ms(r.total_us()),
                    hit_rate(r.count_cache_hits, r.count_cache_misses),
                    strategy(r.count_symbolic, r.count_enumerated),
                    format!("{}/{}", r.emptiness_batches, r.emptiness_checks),
                    r.count_parallel_splits.to_string(),
                ]);
            }
            Err(e) => {
                rows.push(vec![
                    name.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    rows.push(vec![
        "TOTAL".into(),
        ms(verify_total),
        ms(totals.0),
        ms(totals.1),
        ms(totals.2),
        ms(totals.3),
        ms(verify_total + totals.0 + totals.1 + totals.2 + totals.3),
        hit_rate(cache_totals.0, cache_totals.1),
        strategy(strategy_totals.0, strategy_totals.1),
        format!("{}/{}", emptiness_totals.0, emptiness_totals.1),
        splits_total.to_string(),
    ]);
    print_table(
        &[
            "program",
            "verify",
            "preprocess",
            "Pluto",
            "PolyUFC-CM",
            "steps 4-6",
            "total",
            "count cache",
            "sym/enum",
            "empt b/c",
            "par splits",
        ],
        &rows,
    );
    println!("\npeak verify-gate solver arena: {arena_peak} bytes");
    if all_fallbacks.is_empty() {
        println!("\nfallback kernels: none (all analyses finished within the solver budget)");
    } else {
        println!(
            "\nfallback kernels ({}): {}",
            all_fallbacks.len(),
            all_fallbacks.join(", ")
        );
    }
    println!("\n(The paper's flow times out at 30 min on some kernels and resets f_c to max;");
    println!(" our PolyUFC-CM uses a solver work budget with the same fallback semantics.");
    println!(" 'sym/enum' tallies coupled components counted in closed form vs enumerated.)");
}
