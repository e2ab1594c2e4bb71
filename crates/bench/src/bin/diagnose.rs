//! Developer diagnostic: per-kernel static-model vs. machine comparison
//! for one workload. Usage:
//! `diagnose [workload] [bdw|rpl] [mini|small|large|xl] [grid]`
//! (defaults: `mvt`, `rpl`, `small`).

use polyufc::{ParametricModel, Pipeline};
use polyufc_machine::{measure_kernel, ExecutionEngine, Platform};
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

/// Rejects an unrecognized argument with the accepted values, exit 2.
fn unknown(what: &str, got: &str, accepted: &str) -> ! {
    eprintln!("unknown {what} '{got}' (expected {accepted})");
    std::process::exit(2);
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mvt".into());
    let plat = match std::env::args().nth(2) {
        None => Platform::raptor_lake(),
        Some(s) => s
            .parse()
            .unwrap_or_else(|()| unknown("platform", &s, "bdw|rpl")),
    };
    let size = match std::env::args().nth(3) {
        None => PolybenchSize::Small,
        Some(s) => s
            .parse()
            .unwrap_or_else(|()| unknown("size", &s, "mini|small|large|xl|extralarge")),
    };
    let program = polybench_suite(size)
        .into_iter()
        .find(|w| w.name == name)
        .map(|w| w.program)
        .or_else(|| {
            ml_suite()
                .into_iter()
                .find(|w| w.name == name)
                .map(|w| w.affine())
        })
        .expect("unknown workload");

    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::noiseless(plat.clone());
    let out = pipe.compile_affine(&program).expect("analysis");
    let conc = plat.cores as f64;

    for ((k, st), (ch, res)) in out
        .optimized
        .kernels
        .iter()
        .zip(&out.cache_stats)
        .zip(out.characterizations.iter().zip(&out.search))
    {
        let c = measure_kernel(&plat, &out.optimized, k);
        println!(
            "\n=== kernel {} (depth {}, parallel {:?}) ===",
            k.name,
            k.depth(),
            k.outer_parallel()
        );
        println!(
            "class {} OI est {:.3} meas {:.3}  cap {:.1} GHz",
            ch.class,
            st.operational_intensity(),
            c.measured_oi(),
            res.f_ghz
        );
        for (i, l) in st.levels.iter().enumerate() {
            println!(
                "  L{}: est acc {:.3e} miss {:.3e} (fit {})   sim hit {:.3e} miss {:.3e}",
                i + 1,
                l.accesses,
                l.misses,
                l.fit_level,
                c.hits[i] as f64,
                c.misses[i] as f64
            );
        }
        println!(
            "  est Q_DRAM {:.3e}  sim fills {:.3e} wb {:.3e}",
            st.q_dram_bytes,
            (c.dram_fills * c.line_bytes) as f64,
            (c.dram_writebacks * c.line_bytes) as f64
        );
        let pm = ParametricModel::new(&pipe.roofline, st, k.outer_parallel().is_some(), conc);
        if std::env::args().nth(4).as_deref() == Some("grid") {
            for f in plat.uncore_freqs() {
                println!(
                    "    grid f={f:.1}: t {:.4e} E {:.4e} EDP {:.4e}",
                    pm.exec_time(f),
                    pm.energy(f),
                    pm.edp(f)
                );
            }
            for s in &res.log {
                println!(
                    "    search step f={:.1} dp {:.4} db {:.4} dedp {:.4} adm {}",
                    s.f_ghz, s.delta_perf, s.delta_bw, s.delta_edp, s.admissible
                );
            }
        }
        for f in [
            plat.uncore_min_ghz,
            (plat.uncore_min_ghz + plat.uncore_max_ghz) / 2.0,
            plat.uncore_max_ghz,
        ] {
            let f = plat.clamp_uncore(f);
            let hw = eng.run_kernel(&c, f);
            println!(
                "  f={:>4.1}: model t {:.3e} E {:.3e} EDP {:.3e} | hw t {:.3e} E {:.3e} EDP {:.3e}",
                f,
                pm.exec_time(f),
                pm.energy(f),
                pm.edp(f),
                hw.time_s,
                hw.energy.total(),
                hw.edp()
            );
        }
    }
}
