//! Fig. 1: execution time, energy, and EDP across uncore frequency caps
//! for the motivating kernels (conv2d, 2mm, gemver, mvt), Pluto-optimized,
//! on Broadwell. Prints one series per kernel and marks the minima.

use polyufc::Pipeline;
use polyufc_bench::size_from_args;
use polyufc_machine::{measure_program, ExecutionEngine, Platform};
use polyufc_workloads::ml::conv2d_convnext;
use polyufc_workloads::polybench;

fn main() {
    let size = size_from_args();
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat.clone());
    let eng = ExecutionEngine::new(plat.clone());

    let conv = conv2d_convnext().affine();
    let programs = vec![
        ("conv2d", conv),
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
        let counters = measure_program(&plat, &out.optimized);
        (out, counters)
    });
    for ((name, _), (_out, counters)) in programs.iter().zip(prepared) {
        println!("\n## {name}");
        println!(
            "{:>6} {:>12} {:>12} {:>14}",
            "f/GHz", "time/s", "energy/J", "EDP/Js"
        );
        let mut series = Vec::new();
        for f in plat.uncore_freqs() {
            let mut time = 0.0;
            let mut energy = 0.0;
            for c in &counters {
                let r = eng.run_kernel(c, f);
                time += r.time_s;
                energy += r.energy.total();
            }
            let edp = energy * time;
            println!("{f:>6.1} {time:>12.6} {energy:>12.4} {edp:>14.6e}");
            series.push((f, time, energy, edp));
        }
        let tmin = series
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let emin = series
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        let dmin = series
            .iter()
            .min_by(|a, b| a.3.partial_cmp(&b.3).unwrap())
            .unwrap();
        let fmax = series.last().unwrap();
        println!(
            "min time @ {:.1} GHz; min energy @ {:.1} GHz ({} vs max-f); min EDP @ {:.1} GHz ({} vs max-f)",
            tmin.0,
            emin.0,
            polyufc_bench::pct(1.0 - emin.2 / fmax.2),
            dmin.0,
            polyufc_bench::pct(1.0 - dmin.3 / fmax.3),
        );
    }
    polyufc_bench::report_measure_cache();
}
