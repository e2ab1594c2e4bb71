//! Pinned trace-simulator counters: the exact [`SimStats`] of six
//! PolyBench kernels at `mini` and `small`, as written and as Pluto
//! optimizes them, on both evaluation hierarchies. At `mini` every kernel
//! fits in L1; `small` adds capacity and conflict misses at every level.
//! The simulator stands in for the hardware counters behind Fig. 6/7, so a
//! change to its replacement state or walk that claims bit-identical
//! counters must leave every row below alone. Some rows must exercise
//! the simulator's warp over repeated all-hit run groups.

use polyufc::Pipeline;
use polyufc_cache::{CacheSim, SimStats};
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::interp::interpret_program;
use polyufc_machine::Platform;
use polyufc_workloads::{polybench_suite, PolybenchSize};

const KERNELS: [&str; 6] = ["mvt", "atax", "trisolv", "syrk", "jacobi-2d", "gemm"];

/// `(size, workload, platform, optimized, hits, misses, dram fills, dram
/// write-backs, accesses, flops, bytes requested)`.
type Pin = (
    &'static str,
    &'static str,
    &'static str,
    bool,
    [u64; 3],
    [u64; 3],
    u64,
    u64,
    u64,
    u64,
    u64,
);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("mini", "gemm", "BDW", false, [56232, 0, 0], [216, 216, 216], 216, 0, 56448, 28224, 451584),
    ("mini", "gemm", "BDW", true, [56232, 0, 0], [216, 216, 216], 216, 0, 56448, 28224, 451584),
    ("mini", "syrk", "BDW", false, [29280, 0, 0], [120, 120, 120], 120, 0, 29400, 14700, 235200),
    ("mini", "syrk", "BDW", true, [29280, 0, 0], [120, 120, 120], 120, 0, 29400, 14700, 235200),
    ("mini", "atax", "BDW", false, [18126, 0, 0], [306, 306, 306], 306, 0, 18432, 9216, 147456),
    ("mini", "atax", "BDW", true, [18126, 0, 0], [306, 306, 306], 306, 0, 18432, 9216, 147456),
    ("mini", "mvt", "BDW", false, [18120, 0, 0], [312, 312, 312], 312, 0, 18432, 9216, 147456),
    ("mini", "mvt", "BDW", true, [18120, 0, 0], [312, 312, 312], 312, 0, 18432, 9216, 147456),
    ("mini", "trisolv", "BDW", false, [4572, 0, 0], [180, 180, 180], 180, 0, 4752, 2304, 38016),
    ("mini", "trisolv", "BDW", true, [4572, 0, 0], [180, 180, 180], 180, 0, 4752, 2304, 38016),
    ("mini", "jacobi-2d", "BDW", false, [42944, 0, 0], [256, 256, 256], 256, 0, 43200, 36000, 345600),
    ("mini", "jacobi-2d", "BDW", true, [42944, 0, 0], [256, 256, 256], 256, 0, 43200, 36000, 345600),
    ("mini", "gemm", "RPL", false, [56232, 0, 0], [216, 216, 216], 216, 0, 56448, 28224, 451584),
    ("mini", "gemm", "RPL", true, [56232, 0, 0], [216, 216, 216], 216, 0, 56448, 28224, 451584),
    ("mini", "syrk", "RPL", false, [29280, 0, 0], [120, 120, 120], 120, 0, 29400, 14700, 235200),
    ("mini", "syrk", "RPL", true, [29280, 0, 0], [120, 120, 120], 120, 0, 29400, 14700, 235200),
    ("mini", "atax", "RPL", false, [18126, 0, 0], [306, 306, 306], 306, 0, 18432, 9216, 147456),
    ("mini", "atax", "RPL", true, [18126, 0, 0], [306, 306, 306], 306, 0, 18432, 9216, 147456),
    ("mini", "mvt", "RPL", false, [18120, 0, 0], [312, 312, 312], 312, 0, 18432, 9216, 147456),
    ("mini", "mvt", "RPL", true, [18120, 0, 0], [312, 312, 312], 312, 0, 18432, 9216, 147456),
    ("mini", "trisolv", "RPL", false, [4572, 0, 0], [180, 180, 180], 180, 0, 4752, 2304, 38016),
    ("mini", "trisolv", "RPL", true, [4572, 0, 0], [180, 180, 180], 180, 0, 4752, 2304, 38016),
    ("mini", "jacobi-2d", "RPL", false, [42944, 0, 0], [256, 256, 256], 256, 0, 43200, 36000, 345600),
    ("mini", "jacobi-2d", "RPL", true, [42944, 0, 0], [256, 256, 256], 256, 0, 43200, 36000, 345600),
    ("small", "gemm", "BDW", false, [3443328, 110592, 0], [114048, 3456, 3456], 3456, 0, 3557376, 1778688, 28459008),
    ("small", "gemm", "BDW", true, [3547542, 6378, 0], [9834, 3456, 3456], 3456, 0, 3557376, 1778688, 28459008),
    ("small", "syrk", "BDW", false, [1751620, 43820, 0], [45596, 1776, 1776], 1776, 0, 1797216, 898608, 14377728),
    ("small", "syrk", "BDW", true, [1792445, 2995, 0], [4771, 1776, 1776], 1776, 0, 1797216, 898608, 14377728),
    ("small", "atax", "BDW", false, [2031360, 0, 32832], [65792, 65792, 32960], 32960, 0, 2097152, 1048576, 16777216),
    ("small", "atax", "BDW", true, [2031180, 180, 32832], [65972, 65792, 32960], 32960, 0, 2097152, 1048576, 16777216),
    ("small", "mvt", "BDW", false, [1801410, 13, 262705], [295742, 295729, 33024], 33024, 0, 2097152, 1048576, 16777216),
    ("small", "mvt", "BDW", true, [1801230, 230018, 32880], [295922, 65904, 33024], 33024, 0, 2097152, 1048576, 16777216),
    ("small", "trisolv", "BDW", false, [508608, 56, 392], [17216, 17160, 16768], 16768, 0, 525824, 262144, 4206592),
    ("small", "trisolv", "BDW", true, [508608, 56, 392], [17216, 17160, 16768], 16768, 0, 525824, 262144, 4206592),
    ("small", "jacobi-2d", "BDW", false, [7224220, 0, 140634], [156260, 156260, 15626], 15626, 0, 7380480, 6150400, 59043840),
    ("small", "jacobi-2d", "BDW", true, [7354914, 9935, 5], [25566, 15631, 15626], 15626, 0, 7380480, 6150400, 59043840),
    ("small", "gemm", "RPL", false, [3443328, 110592, 0], [114048, 3456, 3456], 3456, 0, 3557376, 1778688, 28459008),
    ("small", "gemm", "RPL", true, [3548160, 5760, 0], [9216, 3456, 3456], 3456, 0, 3557376, 1778688, 28459008),
    ("small", "syrk", "RPL", false, [1765468, 29972, 0], [31748, 1776, 1776], 1776, 0, 1797216, 898608, 14377728),
    ("small", "syrk", "RPL", true, [1793212, 2228, 0], [4004, 1776, 1776], 1776, 0, 1797216, 898608, 14377728),
    ("small", "atax", "RPL", false, [2031360, 30703, 2129], [65792, 35089, 32960], 32960, 0, 2097152, 1048576, 16777216),
    ("small", "atax", "RPL", true, [2031240, 30840, 2112], [65912, 35072, 32960], 32960, 0, 2097152, 1048576, 16777216),
    ("small", "mvt", "RPL", false, [1801412, 252473, 10243], [295740, 43267, 33024], 33024, 0, 2097152, 1048576, 16777216),
    ("small", "mvt", "RPL", true, [1801292, 260184, 2652], [295860, 35676, 33024], 33024, 0, 2097152, 1048576, 16777216),
    ("small", "trisolv", "RPL", false, [508615, 441, 0], [17209, 16768, 16768], 16768, 0, 525824, 262144, 4206592),
    ("small", "trisolv", "RPL", true, [508615, 441, 0], [17209, 16768, 16768], 16768, 0, 525824, 262144, 4206592),
    ("small", "jacobi-2d", "RPL", false, [7224220, 140634, 0], [156260, 15626, 15626], 15626, 0, 7380480, 6150400, 59043840),
    ("small", "jacobi-2d", "RPL", true, [7359337, 5517, 0], [21143, 15626, 15626], 15626, 0, 7380480, 6150400, 59043840),
];

/// The simulator's counters, and how many run groups it skipped by its
/// warp over repeated all-hit groups (reported by its `Debug` output).
fn simulate(platform: &Platform, program: &AffineProgram) -> (SimStats, u64) {
    let mut sim = CacheSim::new(&platform.hierarchy, program);
    interpret_program(program, &mut sim);
    let debug = format!("{sim:?}");
    let (_, warped) = debug.split_once("warped_groups: ").expect("reported");
    (
        sim.stats,
        warped.trim_end_matches(" }").parse().expect("a count"),
    )
}

#[test]
fn simulator_counters_are_pinned() {
    let mut got = Vec::new();
    let mut warping_rows = 0;
    for (size, preset) in [
        ("mini", PolybenchSize::Mini),
        ("small", PolybenchSize::Small),
    ] {
        for platform in Platform::all() {
            let pipe = Pipeline::new(platform.clone());
            for w in polybench_suite(preset) {
                if !KERNELS.contains(&w.name) {
                    continue;
                }
                let optimized = pipe.compile_affine(&w.program).expect("compiles").optimized;
                for (opt, program) in [(false, &w.program), (true, &optimized)] {
                    let (st, warped) = simulate(&platform, program);
                    warping_rows += usize::from(warped > 0);
                    got.push((
                        size,
                        w.name,
                        platform.name.clone(),
                        opt,
                        st.hits,
                        st.misses,
                        st.dram_line_fills,
                        st.dram_writebacks,
                        st.accesses,
                        st.flops,
                        st.bytes_requested,
                    ));
                }
            }
        }
    }
    // 12 rows warp when written: gemm and mvt at mini, gemm at small.
    assert!(
        warping_rows > 0,
        "no pinned row exercises the warp over repeated all-hit groups"
    );
    assert_eq!(
        got.len(),
        PINS.len(),
        "one pin per (kernel, platform, form)"
    );
    for (g, p) in got.iter().zip(PINS) {
        let pinned = (
            p.0,
            p.1,
            p.2.to_string(),
            p.3,
            p.4.to_vec(),
            p.5.to_vec(),
            p.6,
            p.7,
            p.8,
            p.9,
            p.10,
        );
        assert_eq!(
            g, &pinned,
            "{} at {} on {} (optimized: {})",
            p.1, p.0, p.2, p.3
        );
    }
}
