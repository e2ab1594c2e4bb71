//! Byte-identity of the compiler's output, as a tier-1 test: everything a
//! compile decides — caps, PolyUFC-CM statistics, Pluto decisions, the
//! optimized program (what the simulator runs) and the scf text — folded
//! into one FNV-1a digest per platform over the 30 PolyBench programs at
//! three sizes plus the 7 ML programs. A performance change that claims
//! "byte-identical" must leave both constants alone; a change that moves
//! output on purpose regenerates them (the failure message prints the new
//! value) and says so.

use polyufc::Pipeline;
use polyufc_ir::affine::AffineProgram;
use polyufc_machine::fault::{fnv1a, FNV_OFFSET};
use polyufc_machine::Platform;
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

fn programs() -> Vec<(String, AffineProgram)> {
    let mut out = Vec::new();
    for (tag, size) in [
        ("mini", PolybenchSize::Mini),
        ("small", PolybenchSize::Small),
        ("large", PolybenchSize::Large),
    ] {
        for w in polybench_suite(size) {
            out.push((format!("{}@{tag}", w.name), w.program));
        }
    }
    for w in ml_suite() {
        out.push((w.name.to_string(), w.affine()));
    }
    out
}

fn digest(platform: Platform) -> u64 {
    let pipe = Pipeline::new(platform);
    let mut h = FNV_OFFSET;
    for (name, program) in programs() {
        let out = pipe
            .compile_affine(&program)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.report.fallback_kernels.is_empty(), "{name}: fallback");
        h = fnv1a(h, name.as_bytes());
        for cap in &out.caps_ghz {
            h = fnv1a(h, &cap.to_bits().to_le_bytes());
        }
        h = fnv1a(h, format!("{:?}", out.cache_stats).as_bytes());
        for d in &out.pluto_report.decisions {
            let decided = (
                &d.name,
                &d.skewed,
                d.tiled,
                &d.parallel_loops,
                d.analysis_conservative,
            );
            h = fnv1a(h, format!("{decided:?}").as_bytes());
        }
        h = fnv1a(h, out.optimized.to_string().as_bytes());
        h = fnv1a(h, out.scf.to_string().as_bytes());
    }
    h
}

fn assert_pinned(platform: Platform, expected: u64) {
    let got = digest(platform);
    assert_eq!(
        got, expected,
        "compile output moved: digest is now {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn broadwell_output_is_pinned() {
    assert_pinned(Platform::broadwell(), 0x6bff_e97b_4642_ee4a);
}

#[test]
fn raptor_lake_output_is_pinned() {
    assert_pinned(Platform::raptor_lake(), 0x7b2e_5df1_62e3_ddc0);
}
