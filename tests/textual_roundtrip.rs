//! The textual affine-IR format must round-trip for every workload: print
//! → parse → print is a fixed point, and traces are preserved.

use polyufc_ir::interp::{interpret_program, TraceStats};
use polyufc_ir::textual::parse_affine_program;
use polyufc_workloads::{ml_suite, polybench_suite, PolybenchSize};

#[test]
fn polybench_suite_roundtrips() {
    for w in polybench_suite(PolybenchSize::Mini) {
        let text = w.program.to_string();
        let parsed =
            parse_affine_program(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", w.name));
        assert_eq!(parsed.to_string(), text, "{} must round-trip", w.name);
        let mut a = TraceStats::default();
        interpret_program(&w.program, &mut a);
        let mut b = TraceStats::default();
        interpret_program(&parsed, &mut b);
        assert_eq!(a, b, "{} trace preserved", w.name);
    }
}

#[test]
fn ml_suite_roundtrips() {
    for w in ml_suite() {
        let p = w.affine();
        let text = p.to_string();
        let parsed = parse_affine_program(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(parsed.to_string(), text, "{} must round-trip", w.name);
    }
}

#[test]
fn tiled_programs_roundtrip() {
    use polyufc_pluto::PlutoOptimizer;
    let w = polybench_suite(PolybenchSize::Small)
        .into_iter()
        .find(|w| w.name == "gemm")
        .unwrap();
    let (opt, _) = PlutoOptimizer.optimize(&w.program);
    let text = opt.to_string();
    let parsed = parse_affine_program(&text).unwrap();
    assert_eq!(
        parsed.to_string(),
        text,
        "tiled (min/max bounds) must round-trip"
    );
    let mut a = TraceStats::default();
    interpret_program(&opt, &mut a);
    let mut b = TraceStats::default();
    interpret_program(&parsed, &mut b);
    assert_eq!(a, b);
}
