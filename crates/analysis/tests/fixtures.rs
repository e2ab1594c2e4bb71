//! Broken-fixture regression suite: each `.mlir` under `tests/fixtures/`
//! plants exactly one class of bug, and the matching pass must catch it —
//! with the right pass id and a concrete witness where one is promised.

use polyufc_analysis::{Analyzer, Severity, Witness};
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::textual::parse_affine_program;
use polyufc_ir::types::ArrayId;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn analyze(name: &str) -> (AffineProgram, polyufc_analysis::AnalysisReport) {
    let program = parse_affine_program(&fixture(name)).expect("fixture must parse");
    let report = Analyzer::new().analyze(&program);
    (program, report)
}

#[test]
fn clean_matmul_passes_every_check() {
    let (_, report) = analyze("clean_matmul.mlir");
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.severity == Severity::Info),
        "control fixture must be clean, got:\n{}",
        report.render_text()
    );
}

#[test]
fn oob_stencil_caught_by_bounds_with_witness() {
    let (_, report) = analyze("oob_stencil.mlir");
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(
        errors.len(),
        1,
        "exactly the planted bug:\n{}",
        report.render_text()
    );
    let d = errors[0];
    assert_eq!(d.pass, "bounds");
    assert_eq!(d.location.array.as_deref(), Some("A"));
    match &d.witness {
        Some(Witness::Point {
            iters,
            dim,
            index_value,
        }) => {
            // A has extent 16; the only offending point is i0 = 15
            // reading A[16].
            assert_eq!(iters, &vec![15]);
            assert_eq!(*dim, 0);
            assert_eq!(*index_value, 16);
        }
        other => panic!("expected a point witness, got {other:?}"),
    }
}

#[test]
fn false_parallel_reduction_caught_by_races_with_pair() {
    let (_, report) = analyze("false_parallel_reduction.mlir");
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "only %i2 races:\n{}", report.render_text());
    let d = errors[0];
    assert_eq!(d.pass, "race");
    assert_eq!(d.location.loop_index, Some(2), "the reduction loop");
    assert_eq!(d.location.array.as_deref(), Some("C"));
    match &d.witness {
        Some(Witness::IterationPair { src, dst }) => {
            // Same (i0, i1) tile of C, distinct reduction steps.
            assert_eq!(src[0], dst[0]);
            assert_eq!(src[1], dst[1]);
            assert!(src[2] < dst[2]);
        }
        other => panic!("expected an iteration-pair witness, got {other:?}"),
    }
}

#[test]
fn empty_domain_caught_by_ir_verifier() {
    let (_, report) = analyze("empty_domain.mlir");
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{}", report.render_text());
    let d = errors[0];
    assert_eq!(d.pass, "ir-verify");
    assert!(d.message.contains("empty iteration domain"));
    assert_eq!(d.location.kernel.as_deref(), Some("dead"));
}

#[test]
fn dangling_array_rejected_at_parse_and_by_verifier() {
    // The textual parser refuses the undeclared name outright…
    let err = parse_affine_program(&fixture("dangling_array.mlir")).unwrap_err();
    assert!(err.to_string().contains("unknown array"), "{err}");
    // …and the same defect built programmatically (an out-of-range
    // ArrayId, as a buggy frontend could emit) is caught by ir-verify.
    let fixed = fixture("dangling_array.mlir").replace("%GHOST", "%A");
    let mut program = parse_affine_program(&fixed).expect("patched fixture parses");
    program.kernels[0].statements[0].accesses[1].array = ArrayId(13);
    let report = Analyzer::new().analyze(&program);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("dangling id must be an error");
    assert_eq!(d.pass, "ir-verify");
    assert!(d.message.contains("undeclared array"), "{}", d.message);
}

#[test]
fn sanitize_repairs_the_false_parallel_fixture() {
    let mut program = parse_affine_program(&fixture("false_parallel_reduction.mlir")).unwrap();
    let downgrades = polyufc_analysis::sanitize_parallel(&mut program);
    assert_eq!(downgrades.len(), 1, "only the racy flag is dropped");
    assert!(!program.kernels[0].loops[2].parallel);
    assert!(
        program.kernels[0].loops[0].parallel,
        "provable flags survive"
    );
    let report = Analyzer::new().analyze(&program);
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Info));
}
