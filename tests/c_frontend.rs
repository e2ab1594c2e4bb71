//! Cross-validation of the C frontend against the native workload
//! builders: the same kernel written as PolyBench-style C must produce an
//! identical access trace, the same polyhedral analysis results, and the
//! same uncore caps.

use polyufc::Pipeline;
use polyufc_cgeist::parse_scop;
use polyufc_ir::interp::{interpret_program, TraceStats};
use polyufc_machine::Platform;
use polyufc_workloads::polybench;

const GEMM_C: &str = r#"
    double A[96][96]; double B[96][96]; double C[96][96];
    #pragma scop
    for (int i = 0; i < 96; i++)
      for (int j = 0; j < 96; j++)
        C[i][j] = C[i][j] * beta;
    for (int i = 0; i < 96; i++)
      for (int j = 0; j < 96; j++)
        for (int k = 0; k < 96; k++)
          C[i][j] += A[i][k] * B[k][j];
    #pragma endscop
"#;

const MVT_C: &str = r#"
    double A[512][512];
    double x1[512]; double x2[512];
    double y1[512]; double y2[512];
    #pragma scop
    for (int i = 0; i < 512; i++)
      for (int j = 0; j < 512; j++)
        x1[i] = x1[i] + A[i][j] * y1[j];
    for (int i = 0; i < 512; i++)
      for (int j = 0; j < 512; j++)
        x2[i] = x2[i] + A[j][i] * y2[j];
    #pragma endscop
"#;

const TRISOLV_C: &str = r#"
    double L[512][512]; double x[512]; double b[512];
    #pragma scop
    for (int i = 0; i < 512; i++)
      x[i] = b[i];
    for (int i = 0; i < 512; i++)
      for (int j = 0; j < i; j++)
        x[i] = x[i] - L[i][j] * x[j];
    for (int i = 0; i < 512; i++)
      x[i] = x[i] / L[i][i];
    #pragma endscop
"#;

fn trace(p: &polyufc_ir::AffineProgram) -> TraceStats {
    let mut st = TraceStats::default();
    interpret_program(p, &mut st);
    st
}

#[test]
fn gemm_c_matches_builder_trace() {
    let c = parse_scop(GEMM_C, "gemm").unwrap();
    let native = polybench::gemm(96);
    let (a, b) = (trace(&c), trace(&native));
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.flops, b.flops);
}

#[test]
fn mvt_c_matches_builder_trace() {
    let c = parse_scop(MVT_C, "mvt").unwrap();
    let native = polybench::mvt(512);
    let (a, b) = (trace(&c), trace(&native));
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.flops, b.flops);
}

#[test]
fn trisolv_c_matches_builder_trace() {
    let c = parse_scop(TRISOLV_C, "trisolv").unwrap();
    let native = polybench::trisolv(512);
    let (a, b) = (trace(&c), trace(&native));
    assert_eq!(a.flops, b.flops);
    assert_eq!(a.accesses, b.accesses);
    assert_eq!(a.writes, b.writes);
}

#[test]
fn c_source_gets_same_caps_as_builder() {
    let plat = Platform::broadwell();
    let pipe = Pipeline::new(plat);
    let from_c = pipe
        .compile_affine(&parse_scop(MVT_C, "mvt").unwrap())
        .unwrap();
    let native = pipe.compile_affine(&polybench::mvt(512)).unwrap();
    assert_eq!(
        from_c.caps_ghz, native.caps_ghz,
        "frontend must not change decisions"
    );
    for (a, b) in from_c
        .characterizations
        .iter()
        .zip(&native.characterizations)
    {
        assert_eq!(a.class, b.class);
        assert!((a.oi - b.oi).abs() < 1e-9 * (1.0 + a.oi.abs()));
    }
}

#[test]
fn parsed_program_survives_pluto() {
    use polyufc_pluto::PlutoOptimizer;
    let p = parse_scop(GEMM_C, "gemm").unwrap();
    let (opt, report) = PlutoOptimizer.optimize(&p);
    assert!(report.decisions[1].tiled, "the matmul nest must tile");
    let (a, b) = (trace(&p), trace(&opt));
    assert_eq!(
        a.accesses, b.accesses,
        "tiling must preserve the trace multiset"
    );
}
