//! Integration tests of ML-PolyUFC: dialect lowering chains, phase
//! reports, and cap granularities (paper Sec. VI).

use polyufc::{Boundedness, CapGranularity, MlPolyUfc, Pipeline};
use polyufc_ir::lower::{lower_affine_to_scf, lower_tensor_to_linalg};
use polyufc_ir::tensor::{TensorGraph, TensorOp, TensorOpKind};
use polyufc_ir::types::ElemType;
use polyufc_machine::Platform;
use polyufc_workloads::ml::{sdpa_bert, sdpa_gemma2};

#[test]
fn bert_sdpa_reproduces_fig5_structure() {
    let ml = MlPolyUfc::new(Pipeline::new(Platform::raptor_lake()));
    let w = sdpa_bert();
    let rep = ml.phase_report(&w.graph, w.elem).unwrap();
    // torch level: a single op (coarse, hides phases).
    assert_eq!(rep.tensor.len(), 1);
    // linalg: CB matmul, 7-op middle region, CB matmul (Fig. 5).
    assert_eq!(rep.linalg.len(), 9);
    assert_eq!(rep.linalg[0].1, Boundedness::ComputeBound);
    assert_eq!(rep.linalg[8].1, Boundedness::ComputeBound);
    let mid_bb = rep.linalg[1..8]
        .iter()
        .filter(|(_, c)| *c == Boundedness::BandwidthBound)
        .count();
    assert!(
        mid_bb >= 5,
        "middle region must be dominated by BB ops, got {mid_bb}/7"
    );
}

#[test]
fn granularity_controls_cap_count() {
    let w = sdpa_gemma2();
    let plat = Platform::broadwell();
    let mut caps_per_gran = Vec::new();
    for gran in [CapGranularity::Tensor, CapGranularity::Linalg] {
        let mut ml = MlPolyUfc::new(Pipeline::new(plat.clone()));
        ml.pipeline.cap_switch_guard = 0.0;
        ml.granularity = gran;
        let out = ml.compile(&w.graph, w.elem).unwrap();
        caps_per_gran.push(out.scf.cap_count());
        assert_eq!(out.scf.kernel_count(), 9);
    }
    // Tensor granularity collapses to a single cap; linalg granularity
    // may use more (never fewer).
    assert_eq!(caps_per_gran[0], 1);
    assert!(caps_per_gran[1] >= caps_per_gran[0]);
}

#[test]
fn lowering_chain_preserves_flops() {
    // tensor -> linalg -> affine -> scf keeps total arithmetic intact.
    let mut g = TensorGraph::new("chain");
    g.push(TensorOp {
        name: "mm".into(),
        kind: TensorOpKind::MatMul { m: 32, n: 16, k: 8 },
        inputs: vec!["A".into(), "B".into()],
        output: "C".into(),
    });
    let lp = lower_tensor_to_linalg(&g, ElemType::F32);
    let linalg_flops: u128 = lp.ops.iter().map(|o| o.total_flops()).sum();
    let ap = lp.lower_to_affine();
    let affine_flops: i128 = ap.kernels.iter().map(|k| k.total_flops().unwrap()).sum();
    assert_eq!(linalg_flops as i128, affine_flops);
    let scf = lower_affine_to_scf(&ap);
    assert_eq!(scf.kernel_count(), ap.kernels.len());
}

#[test]
fn multi_op_graph_gets_per_op_groups() {
    // Two tensor ops: caps grouped per op at tensor granularity.
    let mut g = TensorGraph::new("two_ops");
    g.push(TensorOp {
        name: "attn".into(),
        kind: TensorOpKind::Sdpa {
            b: 1,
            h: 2,
            s: 32,
            d: 16,
        },
        inputs: vec!["Q".into(), "K".into(), "V".into()],
        output: "attn_out".into(),
    });
    g.push(TensorOp {
        name: "proj".into(),
        kind: TensorOpKind::MatMul {
            m: 64,
            n: 16,
            k: 16,
        },
        inputs: vec!["attn_flat".into(), "W".into()],
        output: "Y".into(),
    });
    let mut ml = MlPolyUfc::new(Pipeline::new(Platform::raptor_lake()));
    ml.pipeline.cap_switch_guard = 0.0;
    ml.granularity = CapGranularity::Tensor;
    let out = ml.compile(&g, ElemType::F32).unwrap();
    assert_eq!(out.scf.kernel_count(), 10);
    // At most one cap per tensor op after the redundancy rewrite.
    assert!(out.scf.cap_count() <= 2, "got {} caps", out.scf.cap_count());
}
