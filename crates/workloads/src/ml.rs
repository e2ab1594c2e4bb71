//! The ML kernels of Table II: conv2d layers (AlexNet, ConvNeXt,
//! WideResNet), LM-head matmuls (GPT-2, LLaMA-2), and scaled dot-product
//! attention (BERT, Gemma-2), as tensor-dialect graphs.
//!
//! Shapes follow the paper; where the paper's shape makes trace-driven
//! simulation intractable (WideResNet's batch-64 convolution, the full
//! LLaMA-2 vocabulary) a scaled shape with the same arithmetic structure
//! and boundedness is used and noted in the `scaled` flag (see DESIGN.md).

use polyufc_ir::affine::AffineProgram;
use polyufc_ir::lower::lower_tensor_to_linalg;
use polyufc_ir::tensor::{TensorGraph, TensorOp, TensorOpKind};
use polyufc_ir::types::ElemType;

/// One ML workload: a tensor graph plus metadata.
#[derive(Debug, Clone)]
pub struct MlWorkload {
    /// Name, e.g. `conv2d-alexnet`.
    pub name: &'static str,
    /// Source model (Table II).
    pub source: &'static str,
    /// Domain: `vision` or `nlp`.
    pub domain: &'static str,
    /// The graph.
    pub graph: TensorGraph,
    /// Element type used in the evaluation.
    pub elem: ElemType,
    /// Whether the shape was scaled from the paper's for tractability.
    pub scaled: bool,
}

impl MlWorkload {
    /// The workload's affine program: the graph lowered through linalg.
    pub fn affine(&self) -> AffineProgram {
        lower_tensor_to_linalg(&self.graph, self.elem).lower_to_affine()
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_graph(
    name: &str,
    n: usize,
    ch: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
    stride: usize,
) -> TensorGraph {
    let mut g = TensorGraph::new(name);
    g.push(TensorOp {
        name: "conv2d".into(),
        kind: TensorOpKind::Conv2d {
            n,
            c: ch,
            h,
            w,
            f,
            kh,
            kw,
            stride,
        },
        inputs: vec!["I".into(), "W".into()],
        output: "O".into(),
    });
    g
}

fn matmul_graph(name: &str, m: usize, n: usize, k: usize) -> TensorGraph {
    let mut g = TensorGraph::new(name);
    g.push(TensorOp {
        name: "lm_head".into(),
        kind: TensorOpKind::MatMul { m, n, k },
        inputs: vec!["X".into(), "W".into()],
        output: "Y".into(),
    });
    g
}

fn sdpa_graph(name: &str, b: usize, h: usize, s: usize, d: usize) -> TensorGraph {
    let mut g = TensorGraph::new(name);
    g.push(TensorOp {
        name: "sdpa".into(),
        kind: TensorOpKind::Sdpa { b, h, s, d },
        inputs: vec!["Q".into(), "K".into(), "V".into()],
        output: "O".into(),
    });
    g
}

/// AlexNet conv1: `1×3×224×224 ⊛ 64×3×11×11`, stride 4 (paper shape).
pub fn conv2d_alexnet() -> MlWorkload {
    MlWorkload {
        name: "conv2d-alexnet",
        source: "ALEXNET",
        domain: "vision",
        graph: conv_graph("alexnet_conv1", 1, 3, 224, 224, 64, 11, 11, 4),
        elem: ElemType::F32,
        scaled: false,
    }
}

/// ConvNeXt downsampling conv: `1×384×28×28 ⊛ 768×384×2×2`, stride 2
/// (paper shape).
pub fn conv2d_convnext() -> MlWorkload {
    MlWorkload {
        name: "conv2d-convnext",
        source: "CONVNEXT",
        domain: "vision",
        graph: conv_graph("convnext_ds", 1, 384, 28, 28, 768, 2, 2, 2),
        elem: ElemType::F32,
        scaled: false,
    }
}

/// WideResNet 1×1 conv: paper uses batch 64 (`64×1024×7×7 ⊛
/// 2048×1024×1×1`); we run batch 4 to keep trace simulation tractable.
pub fn conv2d_wideresnet() -> MlWorkload {
    MlWorkload {
        name: "conv2d-wideresnet",
        source: "WIDERESNET",
        domain: "vision",
        graph: conv_graph("wideresnet_1x1", 4, 1024, 7, 7, 2048, 1, 1, 1),
        elem: ElemType::F32,
        scaled: true,
    }
}

/// GPT-2 LM head: paper shape `4×768×50257`; vocabulary scaled to 12800.
pub fn lm_head_gpt2() -> MlWorkload {
    MlWorkload {
        name: "lm-head-gpt2",
        source: "GPT2",
        domain: "nlp",
        graph: matmul_graph("gpt2_lm_head", 4, 12800, 768),
        elem: ElemType::F32,
        scaled: true,
    }
}

/// LLaMA-2 LM head: paper shape `13×4096×32000`; vocabulary scaled to
/// 8000.
pub fn lm_head_llama2() -> MlWorkload {
    MlWorkload {
        name: "lm-head-llama2",
        source: "LLAMA2",
        domain: "nlp",
        graph: matmul_graph("llama2_lm_head", 13, 8000, 4096),
        elem: ElemType::F32,
        scaled: true,
    }
}

/// BERT self-attention: `2×12×128×64` (paper shape).
pub fn sdpa_bert() -> MlWorkload {
    MlWorkload {
        name: "sdpa-bert",
        source: "BERT",
        domain: "nlp",
        graph: sdpa_graph("bert_sdpa", 2, 12, 128, 64),
        elem: ElemType::F32,
        scaled: false,
    }
}

/// Gemma-2 self-attention: `1×16×7×256` (paper shape; a multi-kernel
/// benchmark — its lowering produces the inter-kernel cap sequence of
/// Sec. VII-F).
pub fn sdpa_gemma2() -> MlWorkload {
    MlWorkload {
        name: "sdpa-gemma2",
        source: "GEMMA2",
        domain: "nlp",
        graph: sdpa_graph("gemma2_sdpa", 1, 16, 7, 256),
        elem: ElemType::F32,
        scaled: false,
    }
}

/// All seven ML workloads of Table II.
pub fn ml_suite() -> Vec<MlWorkload> {
    vec![
        conv2d_alexnet(),
        conv2d_convnext(),
        conv2d_wideresnet(),
        lm_head_gpt2(),
        lm_head_llama2(),
        sdpa_bert(),
        sdpa_gemma2(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_table2() {
        let s = ml_suite();
        assert_eq!(s.len(), 7);
        let sources: Vec<_> = s.iter().map(|w| w.source).collect();
        for src in [
            "ALEXNET",
            "CONVNEXT",
            "WIDERESNET",
            "GPT2",
            "LLAMA2",
            "BERT",
            "GEMMA2",
        ] {
            assert!(sources.contains(&src), "missing {src}");
        }
    }

    #[test]
    fn all_lower_validly() {
        for w in ml_suite() {
            assert_eq!(w.affine().validate(), Ok(()), "workload `{}`", w.name);
        }
    }

    #[test]
    fn sdpa_produces_nine_kernels() {
        let ap = sdpa_bert().affine();
        assert_eq!(ap.kernels.len(), 9);
    }

    #[test]
    fn alexnet_output_shape() {
        let ap = conv2d_alexnet().affine();
        // Output 64×54×54 per Table II's stride-4 11×11 kernel.
        let out = ap.arrays.iter().find(|a| a.name == "O").unwrap();
        assert_eq!(out.dims, vec![1, 64, 54, 54]);
    }
}
