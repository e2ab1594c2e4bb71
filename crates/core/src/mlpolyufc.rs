//! ML-PolyUFC (Sec. VI): multi-level, dialect-aware application of uncore
//! frequency caps.
//!
//! Analysis always happens at the affine level (the natural granularity
//! for the polyhedral machinery, Sec. VI-B); the *application* granularity
//! is configurable:
//!
//! * [`CapGranularity::Tensor`] — one cap per torch-level op (coarse:
//!   a single `sdpa` op hides CB → BB* → CB phase changes);
//! * [`CapGranularity::Linalg`] — one cap per linalg op (the paper's
//!   chosen trade-off between control granularity and switch overhead).
//!   Each structured op lowers to one affine nest, so this is also one cap
//!   per affine kernel.
//!
//! The module also produces the Fig. 5 phase report: the CB/BB phase
//! sequence of a tensor graph at each dialect level.

use std::collections::BTreeMap;

use polyufc_ir::tensor::TensorGraph;
use polyufc_ir::types::ElemType;
use serde::{Deserialize, Serialize};

use crate::characterize::Boundedness;
use crate::pipeline::{Error, Pipeline, PipelineOutput};

/// The dialect level at which caps are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapGranularity {
    /// One cap per tensor (torch) op.
    Tensor,
    /// One cap per linalg op (the paper's choice), which is one cap per
    /// affine kernel.
    Linalg,
}

/// The CB/BB phase sequence at every dialect level (Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Tensor-level phases: `(tensor op name, class)` from aggregated OI.
    pub tensor: Vec<(String, Boundedness)>,
    /// Linalg-level phases.
    pub linalg: Vec<(String, Boundedness)>,
    /// Affine-level phases (per kernel).
    pub affine: Vec<(String, Boundedness)>,
}

impl PhaseReport {
    /// Renders a compact phase string like `"CB BB BB ... CB"`.
    pub fn phase_string(level: &[(String, Boundedness)]) -> String {
        level
            .iter()
            .map(|(_, c)| c.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The multi-level driver.
#[derive(Debug, Clone)]
pub struct MlPolyUfc {
    /// The underlying pipeline (platform, rooflines, search config).
    pub pipeline: Pipeline,
    /// Cap-application granularity.
    pub granularity: CapGranularity,
}

impl MlPolyUfc {
    /// Creates a driver with the paper's default (linalg) granularity.
    pub fn new(pipeline: Pipeline) -> Self {
        MlPolyUfc {
            pipeline,
            granularity: CapGranularity::Linalg,
        }
    }

    /// Compiles a tensor graph with caps applied at the configured
    /// granularity.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::compile_affine`].
    pub fn compile(&self, graph: &TensorGraph, elem: ElemType) -> Result<PipelineOutput, Error> {
        let mut out = self.pipeline.compile_tensor(graph, elem)?;
        match self.granularity {
            CapGranularity::Linalg => Ok(out),
            CapGranularity::Tensor => {
                // Aggregate caps per tensor op: min over CB groups, max
                // over BB groups (Sec. VII-A aggregation rule), using the
                // group's aggregate OI for the group class.
                let groups = group_by_tensor_op(graph, &out);
                let mut group_cap: BTreeMap<String, f64> = BTreeMap::new();
                for (g, idxs) in &groups {
                    let omega: f64 = idxs.iter().map(|&i| out.cache_stats[i].flops).sum();
                    let q: f64 = idxs.iter().map(|&i| out.cache_stats[i].q_dram_bytes).sum();
                    let oi = if q > 0.0 { omega / q } else { f64::INFINITY };
                    let f_ref = self.pipeline.platform.uncore_max_ghz;
                    let cb = self.pipeline.roofline.is_compute_bound(oi, f_ref);
                    let caps = idxs.iter().map(|&i| out.caps_ghz[i]);
                    let cap = if cb {
                        caps.fold(f64::INFINITY, f64::min)
                    } else {
                        caps.fold(0.0, f64::max)
                    };
                    group_cap.insert(g.clone(), self.pipeline.platform.clamp_uncore(cap));
                }
                // Rewrite caps to group caps, then rebuild the scf.
                for (g, idxs) in &groups {
                    for &i in idxs {
                        out.caps_ghz[i] = group_cap[g];
                    }
                }
                out.scf = crate::capping::capped_scf(&out.optimized, &out.caps_ghz);
                Ok(out)
            }
        }
    }

    /// Produces the Fig. 5 phase report for a tensor graph.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::compile_affine`].
    pub fn phase_report(&self, graph: &TensorGraph, elem: ElemType) -> Result<PhaseReport, Error> {
        let out = self.pipeline.compile_tensor(graph, elem)?;
        let f_ref = self.pipeline.platform.uncore_max_ghz;
        let linalg: Vec<(String, Boundedness)> = out
            .characterizations
            .iter()
            .map(|c| (c.kernel.clone(), c.class))
            .collect();
        // Affine level: identical kernel set here, but re-derived from the
        // per-kernel stats to keep the level distinction explicit.
        let affine = linalg.clone();
        // Tensor level: aggregate OI per tensor op.
        let groups = group_by_tensor_op(graph, &out);
        let mut tensor = Vec::new();
        for op in &graph.ops {
            if let Some(idxs) = groups.get(&op.name) {
                let omega: f64 = idxs.iter().map(|&i| out.cache_stats[i].flops).sum();
                let q: f64 = idxs.iter().map(|&i| out.cache_stats[i].q_dram_bytes).sum();
                let oi = if q > 0.0 { omega / q } else { f64::INFINITY };
                let class = if self.pipeline.roofline.is_compute_bound(oi, f_ref) {
                    Boundedness::ComputeBound
                } else {
                    Boundedness::BandwidthBound
                };
                tensor.push((op.name.clone(), class));
            }
        }
        Ok(PhaseReport {
            tensor,
            linalg,
            affine,
        })
    }
}

/// Groups kernel indices by the tensor op whose lowering produced them
/// (name-prefix convention of the lowering: `<tensor op>_<suffix>`).
fn group_by_tensor_op(graph: &TensorGraph, out: &PipelineOutput) -> BTreeMap<String, Vec<usize>> {
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, k) in out.optimized.kernels.iter().enumerate() {
        let owner = graph
            .ops
            .iter()
            .map(|op| &op.name)
            .filter(|n| k.name == **n || k.name.starts_with(&format!("{n}_")))
            .max_by_key(|n| n.len());
        if let Some(o) = owner {
            groups.entry(o.clone()).or_default().push(i);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::tensor::{TensorOp, TensorOpKind};
    use polyufc_machine::Platform;

    fn sdpa_graph() -> TensorGraph {
        let mut g = TensorGraph::new("bert");
        g.push(TensorOp {
            name: "sdpa".into(),
            kind: TensorOpKind::Sdpa {
                b: 2,
                h: 12,
                s: 128,
                d: 64,
            },
            inputs: vec!["Q".into(), "K".into(), "V".into()],
            output: "O".into(),
        });
        g
    }

    #[test]
    fn fig5_phase_structure_cb_bb_cb() {
        let ml = MlPolyUfc::new(Pipeline::new(Platform::raptor_lake()));
        let rep = ml.phase_report(&sdpa_graph(), ElemType::F32).unwrap();
        assert_eq!(rep.linalg.len(), 9);
        assert_eq!(
            rep.linalg[0].1,
            Boundedness::ComputeBound,
            "Q·Kᵀ must be CB"
        );
        assert_eq!(rep.linalg[8].1, Boundedness::ComputeBound, "P·V must be CB");
        // The middle seven ops form the BB* region.
        let middle_bb = rep.linalg[1..8]
            .iter()
            .filter(|(_, c)| *c == Boundedness::BandwidthBound)
            .count();
        assert!(
            middle_bb >= 5,
            "most of the softmax chain must be BB, got {middle_bb}/7"
        );
        // At tensor level the whole op collapses into a single phase.
        assert_eq!(rep.tensor.len(), 1);
    }

    #[test]
    fn tensor_granularity_uses_one_cap() {
        let mut ml = MlPolyUfc::new(Pipeline::new(Platform::raptor_lake()));
        ml.granularity = CapGranularity::Tensor;
        let out = ml.compile(&sdpa_graph(), ElemType::F32).unwrap();
        assert_eq!(out.scf.cap_count(), 1, "one cap for the whole tensor op");
        ml.granularity = CapGranularity::Linalg;
        let out2 = ml.compile(&sdpa_graph(), ElemType::F32).unwrap();
        assert!(out2.scf.cap_count() >= out.scf.cap_count());
    }

    #[test]
    fn prefix_grouping_prefers_longest_owner() {
        // Two ops where one name prefixes the other: kernels must attach
        // to the longest matching owner.
        use polyufc_ir::tensor::TensorOp;
        let mut g = TensorGraph::new("pfx");
        g.push(TensorOp {
            name: "mm".into(),
            kind: TensorOpKind::MatMul {
                m: 16,
                n: 16,
                k: 16,
            },
            inputs: vec!["A".into(), "B".into()],
            output: "C".into(),
        });
        g.push(TensorOp {
            name: "mm_big".into(),
            kind: TensorOpKind::MatMul {
                m: 32,
                n: 32,
                k: 32,
            },
            inputs: vec!["D".into(), "E".into()],
            output: "F".into(),
        });
        let ml = MlPolyUfc::new(Pipeline::new(Platform::broadwell()));
        let rep = ml.phase_report(&g, ElemType::F32).unwrap();
        assert_eq!(rep.tensor.len(), 2, "both ops must own their kernels");
    }

    #[test]
    fn phase_string_renders() {
        let s = PhaseReport::phase_string(&[
            ("a".into(), Boundedness::ComputeBound),
            ("b".into(), Boundedness::BandwidthBound),
        ]);
        assert_eq!(s, "CB BB");
    }
}
