//! Code generation for uncore frequency caps (Sec. VII-A): insertion of
//! `set_uncore_cap` runtime calls before each top-level op, and the
//! pattern-rewrite pass that removes redundant caps.

use polyufc_ir::affine::AffineProgram;
use polyufc_ir::scf::{ScfOp, ScfProgram};
use serde::{Deserialize, Serialize};

/// The cap plan: one frequency per kernel (MHz, matching the runtime
/// call's argument).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapPlan {
    /// `(kernel name, cap in MHz)` in program order.
    pub caps_mhz: Vec<(String, u32)>,
}

impl CapPlan {
    /// Builds a plan from GHz values.
    pub fn from_ghz(caps: impl IntoIterator<Item = (String, f64)>) -> Self {
        CapPlan {
            caps_mhz: caps
                .into_iter()
                .map(|(n, f)| (n, (f * 1000.0).round() as u32))
                .collect(),
        }
    }
}

/// Stage 6: the scf program with the caps of `caps_ghz` (one per kernel,
/// in program order), redundant caps removed.
pub fn capped_scf(program: &AffineProgram, caps_ghz: &[f64]) -> ScfProgram {
    let plan = CapPlan::from_ghz(
        program
            .kernels
            .iter()
            .zip(caps_ghz)
            .map(|(k, &f)| (k.name.clone(), f)),
    );
    remove_redundant_caps(&insert_caps(program, &plan))
}

/// Lowers an affine program to scf with one `set_uncore_cap` call before
/// each kernel, per the plan.
///
/// # Panics
///
/// Panics if the plan's length differs from the kernel count.
pub fn insert_caps(program: &AffineProgram, plan: &CapPlan) -> ScfProgram {
    assert_eq!(
        program.kernels.len(),
        plan.caps_mhz.len(),
        "plan must cover every kernel"
    );
    let mut ops = Vec::with_capacity(program.kernels.len() * 2);
    for (k, (name, mhz)) in program.kernels.iter().zip(&plan.caps_mhz) {
        debug_assert_eq!(&k.name, name, "plan order must match program order");
        ops.push(ScfOp::SetUncoreCap { mhz: *mhz });
        ops.push(ScfOp::Kernel(k.clone()));
    }
    ScfProgram {
        name: program.name.clone(),
        arrays: program.arrays.clone(),
        ops,
    }
}

/// The redundant-cap rewrite: drops a cap call when the requested
/// frequency is already in effect, and collapses back-to-back cap calls
/// (only the last takes effect before the next kernel).
pub fn remove_redundant_caps(scf: &ScfProgram) -> ScfProgram {
    let mut out = Vec::with_capacity(scf.ops.len());
    let mut current: Option<u32> = None;
    let mut pending: Option<u32> = None;
    for op in &scf.ops {
        match op {
            ScfOp::SetUncoreCap { mhz } => {
                pending = Some(*mhz);
            }
            ScfOp::Kernel(k) => {
                if let Some(mhz) = pending.take() {
                    if current != Some(mhz) {
                        out.push(ScfOp::SetUncoreCap { mhz });
                        current = Some(mhz);
                    }
                }
                out.push(ScfOp::Kernel(k.clone()));
            }
        }
    }
    // A trailing cap with no kernel after it is dead; drop it.
    ScfProgram {
        name: scf.name.clone(),
        arrays: scf.arrays.clone(),
        ops: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyufc_ir::affine::{AffineKernel, Loop};

    fn kernel(name: &str) -> AffineKernel {
        AffineKernel {
            name: name.into(),
            loops: vec![Loop::range(4)],
            statements: vec![],
        }
    }

    fn program(names: &[&str]) -> AffineProgram {
        let mut p = AffineProgram::new("p");
        for n in names {
            p.kernels.push(kernel(n));
        }
        p
    }

    #[test]
    fn caps_inserted_per_kernel() {
        let p = program(&["a", "b"]);
        let plan = CapPlan::from_ghz(vec![("a".into(), 1.2), ("b".into(), 2.8)]);
        let scf = insert_caps(&p, &plan);
        assert_eq!(scf.cap_count(), 2);
        assert_eq!(scf.kernel_count(), 2);
        let kc = scf.kernels_with_caps();
        assert_eq!(kc[0].0, Some(1200));
        assert_eq!(kc[1].0, Some(2800));
    }

    #[test]
    fn redundant_caps_removed() {
        let p = program(&["a", "b", "c"]);
        let plan = CapPlan::from_ghz(vec![
            ("a".into(), 1.2),
            ("b".into(), 1.2),
            ("c".into(), 2.8),
        ]);
        let scf = remove_redundant_caps(&insert_caps(&p, &plan));
        assert_eq!(scf.cap_count(), 2, "b's cap equals a's and must be dropped");
        let kc = scf.kernels_with_caps();
        assert_eq!(kc[0].0, Some(1200));
        assert_eq!(kc[1].0, Some(1200));
        assert_eq!(kc[2].0, Some(2800));
    }

    #[test]
    fn back_to_back_caps_collapse() {
        let mut scf = ScfProgram {
            name: "x".into(),
            arrays: vec![],
            ops: vec![
                ScfOp::SetUncoreCap { mhz: 1200 },
                ScfOp::SetUncoreCap { mhz: 2000 },
                ScfOp::Kernel(kernel("a")),
                ScfOp::SetUncoreCap { mhz: 2000 },
                ScfOp::Kernel(kernel("b")),
                ScfOp::SetUncoreCap { mhz: 900 },
            ],
        };
        scf = remove_redundant_caps(&scf);
        assert_eq!(scf.cap_count(), 1);
        let kc = scf.kernels_with_caps();
        assert_eq!(kc[0].0, Some(2000));
        assert_eq!(kc[1].0, Some(2000));
    }

    #[test]
    fn semantics_preserved_under_rewrite() {
        let p = program(&["a", "b", "c", "d"]);
        let plan = CapPlan::from_ghz(vec![
            ("a".into(), 2.0),
            ("b".into(), 2.0),
            ("c".into(), 1.4),
            ("d".into(), 1.4),
        ]);
        let before = insert_caps(&p, &plan);
        let after = remove_redundant_caps(&before);
        let eff_before: Vec<Option<u32>> =
            before.kernels_with_caps().iter().map(|(c, _)| *c).collect();
        let eff_after: Vec<Option<u32>> =
            after.kernels_with_caps().iter().map(|(c, _)| *c).collect();
        assert_eq!(eff_before, eff_after);
        assert!(after.cap_count() < before.cap_count());
    }
}
