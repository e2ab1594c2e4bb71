//! Random affine kernels for the simulator's property suites: strides of
//! 0, negative and line-multiple coefficients, several statements,
//! innermost trip counts up to 48, neighbour accesses that share an array
//! and a subscript up to a constant offset of 0–3 elements and ±1 row (so
//! their streams cross lines at different phases, as a stencil's do), and
//! kernels whose second-innermost iterator no subscript reads, so that
//! consecutive run groups repeat and the warp over repeated all-hit
//! groups fires.

use proptest::prelude::*;

use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
use polyufc_ir::types::ElemType;
use polyufc_presburger::LinExpr;

const ARRAY_ELEMS: usize = 4096;

/// Added to every subscript, so that a row offset of -1 stays in bounds.
const MARGIN: i64 = 16;

/// Builds an in-bounds index expression from per-iterator coefficients:
/// the constant is shifted so the minimum offset over the (rectangular)
/// domain is zero.
fn in_bounds_expr(coeffs: &[i64], extents: &[i64]) -> LinExpr {
    let mut e = LinExpr::constant(0);
    let mut min = 0i64;
    for (v, (&c, &ext)) in coeffs.iter().zip(extents).enumerate() {
        if c != 0 {
            e = e + LinExpr::var(v) * c;
        }
        min += (c * (ext - 1)).min(0);
    }
    e + LinExpr::constant(-min)
}

/// One access: per-iterator index coefficients, whether it writes, a
/// constant offset in elements, an offset in rows (one row is the
/// coefficient of the second-innermost iterator), and whether it takes
/// its statement's first array and subscript instead of its own.
type AccessSpec = (Vec<i64>, bool, i64, i64, bool);

#[derive(Debug, Clone)]
pub struct KernelSpec {
    extents: Vec<i64>,
    /// Per statement: flops and its accesses.
    stmts: Vec<(u64, Vec<AccessSpec>)>,
}

const MAX_DEPTH: usize = 3;

pub fn kernel_spec() -> impl Strategy<Value = KernelSpec> {
    // The vendored proptest has no `prop_flat_map`: draw everything at the
    // maximum depth and truncate to the drawn depth in `prop_map`. A
    // coefficient of 8 is one line of the f64 array and 16 one line of
    // the f32 array.
    let coeff = prop_oneof![
        Just(0i64),
        Just(1),
        Just(-1),
        Just(2),
        Just(-2),
        Just(3),
        Just(9),
        Just(-9),
        Just(8),
        Just(-8),
        Just(16),
    ];
    let accesses = proptest::collection::vec(
        (
            proptest::collection::vec(coeff, MAX_DEPTH),
            any::<bool>(),
            0i64..4,
            -1i64..=1,
            any::<bool>(),
        ),
        1..5,
    );
    let stmts = proptest::collection::vec((0u64..4, accesses), 1..3);
    (
        2usize..=MAX_DEPTH,
        proptest::collection::vec(1i64..10, MAX_DEPTH),
        // Three in four kernels keep short groups, which tiny caches can
        // hold whole, so repeated groups still warp.
        prop_oneof![1i64..10, 1i64..10, 1i64..10, 10i64..=48],
        stmts,
        any::<bool>(),
    )
        .prop_map(|(depth, mut extents, inner, mut stmts, repeat)| {
            extents.truncate(depth);
            extents[depth - 1] = inner;
            for (_, accesses) in &mut stmts {
                let first = accesses[0].0.clone();
                for (coeffs, _, _, _, neighbour) in accesses {
                    if *neighbour {
                        coeffs.clone_from(&first);
                    }
                    coeffs.truncate(depth);
                    if repeat {
                        // No subscript reads the second-innermost
                        // iterator: its groups repeat one another.
                        coeffs[depth - 2] = 0;
                    }
                }
            }
            KernelSpec { extents, stmts }
        })
}

pub fn build_program(spec: &KernelSpec) -> AffineProgram {
    let mut p = AffineProgram::new("diff");
    let a = p.add_array("A", vec![ARRAY_ELEMS], ElemType::F64);
    let b = p.add_array("B", vec![ARRAY_ELEMS], ElemType::F32);
    let statements = spec
        .stmts
        .iter()
        .enumerate()
        .map(|(si, (flops, accesses))| Statement {
            name: format!("S{si}"),
            accesses: accesses
                .iter()
                .enumerate()
                .map(|(ai, (coeffs, is_write, offset, rows, neighbour))| {
                    // A neighbour uses its statement's first array.
                    let ai = if *neighbour { 0 } else { ai };
                    let arr = if (si + ai) % 2 == 0 { a } else { b };
                    let row = coeffs[coeffs.len() - 2];
                    let idx = in_bounds_expr(coeffs, &spec.extents)
                        + LinExpr::constant(MARGIN + offset + rows * row);
                    if *is_write {
                        Access::write(arr, vec![idx])
                    } else {
                        Access::read(arr, vec![idx])
                    }
                })
                .collect(),
            flops: *flops,
        })
        .collect();
    p.kernels.push(AffineKernel {
        name: "k".into(),
        loops: spec.extents.iter().map(|&e| Loop::range(e)).collect(),
        statements,
    });
    p
}
