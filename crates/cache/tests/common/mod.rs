//! Random affine kernels for the simulator's property suites: strides of
//! 0, negative and line-multiple coefficients, several statements,
//! innermost trip counts up to 48, neighbour accesses that share an array
//! and a subscript up to a constant offset of 0–3 elements and ±1 row (so
//! their streams cross lines at different phases, as a stencil's do), and
//! kernels whose second-innermost iterator no subscript reads, so that
//! consecutive run groups repeat and the warp over repeated all-hit
//! groups fires. The same coefficients give each run an outer stride —
//! its step from one group of a block to the next — of 0, under a line or
//! a line or more; accumulators (no innermost coefficient) make the
//! streams that hold one line across group boundaries; and innermost
//! bounds that read the second-innermost iterator (lower and upper
//! triangles, a moving band) cut loops into blocks by trip count.

use proptest::prelude::*;

use polyufc_ir::affine::{Access, AffineKernel, AffineProgram, Bound, Loop, Statement};
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
/// coefficient of the second-innermost iterator), whether it takes its
/// statement's first array and subscript instead of its own, and whether
/// it is an accumulator (its innermost coefficient is zeroed).
type AccessSpec = (Vec<i64>, bool, i64, i64, bool, bool);

#[derive(Debug, Clone)]
pub struct KernelSpec {
    extents: Vec<i64>,
    /// Innermost bounds, `j` innermost and `i` second-innermost within
    /// `0..extent`: rectangular (0–2, 6, 7), `j <= i` (3), `i <= j` (4) or
    /// `i <= j <= i + 1` (5).
    shape: u8,
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
            prop_oneof![Just(false), Just(false), Just(false), Just(true)],
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
        // Five in eight nests are rectangular: only their groups can all
        // be as long as their predecessors, so they carry the warp.
        0u8..8,
    )
        .prop_map(|(depth, mut extents, inner, mut stmts, repeat, shape)| {
            extents.truncate(depth);
            extents[depth - 1] = inner;
            // The interpreter fixes trailing loops of one iteration, so
            // in a rectangular nest groups step along the deepest loop of
            // more than one; the two arms below act on the loops it groups.
            let levels = match shape {
                3..=5 => depth,
                _ => extents.iter().rposition(|&e| e > 1).map_or(1, |d| d + 1),
            };
            for (_, accesses) in &mut stmts {
                let first = accesses[0].0.clone();
                for (coeffs, _, _, _, neighbour, accumulator) in accesses {
                    if *neighbour {
                        coeffs.clone_from(&first);
                    }
                    coeffs.truncate(depth);
                    if repeat && levels > 1 {
                        // No subscript reads the second-innermost
                        // iterator: its groups repeat one another.
                        coeffs[levels - 2] = 0;
                    }
                    if *accumulator {
                        coeffs[levels - 1] = 0;
                    }
                }
            }
            KernelSpec {
                extents,
                shape,
                stmts,
            }
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
                .map(|(ai, (coeffs, is_write, offset, rows, neighbour, _))| {
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
    let mut loops: Vec<Loop> = spec.extents.iter().map(|&e| Loop::range(e)).collect();
    // Every shape keeps `j` within `0..inner`, so subscripts stay in bounds.
    let depth = loops.len();
    let (i, inner) = (LinExpr::var(depth - 2), spec.extents[depth - 1]);
    let upto = |e: LinExpr| Bound {
        exprs: vec![e, LinExpr::constant(inner)],
    };
    match spec.shape {
        3 => loops[depth - 1].ub = upto(i + LinExpr::constant(1)),
        4 => loops[depth - 1].lb = Bound::expr(i),
        5 => {
            loops[depth - 1].lb = Bound::expr(i.clone());
            loops[depth - 1].ub = upto(i + LinExpr::constant(2));
        }
        _ => {}
    }
    p.kernels.push(AffineKernel {
        name: "k".into(),
        loops,
        statements,
    });
    p
}
