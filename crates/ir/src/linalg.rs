//! The linalg dialect: structured operations with explicit iteration
//! spaces and affine indexing maps, mirroring `linalg.generic` and the
//! named ops PolyUFC caps at (Sec. VI-B: linalg is the chosen granularity
//! for applying uncore frequency caps).

use std::collections::BTreeMap;
use std::fmt;

use polyufc_presburger::LinExpr;

use crate::affine::{Access, AffineKernel, AffineProgram, Loop, Statement};
use crate::types::ElemType;

/// The named operation a [`LinalgOp`] was created as. Used for printing,
/// phase reporting (Fig. 5), and cap placement; the lowering itself is
/// driven by the generic iteration-space description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinalgKind {
    /// Dense matrix multiplication (optionally scaled by a constant).
    Matmul,
    /// Batched matrix multiplication.
    BatchMatmul,
    /// 2-D convolution in `nchw`/`fchw` layout.
    Conv2dNchwFchw,
    /// Pointwise map over one or more inputs (add, exp, div, ...).
    Elementwise,
    /// Reduction over the innermost axis (sum or max).
    Reduce,
    /// Broadcast of a reduced operand back over the full space.
    Broadcast,
    /// Fill with a constant (writes only).
    Fill,
}

impl fmt::Display for LinalgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinalgKind::Matmul => "linalg.matmul",
            LinalgKind::BatchMatmul => "linalg.batch_matmul",
            LinalgKind::Conv2dNchwFchw => "linalg.conv_2d_nchw_fchw",
            LinalgKind::Elementwise => "linalg.elemwise",
            LinalgKind::Reduce => "linalg.reduce",
            LinalgKind::Broadcast => "linalg.broadcast",
            LinalgKind::Fill => "linalg.fill",
        };
        write!(f, "{s}")
    }
}

/// An operand access of a structured op: a named buffer indexed by affine
/// expressions over the op's iteration dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinalgAccess {
    /// Buffer name (shared across the ops of a [`LinalgProgram`]).
    pub buffer: String,
    /// Affine indices over the iteration dimensions.
    pub indices: Vec<LinExpr>,
    /// Whether the operand is written.
    pub is_write: bool,
}

/// A structured operation in `linalg.generic` style: an iteration space
/// given by dimension extents, a set of operand accesses, and a per-point
/// flop count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinalgOp {
    /// Instance name (unique within the program).
    pub name: String,
    /// Which named op this is.
    pub kind: LinalgKind,
    /// Iteration-space extents, outermost first.
    pub iter_dims: Vec<usize>,
    /// Indices of reduction dimensions (the rest are parallel).
    pub reduction_dims: Vec<usize>,
    /// Operand accesses.
    pub accesses: Vec<LinalgAccess>,
    /// Flops per iteration point.
    pub flops_per_point: u64,
}

impl LinalgOp {
    /// Number of iteration points.
    pub fn iter_points(&self) -> u128 {
        self.iter_dims.iter().map(|&d| d as u128).product()
    }

    /// Total flops of the op.
    pub fn total_flops(&self) -> u128 {
        self.iter_points() * self.flops_per_point as u128
    }

    /// `C[m,n] += A[m,k] * B[k,n]`, iteration space `[m, n, k]`.
    /// `scaled` adds one multiply per point (fused `α·(A·B)` as in sdpa).
    #[allow(clippy::too_many_arguments)]
    pub fn matmul(
        name: impl Into<String>,
        a: &str,
        b: &str,
        c: &str,
        m: usize,
        n: usize,
        k: usize,
        scaled: bool,
    ) -> Self {
        let (vm, vn, vk) = (LinExpr::var(0), LinExpr::var(1), LinExpr::var(2));
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Matmul,
            iter_dims: vec![m, n, k],
            reduction_dims: vec![2],
            accesses: vec![
                LinalgAccess {
                    buffer: a.into(),
                    indices: vec![vm.clone(), vk.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: b.into(),
                    indices: vec![vk, vn.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vm.clone(), vn.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vm, vn],
                    is_write: true,
                },
            ],
            flops_per_point: if scaled { 3 } else { 2 },
        }
    }

    /// Batched matmul `C[b,m,n] += A[b,m,k] * B[b,k,n]`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_matmul(
        name: impl Into<String>,
        a: &str,
        bb: &str,
        c: &str,
        b: usize,
        m: usize,
        n: usize,
        k: usize,
        scaled: bool,
    ) -> Self {
        let (vb, vm, vn, vk) = (
            LinExpr::var(0),
            LinExpr::var(1),
            LinExpr::var(2),
            LinExpr::var(3),
        );
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::BatchMatmul,
            iter_dims: vec![b, m, n, k],
            reduction_dims: vec![3],
            accesses: vec![
                LinalgAccess {
                    buffer: a.into(),
                    indices: vec![vb.clone(), vm.clone(), vk.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: bb.into(),
                    indices: vec![vb.clone(), vk, vn.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vb.clone(), vm.clone(), vn.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vb, vm, vn],
                    is_write: true,
                },
            ],
            flops_per_point: if scaled { 3 } else { 2 },
        }
    }

    /// `conv2d` in `nchw`/`fchw` layout, no padding:
    /// `O[n,f,oh,ow] += I[n,c,oh*s+kh,ow*s+kw] * W[f,c,kh,kw]`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_nchw_fchw(
        name: impl Into<String>,
        input: &str,
        weights: &str,
        output: &str,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        f: usize,
        kh: usize,
        kw: usize,
        stride: usize,
    ) -> Self {
        assert!(h >= kh && w >= kw, "kernel larger than input");
        let oh = (h - kh) / stride + 1;
        let ow = (w - kw) / stride + 1;
        // dims: [n, f, oh, ow, c, kh, kw]
        let v = |i: usize| LinExpr::var(i);
        let s = stride as i64;
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Conv2dNchwFchw,
            iter_dims: vec![n, f, oh, ow, c, kh, kw],
            reduction_dims: vec![4, 5, 6],
            accesses: vec![
                LinalgAccess {
                    buffer: input.into(),
                    indices: vec![v(0), v(4), v(2) * s + v(5), v(3) * s + v(6)],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: weights.into(),
                    indices: vec![v(1), v(4), v(5), v(6)],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: output.into(),
                    indices: vec![v(0), v(1), v(2), v(3)],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: output.into(),
                    indices: vec![v(0), v(1), v(2), v(3)],
                    is_write: true,
                },
            ],
            flops_per_point: 2,
        }
    }

    /// Pointwise unary/binary op over `dims`: `out[i..] = f(ins[i..])`.
    pub fn elementwise(
        name: impl Into<String>,
        inputs: &[&str],
        output: &str,
        dims: &[usize],
        flops_per_point: u64,
    ) -> Self {
        let idx: Vec<LinExpr> = (0..dims.len()).map(LinExpr::var).collect();
        let mut accesses: Vec<LinalgAccess> = inputs
            .iter()
            .map(|b| LinalgAccess {
                buffer: (*b).into(),
                indices: idx.clone(),
                is_write: false,
            })
            .collect();
        accesses.push(LinalgAccess {
            buffer: output.into(),
            indices: idx,
            is_write: true,
        });
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Elementwise,
            iter_dims: dims.to_vec(),
            reduction_dims: vec![],
            accesses,
            flops_per_point,
        }
    }

    /// Reduction over the innermost axis: `out[d0..dk-1] (+|max)= in[d0..dk]`.
    pub fn reduce(name: impl Into<String>, input: &str, output: &str, dims: &[usize]) -> Self {
        assert!(!dims.is_empty());
        let idx_in: Vec<LinExpr> = (0..dims.len()).map(LinExpr::var).collect();
        let idx_out: Vec<LinExpr> = (0..dims.len() - 1).map(LinExpr::var).collect();
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Reduce,
            iter_dims: dims.to_vec(),
            reduction_dims: vec![dims.len() - 1],
            accesses: vec![
                LinalgAccess {
                    buffer: input.into(),
                    indices: idx_in,
                    is_write: false,
                },
                LinalgAccess {
                    buffer: output.into(),
                    indices: idx_out.clone(),
                    is_write: false,
                },
                LinalgAccess {
                    buffer: output.into(),
                    indices: idx_out,
                    is_write: true,
                },
            ],
            flops_per_point: 1,
        }
    }

    /// Batched matmul with a transposed second operand:
    /// `C[b,m,n] += A[b,m,k] * B[b,n,k]` — the `Q·Kᵀ` shape of attention.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_matmul_bt(
        name: impl Into<String>,
        a: &str,
        bb: &str,
        c: &str,
        b: usize,
        m: usize,
        n: usize,
        k: usize,
        scaled: bool,
    ) -> Self {
        let (vb, vm, vn, vk) = (
            LinExpr::var(0),
            LinExpr::var(1),
            LinExpr::var(2),
            LinExpr::var(3),
        );
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::BatchMatmul,
            iter_dims: vec![b, m, n, k],
            reduction_dims: vec![3],
            accesses: vec![
                LinalgAccess {
                    buffer: a.into(),
                    indices: vec![vb.clone(), vm.clone(), vk.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: bb.into(),
                    indices: vec![vb.clone(), vn.clone(), vk],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vb.clone(), vm.clone(), vn.clone()],
                    is_write: false,
                },
                LinalgAccess {
                    buffer: c.into(),
                    indices: vec![vb, vm, vn],
                    is_write: true,
                },
            ],
            flops_per_point: if scaled { 3 } else { 2 },
        }
    }

    /// Pure broadcast materialization: `out[d0..dk] = in[d0..dk-1]`.
    pub fn broadcast(name: impl Into<String>, input: &str, output: &str, dims: &[usize]) -> Self {
        let idx_full: Vec<LinExpr> = (0..dims.len()).map(LinExpr::var).collect();
        let idx_red: Vec<LinExpr> = (0..dims.len() - 1).map(LinExpr::var).collect();
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Broadcast,
            iter_dims: dims.to_vec(),
            reduction_dims: vec![],
            accesses: vec![
                LinalgAccess {
                    buffer: input.into(),
                    indices: idx_red,
                    is_write: false,
                },
                LinalgAccess {
                    buffer: output.into(),
                    indices: idx_full,
                    is_write: true,
                },
            ],
            flops_per_point: 0,
        }
    }

    /// Fill with a constant.
    pub fn fill(name: impl Into<String>, output: &str, dims: &[usize]) -> Self {
        let idx: Vec<LinExpr> = (0..dims.len()).map(LinExpr::var).collect();
        LinalgOp {
            name: name.into(),
            kind: LinalgKind::Fill,
            iter_dims: dims.to_vec(),
            reduction_dims: vec![],
            accesses: vec![LinalgAccess {
                buffer: output.into(),
                indices: idx,
                is_write: true,
            }],
            flops_per_point: 0,
        }
    }
}

impl fmt::Display for LinalgOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "%{} = {} dims=[{}] red=[{}] flops/pt={}",
            self.name,
            self.kind,
            self.iter_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.reduction_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.flops_per_point
        )
    }
}

/// A sequence of structured ops over named buffers.
#[derive(Debug, Clone, Default)]
pub struct LinalgProgram {
    /// Program name.
    pub name: String,
    /// Buffer shapes (name -> extents); element type is uniform.
    pub buffers: BTreeMap<String, Vec<usize>>,
    /// Element type shared by all buffers.
    pub elem: ElemType,
    /// Ops in execution order.
    pub ops: Vec<LinalgOp>,
}

impl LinalgProgram {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>, elem: ElemType) -> Self {
        LinalgProgram {
            name: name.into(),
            buffers: BTreeMap::new(),
            elem,
            ops: Vec::new(),
        }
    }

    /// Declares (or re-declares, idempotently) a buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer exists with a different shape.
    pub fn buffer(&mut self, name: &str, dims: &[usize]) -> &mut Self {
        if let Some(prev) = self.buffers.get(name) {
            assert_eq!(
                prev, dims,
                "buffer `{name}` re-declared with different shape"
            );
        } else {
            self.buffers.insert(name.into(), dims.to_vec());
        }
        self
    }

    /// Appends an op, declaring its buffers if needed by inferring shapes
    /// from the iteration space is not possible — callers must declare
    /// buffers explicitly first.
    ///
    /// # Panics
    ///
    /// Panics if an accessed buffer is undeclared or indexed with the
    /// wrong arity.
    pub fn push(&mut self, op: LinalgOp) -> &mut Self {
        for a in &op.accesses {
            let dims = self
                .buffers
                .get(&a.buffer)
                .unwrap_or_else(|| panic!("undeclared buffer `{}` in op `{}`", a.buffer, op.name));
            assert_eq!(
                a.indices.len(),
                dims.len(),
                "op `{}` indexes `{}` with wrong arity",
                op.name,
                a.buffer
            );
        }
        self.ops.push(op);
        self
    }

    /// Lowers to the affine dialect: one kernel per op, shared array table.
    pub fn lower_to_affine(&self) -> AffineProgram {
        let mut p = AffineProgram::new(self.name.clone());
        let mut ids = BTreeMap::new();
        for (name, dims) in &self.buffers {
            let id = p.add_array(name.clone(), dims.clone(), self.elem);
            ids.insert(name.clone(), id);
        }
        for op in &self.ops {
            let loops: Vec<Loop> = op
                .iter_dims
                .iter()
                .enumerate()
                .map(|(d, &n)| {
                    let mut l = Loop::range(n as i64);
                    // Parallel dims: every non-reduction loop is marked;
                    // Pluto refines this later.
                    l.parallel = !op.reduction_dims.contains(&d);
                    l
                })
                .collect();
            let accesses: Vec<Access> = op
                .accesses
                .iter()
                .map(|a| Access {
                    array: ids[&a.buffer],
                    indices: a.indices.clone(),
                    is_write: a.is_write,
                })
                .collect();
            p.kernels.push(AffineKernel {
                name: op.name.clone(),
                loops,
                statements: vec![Statement {
                    name: format!("{}_s0", op.name),
                    accesses,
                    flops: op.flops_per_point,
                }],
            });
        }
        debug_assert_eq!(p.validate(), Ok(()));
        p
    }
}

impl fmt::Display for LinalgProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// linalg program `{}`", self.name)?;
        for (n, d) in &self.buffers {
            writeln!(
                f,
                "buffer %{} : {}x{}",
                n,
                d.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("x"),
                self.elem
            )?;
        }
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops() {
        let op = LinalgOp::matmul("mm", "A", "B", "C", 4, 5, 6, false);
        assert_eq!(op.iter_points(), 120);
        assert_eq!(op.total_flops(), 240);
        assert_eq!(op.reduction_dims, vec![2]);
    }

    #[test]
    fn conv_output_dims() {
        // AlexNet conv1: 224x224, k=11, stride 4 -> 54x54 output.
        let op = LinalgOp::conv2d_nchw_fchw("c1", "I", "W", "O", 1, 3, 224, 224, 64, 11, 11, 4);
        assert_eq!(op.iter_dims[2], 54);
        assert_eq!(op.iter_dims[3], 54);
    }

    #[test]
    fn lower_matmul_to_affine() {
        let mut lp = LinalgProgram::new("mm", ElemType::F64);
        lp.buffer("A", &[4, 6])
            .buffer("B", &[6, 5])
            .buffer("C", &[4, 5]);
        lp.push(LinalgOp::matmul("mm0", "A", "B", "C", 4, 5, 6, false));
        let ap = lp.lower_to_affine();
        assert_eq!(ap.kernels.len(), 1);
        let k = &ap.kernels[0];
        assert_eq!(k.depth(), 3);
        assert_eq!(k.domain_size().unwrap(), 120);
        assert!(k.loops[0].parallel && k.loops[1].parallel && !k.loops[2].parallel);
        assert_eq!(k.statements[0].accesses.len(), 4);
        assert!(ap.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "undeclared buffer")]
    fn undeclared_buffer_panics() {
        let mut lp = LinalgProgram::new("bad", ElemType::F64);
        lp.push(LinalgOp::fill("f", "X", &[4]));
    }

    #[test]
    fn reduce_and_broadcast_arities() {
        let mut lp = LinalgProgram::new("softmaxish", ElemType::F32);
        lp.buffer("X", &[2, 8])
            .buffer("M", &[2])
            .buffer("Y", &[2, 8]);
        lp.push(LinalgOp::reduce("max", "X", "M", &[2, 8]));
        lp.push(LinalgOp::broadcast("bcast", "M", "Y", &[2, 8]));
        let ap = lp.lower_to_affine();
        assert!(ap.validate().is_ok());
        assert_eq!(ap.kernels.len(), 2);
    }
}
