//! A small multi-dialect intermediate representation modeled on the MLIR
//! dialects that PolyUFC operates on.
//!
//! The paper's flow lowers PyTorch / C programs through MLIR's `torch`,
//! `linalg`, and `affine` dialects, analyzes the affine form with polyhedral
//! tools, and emits `scf`-level code with uncore-frequency-cap runtime
//! calls. This crate reproduces that structure:
//!
//! * [`tensor`] — the torch stand-in: a graph of high-level tensor ops
//!   (`matmul`, `conv2d`, `softmax`, `sdpa`, ...).
//! * [`linalg`] — structured operations with explicit iteration spaces;
//!   one tensor op lowers to one *or several* linalg ops (e.g. `sdpa`
//!   decomposes into a CB matmul, seven bandwidth-bound elementwise /
//!   reduction ops, and a final CB matmul — Fig. 5).
//! * [`affine`] — loop nests with affine bounds and affine array accesses;
//!   the dialect on which PolyUFC-CM and the OI analysis run.
//! * [`scf`] — the lowered output program: kernels interleaved with
//!   `set_uncore_cap` runtime calls.
//!
//! [`deps`] is the one dependence analysis; Pluto and the verifier read it.
//!
//! The [`interp`] module walks affine kernels at their concrete problem
//! sizes and streams memory-access/flop events; it drives both the exact
//! cache simulator and the machine simulator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affine;
pub mod deps;
pub mod interp;
pub mod linalg;
pub mod lower;
pub mod openscop;
pub mod scf;
pub mod tensor;
pub mod textual;
pub mod types;

pub use affine::{Access, AffineKernel, AffineProgram, ArrayDecl, Bound, Loop, Statement};
pub use interp::{AccessEvent, TraceSink};
pub use linalg::{LinalgKind, LinalgOp, LinalgProgram};
pub use scf::{ScfOp, ScfProgram};
pub use tensor::{TensorGraph, TensorOp, TensorOpKind};
pub use types::{ArrayId, ElemType};
