//! A Pluto-style polyhedral optimizer: legality-checked
//! rectangular tiling (tile size 32, fixed to the paper's baseline
//! configuration), skewing to enable stencil tiling, and outer-parallel
//! loop detection, driven by the kernel's dependence summary
//! ([`polyufc_ir::deps`], which the verify gate builds and hands over).
//!
//! The paper uses Pluto v0.11.4 as the performance-optimizing front stage:
//! every evaluated kernel is "Pluto tiled-parallel" before PolyUFC analyzes
//! it. This crate reproduces that stage on the [`polyufc_ir`] affine
//! dialect.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod optimizer;
pub mod transform;

pub use optimizer::{KernelDecision, PlutoOptimizer, PlutoReport};
pub use polyufc_ir::deps::{analyze_kernel, DepSummary};
pub use transform::{skew_loop, tile_kernel};
