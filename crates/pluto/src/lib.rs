//! A Pluto-style polyhedral optimizer: dependence analysis, legality-checked
//! rectangular tiling (tile size 32, fixed to the paper's baseline
//! configuration), skewing to enable stencil tiling, and outer-parallel
//! loop detection.
//!
//! The paper uses Pluto v0.11.4 as the performance-optimizing front stage:
//! every evaluated kernel is "Pluto tiled-parallel" before PolyUFC analyzes
//! it. This crate reproduces that stage on the [`polyufc_ir`] affine
//! dialect.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deps;
pub mod optimizer;
pub mod transform;

pub use deps::{analyze_kernel, DepSummary};
pub use optimizer::{KernelDecision, PlutoOptimizer, PlutoReport};
pub use transform::{skew_loop, tile_kernel};
