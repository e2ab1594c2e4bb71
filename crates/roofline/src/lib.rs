//! Performance and power roofline models (Williams et al. performance
//! roofline; Choi et al. energy roofline), calibrated by one-time
//! microbenchmarking against the machine model — the paper relies on its
//! own microbenchmarks for both rooflines (footnote 3) because vendors
//! publish only performance rooflines.
//!
//! * [`fit`] — least-squares polynomial / linear / reciprocal curve
//!   fitting (the paper fits `M^t(f) = a/f + b` and linear power curves).
//! * [`microbench`] — synthetic flop-only, streaming, pointer-chasing and
//!   mixed-intensity microbenchmarks (Choi-style, intensities spanning
//!   the roofline).
//! * [`model`] — the calibrated [`RooflineModel`] with the Table I
//!   constants: `t_FPU`, machine balance `B^t_DRAM(f)`, `e_FPU`,
//!   `p̂_FPU`, `P̂_DRAM(f)` fits, `p_con`, and the DRAM miss penalty fits
//!   `M^t(f)`, `M^p(f)`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fit;
pub mod microbench;
pub mod model;

pub use fit::{linear_fit, poly_fit, reciprocal_fit};
pub use microbench::{flop_microbench, pointer_chase, stream_microbench};
pub use model::RooflineModel;
