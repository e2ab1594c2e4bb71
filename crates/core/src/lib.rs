//! PolyUFC: polyhedral compilation meets roofline analysis for uncore
//! frequency capping — the paper's primary contribution.
//!
//! The crate ties the substrates together into the compilation flow of
//! Fig. 2/3:
//!
//! 1. Input programs (tensor graphs or affine programs) are lowered
//!    through the [`polyufc_ir`] dialects and optimized by the Pluto
//!    substitute ([`polyufc_pluto`]).
//! 2. PolyUFC-CM ([`polyufc_cache`]) computes cache misses, `Q_DRAM`,
//!    and the operational intensity `I = Ω / Q_DRAM` per kernel.
//! 3. [`characterize`] positions each kernel against the calibrated
//!    performance/power rooflines ([`polyufc_roofline`]) and labels it
//!    compute-bound (CB) or bandwidth-bound (BB).
//! 4. [`model`] provides the parametric estimates `T(f_c, I)`,
//!    `Perf(f_c, I)`, `BW(f_c, I)`, `P̂(f_s, I)`, `P(f_c, I)`,
//!    `E(f_c, I)` (paper Eqns. 2–11).
//! 5. [`search`] runs POLYUFC-SEARCH (binary search at 0.1 GHz
//!    granularity with the ε trade-off rule) to pick a cap per kernel
//!    for a chosen objective (performance / energy / EDP).
//! 6. [`capping`] embeds `set_uncore_cap` calls into the scf output and
//!    removes redundant caps by pattern rewriting; [`mlpolyufc`] applies
//!    the whole flow at tensor / linalg / affine granularity (Sec. VI).
//!
//! [`pipeline`] is the end-to-end driver with per-stage compile-time
//! accounting (Table IV).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capping;
pub mod characterize;
pub mod mlpolyufc;
pub mod model;
pub mod pipeline;
pub mod search;

pub use capping::{capped_scf, insert_caps, remove_redundant_caps, CapPlan};
pub use characterize::{characterize_kernel, Boundedness, Characterization};
pub use mlpolyufc::{CapGranularity, MlPolyUfc, PhaseReport};
pub use model::ParametricModel;
pub use pipeline::{
    CharacterizedProgram, CompileReport, CompileSession, Error, Finished, Pipeline, PipelineOutput,
};
pub use search::{search_cap, Objective, SearchResult};
