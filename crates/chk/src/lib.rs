//! Concurrency correctness suite for the PolyUFC serving stack.
//!
//! Three layers, one crate:
//!
//! 1. **Lockdep** ([`sync`]): the [`OrderedMutex`] wrapper adopted by
//!    `crates/par` and `crates/serve`. With the `lockdep` feature it
//!    records a process-global lock-acquisition-order graph keyed by
//!    per-site class names and detects order cycles *online*, reporting
//!    a witness cycle together with the acquisition backtraces of both
//!    closing edges. Without the feature it compiles to a
//!    `#[repr(transparent)]` newtype over `std::sync::Mutex` with
//!    `#[inline]` passthrough — zero overhead, watched by the `serve_*`
//!    ledger workloads (`benchmark/`), which run against the default
//!    build.
//!
//! 2. **Schedule explorer** ([`explore`]): exhaustive exploration of
//!    bounded thread interleavings (DFS with a preemption budget,
//!    seeded-random tail beyond the bound) of any [`Model`], with
//!    violations that replay deterministically from a printed schedule
//!    string. This crate holds only the explorer; what it explores is
//!    production code — `crates/serve`'s `shard/protocols.rs` and
//!    `reactor/protocols.rs` test modules step the real `ArtifactCache`
//!    and the real `Reactor::turn`, one call per step.
//!
//! 3. **Self-lint** lives in `crates/analysis::selflint` (it reuses the
//!    diagnostics/JSON infrastructure there); this crate provides the
//!    lock-discipline ground truth it lints against.

#![warn(missing_docs)]

pub mod explore;
pub mod sync;

pub use explore::{ExploreStats, Explorer, Model, SplitMix64, Violation};
pub use sync::{lockdep_stats, LockdepStats, OrderedMutex};
