//! Concurrency correctness suite for the PolyUFC serving stack.
//!
//! Three layers, one crate:
//!
//! 1. **Lockdep** ([`sync`]): [`OrderedMutex`] / [`OrderedCondvar`]
//!    wrappers adopted by `crates/par` and `crates/serve`. With the
//!    `lockdep` feature they record a process-global lock-acquisition
//!    -order graph keyed by per-site class names and detect order cycles
//!    *online*, reporting a witness cycle together with the acquisition
//!    backtraces of both closing edges. Without the feature they compile
//!    to `#[repr(transparent)]` newtypes over `std::sync` with `#[inline]`
//!    passthrough — zero overhead, watched by the `serve_*` ledger
//!    workloads (`benchmark/`), which run against the default build.
//!
//! 2. **Schedule-exploring protocol checker** ([`explore`], [`models`]):
//!    the four riskiest serving protocols — single-flight lookup/finish/
//!    expire, pipeline pause/resume, watchdog expiry vs. worker finish
//!    vs. shutdown drain, and quarantine strike/reset — re-expressed as
//!    small deterministic state machines (blocking is a thread that is
//!    not `enabled`), then exhaustively explored over bounded thread
//!    interleavings (DFS with a preemption budget, seeded-random tail
//!    beyond the bound). Violations replay deterministically from a
//!    printed schedule string.
//!
//! 3. **Self-lint** lives in `crates/analysis::selflint` (it reuses the
//!    diagnostics/JSON infrastructure there); this crate provides the
//!    lock-discipline ground truth it lints against.

#![warn(missing_docs)]

pub mod explore;
pub mod models;
pub mod sync;

pub use explore::{ExploreStats, Explorer, Model, Violation};
pub use sync::{lockdep_stats, LockdepStats, OrderedCondvar, OrderedMutex};
