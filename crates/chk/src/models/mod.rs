//! State-machine models of the four riskiest serving protocols.
//!
//! Each model is a faithful miniature of one protocol in `crates/serve` /
//! `crates/par`, at the granularity of one atomic step per lock-protected
//! critical section (the mapping tables live in each module's docs and in
//! DESIGN.md). Every model carries a `fault_*` switch that re-introduces
//! a specific bug — the fault variants exist to prove the checker *can*
//! fail: `protocol_check` requires each of them to produce a replayable
//! violation.
//!
//! | model | source protocol |
//! |---|---|
//! | [`single_flight`] | `serve::shard` lookup/finish/take_expired on the pending slot |
//! | [`pipeline`] | `serve::reactor` ingest/flush pause-resume watermarks |
//! | [`watchdog`] | `serve::engine` watchdog expiry vs. worker finish vs. shutdown drain |
//! | [`quarantine`] | `serve::shard` strike/clear/quarantine circuit breaker |

pub mod pipeline;
pub mod quarantine;
pub mod single_flight;
pub mod watchdog;
