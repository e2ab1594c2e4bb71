//! `polyufc serve`: a long-running compile-and-cap daemon.
//!
//! The daemon speaks newline-delimited JSON over TCP or a unix socket:
//! one request per line, one response line per request. Compile requests
//! carry a kernel (textual affine IR or a cgeist-style C scop) plus a
//! platform/objective spec and come back as a *cap artifact* — per-kernel
//! roofline characterization and uncore-frequency caps — or as a typed
//! error (lint rejection, parse error, overload, ...).
//!
//! The performance architecture, bottom-up:
//!
//! * [`shard`]: a sharded content-addressed response cache keyed on the
//!   request's own bytes (its options and kernel source, see
//!   [`CompileRequest::keys`]) so a hit never parses the kernel, with
//!   single-flight dedup — N concurrent identical requests compile once,
//!   and the pending cache slot is the only record of that compile —
//!   plus an exact-line response tier that answers repeat request lines
//!   without parsing even their JSON, and the prefix tier that holds
//!   each characterized program's ε-independent prefix for every worker.
//! * [`engine`]: asynchronous compile submission into the bounded
//!   [`polyufc_par::StatefulPool`], one persistent
//!   [`polyufc::CompileSession`] per worker, and explicit shed
//!   (`overloaded`) when the queue is full; a deadline watchdog and the
//!   shutdown drain end pending compiles through the same cache slot.
//! * `reactor` / [`server`]: a single epoll event loop owns every
//!   connection — nonblocking sockets, pipelined NDJSON with in-order
//!   replies, vectored writes of shared body buffers, an eventfd doorbell
//!   for worker completions, and bounded connection admission. The daemon
//!   is Linux/epoll only; on other targets [`Server::bind`] reports
//!   `Unsupported` and everything else in the crate still builds.
//! * [`protocol`] / [`json`]: the strict wire layer. Responses are
//!   byte-deterministic, so a cache hit, a fresh compile, a pipelined
//!   batch, and the one-shot CLI (`polyufc compile --json`) all emit
//!   identical bytes for identical requests.

#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod json;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod shard;

pub use chaos::{ChaosPlan, CompileFault};
pub use engine::{oneshot_response, Engine, EngineConfig, Outcome, Submitted};
pub use protocol::{
    parse_request, render_error, CompileOptions, CompileRequest, Request, RequestKeys,
    SourceFormat, WireError, MAX_REQUEST_BYTES,
};
#[cfg(target_os = "linux")]
pub use server::ShutdownHandle;
pub use server::{install_signal_handlers, Listen, Server, ServerConfig};
pub use shard::{Abort, ArtifactCache, ArtifactCacheStats, Body, Ended, Lookup, Waiter};
