//! Single-flight primitives for the artifact cache: the [`Flight`]
//! rendezvous and the cache's shared result/abort types. The sharded
//! cache itself lives in [`crate::shard`].
//!
//! **Single flight:** when N requests for the same key arrive
//! concurrently, the first becomes the *leader* and compiles; the other
//! N−1 become *followers* and attach to the leader's [`Flight`] instead
//! of burning N−1 workers on identical compilations. Followers count as
//! cache hits — they are served from shared work, not their own.
//!
//! Followers attach in one of two ways:
//!
//! * [`Flight::subscribe`] — event-driven: the callback runs when the
//!   leader completes (on the completing thread), or immediately if the
//!   flight already finished. The epoll reactor uses this — it must never
//!   block, so a follower's connection slot is filled by a completion
//!   callback, not a parked thread.
//! * [`Flight::wait`] — blocking, built on `subscribe` over a channel.
//!   Tests use this.

use polyufc_chk::OrderedMutex;
use std::sync::Arc;

/// A fully rendered response body, shared zero-copy between the cache,
/// in-flight completions, and per-connection write queues.
pub type Body = Arc<[u8]>;

/// Why an in-flight compilation finished without an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// The leader could not enqueue the compile job (queue full).
    Overloaded,
    /// The compile job panicked; the worker recovered with a fresh
    /// session.
    Internal,
    /// The compile exceeded the configured per-request deadline; the
    /// watchdog aborted the flight (and may have replaced the worker).
    DeadlineExceeded,
    /// The daemon shut down while this flight was still pending; the
    /// request was never compiled.
    ShuttingDown,
}

/// A waiter attached to an in-flight compilation.
type Waiter = Box<dyn FnOnce(Result<Body, Abort>) + Send + 'static>;

enum FlightState {
    /// Leader still compiling; waiters queue here.
    Pending(Vec<Waiter>),
    /// Completed: late subscribers get the result immediately.
    Done(Result<Body, Abort>),
}

/// The rendezvous for one in-flight compilation.
pub struct Flight {
    state: OrderedMutex<FlightState>,
}

impl std::fmt::Debug for Flight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Flight")
    }
}

impl Default for Flight {
    fn default() -> Self {
        Flight {
            state: OrderedMutex::new("serve.flight", FlightState::Pending(Vec::new())),
        }
    }
}

impl Flight {
    /// Attaches a completion callback: runs on the completing thread when
    /// the leader fulfills or aborts, or inline right now if it already
    /// has. Callbacks run outside the flight's lock.
    pub fn subscribe<F>(&self, f: F)
    where
        F: FnOnce(Result<Body, Abort>) + Send + 'static,
    {
        let done = {
            let mut state = self.state.lock().unwrap();
            match &mut *state {
                FlightState::Pending(waiters) => {
                    waiters.push(Box::new(f));
                    return;
                }
                FlightState::Done(r) => r.clone(),
            }
        };
        f(done);
    }

    /// Blocks until the leader fulfills or aborts this flight.
    pub fn wait(&self) -> Result<Body, Abort> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.subscribe(move |r| {
            let _ = tx.send(r);
        });
        rx.recv()
            .expect("flight completed or dropped without a result")
    }

    /// Completes the flight; first completion wins (e.g. an abort racing
    /// a fulfill must not overwrite what waiters already saw). Every
    /// queued waiter runs with a clone of the result.
    pub(crate) fn complete(&self, r: Result<Body, Abort>) {
        let waiters = {
            let mut state = self.state.lock().unwrap();
            match &mut *state {
                FlightState::Pending(waiters) => {
                    let waiters = std::mem::take(waiters);
                    *state = FlightState::Done(r.clone());
                    waiters
                }
                FlightState::Done(_) => return,
            }
        };
        for w in waiters {
            w(r.clone());
        }
    }
}

/// A snapshot of the cache's counters, for the `stats` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactCacheStats {
    /// Lookups served from a ready entry, the exact-line response tier,
    /// or a shared in-flight compile.
    pub hits: u64,
    /// Lookups that became compile leaders.
    pub misses: u64,
    /// Generational clears performed on overflow (per shard).
    pub evictions: u64,
    /// Ready keyed entries currently resident (across all shards).
    pub entries: usize,
    /// Compilations currently in flight.
    pub inflight: usize,
    /// Exact-line response-tier entries currently resident.
    pub line_entries: usize,
    /// Structural fingerprints currently quarantined (poison-pill tier).
    pub quarantined: usize,
    /// Lookups answered by a cached quarantine rejection.
    pub quarantine_hits: u64,
    /// Fingerprints ever moved into quarantine (monotonic).
    pub quarantined_total: u64,
}

impl ArtifactCacheStats {
    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The outcome of one cache probe.
pub enum Lookup {
    /// A ready artifact: return its bytes.
    Hit(Body),
    /// Someone else is compiling this key: subscribe to (or wait on)
    /// their flight.
    Wait(Arc<Flight>),
    /// This caller is the leader: compile, then
    /// [`fulfill`](crate::shard::ArtifactCache::fulfill) (or
    /// [`abort`](crate::shard::ArtifactCache::abort)) the flight.
    Lead(Arc<Flight>),
}

impl std::fmt::Debug for Lookup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Lookup::Hit(_) => "Lookup::Hit",
            Lookup::Wait(_) => "Lookup::Wait",
            Lookup::Lead(_) => "Lookup::Lead",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn body(s: &str) -> Body {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn subscribe_before_completion_runs_on_complete() {
        let f = Flight::default();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        f.subscribe(move |res| {
            assert_eq!(&*res.unwrap(), b"x");
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0, "must not run early");
        f.complete(Ok(body("x")));
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn subscribe_after_completion_runs_inline() {
        let f = Flight::default();
        f.complete(Err(Abort::Overloaded));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        f.subscribe(move |res| {
            assert_eq!(res.unwrap_err(), Abort::Overloaded);
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn first_completion_wins() {
        let f = Flight::default();
        f.complete(Ok(body("first")));
        f.complete(Err(Abort::Internal));
        assert_eq!(&*f.wait().unwrap(), b"first");
    }

    #[test]
    fn blocking_wait_crosses_threads() {
        let f = Arc::new(Flight::default());
        let waiter = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.wait())
        };
        f.complete(Ok(body("shared")));
        assert_eq!(&*waiter.join().unwrap().unwrap(), b"shared");
    }
}
