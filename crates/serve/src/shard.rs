//! The sharded content-addressed artifact cache, and the single record
//! of every in-flight compile.
//!
//! Keys are opaque bytes to this module: the engine passes the two
//! content addresses [`CompileRequest::keys`](crate::CompileRequest::keys)
//! builds from the request's options and source bytes — the artifact key
//! for the keyed tier, the prefix key as the *fingerprint* an attempt's
//! outcome is accounted against. Values are fully rendered response
//! bodies as [`Body`] (`Arc<[u8]>`). Caching the *bytes* rather than a
//! parsed artifact makes the hot path a single map probe + `Arc` clone,
//! and makes byte-identity between hits, fresh compilations, and the
//! one-shot CLI a structural property instead of a test hope.
//!
//! **Sharding:** keys hash (SipHash) onto `next_pow2(workers * 4)` shards,
//! each behind its own mutex, so cache *hits* — the common case — never
//! serialize on one lock; the hit/miss counters are `AtomicU64`s bumped
//! outside any lock.
//!
//! **Single flight:** when N requests for one key arrive concurrently,
//! the first *leads* — its lookup inserts a pending slot and it compiles
//! — and the other N−1 *join*: their completion callbacks ([`Waiter`]s)
//! queue in that slot instead of burning N−1 workers on identical
//! compilations. Joiners count as cache hits — they are served from
//! shared work. The pending slot is the only record of the attempt: its
//! id is the ownership token, its `started` instant is what the deadline
//! watchdog expires, its fingerprint is what a failure strikes, and its
//! waiter list is the rendezvous. Three invariants hold it together:
//!
//! * **(a) Exactly-once delivery is structural.** Waiters enter a slot
//!   only in [`ArtifactCache::lookup`] and leave it only when the slot
//!   itself is ended — by [`ArtifactCache::finish`] (iff it is still the
//!   caller's attempt) or [`ArtifactCache::take_expired`] — all under
//!   the shard lock. Whoever ends the slot gets the [`Ended`] attempt;
//!   everyone else gets nothing, so a late result for an attempt the
//!   watchdog already answered is simply dropped.
//! * **(b) The ender accounts, then wakes.** The one caller whose call
//!   removed the slot (worker, watchdog, shutdown drain, or a shedding
//!   submitter) runs the [`Ended`] it got back, and [`Ended::step`]
//!   records the outcome — on success strikes cleared and the fingerprint
//!   recorded as [known](ArtifactCache::known), one strike for an
//!   outcome that [`Abort::strikes`] — *before* it runs the waiters, so a
//!   client that retries the instant it sees `deadline_exceeded` already
//!   meets the quarantine its failure tripped. Nobody else does any
//!   accounting: which outcome strikes is decided here and nowhere else.
//! * **(c) Waiters run with no lock held.** They re-enter the cache
//!   (line-tier promotion) and the reactor's completion queue; running
//!   them after release keeps the daemon's lock graph flat.
//!
//! Each of `lookup`, `finish`, `take_expired` (per shard),
//! `quarantine_get` and `Ended::step` is one lock region at most, which
//! is what lets `shard/protocols.rs` hand them to the schedule explorer
//! as the steps of the attempt lifecycle, unmodified. `ready_get` is one
//! more lock region but not a step: it changes nothing it reads, and a
//! key that turns ready after it missed is `lookup`'s `Hit`.
//!
//! **Exact-line tier:** the keyed tier still costs a JSON parse and two
//! key builds before the probe. Repeated requests are usually
//! *byte-identical* lines, so each shard also maps raw request lines to
//! bodies; a line hit skips even that (~1 µs). Line hits count as cache
//! hits — both tiers serve the same deterministic bytes, by
//! construction.
//!
//! **Bounding:** eviction is generational per shard and per tier — when
//! a shard's ready-entry count reaches its share of the capacity, the
//! next insert clears that shard's ready entries (one `evictions` tick)
//! while pending slots are retained, since dropping one would strand its
//! waiters. The known-fingerprint record is cleared the same way at
//! `KNOWN_CAP` entries per shard.

use polyufc_chk::OrderedMutex;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// watchdog ended the attempt (and may have replaced the worker).
    DeadlineExceeded,
    /// The daemon shut down while this compile was still pending; the
    /// request was never compiled.
    ShuttingDown,
}

impl Abort {
    /// Whether an attempt ending this way counts toward its fingerprint's
    /// quarantine: a panic or an expiry is the kernel's doing, a shed or a
    /// shutdown is not.
    pub fn strikes(self) -> bool {
        matches!(self, Abort::Internal | Abort::DeadlineExceeded)
    }
}

/// A request parked on an in-flight compile: called exactly once, with
/// the attempt's outcome, on whichever thread ended the attempt.
pub type Waiter = Box<dyn FnOnce(Result<Body, Abort>) + Send + 'static>;

/// What a pending slot parks: the attempt's waiters and the fingerprint
/// its outcome is accounted against.
#[derive(Default)]
struct Waiters {
    fingerprint: Vec<u8>,
    waiters: Vec<Waiter>,
}

/// One ended attempt, handed to the caller whose call ended it (invariant
/// (a)). Running it is invariant (b): account for the outcome, then wake
/// the waiters, with nothing held in between (invariant (c)).
#[must_use = "an ended attempt's waiters stay parked until it is run"]
pub struct Ended {
    parked: Waiters,
    outcome: Result<Body, Abort>,
    accounted: bool,
}

impl Ended {
    fn new(parked: Waiters, outcome: Result<Body, Abort>) -> Ended {
        Ended {
            parked,
            outcome,
            accounted: false,
        }
    }

    /// Does the next part of ending the attempt and says whether one is
    /// left: the first call accounts for the outcome on the fingerprint's
    /// shard (one lock region) and returns `true`; the second runs every
    /// waiter with a clone of the outcome, no lock held, and returns
    /// `false`.
    pub fn step(&mut self, cache: &ArtifactCache) -> bool {
        if !self.accounted {
            self.accounted = true;
            match self.outcome {
                Ok(_) => cache.record_success(std::mem::take(&mut self.parked.fingerprint)),
                Err(abort) if abort.strikes() => cache.record_strike(&self.parked.fingerprint),
                Err(_) => {}
            }
            return true;
        }
        for w in std::mem::take(&mut self.parked.waiters) {
            w(self.outcome.clone());
        }
        false
    }

    /// Accounts, then wakes.
    pub fn run(mut self, cache: &ArtifactCache) {
        while self.step(cache) {}
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
    /// Fingerprints currently quarantined (poison-pill tier).
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
#[derive(Debug)]
pub enum Lookup {
    /// A ready artifact: return its bytes. No waiter was built.
    Hit(Body),
    /// Someone else is compiling this key: the caller's waiter is queued
    /// on their attempt.
    Joined,
    /// This caller leads attempt `id` (its waiter is already queued):
    /// compile, then [`ArtifactCache::finish`] the attempt.
    Lead(u64),
}

/// One in-flight compile; see the module docs.
struct Pending {
    /// Distinguishes this attempt from a later one for the same key.
    id: u64,
    started: Instant,
    parked: Waiters,
}

enum Slot {
    Ready(Body),
    Pending(Pending),
}

#[derive(Default)]
struct ShardInner {
    /// Keyed artifact tier: artifact key → ready body or in-flight
    /// compile.
    map: HashMap<Vec<u8>, Slot>,
    /// Ready entries in `map` (pending ones are `map.len() - ready`).
    ready: usize,
    /// Id of the next attempt led on this shard.
    next_attempt: u64,
    /// Generational clears of the ready entries so far.
    evictions: u64,
    /// Exact-line response tier: trimmed request line → body.
    lines: HashMap<Box<str>, Body>,
    /// Consecutive-failure strike counts per fingerprint (cleared on the
    /// fingerprint's next success).
    strikes: HashMap<Vec<u8>, u32>,
    /// Poison-pill tier: fingerprints that struck out, mapped to the
    /// cached typed rejection their requests get without compiling.
    quarantined: HashMap<Vec<u8>, Body>,
    /// Fingerprints some attempt ended `Ok` for ([`ArtifactCache::known`]).
    known: HashSet<Vec<u8>>,
}

/// Known fingerprints per shard: one worker's whole prefix cache. The
/// engine has `next_pow2(workers * 4)` shards, so the record has room for
/// the whole prefix tier (`PREFIX_CACHE_CAP` × workers) four times over,
/// while a stream of distinct programs holds at most this many source
/// keys per shard.
const KNOWN_CAP: usize = crate::engine::PREFIX_CACHE_CAP;

/// The slot transitions. Plain state changes: the caller holds the shard
/// lock, and runs whatever waiters come back only after releasing it.
impl ShardInner {
    fn lookup(
        &mut self,
        key: &[u8],
        fingerprint: &[u8],
        make_waiter: impl FnOnce() -> Waiter,
    ) -> Lookup {
        match self.map.get_mut(key) {
            Some(Slot::Ready(body)) => Lookup::Hit(Arc::clone(body)),
            Some(Slot::Pending(p)) => {
                p.parked.waiters.push(make_waiter());
                Lookup::Joined
            }
            None => {
                let id = self.next_attempt;
                self.next_attempt += 1;
                let parked = Waiters {
                    fingerprint: fingerprint.to_vec(),
                    waiters: vec![make_waiter()],
                };
                let started = Instant::now();
                let slot = Slot::Pending(Pending {
                    id,
                    started,
                    parked,
                });
                self.map.insert(key.to_vec(), slot);
                Lookup::Lead(id)
            }
        }
    }

    /// Ends attempt `id` of `key` if it is still the pending one; `cap`
    /// bounds the ready entries.
    fn finish(
        &mut self,
        key: &[u8],
        id: u64,
        outcome: &Result<Body, Abort>,
        cap: usize,
    ) -> Option<Waiters> {
        let waiters = match self.map.get_mut(key) {
            Some(Slot::Pending(p)) if p.id == id => std::mem::take(&mut p.parked),
            _ => return None,
        };
        let Ok(body) = outcome else {
            // The key is free again: the next request leads a fresh
            // compile.
            self.map.remove(key);
            return Some(waiters);
        };
        if self.ready >= cap {
            // Generational clear of this shard's ready entries only.
            self.map.retain(|_, s| matches!(s, Slot::Pending(_)));
            self.ready = 0;
            self.evictions += 1;
        }
        let slot = self.map.get_mut(key).expect("pending slots survive it");
        *slot = Slot::Ready(Arc::clone(body));
        self.ready += 1;
        Some(waiters)
    }

    /// Ends every slot pending for at least `age` with `abort`.
    fn take_expired(&mut self, age: Duration, abort: Abort, out: &mut Vec<Ended>) {
        if self.map.len() == self.ready {
            return;
        }
        self.map.retain(|_, slot| match slot {
            Slot::Pending(p) if p.started.elapsed() >= age => {
                out.push(Ended::new(std::mem::take(&mut p.parked), Err(abort)));
                false
            }
            _ => true,
        });
    }
}

/// Bounded, sharded, content-addressed response cache with single-flight
/// dedup and an exact-line fast tier.
pub struct ArtifactCache {
    shards: Box<[OrderedMutex<ShardInner>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// Ready-entry capacity per shard (keyed tier).
    shard_cap: usize,
    /// Entry capacity per shard for the line tier.
    line_cap: usize,
    /// Consecutive strikes that quarantine a fingerprint; 0 disables the
    /// breaker.
    quarantine_threshold: u32,
    /// The cached typed rejection a quarantined fingerprint serves.
    rejection: Body,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantine_hits: AtomicU64,
    quarantined_total: AtomicU64,
}

impl ArtifactCache {
    /// A cache bounded to `capacity` ready entries (at least 1) split
    /// over `shards` shards (rounded up to a power of two, at least 1),
    /// whose circuit breaker quarantines a fingerprint behind `rejection`
    /// after `quarantine_threshold` consecutive striking failures (0
    /// disables it).
    pub fn new(capacity: usize, shards: usize, quarantine_threshold: u32, rejection: Body) -> Self {
        let n = shards.max(1).next_power_of_two();
        let capacity = capacity.max(1);
        let shard_cap = capacity.div_ceil(n).max(1);
        ArtifactCache {
            shards: (0..n)
                .map(|_| OrderedMutex::new("serve.shard", ShardInner::default()))
                .collect(),
            mask: (n - 1) as u64,
            shard_cap,
            line_cap: shard_cap,
            quarantine_threshold,
            rejection,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantine_hits: AtomicU64::new(0),
            quarantined_total: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard choice only needs dispersion: a client that crafts sources to
    /// collide here piles its own requests onto one shard's lock, and the
    /// maps behind it keep the default (keyed) hasher. SipHash with std's
    /// fixed keys is deterministic within a build and takes eight bytes a
    /// round, which matters on a request line of hundreds of bytes.
    fn shard(&self, bytes: &[u8]) -> &OrderedMutex<ShardInner> {
        let mut h = DefaultHasher::new();
        h.write(bytes);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    /// Probes the keyed tier and, in the same critical section, parks the
    /// caller when the answer is not ready: on a pending key its waiter
    /// joins the attempt; on a miss the caller becomes the key's compile
    /// leader, with its waiter queued on the new attempt. `make_waiter`
    /// runs (under the shard lock — it must not take one) only when the
    /// waiter is queued; a hit never builds it. This is the only place a
    /// waiter is queued.
    pub fn lookup(
        &self,
        key: &[u8],
        fingerprint: &[u8],
        make_waiter: impl FnOnce() -> Waiter,
    ) -> Lookup {
        let mut inner = self.shard(key).lock().unwrap();
        let out = inner.lookup(key, fingerprint, make_waiter);
        drop(inner);
        match out {
            // A joiner is served from the leader's work: a hit.
            Lookup::Hit(_) | Lookup::Joined => self.hits.fetch_add(1, Ordering::Relaxed),
            Lookup::Lead(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Probes the keyed tier without queueing anything: a ready body
    /// counts as a hit; a pending or absent key counts nothing — the
    /// [`lookup`](Self::lookup) that follows will. This is what lets the
    /// engine answer a hit before it has parsed the kernel source.
    pub fn ready_get(&self, key: &[u8]) -> Option<Body> {
        let body = {
            let inner = self.shard(key).lock().unwrap();
            match inner.map.get(key) {
                Some(Slot::Ready(body)) => Some(Arc::clone(body)),
                _ => None,
            }
        };
        if body.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        body
    }

    /// Ends attempt `id` of `key` with `outcome`: iff the slot is still
    /// that attempt, an `Ok` body replaces it as a ready entry and an
    /// `Err` removes it, and the attempt comes back [`Ended`] for the
    /// caller to run. `None` means someone else already ended the attempt
    /// (deadline, shutdown) and answered its waiters; the late outcome is
    /// dropped, accounting included.
    pub fn finish(&self, key: &[u8], id: u64, outcome: Result<Body, Abort>) -> Option<Ended> {
        let mut inner = self.shard(key).lock().unwrap();
        let parked = inner.finish(key, id, &outcome, self.shard_cap)?;
        Some(Ended::new(parked, outcome))
    }

    /// Ends every attempt pending for at least `age` with `abort`,
    /// freeing its key (the deadline scan; with a zero age, the shutdown
    /// drain). The caller runs each returned attempt.
    pub fn take_expired(&self, age: Duration, abort: Abort) -> Vec<Ended> {
        let mut taken = Vec::new();
        for shard in self.shards.iter() {
            shard.lock().unwrap().take_expired(age, abort, &mut taken);
        }
        taken
    }

    /// Probes the exact-line tier. A hit counts as a cache hit; a miss
    /// counts nothing — the keyed-tier probe that follows will.
    pub fn line_get(&self, line: &str) -> Option<Body> {
        let body = {
            let inner = self.shard(line.as_bytes()).lock().unwrap();
            inner.lines.get(line).map(Arc::clone)
        };
        if body.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        body
    }

    /// Publishes a line → response mapping into the exact-line tier.
    /// Only deterministic bodies may be inserted (artifacts and typed
    /// compile errors — never `stats` or transient `overloaded` bodies).
    pub fn line_put(&self, line: &str, body: &Body) {
        let mut inner = self.shard(line.as_bytes()).lock().unwrap();
        if inner.lines.len() >= self.line_cap && !inner.lines.contains_key(line) {
            inner.lines.clear();
        }
        inner.lines.insert(Box::from(line), Arc::clone(body));
    }

    /// Probes the quarantine tier: `Some(body)` means this fingerprint
    /// struck out and gets the cached typed rejection without touching a
    /// worker.
    pub fn quarantine_get(&self, fingerprint: &[u8]) -> Option<Body> {
        let body = {
            let inner = self.shard(fingerprint).lock().unwrap();
            inner.quarantined.get(fingerprint).map(Arc::clone)
        };
        if body.is_some() {
            self.quarantine_hits.fetch_add(1, Ordering::Relaxed);
        }
        body
    }

    /// Records one failure (panic or deadline expiry) against a
    /// fingerprint; at the threshold the fingerprint is quarantined.
    /// Strikes are *consecutive*, not cumulative — a success clears them,
    /// so a kernel that fails under transient pressure but then compiles
    /// fine is never poisoned. Only [`Ended::step`] calls this.
    fn record_strike(&self, fingerprint: &[u8]) {
        let threshold = self.quarantine_threshold;
        if threshold == 0 {
            return;
        }
        let mut inner = self.shard(fingerprint).lock().unwrap();
        if inner.quarantined.contains_key(fingerprint) {
            return; // already poisoned; nothing new to record
        }
        let strikes = inner.strikes.entry(fingerprint.to_vec()).or_insert(0);
        *strikes += 1;
        if *strikes < threshold {
            return;
        }
        inner.strikes.remove(fingerprint);
        // The strike and quarantine maps are bounded the same
        // generational way as the ready tier: a pathological *stream* of
        // distinct failing fingerprints must not grow without bound.
        if inner.quarantined.len() >= self.shard_cap {
            inner.quarantined.clear();
        }
        if inner.strikes.len() >= self.shard_cap {
            inner.strikes.clear();
        }
        let rejection = Arc::clone(&self.rejection);
        inner.quarantined.insert(fingerprint.to_vec(), rejection);
        drop(inner);
        self.quarantined_total.fetch_add(1, Ordering::Relaxed);
    }

    /// After a successful compile: clears the fingerprint's
    /// consecutive-failure strikes and records it as known. Only
    /// [`Ended::step`] calls this.
    fn record_success(&self, fingerprint: Vec<u8>) {
        let mut inner = self.shard(&fingerprint).lock().unwrap();
        inner.strikes.remove(&fingerprint);
        if !inner.known.contains(&fingerprint) {
            if inner.known.len() >= KNOWN_CAP {
                inner.known.clear();
            }
            inner.known.insert(fingerprint);
        }
    }

    /// Whether an attempt with this fingerprint ended `Ok`. The prefix
    /// key holds the source bytes, format and C name, so its source is
    /// known to parse: every `Ok` outcome, typed rejections included, comes
    /// from a request that got past the front end.
    pub fn known(&self, fingerprint: &[u8]) -> bool {
        let inner = self.shard(fingerprint).lock().unwrap();
        inner.known.contains(fingerprint)
    }

    /// Counter snapshot. Counters are lock-free reads; entry counts take
    /// each shard lock briefly (`stats` requests are rare).
    pub fn stats(&self) -> ArtifactCacheStats {
        let mut evictions = 0;
        let mut entries = 0;
        let mut inflight = 0;
        let mut line_entries = 0;
        let mut quarantined = 0;
        for shard in self.shards.iter() {
            let inner = shard.lock().unwrap();
            evictions += inner.evictions;
            entries += inner.ready;
            inflight += inner.map.len() - inner.ready;
            line_entries += inner.lines.len();
            quarantined += inner.quarantined.len();
        }
        ArtifactCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions,
            entries,
            inflight,
            line_entries,
            quarantined,
            quarantine_hits: self.quarantine_hits.load(Ordering::Relaxed),
            quarantined_total: self.quarantined_total.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
pub(crate) mod protocols;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver};
    use std::thread;

    type Outcome = Result<Body, Abort>;

    fn body(s: &str) -> Body {
        Arc::from(s.as_bytes())
    }

    /// A cache whose breaker trips at `threshold` behind `"poison"`.
    fn breaker(capacity: usize, shards: usize, threshold: u32) -> ArtifactCache {
        ArtifactCache::new(capacity, shards, threshold, body("poison"))
    }

    fn cache(capacity: usize, shards: usize) -> ArtifactCache {
        breaker(capacity, shards, 3)
    }

    /// A waiter that forwards what it receives down a channel.
    fn probe() -> (Waiter, Receiver<Outcome>) {
        let (tx, rx) = channel();
        let waiter: Waiter = Box::new(move |r| {
            let _ = tx.send(r);
        });
        (waiter, rx)
    }

    /// Looks `key` up expecting to lead; returns the attempt id and the
    /// leader's own parked probe.
    fn lead(c: &ArtifactCache, key: &[u8]) -> (u64, Receiver<Outcome>) {
        let (waiter, rx) = probe();
        match c.lookup(key, b"fp", || waiter) {
            Lookup::Lead(id) => (id, rx),
            other => panic!("{other:?}"),
        }
    }

    fn join(c: &ArtifactCache, key: &[u8]) -> Receiver<Outcome> {
        let (waiter, rx) = probe();
        match c.lookup(key, b"fp", || waiter) {
            Lookup::Joined => rx,
            other => panic!("{other:?}"),
        }
    }

    /// Ends an attempt the way its owner does: finish, then run.
    fn end(c: &ArtifactCache, key: &[u8], id: u64, outcome: Outcome) {
        c.finish(key, id, outcome)
            .expect("attempt still pending")
            .run(c);
    }

    fn publish(c: &ArtifactCache, key: &[u8], s: &str) {
        let (id, _rx) = lead(c, key);
        end(c, key, id, Ok(body(s)));
    }

    fn hit(c: &ArtifactCache, key: &[u8]) -> Body {
        match c.lookup(key, b"fp", || panic!("a hit never builds its waiter")) {
            Lookup::Hit(b) => b,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn leader_then_hits() {
        let c = cache(8, 1);
        let (id, rx) = lead(&c, b"k1");
        assert!(rx.try_recv().is_err(), "must not run early");
        end(&c, b"k1", id, Ok(body("resp")));
        assert_eq!(&*rx.recv().unwrap().unwrap(), b"resp");
        assert_eq!(&*hit(&c, b"k1"), b"resp");
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries, st.inflight), (1, 1, 1, 0));
    }

    #[test]
    fn ready_get_sees_only_ready_entries_and_counts_only_hits() {
        let c = cache(8, 1);
        assert!(c.ready_get(b"k").is_none(), "absent");
        let (id, _rx) = lead(&c, b"k");
        assert!(c.ready_get(b"k").is_none(), "pending");
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        end(&c, b"k", id, Ok(body("resp")));
        assert_eq!(&*c.ready_get(b"k").expect("ready"), b"resp");
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.inflight), (1, 1, 0));
    }

    #[test]
    fn joiners_share_the_leaders_attempt() {
        let c = Arc::new(cache(8, 4));
        let (id, _rx) = lead(&c, b"k");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joins.push(thread::spawn(move || {
                let (waiter, rx) = probe();
                match c.lookup(b"k", b"fp", || waiter) {
                    Lookup::Hit(b) => b.to_vec(),
                    Lookup::Joined => rx.recv().unwrap().unwrap().to_vec(),
                    Lookup::Lead(_) => panic!("second leader for one key"),
                }
            }));
        }
        end(&c, b"k", id, Ok(body("shared")));
        for j in joins {
            assert_eq!(j.join().unwrap(), b"shared");
        }
        let st = c.stats();
        assert_eq!(st.misses, 1, "exactly one compile for 5 requests");
        assert_eq!(st.hits, 4);
    }

    #[test]
    fn failed_attempt_wakes_joiners_and_frees_the_key() {
        let c = cache(8, 2);
        let (id, leader) = lead(&c, b"k");
        let joiner = join(&c, b"k");
        end(&c, b"k", id, Err(Abort::Overloaded));
        assert_eq!(leader.recv().unwrap().unwrap_err(), Abort::Overloaded);
        assert_eq!(joiner.recv().unwrap().unwrap_err(), Abort::Overloaded);
        // The key is free again: the next request leads a fresh compile.
        lead(&c, b"k");
        assert_eq!(c.stats().inflight, 1);
    }

    #[test]
    fn late_finish_of_an_expired_attempt_is_dropped() {
        let c = cache(8, 1);
        let (old, old_rx) = lead(&c, b"k");
        let expired = c.take_expired(Duration::ZERO, Abort::DeadlineExceeded);
        assert_eq!(expired.len(), 1);
        for ended in expired {
            ended.run(&c);
        }
        assert_eq!(old_rx.recv().unwrap().unwrap_err(), Abort::DeadlineExceeded);
        // A newer attempt of the same key, with a joiner.
        let (new, new_rx) = lead(&c, b"k");
        let joiner = join(&c, b"k");
        assert_ne!(old, new);
        // The expired attempt's compile finally returns: not its slot.
        assert!(c.finish(b"k", old, Ok(body("stale"))).is_none());
        assert!(new_rx.try_recv().is_err(), "newer waiters stay parked");
        assert!(joiner.try_recv().is_err(), "newer waiters stay parked");
        assert_eq!(c.stats().inflight, 1);
        end(&c, b"k", new, Ok(body("fresh")));
        assert_eq!(&*new_rx.recv().unwrap().unwrap(), b"fresh");
        assert_eq!(&*joiner.recv().unwrap().unwrap(), b"fresh");
        assert!(old_rx.try_recv().is_err(), "answered exactly once");
        assert!(c.finish(b"k", new, Ok(body("twice"))).is_none());
        assert_eq!(&*hit(&c, b"k"), b"fresh");
    }

    #[test]
    fn take_expired_ends_only_pending_slots_of_that_age() {
        let c = cache(8, 2);
        publish(&c, b"ready", "r");
        let (_, young) = lead(&c, b"young");
        let hour = Duration::from_secs(3600);
        assert!(c.take_expired(hour, Abort::DeadlineExceeded).is_empty());
        let st = c.stats();
        assert_eq!((st.entries, st.inflight), (1, 1));
        let (_, other) = lead(&c, b"other");
        let drain = || c.take_expired(Duration::ZERO, Abort::ShuttingDown);
        let drained = drain();
        assert_eq!(drained.len(), 2);
        let st = c.stats();
        assert_eq!((st.entries, st.inflight), (1, 0));
        for ended in drained {
            assert_eq!(ended.parked.fingerprint, b"fp");
            ended.run(&c);
        }
        for rx in [young, other] {
            assert_eq!(rx.recv().unwrap().unwrap_err(), Abort::ShuttingDown);
        }
        assert_eq!(&*hit(&c, b"ready"), b"r");
        assert!(drain().is_empty());
    }

    #[test]
    fn generational_eviction_retains_pending() {
        // One shard so the eviction arithmetic is deterministic.
        let c = cache(2, 1);
        publish(&c, b"a", "x");
        publish(&c, b"b", "x");
        let (pending, _rx) = lead(&c, b"inflight");
        // Third ready insert overflows: ready entries clear, the pending
        // slot survives.
        publish(&c, b"c", "y");
        let st = c.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 1);
        assert_eq!(st.inflight, 1);
        end(&c, b"inflight", pending, Ok(body("z")));
        assert_eq!(&*hit(&c, b"inflight"), b"z");
    }

    #[test]
    fn line_tier_hits_skip_the_keyed_tier() {
        let c = cache(8, 2);
        assert!(c.line_get("{\"op\":\"compile\"}").is_none());
        let b = body("artifact");
        c.line_put("{\"op\":\"compile\"}", &b);
        let hit = c.line_get("{\"op\":\"compile\"}").expect("line hit");
        assert!(Arc::ptr_eq(&hit, &b), "line tier shares the same bytes");
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 0));
        assert_eq!(st.line_entries, 1);
    }

    #[test]
    fn line_tier_is_bounded_per_shard() {
        let c = cache(4, 1);
        for i in 0..64 {
            let line = format!("line-{i}");
            c.line_put(&line, &body("x"));
        }
        assert!(c.stats().line_entries <= 4);
    }

    #[test]
    fn shard_count_rounds_to_pow2() {
        assert_eq!(cache(16, 3).shard_count(), 4);
        assert_eq!(cache(16, 0).shard_count(), 1);
        assert_eq!(cache(16, 8).shard_count(), 8);
    }

    #[test]
    fn strikes_quarantine_at_threshold_and_reset_on_success() {
        let c = breaker(8, 2, 3);
        let fp = b"bad-kernel";
        c.record_strike(fp);
        c.record_strike(fp);
        // A success between failures resets the consecutive count.
        c.record_success(fp.to_vec());
        c.record_strike(fp);
        c.record_strike(fp);
        assert!(c.quarantine_get(fp).is_none());
        c.record_strike(fp);
        assert_eq!(&*c.quarantine_get(fp).expect("quarantined"), b"poison");
        // Further strikes against a quarantined fingerprint are no-ops.
        c.record_strike(fp);
        let st = c.stats();
        assert_eq!(st.quarantined, 1);
        assert_eq!(st.quarantined_total, 1);
        assert_eq!(st.quarantine_hits, 1);
    }

    #[test]
    fn only_panics_and_expiries_strike() {
        let c = breaker(8, 1, 1);
        for abort in [Abort::Overloaded, Abort::ShuttingDown] {
            let (id, _rx) = lead(&c, b"k");
            end(&c, b"k", id, Err(abort));
            assert!(c.quarantine_get(b"fp").is_none(), "{abort:?} struck");
        }
        let (_, _rx) = lead(&c, b"k");
        for ended in c.take_expired(Duration::ZERO, Abort::DeadlineExceeded) {
            ended.run(&c);
        }
        assert!(c.quarantine_get(b"fp").is_some(), "an expiry strikes");
    }

    #[test]
    fn ended_accounts_on_the_fingerprints_shard_then_wakes() {
        // The key and the fingerprint hash to different shards: the slot
        // lives with the key, the strike with the fingerprint.
        let c = breaker(8, 2, 1);
        let (key, fp) = (b"key".as_slice(), b"p2".as_slice());
        let (waiter, rx) = probe();
        let Lookup::Lead(id) = c.lookup(key, fp, || waiter) else {
            panic!("fresh key leads");
        };
        let mut ended = c.finish(key, id, Err(Abort::Internal)).expect("pending");
        assert!(rx.try_recv().is_err(), "finish alone wakes nobody");
        assert!(
            ended.step(&c),
            "the first step accounts and leaves the wake"
        );
        assert!(rx.try_recv().is_err(), "accounting wakes nobody");
        let quarantined = |bytes: &[u8]| c.shard(bytes).lock().unwrap().quarantined.len();
        assert_eq!((quarantined(fp), quarantined(key)), (1, 0));
        assert!(!ended.step(&c), "the second step wakes and is the last");
        assert_eq!(rx.recv().unwrap().unwrap_err(), Abort::Internal);
        assert!(!ended.step(&c), "nothing left to do");
        assert!(rx.try_recv().is_err(), "answered exactly once");
    }

    #[test]
    fn only_an_accounted_success_makes_a_fingerprint_known() {
        let c = cache(8, 1);
        for abort in [Abort::Overloaded, Abort::Internal] {
            let (id, _rx) = lead(&c, b"k");
            end(&c, b"k", id, Err(abort));
            assert!(!c.known(b"fp"), "{abort:?}");
        }
        let (id, _rx) = lead(&c, b"k");
        let mut ended = c.finish(b"k", id, Ok(body("x"))).expect("pending");
        assert!(!c.known(b"fp"), "finishing accounts nothing");
        assert!(ended.step(&c));
        assert!(c.known(b"fp"), "the accounting step records it");
        assert!(!ended.step(&c));
        // Bounded generationally, like the shard's other maps.
        for i in 0..KNOWN_CAP as u64 {
            c.record_success(i.to_le_bytes().to_vec());
        }
        let known = c.shards[0].lock().unwrap().known.len();
        assert!(known <= KNOWN_CAP, "{known}");
        assert!(c.known(&(KNOWN_CAP as u64 - 1).to_le_bytes()));
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let c = breaker(8, 1, 0);
        for _ in 0..32 {
            c.record_strike(b"fp");
        }
        assert!(c.quarantine_get(b"fp").is_none());
        assert_eq!(c.stats().quarantined_total, 0);
    }

    #[test]
    fn quarantined_entry_evicted_then_rerequested_leads_again() {
        // One shard, capacity 2: quarantining a third distinct
        // fingerprint clears the tier generationally. An evicted
        // fingerprint must fall back to a normal compile lead, not get a
        // stale rejection or a dangling strike count.
        let c = breaker(2, 1, 1);
        for fp in [b"p1".as_slice(), b"p2"] {
            c.record_strike(fp);
            assert!(c.quarantine_get(fp).is_some());
        }
        c.record_strike(b"p3");
        // p1/p2 were swept by the generational clear; p3 is resident.
        assert!(c.quarantine_get(b"p1").is_none());
        assert!(c.quarantine_get(b"p3").is_some());
        assert_eq!(c.stats().quarantined, 1);
        assert_eq!(c.stats().quarantined_total, 3);
        // The evicted fingerprint's requests flow through the normal
        // keyed tier again.
        publish(&c, b"p1", "recovered");
        assert_eq!(&*hit(&c, b"p1"), b"recovered");
    }

    #[test]
    fn keys_disperse_across_shards() {
        let c = cache(1024, 8);
        for i in 0..256u32 {
            publish(&c, &i.to_le_bytes(), "x");
        }
        // With 256 keys over 8 shards, every shard must hold something —
        // a broken hash (all keys on one shard) would re-serialize hits.
        let per_shard: Vec<usize> = c.shards.iter().map(|s| s.lock().unwrap().ready).collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
    }
}
