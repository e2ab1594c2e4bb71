//! The sharded content-addressed artifact cache.
//!
//! Keys are byte-exact structural fingerprints (built by the engine from
//! [`polyufc_machine::program_fingerprint`] plus the request's pipeline
//! configuration and the response-visible names); values are fully
//! rendered response bodies as [`Body`] (`Arc<[u8]>`). Caching the
//! *bytes* rather than a parsed artifact makes the hot path a single map
//! probe + `Arc` clone, and makes byte-identity between hits, fresh
//! compilations, and the one-shot CLI a structural property instead of a
//! test hope.
//!
//! **Sharding:** PR 7 guarded the whole cache with one `Mutex`, so cache
//! *hits* — the common case — serialized on one lock. Keys now hash
//! (FNV-1a) onto `next_pow2(workers * 4)` shards, each with its own
//! `Mutex` and its own single-flight [`Flight`] slots; hits never cross
//! shards, and the hit/miss/eviction counters are `AtomicU64`s bumped
//! outside any lock.
//!
//! **Exact-line tier:** the keyed tier still costs a parse + sanitize +
//! fingerprint (~35 µs) before the probe. Repeated requests are usually
//! *byte-identical* lines, so each shard also maps raw request lines to
//! bodies; a line hit skips request preparation entirely (~1 µs). Line
//! hits count as cache hits — both tiers serve the same deterministic
//! bytes, by construction.
//!
//! **Bounding:** eviction is generational per shard and per tier — when
//! a shard's ready-entry count reaches its share of the capacity, the
//! next insert clears that shard's ready entries (one `evictions` tick)
//! while in-flight leaders are retained, since dropping a pending flight
//! would strand its followers.

use polyufc_chk::OrderedMutex;
use polyufc_machine::fault::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::artifact::{Abort, ArtifactCacheStats, Body, Flight, Lookup};

#[derive(Debug)]
enum Slot {
    Ready(Body),
    Pending(Arc<Flight>),
}

#[derive(Debug, Default)]
struct ShardInner {
    /// Keyed artifact tier: fingerprint key → ready body or in-flight
    /// compile.
    map: HashMap<Vec<u8>, Slot>,
    /// Ready entries in `map` (pending ones are `map.len() - ready`).
    ready: usize,
    /// Exact-line response tier: trimmed request line → body.
    lines: HashMap<Box<str>, Body>,
    /// Consecutive-failure strike counts per structural fingerprint
    /// (cleared on the fingerprint's next success).
    strikes: HashMap<Vec<u8>, u32>,
    /// Poison-pill tier: fingerprints that struck out, mapped to the
    /// cached typed rejection their requests get without compiling.
    quarantined: HashMap<Vec<u8>, Body>,
}

/// Bounded, sharded, content-addressed response cache with single-flight
/// dedup and an exact-line fast tier.
#[derive(Debug)]
pub struct ArtifactCache {
    shards: Box<[OrderedMutex<ShardInner>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// Ready-entry capacity per shard (keyed tier).
    shard_cap: usize,
    /// Entry capacity per shard for the line tier.
    line_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantine_hits: AtomicU64,
    quarantined_total: AtomicU64,
}

impl ArtifactCache {
    /// A cache bounded to `capacity` ready entries (at least 1) split
    /// over `shards` shards (rounded up to a power of two, at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantine_hits: AtomicU64::new(0),
            quarantined_total: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard choice only needs dispersion, not DoS resistance: keys are
    /// fingerprints the server computed itself, not attacker-chosen bytes.
    fn shard(&self, bytes: &[u8]) -> &OrderedMutex<ShardInner> {
        &self.shards[(fnv1a(FNV_OFFSET, bytes) & self.mask) as usize]
    }

    /// Probes the keyed tier; a miss atomically registers this caller as
    /// the key's compile leader.
    pub fn lookup(&self, key: &[u8]) -> Lookup {
        let out = {
            let mut inner = self.shard(key).lock().unwrap();
            match inner.map.get(key) {
                Some(Slot::Ready(body)) => Lookup::Hit(Arc::clone(body)),
                Some(Slot::Pending(flight)) => Lookup::Wait(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::default());
                    inner
                        .map
                        .insert(key.to_vec(), Slot::Pending(Arc::clone(&flight)));
                    Lookup::Lead(flight)
                }
            }
        };
        match &out {
            // A follower is served from the leader's work: a hit.
            Lookup::Hit(_) | Lookup::Wait(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            Lookup::Lead(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Publishes the leader's rendered response: the pending slot becomes
    /// ready and every follower wakes (or has its callback run) with the
    /// same bytes.
    pub fn fulfill(&self, key: &[u8], flight: &Arc<Flight>, body: Body) -> Body {
        {
            let mut inner = self.shard(key).lock().unwrap();
            if let Some(Slot::Pending(f)) = inner.map.get(key) {
                if Arc::ptr_eq(f, flight) {
                    if inner.ready >= self.shard_cap {
                        // Generational clear of this shard's ready entries
                        // only: pending flights have waiters parked on
                        // them.
                        inner.map.retain(|_, s| matches!(s, Slot::Pending(_)));
                        inner.ready = 0;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    inner
                        .map
                        .insert(key.to_vec(), Slot::Ready(Arc::clone(&body)));
                    inner.ready += 1;
                }
            }
        }
        flight.complete(Ok(Arc::clone(&body)));
        body
    }

    /// Cancels the leader's flight without publishing an artifact: the
    /// pending slot is removed (the next request for this key leads a
    /// fresh compile) and every follower wakes with `abort`.
    pub fn abort(&self, key: &[u8], flight: &Arc<Flight>, abort: Abort) {
        {
            let mut inner = self.shard(key).lock().unwrap();
            if let Some(Slot::Pending(f)) = inner.map.get(key) {
                if Arc::ptr_eq(f, flight) {
                    inner.map.remove(key);
                }
            }
        }
        flight.complete(Err(abort));
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
    /// fingerprint. At `threshold` consecutive failures the fingerprint
    /// is quarantined behind `rejection()`'s body and `true` is returned;
    /// a `threshold` of 0 disables the breaker. Strikes are
    /// *consecutive*, not cumulative — [`ArtifactCache::clear_strikes`]
    /// resets them on success, so a kernel that fails under transient
    /// pressure but then compiles fine is never poisoned.
    pub fn record_strike(
        &self,
        fingerprint: &[u8],
        threshold: u32,
        rejection: impl FnOnce() -> Body,
    ) -> bool {
        if threshold == 0 {
            return false;
        }
        let quarantined = {
            let mut inner = self.shard(fingerprint).lock().unwrap();
            if inner.quarantined.contains_key(fingerprint) {
                return false; // already poisoned; nothing new to record
            }
            let strikes = inner.strikes.entry(fingerprint.to_vec()).or_insert(0);
            *strikes += 1;
            if *strikes < threshold {
                false
            } else {
                inner.strikes.remove(fingerprint);
                // The strike and quarantine maps are bounded the same
                // generational way as the ready tier: a pathological
                // *stream* of distinct failing fingerprints must not
                // grow without bound.
                if inner.quarantined.len() >= self.shard_cap {
                    inner.quarantined.clear();
                }
                if inner.strikes.len() >= self.shard_cap {
                    inner.strikes.clear();
                }
                inner.quarantined.insert(fingerprint.to_vec(), rejection());
                true
            }
        };
        if quarantined {
            self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        }
        quarantined
    }

    /// Clears a fingerprint's consecutive-failure strikes after a
    /// successful compile.
    pub fn clear_strikes(&self, fingerprint: &[u8]) {
        let mut inner = self.shard(fingerprint).lock().unwrap();
        inner.strikes.remove(fingerprint);
    }

    /// Counter snapshot. Counters are lock-free reads; entry counts take
    /// each shard lock briefly (`stats` requests are rare).
    pub fn stats(&self) -> ArtifactCacheStats {
        let mut entries = 0;
        let mut inflight = 0;
        let mut line_entries = 0;
        let mut quarantined = 0;
        for shard in self.shards.iter() {
            let inner = shard.lock().unwrap();
            entries += inner.ready;
            inflight += inner.map.len() - inner.ready;
            line_entries += inner.lines.len();
            quarantined += inner.quarantined.len();
        }
        ArtifactCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
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
mod tests {
    use super::*;
    use std::thread;

    fn body(s: &str) -> Body {
        Arc::from(s.as_bytes())
    }

    #[test]
    fn leader_then_hits() {
        let c = ArtifactCache::new(8, 1);
        let flight = match c.lookup(b"k1") {
            Lookup::Lead(f) => f,
            other => panic!("{other:?}"),
        };
        let published = c.fulfill(b"k1", &flight, body("resp"));
        assert_eq!(&*published, b"resp");
        match c.lookup(b"k1") {
            Lookup::Hit(b) => assert_eq!(&*b, b"resp"),
            other => panic!("{other:?}"),
        }
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries, st.inflight), (1, 1, 1, 0));
    }

    #[test]
    fn followers_share_the_leaders_flight() {
        let c = Arc::new(ArtifactCache::new(8, 4));
        let leader = match c.lookup(b"k") {
            Lookup::Lead(f) => f,
            other => panic!("{other:?}"),
        };
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joins.push(thread::spawn(move || match c.lookup(b"k") {
                Lookup::Hit(b) => b.to_vec(),
                Lookup::Wait(f) => f.wait().unwrap().to_vec(),
                Lookup::Lead(_) => panic!("second leader for one key"),
            }));
        }
        c.fulfill(b"k", &leader, body("shared"));
        for j in joins {
            assert_eq!(j.join().unwrap(), b"shared");
        }
        let st = c.stats();
        assert_eq!(st.misses, 1, "exactly one compile for 5 requests");
        assert_eq!(st.hits, 4);
    }

    #[test]
    fn abort_wakes_followers_and_frees_the_key() {
        let c = Arc::new(ArtifactCache::new(8, 2));
        let leader = match c.lookup(b"k") {
            Lookup::Lead(f) => f,
            other => panic!("{other:?}"),
        };
        let follower = match c.lookup(b"k") {
            Lookup::Wait(f) => f,
            other => panic!("{other:?}"),
        };
        c.abort(b"k", &leader, Abort::Overloaded);
        assert_eq!(follower.wait().unwrap_err(), Abort::Overloaded);
        // The key is free again: the next request leads a fresh compile.
        assert!(matches!(c.lookup(b"k"), Lookup::Lead(_)));
        assert_eq!(c.stats().inflight, 1);
    }

    #[test]
    fn generational_eviction_retains_pending() {
        // One shard so the eviction arithmetic is deterministic.
        let c = ArtifactCache::new(2, 1);
        for key in [b"a".as_slice(), b"b"] {
            match c.lookup(key) {
                Lookup::Lead(f) => {
                    c.fulfill(key, &f, body("x"));
                }
                other => panic!("{other:?}"),
            }
        }
        let pending = match c.lookup(b"inflight") {
            Lookup::Lead(f) => f,
            other => panic!("{other:?}"),
        };
        // Third ready insert overflows: ready entries clear, the pending
        // flight survives.
        match c.lookup(b"c") {
            Lookup::Lead(f) => {
                c.fulfill(b"c", &f, body("y"));
            }
            other => panic!("{other:?}"),
        }
        let st = c.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 1);
        assert_eq!(st.inflight, 1);
        c.fulfill(b"inflight", &pending, body("z"));
        match c.lookup(b"inflight") {
            Lookup::Hit(b) => assert_eq!(&*b, b"z"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn line_tier_hits_skip_the_keyed_tier() {
        let c = ArtifactCache::new(8, 2);
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
        let c = ArtifactCache::new(4, 1);
        for i in 0..64 {
            let line = format!("line-{i}");
            c.line_put(&line, &body("x"));
        }
        assert!(c.stats().line_entries <= 4);
    }

    #[test]
    fn shard_count_rounds_to_pow2() {
        assert_eq!(ArtifactCache::new(16, 3).shard_count(), 4);
        assert_eq!(ArtifactCache::new(16, 0).shard_count(), 1);
        assert_eq!(ArtifactCache::new(16, 8).shard_count(), 8);
    }

    #[test]
    fn strikes_quarantine_at_threshold_and_reset_on_success() {
        let c = ArtifactCache::new(8, 2);
        let fp = b"bad-kernel";
        assert!(!c.record_strike(fp, 3, || body("poison")));
        assert!(!c.record_strike(fp, 3, || body("poison")));
        // A success between failures resets the consecutive count.
        c.clear_strikes(fp);
        assert!(!c.record_strike(fp, 3, || body("poison")));
        assert!(!c.record_strike(fp, 3, || body("poison")));
        assert!(c.quarantine_get(fp).is_none());
        assert!(c.record_strike(fp, 3, || body("poison")));
        assert_eq!(&*c.quarantine_get(fp).expect("quarantined"), b"poison");
        // Further strikes against a quarantined fingerprint are no-ops.
        assert!(!c.record_strike(fp, 3, || body("other")));
        let st = c.stats();
        assert_eq!(st.quarantined, 1);
        assert_eq!(st.quarantined_total, 1);
        assert_eq!(st.quarantine_hits, 1);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let c = ArtifactCache::new(8, 1);
        for _ in 0..32 {
            assert!(!c.record_strike(b"fp", 0, || body("poison")));
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
        let c = ArtifactCache::new(2, 1);
        for fp in [b"p1".as_slice(), b"p2"] {
            assert!(c.record_strike(fp, 1, || body("poison")));
            assert!(c.quarantine_get(fp).is_some());
        }
        assert!(c.record_strike(b"p3", 1, || body("poison")));
        // p1/p2 were swept by the generational clear; p3 is resident.
        assert!(c.quarantine_get(b"p1").is_none());
        assert!(c.quarantine_get(b"p3").is_some());
        assert_eq!(c.stats().quarantined, 1);
        assert_eq!(c.stats().quarantined_total, 3);
        // The evicted fingerprint's requests flow through the normal
        // keyed tier again.
        match c.lookup(b"p1") {
            Lookup::Lead(f) => {
                c.fulfill(b"p1", &f, body("recovered"));
            }
            other => panic!("{other:?}"),
        }
        match c.lookup(b"p1") {
            Lookup::Hit(b) => assert_eq!(&*b, b"recovered"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keys_disperse_across_shards() {
        let c = ArtifactCache::new(1024, 8);
        for i in 0..256u32 {
            let key = i.to_le_bytes();
            match c.lookup(&key) {
                Lookup::Lead(f) => {
                    c.fulfill(&key, &f, body("x"));
                }
                other => panic!("{other:?}"),
            }
        }
        // With 256 keys over 8 shards, every shard must hold something —
        // a broken hash (all keys on one shard) would re-serialize hits.
        let per_shard: Vec<usize> = c.shards.iter().map(|s| s.lock().unwrap().ready).collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
    }
}
