//! The compile engine: request batching into the worker pool, the
//! sharded content-addressed artifact cache, and deterministic response
//! rendering.
//!
//! The split of one compile request across threads is deliberate:
//!
//! * the **reactor thread** probes the exact-line response tier, parses
//!   the request's JSON, builds both keys from the request as sent
//!   ([`CompileRequest::keys`]) and probes the quarantine and artifact
//!   tiers — a cache hit completes without parsing the kernel source or
//!   touching the pool. A miss leads or joins a compile, and the reactor
//!   [`prepare`]s it (source parsed and sanitized) only when no worker
//!   has compiled its program yet ([`ArtifactCache::known`]), so a parse
//!   error is still answered inline;
//! * a **worker thread** (with its persistent [`CompileSession`] and a
//!   per-worker characterization-prefix cache) runs the expensive
//!   pipeline only when the key missed, and only once per key no matter
//!   how many requests race (single flight). A known program's request
//!   arrives unparsed: the worker finishes it from its prefix cache, or
//!   runs the front end itself when it does not hold the prefix.
//!
//! The engine's entry point is asynchronous: [`Engine::submit`] either
//! answers immediately ([`Submitted::Ready`]) or dispatches a compile and
//! later invokes the caller's `notify` callback with the finished body —
//! the epoll reactor never blocks on a compile. The blocking
//! [`Engine::handle_line`] wrapper is the convenience form for callers
//! with nothing else to do meanwhile (tests, the benchmark's traced pass).
//!
//! When the bounded queue is full the leader sheds with a typed
//! `overloaded` response and ends its attempt so joiners shed too —
//! backpressure is explicit, never an unbounded buffer.
//!
//! **Prefix cache:** stage timing shows warm recompiles are dominated by
//! Pluto re-optimization (hundreds of µs to ms), while the only stages
//! that read `epsilon`/`objective` — POLYUFC-SEARCH and code generation
//! — cost ~15 µs. Each worker therefore caches
//! [`CharacterizedProgram`] prefixes keyed on (platform, assoc,
//! source), each with the sanitize warnings of its source: a request
//! differing only in search parameters re-runs only [`Pipeline::finish`],
//! on a borrow of the cached prefix. Responses stay byte-identical by
//! construction — the prefix is exactly the pipeline's own stage-1–3
//! output, and the warnings are what the front end printed for the same
//! source bytes.

use polyufc_chk::OrderedMutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polyufc::{CharacterizedProgram, CompileReport, CompileSession, Finished, Pipeline};
use polyufc_analysis::sanitize_parallel;
use polyufc_cgeist::parse_scop;
use polyufc_ir::affine::AffineProgram;
use polyufc_ir::textual::parse_affine_program;
use polyufc_par::StatefulPool;

use crate::chaos::{ChaosPlan, CompileFault};
use crate::json::{fmt_f64, push_escaped};
use crate::protocol::{
    assoc_str, codes, objective_str, parse_request, render_error, CompileOptions, CompileRequest,
    Request, RequestKeys, SourceFormat, WireError,
};
use crate::shard::{Abort, ArtifactCache, ArtifactCacheStats, Body, Lookup, Waiter};

/// Engine sizing.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Compile worker threads (defaults to [`polyufc_par::worker_count`],
    /// which honors `--threads` / `POLYUFC_THREADS`).
    pub workers: usize,
    /// Bounded pending-compile queue; a full queue sheds requests with a
    /// typed `overloaded` response.
    pub queue_cap: usize,
    /// Artifact-cache capacity in ready entries.
    pub cache_capacity: usize,
    /// Per-request compile budget: a compile pending longer is ended by
    /// the watchdog with a typed `deadline_exceeded` error, and a worker
    /// stuck past 1.5× this is detached and replaced. `None` (the
    /// default) disables the watchdog.
    pub deadline: Option<Duration>,
    /// Consecutive panics/timeouts after which a kernel (its prefix key)
    /// is quarantined behind a cached typed rejection; `0` disables the
    /// circuit breaker.
    pub quarantine_threshold: u32,
    /// Seeded fault injection for the compile path (off by default;
    /// pristine plans leave dispatch byte-identical).
    pub chaos: ChaosPlan,
    /// How long [`Engine::shutdown`] waits for busy workers to finish
    /// before detaching them and draining still-pending compiles with
    /// typed `shutting_down` errors.
    pub shutdown_grace: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = polyufc_par::worker_count();
        EngineConfig {
            workers,
            queue_cap: 4 * workers.max(1),
            cache_capacity: 4096,
            deadline: None,
            quarantine_threshold: 3,
            chaos: ChaosPlan::pristine(),
            shutdown_grace: Duration::from_secs(5),
        }
    }
}

/// Cumulative Presburger counting-cache traffic across every compile the
/// engine ran (aggregated from per-compile [`CompileReport`] deltas, so
/// shed, cached, and prefix-cached requests contribute nothing).
#[derive(Debug, Default)]
pub struct CountTotals {
    /// Counting queries answered from warm per-worker session caches.
    pub hits: AtomicU64,
    /// Counting queries that ran the full counter.
    pub misses: AtomicU64,
    /// Components resolved by the closed-form symbolic layer.
    pub symbolic: AtomicU64,
    /// Components that fell back to the recursive enumerator.
    pub enumerated: AtomicU64,
    /// Session-cache entries discarded by the capacity guard.
    pub evictions: AtomicU64,
    /// Polysum region splits fanned out across the worker pool.
    pub parallel_splits: AtomicU64,
}

impl CountTotals {
    fn add(&self, r: &CompileReport) {
        self.hits.fetch_add(r.count_cache_hits, Ordering::Relaxed);
        self.misses
            .fetch_add(r.count_cache_misses, Ordering::Relaxed);
        self.symbolic.fetch_add(r.count_symbolic, Ordering::Relaxed);
        self.enumerated
            .fetch_add(r.count_enumerated, Ordering::Relaxed);
        self.evictions
            .fetch_add(r.count_cache_evictions, Ordering::Relaxed);
        self.parallel_splits
            .fetch_add(r.count_parallel_splits, Ordering::Relaxed);
    }
}

/// Fixed-bucket log₂ latency histogram: bucket `i` counts service times
/// in `[2^(i-1), 2^i)` µs (bucket 0 is sub-microsecond). Recording is
/// one relaxed atomic increment — safe from the reactor's hot path — and
/// quantiles are read as bucket upper bounds, which is the right
/// resolution for a trajectory metric (p99 drifting from 2^7 to 2^10 µs
/// is the signal; ±30% inside a bucket is not).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    max_us: AtomicU64,
}

const BUCKETS: usize = 40;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one service time.
    pub fn record_us(&self, us: u64) {
        let idx = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Snapshot: (count, p50, p99, max) with quantiles as bucket upper
    /// bounds in µs.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = (q * total as f64).ceil() as u64;
            let mut cum = 0u64;
            for (i, &n) in counts.iter().enumerate() {
                cum += n;
                if cum >= rank {
                    return 1u64 << i;
                }
            }
            1u64 << (BUCKETS - 1)
        };
        (
            total,
            quantile(0.50),
            quantile(0.99),
            self.max_us.load(Ordering::Relaxed),
        )
    }
}

/// State shared between the reactor/connection threads and compile
/// workers.
#[derive(Debug, Default)]
struct Shared {
    counts: CountTotals,
    requests: AtomicU64,
    compiled: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    prefix_hits: AtomicU64,
    prefix_misses: AtomicU64,
    deadlines: AtomicU64,
    latency: LatencyHistogram,
}

/// The deadline watchdog thread. It scans until its stop channel
/// disconnects, so stopping it is dropping the sender and joining.
struct Watchdog {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn stop(self) {
        drop(self.stop);
        let _ = self.handle.join();
    }
}

/// How the server should act on a handled line (blocking API).
#[derive(Debug)]
pub enum Outcome {
    /// Write this response line and keep the connection open.
    Reply(String),
    /// Write this response line, then drain and stop the daemon.
    ReplyAndShutdown(String),
}

impl Outcome {
    /// The response body either way.
    pub fn body(&self) -> &str {
        match self {
            Outcome::Reply(s) | Outcome::ReplyAndShutdown(s) => s,
        }
    }
}

/// How [`Engine::submit`] answered a request line (event-driven API).
pub enum Submitted {
    /// The response is ready now (no compile was needed).
    Ready(Body),
    /// Ready now, and the daemon should drain and stop after writing it.
    ReadyShutdown(Body),
    /// A compile was dispatched (or joined in flight); the `notify`
    /// callback passed to `submit` will deliver the body later, possibly
    /// on a worker thread.
    Pending,
}

impl std::fmt::Debug for Submitted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Submitted::Ready(_) => "Submitted::Ready",
            Submitted::ReadyShutdown(_) => "Submitted::ReadyShutdown",
            Submitted::Pending => "Submitted::Pending",
        })
    }
}

/// A compile request keyed and, unless its program is known to parse,
/// parsed and sanitized — everything the reactor/connection thread
/// computes before a miss leads or joins.
pub struct Prepared {
    front: Front,
    opts: CompileOptions,
    keys: RequestKeys,
}

/// The front end's part of a [`Prepared`] request.
enum Front {
    /// Parsed and sanitized, with the sanitize warnings.
    Parsed(AffineProgram, Vec<String>),
    /// The source as sent, of a program some worker already compiled.
    Known(SourceFormat, String, String),
}

/// A worker's cached ε-independent prefix of one source.
struct PrefixEntry {
    characterized: CharacterizedProgram,
    /// Sanitize warnings of the source, which every reply prints.
    warnings: Vec<String>,
}

/// Per-worker compile state: the persistent [`CompileSession`] (warm
/// Presburger caches) plus a bounded cache of ε-independent prefixes.
pub struct WorkerState {
    session: CompileSession,
    prefix: HashMap<Vec<u8>, PrefixEntry>,
}

/// Prefix entries per worker; generational clear on overflow, like the
/// other bounded caches. Characterized mini-suite programs are a few KB
/// each, so this bounds worker memory to low MB.
pub(crate) const PREFIX_CACHE_CAP: usize = 64;

impl WorkerState {
    /// Fresh state: empty session caches, empty prefix cache.
    pub fn new() -> Self {
        WorkerState {
            session: CompileSession::new(),
            prefix: HashMap::new(),
        }
    }
}

impl Default for WorkerState {
    fn default() -> Self {
        WorkerState::new()
    }
}

/// The serving engine: worker pool + artifact cache + counters + the
/// self-healing layer (deadline watchdog, worker replacement, quarantine
/// circuit breaker, seeded chaos injection).
pub struct Engine {
    pool: Arc<StatefulPool<WorkerState>>,
    cache: Arc<ArtifactCache>,
    shared: Arc<Shared>,
    chaos: Arc<ChaosPlan>,
    /// Per-fingerprint chaos attempt counters (bounded; only touched
    /// when a chaos plan is active).
    attempts: OrderedMutex<HashMap<Vec<u8>, u64>>,
    watchdog: OrderedMutex<Option<Watchdog>>,
    deadline: Option<Duration>,
    shutdown_grace: Duration,
    workers: usize,
    queue_cap: usize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

impl Engine {
    /// Builds the engine: spawns the workers (each with a persistent
    /// [`WorkerState`]), allocates the sharded artifact cache
    /// (`next_pow2(workers * 4)` shards), and — when a deadline is
    /// configured — starts the watchdog thread.
    pub fn new(cfg: &EngineConfig) -> Self {
        let workers = cfg.workers.max(1);
        let engine = Engine {
            pool: Arc::new(StatefulPool::new(cfg.workers, cfg.queue_cap, |_| {
                WorkerState::new()
            })),
            cache: Arc::new(ArtifactCache::new(
                cfg.cache_capacity,
                workers * 4,
                cfg.quarantine_threshold,
                quarantine_body(),
            )),
            shared: Arc::new(Shared::default()),
            chaos: Arc::new(cfg.chaos.clone()),
            attempts: OrderedMutex::new("serve.chaos.attempts", HashMap::new()),
            watchdog: OrderedMutex::new("serve.watchdog.handle", None),
            deadline: cfg.deadline,
            shutdown_grace: cfg.shutdown_grace,
            workers,
            queue_cap: cfg.queue_cap.max(1),
        };
        if let Some(deadline) = cfg.deadline {
            *engine.watchdog.lock().unwrap() = Some(spawn_watchdog(
                deadline,
                Arc::clone(&engine.cache),
                Arc::clone(&engine.shared),
                Arc::clone(&engine.pool),
            ));
        }
        engine
    }

    /// Handles one request line, blocking until the response body exists.
    /// Never panics on any input; every failure is a typed error body.
    /// (A convenience over [`Engine::submit`], which the reactor uses.)
    pub fn handle_line(&self, line: &str) -> Outcome {
        let (tx, rx) = std::sync::mpsc::channel();
        match self.submit(line, move |b| {
            let _ = tx.send(b);
        }) {
            Submitted::Ready(b) => Outcome::Reply(body_string(&b)),
            Submitted::ReadyShutdown(b) => Outcome::ReplyAndShutdown(body_string(&b)),
            Submitted::Pending => {
                let body = rx.recv().expect("every pending compile ends");
                Outcome::Reply(body_string(&body))
            }
        }
    }

    /// Handles one request line without blocking on compiles: fast-path
    /// requests (line-tier hits, pings, stats, cache hits, typed errors)
    /// return [`Submitted::Ready`]; everything that needs a worker
    /// returns [`Submitted::Pending`] and later delivers the body through
    /// `notify` — exactly once, possibly on a worker thread, possibly
    /// inline before `submit` returns (e.g. an immediate shed).
    pub fn submit<F>(&self, line: &str, notify: F) -> Submitted
    where
        F: FnOnce(Body) + Send + 'static,
    {
        let t0 = Instant::now();
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        // L0: byte-identical repeat of a compile line — skip even the
        // JSON parse.
        if let Some(body) = self.cache.line_get(line) {
            return self.ready(t0, body);
        }
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
                return self.ready(t0, string_body(e.render()));
            }
        };
        match req {
            Request::Ping => self.ready(t0, string_body("{\"ok\":true,\"pong\":true}".into())),
            Request::Stats => self.ready(t0, string_body(self.stats_json())),
            Request::Shutdown => {
                let body = string_body("{\"ok\":true,\"shutdown\":true}".into());
                self.shared.latency.record_us(elapsed_us(t0));
                Submitted::ReadyShutdown(body)
            }
            Request::Compile(c) => self.submit_compile(t0, line, *c, notify),
        }
    }

    fn ready(&self, t0: Instant, body: Body) -> Submitted {
        self.shared.latency.record_us(elapsed_us(t0));
        Submitted::Ready(body)
    }

    fn submit_compile<F>(
        &self,
        t0: Instant,
        line: &str,
        req: CompileRequest,
        notify: F,
    ) -> Submitted
    where
        F: FnOnce(Body) + Send + 'static,
    {
        let keys = req.keys();
        // Circuit breaker: a fingerprint that struck out serves its
        // cached typed rejection without touching a worker. Never
        // promoted to the line tier — quarantine is daemon state, not a
        // deterministic property of the request.
        if let Some(body) = self.cache.quarantine_get(&keys.prefix) {
            self.shared.errors.fetch_add(1, Ordering::Relaxed);
            return self.ready(t0, body);
        }
        let hit = |body: Body| {
            self.cache.line_put(line, &body);
            self.ready(t0, body)
        };
        if let Some(body) = self.cache.ready_get(&keys.artifact) {
            return hit(body);
        }
        // Only a miss of a program no worker has compiled runs the front
        // end here, so an unparseable source still ends here: counted as
        // an error, cached in no tier.
        let prepared = if self.cache.known(&keys.prefix) {
            let front = Front::Known(req.format, req.source, req.name);
            let opts = req.opts;
            Prepared { front, opts, keys }
        } else {
            match prepare_keyed(&req, keys) {
                Ok(p) => p,
                Err(e) => {
                    self.shared.errors.fetch_add(1, Ordering::Relaxed);
                    return self.ready(t0, string_body(e.render()));
                }
            }
        };
        let RequestKeys { artifact, prefix } = &prepared.keys;
        match self
            .cache
            .lookup(artifact, prefix, || self.waiter(t0, line, notify))
        {
            // The key became ready between the probe and here.
            Lookup::Hit(body) => hit(body),
            Lookup::Joined => Submitted::Pending,
            Lookup::Lead(attempt) => {
                self.dispatch(prepared, attempt);
                Submitted::Pending
            }
        }
    }

    /// Queues the compile of a led attempt. Whoever ends the attempt —
    /// this job, the watchdog, the shutdown drain, or the shed below —
    /// runs the [`Ended`](crate::shard::Ended) it gets back (account,
    /// then wake); everyone else finds it gone and does nothing.
    fn dispatch(&self, prepared: Prepared, attempt: u64) {
        let cache = Arc::clone(&self.cache);
        let shared = Arc::clone(&self.shared);
        // Chaos is decided here, deterministically, not on the worker —
        // submission order fixes the attempt counter.
        let fault = self.next_compile_fault(&prepared.keys.prefix);
        // The job owns `prepared`; the shed path needs the key back.
        let shed_key = prepared.keys.artifact.clone();
        let submitted = self.pool.try_execute(move |state: &mut WorkerState| {
            // A panicking pass must not take the worker (or the daemon)
            // down, and must not leave its waiters parked forever;
            // contain it, answer `internal`, and hand the worker fresh
            // state in case the old one was poisoned mid-update.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match fault {
                    Some(CompileFault::Slow(d)) | Some(CompileFault::Hang(d)) => {
                        std::thread::sleep(d);
                    }
                    Some(CompileFault::Panic) => {
                        panic!("chaos: injected compile panic");
                    }
                    None => {}
                }
                compile_prepared(&prepared, state)
            }));
            let outcome = match run {
                Ok((body, report, prefix_hit)) => {
                    if prefix_hit {
                        shared.prefix_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        shared.prefix_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    match report {
                        Some(r) => {
                            // A prefix hit re-ran only the search; its
                            // report clones the cached stage-1–3 counters,
                            // which were already totaled when the prefix
                            // was built.
                            if !prefix_hit {
                                shared.counts.add(&r);
                            }
                            shared.compiled.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            shared.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(string_body(body))
                }
                Err(_) => {
                    *state = WorkerState::new();
                    Err(Abort::Internal)
                }
            };
            // `None`: the watchdog or the shutdown drain ended this attempt
            // and already accounted for it; the late outcome is dropped.
            if let Some(ended) = cache.finish(&prepared.keys.artifact, attempt, outcome) {
                ended.run(&cache);
            }
        });
        if submitted.is_err() {
            // The boxed job came back unrun and is dropped here.
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            // Every waiter — this request's own included — gets the typed
            // `overloaded` body through its callback, inline.
            if let Some(ended) = self
                .cache
                .finish(&shed_key, attempt, Err(Abort::Overloaded))
            {
                ended.run(&self.cache);
            }
        }
    }

    /// Draws the (deterministic) chaos fault for one compile submission
    /// (the plan counts what it grants). Pristine plans return `None`
    /// without touching the attempt table — the hot path stays byte- and
    /// work-identical.
    fn next_compile_fault(&self, fingerprint: &[u8]) -> Option<CompileFault> {
        if self.chaos.is_pristine() {
            return None;
        }
        let attempt = {
            let mut m = self.attempts.lock().unwrap();
            if m.len() >= 4096 && !m.contains_key(fingerprint) {
                m.clear(); // generational bound, like the other caches
            }
            let e = m.entry(fingerprint.to_vec()).or_insert(0);
            let a = *e;
            *e += 1;
            a
        };
        self.chaos.compile_fault(fingerprint, attempt)
    }

    /// Builds this request's [`Waiter`]: on success the body is promoted
    /// to the exact-line tier; on abort a typed error is rendered per
    /// waiter. Latency is recorded at completion, so queue wait counts as
    /// service time.
    fn waiter<F>(&self, t0: Instant, line: &str, notify: F) -> Waiter
    where
        F: FnOnce(Body) + Send + 'static,
    {
        let cache = Arc::clone(&self.cache);
        let shared = Arc::clone(&self.shared);
        let line = line.to_string();
        Box::new(move |res| {
            let body = match res {
                Ok(body) => {
                    cache.line_put(&line, &body);
                    body
                }
                Err(abort) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    string_body(abort_error(abort).render())
                }
            };
            shared.latency.record_us(elapsed_us(t0));
            notify(body);
        })
    }

    /// The structured `stats` response (deterministic field order; values
    /// are live counters).
    pub fn stats_json(&self) -> String {
        let a = self.cache.stats();
        let m = polyufc_machine::measure_cache_stats();
        let c = &self.shared.counts;
        let (lat_n, lat_p50, lat_p99, lat_max) = self.shared.latency.summary();
        let mut s = String::with_capacity(768);
        s.push_str("{\"ok\":true,\"schema\":\"polyufc-stats/1\",\"server\":{");
        push_u64(&mut s, "workers", self.workers as u64);
        push_u64(&mut s, "queue_capacity", self.queue_cap as u64);
        push_u64(
            &mut s,
            "requests",
            self.shared.requests.load(Ordering::Relaxed),
        );
        push_u64(
            &mut s,
            "compiled",
            self.shared.compiled.load(Ordering::Relaxed),
        );
        push_u64(&mut s, "errors", self.shared.errors.load(Ordering::Relaxed));
        push_u64(&mut s, "shed", self.shared.shed.load(Ordering::Relaxed));
        push_u64(
            &mut s,
            "prefix_hits",
            self.shared.prefix_hits.load(Ordering::Relaxed),
        );
        push_u64(
            &mut s,
            "prefix_misses",
            self.shared.prefix_misses.load(Ordering::Relaxed),
        );
        s.pop(); // trailing comma
        s.push_str("},\"latency\":{");
        push_u64(&mut s, "count", lat_n);
        push_u64(&mut s, "p50_us", lat_p50);
        push_u64(&mut s, "p99_us", lat_p99);
        push_u64(&mut s, "max_us", lat_max);
        s.pop();
        s.push_str("},\"artifact_cache\":{");
        push_u64(&mut s, "hits", a.hits);
        push_u64(&mut s, "misses", a.misses);
        push_u64(&mut s, "evictions", a.evictions);
        push_u64(&mut s, "entries", a.entries as u64);
        push_u64(&mut s, "inflight", a.inflight as u64);
        push_u64(&mut s, "line_entries", a.line_entries as u64);
        s.push_str("\"hit_rate\":");
        s.push_str(&fmt_f64(a.hit_rate()));
        s.push_str("},\"measure_cache\":{");
        push_u64(&mut s, "hits", m.hits);
        push_u64(&mut s, "misses", m.misses);
        push_u64(&mut s, "evictions", m.evictions);
        push_u64(&mut s, "entries", m.len as u64);
        s.push_str("\"hit_rate\":");
        s.push_str(&fmt_f64(m.hit_rate()));
        s.push_str("},\"count_cache\":{");
        push_u64(&mut s, "hits", c.hits.load(Ordering::Relaxed));
        push_u64(&mut s, "misses", c.misses.load(Ordering::Relaxed));
        push_u64(&mut s, "symbolic", c.symbolic.load(Ordering::Relaxed));
        push_u64(&mut s, "enumerated", c.enumerated.load(Ordering::Relaxed));
        push_u64(&mut s, "evictions", c.evictions.load(Ordering::Relaxed));
        push_u64(
            &mut s,
            "parallel_splits",
            c.parallel_splits.load(Ordering::Relaxed),
        );
        s.pop();
        // Present only in lockdep-instrumented builds: the default build
        // emits byte-identical stats with or without the chk dep.
        if let Some(l) = polyufc_chk::lockdep_stats() {
            s.push_str("},\"chk\":{");
            push_u64(&mut s, "lock_sites", l.sites);
            push_u64(&mut s, "order_edges", l.edges);
            push_u64(&mut s, "max_chain", l.max_chain);
            push_u64(&mut s, "cycles", l.cycles);
            s.pop();
        }
        s.push_str("},\"self_heal\":{");
        push_u64(
            &mut s,
            "deadline_ms",
            self.deadline.map_or(0, |d| d.as_millis() as u64),
        );
        push_u64(
            &mut s,
            "deadlines",
            self.shared.deadlines.load(Ordering::Relaxed),
        );
        push_u64(&mut s, "workers_replaced", self.pool.workers_replaced());
        push_u64(&mut s, "quarantined", a.quarantined as u64);
        push_u64(&mut s, "quarantined_total", a.quarantined_total);
        push_u64(&mut s, "quarantine_hits", a.quarantine_hits);
        push_u64(&mut s, "chaos_injections", self.chaos.injections_charged());
        s.pop();
        s.push_str("}}");
        s
    }

    /// Artifact-cache counters (for tests and the benchmark).
    pub fn cache_stats(&self) -> ArtifactCacheStats {
        self.cache.stats()
    }

    /// Latency summary (count, p50 µs, p99 µs, max µs).
    pub fn latency_summary(&self) -> (u64, u64, u64, u64) {
        self.shared.latency.summary()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's chaos plan (pristine unless configured otherwise);
    /// the reactor consults it for socket-level injection.
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Workers detached and replaced by the stall watchdog so far.
    pub fn workers_replaced(&self) -> u64 {
        self.pool.workers_replaced()
    }

    /// Pending compiles ended by the deadline watchdog so far.
    pub fn deadlines_fired(&self) -> u64 {
        self.shared.deadlines.load(Ordering::Relaxed)
    }

    /// Stops the watchdog, drains queued compiles, and joins the workers
    /// — bounded by the configured shutdown grace: workers still stuck
    /// past it are detached, and every compile still pending afterwards
    /// ends with a typed `shutting_down` error so no waiter (or blocked
    /// [`Engine::handle_line`] caller) hangs. Idempotent, and
    /// callable through a shared reference (the server calls it on its
    /// `Arc<Engine>`).
    pub fn shutdown(&self) {
        let watchdog = self.watchdog.lock().unwrap().take();
        if let Some(w) = watchdog {
            w.stop();
        }
        self.pool.shutdown_with_grace(self.shutdown_grace);
        for ended in self.cache.take_expired(Duration::ZERO, Abort::ShuttingDown) {
            ended.run(&self.cache);
        }
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn string_body(s: String) -> Body {
    Arc::from(s.into_bytes().into_boxed_slice())
}

fn body_string(b: &Body) -> String {
    String::from_utf8(b.to_vec()).expect("response bodies are rendered UTF-8")
}

/// Keys, parses, and sanitizes one compile request on the calling
/// (reactor/connection) thread.
///
/// # Errors
///
/// `parse_error` when the kernel source does not parse.
pub fn prepare(req: &CompileRequest) -> Result<Prepared, WireError> {
    prepare_keyed(req, req.keys())
}

/// [`prepare`] for a caller that already built the request's keys.
fn prepare_keyed(req: &CompileRequest, keys: RequestKeys) -> Result<Prepared, WireError> {
    let (program, warnings) = front_end(req.format, &req.source, &req.name)?;
    Ok(Prepared {
        front: Front::Parsed(program, warnings),
        opts: req.opts.clone(),
        keys,
    })
}

/// Parses a kernel source and sanitizes it. The daemon and the one-shot
/// CLI must transform the program identically or byte-identity breaks:
/// unprovable `parallel` flags are sanitized here exactly as `polyufc
/// compile` does before its pipeline call.
fn front_end(
    format: SourceFormat,
    source: &str,
    name: &str,
) -> Result<(AffineProgram, Vec<String>), WireError> {
    let mut program = match format {
        SourceFormat::TextualIr => parse_affine_program(source)
            .map_err(|e| WireError::new(codes::PARSE_ERROR, format!("textual IR: {e}")))?,
        SourceFormat::C => parse_scop(source, name)
            .map_err(|e| WireError::new(codes::PARSE_ERROR, format!("cgeist: {e}")))?,
    };
    let warnings = sanitize_parallel(&mut program)
        .iter()
        .map(|d| d.to_string())
        .collect();
    Ok((program, warnings))
}

/// Runs the pipeline for a prepared request against per-worker state and
/// renders the response body. The report is `Some` only for successful
/// compiles; the final flag says whether the ε-independent prefix came
/// from the worker's cache (in which case only POLYUFC-SEARCH and code
/// generation ran). Rejection and model errors render as deterministic
/// typed bodies, which are cached like artifacts.
pub fn compile_prepared(
    p: &Prepared,
    state: &mut WorkerState,
) -> (String, Option<CompileReport>, bool) {
    let mut pipeline = Pipeline::new(p.opts.platform.clone())
        .with_objective(p.opts.objective)
        .with_assoc_mode(p.opts.assoc);
    pipeline.epsilon = p.opts.epsilon;
    if let Some(entry) = state.prefix.get(&p.keys.prefix) {
        return finish(&pipeline, &p.opts, entry, true);
    }
    let parsed;
    let (program, warnings) = match &p.front {
        Front::Parsed(program, warnings) => (program, warnings),
        // Another worker holds this program's prefix: run the front end
        // here. It parsed before, and parsing reads only the key's bytes.
        Front::Known(format, source, name) => match front_end(*format, source, name) {
            Ok(front) => {
                parsed = front;
                (&parsed.0, &parsed.1)
            }
            Err(e) => return (e.render(), None, false),
        },
    };
    match pipeline.characterize_affine_in(program, &mut state.session) {
        Ok(characterized) => {
            if state.prefix.len() >= PREFIX_CACHE_CAP {
                // Generational clear, like the other bounded caches.
                state.prefix.clear();
            }
            let entry = PrefixEntry {
                characterized,
                warnings: warnings.clone(),
            };
            let entry = state.prefix.entry(p.keys.prefix.clone()).or_insert(entry);
            finish(&pipeline, &p.opts, entry, false)
        }
        Err(polyufc::Error::AnalysisRejected(report)) => (render_rejected(&report), None, false),
        Err(polyufc::Error::Model(e)) => {
            let body = render_error(codes::MODEL, &format!("cache model: {e}"));
            (body, None, false)
        }
    }
}

/// Stages 4–6 on a cached or fresh prefix, rendered.
fn finish(
    pipeline: &Pipeline,
    opts: &CompileOptions,
    entry: &PrefixEntry,
    prefix_hit: bool,
) -> (String, Option<CompileReport>, bool) {
    let fin = pipeline.finish(&entry.characterized);
    let mut report = entry.characterized.report.clone();
    report.steps_4_6_us += fin.elapsed_us;
    (render_artifact(opts, entry, &fin), Some(report), prefix_hit)
}

/// One-shot entry point shared with `polyufc compile --json`: same
/// prepare, same pipeline, same renderer, fresh state — so the CLI's
/// output is byte-identical to the daemon's response for the same
/// request, cached or not.
pub fn oneshot_response(req: &CompileRequest) -> String {
    match prepare(req) {
        Ok(p) => compile_prepared(&p, &mut WorkerState::new()).0,
        Err(e) => e.render(),
    }
}

fn abort_error(abort: Abort) -> WireError {
    match abort {
        Abort::Overloaded => WireError::new(
            codes::OVERLOADED,
            "all workers busy and the queue is full; retry later",
        ),
        Abort::Internal => WireError::new(
            codes::INTERNAL,
            "compile worker panicked; the daemon recovered, this request did not",
        ),
        Abort::DeadlineExceeded => WireError::new(
            codes::DEADLINE_EXCEEDED,
            "compile exceeded the configured deadline; the flight was aborted",
        ),
        Abort::ShuttingDown => WireError::new(
            codes::SHUTTING_DOWN,
            "daemon is shutting down; the request was not compiled",
        ),
    }
}

/// The deterministic cached rejection a quarantined fingerprint serves.
fn quarantine_body() -> Body {
    string_body(render_error(
        codes::QUARANTINED,
        "kernel repeatedly crashed or timed out compile workers and is quarantined; \
         fix the kernel or restart the daemon",
    ))
}

/// Starts the deadline watchdog: every `deadline/4` (clamped to
/// 2–250 ms) it ends expired compiles with `deadline_exceeded` (a strike
/// against their fingerprints), and replaces workers stuck past 1.5× the
/// deadline — so a hung compile costs one bounded window of one worker,
/// never the daemon.
fn spawn_watchdog(
    deadline: Duration,
    cache: Arc<ArtifactCache>,
    shared: Arc<Shared>,
    pool: Arc<StatefulPool<WorkerState>>,
) -> Watchdog {
    let (stop, stopped) = mpsc::channel::<()>();
    let period = (deadline / 4).clamp(Duration::from_millis(2), Duration::from_millis(250));
    let stall_threshold = deadline + deadline / 2;
    let handle = std::thread::Builder::new()
        .name("polyufc-watchdog".to_string())
        .spawn(move || {
            // Nothing is ever sent: a timeout is a tick, a disconnect
            // (the sender dropped) is the stop.
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                // The worker's late `finish` (if the compile ever
                // returns) finds the attempt gone.
                for expired in cache.take_expired(deadline, Abort::DeadlineExceeded) {
                    shared.deadlines.fetch_add(1, Ordering::Relaxed);
                    expired.run(&cache);
                }
                pool.replace_stalled(stall_threshold);
            }
        })
        .expect("spawn watchdog");
    Watchdog { stop, handle }
}

fn push_u64(out: &mut String, key: &str, v: u64) {
    push_escaped(out, key);
    out.push(':');
    out.push_str(&format!("{v}"));
    out.push(',');
}

/// Renders the cap artifact with a fixed field order and no
/// wall-clock- or session-warmth-dependent fields (those live in `stats`),
/// so identical requests produce identical bytes whether answered by a
/// cold compile, a warm session, a cached prefix, the artifact cache, or
/// the one-shot CLI.
fn render_artifact(opts: &CompileOptions, entry: &PrefixEntry, fin: &Finished) -> String {
    let ch = &entry.characterized;
    let mut s = String::with_capacity(1024);
    s.push_str("{\"ok\":true,\"schema\":\"polyufc-artifact/1\",\"program\":");
    push_escaped(&mut s, &ch.optimized.name);
    s.push_str(",\"platform\":");
    push_escaped(&mut s, &opts.platform.name);
    s.push_str(",\"objective\":");
    push_escaped(&mut s, objective_str(opts.objective));
    s.push_str(",\"epsilon\":");
    s.push_str(&fmt_f64(opts.epsilon));
    s.push_str(",\"assoc\":");
    push_escaped(&mut s, assoc_str(opts.assoc));
    s.push_str(",\"kernels\":[");
    let rows = ch
        .optimized
        .kernels
        .iter()
        .zip(&ch.characterizations)
        .zip(&fin.search)
        .zip(&fin.caps_ghz);
    for (i, (((k, c), sr), &cap)) in rows.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_escaped(&mut s, &k.name);
        s.push_str(",\"class\":");
        push_escaped(&mut s, &format!("{}", c.class));
        s.push_str(",\"oi\":");
        s.push_str(&fmt_f64(c.oi));
        s.push_str(",\"balance\":");
        s.push_str(&fmt_f64(c.balance));
        s.push_str(",\"attainable_flops\":");
        s.push_str(&fmt_f64(c.attainable_flops));
        s.push_str(",\"cap_ghz\":");
        s.push_str(&fmt_f64(cap));
        s.push_str(",\"search_steps\":");
        s.push_str(&format!("{}", sr.steps));
        s.push('}');
    }
    s.push_str("],\"fallback\":[");
    for (i, name) in ch.report.fallback_kernels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_escaped(&mut s, name);
    }
    s.push_str("],\"warnings\":[");
    for (i, w) in entry
        .warnings
        .iter()
        .chain(&ch.report.verify_warnings)
        .enumerate()
    {
        if i > 0 {
            s.push(',');
        }
        push_escaped(&mut s, w);
    }
    s.push(']');
    if opts.emit_scf {
        s.push_str(",\"scf\":");
        push_escaped(&mut s, &format!("{}", fin.scf));
    }
    s.push('}');
    s
}

/// Renders a verifier rejection: a typed error whose payload carries every
/// diagnostic (the "lint over the wire" half of the daemon's contract).
fn render_rejected(report: &polyufc_analysis::AnalysisReport) -> String {
    let mut s = String::with_capacity(256);
    s.push_str("{\"ok\":false,\"error\":{\"code\":");
    push_escaped(&mut s, codes::REJECTED);
    s.push_str(",\"message\":");
    push_escaped(
        &mut s,
        &format!("static verifier rejected `{}`", report.program),
    );
    s.push_str(",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_escaped(&mut s, &d.to_string());
    }
    s.push_str("]}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.record_us(us);
        }
        let (n, p50, p99, max) = h.summary();
        assert_eq!(n, 10);
        assert_eq!(max, 5000);
        // p50 lands in the 100 µs bucket: upper bound 128.
        assert_eq!(p50, 128);
        // p99 is the slowest sample's bucket: 5000 µs → upper bound 8192.
        assert_eq!(p99, 8192);
    }

    #[test]
    fn prefix_cache_reuses_characterization_across_epsilons() {
        let source = "// affine program `copy`\nmemref %A : 512xf64\nmemref %B : 512xf64\nfunc @k {\n  affine.for %i0 = max(0) to min(512) {\n    S0: load %A[i0]; store %B[i0] // 1 flops\n  }\n}\n";
        let mut state = WorkerState::new();
        let mut bodies = Vec::new();
        for (i, eps) in [1e-3, 2e-3, 4e-3].into_iter().enumerate() {
            let mut req = CompileRequest {
                format: crate::protocol::SourceFormat::TextualIr,
                source: source.to_string(),
                name: "request".to_string(),
                opts: crate::protocol::CompileOptions::default(),
            };
            req.opts.epsilon = eps;
            let p = prepare(&req).expect("prepare");
            let (body, report, prefix_hit) = compile_prepared(&p, &mut state);
            assert!(report.is_some());
            assert_eq!(prefix_hit, i > 0, "first compile builds the prefix");
            // Each variant must also match a completely fresh compile.
            assert_eq!(body, oneshot_response(&req), "prefix hit changed bytes");
            bodies.push(body);
        }
        assert_eq!(state.prefix.len(), 1, "one prefix entry for 3 epsilons");
    }

    #[test]
    fn a_known_request_compiles_with_or_without_the_prefix() {
        let source = include_str!("../../analysis/tests/fixtures/false_parallel_reduction.mlir");
        let req = CompileRequest {
            format: crate::protocol::SourceFormat::TextualIr,
            source: source.to_string(),
            name: "request".to_string(),
            opts: crate::protocol::CompileOptions::default(),
        };
        let known = Prepared {
            front: Front::Known(req.format, req.source.clone(), req.name.clone()),
            opts: req.opts.clone(),
            keys: req.keys(),
        };
        let expected = oneshot_response(&req);
        assert!(!expected.contains("\"warnings\":[]"), "{expected}");
        // A worker without the prefix runs the front end itself, then
        // holds the prefix and its warnings.
        let mut state = WorkerState::new();
        for prefix_hit in [false, true] {
            let (body, report, hit) = compile_prepared(&known, &mut state);
            assert_eq!((report.is_some(), hit), (true, prefix_hit));
            assert_eq!(body, expected);
        }
    }
}
