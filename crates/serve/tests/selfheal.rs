//! Self-healing behavior over the wire: per-request deadlines, stalled
//! worker replacement, the quarantine circuit breaker, and shutdown
//! with flights still pending. Chaos plans make every failure
//! deterministic: `budget`-bounded plans inject exactly N faults and
//! then behave pristine, so each test scripts its own fault sequence.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polyufc_serve::{
    json, oneshot_response, ChaosPlan, CompileOptions, CompileRequest, Engine, EngineConfig,
    Listen, Server, ServerConfig, ShutdownHandle, SourceFormat,
};
use polyufc_workloads::{polybench_suite, PolybenchSize};

/// A daemon started with an explicit [`EngineConfig`], stopped on drop.
/// (The reactor-test helper hides the config; every test here is about
/// the config.)
struct Daemon {
    addr: String,
    engine: Arc<Engine>,
    stop: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(engine: EngineConfig) -> Daemon {
        let server = Server::bind(&ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            engine,
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let engine = server.engine();
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().expect("run"));
        Daemon {
            addr,
            engine,
            stop,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect");
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(Duration::from_secs(20))).ok();
        s
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn mini_source(name: &str) -> String {
    let suite = polybench_suite(PolybenchSize::Mini);
    let w = suite
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name}"));
    format!("{}", w.program)
}

fn compile_line(source: &str, epsilon: f64) -> String {
    let mut line = format!("{{\"op\":\"compile\",\"epsilon\":{epsilon},\"source\":");
    json::push_escaped(&mut line, source);
    line.push('}');
    line
}

fn expected_compile(source: &str, epsilon: f64) -> String {
    oneshot_response(&CompileRequest {
        format: SourceFormat::TextualIr,
        source: source.to_string(),
        name: "request".to_string(),
        opts: CompileOptions {
            epsilon,
            ..CompileOptions::default()
        },
    })
}

/// One request, one reply, on a fresh connection.
fn roundtrip(d: &Daemon, line: &str) -> String {
    let s = d.connect();
    let mut w = s.try_clone().expect("clone");
    let mut r = BufReader::new(s);
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send");
    let mut reply = String::new();
    r.read_line(&mut reply).expect("reply");
    reply.trim_end().to_string()
}

const PONG: &str = "{\"ok\":true,\"pong\":true}";

/// With a pristine chaos plan and an (idle) watchdog configured, the
/// dispatch path must stay byte-identical to the one-shot CLI — the
/// self-healing layer may not perturb healthy traffic.
#[test]
fn pristine_chaos_and_idle_watchdog_keep_dispatch_byte_identical() {
    let d = Daemon::start(EngineConfig {
        deadline: Some(Duration::from_secs(10)),
        chaos: ChaosPlan::pristine(),
        ..EngineConfig::default()
    });
    let src = mini_source("gemm");
    let expected = expected_compile(&src, 1e-3);
    // Cold, then cached: both must match the oneshot body exactly.
    assert_eq!(roundtrip(&d, &compile_line(&src, 1e-3)), expected);
    assert_eq!(roundtrip(&d, &compile_line(&src, 1e-3)), expected);
    assert_eq!(roundtrip(&d, "{\"op\":\"ping\"}"), PONG);
    assert_eq!(d.engine.chaos().injections_charged(), 0);
    // The stats wire op reports the self-heal section.
    let stats = roundtrip(&d, "{\"op\":\"stats\"}");
    assert!(stats.contains("\"self_heal\":{"), "stats: {stats}");
    assert!(stats.contains("\"deadline_ms\":10000"), "stats: {stats}");
}

/// A hung compile trips the deadline for the leader *and* a follower
/// sharing the flight; the watchdog then detaches the wedged worker,
/// replaces it, and a retry compiles cleanly on the fresh worker.
#[test]
fn deadline_aborts_leader_and_follower_then_worker_is_replaced() {
    let mut plan = ChaosPlan::hung_compiles(11, 1.0, 4_000);
    plan.budget = 1;
    let d = Daemon::start(EngineConfig {
        workers: 2,
        chaos: plan,
        deadline: Some(Duration::from_millis(250)),
        quarantine_threshold: 0, // isolate the deadline behavior
        ..EngineConfig::default()
    });

    let src = mini_source("mvt");
    let line = compile_line(&src, 1e-3);
    let t0 = Instant::now();
    let mut replies = Vec::new();
    let mut clients = Vec::new();
    for _ in 0..2 {
        let d_line = line.clone();
        let s = d.connect();
        clients.push(std::thread::spawn(move || {
            let mut w = s.try_clone().expect("clone");
            let mut r = BufReader::new(s);
            w.write_all(d_line.as_bytes()).expect("send");
            w.write_all(b"\n").expect("send");
            let mut reply = String::new();
            r.read_line(&mut reply).expect("reply");
            reply.trim_end().to_string()
        }));
    }
    for c in clients {
        replies.push(c.join().expect("client"));
    }
    let elapsed = t0.elapsed();
    for reply in &replies {
        assert!(
            reply.contains("\"code\":\"deadline_exceeded\""),
            "wanted a typed deadline error, got {reply}"
        );
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline replies took {elapsed:?}"
    );
    assert_eq!(d.engine.deadlines_fired(), 1, "one flight, one deadline");

    // The wedged worker must be detached and replaced within 2× the
    // deadline (1.5× stall threshold + one watchdog period), counted
    // from when the deadline reply landed.
    let t1 = Instant::now();
    while d.engine.workers_replaced() == 0 {
        assert!(
            t1.elapsed() < Duration::from_millis(500),
            "stalled worker not replaced within 2x deadline"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Budget exhausted: the retry compiles for real on a healthy worker.
    assert_eq!(roundtrip(&d, &line), expected_compile(&src, 1e-3));
}

/// N consecutive contained panics quarantine the kernel's fingerprint:
/// later requests get the cached typed rejection without ever reaching
/// the pool, and the counters say so.
#[test]
fn repeated_panics_quarantine_the_kernel() {
    let d = Daemon::start(EngineConfig {
        chaos: ChaosPlan::panicking_compiles(12, 1.0),
        quarantine_threshold: 2,
        ..EngineConfig::default()
    });

    let src = mini_source("gemm");
    let line = compile_line(&src, 1e-3);
    for want in ["internal", "internal", "quarantined", "quarantined"] {
        let reply = roundtrip(&d, &line);
        let code = format!("\"code\":\"{want}\"");
        assert!(reply.contains(&code), "wanted {want}, got {reply}");
    }
    // Epsilon variants share the kernel's structural fingerprint, so the
    // breaker covers them too — quarantine is per kernel, not per key.
    let variant = roundtrip(&d, &compile_line(&src, 2e-3));
    assert!(
        variant.contains("\"code\":\"quarantined\""),
        "variant escaped quarantine: {variant}"
    );
    let stats = d.engine.cache_stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.quarantined_total, 1);
    assert!(
        stats.quarantine_hits >= 3,
        "hits: {}",
        stats.quarantine_hits
    );
}

/// Strikes are consecutive, not cumulative: a success between failures
/// resets the count, so a kernel two panics away from quarantine that
/// then compiles cleanly starts over from zero.
#[test]
fn a_successful_compile_resets_quarantine_strikes() {
    let mut plan = ChaosPlan::panicking_compiles(13, 1.0);
    plan.budget = 2; // exactly two panics, then pristine forever
    let d = Daemon::start(EngineConfig {
        chaos: plan,
        quarantine_threshold: 3,
        ..EngineConfig::default()
    });

    let src = mini_source("jacobi-2d");
    let line = compile_line(&src, 1e-3);
    for _ in 0..2 {
        let reply = roundtrip(&d, &line);
        assert!(reply.contains("\"code\":\"internal\""), "got {reply}");
    }
    // Third attempt succeeds (budget spent) and must clear the strikes.
    assert_eq!(roundtrip(&d, &line), expected_compile(&src, 1e-3));
    assert_eq!(d.engine.cache_stats().quarantined, 0);
    assert_eq!(d.engine.cache_stats().quarantined_total, 0);
}

/// Shutting down with a flight still pending must not strand the
/// waiter: the drain path aborts pending flights with a typed
/// `shutting_down` error instead of leaving the connection hung.
#[test]
fn shutdown_with_a_pending_flight_sends_a_typed_error() {
    let mut plan = ChaosPlan::hung_compiles(14, 1.0, 20_000);
    plan.budget = 1;
    let d = Daemon::start(EngineConfig {
        workers: 1,
        chaos: plan,
        deadline: None, // no watchdog: only shutdown can free the waiter
        shutdown_grace: Duration::from_millis(200),
        ..EngineConfig::default()
    });

    let src = mini_source("gemm");
    let line = compile_line(&src, 1e-3);
    let s = d.connect();
    let mut w = s.try_clone().expect("clone");
    let mut r = BufReader::new(s);
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send");
    // Let the job reach the (about to hang) worker.
    std::thread::sleep(Duration::from_millis(150));

    // Engine shutdown is `&self` and idempotent: tests hold Arcs to the
    // engine, and the server's own drain calls it again on the way out.
    let t0 = Instant::now();
    let engine = Arc::clone(&d.engine);
    engine.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown grace was not bounded: {:?}",
        t0.elapsed()
    );

    let mut reply = String::new();
    r.read_line(&mut reply).expect("reply");
    assert!(
        reply.contains("\"code\":\"shutting_down\""),
        "wanted a typed shutdown error, got {}",
        reply.trim_end()
    );
}

/// A worker replaced mid-pipelined-batch must not reorder replies. The
/// deadline counts from submit (queue wait included), so with one
/// worker the batch-mate queued behind the wedge deadlines too — that
/// is the bounded-latency contract, not a bug: replacement lands at
/// 1.5× the deadline, after every same-batch flight has already been
/// aborted. Recovery shows up on the *next* request, which the fresh
/// worker compiles on the same connection.
#[test]
fn worker_replacement_mid_batch_preserves_reply_order() {
    let mut plan = ChaosPlan::hung_compiles(15, 1.0, 10_000);
    plan.budget = 1;
    let d = Daemon::start(EngineConfig {
        workers: 1, // the batch-mate is stuck behind the wedge
        chaos: plan,
        deadline: Some(Duration::from_millis(150)),
        quarantine_threshold: 0,
        ..EngineConfig::default()
    });

    let gemm = mini_source("gemm");
    let mvt = mini_source("mvt");
    let batch = format!(
        "{}\n{}\n{{\"op\":\"ping\"}}\n",
        compile_line(&gemm, 1e-3),
        compile_line(&mvt, 1e-3)
    );
    let s = d.connect();
    let mut w = s.try_clone().expect("clone");
    let mut r = BufReader::new(s);
    w.write_all(batch.as_bytes()).expect("send batch");

    let mut reply = String::new();
    for i in 1..=2 {
        reply.clear();
        r.read_line(&mut reply).expect("deadline reply");
        assert!(
            reply.contains("\"code\":\"deadline_exceeded\""),
            "reply {i}: {}",
            reply.trim_end()
        );
    }
    // The ping never touches the pool but must not jump the queue.
    reply.clear();
    r.read_line(&mut reply).expect("reply 3");
    assert_eq!(reply.trim_end(), PONG);

    // Once the watchdog swaps the wedged worker out, the same
    // connection compiles cleanly (budget spent: no more hangs).
    let t0 = Instant::now();
    while d.engine.workers_replaced() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(2), "worker not replaced");
        std::thread::sleep(Duration::from_millis(5));
    }
    w.write_all(compile_line(&mvt, 1e-3).as_bytes())
        .expect("send");
    w.write_all(b"\n").expect("send");
    reply.clear();
    r.read_line(&mut reply).expect("post-replacement reply");
    assert_eq!(reply.trim_end(), expected_compile(&mvt, 1e-3));
}

/// A quarantined rejection is daemon state, not a cached artifact: it
/// never enters the keyed or exact-line tiers, so flushing quarantine
/// (here via the generational clear at shard capacity) lets the kernel
/// lead a real compile again.
#[test]
fn quarantine_rejections_never_poison_the_artifact_cache() {
    let mut plan = ChaosPlan::panicking_compiles(16, 1.0);
    plan.budget = 2;
    let d = Daemon::start(EngineConfig {
        chaos: plan,
        quarantine_threshold: 2,
        ..EngineConfig::default()
    });

    let src = mini_source("mvt");
    let line = compile_line(&src, 1e-3);
    for want in ["internal", "internal", "quarantined"] {
        let reply = roundtrip(&d, &line);
        let code = format!("\"code\":\"{want}\"");
        assert!(reply.contains(&code), "wanted {want}, got {reply}");
    }
    // The quarantined body must not have been recorded as the kernel's
    // cached artifact in the keyed or exact-line tiers.
    let stats = d.engine.cache_stats();
    assert_eq!(stats.entries, 0, "rejection leaked into the keyed tier");
    assert_eq!(stats.line_entries, 0, "rejection leaked into the line tier");
}

/// The daemon counts chaos injections once, on the plan: the `stats`
/// key reports the plan's budget counter, which socket clamps and
/// compile faults both charge.
#[test]
fn stats_count_every_socket_and_compile_injection() {
    let mut plan = ChaosPlan::socket_faults(21, 0.5);
    plan.panic_prob = 1.0;
    let d = Daemon::start(EngineConfig {
        chaos: plan,
        ..EngineConfig::default()
    });
    let src = mini_source("gemm");
    let mut panics = 0;
    for epsilon in [1e-3, 2e-3, 3e-3] {
        if roundtrip(&d, &compile_line(&src, epsilon)).contains("\"code\":\"internal\"") {
            panics += 1;
        }
    }
    assert_eq!(roundtrip(&d, "{\"op\":\"ping\"}"), PONG);
    // Stop the daemon first: a closed connection's last reads still draw.
    let engine = Arc::clone(&d.engine);
    drop(d);
    let stats = engine.stats_json();
    let key = "\"chaos_injections\":";
    let at = stats.find(key).expect("chaos_injections in stats") + key.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let reported: u64 = digits.parse().expect("a count");
    assert_eq!(reported, engine.chaos().injections_charged());
    assert!(panics >= 1, "no compile panicked");
    assert!(reported > panics, "no socket clamp counted: {stats}");
}
