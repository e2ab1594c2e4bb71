//! Chaos harness for the self-healing `polyufc serve` daemon.
//!
//! Each scenario boots a fresh in-process [`Server`] with a seeded
//! [`ChaosPlan`] and drives well-formed traffic whose correct bodies
//! are known in advance (daemon dispatch is byte-deterministic, so the
//! expected reply is exactly `oneshot_response` for the same request).
//! **Availability** is the fraction of requests answered byte-identical
//! to that pristine body within three retries of typed retryable errors
//! (`deadline_exceeded`, `internal`, `overloaded`). A 10-second read
//! timeout on every client doubles as the deadlock detector: a missing
//! reply aborts the harness, it is never scored as a slow success.
//!
//! Scenarios: `pristine` (chaos off — must be byte-identical with zero
//! retries and zero injections), `slow`, `hung`, `panic`, `socket`,
//! `standard` (the documented mixed matrix), `disconnect` (harness-
//! driven mid-request hangups), `storm` (a SIGUSR1 signal storm over
//! pristine traffic, exercising every EINTR path), and `quarantine`
//! (an always-panicking kernel must trip the circuit breaker into
//! typed `quarantined` rejections).
//!
//! Usage: `serve_chaos [mini|small|large|xl] [BENCH_chaos.json]`. At
//! `mini` the gates are enforced (exit 1): fault-free scenarios need
//! availability 1.0, faulted ones ≥ 99%, the hung scenario must
//! replace at least one stalled worker, and post-chaos recovery probes
//! must round-trip a cold compile promptly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polyufc_bench::{print_table, size_from_args};
use polyufc_serve::json::push_escaped;
use polyufc_serve::{
    oneshot_response, ChaosPlan, CompileOptions, CompileRequest, Engine, EngineConfig, Listen,
    Server, ServerConfig, ShutdownHandle, SourceFormat,
};
use polyufc_workloads::{polybench_suite, PolybenchSize};

/// One workload per class: blas, composition, stencil.
const WORKLOADS: &[&str] = &["gemm", "mvt", "jacobi-2d"];

/// Client threads per scenario.
const CLIENTS: usize = 4;

/// Retries a client grants a request that drew a typed retryable error.
const RETRIES: usize = 3;

/// Master seed for every scenario's fault plan (deterministic runs).
const SEED: u64 = 0xC4A05;

/// One wire request line for a workload source at a given epsilon.
fn compile_line(source: &str, epsilon: f64) -> String {
    let mut s = String::with_capacity(source.len() + 96);
    s.push_str("{\"op\":\"compile\",\"format\":\"ir\",\"epsilon\":");
    s.push_str(&format!("{epsilon}"));
    s.push_str(",\"source\":");
    push_escaped(&mut s, source);
    s.push('}');
    s
}

/// The pristine body the daemon must produce for (source, epsilon).
fn expected_body(source: &str, epsilon: f64) -> String {
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

/// A daemon started for one scenario, drained on drop.
struct Daemon {
    addr: String,
    engine: Arc<Engine>,
    stop: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(cfg: EngineConfig) -> Daemon {
        let server = Server::bind(&ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            engine: cfg,
        })
        .expect("bind chaos daemon");
        let addr = server.local_addr().expect("tcp addr").to_string();
        let engine = server.engine();
        let stop = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        Daemon {
            addr,
            engine,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// Typed errors a client may retry; anything else is a scored failure.
fn is_retryable(reply: &str) -> bool {
    reply.contains("\"code\":\"deadline_exceeded\"")
        || reply.contains("\"code\":\"internal\"")
        || reply.contains("\"code\":\"overloaded\"")
}

/// Drives `(line, expected)` pairs across [`CLIENTS`] connections, one
/// request in flight per connection, retrying typed retryable errors up
/// to [`RETRIES`] times. Returns (ok, retried, failed, wall seconds).
fn drive_chaos(addr: &str, items: &[(String, String)]) -> (usize, usize, usize, f64) {
    let items = Arc::new(items.to_vec());
    let tallies: Arc<Mutex<(usize, usize, usize)>> = Arc::new(Mutex::new((0, 0, 0)));
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let items = Arc::clone(&items);
        let tallies = Arc::clone(&tallies);
        let addr = addr.to_string();
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let (mut ok, mut retried, mut failed) = (0usize, 0usize, 0usize);
            let mut reply = String::new();
            for (line, expected) in items.iter().skip(c).step_by(CLIENTS) {
                let mut done = false;
                for attempt in 0..=RETRIES {
                    writer.write_all(line.as_bytes()).expect("send");
                    writer.write_all(b"\n").expect("send");
                    reply.clear();
                    match reader.read_line(&mut reply) {
                        Ok(0) => panic!("daemon closed the connection mid-scenario"),
                        Ok(_) => {}
                        // The deadlock detector: a reply that never comes
                        // is a harness abort, not a scored failure.
                        Err(e) => panic!("no reply within 10s (deadlock?): {e}"),
                    }
                    let got = reply.trim_end();
                    if got == expected {
                        ok += 1;
                        if attempt > 0 {
                            retried += 1;
                        }
                        done = true;
                        break;
                    }
                    if !is_retryable(got) {
                        break;
                    }
                }
                if !done {
                    failed += 1;
                }
            }
            let mut t = tallies.lock().unwrap();
            t.0 += ok;
            t.1 += retried;
            t.2 += failed;
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let wall = t0.elapsed().as_secs_f64();
    let (ok, retried, failed) = *tallies.lock().unwrap();
    (ok, retried, failed, wall)
}

/// Per-scenario results: table row, gate inputs, JSON fields.
struct Scenario {
    name: &'static str,
    requests: usize,
    retried: usize,
    failed: usize,
    availability: f64,
    min_availability: f64,
    wall_s: f64,
    deadlines: u64,
    workers_replaced: u64,
    quarantined_total: u64,
    injections: u64,
}

impl Scenario {
    fn passed(&self) -> bool {
        self.availability >= self.min_availability
    }
}

fn scenario(
    name: &'static str,
    min_availability: f64,
    daemon: &Daemon,
    items: &[(String, String)],
) -> Scenario {
    let (ok, retried, failed, wall_s) = drive_chaos(&daemon.addr, items);
    assert_eq!(ok + failed, items.len(), "every request must be scored");
    let cache = daemon.engine.cache_stats();
    Scenario {
        name,
        requests: items.len(),
        retried,
        failed,
        availability: ok as f64 / items.len().max(1) as f64,
        min_availability,
        wall_s,
        deadlines: daemon.engine.deadlines_fired(),
        workers_replaced: daemon.engine.workers_replaced(),
        quarantined_total: cache.quarantined_total,
        injections: daemon.engine.chaos().injections_charged(),
    }
}

/// Sends one fresh cold compile and requires a prompt byte-correct
/// reply (with retries): proves the daemon recovered from the chaos it
/// just absorbed rather than limping on wedged workers.
fn recovery_probe(daemon: &Daemon, source: &str, epsilon: f64) -> bool {
    let items = vec![(
        compile_line(source, epsilon),
        expected_body(source, epsilon),
    )];
    let t0 = Instant::now();
    let (ok, _, _, _) = drive_chaos(&daemon.addr, &items);
    ok == 1 && t0.elapsed() < Duration::from_secs(5)
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getpid() -> i32;
}

extern "C" fn sigusr1_noop(_sig: i32) {}

const SIGUSR1: i32 = 10;

fn main() {
    // Injected worker panics are contained by the engine (the worker is
    // caught, the request gets a typed error); silence their backtraces
    // so real failures stand out in CI logs.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected"));
        if !injected {
            default_hook(info);
        }
    }));

    let size = size_from_args();
    let json_path = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .nth(1);

    let sources: Vec<String> = polybench_suite(size)
        .into_iter()
        .filter(|w| WORKLOADS.contains(&w.name))
        .map(|w| format!("{}", w.program))
        .collect();
    assert_eq!(
        sources.len(),
        WORKLOADS.len(),
        "chaos workloads missing from the polybench suite"
    );

    // Expected bodies are memoized across scenarios: every scenario
    // reuses the same epsilon series, so each distinct request pays one
    // oneshot compile here and zero during the timed drives.
    let memo: Mutex<HashMap<String, Arc<String>>> = Mutex::new(HashMap::new());
    let pair = |source: &str, epsilon: f64| -> (String, String) {
        let line = compile_line(source, epsilon);
        let mut m = memo.lock().unwrap();
        let body = m
            .entry(line.clone())
            .or_insert_with(|| Arc::new(expected_body(source, epsilon)))
            .clone();
        (line, body.as_str().to_string())
    };
    // Cold requests get distinct artifact keys via epsilon perturbation
    // (every one pays a compile — the fault injection point); warm
    // requests repeat the base epsilon and ride the artifact cache.
    let traffic = |cold_per_source: usize, warm_reps: usize| -> Vec<(String, String)> {
        let mut items = Vec::new();
        let rounds = cold_per_source.max(warm_reps);
        for r in 0..rounds {
            for src in &sources {
                if r < cold_per_source {
                    items.push(pair(src, 1e-3 * (1.0 + (r + 1) as f64 * 1e-6)));
                }
                if r < warm_reps {
                    items.push(pair(src, 1e-3));
                }
            }
        }
        items
    };

    // Fixed worker count so fault arithmetic (how many wedged workers
    // the deadline watchdog must replace) does not depend on the box.
    let base_cfg = || {
        let mut cfg = EngineConfig::default();
        cfg.workers = 4;
        cfg.queue_cap = cfg.queue_cap.max(1024);
        cfg
    };
    let deadline = Duration::from_millis(250);

    let light = traffic(8, 8);
    let heavy = traffic(34, 16);

    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut recovery_ok = true;

    // pristine: chaos off must be byte-identical with zero retries.
    {
        let d = Daemon::start(base_cfg());
        let mut s = scenario("pristine", 1.0, &d, &light);
        if s.retried != 0 || s.injections != 0 {
            eprintln!(
                "FAIL: pristine scenario saw {} retries / {} injections",
                s.retried, s.injections
            );
            s.availability = 0.0;
        }
        scenarios.push(s);
    }

    // slow: latency injection only; nothing trips the deadline.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::slow_compiles(SEED, 0.25, 8);
        cfg.deadline = Some(Duration::from_secs(2));
        let d = Daemon::start(cfg);
        scenarios.push(scenario("slow", 1.0, &d, &light));
    }

    // hung: wedged workers must be deadline-aborted, detached, and
    // replaced; retried requests then land on healthy workers.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::hung_compiles(SEED ^ 1, 0.08, 1000);
        cfg.deadline = Some(deadline);
        cfg.quarantine_threshold = 10;
        let d = Daemon::start(cfg);
        let s = scenario("hung", 0.99, &d, &heavy);
        if s.workers_replaced == 0 {
            eprintln!("FAIL: hung scenario replaced no workers (no hang injected?)");
            recovery_ok = false;
        }
        if !recovery_probe(&d, &sources[0], 1e-3 * (1.0 + 0.5e-6)) {
            eprintln!("FAIL: no prompt cold compile after the hung scenario");
            recovery_ok = false;
        }
        scenarios.push(s);
    }

    // panic: contained worker panics surface as typed `internal` errors
    // and retries succeed against rebuilt sessions.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::panicking_compiles(SEED ^ 2, 0.08);
        cfg.quarantine_threshold = 10;
        let d = Daemon::start(cfg);
        scenarios.push(scenario("panic", 0.99, &d, &heavy));
    }

    // socket: short reads/writes drag the reactor through every
    // partial-I/O resume path; replies must stay byte-perfect.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::socket_faults(SEED ^ 3, 0.35);
        let d = Daemon::start(cfg);
        scenarios.push(scenario("socket", 1.0, &d, &light));
    }

    // standard: the documented mixed matrix, everything at once.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::standard_matrix(SEED ^ 4);
        cfg.deadline = Some(deadline);
        cfg.quarantine_threshold = 10;
        let d = Daemon::start(cfg);
        let s = scenario("standard", 0.99, &d, &heavy);
        if !recovery_probe(&d, &sources[1], 1e-3 * (1.0 + 0.5e-6)) {
            eprintln!("FAIL: no prompt cold compile after the standard matrix");
            recovery_ok = false;
        }
        scenarios.push(s);
    }

    // disconnect: abrupt client hangups (half a request; a pipelined
    // window abandoned before its replies) must not wedge the reactor.
    {
        let d = Daemon::start(base_cfg());
        for k in 0..12 {
            if let Ok(mut s) = TcpStream::connect(&d.addr) {
                let line = light[k % light.len()].0.as_bytes();
                let _ = s.write_all(&line[..line.len() / 2]);
            }
        }
        if let Ok(mut s) = TcpStream::connect(&d.addr) {
            let mut batch = String::new();
            for (line, _) in light.iter().take(8) {
                batch.push_str(line);
                batch.push('\n');
            }
            let _ = s.write_all(batch.as_bytes());
        }
        std::thread::sleep(Duration::from_millis(50));
        scenarios.push(scenario("disconnect", 1.0, &d, &light));
    }

    // storm: a SIGUSR1 storm peppers every thread with EINTR while
    // pristine traffic flows; glibc restarts reads, the reactor's
    // epoll/accept/eventfd retry loops must absorb the rest.
    {
        unsafe {
            signal(SIGUSR1, sigusr1_noop as *const () as usize);
        }
        let d = Daemon::start(base_cfg());
        let stop = Arc::new(AtomicBool::new(false));
        let storm = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    unsafe {
                        kill(getpid(), SIGUSR1);
                    }
                    std::thread::sleep(Duration::from_micros(250));
                }
            })
        };
        let s = scenario("storm", 1.0, &d, &light);
        stop.store(true, Ordering::Relaxed);
        storm.join().expect("storm thread");
        if !recovery_probe(&d, &sources[2], 1e-3 * (1.0 + 0.5e-6)) {
            eprintln!("FAIL: no prompt cold compile after the signal storm");
            recovery_ok = false;
        }
        scenarios.push(s);
    }

    // quarantine: a kernel that panics on every compile must trip the
    // circuit breaker into cached typed rejections after N strikes.
    {
        let mut cfg = base_cfg();
        cfg.chaos = ChaosPlan::panicking_compiles(SEED ^ 5, 1.0);
        cfg.quarantine_threshold = 2;
        let d = Daemon::start(cfg);
        let line = compile_line(&sources[0], 1e-3 * (1.0 + 0.25e-6));
        let stream = TcpStream::connect(&d.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let t0 = Instant::now();
        let mut good = true;
        let mut reply = String::new();
        for (i, want) in ["internal", "internal", "quarantined", "quarantined"]
            .iter()
            .enumerate()
        {
            writer.write_all(line.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("send");
            reply.clear();
            reader.read_line(&mut reply).expect("reply");
            let code = format!("\"code\":\"{want}\"");
            if !reply.contains(&code) {
                eprintln!(
                    "FAIL: quarantine request {i} wanted {want}, got {}",
                    reply.trim_end()
                );
                good = false;
            }
        }
        let cache = d.engine.cache_stats();
        if cache.quarantined < 1 || cache.quarantine_hits < 2 {
            eprintln!(
                "FAIL: quarantine counters quarantined={} hits={}",
                cache.quarantined, cache.quarantine_hits
            );
            good = false;
        }
        scenarios.push(Scenario {
            name: "quarantine",
            requests: 4,
            retried: 0,
            failed: if good { 0 } else { 4 },
            availability: if good { 1.0 } else { 0.0 },
            min_availability: 1.0,
            wall_s: t0.elapsed().as_secs_f64(),
            deadlines: d.engine.deadlines_fired(),
            workers_replaced: d.engine.workers_replaced(),
            quarantined_total: cache.quarantined_total,
            injections: d.engine.chaos().injections_charged(),
        });
    }

    let availability_ok = scenarios.iter().all(|s| s.passed());

    println!("== polyufc serve chaos matrix ({CLIENTS} clients, seed {SEED:#x}) ==");
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.requests.to_string(),
                format!("{:.4}", s.availability),
                s.retried.to_string(),
                s.failed.to_string(),
                s.injections.to_string(),
                s.deadlines.to_string(),
                s.workers_replaced.to_string(),
                s.quarantined_total.to_string(),
                format!("{:.2}", s.wall_s),
            ]
        })
        .collect();
    print_table(
        &[
            "scenario",
            "requests",
            "availability",
            "retried",
            "failed",
            "injections",
            "deadlines",
            "replaced",
            "quarantined",
            "wall s",
        ],
        &rows,
    );
    println!("availability_ok: {availability_ok}");
    println!("recovery_ok: {recovery_ok}");

    if let Some(path) = json_path {
        // Hand-rolled JSON: the offline serde stand-in has no
        // serializer and the schema is flat.
        let mut json = String::new();
        json.push_str("{\n  \"schema\": \"polyufc-bench-chaos/1\",\n");
        json.push_str(&format!("  \"seed\": {SEED},\n"));
        json.push_str(&format!("  \"clients\": {CLIENTS},\n"));
        json.push_str(&format!("  \"retries\": {RETRIES},\n"));
        json.push_str("  \"scenarios\": [\n");
        for (i, s) in scenarios.iter().enumerate() {
            let comma = if i + 1 < scenarios.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"requests\": {}, \"availability\": {:.4}, \"retried\": {}, \"failed\": {}, \"injections\": {}, \"deadlines\": {}, \"workers_replaced\": {}, \"quarantined_total\": {}, \"wall_s\": {:.3}}}{comma}\n",
                s.name,
                s.requests,
                s.availability,
                s.retried,
                s.failed,
                s.injections,
                s.deadlines,
                s.workers_replaced,
                s.quarantined_total,
                s.wall_s,
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!("  \"availability_ok\": {availability_ok},\n"));
        json.push_str(&format!("  \"recovery_ok\": {recovery_ok}\n"));
        json.push_str("}\n");
        std::fs::write(&path, json).expect("write chaos bench json");
        println!("wrote {path}");
    }

    if matches!(size, PolybenchSize::Mini) && (!availability_ok || !recovery_ok) {
        std::process::exit(1);
    }
}
