//! The three serve workloads: an in-process [`Server`] on loopback TCP
//! driven closed-loop by one load-generator thread over one connection.
//! Generator and reactor share the first allowed core (in a
//! closed loop they take turns, so neither waits on a cross-core
//! wake-up); the compile worker has the last one to itself.
//!
//! * `serve_hot` — cached traffic, one request in flight;
//! * `serve_cold` — every request a distinct program;
//! * `serve_mixed_pipelined` — 70/20/10 blend in 32-deep windows.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polyufc::{CompileSession, Pipeline};
use polyufc_machine::Platform;
use polyufc_serve::engine::{compile_prepared, prepare, WorkerState};
use polyufc_serve::json::{self, Value};
use polyufc_serve::{
    oneshot_response, parse_request, ChaosPlan, Engine, EngineConfig, Listen, Request, Server,
    ServerConfig, ShutdownHandle,
};

use crate::affinity;
use crate::corpus::{
    self, render_op, Blend, Class, Op, OpStream, ServeProgram, COLD_PROGRAMS_MAX, MALFORMED,
};
use crate::replay::{self, StageCounts};
use crate::report::{peak_rss_mib, Outcome};
use crate::spec::{Workload, PIPELINE_WINDOW, SETUP_REPEATS, WORKERS};
use crate::stats;
use crate::trace::Recorder;

/// Requests in the untimed warm-up round that ends set-up.
/// A count, not a duration, so `setup_s` moves with the speed of the
/// system under test.
fn warmup_ops(blend: Blend) -> usize {
    match blend {
        Blend::Hot | Blend::Mixed => 4096,
        Blend::Cold => 128,
    }
}

/// Requests in the traced pass's traffic phase. A count,
/// so the server's hit and miss counters repeat exactly from run to run.
fn traced_ops(blend: Blend) -> usize {
    match blend {
        Blend::Hot | Blend::Mixed => 16_384,
        Blend::Cold => 384,
    }
}

/// Inputs the traced pass replays layer by layer.
fn replay_inputs(blend: Blend) -> usize {
    match blend {
        Blend::Hot | Blend::Mixed => 256,
        Blend::Cold => 96,
    }
}

/// Programs a cold corpus provides per second of measuring: above any
/// rate the worker reaches, so a round never runs out of unseen programs
/// (a round that does is a failed run, not a short one).
const COLD_PROGRAMS_PER_SECOND: usize = 650;

/// Replies answered by a fresh compile are each checked for status,
/// program and ε; one in this many is also compared byte for byte with
/// `oneshot_response` after the timed rounds (each such check is a full
/// compile, so checking all would take longer than the run).
fn deferred_check_stride(class: Class) -> u64 {
    match class {
        Class::Cold => 16,
        _ => 128,
    }
}

/// ε ordinals of set-up traffic start here, far above any timed ordinal.
const SETUP_ORDINAL_BASE: u64 = 1 << 40;

fn blend_of(workload: Workload) -> Blend {
    match workload {
        Workload::ServeHot => Blend::Hot,
        Workload::ServeCold => Blend::Cold,
        _ => Blend::Mixed,
    }
}

/// What every reply is checked against: the corpus and the replies it
/// must produce.
struct Shared {
    blend: Blend,
    corpus: Vec<ServeProgram>,
    /// `oneshot_response` of each program's canonical line (cached
    /// blends only; a cold program's reply is checked by sample).
    expected: Vec<String>,
    /// The reply each [`MALFORMED`] line must get.
    error_bodies: Vec<String>,
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    ops: OpStream,
}

/// A running server with the load generator's connection to it.
struct Env {
    shared: Shared,
    engine: Arc<Engine>,
    shutdown: ShutdownHandle,
    server_thread: Option<std::thread::JoinHandle<()>>,
    client: Client,
}

impl Drop for Env {
    fn drop(&mut self) {
        // Closes the socket under both halves of the client. It may be
        // closed already, which is all this wants.
        let _ = self.client.writer.shutdown(std::net::Shutdown::Both);
        self.shutdown.shutdown();
        if let Some(t) = self.server_thread.take() {
            // A panicked server thread already failed every request it
            // owed; there is nothing more to report from a destructor.
            let _ = t.join();
        }
    }
}

/// When a round stops sending: at the deadline or after `ops` requests,
/// whichever comes first.
#[derive(Clone, Copy)]
struct Stop {
    at: Option<Instant>,
    ops: usize,
}

impl Stop {
    fn after(ops: usize) -> Stop {
        Stop { at: None, ops }
    }
}

/// Timed requests after which `serve_cold` reads its peak memory. Its
/// artifact cache grows with every request and does not fill within a
/// run, so memory at the end of the run would rise with throughput; at a
/// fixed request count it is the memory of a fixed amount of work.
const COLD_RSS_MARK: u64 = 2048;

/// Reads `VmHWM` once, when the `remaining`-th reply from now arrives.
struct RssMark {
    remaining: u64,
    mib: Option<f64>,
}

impl RssMark {
    fn after(requests: u64) -> RssMark {
        RssMark {
            remaining: requests,
            mib: None,
        }
    }

    fn tick(&mut self) {
        if self.remaining > 0 {
            self.remaining -= 1;
            if self.remaining == 0 {
                self.mib = Some(peak_rss_mib());
            }
        }
    }
}

/// What the load generator saw in one round.
#[derive(Default)]
struct Tally {
    /// Client-side latency per request, µs, with its class.
    latencies: Vec<(Class, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Fresh-compile replies kept for the byte-for-byte check.
    deferred: Vec<(Op, String)>,
    /// Time spent assembling lines and checking replies rather than
    /// waiting on the socket.
    busy: Duration,
    wall: Duration,
    request_bytes: u64,
    reply_bytes: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

fn canonical_request(p: &ServeProgram) -> polyufc_serve::CompileRequest {
    let mut line = String::new();
    p.line(&mut line);
    match parse_request(&line) {
        Ok(Request::Compile(c)) => *c,
        other => unreachable!("generated compile line parsed as {other:?}"),
    }
}

/// Checks one reply against what its request must produce.
fn check_reply(shared: &Shared, op: &Op, reply: &str, tally: &mut Tally) {
    let reply = reply.trim_end_matches('\n');
    match op.class {
        Class::Line | Class::Artifact => {
            if reply != shared.expected[op.index] {
                tally.fail(format!(
                    "{:?} reply for `{}` differs from oneshot_response (mis-ordered or wrong bytes)",
                    op.class, shared.corpus[op.index].name
                ));
            }
        }
        Class::Error => {
            if reply != shared.error_bodies[op.index] {
                tally.fail(format!(
                    "malformed line {} expected code `{}`, got {reply}",
                    op.index, MALFORMED[op.index].1
                ));
            }
        }
        Class::Prefix | Class::Cold => {
            let name = shared.corpus[op.index].name;
            let ok = reply.starts_with("{\"ok\":true")
                && reply.contains(&format!("\"program\":\"{name}\""))
                && (op.class == Class::Cold
                    || reply.contains(&format!(
                        "\"epsilon\":{},",
                        corpus::epsilon_variant(op.ordinal)
                    )));
            if !ok {
                tally.fail(format!(
                    "{:?} reply for `{name}` is refused, shed or out of order: {}",
                    op.class,
                    &reply[..reply.len().min(160)]
                ));
            } else if op.ordinal.is_multiple_of(deferred_check_stride(op.class)) {
                tally.deferred.push((*op, reply.to_string()));
            }
        }
    }
}

/// Drives the connection from the calling thread until `stop`: one
/// request in flight, or — for the pipelined blend — windows of
/// [`PIPELINE_WINDOW`] written at once and then read back in order, with
/// latency counted from the window's send.
fn drive(client: &mut Client, shared: &Shared, stop: Stop, mark: &mut RssMark) -> Tally {
    let window = if shared.blend == Blend::Mixed {
        PIPELINE_WINDOW
    } else {
        1
    };
    let mut tally = Tally::default();
    let mut ops: Vec<Op> = Vec::with_capacity(window);
    let mut batch = String::new();
    let mut line = String::new();
    let mut reply = String::new();
    let started = Instant::now();
    let mut sent = 0usize;
    'windows: loop {
        if sent >= stop.ops || stop.at.is_some_and(|at| Instant::now() >= at) {
            break;
        }
        let t_gen = Instant::now();
        ops.clear();
        batch.clear();
        while ops.len() < window {
            let Some(op) = client.ops.next_op() else {
                break;
            };
            render_op(&op, &shared.corpus, &mut line);
            batch.push_str(&line);
            batch.push('\n');
            ops.push(op);
        }
        if ops.is_empty() {
            break;
        }
        sent += ops.len();
        tally.attempted += ops.len() as u64;
        tally.request_bytes += batch.len() as u64;
        tally.busy += t_gen.elapsed();

        let t_send = Instant::now();
        if let Err(e) = client.writer.write_all(batch.as_bytes()) {
            tally.failed += ops.len() as u64;
            tally.failures.push(format!("send: {e}"));
            break;
        }
        for (i, op) in ops.iter().enumerate() {
            reply.clear();
            match client.reader.read_line(&mut reply) {
                Ok(n) if n > 0 => {}
                other => {
                    tally.failed += (ops.len() - i) as u64;
                    tally
                        .failures
                        .push(format!("connection lost mid-window: {other:?}"));
                    break 'windows;
                }
            }
            mark.tick();
            tally
                .latencies
                .push((op.class, t_send.elapsed().as_secs_f64() * 1e6));
            tally.reply_bytes += reply.len() as u64;
            let t_check = Instant::now();
            check_reply(shared, op, &reply, &mut tally);
            tally.busy += t_check.elapsed();
        }
    }
    tally.wall = started.elapsed();
    tally
}

impl Env {
    /// Set-up up to, but not including, the warm-up round: corpus,
    /// expected replies, server, connection, cache pre-warm.
    fn start(blend: Blend, seed: u64, seconds: u64) -> Result<Env, String> {
        let corpus = match blend {
            Blend::Cold => {
                let want = COLD_PROGRAMS_PER_SECOND * seconds as usize
                    + warmup_ops(blend)
                    + traced_ops(blend);
                corpus::cold_corpus(seed, want.min(COLD_PROGRAMS_MAX))
            }
            _ => corpus::hot_corpus(seed),
        };
        let expected = if blend == Blend::Cold {
            Vec::new()
        } else {
            polyufc_par::par_map(&corpus, |p| oneshot_response(&canonical_request(p)))
        };
        let error_bodies = MALFORMED
            .iter()
            .map(|(line, code)| {
                let body = match parse_request(line) {
                    Err(e) => e.render(),
                    Ok(Request::Compile(c)) => oneshot_response(&c),
                    Ok(other) => unreachable!("malformed line parsed as {other:?}"),
                };
                if body.contains(&format!("\"code\":\"{code}\"")) {
                    Ok(body)
                } else {
                    Err(format!("`{line}` should be rejected as {code}, got {body}"))
                }
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Thread placement (see [`crate::affinity`]): the engine's worker
        // inherits the mask of the thread that creates it, so this thread
        // sits on the last allowed core while it binds and then joins the
        // reactor on the first, where it generates the load.
        let cpus = affinity::allowed_cpus();
        let (front, back) = match (cpus.first(), cpus.last()) {
            (Some(f), Some(b)) if f != b => (vec![*f], vec![*b]),
            _ => (Vec::new(), Vec::new()),
        };
        affinity::pin_current_thread(&back);
        let default = EngineConfig::default();
        let server = Server::bind(&ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            engine: EngineConfig {
                workers: WORKERS,
                // Every request of every window may be a compile; the
                // benchmark measures service, not shedding.
                queue_cap: default.queue_cap.max(PIPELINE_WINDOW * 2),
                deadline: None,
                chaos: ChaosPlan::pristine(),
                ..default
            },
        })
        .map_err(|e| format!("bind: {e}"))?;
        affinity::pin_current_thread(&front);
        let addr = server.local_addr().ok_or("no TCP address")?;
        let engine = server.engine();
        let shutdown = server.shutdown_handle();
        // The listener is bound, so the connection is made before the
        // reactor runs; it is accepted once it does.
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let client = Client {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            ops: OpStream::new(seed, blend, corpus.len()),
        };
        let server_thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || {
                affinity::pin_current_thread(&front);
                if let Err(e) = server.run() {
                    eprintln!("server: {e}");
                }
            })
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut env = Env {
            shared: Shared {
                blend,
                corpus,
                expected,
                error_bodies,
            },
            engine,
            shutdown,
            server_thread: Some(server_thread),
            client,
        };
        if blend != Blend::Cold {
            env.prewarm()?;
        }
        Ok(env)
    }

    /// Sends `lines` in pipelined windows and returns the replies.
    fn exchange(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        let client = &mut self.client;
        let mut replies = Vec::with_capacity(lines.len());
        for window in lines.chunks(PIPELINE_WINDOW) {
            let mut batch = String::new();
            for l in window {
                batch.push_str(l);
                batch.push('\n');
            }
            client
                .writer
                .write_all(batch.as_bytes())
                .map_err(|e| format!("pre-warm send: {e}"))?;
            for _ in window {
                let mut reply = String::new();
                match client.reader.read_line(&mut reply) {
                    Ok(n) if n > 0 => replies.push(reply.trim_end_matches('\n').to_string()),
                    other => return Err(format!("pre-warm receive: {other:?}")),
                }
            }
        }
        Ok(replies)
    }

    /// Compiles the hot corpus into the artifact and line tiers, and for
    /// the mixed blend keeps sending fresh-ε variants until every worker
    /// holds every program's characterization prefix (two passes in a row
    /// without a prefix miss).
    fn prewarm(&mut self) -> Result<(), String> {
        let mut lines = Vec::with_capacity(self.shared.corpus.len());
        for p in &self.shared.corpus {
            let mut line = String::new();
            p.line(&mut line);
            lines.push(line);
        }
        let replies = self.exchange(&lines)?;
        if replies != self.shared.expected {
            return Err("pre-warm replies differ from oneshot_response".into());
        }
        if self.shared.blend != Blend::Mixed {
            return Ok(());
        }
        let mut ordinal = SETUP_ORDINAL_BASE;
        let mut quiet_passes = 0;
        for _ in 0..16 {
            let misses_before = server_counter(&self.engine, "prefix_misses");
            for (line, p) in lines.iter_mut().zip(&self.shared.corpus) {
                line.clear();
                p.line_epsilon(&corpus::epsilon_variant(ordinal), line);
                ordinal += 1;
            }
            let replies = self.exchange(&lines)?;
            if let Some(bad) = replies.iter().find(|r| !r.starts_with("{\"ok\":true")) {
                return Err(format!("prefix pre-warm refused: {bad}"));
            }
            if server_counter(&self.engine, "prefix_misses") == misses_before {
                quiet_passes += 1;
                if quiet_passes == 2 {
                    break;
                }
            } else {
                quiet_passes = 0;
            }
        }
        Ok(())
    }

    /// One round: the connection driven from this thread until `stop`.
    fn round(&mut self, stop: Stop) -> Tally {
        self.round_marked(stop, &mut RssMark::after(0))
    }

    /// A round of the timed phase, whose replies count towards `mark`.
    fn round_marked(&mut self, stop: Stop, mark: &mut RssMark) -> Tally {
        drive(&mut self.client, &self.shared, stop, mark)
    }
}

/// One counter of the `server` section of the engine's `stats` reply.
fn server_counter(engine: &Engine, key: &str) -> u64 {
    json::parse(&engine.stats_json())
        .ok()
        .and_then(|v| v.get("server")?.get(key)?.as_f64())
        .map_or(0, |x| x as u64)
}

/// Folds a round's tally into the outcome; returns the deferred checks.
fn account(tally: &mut Tally, out: &mut Outcome) -> Vec<(Op, String)> {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    for f in tally.failures.drain(..) {
        out.note(f);
    }
    std::mem::take(&mut tally.deferred)
}

/// Compares the kept fresh-compile replies with `oneshot_response`.
fn verify_deferred(shared: &Shared, deferred: &[(Op, String)], out: &mut Outcome) {
    let verdicts = polyufc_par::par_map(deferred, |(op, reply)| {
        let mut line = String::new();
        render_op(op, &shared.corpus, &mut line);
        matches!(parse_request(&line), Ok(Request::Compile(c)) if oneshot_response(&c) == *reply)
    });
    for ((op, _), ok) in deferred.iter().zip(verdicts) {
        if !ok {
            out.fail(|| {
                format!(
                    "{:?} reply for `{}` differs from oneshot_response",
                    op.class, shared.corpus[op.index].name
                )
            });
        }
    }
}

/// Sets a workload up, warm-up round included; `None` after recording
/// the failure.
fn setup(blend: Blend, seed: u64, seconds: u64, out: &mut Outcome) -> Option<Env> {
    let t = Instant::now();
    let mut env = match Env::start(blend, seed, seconds) {
        Ok(env) => env,
        Err(e) => {
            out.fail(|| format!("set-up: {e}"));
            return None;
        }
    };
    let mut warm = env.round(Stop::after(warmup_ops(blend)));
    out.sample("setup_s", t.elapsed().as_secs_f64());
    let deferred = account(&mut warm, out);
    verify_deferred(&env.shared, &deferred, out);
    Some(env)
}

/// Latency percentiles of one class (or all) in a tally.
fn latencies_of(tally: &Tally, class: Option<Class>) -> Vec<f64> {
    let mut v: Vec<f64> = tally
        .latencies
        .iter()
        .filter(|(c, _)| class.is_none_or(|k| k == *c))
        .map(|(_, us)| *us)
        .collect();
    stats::sort(&mut v);
    v
}

/// The untraced pass.
pub fn run(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let blend = blend_of(workload);
    let mut env = None;
    for _ in 0..SETUP_REPEATS {
        // The previous repeat's server is shut down before the next
        // binds, so repeats do not compete for the two cores.
        drop(env.take());
        env = setup(blend, seed, seconds, out);
        if env.is_none() {
            return;
        }
    }
    let mut env = env.expect("set up above");

    let rounds = workload.serve_rounds();
    let round_len = Duration::from_secs_f64(seconds as f64 / rounds as f64);
    // A cold round also ends once it has used its share of the unseen
    // programs, so a system fast enough to use the corpus up measures
    // for less than `seconds` instead of running dry.
    let round_ops = match blend {
        Blend::Cold => (env.shared.corpus.len() - warmup_ops(blend)) / rounds,
        _ => usize::MAX,
    };
    let mut mark = RssMark::after(if blend == Blend::Cold {
        COLD_RSS_MARK
    } else {
        0
    });
    let mut deferred = Vec::new();
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for _ in 0..rounds {
        let stop = Stop {
            at: Some(Instant::now() + round_len),
            ops: round_ops,
        };
        let mut tally = env.round_marked(stop, &mut mark);
        deferred.extend(account(&mut tally, out));
        let all = latencies_of(&tally, None);
        if all.is_empty() {
            out.fail(|| "a timed round had no requests left to send".into());
            break;
        }
        out.sample(
            "throughput_ops_s",
            all.len() as f64 / tally.wall.as_secs_f64(),
        );
        out.sample("latency_p50_us", stats::quantile_sorted(&all, 0.5));
        out.sample(
            "latency_tail_us",
            stats::quantile_sorted(&all, workload.tail_quantile()),
        );
        out.sample("latency_geomean_us", stats::geomean(&all));
        for class in Class::ALL {
            let v = latencies_of(&tally, Some(class));
            if !v.is_empty() {
                by_class
                    .entry(class)
                    .or_default()
                    .push(stats::quantile_sorted(&v, 0.5));
            }
        }
    }
    out.set("peak_rss_mib", mark.mib.unwrap_or_else(peak_rss_mib));
    check_server_health(&env.engine, out);
    verify_deferred(&env.shared, &deferred, out);
    // The series itself, so a disturbed stretch of the run can be told
    // from a steady difference.
    if let Some(series) = out.samples.get("throughput_ops_s") {
        let series: Vec<String> = series.iter().map(|v| format!("{v:.0}")).collect();
        out.rows
            .push(format!("ops/s by round: {}", series.join(" ")));
    }
    out.rows.push(format!(
        "{} fresh-compile replies compared byte for byte with oneshot_response",
        deferred.len()
    ));
    for (class, p50s) in &by_class {
        out.rows.push(format!(
            "class {:<14} p50 {:>10.1} us (median over rounds)",
            class.tier(),
            stats::median(p50s)
        ));
    }
}

/// A shed request, a fired deadline or a replaced worker is a failure of
/// the system under test even when every reply that did arrive is right.
fn check_server_health(engine: &Engine, out: &mut Outcome) {
    for (what, n) in [
        ("requests shed", server_counter(engine, "shed")),
        ("deadlines fired", engine.deadlines_fired()),
        ("workers replaced", engine.workers_replaced()),
    ] {
        if n > 0 {
            out.fail(|| format!("{n} {what}"));
        }
    }
}

/// The traced pass: a fixed-count traffic phase for the client-side and
/// server-side per-class numbers, then a layered replay of a seeded
/// sample of the blend's requests. Returns the recorder for the span
/// file.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) -> Recorder {
    let blend = blend_of(workload);
    let mut rec = Recorder::new();
    let Some(mut env) = setup(blend, seed, seconds, out) else {
        return rec;
    };

    // Traffic phase.
    let before = env.engine.cache_stats();
    let prefix_before = (
        server_counter(&env.engine, "prefix_hits"),
        server_counter(&env.engine, "prefix_misses"),
    );
    let mut tally = env.round(Stop::after(traced_ops(blend)));
    let deferred = account(&mut tally, out);
    let after = env.engine.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    out.set("serve.hits", hits as f64);
    out.set("serve.misses", misses as f64);
    if hits + misses > 0 {
        out.set("serve.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    out.set(
        "serve.prefix_hits",
        (server_counter(&env.engine, "prefix_hits") - prefix_before.0) as f64,
    );
    out.set(
        "serve.prefix_misses",
        (server_counter(&env.engine, "prefix_misses") - prefix_before.1) as f64,
    );
    let (_, server_p50, server_p99, _) = env.engine.latency_summary();
    out.set("serve.server_p50_us", server_p50 as f64);
    out.set("serve.server_p99_us", server_p99 as f64);
    out.set("serve.shed", server_counter(&env.engine, "shed") as f64);
    out.set("serve.deadlines_fired", env.engine.deadlines_fired() as f64);
    out.set(
        "serve.workers_replaced",
        env.engine.workers_replaced() as f64,
    );
    out.set("par.workers", env.engine.workers() as f64);
    check_server_health(&env.engine, out);
    out.set(
        "serve.client.tail_us",
        stats::quantile_sorted(&latencies_of(&tally, None), workload.tail_quantile()),
    );
    let mut client_p50 = BTreeMap::new();
    for class in Class::ALL {
        let v = latencies_of(&tally, Some(class));
        if !v.is_empty() {
            let p50 = stats::quantile_sorted(&v, 0.5);
            out.set(&format!("serve.{}.p50_us", class.tier()), p50);
            client_p50.insert(class, p50);
        }
    }
    out.set(
        "serve.request_bytes",
        tally.request_bytes as f64 / tally.attempted.max(1) as f64,
    );
    out.set(
        "serve.reply_bytes",
        tally.reply_bytes as f64 / tally.attempted.max(1) as f64,
    );
    out.set(
        "bench.generator_idle_pct",
        100.0 * (1.0 - tally.busy.as_secs_f64() / tally.wall.as_secs_f64().max(1e-9)),
    );
    verify_deferred(&env.shared, &deferred, out);

    replay_sample(&env.shared, seed, &client_p50, &mut rec, out);
    rec
}

/// An in-process engine in the state the blend's server is in when the
/// timed rounds start: hot corpus compiled, and for the mixed blend its
/// prefixes held by the (single) worker.
fn warmed_engine(shared: &Shared) -> Engine {
    let engine = Engine::new(&EngineConfig {
        workers: 1,
        deadline: None,
        chaos: ChaosPlan::pristine(),
        ..EngineConfig::default()
    });
    if shared.blend != Blend::Cold {
        let mut line = String::new();
        for p in &shared.corpus {
            line.clear();
            p.line(&mut line);
            engine.handle_line(&line);
        }
    }
    engine
}

/// The layered replay of `replay_inputs(blend)` requests drawn from the
/// blend by a seeded stream of their own.
///
/// Per request there are up to two root spans. `serve.engine` is the real
/// `Engine::handle_line` on a warmed in-process engine: the request's
/// whole life minus the socket. `request` is the same request pushed
/// through the layers' public pieces in server order, where the self-time
/// rule applies; what `serve.engine` costs beyond it is the serve crate's
/// own work (tier probes, pool hand-off, rendering), which has no public
/// pieces to time.
fn replay_sample(
    shared: &Shared,
    seed: u64,
    client_p50_us: &BTreeMap<Class, f64>,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let blend = shared.blend;
    let pipe = Pipeline::new(Platform::broadwell());
    let engine = warmed_engine(shared);
    // The direct path's worker state and the replay's session both live
    // across the sample, like a server worker's; for the mixed blend both
    // start out holding every hot program's prefix.
    let mut direct_state = WorkerState::new();
    let mut session = CompileSession::new();
    let mut prefixes = Vec::new();
    if blend == Blend::Mixed {
        let mut scratch = Recorder::new();
        let root = scratch.open("request", None, 0);
        for p in &shared.corpus {
            let req = canonical_request(p);
            compile_prepared(
                &prepare(&req).expect("hot corpus programs parse"),
                &mut direct_state,
            );
            let program = polyufc_ir::textual::parse_affine_program(&req.source)
                .expect("hot corpus programs parse");
            match replay::characterize_staged(&mut scratch, root, 0, &pipe, &program, &mut session)
            {
                Ok((ch, _)) => prefixes.push(ch),
                Err(e) => {
                    out.fail(|| format!("{}: replay set-up: {e}", p.name));
                    return;
                }
            }
        }
    }

    // Sampled ops come from a stream of their own, far from the ordinals
    // the traffic used.
    let mut ops = OpStream::new(seed ^ 0x7ace, blend, shared.corpus.len());
    let inputs = replay_inputs(blend);
    let mut counts = StageCounts::default();
    let mut untraced = Duration::ZERO;
    let mut class_of = Vec::with_capacity(inputs);
    let (mut prepare_us, mut compile_us) = (Vec::new(), Vec::new());
    let mut program_bytes = Vec::new();
    let mut line = String::new();
    for i in 0..inputs {
        let Some(mut op) = ops.next_op() else { break };
        if blend == Blend::Cold {
            // Take unseen programs from the far end of the corpus.
            op.index = shared.corpus.len() - 1 - op.index;
        } else {
            op.ordinal += 2 * SETUP_ORDINAL_BASE;
        }
        render_op(&op, &shared.corpus, &mut line);
        out.attempted += 1;

        // The real engine, socket excluded.
        class_of.push(op.class);
        let body = rec.span("serve.engine", None, i, || engine.handle_line(&line));
        let body = body.body().to_string();
        let mut probe = Tally::default();
        check_reply(shared, &op, &body, &mut probe);
        if probe.failed > 0 {
            out.fail(|| probe.failures.join("; "));
        }
        if op.class == Class::Line {
            continue;
        }

        // The untraced public entry points, for the tracing overhead.
        let t = Instant::now();
        let parsed = parse_request(&line);
        let mut direct_body = None;
        if let Ok(Request::Compile(req)) = &parsed {
            let t_prepare = Instant::now();
            let prepared = prepare(req);
            prepare_us.push(t_prepare.elapsed().as_secs_f64() * 1e6);
            if let (Ok(p), Class::Prefix | Class::Cold) = (&prepared, op.class) {
                let t_compile = Instant::now();
                let (b, _, _) = compile_prepared(p, &mut direct_state);
                compile_us.push(t_compile.elapsed().as_secs_f64() * 1e6);
                direct_body = Some(b);
            }
        }
        untraced += t.elapsed();
        if direct_body.as_ref().is_some_and(|b| *b != body) {
            out.fail(|| format!("request {i}: compile_prepared and the engine disagree"));
        }

        let replayed = replay_request(
            rec,
            i,
            &line,
            op.class,
            &pipe,
            prefixes.get(op.index),
            &mut session,
            &mut counts,
            &mut program_bytes,
        );
        match replayed {
            Ok(Some(caps)) if caps != reply_caps(&body) => {
                out.fail(|| format!("request {i}: replayed caps differ from the reply's"));
            }
            Err(e) => out.fail(|| format!("request {i}: replay: {e}")),
            _ => {}
        }
    }
    engine.shutdown();

    let n = class_of.len() as f64;
    counts.report(out);
    replay::report_spans(rec, n, untraced, out);
    // Root durations by request class. Per input, a class counts by its
    // share and stands for its median: one stalled call among 256 must
    // not pass for the engine's cost, and the real engine and the replay
    // are compared like for like.
    let roots = |name: &str| {
        let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
        for s in rec
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
        {
            by_class
                .entry(class_of[s.request])
                .or_default()
                .push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
        by_class
    };
    let replayed = roots("request");
    let (mut inproc, mut wire, mut covered) = (0.0, 0.0, 0.0);
    for (class, us) in roots("serve.engine") {
        let (share, p50) = (us.len() as f64 / n, stats::median(&us));
        inproc += share * p50;
        // Socket, reactor and framing: what the class's round trip costs
        // beyond the same class's `handle_line`.
        let client = client_p50_us.get(&class).copied().unwrap_or(0.0);
        wire += share * (client - p50).max(0.0);
        covered += share * replayed.get(&class).map_or(0.0, |r| stats::median(r));
    }
    out.set("serve.engine_inproc_us", inproc);
    out.set("serve.wire_overhead_us", wire);
    out.rows.push(format!(
        "real      {:<22} {inproc:>12.1} us/input (class medians by share); the replay covers {covered:.1} us/input of it",
        "serve.engine"
    ));
    for (name, v) in [
        ("serve.prepare_us", &prepare_us),
        ("serve.compile_prepared_us", &compile_us),
        ("ir.program_bytes", &program_bytes),
    ] {
        if !v.is_empty() {
            out.set(name, v.iter().sum::<f64>() / v.len() as f64);
        }
    }
    if !compile_us.is_empty() {
        let server_p50 = out.value("serve.server_p50_us");
        out.set(
            "serve.queue_wait_us",
            (server_p50 - stats::median(&compile_us)).max(0.0),
        );
    }
    if let Some(us) = rec.mean_duration_us("core.finish_prefix") {
        out.set("core.finish_prefix_us", us);
    }
    out.set("bench.replay_inputs", n);
}

/// One request through the layers' public pieces in server order, under
/// a `request` root span: JSON parse, the pieces of `prepare`, then — by
/// class — the whole compile (cold) or search and codegen on the cached
/// prefix (fresh ε). Returns the caps it reached, if the class compiles.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    rec: &mut Recorder,
    i: usize,
    line: &str,
    class: Class,
    pipe: &Pipeline,
    prefix: Option<&polyufc::CharacterizedProgram>,
    session: &mut CompileSession,
    counts: &mut StageCounts,
    program_bytes: &mut Vec<f64>,
) -> Result<Option<Vec<f64>>, String> {
    let root = rec.open("request", None, i);
    let parsed = rec.span("serve.json_parse", Some(root), i, || parse_request(line));
    let caps = (|| {
        let Ok(Request::Compile(req)) = parsed else {
            return Ok(None);
        };
        let Ok((program, text_len)) =
            replay::prepare_staged(rec, root, i, &pipe.platform, &req.source)
        else {
            return Ok(None);
        };
        program_bytes.push(text_len as f64);
        let mut pipe = pipe.clone();
        pipe.epsilon = req.opts.epsilon;
        match (class, prefix) {
            (Class::Cold, _) => {
                let (ch, c) = replay::characterize_staged(rec, root, i, &pipe, &program, session)?;
                counts.absorb(&c);
                Ok(Some(replay::finish_staged(rec, root, i, &pipe, &ch).0))
            }
            (Class::Prefix, Some(ch)) => {
                let id = rec.open("core.finish_prefix", Some(root), i);
                let caps = replay::finish_staged(rec, id, i, &pipe, ch).0;
                rec.close(id);
                Ok(Some(caps))
            }
            _ => Ok(None),
        }
    })();
    rec.close(root);
    caps
}

/// The `cap_ghz` of every kernel in an artifact reply.
fn reply_caps(body: &str) -> Vec<f64> {
    json::parse(body)
        .ok()
        .and_then(|v| {
            v.get("kernels")?
                .as_arr()?
                .iter()
                .map(|k| k.get("cap_ghz").and_then(Value::as_f64))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters that tell the tiers apart.
    fn counters(engine: &Engine) -> [u64; 6] {
        let a = engine.cache_stats();
        [
            a.hits,
            a.misses,
            a.line_entries as u64,
            server_counter(engine, "prefix_hits"),
            server_counter(engine, "prefix_misses"),
            server_counter(engine, "errors"),
        ]
    }

    #[test]
    fn class_labels_match_the_tier_that_answers() {
        let corpus = corpus::hot_corpus(3);
        let (warmed, unseen) = (4, 5);
        let engine = Engine::new(&EngineConfig {
            workers: 1,
            deadline: None,
            chaos: ChaosPlan::pristine(),
            ..EngineConfig::default()
        });
        let mut line = String::new();
        for p in &corpus[..warmed] {
            line.clear();
            p.line(&mut line);
            assert!(engine.handle_line(&line).body().starts_with("{\"ok\":true"));
        }
        // [hits, misses, line entries, prefix hits, prefix misses, errors]
        let cases = [
            (Class::Line, 1, [1, 0, 0, 0, 0, 0]),
            (Class::Artifact, 1, [1, 0, 1, 0, 0, 0]),
            (Class::Prefix, 2, [0, 1, 1, 1, 0, 0]),
            (Class::Cold, unseen, [0, 1, 1, 0, 1, 0]),
            (Class::Error, 4, [0, 0, 0, 0, 0, 1]),
        ];
        for (class, index, want) in cases {
            let op = Op {
                class,
                index,
                ordinal: 77,
            };
            render_op(&op, &corpus, &mut line);
            let before = counters(&engine);
            let body = engine.handle_line(&line).body().to_string();
            let after = counters(&engine);
            let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(delta, want, "{class:?}: {body}");
            if class == Class::Error {
                assert!(body.contains(MALFORMED[index].1), "{body}");
            }
        }
        engine.shutdown();
    }

    #[test]
    fn reply_caps_reads_every_kernel() {
        let body = "{\"ok\":true,\"kernels\":[{\"name\":\"a\",\"cap_ghz\":1.2},{\"name\":\"b\",\"cap_ghz\":2.7}]}";
        assert_eq!(reply_caps(body), vec![1.2, 2.7]);
        assert!(reply_caps("{\"ok\":false}").is_empty());
    }
}
