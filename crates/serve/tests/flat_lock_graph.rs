//! The daemon's lock graph is *flat*: no lock is ever taken while
//! another is held. One engine is driven through every way a pending
//! compile can end — worker finish, deadline expiry with a joiner, shed,
//! shutdown drain — and lockdep must have recorded no order edge at all.
//!
//! Lockdep's graph is process-global, so this file holds exactly one
//! test. Without `--features lockdep` the scenario still runs and checks
//! its typed replies; only the graph assertion is vacuous.

use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

use polyufc_serve::{json, Body, ChaosPlan, Engine, EngineConfig, Submitted};
use polyufc_workloads::{polybench_suite, PolybenchSize};

const SLOW: Duration = Duration::from_millis(150);
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn submit(engine: &Engine, line: &str) -> Receiver<Body> {
    let (tx, rx) = channel();
    let submitted = engine.submit(line, move |body| {
        let _ = tx.send(body);
    });
    assert!(matches!(submitted, Submitted::Pending), "{submitted:?}");
    rx
}

fn has_code(body: &Body, code: &str) -> bool {
    let text = String::from_utf8_lossy(body);
    text.contains(&format!("\"code\":\"{code}\""))
}

#[test]
fn every_way_a_compile_ends_leaves_the_lock_graph_flat() {
    // Every compile sleeps 150 ms on the single worker before it runs,
    // so requests queue behind each other and time does the scripting:
    // the first accepted request finishes well inside the 320 ms
    // deadline, the third or later cannot start before 300 ms and is
    // expired by 400 ms (deadline + one 80 ms watchdog period), long
    // before its own compile could end at 450 ms.
    let engine = Engine::new(&EngineConfig {
        workers: 1,
        queue_cap: 3,
        deadline: Some(Duration::from_millis(320)),
        quarantine_threshold: u32::MAX, // strikes are recorded, never trip
        chaos: ChaosPlan::slow_compiles(21, 1.0, SLOW.as_millis() as u64),
        shutdown_grace: Duration::from_millis(10),
        ..EngineConfig::default()
    });
    let lines: Vec<String> = polybench_suite(PolybenchSize::Mini)
        .iter()
        .map(|w| {
            let mut line = String::from("{\"op\":\"compile\",\"source\":");
            json::push_escaped(&mut line, &format!("{}", w.program));
            line.push('}');
            line
        })
        .collect();

    // Submit distinct programs until one is shed: the queue holds three,
    // plus one on the worker if it already dequeued.
    let mut accepted = Vec::new();
    let mut next = lines.iter();
    let shed = loop {
        let line = next.next().expect("a 3-deep queue sheds within 5 submits");
        let rx = submit(&engine, line);
        match rx.try_recv() {
            Ok(body) => break body, // answered inline: the shed
            Err(_) => accepted.push((line, rx)),
        }
    };
    assert!(has_code(&shed, "overloaded"), "{shed:?}");
    assert!(accepted.len() >= 3, "accepted {}", accepted.len());

    // A joiner on the last accepted request, which is certain to expire.
    let (last_line, last_rx) = accepted.pop().expect("accepted");
    let joiner = submit(&engine, last_line);
    for rx in [&last_rx, &joiner] {
        let body = rx.recv_timeout(REPLY_TIMEOUT).expect("deadline reply");
        assert!(has_code(&body, "deadline_exceeded"), "{body:?}");
    }
    assert!(engine.deadlines_fired() >= 1);
    // The first accepted request compiled for real.
    let first = accepted[0].1.recv_timeout(REPLY_TIMEOUT).expect("reply");
    assert!(first.starts_with(b"{\"ok\":true"), "{first:?}");
    // The ones in between ended one way or the other.
    for (_, rx) in &accepted[1..] {
        rx.recv_timeout(REPLY_TIMEOUT).expect("reply");
    }

    // Shutdown with a compile pending: the worker is still asleep in the
    // expired request's job (or in this one's), the grace is 10 ms, so
    // the drain ends it.
    let pending = submit(&engine, next.next().expect("one more program"));
    engine.shutdown();
    let body = pending.recv_timeout(REPLY_TIMEOUT).expect("drain reply");
    assert!(has_code(&body, "shutting_down"), "{body:?}");
    assert_eq!(engine.cache_stats().inflight, 0);

    if let Some(l) = polyufc_chk::lockdep_stats() {
        assert!(l.sites >= 5, "locks were instrumented: {l:?}");
        assert_eq!((l.edges, l.cycles), (0, 0), "lock graph not flat: {l:?}");
    }
}
