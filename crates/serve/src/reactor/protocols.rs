//! Pipelining under the schedule explorer: pause at the watermark,
//! resume below it, replies in request order whatever order compiles
//! finish in.
//!
//! Everything is the shipped thing — a [`Reactor`] on its own epoll
//! instance, a unix-socket connection accepted through its listener, the
//! eventfd doorbell, the completion queue, [`MAX_PIPELINE`] — except the
//! engine, which is [`Scripted`] through the [`Backend`] seam: a line
//! starting `w` is a "compile" whose `notify` (the closure `ingest`
//! built) parks until a worker thread runs it, anything else is answered
//! inline, and every reply echoes its request line. The explorer's steps:
//!
//! * the **client** writes its next burst with one `write`;
//! * the **reactor** takes one `turn(.., false, false)`, and is enabled
//!   iff a zero-timeout `epoll_wait` on its epoll fd reports an event
//!   (level-triggered, so looking consumes nothing);
//! * **worker A / B** runs the oldest / newest parked `notify`.
//!
//! Checked at quiescence: the client's socket holds exactly the request
//! sequence. A missing tail is a lost wakeup (as is a connection left
//! with unflushed slots, which the explorer reports as a deadlock);
//! anything else is an order inversion.
//!
//! The old model's `fault_single_resume` is not planted here: it would
//! need a switch inside `turn`, and cutting the real flush/resume loop to
//! one pass strands nothing anyway (EXPERIMENTS.md) — `update_interest`
//! re-arms `EPOLLOUT` while the front slot is ready.

use super::*;
use crate::shard::protocols::{assert_clean, assert_violates};
use polyufc_chk::explore::{replay, Explorer, Model};
use std::cell::{Cell, RefCell};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::AtomicU64;

const CLIENT: usize = 0;
const REACTOR: usize = 1;
const WORKER_A: usize = 2;
const WORKER_B: usize = 3;

type Notify = Box<dyn FnOnce(Body) + Send>;

/// The scripted engine; see the module docs.
struct Scripted {
    chaos: ChaosPlan,
    parked: RefCell<VecDeque<(Notify, Body)>>,
    /// Planted misuse: the next parked `notify` is dropped instead.
    drop_next: Cell<bool>,
}

impl Backend for Scripted {
    fn submit<F>(&self, line: &str, notify: F) -> Submitted
    where
        F: FnOnce(Body) + Send + 'static,
    {
        let body: Body = Arc::from(line.as_bytes());
        if !line.starts_with('w') {
            return Submitted::Ready(body);
        }
        if !self.drop_next.replace(false) {
            self.parked.borrow_mut().push_back((Box::new(notify), body));
        }
        Submitted::Pending
    }

    fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }
}

struct Pipeline {
    reactor: Reactor,
    acceptor: Acceptor,
    backend: Scripted,
    client: UnixStream,
    /// Bursts the client has yet to write.
    bursts: VecDeque<Vec<u8>>,
    /// Every request line in order, which is also every reply.
    expected: Vec<u8>,
}

impl Pipeline {
    /// A client that will write `bursts` lines at a time; the lines whose
    /// (global) index is in `compiles` take the worker path.
    fn new(bursts: &[usize], compiles: &[usize], drop_a_notify: bool) -> Pipeline {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "polyufc-protocols-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let addr = SocketAddr::from_abstract_name(name).expect("abstract socket name");
        let listener = UnixListener::bind_addr(&addr).expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let client = UnixStream::connect_addr(&addr).expect("connect");
        client.set_nonblocking(true).expect("nonblocking");
        let acceptor = Acceptor::Unix(listener, Default::default());
        let wakeup = Arc::new(WakeupFd::new().expect("eventfd"));
        let backend = Scripted {
            chaos: ChaosPlan::pristine(),
            parked: RefCell::default(),
            drop_next: Cell::new(drop_a_notify),
        };
        let mut reactor = Reactor::new(&acceptor, &wakeup, 1).expect("epoll");
        let accepted = reactor.turn(&acceptor, &backend, false, false);
        assert!(accepted.expect("turn") && reactor.conns.len() == 1);

        let mut next = 0..;
        let bursts: VecDeque<Vec<u8>> = bursts
            .iter()
            .map(|&n| {
                let lines = next.by_ref().take(n).map(|i| {
                    let path = if compiles.contains(&i) { 'w' } else { 'r' };
                    format!("{path}{i:04}\n")
                });
                lines.collect::<String>().into_bytes()
            })
            .collect();
        Pipeline {
            reactor,
            acceptor,
            backend,
            client,
            expected: bursts.iter().flatten().copied().collect(),
            bursts,
        }
    }

    fn run_notify(&mut self, newest: bool) {
        let popped = match newest {
            true => self.backend.parked.borrow_mut().pop_back(),
            false => self.backend.parked.borrow_mut().pop_front(),
        };
        let (notify, body) = popped.expect("an enabled worker has a parked notify");
        notify(body);
    }
}

impl Model for Pipeline {
    fn threads(&self) -> usize {
        4
    }

    fn done(&self, t: usize) -> bool {
        match t {
            CLIENT => self.bursts.is_empty(),
            REACTOR => self.reactor.conns.values().all(Connection::flushed),
            _ => self.backend.parked.borrow().is_empty(),
        }
    }

    fn enabled(&self, t: usize) -> bool {
        if t != REACTOR {
            return !self.done(t);
        }
        // Every ready fd is reported and re-queued in order, so looking
        // leaves the kernel's ready list as it was. A zero timeout never
        // sleeps, so there is no wait for a signal to interrupt.
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = unsafe { epoll_wait(self.reactor.epoll.0, events.as_mut_ptr(), 8, 0) };
        assert!(n >= 0, "{}", std::io::Error::last_os_error());
        n > 0
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        match t {
            CLIENT => {
                let burst = self.bursts.pop_front().expect("enabled");
                match self.client.write(&burst) {
                    Ok(n) if n == burst.len() => {}
                    other => return Err(format!("client wrote {other:?} of {}", burst.len())),
                }
            }
            REACTOR => {
                let turn = self
                    .reactor
                    .turn(&self.acceptor, &self.backend, false, false);
                if !matches!(turn, Ok(true)) || self.reactor.conns.len() != 1 {
                    return Err(format!(
                        "turn returned {turn:?}, {} connections open",
                        self.reactor.conns.len()
                    ));
                }
            }
            WORKER_A => self.run_notify(false),
            WORKER_B => self.run_notify(true),
            _ => unreachable!("four threads"),
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), String> {
        // Everything the socket holds; an open, drained one would block.
        let mut got = Vec::new();
        match (&self.client).read_to_end(&mut got) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => return Err(format!("client read ended with {other:?}")),
        }
        if got == self.expected {
            return Ok(());
        }
        let lines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
        if self.expected.starts_with(&got) {
            return Err(format!(
                "lost wakeup: {} of {} replies arrived",
                lines(&got),
                lines(&self.expected)
            ));
        }
        let at = got.iter().zip(&self.expected).take_while(|(g, e)| g == e);
        Err(format!(
            "order inversion in reply {}",
            lines(&got[..at.count()])
        ))
    }
}

/// Bursts of 300 keep schedules short against the real 256-slot
/// watermark; a compile at the head of a burst holds the whole FIFO back,
/// so the pause outlives the turn that caused it.
const TWO_BURSTS: (&[usize], &[usize]) = (&[300, 300], &[0, 128, 299, 300, 450, 599]);
const THREE_BURSTS: (&[usize], &[usize]) = (&[300, 40, 300], &[0, 150, 300, 339, 340]);

fn pipeline((bursts, compiles): (&'static [usize], &'static [usize])) -> impl Fn() -> Pipeline {
    move || Pipeline::new(bursts, compiles, false)
}

#[test]
fn pipeline_protocols_are_clean_within_the_bound() {
    let explorer = Explorer {
        max_preemptions: 5,
        ..Explorer::default()
    };
    assert_clean("pipeline bursts=300,300", &explorer, pipeline(TWO_BURSTS));
    assert_clean(
        "pipeline bursts=300,40,300",
        &explorer,
        pipeline(THREE_BURSTS),
    );
}

#[test]
fn pipeline_protocols_catch_a_dropped_notify() {
    let (bursts, compiles) = TWO_BURSTS;
    // Pinned: both bursts written, one turn — the head compile's notify is
    // gone, so the FIFO pauses at the watermark behind a slot nobody
    // fills, and the one compile that was parked cannot move it.
    assert_violates(
        "pipeline dropped-notify",
        || Pipeline::new(bursts, compiles, true),
        "deadlock/lost wakeup",
        "0.0.1.2.1",
    );
}

#[test]
fn a_serial_run_pauses_at_the_watermark_and_resumes() {
    // The client writes everything, then whoever can run does, lowest
    // thread first: the reactor until it parks, then one worker.
    let mut m = pipeline(THREE_BURSTS)();
    let mut schedule = Vec::new();
    // After each turn: (paused, slots, EPOLLIN registered).
    let mut trace = Vec::new();
    while let Some(t) = (0..m.threads()).find(|&t| m.enabled(t)) {
        m.step(t).expect("clean step");
        schedule.push(t);
        if t == REACTOR {
            let conn = m.reactor.conns.values().next().expect("one connection");
            trace.push((conn.paused, conn.slots.len(), conn.interest & EPOLLIN != 0));
        }
    }
    m.finish().expect("every reply, in order");
    println!("protocols: pipeline serial trace {trace:?}");
    let held = (true, MAX_PIPELINE, false);
    let pauses = trace.iter().filter(|&&after| after == held).count();
    assert!(pauses >= 2, "paused at the watermark, EPOLLIN dropped");
    assert_eq!(trace.last(), Some(&(false, 0, true)), "resumed and drained");
    let schedule = polyufc_chk::explore::schedule_string(&schedule);
    replay(pipeline(THREE_BURSTS), &schedule).expect("the serial schedule replays clean");
}
