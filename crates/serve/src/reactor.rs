//! The epoll event loop: one thread, every connection, no sleeps.
//!
//! A single level-triggered epoll loop built on raw FFI (the workspace
//! vendors no libc crate; [`crate::server`] declares `signal(2)` the same
//! way):
//!
//! * **Nonblocking everything.** The listener, every connection, and the
//!   doorbell eventfd are registered with one epoll instance; the loop
//!   parks in `epoll_wait` and does work only when the kernel has some.
//! * **Pipelining with in-order replies.** A client may write many NDJSON
//!   requests without reading. Each connection keeps a FIFO of response
//!   *slots*; a request claims the next slot at parse time, fast-path
//!   responses fill it immediately, and compiles fill it from a worker
//!   via the completion queue + doorbell. Writes flush the longest
//!   ready prefix of the FIFO — replies leave in request order no matter
//!   what order compiles finish.
//! * **Zero-copy bodies.** Responses are `Arc<[u8]>` shared with the
//!   artifact cache; a flush gathers up to [`MAX_IOVECS`] bodies and
//!   their newlines into one `writev(2)` (via `write_vectored`).
//! * **Bounded everything.** Connections are capped at accept
//!   ([`crate::server::Server::set_max_conns`]); per-connection input is
//!   capped by the oversized-line resync (constant memory, one typed
//!   error, stream stays line-synchronized); pipelining depth is capped
//!   at [`MAX_PIPELINE`] — past it the reactor simply stops reading that
//!   socket and lets TCP flow control push back.
//!
//! Shutdown (signal, `shutdown` op, or [`crate::server::ShutdownHandle`])
//! flips the loop into drain mode: stop accepting, stop reading, keep
//! the loop alive until every claimed slot is filled and flushed or the
//! drain deadline passes, then tear down.

use polyufc_chk::OrderedMutex;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chaos::ChaosPlan;
use crate::engine::{Engine, Submitted};
use crate::protocol::{codes, render_error, MAX_REQUEST_BYTES};
use crate::server::{admission_reject_line, signalled, Acceptor, Conn};
use crate::shard::Body;

// epoll / eventfd FFI. Constants are from the Linux UAPI headers and are
// identical across architectures; the event struct is packed on x86_64
// only (a kernel ABI quirk inherited from the 32-bit days).
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0o4000;

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
    fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// The reactor's doorbell: a nonblocking eventfd counter. Every
/// completion rings it once, right after queueing its body (the `notify`
/// closure in `ingest`), [`crate::server::ShutdownHandle`] rings it on
/// stop, and the signal handler rings it from async context — all
/// collapse into one `EPOLLIN` on the event loop.
pub(crate) struct WakeupFd {
    fd: i32,
}

impl WakeupFd {
    pub(crate) fn new() -> std::io::Result<WakeupFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakeupFd { fd })
    }

    pub(crate) fn fd(&self) -> i32 {
        self.fd
    }

    /// Adds 1 to the counter; wakes an `epoll_wait` parked on this fd.
    /// Safe to call from any thread, any number of times; rings coalesce.
    /// Restarts on EINTR: a signal storm must not eat a doorbell ring —
    /// a completion whose ring vanished would strand its reply until
    /// the next unrelated wakeup.
    pub(crate) fn ring(&self) {
        let one: u64 = 1;
        loop {
            let n = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
            if n >= 0 || std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
                return;
            }
        }
    }

    /// Resets the counter so level-triggered epoll stops reporting it.
    /// Restarts on EINTR — a failed drain would leave the eventfd
    /// permanently readable and turn the loop into a spin.
    fn drain(&self) {
        let mut count: u64 = 0;
        loop {
            let n = unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
            if n >= 0 || std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
                return;
            }
        }
    }
}

impl Drop for WakeupFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// An i32 fd is freely shareable; the syscalls above are thread-safe.
unsafe impl Send for WakeupFd {}
unsafe impl Sync for WakeupFd {}

/// Epoll token of the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the doorbell.
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// Max responses awaiting completion or flush per connection before the
/// reactor stops reading that socket (TCP flow control backpressures the
/// client). Re-reading resumes below half of this.
const MAX_PIPELINE: usize = 256;
/// Max gathered (body, newline) pairs per `writev`.
const MAX_IOVECS: usize = 64;
/// How long drain mode waits for claimed slots to fill and flush.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A finished compile headed for connection `0`'s slot `1`.
type Completion = (u64, u64, Body);

struct Connection {
    sock: Conn,
    /// Bytes received but not yet parsed into a line.
    rbuf: Vec<u8>,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
    /// Response FIFO in request order; `None` = claimed by an in-flight
    /// compile. `slots[i]` answers request `base_seq + i`.
    slots: VecDeque<Option<Body>>,
    /// Sequence number of `slots[0]`.
    base_seq: u64,
    /// Sequence number the next parsed request will claim.
    next_seq: u64,
    /// Bytes of `slots[0]` + its newline already written.
    written: usize,
    /// Event mask currently registered with epoll.
    interest: u32,
    /// Pipelining cap reached: not reading until the FIFO drains.
    paused: bool,
    /// Read side saw EOF/RDHUP; close once the FIFO flushes.
    peer_closed: bool,
    /// Unrecoverable socket error; close now, drop pending slots.
    dead: bool,
    /// Per-connection I/O sequence number, bumped per read or write
    /// syscall: the salt of that syscall's chaos draw.
    io_salt: u64,
}

impl Connection {
    fn new(sock: Conn) -> Connection {
        Connection {
            sock,
            rbuf: Vec::new(),
            discarding: false,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            written: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            paused: false,
            peer_closed: false,
            dead: false,
            io_salt: 0,
        }
    }

    fn slot_ready(&mut self, body: Body) {
        self.next_seq += 1;
        self.slots.push_back(Some(body));
    }

    fn claim_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(None);
        seq
    }

    fn fill_slot(&mut self, seq: u64, body: Body) {
        if let Some(idx) = seq.checked_sub(self.base_seq) {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                *slot = Some(body);
            }
        }
    }

    /// Whether every claimed slot has been answered and written.
    fn flushed(&self) -> bool {
        self.slots.is_empty()
    }

    fn should_close(&self) -> bool {
        self.dead || (self.peer_closed && self.flushed())
    }
}

fn epoll_add(epfd: i32, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

fn epoll_mod(epfd: i32, fd: i32, events: u32, token: u64) {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    unsafe { epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &mut ev) };
}

fn epoll_del(epfd: i32, fd: i32) {
    let mut ev = EpollEvent { events: 0, data: 0 };
    unsafe { epoll_ctl(epfd, EPOLL_CTL_DEL, fd, &mut ev) };
}

/// Closes the epoll fd even on early error returns.
struct EpollGuard(i32);

impl Drop for EpollGuard {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// What the event loop needs of the engine. This trait is the only seam
/// in the loop: it exists so `reactor/protocols.rs` can hand
/// [`Reactor::turn`] a scripted engine, and hides nothing else.
pub(crate) trait Backend {
    /// [`Engine::submit`].
    fn submit<F>(&self, line: &str, notify: F) -> Submitted
    where
        F: FnOnce(Body) + Send + 'static;
    /// [`Engine::chaos`].
    fn chaos(&self) -> &ChaosPlan;
}

impl Backend for Engine {
    fn submit<F>(&self, line: &str, notify: F) -> Submitted
    where
        F: FnOnce(Body) + Send + 'static,
    {
        Engine::submit(self, line, notify)
    }

    fn chaos(&self) -> &ChaosPlan {
        Engine::chaos(self)
    }
}

/// The event loop's state between two iterations.
pub(crate) struct Reactor {
    epoll: EpollGuard,
    /// Where `epoll_wait` reports; allocated once, like the loop's state.
    events: [EpollEvent; 128],
    wakeup: Arc<WakeupFd>,
    max_conns: usize,
    completions: Arc<OrderedMutex<Vec<Completion>>>,
    conns: HashMap<u64, Connection>,
    next_id: u64,
    stopping: bool,
    drain_deadline: Option<Instant>,
}

/// Runs the event loop until shutdown; returns after drain.
// chk:reactor-thread
pub(crate) fn run(
    acceptor: &Acceptor,
    engine: &Engine,
    stop: &Arc<AtomicBool>,
    wakeup: &Arc<WakeupFd>,
    max_conns: usize,
) -> std::io::Result<()> {
    let mut reactor = Reactor::new(acceptor, wakeup, max_conns)?;
    let stop_requested = || stop.load(Ordering::SeqCst) || signalled();
    while reactor.turn(acceptor, engine, stop_requested(), true)? {}
    // Teardown: close every socket; pending compiles finish inside the
    // pool during Engine::shutdown, their completions going nowhere.
    for (_, conn) in reactor.conns.drain() {
        epoll_del(reactor.epoll.0, conn.sock.raw_fd());
    }
    Ok(())
}

impl Reactor {
    /// An epoll instance watching the listener and the doorbell.
    pub(crate) fn new(
        acceptor: &Acceptor,
        wakeup: &Arc<WakeupFd>,
        max_conns: usize,
    ) -> std::io::Result<Reactor> {
        let epfd = unsafe { epoll_create1(0) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let epoll = EpollGuard(epfd);
        epoll_add(epfd, acceptor.raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll_add(epfd, wakeup.fd(), EPOLLIN, TOKEN_WAKEUP)?;
        Ok(Reactor {
            epoll,
            events: [EpollEvent { events: 0, data: 0 }; 128],
            wakeup: Arc::clone(wakeup),
            max_conns,
            completions: Arc::new(OrderedMutex::new("serve.reactor.completions", Vec::new())),
            conns: HashMap::new(),
            next_id: 0,
            stopping: false,
            drain_deadline: None,
        })
    }

    /// One iteration of the event loop: wait for events (`park == false`
    /// only polls), ingest, fill, flush. `false` once a requested stop
    /// has drained and the loop should end.
    // chk:reactor-thread
    pub(crate) fn turn<B: Backend>(
        &mut self,
        acceptor: &Acceptor,
        backend: &B,
        stop_requested: bool,
        park: bool,
    ) -> std::io::Result<bool> {
        let epfd = self.epoll.0;
        self.stopping |= stop_requested;
        if self.stopping && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            epoll_del(epfd, acceptor.raw_fd());
        }
        if self.stopping {
            let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
            if expired || self.conns.values().all(Connection::flushed) {
                return Ok(false);
            }
        }

        let timeout_ms = match (park, self.stopping) {
            (false, _) => 0,
            (true, true) => 50,
            (true, false) => 500,
        };
        let events = &mut self.events;
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                return Ok(true);
            }
            return Err(e);
        }

        let mut touched: Vec<u64> = Vec::new();
        for ev in &self.events[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let token = ev.data;
            let mask = ev.events;
            match token {
                TOKEN_WAKEUP => self.wakeup.drain(),
                TOKEN_LISTENER => {
                    if !self.stopping {
                        let (conns, next_id) = (&mut self.conns, &mut self.next_id);
                        accept_all(epfd, acceptor, conns, next_id, self.max_conns)?;
                    }
                }
                id => {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        continue;
                    };
                    if mask & EPOLLERR != 0 {
                        conn.dead = true;
                    }
                    if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0
                        && !conn.dead
                        && !conn.paused
                        && !self.stopping
                    {
                        self.stopping |= ingest(conn, id, backend, &self.completions, &self.wakeup);
                    } else if mask & EPOLLHUP != 0 {
                        conn.peer_closed = true;
                    }
                    touched.push(id);
                }
            }
        }

        // Completions (from workers, the watchdog, and inline sheds from
        // this very iteration) fill their slots now; their connections
        // then flush alongside the ones with socket events.
        for (id, seq, body) in drain_completions(&self.completions) {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.fill_slot(seq, body);
                touched.push(id);
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            // Flush, and resume a paused connection once its FIFO drains
            // below the low-water mark — repeatedly, because a resume can
            // refill to the cap and the next flush can drain it right
            // back down. Stopping anywhere in between would strand a
            // paused connection with no registered interest and no
            // future event. The loop ends when the socket runs dry
            // (`WouldBlock` leaves `paused` false) or the FIFO stays
            // above the mark (EPOLLOUT is registered and drives the next
            // round).
            loop {
                if !conn.dead {
                    if let Err(_e) = flush(conn, id, backend) {
                        conn.dead = true;
                    }
                }
                let resume = conn.paused
                    && !conn.dead
                    && !self.stopping
                    && conn.slots.len() <= MAX_PIPELINE / 2;
                if !resume {
                    break;
                }
                // Resume reading, starting with any bytes already
                // buffered (epoll will not re-announce those).
                conn.paused = false;
                self.stopping |= ingest(conn, id, backend, &self.completions, &self.wakeup);
            }
            if conn.should_close() {
                let fd = conn.sock.raw_fd();
                epoll_del(epfd, fd);
                self.conns.remove(&id);
            } else {
                update_interest(epfd, conn, id);
            }
        }
        Ok(true)
    }
}

/// Accepts until `WouldBlock`; connections past `max_conns` get one typed
/// `overloaded` line and an immediate close.
// chk:reactor-thread
fn accept_all(
    epfd: i32,
    acceptor: &Acceptor,
    conns: &mut HashMap<u64, Connection>,
    next_id: &mut u64,
    max_conns: usize,
) -> std::io::Result<()> {
    while let Some(sock) = acceptor.accept()? {
        if conns.len() >= max_conns {
            let mut sock = sock;
            let _ = sock.prepare_nonblocking();
            // Best effort: ~100 bytes into a fresh socket buffer will not
            // block; if it somehow does, the close alone signals shed.
            let _ = sock.write(admission_reject_line().as_bytes());
            continue;
        }
        if sock.prepare_nonblocking().is_err() {
            continue;
        }
        let id = *next_id;
        // Skip the reserved tokens on wraparound (a daemon would need
        // ~2^64 connections to get here, but the check is free).
        *next_id = next_id.wrapping_add(1);
        if *next_id >= TOKEN_WAKEUP {
            *next_id = 0;
        }
        let conn = Connection::new(sock);
        if epoll_add(epfd, conn.sock.raw_fd(), conn.interest, id).is_ok() {
            conns.insert(id, conn);
        }
    }
    Ok(())
}

/// Reads and parses everything available on one socket, claiming a slot
/// per request and submitting compiles. Returns `true` when a `shutdown`
/// request asks the daemon to drain and stop.
// chk:reactor-thread
fn ingest<B: Backend>(
    conn: &mut Connection,
    id: u64,
    engine: &B,
    completions: &Arc<OrderedMutex<Vec<Completion>>>,
    wakeup: &Arc<WakeupFd>,
) -> bool {
    let mut buf = [0u8; 16384];
    loop {
        // Parse every complete line currently buffered, in place; the
        // consumed prefix is dropped once, after the walk.
        let rbuf = std::mem::take(&mut conn.rbuf);
        let mut consumed = 0;
        let mut stop = None;
        while let Some(len) = rbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &rbuf[consumed..consumed + len];
            consumed += len + 1;
            if conn.discarding {
                // The tail of an oversized line: its error reply was
                // slotted when the cap tripped; the stream is now
                // line-synchronized again.
                conn.discarding = false;
                continue;
            }
            let text = match std::str::from_utf8(line) {
                Ok(t) => t.trim(),
                Err(_) => {
                    let body = render_error(codes::BAD_JSON, "request line is not valid UTF-8");
                    conn.slot_ready(Arc::from(body.into_bytes().into_boxed_slice()));
                    continue;
                }
            };
            if text.is_empty() {
                continue;
            }
            let seq = conn.claim_slot();
            let notify = {
                let completions = Arc::clone(completions);
                let wakeup = Arc::clone(wakeup);
                move |body: Body| {
                    completions.lock().unwrap().push((id, seq, body));
                    wakeup.ring();
                }
            };
            match engine.submit(text, notify) {
                Submitted::Ready(body) => conn.fill_slot(seq, body),
                Submitted::ReadyShutdown(body) => {
                    conn.fill_slot(seq, body);
                    stop = Some(true);
                    break;
                }
                Submitted::Pending => {}
            }
            if conn.slots.len() >= MAX_PIPELINE {
                conn.paused = true;
                stop = Some(false);
                break;
            }
        }
        conn.rbuf = rbuf;
        conn.rbuf.drain(..consumed);
        if let Some(shutdown) = stop {
            return shutdown;
        }
        // A partial line past the cap: answer once, then discard to the
        // next newline in constant memory.
        if !conn.discarding && conn.rbuf.len() > MAX_REQUEST_BYTES {
            conn.discarding = true;
            conn.rbuf.clear();
            let body = render_error(
                codes::OVERSIZED,
                &format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            );
            conn.slot_ready(Arc::from(body.into_bytes().into_boxed_slice()));
        }
        if conn.discarding {
            conn.rbuf.clear();
        }
        // Chaos: clamp this read short (≥1 byte — zero would read as
        // EOF), forcing the line accumulator through arbitrary split
        // points. A pristine plan never clamps.
        let salt = conn.io_salt;
        conn.io_salt += 1;
        let cap = match engine.chaos().read_clamp(id, salt) {
            Some(k) => k.clamp(1, buf.len()),
            None => buf.len(),
        };
        match conn.sock.read(&mut buf[..cap]) {
            Ok(0) => {
                conn.peer_closed = true;
                return false;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }
}

/// Writes the longest ready prefix of the response FIFO, gathering up to
/// [`MAX_IOVECS`] bodies per `writev`.
///
/// # Errors
///
/// Any socket error other than `WouldBlock` (the connection should be
/// closed).
// chk:reactor-thread
fn flush<B: Backend>(conn: &mut Connection, id: u64, engine: &B) -> std::io::Result<()> {
    const NEWLINE: &[u8] = b"\n";
    loop {
        let mut iovecs: Vec<IoSlice<'_>> = Vec::new();
        for slot in conn.slots.iter().take(MAX_IOVECS) {
            match slot {
                Some(body) => {
                    let skip = if iovecs.is_empty() { conn.written } else { 0 };
                    if skip <= body.len() {
                        iovecs.push(IoSlice::new(&body[skip..]));
                        iovecs.push(IoSlice::new(NEWLINE));
                    } else {
                        // Mid-newline: only the terminator remains.
                        iovecs.push(IoSlice::new(NEWLINE));
                    }
                }
                None => break,
            }
        }
        if iovecs.is_empty() {
            return Ok(());
        }
        // Chaos: clamp this write short (≥1 byte — a zero-byte write is
        // `WriteZero` and would kill the connection), driving the
        // partial-write accounting below through every resume path. The
        // clamped write moves a prefix of the logical stream, so the
        // accounting loop needs no special casing.
        let salt = conn.io_salt;
        conn.io_salt += 1;
        let wrote = match engine.chaos().write_clamp(id, salt) {
            Some(k) => {
                let first = iovecs
                    .iter()
                    .find(|s| !s.is_empty())
                    .expect("nonempty iovec: every entry pairs with a newline");
                let k = k.clamp(1, first.len());
                conn.sock.write(&first[..k])
            }
            None => conn.sock.write_vectored(&iovecs),
        };
        match wrote {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(mut n) => {
                while n > 0 {
                    let front_len = match conn.slots.front() {
                        Some(Some(body)) => body.len() + 1,
                        _ => break,
                    };
                    let remaining = front_len - conn.written;
                    if n >= remaining {
                        n -= remaining;
                        conn.slots.pop_front();
                        conn.base_seq += 1;
                        conn.written = 0;
                    } else {
                        conn.written += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Re-registers the connection's epoll mask when it changed: `EPOLLOUT`
/// only while a flush is blocked, `EPOLLIN` only while not paused.
// chk:reactor-thread
fn update_interest(epfd: i32, conn: &mut Connection, id: u64) {
    let mut want = EPOLLRDHUP;
    if !conn.paused && !conn.peer_closed {
        want |= EPOLLIN;
    }
    if matches!(conn.slots.front(), Some(Some(_))) {
        want |= EPOLLOUT;
    }
    if want != conn.interest {
        conn.interest = want;
        epoll_mod(epfd, conn.sock.raw_fd(), want, id);
    }
}

// chk:reactor-thread
fn drain_completions(completions: &Arc<OrderedMutex<Vec<Completion>>>) -> Vec<Completion> {
    std::mem::take(&mut *completions.lock().unwrap())
}

#[cfg(test)]
mod protocols;
