//! The daemon shell around the [`Engine`](crate::engine::Engine):
//! listeners, connection admission, and clean shutdown on SIGINT/SIGTERM,
//! a `shutdown` request, or a `ShutdownHandle`.
//!
//! The daemon is Linux/epoll only: [`Server::run`] hands the listener to
//! the epoll `reactor` — one event-loop thread owns every connection,
//! requests pipeline, and nothing sleeps; compile completions and signals
//! arrive through an eventfd doorbell. On other targets [`Server::bind`]
//! reports [`std::io::ErrorKind::Unsupported`] and the rest of the crate
//! (the one-shot path behind `polyufc compile --json`) builds unchanged.
//!
//! Shutdown is event-driven end to end: the signal handler both sets
//! `SIGNALLED` *and* writes the doorbell (one `write(2)` — both are
//! async-signal-safe), so a parked `epoll_wait` wakes immediately instead
//! of on its next timeout. `ShutdownHandle::shutdown` does the same
//! from safe code; tests use it to stop a daemon without a signal.
//!
//! Admission is bounded: at most `max_conns` concurrent connections
//! (default 1024, `--max-conns`); a connection past
//! the limit is answered with one typed `overloaded` line and closed at
//! accept, before it can buffer requests the daemon cannot serve.

use crate::engine::EngineConfig;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7077` (or `:0` for an ephemeral
    /// port, which tests and the benchmark use).
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

/// Daemon configuration: where to listen and how to size the engine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listener address.
    pub listen: Listen,
    /// Engine sizing (workers, queue, cache).
    pub engine: EngineConfig,
}

#[cfg(target_os = "linux")]
pub(crate) use daemon::{admission_reject_line, signalled, Acceptor, Conn};
#[cfg(target_os = "linux")]
pub use daemon::{install_signal_handlers, Server, ShutdownHandle};
#[cfg(not(target_os = "linux"))]
pub use unsupported::{install_signal_handlers, Server};

/// The daemon proper: everything that touches a socket, a signal or the
/// reactor.
#[cfg(target_os = "linux")]
mod daemon {
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::Arc;

    use super::{Listen, ServerConfig};
    use crate::engine::Engine;
    use crate::protocol::{codes, render_error};
    use crate::reactor::WakeupFd;

    /// Set by the SIGINT/SIGTERM handler; the event loop checks it on
    /// every wakeup.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    /// The reactor's doorbell fd, published while a daemon runs so the
    /// signal handler can wake a parked `epoll_wait`; −1 when no daemon is
    /// running.
    static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    pub(crate) fn signalled() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    /// Installs process-wide SIGINT/SIGTERM handlers that request a clean
    /// drain-and-stop. Uses the C `signal` entry point directly — the only
    /// async-signal work is one atomic store plus one `write(2)` to the
    /// reactor's doorbell (both async-signal-safe), and the workspace
    /// vendors no libc crate.
    pub fn install_signal_handlers() {
        // chk:signal-handler
        extern "C" fn on_signal(_sig: i32) {
            extern "C" {
                fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
            }
            SIGNALLED.store(true, Ordering::SeqCst);
            let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
            if fd >= 0 {
                let one: u64 = 1;
                unsafe { write(fd, (&one as *const u64).cast(), 8) };
            }
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub(crate) enum Acceptor {
        Tcp(TcpListener),
        Unix(UnixListener, PathBuf),
    }

    impl Acceptor {
        /// One nonblocking accept; `Ok(None)` when no connection is
        /// pending. Restarts on EINTR — `accept(2)` never auto-restarts
        /// under the BSD `signal()` semantics glibc installs, so without
        /// the loop one signal landing mid-accept would bubble an error
        /// out of the reactor and kill the daemon.
        pub(crate) fn accept(&self) -> std::io::Result<Option<Conn>> {
            loop {
                let result = match self {
                    Acceptor::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                    Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
                };
                match result {
                    Ok(conn) => return Ok(Some(conn)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        pub(crate) fn raw_fd(&self) -> i32 {
            match self {
                Acceptor::Tcp(l) => l.as_raw_fd(),
                Acceptor::Unix(l, _) => l.as_raw_fd(),
            }
        }
    }

    pub(crate) enum Conn {
        Tcp(TcpStream),
        Unix(UnixStream),
    }

    impl Conn {
        /// Socket options for the reactor: nonblocking, and NODELAY on
        /// TCP — one small write per response round trip must not wait
        /// out Nagle.
        pub(crate) fn prepare_nonblocking(&self) -> std::io::Result<()> {
            match self {
                Conn::Tcp(s) => {
                    let _ = s.set_nodelay(true);
                    s.set_nonblocking(true)
                }
                Conn::Unix(s) => s.set_nonblocking(true),
            }
        }

        pub(crate) fn raw_fd(&self) -> i32 {
            match self {
                Conn::Tcp(s) => s.as_raw_fd(),
                Conn::Unix(s) => s.as_raw_fd(),
            }
        }
    }

    impl Read for Conn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self {
                Conn::Tcp(s) => s.read(buf),
                Conn::Unix(s) => s.read(buf),
            }
        }
    }

    impl Write for Conn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self {
                Conn::Tcp(s) => s.write(buf),
                Conn::Unix(s) => s.write(buf),
            }
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            // Both streams lower this onto writev(2): one syscall flushes
            // a whole batch of pipelined response bodies.
            match self {
                Conn::Tcp(s) => s.write_vectored(bufs),
                Conn::Unix(s) => s.write_vectored(bufs),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            match self {
                Conn::Tcp(s) => s.flush(),
                Conn::Unix(s) => s.flush(),
            }
        }
    }

    /// The one typed response an over-limit connection receives at accept.
    pub(crate) fn admission_reject_line() -> String {
        let mut s = render_error(
            codes::OVERLOADED,
            "connection limit reached; retry against a less loaded daemon",
        );
        s.push('\n');
        s
    }

    /// Concurrent connections admitted unless [`Server::set_max_conns`]
    /// says otherwise.
    const DEFAULT_MAX_CONNS: usize = 1024;

    /// Stops a running daemon from outside: sets the stop flag *and* rings
    /// the reactor's doorbell, so a parked `epoll_wait` observes the
    /// request immediately rather than on its next timeout. Clone freely;
    /// all clones control the same daemon.
    #[derive(Clone)]
    pub struct ShutdownHandle {
        flag: Arc<AtomicBool>,
        wake: Arc<WakeupFd>,
    }

    impl std::fmt::Debug for ShutdownHandle {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ShutdownHandle")
                .field("requested", &self.flag.load(Ordering::SeqCst))
                .finish()
        }
    }

    impl ShutdownHandle {
        /// Requests a clean drain-and-stop.
        pub fn shutdown(&self) {
            self.flag.store(true, Ordering::SeqCst);
            self.wake.ring();
        }
    }

    /// A bound, not-yet-running daemon.
    pub struct Server {
        acceptor: Acceptor,
        engine: Arc<Engine>,
        stop: Arc<AtomicBool>,
        max_conns: usize,
        wakeup: Arc<WakeupFd>,
    }

    impl Server {
        /// Binds the listener, spins up the engine, and creates the
        /// reactor's doorbell eventfd.
        ///
        /// # Errors
        ///
        /// Propagates bind errors (address in use, bad path, ...).
        pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
            let acceptor = match &cfg.listen {
                Listen::Tcp(addr) => {
                    let l = TcpListener::bind(addr)?;
                    l.set_nonblocking(true)?;
                    Acceptor::Tcp(l)
                }
                Listen::Unix(path) => {
                    // A stale socket file from a crashed run would make
                    // bind fail forever; only an unbound path is safe to
                    // clear.
                    if path.exists() && UnixStream::connect(path).is_err() {
                        let _ = std::fs::remove_file(path);
                    }
                    let l = UnixListener::bind(path)?;
                    l.set_nonblocking(true)?;
                    Acceptor::Unix(l, path.clone())
                }
            };
            Ok(Server {
                acceptor,
                engine: Arc::new(Engine::new(&cfg.engine)),
                stop: Arc::new(AtomicBool::new(false)),
                max_conns: DEFAULT_MAX_CONNS,
                wakeup: Arc::new(WakeupFd::new()?),
            })
        }

        /// The actually-bound TCP address (for `:0` ephemeral binds);
        /// `None` for unix sockets.
        pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
            match &self.acceptor {
                Acceptor::Tcp(l) => l.local_addr().ok(),
                Acceptor::Unix(..) => None,
            }
        }

        /// The engine, for out-of-band inspection (tests, the benchmark).
        pub fn engine(&self) -> Arc<Engine> {
            Arc::clone(&self.engine)
        }

        /// A handle that stops this daemon cleanly from another thread.
        pub fn shutdown_handle(&self) -> ShutdownHandle {
            ShutdownHandle {
                flag: Arc::clone(&self.stop),
                wake: Arc::clone(&self.wakeup),
            }
        }

        /// Caps concurrent connections (at least 1); connections past the
        /// cap are answered with one typed `overloaded` line and closed at
        /// accept.
        pub fn set_max_conns(&mut self, max_conns: usize) {
            self.max_conns = max_conns.max(1);
        }

        /// Serves until a `shutdown` request, SIGINT/SIGTERM, or a
        /// [`ShutdownHandle`]; then drains in-flight connections and
        /// compiles and returns.
        ///
        /// # Errors
        ///
        /// Propagates listener/reactor I/O errors other than `WouldBlock`.
        pub fn run(self) -> std::io::Result<()> {
            let Server {
                acceptor,
                engine,
                stop,
                max_conns,
                wakeup,
            } = self;
            SIGNAL_WAKE_FD.store(wakeup.fd(), Ordering::SeqCst);
            let result = crate::reactor::run(&acceptor, &engine, &stop, &wakeup, max_conns);
            SIGNAL_WAKE_FD.store(-1, Ordering::SeqCst);
            if let Acceptor::Unix(_, path) = &acceptor {
                let _ = std::fs::remove_file(path);
            }
            drop(acceptor);
            // Drain the engine through the shared reference — tests and the
            // benchmark hold extra engine Arcs, and a hung worker must not
            // outlive the daemon because of them: stops the watchdog, gives
            // workers the shutdown grace, then ends any still-pending
            // compile with a typed `shutting_down` error.
            engine.shutdown();
            result
        }
    }
}

/// What callers see where there is no epoll: [`Server`] has no values and
/// [`Server::bind`] always fails, so everything after a successful bind is
/// statically unreachable.
#[cfg(not(target_os = "linux"))]
mod unsupported {
    use super::ServerConfig;

    /// No daemon runs on this target, so there is nothing to signal.
    pub fn install_signal_handlers() {}

    /// The daemon; uninhabited on this target.
    #[derive(Debug)]
    pub enum Server {}

    impl Server {
        /// Always fails: the daemon is Linux/epoll only.
        ///
        /// # Errors
        ///
        /// [`std::io::ErrorKind::Unsupported`], unconditionally.
        pub fn bind(_cfg: &ServerConfig) -> std::io::Result<Server> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "polyufc serve needs Linux (epoll)",
            ))
        }

        /// Unreachable: no `Server` exists on this target.
        pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
            match *self {}
        }

        /// Unreachable: no `Server` exists on this target.
        pub fn set_max_conns(&mut self, _max_conns: usize) {
            match *self {}
        }

        /// Unreachable: no `Server` exists on this target.
        pub fn run(self) -> std::io::Result<()> {
            match self {}
        }
    }
}
