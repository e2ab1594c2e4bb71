//! Lock-order-checked synchronization primitives (lockdep).
//!
//! [`OrderedMutex`] mirrors the `std::sync::Mutex` API with one
//! addition: every lock is created with a `&'static str` *site name*
//! (its lock class, e.g. `"serve.shard"`). With the `lockdep` feature
//! enabled, each acquisition records an edge `top-of-held-stack → class`
//! in a process-global order graph; a new edge that closes a directed
//! cycle is reported immediately with the witness cycle and the
//! acquisition backtraces of both the new edge and the first recorded
//! edge on the return path. Same-class nesting (two locks of one class
//! held at once) is reported as a self-cycle.
//!
//! Detection is *online* but non-fatal by default: the daemon keeps
//! serving, the report lands on stderr once per closing edge, and the
//! cycle count is exported via [`lockdep_stats`] (surfaced by
//! `polyufc stats` as the `chk` section). Set `POLYUFC_LOCKDEP_PANIC=1`
//! to turn a detected cycle into a panic (used by the regression tests).
//!
//! Without the feature the wrapper is a `#[repr(transparent)]` newtype
//! over `std::sync::Mutex` with `#[inline]` passthrough — the
//! compile-time assertion at the bottom of this file pins the layout, and
//! the `serve_*` ledger workloads (`benchmark/`) watch the behavior.
//!
//! There is deliberately no condvar wrapper: the daemon parks on channels
//! and its eventfd, and a bare `Condvar` would be invisible to the
//! detector (the self-lint rejects one in adopted files).
//!
//! Poison-safety: the detector's own state is guarded by a std mutex that
//! is always re-entered through poison recovery, and the per-thread held
//! stack is popped by guard `Drop` (which runs during unwinding), so a
//! panicking lock holder can neither wedge nor corrupt the detector — see
//! the `poisoned_holder_does_not_wedge_detector` regression test.

/// Aggregate lockdep counters for the `chk` stats section.
///
/// `None` is returned by [`lockdep_stats`] when the crate is built
/// without the `lockdep` feature, so callers emit nothing and the
/// default build's output stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockdepStats {
    /// Distinct lock classes (site names) registered so far.
    pub sites: u64,
    /// Distinct acquisition-order edges observed so far.
    pub edges: u64,
    /// Longest acyclic chain in the order graph (max graph depth).
    pub max_chain: u64,
    /// Lock-order cycles detected (0 in a well-ordered process).
    pub cycles: u64,
}

#[cfg(feature = "lockdep")]
mod imp {
    use super::LockdepStats;
    use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

    mod detector {
        use super::LockdepStats;
        use std::cell::RefCell;
        use std::collections::HashMap;
        use std::sync::Mutex;

        pub type ClassId = u16;

        struct Edge {
            /// Backtrace captured when this edge was first observed.
            stack: String,
        }

        struct Graph {
            names: Vec<&'static str>,
            ids: HashMap<&'static str, ClassId>,
            edges: HashMap<(ClassId, ClassId), Edge>,
            adj: Vec<Vec<ClassId>>,
            cycles: u64,
            last_cycle: Option<String>,
        }

        impl Graph {
            fn new() -> Self {
                Graph {
                    names: Vec::new(),
                    ids: HashMap::new(),
                    edges: HashMap::new(),
                    adj: Vec::new(),
                    cycles: 0,
                    last_cycle: None,
                }
            }

            fn intern(&mut self, site: &'static str) -> ClassId {
                if let Some(&id) = self.ids.get(site) {
                    return id;
                }
                let id = self.names.len() as ClassId;
                self.names.push(site);
                self.ids.insert(site, id);
                self.adj.push(Vec::new());
                id
            }

            /// Path from `from` to `to` along recorded edges, if any.
            fn find_path(&self, from: ClassId, to: ClassId) -> Option<Vec<ClassId>> {
                let mut stack = vec![vec![from]];
                let mut seen = vec![false; self.names.len()];
                seen[from as usize] = true;
                while let Some(path) = stack.pop() {
                    let last = *path.last().expect("non-empty path");
                    if last == to {
                        return Some(path);
                    }
                    for &next in &self.adj[last as usize] {
                        if !seen[next as usize] {
                            seen[next as usize] = true;
                            let mut p = path.clone();
                            p.push(next);
                            stack.push(p);
                        }
                    }
                }
                None
            }

            /// Longest acyclic chain in the order graph.
            fn max_chain(&self) -> u64 {
                fn depth(g: &Graph, node: ClassId, memo: &mut [Option<u64>], guard: usize) -> u64 {
                    if guard == 0 {
                        return 0; // cycle present: cap rather than recurse forever
                    }
                    if let Some(d) = memo[node as usize] {
                        return d;
                    }
                    let mut best = 1;
                    for &next in &g.adj[node as usize] {
                        best = best.max(1 + depth(g, next, memo, guard - 1));
                    }
                    memo[node as usize] = Some(best);
                    best
                }
                let mut memo = vec![None; self.names.len()];
                let n = self.names.len();
                (0..n as u16)
                    .map(|id| depth(self, id, &mut memo, n + 1))
                    .max()
                    .unwrap_or(0)
            }
        }

        /// Process-global order graph. Always entered through poison
        /// recovery so a panicking holder elsewhere cannot wedge it.
        static GRAPH: Mutex<Option<Graph>> = Mutex::new(None);

        thread_local! {
            /// Lock classes currently held by this thread, in acquisition
            /// order. Popped by guard `Drop`, so it stays consistent even
            /// when guards are dropped out of order or during unwinding.
            static HELD: RefCell<Vec<ClassId>> = const { RefCell::new(Vec::new()) };
        }

        fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
            let mut slot = GRAPH.lock().unwrap_or_else(|p| p.into_inner());
            f(slot.get_or_insert_with(Graph::new))
        }

        pub fn register(site: &'static str) -> ClassId {
            with_graph(|g| g.intern(site))
        }

        fn short_backtrace() -> String {
            let bt = std::backtrace::Backtrace::force_capture().to_string();
            // The full trace is dominated by runtime frames; keep enough
            // to identify the acquisition site without flooding stderr.
            let mut out = String::new();
            for line in bt.lines().take(32) {
                out.push_str("      ");
                out.push_str(line.trim_end());
                out.push('\n');
            }
            out
        }

        /// Records `class` being acquired by this thread: adds the order
        /// edge from the innermost held class (if any) and reports a
        /// witness cycle if that edge closes one.
        pub fn acquire(class: ClassId) {
            let top = HELD.with(|h| h.borrow().last().copied());
            if let Some(from) = top {
                check_edge(from, class);
            }
            HELD.with(|h| h.borrow_mut().push(class));
        }

        /// Records `class` being released by this thread. Guards may be
        /// dropped in any order, so this removes the most recent
        /// occurrence rather than insisting on LIFO.
        pub fn release(class: ClassId) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&c| c == class) {
                    held.remove(pos);
                }
            });
        }

        fn check_edge(from: ClassId, to: ClassId) {
            let report = with_graph(|g| {
                if g.edges.contains_key(&(from, to)) {
                    return None; // already validated when first observed
                }
                let new_stack = short_backtrace();
                // A cycle exists iff `to` already reaches `from` (a
                // self-edge is the degenerate `to == from` path).
                let cycle_path = if from == to {
                    Some(vec![to])
                } else {
                    g.find_path(to, from)
                };
                g.edges.insert(
                    (from, to),
                    Edge {
                        stack: new_stack.clone(),
                    },
                );
                g.adj[from as usize].push(to);
                let path = cycle_path?;
                g.cycles += 1;
                let mut msg = String::from("lockdep: lock-order cycle detected\n");
                msg.push_str(&format!(
                    "  new edge: {} -> {}\n",
                    g.names[from as usize], g.names[to as usize]
                ));
                msg.push_str("  cycle: ");
                for &c in &path {
                    msg.push_str(g.names[c as usize]);
                    msg.push_str(" -> ");
                }
                msg.push_str(g.names[to as usize]);
                msg.push('\n');
                msg.push_str("  acquisition stack (new edge):\n");
                msg.push_str(&format!(
                    "{}  acquisition stack (existing edge {} -> {}):\n",
                    g.edges[&(from, to)].stack,
                    g.names[path[0] as usize],
                    g.names[path.get(1).copied().unwrap_or(from) as usize],
                ));
                let existing = (path[0], path.get(1).copied().unwrap_or(from));
                if let Some(e) = g.edges.get(&existing) {
                    msg.push_str(&e.stack);
                }
                g.last_cycle = Some(msg.clone());
                Some(msg)
            });
            if let Some(msg) = report {
                eprintln!("{msg}");
                if std::env::var("POLYUFC_LOCKDEP_PANIC").as_deref() == Ok("1") {
                    panic!("{msg}");
                }
            }
        }

        pub fn stats() -> LockdepStats {
            with_graph(|g| LockdepStats {
                sites: g.names.len() as u64,
                edges: g.edges.len() as u64,
                max_chain: g.max_chain(),
                cycles: g.cycles,
            })
        }

        pub fn last_cycle() -> Option<String> {
            with_graph(|g| g.last_cycle.clone())
        }
    }

    /// Order-checked mutex; see the module docs.
    pub struct OrderedMutex<T: ?Sized> {
        class: detector::ClassId,
        inner: Mutex<T>,
    }

    impl<T> OrderedMutex<T> {
        /// Creates a mutex belonging to the lock class named `site`.
        pub fn new(site: &'static str, value: T) -> Self {
            OrderedMutex {
                class: detector::register(site),
                inner: Mutex::new(value),
            }
        }
    }

    impl<T> OrderedMutex<T> {
        /// Consumes the mutex, returning the inner value. No ordering
        /// bookkeeping: by `self`-ownership no lock is being held.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> OrderedMutex<T> {
        /// Acquires the lock, recording the order edge first so a real
        /// deadlock is still reported before this thread blocks.
        pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
            detector::acquire(self.class);
            match self.inner.lock() {
                Ok(g) => Ok(OrderedMutexGuard {
                    class: self.class,
                    inner: g,
                }),
                Err(p) => Err(PoisonError::new(OrderedMutexGuard {
                    class: self.class,
                    inner: p.into_inner(),
                })),
            }
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("OrderedMutex")
                .field("inner", &&self.inner)
                .finish()
        }
    }

    /// RAII guard for [`OrderedMutex`]; pops the held-class stack on drop
    /// (including drops during unwinding).
    pub struct OrderedMutexGuard<'a, T: ?Sized> {
        class: detector::ClassId,
        inner: MutexGuard<'a, T>,
    }

    impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
        fn drop(&mut self) {
            detector::release(self.class);
        }
    }

    impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    /// Lockdep counters for the `chk` stats section.
    pub fn lockdep_stats() -> Option<LockdepStats> {
        Some(detector::stats())
    }

    /// Most recent cycle report, if any (test hook).
    pub fn lockdep_last_cycle() -> Option<String> {
        detector::last_cycle()
    }
}

#[cfg(not(feature = "lockdep"))]
mod imp {
    use super::LockdepStats;
    use std::sync::{LockResult, Mutex, MutexGuard};

    /// Transparent stand-in for `std::sync::Mutex`; the site name is
    /// dropped at compile time.
    #[repr(transparent)]
    pub struct OrderedMutex<T: ?Sized> {
        inner: Mutex<T>,
    }

    /// In the default build the guard *is* the std guard, so the locked
    /// fast path is untouched.
    pub type OrderedMutexGuard<'a, T> = MutexGuard<'a, T>;

    impl<T> OrderedMutex<T> {
        /// Creates a mutex; `_site` exists only for lockdep builds.
        #[inline]
        pub fn new(_site: &'static str, value: T) -> Self {
            OrderedMutex {
                inner: Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the inner value.
        #[inline]
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> OrderedMutex<T> {
        /// Acquires the lock; identical to `std::sync::Mutex::lock`.
        #[inline]
        pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
            self.inner.lock()
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    /// Always `None` without the `lockdep` feature, so stats output is
    /// byte-identical to a build that never linked this crate.
    #[inline]
    pub fn lockdep_stats() -> Option<LockdepStats> {
        None
    }

    // The zero-overhead claim, checked at compile time: the wrapper adds
    // no bytes over its std counterpart in the default build.
    const _: () =
        assert!(std::mem::size_of::<OrderedMutex<u64>>() == std::mem::size_of::<Mutex<u64>>());
}

pub use imp::{lockdep_stats, OrderedMutex, OrderedMutexGuard};

#[cfg(feature = "lockdep")]
pub use imp::lockdep_last_cycle;
