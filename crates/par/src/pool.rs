//! A long-lived bounded worker pool with per-worker state and stall
//! replacement.
//!
//! [`crate::par_map`] covers one-shot fan-out; a daemon needs the dual
//! shape: a fixed set of workers that outlive any single batch, a
//! **bounded** submission queue, and an explicit "queue full" signal the
//! caller can turn into backpressure (the serve path sheds load with a
//! typed response instead of buffering unboundedly).
//!
//! Each worker owns a caller-built state value (`S`) for the lifetime of
//! the pool — the serve daemon keeps a persistent compile session
//! (Presburger context + counting cache) per worker, so cache warmth
//! accumulates across requests instead of being rebuilt per job.
//!
//! **Self-healing:** every worker publishes a heartbeat (an atomic
//! "busy since" timestamp) around each job. A supervisor thread can call
//! [`StatefulPool::replace_stalled`] to *detach* workers stuck on one
//! job past a threshold — a hung thread cannot be joined or killed, so
//! its `JoinHandle` is dropped, a `detached` flag tells it to exit
//! whenever its job finally returns, and a fresh worker with freshly
//! built state is spawned on the same shared queue. Capacity recovers in
//! bounded time instead of bleeding away one hung compile at a time.

use polyufc_chk::OrderedMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job rejected because the submission queue was at capacity.
///
/// Carries the job back so the caller can retry, reroute, or drop it
/// explicitly.
pub struct PoolFull<S>(pub Box<dyn FnOnce(&mut S) + Send + 'static>);

impl<S> std::fmt::Debug for PoolFull<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolFull(..)")
    }
}

type Job<S> = Box<dyn FnOnce(&mut S) + Send + 'static>;

/// Per-worker heartbeat shared between the worker thread and the
/// supervisor: `busy_since_ms` is `0` while idle, else `1 + milliseconds
/// since the pool epoch` when the current job started (the `+1` keeps
/// `0` unambiguous). `detached` tells a replaced worker to exit as soon
/// as its stuck job returns.
struct WorkerSlot {
    busy_since_ms: AtomicU64,
    detached: AtomicBool,
}

struct Worker {
    slot: Arc<WorkerSlot>,
    handle: JoinHandle<()>,
}

/// Fixed-size worker pool over a bounded queue; each worker owns an `S`.
pub struct StatefulPool<S> {
    /// Behind a mutex so shutdown can close the channel through `&self`
    /// (the pool is shared with a watchdog thread via `Arc`).
    tx: OrderedMutex<Option<SyncSender<Job<S>>>>,
    rx: Arc<OrderedMutex<Receiver<Job<S>>>>,
    workers_m: OrderedMutex<Vec<Worker>>,
    /// Rebuilds a replacement worker's state; runs on the new thread.
    init: Arc<dyn Fn(usize) -> S + Send + Sync>,
    epoch: Instant,
    workers: usize,
    queue_cap: usize,
    next_id: AtomicUsize,
    replaced: AtomicU64,
}

impl<S> std::fmt::Debug for StatefulPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatefulPool")
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

impl<S: Send + 'static> StatefulPool<S> {
    /// Spawns `workers` threads (at least 1), each owning `init(i)`, fed
    /// from a queue bounded to `queue_cap` (at least 1) pending jobs.
    /// `init` is retained: a replacement for a stalled worker rebuilds
    /// its state through the same closure.
    pub fn new<F>(workers: usize, queue_cap: usize, init: F) -> Self
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let queue_cap = queue_cap.max(1);
        let (tx, rx) = sync_channel::<Job<S>>(queue_cap);
        let pool = StatefulPool {
            tx: OrderedMutex::new("par.pool.tx", Some(tx)),
            rx: Arc::new(OrderedMutex::new("par.pool.rx", rx)),
            workers_m: OrderedMutex::new("par.pool.workers", Vec::with_capacity(workers)),
            init: Arc::new(init),
            epoch: Instant::now(),
            workers,
            queue_cap,
            next_id: AtomicUsize::new(workers),
            replaced: AtomicU64::new(0),
        };
        {
            let mut ws = pool.workers_m.lock().unwrap();
            for i in 0..workers {
                ws.push(pool.spawn_worker(i));
            }
        }
        pool
    }

    fn spawn_worker(&self, id: usize) -> Worker {
        let slot = Arc::new(WorkerSlot {
            busy_since_ms: AtomicU64::new(0),
            detached: AtomicBool::new(false),
        });
        let rx = Arc::clone(&self.rx);
        let init = Arc::clone(&self.init);
        let worker_slot = Arc::clone(&slot);
        let epoch = self.epoch;
        let handle = std::thread::Builder::new()
            .name(format!("polyufc-worker-{id}"))
            .spawn(move || {
                // State is built on the worker thread: a replacement's
                // CompileSession must not be constructed under the
                // supervisor's lock.
                let mut state = init(id);
                worker_loop(&rx, &worker_slot, epoch, &mut state);
            })
            .expect("spawn pool worker");
        Worker { slot, handle }
    }

    /// Submits a job without blocking. `Err(PoolFull)` means every worker
    /// is busy *and* the queue is at capacity — the caller should shed.
    /// After shutdown every submit comes back as `PoolFull` too: the
    /// caller's shed path is the right answer either way.
    ///
    /// # Errors
    ///
    /// Returns [`PoolFull`] (carrying the job back) when the queue is at
    /// capacity or the pool is shutting down.
    pub fn try_execute<F>(&self, job: F) -> Result<(), PoolFull<S>>
    where
        F: FnOnce(&mut S) + Send + 'static,
    {
        // Clone the sender out so the (uncontended) lock is not held
        // across try_send.
        let tx = self.tx.lock().unwrap().clone();
        let Some(tx) = tx else {
            return Err(PoolFull(Box::new(job)));
        };
        match tx.try_send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                Err(PoolFull(job))
            }
        }
    }

    /// Workers detached and replaced by [`StatefulPool::replace_stalled`]
    /// over the pool's lifetime.
    pub fn workers_replaced(&self) -> u64 {
        self.replaced.load(Ordering::Relaxed)
    }

    /// Detaches every worker that has been busy on a single job for at
    /// least `threshold` and spawns a replacement for each; returns how
    /// many were replaced. The detached thread cannot be interrupted —
    /// its `JoinHandle` is dropped and it exits on its own when (if) the
    /// stuck job returns. The caller is responsible for poisoning
    /// whatever results the stuck jobs owed (the serve engine answers
    /// their requests with a typed deadline error).
    pub fn replace_stalled(&self, threshold: Duration) -> usize {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        let threshold_ms = threshold.as_millis() as u64;
        let mut replaced = 0usize;
        let mut ws = self.workers_m.lock().unwrap();
        for w in ws.iter_mut() {
            let busy = w.slot.busy_since_ms.load(Ordering::Acquire);
            if busy == 0 || now_ms.saturating_sub(busy - 1) < threshold_ms {
                continue;
            }
            w.slot.detached.store(true, Ordering::Release);
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let fresh = self.spawn_worker(id);
            // Dropping the old JoinHandle detaches the hung thread.
            let _stuck = std::mem::replace(w, fresh);
            replaced += 1;
        }
        drop(ws);
        self.replaced.fetch_add(replaced as u64, Ordering::Relaxed);
        replaced
    }

    /// Closes the queue and waits up to `grace` for the workers to
    /// finish already-queued jobs and exit; workers still busy when the
    /// grace expires are detached (their threads exit on their own if
    /// their jobs ever return). Safe to call through a shared reference
    /// and idempotent — a second call finds no workers and returns.
    pub fn shutdown_with_grace(&self, grace: Duration) {
        drop(self.tx.lock().unwrap().take()); // closing the channel ends every worker loop
        let deadline = Instant::now() + grace;
        let workers = std::mem::take(&mut *self.workers_m.lock().unwrap());
        for w in workers {
            while !w.handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if w.handle.is_finished() {
                let _ = w.handle.join();
            } else {
                w.slot.detached.store(true, Ordering::Release);
                drop(w.handle);
            }
        }
    }

    /// Drains the queue, stops the workers, and joins them. Already-queued
    /// jobs run to completion first. (Unbounded wait; use
    /// [`StatefulPool::shutdown_with_grace`] when a worker might be
    /// hung.)
    pub fn shutdown(self) {
        self.shutdown_with_grace(Duration::from_secs(60 * 60));
    }
}

impl<S> Drop for StatefulPool<S> {
    fn drop(&mut self) {
        drop(self.tx.lock().unwrap().take());
        for w in self.workers_m.lock().unwrap().drain(..) {
            let _ = w.handle.join();
        }
    }
}

fn worker_loop<S>(
    rx: &OrderedMutex<Receiver<Job<S>>>,
    slot: &WorkerSlot,
    epoch: Instant,
    state: &mut S,
) {
    loop {
        if slot.detached.load(Ordering::Acquire) {
            return; // replaced while stuck; a fresh worker owns the queue
        }
        // Hold the lock only while dequeuing, never while running a job.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked mid-recv; stop cleanly
        };
        match job {
            Ok(job) => {
                let now_ms = epoch.elapsed().as_millis() as u64;
                slot.busy_since_ms.store(now_ms + 1, Ordering::Release);
                job(state);
                slot.busy_since_ms.store(0, Ordering::Release);
            }
            Err(_) => return, // channel closed: pool shut down
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_preserves_worker_state() {
        let pool = StatefulPool::new(2, 8, |i| (i, 0usize));
        let (tx, rx) = channel();
        for _ in 0..16 {
            let mut job = {
                let tx = tx.clone();
                Box::new(move |state: &mut (usize, usize)| {
                    state.1 += 1; // per-worker counter persists across jobs
                    tx.send(state.0).unwrap();
                }) as Box<dyn FnOnce(&mut (usize, usize)) + Send>
            };
            // The queue is bounded: retry on backpressure.
            loop {
                match pool.try_execute(job) {
                    Ok(()) => break,
                    Err(PoolFull(back)) => {
                        job = back;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        let mut got = 0;
        while got < 16 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
            got += 1;
        }
        pool.shutdown();
    }

    #[test]
    fn full_queue_returns_pool_full_with_the_job() {
        // One worker blocked on a gate + queue of 1: the third submit
        // must come back as PoolFull, not block or vanish.
        let (open, gate) = channel::<()>();
        let pool = StatefulPool::new(1, 1, |_| ());
        // Blocks until `open` is dropped.
        pool.try_execute(move |_| assert!(gate.recv().is_err()))
            .unwrap();
        // Wait until the worker has picked up the blocking job so the
        // queue slot is genuinely free for the second submit.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match pool.try_execute(|_| {}) {
                Ok(()) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("queue never freed: {e:?}"),
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let res = pool.try_execute(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert!(res.is_err(), "queue full must be reported");
        drop(open);
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "shed job must not run");
    }

    #[test]
    fn shutdown_completes_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = StatefulPool::new(1, 32, |_| ());
        for _ in 0..10 {
            let d = Arc::clone(&done);
            pool.try_execute(move |_| {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn stalled_worker_is_replaced_and_queue_drains() {
        // One worker wedged on a gated job; the queued follow-up can only
        // run if replace_stalled spawns a replacement on the same queue.
        let (open, gate) = channel::<()>();
        let states_built = Arc::new(AtomicUsize::new(0));
        let sb = Arc::clone(&states_built);
        let pool = StatefulPool::new(1, 4, move |_| {
            sb.fetch_add(1, Ordering::SeqCst);
        });
        // Blocks until `open` is dropped.
        pool.try_execute(move |_| assert!(gate.recv().is_err()))
            .unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        // Queue a second job behind the wedge.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let d2 = Arc::clone(&d);
            match pool.try_execute(move |_| {
                d2.fetch_add(1, Ordering::SeqCst);
            }) {
                Ok(()) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("queue never freed: {e:?}"),
            }
        }
        // Wait until the wedged job is visibly running, then replace.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.replace_stalled(Duration::from_millis(0)) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never showed as busy"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.workers_replaced(), 1);
        // The replacement must drain the queued job while the original
        // worker is still wedged.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "replacement never ran the queued job"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            states_built.load(Ordering::SeqCst) >= 2,
            "replacement must rebuild state through init"
        );
        // Unwedge so the detached thread can exit, then shut down.
        drop(open);
        pool.shutdown_with_grace(Duration::from_secs(5));
    }

    #[test]
    fn shutdown_with_grace_is_bounded_despite_a_hung_worker() {
        let (open, gate) = channel::<()>();
        let pool = StatefulPool::new(1, 4, |_| ());
        // Blocks until `open` is dropped.
        pool.try_execute(move |_| assert!(gate.recv().is_err()))
            .unwrap();
        let t0 = std::time::Instant::now();
        pool.shutdown_with_grace(Duration::from_millis(100));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown must not wait for the hung worker"
        );
        // Unwedge the detached thread so the test process exits cleanly.
        drop(open);
    }
}
