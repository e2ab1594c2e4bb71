//! A minimal, dependency-free work pool for embarrassingly parallel
//! sweeps, built on [`std::thread::scope`].
//!
//! The evaluation harnesses fan out independent (workload × platform ×
//! frequency) points with [`par_map`]; results come back **in input
//! order**, so a parallel sweep prints byte-identical tables to the
//! sequential one. Work is distributed by an atomic cursor (dynamic
//! self-scheduling), which keeps long-running items from serializing the
//! tail the way static chunking would.
//!
//! Thread count defaults to the host parallelism and can be pinned with
//! the `POLYUFC_THREADS` environment variable (`POLYUFC_THREADS=1` forces
//! the sequential path, useful for A/B determinism checks).

#![warn(missing_docs)]

pub mod pool;

pub use pool::{PoolFull, StatefulPool};

use polyufc_chk::OrderedMutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide explicit pool-size override (0 = unset). Set by the CLI
/// `--threads` flag; takes precedence over the environment so a flag on
/// the command line beats an inherited `POLYUFC_THREADS`.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (or with `None` releases) the worker count for this process,
/// overriding both `POLYUFC_THREADS` and hardware detection. The CLI and
/// the serve daemon route their `--threads` flag here.
pub fn set_worker_override(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The active explicit override, if any.
pub fn worker_override() -> Option<usize> {
    match WORKER_OVERRIDE.load(Ordering::SeqCst) {
        0 => None,
        n => Some(n),
    }
}

/// Number of worker threads to use: the [`set_worker_override`] pin if
/// set, else `POLYUFC_THREADS` if set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1.
pub fn worker_count() -> usize {
    if let Some(n) = worker_override() {
        return n;
    }
    std::env::var("POLYUFC_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Applies `f` to every item, in parallel, returning results **in input
/// order** (index `i` of the output is `f(&items[i])`).
///
/// Falls back to a plain sequential map when only one worker is available
/// or there is at most one item, so single-core hosts pay no threading
/// overhead. A panic in `f` propagates to the caller once all workers have
/// stopped (scoped-thread join semantics).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = worker_count().min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OrderedMutex<Option<R>>> = items
        .iter()
        .map(|_| OrderedMutex::new("par.map.slot", None))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn matches_sequential_map_with_uneven_work() {
        // Items with wildly different costs must still land in order.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn explicit_override_beats_detection() {
        // Sibling tests tolerate a momentary pin: a pinned count only
        // changes how wide par_map fans out, never its results.
        set_worker_override(Some(3));
        assert_eq!(worker_count(), 3);
        assert_eq!(worker_override(), Some(3));
        set_worker_override(None);
        assert_eq!(worker_override(), None);
        assert!(worker_count() >= 1);
    }
}
