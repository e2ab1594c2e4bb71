//! Property test: the real sharded cache's single-flight protocol
//! (`shard.rs` lookup/finish) agrees with a sequential reference slot
//! machine (a key is Empty, Pending with queued waiters, or Ready) on
//! randomized operation sequences.
//!
//! The schedule explorer (`src/shard/protocols.rs`) checks the same code
//! under *interleavings*; this test checks it against an independent
//! *reference*: for every random op sequence, the cache must classify
//! lookups exactly as the reference does, deliver every waiter exactly
//! one result, and deliver the result the reference predicts. A double
//! completion, lost waiter, or slot misclassification fails the property.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use polyufc_serve::{Abort, ArtifactCache, Body, Lookup, Waiter};

/// Reference slot state.
enum RefSlot {
    Pending { attempt: u64, waiters: Vec<usize> },
    Ready(Vec<u8>),
}

/// One randomized operation over a small key space.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Probe a key; leads when empty, joins when pending, hits when
    /// ready.
    Lookup(u8),
    /// End the key's pending attempt with a body derived from the step
    /// index (no-op when not pending).
    Fulfill(u8),
    /// End the key's pending attempt with an abort (no-op when not
    /// pending).
    AbortKey(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0u8..4).prop_map(|(kind, key)| match kind {
        0 => Op::Lookup(key),
        1 => Op::Fulfill(key),
        _ => Op::AbortKey(key),
    })
}

/// What one waiter observed: completion count and the result.
#[derive(Default)]
struct Observed {
    completions: AtomicUsize,
    result: Mutex<Option<Result<Vec<u8>, Abort>>>,
}

/// Empties `k`'s reference slot if it is pending.
fn take_pending(reference: &mut HashMap<u8, RefSlot>, k: u8) -> Option<(u64, Vec<usize>)> {
    if !matches!(reference.get(&k), Some(RefSlot::Pending { .. })) {
        return None;
    }
    match reference.remove(&k) {
        Some(RefSlot::Pending { attempt, waiters }) => Some((attempt, waiters)),
        _ => unreachable!(),
    }
}

fn run_sequence(ops: &[Op]) -> Result<(), String> {
    // One shard forces every key through the same lock, the worst case
    // for slot-state confusion; capacity high enough that eviction never
    // interferes with the reference (eviction is a separate concern).
    let cache: ArtifactCache<()> = ArtifactCache::new(1024, 1, 0, Arc::from(&b""[..]));
    let mut reference: HashMap<u8, RefSlot> = HashMap::new();
    let mut observers: Vec<Arc<Observed>> = Vec::new();
    // What the reference expects each waiter to eventually receive.
    let mut expected: Vec<Result<Vec<u8>, Abort>> = Vec::new();

    // Ends a pending attempt the way its owner does — finish, then run —
    // and records what the reference says its waiters must receive.
    let end = |k: u8,
               attempt: u64,
               waiters: Vec<usize>,
               outcome: Result<Body, Abort>,
               expected: &mut Vec<Result<Vec<u8>, Abort>>|
     -> Result<(), String> {
        cache
            .finish(&[k], attempt, outcome.clone(), None)
            .ok_or_else(|| format!("key {k}: the pending attempt was not the leader's"))?
            .run(&cache);
        for id in waiters {
            expected[id] = outcome.clone().map(|b| b.to_vec());
        }
        Ok(())
    };

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Lookup(k) => {
                let obs = Arc::new(Observed::default());
                let waiter = || -> Waiter {
                    let o = Arc::clone(&obs);
                    Box::new(move |r| {
                        o.completions.fetch_add(1, Ordering::SeqCst);
                        *o.result.lock().unwrap() = Some(r.map(|b| b.to_vec()));
                    })
                };
                let got = cache.lookup(&[k], b"fp", waiter);
                // Only a queued waiter is observed: a hit never builds one.
                let mut park = || {
                    observers.push(Arc::clone(&obs));
                    expected.push(Err(Abort::ShuttingDown)); // placeholder
                    observers.len() - 1
                };
                match (got, reference.get_mut(&k)) {
                    (Lookup::Lead(attempt), None) => {
                        let waiters = vec![park()];
                        reference.insert(k, RefSlot::Pending { attempt, waiters });
                    }
                    (Lookup::Joined, Some(RefSlot::Pending { waiters, .. })) => {
                        waiters.push(park());
                    }
                    (Lookup::Hit(body), Some(RefSlot::Ready(want))) => {
                        if *body != want[..] {
                            return Err(format!("step {step}: hit served stale bytes"));
                        }
                        if Arc::strong_count(&obs) != 1 {
                            return Err(format!("step {step}: a hit built its waiter"));
                        }
                    }
                    (got, r) => {
                        let model = match r {
                            None => "Empty",
                            Some(RefSlot::Pending { .. }) => "Pending",
                            Some(RefSlot::Ready(_)) => "Ready",
                        };
                        return Err(format!(
                            "step {step}: cache said {got:?} but the model slot is {model}"
                        ));
                    }
                }
            }
            // Fulfill and abort only act on pending slots (the real
            // engine only ever ends attempts it leads or expires);
            // anything else is a no-op in both the cache and the
            // reference.
            Op::Fulfill(k) => {
                if let Some((attempt, waiters)) = take_pending(&mut reference, k) {
                    let body: Body = Arc::from(vec![k, step as u8].into_boxed_slice());
                    end(k, attempt, waiters, Ok(Arc::clone(&body)), &mut expected)?;
                    reference.insert(k, RefSlot::Ready(body.to_vec()));
                }
            }
            Op::AbortKey(k) => {
                // Aborted key is free again: reference slot Empty.
                if let Some((attempt, waiters)) = take_pending(&mut reference, k) {
                    end(k, attempt, waiters, Err(Abort::Internal), &mut expected)?;
                }
            }
        }
    }

    // Drain: end every still-pending attempt so all waiters settle.
    let pending = reference
        .values()
        .filter(|slot| matches!(slot, RefSlot::Pending { .. }));
    if cache.stats().inflight != pending.clone().count() {
        return Err("pending slot count disagrees with the model".into());
    }
    for slot in pending {
        if let RefSlot::Pending { waiters, .. } = slot {
            for &id in waiters {
                expected[id] = Err(Abort::ShuttingDown);
            }
        }
    }
    for ended in cache.take_expired(std::time::Duration::ZERO, Abort::ShuttingDown) {
        ended.run(&cache);
    }

    // Every waiter completed exactly once with the predicted result.
    for (id, obs) in observers.iter().enumerate() {
        let n = obs.completions.load(Ordering::SeqCst);
        if n != 1 {
            return Err(format!("waiter {id} completed {n} times (want exactly 1)"));
        }
        let got = obs.result.lock().unwrap().clone().expect("completed");
        if got != expected[id] {
            return Err(format!(
                "waiter {id} got {got:?}, but the model predicted {:?}",
                expected[id]
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn real_single_flight_matches_the_protocol_model(
        ops in proptest::collection::vec(op_strategy(), 1..48)
    ) {
        run_sequence(&ops)?;
    }
}

#[test]
fn pinned_lead_wait_fulfill_hit_sequence() {
    // The canonical leader/joiner/fulfill/hit shape, pinned so a
    // strategy change can never silently stop covering it.
    let ops = [
        Op::Lookup(0),
        Op::Lookup(0),
        Op::Fulfill(0),
        Op::Lookup(0),
        Op::Lookup(1),
        Op::AbortKey(1),
        Op::Lookup(1),
    ];
    run_sequence(&ops).expect("pinned sequence agrees with the model");
}
