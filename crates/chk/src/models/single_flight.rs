//! Single-flight lookup/finish/expire model.
//!
//! Miniature of `serve::shard::ArtifactCache::{lookup, finish,
//! take_expired}` for one key: the pending slot is the only record of an
//! in-flight compile — its attempt id is the ownership token and its
//! waiter list the rendezvous. Step ↔ source mapping (one step per lock
//! region):
//!
//! | step | source |
//! |---|---|
//! | requester `Lookup` | `shard.rs ArtifactCache::lookup` (shard mutex): hit, join (queue the waiter on the pending slot), or lead (insert the slot with the leader's waiter queued) |
//! | leader `Compile` | the compile job itself (no locks held) |
//! | leader `Finish` | `shard.rs ArtifactCache::finish` (shard mutex): iff the slot is still *this* attempt, make it ready and take its waiters |
//! | leader `Wake` | `shard.rs Waiters::wake`, after the lock is released |
//! | aborter `TakeExpired` | `shard.rs ArtifactCache::take_expired` (shard mutex): remove the pending slot, take its waiters |
//! | aborter `Wake` | `shard.rs Waiters::wake` with the deadline error |
//!
//! Checked properties: every requester is answered **exactly once** (zero
//! answers = lost wakeup, surfaced as a deadlock because the requester
//! parks forever; two = double delivery), and always **by the attempt it
//! was queued on**. `fault_unchecked_finish` drops the attempt-id check
//! in `finish`: a leader whose attempt the aborter already expired then
//! ends a *newer* attempt of the key with its late result.

use crate::explore::Model;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Empty,
    Pending { attempt: usize, waiters: Vec<usize> },
    Ready,
}

/// One thread: a requester, or (last index) the aborter.
#[derive(Debug, Clone)]
struct Thread {
    pc: u8,
    /// The attempt this thread led, joined or expired (`usize::MAX`:
    /// none — a hit).
    attempt: usize,
    /// Waiters handed back by this thread's `finish`/`take_expired`.
    taken: Vec<usize>,
    deliveries: u32,
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct SingleFlight {
    /// Requester thread count (the aborter is one extra thread).
    pub requesters: usize,
    /// Skip the attempt-id check in `finish` (injected bug).
    pub fault_unchecked_finish: bool,
    slot: Slot,
    next_attempt: usize,
    threads: Vec<Thread>,
}

// Requester pcs; the aborter starts at `TAKE_EXPIRED` and ends after
// `WAKE`.
const LOOKUP: u8 = 0;
const COMPILE: u8 = 1;
const FINISH: u8 = 2;
const TAKE_EXPIRED: u8 = 3;
const WAKE: u8 = 4;
const AWAIT: u8 = 5;
const DONE: u8 = 6;

impl SingleFlight {
    /// A model with `requesters` concurrent requests for one key plus a
    /// watchdog-style aborter.
    pub fn new(requesters: usize, fault_unchecked_finish: bool) -> Self {
        let thread = |pc| Thread {
            pc,
            attempt: usize::MAX,
            taken: Vec::new(),
            deliveries: 0,
        };
        let mut threads = vec![thread(LOOKUP); requesters];
        threads.push(thread(TAKE_EXPIRED));
        SingleFlight {
            requesters,
            fault_unchecked_finish,
            slot: Slot::Empty,
            next_attempt: 0,
            threads,
        }
    }
}

impl Model for SingleFlight {
    fn name(&self) -> &'static str {
        "single-flight"
    }

    fn threads(&self) -> usize {
        self.threads.len()
    }

    fn done(&self, t: usize) -> bool {
        self.threads[t].pc == DONE
    }

    fn enabled(&self, t: usize) -> bool {
        match self.threads[t].pc {
            AWAIT => self.threads[t].deliveries > 0,
            DONE => false,
            _ => true,
        }
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        let me = &mut self.threads[t];
        match me.pc {
            LOOKUP => match &mut self.slot {
                Slot::Ready => {
                    // Cache hit: answered directly under the shard lock.
                    me.deliveries += 1;
                    me.pc = AWAIT;
                }
                Slot::Pending { attempt, waiters } => {
                    waiters.push(t);
                    me.attempt = *attempt;
                    me.pc = AWAIT;
                }
                Slot::Empty => {
                    me.attempt = self.next_attempt;
                    self.next_attempt += 1;
                    self.slot = Slot::Pending {
                        attempt: me.attempt,
                        waiters: vec![t],
                    };
                    me.pc = COMPILE;
                }
            },
            COMPILE => me.pc = FINISH,
            FINISH => {
                // Publish only if the slot is still *this* attempt;
                // otherwise someone else ended it and the late result is
                // dropped.
                match std::mem::replace(&mut self.slot, Slot::Ready) {
                    Slot::Pending { attempt, waiters }
                        if attempt == me.attempt || self.fault_unchecked_finish =>
                    {
                        me.taken = waiters;
                    }
                    other => self.slot = other,
                }
                me.pc = WAKE;
            }
            TAKE_EXPIRED => match std::mem::replace(&mut self.slot, Slot::Empty) {
                Slot::Pending { attempt, waiters } => {
                    me.attempt = attempt;
                    me.taken = waiters;
                    me.pc = WAKE;
                }
                other => {
                    self.slot = other;
                    me.pc = DONE; // nothing pending
                }
            },
            WAKE => {
                // `Waiters::wake`: run what ending the attempt handed back.
                me.pc = if t < self.requesters { AWAIT } else { DONE };
                let attempt = me.attempt;
                for w in std::mem::take(&mut me.taken) {
                    let queued_on = self.threads[w].attempt;
                    if queued_on != attempt {
                        return Err(format!(
                            "stale finish: attempt {attempt} answered t{w}, which is queued on attempt {queued_on}"
                        ));
                    }
                    self.threads[w].deliveries += 1;
                }
            }
            AWAIT => me.pc = DONE,
            _ => return Err(format!("model bug: t{t} stepped after done")),
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), String> {
        for (t, r) in self.threads[..self.requesters].iter().enumerate() {
            if r.deliveries != 1 {
                return Err(format!(
                    "requester t{t} answered {} times (expected exactly once)",
                    r.deliveries
                ));
            }
        }
        Ok(())
    }
}
