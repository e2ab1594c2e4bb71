//! The attempt lifecycle under the schedule explorer: lookup, finish,
//! expiry, shutdown drain and the quarantine breaker, interleaved.
//!
//! Every explorer step is one call into the code that ships —
//! [`ArtifactCache::quarantine_get`], [`ArtifactCache::lookup`],
//! [`ArtifactCache::finish`], [`ArtifactCache::take_expired`] or
//! [`Ended::step`] — on one real cache (2 shards, breaker threshold 2,
//! key and fingerprint on different shards). The harness only decides who
//! calls what next, and keeps the ground truth the calls are checked
//! against, in linearization order (the order the explorer ran them):
//!
//! * **requesters** probe the breaker, look the one key up and, when they
//!   lead, finish their attempt (with a body naming it, or `Internal` when
//!   leaders panic) and step the [`Ended`] they get back;
//! * the **watchdog** ticks a bounded number of times — each tick expires
//!   whatever is pending, the worst case of any deadline — stepping each
//!   `Ended`, and exits at the first tick after the stop;
//! * **shutdown** (when present) stops the watchdog, and once it has
//!   exited — the join — drains what is pending.
//!
//! Checked: every request is answered exactly once (never answered is a
//! thread that never finishes, which the explorer reports as a
//! deadlock/lost wakeup); an `Ok` body names the attempt the request
//! queued on; `finish` ends an attempt iff it is the pending one; the
//! cache's strike count and quarantine flag equal what the *accounted*
//! attempts say after every step (strikes move when an `Ended` accounts,
//! not when its slot ended), and so does whether the fingerprint has a
//! prefix entry; a probe sees the quarantine iff it has tripped.
//!
//! Planted misuses live in this shell, not in `shard.rs` ([`Misuse`]).
//! The old `quarantine` model's split read/write strike is not among
//! them: striking is one `&self` call under the shard lock, so there is
//! no way left to write it.

use super::*;
use polyufc_chk::explore::{replay, Explorer, Model};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Hash to different shards of 2, so the slot and its accounting never
/// share a lock.
const KEY: &[u8] = b"key";
const FP: &[u8] = b"p2";
const THRESHOLD: u32 = 2;
const REQUESTERS: usize = 3;
const WATCHDOG: usize = REQUESTERS;
const SHUTDOWN: usize = REQUESTERS + 1;
const TICKS: u8 = 2;

/// A way to hold the cache's API wrong, written where a caller would
/// write it.
#[derive(Clone, Copy, PartialEq)]
enum Misuse {
    None,
    /// A leader finishes the newest attempt of the key, not its own.
    FinishNewest,
    /// A leader whose attempt someone else ended strikes anyway.
    StrikeUnowned,
    /// A leader drops the `Ended` it got back without running it.
    DropEnded,
}

/// Where one thread is. `Ending` is any thread stepping through the
/// attempts its last call ended.
enum Pc {
    Probe,
    Lookup,
    Finish(u64),
    Ending(Vec<Ended<u64>>),
    /// Requester: parked until answered. Watchdog: ready to tick.
    Idle,
    Stop,
    Drain,
    Exited,
}

struct Lifecycle {
    leaders_panic: bool,
    misuse: Misuse,
    /// Each successful attempt brings its id as its prefix entry.
    cache: ArtifactCache<u64>,
    /// Requesters, then the watchdog, then shutdown when present.
    pc: Vec<Pc>,
    answers_tx: Sender<(usize, Result<Body, Abort>)>,
    answers_rx: Receiver<(usize, Result<Body, Abort>)>,
    /// Per requester: answers received, and the attempt it queued on.
    answered: [u32; REQUESTERS],
    queued_on: [Option<u64>; REQUESTERS],
    stop: bool,
    ticks_left: u8,
    // Ground truth, in linearization order.
    pending: Option<u64>,
    newest: u64,
    ready: Option<Body>,
    strikes: u32,
    quarantined: bool,
    prefixed: bool,
}

fn body_of(attempt: u64) -> Body {
    Arc::from(format!("attempt {attempt}").into_bytes())
}

fn lifecycle(leaders_panic: bool, shutdown: bool, misuse: Misuse) -> impl Fn() -> Lifecycle {
    move || {
        let cache = ArtifactCache::new(8, 2, THRESHOLD, Arc::from(&b"quarantined"[..]));
        assert!(!std::ptr::eq(cache.shard(KEY), cache.shard(FP)));
        let mut pc: Vec<Pc> = (0..REQUESTERS).map(|_| Pc::Probe).collect();
        pc.push(Pc::Idle);
        if shutdown {
            pc.push(Pc::Stop);
        }
        let (answers_tx, answers_rx) = channel();
        Lifecycle {
            leaders_panic,
            misuse,
            cache,
            pc,
            answers_tx,
            answers_rx,
            answered: [0; REQUESTERS],
            queued_on: [None; REQUESTERS],
            stop: false,
            ticks_left: TICKS,
            pending: None,
            newest: 0,
            ready: None,
            strikes: 0,
            quarantined: false,
            prefixed: false,
        }
    }
}

impl Lifecycle {
    fn waiter(&self, t: usize) -> Waiter {
        let tx = self.answers_tx.clone();
        Box::new(move |outcome| {
            let _ = tx.send((t, outcome));
        })
    }

    /// Takes note of a direct answer (hit, rejection) or a waiter's.
    fn answer(&mut self, t: usize, outcome: &Result<Body, Abort>) -> Result<(), String> {
        self.answered[t] += 1;
        if self.answered[t] > 1 {
            return Err(format!("t{t} answered {} times", self.answered[t]));
        }
        match (outcome, self.queued_on[t]) {
            (Ok(body), Some(attempt)) if *body != body_of(attempt) => Err(format!(
                "stale finish: {} answered t{t}, which is queued on attempt {attempt}",
                String::from_utf8_lossy(body)
            )),
            _ => Ok(()),
        }
    }

    /// Where a thread goes once it has nothing left to end.
    fn rest(t: usize) -> Pc {
        match t {
            SHUTDOWN => Pc::Exited,
            _ => Pc::Idle,
        }
    }

    /// One `Ended::step` of the front attempt. The accounting ground
    /// truth moves here: when an `Ended` accounts, whenever its slot ended.
    fn step_ending(&mut self, t: usize, mut ending: Vec<Ended<u64>>) {
        let ended = ending.first_mut().expect("ending threads hold an attempt");
        let accounting = !ended.accounted;
        match ended.outcome {
            Ok(_) if accounting => (self.strikes, self.prefixed) = (0, true),
            Err(abort) if accounting && abort.strikes() && !self.quarantined => {
                self.strikes += 1;
                if self.strikes == THRESHOLD {
                    (self.strikes, self.quarantined) = (0, true);
                }
            }
            _ => {}
        }
        let more = ended.step(&self.cache);
        assert_eq!(more, accounting, "accounts once, then wakes");
        if !more {
            drop(ending.remove(0));
        }
        self.pc[t] = match ending.is_empty() {
            true => Self::rest(t),
            false => Pc::Ending(ending),
        };
    }

    fn step_requester(&mut self, t: usize, pc: Pc) -> Result<(), String> {
        match pc {
            Pc::Probe => match self.cache.quarantine_get(FP) {
                Some(_) if !self.quarantined => {
                    return Err(format!("t{t} rejected before the breaker tripped"))
                }
                None if self.quarantined => {
                    return Err(format!("t{t} got past a tripped breaker"));
                }
                Some(rejection) => self.answer(t, &Ok(rejection))?,
                None => self.pc[t] = Pc::Lookup,
            },
            Pc::Lookup => match self.cache.lookup(KEY, FP, || self.waiter(t)) {
                Lookup::Hit(body) if Some(&body) == self.ready.as_ref() => {
                    self.answer(t, &Ok(body))?;
                }
                Lookup::Joined if self.pending.is_some() => self.queued_on[t] = self.pending,
                Lookup::Lead(id) if self.pending.is_none() => {
                    (self.pending, self.newest) = (Some(id), id);
                    self.queued_on[t] = Some(id);
                    self.pc[t] = Pc::Finish(id);
                }
                other => {
                    return Err(format!(
                        "t{t} got {other:?} with {:?} pending",
                        self.pending
                    ))
                }
            },
            Pc::Finish(own) => {
                let outcome = match self.leaders_panic {
                    true => Err(Abort::Internal),
                    false => Ok(body_of(own)),
                };
                let id = match self.misuse {
                    Misuse::FinishNewest => self.newest,
                    _ => own,
                };
                let entry = outcome.is_ok().then(|| Arc::new(own));
                let ended = self.cache.finish(KEY, id, outcome.clone(), entry);
                if ended.is_some() != (self.pending == Some(id)) {
                    return Err(format!(
                        "finish of attempt {id} ended {} attempt with {:?} pending",
                        if ended.is_some() { "an" } else { "no" },
                        self.pending
                    ));
                }
                match ended {
                    Some(ended) => {
                        self.pending = None;
                        if let Ok(body) = outcome {
                            self.ready = Some(body);
                        }
                        match self.misuse {
                            Misuse::DropEnded => drop(ended),
                            _ => self.pc[t] = Pc::Ending(vec![ended]),
                        }
                    }
                    None if self.misuse == Misuse::StrikeUnowned && outcome.is_err() => {
                        self.cache.record_strike(FP);
                    }
                    None => {}
                }
            }
            _ => unreachable!("requester t{t} stepped while parked"),
        }
        Ok(())
    }

    /// The watchdog and shutdown: both end what is pending with
    /// `take_expired`, as a deadline tick or as the drain.
    fn step_scanner(&mut self, t: usize, pc: Pc) -> Result<(), String> {
        let abort = match pc {
            Pc::Idle if self.stop => {
                self.pc[t] = Pc::Exited;
                return Ok(());
            }
            Pc::Idle => {
                self.ticks_left -= 1;
                Abort::DeadlineExceeded
            }
            Pc::Stop => {
                self.stop = true;
                self.pc[t] = Pc::Drain;
                return Ok(());
            }
            Pc::Drain => Abort::ShuttingDown,
            _ => unreachable!("t{t} stepped after exiting"),
        };
        let ended = self.cache.take_expired(Duration::ZERO, abort);
        if ended.len() != usize::from(self.pending.is_some()) {
            return Err(format!(
                "{abort:?} scan ended {} attempts with {:?} pending",
                ended.len(),
                self.pending
            ));
        }
        self.pending = None;
        self.pc[t] = match ended.is_empty() {
            true => Self::rest(t),
            false => Pc::Ending(ended),
        };
        Ok(())
    }

    /// What the cache holds against the fingerprint: (quarantined,
    /// strikes), so that more trouble compares greater.
    fn breaker(&self) -> (bool, u32) {
        let inner = self.cache.shard(FP).lock().unwrap();
        let strikes = inner.strikes.get(FP).copied().unwrap_or(0);
        (inner.quarantined.contains_key(FP), strikes)
    }
}

impl Model for Lifecycle {
    fn threads(&self) -> usize {
        self.pc.len()
    }

    fn done(&self, t: usize) -> bool {
        match (&self.pc[t], t) {
            (Pc::Exited, _) => true,
            // Without a shutdown nobody stops the watchdog: it runs out.
            (Pc::Idle, WATCHDOG) => self.pc.len() == SHUTDOWN && self.ticks_left == 0,
            (Pc::Idle, _) => self.answered[t] == 1,
            _ => false,
        }
    }

    fn enabled(&self, t: usize) -> bool {
        match (&self.pc[t], t) {
            (Pc::Exited, _) => false,
            (Pc::Idle, WATCHDOG) => self.stop || self.ticks_left > 0,
            (Pc::Idle, _) => false,
            // The join: the drain waits for the watchdog to exit.
            (Pc::Drain, _) => matches!(self.pc[WATCHDOG], Pc::Exited),
            _ => true,
        }
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        match std::mem::replace(&mut self.pc[t], Self::rest(t)) {
            Pc::Ending(ending) => self.step_ending(t, ending),
            pc if t < REQUESTERS => self.step_requester(t, pc)?,
            pc => self.step_scanner(t, pc)?,
        }
        while let Ok((t, outcome)) = self.answers_rx.try_recv() {
            self.answer(t, &outcome)?;
        }
        let (held, told) = (self.breaker(), (self.quarantined, self.strikes));
        if held != told {
            let what = if held > told { "double" } else { "lost" };
            return Err(format!(
                "{what} strike: the cache holds {held:?} (quarantined, strikes), \
                 the accounted attempts say {told:?}"
            ));
        }
        if self.cache.prefix(FP).is_some() != self.prefixed {
            return Err(format!("prefix presence is not {}", self.prefixed));
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), String> {
        let stats = self.cache.stats();
        if stats.inflight != 0 || stats.quarantined_total != u64::from(self.quarantined) {
            return Err(format!("at quiescence the cache reads {stats:?}"));
        }
        Ok(())
    }
}

/// Explores a scenario that must be clean: zero violations over at least
/// 10 000 bounded schedules or an exhausted DFS, plus the whole random
/// tail. Prints the summary line CI greps.
pub(crate) fn assert_clean<M: Model>(label: &str, explorer: &Explorer, make: impl Fn() -> M) {
    let stats = explorer.explore(make);
    let exhausted = stats.schedules < explorer.max_schedules;
    println!(
        "protocols: {label} bounded={} exhausted={exhausted} random={} depth={} violations={}",
        stats.schedules,
        stats.random_schedules,
        stats.max_depth,
        stats.violation.iter().count()
    );
    if let Some(v) = &stats.violation {
        panic!("[{label}] {v}");
    }
    assert!(
        exhausted || stats.schedules >= 10_000,
        "[{label}] {stats:?}"
    );
    assert_eq!(stats.random_schedules, explorer.random_tail, "[{label}]");
}

/// Explores a planted misuse: it must violate with `needle`, and the
/// schedule the explorer prints must replay to the same message. So must
/// `pinned`, a schedule an explorer once printed for it, whatever order
/// a later explorer searches in.
pub(crate) fn assert_violates<M: Model>(
    label: &str,
    make: impl Fn() -> M,
    needle: &str,
    pinned: &str,
) {
    let found = Explorer::default().explore(&make).violation;
    let v = found.unwrap_or_else(|| panic!("[{label}] the planted misuse found no violation"));
    let replayed = |schedule: &str| match replay(&make, schedule) {
        Err(violation) => violation.message,
        Ok(()) => panic!("[{label}] schedule {schedule} replays clean"),
    };
    assert_eq!(
        replayed(&v.schedule),
        v.message,
        "[{label}] replay diverged"
    );
    assert!(v.message.contains(needle), "[{label}] {v}");
    assert!(replayed(pinned).contains(needle), "[{label}] pinned");
    println!("protocols: {label} violates and replays: {v}");
}

#[test]
fn lifecycle_protocols_are_clean_within_the_bound() {
    // The cap is above the largest scenario (1.55 M schedules), so every
    // DFS runs to exhaustion of the preemption bound.
    let explorer = Explorer {
        max_schedules: 2_000_000,
        ..Explorer::default()
    };
    for (leaders_panic, shutdown) in [(false, false), (false, true), (true, false), (true, true)] {
        let label = format!("lifecycle panics={leaders_panic} shutdown={shutdown}");
        assert_clean(
            &label,
            &explorer,
            lifecycle(leaders_panic, shutdown, Misuse::None),
        );
    }
    // Pinned, fully serialized: the leader runs to completion, the others
    // hit, the watchdog ticks out, shutdown finds nothing pending.
    replay(
        lifecycle(false, true, Misuse::None),
        "0.0.0.0.0.1.1.2.2.3.3.4.3.4",
    )
    .expect("the serialized schedule is violation-free");
}

#[test]
fn lifecycle_protocols_catch_every_planted_misuse() {
    // Pinned: t0 leads attempt 0 and t1 joins it; the watchdog expires
    // it; t2 leads attempt 1; t0's late finish, aimed at the newest
    // attempt, ends t2's slot and answers t2 with attempt 0's body.
    assert_violates(
        "lifecycle finish-newest",
        lifecycle(false, false, Misuse::FinishNewest),
        "stale finish",
        "0.0.1.1.2.3.3.3.3.2.0.0.0",
    );
    // Pinned: t0's panic is the first strike, t1's is waiting to be
    // accounted; the watchdog expires t2's attempt, and t2 — its finish
    // finding the attempt gone — strikes anyway: quarantined on one
    // accounted strike.
    assert_violates(
        "lifecycle strike-unowned",
        lifecycle(true, false, Misuse::StrikeUnowned),
        "double strike",
        "0.0.0.0.0.1.1.1.2.2.3.2",
    );
    // Pinned: t0 leads, finishes and drops its `Ended`; everyone else
    // hits or exits, and t0's own waiter is never run.
    assert_violates(
        "lifecycle drop-ended",
        lifecycle(false, true, Misuse::DropEnded),
        "deadlock/lost wakeup",
        "0.0.0.1.1.2.2.3.3.4.3.4",
    );
}
