//! Watchdog expiry vs. worker finish vs. shutdown drain model.
//!
//! Miniature of the deadline/ownership protocol in `serve::engine`: an
//! in-flight request is one pending slot in the shard cache, and exactly
//! one of three parties *ends* that slot and thereby owns its accounting
//! and its waiters — the worker when the job returns, the watchdog when
//! the deadline expires, or shutdown when it drains what is left. The
//! watchdog thread parks in `recv_timeout` on a channel nobody sends on;
//! a timeout is a tick, and `Engine::shutdown` stops it by dropping the
//! sender and joining, *before* it drains. Step ↔ source mapping:
//!
//! | step | source |
//! |---|---|
//! | worker `Run` | the compile job in `Engine::dispatch` (panics in the modelled scenario) |
//! | worker `Finish` | `ArtifactCache::finish` (shard mutex): `owned` iff the slot was still this attempt |
//! | worker `Account` | `record_strike` / `clear_strikes` (shard mutex) — **only if owned** |
//! | worker `Wake` | `Waiters::wake` for an owned attempt |
//! | watchdog `Tick` | `spawn_watchdog`'s `recv_timeout`: disconnected → exit, timeout → scan |
//! | watchdog `Scan` | `ArtifactCache::take_expired` (shard mutex) |
//! | watchdog `Account`/`Wake` | deadline counter + `record_strike`, then `Waiters::wake(DeadlineExceeded)` |
//! | shutdown `Stop` | `Watchdog::stop`: drop the sender |
//! | shutdown `Join` | `Watchdog::stop`: join the thread (blocks until the watchdog exits) |
//! | shutdown `Drain` | `ArtifactCache::drain_pending` (shard mutex), after the pool's grace |
//! | shutdown `Wake` | `Waiters::wake(ShuttingDown)` for drained attempts |
//!
//! Checked properties: the request is answered exactly once; at most one
//! strike is recorded per failed request (ownership makes strike
//! accounting exclusive); shutdown's join always returns (a watchdog
//! that could miss its stop would park it forever — a deadlock); no scan
//! runs after the join. The injected bug, `fault_unguarded_strike`,
//! strikes on the worker's panic path without checking ownership: the
//! watchdog strikes on deadline expiry, then the panicking worker strikes
//! the same fingerprint again, so one failed request counts twice toward
//! the quarantine threshold (this was a live `engine.rs` defect; see
//! EXPERIMENTS.md).

use crate::explore::Model;

const WORKER: usize = 0;
const WATCHDOG: usize = 1;
const SHUTDOWN: usize = 2;

// Worker pcs.
const W_RUN: u8 = 0;
const W_FINISH: u8 = 1;
const W_ACCOUNT: u8 = 2;

// Watchdog pcs.
const D_TICK: u8 = 0;
const D_SCAN: u8 = 1;
const D_ACCOUNT: u8 = 2;

// Shutdown pcs.
const S_STOP: u8 = 0;
const S_JOIN: u8 = 1;
const S_DRAIN: u8 = 2;

/// Every thread's last step (run the waiters it owns) and final pc.
const WAKE: u8 = 3;
const DONE: u8 = 4;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Strike on the worker panic path without checking ownership
    /// (injected bug; this was the live engine.rs defect).
    pub fault_unguarded_strike: bool,
    /// Whether the modelled job panics (the interesting scenario) or
    /// completes normally.
    pub worker_panics: bool,
    /// The pending slot: present until someone ends it.
    pending: bool,
    completions: u32,
    strikes: u32,
    /// The stop channel's sender was dropped.
    stop: bool,
    /// Timeouts the watchdog may still take (bounds the model).
    ticks_left: u8,
    /// Per thread: program counter, and whether it ended the slot.
    pc: [u8; 3],
    owned: [bool; 3],
}

impl Watchdog {
    /// A model with one in-flight request, a deadline watchdog (the
    /// deadline is treated as already expired whenever it scans — the
    /// worst case), and a shutdown.
    pub fn new(worker_panics: bool, fault_unguarded_strike: bool) -> Self {
        Watchdog {
            fault_unguarded_strike,
            worker_panics,
            pending: true,
            completions: 0,
            strikes: 0,
            stop: false,
            ticks_left: 3,
            pc: [W_RUN, D_TICK, S_STOP],
            owned: [false; 3],
        }
    }

    fn strike(&mut self) -> Result<(), String> {
        self.strikes += 1;
        if self.strikes > 1 {
            return Err(format!(
                "double strike: one failed request recorded {} times toward quarantine",
                self.strikes
            ));
        }
        Ok(())
    }
}

impl Model for Watchdog {
    fn name(&self) -> &'static str {
        "watchdog"
    }

    fn threads(&self) -> usize {
        3
    }

    fn done(&self, t: usize) -> bool {
        self.pc[t] == DONE
    }

    fn enabled(&self, t: usize) -> bool {
        match (t, self.pc[t]) {
            (_, DONE) => false,
            // Parked in recv_timeout: returns on disconnect, or on a
            // timeout while the model still grants one.
            (WATCHDOG, D_TICK) => self.stop || self.ticks_left > 0,
            (SHUTDOWN, S_JOIN) => self.pc[WATCHDOG] == DONE,
            _ => true,
        }
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        let pc = self.pc[t];
        self.pc[t] = pc + 1;
        match (t, pc) {
            (WORKER, W_RUN) | (SHUTDOWN, S_JOIN) => {}
            (SHUTDOWN, S_STOP) => self.stop = true,
            (WATCHDOG, D_TICK) if self.stop => self.pc[t] = DONE, // Disconnected
            (WATCHDOG, D_TICK) => self.ticks_left -= 1,           // Timeout
            // finish / take_expired / drain_pending: whoever finds the
            // slot still pending ends it and owns its outcome.
            (WORKER, W_FINISH) | (WATCHDOG, D_SCAN) | (SHUTDOWN, S_DRAIN) => {
                if t == WATCHDOG && self.pc[SHUTDOWN] > S_JOIN {
                    return Err("watchdog scanned after shutdown joined it".into());
                }
                self.owned[t] = std::mem::replace(&mut self.pending, false);
            }
            (WORKER, W_ACCOUNT) => {
                if self.worker_panics {
                    if self.owned[t] || self.fault_unguarded_strike {
                        return self.strike();
                    }
                } else if self.owned[t] {
                    self.strikes = 0; // clear_strikes on an owned success
                }
            }
            (WATCHDOG, D_ACCOUNT) => {
                if self.owned[t] {
                    return self.strike();
                }
            }
            (_, WAKE) => {
                self.completions += u32::from(self.owned[t]);
                if t == WATCHDOG {
                    self.pc[t] = D_TICK; // back around the loop
                }
            }
            _ => return Err(format!("model bug: t{t} stepped at pc {pc}")),
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), String> {
        if self.completions != 1 {
            return Err(format!(
                "request completed {} times (expected exactly once)",
                self.completions
            ));
        }
        // Exactly one party owned the slot; the expected strike count
        // follows from who: shutdown drains without striking, the
        // watchdog strikes its deadline, and the worker strikes only a
        // panicked job it still owned (an owned success clears strikes).
        let expected =
            u32::from(!self.owned[SHUTDOWN] && (!self.owned[WORKER] || self.worker_panics));
        if self.strikes != expected {
            return Err(format!(
                "one request left {} strikes (expected {expected} for this owner)",
                self.strikes
            ));
        }
        Ok(())
    }
}
