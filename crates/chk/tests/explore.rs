//! Self-test of the explorer on a toy model. What the explorer is for —
//! the serving protocols — is checked where the production code lives
//! (`crates/serve/src/{shard,reactor}/protocols.rs`).

use polyufc_chk::explore::{parse_schedule, replay, schedule_string, Explorer, Model};
use polyufc_chk::SplitMix64;

/// Two incrementers bump a shared counter non-atomically (read, then
/// write); with `waiter`, a third thread parks until the counter reaches
/// 2 — which a lost update makes never.
#[derive(Default)]
struct Toy {
    waiter: bool,
    counter: u32,
    /// Per incrementer: 0 = read next, 1 = write next, 2 = done.
    pc: [u8; 2],
    local: [u32; 2],
    waiter_done: bool,
}

fn toy(waiter: bool) -> impl Fn() -> Toy {
    move || Toy {
        waiter,
        ..Toy::default()
    }
}

impl Model for Toy {
    fn threads(&self) -> usize {
        2 + usize::from(self.waiter)
    }

    fn done(&self, t: usize) -> bool {
        match self.pc.get(t) {
            Some(&pc) => pc == 2,
            None => self.waiter_done,
        }
    }

    fn enabled(&self, t: usize) -> bool {
        !self.done(t) && (t < 2 || self.counter == 2)
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        match self.pc.get_mut(t) {
            None => self.waiter_done = true,
            Some(pc) => {
                match *pc {
                    0 => self.local[t] = self.counter,
                    _ => self.counter = self.local[t] + 1,
                }
                *pc += 1;
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), String> {
        match self.counter {
            2 => Ok(()),
            n => Err(format!("lost update: counter is {n}")),
        }
    }
}

fn explorer(max_preemptions: usize, random_tail: u64) -> Explorer {
    Explorer {
        max_preemptions,
        random_tail,
        ..Explorer::default()
    }
}

#[test]
fn preemption_bound_is_honoured_and_a_violation_replays() {
    // Without preemptions each incrementer runs to completion: the two
    // serial orders, both clean.
    let serial = explorer(0, 0).explore(toy(false));
    assert_eq!((serial.schedules, serial.max_depth), (2, 4));
    assert!(serial.violation.is_none());
    // One preemption is enough to interleave the read and the write.
    let found = explorer(1, 0).explore(toy(false)).violation;
    let v = found.expect("the race is within one preemption");
    assert_eq!(v.schedule, "0.1.1.0");
    assert_eq!(v.message, "lost update: counter is 1");
    assert_eq!(replay(toy(false), &v.schedule), Err(v));
}

#[test]
fn a_thread_parked_forever_is_reported_as_deadlock() {
    let found = explorer(1, 0).explore(toy(true)).violation;
    let v = found.expect("the waiter never wakes after a lost update");
    assert_eq!(
        v.message,
        "deadlock/lost wakeup: no thread enabled but t2 never finished"
    );
    assert_eq!(replay(toy(true), &v.schedule), Err(v));
    replay(toy(true), "0.0.1.1.2").expect("the serial order is clean");
}

#[test]
fn random_tail_is_counted_and_finds_the_race_beyond_the_bound() {
    let stats = explorer(0, 64).explore(toy(false));
    assert_eq!(stats.schedules, 2);
    // The tail stops at its first violation; the DFS found none.
    assert!((1..=64).contains(&stats.random_schedules));
    assert!(stats.violation.is_some(), "unbounded tail sees the race");
}

#[test]
fn a_truncated_schedule_does_not_replay_clean() {
    replay(toy(false), "0.0.1.1").expect("full serial schedule");
    let v = replay(toy(false), "0.0").expect_err("cut short");
    assert_eq!(
        v.message,
        "schedule ends before quiescence: t1 still enabled"
    );
    assert!(replay(toy(false), "0.0.0").is_err(), "t0 is done");
}

#[test]
fn schedule_strings_round_trip() {
    let s = vec![0usize, 3, 1, 1, 2];
    assert_eq!(parse_schedule(&schedule_string(&s)).unwrap(), s);
    assert_eq!(parse_schedule("").unwrap(), Vec::<usize>::new());
    assert!(parse_schedule("1.x.2").is_err());
}

#[test]
fn splitmix64_matches_the_published_reference_vector() {
    // Same vector `vendor/rand` pins: the random tail here and the
    // fault and chaos draws' `StdRng` are this generator, bit for bit.
    let mut r = SplitMix64::new(1234567);
    assert_eq!(r.next_u64(), 6457827717110365317);
    assert_eq!(r.next_u64(), 3203168211198807973);
    assert!((0.0..1.0).contains(&r.next_f64()));
}
