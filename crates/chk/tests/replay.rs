//! Deterministic schedule-replay regressions: one pinned interleaving
//! per protocol model. The schedule strings below were discovered by the
//! bounded DFS (they are stable: the DFS has no randomness); each must
//! keep replaying to exactly the same violation, and a serialized clean
//! schedule must keep replaying clean. If a model change breaks a pin,
//! that is a semantic change to the protocol model — re-derive the
//! schedule with `protocol_check` and review the diff deliberately.

use polyufc_chk::explore::{parse_schedule, replay, schedule_string};
use polyufc_chk::models::pipeline::Pipeline;
use polyufc_chk::models::quarantine::Quarantine;
use polyufc_chk::models::single_flight::SingleFlight;
use polyufc_chk::models::watchdog::Watchdog;

#[test]
fn pinned_single_flight_stale_finish_replays() {
    // t0 leads attempt 0 and t1 joins it; the aborter expires the slot;
    // t2 then leads attempt 1 of the same key. Without the attempt-id
    // check t0's late finish ends t2's slot and answers t2 with attempt
    // 0's result.
    let v = replay(&SingleFlight::new(3, true), "0.0.1.3.2.0.0")
        .expect_err("pinned schedule is a violation");
    assert_eq!(
        v.message,
        "stale finish: attempt 0 answered t2, which is queued on attempt 1"
    );
}

#[test]
fn pinned_pipeline_strand_replays_as_deadlock() {
    // Client writes all six requests; the reactor's single-pass variant
    // ingests the trailing cache hits after its own flush and parks with
    // ready-but-unflushed slots and no future doorbell.
    let v = replay(
        &Pipeline::new(6, 2, true),
        "0.0.0.0.0.0.1.1.1.1.2.1.1.1.1.2.1.1.1.1",
    )
    .expect_err("pinned schedule is a violation");
    assert!(
        v.message.starts_with("deadlock/lost wakeup"),
        "unexpected message: {}",
        v.message
    );
}

#[test]
fn pinned_watchdog_double_strike_replays() {
    // The watchdog ticks and ends the pending slot; the panicking worker
    // finds it gone but — unguarded by ownership — strikes anyway, and
    // the watchdog's own strike is then the second.
    let v = replay(&Watchdog::new(true, true), "0.1.1.0.0.0.1")
        .expect_err("pinned schedule is a violation");
    assert_eq!(
        v.message,
        "double strike: one failed request recorded 2 times toward quarantine"
    );
}

#[test]
fn pinned_quarantine_lost_update_replays() {
    // Two split strikers interleave read/write around a clear; the
    // second write resurrects a cleared strike.
    let v = replay(&Quarantine::new(2, 2, true), "0.0.1.2.1")
        .expect_err("pinned schedule is a violation");
    assert!(
        v.message.starts_with("lost strike update"),
        "unexpected message: {}",
        v.message
    );
}

#[test]
fn serialized_clean_schedule_replays_clean() {
    // Fully serialized execution (no preemption at all) of the clean
    // single-flight model: the leader runs to completion, the second
    // requester hits, then the aborter finds nothing pending.
    let m = SingleFlight::new(2, false);
    replay(&m, "0.0.0.0.0.1.1.2").expect("serialized schedule is violation-free");
}

#[test]
fn schedule_strings_round_trip() {
    let s = vec![0usize, 3, 1, 1, 2];
    assert_eq!(parse_schedule(&schedule_string(&s)).unwrap(), s);
    assert_eq!(parse_schedule("").unwrap(), Vec::<usize>::new());
    assert!(parse_schedule("1.x.2").is_err());
}
