//! Protocol-model exploration tests: clean models are violation-free
//! over the bounded DFS plus the random tail; fault-injected variants
//! must produce a violation (the checker can fail).

use polyufc_chk::explore::{replay, Explorer, Model};
use polyufc_chk::models::pipeline::Pipeline;
use polyufc_chk::models::quarantine::Quarantine;
use polyufc_chk::models::single_flight::SingleFlight;
use polyufc_chk::models::watchdog::Watchdog;

fn assert_clean<M: Model>(model: M, preemptions: usize, floor: u64) {
    let explorer = Explorer {
        max_preemptions: preemptions,
        ..Explorer::default()
    };
    let stats = explorer.explore(&model);
    assert!(
        stats.violation.is_none(),
        "[{}] unexpected violation: {}",
        model.name(),
        stats.violation.unwrap()
    );
    assert!(
        stats.schedules >= floor,
        "[{}] explored {} bounded schedules, wanted >= {floor}",
        model.name(),
        stats.schedules
    );
}

fn assert_faulty<M: Model>(model: M, needle: &str) {
    let explorer = Explorer::default();
    let stats = explorer.explore(&model);
    let v = stats
        .violation
        .unwrap_or_else(|| panic!("[{}] fault variant found no violation", model.name()));
    assert!(
        v.message.contains(needle),
        "[{}] violation {:?} does not mention {needle:?}",
        model.name(),
        v.message
    );
    // The printed schedule string must reproduce the violation exactly.
    match replay(&model, &v.schedule) {
        Err(r) => assert_eq!(r.message, v.message, "replay diverged"),
        Ok(()) => panic!("[{}] schedule {} replayed clean", model.name(), v.schedule),
    }
}

#[test]
fn single_flight_is_clean_within_the_bound() {
    assert_clean(SingleFlight::new(3, false), 3, 10_000);
}

#[test]
fn pipeline_is_clean_within_the_bound() {
    assert_clean(Pipeline::new(6, 2, false), 5, 10_000);
}

#[test]
fn watchdog_is_clean_within_the_bound() {
    assert_clean(Watchdog::new(true, false), 5, 10_000);
    assert_clean(Watchdog::new(false, false), 5, 10_000);
}

#[test]
fn quarantine_is_clean_within_the_bound() {
    assert_clean(Quarantine::new(4, 2, false), 5, 10_000);
}

#[test]
fn unchecked_finish_ends_a_newer_attempt() {
    assert_faulty(SingleFlight::new(3, true), "stale finish");
}

#[test]
fn single_pass_resume_strands_a_paused_connection() {
    assert_faulty(Pipeline::new(6, 2, true), "deadlock/lost wakeup");
}

#[test]
fn unguarded_panic_strike_double_counts_one_failure() {
    assert_faulty(Watchdog::new(true, true), "double strike");
}

#[test]
fn split_record_strike_loses_updates() {
    assert_faulty(Quarantine::new(2, 2, true), "lost strike update");
}

#[test]
fn explorer_depth_and_random_tail_are_reported() {
    let explorer = Explorer {
        random_tail: 64,
        ..Explorer::default()
    };
    let stats = explorer.explore(&SingleFlight::new(2, false));
    assert!(stats.max_depth > 0);
    assert_eq!(stats.random_schedules, 64);
}
