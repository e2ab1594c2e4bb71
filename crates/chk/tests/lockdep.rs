//! Lockdep detector regression tests (require `--features lockdep`).
#![cfg(feature = "lockdep")]

use polyufc_chk::sync::{lockdep_last_cycle, lockdep_stats, OrderedMutex};
use std::sync::Arc;

/// The order graph is process-global and `cargo test` runs tests
/// concurrently, so tests that assert on the *latest* cycle report
/// serialize through this lock (poison-recovering: an assert failure in
/// one test must not wedge the others).
static REPORT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn report_guard() -> std::sync::MutexGuard<'static, ()> {
    REPORT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn inverted_acquisition_order_reports_a_witness_cycle() {
    let _g = report_guard();
    let a = OrderedMutex::new("test.cycle.a", 0u32);
    let b = OrderedMutex::new("test.cycle.b", 0u32);
    {
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap(); // records a -> b
    }
    let before = lockdep_stats().expect("lockdep on").cycles;
    {
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap(); // records b -> a: closes the cycle
    }
    let stats = lockdep_stats().expect("lockdep on");
    assert!(stats.cycles > before, "cycle not counted");
    let report = lockdep_last_cycle().expect("cycle report recorded");
    assert!(
        report.contains("test.cycle.a"),
        "report names class a: {report}"
    );
    assert!(
        report.contains("test.cycle.b"),
        "report names class b: {report}"
    );
    assert!(
        report.contains("acquisition stack (new edge)")
            && report.contains("acquisition stack (existing edge"),
        "report carries both acquisition stacks: {report}"
    );
}

#[test]
fn same_class_nesting_is_a_self_cycle() {
    let _g = report_guard();
    let outer = OrderedMutex::new("test.selfcycle", 0u32);
    let inner = OrderedMutex::new("test.selfcycle", 0u32);
    let before = lockdep_stats().expect("lockdep on").cycles;
    let _go = outer.lock().unwrap();
    let _gi = inner.lock().unwrap(); // two locks of one class held at once
    let stats = lockdep_stats().expect("lockdep on");
    assert!(stats.cycles > before, "self-cycle not counted");
    assert!(lockdep_last_cycle()
        .expect("report")
        .contains("test.selfcycle"));
}

#[test]
fn consistent_order_and_out_of_order_drops_stay_clean() {
    let _g = report_guard();
    let a = OrderedMutex::new("test.clean.a", 0u32);
    let b = OrderedMutex::new("test.clean.b", 0u32);
    let before = lockdep_stats().expect("lockdep on").cycles;
    for _ in 0..3 {
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        // Guards dropped in acquisition order (not reverse): legal, and
        // must not corrupt the held-class stack.
        drop(ga);
        drop(gb);
    }
    let stats = lockdep_stats().expect("lockdep on");
    assert_eq!(stats.cycles, before, "consistent order flagged a cycle");
    assert!(stats.sites >= 2);
    assert!(stats.max_chain >= 2, "a->b chain has depth 2");
}

#[test]
fn poisoned_holder_does_not_wedge_detector() {
    let _g = report_guard();
    let poisoned = Arc::new(OrderedMutex::new("test.poison.victim", 0u32));
    {
        let m = Arc::clone(&poisoned);
        let t = std::thread::spawn(move || {
            let _guard = m.lock().unwrap();
            panic!("deliberate panic while holding the lock");
        });
        assert!(t.join().is_err(), "holder panicked");
    }
    // The mutex itself is poisoned (std semantics preserved)...
    let recovered = match poisoned.lock() {
        Err(p) => p.into_inner(),
        Ok(_) => panic!("expected the victim mutex to be poisoned"),
    };
    assert_eq!(*recovered, 0);
    drop(recovered);
    // ...but the detector is not wedged: new classes register, locks
    // acquire, stats read, and cycle detection still fires.
    let x = OrderedMutex::new("test.poison.after.x", 0u32);
    let y = OrderedMutex::new("test.poison.after.y", 0u32);
    {
        let _gx = x.lock().unwrap();
        let _gy = y.lock().unwrap();
    }
    let before = lockdep_stats().expect("stats readable after panic").cycles;
    {
        let _gy = y.lock().unwrap();
        let _gx = x.lock().unwrap();
    }
    let stats = lockdep_stats().expect("stats readable after cycle");
    assert!(
        stats.cycles > before,
        "detector stopped detecting after a poisoned holder"
    );
    let report = lockdep_last_cycle().expect("report after poison");
    assert!(report.contains("test.poison.after.x"));
}
