//! Exhaustive interleaving model tests for gp-netauth's coordination
//! kernels, driven by the gp-sched deterministic scheduler.
//!
//! Only compiled under `RUSTFLAGS="--cfg gp_sched"` — that flag switches
//! `gp_sched::sync` (which `PendingAccounts` and `AckState` are built
//! against) from std primitives to the instrumented shims, so every
//! lock, wait, and notify below is a
//! scheduling choice point the explorer enumerates. See CONCURRENCY.md
//! for the protocol inventory and README.md for how to replay a failing
//! schedule trace.
#![cfg(gp_sched)]

use gp_netauth::acks::AckState;
use gp_netauth::pending::PendingAccounts;
use gp_sched::{thread, Explorer};
use std::sync::Arc;
use std::time::Duration;

/// PendingAccounts refcounting: with two racing enrollments of one name,
/// the barrier stays up until *both* commit (each holds a reference): a
/// login checking the table can never see a half-released barrier as
/// clear while the second enrollment still holds it.
#[test]
fn pending_accounts_refcount_requires_all_commits() {
    let exploration = Explorer::new().explore(|| {
        let pending = Arc::new(PendingAccounts::new());
        pending.begin("alice");

        let p2 = Arc::clone(&pending);
        let second_enroll = thread::spawn(move || {
            p2.begin("alice");
            // This thread holds a reference: the barrier must be up no
            // matter what the first enrollment's commit is doing.
            assert!(
                p2.is_pending("alice"),
                "barrier dropped while a ref is held"
            );
            p2.end("alice");
        });

        pending.end("alice");
        second_enroll.join();
        assert!(
            !pending.is_pending("alice"),
            "all enrollments ended, table must be clear"
        );
    });
    assert!(exploration.schedules > 10);
    assert_eq!(exploration.pruned, 0);
}

/// AckState: once the recorder has recorded `seq`, a waiter for `seq` must
/// observe it — the timeout transition only fires at quiescence, and at
/// quiescence the mark is final, so `wait_for` can never spuriously time
/// out while the ack it awaits has arrived.
#[test]
fn ack_waiter_observes_recorded_seq() {
    let exploration = Explorer::new().explore(|| {
        let acks = Arc::new(AckState::new());
        let a2 = Arc::clone(&acks);
        let recorder = thread::spawn(move || {
            a2.record(1);
            a2.record(2);
        });
        let waited = acks.wait_for(2, Duration::from_millis(5));
        assert!(
            waited.is_ok(),
            "recorder always runs, the ack must be observed: {waited:?}"
        );
        recorder.join();
    });
    assert!(exploration.schedules > 1);
    assert_eq!(exploration.pruned, 0);
}

/// AckState: a broken connection must error every waiter out — no
/// schedule may leave the waiter parked forever, and no waiter may return
/// `Ok` for an ack that never arrived.
#[test]
fn ack_waiter_errors_on_broken_connection() {
    let exploration = Explorer::new().explore(|| {
        let acks = Arc::new(AckState::new());
        let a2 = Arc::clone(&acks);
        let breaker = thread::spawn(move || {
            a2.mark_broken();
        });
        let waited = acks.wait_for(1, Duration::from_millis(5));
        assert!(
            waited.is_err(),
            "no ack was ever recorded, wait_for must not succeed"
        );
        breaker.join();
    });
    assert_eq!(exploration.pruned, 0);
}

/// AckState: with no recorder at all the waiter must take the timeout
/// path (never hang, never succeed).
#[test]
fn ack_waiter_times_out_at_quiescence() {
    Explorer::new().explore(|| {
        let acks = AckState::new();
        let waited = acks.wait_for(1, Duration::from_millis(1));
        let err = waited.expect_err("nothing records, the wait must time out");
        assert!(
            err.to_string().contains("timed out"),
            "unexpected error: {err}"
        );
    });
}
