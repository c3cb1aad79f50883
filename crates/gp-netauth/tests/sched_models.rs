//! Exhaustive interleaving model tests for gp-netauth's coordination
//! kernels, driven by the gp-sched deterministic scheduler.
//!
//! Only compiled under `RUSTFLAGS="--cfg gp_sched"` — that flag switches
//! `gp_sched::sync` (which `PendingAccounts` is built against) from std
//! primitives to the instrumented shims, so every lock, wait, and notify
//! below is a scheduling choice point the explorer enumerates. See CONCURRENCY.md
//! for the protocol inventory and README.md for how to replay a failing
//! schedule trace.
#![cfg(gp_sched)]

use gp_netauth::pending::PendingAccounts;
use gp_sched::{thread, Explorer};
use std::sync::Arc;

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
