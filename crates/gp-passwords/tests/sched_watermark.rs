//! Exhaustive interleaving model test for the group-commit watermark.
//!
//! [`gp_passwords::watermark::Watermark`] is the pure state machine behind
//! the node log's (`Wal`'s) commit sequencing. Here it is wrapped in gp-sched shim
//! primitives and driven by concurrent appenders, a group-committer, and
//! an acknowledgement checker under the deterministic scheduler. Unlike
//! the `--cfg gp_sched` model tests in gp-netauth, this runs in the plain
//! test suite too: the shims are instrumented whenever an explorer
//! execution is active, no cfg switch needed.

use gp_passwords::watermark::Watermark;
use gp_sched::{shim, thread, Explorer};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A WAL with a simulated disk: `stable` is the highest sequence whose
/// bytes an fsync has actually pushed to "stable storage".
struct SimWal {
    mark: Watermark,
    stable: u64,
}

impl SimWal {
    /// The group-commit barrier: fsync if anything is outstanding, then
    /// advance the durable watermark — exactly `Wal::group_commit`'s
    /// ordering (sync_all first, bookkeeping after).
    fn group_commit(&mut self) -> u64 {
        if self.mark.barrier_needs_sync() {
            self.stable = self.mark.appended_seq();
            self.mark.note_synced();
        }
        self.mark.durable_seq()
    }
}

/// The durability invariant every committed number rests on: a sequence
/// acknowledged by `group_commit` (i.e. `<= durable_seq`) is on simulated
/// stable storage in *every* interleaving of appenders and committers.
#[test]
fn group_commit_never_acks_above_stable() {
    let exploration = Explorer::new().explore(|| {
        let wal = Arc::new(shim::Mutex::new(SimWal {
            mark: Watermark::new(),
            stable: 0,
        }));
        let acked = Arc::new(shim::AtomicU64::new(0));

        let appenders: Vec<_> = (0..2)
            .map(|_| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || {
                    let mut w = wal.lock();
                    // Group-commit fast path: stage the append, ack later.
                    let _seq = w.mark.begin_append();
                    w.mark.note_appended();
                })
            })
            .collect();

        let committer = {
            let (wal, acked) = (Arc::clone(&wal), Arc::clone(&acked));
            thread::spawn(move || {
                let durable = wal.lock().group_commit();
                acked.fetch_max(durable, Ordering::SeqCst);
            })
        };

        // The checker races everyone: the ack watermark must never pass
        // simulated stable storage, whatever the schedule.
        {
            let w = wal.lock();
            let acked_now = acked.load(Ordering::SeqCst);
            assert!(
                acked_now <= w.stable,
                "acked seq {acked_now} above stable storage {}",
                w.stable
            );
            assert!(
                w.mark.durable_seq() <= w.stable,
                "durable watermark passed the disk"
            );
        }

        for a in appenders {
            a.join();
        }
        committer.join();

        // Final barrier: everything appended becomes durable, and the ack
        // watermark still never exceeds stable storage.
        let mut w = wal.lock();
        let durable = w.group_commit();
        acked.fetch_max(durable, Ordering::SeqCst);
        assert_eq!(durable, w.mark.appended_seq());
        assert!(acked.load(Ordering::SeqCst) <= w.stable);
    });
    assert!(
        exploration.schedules > 10,
        "appenders and committer must branch the schedule"
    );
    assert_eq!(
        exploration.pruned, 0,
        "exploration must be exhaustive, not truncated"
    );
}

/// A failed append rolls its sequence back; the durable watermark must
/// clamp and a subsequent barrier must re-establish durable == appended
/// in every schedule.
#[test]
fn rollback_keeps_watermark_consistent() {
    let exploration = Explorer::new().explore(|| {
        let wal = Arc::new(shim::Mutex::new(SimWal {
            mark: Watermark::new(),
            stable: 0,
        }));
        let wal2 = Arc::clone(&wal);
        let failing = thread::spawn(move || {
            let mut w = wal2.lock();
            let _seq = w.mark.begin_append();
            // The write failed: retire the seq (`Wal::append_record`'s error path).
            w.mark.rollback_append();
        });
        {
            let mut w = wal.lock();
            let _seq = w.mark.begin_append();
            w.mark.note_appended();
        }
        failing.join();
        let mut w = wal.lock();
        assert!(w.mark.durable_seq() <= w.mark.appended_seq());
        w.stable = w.mark.appended_seq();
        w.mark.note_synced();
        assert_eq!(w.mark.durable_seq(), w.mark.appended_seq());
    });
    assert!(exploration.schedules > 1);
}
