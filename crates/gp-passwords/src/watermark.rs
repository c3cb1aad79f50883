//! Pure group-commit watermark arithmetic.
//!
//! [`Watermark`] is the state machine behind [`crate::wal::ShardWal`]'s
//! commit sequencing: which sequence numbers have been appended, which are
//! on stable storage, and when the fsync policy demands a sync. It touches
//! no I/O, so the gp-sched model tests (`tests/sched_watermark.rs`) can
//! drive it under a deterministic scheduler with a simulated disk and
//! exhaustively check the invariant the whole durability story rests on:
//! **no acknowledged sequence may exceed the durable watermark**.

use crate::wal::FsyncPolicy;

/// Append/durable sequence bookkeeping for one WAL, plus the fsync-policy
/// decision logic. The owner performs the actual disk writes and reports
/// outcomes back ([`Watermark::note_synced`], [`Watermark::rollback_append`]).
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    policy: FsyncPolicy,
    /// Commit sequence: incremented per appended record.  Monotonic for
    /// the life of the handle (a snapshot reset does not rewind it).
    seq: u64,
    /// The highest `seq` known to be on stable storage (advanced by every
    /// fsync).  Records with `seq > durable_seq()` are appended but not
    /// yet committed — they must not be acknowledged until a sync carries
    /// the watermark past them.
    durable: u64,
    /// Appends since the last fsync (drives [`FsyncPolicy::Batch`]).
    unsynced: u32,
}

impl Watermark {
    /// A fresh watermark at sequence zero.
    pub fn new(policy: FsyncPolicy) -> Self {
        Watermark {
            policy,
            seq: 0,
            durable: 0,
            unsynced: 0,
        }
    }

    /// Commit sequence of the last appended record (0 before any append).
    pub fn appended_seq(&self) -> u64 {
        self.seq
    }

    /// The highest appended sequence known to be on stable storage.
    pub fn durable_seq(&self) -> u64 {
        self.durable
    }

    /// Appends accumulated since the last sync.
    pub fn unsynced(&self) -> u32 {
        self.unsynced
    }

    /// Issue the commit sequence for a new append.
    pub fn begin_append(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The append's bytes were rolled back (write or flush failed): retire
    /// its sequence. The durable watermark can never exceed the appended
    /// sequence, so it is clamped too.
    pub fn rollback_append(&mut self) {
        self.seq -= 1;
        self.durable = self.durable.min(self.seq);
    }

    /// An append's bytes landed: it accumulates toward the next sync.
    pub fn note_appended(&mut self) {
        self.unsynced = self.unsynced.saturating_add(1);
    }

    /// Whether the fsync policy demands a sync now — asked by the
    /// group-commit barrier, and by a flushed append right after its
    /// [`Watermark::note_appended`]: `Always` whenever anything is
    /// outstanding, `Batch(n)` once `n` appends accumulated, `Never`
    /// leaves flushing to the OS.
    pub fn barrier_needs_sync(&self) -> bool {
        match self.policy {
            FsyncPolicy::Always => self.unsynced > 0,
            FsyncPolicy::Batch(every) => self.unsynced >= every.max(1),
            FsyncPolicy::Never => false,
        }
    }

    /// An fsync completed: every appended record is now on stable storage.
    pub fn note_synced(&mut self) {
        self.unsynced = 0;
        self.durable = self.seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_policy_syncs_every_flushed_append() {
        let mut w = Watermark::new(FsyncPolicy::Always);
        let seq = w.begin_append();
        assert_eq!(seq, 1);
        w.note_appended();
        assert!(w.barrier_needs_sync());
        w.note_synced();
        assert_eq!(w.durable_seq(), 1);
        assert_eq!(w.unsynced(), 0);
    }

    #[test]
    fn batch_policy_syncs_at_threshold() {
        let mut w = Watermark::new(FsyncPolicy::Batch(3));
        for expect in [false, false, true] {
            w.begin_append();
            w.note_appended();
            assert_eq!(w.barrier_needs_sync(), expect);
        }
        w.note_synced();
        assert_eq!(w.durable_seq(), 3);
    }

    #[test]
    fn staged_appends_wait_for_the_barrier() {
        let mut w = Watermark::new(FsyncPolicy::Always);
        w.begin_append();
        w.note_appended();
        assert_eq!(w.durable_seq(), 0);
        assert!(w.barrier_needs_sync());
        w.note_synced();
        assert_eq!(w.durable_seq(), 1);
        assert!(!w.barrier_needs_sync());
    }

    #[test]
    fn rollback_retires_the_seq_and_clamps_durable() {
        let mut w = Watermark::new(FsyncPolicy::Never);
        w.begin_append();
        w.note_synced();
        let seq = w.begin_append();
        assert_eq!(seq, 2);
        w.rollback_append();
        assert_eq!(w.appended_seq(), 1);
        assert_eq!(w.durable_seq(), 1);
    }

    #[test]
    fn never_policy_never_demands_sync() {
        let mut w = Watermark::new(FsyncPolicy::Never);
        w.begin_append();
        w.note_appended();
        assert!(!w.barrier_needs_sync());
        assert_eq!(w.durable_seq(), 0);
    }
}
