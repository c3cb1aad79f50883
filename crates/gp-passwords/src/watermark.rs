//! Pure group-commit watermark arithmetic.
//!
//! [`Watermark`] is the state machine behind [`crate::wal::Wal`]'s
//! commit sequencing: which sequence numbers have been appended, which are
//! on stable storage, and when a sync is owed. It touches no I/O, so the
//! gp-sched model tests (`tests/sched_watermark.rs`) can drive it under a
//! deterministic scheduler with a simulated disk and exhaustively check
//! the invariant the whole durability story rests on: **no acknowledged
//! sequence may exceed the durable watermark**.

/// Append/durable sequence bookkeeping for one WAL. The owner performs
/// the actual disk writes and reports outcomes back
/// ([`Watermark::note_synced`], [`Watermark::rollback_append`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Watermark {
    /// Commit sequence: incremented per appended record.  Monotonic for
    /// the life of the handle (a snapshot reset does not rewind it).
    seq: u64,
    /// The highest `seq` known to be on stable storage (advanced by every
    /// fsync).  Records with `seq > durable_seq()` are appended but not
    /// yet committed — they must not be acknowledged until a sync carries
    /// the watermark past them.
    durable: u64,
    /// Appends since the last fsync.
    unsynced: u32,
}

impl Watermark {
    /// A fresh watermark at sequence zero.
    pub fn new() -> Self {
        Self::default()
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

    /// Whether the group-commit barrier owes a sync: anything appended
    /// since the last one.
    pub fn barrier_needs_sync(&self) -> bool {
        self.unsynced > 0
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
    fn staged_appends_wait_for_the_barrier() {
        let mut w = Watermark::new();
        assert_eq!(w.begin_append(), 1);
        w.note_appended();
        assert_eq!(w.durable_seq(), 0);
        assert!(w.barrier_needs_sync());
        w.note_synced();
        assert_eq!(w.durable_seq(), 1);
        assert_eq!(w.unsynced(), 0);
        assert!(!w.barrier_needs_sync());
    }

    #[test]
    fn rollback_retires_the_seq_and_clamps_durable() {
        let mut w = Watermark::new();
        w.begin_append();
        w.note_synced();
        let seq = w.begin_append();
        assert_eq!(seq, 2);
        w.rollback_append();
        assert_eq!(w.appended_seq(), 1);
        assert_eq!(w.durable_seq(), 1);
    }
}
