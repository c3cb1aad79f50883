//! Per-shard write-ahead logging and atomic snapshot primitives.
//!
//! The sharded store's original persistence (`std::fs::write` per shard)
//! had a crash window: a power cut mid-write truncates a shard file, the
//! loader rejects the whole directory, and every account enrolled since
//! the previous successful save is gone.  This module provides the two
//! building blocks that close that window, in the crash-only shape the
//! cheap-recovery literature argues for:
//!
//! * [`ShardWal`] — an append-only, length-prefixed, checksummed log of
//!   mutations (enroll / update / remove).  A mutation is acknowledged
//!   only after its record is appended and fsynced, so recovery can
//!   replay everything the server ever acked.  [`ShardWal::replay`] tolerates a *torn tail*
//!   — a final record cut at any byte by a crash — and recovers exactly
//!   the preceding prefix.
//! * [`atomic_write`] — snapshot publication as `write tmp → fsync →
//!   rename → fsync dir`, so a snapshot file is either the complete old
//!   version or the complete new version, never a truncated hybrid.
//!
//! # Record format
//!
//! WALs and shard snapshots share one framing:
//!
//! ```text
//! file   := MAGIC record*
//! MAGIC  := "GP-WAL3\n"                      (8 bytes)
//! record := len:u32be  check:u64be  payload  (len = payload length)
//! payload:= op:u8  data                      (checksum = FNV-1a 64 of payload)
//! op     := 1 enroll | 2 update | 3 remove
//! data   := packed account bytes             (enroll/update, see crate::resident)
//!         | username bytes                   (remove)
//! ```
//!
//! A snapshot is the same file holding one `update` record per account,
//! in name order, read back through [`ShardWal::replay`].  The replication
//! stream carries the payloads verbatim.  Files of another format (the
//! `GP-WAL1` log, the `# gp-passwords store v1` text snapshot, the
//! `GP-WAL2` log whose packed accounts stored their salt) are refused by
//! their magic.
//!
//! The log has a single appender (the owning shard, under its lock)
//! writing strictly forward, so a checksum/length violation on the
//! *final* record can only be the torn tail of a crashed append — replay
//! stops there and reports the dropped byte count.  A violation with
//! intact records *after* it cannot be a tear (nothing appends past an
//! unfinished record): that is mid-file corruption and replay surfaces
//! it as an error rather than silently truncating the acked suffix.
//! Likewise a record whose checksum *passes* but whose payload does not
//! decode is real corruption (or a software bug) and is an error.  A
//! snapshot is published whole by [`atomic_write`], so its loader treats
//! even a torn tail as corruption.

use crate::resident::PackedAccount;
use crate::stored::StoredPassword;
use crate::watermark::Watermark;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// File magic at the start of every WAL (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"GP-WAL3\n";

/// Per-record header size: `u32` payload length + `u64` checksum.
const RECORD_HEADER: usize = 4 + 8;

/// The payload `op` of an update record, the one a snapshot holds per
/// account.
pub(crate) const OP_UPDATE: u8 = 2;

/// Sanity cap on a single WAL record's payload.  A declared length past
/// this is treated as a torn/garbage tail, not an allocation request.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// FNV-1a 64-bit hash — the WAL record checksum (and the stable account
/// routing hash in [`crate::shard::shard_index`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// Replay as an account insert (new account).
    Enroll(StoredPassword),
    /// Replay as an account insert/replace.
    Update(StoredPassword),
    /// Replay as an account removal.
    Remove(String),
}

impl WalEntry {
    /// The payload's `op` byte (see the module-level record format).
    fn tag(&self) -> u8 {
        match self {
            WalEntry::Enroll(_) => 1,
            WalEntry::Update(_) => OP_UPDATE,
            WalEntry::Remove(_) => 3,
        }
    }

    /// The account the entry mutates.
    pub fn username(&self) -> &str {
        match self {
            WalEntry::Enroll(record) | WalEntry::Update(record) => &record.username,
            WalEntry::Remove(username) => username,
        }
    }

    /// Encode as a record payload (`op:u8` + data) — the exact bytes
    /// [`ShardWal`] appends, reused verbatim as the replication stream's
    /// record body so primary and backup log bit-identical records.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut payload = vec![self.tag()];
        match self {
            WalEntry::Enroll(record) | WalEntry::Update(record) => {
                PackedAccount::pack_into(record, &mut payload)
            }
            WalEntry::Remove(username) => payload.extend_from_slice(username.as_bytes()),
        }
        payload
    }

    /// Decode a record payload (the inverse of [`WalEntry::to_payload`]),
    /// accepting exactly the bytes `to_payload` writes.  Errors are
    /// `InvalidData`: an intact checksum over an undecodable payload is
    /// corruption, not a crash artifact, and a peer's payload is input
    /// from outside the process.
    pub fn from_payload(payload: &[u8]) -> std::io::Result<Self> {
        let invalid = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
        let (&tag, data) = payload
            .split_first()
            .ok_or_else(|| invalid("empty WAL payload".into()))?;
        match tag {
            1 => PackedAccount::decode(data).map(WalEntry::Enroll),
            OP_UPDATE => PackedAccount::decode(data).map(WalEntry::Update),
            3 => match std::str::from_utf8(data) {
                Ok(name) if !name.is_empty() => Ok(WalEntry::Remove(name.to_string())),
                _ => Err(invalid("empty or non-UTF-8 name in a remove record".into())),
            },
            other => Err(invalid(format!("unknown WAL op tag {other}"))),
        }
    }
}

/// The result of replaying one WAL file.
#[derive(Debug, Clone, Copy)]
pub struct WalReplay {
    /// Records decoded and handed to the replay closure.
    pub records: u64,
    /// Bytes dropped at the end of the file (a record torn by a crash
    /// mid-append; zero for a cleanly closed log).
    pub torn_bytes: u64,
}

/// An open per-shard write-ahead log (single appender: the owning shard,
/// under its lock).
#[derive(Debug)]
pub struct ShardWal {
    file: File,
    path: PathBuf,
    /// Commit sequencing (pure state machine, model tested under
    /// gp-sched — see [`crate::watermark::Watermark`]).
    mark: Watermark,
    /// Current file length in bytes (header included).
    len: u64,
    appends: u64,
    syncs: u64,
    /// A failed append could not be rolled back: the bytes past the last
    /// good record are in an unknown state, so further appends would land
    /// *after* a tear and be silently dropped by replay.  All appends
    /// fail until the log is recovered (reopened) or reset.
    poisoned: bool,
}

impl ShardWal {
    /// Open `path` for appending, creating it (with the magic header) if
    /// absent or empty.  Existing contents are preserved — replay them
    /// with [`ShardWal::replay`] *before* opening for append.
    pub fn open_or_create(path: &Path) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut len = file.metadata()?.len();
        if len < WAL_MAGIC.len() as u64 {
            // Fresh log — or a crash tore the very creation of one.  The
            // bytes so far carry no records; restart the header cleanly.
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            len = WAL_MAGIC.len() as u64;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            mark: Watermark::new(),
            len,
            appends: 0,
            syncs: 0,
            poisoned: false,
        })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes (magic header included) — the
    /// compaction trigger input.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Appends since this handle was opened.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued by this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Commit sequence of the last appended record (0 before any append).
    pub fn appended_seq(&self) -> u64 {
        self.mark.appended_seq()
    }

    /// The commit-sequence watermark: the highest appended sequence known
    /// to be on stable storage.  `durable_seq() == appended_seq()` means
    /// every append is committed; anything above the watermark is still
    /// awaiting its group-commit barrier.
    pub fn durable_seq(&self) -> u64 {
        self.mark.durable_seq()
    }

    /// Append one record carrying `payload` ([`WalEntry::to_payload`])
    /// and fsync it.  When this returns `Ok`, the record is on stable
    /// storage — only then may the mutation be acknowledged.
    pub fn append_flushed(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.append_record(payload, true).map(drop)
    }

    /// Stage a record carrying `payload` *without* the per-append
    /// fsync — the group-commit fast path.  The record is in the log (a
    /// crash may still lose it until a barrier lands) but **must not be
    /// acknowledged** until [`ShardWal::group_commit`] or
    /// [`ShardWal::sync`] advances the durable watermark past the
    /// returned commit sequence.
    pub fn append_staged(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        self.append_record(payload, false)
    }

    /// The group-commit barrier: fsync every staged append in **one**
    /// disk operation, instead of one per append, if anything is
    /// outstanding.  Returns the durable commit-sequence watermark after
    /// the barrier: every previously appended record is committed when
    /// this returns.
    pub fn group_commit(&mut self) -> std::io::Result<u64> {
        if self.mark.barrier_needs_sync() {
            self.sync()?;
        }
        Ok(self.mark.durable_seq())
    }

    /// Frame `payload` as one record and write it in one call (a crash can
    /// still tear it mid-record, but replay recovers the full prefix
    /// regardless of where the tear lands); with `flush`, fsync it now.
    fn append_record(&mut self, payload: &[u8], flush: bool) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(format!(
                "{}: WAL poisoned by an earlier unrecoverable append failure",
                self.path.display()
            )));
        }
        let mut buf = Vec::new();
        put_record(&mut buf, payload);
        let start = self.len;
        let seq = self.mark.begin_append();
        let written = self.file.write_all(&buf).and_then(|()| {
            self.mark.note_appended();
            if flush {
                self.sync()?;
            }
            Ok(())
        });
        match written {
            Ok(()) => {
                self.len = start + buf.len() as u64;
                self.appends += 1;
                Ok(seq)
            }
            // A failed append (ENOSPC, EIO, fsync failure) is about to be
            // NACKed to the caller — so its bytes must not stay in the
            // log: left in place they would either resurrect the refused
            // mutation at recovery (fsync failed after a complete write)
            // or, worse, sit as a mid-file tear that replay treats as the
            // end of the log, silently dropping every *later* acked
            // record.  Roll back to the last good record; if even that
            // fails, poison the log so no later append can land past the
            // tear.
            Err(e) => {
                self.mark.rollback_append();
                let rolled_back = self.file.set_len(start).is_ok()
                    && self.file.seek(std::io::SeekFrom::End(0)).is_ok();
                if rolled_back {
                    let _ = self.file.sync_all();
                } else {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Flush appended records to stable storage now, advancing the
    /// durable commit-sequence watermark.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.syncs += 1;
        self.mark.note_synced();
        Ok(())
    }

    /// Truncate the log back to its magic header — called after the
    /// shard's snapshot has been atomically published, which supersedes
    /// every logged record.  Durable immediately; but even if the
    /// truncation itself were lost to a crash, replaying the stale
    /// records over the snapshot is idempotent.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        // Append mode writes at the (new) end-of-file; rewind is only
        // needed for platforms that track the cursor independently.
        self.file.seek(std::io::SeekFrom::End(0))?;
        self.file.sync_all()?;
        self.syncs += 1;
        self.len = WAL_MAGIC.len() as u64;
        // Every logged record is superseded by the published snapshot:
        // the watermark catches up (monotonic — it never rewinds).
        self.mark.note_synced();
        // Truncating to the header discards any un-rolled-back tear.
        self.poisoned = false;
        Ok(())
    }

    /// Whether an unrecoverable append failure has disabled this log
    /// (every further append fails until [`ShardWal::reset`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Test hook: mark the log poisoned, as an unrecoverable append
    /// failure would.
    #[cfg(test)]
    pub(crate) fn poison_for_test(&mut self) {
        self.poisoned = true;
    }

    /// Decode every intact record in the WAL (or snapshot) at `path`, in
    /// file order, and hand each to `apply` as soon as it is decoded,
    /// together with its checked payload bytes (canonical: exactly what
    /// [`WalEntry::to_payload`] writes for the entry).  The file is read
    /// record by record, so recovery holds one record at a time, never the
    /// whole log.  A torn final record is tolerated and reported via
    /// [`WalReplay::torn_bytes`].
    ///
    /// A missing file replays as empty (a crash before the first append).
    /// A present file with a wrong magic (another format, or an older
    /// version of this one), an intact (checksummed) record that fails to
    /// decode, or damage to an *interior* record (an intact record
    /// follows the damage, so it cannot be a tear) is an error —
    /// that is corruption, not a crash artifact.  Entries before the error
    /// have already been applied; callers discard what they built.
    pub fn replay(
        path: &Path,
        mut apply: impl FnMut(WalEntry, &[u8]),
    ) -> std::io::Result<WalReplay> {
        let mut reader = match File::open(path) {
            Ok(file) => BufReader::new(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalReplay {
                    records: 0,
                    torn_bytes: 0,
                })
            }
            Err(e) => return Err(e),
        };
        // `record` holds the bytes of one record (header, then payload).
        let mut record = Vec::new();
        read_up_to(&mut reader, WAL_MAGIC.len(), &mut record)?;
        if record.len() < WAL_MAGIC.len() {
            // The file's very creation was torn; no record can exist.
            return Ok(WalReplay {
                records: 0,
                torn_bytes: record.len() as u64,
            });
        }
        if record != WAL_MAGIC {
            return Err(corrupt(path, "bad magic: not a GP-WAL3 record file"));
        }
        let mut replayed = 0;
        let mut at = WAL_MAGIC.len();
        loop {
            record.clear();
            read_up_to(&mut reader, RECORD_HEADER, &mut record)?;
            if record.is_empty() {
                return Ok(WalReplay {
                    records: replayed,
                    torn_bytes: 0,
                });
            }
            if let Some((len, _)) = record_header(&record).filter(|&(len, _)| sane_len(len)) {
                read_up_to(&mut reader, len as usize, &mut record)?;
            }
            let Some((payload, end)) = intact_record(&record) else {
                // A damaged record — garbage or past-EOF length, failed
                // checksum, or a header cut short — is the torn tail of a
                // crashed append only if nothing intact follows it.  The
                // log has a single appender writing strictly forward, so
                // an intact record *after* the damage means the damage
                // happened later (bit rot, a misdirected write), and
                // stopping here would silently drop every later acked
                // record.  A corrupted length gives no record boundary to
                // resume from, so every later offset is a candidate.
                reader.read_to_end(&mut record)?;
                if let Some(next) =
                    (1..record.len()).find(|&offset| intact_record(&record[offset..]).is_some())
                {
                    let next = at + next;
                    return Err(corrupt(
                        path,
                        &format!(
                            "mid-file corruption: record at byte {at} is damaged but an intact \
                             record follows at byte {next} — not a torn tail"
                        ),
                    ));
                }
                return Ok(WalReplay {
                    records: replayed,
                    torn_bytes: record.len() as u64,
                });
            };
            apply(decode_payload(path, payload)?, payload);
            replayed += 1;
            at += end;
        }
    }
}

/// Append `payload` to `out` as one framed record: length, checksum,
/// payload.
pub(crate) fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Append up to `n` more bytes from `reader` to `buf` (fewer at EOF).
fn read_up_to(reader: &mut impl Read, n: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
    reader.take(n as u64).read_to_end(buf).map(drop)
}

fn decode_payload(path: &Path, payload: &[u8]) -> std::io::Result<WalEntry> {
    WalEntry::from_payload(payload).map_err(|e| corrupt(path, &e.to_string()))
}

/// The `(payload length, checksum)` header at the start of `bytes`, if
/// `bytes` holds a whole one.
fn record_header(bytes: &[u8]) -> Option<(u32, u64)> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (check, _) = rest.split_first_chunk::<8>()?;
    Some((u32::from_be_bytes(*len), u64::from_be_bytes(*check)))
}

/// Whether a declared payload length could be a real record's.
fn sane_len(len: u32) -> bool {
    (1..=MAX_RECORD_LEN).contains(&len)
}

/// The payload of an intact record at the start of `bytes` — a sane
/// length, the whole payload present, the checksum matching — and the
/// record's total length.
fn intact_record(bytes: &[u8]) -> Option<(&[u8], usize)> {
    let (len, check) = record_header(bytes)?;
    if !sane_len(len) {
        return None;
    }
    let end = RECORD_HEADER + len as usize;
    let payload = bytes.get(RECORD_HEADER..end)?;
    (fnv1a64(payload) == check).then_some((payload, end))
}

fn corrupt(path: &Path, reason: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{}: {reason}", path.display()),
    )
}

/// Atomically publish a file at `path` whose contents `write` streams:
/// write `<path>.tmp`, fsync it, rename over `path`, then fsync the parent
/// directory so the rename itself is durable.  A reader (or a recovery
/// after a crash at any point) sees either the complete old file or the
/// complete new one.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| corrupt(path, "atomic_write target has no file name"))?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    {
        let mut file = File::create(&tmp)?;
        write(&mut file)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Flush a directory's entry table (making renames/creates/removes under
/// it durable).  Best-effort on platforms where directories cannot be
/// opened for syncing.
pub fn sync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(handle) => handle.sync_all(),
        // Opening a directory read-only fails on some platforms (e.g.
        // Windows); the rename is still atomic, only its durability
        // ordering is left to the OS there.
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscretizationConfig;
    use crate::policy::PasswordPolicy;
    use crate::system::GraphicalPasswordSystem;
    use gp_geometry::Point;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gp-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(name: &str, seed: f64) -> StoredPassword {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(6),
            2,
        );
        let clicks: Vec<Point> = (0..5)
            .map(|i| Point::new(30.0 + seed + 70.0 * i as f64, 20.0 + seed + 55.0 * i as f64))
            .collect();
        system.enroll(name, &clicks).unwrap()
    }

    /// What one replay decoded, collected for assertions.
    #[derive(Debug)]
    struct Replayed {
        entries: Vec<WalEntry>,
        torn_bytes: u64,
    }

    fn replay_all(path: &Path) -> std::io::Result<Replayed> {
        let mut entries = Vec::new();
        let summary = ShardWal::replay(path, |entry, _| entries.push(entry))?;
        assert_eq!(summary.records, entries.len() as u64);
        Ok(Replayed {
            entries,
            torn_bytes: summary.torn_bytes,
        })
    }

    fn enroll(record: &StoredPassword) -> WalEntry {
        WalEntry::Enroll(record.clone())
    }

    #[test]
    fn append_replay_round_trip_all_ops() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("shard-000.wal");
        let (a, b) = (sample("alice", 0.0), sample("bob", 3.0));
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            wal.append_flushed(&enroll(&a).to_payload()).unwrap();
            wal.append_flushed(&WalEntry::Update(b.clone()).to_payload())
                .unwrap();
            wal.append_flushed(&WalEntry::Remove("alice".into()).to_payload())
                .unwrap();
            assert_eq!(wal.appends(), 3);
            assert!(wal.syncs() >= 3, "every flushed append fsyncs");
        }
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(
            replay.entries,
            vec![
                WalEntry::Enroll(a),
                WalEntry::Update(b),
                WalEntry::Remove("alice".into())
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = temp_dir("reopen");
        let path = dir.join("w.wal");
        let (a, b) = (sample("alice", 0.0), sample("bob", 3.0));
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            wal.append_flushed(&enroll(&a).to_payload()).unwrap();
        }
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            wal.append_flushed(&enroll(&b).to_payload()).unwrap();
        }
        let replay = replay_all(&path).unwrap();
        assert_eq!(
            replay.entries,
            vec![WalEntry::Enroll(a), WalEntry::Enroll(b)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_exact_prefix() {
        let dir = temp_dir("torn");
        let path = dir.join("w.wal");
        let records: Vec<StoredPassword> = (0..3)
            .map(|i| sample(&format!("user{i}"), i as f64))
            .collect();
        let mut boundaries = vec![WAL_MAGIC.len() as u64];
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            for record in &records {
                wal.append_flushed(&enroll(record).to_payload()).unwrap();
                boundaries.push(wal.len_bytes());
            }
        }
        let full = std::fs::read(&path).unwrap();
        let torn = dir.join("torn.wal");
        for cut in 0..=full.len() {
            std::fs::write(&torn, &full[..cut]).unwrap();
            let replay = replay_all(&torn).unwrap();
            if cut < WAL_MAGIC.len() {
                // The file's creation itself was torn: nothing replays.
                assert!(replay.entries.is_empty(), "cut at byte {cut}");
                assert_eq!(replay.torn_bytes, cut as u64);
                continue;
            }
            // How many whole records fit below the cut?
            let intact = boundaries.iter().filter(|b| **b <= cut as u64).count() - 1;
            assert_eq!(
                replay.entries.len(),
                intact,
                "cut at byte {cut}: exactly the intact prefix replays"
            );
            for (entry, record) in replay.entries.iter().zip(&records) {
                assert_eq!(*entry, WalEntry::Enroll(record.clone()));
            }
            assert_eq!(
                replay.torn_bytes,
                cut as u64 - boundaries[intact],
                "cut at byte {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_checksum_drops_only_the_final_record() {
        let dir = temp_dir("checksum");
        let path = dir.join("w.wal");
        let (a, b) = (sample("alice", 0.0), sample("bob", 3.0));
        let first_end;
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            wal.append_flushed(&enroll(&a).to_payload()).unwrap();
            first_end = wal.len_bytes() as usize;
            wal.append_flushed(&enroll(&b).to_payload()).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries, vec![WalEntry::Enroll(a)]);
        assert_eq!(replay.torn_bytes, (bytes.len() - first_end) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_undecodable_payloads_are_errors_not_torn_tails() {
        let dir = temp_dir("corrupt");
        // Another format, both files of the old text-record format and
        // the salt-storing packed format: refused by their magic, never
        // misparsed.
        for (name, bytes) in [
            ("m.wal", &b"NOTAWAL!record-bytes"[..]),
            ("v1.wal", b"GP-WAL1\n\0\0\0\x05\0\0\0\0\0\0\0\0\x03alice"),
            ("v2.wal", b"GP-WAL2\n\0\0\0\x05\0\0\0\0\0\0\0\0\x03alice"),
            (
                "v1.pwd",
                b"# gp-passwords store v1 (shard 0/1)\nalice\tcentered:9\n",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let err = replay_all(&path).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains("bad magic"), "{name}: {err}");
        }

        // A checksummed record whose payload is not a packed account:
        // corruption, not a crash artifact.
        let bad_payload = dir.join("p.wal");
        let mut bytes = WAL_MAGIC.to_vec();
        put_record(&mut bytes, &[&[1u8][..], b"not a packed account"].concat());
        std::fs::write(&bad_payload, &bytes).unwrap();
        assert!(replay_all(&bad_payload).is_err());

        // Missing file: empty replay (crash before the first append).
        let missing = replay_all(&dir.join("nope.wal")).unwrap();
        assert!(missing.entries.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_checksum_flip_is_an_error_not_a_silent_truncation() {
        let dir = temp_dir("interior");
        let path = dir.join("w.wal");
        let records: Vec<StoredPassword> = (0..3)
            .map(|i| sample(&format!("user{i}"), i as f64))
            .collect();
        let mut boundaries = vec![WAL_MAGIC.len()];
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            for record in &records {
                wal.append_flushed(&enroll(record).to_payload()).unwrap();
                boundaries.push(wal.len_bytes() as usize);
            }
        }
        let pristine = std::fs::read(&path).unwrap();
        // Flip one payload byte in each *interior* record (0 and 1):
        // intact records follow, so replay must refuse rather than drop
        // the acked suffix.
        for interior in 0..2 {
            let mut bytes = pristine.clone();
            bytes[boundaries[interior + 1] - 1] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let err = replay_all(&path).expect_err("interior damage must error");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("mid-file corruption"),
                "distinct report, got: {err}"
            );
        }
        // The same flip on the *final* record stays a torn tail.
        let mut bytes = pristine.clone();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert!(replay.torn_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_length_corruption_is_an_error_not_a_silent_truncation() {
        let dir = temp_dir("interior-len");
        let path = dir.join("w.wal");
        let records: Vec<StoredPassword> = (0..3)
            .map(|i| sample(&format!("user{i}"), i as f64))
            .collect();
        let mut boundaries = vec![WAL_MAGIC.len()];
        {
            let mut wal = ShardWal::open_or_create(&path).unwrap();
            for record in &records {
                wal.append_flushed(&enroll(record).to_payload()).unwrap();
                boundaries.push(wal.len_bytes() as usize);
            }
        }
        let pristine = std::fs::read(&path).unwrap();
        // Bit 7 of the length's high byte makes it garbage (past
        // MAX_RECORD_LEN); of its low byte, a length that is in range but
        // lands mid-record or past EOF.  Either way the damaged record
        // gives no boundary to resume from, yet acked records follow it.
        for record in 0..2 {
            for byte in [0, 3] {
                let mut bytes = pristine.clone();
                bytes[boundaries[record] + byte] ^= 0x80;
                std::fs::write(&path, &bytes).unwrap();
                let err = replay_all(&path).expect_err("interior damage must error");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                assert!(
                    err.to_string().contains("mid-file corruption"),
                    "record {record}, length byte {byte}: got {err}"
                );
            }
        }
        // The same flips on the *final* record stay a torn tail.
        for byte in [0, 3] {
            let mut bytes = pristine.clone();
            bytes[boundaries[2] + byte] ^= 0x80;
            std::fs::write(&path, &bytes).unwrap();
            let replay = replay_all(&path).unwrap();
            assert_eq!(replay.entries.len(), 2, "length byte {byte}");
            assert_eq!(replay.torn_bytes, (pristine.len() - boundaries[2]) as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_payload_codec_round_trips_all_ops() {
        let record = sample("alice", 1.0);
        for entry in [
            WalEntry::Enroll(record.clone()),
            WalEntry::Update(record),
            WalEntry::Remove("alice".into()),
        ] {
            let payload = entry.to_payload();
            assert_eq!(WalEntry::from_payload(&payload).unwrap(), entry);
            assert_eq!(entry.username(), "alice");
            assert_eq!(payload[0], entry.tag());
        }
    }

    #[test]
    fn reset_truncates_to_header_and_new_appends_replay_alone() {
        let dir = temp_dir("reset");
        let path = dir.join("w.wal");
        let (a, b) = (sample("alice", 0.0), sample("bob", 3.0));
        let mut wal = ShardWal::open_or_create(&path).unwrap();
        wal.append_flushed(&enroll(&a).to_payload()).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), WAL_MAGIC.len() as u64);
        wal.append_flushed(&enroll(&b).to_payload()).unwrap();
        drop(wal);
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries, vec![WalEntry::Enroll(b)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_log_refuses_appends_until_reset() {
        let dir = temp_dir("poison");
        let path = dir.join("w.wal");
        let (a, b) = (sample("alice", 0.0), sample("bob", 3.0));
        let mut wal = ShardWal::open_or_create(&path).unwrap();
        wal.append_flushed(&enroll(&a).to_payload()).unwrap();
        wal.poison_for_test();
        assert!(wal.is_poisoned());
        // No append may land past a potential tear: it would be dropped
        // by replay while its caller believed it was acknowledged.
        assert!(wal.append_flushed(&enroll(&b).to_payload()).is_err());
        assert!(wal
            .append_flushed(&WalEntry::Remove("alice".into()).to_payload())
            .is_err());
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries, vec![WalEntry::Enroll(a)]);
        // Truncating to the header discards the tear and re-arms the log.
        wal.reset().unwrap();
        assert!(!wal.is_poisoned());
        wal.append_flushed(&enroll(&b).to_payload()).unwrap();
        drop(wal);
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries, vec![WalEntry::Enroll(b)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_appends_commit_once_per_group_and_advance_the_watermark() {
        let dir = temp_dir("group");
        let path = dir.join("w.wal");
        let mut wal = ShardWal::open_or_create(&path).unwrap();
        let open_syncs = wal.syncs();
        let mut seqs = Vec::new();
        for i in 0..5 {
            let seq = wal
                .append_staged(&enroll(&sample(&format!("u{i}"), i as f64)).to_payload())
                .unwrap();
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "commit sequences are dense");
        assert_eq!(wal.appended_seq(), 5);
        assert_eq!(
            wal.durable_seq(),
            0,
            "staged appends stay below the watermark until the barrier"
        );
        assert_eq!(wal.syncs() - open_syncs, 0, "no per-append fsync");
        let watermark = wal.group_commit().unwrap();
        assert_eq!(watermark, 5, "one barrier commits the whole group");
        assert_eq!(wal.durable_seq(), 5);
        assert_eq!(wal.syncs() - open_syncs, 1, "5 appends, 1 fsync");
        // An empty barrier is free.
        assert_eq!(wal.group_commit().unwrap(), 5);
        assert_eq!(wal.syncs() - open_syncs, 1);
        // Every staged record replays.
        drop(wal);
        let replay = replay_all(&path).unwrap();
        assert_eq!(replay.entries.len(), 5);
        assert_eq!(replay.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_and_reset_catch_the_watermark_up() {
        let dir = temp_dir("watermark");
        let path = dir.join("w.wal");
        let mut wal = ShardWal::open_or_create(&path).unwrap();
        wal.append_staged(&enroll(&sample("alice", 0.0)).to_payload())
            .unwrap();
        wal.sync().unwrap();
        assert_eq!(
            wal.durable_seq(),
            1,
            "an explicit sync commits the staged append"
        );
        wal.append_staged(&enroll(&sample("bob", 3.0)).to_payload())
            .unwrap();
        wal.reset().unwrap();
        assert_eq!(
            (wal.appended_seq(), wal.durable_seq()),
            (2, 2),
            "a snapshot supersedes the log; the watermark never rewinds"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_contents_and_leaves_no_tmp() {
        let dir = temp_dir("atomic");
        let path = dir.join("shard-000.pwd");
        atomic_write(&path, |f| f.write_all(b"first\n")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first\n");
        atomic_write(&path, |f| f.write_all(b"second\n")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no tmp files survive publication");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
