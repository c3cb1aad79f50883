//! The account store: N independently locked partitions keyed by a hash
//! of the account name, with optional crash-safe durability.
//!
//! [`ShardedPasswordStore`] is what the networked authentication server
//! holds: a map from account name to [`StoredPassword`].  It never sees
//! the original click coordinates — only the clear grid identifiers and
//! one salted, iterated hash per account — so compromising the store (or
//! the disk under it) yields exactly the information the paper's
//! offline-attack analysis (§5.1) assumes.  The account space is split into
//! `N` small, independently locked shards, so writers on different shards
//! never contend for the account maps.  The shards split the locks and the
//! snapshot files, not the log: a durable node keeps one write-ahead log,
//! so durability costs the same whatever the shard count.
//! `ShardedPasswordStore::new(1)` is the single-lock store.
//!
//! Routing is by [`shard_index`], an FNV-1a hash of the account name
//! reduced modulo the shard count.  The mapping is an implementation detail
//! of the *in-memory* layout only: a shard file is a record log in the WAL's
//! own framing ([`crate::wal`]) holding one `update` record per account,
//! and loading routes every record through the account hash, so shard
//! files written under one shard count can be reloaded under any other.
//!
//! # Durability
//!
//! A store opened with [`ShardedPasswordStore::open_durable`] logs every
//! mutation to the node's one append-only [`Wal`] and fsyncs it *before*
//! the mutation is applied in memory and acknowledged, so a crash at any
//! instant loses no acknowledged mutation; a group-commit barrier
//! ([`ShardedPasswordStore::commit_shards`]) is one fsync, however many
//! shards its records touched.  Compaction
//! ([`ShardedPasswordStore::snapshot_all`]) rotates the log to a new
//! segment, atomically publishes every shard file (tmp + fsync + rename +
//! dir fsync via [`atomic_write`]), then deletes the segments the
//! snapshots cover.  Recovery is crash-only: load whatever intact
//! snapshots exist, replay the log's segments over them (tolerating a
//! torn final record in the last), compact, and serve.
//!
//! # Lock order (machine-checked)
//!
//! Every lock in this module belongs to the canonical hierarchy
//! `snap → accounts → wal` ([`crate::lockdep::LockClass`]): a thread may
//! acquire the node's compaction lock, then a shard's account map, then
//! the node's log, and never the other way around. This used to be a
//! comment-only invariant; it is now enforced twice over:
//!
//! * statically — `gp-lint` rule **L2** extracts every acquisition site,
//!   builds the inter-function acquisition-order graph, and fails CI on any
//!   inversion (`cargo run -p gp-lint -- --workspace`);
//! * dynamically — the locks below are [`crate::lockdep`] wrappers
//!   ([`OrderedMutex`] / [`OrderedRwLock`]), so in debug builds (i.e. every
//!   `cargo test` run) an out-of-order acquisition panics at the acquiring
//!   call site the first time it executes, with both lock sites named.

use crate::error::PasswordError;
use crate::lockdep::{LockClass, OrderedMutex, OrderedRwLock};
use crate::resident::{account_salt, PackedAccount};
use crate::stored::StoredPassword;
use crate::system::GraphicalPasswordSystem;
use crate::wal::{
    atomic_write, fnv1a64, put_record, sync_dir, Wal, WalEntry, OP_UPDATE, WAL_MAGIC,
};
use gp_crypto::SaltedHasher;
use gp_geometry::Point;
use std::collections::BTreeSet;
use std::io::Write;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Accounts a shard write frames per read-lock acquisition: long enough
/// to amortize the lock, short enough that a waiting writer never notices
/// and the framed batch stays a few tens of KiB.
const RENDER_BATCH: usize = 128;

/// Stable routing function: which of `shards` partitions owns `username`.
///
/// FNV-1a over the account name ([`fnv1a64`], the same hash the WAL uses
/// as its record checksum), reduced modulo the shard count.  Cheap (a few
/// ns), well distributed for short ASCII-ish names, and — unlike a
/// `DefaultHasher` — stable across processes and Rust versions, so shard
/// assignments are reproducible in tests and benches.
pub fn shard_index(username: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "at least one shard");
    (fnv1a64(username.as_bytes()) % shards as u64) as usize
}

/// Canonical content hash of one stored record: FNV-1a over its packed
/// bytes (the resident form, and the bytes every WAL, snapshot and
/// replication payload carries after its op byte), finalized with the
/// same splitmix mixer the ring uses so the value diffuses into all 64
/// bits.
///
/// A record has exactly one packed encoding, and payloads from outside
/// are accepted only in it, so equal records hash equal on every node —
/// this is the unit the anti-entropy digest and the record-level diff
/// compare.  The store's range scans hash the resident bytes in place.
pub fn record_digest(record: &StoredPassword) -> u64 {
    PackedAccount::pack(record).digest()
}

/// Order-independent digest of a *set* of account records.
///
/// Records are folded commutatively (count, wrapping sum and xor of each
/// record's [`record_digest`]), so two stores that iterate their shards
/// in different orders — or hold the same accounts under different shard
/// counts — still produce identical digests.  Two digests are equal iff
/// the underlying record sets are equal, up to 64-bit hash collisions
/// (checked by the proptest suite in `tests/proptest_digest.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeDigest {
    /// Number of records in the range.
    pub count: u64,
    /// Wrapping sum of the records' [`record_digest`]s.
    pub sum: u64,
    /// Xor of the records' [`record_digest`]s.
    pub xor: u64,
}

impl RangeDigest {
    /// Fold an already-computed [`record_digest`] into the digest.
    pub fn add_hash(&mut self, hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash);
        self.xor ^= hash;
    }

    /// Whether the range holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The record-level difference between a primary's range and a backup's,
/// computed by [`diff_range_entries`].  Conflicts (same account, different
/// record bytes) resolve primary-wins: the primary is the node that acked
/// the entry to a client, so its copy is authoritative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeDiff {
    /// Accounts the primary must push: missing on the backup, or present
    /// with different record bytes.
    pub push: Vec<String>,
    /// Accounts the primary must pull: present only on the backup (e.g.
    /// a primary that rejoined after records were written in its absence).
    pub pull: Vec<String>,
}

impl RangeDiff {
    /// Whether the two ranges already agree.
    pub fn is_empty(&self) -> bool {
        self.push.is_empty() && self.pull.is_empty()
    }
}

/// Diff two ranges given their sorted `(username, record_digest)` entry
/// lists (as produced by [`ShardedPasswordStore::range_entries`]).  One
/// merge pass; after copying `push` primary→backup and `pull`
/// backup→primary, both sides' [`RangeDigest`]s are equal.
pub fn diff_range_entries(primary: &[(String, u64)], backup: &[(String, u64)]) -> RangeDiff {
    let mut diff = RangeDiff::default();
    let (mut p, mut b) = (0, 0);
    while p < primary.len() && b < backup.len() {
        match primary[p].0.cmp(&backup[b].0) {
            std::cmp::Ordering::Less => {
                diff.push.push(primary[p].0.clone());
                p += 1;
            }
            std::cmp::Ordering::Greater => {
                diff.pull.push(backup[b].0.clone());
                b += 1;
            }
            std::cmp::Ordering::Equal => {
                if primary[p].1 != backup[b].1 {
                    diff.push.push(primary[p].0.clone());
                }
                p += 1;
                b += 1;
            }
        }
    }
    diff.push
        .extend(primary[p..].iter().map(|(name, _)| name.clone()));
    diff.pull
        .extend(backup[b..].iter().map(|(name, _)| name.clone()));
    diff
}

/// One partition: its own lock, its own accounts, its own counters.
///
/// Accounts are resident in their packed form ([`PackedAccount`]: one
/// allocation per record, ordered by name) and decoded on read.  No
/// per-salt hashing state is cached: decoding derives the one-block salt
/// from the name and [`SaltedHasher::new`] absorbs it, so
/// [`ShardedPasswordStore::get_cached`] builds it for about two
/// compressions.
#[derive(Debug)]
struct Shard {
    accounts: OrderedRwLock<BTreeSet<PackedAccount>>,
    enrolls: AtomicU64,
    verifies: AtomicU64,
    lookups: AtomicU64,
}

impl Default for Shard {
    fn default() -> Self {
        Self {
            accounts: OrderedRwLock::new(LockClass::ACCOUNTS, BTreeSet::new()),
            enrolls: AtomicU64::new(0),
            verifies: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
        }
    }
}

/// Point-in-time snapshot of one shard's size and traffic counters.
///
/// Returned by [`ShardedPasswordStore::stats`]; the serving layer exposes
/// these in its server stats so operators can see whether accounts and
/// traffic actually spread across partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of the shard this snapshot describes.
    pub shard: usize,
    /// Enrolled accounts currently resident in the shard.
    pub accounts: usize,
    /// Successful enrollments routed to the shard since creation.
    pub enrolls: u64,
    /// Verification attempts routed to the shard since creation.
    pub verifies: u64,
    /// Record lookups (`get`) routed to the shard since creation.
    pub lookups: u64,
}

/// Tuning for a durable store: when the log is compacted into snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Log size (bytes, across its segments) past which
    /// [`ShardedPasswordStore::snapshot_if_due`] compacts the store.
    pub snapshot_threshold_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            snapshot_threshold_bytes: 1024 * 1024,
        }
    }
}

/// Aggregate durability counters for a durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Bytes currently held across the log's segments.
    pub wal_bytes: u64,
    /// Log records appended since the store was opened.
    pub wal_appends: u64,
    /// Fsyncs that made log records durable since the store was opened
    /// (see [`Wal::syncs`]).
    pub wal_syncs: u64,
    /// Compactions (every shard snapshotted, the covered segments
    /// deleted) since the store was opened.
    pub snapshots: u64,
    /// Log records replayed during recovery at open.
    pub replayed_records: u64,
    /// Log segments whose final record was torn by a crash (recovered by
    /// dropping only the torn tail): 0 or 1.
    pub torn_tails: u64,
    /// Group-commit barriers executed ([`ShardedPasswordStore::commit_shards`]):
    /// each one flushes *every* staged append in at most one fsync.
    pub group_commits: u64,
}

/// The durable half of a store: the directory, the node's log, and
/// recovery/compaction counters.
#[derive(Debug)]
struct DurabilityState {
    dir: PathBuf,
    options: DurabilityOptions,
    wal: OrderedMutex<Wal>,
    /// Serializes compactions (they would otherwise race on the snapshot
    /// tmp files and on the segments).  Deliberately separate from the
    /// log's mutex so the append path never waits on snapshot file I/O.
    snapshot_lock: OrderedMutex<()>,
    snapshots: AtomicU64,
    group_commits: AtomicU64,
    replayed_records: u64,
    torn_tails: u64,
}

fn storage_error(context: &str, e: impl std::fmt::Display) -> PasswordError {
    PasswordError::Storage {
        reason: format!("{context}: {e}"),
    }
}

fn shard_pwd_name(shard: usize) -> String {
    format!("shard-{shard:03}.pwd")
}

/// The `shard-*<suffix>` files under `dir` (e.g. `.pwd`), sorted by name —
/// i.e. by shard index.
fn shard_files(dir: &Path, suffix: &str) -> Result<Vec<PathBuf>, PasswordError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| storage_error(&format!("read {}", dir.display()), e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(suffix))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Parse `shard-NNN.pwd` (or a `.pwd.tmp` leftover) into the shard index,
/// for stale-file cleanup.
fn parse_shard_file_index(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("shard-")?;
    let (digits, "pwd" | "pwd.tmp") = rest.split_once('.')? else {
        return None;
    };
    digits.parse().ok()
}

/// Remove snapshot files (`.pwd`, stray `.pwd.tmp`) whose index is at or
/// past `shards`.  Without this, saving a store with fewer shards into a
/// directory previously saved with more leaves stale `shard-NNN.pwd`
/// files behind, and a later load would merge their outdated records back
/// in — resurrecting removed or superseded accounts.
fn remove_stale_shard_files(dir: &Path, shards: usize) -> std::io::Result<()> {
    let mut removed_any = false;
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_shard_file_index(name).is_some_and(|index| index >= shards) {
            std::fs::remove_file(entry.path())?;
            removed_any = true;
        }
    }
    if removed_any {
        sync_dir(dir)?;
    }
    Ok(())
}

/// A concurrent account store partitioned into independently locked shards.
///
/// Cross-shard read operations (`len`, `usernames`, `records`) take the
/// shard locks one at a time and are therefore *not* a consistent global
/// snapshot under concurrent writes — exactly the trade the sharded design
/// makes.
///
/// Stores created with [`ShardedPasswordStore::new`] are purely in-memory
/// (mutations return `Ok` without touching disk); stores opened with
/// [`ShardedPasswordStore::open_durable`] write every mutation to the
/// node's log before acknowledging it.
#[derive(Debug)]
pub struct ShardedPasswordStore {
    shards: Vec<Shard>,
    durability: Option<DurabilityState>,
}

impl ShardedPasswordStore {
    /// Create an empty in-memory store with `shards` partitions (clamped
    /// to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            durability: None,
        }
    }

    /// Open (or create) a crash-safe durable store under `dir` with
    /// `shards` partitions (clamped to ≥ 1).
    ///
    /// Recovery is crash-only and runs unconditionally:
    ///
    /// 1. every intact `shard-NNN.pwd` snapshot is loaded (records
    ///    re-route by account hash, so the on-disk shard count need not
    ///    match `shards`);
    /// 2. the log's segments are replayed over the snapshots in number
    ///    order, tolerating a torn final record in the last one, which is
    ///    cut off before the log appends again;
    /// 3. the store compacts ([`ShardedPasswordStore::snapshot_all`]), so
    ///    the directory holds `shards` snapshots and one empty segment.
    ///
    /// A directory holding a per-shard log of the earlier layout
    /// (`shard-NNN.wal`) is refused as [`PasswordError::CorruptRecord`],
    /// naming the file.  After recovery, every mutation appends to the
    /// log (and is fsynced) before it is acknowledged.
    pub fn open_durable(
        dir: &Path,
        shards: usize,
        options: DurabilityOptions,
    ) -> Result<Self, PasswordError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| storage_error(&format!("create {}", dir.display()), e))?;
        let mut store = Self::new(shards);
        store.load_snapshots(dir)?;
        let (wal, replay) =
            Wal::recover(dir, |entry, payload| store.apply_recovered(entry, payload))
                .map_err(|e| recovery_error(dir, e))?;
        store.durability = Some(DurabilityState {
            dir: dir.to_path_buf(),
            options,
            wal: OrderedMutex::new(LockClass::WAL, wal),
            snapshot_lock: OrderedMutex::new(LockClass::SNAP, ()),
            snapshots: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            replayed_records: replay.records,
            torn_tails: u64::from(replay.torn_bytes > 0),
        });
        store.snapshot_all()?;
        Ok(store)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether mutations are written to the log before acknowledgement.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Aggregate WAL/snapshot/recovery counters, when durable.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.durability.as_ref()?;
        let wal = d.wal.lock();
        Some(DurabilityStats {
            wal_bytes: wal.len_bytes(),
            wal_appends: wal.appends(),
            wal_syncs: wal.syncs(),
            snapshots: d.snapshots.load(Ordering::Relaxed),
            replayed_records: d.replayed_records,
            torn_tails: d.torn_tails,
            group_commits: d.group_commits.load(Ordering::Relaxed),
        })
    }

    fn shard_for(&self, username: &str) -> &Shard {
        &self.shards[shard_index(username, self.shards.len())]
    }

    /// Total enrolled accounts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.accounts.read().len()).sum()
    }

    /// Whether no shard holds any account.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.accounts.read().is_empty())
    }

    /// Enroll a new account using the given system.  Fails if the account
    /// already exists.  Only the owning shard's lock is taken; on a
    /// durable store the record is logged before the acknowledgement.
    pub fn enroll(
        &self,
        system: &GraphicalPasswordSystem,
        username: &str,
        clicks: &[Point],
    ) -> Result<(), PasswordError> {
        let stored = system.enroll(username, clicks)?;
        self.insert_new(stored)
    }

    /// Insert a pre-built record only if the account does not exist yet —
    /// the duplicate check, the log append and the insert happen under one
    /// shard-lock acquisition, so concurrent enrollments of the same name
    /// cannot both succeed.  The serving layer's split-phase enrollment
    /// settles through this (the hash was computed before the lock is
    /// taken); on a durable store the log append and its fsync complete
    /// before `Ok` is returned, so an acked enrollment survives any crash.
    pub fn insert_new(&self, stored: StoredPassword) -> Result<(), PasswordError> {
        self.insert_enrolled(stored, false).map(drop)
    }

    /// The group-commit half of [`ShardedPasswordStore::insert_new`]:
    /// duplicate check, *staged* log append (no per-record fsync) and
    /// in-memory insert under one shard-lock acquisition.  Returns the
    /// owning shard's index — the caller's group-commit set.
    ///
    /// The record is in the log and visible in memory, but **not yet
    /// committed**: a crash before the next
    /// [`ShardedPasswordStore::commit_shards`] barrier may lose it.  The
    /// caller must not acknowledge the enrollment (and must hold back
    /// same-account reads it intends to ack — the serving layer's
    /// per-account pending table) until the barrier returns.
    pub fn insert_new_deferred(&self, stored: StoredPassword) -> Result<usize, PasswordError> {
        self.insert_enrolled(stored, true)
    }

    /// The body of [`ShardedPasswordStore::insert_new`] (flushed) and
    /// [`ShardedPasswordStore::insert_new_deferred`] (`staged`).  The packed
    /// form keeps no salt, so any salt but the name's is corrupt.
    fn insert_enrolled(
        &self,
        stored: StoredPassword,
        staged: bool,
    ) -> Result<usize, PasswordError> {
        if stored.hash.salt != account_salt(&stored.username) {
            let reason = format!("{:?}: the salt is not its name's", stored.username);
            return Err(PasswordError::CorruptRecord { reason });
        }
        let index = shard_index(&stored.username, self.shards.len());
        let entry = WalEntry::Enroll(stored);
        self.log_and_apply(index, &entry, &entry.to_payload(), staged, |accounts| {
            if accounts.contains(entry.username()) {
                return Err(PasswordError::DuplicateAccount {
                    username: entry.username().to_string(),
                });
            }
            Ok(true)
        })?;
        self.shards[index].enrolls.fetch_add(1, Ordering::Relaxed);
        Ok(index)
    }

    /// The group-commit barrier: fsync every staged append in the log —
    /// **one** fsync for any non-empty set of shards (the indices
    /// [`ShardedPasswordStore::insert_new_deferred`] returned), however
    /// many records they accumulated, and none if a barrier already
    /// covered them.  Only after this returns `Ok` may those mutations be
    /// acknowledged.  A no-op on an in-memory store or an empty set.
    pub fn commit_shards(
        &self,
        shards: impl IntoIterator<Item = usize>,
    ) -> Result<(), PasswordError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if shards.into_iter().next().is_none() {
            return Ok(());
        }
        d.wal
            .lock()
            .group_commit()
            .map_err(|e| storage_error("wal group commit", e))?;
        d.group_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Durably apply a record payload ([`WalEntry::to_payload`] bytes):
    /// one streamed from a replication primary, or a locally built
    /// [`WalEntry::Update`] (bulk loading, migration).
    ///
    /// The payload passes [`WalEntry::from_payload`]'s checks, which
    /// admit only the canonical bytes `to_payload` writes (the salt,
    /// which nothing here reads, is not derived), so the
    /// bytes logged are the bytes received: the backup's log holds its
    /// primary's records bit for bit, and nothing is packed again.  They
    /// are appended to the local log and fsynced *before* the in-memory
    /// apply, under one shard-lock acquisition — so when
    /// this returns `Ok`, acknowledging the replication message gives the
    /// primary the same durability guarantee a local ack carries.  Inserts
    /// apply as insert-or-replace (no duplicate check): a primary that
    /// retried a send after a connection drop may deliver the same record
    /// twice, and redelivery must be idempotent.  A payload that does not
    /// decode is [`PasswordError::CorruptRecord`], and nothing is logged.
    pub fn apply_replicated(&self, payload: &[u8]) -> Result<(), PasswordError> {
        let entry = WalEntry::checked(payload).map_err(|e| PasswordError::CorruptRecord {
            reason: e.to_string(),
        })?;
        let index = shard_index(entry.username(), self.shards.len());
        self.log_and_apply(index, &entry, payload, false, |_| Ok(true))
            .map(drop)
    }

    /// The one write path.  Under shard `index`'s account lock, `admit`
    /// inspects the map and decides whether the mutation happens at all
    /// (`Err` refuses it, `Ok(false)` skips it).  An admitted `entry`'s
    /// `payload`, which must equal `entry.to_payload()`, is
    /// appended to the log — `staged` for the next
    /// [`ShardedPasswordStore::commit_shards`] barrier, or fsynced at
    /// once — and only then applied to the map, so log order
    /// matches apply order and a failed append (rolled back, or the log
    /// poisoned, by [`Wal`]) leaves the map untouched.  Returns
    /// whether the mutation was applied.
    fn log_and_apply(
        &self,
        index: usize,
        entry: &WalEntry,
        payload: &[u8],
        staged: bool,
        admit: impl FnOnce(&BTreeSet<PackedAccount>) -> Result<bool, PasswordError>,
    ) -> Result<bool, PasswordError> {
        debug_assert_eq!(payload, entry.to_payload(), "the entry's own bytes");
        // The WAL payload is the op byte and the packed bytes the map
        // keeps, copied out before the lock is taken.
        let packed = match entry {
            WalEntry::Enroll(_) | WalEntry::Update(_) => {
                Some(PackedAccount::from_packed(&payload[1..]))
            }
            WalEntry::Remove(_) => None,
        };
        let mut accounts = self.shards[index].accounts.write();
        if !admit(&accounts)? {
            return Ok(false);
        }
        if let Some(d) = &self.durability {
            d.wal
                .lock()
                // gp-lint: allow(L8, by-design durability barrier: the accounts lock orders the WAL append ahead of the map mutation)
                .append_record(payload, !staged)
                .map_err(|e| storage_error("wal append", e))?;
        }
        match packed {
            Some(packed) => {
                accounts.replace(packed);
            }
            None => {
                accounts.remove(entry.username());
            }
        }
        Ok(true)
    }

    /// Apply one record read back from disk (a snapshot's or the log's)
    /// in memory, with no logging: the data is already on disk.  Records
    /// re-route by account hash.
    fn apply_recovered(&self, entry: WalEntry, payload: &[u8]) {
        let shard = self.shard_for(entry.username());
        match entry {
            // The checked payload is the canonical packing: keep it.
            WalEntry::Enroll(_) | WalEntry::Update(_) => {
                let packed = PackedAccount::from_packed(&payload[1..]);
                shard.accounts.write().replace(packed);
            }
            WalEntry::Remove(username) => {
                shard.accounts.write().remove(username.as_str());
            }
        }
    }

    /// Fetch a copy of an account's stored record.
    pub fn get(&self, username: &str) -> Option<StoredPassword> {
        let shard = self.shard_for(username);
        shard.lookups.fetch_add(1, Ordering::Relaxed);
        shard
            .accounts
            .read()
            .get(username)
            .map(PackedAccount::unpack)
    }

    /// An account's record as a WAL `Update` payload (op byte, then the
    /// packed record), copied from its resident bytes: the bytes
    /// `WalEntry::Update(record).to_payload()` builds, without unpacking
    /// the record or deriving its salt.
    pub fn update_payload(&self, username: &str) -> Option<Vec<u8>> {
        let accounts = self.shard_for(username).accounts.read();
        let packed = accounts.get(username)?.as_bytes();
        let mut payload = Vec::with_capacity(1 + packed.len());
        payload.push(OP_UPDATE);
        payload.extend_from_slice(packed);
        Some(payload)
    }

    /// Fetch a copy of an account's stored record together with its
    /// per-salt hashing state, ready for the batched verify path.  The
    /// salt is derived from the name and the hasher built after the shard
    /// lock is released: about two compressions in all.
    pub fn get_cached(&self, username: &str) -> Option<(StoredPassword, SaltedHasher)> {
        let stored = self.get(username)?;
        let hasher = SaltedHasher::new(&stored.hash.salt);
        Some((stored, hasher))
    }

    /// Remove an account; returns whether it existed.  On a durable store
    /// the removal is logged before it is applied (and acknowledged), so
    /// a recovered store cannot resurrect the account.
    pub fn remove(&self, username: &str) -> Result<bool, PasswordError> {
        let index = shard_index(username, self.shards.len());
        let entry = WalEntry::Remove(username.to_string());
        self.log_and_apply(index, &entry, &entry.to_payload(), false, |accounts| {
            Ok(accounts.contains(username))
        })
    }

    /// Verify a login attempt for an account (scalar path; the serving
    /// layer's batched hash step uses [`GraphicalPasswordSystem`]'s
    /// split-phase API with records and per-salt state fetched via
    /// [`ShardedPasswordStore::get_cached`]).
    pub fn verify(
        &self,
        system: &GraphicalPasswordSystem,
        username: &str,
        clicks: &[Point],
    ) -> Result<bool, PasswordError> {
        let stored = self
            .get(username)
            .ok_or_else(|| PasswordError::UnknownAccount {
                username: username.to_string(),
            })?;
        self.shard_for(username)
            .verifies
            .fetch_add(1, Ordering::Relaxed);
        system.verify(&stored, clicks)
    }

    /// Record a verification routed through the split-phase/batched path,
    /// so shard traffic counters stay meaningful for the serving layer.
    pub fn note_verified(&self, username: &str) {
        self.shard_for(username)
            .verifies
            .fetch_add(1, Ordering::Relaxed);
    }

    /// All account names across shards, sorted.
    pub fn usernames(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.accounts
                    .read()
                    .iter()
                    .map(|account| account.name().to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    /// All stored records across shards, sorted by account name.
    pub fn records(&self) -> Vec<StoredPassword> {
        self.records_in_range(|_| true)
    }

    /// The stored records whose account name satisfies `range`, sorted by
    /// name.  Each shard is scanned under its own read lock (shard-level
    /// consistency: a record is either in the result or not, never torn),
    /// which is what a catch-up transfer streams to a (re)joining node.
    pub fn records_in_range(&self, range: impl Fn(&str) -> bool) -> Vec<StoredPassword> {
        let mut records: Vec<StoredPassword> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.accounts
                    .read()
                    .iter()
                    .filter(|account| range(account.name()))
                    .map(PackedAccount::unpack)
                    .collect::<Vec<_>>()
            })
            .collect();
        records.sort_by(|a, b| a.username.cmp(&b.username));
        records
    }

    /// `(username, record_digest)` pairs for every account in `range`,
    /// sorted by name — the record-level summary two replicas exchange
    /// (and [`diff_range_entries`] merges) once their [`RangeDigest`]s
    /// disagree.
    pub fn range_entries(&self, range: impl Fn(&str) -> bool) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.accounts
                    .read()
                    .iter()
                    .filter(|account| range(account.name()))
                    .map(|account| (account.name().to_string(), account.digest()))
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Order-independent digest over every account in `range` — the flat
    /// per-range digest the anti-entropy exchange compares between a
    /// primary and its backup.  Equal iff the two record sets are equal
    /// (modulo 64-bit collisions).
    pub fn range_digest(&self, range: impl Fn(&str) -> bool) -> RangeDigest {
        let mut digest = RangeDigest::default();
        for shard in &self.shards {
            for account in shard.accounts.read().iter() {
                if range(account.name()) {
                    digest.add_hash(account.digest());
                }
            }
        }
        digest
    }

    /// Per-shard size and traffic snapshot.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                accounts: s.accounts.read().len(),
                enrolls: s.enrolls.load(Ordering::Relaxed),
                verifies: s.verifies.load(Ordering::Relaxed),
                lookups: s.lookups.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Stream shard `index` to `out` as a snapshot: the WAL magic, then
    /// one `update` record per account, [`RENDER_BATCH`] accounts per
    /// read-lock acquisition: the lock is never held across a write, and
    /// neither the shard's file nor a copy of its accounts is ever whole
    /// in memory.  Accounts are visited once each, in name order; a writer
    /// that lands between two batches may or may not be reflected (see
    /// [`ShardedPasswordStore::snapshot_all`] for why that is safe).
    fn write_shard(&self, index: usize, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(WAL_MAGIC)?;
        let (mut records, mut payload) = (Vec::new(), Vec::new());
        let mut after: Option<String> = None;
        loop {
            records.clear();
            {
                let accounts = self.shards[index].accounts.read();
                let lower = after.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
                let mut last = None;
                for account in accounts
                    .range::<str, _>((lower, Bound::Unbounded))
                    .take(RENDER_BATCH)
                {
                    payload.clear();
                    payload.push(OP_UPDATE);
                    payload.extend_from_slice(account.as_bytes());
                    put_record(&mut records, &payload);
                    last = Some(account);
                }
                after = last.map(|account| account.name().to_string());
            }
            out.write_all(&records)?;
            if after.is_none() {
                return Ok(());
            }
        }
    }

    /// Persist every shard as `shard-NNN.pwd` under `dir` (created if
    /// absent), then remove shard files beyond the current count.
    ///
    /// Each file is published atomically (tmp + fsync + rename + dir
    /// fsync): a crash mid-save leaves every shard file as either its
    /// complete old version or its complete new version, never a
    /// truncated hybrid that poisons the whole directory at load time.  A
    /// crash between two shards' renames loses at most the not-yet-renamed
    /// shards' *new* contents — the old snapshots remain intact.  Shards
    /// stream out in batches, so under concurrent writers a file holds,
    /// per account, one state that account had during the save; a durable
    /// store's snapshots recover full consistency from the log instead.
    pub fn save_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for shard in 0..self.shards.len() {
            atomic_write(&dir.join(shard_pwd_name(shard)), |file| {
                self.write_shard(shard, file)
            })?;
        }
        remove_stale_shard_files(dir, self.shards.len())
    }

    /// Load every `shard-NNN.pwd` file under `dir` into an in-memory
    /// store with `shards` partitions.  Records are re-routed by account
    /// hash, so the on-disk shard count need not match `shards`.  (For a
    /// store that also replays the log and stays durable, use
    /// [`ShardedPasswordStore::open_durable`].)
    pub fn load_from_dir(dir: &Path, shards: usize) -> Result<Self, PasswordError> {
        let store = Self::new(shards);
        store.load_snapshots(dir)?;
        Ok(store)
    }

    /// Load every `shard-NNN.pwd` snapshot under `dir` into memory,
    /// streaming: each record is re-routed by account hash and applied as
    /// it decodes.  A snapshot is published whole, so a damaged final
    /// record in one is corruption, not a torn append.
    fn load_snapshots(&self, dir: &Path) -> Result<(), PasswordError> {
        for path in shard_files(dir, ".pwd")? {
            let replay = Wal::replay(&path, |entry, payload| self.apply_recovered(entry, payload))
                .map_err(|e| recovery_error(&path, e))?;
            if replay.torn_bytes > 0 {
                return Err(PasswordError::CorruptRecord {
                    reason: format!(
                        "{}: damaged final record ({} bytes) in a snapshot",
                        path.display(),
                        replay.torn_bytes
                    ),
                });
            }
        }
        Ok(())
    }

    /// Compact the log: rotate it to a new segment, publish every shard's
    /// snapshot (and remove snapshot files beyond the shard count), then
    /// delete the segments the snapshots cover.  No-op on an in-memory
    /// store.
    ///
    /// No writer can make a compaction skip its deletion.  A writer logs
    /// a record and applies it under one hold of its shard's account
    /// lock, so every record in a retired segment is in the map before a
    /// batch of `write_shard` (run after the rotation) can read that
    /// shard.  A writer racing the snapshot lands in the new segment: the
    /// file may or may not reflect it, and replaying that segment over
    /// the file ends every account at its last logged state.  Snapshots
    /// stream in batches, each read under a short *read* hold of the
    /// shard's account lock, never across file I/O, so concurrent
    /// verifies proceed untouched and a writer waits at most for one
    /// batch.  A crash anywhere leaves either the retired segments (and
    /// old or new snapshots) or only new snapshots over the new segment;
    /// both recover to the logged state.
    pub fn snapshot_all(&self) -> Result<(), PasswordError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let _serialize = d.snapshot_lock.lock();
        // gp-lint: allow(L8, the snapshot lock exists to serialize compactions; their blocking file I/O is the protected work)
        self.compact(d)
    }

    /// The body of [`ShardedPasswordStore::snapshot_all`], under its lock.
    fn compact(&self, d: &DurabilityState) -> Result<(), PasswordError> {
        d.wal
            .lock()
            .rotate()
            .map_err(|e| storage_error("rotate wal", e))?;
        self.save_to_dir(&d.dir)
            .map_err(|e| storage_error(&format!("snapshot {}", d.dir.display()), e))?;
        d.wal
            .lock()
            .delete_retired()
            .map_err(|e| storage_error("delete retired wal segments", e))?;
        d.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Compact ([`ShardedPasswordStore::snapshot_all`]) if the log has
    /// grown past [`DurabilityOptions::snapshot_threshold_bytes`], or an
    /// earlier failure poisoned it (rotation re-arms it); returns whether
    /// it did.  The background compaction entry point: cheap when nothing
    /// is due (one short mutex acquisition).
    pub fn snapshot_if_due(&self) -> Result<bool, PasswordError> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        let due = {
            let wal = d.wal.lock();
            wal.len_bytes() > d.options.snapshot_threshold_bytes || wal.is_poisoned()
        };
        if due {
            self.snapshot_all()?;
        }
        Ok(due)
    }
}

/// A snapshot or log that cannot be read back: corruption (the message
/// names the file) is [`PasswordError::CorruptRecord`], anything else a
/// storage error at `path`.
fn recovery_error(path: &Path, e: std::io::Error) -> PasswordError {
    match e.kind() {
        std::io::ErrorKind::InvalidData => PasswordError::CorruptRecord {
            reason: e.to_string(),
        },
        _ => storage_error(&format!("recover {}", path.display()), e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscretizationConfig;
    use crate::policy::PasswordPolicy;
    use gp_crypto::PasswordHasher;

    fn system() -> GraphicalPasswordSystem {
        GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(6),
            3,
        )
    }

    fn clicks(seed: f64) -> Vec<Point> {
        (0..5)
            .map(|i| Point::new(30.0 + seed + 70.0 * i as f64, 20.0 + seed + 55.0 * i as f64))
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gp-shard-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The paths of the log segments under `dir`, in number order.
    fn segment_paths(dir: &Path) -> Vec<PathBuf> {
        let numbers = crate::wal::segments(dir).unwrap();
        numbers
            .into_iter()
            .map(|n| dir.join(crate::wal::segment_name(n)))
            .collect()
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7, 16] {
            for name in ["alice", "bob", "", "ユーザー", "user-12345"] {
                let idx = shard_index(name, shards);
                assert!(idx < shards);
                assert_eq!(idx, shard_index(name, shards), "deterministic");
            }
        }
        // Known-vector stability: the persistence layout documentation
        // depends on this mapping not drifting silently.
        assert_eq!(shard_index("alice", 4), shard_index("alice", 4));
        assert_ne!(
            (0..64).map(|i| shard_index(&format!("user{i}"), 4)).max(),
            Some(0),
            "64 users must not all land in shard 0"
        );
    }

    #[test]
    fn enroll_get_verify_remove_across_shards() {
        let store = ShardedPasswordStore::new(4);
        let sys = system();
        assert!(store.is_empty());
        assert!(!store.is_durable());
        for i in 0..16 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.usernames().len(), 16);
        assert!(store.verify(&sys, "user3", &clicks(3.0)).unwrap());
        assert!(!store.verify(&sys, "user3", &clicks(50.0)).unwrap());
        assert!(store.remove("user3").unwrap());
        assert!(!store.remove("user3").unwrap());
        assert!(store.get("user3").is_none());
        assert_eq!(store.len(), 15);
    }

    #[test]
    fn accounts_spread_over_multiple_shards() {
        let store = ShardedPasswordStore::new(4);
        let sys = system();
        for i in 0..64 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.len(), 4);
        let populated = stats.iter().filter(|s| s.accounts > 0).count();
        assert!(populated >= 3, "64 accounts should hit ≥3 of 4 shards");
        assert_eq!(stats.iter().map(|s| s.accounts).sum::<usize>(), 64);
        assert_eq!(stats.iter().map(|s| s.enrolls).sum::<u64>(), 64);
    }

    #[test]
    fn duplicate_enrollment_rejected() {
        let store = ShardedPasswordStore::new(2);
        let sys = system();
        store.enroll(&sys, "alice", &clicks(0.0)).unwrap();
        assert!(matches!(
            store.enroll(&sys, "alice", &clicks(1.0)),
            Err(PasswordError::DuplicateAccount { .. })
        ));
    }

    #[test]
    fn insert_with_a_foreign_salt_is_refused_and_not_logged() {
        // The packed record derives its salt from the name, so a record
        // under any other salt (another user's, another domain's, the old
        // raw `domain || 0x1f || name` form) could not round-trip.
        let dir = temp_dir("foreign-salt");
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        let sys = system();
        let alice = sys.enroll("alice", &clicks(0.0)).unwrap();
        let foreign_salts = [
            sys.hasher().salt_for(b"bob"),
            PasswordHasher::new("gp-passwords/ccp/v2", 1).salt_for(b"alice"),
            b"gp-passwords/v1\x1falice".to_vec(),
        ];
        for salt in foreign_salts {
            let mut grafted = alice.clone();
            grafted.hash.salt = salt;
            for deferred in [false, true] {
                let result = match deferred {
                    false => store.insert_new(grafted.clone()),
                    true => store.insert_new_deferred(grafted.clone()).map(drop),
                };
                assert!(
                    matches!(result, Err(PasswordError::CorruptRecord { .. })),
                    "{result:?}"
                );
            }
        }
        assert!(store.get("alice").is_none());
        assert_eq!(store.durability_stats().unwrap().wal_appends, 0);
        store.insert_new(alice.clone()).unwrap();
        assert_eq!(store.get("alice"), Some(alice));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_account_is_an_error_not_a_failed_login() {
        let store = ShardedPasswordStore::new(2);
        assert!(matches!(
            store.verify(&system(), "ghost", &clicks(0.0)),
            Err(PasswordError::UnknownAccount { .. })
        ));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedPasswordStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.enroll(&system(), "alice", &clicks(0.0)).unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn per_shard_files_round_trip_across_shard_counts() {
        let store = ShardedPasswordStore::new(4);
        let sys = system();
        for i in 0..12 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        let dir = temp_dir("roundtrip");
        store.save_to_dir(&dir).unwrap();

        // Reload under a *different* shard count: records re-route by hash.
        let reloaded = ShardedPasswordStore::load_from_dir(&dir, 7).unwrap();
        assert_eq!(reloaded.shard_count(), 7);
        assert_eq!(reloaded.len(), 12);
        for i in 0..12 {
            assert!(reloaded
                .verify(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap());
        }

        // A shard file replays on its own: one update record per account.
        let mut single = Vec::new();
        let replay = Wal::replay(&dir.join(shard_pwd_name(0)), |e, _| single.push(e)).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(single.len(), store.stats()[0].accounts);
        assert!(single.iter().all(|e| matches!(e, WalEntry::Update(_))));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_bit_rot_is_refused_naming_the_file() {
        // One flipped bit in one account's digest inside a published
        // snapshot must not load as a silently different hash, whether
        // the account's record is interior to the file or its last.
        let sys = system();
        let dir = temp_dir("snapshot-rot");
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        for i in 0..6 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        store.snapshot_all().unwrap();
        let records = store.records();
        drop(store);
        for record in &records {
            let path = dir.join(shard_pwd_name(shard_index(&record.username, 2)));
            let pristine = std::fs::read(&path).unwrap();
            let digest = &record.hash.digest;
            let at = pristine
                .windows(digest.len())
                .position(|w| w == digest)
                .expect("the digest is in its shard's snapshot");
            let mut rotten = pristine.clone();
            rotten[at + 7] ^= 0x01;
            std::fs::write(&path, &rotten).unwrap();

            let name = path.file_name().unwrap().to_str().unwrap();
            for err in [
                ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default())
                    .unwrap_err(),
                ShardedPasswordStore::load_from_dir(&dir, 2).unwrap_err(),
            ] {
                assert!(
                    err.to_string().contains(name),
                    "{}: names the file: {err}",
                    record.username
                );
            }
            std::fs::write(&path, &pristine).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_format_files_are_refused_by_magic() {
        // The text snapshot and the GP-WAL1 log that preceded the packed
        // record format: refused whole, never misparsed.
        let v1_snapshot = "# gp-passwords store v1 (shard 0/1)\n\
                           alice\tcentered:9\t5\t451x331\t01;01;01;01;01\t3$00$00\n";
        let mut v1_wal = b"GP-WAL1\n".to_vec();
        v1_wal.extend_from_slice(&6u32.to_be_bytes());
        v1_wal.extend_from_slice(&fnv1a64(b"\x03alice").to_be_bytes());
        v1_wal.extend_from_slice(b"\x03alice");
        for (file, bytes) in [
            (shard_pwd_name(0), v1_snapshot.as_bytes()),
            (crate::wal::segment_name(1), &v1_wal[..]),
        ] {
            let dir = temp_dir("v1-format");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&file), bytes).unwrap();
            let err = ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default())
                .unwrap_err();
            assert!(
                err.to_string().contains(&file) && err.to_string().contains("bad magic"),
                "{file}: {err}"
            );
            if file.ends_with(".pwd") {
                assert!(ShardedPasswordStore::load_from_dir(&dir, 1).is_err());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_leftover_per_shard_log_is_refused_naming_the_file() {
        // A directory written by the per-shard layout: its `shard-NNN.wal`
        // may hold acked records, so recovery must not start around it.
        let sys = system();
        let dir = temp_dir("per-shard-log");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = WAL_MAGIC.to_vec();
        let record = sys.enroll("alice", &clicks(0.0)).unwrap();
        put_record(&mut wal, &WalEntry::Enroll(record).to_payload());
        std::fs::write(dir.join("shard-000.wal"), &wal).unwrap();
        let err =
            ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default()).unwrap_err();
        assert!(
            matches!(err, PasswordError::CorruptRecord { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("shard-000.wal"), "{err}");
        assert!(dir.join("shard-000.wal").exists(), "the file is left alone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_in_a_segment_a_later_one_follows_is_corruption() {
        // Rotation syncs a segment whole before the next one exists, so
        // only the last segment may end in a torn record.
        let sys = system();
        let dir = temp_dir("torn-interior-segment");
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        for i in 0..3 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        drop(store);
        let [segment] = &segment_paths(&dir)[..] else {
            panic!("one segment after open");
        };
        let bytes = std::fs::read(segment).unwrap();
        std::fs::write(segment, &bytes[..bytes.len() - 5]).unwrap();
        // Alone, the cut is the torn tail of a crashed append.
        let scratch = temp_dir("torn-interior-segment-copy");
        std::fs::create_dir_all(&scratch).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
        }
        let recovered =
            ShardedPasswordStore::open_durable(&scratch, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 2);
        drop(recovered);
        // With a later segment after it, the same cut is corruption.
        let number = crate::wal::segments(&dir).unwrap()[0];
        std::fs::write(dir.join(crate::wal::segment_name(number + 1)), WAL_MAGIC).unwrap();
        let err =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap_err();
        assert!(
            matches!(err, PasswordError::CorruptRecord { .. }),
            "{err:?}"
        );
        let name = segment.file_name().unwrap().to_str().unwrap();
        assert!(err.to_string().contains(name), "names the segment: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn compromised_store_reveals_only_clear_identifiers_and_hashes() {
        // The threat model, checked on the files a stolen disk holds: a
        // snapshot and a WAL tail carry the clear grid identifiers and one
        // hash per account, never a raw click coordinate.
        let sys = system();
        let dir = temp_dir("threat-model");
        // Fractional coordinates cannot collide with integer grid fields.
        let alice: Vec<Point> = clicks(0.0).iter().map(|p| p.offset(0.37, 0.61)).collect();
        let bob: Vec<Point> = clicks(9.0).iter().map(|p| p.offset(0.19, 0.83)).collect();
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        store.enroll(&sys, "alice", &alice).unwrap();
        store.snapshot_all().unwrap(); // alice: snapshot only
        store.enroll(&sys, "bob", &bob).unwrap(); // bob: WAL only
        drop(store);

        let pwd = std::fs::read(dir.join(shard_pwd_name(shard_index("alice", 2)))).unwrap();
        let wal = std::fs::read(&segment_paths(&dir)[0]).unwrap();
        assert!(
            wal.len() > crate::wal::WAL_MAGIC.len(),
            "bob's record is in the WAL"
        );
        let mut snapshot = Vec::new();
        Wal::replay(
            &dir.join(shard_pwd_name(shard_index("alice", 2))),
            |e, _| snapshot.push(e),
        )
        .unwrap();
        let record = snapshot
            .iter()
            .find_map(|e| match e {
                WalEntry::Update(r) if r.username == "alice" => Some(r),
                _ => None,
            })
            .expect("alice's record");
        // The only per-click data present is one clear grid identifier per
        // click and the single hash; the record has no field that could
        // hold the 10 raw coordinates of the 5 original clicks.
        assert_eq!(record.clicks.len(), alice.len());
        assert_eq!(record.hash.digest.len(), 32);
        assert_eq!(record.hash.iterations, 3, "hash with iteration count");

        let contains =
            |haystack: &[u8], needle: &[u8]| haystack.windows(needle.len()).any(|w| w == needle);
        for (file, points) in [(&pwd, &alice), (&wal, &bob)] {
            for p in points.iter() {
                for v in [p.x, p.y] {
                    for needle in [
                        format!("{v}").into_bytes(),
                        v.to_le_bytes().to_vec(),
                        v.to_be_bytes().to_vec(),
                        (v as f32).to_le_bytes().to_vec(),
                        (v as f32).to_be_bytes().to_vec(),
                    ] {
                        assert!(!contains(file, &needle), "coordinate {v} leaked");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp_files() {
        let store = ShardedPasswordStore::new(2);
        let sys = system();
        for i in 0..6 {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        let dir = temp_dir("atomic-save");
        store.save_to_dir(&dir).unwrap();
        store.save_to_dir(&dir).unwrap(); // overwrite path exercises rename
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".pwd")),
            "only published snapshots remain: {names:?}"
        );
        assert_eq!(names.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saving_fewer_shards_removes_stale_files_instead_of_resurrecting() {
        let sys = system();
        let dir = temp_dir("stale");

        // Save 8 shards holding 24 accounts…
        let wide = ShardedPasswordStore::new(8);
        for i in 0..24 {
            wide.enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap();
        }
        wide.save_to_dir(&dir).unwrap();

        // …then remove half the accounts and save with 2 shards.
        for i in 12..24 {
            assert!(wide.remove(&format!("user{i}")).unwrap());
        }
        let narrow = ShardedPasswordStore::new(2);
        for record in wide.records() {
            narrow
                .apply_replicated(&WalEntry::Update(record).to_payload())
                .unwrap();
        }
        narrow.save_to_dir(&dir).unwrap();

        // Stale shard-002..007 files are gone; a load sees exactly the 12
        // surviving accounts instead of merging removed ones back in.
        let reloaded = ShardedPasswordStore::load_from_dir(&dir, 4).unwrap();
        assert_eq!(reloaded.len(), 12, "{:?}", reloaded.usernames());
        for i in 0..12 {
            assert!(reloaded.get(&format!("user{i}")).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_recovers_from_wal_alone() {
        let sys = system();
        let dir = temp_dir("durable-wal");
        {
            let store =
                ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
            assert!(store.is_durable());
            for i in 0..10 {
                store
                    .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                    .unwrap();
            }
            assert!(store.remove("user9").unwrap());
            let stats = store.durability_stats().unwrap();
            assert_eq!(stats.wal_appends, 11, "10 enrolls + 1 remove");
            assert!(stats.wal_syncs >= 11, "every flushed append fsyncs");
            // No graceful save: the store is simply dropped, as in a
            // crash after the last ack.
        }
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 9);
        assert!(recovered.get("user9").is_none(), "removal replayed");
        for i in 0..9 {
            assert!(recovered
                .verify(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap());
        }
        let stats = recovered.durability_stats().unwrap();
        assert_eq!(stats.replayed_records, 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_snapshot_compacts_and_recovery_replays_the_tail() {
        let sys = system();
        let dir = temp_dir("durable-snap");
        let options = DurabilityOptions {
            snapshot_threshold_bytes: 0,
        };
        {
            let store = ShardedPasswordStore::open_durable(&dir, 2, options).unwrap();
            for i in 0..6 {
                store
                    .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                    .unwrap();
            }
            // Compact: one empty segment, snapshots hold the 6 accounts.
            assert!(store.snapshot_if_due().unwrap());
            let stats = store.durability_stats().unwrap();
            assert_eq!(stats.wal_bytes, crate::wal::WAL_MAGIC.len() as u64);
            assert_eq!(segment_paths(&dir).len(), 1);
            // The tail: 2 more enrolls only the WAL knows about.
            for i in 6..8 {
                store
                    .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                    .unwrap();
            }
        }
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 8, "snapshot + WAL tail");
        for i in 0..8 {
            assert!(recovered
                .verify(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap());
        }
        // Recovery replays only the un-compacted tail.
        assert_eq!(recovered.durability_stats().unwrap().replayed_records, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_reopen_under_different_shard_count_reroutes_and_cleans() {
        let sys = system();
        let dir = temp_dir("durable-reshard");
        {
            let store =
                ShardedPasswordStore::open_durable(&dir, 8, DurabilityOptions::default()).unwrap();
            for i in 0..16 {
                store
                    .enroll(&sys, &format!("user{i}"), &clicks(i as f64))
                    .unwrap();
            }
        }
        let narrow =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(narrow.shard_count(), 2);
        assert_eq!(narrow.len(), 16);
        drop(narrow);
        // Only the shard-000/001 snapshots and the one segment survive.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let segment = segment_paths(&dir)[0]
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        assert_eq!(
            names,
            vec![
                segment,
                "shard-000.pwd".to_string(),
                "shard-001.pwd".to_string()
            ]
        );
        // And a fresh wide open still sees every account.
        let wide =
            ShardedPasswordStore::open_durable(&dir, 5, DurabilityOptions::default()).unwrap();
        assert_eq!(wide.len(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_replicated_is_durable_and_idempotent() {
        let sys = system();
        let dir = temp_dir("replicated");
        {
            let store =
                ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
            let record = sys.enroll("alice", &clicks(0.0)).unwrap();
            store
                .apply_replicated(&WalEntry::Enroll(record.clone()).to_payload())
                .unwrap();
            // Redelivery (a primary retrying after a dropped connection)
            // must not fail on the duplicate.
            store
                .apply_replicated(&WalEntry::Enroll(record).to_payload())
                .unwrap();
            let bob = sys.enroll("bob", &clicks(5.0)).unwrap();
            store
                .apply_replicated(&WalEntry::Update(bob).to_payload())
                .unwrap();
            store
                .apply_replicated(&WalEntry::Remove("bob".into()).to_payload())
                .unwrap();
            assert_eq!(store.len(), 1);
            // A payload that does not decode canonically is refused and
            // never logged.
            let mut trailing =
                WalEntry::Update(sys.enroll("carol", &clicks(9.0)).unwrap()).to_payload();
            trailing.push(0);
            assert!(matches!(
                store.apply_replicated(&trailing),
                Err(PasswordError::CorruptRecord { .. })
            ));
            // No graceful save — the ack's durability must come from the
            // WAL append inside apply_replicated alone.
        }
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.verify(&sys, "alice", &clicks(0.0)).unwrap());
        assert!(recovered.get("bob").is_none(), "removal replicated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The payload copied from an account's resident bytes is the one its
    /// decoded record re-packs to, for every account: names of 1 to 196
    /// bytes across four shards.
    #[test]
    fn update_payload_matches_the_repacked_record() {
        let sys = system();
        let store = ShardedPasswordStore::new(4);
        for i in 0..40u32 {
            let name = format!("{i:0>width$}", width = 1 + 5 * i as usize);
            let record = sys.enroll(&name, &clicks(f64::from(i))).unwrap();
            store.insert_new(record).unwrap();
        }
        let names = store.usernames();
        assert_eq!(names.len(), 40);
        for name in names {
            let repacked = WalEntry::Update(store.get(&name).unwrap()).to_payload();
            assert_eq!(store.update_payload(&name), Some(repacked), "{name}");
        }
        assert_eq!(store.update_payload("nobody"), None);
    }

    #[test]
    fn a_barrier_over_four_shards_is_one_fsync() {
        let sys = system();
        let dir = temp_dir("group-commit");
        {
            let store =
                ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
            let syncs_before = store.durability_stats().unwrap().wal_syncs;
            let mut touched = Vec::new();
            for i in 0..8 {
                let record = sys.enroll(&format!("user{i}"), &clicks(i as f64)).unwrap();
                touched.push(store.insert_new_deferred(record).unwrap());
            }
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(
                touched,
                vec![0, 1, 2, 3],
                "the 8 enrolls touch all 4 shards"
            );
            // Before the barrier: appended, but no fsync yet.
            let staged = store.durability_stats().unwrap();
            assert_eq!((staged.wal_appends, staged.wal_syncs), (8, syncs_before));
            store.commit_shards(touched.iter().copied()).unwrap();
            let stats = store.durability_stats().unwrap();
            assert_eq!(
                stats.wal_syncs - syncs_before,
                1,
                "8 enrolls over 4 shards, one barrier: one fsync"
            );
            assert_eq!(stats.group_commits, 1);
            // Crash (drop without snapshot): every committed record must
            // recover from the log alone.
        }
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 8);
        for i in 0..8 {
            assert!(recovered
                .verify(&sys, &format!("user{i}"), &clicks(i as f64))
                .unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deferred_insert_still_rejects_duplicates_and_commit_is_cheap_when_empty() {
        let sys = system();
        let dir = temp_dir("group-dup");
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        let record = sys.enroll("alice", &clicks(0.0)).unwrap();
        store.insert_new_deferred(record.clone()).unwrap();
        assert!(matches!(
            store.insert_new_deferred(record),
            Err(PasswordError::DuplicateAccount { .. })
        ));
        store.commit_shards([0usize, 0, 0]).unwrap();
        let syncs = store.durability_stats().unwrap().wal_syncs;
        // An empty barrier issues no fsync at all.
        store.commit_shards(std::iter::empty()).unwrap();
        store.commit_shards([0usize]).unwrap();
        assert_eq!(store.durability_stats().unwrap().wal_syncs, syncs);
        // In-memory stores take the same path as a no-op.
        let plain = ShardedPasswordStore::new(2);
        let r2 = sys.enroll("bob", &clicks(1.0)).unwrap();
        assert_eq!(
            plain.insert_new_deferred(r2).unwrap(),
            shard_index("bob", 2)
        );
        plain.commit_shards([shard_index("bob", 2)]).unwrap();
        assert!(plain.durability_stats().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_hasher_matches_fresh_salt_absorption() {
        let store = ShardedPasswordStore::new(4);
        let sys = system();
        store.enroll(&sys, "alice", &clicks(0.0)).unwrap();
        let (stored, cached) = store.get_cached("alice").expect("account exists");
        let fresh = SaltedHasher::new(&stored.hash.salt);
        for message in [&b"attempt-a"[..], b"attempt-b", b""] {
            assert_eq!(
                cached.iterated(message, stored.hash.iterations),
                fresh.iterated(message, stored.hash.iterations),
                "served per-salt state must be bit-identical to a fresh one"
            );
        }
        // Records bulk-loaded as updates are served the same way.
        let reloaded = ShardedPasswordStore::new(2);
        reloaded
            .apply_replicated(&WalEntry::Update(stored.clone()).to_payload())
            .unwrap();
        let (_, cached2) = reloaded.get_cached("alice").expect("inserted");
        assert_eq!(cached2.iterated(b"x", 3), fresh.iterated(b"x", 3));
        assert!(store.get_cached("ghost").is_none());
    }

    #[test]
    fn concurrent_enrollment_across_threads_and_shards() {
        use std::sync::Arc;
        let store = Arc::new(ShardedPasswordStore::new(4));
        let sys = system();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            let sys = sys.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    let name = format!("t{t}-user{i}");
                    store
                        .enroll(&sys, &name, &clicks(t as f64 + i as f64))
                        .unwrap();
                    assert!(store
                        .verify(&sys, &name, &clicks(t as f64 + i as f64))
                        .unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 64);
    }

    #[test]
    fn batched_shard_writes_cover_every_account_under_racing_writers() {
        // Several RENDER_BATCH batches per shard, written while writers
        // keep landing between batches: every account must survive the
        // snapshot + log recovery, and a quiet shard's file must list
        // every account exactly once, in name order.
        let sys = system();
        let dir = temp_dir("batched-snapshot");
        let template = sys.enroll("template", &clicks(0.0)).unwrap();
        let total = 3 * RENDER_BATCH + 7;
        let records: Vec<StoredPassword> = (0..total)
            .map(|i| {
                let mut record = template.clone();
                record.username = format!("user{i:05}");
                record.hash.salt = sys.hasher().salt_for(record.username.as_bytes());
                record
            })
            .collect();
        let store = std::sync::Arc::new(
            ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default()).unwrap(),
        );
        let writer = {
            let store = std::sync::Arc::clone(&store);
            let records = records.clone();
            std::thread::spawn(move || {
                for record in records.into_iter().rev() {
                    store
                        .apply_replicated(&WalEntry::Update(record).to_payload())
                        .unwrap();
                }
            })
        };
        while !writer.is_finished() {
            store.snapshot_all().unwrap();
        }
        writer.join().unwrap();
        // The shard is quiet now: its next snapshot is exactly the map.
        store.snapshot_all().unwrap();
        let mut names = Vec::new();
        Wal::replay(&dir.join(shard_pwd_name(0)), |e, _| {
            names.push(e.username().to_string())
        })
        .unwrap();
        let expected: Vec<String> = records.iter().map(|r| r.username.clone()).collect();
        assert_eq!(names, expected);
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.usernames(), expected);
        assert_eq!(recovered.get("user00300").as_ref(), Some(&records[300]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_durable_enrolls_with_concurrent_snapshots() {
        use std::sync::Arc;
        let dir = temp_dir("durable-concurrent");
        let store = Arc::new(
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap(),
        );
        let sys = system();
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            let sys = sys.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8 {
                    store
                        .enroll(&sys, &format!("t{t}-user{i}"), &clicks((t * 8 + i) as f64))
                        .unwrap();
                }
            }));
        }
        // Compaction racing the writers: snapshot everything, repeatedly.
        let snapshotter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..16 {
                    store.snapshot_all().unwrap();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        snapshotter.join().unwrap();
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 32, "no enroll lost to a racing snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_poisoned_log_is_due_for_compaction_which_re_arms_it() {
        let sys = system();
        let dir = temp_dir("poisoned-compaction");
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        store.enroll(&sys, "alice", &clicks(0.0)).unwrap();
        assert!(!store.snapshot_if_due().unwrap(), "far below the threshold");
        store
            .durability
            .as_ref()
            .unwrap()
            .wal
            .lock()
            .poison_for_test();
        assert!(matches!(
            store.enroll(&sys, "bob", &clicks(1.0)),
            Err(PasswordError::Storage { .. })
        ));
        assert!(
            store.get("bob").is_none(),
            "a refused append is not applied"
        );
        assert!(store.snapshot_if_due().unwrap(), "a poisoned log is due");
        store.enroll(&sys, "bob", &clicks(1.0)).unwrap();
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.usernames(), vec!["alice", "bob"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_compaction_deletes_what_it_covers_under_a_racing_writer() {
        // A writer keeps logging while compactions run back to back: none
        // is skipped for it, so each leaves exactly one segment behind.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let sys = system();
        let dir = temp_dir("racing-compaction");
        let store = Arc::new(
            ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default()).unwrap(),
        );
        let mirror = Arc::new(ShardedPasswordStore::new(4));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (store, mirror, done) =
                (Arc::clone(&store), Arc::clone(&mirror), Arc::clone(&done));
            let template = sys.enroll("template", &clicks(0.0)).unwrap();
            std::thread::spawn(move || {
                let mut i = 0u32;
                while !done.load(Ordering::Acquire) {
                    let mut record = template.clone();
                    record.username = format!("user{:03}", i % 97);
                    record.hash.salt = account_salt(&record.username);
                    record.hash.digest[0] = i as u8;
                    if i % 5 == 4 {
                        store.remove(&record.username).unwrap();
                        mirror.remove(&record.username).unwrap();
                    } else {
                        let payload = WalEntry::Update(record).to_payload();
                        store.apply_replicated(&payload).unwrap();
                        mirror.apply_replicated(&payload).unwrap();
                    }
                    i += 1;
                }
                i
            })
        };
        for round in 0..20 {
            store.snapshot_all().unwrap();
            assert_eq!(
                segment_paths(&dir).len(),
                1,
                "compaction {round} left its covered segments behind"
            );
        }
        done.store(true, Ordering::Release);
        let writes = writer.join().unwrap();
        assert!(writes > 0);
        assert_eq!(store.durability_stats().unwrap().snapshots, 21, "open + 20");
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 3, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.records(), mirror.records());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
