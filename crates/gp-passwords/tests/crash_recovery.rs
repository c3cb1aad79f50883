//! Crash-recovery harnesses for the durable sharded store.
//!
//! Two angles:
//!
//! * a deterministic torn-write harness that truncates the node's log
//!   segment at *every byte* and asserts recovery yields exactly the
//!   intact prefix of enrollments — no account lost before the tear, none
//!   invented after it;
//! * a property test that drives an arbitrary interleaving of enrolls,
//!   updates and removals (with a snapshot compaction dropped somewhere
//!   in the middle, and a crash image taken between its last snapshot's
//!   publication and its segment deletion) against a durable store and
//!   an in-memory mirror, then proves recovery — under an arbitrary
//!   *different* shard count — reproduces the mirror exactly.

use gp_geometry::Point;
use gp_passwords::prelude::*;
use gp_passwords::{DurabilityOptions, ShardedPasswordStore, WalEntry};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn system() -> GraphicalPasswordSystem {
    GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::centered(6),
        2,
    )
}

fn clicks(seed: u32) -> Vec<Point> {
    (0..5)
        .map(|i| {
            let x = 30.0 + f64::from(seed % 50) + 70.0 * f64::from(i);
            let y = 20.0 + f64::from(seed / 50 % 40) + 55.0 * f64::from(i);
            Point::new(x, y)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gp-crash-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The log segments under `dir`: one `.wal` file per segment, sorted by
/// name, i.e. by segment number.
fn log_segments(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
        .collect();
    paths.sort();
    paths
}

/// The single log segment a compacted store appends to.
fn only_segment(dir: &Path) -> PathBuf {
    let mut segments = log_segments(dir);
    assert_eq!(segments.len(), 1, "{segments:?}");
    segments.remove(0)
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Truncate the log's (single) segment at every byte boundary and assert
/// the recovered store holds exactly the enrollments whose records lie
/// fully below the cut.
#[test]
fn wal_truncated_at_every_byte_recovers_the_exact_prefix() {
    let sys = system();
    let dir = temp_dir("torn");
    let users = 4usize;
    // `boundaries[i]` = segment length right after user `i`'s enrollment
    // was acknowledged (every ack follows an fsync, so the on-disk length
    // is current).
    let mut boundaries = Vec::new();
    let wal_path;
    {
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        wal_path = only_segment(&dir);
        for i in 0..users {
            store
                .enroll(&sys, &format!("user{i}"), &clicks(i as u32))
                .unwrap();
            boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
        }
        // Dropped without compaction: the WAL alone carries the accounts.
    }
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    assert_eq!(wal_bytes.len() as u64, *boundaries.last().unwrap());

    let scratch = temp_dir("torn-scratch");
    for cut in 0..=wal_bytes.len() {
        copy_dir(&dir, &scratch);
        std::fs::write(
            scratch.join(wal_path.file_name().unwrap()),
            &wal_bytes[..cut],
        )
        .unwrap();
        let recovered =
            ShardedPasswordStore::open_durable(&scratch, 2, DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("recovery must tolerate a cut at byte {cut}: {e}"));
        let intact = boundaries.iter().filter(|b| **b <= cut as u64).count();
        assert_eq!(
            recovered.len(),
            intact,
            "cut at byte {cut}: exactly the acked prefix recovers"
        );
        for i in 0..users {
            if i < intact {
                assert!(
                    recovered
                        .verify(&sys, &format!("user{i}"), &clicks(i as u32))
                        .unwrap(),
                    "cut at byte {cut}: user{i} lies below the tear and must verify"
                );
            } else {
                assert!(
                    recovered.get(&format!("user{i}")).is_none(),
                    "cut at byte {cut}: user{i} lies past the tear"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A crash between snapshot-tmp creation and rename leaves a stray
/// `.pwd.tmp`; recovery must ignore its contents and clean it up on the
/// next compaction.
#[test]
fn stray_snapshot_tmp_files_are_ignored_and_cleaned() {
    let sys = system();
    let dir = temp_dir("stray-tmp");
    {
        let store =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        for i in 0..6 {
            store.enroll(&sys, &format!("user{i}"), &clicks(i)).unwrap();
        }
    }
    // Simulate the torn snapshot publication.
    std::fs::write(dir.join("shard-000.pwd.tmp"), b"half-written garbage").unwrap();
    let recovered =
        ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
    assert_eq!(recovered.len(), 6);
    drop(recovered);
    // open_durable re-snapshots every shard, which republishes over the
    // stray tmp path and renames it away.
    assert!(
        !dir.join("shard-000.pwd.tmp").exists(),
        "stray tmp file is consumed by the recovery compaction"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksum flip in an *interior* WAL record (intact records follow
/// it) is real corruption: `open_durable` must refuse with a distinct
/// mid-file-corruption report, never silently truncate the acked suffix
/// the way a torn *tail* is (correctly) dropped.
#[test]
fn interior_wal_corruption_fails_recovery_distinctly_from_a_torn_tail() {
    let sys = system();
    let dir = temp_dir("mid-file");
    {
        let store =
            ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default()).unwrap();
        for i in 0..4 {
            store.enroll(&sys, &format!("user{i}"), &clicks(i)).unwrap();
        }
    }
    let wal = only_segment(&dir);
    let pristine = std::fs::read(&wal).unwrap();

    // Flip a payload byte of the *second* record: interior damage with
    // intact records following it.  Record framing: 8-byte magic, then
    // per record a 4-byte length + 8-byte checksum + payload.
    let second_start = {
        let len0 = u32::from_be_bytes(pristine[8..12].try_into().unwrap()) as usize;
        8 + 12 + len0
    };
    let mut corrupted = pristine.clone();
    corrupted[second_start + 12] ^= 0xff;
    std::fs::write(&wal, &corrupted).unwrap();
    let err = ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default())
        .expect_err("interior corruption must fail recovery");
    assert!(
        err.to_string().contains("mid-file corruption"),
        "distinct report for interior damage, got: {err}"
    );

    // The same flip on the final byte is a torn tail: recovery proceeds,
    // drops only the damaged last record, and counts the tail.
    let mut torn = pristine;
    *torn.last_mut().unwrap() ^= 0xff;
    std::fs::write(&wal, &torn).unwrap();
    let recovered = ShardedPasswordStore::open_durable(&dir, 1, DurabilityOptions::default())
        .expect("a torn tail is a crash artifact, not corruption");
    assert_eq!(recovered.len(), 3);
    let stats = recovered.durability_stats().unwrap();
    assert_eq!(stats.torn_tails, 1);
    assert_eq!(stats.replayed_records, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One interleaved mutation against both stores.  `op`: 0 = enroll,
/// 1 = update (insert/replace), 2 = remove.
fn apply_op(
    durable: &ShardedPasswordStore,
    mirror: &ShardedPasswordStore,
    sys: &GraphicalPasswordSystem,
    op: u8,
    user: usize,
    seed: u32,
) {
    let name = format!("user{user}");
    match op {
        0 => {
            let a = durable.enroll(sys, &name, &clicks(seed));
            let b = mirror.enroll(sys, &name, &clicks(seed));
            assert_eq!(a.is_ok(), b.is_ok(), "duplicate-enroll outcomes agree");
        }
        1 => {
            let record = sys.enroll(&name, &clicks(seed)).unwrap();
            durable
                .apply_replicated(&WalEntry::Update(record.clone()).to_payload())
                .unwrap();
            mirror
                .apply_replicated(&WalEntry::Update(record).to_payload())
                .unwrap();
        }
        _ => {
            let a = durable.remove(&name).unwrap();
            let b = mirror.remove(&name).unwrap();
            assert_eq!(a, b, "removal outcomes agree");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot + WAL replay ≡ the in-memory store, for an arbitrary
    /// interleaving of enrolls/updates/removals, an arbitrary snapshot
    /// point, and arbitrary (and differing) shard counts on either side
    /// of the crash.
    #[test]
    fn recovery_reproduces_the_in_memory_store(
        ops in proptest::collection::vec((0u8..3u8, 0usize..10usize, 0u32..2000u32), 1..32),
        shards_before in 1usize..6usize,
        shards_after in 1usize..6usize,
        snapshot_at in 0usize..32usize,
    ) {
        let sys = system();
        let dir = temp_dir("prop");
        let crash = temp_dir("prop-crash");
        let options = DurabilityOptions::default();
        let mirror = ShardedPasswordStore::new(shards_before);
        {
            let durable =
                ShardedPasswordStore::open_durable(&dir, shards_before, options).unwrap();
            for (step, (op, user, seed)) in ops.iter().enumerate() {
                apply_op(&durable, &mirror, &sys, *op, *user, *seed);
                if step == snapshot_at {
                    // Mid-sequence compaction: later recovery must stitch
                    // snapshot + log tail together.
                    let retired: Vec<(PathBuf, Vec<u8>)> = log_segments(&dir)
                        .into_iter()
                        .map(|path| (path.clone(), std::fs::read(&path).unwrap()))
                        .collect();
                    durable.snapshot_all().unwrap();
                    // Crash after the compaction published its last
                    // snapshot but before it deleted the segments those
                    // snapshots cover: recovery replays them over the
                    // new snapshots.
                    copy_dir(&dir, &crash);
                    for (path, bytes) in &retired {
                        std::fs::write(crash.join(path.file_name().unwrap()), bytes).unwrap();
                    }
                    prop_assert_eq!(log_segments(&crash).len(), retired.len() + 1);
                    let recovered =
                        ShardedPasswordStore::open_durable(&crash, shards_after, options).unwrap();
                    prop_assert_eq!(recovered.records(), mirror.records());
                }
            }
            // Crash: dropped with whatever snapshots/segments exist.
        }
        let recovered =
            ShardedPasswordStore::open_durable(&dir, shards_after, options).unwrap();
        prop_assert_eq!(recovered.shard_count(), shards_after);
        prop_assert_eq!(recovered.records(), mirror.records());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&crash).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The group-commit path: arbitrary interleavings of deferred enrolls
    /// and logins, batched into groups that commit with one barrier per
    /// group — and a simulated crash (directory copy) at *every*
    /// group-commit boundary.  Recovery of each crash image must
    /// reproduce the in-memory mirror exactly: everything acknowledged
    /// (committed) survives, and nothing the barrier did not cover is
    /// required to.
    #[test]
    fn group_committed_recovery_matches_the_mirror_at_every_commit_boundary(
        groups in proptest::collection::vec(
            proptest::collection::vec((0usize..12usize, 0u32..2000u32, 0u8..2u8), 1..6),
            1..6,
        ),
        shards in 1usize..4usize,
    ) {
        let sys = system();
        let dir = temp_dir("group-prop");
        let scratch = temp_dir("group-prop-crash");
        let options = DurabilityOptions::default();
        let mirror = ShardedPasswordStore::new(shards);
        {
            let durable =
                ShardedPasswordStore::open_durable(&dir, shards, options).unwrap();
            for (boundary, group) in groups.iter().enumerate() {
                // Settle the group: enrolls stage deferred WAL appends
                // (no fsync yet), logins interleave freely as reads.
                let mut touched = Vec::new();
                for (user, seed, kind) in group {
                    let name = format!("user{user}");
                    if *kind == 0 {
                        let record = sys.enroll(&name, &clicks(*seed)).unwrap();
                        let a = durable.insert_new_deferred(record.clone());
                        let b = mirror.insert_new(record);
                        prop_assert_eq!(
                            a.is_ok(),
                            b.is_ok(),
                            "duplicate-enroll outcomes agree at boundary {}",
                            boundary
                        );
                        if let Ok(shard) = a {
                            touched.push(shard);
                        }
                    } else {
                        let _ = durable.verify(&sys, &name, &clicks(*seed));
                    }
                }
                // The single barrier that releases the group's EnrollOks.
                durable.commit_shards(touched).unwrap();

                // Crash exactly at this boundary: a recovered copy of the
                // state directory must equal the mirror.
                copy_dir(&dir, &scratch);
                let recovered =
                    ShardedPasswordStore::open_durable(&scratch, shards, options)
                        .unwrap_or_else(|e| {
                            panic!("recovery at group boundary {boundary} failed: {e}")
                        });
                prop_assert_eq!(
                    recovered.records(),
                    mirror.records(),
                    "crash at group-commit boundary {} recovers the acked state",
                    boundary
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
