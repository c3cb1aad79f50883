//! Integration tests for the runtime lock-order checker.
//!
//! The headline test acquires `wal.lock` and then `accounts.write` — the
//! inversion of the store's canonical `snap → accounts → wal` order — and
//! asserts lockdep panics on the spot in debug builds. The rest proves the
//! canonical chain stays silent, and that driving the *real* durable store
//! only ever records rank-increasing acquisition edges.

#[cfg(debug_assertions)]
use gp_geometry::Point;
#[cfg(debug_assertions)]
use gp_passwords::prelude::*;
#[cfg(debug_assertions)]
use gp_passwords::DurabilityOptions;
use gp_passwords::{LockClass, OrderedMutex, OrderedRwLock};
#[cfg(debug_assertions)]
use std::path::PathBuf;

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lock-order inversion")]
fn wal_then_accounts_inversion_panics() {
    let accounts = OrderedRwLock::new(LockClass::ACCOUNTS, ());
    let wal = OrderedMutex::new(LockClass::WAL, ());
    let _w = wal.lock();
    let _a = accounts.write(); // inverted: wal (rank 30) is still held
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lock-order inversion")]
fn same_class_nesting_panics() {
    // The discipline is *strictly* increasing ranks, so nesting two WAL
    // mutexes (e.g. two shards' WALs) is also rejected.
    let wal_a = OrderedMutex::new(LockClass::WAL, ());
    let wal_b = OrderedMutex::new(LockClass::WAL, ());
    let _a = wal_a.lock();
    let _b = wal_b.lock();
}

#[test]
fn canonical_snap_accounts_wal_chain_is_accepted() {
    let snap = OrderedMutex::new(LockClass::SNAP, 1u32);
    let accounts = OrderedRwLock::new(LockClass::ACCOUNTS, 2u32);
    let wal = OrderedMutex::new(LockClass::WAL, 3u32);
    let s = snap.lock();
    let a = accounts.read();
    let w = wal.lock();
    assert_eq!(*s + *a + *w, 6);
}

#[cfg(debug_assertions)]
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gp-lockdep-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drive the durable store through enroll / verify / snapshot / remove and
/// assert every acquisition edge lockdep observed goes strictly up the
/// canonical ranking. (An actual inversion would have panicked already —
/// this additionally pins down the edge *inventory* machinery.)
#[cfg(debug_assertions)]
#[test]
fn real_store_records_only_rank_increasing_edges() {
    let sys = GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::centered(6),
        2,
    );
    let clicks: Vec<Point> = (0..5)
        .map(|i| Point::new(40.0 + 70.0 * f64::from(i), 30.0 + 55.0 * f64::from(i)))
        .collect();
    let dir = temp_dir("edges");
    let store =
        gp_passwords::ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default())
            .unwrap();
    for i in 0..8 {
        store.enroll(&sys, &format!("user{i}"), &clicks).unwrap();
    }
    assert!(store.verify(&sys, "user3", &clicks).unwrap());
    store.snapshot_all().unwrap();
    store.remove("user5").unwrap();
    drop(store);

    let rank = |name: &str| match name {
        "snap" => LockClass::SNAP.rank,
        "accounts" => LockClass::ACCOUNTS.rank,
        "wal" => LockClass::WAL.rank,
        other => panic!("unexpected lock class `{other}` in edge graph"),
    };
    for ((held, acquired), (held_site, acquired_site)) in gp_passwords::lockdep::observed_edges() {
        assert!(
            rank(held) < rank(acquired),
            "edge `{held}` ({held_site}) -> `{acquired}` ({acquired_site}) is not rank-increasing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
