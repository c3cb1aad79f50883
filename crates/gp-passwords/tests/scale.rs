//! Store costs at 10^6 accounts: snapshot save, durable reopen, the
//! anti-entropy range scans and the WAL record size.  Reported, not gated.
//!
//! Ignored by default (it builds a million accounts and writes them to
//! disk); run it in release:
//!
//! ```text
//! cargo test --release -p gp-passwords --test scale -- --ignored --nocapture
//! ```

use gp_geometry::Point;
use gp_passwords::prelude::*;
use gp_passwords::{DurabilityOptions, HashRing, ShardedPasswordStore};
use std::time::Instant;

const ACCOUNTS: usize = 1_000_000;
const SHARDS: usize = 4;

/// The `i`th study-shaped account: five Centered clicks, the study policy,
/// a 21-byte salt and h^3000, with a distinct name and digest.  Cloned
/// from one enrolled template, so building a million costs no hashing.
fn account(template: &StoredPassword, i: usize) -> StoredPassword {
    let mut record = template.clone();
    record.username = format!("u{i:07}");
    record.hash.digest[..8].copy_from_slice(&(i as u64).to_le_bytes());
    record
}

fn seconds(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "builds 10^6 accounts on disk; run in release with --ignored"]
fn million_account_store_costs() {
    let system = GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::centered(9),
        3000,
    );
    let clicks: Vec<Point> = (0..5)
        .map(|i| Point::new(40.0 + 80.0 * i as f64, 30.0 + 60.0 * i as f64))
        .collect();
    let template = system.enroll("u0000000", &clicks).unwrap();
    let dir = std::env::temp_dir().join(format!("gp-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // WAL bytes per record, from a small durable store.
    let wal_dir = dir.join("wal");
    let sample = 1_000;
    let durable =
        ShardedPasswordStore::open_durable(&wal_dir, SHARDS, DurabilityOptions::default()).unwrap();
    let empty = durable.durability_stats().unwrap().wal_bytes;
    for i in 0..sample {
        durable.insert_new(account(&template, i)).unwrap();
    }
    let wal_bytes = durable.durability_stats().unwrap().wal_bytes - empty;
    drop(durable);

    let store = ShardedPasswordStore::new(SHARDS);
    let start = Instant::now();
    for i in 0..ACCOUNTS {
        store.insert_new(account(&template, i)).unwrap();
    }
    let build_s = seconds(start);

    let snap_dir = dir.join("snapshots");
    let start = Instant::now();
    store.save_to_dir(&snap_dir).unwrap();
    let save_s = seconds(start);
    drop(store);

    let start = Instant::now();
    let store = ShardedPasswordStore::open_durable(&snap_dir, SHARDS, DurabilityOptions::default())
        .unwrap();
    let open_s = seconds(start);
    assert_eq!(store.len(), ACCOUNTS);

    let ring = HashRing::with_nodes(["node-a", "node-b", "node-c"]);
    let pair = |name: &str| ring.replica_pair(name) == Some(("node-a", Some("node-b")));
    let start = Instant::now();
    let digest = store.range_digest(pair);
    let digest_s = seconds(start);
    let start = Instant::now();
    let entries = store.range_entries(pair);
    let entries_s = seconds(start);
    assert_eq!(entries.len() as u64, digest.count);
    let start = Instant::now();
    let all = store.range_digest(|_| true);
    let digest_all_s = seconds(start);
    assert_eq!(all.count, ACCOUNTS as u64);

    println!("scale: {ACCOUNTS} study-shaped accounts, {SHARDS} shards");
    println!("  build (insert_new)       {build_s:8.3} s");
    println!("  save_to_dir              {save_s:8.3} s");
    println!("  open_durable             {open_s:8.3} s");
    println!(
        "  range_digest  (a -> b)   {digest_s:8.3} s over {} accounts",
        digest.count
    );
    println!(
        "  range_entries (a -> b)   {entries_s:8.3} s over {} accounts",
        entries.len()
    );
    println!("  range_digest  (all)      {digest_all_s:8.3} s over {ACCOUNTS} accounts");
    println!(
        "  WAL bytes per record     {:8.1}",
        wal_bytes as f64 / sample as f64
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
