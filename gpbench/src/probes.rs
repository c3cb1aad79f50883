//! Per-layer probes: timed calls into each layer's public functions, on
//! fixtures of the benchmark's own, outside the serving path.  They run in
//! the traced run only, after the load has stopped.

use crate::gen::{Account, Generator, Rng};
use gp_crypto::{iterated_hash_many_salted, SaltedHasher};
use gp_netauth::replication::spawn_replication_listener;
use gp_netauth::{
    AuthClient, ClientMessage, ClusterClient, LockoutTracker, ReplicationSink, Replicator,
    ReplicatorConfig,
};
use gp_passwords::shard::DurabilityOptions;
use gp_passwords::{
    GraphicalPasswordSystem, ShardedPasswordStore, StoredPassword, VerifyScratch, WalEntry,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in `unit` seconds (1e3 = ms).
fn median_of(reps: usize, unit: f64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * unit
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median over `rounds` of the mean time per item of one pass over `n`
/// items, in ns.
fn per_item_ns(rounds: usize, n: usize, mut pass: impl FnMut()) -> f64 {
    median_of(rounds, 1e9, &mut pass) / n as f64
}

/// The fixtures every probe shares: the workload's seed accounts as
/// stored records (digest left unset: no probe verifies one) and login
/// attempts against them.
pub struct Fixture<'a> {
    pub system: &'a GraphicalPasswordSystem,
    pub gen: &'a Generator,
    pub accounts: &'a [Account],
    pub records: Vec<StoredPassword>,
    pub attempts: Vec<Vec<gp_geometry::Point>>,
    pub seed: u64,
}

impl<'a> Fixture<'a> {
    pub fn new(
        system: &'a GraphicalPasswordSystem,
        gen: &'a Generator,
        accounts: &'a [Account],
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed).fork(0x9E0B);
        let records = accounts
            .iter()
            .map(|a| {
                system
                    .prepare_enroll(&a.name, &a.clicks)
                    .expect("seed account is valid")
                    .0
            })
            .collect();
        let attempts = accounts
            .iter()
            .map(|a| gen.near_miss(&mut rng, a))
            .collect();
        Self {
            system,
            gen,
            accounts,
            records,
            attempts,
            seed,
        }
    }

    fn fresh_records(&self, tag: &str, n: usize) -> Vec<StoredPassword> {
        let mut rng = Rng::new(self.seed).fork(0xF8E5);
        (0..n)
            .map(|i| {
                let account = self
                    .gen
                    .account(&mut rng, format!("{tag}-s{}-n{i}", self.seed));
                self.system
                    .prepare_enroll(&account.name, &account.clicks)
                    .expect("fresh account is valid")
                    .0
            })
            .collect()
    }
}

/// Every probe, as `(metric, value)` in the order the report lists them.
pub fn run_all(fx: &Fixture, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = crate::host::off_main_thread(|| {
        let mut out = Vec::new();
        crypto(fx, &mut out);
        out
    });
    cpu_layers(fx, &mut out);
    out.push((
        "wal.group_commit_ms",
        wal_group_commit_ms(fx, &scratch.join("wal-probe")),
    ));
    let (ack, group4) = replication_ack_ms(fx, &scratch.join("repl-probe"));
    out.push(("replication.ack_ms", ack));
    out.push(("replication.group4_ack_ms", group4));
    out
}

/// `iterated_hash_many_salted` over 1, 4 and 16 login jobs, and over the
/// enroll-heavy mix of 4 fresh-enroll salts + 12 login salts.
fn crypto(fx: &Fixture, out: &mut Vec<(&'static str, f64)>) {
    let iterations = fx.system.iterations();
    let mut scratch = VerifyScratch::new();
    let logins: Vec<(SaltedHasher, Vec<u8>)> = fx
        .records
        .iter()
        .zip(&fx.attempts)
        .take(16)
        .map(|(r, clicks)| {
            let pre = fx
                .system
                .prepare_verify(r, clicks, &mut scratch)
                .expect("valid attempt")
                .expect("provenance");
            (SaltedHasher::new(&r.hash.salt), pre)
        })
        .collect();
    let fresh: Vec<(SaltedHasher, Vec<u8>)> = fx
        .fresh_records("hash", 4)
        .into_iter()
        .zip(&fx.accounts[..4])
        .map(|(r, a)| {
            let pre = fx
                .system
                .prepare_enroll(&r.username, &a.clicks)
                .expect("valid")
                .1;
            (SaltedHasher::new(&r.hash.salt), pre)
        })
        .collect();
    let time = |jobs: &[&(SaltedHasher, Vec<u8>)], reps: usize| {
        let hashers: Vec<&SaltedHasher> = jobs.iter().map(|j| &j.0).collect();
        let messages: Vec<&[u8]> = jobs.iter().map(|j| j.1.as_slice()).collect();
        median_of(reps, 1e3, || {
            black_box(iterated_hash_many_salted(
                black_box(&hashers),
                black_box(&messages),
                iterations,
            ));
        })
    };
    let login_jobs: Vec<&(SaltedHasher, Vec<u8>)> = logins.iter().collect();
    out.push(("crypto.hash1_ms", time(&login_jobs[..1], 61)));
    out.push(("crypto.hash4_ms", time(&login_jobs[..4], 41)));
    out.push(("crypto.hash16_ms", time(&login_jobs[..16], 21)));
    let mixed: Vec<&(SaltedHasher, Vec<u8>)> = fresh.iter().chain(&logins[..12]).collect();
    out.push(("crypto.hash16_mixed_ms", time(&mixed, 21)));
}

/// The cheap per-request layers: discretization, the password system's
/// prepare steps, the shard cache, the wire codec, lockout and routing.
fn cpu_layers(fx: &Fixture, out: &mut Vec<(&'static str, f64)>) {
    let n = fx.records.len();
    let scheme = fx.gen.scheme();
    let clicks = n * fx.records[0].clicks.len();
    out.push((
        "discretization.locate_ns",
        per_item_ns(9, clicks, || {
            for (r, attempt) in fx.records.iter().zip(&fx.attempts) {
                for (c, p) in r.clicks.iter().zip(attempt) {
                    black_box(scheme.try_locate(&c.grid_id, p).ok());
                }
            }
        }),
    ));
    let mut scratch = VerifyScratch::new();
    out.push((
        "passwords.prepare_verify_us",
        per_item_ns(9, n, || {
            for (r, attempt) in fx.records.iter().zip(&fx.attempts) {
                black_box(fx.system.prepare_verify(r, attempt, &mut scratch).ok());
            }
        }) / 1e3,
    ));
    out.push((
        "passwords.prepare_enroll_us",
        per_item_ns(9, n, || {
            for a in fx.accounts {
                black_box(fx.system.prepare_enroll(&a.name, &a.clicks).ok());
            }
        }) / 1e3,
    ));
    let store = ShardedPasswordStore::new(4);
    for r in &fx.records {
        store.insert_new(r.clone()).expect("distinct seed accounts");
    }
    out.push((
        "store.get_cached_ns",
        per_item_ns(9, n, || {
            for a in fx.accounts {
                black_box(store.get_cached(&a.name));
            }
        }),
    ));
    let messages: Vec<ClientMessage> = fx
        .accounts
        .iter()
        .zip(&fx.attempts)
        .map(|(a, clicks)| ClientMessage::Login {
            username: a.name.clone(),
            clicks: clicks.clone(),
        })
        .collect();
    out.push((
        "protocol.login_codec_ns",
        per_item_ns(9, n, || {
            for m in &messages {
                black_box(ClientMessage::decode(m.encode()).ok());
            }
        }),
    ));
    // The served lockout shape: 3 strikes, 65,536 tracked, 4 shards.  A
    // wrong guess then a correct login per account, as `login_open` sends.
    let lockout = LockoutTracker::with_limits(3, 65_536, 4);
    out.push((
        "lockout.settle_ns",
        per_item_ns(9, 2 * n, || {
            for a in fx.accounts {
                black_box(lockout.settle_attempt(&a.name, false));
                black_box(lockout.settle_attempt(&a.name, true));
            }
        }),
    ));
    let members: Vec<(String, SocketAddr)> = (0..3)
        .map(|i| (format!("node-{i}"), SocketAddr::from(([127, 0, 0, 1], 1))))
        .collect();
    let client = ClusterClient::new(&members);
    out.push((
        "cluster.route_ns",
        per_item_ns(9, n, || {
            for a in fx.accounts {
                black_box(client.route(&a.name));
            }
        }),
    ));
}

fn open_scratch_store(dir: &Path) -> ShardedPasswordStore {
    let _ = std::fs::remove_dir_all(dir);
    ShardedPasswordStore::open_durable(dir, 4, DurabilityOptions::default())
        .expect("open scratch durable store")
}

/// `insert_new_deferred` ×4 then `commit_shards` under `FsyncPolicy::Always`.
fn wal_group_commit_ms(fx: &Fixture, dir: &Path) -> f64 {
    let store = open_scratch_store(dir);
    let mut records = fx.fresh_records("wal", 4 * 31).into_iter();
    let ms = median_of(31, 1e3, || {
        let shards: Vec<usize> = records
            .by_ref()
            .take(4)
            .map(|r| store.insert_new_deferred(r).expect("fresh account"))
            .collect();
        store.commit_shards(shards).expect("group commit");
    });
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    ms
}

/// `Replicator::replicate` (one record) and `replicate_group` (4 records)
/// against a standalone replication listener over a durable `Always` store.
fn replication_ack_ms(fx: &Fixture, dir: &Path) -> (f64, f64) {
    let backup_store = Arc::new(open_scratch_store(dir));
    let mut listener = spawn_replication_listener("probe-backup", Arc::clone(&backup_store))
        .expect("replication listener");
    let peers = BTreeMap::from([("probe-backup".to_string(), listener.addr())]);
    let replicator = Replicator::new("probe-primary", peers, ReplicatorConfig::default());
    let mut records = fx
        .fresh_records("repl", 21 + 4 * 21 + 1)
        .into_iter()
        .map(WalEntry::Enroll);
    // Open the connection outside the timed calls.
    replicator
        .replicate(&records.next().expect("record"))
        .expect("replicate");
    let one = median_of(21, 1e3, || {
        replicator
            .replicate(&records.next().expect("record"))
            .expect("replicate");
    });
    let group = median_of(21, 1e3, || {
        let entries: Vec<WalEntry> = records.by_ref().take(4).collect();
        replicator
            .replicate_group(&entries)
            .expect("replicate group");
    });
    drop(replicator);
    listener.shutdown();
    drop(backup_store);
    let _ = std::fs::remove_dir_all(dir);
    (one, group)
}

/// Depth-1 `get_config` round trips against an idle server: framing and
/// the reactor, no hash and no store.
pub fn rtt_idle_us(addr: SocketAddr) -> f64 {
    let mut client = AuthClient::connect(addr).expect("connect for the idle round-trip probe");
    client.get_config().expect("get_config");
    let us = median_of(2_001, 1e6, || {
        client.get_config().expect("get_config");
    });
    let _ = client.quit();
    us
}

/// `snapshot_all` on a durable store, in ms (median of 3).
pub fn snapshot_ms(store: &ShardedPasswordStore) -> f64 {
    median_of(3, 1e3, || store.snapshot_all().expect("snapshot"))
}

/// `snapshot_all` on a scratch durable store holding `records`.
pub fn snapshot_scratch_ms(records: &[StoredPassword], dir: &Path) -> f64 {
    let store = open_scratch_store(dir);
    let shards: Vec<usize> = records
        .iter()
        .map(|r| {
            store
                .insert_new_deferred(r.clone())
                .expect("distinct accounts")
        })
        .collect();
    store.commit_shards(shards).expect("commit");
    let ms = snapshot_ms(&store);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    ms
}
