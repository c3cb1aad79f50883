//! End-to-end crash-safety for the serving layer: enroll over real TCP,
//! crash the store, recover, and log in as every acknowledged account.
//!
//! The crash is simulated two ways:
//!
//! * [`ServerHandle::abort`] — serving threads stop and the process-local
//!   store is dropped with *no* final snapshot, so recovery has only what
//!   the durability invariant guarantees was written before each ack;
//! * a byte-for-byte copy of the durability directory taken *while* an
//!   enrollment stream is running — the on-disk state a `kill -9` at that
//!   instant would leave, torn WAL tail included.  Recovery from the copy
//!   must hold every account acked before the copy began.

use gp_geometry::Point;
use gp_netauth::{AuthClient, AuthServer, DurabilityConfig, LoginDecision, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn clicks(seed: usize) -> Vec<Point> {
    (0..5)
        .map(|i| {
            let x = 40.0 + ((seed * 37 + i * 83) % 360) as f64;
            let y = 30.0 + ((seed * 53 + i * 61) % 260) as f64;
            Point::new(x, y)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gp-netauth-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        durability: Some(DurabilityConfig::at(dir)),
        ..ServerConfig::fast_for_tests()
    }
}

/// The acceptance scenario: enroll over TCP (every ack follows an
/// fsync), crash the store (no orderly save), reload from disk, and log
/// in as every acknowledged account.
#[test]
fn acked_enrollments_survive_a_crash_and_log_in_after_recovery() {
    let dir = temp_dir("abort");
    let users = 24usize;
    {
        let handle = AuthServer::open(durable_config(&dir))
            .expect("open durable server")
            .spawn()
            .expect("spawn");
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        for user in 0..users {
            // `enroll` returns only once the server acked with EnrollOk —
            // by the durability invariant, the WAL record is fsynced.
            client
                .enroll(&format!("user{user}"), &clicks(user))
                .unwrap();
        }
        client.quit().unwrap();
        // Crash: threads stop, no final snapshot, memory is gone.
        handle.abort();
    }
    // Recovery: a fresh process-equivalent opens the same directory.
    let handle = AuthServer::open(durable_config(&dir))
        .expect("recover durable server")
        .spawn()
        .expect("respawn");
    let stats = handle
        .server()
        .store()
        .durability_stats()
        .expect("store is durable");
    assert_eq!(
        stats.replayed_records, users as u64,
        "every acked enrollment was in the WAL"
    );
    let mut client = AuthClient::connect(handle.addr()).expect("connect");
    for user in 0..users {
        let (decision, failures) = client.login(&format!("user{user}"), &clicks(user)).unwrap();
        assert_eq!(
            (decision, failures),
            (LoginDecision::Accepted, 0),
            "user{user} must log in after recovery"
        );
    }
    client.quit().unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copy the durability directory mid-enrollment-stream (the disk state a
/// `kill -9` would leave at an arbitrary instant, torn tail included) and
/// recover from the copy: every account acked before the copy began must
/// be present and verifiable.
#[test]
fn disk_state_captured_mid_stream_recovers_every_previously_acked_account() {
    let dir = temp_dir("mid-stream");
    let copy = temp_dir("mid-stream-copy");
    let handle = AuthServer::open(durable_config(&dir))
        .expect("open durable server")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    let acked = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let enroller = {
        let (acked, stop) = (Arc::clone(&acked), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut client = AuthClient::connect(addr).expect("connect");
            let mut user = 0usize;
            while !stop.load(Ordering::Relaxed) {
                client
                    .enroll(&format!("user{user}"), &clicks(user))
                    .unwrap();
                user += 1;
                acked.store(user, Ordering::SeqCst);
            }
            let _ = client.quit();
        })
    };
    // Let a prefix land, then photograph the disk while the stream runs.
    while acked.load(Ordering::SeqCst) < 8 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let acked_before_copy = acked.load(Ordering::SeqCst);
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    enroller.join().unwrap();
    handle.abort();

    // Recover from the mid-stream photograph.
    let recovered = AuthServer::open(durable_config(&copy)).expect("recover from mid-stream copy");
    let store = recovered.store();
    assert!(
        store.len() >= acked_before_copy,
        "all {acked_before_copy} accounts acked before the copy must survive, got {}",
        store.len()
    );
    let system = recovered.system().clone();
    for user in 0..acked_before_copy {
        assert!(
            store
                .verify(&system, &format!("user{user}"), &clicks(user))
                .unwrap(),
            "user{user} was acked before the copy and must verify"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

/// The background snapshot thread compacts WALs past the threshold while
/// the server keeps answering, and recovery still sees every account
/// (snapshot + tail, not WAL alone).
#[test]
fn background_snapshots_compact_under_load_without_losing_accounts() {
    let dir = temp_dir("compact");
    let users = 32usize;
    let config = ServerConfig {
        durability: Some(DurabilityConfig {
            // Tiny threshold + fast cadence: compaction must trigger
            // repeatedly during the enrollment stream.
            snapshot_threshold_bytes: 256,
            snapshot_interval: Duration::from_millis(10),
            ..DurabilityConfig::at(&dir)
        }),
        ..ServerConfig::fast_for_tests()
    };
    {
        let handle = AuthServer::open(config.clone())
            .expect("open")
            .spawn()
            .expect("spawn");
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        for user in 0..users {
            client
                .enroll(&format!("user{user}"), &clicks(user))
                .unwrap();
            // Give the compaction thread room to interleave.
            if user % 8 == 0 {
                std::thread::sleep(Duration::from_millis(15));
            }
        }
        // Logins keep flowing while compaction happens.
        for user in 0..users {
            let (decision, _) = client.login(&format!("user{user}"), &clicks(user)).unwrap();
            assert_eq!(decision, LoginDecision::Accepted);
        }
        client.quit().unwrap();
        let stats = handle.server().store().durability_stats().unwrap();
        assert!(
            stats.snapshots > 0,
            "the background thread must have compacted at least once: {stats:?}"
        );
        handle.abort();
    }
    let recovered = AuthServer::open(config).expect("recover");
    let stats = recovered.store().durability_stats().unwrap();
    assert!(
        stats.replayed_records < users as u64,
        "compaction must have moved records out of the WAL: {stats:?}"
    );
    assert_eq!(recovered.store().len(), users);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A graceful shutdown compacts everything into snapshots; the next open
/// replays nothing and still serves every account.
#[test]
fn graceful_shutdown_compacts_so_recovery_replays_nothing() {
    let dir = temp_dir("graceful");
    {
        let handle = AuthServer::open(durable_config(&dir))
            .expect("open")
            .spawn()
            .expect("spawn");
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        for user in 0..6 {
            client
                .enroll(&format!("user{user}"), &clicks(user))
                .unwrap();
        }
        client.quit().unwrap();
        handle.shutdown(); // graceful: final snapshot_all
    }
    let recovered = AuthServer::open(durable_config(&dir)).expect("reopen");
    let stats = recovered.store().durability_stats().unwrap();
    assert_eq!(stats.replayed_records, 0, "shutdown left empty WALs");
    assert_eq!(recovered.store().len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
