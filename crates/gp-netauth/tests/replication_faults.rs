//! Replication peers that misbehave at the socket level: a peer that
//! stops reading the range listings it asked for, a backup that accepts
//! but never acks, and a listener serving many short-lived connections.

use gp_geometry::Point;
use gp_netauth::replication::spawn_replication_listener;
use gp_netauth::{FrameWriter, ReplicaMessage, ReplicationSink, Replicator, ReplicatorConfig};
use gp_passwords::prelude::*;
use gp_passwords::{ShardedPasswordStore, WalEntry};
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

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

/// Bytes in flight on `stream`'s connection — both ends' send and
/// receive queues, as the kernel reports them in `/proc/net/tcp`.
/// Reading (or even peeking) the socket itself would let its receive
/// buffer grow and the sender make progress.
#[cfg(target_os = "linux")]
fn queued_bytes(stream: &TcpStream) -> u64 {
    let ends = [stream.local_addr().unwrap(), stream.peer_addr().unwrap()];
    let [a, b] = ends.map(|addr| format!(":{:04X}", addr.port()));
    let table = std::fs::read_to_string("/proc/net/tcp").expect("read /proc/net/tcp");
    table
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|f| {
            (f[1].ends_with(&a) && f[2].ends_with(&b)) || (f[1].ends_with(&b) && f[2].ends_with(&a))
        })
        .filter_map(|f| f[4].split_once(':'))
        .map(|(tx, rx)| u64::from_str_radix(tx, 16).unwrap() + u64::from_str_radix(rx, 16).unwrap())
        .sum()
}

/// Block until the listener's writes have stalled: over a megabyte sits
/// queued on the connection and the total has not moved for 2 s.  A
/// pause while the listener builds its next listing is far shorter, so
/// it does not pass for a stall.
#[cfg(target_os = "linux")]
fn wait_until_stalled(stream: &TcpStream) {
    let mut last = 0;
    let mut since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let queued = queued_bytes(stream);
        if queued != last {
            (last, since) = (queued, Instant::now());
        } else if queued > 1 << 20 && since.elapsed() >= Duration::from_secs(2) {
            return;
        }
    }
}

/// A peer that pipelines `RangeRequest`s and then never reads must not
/// wedge `ReplicationHandle::shutdown`: the listings (~12 MB, far more
/// than the socket buffers hold) fill the connection's write buffer, the
/// event loop stops reading it but never blocks on the write, and the
/// stall sweep closes it after 5 s without progress (`WRITE_TIMEOUT`).
#[cfg(target_os = "linux")]
#[test]
fn shutdown_is_not_wedged_by_a_joiner_that_stops_reading() {
    let sys = system();
    let store = Arc::new(ShardedPasswordStore::new(4));
    for i in 0..30_000u32 {
        let name = format!("{i:0>200}");
        let record = sys.enroll(&name, &clicks(i)).unwrap();
        store
            .apply_replicated(&WalEntry::Update(record).to_payload())
            .unwrap();
    }
    let mut listener = spawn_replication_listener("node-a", Arc::clone(&store)).unwrap();

    let stream = TcpStream::connect(listener.addr()).unwrap();
    let mut writer = FrameWriter::new(&stream);
    let hello = ReplicaMessage::Hello {
        node_id: "joiner".into(),
    };
    writer.write_frame(&hello.encode()).unwrap();
    // With two members each range lists about half of the records, some
    // 3 MB of 200-byte names: ask for both ranges, twice.
    let members: Vec<String> = vec!["node-a".into(), "joiner".into()];
    for _ in 0..2 {
        for (primary, backup) in [("node-a", "joiner"), ("joiner", "node-a")] {
            let request = ReplicaMessage::RangeRequest {
                primary: primary.into(),
                backup: backup.into(),
                members: members.clone(),
            };
            writer.write_frame(&request.encode()).unwrap();
        }
    }
    wait_until_stalled(&stream);

    let (done_tx, done_rx) = mpsc::channel();
    let shutter = std::thread::spawn(move || {
        listener.shutdown();
        let _ = done_tx.send(());
    });
    let bound = Duration::from_secs(15);
    assert!(
        done_rx.recv_timeout(bound).is_ok(),
        "shutdown still blocked after {bound:?} behind a joiner that stopped reading"
    );
    shutter.join().unwrap();
    assert_eq!(store.len(), 30_000);
    drop(stream);
}

/// Lines in this process's memory map: each unjoined exited thread keeps
/// its stack (and guard page) mapped.
#[cfg(target_os = "linux")]
fn maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Every anti-entropy round opens (and closes) one connection, so a
/// listener that left a thread behind per connection would grow the map
/// by ~2N lines over N rounds.  The replica event loop starts no thread
/// per connection.
#[cfg(target_os = "linux")]
#[test]
fn listener_reaps_exited_connection_threads() {
    const ROUNDS: usize = 500;
    let backup_store = Arc::new(ShardedPasswordStore::new(2));
    let mut listener = spawn_replication_listener("backup", Arc::clone(&backup_store)).unwrap();
    let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
    let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
    let primary_store = ShardedPasswordStore::new(2);
    replicator.anti_entropy_round(&primary_store);

    let before = maps_lines();
    for _ in 0..ROUNDS {
        let round = replicator.anti_entropy_round(&primary_store);
        assert!(round.failed_peers.is_empty(), "{round:?}");
    }
    let grown = maps_lines().saturating_sub(before);
    assert!(
        grown < ROUNDS / 2,
        "{ROUNDS} rounds grew the memory map by {grown} lines"
    );
    listener.shutdown();
}

/// A backup that accepts connections but never reads or acks: two
/// concurrent senders both return `Ok` (the entries fall back to
/// local-only), the peer is evicted, and the whole episode is bounded by
/// the ack timeout — each sender makes at most two attempts of one
/// `ack_timeout` each, taking turns on the peer.
#[test]
fn hung_backup_is_evicted_within_the_ack_timeout() {
    let sys = system();
    let hung = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = hung.local_addr().unwrap();
    hung.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match hung.accept() {
                    Ok((stream, _)) => held.push(stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };

    let ack_timeout = Duration::from_millis(200);
    let config = ReplicatorConfig {
        ack_timeout,
        ..ReplicatorConfig::default()
    };
    let peers = BTreeMap::from([("backup".to_string(), addr)]);
    let replicator = Arc::new(Replicator::new("primary", peers, config));
    let start = Arc::new(Barrier::new(2));
    let started = Instant::now();
    let senders: Vec<_> = (0..2u32)
        .map(|t| {
            let record = sys.enroll(&format!("user{t}"), &clicks(t)).unwrap();
            let replicator = Arc::clone(&replicator);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                replicator.replicate_group(&[WalEntry::Enroll(record)])
            })
        })
        .collect();
    for sender in senders {
        sender
            .join()
            .unwrap()
            .expect("a hung backup is evicted, not fatal");
    }
    let elapsed = started.elapsed();
    assert!(!replicator.is_live("backup"), "the hung backup is evicted");
    let bound = 4 * ack_timeout + Duration::from_secs(1);
    assert!(elapsed < bound, "took {elapsed:?}, bound {bound:?}");

    stop.store(true, Ordering::SeqCst);
    acceptor.join().unwrap();
}
