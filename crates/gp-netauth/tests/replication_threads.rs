//! A replication listener's thread count does not grow with its
//! connections.  The one test lives in its own binary, so no other
//! test's threads can move the process's count while it measures.
#![cfg(target_os = "linux")]

use gp_geometry::Point;
use gp_netauth::replication::{spawn_replication_listener, REPLICA_COMPUTE_THREADS};
use gp_netauth::{FrameReader, FrameWriter, ReplicaMessage};
use gp_passwords::prelude::*;
use gp_passwords::{ShardedPasswordStore, WalEntry};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const CONNECTIONS: usize = 64;

/// `Threads:` in `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

fn send(stream: &TcpStream, message: &ReplicaMessage) {
    FrameWriter::new(stream)
        .write_frame(&message.encode())
        .expect("send a frame");
}

fn receive(stream: &TcpStream) -> ReplicaMessage {
    let frame = FrameReader::new(stream).read_frame().expect("a reply");
    ReplicaMessage::decode(frame).expect("a replica message")
}

/// 64 greeted connections held open add no thread beyond the listener's
/// fixed event loop and compute threads, and the last one is still
/// served: a `Record` sent on it is applied and acked.
#[test]
fn replica_connections_get_no_thread_of_their_own() {
    let store = Arc::new(ShardedPasswordStore::new(2));
    let before = threads();
    let mut listener = spawn_replication_listener("backup", Arc::clone(&store)).unwrap();
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|i| {
            let stream = TcpStream::connect(listener.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let hello = ReplicaMessage::Hello {
                node_id: format!("peer-{i}"),
            };
            send(&stream, &hello);
            assert!(matches!(receive(&stream), ReplicaMessage::HelloOk { .. }));
            stream
        })
        .collect();

    let grown = threads().saturating_sub(before);
    let fixed = 1 + REPLICA_COMPUTE_THREADS;
    assert!(
        grown <= fixed,
        "{CONNECTIONS} replica connections grew the process by {grown} threads (fixed: {fixed})"
    );

    let sys = GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::centered(6),
        2,
    );
    let clicks: Vec<Point> = (0..5)
        .map(|i| Point::new(30.0 + 70.0 * f64::from(i), 20.0 + 55.0 * f64::from(i)))
        .collect();
    let record = sys.enroll("alice", &clicks).unwrap();
    let last = conns.last().unwrap();
    let payload = WalEntry::Enroll(record).to_payload();
    send(last, &ReplicaMessage::Record { seq: 1, payload });
    assert_eq!(receive(last), ReplicaMessage::Ack { seq: 1 });
    assert!(store.get("alice").is_some(), "the record was applied");

    drop(conns);
    listener.shutdown();
}
