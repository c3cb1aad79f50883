//! WAL-streaming replication between cluster nodes.
//!
//! Each node runs a *replication listener* alongside its auth listener.
//! When a primary accepts an enrollment it appends the record to its own
//! WAL as usual, then streams the **same WAL payload bytes** (see
//! [`gp_passwords::WalEntry::to_payload`]) to the account's backup — the
//! key's second ring successor.  The backup appends the record to *its*
//! durable store (WAL-first, via
//! [`gp_passwords::ShardedPasswordStore::apply_replicated`]) before
//! acknowledging, so a synchronous-mode `EnrollOk` means the account is
//! durable on two nodes.  Applying is insert-or-replace, which makes
//! redelivery after a reconnect or a primary retry harmless.
//!
//! Wire format: the same length-prefixed, integrity-checked frames as the
//! client protocol ([`crate::framing`]), carrying [`ReplicaMessage`]s in
//! their own tag space:
//!
//! ```text
//! Hello          { node_id }                  sender introduces itself (once per conn)
//! HelloOk        { node_id }                  listener's reply
//! Record         { seq, payload }             one WAL entry, payload = WalEntry::to_payload
//! Ack            { seq }                      the record is durable on the replica
//! CatchupRequest { node_id, members }         stream me every record I back under `members`
//! CatchupDone    { count }                    end of a Record stream (catch-up or pull)
//! DigestRequest  { primary, backup, members } anti-entropy: digest your (primary→backup) range
//! DigestReply    { count, sum, xor }          the flat per-range digest
//! RangeRequest   { primary, backup, members } divergence found: list the range's records
//! RangeReply     { done, entries }            (username, record hash) pairs, chunked
//! PullRequest    { usernames }                stream me these records (repair / rejoin pull)
//! ```
//!
//! `seq` is assigned under the per-connection write lock, so records hit
//! the stream in sequence order and acks (which the listener sends in
//! processing order) advance a high-water mark: `acked >= seq` proves
//! *this* record was applied.
//!
//! Failure handling is crash-only: a send failure is retried once on a
//! fresh connection (transient drop), after which the peer is declared
//! dead and removed from the sender's ring — the next successor (or, with
//! no live peer left, local-only operation) takes over.  A dead peer that
//! restarts is re-admitted with [`Replicator::revive`].
//!
//! # Catch-up and anti-entropy
//!
//! Live streaming only covers *new* records, so two back-fill paths keep
//! replicas complete (see the README's replication section):
//!
//! * **Catch-up** ([`catch_up_from_peers`]) — a (re)joining node asks
//!   every live peer for a shard-consistent snapshot of the records it
//!   now backs.  Placement is a pure function of membership, so the
//!   request carries the member list and the serving peer reconstructs
//!   the same [`HashRing`] to filter its records.  Applying reuses
//!   [`ShardedPasswordStore::apply_replicated`] (WAL-first
//!   insert-or-replace), so an interrupted transfer replays idempotently
//!   on retry.
//! * **Anti-entropy** ([`Replicator::anti_entropy_round`], run
//!   periodically by [`spawn_anti_entropy`]) — for each live backup, the
//!   primary compares flat per-range digests
//!   ([`gp_passwords::RangeDigest`] over the keys whose replica pair is
//!   `(primary, backup)`); on divergence the sides exchange sorted
//!   `(username, record-hash)` lists and repair record-by-record: the
//!   primary pushes records the backup lacks and pulls records written
//!   while it was away.  Repair counters surface in
//!   [`ReplicationStats`].

use crate::acks::AckState;
use crate::error::NetAuthError;
use crate::framing::{FrameReader, FrameWriter};
use crate::protocol::MAX_USERNAME_LEN;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gp_passwords::wal::WalEntry;
use gp_passwords::{diff_range_entries, HashRing, RangeDigest, ShardedPasswordStore};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked replication I/O loops wake to poll the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

const TAG_HELLO: u8 = 0x41;
const TAG_HELLO_OK: u8 = 0x42;
const TAG_RECORD: u8 = 0x43;
const TAG_ACK: u8 = 0x44;
const TAG_CATCHUP_REQUEST: u8 = 0x45;
const TAG_CATCHUP_DONE: u8 = 0x46;
const TAG_DIGEST_REQUEST: u8 = 0x47;
const TAG_DIGEST_REPLY: u8 = 0x48;
const TAG_RANGE_REQUEST: u8 = 0x49;
const TAG_RANGE_REPLY: u8 = 0x4a;
const TAG_PULL_REQUEST: u8 = 0x4b;

/// Maximum entries in one list-carrying sync message (member lists, pull
/// requests, range-reply chunks).  Senders chunk at [`SYNC_CHUNK`]; the
/// decode bound is defensive headroom above it.
const MAX_SYNC_LIST: usize = 4096;

/// Entries per `RangeReply` / `PullRequest` chunk — keeps every sync
/// frame far under [`crate::framing::MAX_FRAME_LEN`] even with
/// maximum-length account names.
const SYNC_CHUNK: usize = 128;

/// Messages exchanged on a replication connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaMessage {
    /// The sender introduces itself (first frame on every connection).
    Hello {
        /// Sending node's ID.
        node_id: String,
    },
    /// The listener's handshake reply.
    HelloOk {
        /// Listening node's ID.
        node_id: String,
    },
    /// One WAL entry to apply.
    Record {
        /// Connection-scoped sequence number (monotone per sender).
        seq: u64,
        /// [`WalEntry::to_payload`] bytes — bit-identical to the bytes the
        /// primary appended to its own WAL.
        payload: Vec<u8>,
    },
    /// The record with this sequence number is durable on the replica.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// A (re)joining node asks the listener to stream every record the
    /// requester backs under the given membership (placement is a pure
    /// function of the member set, so both sides compute the same ranges).
    CatchupRequest {
        /// The joining node (the one that will hold the streamed records).
        node_id: String,
        /// Full cluster membership the ranges are computed under.
        members: Vec<String>,
    },
    /// Terminates a `Record` stream started by a `CatchupRequest` or a
    /// `PullRequest`: exactly `count` records were sent.
    CatchupDone {
        /// Records streamed before this marker.
        count: u64,
    },
    /// Anti-entropy: compute the flat digest of the listener's records in
    /// the `(primary → backup)` range under `members`.
    DigestRequest {
        /// The range's primary node.
        primary: String,
        /// The range's backup node (normally the listener itself).
        backup: String,
        /// Membership the range is computed under.
        members: Vec<String>,
    },
    /// The listener's [`gp_passwords::RangeDigest`] for the requested range.
    DigestReply {
        /// Number of records in the range.
        count: u64,
        /// Wrapping sum of the records' content hashes.
        sum: u64,
        /// Xor of the records' content hashes.
        xor: u64,
    },
    /// Divergence detected: list the `(username, record hash)` entries of
    /// the listener's copy of the range, so the requester can diff.
    RangeRequest {
        /// The range's primary node.
        primary: String,
        /// The range's backup node.
        backup: String,
        /// Membership the range is computed under.
        members: Vec<String>,
    },
    /// One chunk of a range listing; `done` marks the final chunk.
    RangeReply {
        /// Whether this is the last chunk of the listing.
        done: bool,
        /// `(username, record hash)` pairs, sorted by name across chunks.
        entries: Vec<(String, u64)>,
    },
    /// Ask the listener to stream its records for these accounts (repair
    /// pull).  Answered with `Record` frames then a `CatchupDone`.
    PullRequest {
        /// Account names to stream (absent accounts are skipped).
        usernames: Vec<String>,
    },
}

fn malformed(reason: &str) -> NetAuthError {
    NetAuthError::Malformed {
        reason: reason.to_string(),
    }
}

fn put_node_id(buf: &mut BytesMut, id: &str) {
    buf.put_u16(id.len() as u16);
    buf.put_slice(id.as_bytes());
}

fn get_node_id(buf: &mut Bytes) -> Result<String, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated node id length"));
    }
    // Node IDs and account names share the client protocol's username
    // bound, so every account a client can enroll can be listed and pulled.
    let len = buf.get_u16() as usize;
    if len > MAX_USERNAME_LEN {
        return Err(malformed("node id too long"));
    }
    if buf.remaining() < len {
        return Err(malformed("truncated node id"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8 in node id"))
}

fn put_str_list(buf: &mut BytesMut, items: &[String]) {
    buf.put_u16(items.len() as u16);
    for item in items {
        put_node_id(buf, item);
    }
}

fn get_str_list(buf: &mut Bytes) -> Result<Vec<String>, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated list length"));
    }
    let count = buf.get_u16() as usize;
    if count > MAX_SYNC_LIST {
        return Err(malformed("sync list too long"));
    }
    (0..count).map(|_| get_node_id(buf)).collect()
}

fn put_entries(buf: &mut BytesMut, entries: &[(String, u64)]) {
    buf.put_u16(entries.len() as u16);
    for (name, hash) in entries {
        put_node_id(buf, name);
        buf.put_u64(*hash);
    }
}

fn get_entries(buf: &mut Bytes) -> Result<Vec<(String, u64)>, NetAuthError> {
    if buf.remaining() < 2 {
        return Err(malformed("truncated entry list length"));
    }
    let count = buf.get_u16() as usize;
    if count > MAX_SYNC_LIST {
        return Err(malformed("entry list too long"));
    }
    (0..count)
        .map(|_| {
            let name = get_node_id(buf)?;
            if buf.remaining() < 8 {
                return Err(malformed("truncated entry hash"));
            }
            Ok((name, buf.get_u64()))
        })
        .collect()
}

impl ReplicaMessage {
    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ReplicaMessage::Hello { node_id } => {
                buf.put_u8(TAG_HELLO);
                put_node_id(&mut buf, node_id);
            }
            ReplicaMessage::HelloOk { node_id } => {
                buf.put_u8(TAG_HELLO_OK);
                put_node_id(&mut buf, node_id);
            }
            ReplicaMessage::Record { seq, payload } => {
                buf.put_u8(TAG_RECORD);
                buf.put_u64(*seq);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
            ReplicaMessage::Ack { seq } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64(*seq);
            }
            ReplicaMessage::CatchupRequest { node_id, members } => {
                buf.put_u8(TAG_CATCHUP_REQUEST);
                put_node_id(&mut buf, node_id);
                put_str_list(&mut buf, members);
            }
            ReplicaMessage::CatchupDone { count } => {
                buf.put_u8(TAG_CATCHUP_DONE);
                buf.put_u64(*count);
            }
            ReplicaMessage::DigestRequest {
                primary,
                backup,
                members,
            } => {
                buf.put_u8(TAG_DIGEST_REQUEST);
                put_node_id(&mut buf, primary);
                put_node_id(&mut buf, backup);
                put_str_list(&mut buf, members);
            }
            ReplicaMessage::DigestReply { count, sum, xor } => {
                buf.put_u8(TAG_DIGEST_REPLY);
                buf.put_u64(*count);
                buf.put_u64(*sum);
                buf.put_u64(*xor);
            }
            ReplicaMessage::RangeRequest {
                primary,
                backup,
                members,
            } => {
                buf.put_u8(TAG_RANGE_REQUEST);
                put_node_id(&mut buf, primary);
                put_node_id(&mut buf, backup);
                put_str_list(&mut buf, members);
            }
            ReplicaMessage::RangeReply { done, entries } => {
                buf.put_u8(TAG_RANGE_REPLY);
                buf.put_u8(u8::from(*done));
                put_entries(&mut buf, entries);
            }
            ReplicaMessage::PullRequest { usernames } => {
                buf.put_u8(TAG_PULL_REQUEST);
                put_str_list(&mut buf, usernames);
            }
        }
        buf.freeze()
    }

    /// Decode from bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self, NetAuthError> {
        if buf.is_empty() {
            return Err(malformed("empty replication message"));
        }
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_HELLO => ReplicaMessage::Hello {
                node_id: get_node_id(&mut buf)?,
            },
            TAG_HELLO_OK => ReplicaMessage::HelloOk {
                node_id: get_node_id(&mut buf)?,
            },
            TAG_RECORD => {
                if buf.remaining() < 12 {
                    return Err(malformed("truncated record header"));
                }
                let seq = buf.get_u64();
                let len = buf.get_u32() as usize;
                if buf.remaining() < len {
                    return Err(malformed("truncated record payload"));
                }
                let payload = buf.copy_to_bytes(len).to_vec();
                ReplicaMessage::Record { seq, payload }
            }
            TAG_ACK => {
                if buf.remaining() < 8 {
                    return Err(malformed("truncated ack"));
                }
                ReplicaMessage::Ack { seq: buf.get_u64() }
            }
            TAG_CATCHUP_REQUEST => ReplicaMessage::CatchupRequest {
                node_id: get_node_id(&mut buf)?,
                members: get_str_list(&mut buf)?,
            },
            TAG_CATCHUP_DONE => {
                if buf.remaining() < 8 {
                    return Err(malformed("truncated catch-up done"));
                }
                ReplicaMessage::CatchupDone {
                    count: buf.get_u64(),
                }
            }
            TAG_DIGEST_REQUEST => ReplicaMessage::DigestRequest {
                primary: get_node_id(&mut buf)?,
                backup: get_node_id(&mut buf)?,
                members: get_str_list(&mut buf)?,
            },
            TAG_DIGEST_REPLY => {
                if buf.remaining() < 24 {
                    return Err(malformed("truncated digest reply"));
                }
                ReplicaMessage::DigestReply {
                    count: buf.get_u64(),
                    sum: buf.get_u64(),
                    xor: buf.get_u64(),
                }
            }
            TAG_RANGE_REQUEST => ReplicaMessage::RangeRequest {
                primary: get_node_id(&mut buf)?,
                backup: get_node_id(&mut buf)?,
                members: get_str_list(&mut buf)?,
            },
            TAG_RANGE_REPLY => {
                if !buf.has_remaining() {
                    return Err(malformed("truncated range reply"));
                }
                let done = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(malformed("invalid range-reply done flag")),
                };
                ReplicaMessage::RangeReply {
                    done,
                    entries: get_entries(&mut buf)?,
                }
            }
            TAG_PULL_REQUEST => ReplicaMessage::PullRequest {
                usernames: get_str_list(&mut buf)?,
            },
            other => return Err(malformed(&format!("unknown replication tag {other:#04x}"))),
        };
        if buf.has_remaining() {
            return Err(malformed("trailing bytes after replication message"));
        }
        Ok(msg)
    }
}

/// When an enrollment is acknowledged to the client relative to
/// replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Wait for the backup's `Ack` before releasing `EnrollOk` — an acked
    /// enrollment is durable on two nodes and survives a primary kill.
    Sync,
    /// Release `EnrollOk` after the local WAL append; the record streams
    /// to the backup in the background.  Faster, but an enrollment acked
    /// in the window before the backup applies it is lost if the primary
    /// dies.
    Async,
}

/// Something a server can hand each locally-durable enrollment to for
/// replication before acknowledging the client.
pub trait ReplicationSink: Send + Sync + std::fmt::Debug {
    /// Replicate a whole group-commit batch; in synchronous mode, returns
    /// only once every entry's backup has acknowledged durability (or no
    /// live backup exists).  [`Replicator`] pipelines each backup's
    /// records and waits on a single ack high-water mark, so sync-mode
    /// backup acks join the group barrier instead of queueing behind it.
    fn replicate_group(&self, entries: &[WalEntry]) -> Result<(), NetAuthError>;

    /// Replicate one entry: a group of one.
    fn replicate(&self, entry: &WalEntry) -> Result<(), NetAuthError> {
        self.replicate_group(std::slice::from_ref(entry))
    }

    /// Replication and repair counters, if this sink tracks them.  The
    /// default (for test doubles) is `None`; [`Replicator`] returns its
    /// live [`ReplicationStats`].
    fn stats(&self) -> Option<ReplicationStats> {
        None
    }
}

// ---------------------------------------------------------------------------
// Listener (replica side)
// ---------------------------------------------------------------------------

/// Handle to a running replication listener.
///
/// The listener accepts connections from peer primaries and applies every
/// [`ReplicaMessage::Record`] to the node's own durable store before
/// acking.  Dropping the handle shuts the listener down.
#[derive(Debug)]
pub struct ReplicationHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_join: Option<std::thread::JoinHandle<()>>,
    applied: Arc<AtomicU64>,
    served: Arc<AtomicU64>,
}

impl ReplicationHandle {
    /// Address peers should stream records to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of records applied to the local store so far.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Number of records streamed *out* to catching-up or repairing peers
    /// (catch-up and pull requests).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stop accepting and applying.  Connection threads notice within one
    /// poll tick; records already applied stay durable (crash-only — there
    /// is no other stop path for the fault harness to diverge from).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ReplicationHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a replication listener on an ephemeral loopback port, applying
/// records to `store`.
pub fn spawn_replication_listener(
    node_id: &str,
    store: Arc<ShardedPasswordStore>,
) -> Result<ReplicationHandle, NetAuthError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let node_id = node_id.to_string();

    let accept_join = {
        let shutdown = Arc::clone(&shutdown);
        let applied = Arc::clone(&applied);
        let served = Arc::clone(&served);
        std::thread::Builder::new()
            .name(format!("repl-accept-{node_id}"))
            .spawn(move || {
                let mut conn_joins = Vec::new();
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let store = Arc::clone(&store);
                            let shutdown = Arc::clone(&shutdown);
                            let applied = Arc::clone(&applied);
                            let served = Arc::clone(&served);
                            let node_id = node_id.clone();
                            if let Ok(join) = std::thread::Builder::new()
                                .name(format!("repl-conn-{node_id}"))
                                .spawn(move || {
                                    serve_replica_conn(
                                        stream, &node_id, &store, &shutdown, &applied, &served,
                                    )
                                })
                            {
                                conn_joins.push(join);
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for join in conn_joins {
                    let _ = join.join();
                }
            })?
    };

    Ok(ReplicationHandle {
        addr,
        shutdown,
        accept_join: Some(accept_join),
        applied,
        served,
    })
}

/// The range predicate both sides of a digest exchange agree on: a key is
/// in the `(primary → backup)` range when those two nodes are exactly its
/// replica pair under the request's membership.
fn pair_range<'a>(
    ring: &'a HashRing,
    primary: &'a str,
    backup: &'a str,
) -> impl Fn(&str) -> bool + 'a {
    move |key: &str| ring.replica_pair(key) == Some((primary, Some(backup)))
}

/// One inbound replication connection: handshake, then apply-and-ack
/// records (and serve catch-up / anti-entropy requests) until the peer
/// hangs up or shutdown is requested.
fn serve_replica_conn(
    stream: TcpStream,
    node_id: &str,
    store: &ShardedPasswordStore,
    shutdown: &AtomicBool,
    applied: &AtomicU64,
    served: &AtomicU64,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(BufWriter::new(stream));

    let mut greeted = false;
    while !shutdown.load(Ordering::SeqCst) {
        let frame = match reader.read_frame() {
            Ok(frame) => frame,
            Err(NetAuthError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let message = match ReplicaMessage::decode(frame) {
            Ok(message) => message,
            Err(_) => return,
        };
        match message {
            ReplicaMessage::Hello { .. } if !greeted => {
                greeted = true;
                let reply = ReplicaMessage::HelloOk {
                    node_id: node_id.to_string(),
                };
                if writer.write_frame(&reply.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::Record { seq, payload } if greeted => {
                let Ok(entry) = WalEntry::from_payload(&payload) else {
                    return;
                };
                // Durable (WAL-first) apply *before* the ack leaves: an
                // acked record survives this node crashing right after.
                if store.apply_replicated(&entry).is_err() {
                    return;
                }
                applied.fetch_add(1, Ordering::Relaxed);
                if writer
                    .write_frame(&ReplicaMessage::Ack { seq }.encode())
                    .is_err()
                {
                    return;
                }
            }
            ReplicaMessage::CatchupRequest {
                node_id: joiner,
                members,
            } if greeted => {
                // Stream a shard-consistent snapshot of every record the
                // joiner backs under the requested membership.  A shutdown
                // mid-stream (the fault harness killing this node) drops
                // the connection with the stream half-sent — the joiner's
                // idempotent replay makes the retry safe.
                let ring = HashRing::with_nodes(&members);
                let records = store.records_in_range(|key| ring.holds(key, &joiner));
                let mut count = 0u64;
                for record in records {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    count += 1;
                    let message = ReplicaMessage::Record {
                        seq: count,
                        payload: WalEntry::Update(record).to_payload(),
                    };
                    if writer.write_frame_buffered(&message.encode()).is_err() {
                        return;
                    }
                }
                if writer
                    .write_frame(&ReplicaMessage::CatchupDone { count }.encode())
                    .is_err()
                {
                    return;
                }
                served.fetch_add(count, Ordering::Relaxed);
            }
            ReplicaMessage::DigestRequest {
                primary,
                backup,
                members,
            } if greeted => {
                let ring = HashRing::with_nodes(&members);
                let digest = store.range_digest(pair_range(&ring, &primary, &backup));
                let reply = ReplicaMessage::DigestReply {
                    count: digest.count,
                    sum: digest.sum,
                    xor: digest.xor,
                };
                if writer.write_frame(&reply.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::RangeRequest {
                primary,
                backup,
                members,
            } if greeted => {
                let ring = HashRing::with_nodes(&members);
                let entries = store.range_entries(pair_range(&ring, &primary, &backup));
                for chunk in entries.chunks(SYNC_CHUNK) {
                    let reply = ReplicaMessage::RangeReply {
                        done: false,
                        entries: chunk.to_vec(),
                    };
                    if writer.write_frame_buffered(&reply.encode()).is_err() {
                        return;
                    }
                }
                let last = ReplicaMessage::RangeReply {
                    done: true,
                    entries: Vec::new(),
                };
                if writer.write_frame(&last.encode()).is_err() {
                    return;
                }
            }
            ReplicaMessage::PullRequest { usernames } if greeted => {
                let mut count = 0u64;
                for name in &usernames {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // An absent account is skipped, not an error: the
                    // requester diffed against a snapshot and the record
                    // may have been removed since.
                    let Some(record) = store.get(name) else {
                        continue;
                    };
                    count += 1;
                    let message = ReplicaMessage::Record {
                        seq: count,
                        payload: WalEntry::Update(record).to_payload(),
                    };
                    if writer.write_frame_buffered(&message.encode()).is_err() {
                        return;
                    }
                }
                if writer
                    .write_frame(&ReplicaMessage::CatchupDone { count }.encode())
                    .is_err()
                {
                    return;
                }
                served.fetch_add(count, Ordering::Relaxed);
            }
            // Hello out of order, HelloOk/Ack from a sender, or a record
            // before the handshake: protocol violation, drop the conn.
            _ => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Replicator (primary side)
// ---------------------------------------------------------------------------

/// Tuning for a [`Replicator`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicatorConfig {
    /// Sync (ack-gated) or async (fire-and-forget) replication.
    pub mode: ReplicationMode,
    /// How long a synchronous send waits for the backup's ack before
    /// treating the attempt as failed.
    pub ack_timeout: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// How often the background anti-entropy thread
    /// ([`spawn_anti_entropy`]) runs a digest-exchange round against each
    /// live backup.  `Duration::ZERO` disables the thread (manual rounds
    /// via [`Replicator::anti_entropy_round`] still work).
    pub anti_entropy_interval: Duration,
}

impl Default for ReplicatorConfig {
    fn default() -> Self {
        Self {
            mode: ReplicationMode::Sync,
            ack_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            anti_entropy_interval: Duration::from_secs(1),
        }
    }
}

/// One live outbound connection to a peer's replication listener.
#[derive(Debug)]
struct PeerConn {
    /// Kept for [`TcpStream::shutdown`] on teardown (the writer owns a
    /// buffered clone of the same socket).
    stream: TcpStream,
    writer: FrameWriter<BufWriter<TcpStream>>,
    acks: Arc<AckState>,
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        // Wake the detached ack-reader thread so it exits promptly.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[derive(Debug)]
struct PeerState {
    /// Behind a lock so a restarted node's fresh ephemeral port can be
    /// installed ([`Replicator::update_peer`]) without rebuilding the map.
    addr: Mutex<SocketAddr>,
    conn: Mutex<Option<PeerConn>>,
}

/// Internal atomic counters behind [`ReplicationStats`].
#[derive(Debug, Default)]
struct SyncCounters {
    records_replicated: AtomicU64,
    anti_entropy_rounds: AtomicU64,
    ranges_checked: AtomicU64,
    ranges_divergent: AtomicU64,
    records_pushed: AtomicU64,
    records_pulled: AtomicU64,
    sync_failures: AtomicU64,
}

/// Snapshot of a [`Replicator`]'s replication and repair counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Records streamed to backups on the live (write-path) stream.
    pub records_replicated: u64,
    /// Completed anti-entropy rounds.
    pub anti_entropy_rounds: u64,
    /// Primary→backup ranges digest-checked across all rounds.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed (divergence detected).
    pub ranges_divergent: u64,
    /// Records pushed to backups during repair.
    pub records_pushed: u64,
    /// Records pulled from backups during repair.
    pub records_pulled: u64,
    /// Anti-entropy exchanges that failed on transport errors (the peer
    /// is skipped for the round, never evicted).
    pub sync_failures: u64,
}

/// The primary-side replication sender.
///
/// Owns a [`HashRing`] over the full cluster membership (itself included)
/// and, for each entry, streams the WAL payload to the entry's backup —
/// the first ring successor of the account that is not this node.  Peers
/// that fail a send twice are declared dead and leave the ring, shifting
/// subsequent traffic to the next successor.
#[derive(Debug)]
pub struct Replicator {
    node_id: String,
    config: ReplicatorConfig,
    ring: Mutex<HashRing>,
    peers: BTreeMap<String, PeerState>,
    next_seq: AtomicU64,
    counters: SyncCounters,
}

impl Replicator {
    /// A replicator for node `node_id` with the given peer replication
    /// addresses (`node_id` itself must not be in `peers`).
    pub fn new(
        node_id: &str,
        peers: BTreeMap<String, SocketAddr>,
        config: ReplicatorConfig,
    ) -> Self {
        let mut ring = HashRing::with_nodes(peers.keys());
        ring.join(node_id);
        Self {
            node_id: node_id.to_string(),
            config,
            ring: Mutex::new(ring),
            peers: peers
                .into_iter()
                .map(|(id, addr)| {
                    (
                        id,
                        PeerState {
                            addr: Mutex::new(addr),
                            conn: Mutex::new(None),
                        },
                    )
                })
                .collect(),
            next_seq: AtomicU64::new(0),
            counters: SyncCounters::default(),
        }
    }

    /// Snapshot of the replication and anti-entropy repair counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        ReplicationStats {
            records_replicated: self.counters.records_replicated.load(Ordering::Relaxed),
            anti_entropy_rounds: self.counters.anti_entropy_rounds.load(Ordering::Relaxed),
            ranges_checked: self.counters.ranges_checked.load(Ordering::Relaxed),
            ranges_divergent: self.counters.ranges_divergent.load(Ordering::Relaxed),
            records_pushed: self.counters.records_pushed.load(Ordering::Relaxed),
            records_pulled: self.counters.records_pulled.load(Ordering::Relaxed),
            sync_failures: self.counters.sync_failures.load(Ordering::Relaxed),
        }
    }

    /// This node's ID.
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// The configured replication mode.
    pub fn mode(&self) -> ReplicationMode {
        self.config.mode
    }

    /// Whether `node` is currently considered live.
    pub fn is_live(&self, node: &str) -> bool {
        self.ring.lock().contains(node)
    }

    /// Re-admit a previously dead peer (e.g. after an operator restarts
    /// it); the ring is deterministic, so its old key ranges come back.
    pub fn revive(&self, node: &str) -> bool {
        self.peers.contains_key(node) && self.ring.lock().join(node)
    }

    /// Point `node` at a new replication address (a restarted node binds a
    /// fresh ephemeral port) and re-admit it to the ring.  Returns whether
    /// the node was known.
    pub fn update_peer(&self, node: &str, addr: SocketAddr) -> bool {
        let Some(peer) = self.peers.get(node) else {
            return false;
        };
        *peer.addr.lock() = addr;
        *peer.conn.lock() = None;
        self.ring.lock().join(node);
        true
    }

    /// Drop every open outbound connection (fault-injection hook: the next
    /// send sees a cold connection, exactly as after a network blip).
    pub fn drop_connections(&self) {
        for peer in self.peers.values() {
            *peer.conn.lock() = None;
        }
    }

    /// Connect to `peer` and start its detached ack-reader thread.
    fn connect(&self, peer: &PeerState) -> Result<PeerConn, NetAuthError> {
        let addr = *peer.addr.lock();
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(SHUTDOWN_POLL))?;
        let acks = Arc::new(AckState::default());
        let write_half = stream.try_clone()?;
        let mut conn = PeerConn {
            stream,
            writer: FrameWriter::new(BufWriter::new(write_half)),
            acks: Arc::clone(&acks),
        };
        let hello = ReplicaMessage::Hello {
            node_id: self.node_id.clone(),
        };
        conn.writer.write_frame(&hello.encode())?;
        // The ack reader owns the read half until the socket dies; it is
        // detached — PeerConn::drop shuts the socket down to unpark it.
        let _ = std::thread::Builder::new()
            .name(format!("repl-acks-{}", self.node_id))
            .spawn(move || {
                let mut reader = FrameReader::new(BufReader::new(read_half));
                loop {
                    match reader.read_frame() {
                        Ok(frame) => match ReplicaMessage::decode(frame) {
                            Ok(ReplicaMessage::Ack { seq }) => acks.record(seq),
                            Ok(ReplicaMessage::HelloOk { .. }) => {}
                            _ => {
                                acks.mark_broken();
                                return;
                            }
                        },
                        Err(NetAuthError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => {
                            acks.mark_broken();
                            return;
                        }
                    }
                }
            });
        Ok(conn)
    }

    /// One grouped send attempt: pipeline every payload onto `peer`'s
    /// connection (opening it if needed) back-to-back, then — in sync mode
    /// — wait once for the *last* record's ack.  The listener acks in
    /// processing order, so `acked >= last seq` proves the whole group was
    /// applied; one ack-latency covers the batch.
    fn send_group_once(&self, peer: &PeerState, payloads: &[&[u8]]) -> Result<(), NetAuthError> {
        let (last_seq, acks) = {
            let mut guard = peer.conn.lock();
            if guard.is_none() {
                *guard = Some(self.connect(peer)?);
            }
            let Some(conn) = guard.as_mut() else {
                return Err(NetAuthError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "replication connection missing after connect",
                )));
            };
            // Seqs assigned under the write lock: stream order == seq
            // order, so `acked >= seq` proves this record was applied.
            let mut last_seq = 0;
            let mut failed = None;
            for payload in payloads {
                // AcqRel: the issued seq orders the ack protocol (the
                // waiter compares it against the reader thread's high-water
                // mark), so the RMW must not be reordered around the
                // frame write it numbers.
                let seq = self.next_seq.fetch_add(1, Ordering::AcqRel) + 1;
                let message = ReplicaMessage::Record {
                    seq,
                    payload: payload.to_vec(),
                };
                if let Err(e) = conn.writer.write_frame_buffered(&message.encode()) {
                    failed = Some(e);
                    break;
                }
                last_seq = seq;
            }
            if failed.is_none() {
                if let Err(e) = conn.writer.flush() {
                    failed = Some(e);
                }
            }
            if let Some(e) = failed {
                *guard = None;
                return Err(e);
            }
            (last_seq, Arc::clone(&conn.acks))
        };
        let result = match self.config.mode {
            ReplicationMode::Async => Ok(()),
            ReplicationMode::Sync => {
                let waited = acks.wait_for(last_seq, self.config.ack_timeout);
                if waited.is_err() {
                    // The connection is suspect; force a fresh one next time.
                    *peer.conn.lock() = None;
                }
                waited
            }
        };
        if result.is_ok() {
            self.counters
                .records_replicated
                .fetch_add(payloads.len() as u64, Ordering::Relaxed);
        }
        result
    }

    /// One anti-entropy round: for every live peer, digest-compare the
    /// `(self → peer)` range and repair any divergence record-by-record.
    ///
    /// The primary *pushes* records the backup lacks (or holds with
    /// different bytes — primary wins, it acked them) and *pulls* records
    /// only the backup holds (written while this node was away).  A peer
    /// that fails the exchange on a transport error is skipped for the
    /// round — never evicted: anti-entropy is a background repair, and
    /// eviction is the write path's crash-only detector.
    pub fn anti_entropy_round(&self, store: &ShardedPasswordStore) -> AntiEntropyRound {
        let (ring, members): (HashRing, Vec<String>) = {
            let ring = self.ring.lock();
            let members = ring.nodes().map(String::from).collect();
            (ring.clone(), members)
        };
        let mut round = AntiEntropyRound::default();
        for peer_id in &members {
            if *peer_id == self.node_id || !self.peers.contains_key(peer_id) {
                continue;
            }
            round.ranges_checked += 1;
            match self.sync_range_with(peer_id, &ring, &members, store) {
                Ok(None) => {}
                Ok(Some((pushed, pulled))) => {
                    round.ranges_divergent += 1;
                    round.records_pushed += pushed;
                    round.records_pulled += pulled;
                }
                Err(_) => {
                    round.failed_peers.push(peer_id.clone());
                    self.counters.sync_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters
            .anti_entropy_rounds
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .ranges_checked
            .fetch_add(round.ranges_checked, Ordering::Relaxed);
        self.counters
            .ranges_divergent
            .fetch_add(round.ranges_divergent, Ordering::Relaxed);
        self.counters
            .records_pushed
            .fetch_add(round.records_pushed, Ordering::Relaxed);
        self.counters
            .records_pulled
            .fetch_add(round.records_pulled, Ordering::Relaxed);
        round
    }

    /// Digest-compare the `(self → backup)` range with `backup` and repair
    /// a mismatch.  Returns `None` when the digests already agree, or the
    /// `(pushed, pulled)` record counts of the repair.
    fn sync_range_with(
        &self,
        backup: &str,
        ring: &HashRing,
        members: &[String],
        store: &ShardedPasswordStore,
    ) -> Result<Option<(u64, u64)>, NetAuthError> {
        let range = pair_range(ring, &self.node_id, backup);
        let local = store.range_digest(&range);
        let addr = *self.peers[backup].addr.lock();
        let mut conn = SyncConn::open(
            &self.node_id,
            addr,
            self.config.connect_timeout,
            self.config.ack_timeout,
        )?;
        conn.send(&ReplicaMessage::DigestRequest {
            primary: self.node_id.clone(),
            backup: backup.to_string(),
            members: members.to_vec(),
        })?;
        let remote = match conn.recv()? {
            ReplicaMessage::DigestReply { count, sum, xor } => RangeDigest { count, sum, xor },
            _ => return Err(malformed("expected digest reply")),
        };
        if remote == local {
            return Ok(None);
        }

        // Divergence: fetch the backup's record-level listing and diff.
        conn.send(&ReplicaMessage::RangeRequest {
            primary: self.node_id.clone(),
            backup: backup.to_string(),
            members: members.to_vec(),
        })?;
        let mut remote_entries: Vec<(String, u64)> = Vec::new();
        loop {
            match conn.recv()? {
                ReplicaMessage::RangeReply { done, entries } => {
                    remote_entries.extend(entries);
                    if done {
                        break;
                    }
                }
                _ => return Err(malformed("expected range reply")),
            }
        }
        let diff = diff_range_entries(&store.range_entries(&range), &remote_entries);

        // Push this side's copies; the listener acks each durable apply in
        // order, so waiting for the last ack covers the batch.
        let mut pushed = 0u64;
        for name in &diff.push {
            let Some(record) = store.get(name) else {
                continue;
            };
            pushed += 1;
            conn.send(&ReplicaMessage::Record {
                seq: pushed,
                payload: WalEntry::Update(record).to_payload(),
            })?;
        }
        for _ in 0..pushed {
            match conn.recv()? {
                ReplicaMessage::Ack { .. } => {}
                _ => return Err(malformed("expected repair ack")),
            }
        }

        // Pull records written while this node was away.
        let mut pulled = 0u64;
        for chunk in diff.pull.chunks(SYNC_CHUNK) {
            conn.send(&ReplicaMessage::PullRequest {
                usernames: chunk.to_vec(),
            })?;
            loop {
                match conn.recv()? {
                    ReplicaMessage::Record { payload, .. } => {
                        let entry = WalEntry::from_payload(&payload)
                            .map_err(|_| malformed("bad repair payload"))?;
                        store.apply_replicated(&entry).map_err(NetAuthError::from)?;
                        pulled += 1;
                    }
                    ReplicaMessage::CatchupDone { .. } => break,
                    _ => return Err(malformed("expected pulled record")),
                }
            }
        }
        Ok(Some((pushed, pulled)))
    }
}

// ---------------------------------------------------------------------------
// Synchronous sync connection (catch-up + anti-entropy client side)
// ---------------------------------------------------------------------------

/// A dedicated blocking request/response connection to a peer's
/// replication listener, used by catch-up and anti-entropy (the live
/// write path keeps its own pipelined [`PeerConn`]s with a detached ack
/// reader; sync traffic must not interleave with those acks).
struct SyncConn {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
    io_timeout: Duration,
}

impl SyncConn {
    /// Connect, handshake (`Hello` / `HelloOk`), and return the ready
    /// connection.
    fn open(
        self_id: &str,
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Result<Self, NetAuthError> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        // Short read timeout + deadline loop in `recv`: blocked reads stay
        // interruptible without a dedicated reader thread.
        stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
        let read_half = stream.try_clone()?;
        let mut conn = Self {
            reader: FrameReader::new(BufReader::new(read_half)),
            writer: FrameWriter::new(BufWriter::new(stream)),
            io_timeout,
        };
        conn.send(&ReplicaMessage::Hello {
            node_id: self_id.to_string(),
        })?;
        match conn.recv()? {
            ReplicaMessage::HelloOk { .. } => Ok(conn),
            _ => Err(malformed("expected sync handshake reply")),
        }
    }

    fn send(&mut self, message: &ReplicaMessage) -> Result<(), NetAuthError> {
        self.writer.write_frame(&message.encode())
    }

    /// Read the next message, polling across read-timeout ticks until
    /// `io_timeout` elapses.
    fn recv(&mut self) -> Result<ReplicaMessage, NetAuthError> {
        let deadline = Instant::now() + self.io_timeout;
        loop {
            match self.reader.read_frame() {
                Ok(frame) => return ReplicaMessage::decode(frame),
                Err(NetAuthError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(NetAuthError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for sync reply",
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Catch-up (joiner side)
// ---------------------------------------------------------------------------

/// Tuning (and fault hooks) for [`catch_up_from_peers`].
#[derive(Debug, Clone, Copy)]
pub struct CatchupOptions {
    /// Per-peer TCP connect timeout.
    pub connect_timeout: Duration,
    /// How long to wait for each streamed frame before giving up on the
    /// peer.
    pub io_timeout: Duration,
    /// Fault-injection hook: abort the whole catch-up (dropping the
    /// connection, no retry) after applying this many records, simulating
    /// the joiner crashing mid-transfer.  `None` in production.
    pub abort_after_records: Option<u64>,
}

impl Default for CatchupOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            abort_after_records: None,
        }
    }
}

/// Outcome of catching up from one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerCatchup {
    /// The serving peer.
    pub node_id: String,
    /// Records applied from this peer's stream (counts partial streams).
    pub records: u64,
    /// Whether the peer's `CatchupDone` arrived and matched — only then
    /// is the range this peer covers considered caught-up.
    pub completed: bool,
}

/// Outcome of a full catch-up pass ([`catch_up_from_peers`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchupReport {
    /// Per-peer outcomes, in peer order.
    pub peers: Vec<PeerCatchup>,
}

impl CatchupReport {
    /// Whether every peer's stream completed — the joiner's backed ranges
    /// are provably complete up to the snapshot points.
    pub fn completed(&self) -> bool {
        self.peers.iter().all(|p| p.completed)
    }

    /// Total records applied across all peers (including partial streams).
    pub fn records_applied(&self) -> u64 {
        self.peers.iter().map(|p| p.records).sum()
    }
}

/// One catch-up attempt against one peer: request the stream, apply every
/// record durably, verify the final count.
fn catch_up_from_peer(
    node_id: &str,
    members: &[String],
    peer_id: &str,
    addr: SocketAddr,
    store: &ShardedPasswordStore,
    options: &CatchupOptions,
) -> Result<PeerCatchup, NetAuthError> {
    let mut conn = SyncConn::open(node_id, addr, options.connect_timeout, options.io_timeout)?;
    conn.send(&ReplicaMessage::CatchupRequest {
        node_id: node_id.to_string(),
        members: members.to_vec(),
    })?;
    let mut applied = 0u64;
    loop {
        match conn.recv()? {
            ReplicaMessage::Record { payload, .. } => {
                let entry = WalEntry::from_payload(&payload)
                    .map_err(|_| malformed("bad catch-up payload"))?;
                // Durable, idempotent apply: a crash (or the abort hook)
                // right after leaves a prefix that replays harmlessly.
                store.apply_replicated(&entry).map_err(NetAuthError::from)?;
                applied += 1;
                if options
                    .abort_after_records
                    .is_some_and(|cap| applied >= cap)
                {
                    return Ok(PeerCatchup {
                        node_id: peer_id.to_string(),
                        records: applied,
                        completed: false,
                    });
                }
            }
            ReplicaMessage::CatchupDone { count } => {
                if count != applied {
                    return Err(malformed("catch-up stream count mismatch"));
                }
                return Ok(PeerCatchup {
                    node_id: peer_id.to_string(),
                    records: applied,
                    completed: true,
                });
            }
            _ => return Err(malformed("unexpected frame in catch-up stream")),
        }
    }
}

/// Catch a (re)joining node up from its live peers.
///
/// For every peer in `peers`, request a snapshot stream of the records
/// `node_id` backs under `members` and apply each durably via
/// [`ShardedPasswordStore::apply_replicated`].  Streams overlap (several
/// peers hold copies of the same range) and redelivery is insert-or-
/// replace, so double-applies are harmless.  A peer that fails is retried
/// once on a fresh connection; a second failure marks that peer's
/// [`PeerCatchup::completed`] `false` — the caller decides whether to
/// admit anyway (availability) or keep the traffic gate closed.
///
/// When [`CatchupOptions::abort_after_records`] is set the abort is
/// honored on the first attempt with no retry, so the fault harness can
/// observe the interrupted state deterministically.
pub fn catch_up_from_peers(
    node_id: &str,
    members: &[String],
    peers: &BTreeMap<String, SocketAddr>,
    store: &ShardedPasswordStore,
    options: &CatchupOptions,
) -> CatchupReport {
    let mut report = CatchupReport::default();
    for (peer_id, addr) in peers {
        if peer_id == node_id {
            continue;
        }
        let attempts = if options.abort_after_records.is_some() {
            1
        } else {
            2
        };
        let mut outcome = PeerCatchup {
            node_id: peer_id.clone(),
            records: 0,
            completed: false,
        };
        for _ in 0..attempts {
            match catch_up_from_peer(node_id, members, peer_id, *addr, store, options) {
                Ok(peer_outcome) => {
                    outcome.records += peer_outcome.records;
                    outcome.completed = peer_outcome.completed;
                    break;
                }
                Err(_) => {
                    // Partial stream already applied durably; the retry
                    // replays it idempotently from the top.
                }
            }
        }
        report.peers.push(outcome);
    }
    report
}

// ---------------------------------------------------------------------------
// Anti-entropy (background repair)
// ---------------------------------------------------------------------------

/// Outcome of one [`Replicator::anti_entropy_round`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntiEntropyRound {
    /// Primary→backup ranges digest-checked this round.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed.
    pub ranges_divergent: u64,
    /// Records pushed to backups during repair.
    pub records_pushed: u64,
    /// Records pulled from backups during repair.
    pub records_pulled: u64,
    /// Peers skipped on transport errors (not evicted).
    pub failed_peers: Vec<String>,
}

/// Handle to a background anti-entropy thread ([`spawn_anti_entropy`]).
/// Dropping the handle stops the thread.
#[derive(Debug)]
pub struct AntiEntropyHandle {
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl AntiEntropyHandle {
    /// Stop the thread; returns once it has exited (within one poll tick).
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for AntiEntropyHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run [`Replicator::anti_entropy_round`] against `store` every
/// `interval` on a background thread, until the handle is shut down.
pub fn spawn_anti_entropy(
    replicator: Arc<Replicator>,
    store: Arc<ShardedPasswordStore>,
    interval: Duration,
) -> AntiEntropyHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let join = {
        let shutdown = Arc::clone(&shutdown);
        let name = format!("anti-entropy-{}", replicator.node_id());
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut next = Instant::now() + interval;
                while !shutdown.load(Ordering::SeqCst) {
                    if Instant::now() >= next {
                        let _ = replicator.anti_entropy_round(&store);
                        next = Instant::now() + interval;
                    }
                    std::thread::sleep(SHUTDOWN_POLL.min(interval));
                }
            })
            .ok()
    };
    AntiEntropyHandle { shutdown, join }
}

impl ReplicationSink for Replicator {
    /// Route every entry to its backup (the first ring successor that is
    /// not this node), pipeline each backup's records on one connection,
    /// and (in sync mode) wait for one ack high-water mark per backup
    /// instead of one round-trip per entry.  A failed send is retried once
    /// on a fresh connection — a listener restart or a dropped socket looks
    /// identical to a dead peer on the first failed write.  A target that
    /// fails twice is evicted from the ring, and its entries are re-routed
    /// to the next successor on the following pass.  With no live peer
    /// left an entry is accepted locally (single-survivor operation) — the
    /// alternative is refusing all writes, which the crash-only design
    /// rejects.
    fn replicate_group(&self, entries: &[WalEntry]) -> Result<(), NetAuthError> {
        let payloads: Vec<Vec<u8>> = entries.iter().map(WalEntry::to_payload).collect();
        let mut pending: Vec<usize> = (0..entries.len()).collect();
        while !pending.is_empty() {
            // Re-resolve each entry's backup per pass: an eviction below
            // shifts its keys to the next successor.
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            {
                let ring = self.ring.lock();
                let n = ring.node_count();
                for &i in &pending {
                    let target = ring
                        .successors(entries[i].username(), n)
                        .into_iter()
                        .find(|node| *node != self.node_id)
                        .map(String::from);
                    if let Some(target) = target {
                        groups.entry(target).or_default().push(i);
                    }
                    // No live peer: accepted locally (single-survivor
                    // operation), nothing to send.
                }
            }
            if groups.is_empty() {
                return Ok(());
            }
            let mut still_pending = Vec::new();
            for (target, indices) in groups {
                let Some(peer) = self.peers.get(&target) else {
                    // A ring member without a peer entry can only come
                    // from a stale ring view: evict it and re-route these
                    // entries on the next pass rather than bringing the
                    // commit path down.
                    self.ring.lock().leave(&target);
                    still_pending.extend(indices);
                    continue;
                };
                let batch: Vec<&[u8]> = indices.iter().map(|&i| payloads[i].as_slice()).collect();
                if self.send_group_once(peer, &batch).is_ok() {
                    continue;
                }
                *peer.conn.lock() = None;
                if self.send_group_once(peer, &batch).is_ok() {
                    continue;
                }
                self.ring.lock().leave(&target);
                still_pending.extend(indices);
            }
            pending = still_pending;
        }
        Ok(())
    }

    fn stats(&self) -> Option<ReplicationStats> {
        Some(self.replication_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_geometry::Point;
    use gp_passwords::prelude::*;
    use gp_passwords::DurabilityOptions;

    fn messages() -> Vec<ReplicaMessage> {
        vec![
            ReplicaMessage::Hello {
                node_id: "node-0".into(),
            },
            ReplicaMessage::HelloOk {
                node_id: "node-1".into(),
            },
            ReplicaMessage::Record {
                seq: 42,
                payload: vec![1, 2, 3, 4],
            },
            ReplicaMessage::Record {
                seq: u64::MAX,
                payload: vec![],
            },
            ReplicaMessage::Ack { seq: 7 },
            ReplicaMessage::CatchupRequest {
                node_id: "node-2".into(),
                members: vec!["node-0".into(), "node-1".into(), "node-2".into()],
            },
            ReplicaMessage::CatchupDone { count: 99 },
            ReplicaMessage::DigestRequest {
                primary: "node-0".into(),
                backup: "node-1".into(),
                members: vec!["node-0".into(), "node-1".into()],
            },
            ReplicaMessage::DigestReply {
                count: 3,
                sum: u64::MAX,
                xor: 0x1234_5678_9abc_def0,
            },
            ReplicaMessage::RangeRequest {
                primary: "node-1".into(),
                backup: "node-0".into(),
                members: vec!["node-0".into(), "node-1".into()],
            },
            ReplicaMessage::RangeReply {
                done: false,
                entries: vec![("alice".into(), 1), ("bob".into(), u64::MAX)],
            },
            ReplicaMessage::RangeReply {
                done: true,
                entries: vec![],
            },
            ReplicaMessage::PullRequest {
                usernames: vec!["alice".into(), "bob".into()],
            },
            // The longest name a client can enroll must list and pull.
            ReplicaMessage::RangeReply {
                done: true,
                entries: vec![("u".repeat(MAX_USERNAME_LEN), 7)],
            },
            ReplicaMessage::PullRequest {
                usernames: vec!["u".repeat(MAX_USERNAME_LEN)],
            },
        ]
    }

    #[test]
    fn replica_messages_round_trip() {
        for m in messages() {
            let decoded = ReplicaMessage::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn truncated_and_unknown_replica_messages_rejected() {
        assert!(ReplicaMessage::decode(Bytes::new()).is_err());
        assert!(ReplicaMessage::decode(Bytes::from_static(&[0x7f])).is_err());
        for m in messages() {
            let full = m.encode();
            for len in 0..full.len() {
                assert!(
                    ReplicaMessage::decode(full.slice(0..len)).is_err(),
                    "prefix of {len} bytes of {m:?}"
                );
            }
            let mut trailing = full.to_vec();
            trailing.push(0xff);
            assert!(ReplicaMessage::decode(Bytes::from(trailing)).is_err());
        }
    }

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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gp-replication-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// End-to-end over loopback: a replicator streams enrollments to a
    /// listener backed by a durable store; after a simulated backup crash
    /// (listener handle dropped) the store recovers every acked record.
    #[test]
    fn sync_replication_is_durable_on_the_replica() {
        let sys = system();
        let dir = temp_dir("sync");
        let store = Arc::new(
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap(),
        );
        let mut listener = spawn_replication_listener("backup", Arc::clone(&store)).unwrap();

        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        for i in 0..8u32 {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        }
        assert_eq!(listener.applied(), 8);
        // Redelivery is harmless (insert-or-replace).
        let record = sys.enroll("user0", &clicks(0)).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        assert_eq!(store.len(), 8);

        listener.shutdown();
        drop(store);
        let recovered =
            ShardedPasswordStore::open_durable(&dir, 2, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.len(), 8);
        for i in 0..8u32 {
            assert!(recovered
                .verify(&sys, &format!("user{i}"), &clicks(i))
                .unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dead backup (nothing listening) must not wedge the primary: the
    /// peer is declared dead after the retry and the entry is accepted
    /// locally (no other member on the ring).
    #[test]
    fn dead_backup_is_evicted_and_the_primary_keeps_serving() {
        let sys = system();
        // Grab a port that is then closed again: connection refused.
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let peers = BTreeMap::from([("backup".to_string(), dead_addr)]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        assert!(replicator.is_live("backup"));
        let record = sys.enroll("alice", &clicks(1)).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        assert!(!replicator.is_live("backup"), "two failures evict the peer");
        // Revive readmits it (and the next send would reconnect).
        assert!(replicator.revive("backup"));
        assert!(replicator.is_live("backup"));
        assert!(!replicator.revive("unknown"), "unknown nodes stay out");
    }

    /// Dropping the outbound connection mid-stream is transparent: the
    /// next replicate() reconnects and the record still lands.
    #[test]
    fn connection_drop_is_retried_transparently() {
        let sys = system();
        let store = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("backup", Arc::clone(&store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());

        let record = sys.enroll("alice", &clicks(1)).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        replicator.drop_connections();
        let record = sys.enroll("bob", &clicks(2)).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        assert!(replicator.is_live("backup"), "a drop is not a death");
        assert_eq!(store.len(), 2);
        listener.shutdown();
    }

    /// Catch-up streams exactly the records the joiner backs under the
    /// requested membership, and completes with a verified count.
    #[test]
    fn catch_up_streams_the_joiners_ranges() {
        let sys = system();
        let members: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let peer_store = Arc::new(ShardedPasswordStore::new(2));
        for i in 0..32u32 {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            peer_store
                .apply_replicated(&WalEntry::Update(record))
                .unwrap();
        }
        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();

        let joiner_store = ShardedPasswordStore::new(2);
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let report = catch_up_from_peers(
            "node-b",
            &members,
            &peers,
            &joiner_store,
            &CatchupOptions::default(),
        );
        assert!(report.completed());

        // With two members every key's replica pair is (owner, other), so
        // node-b backs everything: the full store must have streamed over.
        assert_eq!(report.records_applied(), 32);
        assert_eq!(joiner_store.len(), 32);
        assert_eq!(listener.served(), 32);
        for i in 0..32u32 {
            assert!(joiner_store
                .verify(&sys, &format!("user{i}"), &clicks(i))
                .unwrap());
        }
        listener.shutdown();
    }

    /// The abort hook leaves a consistent prefix; the retry replays the
    /// stream idempotently and completes.
    #[test]
    fn interrupted_catch_up_replays_idempotently() {
        let sys = system();
        let members: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let peer_store = Arc::new(ShardedPasswordStore::new(2));
        for i in 0..16u32 {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            peer_store
                .apply_replicated(&WalEntry::Update(record))
                .unwrap();
        }
        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let joiner_store = ShardedPasswordStore::new(2);

        let aborted = catch_up_from_peers(
            "node-b",
            &members,
            &peers,
            &joiner_store,
            &CatchupOptions {
                abort_after_records: Some(5),
                ..CatchupOptions::default()
            },
        );
        assert!(!aborted.completed(), "an aborted stream is not caught-up");
        assert_eq!(aborted.records_applied(), 5);
        assert_eq!(joiner_store.len(), 5, "prefix applied, nothing torn");

        let retried = catch_up_from_peers(
            "node-b",
            &members,
            &peers,
            &joiner_store,
            &CatchupOptions::default(),
        );
        assert!(retried.completed());
        assert_eq!(joiner_store.len(), 16, "replay converges to the full set");
        listener.shutdown();
    }

    /// A peer with nothing listening yields an incomplete (not panicking,
    /// not half-counted) report.
    #[test]
    fn catch_up_from_a_dead_peer_reports_incomplete() {
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let members: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let peers = BTreeMap::from([("node-a".to_string(), dead_addr)]);
        let store = ShardedPasswordStore::new(2);
        let report = catch_up_from_peers(
            "node-b",
            &members,
            &peers,
            &store,
            &CatchupOptions::default(),
        );
        assert!(!report.completed());
        assert_eq!(report.records_applied(), 0);
        assert_eq!(report.peers.len(), 1);
    }

    /// One anti-entropy round repairs divergence in both directions: the
    /// primary pushes records the backup lost and pulls records written
    /// while the primary was away.
    #[test]
    fn anti_entropy_round_repairs_divergence_both_ways() {
        let sys = system();
        let primary_store = Arc::new(ShardedPasswordStore::new(2));
        let backup_store = Arc::new(ShardedPasswordStore::new(2));
        // The primary's round checks only the range it *owns* (each node
        // repairs its own ranges; the peer's round covers the reverse
        // direction), so pick usernames deterministically owned by it.
        let ring = HashRing::with_nodes(["primary", "backup"]);
        let mine: Vec<String> = (0..64u32)
            .map(|i| format!("user{i}"))
            .filter(|name| ring.owner(name) == Some("primary"))
            .take(13)
            .collect();
        assert_eq!(mine.len(), 13, "64 candidates must yield 13 owned names");
        // Shared base: both sides hold it.
        for (i, name) in mine.iter().take(12).enumerate() {
            let record = sys.enroll(name, &clicks(i as u32)).unwrap();
            primary_store
                .apply_replicated(&WalEntry::Update(record.clone()))
                .unwrap();
            backup_store
                .apply_replicated(&WalEntry::Update(record))
                .unwrap();
        }
        // Divergence: the backup lost one record, and holds one record
        // the primary never saw (written while the primary was away).
        let lost = &mine[2];
        let late = &mine[12];
        assert!(backup_store.remove(lost).unwrap(), "record was present");
        let unseen = sys.enroll(late, &clicks(77)).unwrap();
        backup_store
            .apply_replicated(&WalEntry::Update(unseen))
            .unwrap();

        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup_store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());

        let round = replicator.anti_entropy_round(&primary_store);
        assert_eq!(round.ranges_checked, 1);
        assert_eq!(round.ranges_divergent, 1);
        assert!(round.failed_peers.is_empty());
        assert!(round.records_pushed >= 1, "the lost record must be pushed");
        assert!(round.records_pulled >= 1, "the late record must be pulled");

        // Both sides now agree record-for-record.
        assert!(backup_store.get(lost).is_some());
        assert!(primary_store.get(late).is_some());
        assert_eq!(
            primary_store.range_digest(|_| true),
            backup_store.range_digest(|_| true)
        );

        // A second round finds nothing to do.
        let quiet = replicator.anti_entropy_round(&primary_store);
        assert_eq!(quiet.ranges_divergent, 0);
        let stats = replicator.replication_stats();
        assert_eq!(stats.anti_entropy_rounds, 2);
        assert_eq!(stats.ranges_checked, 2);
        assert_eq!(stats.ranges_divergent, 1);
        assert_eq!(stats.sync_failures, 0);
        listener.shutdown();
    }

    /// Anti-entropy against an unreachable peer skips it (sync_failures)
    /// without evicting it from the ring.
    #[test]
    fn anti_entropy_skips_unreachable_peers_without_eviction() {
        let dead_addr = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let peers = BTreeMap::from([("backup".to_string(), dead_addr)]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        let store = ShardedPasswordStore::new(2);
        let round = replicator.anti_entropy_round(&store);
        assert_eq!(round.failed_peers, vec!["backup".to_string()]);
        assert!(
            replicator.is_live("backup"),
            "anti-entropy must never evict"
        );
        assert_eq!(replicator.replication_stats().sync_failures, 1);
    }

    /// The background thread runs rounds on its own and stops cleanly.
    #[test]
    fn spawned_anti_entropy_thread_runs_and_shuts_down() {
        let backup_store = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup_store)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Arc::new(Replicator::new(
            "primary",
            peers,
            ReplicatorConfig::default(),
        ));
        let primary_store = Arc::new(ShardedPasswordStore::new(2));
        let mut handle = spawn_anti_entropy(
            Arc::clone(&replicator),
            Arc::clone(&primary_store),
            Duration::from_millis(20),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while replicator.replication_stats().anti_entropy_rounds < 2 {
            assert!(Instant::now() < deadline, "rounds never ran");
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let after = replicator.replication_stats().anti_entropy_rounds;
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(
            replicator.replication_stats().anti_entropy_rounds,
            after,
            "no rounds after shutdown"
        );
        listener.shutdown();
    }
}
