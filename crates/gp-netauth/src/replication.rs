//! WAL-streaming replication between cluster nodes.
//!
//! Each node runs a *replication listener* alongside its auth listener.
//! When a primary accepts an enrollment it appends the record to its own
//! WAL as usual, then streams the **same WAL payload bytes** (an op byte
//! and the account's packed record, [`gp_passwords::WalEntry::to_payload`])
//! to the account's backup — the key's second ring successor.  The backup
//! decodes them strictly and appends those bytes, unchanged, to *its*
//! durable store (WAL-first, via
//! [`gp_passwords::ShardedPasswordStore::apply_replicated`])
//! before acknowledging, and the primary releases `EnrollOk` only after
//! that ack, so an acked account is durable on two nodes.  Applying is
//! insert-or-replace, so redelivery is harmless; the strict decode keeps
//! one byte form per record on every node, so equal records hash equal.
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
//! CatchupDone    { count }                    end of a pull's Record stream
//! DigestRequest  { primary, backup, members } anti-entropy: digest your (primary→backup) range
//! DigestReply    { count, sum, xor }          the flat per-range digest
//! RangeRequest   { primary, backup, members } divergence found: list the range's records
//! RangeReply     { done, entries }            (username, record hash) pairs, chunked
//! PullRequest    { usernames }                stream me these records (repair pull)
//! ```
//!
//! The replica side is one transport-free function, `serve_message`: it
//! takes one decoded message and the store and returns the replies in
//! order.  The listener is the same event loop that serves clients
//! ([`crate::reactor`]), running a second service: the loop answers the
//! `Hello` handshake and cuts each connection's frames into turns — a run
//! of `Record`s or one other request — and [`REPLICA_COMPUTE_THREADS`]
//! threads answer each turn with `serve_message`, so no WAL write, fsync
//! or range scan runs on the loop, and no connection gets a thread.
//! Every outbound connection is one request/response `PeerConn` driven
//! by the calling thread over a `FrameLink` (queue frames, flush, receive
//! by a deadline), whose only implementation outside tests is `TcpLink`.
//! `seq` numbers records per connection; the sender pipelines a group,
//! flushes once, and reads the acks back on the same connection under
//! the peer lock.  The listener applies and acks in stream order, so the
//! ack for the group's last `seq` proves the whole group is durable on
//! the backup.
//!
//! Failure handling is crash-only: a send failure is retried once on a
//! fresh connection (transient drop), after which the peer is declared
//! dead and removed from the sender's ring — the next successor (or, with
//! no live peer left, local-only operation) takes over.  A dead peer that
//! restarts is re-admitted with [`Replicator::update_peer`]; one reachable
//! at its old address again (a healed partition) is re-admitted by the
//! next anti-entropy round once a sync of its range with it succeeds.  A
//! handshake names the node that answers it, so a node that took over a
//! dead peer's port is refused, not mistaken for the peer.
//!
//! # Catch-up and anti-entropy
//!
//! Live streaming only covers *new* records, so one back-fill path keeps
//! replicas complete (see the README's replication section): a
//! digest-exchange round over `(primary → backup)` ranges.  Placement is
//! a pure function of membership, so each request carries the member
//! list and the serving peer reconstructs the same [`HashRing`].  Per
//! range the sides compare flat digests ([`gp_passwords::RangeDigest`]
//! over the keys whose replica pair is `(primary, backup)`); on
//! divergence they exchange sorted `(username, record-hash)` lists and
//! repair record-by-record, primary wins: records flow primary → backup
//! where the backup lacks them or holds other bytes, and backup →
//! primary where only the backup holds them.  Applying reuses
//! [`ShardedPasswordStore::apply_replicated`] (WAL-first
//! insert-or-replace), so an interrupted repair replays idempotently.
//!
//! * **Anti-entropy** ([`Replicator::anti_entropy_round`], run
//!   periodically by [`spawn_anti_entropy`]) checks the `(self → peer)`
//!   range with every peer; an evicted one rejoins once it syncs.
//! * **Catch-up** ([`Replicator::catch_up`]) is the same round run by a
//!   (re)joining node over both the `(self → peer)` and the
//!   `(peer → self)` ranges, so it moves only the records its own WAL
//!   did not recover.
//!
//! Repair counters surface in [`ReplicationStats`].

use crate::error::NetAuthError;
use crate::framing::{FrameLink, TcpLink};
use crate::protocol::MAX_USERNAME_LEN;
use crate::server::{
    spawn_reactor, Cut, Limits, ReactorParts, Reply, Service, WorkerMetrics, WRITE_TIMEOUT,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gp_passwords::wal::WalEntry;
use gp_passwords::{diff_range_entries, HashRing, RangeDigest, ShardedPasswordStore};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TAG_HELLO: u8 = 0x41;
const TAG_HELLO_OK: u8 = 0x42;
const TAG_RECORD: u8 = 0x43;
const TAG_ACK: u8 = 0x44;
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

/// Compute threads of a node's replication listener.  A three-node
/// ring's two peers stream to a node at once, so each stream's WAL
/// appends and fsyncs get a thread; with more peers, turns queue.  Only
/// the first thread answers listings (digests, range listings, pulls),
/// so a repair scan never holds both: a live `Record` waits at most for
/// another stream's apply.
pub const REPLICA_COMPUTE_THREADS: usize = 2;

/// Replication connections a listener holds open at once; accepts past
/// the cap are closed.  A node of an n-node cluster holds about
/// 2(n − 1): each peer's live stream and its repair exchange.
const MAX_REPLICA_CONNECTIONS: usize = 1024;

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
    /// Terminates the `Record` stream that answers a `PullRequest`:
    /// exactly `count` records were sent.
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

/// Something a server can hand each locally-durable enrollment to for
/// replication before acknowledging the client.
pub trait ReplicationSink: Send + Sync + std::fmt::Debug {
    /// Replicate a whole group-commit batch; returns only once every
    /// entry's backup has acknowledged durability (or no live backup
    /// exists).  [`Replicator`] pipelines each backup's records and reads
    /// back one ack per record in a single round trip, so backup acks
    /// join the group barrier instead of queueing behind it.
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
// Transport
// ---------------------------------------------------------------------------

/// Opens a [`FrameLink`] to a peer's replication listener.
pub(crate) trait Dial: Send + Sync + std::fmt::Debug {
    /// Connect to `peer`, listening at `addr`, within `timeout`.
    fn dial(
        &self,
        peer: &str,
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<Box<dyn FrameLink>, NetAuthError>;
}

#[derive(Debug)]
struct TcpDial;

impl Dial for TcpDial {
    fn dial(
        &self,
        _peer: &str,
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<Box<dyn FrameLink>, NetAuthError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(Box::new(TcpLink::new(stream)?))
    }
}

// ---------------------------------------------------------------------------
// Listener (replica side)
// ---------------------------------------------------------------------------

/// Handle to a running replication listener.
///
/// The listener accepts connections from peer primaries and answers each
/// message with the replica function: every [`ReplicaMessage::Record`] is
/// applied to the node's own durable store before it is acked.  Dropping
/// the handle shuts the listener down.
#[derive(Debug)]
pub struct ReplicationHandle {
    reactor: ReactorParts,
}

impl ReplicationHandle {
    /// Address peers should stream records to.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr
    }

    /// Stop accepting and applying: the event loop exits within one poll
    /// tick, dropping every connection mid-reply or not, and the compute
    /// threads finish the turns already queued.  Applied records stay
    /// durable (crash-only: the fault harness stops a node no other way).
    pub fn shutdown(&mut self) {
        self.reactor.stop();
    }
}

/// Spawn a replication listener on an ephemeral loopback port, applying
/// records to `store`: an event loop and [`REPLICA_COMPUTE_THREADS`]
/// compute threads, however many peers connect.
pub fn spawn_replication_listener(
    node_id: &str,
    store: Arc<ShardedPasswordStore>,
) -> Result<ReplicationHandle, NetAuthError> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let replica = Replica {
        node_id: node_id.to_string(),
        store,
    };
    let limits = Limits {
        compute_threads: REPLICA_COMPUTE_THREADS,
        max_connections: MAX_REPLICA_CONNECTIONS,
        // A live stream may be quiet for any length of time.
        idle_timeout: Duration::ZERO,
        write_timeout: WRITE_TIMEOUT,
    };
    let reactor = spawn_reactor(Arc::new(replica), listener, limits)?;
    Ok(ReplicationHandle { reactor })
}

/// The replica side as the event loop serves it.
#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) node_id: String,
    pub(crate) store: Arc<ShardedPasswordStore>,
}

/// The event loop answers the handshake — its one implementation — and
/// cuts each turn: a run of `Record`s, or one other request, so a peer
/// that pipelines listings gets them built one at a time.  A malformed
/// frame or a message out of order closes the connection once the
/// replies to earlier frames are out.
impl Service for Replica {
    /// Whether the connection's `Hello` came in.
    type Conn = bool;
    type Work = Vec<ReplicaMessage>;
    const THREADS: [&'static str; 2] = ["gp-repl-reactor", "gp-repl-apply"];

    // gp-lint: reactor-root
    fn cut(
        &self,
        frames: &mut VecDeque<Option<Bytes>>,
        greeted: &mut bool,
        _metrics: &WorkerMetrics,
    ) -> Cut<Vec<ReplicaMessage>> {
        let is_record =
            |frame: &Option<Bytes>| frame.as_ref().and_then(|f| f.first()) == Some(&TAG_RECORD);
        let mut turn = Vec::new();
        while let Some(frame) = frames.pop_front() {
            let record = is_record(&frame);
            match frame.map(ReplicaMessage::decode) {
                Some(Ok(ReplicaMessage::Hello { .. })) if !*greeted => {
                    *greeted = true;
                    let hello = ReplicaMessage::HelloOk {
                        node_id: self.node_id.clone(),
                    };
                    return Cut::Now(Reply::frames([hello.encode()], false));
                }
                Some(Ok(message)) if *greeted => turn.push(message),
                // A malformed frame, or a request before the handshake.
                _ => return Cut::Later(turn, true),
            }
            if !record || !frames.front().is_some_and(is_record) {
                break;
            }
        }
        Cut::Later(turn, false)
    }

    /// Only a run of `Record`s may take any compute thread.
    fn any_thread(turn: &Vec<ReplicaMessage>) -> bool {
        matches!(turn.first(), Some(ReplicaMessage::Record { .. }))
    }

    /// Answer each turn's messages in order with [`serve_message`] (each
    /// `Record` applied durably before its `Ack`).  An error — a message
    /// out of order, or a failed apply — ends the turn and closes the
    /// connection after the replies before it.
    fn answer(&self, batch: Vec<Vec<ReplicaMessage>>) -> Vec<Reply> {
        batch
            .into_iter()
            .map(|turn| {
                let mut replies = Vec::new();
                let failed = turn.into_iter().any(|message| {
                    serve_message(&self.store, message)
                        .map(|answer| replies.extend(answer))
                        .is_err()
                });
                Reply::frames(replies.iter().map(ReplicaMessage::encode), failed)
            })
            .collect()
    }
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

/// The replica side of the protocol after the handshake (which
/// [`Replica::cut`] answers): what a node does with one request a peer
/// sent it, returned as the replies to send, in order.
///
/// * `Record` → a checked, durable (WAL-first) apply of these very bytes,
///   then `Ack`: an acked record survives this node crashing right after.
/// * `DigestRequest` → the range's `DigestReply`.
/// * `RangeRequest` → the range's `(name, record hash)` listing in
///   [`SYNC_CHUNK`]-entry `RangeReply`s, then an empty final one.
/// * `PullRequest` → one `Record` per named account held here, then
///   `CatchupDone` with their count.  An absent account is skipped, not an
///   error: the requester diffed against a snapshot, and the record may
///   have been removed since.
///
/// Anything else (a second `Hello`, `HelloOk`/`Ack` from a sender) is a
/// protocol violation: the caller drops the connection.
fn serve_message(
    store: &ShardedPasswordStore,
    message: ReplicaMessage,
) -> Result<Vec<ReplicaMessage>, NetAuthError> {
    let replies = match message {
        ReplicaMessage::Record { seq, payload } => {
            store.apply_replicated(&payload)?;
            vec![ReplicaMessage::Ack { seq }]
        }
        ReplicaMessage::DigestRequest {
            primary,
            backup,
            members,
        } => {
            let ring = HashRing::with_nodes(&members);
            let digest = store.range_digest(pair_range(&ring, &primary, &backup));
            vec![ReplicaMessage::DigestReply {
                count: digest.count,
                sum: digest.sum,
                xor: digest.xor,
            }]
        }
        ReplicaMessage::RangeRequest {
            primary,
            backup,
            members,
        } => {
            let ring = HashRing::with_nodes(&members);
            let mut entries = store
                .range_entries(pair_range(&ring, &primary, &backup))
                .into_iter();
            let mut replies = Vec::new();
            loop {
                let chunk: Vec<(String, u64)> = entries.by_ref().take(SYNC_CHUNK).collect();
                let done = chunk.is_empty();
                replies.push(ReplicaMessage::RangeReply {
                    done,
                    entries: chunk,
                });
                if done {
                    break replies;
                }
            }
        }
        ReplicaMessage::PullRequest { usernames } => {
            let mut replies: Vec<ReplicaMessage> = usernames
                .iter()
                .filter_map(|name| store.update_payload(name))
                .zip(1..)
                .map(|(payload, seq)| ReplicaMessage::Record { seq, payload })
                .collect();
            let count = replies.len() as u64;
            replies.push(ReplicaMessage::CatchupDone { count });
            replies
        }
        _ => return Err(malformed("unexpected replication message")),
    };
    Ok(replies)
}

// ---------------------------------------------------------------------------
// Replicator (primary side)
// ---------------------------------------------------------------------------

/// Tuning for a [`Replicator`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicatorConfig {
    /// How long a send waits for the backup's acks (and an anti-entropy
    /// exchange for each reply) before treating the attempt as failed.
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
            ack_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            anti_entropy_interval: Duration::from_secs(1),
        }
    }
}

/// One outbound request/response connection to a peer's replication
/// listener, driven entirely by the calling thread: the live record
/// stream and the repair rounds (anti-entropy and catch-up) both use it.
#[derive(Debug)]
struct PeerConn {
    link: Box<dyn FrameLink>,
    /// Bound on each reply ([`PeerConn::recv`]) and on a record group's
    /// acks ([`PeerConn::send_group`]).
    io_timeout: Duration,
    /// Seq of the last record sent on this connection.
    last_seq: u64,
}

impl PeerConn {
    /// Handshake (`Hello` / `HelloOk`) on a fresh `link` to node `peer`
    /// and return the ready connection.  Any other node answering at the
    /// address (one that took over a dead node's port) is refused.
    fn open(
        self_id: &str,
        peer: &str,
        link: Box<dyn FrameLink>,
        io_timeout: Duration,
    ) -> Result<Self, NetAuthError> {
        let mut conn = Self {
            link,
            io_timeout,
            last_seq: 0,
        };
        conn.send(&ReplicaMessage::Hello {
            node_id: self_id.to_string(),
        })?;
        match conn.recv()? {
            ReplicaMessage::HelloOk { node_id } if node_id == peer => Ok(conn),
            _ => Err(malformed("expected the peer's handshake reply")),
        }
    }

    fn send(&mut self, message: &ReplicaMessage) -> Result<(), NetAuthError> {
        self.link.send(&message.encode())?;
        self.link.flush()
    }

    /// Read the next message, waiting at most `io_timeout`.
    fn recv(&mut self) -> Result<ReplicaMessage, NetAuthError> {
        self.recv_by(Instant::now() + self.io_timeout)
    }

    /// Read the next message, failing with `TimedOut` once `deadline`
    /// passes.
    fn recv_by(&mut self, deadline: Instant) -> Result<ReplicaMessage, NetAuthError> {
        ReplicaMessage::decode(self.link.recv_by(deadline)?)
    }

    /// Pipeline `payloads` as `Record` frames, flush once, then read acks
    /// until the last record's is in, all within one `io_timeout`.  The
    /// listener applies and acks in stream order, so the last ack proves
    /// the whole group is durable on the peer.
    fn send_group<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<(), NetAuthError> {
        let mut acked = self.last_seq;
        for payload in payloads {
            self.last_seq += 1;
            let message = ReplicaMessage::Record {
                seq: self.last_seq,
                payload: payload.as_ref().to_vec(),
            };
            self.link.send(&message.encode())?;
        }
        self.link.flush()?;
        let deadline = Instant::now() + self.io_timeout;
        while acked < self.last_seq {
            match self.recv_by(deadline)? {
                ReplicaMessage::Ack { seq } => acked = seq,
                _ => return Err(malformed("expected record ack")),
            }
        }
        Ok(())
    }

    /// Apply a `Record` stream (the answer to a `PullRequest`) durably,
    /// up to its `CatchupDone`, whose count must match.  Returns the
    /// records applied.
    fn receive_records(&mut self, store: &ShardedPasswordStore) -> Result<u64, NetAuthError> {
        let mut applied = 0u64;
        loop {
            match self.recv()? {
                ReplicaMessage::Record { payload, .. } => {
                    // Checked, durable, idempotent apply: a crash right
                    // after leaves a prefix that replays harmlessly.
                    store.apply_replicated(&payload)?;
                    applied += 1;
                }
                ReplicaMessage::CatchupDone { count } if count == applied => return Ok(applied),
                ReplicaMessage::CatchupDone { .. } => {
                    return Err(malformed("record stream count mismatch"))
                }
                _ => return Err(malformed("unexpected frame in record stream")),
            }
        }
    }
}

#[derive(Debug)]
struct PeerState {
    /// Behind a lock so a restarted node's fresh ephemeral port can be
    /// installed ([`Replicator::update_peer`]) without rebuilding the map.
    addr: Mutex<SocketAddr>,
    conn: Mutex<Option<PeerConn>>,
}

/// Snapshot of a [`Replicator`]'s replication and repair counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Records streamed to backups on the live (write-path) stream.
    pub records_replicated: u64,
    /// Completed anti-entropy rounds, catch-up rounds included.
    pub anti_entropy_rounds: u64,
    /// Primary→backup ranges digest-checked across all rounds.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed (divergence detected).
    pub ranges_divergent: u64,
    /// Records this node sent to peers during repair.
    pub records_pushed: u64,
    /// Records this node received from peers during repair.
    pub records_pulled: u64,
    /// Anti-entropy exchanges that failed on transport errors (the peer
    /// is skipped for the round, never evicted).
    pub sync_failures: u64,
}

/// The primary-side replication sender.
///
/// Owns a [`HashRing`] over the full cluster membership (itself
/// included; only known peers ever join it) and, for each entry, streams
/// the WAL payload to the entry's backup — the first ring successor of
/// the account that is not this node.  Peers that fail a send twice are
/// declared dead and leave the ring, shifting subsequent traffic to the
/// next successor.
#[derive(Debug)]
pub struct Replicator {
    node_id: String,
    config: ReplicatorConfig,
    ring: Mutex<HashRing>,
    peers: BTreeMap<String, PeerState>,
    stats: Mutex<ReplicationStats>,
    dial: Box<dyn Dial>,
}

impl Replicator {
    /// A replicator for node `node_id` with the given peer replication
    /// addresses (`node_id` itself must not be in `peers`).
    pub fn new(
        node_id: &str,
        peers: BTreeMap<String, SocketAddr>,
        config: ReplicatorConfig,
    ) -> Self {
        Self::with_dial(node_id, peers, config, Box::new(TcpDial))
    }

    /// [`Replicator::new`] over another transport.
    pub(crate) fn with_dial(
        node_id: &str,
        peers: BTreeMap<String, SocketAddr>,
        config: ReplicatorConfig,
        dial: Box<dyn Dial>,
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
            stats: Mutex::default(),
            dial,
        }
    }

    /// Snapshot of the replication and anti-entropy repair counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        *self.stats.lock()
    }

    /// This node's ID.
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Whether `node` is currently considered live.
    pub fn is_live(&self, node: &str) -> bool {
        self.ring.lock().contains(node)
    }

    /// Point `node` at a new replication address (a restarted node binds a
    /// fresh ephemeral port) and re-admit it to the ring; the ring is
    /// deterministic, so its old key ranges come back.  Returns whether
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

    /// Connect and handshake to peer `id`'s current address.
    fn connect(&self, id: &str) -> Result<PeerConn, NetAuthError> {
        let addr = *self.peers[id].addr.lock();
        let link = self.dial.dial(id, addr, self.config.connect_timeout)?;
        PeerConn::open(&self.node_id, id, link, self.config.ack_timeout)
    }

    /// One grouped send attempt: [`PeerConn::send_group`] on `peer`'s
    /// connection (opened if needed), under the peer lock, so concurrent
    /// senders to one peer take turns.  A failed attempt drops the
    /// connection; the next attempt starts on a fresh one.
    fn send_group_once(&self, id: &str, payloads: &[&[u8]]) -> Result<(), NetAuthError> {
        let mut guard = self.peers[id].conn.lock();
        let conn = match &mut *guard {
            Some(conn) => conn,
            slot => slot.insert(self.connect(id)?),
        };
        let sent = conn.send_group(payloads);
        if sent.is_err() {
            *guard = None;
        }
        sent
    }

    /// One anti-entropy round: for every peer, digest-compare the
    /// `(self → peer)` range and repair any divergence record-by-record.
    /// A peer the write path evicted is synced under a ring that includes
    /// it, and rejoins the ring once that succeeds.
    ///
    /// The primary *pushes* records the backup lacks (or holds with
    /// different bytes — primary wins, it acked them) and *pulls* records
    /// only the backup holds (written while this node was away).  A peer
    /// that fails the exchange on a transport error is skipped for the
    /// round — never evicted: anti-entropy is a background repair, and
    /// eviction is the write path's crash-only detector.
    pub fn anti_entropy_round(&self, store: &ShardedPasswordStore) -> AntiEntropyRound {
        self.sync_round(store, false)
    }

    /// Catch a (re)joining node up: an anti-entropy round over both the
    /// `(self → peer)` and the `(peer → self)` range of every peer, so
    /// only the records its own WAL did not recover move.  A range
    /// exchange that fails is retried once on a fresh connection, and a
    /// peer that fails twice is skipped for the round; an empty
    /// [`AntiEntropyRound::failed_peers`] means every range this node
    /// holds was compared and repaired.  The caller decides whether to
    /// admit the node anyway (availability) or keep its traffic gate
    /// closed.
    ///
    /// Completeness: for a key in a `(self, X)` or `(X, self)` pair, `X`
    /// was the key's primary while this node was down, so `X`'s listing
    /// holds it; records written after the listing stream here live, as
    /// long as the survivors re-admitted this node first.
    pub fn catch_up(&self, store: &ShardedPasswordStore) -> AntiEntropyRound {
        self.sync_round(store, true)
    }

    /// The round behind [`Replicator::anti_entropy_round`] (`two_way`
    /// false) and [`Replicator::catch_up`] (`two_way` true).
    fn sync_round(&self, store: &ShardedPasswordStore, two_way: bool) -> AntiEntropyRound {
        let mut round = AntiEntropyRound::default();
        for peer_id in self.peers.keys() {
            // A peer the write path evicted is synced under a ring that
            // includes it, and rejoins once that succeeds (a healed
            // partition).  Its compute threads answer the exchange, so a
            // node that only answers the handshake (applies failing,
            // threads stalled) stays out, as does an unreachable one.
            let mut ring = self.ring.lock().clone();
            let evicted = ring.join(peer_id);
            let members: Vec<String> = ring.nodes().map(String::from).collect();
            let mut ranges = vec![(self.node_id.as_str(), peer_id.as_str())];
            if two_way {
                ranges.push((peer_id.as_str(), self.node_id.as_str()));
            }
            for (primary, backup) in ranges {
                round.ranges_checked += 1;
                let mut outcome = self.sync_range_with(primary, backup, &ring, &members, store);
                if outcome.is_err() && two_way {
                    // Catch-up retries once on a fresh connection.
                    outcome = self.sync_range_with(primary, backup, &ring, &members, store);
                }
                match outcome {
                    Ok(None) => {}
                    Ok(Some((pushed, pulled))) => {
                        round.ranges_divergent += 1;
                        round.records_pushed += pushed;
                        round.records_pulled += pulled;
                    }
                    Err(_) => {
                        // The peer's other range would fail the same way.
                        round.failed_peers.push(peer_id.clone());
                        self.stats.lock().sync_failures += 1;
                        break;
                    }
                }
            }
            if evicted && round.failed_peers.last() != Some(peer_id) {
                self.ring.lock().join(peer_id);
            }
        }
        let mut stats = self.stats.lock();
        stats.anti_entropy_rounds += 1;
        stats.ranges_checked += round.ranges_checked;
        stats.ranges_divergent += round.ranges_divergent;
        stats.records_pushed += round.records_pushed;
        stats.records_pulled += round.records_pulled;
        round
    }

    /// Digest-compare the `(primary → backup)` range with whichever of the
    /// two is not this node, and repair a mismatch primary-wins: records
    /// flow primary → backup where the backup lacks them or holds other
    /// bytes, backup → primary where only the backup holds them.  Returns
    /// `None` when the digests already agree, or the `(pushed, pulled)`
    /// record counts this node sent and received.
    fn sync_range_with(
        &self,
        primary: &str,
        backup: &str,
        ring: &HashRing,
        members: &[String],
        store: &ShardedPasswordStore,
    ) -> Result<Option<(u64, u64)>, NetAuthError> {
        let self_is_primary = primary == self.node_id;
        let peer = if self_is_primary { backup } else { primary };
        let range = pair_range(ring, primary, backup);
        let local = store.range_digest(&range);
        // A connection of its own: a repair exchange must not hold up the
        // live stream's peer lock.
        let mut conn = self.connect(peer)?;
        conn.send(&ReplicaMessage::DigestRequest {
            primary: primary.to_string(),
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

        // Divergence: fetch the peer's record-level listing and diff.
        conn.send(&ReplicaMessage::RangeRequest {
            primary: primary.to_string(),
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
        let local_entries = store.range_entries(&range);
        let (send, fetch) = if self_is_primary {
            let diff = diff_range_entries(&local_entries, &remote_entries);
            (diff.push, diff.pull)
        } else {
            let diff = diff_range_entries(&remote_entries, &local_entries);
            (diff.pull, diff.push)
        };

        // Send this side's copies the way the live stream sends a group.
        let payloads: Vec<Vec<u8>> = send
            .iter()
            .filter_map(|name| store.update_payload(name))
            .collect();
        conn.send_group(&payloads)?;

        // Fetch the peer's copies.
        let mut pulled = 0u64;
        for chunk in fetch.chunks(SYNC_CHUNK) {
            conn.send(&ReplicaMessage::PullRequest {
                usernames: chunk.to_vec(),
            })?;
            pulled += conn.receive_records(store)?;
        }
        Ok(Some((payloads.len() as u64, pulled)))
    }
}

// ---------------------------------------------------------------------------
// Anti-entropy (background repair)
// ---------------------------------------------------------------------------

/// Outcome of one [`Replicator::anti_entropy_round`] or
/// [`Replicator::catch_up`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntiEntropyRound {
    /// Primary→backup ranges digest-checked this round.
    pub ranges_checked: u64,
    /// Ranges whose digests disagreed.
    pub ranges_divergent: u64,
    /// Records this node sent to peers during repair.
    pub records_pushed: u64,
    /// Records this node received from peers during repair.
    pub records_pulled: u64,
    /// Peers whose exchange failed on a transport error (not evicted).
    /// Empty means every range the round covers was compared.
    pub failed_peers: Vec<String>,
}

/// Handle to a background anti-entropy thread ([`spawn_anti_entropy`]).
/// Dropping the handle stops the thread.
#[derive(Debug)]
pub struct AntiEntropyHandle {
    /// Dropping it wakes the thread, which then exits.
    stop: Option<mpsc::Sender<()>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl AntiEntropyHandle {
    /// Stop the thread; returns once it has exited (at once, or when the
    /// round it is running ends).
    pub fn shutdown(&mut self) {
        self.stop = None;
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
) -> Result<AntiEntropyHandle, NetAuthError> {
    let (stop, stopped) = mpsc::channel::<()>();
    let name = format!("anti-entropy-{}", replicator.node_id());
    let join = std::thread::Builder::new().name(name).spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
            let _ = replicator.anti_entropy_round(&store);
        }
    })?;
    Ok(AntiEntropyHandle {
        stop: Some(stop),
        join: Some(join),
    })
}

impl ReplicationSink for Replicator {
    /// Route every entry to its backup (the first ring successor that is
    /// not this node), pipeline each backup's records on one connection,
    /// and read their acks back in one round trip per backup instead of
    /// one per entry.  A failed send is retried once
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
                let batch: Vec<&[u8]> = indices.iter().map(|&i| payloads[i].as_slice()).collect();
                if self.send_group_once(&target, &batch).is_ok()
                    || self.send_group_once(&target, &batch).is_ok()
                {
                    self.stats.lock().records_replicated += batch.len() as u64;
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
    use crate::cluster_explorer::{reply_payloads, serve_frame};
    use crate::framing::FrameWriter;
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

    /// A replica store of 300 accounts and the scripted session of the
    /// golden-frame test: the handshake, three pipelined records, a
    /// digest and a listing of the `(node-a → node-b)` range (about 150
    /// entries: two chunks), and a pull naming one absent account.
    fn golden_session() -> (Arc<ShardedPasswordStore>, Vec<ReplicaMessage>) {
        let sys = system();
        let store = peer_store(&sys, 300);
        let members: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let mut session = vec![ReplicaMessage::Hello {
            node_id: "node-b".into(),
        }];
        for (seq, i) in (1..=3u64).zip(300..303u32) {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            let payload = WalEntry::Enroll(record).to_payload();
            session.push(ReplicaMessage::Record { seq, payload });
        }
        session.push(ReplicaMessage::DigestRequest {
            primary: "node-a".into(),
            backup: "node-b".into(),
            members: members.clone(),
        });
        session.push(ReplicaMessage::RangeRequest {
            primary: "node-a".into(),
            backup: "node-b".into(),
            members,
        });
        session.push(ReplicaMessage::PullRequest {
            usernames: vec!["user7".into(), "nobody".into(), "user301".into()],
        });
        (store, session)
    }

    /// The frames a replica sends for [`golden_session`], captured from
    /// the thread-per-connection listener's socket before its loop was
    /// split into a replica function: `HelloOk`, three `Ack`s, a
    /// `DigestReply`, three `RangeReply`s, two `Record`s and
    /// `CatchupDone { count: 2 }`.
    const GOLDEN_REPLIES: &[u8] = include_bytes!("../tests/data/replica_session.golden");

    fn framed(replies: impl IntoIterator<Item = ReplicaMessage>) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for reply in replies {
            writer.write_frame_buffered(&reply.encode()).unwrap();
        }
        bytes
    }

    /// The replica service (the loop's handshake and cut, then the
    /// compute side's answer, frame by frame) answers the scripted
    /// session with the golden bytes: no reply, order or `CatchupDone`
    /// count may change.
    #[test]
    fn replica_function_replies_match_the_golden_frames() {
        let (store, session) = golden_session();
        let replica = Replica {
            node_id: "node-a".into(),
            store,
        };
        let mut greeted = false;
        let replies: Vec<ReplicaMessage> = session
            .into_iter()
            .flat_map(|message| {
                let reply = serve_frame(&replica, &mut greeted, message.encode());
                assert!(!reply.close, "the session is well-formed");
                reply_payloads(&reply)
            })
            .map(|payload| ReplicaMessage::decode(payload).unwrap())
            .collect();
        let tags: Vec<u8> = replies.iter().map(|reply| reply.encode()[0]).collect();
        assert_eq!(
            tags,
            [0x42, 0x44, 0x44, 0x44, 0x48, 0x4a, 0x4a, 0x4a, 0x43, 0x43, 0x46]
        );
        assert!(framed(replies) == GOLDEN_REPLIES, "reply bytes changed");
    }

    /// The listener sends the same bytes over TCP.
    #[test]
    fn listener_replies_match_the_golden_frames() {
        let (store, session) = golden_session();
        let mut listener = spawn_replication_listener("node-a", store).unwrap();
        let stream = TcpStream::connect(listener.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = FrameWriter::new(&stream);
        for message in &session {
            writer.write_frame_buffered(&message.encode()).unwrap();
        }
        writer.flush().unwrap();
        let mut reader = crate::framing::FrameReader::new(&stream);
        let mut replies = Vec::new();
        while !matches!(replies.last(), Some(ReplicaMessage::CatchupDone { .. })) {
            replies.push(ReplicaMessage::decode(reader.read_frame().unwrap()).unwrap());
        }
        assert!(framed(replies) == GOLDEN_REPLIES, "reply bytes changed");
        listener.shutdown();
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
        assert_eq!(store.len(), 8);
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

    /// A backup logs the payload bytes its primary sent, not a re-encoding:
    /// after the same enrollments, its log segment is byte-identical to the
    /// primary's.
    #[test]
    fn backup_wal_holds_the_primarys_payload_bytes() {
        let sys = system();
        let (primary_dir, backup_dir) = (temp_dir("bytes-primary"), temp_dir("bytes-backup"));
        let open = |dir: &std::path::Path| {
            ShardedPasswordStore::open_durable(dir, 1, DurabilityOptions::default()).unwrap()
        };
        let primary = open(&primary_dir);
        let backup = Arc::new(open(&backup_dir));
        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        for i in 0..8u32 {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            primary.insert_new(record.clone()).unwrap();
            replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        }
        assert_eq!(backup.len(), 8);
        listener.shutdown();
        // Both logs were compacted once, at open, so each is one segment.
        let wal = |dir: &std::path::Path| {
            let segments: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
                .collect();
            assert_eq!(segments.len(), 1, "{segments:?}");
            std::fs::read(&segments[0]).unwrap()
        };
        let primary_wal = wal(&primary_dir);
        assert!(primary_wal.len() > 8 * 100, "8 records logged");
        assert_eq!(wal(&backup_dir), primary_wal);
        std::fs::remove_dir_all(&primary_dir).unwrap();
        std::fs::remove_dir_all(&backup_dir).unwrap();
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
        // update_peer readmits it (and the next send would reconnect).
        assert!(replicator.update_peer("backup", dead_addr));
        assert!(replicator.is_live("backup"));
        assert!(
            !replicator.update_peer("unknown", dead_addr),
            "unknown nodes stay out"
        );
        assert!(!replicator.is_live("unknown"));
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

    /// A node answering at a peer's address under another node ID (one
    /// that took over a dead node's port) gets none of the peer's records
    /// and does not bring the evicted peer back: the handshake names the
    /// node that answers it.
    #[test]
    fn a_listener_with_another_node_id_is_not_taken_for_the_peer() {
        let sys = system();
        let other = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("node-x", Arc::clone(&other)).unwrap();
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, ReplicatorConfig::default());
        let store = ShardedPasswordStore::new(2);
        let record = sys.enroll("alice", &clicks(1)).unwrap();
        store.insert_new(record.clone()).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        assert!(
            !replicator.is_live("backup"),
            "two refused handshakes evict"
        );
        let round = replicator.anti_entropy_round(&store);
        assert!(!replicator.is_live("backup"), "the evicted peer stays out");
        assert_eq!(round.records_pushed, 0);
        assert_eq!(other.len(), 0, "node-x got none of the peer's records");
        listener.shutdown();
    }

    /// An evicted peer whose compute threads are stalled — its event loop
    /// still answers the handshake — stays evicted; once they answer
    /// again, the next round's range sync re-admits it.
    #[test]
    fn evicted_peer_rejoins_only_once_its_compute_threads_answer() {
        let sys = system();
        let backup = Arc::new(ShardedPasswordStore::new(1));
        backup
            .insert_new(sys.enroll("seed", &clicks(0)).unwrap())
            .unwrap();
        let mut listener = spawn_replication_listener("backup", Arc::clone(&backup)).unwrap();
        // A scan holds the backup's only shard lock, so every apply waits.
        let (release, stalled) = std::sync::mpsc::channel::<()>();
        let (held_tx, held) = std::sync::mpsc::channel();
        let holder = {
            let backup = Arc::clone(&backup);
            std::thread::spawn(move || {
                backup.range_digest(|_| {
                    held_tx.send(()).unwrap();
                    stalled.recv().is_ok()
                })
            })
        };
        held.recv().unwrap();
        let config = ReplicatorConfig {
            ack_timeout: Duration::from_millis(300),
            ..ReplicatorConfig::default()
        };
        let peers = BTreeMap::from([("backup".to_string(), listener.addr())]);
        let replicator = Replicator::new("primary", peers, config);
        let store = ShardedPasswordStore::new(2);
        let record = sys.enroll("alice", &clicks(1)).unwrap();
        store.insert_new(record.clone()).unwrap();
        replicator.replicate(&WalEntry::Enroll(record)).unwrap();
        assert!(!replicator.is_live("backup"), "two unacked sends evict");
        replicator.anti_entropy_round(&store);
        assert!(
            !replicator.is_live("backup"),
            "a handshake alone does not re-admit"
        );
        release.send(()).unwrap();
        holder.join().unwrap();
        let round = replicator.anti_entropy_round(&store);
        assert!(replicator.is_live("backup"), "a synced range re-admits");
        assert!(round.failed_peers.is_empty());
        assert!(backup.get("alice").is_some());
        listener.shutdown();
    }

    /// A peer store holding `user0..user{n}`, and the two-member ring
    /// `{node-a, node-b}` under which node-b holds every key.
    fn peer_store(sys: &GraphicalPasswordSystem, n: u32) -> Arc<ShardedPasswordStore> {
        let store = Arc::new(ShardedPasswordStore::new(2));
        for i in 0..n {
            let record = sys.enroll(&format!("user{i}"), &clicks(i)).unwrap();
            store
                .apply_replicated(&WalEntry::Update(record).to_payload())
                .unwrap();
        }
        store
    }

    /// Catch-up back-fills exactly the records the joiner holds under its
    /// ring, and reports every range compared.
    #[test]
    fn catch_up_streams_the_joiners_ranges() {
        let sys = system();
        let peer_store = peer_store(&sys, 32);
        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();

        let joiner_store = ShardedPasswordStore::new(2);
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let joiner = Replicator::new("node-b", peers, ReplicatorConfig::default());
        let report = joiner.catch_up(&joiner_store);
        assert!(report.failed_peers.is_empty(), "{report:?}");
        assert_eq!(report.ranges_checked, 2, "(node-b → node-a) and back");

        // With two members every key's replica pair is (owner, other), so
        // node-b holds everything: the full store must have streamed over.
        assert_eq!(report.records_pulled, 32);
        assert_eq!(report.records_pushed, 0);
        assert_eq!(joiner_store.len(), 32);
        for i in 0..32u32 {
            assert!(joiner_store
                .verify(&sys, &format!("user{i}"), &clicks(i))
                .unwrap());
        }
        assert_eq!(joiner.replication_stats().records_pulled, 32);
        listener.shutdown();
    }

    /// A joiner whose own WAL recovered 28 of its 32 records moves only
    /// the 4 it lacks — from both ranges, whichever side is primary.
    #[test]
    fn catch_up_pulls_only_what_the_joiner_lacks() {
        let sys = system();
        let peer_store = peer_store(&sys, 32);
        let ring = HashRing::with_nodes(["node-a", "node-b"]);
        let owned_by = |node: &str| -> Vec<String> {
            (0..32u32)
                .map(|i| format!("user{i}"))
                .filter(|name| ring.owner(name) == Some(node))
                .take(2)
                .collect()
        };
        let missing: Vec<String> = [owned_by("node-a"), owned_by("node-b")].concat();
        assert_eq!(missing.len(), 4, "32 names must give 2 owned by each node");

        let joiner_store = ShardedPasswordStore::new(2);
        for record in peer_store.records() {
            if !missing.contains(&record.username) {
                joiner_store
                    .apply_replicated(&WalEntry::Update(record).to_payload())
                    .unwrap();
            }
        }
        assert_eq!(joiner_store.len(), 28);

        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let joiner = Replicator::new("node-b", peers, ReplicatorConfig::default());
        let report = joiner.catch_up(&joiner_store);
        assert!(report.failed_peers.is_empty(), "{report:?}");
        assert_eq!(report.ranges_divergent, 2, "{report:?}");
        assert_eq!(report.records_pulled, 4, "only the missing records stream");
        assert_eq!(report.records_pushed, 0, "{report:?}");
        assert_eq!(
            joiner_store.range_digest(|_| true),
            peer_store.range_digest(|_| true)
        );
        listener.shutdown();
    }

    /// An interrupted transfer leaves a durable prefix; the next catch-up
    /// moves only the rest, and a repeat finds nothing left to move.
    #[test]
    fn interrupted_catch_up_resumes_with_only_the_rest() {
        let sys = system();
        let peer_store = peer_store(&sys, 16);
        let joiner_store = ShardedPasswordStore::new(2);
        for record in peer_store.records().into_iter().take(5) {
            joiner_store
                .apply_replicated(&WalEntry::Update(record).to_payload())
                .unwrap();
        }
        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let joiner = Replicator::new("node-b", peers, ReplicatorConfig::default());

        let resumed = joiner.catch_up(&joiner_store);
        assert!(resumed.failed_peers.is_empty(), "{resumed:?}");
        assert_eq!(resumed.records_pulled, 11);
        assert_eq!(joiner_store.len(), 16, "resume converges to the full set");

        let repeat = joiner.catch_up(&joiner_store);
        assert!(repeat.failed_peers.is_empty(), "{repeat:?}");
        assert_eq!(repeat.ranges_divergent, 0, "{repeat:?}");
        assert_eq!(repeat.records_pulled, 0, "{repeat:?}");
        listener.shutdown();
    }

    /// As the backup of a range, the joiner sends the primary the records
    /// only the joiner holds (primary-wins, driven from the backup side).
    #[test]
    fn catch_up_as_backup_sends_what_only_it_holds() {
        let sys = system();
        let ring = HashRing::with_nodes(["node-a", "node-b"]);
        let name = (0..64u32)
            .map(|i| format!("user{i}"))
            .find(|name| ring.owner(name) == Some("node-a"))
            .unwrap();
        let joiner_store = ShardedPasswordStore::new(2);
        let record = sys.enroll(&name, &clicks(3)).unwrap();
        joiner_store
            .apply_replicated(&WalEntry::Update(record).to_payload())
            .unwrap();

        let peer_store = Arc::new(ShardedPasswordStore::new(2));
        let mut listener = spawn_replication_listener("node-a", Arc::clone(&peer_store)).unwrap();
        let peers = BTreeMap::from([("node-a".to_string(), listener.addr())]);
        let joiner = Replicator::new("node-b", peers, ReplicatorConfig::default());
        let report = joiner.catch_up(&joiner_store);
        assert!(report.failed_peers.is_empty(), "{report:?}");
        assert_eq!(report.records_pushed, 1, "{report:?}");
        assert_eq!(report.records_pulled, 0, "{report:?}");
        assert!(peer_store.verify(&sys, &name, &clicks(3)).unwrap());
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
        let peers = BTreeMap::from([("node-a".to_string(), dead_addr)]);
        let joiner = Replicator::new("node-b", peers, ReplicatorConfig::default());
        let store = ShardedPasswordStore::new(2);
        let report = joiner.catch_up(&store);
        assert_eq!(report.failed_peers, vec!["node-a".to_string()]);
        assert_eq!(report.records_pulled, 0);
        assert_eq!(report.ranges_divergent, 0);
        assert_eq!(joiner.replication_stats().sync_failures, 1);
        assert!(joiner.is_live("node-a"), "catch-up must never evict");
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
                .apply_replicated(&WalEntry::Update(record.clone()).to_payload())
                .unwrap();
            backup_store
                .apply_replicated(&WalEntry::Update(record).to_payload())
                .unwrap();
        }
        // Divergence: the backup lost one record, and holds one record
        // the primary never saw (written while the primary was away).
        let lost = &mine[2];
        let late = &mine[12];
        assert!(backup_store.remove(lost).unwrap(), "record was present");
        let unseen = sys.enroll(late, &clicks(77)).unwrap();
        backup_store
            .apply_replicated(&WalEntry::Update(unseen).to_payload())
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
        )
        .unwrap();
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
