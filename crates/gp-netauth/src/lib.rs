//! Networked authentication substrate.
//!
//! The paper's deployment model is a client that captures click coordinates
//! and a server that holds only `(clear grid identifiers, hash)` per
//! account and decides logins — including throttling online guessing
//! attacks (§5.1).  This crate provides that substrate as a sharded,
//! pipelined TCP service:
//!
//! * [`protocol`] — the wire messages (enroll, login, result) with a
//!   versioned binary encoding built on [`bytes`].
//! * [`framing`] — length-prefixed frames with an integrity tag over any
//!   `Read`/`Write` transport, with pipelining support (non-blocking
//!   detection of already-buffered frames, buffered multi-frame writes)
//!   and a fault-injecting wrapper used in tests (dropping and corrupting
//!   frames, in the spirit of smoltcp's fault injection options).
//! * [`lockout`] — per-account consecutive-failure tracking implementing
//!   the online-attack countermeasure, sharded by account hash.  Only a
//!   success or a reset clears a count, and the server lets it hold at
//!   most one entry per enrolled account.
//! * [`server`] — the serving layer over a
//!   [`GraphicalPasswordSystem`](gp_passwords::GraphicalPasswordSystem)
//!   and a [`ShardedPasswordStore`](gp_passwords::ShardedPasswordStore):
//!   protocol logic served through the reactor, with graceful shutdown
//!   and per-thread metrics.  Its hash step runs each batch the reactor
//!   coalesced across connections as one multi-lane
//!   [`gp_crypto::iterated_hash_many_salted_into`] call.  With
//!   [`server::DurabilityConfig`] set, the store is crash-safe: every
//!   enrollment is written and fsynced to the node's write-ahead
//!   log *before* the `Enroll` frame is acknowledged, a background
//!   thread compacts the log into atomic snapshots, and a restart recovers
//!   snapshots + the log — no acked account is ever lost.
//! * [`reactor`] (Linux) — the one serving path, for both protocols:
//!   one `epoll` thread owns every connection's nonblocking state machine
//!   and a fixed pool of compute threads answers the turns it cuts, so
//!   connection count is decoupled from thread count.  Off Linux
//!   [`server::AuthServer::spawn`] and the replication listener return
//!   [`std::io::ErrorKind::Unsupported`].
//! * [`sys`] (Linux) — the minimal `epoll`/`eventfd` FFI the reactor
//!   stands on (std already links libc; no crates involved).
//! * [`client`] — a blocking client (with a pipelined burst API) used by
//!   the examples, integration tests and [`cluster::ClusterClient`].  It
//!   never resends: a dropped connection surfaces as an error, and
//!   [`cluster::ClusterClient`] decides where to fail over.
//! * [`replication`] — WAL-streaming replication between nodes: each
//!   enrollment's WAL record is streamed to the account's backup node
//!   (chosen on a consistent-hash ring) and acknowledged to the client
//!   only after the backup's durable apply.  The replica side is one
//!   transport-free function from a message to its replies, served by a
//!   second instance of the reactor.  Each peer connection is
//!   request/response on the sending thread: a group is pipelined and
//!   its acks read back on the same socket.  Failure handling is
//!   crash-only: a peer whose stream dies twice is evicted from the ring
//!   and replicas re-route to the next successor.  One back-fill path
//!   keeps replicas complete: a digest-exchange round that compares
//!   primary→backup ranges and repairs divergence record-by-record.
//!   **Anti-entropy** ([`replication::spawn_anti_entropy`]) runs it
//!   periodically over the ranges a node is primary for, and
//!   **catch-up** ([`replication::Replicator::catch_up`]) runs it once
//!   over every range a (re)joining node holds.
//! * [`cluster`] — a loopback [`cluster::Cluster`] of replicated nodes
//!   with crash-only fault hooks (kill / sever / restart) and the
//!   ring-routing [`cluster::ClusterClient`], whose transport-failure
//!   handling promotes exactly the node holding an account's replica.
//!   A restarted node is ring-admitted but traffic-gated until catch-up
//!   completes.  The kill-under-load harness (`tests/cluster_failover.rs`)
//!   proves no acked enrollment is ever lost — including across a kill +
//!   rejoin.
//!
//! # Request flow
//!
//! ```text
//! epoll: accept ─ read-ready ─ write-ready ─ completions   (1 thread)
//!    │ drain ≤ 32 frames per ready connection
//!    ▼
//! prepare: shard lookup ─ discretize ─ provenance          (reactor thread)
//!    │ turns with hash jobs                 │ turns with none
//!    ▼                                      ▼ settle inline
//! turn queue ──► hash-compute pool (M threads)
//!                    │ coalesce turns until ≥ LANES jobs
//!                    ▼
//!            hash step (one iterated_hash_many_salted_into call)
//!                    │ digests ─ settle ─ group commit ─ encode
//!                    ▼
//!            completion queue ─ eventfd ──► reactor writes responses
//! ```
//!
//! The protocol remains deliberately simple (length-prefixed frames, no
//! TLS): it exists to demonstrate and test the password subsystem under
//! its intended deployment shape, not to be an internet-facing service.

// `sys` is the one module allowed to contain `unsafe` (the epoll FFI); it
// opts in locally, everything else stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
#[cfg(test)]
mod cluster_explorer;
pub mod error;
pub mod framing;
pub mod lockout;
pub mod pending;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod replication;
pub mod server;
#[cfg(target_os = "linux")]
pub mod sys;

pub use client::AuthClient;
pub use cluster::{Cluster, ClusterClient};
pub use error::NetAuthError;
pub use framing::{FrameReader, FrameWriter, WriteBuffer, MAX_FRAME_LEN};
pub use lockout::LockoutTracker;
pub use protocol::{ClientMessage, LoginDecision, ServerMessage};
pub use replication::{
    spawn_anti_entropy, AntiEntropyHandle, AntiEntropyRound, ReplicaMessage, ReplicationHandle,
    ReplicationSink, ReplicationStats, Replicator, ReplicatorConfig,
};
pub use server::{
    AuthServer, BatchStats, DurabilityConfig, ServerConfig, ServerHandle, ServerStats, ServingMode,
    WorkerMetrics, WorkerStatsSnapshot,
};
