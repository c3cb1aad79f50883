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
//!   the online-attack countermeasure, sharded by account hash and bounded
//!   in memory against username-spraying attacks.
//! * [`batch`] — the [`batch::BatchVerifier`], which hashes the login and
//!   enrollment attempts the reactor coalesced across connections as
//!   single multi-lane [`gp_crypto::iterated_hash_many_salted`] runs.
//! * [`server`] — the serving layer over a
//!   [`GraphicalPasswordSystem`](gp_passwords::GraphicalPasswordSystem)
//!   and a [`ShardedPasswordStore`](gp_passwords::ShardedPasswordStore):
//!   protocol logic served through the reactor, with graceful shutdown
//!   and per-thread metrics.  With [`server::DurabilityConfig`] set, the store is
//!   crash-safe: every enrollment is written (and, per the configured
//!   [`gp_passwords::FsyncPolicy`], fsynced) to a per-shard write-ahead
//!   log *before* the `Enroll` frame is acknowledged, a background
//!   thread compacts logs into atomic snapshots, and a restart recovers
//!   snapshots + WAL tails — no acked account is ever lost.
//! * [`reactor`] (Linux) — the serving path: one `epoll` thread owns
//!   every connection's nonblocking state machine and a dedicated
//!   hash-compute pool drains prepared verify jobs, so connection count
//!   is decoupled from thread count.  There is no other path: off Linux
//!   [`server::AuthServer::spawn`] returns
//!   [`std::io::ErrorKind::Unsupported`].
//! * [`sys`] (Linux) — the minimal `epoll`/`eventfd` FFI the reactor
//!   stands on (std already links libc; no crates involved).
//! * [`client`] — a blocking client (with a pipelined burst API) used by
//!   the examples, integration tests and [`cluster::ClusterClient`]; an
//!   opt-in [`client::RetryPolicy`] absorbs transient connection deaths
//!   during failovers under capped exponential backoff with jitter.
//! * [`replication`] — WAL-streaming replication between nodes: each
//!   enrollment's WAL record is streamed to the account's backup node
//!   (chosen on a consistent-hash ring) and, in sync mode, acknowledged
//!   to the client only after the backup's durable apply.  Failure
//!   handling is crash-only: a peer whose stream dies twice is evicted
//!   from the ring and replicas re-route to the next successor.  Two
//!   back-fill paths keep replicas complete: **catch-up**
//!   ([`replication::catch_up_from_peers`]) streams a (re)joining node a
//!   snapshot of every record it backs, and **anti-entropy**
//!   ([`replication::spawn_anti_entropy`]) periodically digest-compares
//!   each primary→backup range and repairs divergence record-by-record.
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
//!    │ drain ≤ pipeline_max frames per ready connection
//!    ▼
//! prepare: shard lookup ─ discretize ─ provenance          (reactor thread)
//!    │ turns with hash jobs                 │ turns with none
//!    ▼                                      ▼ settle inline
//! turn queue ──► hash-compute pool (M threads)
//!                    │ coalesce turns, ≤ batch_max jobs
//!                    ▼
//!            BatchVerifier (multi-lane iterated_hash_many_salted)
//!                    │ digests ─ settle ─ encode
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

pub mod acks;
pub mod batch;
pub mod client;
pub mod cluster;
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

pub use batch::{BatchStats, BatchVerifier, HashJob};
pub use client::{AuthClient, RetryPolicy};
pub use cluster::{Cluster, ClusterClient};
pub use error::NetAuthError;
pub use framing::{FrameReader, FrameWriter, WriteBuffer, MAX_FRAME_LEN};
pub use gp_passwords::FsyncPolicy;
pub use lockout::LockoutTracker;
pub use protocol::{ClientMessage, LoginDecision, ServerMessage};
pub use replication::{
    catch_up_from_peers, spawn_anti_entropy, AntiEntropyHandle, AntiEntropyRound, CatchupOptions,
    CatchupReport, PeerCatchup, ReplicaMessage, ReplicationHandle, ReplicationMode,
    ReplicationSink, ReplicationStats, Replicator, ReplicatorConfig,
};
pub use server::{
    AuthServer, DurabilityConfig, ServerConfig, ServerHandle, ServerStats, ServingMode,
    WorkerMetrics, WorkerStatsSnapshot,
};
