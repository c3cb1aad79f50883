//! Sharded, pipelined TCP authentication server.
//!
//! The serving path is built for concurrency in three layers:
//!
//! 1. **Sharded state** — accounts live in a
//!    [`ShardedPasswordStore`] and failure counts in a sharded
//!    [`LockoutTracker`], so serving threads contend only when they touch
//!    the same partition.  The store caches no hashing state: a login's
//!    lookup derives the account's salt and absorbs it, about two
//!    compressions.
//!    A login for an unknown name is refused before the tracker sees it,
//!    so failure state never outgrows the enrolled accounts.  It lives in
//!    this process only: a restart resets every count.
//! 2. **Connection multiplexing** — [`AuthServer::spawn`] serves through
//!    the `epoll` reactor ([`crate::reactor`]), which decouples
//!    connections from threads.  It is the only serving path; off Linux,
//!    where there is no epoll, `spawn` returns
//!    [`std::io::ErrorKind::Unsupported`].  A serving turn drains the
//!    request frames already buffered on a connection (up to 32) and
//!    answers in order, so a client may keep many requests in flight and
//!    per-request syscall cost amortizes across the pipeline.
//! 3. **Cross-connection batch hashing** — the reactor's turn queue
//!    coalesces turns until their expensive iterated hashes fill the
//!    [`gp_crypto::LANES`] lanes (from one pipeline or from many
//!    connections), and the server's hash step runs the whole coalesced
//!    batch as one [`gp_crypto::iterated_hash_many_salted_into`] call.
//!
//! Request handling stays a pure function ([`AuthServer::handle_message`])
//! so the protocol logic is unit-testable without sockets; the turn
//! phases (prepare / batch hash / settle) it runs are the ones the
//! reactor's state machines drive.

use crate::error::NetAuthError;
use crate::framing::FrameWriter;
use crate::lockout::LockoutTracker;
use crate::pending::PendingAccounts;
use crate::protocol::{ClientMessage, LoginDecision, ServerMessage};
use crate::replication::ReplicationSink;
use bytes::Bytes;
use gp_crypto::{iterated_hash_many_salted_into, Digest, SaltedHasher};
use gp_geometry::{ImageDims, Point};
use gp_passwords::{
    DiscretizationConfig, DurabilityOptions, GraphicalPasswordSystem, PasswordPolicy, ShardStats,
    ShardedPasswordStore, StoredPassword, VerifyScratch, WalEntry,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub(crate) use crate::reactor::spawn_reactor;

/// Consecutive undecodable/corrupt frames tolerated on one connection
/// before the server gives up on it (a desynced or hostile peer).
const MAX_CONSECUTIVE_PROTOCOL_ERRORS: u32 = 32;

/// Default [`ServerConfig::write_timeout`]: a peer that accepts no
/// response bytes for this long (it stopped reading) is closed by the
/// reactor's stall sweep instead of pinning its buffers.  The replica
/// event loop uses it too, and a replication requester's socket uses it
/// as its write timeout.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How connections are multiplexed onto threads.  The reactor is the only
/// serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingMode {
    /// Event-driven `epoll` reactor (Linux): one reactor thread owns every
    /// connection's nonblocking state machine and a small hash-compute
    /// pool does the iterated hashing, so connection count is decoupled
    /// from thread count.
    Reactor,
}

/// Crash-safety knobs for the serving layer's account store.
///
/// When set on [`ServerConfig::durability`], the store is opened with
/// [`ShardedPasswordStore::open_durable`]: every enrollment is appended to
/// the node's write-ahead log and fsynced *before* the `Enroll` frame is
/// acknowledged, a background thread compacts the log into per-shard
/// snapshots once it passes `snapshot_threshold_bytes`, without blocking
/// verifies, and a restart recovers the newest intact snapshots plus the
/// log's intact records.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding the per-shard snapshots (`shard-NNN.pwd`) and
    /// the node's one write-ahead log, in numbered segments
    /// (`log-NNNNNNNNNN.wal`).
    pub dir: PathBuf,
    /// Log size (bytes, across its segments) past which the background
    /// snapshot thread compacts the store.
    pub snapshot_threshold_bytes: u64,
    /// How often the background snapshot thread checks the thresholds.
    pub snapshot_interval: Duration,
}

impl DurabilityConfig {
    /// Defaults at `dir`: compact once the log passes 1 MiB, check
    /// every 200 ms.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_threshold_bytes: 1024 * 1024,
            snapshot_interval: Duration::from_millis(200),
        }
    }

    fn options(&self) -> DurabilityOptions {
        DurabilityOptions {
            snapshot_threshold_bytes: self.snapshot_threshold_bytes,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Image dimensions the deployment uses.
    pub image: ImageDims,
    /// Discretization scheme and tolerance.
    pub discretization: DiscretizationConfig,
    /// Clicks per password.
    pub clicks: usize,
    /// Hash iteration count for stored passwords.
    pub hash_iterations: u32,
    /// Consecutive failures before an account locks (0 = never).
    pub max_failures: u32,
    /// Partitions for the account store and lockout tracker.
    pub shards: usize,
    /// Hash-compute threads (the reactor adds one event-loop thread).
    pub workers: usize,
    /// How connections are multiplexed onto threads.  [`ServingMode`] has
    /// the single value [`ServingMode::Reactor`]; the field stays so
    /// configurations that name it keep building.
    pub serving: ServingMode,
    /// Maximum simultaneously open connections (further accepts are
    /// immediately closed).
    pub max_connections: usize,
    /// How long a connection may go without sending a complete request
    /// frame before the reactor's idle sweep drops it, so idle or
    /// byte-trickling peers cannot hold connection slots forever.
    /// `Duration::ZERO` disables the limit.
    pub idle_timeout: Duration,
    /// How long a peer may accept *no* response bytes before the
    /// connection is declared dead: the reactor sweeps connections whose
    /// pending output made no progress for this long.  `Duration::ZERO`
    /// disables the limit.
    pub write_timeout: Duration,
    /// Crash-safe durability for the account store (`None` = in-memory:
    /// the pre-durability behavior, and the right choice for benches and
    /// tests that never restart).
    pub durability: Option<DurabilityConfig>,
}

impl ServerConfig {
    /// A PassPoints-style deployment with Centered Discretization (r = 9)
    /// on the study image, three-strikes lockout, four shards and four
    /// hash-compute threads.
    pub fn study_default() -> Self {
        Self {
            image: ImageDims::STUDY,
            discretization: DiscretizationConfig::centered(9),
            clicks: 5,
            hash_iterations: 1000,
            max_failures: 3,
            shards: 4,
            workers: 4,
            serving: ServingMode::Reactor,
            max_connections: 4096,
            idle_timeout: Duration::from_secs(10),
            write_timeout: WRITE_TIMEOUT,
            durability: None,
        }
    }

    /// The same deployment with a reduced iteration count, for tests.
    pub fn fast_for_tests() -> Self {
        Self {
            hash_iterations: 2,
            ..Self::study_default()
        }
    }
}

/// Per-thread serving counters (atomics; [`ServerHandle::stats`] snapshots
/// them into [`WorkerStatsSnapshot`]s).  The first entry belongs to the
/// reactor's event-loop thread and the rest to hash-compute threads.
#[derive(Debug, Default)]
pub struct WorkerMetrics {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) logins: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
}

/// Point-in-time copy of one serving thread's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStatsSnapshot {
    /// Position in [`ServerStats::workers`]: 0 is the event loop, `1..`
    /// the hash-compute threads.
    pub worker: usize,
    /// Connections this thread has accepted (the event loop accepts
    /// them all).
    pub connections: u64,
    /// Requests answered (all message kinds).
    pub requests: u64,
    /// Login attempts processed.
    pub logins: u64,
    /// Corrupt or undecodable frames answered with protocol errors.
    pub protocol_errors: u64,
}

impl WorkerMetrics {
    fn snapshot(&self, worker: usize) -> WorkerStatsSnapshot {
        WorkerStatsSnapshot {
            worker,
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            logins: self.logins.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Aggregate serving statistics: per-worker, per-shard and batching.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// One snapshot per serving thread: entry 0 is the reactor's event
    /// loop, then one entry per hash-compute thread
    /// ([`ServerConfig::workers`]).  Request counts sum to the requests
    /// answered.
    pub workers: Vec<WorkerStatsSnapshot>,
    /// Account-store shard sizes and traffic.
    pub shards: Vec<ShardStats>,
    /// Hash-step coalescing counters.
    pub batch: BatchStats,
    /// Replication and anti-entropy repair counters, when a sink that
    /// tracks them (a [`crate::replication::Replicator`]) is attached.
    pub replication: Option<crate::replication::ReplicationStats>,
}

/// Hash-run occupancy counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Hash calls run, one per coalesced batch.
    pub runs: u64,
    /// Individual attempts hashed through those runs.
    pub attempts: u64,
    /// Largest single run.
    pub max_run: u64,
    /// Runs of at least [`gp_crypto::LANES`] attempts: every lane of the
    /// portable kernel filled.
    pub full_runs: u64,
}

impl BatchStats {
    /// Mean attempts coalesced per hash run (1.0 = no coalescing happened).
    pub fn mean_batch(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.attempts as f64 / self.runs as f64
        }
    }
}

/// The live counters behind [`BatchStats`].
#[derive(Debug, Default)]
struct BatchCounters {
    runs: AtomicU64,
    attempts: AtomicU64,
    max_run: AtomicU64,
    full_runs: AtomicU64,
}

impl BatchCounters {
    fn stats(&self) -> BatchStats {
        BatchStats {
            runs: self.runs.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            max_run: self.max_run.load(Ordering::Relaxed),
            full_runs: self.full_runs.load(Ordering::Relaxed),
        }
    }
}

/// One hash job: iterate `salt || pre_image` under the account's salt.
struct HashJob {
    /// Precomputed per-salt hashing state for the account under attempt.
    hasher: SaltedHasher,
    /// The encoded attempt (output of `prepare_verify` / `prepare_enroll`).
    pre_image: Vec<u8>,
}

/// What phase 1 of request processing decided for one pipelined request.
enum Planned {
    /// Response is already known (cheap messages, protocol errors,
    /// unknown accounts, structurally invalid enrollments).
    Respond(ServerMessage),
    /// A login that cannot match (structural failure, foreign provenance,
    /// or already locked): settle against the lockout in order, no hash.
    LoginNoHash { username: String },
    /// A login whose hash job `job_index` is in flight with the hash step.
    LoginHashed {
        username: String,
        stored: Box<StoredPassword>,
        job_index: usize,
    },
    /// An enrollment whose record is complete except for the digest being
    /// computed by hash job `job_index`.  Settling installs the digest and
    /// inserts the account (duplicate-checked under the shard lock).
    EnrollHashed {
        record: Box<StoredPassword>,
        job_index: usize,
    },
}

/// One settled enrollment awaiting its group-commit barrier: which
/// response to patch if the barrier fails, which shard to flush, and the
/// record clone to stream to the replication sink (when one is attached).
struct EnrollCommit {
    response_index: usize,
    username: String,
    shard: usize,
    entry: Option<WalEntry>,
}

/// One turn after phase 3 ([`AuthServer::settle_turn`]): the in-order
/// responses, plus the enrollments whose `EnrollOk`s are provisional
/// until [`AuthServer::commit_enrolls`] runs their barrier.
struct SettledTurn {
    responses: Vec<ServerMessage>,
    enrolls: Vec<EnrollCommit>,
}

/// The authentication server.
#[derive(Debug)]
pub struct AuthServer {
    config: ServerConfig,
    system: GraphicalPasswordSystem,
    store: Arc<ShardedPasswordStore>,
    lockout: Arc<LockoutTracker>,
    /// Counters of the hash step ([`AuthServer::hash_batch`]).
    batch: BatchCounters,
    /// Accounts whose enrollment is accepted but not yet group-committed
    /// (the per-account write barrier).
    pub(crate) pending: PendingAccounts,
    /// When set, every successful enrollment is streamed here before the
    /// `EnrollOk` is released (see [`crate::replication`]).
    replication: Option<Arc<dyn ReplicationSink>>,
}

impl AuthServer {
    /// Create a server with an in-memory account store.  Panics if
    /// [`ServerConfig::durability`] is set and the store cannot be
    /// opened — durable deployments should call [`AuthServer::open`].
    pub fn new(config: ServerConfig) -> Self {
        // gp-lint: allow(L4, documented panic contract; durable configs use AuthServer::open)
        Self::open(config).expect("open account store (use AuthServer::open for durable configs)")
    }

    /// Create a server, opening (and crash-recovering) the durable
    /// account store when [`ServerConfig::durability`] is set.
    pub fn open(config: ServerConfig) -> Result<Self, NetAuthError> {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::new(config.image, config.clicks),
            config.discretization,
            config.hash_iterations,
        );
        let store = Arc::new(match &config.durability {
            Some(durability) => ShardedPasswordStore::open_durable(
                &durability.dir,
                config.shards,
                durability.options(),
            )?,
            None => ShardedPasswordStore::new(config.shards),
        });
        // One failure map shard per store shard; the tracker takes no
        // capacity, since it only ever holds enrolled accounts.
        let lockout = Arc::new(LockoutTracker::with_limits(
            config.max_failures,
            0,
            config.shards,
        ));
        Ok(Self {
            config,
            system,
            store,
            lockout,
            batch: BatchCounters::default(),
            pending: PendingAccounts::new(),
            replication: None,
        })
    }

    /// Attach a replication sink: from now on an enrollment is only
    /// acknowledged after the `sink.replicate_group(..)` call covering its
    /// group commit returns (which, for a synchronous
    /// [`crate::replication::Replicator`], means the record is durable on
    /// the account's backup node too).
    pub fn with_replication(mut self, sink: Arc<dyn ReplicationSink>) -> Self {
        self.replication = Some(sink);
        self
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The sharded account store (shared; useful for pre-seeding accounts
    /// in tests, examples and benches).
    pub fn store(&self) -> Arc<ShardedPasswordStore> {
        Arc::clone(&self.store)
    }

    /// The lockout tracker.
    pub fn lockout(&self) -> Arc<LockoutTracker> {
        Arc::clone(&self.lockout)
    }

    /// The underlying password system.
    pub fn system(&self) -> &GraphicalPasswordSystem {
        &self.system
    }

    /// Handle a single request (protocol logic, no I/O).
    ///
    /// Logins and enrollments run the same split-phase prepare / hash /
    /// settle path the reactor drives, hashing on the calling thread
    /// through the same hash step.
    pub fn handle_message(&self, message: ClientMessage) -> ServerMessage {
        let mut jobs = Vec::new();
        let planned = match message {
            ClientMessage::GetConfig => return self.config_message(),
            ClientMessage::Quit => return ServerMessage::Goodbye,
            ClientMessage::Enroll { username, clicks } => {
                self.prepare_enroll(username, &clicks, &mut jobs)
            }
            ClientMessage::Login { username, clicks } => {
                self.prepare_login(username, &clicks, &mut VerifyScratch::new(), &mut jobs)
            }
        };
        let turn = HashTurn {
            planned: vec![planned],
            jobs,
        };
        self.settle_batch(vec![turn])
            .concat()
            .pop()
            .unwrap_or_else(|| ServerMessage::Error {
                reason: "internal: settle produced no response".to_string(),
            })
    }

    /// Phase 2, the hash step: hash a whole coalesced batch on the calling
    /// thread in one [`iterated_hash_many_salted_into`] call, which splits
    /// it into kernel-sized groups itself.  Every job iterates
    /// [`GraphicalPasswordSystem::iterations`]: an enrollment's record is
    /// built under it, and a login whose record was stored under another
    /// count fails `prepare_verify_from_store`'s provenance check before
    /// any job exists.  Returns one digest per job, in input order.
    fn hash_batch(&self, jobs: &[HashJob]) -> Vec<Digest> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let mut digests = Vec::with_capacity(jobs.len());
        let hashers: Vec<&SaltedHasher> = jobs.iter().map(|job| &job.hasher).collect();
        let pre_images: Vec<&[u8]> = jobs.iter().map(|job| job.pre_image.as_slice()).collect();
        iterated_hash_many_salted_into(
            &hashers,
            &pre_images,
            self.system.iterations(),
            &mut digests,
        );
        let len = jobs.len() as u64;
        let counters = &self.batch;
        counters.runs.fetch_add(1, Ordering::Relaxed);
        counters.attempts.fetch_add(len, Ordering::Relaxed);
        counters.max_run.fetch_max(len, Ordering::Relaxed);
        if jobs.len() >= gp_crypto::LANES {
            counters.full_runs.fetch_add(1, Ordering::Relaxed);
        }
        digests
    }

    /// The `GetConfig` answer: the deployment's scheme and click count.
    fn config_message(&self) -> ServerMessage {
        ServerMessage::Config {
            scheme: self.config.discretization.to_header(),
            clicks: self.config.clicks as u32,
        }
    }

    /// Phase 1 of enrollment handling: validate, discretize and build the
    /// digest-less record, appending the enrollment hash as a [`HashJob`]
    /// — enrollment hashes cost the same `h^k` as logins, so they must go
    /// through the batch pipeline too (never the reactor's event-loop
    /// thread), and they batch with concurrent logins.
    fn prepare_enroll(
        &self,
        username: String,
        clicks: &[Point],
        jobs: &mut Vec<HashJob>,
    ) -> Planned {
        match self.system.prepare_enroll(&username, clicks) {
            Err(e) => Planned::Respond(ServerMessage::Error {
                reason: e.to_string(),
            }),
            Ok((record, pre_image)) => {
                // The account is pending from this moment until the
                // enrollment's group commit (or its settle-time refusal):
                // a login for it parks instead of racing the barrier.
                self.pending.begin(&record.username);
                let job_index = jobs.len();
                jobs.push(HashJob {
                    hasher: SaltedHasher::new(&record.hash.salt),
                    pre_image,
                });
                Planned::EnrollHashed {
                    record: Box::new(record),
                    job_index,
                }
            }
        }
    }

    /// Phase 1 of login handling: everything cheap.  Looks the account up
    /// in its shard, discretizes and encodes the attempt, checks
    /// provenance, and either settles immediately or appends a [`HashJob`]
    /// to `jobs` for the hash step.
    ///
    /// The job carries the account's per-salt hashing state
    /// ([`ShardedPasswordStore::get_cached`]), built on lookup: deriving
    /// the one-block salt and absorbing it costs about two compressions,
    /// paid once per login, since the store derived the record's salt and
    /// provenance does not derive it again.
    fn prepare_login(
        &self,
        username: String,
        clicks: &[Point],
        scratch: &mut VerifyScratch,
        jobs: &mut Vec<HashJob>,
    ) -> Planned {
        let Some((stored, hasher)) = self.store.get_cached(&username) else {
            return Planned::Respond(ServerMessage::Error {
                reason: format!("unknown account {username:?}"),
            });
        };
        if self.lockout.is_locked(&username) {
            // Definitely locked now; settle in order at finish time (where
            // the decision is re-checked) without paying for a hash.
            return Planned::LoginNoHash { username };
        }
        match self
            .system
            .prepare_verify_from_store(&stored, clicks, scratch)
        {
            // Structurally invalid attempts (wrong click count, clicks
            // outside the image) are failures; so are records whose
            // domain/iteration provenance can never match this system.
            Err(_) | Ok(None) => Planned::LoginNoHash { username },
            Ok(Some(pre_image)) => {
                let job_index = jobs.len();
                jobs.push(HashJob { hasher, pre_image });
                Planned::LoginHashed {
                    username,
                    stored: Box::new(stored),
                    job_index,
                }
            }
        }
    }

    /// Phase 3 for a whole turn: settle every planned request against the
    /// lockout state, in pipeline order, and produce the in-order
    /// responses.  `digests` are the turn's hash results, indexed by each
    /// job's `job_index`.
    ///
    /// Enrollments are settled *provisionally*: the record lands in the
    /// in-memory store and its WAL append is staged (no fsync), the
    /// response slot holds `EnrollOk`, and an [`EnrollCommit`] remembers
    /// the slot.  Nothing from the returned [`SettledTurn`] may reach a
    /// client until [`AuthServer::commit_enrolls`] runs the group-commit
    /// barrier over it.
    fn settle_turn(&self, planned: Vec<Planned>, digests: &[Digest]) -> SettledTurn {
        let mut enrolls = Vec::new();
        let responses = planned
            .into_iter()
            .enumerate()
            .map(|(index, plan)| match plan {
                Planned::Respond(response) => response,
                Planned::LoginNoHash { username } => self.finish_login(&username, None),
                Planned::LoginHashed {
                    username,
                    stored,
                    job_index,
                } => {
                    let matched = self.system.finish_verify(&stored, &digests[job_index]);
                    self.store.note_verified(&username);
                    self.finish_login(&username, Some(matched))
                }
                Planned::EnrollHashed { record, job_index } => {
                    let record =
                        GraphicalPasswordSystem::finish_enroll(*record, digests[job_index]);
                    let username = record.username.clone();
                    // Clone taken only when a sink is attached: the local
                    // insert consumes the record, the sink streams the copy.
                    let entry = self
                        .replication
                        .as_ref()
                        .map(|_| WalEntry::Enroll(record.clone()));
                    match self.store.insert_new_deferred(record) {
                        Ok(shard) => {
                            enrolls.push(EnrollCommit {
                                response_index: index,
                                username,
                                shard,
                                entry,
                            });
                            // Provisional: patched to an error if the group
                            // commit (or replication) fails.
                            ServerMessage::EnrollOk
                        }
                        Err(e) => {
                            // Refused before any WAL append: the account
                            // barrier lifts right here.
                            self.pending.end(&username);
                            ServerMessage::Error {
                                reason: e.to_string(),
                            }
                        }
                    }
                }
            })
            .collect();
        SettledTurn { responses, enrolls }
    }

    /// Phase 4: the group-commit barrier.  One `fsync` per distinct shard
    /// across *all* the turns in the batch, then one grouped replication
    /// round, then every pending account barrier lifts.  On failure the
    /// provisional `EnrollOk`s are patched to errors in place — callers
    /// must not have released any response before this returns.
    fn commit_enrolls(&self, turns: &mut [SettledTurn]) {
        if turns.iter().all(|turn| turn.enrolls.is_empty()) {
            return;
        }
        let committed = self.store.commit_shards(
            turns
                .iter()
                .flat_map(|turn| turn.enrolls.iter().map(|enroll| enroll.shard)),
        );
        // Backup acks join the same barrier: all of the batch's
        // entries stream out pipelined and one ack-wait covers them,
        // instead of a send/wait round-trip per enrollment.
        let replicated = match (&committed, &self.replication) {
            (Ok(()), Some(sink)) => {
                let entries: Vec<WalEntry> = turns
                    .iter_mut()
                    .flat_map(|turn| turn.enrolls.iter_mut().filter_map(|e| e.entry.take()))
                    .collect();
                if entries.is_empty() {
                    Ok(())
                } else {
                    sink.replicate_group(&entries)
                }
            }
            _ => Ok(()),
        };
        for turn in turns.iter_mut() {
            for enroll in &turn.enrolls {
                if let Err(e) = &committed {
                    turn.responses[enroll.response_index] = ServerMessage::Error {
                        reason: e.to_string(),
                    };
                } else if let Err(e) = &replicated {
                    turn.responses[enroll.response_index] = ServerMessage::Error {
                        reason: format!("replication failed: {e}"),
                    };
                }
                self.pending.end(&enroll.username);
            }
        }
    }

    /// Phases 2 to 4 for a coalesced batch of turns: hash every turn's
    /// jobs in one call, settle the turns in order, then run one
    /// group-commit barrier for the whole batch — one fsync per touched
    /// shard (and one grouped replication round) covers every enrollment,
    /// and only then may the `EnrollOk`s travel back toward the wire.
    /// Returns each turn's responses.
    fn settle_batch(&self, mut batch: Vec<HashTurn>) -> Vec<Vec<ServerMessage>> {
        let counts: Vec<usize> = batch.iter().map(|turn| turn.jobs.len()).collect();
        let jobs: Vec<HashJob> = batch
            .iter_mut()
            .flat_map(|turn| turn.jobs.drain(..))
            .collect();
        let digests = self.hash_batch(&jobs);
        let mut offset = 0;
        let mut settled: Vec<SettledTurn> = batch
            .into_iter()
            .zip(counts)
            .map(|(turn, count)| {
                offset += count;
                self.settle_turn(turn.planned, &digests[offset - count..offset])
            })
            .collect();
        self.commit_enrolls(&mut settled);
        settled.into_iter().map(|turn| turn.responses).collect()
    }

    /// Phase 2 of login handling: settle one attempt against the lockout
    /// state, in pipeline order.  `verdict` is `Some(matched)` for hashed
    /// attempts and `None` for attempts that could not match.
    ///
    /// Lock check and count update happen under one shard-lock acquisition
    /// ([`LockoutTracker::settle_attempt`]), so concurrent wrong attempts
    /// from different connections can never report a failure count past
    /// the threshold.
    fn finish_login(&self, username: &str, verdict: Option<bool>) -> ServerMessage {
        let success = verdict == Some(true);
        let (was_locked, failures) = self.lockout.settle_attempt(username, success);
        let decision = if was_locked {
            LoginDecision::LockedOut
        } else if success {
            LoginDecision::Accepted
        } else {
            LoginDecision::Rejected
        };
        ServerMessage::LoginResult { decision, failures }
    }

    /// Bind to `127.0.0.1:0` and serve connections through the `epoll`
    /// reactor — one event-loop thread plus [`ServerConfig::workers`]
    /// hash-compute threads — until the returned handle is shut down or
    /// dropped.  The reactor is the only serving path: off Linux, where
    /// there is no epoll, this returns `NetAuthError::Io` of kind
    /// [`std::io::ErrorKind::Unsupported`].
    pub fn spawn(self) -> Result<ServerHandle, NetAuthError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let server = Arc::new(self);
        let limits = Limits {
            compute_threads: server.config.workers.max(1),
            max_connections: server.config.max_connections.max(1),
            idle_timeout: server.config.idle_timeout,
            write_timeout: server.config.write_timeout,
        };
        let reactor = spawn_reactor(Arc::clone(&server), listener, limits)?;
        let mut handle = ServerHandle {
            reactor,
            server,
            snapshot_stop: None,
            snapshot_join: None,
            graceful: true,
        };
        // Durable stores get a background compaction thread: a log past
        // the size threshold is folded into atomic snapshots without
        // blocking verifies (readers never wait on a snapshot).
        if let Some(durability) = &handle.server.config().durability {
            let interval = durability.snapshot_interval;
            let store = handle.server.store();
            let (stop, stopped) = mpsc::channel();
            handle.snapshot_stop = Some(stop);
            handle.snapshot_join = Some(
                std::thread::Builder::new()
                    .name("gp-auth-snapshot".into())
                    .spawn(move || snapshot_loop(&store, interval, &stopped))
                    .map_err(NetAuthError::Io)?,
            );
        }
        Ok(handle)
    }
}

/// A running event loop ([`crate::reactor`]).  Stopping or dropping it
/// raises its shutdown flag, wakes the loop with a throwaway connection
/// to `addr`, and joins its threads, the event loop's first, so the
/// compute threads drain the turn queue the loop closes on exit.
#[derive(Debug)]
pub(crate) struct ReactorParts {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) joins: Vec<JoinHandle<()>>,
    /// The event loop's counters, then each compute thread's.
    pub(crate) metrics: Vec<Arc<WorkerMetrics>>,
}

impl ReactorParts {
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if !self.joins.is_empty() {
            let _ = TcpStream::connect(self.addr);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

impl Drop for ReactorParts {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one event-loop instance allows its connections.
pub(crate) struct Limits {
    /// Compute threads answering turns.
    pub(crate) compute_threads: usize,
    /// Connections accepted past this many open ones are closed at once.
    pub(crate) max_connections: usize,
    /// As [`ServerConfig::idle_timeout`] (`Duration::ZERO`: never).
    pub(crate) idle_timeout: Duration,
    /// As [`ServerConfig::write_timeout`].
    pub(crate) write_timeout: Duration,
}

/// One protocol served by the event loop.  The loop owns accept,
/// framing, write backpressure, the sweeps and the turn queue; a service
/// only cuts turns off a connection's frames and answers them.
pub(crate) trait Service: Send + Sync + 'static {
    /// A connection's protocol state, kept by the event loop.
    type Conn: Default + Send;
    /// A turn cut on the event loop and answered on a compute thread.
    type Work: Send + 'static;
    /// The event-loop thread's name and the compute threads' prefix
    /// (the kernel keeps 15 bytes of a name).
    const THREADS: [&'static str; 2];
    /// A compute thread takes queued turns until their summed
    /// [`Service::weight`] reaches this.
    const BATCH: usize = 1;

    /// Cut the next turn off `frames` (never empty; `None` marks a frame
    /// that failed its integrity check).  Runs on the event loop, so
    /// nothing it reaches may block (gp-lint L5; each implementation is
    /// a reachability root).
    fn cut(
        &self,
        frames: &mut std::collections::VecDeque<Option<Bytes>>,
        conn: &mut Self::Conn,
        metrics: &WorkerMetrics,
    ) -> Cut<Self::Work>;

    /// How much of [`Service::BATCH`] one turn fills.
    fn weight(_work: &Self::Work) -> usize {
        1
    }

    /// Whether any compute thread may answer this turn.  The turns it
    /// refuses wait for the first thread, so they never hold every one.
    fn any_thread(_work: &Self::Work) -> bool {
        true
    }

    /// Answer a coalesced batch of turns on a compute thread: one reply
    /// per turn, in order.
    fn answer(&self, batch: Vec<Self::Work>) -> Vec<Reply>;

    /// Whether a connection parked on `key` must keep waiting.
    fn still_parked(&self, _key: &str) -> bool {
        false
    }
}

/// What [`Service::cut`] made of a connection's next frames.
pub(crate) enum Cut<W> {
    /// The turn waits on `key` (its frames stay queued) until
    /// [`Service::still_parked`] clears it.
    Park(String),
    /// Answered on the event loop.
    Now(Reply),
    /// For a compute thread; `true` closes the connection once the
    /// reply is delivered.
    Later(W, bool),
}

/// A turn's encoded reply frames.
pub(crate) struct Reply {
    pub(crate) bytes: Vec<u8>,
    /// Close the connection once these bytes are delivered.
    pub(crate) close: bool,
}

impl Reply {
    /// Frame `payloads` in order.  An over-[`crate::framing::MAX_FRAME_LEN`]
    /// payload cannot be framed, and dropping it would desync every later
    /// reply on the connection: deliver the in-order prefix and close.
    pub(crate) fn frames(payloads: impl IntoIterator<Item = Bytes>, mut close: bool) -> Self {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for payload in payloads {
            if writer.write_frame_buffered(&payload).is_err() {
                close = true;
                break;
            }
        }
        Self { bytes, close }
    }
}

/// A client connection's protocol state.
#[derive(Default)]
pub(crate) struct ClientConn {
    /// Verify scratch, reused across turns.
    scratch: VerifyScratch,
    /// Streak of undecodable/corrupt frames (resets on a good frame).
    consecutive_errors: u32,
}

/// A client turn with hash jobs: the in-order response plan and its jobs.
pub(crate) struct HashTurn {
    planned: Vec<Planned>,
    jobs: Vec<HashJob>,
}

/// The client protocol.  A turn drains up to 32 pipelined requests; one
/// with hash jobs goes to the hash-compute pool, which coalesces turns
/// across connections until they fill [`gp_crypto::LANES`] lanes.
impl Service for AuthServer {
    type Conn = ClientConn;
    type Work = HashTurn;
    const THREADS: [&'static str; 2] = ["gp-auth-reactor", "gp-auth-hash"];
    const BATCH: usize = gp_crypto::LANES;

    /// Phase 1 for one turn: pop frames off the connection's queue,
    /// prepare logins/enrollments, and collect the turn's hash jobs.  A
    /// turn without any is settled here; one with jobs goes to the pool.
    /// A decodable frame resets the connection's bad-frame streak, and a
    /// streak of [`MAX_CONSECUTIVE_PROTOCOL_ERRORS`] closes it.
    ///
    /// Enrollments do **not** end the turn: they batch with the logins
    /// behind them, and their `EnrollOk`s are released together after the
    /// turn's single group-commit barrier.  Two things end a turn early,
    /// leaving later frames queued:
    ///
    /// * `Quit` — the connection is done (callers drop the rest);
    /// * a login for an account whose enrollment is pending (the
    ///   *per-account* write barrier, [`PendingAccounts`]): its frame
    ///   goes back to the front of the queue, and a turn that opens on it
    ///   parks until the enrollment's group commit lands.  Logins for
    ///   every *other* account flow untouched.
    // gp-lint: reactor-root
    fn cut(
        &self,
        frames: &mut std::collections::VecDeque<Option<Bytes>>,
        conn: &mut ClientConn,
        metrics: &WorkerMetrics,
    ) -> Cut<HashTurn> {
        let mut planned = Vec::with_capacity(frames.len());
        let mut jobs = Vec::new();
        let mut quitting = false;
        let mut parked = None;
        while let Some(frame) = frames.pop_front() {
            // Cheap refcount clone, kept only in case this frame parks and
            // must be re-queued for the next turn.
            let raw = frame.clone();
            let message = match frame.map(ClientMessage::decode) {
                Some(Ok(message)) => message,
                bad => {
                    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    conn.consecutive_errors += 1;
                    let reason = match bad {
                        Some(Err(e)) => format!("bad request: {e}"),
                        _ => NetAuthError::IntegrityFailure.to_string(),
                    };
                    planned.push(Planned::Respond(ServerMessage::Error { reason }));
                    continue;
                }
            };
            conn.consecutive_errors = 0;
            match message {
                ClientMessage::Quit => {
                    planned.push(Planned::Respond(ServerMessage::Goodbye));
                    quitting = true;
                    break;
                }
                ClientMessage::Login { username, clicks } => {
                    if self.pending.is_pending(&username) {
                        // Same-account barrier: this login may only be
                        // prepared after the enrollment it races is
                        // committed (in-order pipelining keeps the frames
                        // behind it queued too).
                        frames.push_front(raw);
                        parked = Some(username);
                        break;
                    }
                    metrics.logins.fetch_add(1, Ordering::Relaxed);
                    planned.push(self.prepare_login(
                        username,
                        &clicks,
                        &mut conn.scratch,
                        &mut jobs,
                    ));
                }
                ClientMessage::Enroll { username, clicks } => {
                    planned.push(self.prepare_enroll(username, &clicks, &mut jobs));
                }
                ClientMessage::GetConfig => {
                    planned.push(Planned::Respond(self.config_message()));
                }
            }
        }
        let close = quitting || conn.consecutive_errors >= MAX_CONSECUTIVE_PROTOCOL_ERRORS;
        match parked {
            Some(username) if planned.is_empty() => Cut::Park(username),
            _ if jobs.is_empty() => {
                // No hashing anywhere in the turn: settle on the event loop
                // (lockout bookkeeping and encoding only — microseconds).
                // The settle path statically reaches the WAL group commit,
                // but a turn with zero hash jobs by construction carries no
                // enrollment, so the commit branch cannot execute here.
                // gp-lint: allow(L5, no-hash turns carry no enrolls; commit path unreachable)
                let responses = self.settle_batch(vec![HashTurn { planned, jobs }]).concat();
                Cut::Now(Reply::frames(
                    responses.iter().map(ServerMessage::encode),
                    close,
                ))
            }
            _ => Cut::Later(HashTurn { planned, jobs }, close),
        }
    }

    fn weight(turn: &HashTurn) -> usize {
        turn.jobs.len()
    }

    fn answer(&self, batch: Vec<HashTurn>) -> Vec<Reply> {
        self.settle_batch(batch)
            .iter()
            .map(|responses| Reply::frames(responses.iter().map(ServerMessage::encode), false))
            .collect()
    }

    fn still_parked(&self, username: &str) -> bool {
        self.pending.is_pending(username)
    }
}

/// Off Linux there is no epoll, so there is nothing to serve with.
#[cfg(not(target_os = "linux"))]
pub(crate) fn spawn_reactor<S: Service>(
    _service: Arc<S>,
    _listener: TcpListener,
    _limits: Limits,
) -> Result<ReactorParts, NetAuthError> {
    Err(NetAuthError::Io(std::io::ErrorKind::Unsupported.into()))
}

/// Background compaction loop: every `interval`, snapshot the shards
/// whose WAL grew past the store's threshold, until the sender of
/// `stopped` is dropped, which wakes the wait at once.  Errors are
/// dropped — the next tick retries, and the WAL itself keeps every acked
/// mutation safe in the meantime.
fn snapshot_loop(store: &ShardedPasswordStore, interval: Duration, stopped: &mpsc::Receiver<()>) {
    let interval = interval.max(Duration::from_millis(1));
    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
        let _ = store.snapshot_if_due();
    }
}

/// Handle to a running server; shuts the server down (gracefully) when
/// dropped.
#[derive(Debug)]
pub struct ServerHandle {
    reactor: ReactorParts,
    server: Arc<AuthServer>,
    /// Dropping it wakes the snapshot thread, which then exits.
    snapshot_stop: Option<mpsc::Sender<()>>,
    snapshot_join: Option<JoinHandle<()>>,
    /// Whether shutdown performs the final durable compaction.
    /// [`ServerHandle::abort`] clears it to simulate a crash.
    graceful: bool,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr
    }

    /// The server behind this handle (store, lockout, config access).
    pub fn server(&self) -> &AuthServer {
        &self.server
    }

    /// Aggregate serving statistics: per-thread counters, per-shard store
    /// snapshots and hash-step coalescing counters.
    pub fn stats(&self) -> ServerStats {
        let server = &self.server;
        ServerStats {
            workers: self
                .reactor
                .metrics
                .iter()
                .enumerate()
                .map(|(i, m)| m.snapshot(i))
                .collect(),
            shards: server.store.stats(),
            batch: server.batch.stats(),
            replication: server.replication.as_ref().and_then(|sink| sink.stats()),
        }
    }

    /// Graceful shutdown: stop the event loop (open connections close),
    /// let the compute threads drain their queue, join every thread, and —
    /// on a durable store — compact every shard into a final atomic
    /// snapshot.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Crash-simulation shutdown: stop the threads but *skip* the final
    /// snapshot compaction, leaving the durability directory exactly as
    /// the last acknowledged mutation left it (snapshots + WAL tails, a
    /// torn tail included if one exists).  The crash-recovery tests use
    /// this to assert that recovery — not an orderly save — restores
    /// every acked account.
    pub fn abort(mut self) {
        self.graceful = false;
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.reactor.stop();
        self.snapshot_stop = None;
        if let Some(join) = self.snapshot_join.take() {
            let _ = join.join();
        }
        if self.graceful {
            // Serving threads are joined: no writer races the final
            // compaction. In-memory stores no-op it.
            let _ = self.server.store.snapshot_all();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{FrameReader, FrameWriter};
    use gp_geometry::Point;

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(40.0, 50.0),
            Point::new(130.0, 210.0),
            Point::new(305.0, 70.0),
            Point::new(410.0, 300.0),
            Point::new(220.0, 145.0),
        ]
    }

    fn server() -> AuthServer {
        AuthServer::new(ServerConfig::fast_for_tests())
    }

    #[test]
    fn enroll_then_login_accepted() {
        let server = server();
        let r = server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(r, ServerMessage::EnrollOk);
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks().iter().map(|p| p.offset(5.0, -5.0)).collect(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
    }

    #[test]
    fn duplicate_enrollment_reports_error() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let r = server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert!(matches!(r, ServerMessage::Error { .. }));
    }

    #[test]
    fn failed_logins_lock_the_account() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect();
        for attempt in 1..=3u32 {
            let r = server.handle_message(ClientMessage::Login {
                username: "alice".into(),
                clicks: wrong.clone(),
            });
            assert_eq!(
                r,
                ServerMessage::LoginResult {
                    decision: LoginDecision::Rejected,
                    failures: attempt
                }
            );
        }
        // Fourth attempt — even with the correct password — is locked out.
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::LockedOut,
                failures: 3
            }
        );
        // An administrative reset restores access.
        server.lockout().reset("alice");
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: clicks(),
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
    }

    #[test]
    fn unknown_account_is_an_error_and_does_not_lock() {
        let server = server();
        let r = server.handle_message(ClientMessage::Login {
            username: "ghost".into(),
            clicks: clicks(),
        });
        assert!(matches!(r, ServerMessage::Error { .. }));
        assert!(!server.lockout().is_locked("ghost"));
        // Spraying unknown names is refused before the tracker sees it,
        // which is what bounds failure state by the enrolled accounts.
        for i in 0..1000 {
            let r = server.handle_message(ClientMessage::Login {
                username: format!("ghost-{i}"),
                clicks: clicks(),
            });
            assert!(matches!(r, ServerMessage::Error { .. }));
        }
        assert_eq!(server.lockout().tracked_accounts(), 0);
    }

    #[test]
    fn guesses_spread_over_many_accounts_never_buy_a_fourth_guess() {
        // A breadth attacker's wrong guesses land on real accounts; none of
        // them may erase the target's count, so its fourth wrong guess is
        // locked out, never evaluated.
        let server = server();
        let others: Vec<String> = (0..256).map(|i| format!("other-{i}")).collect();
        for username in others.iter().chain(std::iter::once(&"target".to_string())) {
            let r = server.handle_message(ClientMessage::Enroll {
                username: username.clone(),
                clicks: clicks(),
            });
            assert_eq!(r, ServerMessage::EnrollOk);
        }
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect();
        let guess = |username: &str| {
            server.handle_message(ClientMessage::Login {
                username: username.into(),
                clicks: wrong.clone(),
            })
        };
        for round in 1..=6u32 {
            for username in &others {
                guess(username);
            }
            let decision = if round <= 3 {
                LoginDecision::Rejected
            } else {
                LoginDecision::LockedOut
            };
            assert_eq!(
                guess("target"),
                ServerMessage::LoginResult {
                    decision,
                    failures: round.min(3)
                },
                "target's guess {round}"
            );
        }
        assert_eq!(server.lockout().tracked_accounts(), others.len() + 1);
    }

    #[test]
    fn get_config_reports_scheme_and_click_count() {
        let server = server();
        let r = server.handle_message(ClientMessage::GetConfig);
        assert_eq!(
            r,
            ServerMessage::Config {
                scheme: "centered:9".into(),
                clicks: 5
            }
        );
    }

    #[test]
    fn structurally_invalid_login_counts_as_failure() {
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let r = server.handle_message(ClientMessage::Login {
            username: "alice".into(),
            clicks: vec![Point::new(1.0, 1.0)], // wrong click count
        });
        assert_eq!(
            r,
            ServerMessage::LoginResult {
                decision: LoginDecision::Rejected,
                failures: 1
            }
        );
    }

    /// Build the wire bytes of a request pipeline.
    fn pipeline_bytes(messages: &[ClientMessage]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for m in messages {
            writer.write_frame(&m.encode()).unwrap();
        }
        bytes
    }

    /// In-memory driver for the turn phases: decode every frame in
    /// `input` (a frame failing its integrity check becomes `None`), then
    /// cut and answer turns over them as the reactor does, stopping where
    /// a turn closes the connection (`Quit`).  Returns the responses in
    /// order.
    fn serve_pipeline(
        server: &AuthServer,
        input: &[u8],
        metrics: &WorkerMetrics,
    ) -> Vec<ServerMessage> {
        let mut reader = FrameReader::new(input);
        let mut frames = std::collections::VecDeque::new();
        loop {
            match reader.read_frame() {
                Ok(frame) => frames.push_back(Some(frame)),
                Err(NetAuthError::IntegrityFailure) => frames.push_back(None),
                Err(_) => break,
            }
        }
        let mut conn = ClientConn::default();
        let mut responses = Vec::new();
        while !frames.is_empty() {
            let reply = match server.cut(&mut frames, &mut conn, metrics) {
                Cut::Park(_) => panic!("turn parked on a barrier nothing lifts"),
                Cut::Now(reply) => reply,
                Cut::Later(work, close) => {
                    let mut reply = server.answer(vec![work]).remove(0);
                    reply.close |= close;
                    reply
                }
            };
            let mut replies = FrameReader::new(reply.bytes.as_slice());
            while let Ok(frame) = replies.read_frame() {
                responses.push(ServerMessage::decode(frame).unwrap());
            }
            if reply.close {
                break;
            }
        }
        metrics
            .requests
            .fetch_add(responses.len() as u64, Ordering::Relaxed);
        responses
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = server();
        let requests: Vec<ClientMessage> = vec![
            ClientMessage::GetConfig,
            ClientMessage::Enroll {
                username: "alice".into(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username: "alice".into(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username: "alice".into(),
                clicks: clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect(),
            },
            ClientMessage::Login {
                username: "alice".into(),
                clicks: clicks(),
            },
        ];
        let input = pipeline_bytes(&requests);
        let metrics = WorkerMetrics::default();
        let responses = serve_pipeline(&server, &input, &metrics);
        assert_eq!(responses.len(), 5);
        assert!(matches!(responses[0], ServerMessage::Config { .. }));
        assert_eq!(responses[1], ServerMessage::EnrollOk);
        assert_eq!(
            responses[2],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert_eq!(
            responses[3],
            ServerMessage::LoginResult {
                decision: LoginDecision::Rejected,
                failures: 1
            }
        );
        assert_eq!(
            responses[4],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert_eq!(metrics.snapshot(0).requests, 5);
        assert_eq!(metrics.snapshot(0).logins, 3);
    }

    #[test]
    fn pipelined_lockout_matches_sequential_semantics() {
        // Five wrong attempts in one pipeline: the first three are
        // rejected with rising failure counts, the rest see the lock.
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect();
        let requests: Vec<ClientMessage> = (0..5)
            .map(|_| ClientMessage::Login {
                username: "alice".into(),
                clicks: wrong.clone(),
            })
            .collect();
        let input = pipeline_bytes(&requests);
        let responses = serve_pipeline(&server, &input, &WorkerMetrics::default());
        assert_eq!(
            responses,
            vec![
                ServerMessage::LoginResult {
                    decision: LoginDecision::Rejected,
                    failures: 1
                },
                ServerMessage::LoginResult {
                    decision: LoginDecision::Rejected,
                    failures: 2
                },
                ServerMessage::LoginResult {
                    decision: LoginDecision::Rejected,
                    failures: 3
                },
                ServerMessage::LoginResult {
                    decision: LoginDecision::LockedOut,
                    failures: 3
                },
                ServerMessage::LoginResult {
                    decision: LoginDecision::LockedOut,
                    failures: 3
                },
            ]
        );
    }

    #[test]
    fn quit_mid_pipeline_stops_processing_later_requests() {
        let server = server();
        let requests = vec![
            ClientMessage::GetConfig,
            ClientMessage::Quit,
            ClientMessage::Enroll {
                username: "never".into(),
                clicks: clicks(),
            },
        ];
        let input = pipeline_bytes(&requests);
        let responses = serve_pipeline(&server, &input, &WorkerMetrics::default());
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[1], ServerMessage::Goodbye);
        assert_eq!(server.store().len(), 0, "post-quit enroll never ran");
    }

    #[test]
    fn corrupted_mid_pipeline_frame_fails_one_request_without_desync() {
        use crate::framing::FaultyBuffer;
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        // Three pipelined logins, the middle frame's payload corrupted.
        let mut faulty = FaultyBuffer::default().corrupt_frame_payload(1);
        {
            let mut writer = FrameWriter::new(&mut faulty);
            for _ in 0..3 {
                writer
                    .write_frame(
                        &ClientMessage::Login {
                            username: "alice".into(),
                            clicks: clicks(),
                        }
                        .encode(),
                    )
                    .unwrap();
            }
        }
        let metrics = WorkerMetrics::default();
        let responses = serve_pipeline(&server, &faulty.bytes, &metrics);
        assert_eq!(responses.len(), 3, "every request gets a response");
        assert_eq!(
            responses[0],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert!(
            matches!(&responses[1], ServerMessage::Error { reason } if reason.contains("integrity")),
            "corrupt frame answered with a protocol error: {:?}",
            responses[1]
        );
        assert_eq!(
            responses[2],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            },
            "the pipeline stays in sync after the corrupt frame"
        );
        assert_eq!(metrics.snapshot(0).protocol_errors, 1);
        assert!(!server.lockout().is_locked("alice"));
    }

    #[test]
    fn dropped_mid_pipeline_frame_loses_only_that_request() {
        use crate::framing::FaultyBuffer;
        let server = server();
        server.handle_message(ClientMessage::Enroll {
            username: "alice".into(),
            clicks: clicks(),
        });
        let mut faulty = FaultyBuffer::default().drop_frame(1);
        {
            let mut writer = FrameWriter::new(&mut faulty);
            for _ in 0..3 {
                writer
                    .write_frame(
                        &ClientMessage::Login {
                            username: "alice".into(),
                            clicks: clicks(),
                        }
                        .encode(),
                    )
                    .unwrap();
            }
        }
        let responses = serve_pipeline(&server, &faulty.bytes, &WorkerMetrics::default());
        assert_eq!(responses.len(), 2, "dropped request simply has no response");
        for r in &responses {
            assert_eq!(
                *r,
                ServerMessage::LoginResult {
                    decision: LoginDecision::Accepted,
                    failures: 0
                }
            );
        }
    }

    #[test]
    fn idle_connection_is_dropped_and_frees_its_worker() {
        use std::io::Read as _;
        // One compute worker and a short idle timeout: a silent connection
        // must be cut loose by the idle sweep (slowloris defense).
        let config = ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::fast_for_tests()
        };
        let handle = AuthServer::new(config).spawn().expect("spawn server");
        let mut idle = TcpStream::connect(handle.addr()).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // The server closes the idle connection: read returns EOF.
        let mut buf = [0u8; 1];
        let got = idle.read(&mut buf).expect("read after server close");
        assert_eq!(got, 0, "idle connection must be closed by the server");
        // And the single worker is free to serve a real client.
        let mut client = crate::client::AuthClient::connect(handle.addr()).expect("connect");
        let (scheme, clicks) = client.get_config().expect("get config");
        assert_eq!(scheme, "centered:9");
        assert_eq!(clicks, 5);
        client.quit().unwrap();
        handle.shutdown();
    }

    /// Idle waits have no poll interval, so shutdown must wake them: the
    /// event loop with no connection (no sweep due, so it waits for an
    /// event) and with one open under an idle timeout (a timed wake), and
    /// a snapshot thread an hour from its next tick.
    #[test]
    fn shutdown_wakes_idle_waits_at_once() {
        let dir = std::env::temp_dir().join(format!(
            "gp-server-idle-shutdown-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for (idle_timeout, connect) in [(Duration::ZERO, false), (Duration::from_secs(3600), true)]
        {
            let config = ServerConfig {
                idle_timeout,
                durability: Some(DurabilityConfig {
                    snapshot_interval: Duration::from_secs(3600),
                    ..DurabilityConfig::at(&dir)
                }),
                ..ServerConfig::fast_for_tests()
            };
            let handle = AuthServer::open(config)
                .expect("open durable server")
                .spawn()
                .expect("spawn server");
            let held = connect.then(|| TcpStream::connect(handle.addr()).expect("connect"));
            std::thread::sleep(Duration::from_millis(150));
            // On its own thread, so a wait nothing wakes fails the test
            // instead of hanging it.
            let (done, finished) = mpsc::channel();
            let stopper = std::thread::spawn(move || {
                handle.shutdown();
                let _ = done.send(());
            });
            assert!(
                finished.recv_timeout(Duration::from_secs(5)).is_ok(),
                "shutdown took over 5 s (idle timeout {idle_timeout:?}, connection held: {connect})"
            );
            stopper.join().expect("shutdown thread");
            drop(held);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_pipeline_hashes_through_the_hash_step() {
        let server = server();
        for i in 0..8 {
            server.handle_message(ClientMessage::Enroll {
                username: format!("user{i}"),
                clicks: clicks(),
            });
        }
        let baseline = server.batch.stats();
        let requests: Vec<ClientMessage> = (0..8)
            .map(|i| ClientMessage::Login {
                username: format!("user{i}"),
                clicks: clicks(),
            })
            .collect();
        let input = pipeline_bytes(&requests);
        let responses = serve_pipeline(&server, &input, &WorkerMetrics::default());
        assert_eq!(responses.len(), 8);
        let stats = server.batch.stats();
        assert_eq!(stats.attempts - baseline.attempts, 8);
        assert_eq!(
            stats.runs - baseline.runs,
            1,
            "one turn's logins hash in one run: {stats:?}"
        );
        assert_eq!(stats.max_run, 8);
    }

    #[test]
    fn a_full_turn_of_mixed_salts_hashes_in_one_run_with_unchanged_answers() {
        // 20 logins (every third a wrong guess) for enrolled accounts, plus
        // one enroll under a name long enough that a raw
        // `domain || 0x1f || name` salt would take two blocks per round
        // while the logins' took one.
        let long_name = "a-name-long-enough-for-two-blocks";
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-30.0, -30.0)).collect();
        let requests: Vec<ClientMessage> = (0..20)
            .map(|i| ClientMessage::Login {
                username: format!("user{i}"),
                clicks: if i % 3 == 0 { wrong.clone() } else { clicks() },
            })
            .chain(std::iter::once(ClientMessage::Enroll {
                username: long_name.into(),
                clicks: clicks(),
            }))
            .collect();
        let enrolled = || {
            let server = server();
            for i in 0..20 {
                server.handle_message(ClientMessage::Enroll {
                    username: format!("user{i}"),
                    clicks: clicks(),
                });
            }
            server
        };

        // Reference: the same requests, one per turn.
        let single = enrolled();
        let expected: Vec<ServerMessage> = requests
            .iter()
            .map(|request| single.handle_message(request.clone()))
            .collect();
        assert!(expected.contains(&ServerMessage::LoginResult {
            decision: LoginDecision::Rejected,
            failures: 1
        }));
        assert_eq!(expected[20], ServerMessage::EnrollOk);

        let server = enrolled();
        let baseline = server.batch.stats();
        let responses = serve_pipeline(
            &server,
            &pipeline_bytes(&requests),
            &WorkerMetrics::default(),
        );
        assert_eq!(responses, expected);
        let stats = server.batch.stats();
        assert_eq!(stats.runs - baseline.runs, 1, "{stats:?}");
        assert_eq!(stats.attempts - baseline.attempts, 21, "{stats:?}");
        assert_eq!(stats.full_runs - baseline.full_runs, 1, "{stats:?}");

        // Every derived salt is one 64-byte block, the layout the SIMD
        // kernels run, so the short and long names share one group.
        let salt_len = |name: &str| server.store().get(name).expect("enrolled").hash.salt.len();
        assert_eq!(salt_len("user0"), 64);
        assert_eq!(
            salt_len(long_name),
            salt_len("user0"),
            "short and long names share one group"
        );
    }
}
