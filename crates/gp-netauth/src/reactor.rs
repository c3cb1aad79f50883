//! Event-driven serving: an `epoll` reactor plus a dedicated hash-compute
//! pool.
//!
//! This is the server's only serving path.  Parking one thread on every
//! connection would let idle or slow clients occupy threads and cap
//! concurrent-connection capacity near the thread count.  The paper's
//! verification primitive (`h^1000`) makes serving cost *CPU-bound
//! hashing*, not I/O — so the reactor splits the two concerns:
//!
//! * **One event-loop thread** owns every connection as a nonblocking
//!   state machine (read → parse → hash-pending → write-backpressure),
//!   multiplexed by level-triggered [`crate::sys::Epoll`].  Per-connection
//!   cost while idle is one registered fd and a few hundred bytes of
//!   buffers — thousands of connections are cheap.
//! * **A small hash-compute pool** (`ServerConfig::workers` threads)
//!   drains a queue of prepared turns, merges jobs *across connections*
//!   up to `batch_max`, and hashes them through the shared
//!   [`crate::batch::BatchVerifier`] — so lane occupancy rises with
//!   offered load, not with thread count.  Completions flow back through
//!   an [`crate::sys::EventFd`] the reactor has registered.
//!
//! Per-connection state machine:
//!
//! ```text
//!            EPOLLIN                 jobs.is_empty()
//!   Idle ──────────────► Reading ────────────────────► settle inline ─┐
//!    ▲                      │ hash jobs                               │
//!    │                      ▼                                         │
//!    │                HashPending (EPOLLIN off — one turn in flight)  │
//!    │                      │ completion via eventfd                  │
//!    │                      ▼                                         ▼
//!    └───────────────── responses queued ──► WriteBackpressure (EPOLLOUT
//!        buffer drained                       while bytes pending)
//! ```
//!
//! Correctness notes:
//!
//! * **Ordering** — at most one turn per connection is in flight with the
//!   compute pool, and responses within a turn are settled in pipeline
//!   order, so replies can never reorder.
//! * **No busy-waiting** — `EPOLLIN` interest is dropped while a turn is
//!   in flight or the write buffer is over its cap, so level-triggered
//!   epoll never spins on data we are not ready to read.
//! * **Stale completions** — every slot carries a generation; a completion
//!   for a connection that died mid-hash is dropped by generation
//!   mismatch (the lockout side effects were already applied, exactly as
//!   if the reply were lost in flight).
//! * **Durability ordering** — settling runs on the compute thread:
//!   each turn's enrollments stage deferred WAL appends
//!   (`AuthServer::settle_turn`), and one group-commit barrier
//!   (`AuthServer::commit_enrolls`) then fsyncs every touched shard
//!   *once per coalesced batch* — strictly before any completion is
//!   posted back to the reactor, i.e. before any `EnrollOk` bytes can
//!   reach the wire.  An acked enrollment is therefore on stable
//!   storage no matter when the process dies, while `n` concurrent
//!   enrolls cost one fsync instead of `n`.
//! * **Per-account barrier** — a login racing an in-flight enroll for
//!   the *same* account parks (its slot joins `Reactor::parked`) until
//!   the enroll's group commit lands; logins for other accounts flow
//!   freely.  Parked slots are re-driven after completions are applied,
//!   so the wait is one barrier, not a poll interval.

use crate::batch::HashJob;
use crate::error::NetAuthError;
use crate::framing::{FrameReader, FrameWriter, WriteBuffer};
use crate::server::{
    AuthServer, Planned, ReactorParts, WorkerMetrics, MAX_CONSECUTIVE_PROTOCOL_ERRORS,
    SHUTDOWN_POLL,
};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use bytes::Bytes;
use gp_passwords::VerifyScratch;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Epoll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the completion/wakeup eventfd.
const WAKER_TOKEN: u64 = 1;
/// Connection slot `s` registers with token `s + TOKEN_BASE`.
const TOKEN_BASE: u64 = 2;

/// Pending response bytes above which a connection stops reading new
/// requests (resumed once the peer drains its responses).
const WRITE_BACKPRESSURE_CAP: usize = 256 * 1024;

/// Minimum spacing between idle/stall sweeps.  The sweep walks every
/// slot, so running it on every event batch would charge O(connections)
/// to the loop under load — exactly the cost the reactor exists to avoid.
/// 100 ms keeps timeout granularity well under the smallest configured
/// timeouts while making the scan cost negligible.
const SWEEP_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

/// One prepared connection turn handed to the hash-compute pool.
struct Turn {
    slot: usize,
    generation: u64,
    planned: Vec<Planned>,
    jobs: Vec<HashJob>,
    /// Close the connection once this turn's responses are flushed
    /// (`Quit`, EOF-with-pending-requests, or a protocol-fatal frame).
    close_after: bool,
}

/// A settled turn on its way back to the reactor.
struct Completion {
    slot: usize,
    generation: u64,
    /// Encoded response frames, ready for the connection's write buffer.
    bytes: Vec<u8>,
    close_after: bool,
}

/// Blocking multi-producer multi-consumer queue of prepared turns.
///
/// `pop_coalesced` is where cross-connection batching happens: a compute
/// worker takes one turn (blocking) and then opportunistically drains more
/// until it holds at least `max_jobs` hash jobs, so a deep queue turns
/// into full 16-lane hash runs instead of sixteen 1-lane ones.
struct TurnQueue {
    state: Mutex<TurnQueueState>,
    available: Condvar,
}

struct TurnQueueState {
    turns: VecDeque<Turn>,
    closed: bool,
}

/// Outcome of a [`TurnQueue::pop_coalesced`] call.
enum Popped {
    Turns(Vec<Turn>),
    TimedOut,
    Closed,
}

impl TurnQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(TurnQueueState {
                turns: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    fn push(&self, turn: Turn) {
        // Poisoning only means another thread panicked while queueing; the
        // queue itself is a plain VecDeque, so keep serving rather than
        // cascading the panic through the reactor.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.turns.push_back(turn);
        drop(state);
        self.available.notify_one();
    }

    fn close(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    fn pop_coalesced(&self, max_jobs: usize, timeout: std::time::Duration) -> Popped {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.turns.is_empty() {
            if state.closed {
                return Popped::Closed;
            }
            let (guard, _) = self
                .available
                // gp-lint: allow(L7, bounded coalescing nap: an early wake only yields a smaller batch; the reader loop re-polls)
                .wait_timeout(state, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
            if state.turns.is_empty() {
                return if state.closed {
                    Popped::Closed
                } else {
                    Popped::TimedOut
                };
            }
        }
        let mut turns = Vec::new();
        let mut jobs = 0usize;
        while jobs < max_jobs.max(1) {
            let Some(turn) = state.turns.pop_front() else {
                break;
            };
            jobs += turn.jobs.len();
            turns.push(turn);
        }
        Popped::Turns(turns)
    }
}

/// One live connection owned by the reactor.
struct Connection {
    /// Resumable frame decoder over a buffered nonblocking stream.  The
    /// buffering amortizes a pipelined turn's reads into one syscall; the
    /// price is that frames can sit in user space where epoll cannot see
    /// them, so every path that pauses reading re-drives via
    /// `frame_buffered()` when it resumes.
    reader: FrameReader<std::io::BufReader<TcpStream>>,
    /// Raw fd for epoll calls (stable for the connection's lifetime).
    fd: RawFd,
    /// Pending (partially written) response bytes.
    out: WriteBuffer,
    /// Per-connection verify scratch (reused across turns).
    scratch: VerifyScratch,
    /// Slot generation this connection was created under.
    generation: u64,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Whether a turn is with the compute pool (reads are paused).
    turn_in_flight: bool,
    /// Flush remaining bytes, then close.
    closing: bool,
    /// Frames read off the socket but not yet prepared — `prepare_turn`
    /// stops at the per-account write barrier (a login racing its own
    /// account's uncommitted enroll), leaving the rest here for the next
    /// turn.  `None` marks an integrity failure.
    pending: std::collections::VecDeque<Option<Bytes>>,
    /// The socket hit EOF (or a protocol-fatal error): stop reading and
    /// close once `pending` is processed and the output drains.
    read_eof: bool,
    /// Streak of undecodable/corrupt frames (resets on a good frame).
    consecutive_errors: u32,
    /// Last time the peer produced a frame (for the idle sweep).
    last_activity: Instant,
    /// When the pending output last stopped making progress (`None` while
    /// the buffer is draining or empty).  A peer that stops reading is
    /// closed once it has stalled for `ServerConfig::write_timeout`.
    write_stalled_since: Option<Instant>,
}

impl Connection {
    fn desired_interest(&self) -> u32 {
        let mut events = 0;
        if !self.turn_in_flight && !self.closing && self.out.pending() < WRITE_BACKPRESSURE_CAP {
            // EPOLLRDHUP rides with read interest only: while the
            // connection is busy a level-triggered half-close would
            // otherwise storm the loop (the event persists and the busy
            // path ignores it).  Full hangups still arrive — EPOLLHUP and
            // EPOLLERR cannot be masked — and a half-close is discovered
            // as EOF the moment reads resume.
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.out.is_empty() {
            events |= EPOLLOUT;
        }
        events
    }
}

/// What `drive_read` decided after draining a connection's ready frames.
enum ReadOutcome {
    /// Nothing actionable (no complete frames yet).
    Idle,
    /// The connection is done (EOF/error with no frames left to answer);
    /// close once any pending output drains.
    Close,
    /// Queued frames are ready for a prepare turn.
    Prepare,
}

/// The reactor: owns the epoll instance, the listener and every
/// connection; runs on its own thread.
struct Reactor {
    server: Arc<AuthServer>,
    epoll: Epoll,
    waker: Arc<EventFd>,
    listener: TcpListener,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots freed while the current epoll event batch is being processed.
    /// They move to `free` only once the batch is done: a slot must not be
    /// re-filled by an accept while a stale readiness event for its
    /// previous occupant may still be later in the same batch (the stale
    /// event would otherwise be applied to the new connection).
    deferred_free: Vec<usize>,
    /// Per-slot generation, bumped on close to fence stale completions.
    generations: Vec<u64>,
    live: usize,
    turns: Arc<TurnQueue>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    /// Slots whose next turn opened on a login for an account with an
    /// in-flight enroll from *another* connection: the frame waits in the
    /// connection's queue and the slot is re-driven after completions are
    /// applied (the group commit that clears the account also posts the
    /// completion that wakes the loop).
    parked: Vec<(usize, String)>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<WorkerMetrics>,
    /// When the last idle/stall sweep ran (sweeps are rate-limited to
    /// [`SWEEP_INTERVAL`]).
    last_sweep: Instant,
}

/// Spawn the reactor thread and its hash-compute pool for `server` on
/// `listener`.
pub(crate) fn spawn_reactor(
    server: Arc<AuthServer>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> Result<ReactorParts, NetAuthError> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let waker = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;

    let turns = Arc::new(TurnQueue::new());
    let completions = Arc::new(Mutex::new(VecDeque::new()));
    let reactor_metrics = Arc::new(WorkerMetrics::default());
    let mut metrics = vec![Arc::clone(&reactor_metrics)];

    let compute_count = server.config().workers.max(1);
    let mut compute_joins = Vec::with_capacity(compute_count);
    for index in 0..compute_count {
        let worker_metrics = Arc::new(WorkerMetrics::default());
        metrics.push(Arc::clone(&worker_metrics));
        let server = Arc::clone(&server);
        let turns = Arc::clone(&turns);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let shutdown = Arc::clone(&shutdown);
        compute_joins.push(
            std::thread::Builder::new()
                .name(format!("gp-auth-hash-{index}"))
                .spawn(move || {
                    compute_loop(
                        &server,
                        &turns,
                        &completions,
                        &waker,
                        &shutdown,
                        &worker_metrics,
                    )
                })
                .map_err(NetAuthError::Io)?,
        );
    }

    let mut reactor = Reactor {
        server,
        epoll,
        waker,
        listener,
        conns: Vec::new(),
        free: Vec::new(),
        deferred_free: Vec::new(),
        generations: Vec::new(),
        live: 0,
        turns,
        completions,
        parked: Vec::new(),
        shutdown,
        metrics: reactor_metrics,
        last_sweep: Instant::now(),
    };
    let reactor_join = std::thread::Builder::new()
        .name("gp-auth-reactor".into())
        .spawn(move || reactor.run())
        .map_err(NetAuthError::Io)?;
    Ok(ReactorParts {
        reactor_join,
        compute_joins,
        metrics,
    })
}

/// Hash-compute worker: coalesce queued turns, hash through the shared
/// [`crate::batch::BatchVerifier`], settle in order, post completions.
fn compute_loop(
    server: &AuthServer,
    turns: &TurnQueue,
    completions: &Mutex<VecDeque<Completion>>,
    waker: &EventFd,
    shutdown: &AtomicBool,
    metrics: &WorkerMetrics,
) {
    let verifier = server.verifier();
    let max_jobs = server.config().batch_max.max(1);
    loop {
        let batch = match turns.pop_coalesced(max_jobs, SHUTDOWN_POLL) {
            Popped::Turns(batch) => batch,
            Popped::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Popped::Closed => return,
        };

        // Merge every turn's jobs into one cross-connection batch and hash
        // it directly on this thread: the turn queue already coalesced, so
        // distinct compute workers hash distinct batches in parallel.
        let mut job_counts = Vec::with_capacity(batch.len());
        let mut all_jobs = Vec::new();
        let mut merged = batch;
        for turn in &mut merged {
            job_counts.push(turn.jobs.len());
            all_jobs.append(&mut turn.jobs);
        }
        let digests = verifier.run_direct(&all_jobs);

        let mut offset = 0;
        let mut settled_turns = Vec::with_capacity(merged.len());
        let mut turn_meta = Vec::with_capacity(merged.len());
        for (turn, count) in merged.into_iter().zip(job_counts) {
            let slice = &digests[offset..offset + count];
            offset += count;
            turn_meta.push((turn.slot, turn.generation, turn.close_after));
            settled_turns.push(server.settle_turn(turn.planned, slice));
        }
        // The group-commit barrier for the whole coalesced batch: one
        // fsync per touched shard (and one grouped replication round)
        // covers every enrollment settled above, and only then are the
        // `EnrollOk`s allowed to travel back toward the wire.
        server.commit_enrolls(&mut settled_turns);

        let mut settled = Vec::with_capacity(settled_turns.len());
        for (turn, (slot, generation, close_after)) in settled_turns.into_iter().zip(turn_meta) {
            metrics
                .requests
                .fetch_add(turn.responses.len() as u64, Ordering::Relaxed);
            let mut bytes = Vec::new();
            let mut encode_failed = false;
            {
                let mut writer = FrameWriter::new(&mut bytes);
                for response in &turn.responses {
                    // A Vec sink cannot fail, so the only possible error
                    // is an over-`MAX_FRAME_LEN` response.  Silently
                    // dropping one response would desync every later
                    // reply on the connection; deliver the in-order
                    // prefix and close instead.
                    if writer.write_frame_buffered(&response.encode()).is_err() {
                        encode_failed = true;
                        break;
                    }
                }
            }
            settled.push(Completion {
                slot,
                generation,
                bytes,
                close_after: close_after || encode_failed,
            });
        }
        {
            let mut queue = completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.extend(settled);
        }
        waker.signal();
    }
}

impl Reactor {
    // gp-lint: reactor-root
    fn run(&mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        while !self.shutdown.load(Ordering::SeqCst) {
            let n = match self
                .epoll
                .wait(&mut events, SHUTDOWN_POLL.as_millis() as i32)
            {
                Ok(n) => n,
                Err(_) => break,
            };
            for event in &events[..n] {
                let (token, mask) = (event.token(), event.events());
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {
                        self.waker.drain();
                        self.process_completions();
                    }
                    token => self.connection_event((token - TOKEN_BASE) as usize, mask),
                }
            }
            // Completions can also land between waits; the eventfd covers
            // them, but a cheap drain here keeps latency at one loop turn.
            self.process_completions();
            self.redrive_parked();
            self.sweep_idle();
            // The batch is fully processed: slots closed during it are now
            // safe to recycle (no stale event can target them anymore).
            self.free.append(&mut self.deferred_free);
        }
        // Reactor exit: stop the compute pool (after the queue drains) and
        // drop every connection (peers see EOF).
        self.turns.close();
    }

    /// Accept every pending connection (the listener is level-triggered:
    /// stop at `WouldBlock`).
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.live >= self.server.config().max_connections.max(1) {
                // Over the cap: refuse by immediate close.
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            });
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(fd, interest, slot as u64 + TOKEN_BASE)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.conns[slot] = Some(Connection {
                reader: FrameReader::new(std::io::BufReader::new(stream)),
                fd,
                out: WriteBuffer::new(),
                scratch: VerifyScratch::new(),
                generation: self.generations[slot],
                interest,
                turn_in_flight: false,
                closing: false,
                pending: std::collections::VecDeque::new(),
                read_eof: false,
                consecutive_errors: 0,
                last_activity: Instant::now(),
                write_stalled_since: None,
            });
            self.live += 1;
            self.metrics.connections.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn connection_event(&mut self, slot: usize, mask: u32) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            // Stale event for a slot already closed earlier in this batch.
            return;
        }
        if mask & EPOLLERR != 0 {
            self.close_connection(slot);
            return;
        }
        if mask & EPOLLOUT != 0 {
            self.drive_write(slot);
            if self.conns[slot].is_none() {
                return;
            }
        }
        if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
                return;
            };
            let busy = conn.turn_in_flight || conn.closing;
            if !busy {
                self.drive_read(slot);
            } else if mask & EPOLLHUP != 0 {
                // Peer fully gone while we were busy: nothing to deliver.
                self.close_connection(slot);
            }
        } else if self.frame_ready(slot) {
            // A write drain just resumed reading, and complete frames are
            // already sitting in the user-space read buffer where epoll
            // cannot see them.
            self.drive_read(slot);
        }
    }

    /// Drain and process ready frames until the connection has nothing
    /// more to give right now.  The inner pass caps a turn at
    /// `pipeline_max` frames; complete frames may remain in the read
    /// buffer after an inline-settled turn, invisible to epoll, so loop
    /// while the reader still holds one and the connection can take more.
    fn drive_read(&mut self, slot: usize) {
        while self.drive_read_once(slot) {}
    }

    /// One read turn.  Returns whether another queued or buffered frame is
    /// ready to process immediately.
    fn drive_read_once(&mut self, slot: usize) -> bool {
        let pipeline_max = self.server.config().pipeline_max.max(1);
        let outcome = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            // Top up the frame queue from the socket (unless a previous
            // turn stopped at a barrier and left frames queued, or the
            // socket already ended).
            let had_pending = !conn.pending.is_empty();
            if !had_pending && !conn.read_eof {
                while conn.pending.len() < pipeline_max {
                    match conn.reader.read_frame() {
                        Ok(frame) => conn.pending.push_back(Some(frame)),
                        Err(NetAuthError::IntegrityFailure) => conn.pending.push_back(None),
                        Err(NetAuthError::UnexpectedEof) => {
                            conn.read_eof = true;
                            break;
                        }
                        Err(NetAuthError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            break;
                        }
                        // Protocol-fatal (bad version, oversized frame) or
                        // a hard I/O error: answer what we have, then
                        // close.
                        Err(_) => {
                            conn.read_eof = true;
                            break;
                        }
                    }
                }
                // Refresh the idle clock only when the peer produced at
                // least one *complete* frame: a byte-trickling peer
                // (slowloris) must keep aging toward the idle sweep.
                if !conn.pending.is_empty() {
                    conn.last_activity = Instant::now();
                }
            }
            if conn.pending.is_empty() {
                if conn.read_eof {
                    ReadOutcome::Close
                } else {
                    ReadOutcome::Idle
                }
            } else {
                ReadOutcome::Prepare
            }
        };

        match outcome {
            ReadOutcome::Idle => {
                self.sync_interest(slot);
                false
            }
            ReadOutcome::Close => {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return false;
                };
                if conn.out.is_empty() {
                    self.close_connection(slot);
                } else {
                    // Deliver what the peer is owed first (it may have
                    // half-closed after sending its requests); the drain
                    // or the write-stall sweep finishes the close.
                    conn.closing = true;
                    self.sync_interest(slot);
                }
                false
            }
            ReadOutcome::Prepare => {
                let server = Arc::clone(&self.server);
                let (prepared, close_after) = {
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        return false;
                    };
                    let prepared = server.prepare_turn(
                        &mut conn.pending,
                        &mut conn.scratch,
                        &self.metrics,
                        &mut conn.consecutive_errors,
                    );
                    // Close once this turn's responses flush if it ends
                    // the conversation — but an EOF only counts once no
                    // queued frames remain to answer.
                    let close = prepared.quitting
                        || conn.consecutive_errors >= MAX_CONSECUTIVE_PROTOCOL_ERRORS
                        || (conn.read_eof && conn.pending.is_empty());
                    (prepared, close)
                };
                if prepared.planned.is_empty() && prepared.jobs.is_empty() {
                    if let Some(username) = prepared.parked {
                        // The turn opened on a login racing another
                        // connection's uncommitted enroll for the same
                        // account.  The frame is back at the queue front;
                        // park the slot until the enroll's group commit
                        // clears the account (`redrive_parked`).
                        if !self.parked.iter().any(|(s, _)| *s == slot) {
                            self.parked.push((slot, username));
                        }
                        self.sync_interest(slot);
                        return false;
                    }
                }
                if prepared.jobs.is_empty() {
                    // No hashing anywhere in the turn: settle on the
                    // reactor thread (lockout bookkeeping and encoding
                    // only — microseconds; everything `h^k`-priced became
                    // a job above).  The settle path statically reaches the
                    // WAL group commit, but a turn with zero hash jobs by
                    // construction carries no enrollment, so the commit
                    // branch cannot execute here.
                    // gp-lint: allow(L5, no-hash turns carry no enrolls; commit path unreachable)
                    let responses = server.settle_responses(prepared.planned, &[]);
                    self.metrics
                        .requests
                        .fetch_add(responses.len() as u64, Ordering::Relaxed);
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        return false;
                    };
                    let mut encode_failed = false;
                    for response in &responses {
                        // Same policy as the compute path: an oversized
                        // response closes the connection after the
                        // in-order prefix rather than desyncing it.
                        if conn.out.queue_frame(&response.encode()).is_err() {
                            encode_failed = true;
                            break;
                        }
                    }
                    conn.closing = close_after || encode_failed;
                    self.drive_write(slot);
                    self.frame_ready(slot)
                } else {
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        return false;
                    };
                    conn.turn_in_flight = true;
                    let turn = Turn {
                        slot,
                        generation: conn.generation,
                        planned: prepared.planned,
                        jobs: prepared.jobs,
                        close_after,
                    };
                    self.sync_interest(slot);
                    self.turns.push(turn);
                    false
                }
            }
        }
    }

    /// Whether `slot` is still open, allowed to read, and already holds a
    /// frame the event loop cannot learn about from epoll — queued behind
    /// a barrier or complete in the user-space read buffer.
    fn frame_ready(&self, slot: usize) -> bool {
        let Some(Some(conn)) = self.conns.get(slot) else {
            return false;
        };
        !conn.turn_in_flight
            && !conn.closing
            && conn.out.pending() < WRITE_BACKPRESSURE_CAP
            && (!conn.pending.is_empty() || conn.reader.frame_buffered() || conn.read_eof)
    }

    /// Flush pending bytes; close if the connection finished its goodbye,
    /// otherwise reconcile epoll interest (EPOLLOUT while backed up).
    fn drive_write(&mut self, slot: usize) {
        let result = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let before = conn.out.pending();
            let result = conn.out.flush_to(conn.reader.get_mut().get_mut());
            // Track write progress: any accepted byte restarts the stall
            // window, so only a peer taking *nothing* for `write_timeout`
            // is declared dead by the sweep.
            conn.write_stalled_since = match result {
                Ok(false) if conn.out.pending() == before => {
                    Some(conn.write_stalled_since.unwrap_or_else(Instant::now))
                }
                Ok(false) => Some(Instant::now()),
                _ => None,
            };
            result
        };
        match result {
            Ok(true) => {
                let closing = self
                    .conns
                    .get(slot)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| conn.closing);
                if closing {
                    self.close_connection(slot);
                } else {
                    self.sync_interest(slot);
                }
            }
            Ok(false) => self.sync_interest(slot),
            Err(_) => self.close_connection(slot),
        }
    }

    /// Apply settled turns from the compute pool to their connections.
    fn process_completions(&mut self) {
        let drained: Vec<Completion> = {
            let mut queue = self
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for completion in drained {
            let Some(Some(conn)) = self.conns.get_mut(completion.slot) else {
                continue;
            };
            if conn.generation != completion.generation {
                // The connection this turn belonged to is gone; the slot
                // was recycled.  Drop the bytes.
                continue;
            }
            conn.turn_in_flight = false;
            conn.out.queue_bytes(&completion.bytes);
            if completion.close_after {
                conn.closing = true;
            }
            self.drive_write(completion.slot);
            // The turn's completion re-opens reading; frames that arrived
            // during the turn may be buffered in user space (epoll only
            // sees the kernel buffer).
            if self.frame_ready(completion.slot) {
                self.drive_read(completion.slot);
            }
        }
    }

    /// Re-drive slots parked at the per-account write barrier whose
    /// account has since group-committed.  Runs after completions are
    /// applied each loop turn: the commit that clears an account also
    /// posts the enroll's completion, so the barrier costs one loop wake,
    /// not a poll interval.  Slots whose account is still pending re-park.
    fn redrive_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.parked);
        for (slot, username) in entries {
            if self.conns.get(slot).is_none_or(|c| c.is_none()) {
                continue; // closed while parked
            }
            if self.server.pending().is_pending(&username) {
                self.parked.push((slot, username));
                continue;
            }
            if self.frame_ready(slot) {
                self.drive_read(slot);
            }
        }
    }

    /// Reconcile the registered interest mask with the connection state.
    fn sync_interest(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired != conn.interest
            && self
                .epoll
                .modify(conn.fd, desired, slot as u64 + TOKEN_BASE)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Drop connections that have been silent past the idle timeout (the
    /// slowloris defense) and connections whose peer has accepted no
    /// response bytes for `ServerConfig::write_timeout` (without this, a
    /// peer that stops reading would pin its buffers and a
    /// `max_connections` slot forever).
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        let idle_timeout = self.server.config().idle_timeout;
        let write_timeout = self.server.config().write_timeout;
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let write_dead = !write_timeout.is_zero()
                    && conn
                        .write_stalled_since
                        .is_some_and(|since| now.duration_since(since) >= write_timeout);
                let idle = !conn.turn_in_flight
                    && conn.out.is_empty()
                    && !conn.closing
                    && !idle_timeout.is_zero()
                    && now.duration_since(conn.last_activity) >= idle_timeout;
                (write_dead || idle).then_some(slot)
            })
            .collect();
        for slot in stale {
            self.close_connection(slot);
        }
    }

    fn close_connection(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.fd);
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.deferred_free.push(slot);
            self.parked.retain(|(s, _)| *s != slot);
            self.live -= 1;
            // Dropping `conn` closes the stream: the peer sees EOF.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::AuthClient;
    use crate::protocol::{ClientMessage, LoginDecision, ServerMessage};
    use crate::server::ServerConfig;
    use gp_geometry::Point;
    use std::io::{Read as _, Write as _};
    use std::time::Duration;

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(40.0, 50.0),
            Point::new(130.0, 210.0),
            Point::new(305.0, 70.0),
            Point::new(410.0, 300.0),
            Point::new(220.0, 145.0),
        ]
    }

    fn spawn(config: ServerConfig) -> crate::server::ServerHandle {
        AuthServer::new(config)
            .spawn()
            .expect("spawn reactor server")
    }

    #[test]
    fn end_to_end_enroll_login_lockout_through_the_reactor() {
        let handle = spawn(ServerConfig::fast_for_tests());
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        let (scheme, n) = client.get_config().unwrap();
        assert_eq!((scheme.as_str(), n), ("centered:9", 5));
        client.enroll("alice", &clicks()).unwrap();
        let (decision, _) = client.login("alice", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        let wrong: Vec<Point> = clicks().iter().map(|p| p.offset(-40.0, -40.0)).collect();
        for i in 1..=3u32 {
            let (decision, failures) = client.login("alice", &wrong).unwrap();
            assert_eq!((decision, failures), (LoginDecision::Rejected, i));
        }
        let (decision, _) = client.login("alice", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::LockedOut);
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn pipelined_burst_with_corrupt_frame_stays_in_sync() {
        use crate::framing::FaultyBuffer;
        let handle = spawn(ServerConfig::fast_for_tests());
        {
            let mut client = AuthClient::connect(handle.addr()).unwrap();
            client.enroll("alice", &clicks()).unwrap();
            client.quit().unwrap();
        }
        // Hand-build a 3-login pipeline with the middle payload corrupted
        // and push the raw bytes at the reactor.
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
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&faulty.bytes).unwrap();
        let mut reader = FrameReader::new(&mut stream);
        let mut responses = Vec::new();
        for _ in 0..3 {
            responses.push(ServerMessage::decode(reader.read_frame().unwrap()).unwrap());
        }
        assert_eq!(
            responses[0],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert!(
            matches!(&responses[1], ServerMessage::Error { reason } if reason.contains("integrity"))
        );
        assert_eq!(
            responses[2],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            },
            "pipeline stays in sync across the corrupt frame"
        );
        assert!(!handle.server().lockout().is_locked("alice"));
        handle.shutdown();
    }

    #[test]
    fn enroll_then_login_in_one_pipelined_burst_sees_the_account() {
        // Per-account write barrier: a login pipelined right behind an
        // enroll for the same account must be prepared only after the
        // enrollment group-commits, even though both hash through the
        // compute pool.
        let handle = spawn(ServerConfig::fast_for_tests());
        let mut client = AuthClient::connect(handle.addr()).unwrap();
        let burst = vec![
            ClientMessage::Enroll {
                username: "eve".into(),
                clicks: clicks(),
            },
            ClientMessage::Login {
                username: "eve".into(),
                clicks: clicks(),
            },
            ClientMessage::GetConfig,
        ];
        let responses = client.request_pipelined(&burst).unwrap();
        assert_eq!(responses[0], ServerMessage::EnrollOk);
        assert_eq!(
            responses[1],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        assert!(matches!(responses[2], ServerMessage::Config { .. }));
        // A duplicate enrollment mid-pipeline fails only itself.
        let responses = client
            .request_pipelined(&[
                ClientMessage::Enroll {
                    username: "eve".into(),
                    clicks: clicks(),
                },
                ClientMessage::Login {
                    username: "eve".into(),
                    clicks: clicks(),
                },
            ])
            .unwrap();
        assert!(
            matches!(&responses[0], ServerMessage::Error { reason } if reason.contains("already")
                || reason.contains("duplicate") || reason.contains("exists")),
            "duplicate enroll rejected: {:?}",
            responses[0]
        );
        assert_eq!(
            responses[1],
            ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0
            }
        );
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn login_racing_an_uncommitted_enroll_parks_its_slot_while_others_proceed() {
        let handle = spawn(ServerConfig::fast_for_tests());
        {
            let mut client = AuthClient::connect(handle.addr()).unwrap();
            client.enroll("carol", &clicks()).unwrap();
            client.quit().unwrap();
        }
        // Hold victor's account barrier open, exactly as if his
        // enrollment's group commit were still in flight on another
        // connection.
        handle.server().pending().begin("victor");

        let mut racing = std::net::TcpStream::connect(handle.addr()).unwrap();
        racing
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        let mut request = Vec::new();
        FrameWriter::new(&mut request)
            .write_frame(
                &ClientMessage::Login {
                    username: "victor".into(),
                    clicks: clicks(),
                }
                .encode(),
            )
            .unwrap();
        racing.write_all(&request).unwrap();

        // An unrelated account's login flows around the parked slot.
        let mut other = AuthClient::connect(handle.addr()).unwrap();
        let (decision, _) = other.login("carol", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        other.quit().unwrap();

        // The racing login is still parked: nothing on the wire.
        let mut buf = [0u8; 1];
        match racing.read(&mut buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => panic!("parked login answered before the barrier cleared: {other:?}"),
        }

        // Lift the barrier: `redrive_parked` re-prepares the slot within
        // one loop wake and the response arrives (Rejected — the account
        // was never actually enrolled in this test).
        handle.server().pending().end("victor");
        racing
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let frame = FrameReader::new(&mut racing).read_frame().unwrap();
        match ServerMessage::decode(frame).unwrap() {
            ServerMessage::Error { reason } => {
                assert!(reason.contains("unknown account"), "{reason}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn batch_occupancy_grows_under_concurrent_pipelined_load() {
        let handle = spawn(ServerConfig::fast_for_tests());
        for i in 0..32 {
            let mut client = AuthClient::connect(handle.addr()).unwrap();
            client.enroll(&format!("user{i}"), &clicks()).unwrap();
            client.quit().unwrap();
        }
        // Enrollment hashing also routes through the verifier; measure the
        // login load against a post-enrollment baseline.
        let enrolled_attempts = handle.stats().batch.attempts;
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = AuthClient::connect(addr).unwrap();
                    for round in 0..4 {
                        let burst: Vec<ClientMessage> = (0..8)
                            .map(|i| ClientMessage::Login {
                                username: format!("user{}", (t * 8 + i + round) % 32),
                                clicks: clicks(),
                            })
                            .collect();
                        let responses = client.request_pipelined(&burst).unwrap();
                        assert_eq!(responses.len(), 8);
                        for r in responses {
                            assert!(matches!(
                                r,
                                ServerMessage::LoginResult {
                                    decision: LoginDecision::Accepted,
                                    ..
                                }
                            ));
                        }
                    }
                    client.quit().unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = handle.stats();
        assert_eq!(stats.batch.attempts - enrolled_attempts, 4 * 4 * 8);
        assert!(
            stats.batch.max_run >= 8,
            "an 8-deep pipelined turn must fill ≥8 lanes of one run: {:?}",
            stats.batch
        );
        assert!(
            stats.batch.mean_batch() > 1.5,
            "concurrent pipelined load must coalesce: {:?}",
            stats.batch
        );
        // Requests were served by the reactor + compute pool.
        let total: u64 = stats.workers.iter().map(|w| w.requests).sum();
        assert!(total >= 4 * 4 * 8);
        handle.shutdown();
    }

    #[test]
    fn stats_list_the_event_loop_then_one_entry_per_compute_thread() {
        let config = ServerConfig {
            workers: 3,
            ..ServerConfig::fast_for_tests()
        };
        let handle = spawn(config.clone());
        let mut client = AuthClient::connect(handle.addr()).unwrap();
        client.enroll("frank", &clicks()).unwrap();
        let mut burst: Vec<ClientMessage> = (0..6)
            .map(|_| ClientMessage::Login {
                username: "frank".into(),
                clicks: clicks(),
            })
            .collect();
        burst.push(ClientMessage::GetConfig);
        assert_eq!(client.request_pipelined(&burst).unwrap().len(), 7);
        client.get_config().unwrap();
        client.quit().unwrap();
        let sent = 1 + 7 + 1 + 1;

        let stats = handle.stats();
        assert_eq!(stats.workers.len(), config.workers + 1);
        for (index, worker) in stats.workers.iter().enumerate() {
            assert_eq!(worker.worker, index);
        }
        assert_eq!(stats.workers[0].connections, 1, "the event loop accepts");
        assert_eq!(
            stats.workers.iter().map(|w| w.requests).sum::<u64>(),
            sent,
            "every answered request is counted exactly once: {:?}",
            stats.workers
        );
        handle.shutdown();
    }

    #[test]
    fn hundreds_of_idle_connections_do_not_block_serving() {
        // Thread-per-connection serving would need 128 threads here; the
        // reactor holds them all with workers=2 (3 threads total).
        let config = ServerConfig {
            workers: 2,
            ..ServerConfig::fast_for_tests()
        };
        let handle = spawn(config);
        let idle: Vec<std::net::TcpStream> = (0..128)
            .map(|_| std::net::TcpStream::connect(handle.addr()).expect("idle connect"))
            .collect();
        // With 128 parked connections, a real client is still served.
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        client.enroll("bob", &clicks()).unwrap();
        let (decision, _) = client.login("bob", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        client.quit().unwrap();
        let stats = handle.stats();
        assert!(stats.workers[0].connections >= 129);
        drop(idle);
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_swept_after_the_timeout() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::fast_for_tests()
        };
        let handle = spawn(config);
        let mut idle = std::net::TcpStream::connect(handle.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let got = idle.read(&mut buf).expect("read after server close");
        assert_eq!(got, 0, "idle connection must be closed by the sweep");
        handle.shutdown();
    }

    #[test]
    fn max_connections_cap_refuses_by_immediate_close() {
        let config = ServerConfig {
            max_connections: 2,
            ..ServerConfig::fast_for_tests()
        };
        let handle = spawn(config);
        let _a = std::net::TcpStream::connect(handle.addr()).unwrap();
        let _b = std::net::TcpStream::connect(handle.addr()).unwrap();
        // Give the reactor a moment to register both.
        std::thread::sleep(Duration::from_millis(100));
        let mut refused = std::net::TcpStream::connect(handle.addr()).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        let got = refused.read(&mut buf).unwrap_or(0);
        assert_eq!(got, 0, "over-cap connection is closed immediately");
        handle.shutdown();
    }

    /// Encoded request bytes whose responses are each ~300 B: logins for
    /// unknown accounts echo the (maximally long, index-tagged) username
    /// in the error reason, so ten thousand-odd requests produce
    /// megabytes of response traffic — more than kernel socket buffers
    /// absorb, which is what forces the 256 KiB write-backpressure cap and
    /// the EPOLLOUT partial-write path over real TCP.
    fn bulky_request_bytes(count: usize) -> Vec<u8> {
        let filler = "x".repeat(crate::protocol::MAX_USERNAME_LEN - "u00000-".len());
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for i in 0..count {
            writer
                .write_frame_buffered(
                    &ClientMessage::Login {
                        username: format!("u{i:05}-{filler}"),
                        clicks: clicks(),
                    }
                    .encode(),
                )
                .unwrap();
        }
        bytes
    }

    #[test]
    fn peer_that_stops_reading_is_swept_after_the_write_timeout() {
        // A peer that sends requests but reads no responses: once its
        // kernel receive buffer (whatever size the host grants) and the
        // server's backpressure cap fill, the server's writes make no
        // progress, and a stall of `write_timeout` must close the
        // connection — otherwise the peer pins its buffers and a
        // `max_connections` slot forever.  The client keeps writing until
        // a write fails, so the test cannot pass before the sweep ran.
        let config = ServerConfig {
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::fast_for_tests()
        };
        let handle = spawn(config);
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let requests = bulky_request_bytes(100);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut at = 0;
        loop {
            assert!(
                Instant::now() < deadline,
                "stalled connection was never swept"
            );
            match stream.write(&requests[at..]) {
                Ok(n) => at = (at + n) % requests.len(),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                // Reset or broken pipe: the server closed the connection.
                Err(_) => break,
            }
        }
        // The read side ends too: whatever the kernel buffered drains,
        // then EOF or a reset — never a receive timeout.
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut sink = [0u8; 65536];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    panic!("read timed out: the swept connection is still open");
                }
                Err(_) => break,
            }
            assert!(Instant::now() < deadline, "the read side never ended");
        }
        // The slot is free again: a well-behaved client is served.
        let mut client = AuthClient::connect(handle.addr()).expect("connect");
        client.enroll("dave", &clicks()).unwrap();
        let (decision, _) = client.login("dave", &clicks()).unwrap();
        assert_eq!(decision, LoginDecision::Accepted);
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn write_backpressure_survives_a_slow_reader() {
        // ~4.5 MiB of responses bursted while the client reads nothing for
        // 300 ms, then drained: forces the cap, EPOLLOUT partial writes
        // and the read-pause/resume cycle — and every response must still
        // come back in order (the index-tagged username proves it).
        let handle = spawn(ServerConfig::fast_for_tests());
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let count = 16_000;
        let bytes = bulky_request_bytes(count);
        let mut write_half = stream.try_clone().unwrap();
        let writer_thread = std::thread::spawn(move || {
            write_half
                .write_all(&bytes)
                .expect("request burst delivered");
        });
        // Let the server hit the cap while we read nothing (well under
        // the 5 s default write_timeout, so it must NOT be swept).
        std::thread::sleep(Duration::from_millis(300));
        {
            let mut reader = FrameReader::new(&mut stream);
            for i in 0..count {
                let frame = reader
                    .read_frame()
                    .unwrap_or_else(|e| panic!("response {i} missing: {e}"));
                match ServerMessage::decode(frame).unwrap() {
                    ServerMessage::Error { reason } => assert!(
                        reason.contains(&format!("u{i:05}-")),
                        "response {i} out of order: {}",
                        &reason[..reason.len().min(40)]
                    ),
                    other => panic!("unexpected response {i}: {other:?}"),
                }
            }
        }
        writer_thread.join().unwrap();
        // The connection survived the whole cycle and is still in sync.
        let mut probe = Vec::new();
        FrameWriter::new(&mut probe)
            .write_frame(&ClientMessage::GetConfig.encode())
            .unwrap();
        stream.write_all(&probe).unwrap();
        let frame = FrameReader::new(&mut stream).read_frame().unwrap();
        assert!(matches!(
            ServerMessage::decode(frame).unwrap(),
            ServerMessage::Config { .. }
        ));
        handle.shutdown();
    }
}
