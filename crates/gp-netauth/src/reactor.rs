//! Event-driven serving: one `epoll` event loop plus a fixed pool of
//! compute threads, for both of a node's protocols.
//!
//! Parking a thread on every connection would let idle or slow peers
//! occupy threads and cap connection capacity near the thread count.
//! Instead **one event-loop thread** owns every connection as a
//! nonblocking state machine, multiplexed by level-triggered
//! [`crate::sys::Epoll`] (an idle connection costs one fd and a few
//! hundred bytes of buffers), and **compute threads** drain a queue of
//! turns and post answers back through a registered
//! [`crate::sys::EventFd`].
//!
//! One loop, two services (`Service`): the loop owns accept, framing,
//! write backpressure, the idle and write-stall sweeps, slot generations
//! and the turn queue; a service only cuts turns off a connection's
//! frames and answers them.  Each node runs two instances:
//!
//! * **clients** ([`crate::server::AuthServer::spawn`]): a turn drains up
//!   to 32 pipelined requests, and the `ServerConfig::workers` hash
//!   threads merge turns *across connections* until their jobs fill
//!   [`gp_crypto::LANES`] lanes, so lane occupancy rises with offered
//!   load, not with thread count;
//! * **replicas** ([`crate::replication::spawn_replication_listener`]):
//!   the loop answers the `Hello` handshake and cuts a run of `Record`s
//!   or one other request per turn, and
//!   [`crate::replication::REPLICA_COMPUTE_THREADS`] threads answer each
//!   turn with the replica function, so every WAL append, fsync and
//!   range scan stays off the loop.  Listings go to the first compute
//!   thread only (`Service::any_thread`), so scans never hold them all.
//!
//! ```text
//!            EPOLLIN                 answered on the loop
//!   Idle ──────────────► Reading ────────────────────────► reply now ─┐
//!    ▲                      │ compute work                            │
//!    │                      ▼                                         │
//!    │                TurnPending (EPOLLIN off — one turn in flight)  │
//!    │                      │ completion via eventfd                  │
//!    │                      ▼                                         ▼
//!    └───────────────── replies queued ──► WriteBackpressure (EPOLLOUT
//!        buffer drained                       while bytes pending)
//! ```
//!
//! * **Ordering** — at most one turn per connection is in flight, and a
//!   turn's replies are in request order, so replies never reorder.
//! * **No busy-waiting** — `EPOLLIN` interest is dropped while a turn is
//!   in flight or the write buffer is over its cap.
//! * **Stale completions** — every slot carries a generation; a completion
//!   for a connection that died mid-turn is dropped (its side effects
//!   stand, exactly as if the reply were lost in flight).
//! * **Durability ordering** — a compute thread answers a whole batch
//!   before posting it: client enrollments pass one group-commit barrier
//!   (one fsync per touched shard), and a replica applies each `Record`
//!   durably before its `Ack`, so no acknowledgement reaches the wire
//!   ahead of the write it promises.
//! * **Per-account barrier** — a client login racing an in-flight enroll
//!   for the *same* account parks (`Reactor::parked`) until the enroll's
//!   group commit lands, and is re-driven after completions are applied:
//!   the wait is one barrier, not a poll interval.

use crate::error::NetAuthError;
use crate::framing::{FrameReader, WriteBuffer};
use crate::server::{Cut, Limits, ReactorParts, Reply, Service, WorkerMetrics};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use bytes::Bytes;
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

/// Maximum request frames read off one connection per turn.
const PIPELINE_MAX: usize = 32;

/// Pending response bytes above which a connection stops reading new
/// requests (resumed once the peer drains its responses).
const WRITE_BACKPRESSURE_CAP: usize = 256 * 1024;

/// Minimum spacing between idle/stall sweeps.  The sweep walks every
/// slot, so running it on every event batch would charge O(connections)
/// to the loop under load — exactly the cost the reactor exists to avoid.
/// 100 ms keeps timeout granularity well under the smallest configured
/// timeouts while making the scan cost negligible.
const SWEEP_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

/// Where a turn's reply goes, and what follows it.
struct Ticket {
    slot: usize,
    generation: u64,
    /// Close the connection once the reply is flushed.
    close_after: bool,
    /// Request frames the turn consumed (its answering thread counts
    /// them).
    requests: usize,
}

/// An answered turn on its way back to the event loop.
type Completion = (Ticket, Reply);

/// Blocking multi-producer multi-consumer queue of cut turns.
///
/// `pop_coalesced` is where cross-connection batching happens: a compute
/// thread takes one turn (blocking) and then opportunistically drains
/// more until their weight reaches [`Service::BATCH`], so a deep queue
/// of client turns turns into full 16-lane hash runs instead of sixteen
/// 1-lane ones.  A thread waits here for as long as there is nothing it
/// may take; the queue's close (when the event loop ends) releases it.
struct TurnQueue<T> {
    state: Mutex<TurnQueueState<T>>,
    available: Condvar,
}

struct TurnQueueState<T> {
    turns: VecDeque<T>,
    closed: bool,
}

impl<T> TurnQueue<T> {
    fn new() -> Self {
        Self {
            state: Mutex::new(TurnQueueState {
                turns: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Queue `turn`; `wake_all` when only some threads may take it, so
    /// the wakeup cannot land on one that may not.
    fn push(&self, turn: T, wake_all: bool) {
        // Poisoning only means another thread panicked while queueing; the
        // queue itself is a plain VecDeque, so keep serving rather than
        // cascading the panic through the reactor.
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.turns.push_back(turn);
        drop(state);
        if wake_all {
            self.available.notify_all();
        } else {
            self.available.notify_one();
        }
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

    /// Wait for a turn `eligible` lets this thread take, then take such
    /// turns, oldest first, until their weight reaches `batch`; `None`
    /// once the queue is closed and holds none.
    fn pop_coalesced(
        &self,
        batch: usize,
        weight: impl Fn(&T) -> usize,
        eligible: impl Fn(&T) -> bool,
    ) -> Option<Vec<T>> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut state = self
            .available
            .wait_while(state, |s| !s.closed && !s.turns.iter().any(&eligible))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut turns = Vec::new();
        let mut taken = 0usize;
        while taken < batch {
            let at = state.turns.iter().position(&eligible);
            let Some(turn) = at.and_then(|at| state.turns.remove(at)) else {
                break;
            };
            taken += weight(&turn);
            turns.push(turn);
        }
        (!turns.is_empty()).then_some(turns)
    }
}

/// One live connection owned by the reactor.
struct Connection<C> {
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
    /// The service's protocol state for this connection.
    state: C,
    /// Slot generation this connection was created under.
    generation: u64,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Whether a turn is with the compute pool (reads are paused).
    turn_in_flight: bool,
    /// Flush remaining bytes, then close.
    closing: bool,
    /// Frames read off the socket but not yet cut into a turn — a client
    /// turn stops at the per-account write barrier, and a replica turn at
    /// its first request that is not a `Record`, leaving the rest here
    /// for the next turn.  `None` marks an integrity failure.
    pending: VecDeque<Option<Bytes>>,
    /// The socket hit EOF (or a protocol-fatal error): stop reading and
    /// close once `pending` is processed and the output drains.
    read_eof: bool,
    /// Last time the peer produced a frame (for the idle sweep).
    last_activity: Instant,
    /// When the pending output last stopped making progress (`None` while
    /// the buffer is draining or empty).  A peer that stops reading is
    /// closed once it has stalled for [`Limits::write_timeout`].
    write_stalled_since: Option<Instant>,
}

impl<C> Connection<C> {
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

    /// Top up the frame queue from the socket, up to [`PIPELINE_MAX`].
    fn read_frames(&mut self) {
        while self.pending.len() < PIPELINE_MAX {
            match self.reader.read_frame() {
                Ok(frame) => self.pending.push_back(Some(frame)),
                Err(NetAuthError::IntegrityFailure) => self.pending.push_back(None),
                Err(NetAuthError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                // EOF, a protocol-fatal frame (bad version, oversized) or
                // a hard I/O error: answer what we have, then close.
                Err(_) => {
                    self.read_eof = true;
                    break;
                }
            }
        }
        // Refresh the idle clock only when the peer produced at least one
        // *complete* frame: a byte-trickling peer (slowloris) must keep
        // aging toward the idle sweep.
        if !self.pending.is_empty() {
            self.last_activity = Instant::now();
        }
    }
}

/// The reactor: owns the epoll instance, the listener and every
/// connection; runs on its own thread.
struct Reactor<S: Service> {
    service: Arc<S>,
    limits: Limits,
    epoll: Epoll,
    waker: Arc<EventFd>,
    listener: TcpListener,
    conns: Vec<Option<Connection<S::Conn>>>,
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
    turns: Arc<TurnQueue<(Ticket, S::Work)>>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    /// Slots whose next turn parked ([`Cut::Park`]): the frames wait in
    /// the connection's queue and the slot is re-driven after completions
    /// are applied (the group commit that clears a client account also
    /// posts the completion that wakes the loop).
    parked: Vec<(usize, String)>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<WorkerMetrics>,
    /// When the last idle/stall sweep ran (sweeps are rate-limited to
    /// [`SWEEP_INTERVAL`]).
    last_sweep: Instant,
    /// Connections whose output is pending (`write_stalled_since` set):
    /// while there are none and no idle timeout is set, no sweep can
    /// close anything, and the loop sleeps until an event.
    stalled: usize,
}

/// Spawn an event loop and its compute threads serving `service` on
/// `listener`.
pub(crate) fn spawn_reactor<S: Service>(
    service: Arc<S>,
    listener: TcpListener,
    limits: Limits,
) -> Result<ReactorParts, NetAuthError> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let waker = Arc::new(EventFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;

    let turns = Arc::new(TurnQueue::new());
    let completions = Arc::new(Mutex::new(VecDeque::new()));
    let reactor_metrics = Arc::new(WorkerMetrics::default());
    let mut metrics = vec![Arc::clone(&reactor_metrics)];
    let [loop_name, compute_name] = S::THREADS;

    let mut compute_joins = Vec::with_capacity(limits.compute_threads);
    for index in 0..limits.compute_threads {
        let worker_metrics = Arc::new(WorkerMetrics::default());
        metrics.push(Arc::clone(&worker_metrics));
        let service = Arc::clone(&service);
        let turns = Arc::clone(&turns);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        compute_joins.push(
            std::thread::Builder::new()
                .name(format!("{compute_name}-{index}"))
                .spawn(move || {
                    compute_loop(
                        &*service,
                        index == 0,
                        &turns,
                        &completions,
                        &waker,
                        &worker_metrics,
                    )
                })
                .map_err(NetAuthError::Io)?,
        );
    }

    let mut reactor = Reactor {
        service,
        limits,
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
        shutdown: Arc::clone(&shutdown),
        metrics: reactor_metrics,
        last_sweep: Instant::now(),
        stalled: 0,
    };
    let reactor_join = std::thread::Builder::new()
        .name(loop_name.into())
        .spawn(move || reactor.run())
        .map_err(NetAuthError::Io)?;
    let mut joins = vec![reactor_join];
    joins.append(&mut compute_joins);
    Ok(ReactorParts {
        addr,
        shutdown,
        joins,
        metrics,
    })
}

/// Compute thread: take coalesced turns, answer them, post completions,
/// until the queue closes.  Only the `first` thread takes the turns
/// [`Service::any_thread`] holds back from the rest.
fn compute_loop<S: Service>(
    service: &S,
    first: bool,
    turns: &TurnQueue<(Ticket, S::Work)>,
    completions: &Mutex<VecDeque<Completion>>,
    waker: &EventFd,
    metrics: &WorkerMetrics,
) {
    let weight = |(_, work): &(Ticket, S::Work)| S::weight(work);
    let eligible = |(_, work): &(Ticket, S::Work)| first || S::any_thread(work);
    while let Some(batch) = turns.pop_coalesced(S::BATCH, weight, eligible) {
        let (tickets, work): (Vec<Ticket>, Vec<S::Work>) = batch.into_iter().unzip();
        let answered = service.answer(work);
        for ticket in &tickets {
            metrics
                .requests
                .fetch_add(ticket.requests as u64, Ordering::Relaxed);
        }
        completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(tickets.into_iter().zip(answered));
        waker.signal();
    }
}

/// However the loop ends, a panic included, close the turn queue: the
/// compute threads drain it and exit.  Every connection drops with the
/// reactor (peers see EOF).
impl<S: Service> Drop for Reactor<S> {
    fn drop(&mut self) {
        self.turns.close();
    }
}

impl<S: Service> Reactor<S> {
    // gp-lint: reactor-root
    fn run(&mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        while !self.shutdown.load(Ordering::SeqCst) {
            // `ReactorParts::stop` wakes the wait with a connection after
            // raising the flag, so only the sweeps need a timed wake.
            let n = match self.epoll.wait(&mut events, self.wait_timeout_ms()) {
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
    }

    /// How long the loop may sleep in `epoll_wait`: until the next sweep
    /// is due while a sweep could close something (a connection is open
    /// under an idle timeout, or one has output pending under a write
    /// timeout), otherwise until an event arrives (`-1`).
    fn wait_timeout_ms(&self) -> i32 {
        let idle = self.live > 0 && !self.limits.idle_timeout.is_zero();
        let stalled = self.stalled > 0 && !self.limits.write_timeout.is_zero();
        if !(idle || stalled) {
            return -1;
        }
        // At most `SWEEP_INTERVAL`, so the milliseconds fit an `i32`.
        let due = (self.last_sweep + SWEEP_INTERVAL).saturating_duration_since(Instant::now());
        due.as_micros().div_ceil(1000) as i32
    }

    /// Accept every pending connection (the listener is level-triggered:
    /// stop at `WouldBlock`).  No accept error ends the loop: the rest
    /// (`ECONNABORTED`, `EMFILE`, ...) wait for the next readiness.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.live >= self.limits.max_connections {
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
                state: S::Conn::default(),
                generation: self.generations[slot],
                interest,
                turn_in_flight: false,
                closing: false,
                pending: VecDeque::new(),
                read_eof: false,
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
    /// [`PIPELINE_MAX`] frames; complete frames may remain in the read
    /// buffer after an inline-settled turn, invisible to epoll, so loop
    /// while the reader still holds one and the connection can take more.
    fn drive_read(&mut self, slot: usize) {
        while self.drive_read_once(slot) {}
    }

    /// One read turn.  Returns whether another queued or buffered frame is
    /// ready to process immediately.
    fn drive_read_once(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        // Top up the frame queue from the socket, unless a previous turn
        // left frames queued or the socket already ended.
        if conn.pending.is_empty() && !conn.read_eof {
            conn.read_frames();
        }
        if conn.pending.is_empty() {
            if !conn.read_eof {
                self.sync_interest(slot);
            } else if conn.out.is_empty() {
                self.close_connection(slot);
            } else {
                // Deliver what the peer is owed first (it may have
                // half-closed after sending its requests); the drain or
                // the write-stall sweep finishes the close.
                conn.closing = true;
                self.sync_interest(slot);
            }
            return false;
        }
        let queued = conn.pending.len();
        let cut = self
            .service
            .cut(&mut conn.pending, &mut conn.state, &self.metrics);
        let requests = queued - conn.pending.len();
        // An EOF ends the conversation once no queued frame is left.
        let eof = conn.read_eof && conn.pending.is_empty();
        match cut {
            Cut::Park(key) => {
                if !self.parked.iter().any(|(s, _)| *s == slot) {
                    self.parked.push((slot, key));
                }
                self.sync_interest(slot);
                false
            }
            Cut::Now(reply) => {
                conn.out.queue_bytes(&reply.bytes);
                conn.closing = reply.close || eof;
                self.metrics
                    .requests
                    .fetch_add(requests as u64, Ordering::Relaxed);
                self.drive_write(slot);
                self.frame_ready(slot)
            }
            Cut::Later(work, close) => {
                conn.turn_in_flight = true;
                let ticket = Ticket {
                    slot,
                    generation: conn.generation,
                    close_after: close || eof,
                    requests,
                };
                self.sync_interest(slot);
                let wake_all = !S::any_thread(&work);
                self.turns.push((ticket, work), wake_all);
                false
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
            let was_stalled = conn.write_stalled_since.is_some();
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
            match (was_stalled, conn.write_stalled_since.is_some()) {
                (false, true) => self.stalled += 1,
                (true, false) => self.stalled -= 1,
                _ => {}
            }
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

    /// Apply answered turns from the compute pool to their connections.
    fn process_completions(&mut self) {
        let drained: Vec<Completion> = {
            let mut queue = self
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for (ticket, reply) in drained {
            let Some(Some(conn)) = self.conns.get_mut(ticket.slot) else {
                continue;
            };
            if conn.generation != ticket.generation {
                // The connection this turn belonged to is gone; the slot
                // was recycled.  Drop the bytes.
                continue;
            }
            conn.turn_in_flight = false;
            conn.out.queue_bytes(&reply.bytes);
            conn.closing |= ticket.close_after || reply.close;
            self.drive_write(ticket.slot);
            // The turn's completion re-opens reading; frames that arrived
            // during the turn may be buffered in user space (epoll only
            // sees the kernel buffer).
            if self.frame_ready(ticket.slot) {
                self.drive_read(ticket.slot);
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
            if self.service.still_parked(&username) {
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
    /// response bytes for the write timeout (without this, a peer that
    /// stops reading would pin its buffers and a connection slot forever).
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        let (idle_timeout, write_timeout) = (self.limits.idle_timeout, self.limits.write_timeout);
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
            self.stalled -= usize::from(conn.write_stalled_since.is_some());
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
    use crate::framing::FrameWriter;
    use crate::protocol::{ClientMessage, LoginDecision, ServerMessage};
    use crate::server::{AuthServer, ServerConfig};
    use gp_geometry::Point;
    use std::io::{Read as _, Write as _};
    use std::time::Duration;

    /// A turn only the first compute thread may take waits for it: the
    /// others take the turns behind it, and leave once the queue closes.
    #[test]
    fn held_back_turns_wait_for_the_first_compute_thread() {
        let queue = TurnQueue::new();
        queue.push(("listing", 1), true);
        queue.push(("record", 1), false);
        queue.push(("record", 1), false);
        let weight = |_: &(&str, usize)| 1;
        let others = |turn: &(&str, usize)| turn.0 == "record";
        let taken = queue.pop_coalesced(1, weight, others).unwrap();
        assert_eq!(taken, [("record", 1)]);
        queue.close();
        assert_eq!(
            queue.pop_coalesced(4, weight, others).unwrap(),
            [("record", 1)]
        );
        assert_eq!(queue.pop_coalesced(4, weight, others), None);
        let first = |_: &(&str, usize)| true;
        assert_eq!(
            queue.pop_coalesced(4, weight, first).unwrap(),
            [("listing", 1)]
        );
        assert_eq!(queue.pop_coalesced(4, weight, first), None);
    }

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
        handle.server().pending.begin("victor");

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
        handle.server().pending.end("victor");
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
        // Enrollment hashing also routes through the hash step; measure the
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
