//! Load generators: closed-loop pipelined bursts, an open-loop schedule on
//! one connection, and depth-1 cluster clients.
//!
//! Every response is judged against the outcome generated with its
//! request; a wrong answer, error or timeout is tallied as a failure by
//! kind and never panics.

use crate::gen::{Account, Expect, Generator, Rng};
use crate::trace::{Span, Tracer};
use gp_netauth::{ClientMessage, ClusterClient, FrameReader, FrameWriter, LoginDecision};
use gp_netauth::{NetAuthError, ServerMessage};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a load thread waits for one response before counting it as a
/// timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Windows are cut into slices this long; robust metrics take the median
/// over slices.
pub const SLICE: Duration = Duration::from_secs(1);

/// One request with the outcome it must produce.
#[derive(Debug, Clone)]
pub struct Req {
    pub frame: Arc<[u8]>,
    pub expect: Expect,
    /// The enrolled account, for enrollments (checked after recovery).
    pub enrolls: Option<Arc<str>>,
}

impl Req {
    pub fn login(clicks: Vec<gp_geometry::Point>, name: &str, expect: Expect) -> Self {
        let message = ClientMessage::Login {
            username: name.to_string(),
            clicks,
        };
        Self {
            frame: Arc::from(&message.encode()[..]),
            expect,
            enrolls: None,
        }
    }

    pub fn enroll(account: &Account) -> Self {
        let message = ClientMessage::Enroll {
            username: account.name.clone(),
            clicks: account.clicks.clone(),
        };
        Self {
            frame: Arc::from(&message.encode()[..]),
            expect: Expect::EnrollOk,
            enrolls: Some(Arc::from(account.name.as_str())),
        }
    }
}

/// Whether `response` is the outcome `expect` demands; otherwise the kind
/// of failure.
pub fn judge(expect: Expect, response: &ServerMessage) -> Result<(), &'static str> {
    use LoginDecision::{Accepted, LockedOut, Rejected};
    match (expect, response) {
        (
            Expect::Accept,
            ServerMessage::LoginResult {
                decision: Accepted,
                failures: 0,
            },
        )
        | (
            Expect::RejectFirst,
            ServerMessage::LoginResult {
                decision: Rejected,
                failures: 1,
            },
        )
        | (Expect::EnrollOk, ServerMessage::EnrollOk) => Ok(()),
        (
            _,
            ServerMessage::LoginResult {
                decision: LockedOut,
                ..
            },
        ) => Err("locked_out"),
        (
            Expect::Accept,
            ServerMessage::LoginResult {
                decision: Rejected, ..
            },
        ) => Err("false_reject"),
        (
            Expect::RejectFirst,
            ServerMessage::LoginResult {
                decision: Accepted, ..
            },
        ) => Err("false_accept"),
        (_, ServerMessage::LoginResult { .. }) => Err("wrong_failure_count"),
        (_, ServerMessage::Error { .. }) => Err("server_error"),
        _ => Err("unexpected_response"),
    }
}

fn transport_kind(e: &NetAuthError) -> &'static str {
    match e {
        NetAuthError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            "timeout"
        }
        _ => "transport",
    }
}

/// The measured windows of one run, back to back after the warm-up.  A
/// traced run measures an untraced window and then a traced one.
#[derive(Debug, Clone)]
pub struct Windows {
    pub warmup_start: Instant,
    pub bounds: Vec<(Instant, Instant)>,
    pub traced: Vec<bool>,
}

impl Windows {
    pub fn new(warmup: Duration, lengths: &[(Duration, bool)]) -> Self {
        let warmup_start = Instant::now();
        let mut at = warmup_start + warmup;
        let mut bounds = Vec::new();
        for (length, _) in lengths {
            bounds.push((at, at + *length));
            at += *length;
        }
        Self {
            warmup_start,
            bounds,
            traced: lengths.iter().map(|(_, t)| *t).collect(),
        }
    }

    pub fn index(&self, t: Instant) -> Option<usize> {
        self.bounds.iter().position(|(s, e)| t >= *s && t < *e)
    }

    /// Which [`SLICE`]-long slice of window `w` holds `t`.
    pub fn slice(&self, w: usize, t: Instant) -> usize {
        let since = t.saturating_duration_since(self.bounds[w].0);
        (since.as_nanos() / SLICE.as_nanos()) as usize
    }

    pub fn end(&self) -> Instant {
        self.bounds.last().map_or(self.warmup_start, |b| b.1)
    }

    fn traced_at(&self, window: Option<usize>) -> bool {
        window.is_some_and(|w| self.traced[w])
    }
}

/// What one measured window saw from one load thread (merged across
/// threads with [`Tally::merge`]).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests issued in the window (by send, or by due time).
    pub attempted: u64,
    pub failed: u64,
    /// Correct responses that arrived inside the window, per slice.
    pub completed_by_slice: Vec<u64>,
    /// Login latencies per slice of the window (by issue time).
    pub login_by_slice: Vec<Vec<f64>>,
    pub failures: BTreeMap<&'static str, u64>,
    pub enroll_ms: Vec<f64>,
    /// Open loop only: how late each send ran against its due time.
    pub late_ms: Vec<f64>,
    pub rejected: u64,
    pub locked: u64,
    pub enrolls_acked: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        grow(&mut self.completed_by_slice, other.completed_by_slice.len());
        for (mine, theirs) in self
            .completed_by_slice
            .iter_mut()
            .zip(other.completed_by_slice)
        {
            *mine += theirs;
        }
        grow(&mut self.login_by_slice, other.login_by_slice.len());
        for (mine, theirs) in self.login_by_slice.iter_mut().zip(other.login_by_slice) {
            mine.extend(theirs);
        }
        for (kind, n) in other.failures {
            *self.failures.entry(kind).or_default() += n;
        }
        self.enroll_ms.extend(other.enroll_ms);
        self.late_ms.extend(other.late_ms);
        self.rejected += other.rejected;
        self.locked += other.locked;
        self.enrolls_acked += other.enrolls_acked;
    }

    /// Pad the slice series to `slices` (slices with no samples are
    /// still slices).
    pub fn pad_slices(&mut self, slices: usize) {
        grow(&mut self.completed_by_slice, slices);
        grow(&mut self.login_by_slice, slices);
    }

    /// Follow on with a later window's tally (another sub-run): its
    /// slices come after these.
    pub fn append(&mut self, later: Tally) {
        let mut later = later;
        self.completed_by_slice
            .append(&mut later.completed_by_slice);
        self.login_by_slice.append(&mut later.login_by_slice);
        self.merge(later);
    }

    pub fn completed(&self) -> u64 {
        self.completed_by_slice.iter().sum()
    }

    pub fn login_ms(&self) -> Vec<f64> {
        self.login_by_slice.concat()
    }

    fn fail(&mut self, kind: &'static str) {
        self.failed += 1;
        *self.failures.entry(kind).or_default() += 1;
    }

    /// Count one attempt, its lockout decision and, if it failed, its kind.
    fn judge(
        &mut self,
        outcome: Result<&ServerMessage, &'static str>,
        verdict: Result<(), &'static str>,
    ) {
        self.attempted += 1;
        if let Ok(ServerMessage::LoginResult { decision, .. }) = outcome {
            match decision {
                LoginDecision::Rejected => self.rejected += 1,
                LoginDecision::LockedOut => self.locked += 1,
                LoginDecision::Accepted => {}
            }
        }
        if let Err(kind) = verdict {
            self.fail(kind);
        }
    }
}

fn grow<T: Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize_with(len, T::default);
    }
}

/// One load thread's results.
#[derive(Debug)]
pub struct ThreadResult {
    /// Every attempt of the whole run, warm-up included: attempts, failures
    /// by kind and lockout decisions only.
    pub whole: Tally,
    /// Per measured window: everything the metrics need.
    pub tallies: Vec<Tally>,
    pub spans: Vec<Span>,
    /// Every enrollment acked over the whole run, warm-up included.
    pub acked_enrolls: Vec<Arc<str>>,
    /// Requests written over the whole run (the server must count as many).
    pub sent: u64,
    /// Cluster clients: nodes the client marked dead.
    pub failovers: u64,
}

impl ThreadResult {
    fn new(windows: &Windows) -> Self {
        Self {
            whole: Tally::default(),
            tallies: vec![Tally::default(); windows.bounds.len()],
            spans: Vec::new(),
            acked_enrolls: Vec::new(),
            sent: 0,
            failovers: 0,
        }
    }

    /// Settle one response to a request issued (or due) at `issued` in
    /// `window` and received at `received`.
    fn settle(
        &mut self,
        windows: &Windows,
        window: Option<usize>,
        req: &Req,
        outcome: Result<&ServerMessage, &'static str>,
        issued: Instant,
        received: Instant,
    ) {
        let latency_ms = ms_between(issued, received);
        let verdict = outcome.and_then(|r| judge(req.expect, r));
        if verdict.is_ok() {
            if let Some(name) = &req.enrolls {
                self.acked_enrolls.push(Arc::clone(name));
            }
        }
        self.whole.judge(outcome, verdict);
        let Some(w) = window else { return };
        let tally = &mut self.tallies[w];
        tally.judge(outcome, verdict);
        if verdict.is_err() {
            return;
        }
        if windows.index(received) == Some(w) {
            let slice = windows.slice(w, received);
            grow(&mut tally.completed_by_slice, slice + 1);
            tally.completed_by_slice[slice] += 1;
        }
        if req.enrolls.is_some() {
            tally.enrolls_acked += 1;
            tally.enroll_ms.push(latency_ms);
        } else {
            let slice = windows.slice(w, issued);
            grow(&mut tally.login_by_slice, slice + 1);
            tally.login_by_slice[slice].push(latency_ms);
        }
    }

    /// A connection attempt that failed: one failed attempt of the run.
    fn connect_failed(&mut self) {
        self.whole.judge(Err("connect"), Err("connect"));
    }
}

/// A framed client connection the benchmark drives directly, so it can
/// time the write, the flush and every response on its own.
pub struct Conn {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: FrameReader::new(BufReader::new(read_half)),
            writer: FrameWriter::new(BufWriter::new(stream)),
        })
    }

    fn split(
        self,
    ) -> (
        FrameReader<BufReader<TcpStream>>,
        FrameWriter<BufWriter<TcpStream>>,
    ) {
        (self.reader, self.writer)
    }

    fn write_burst(&mut self, burst: &[Req]) -> Result<(), NetAuthError> {
        for req in burst {
            self.writer.write_frame_buffered(&req.frame)?;
        }
        self.writer.flush()
    }

    fn read(&mut self) -> Result<ServerMessage, NetAuthError> {
        ServerMessage::decode(self.reader.read_frame()?)
    }
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Closed loop on one connection: write a burst, flush, read every
/// response, repeat until the last window ends.  Latency runs from the
/// burst's flush to the decode of the request's own response.
pub fn closed_loop(
    addr: SocketAddr,
    thread: usize,
    windows: &Windows,
    mut next_burst: impl FnMut() -> Vec<Req>,
) -> ThreadResult {
    let mut result = ThreadResult::new(windows);
    let mut tracer = Tracer::new(thread);
    let mut conn: Option<Conn> = None;
    let mut received = Vec::new();
    while Instant::now() < windows.end() {
        let Some(c) = conn.as_mut() else {
            match Conn::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    result.connect_failed();
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            continue;
        };
        let burst = next_burst();
        let started = Instant::now();
        let written = c.write_burst(&burst);
        let flushed = Instant::now();
        let window = windows.index(flushed);
        result.sent += burst.len() as u64;
        received.clear();
        let mut broken = written.err().map(|e| transport_kind(&e));
        for req in &burst {
            let response = match broken {
                Some(kind) => Err(kind),
                None => c.read().map_err(|e| transport_kind(&e)),
            };
            let at = Instant::now();
            if let Err(kind) = response {
                broken = Some(kind);
            }
            received.push(at);
            result.settle(
                windows,
                window,
                req,
                response.as_ref().map_err(|k| *k),
                flushed,
                at,
            );
        }
        if broken.is_some() {
            conn = None;
            continue;
        }
        if windows.traced_at(window) {
            let (first, last) = (received[0], received[received.len() - 1]);
            let root = tracer.record(0, "client.burst", started, last);
            tracer.record(root, "client.write", started, flushed);
            tracer.record(root, "client.first_response", flushed, first);
            tracer.record(root, "client.drain", first, last);
            for (req, at) in burst.iter().zip(&received) {
                let name = if req.enrolls.is_some() {
                    "op.enroll"
                } else {
                    "op.login"
                };
                tracer.record(root, name, flushed, *at);
            }
        }
    }
    result.spans = tracer.spans;
    result
}

/// A fixed-rate arrival schedule: request `i` is due at `start + i·period`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// Requests due before `end`.
    pub fn count_until(&self, end: Instant) -> usize {
        let span = end.saturating_duration_since(self.start);
        (span.as_nanos() / self.period.as_nanos()) as usize
    }
}

/// Open loop on one connection: a writer sends `requests[i]` at its due
/// time whether or not earlier responses have arrived; a reader times
/// each response from its due time.
pub fn open_loop(
    addr: SocketAddr,
    windows: &Windows,
    schedule: Schedule,
    requests: &[Req],
) -> ThreadResult {
    let mut result = ThreadResult::new(windows);
    let mut tracer = Tracer::new(0);
    let total = schedule.count_until(windows.end()).min(requests.len());
    let (mut reader, mut writer) = match Conn::connect(addr) {
        Ok(conn) => conn.split(),
        Err(_) => {
            result.connect_failed();
            for (i, req) in requests[..total].iter().enumerate() {
                let due = schedule.due(i);
                result.settle(windows, windows.index(due), req, Err("transport"), due, due);
            }
            return result;
        }
    };
    let late_ms = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(total);
            for (i, req) in requests[..total].iter().enumerate() {
                let due = schedule.due(i);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late.push(ms_between(due, Instant::now()));
                if writer.write_frame(&req.frame).is_err() {
                    break;
                }
            }
            late
        });
        let mut broken = None;
        for (i, req) in requests[..total].iter().enumerate() {
            let response = match broken {
                Some(kind) => Err(kind),
                None => reader
                    .read_frame()
                    .and_then(ServerMessage::decode)
                    .map_err(|e| transport_kind(&e)),
            };
            let at = Instant::now();
            if let Err(kind) = response {
                broken = Some(kind);
            }
            let window = windows.index(schedule.due(i));
            result.settle(
                windows,
                window,
                req,
                response.as_ref().map_err(|k| *k),
                schedule.due(i),
                at,
            );
            if windows.traced_at(window) {
                tracer.record(0, "op.login", schedule.due(i), at);
            }
        }
        sender.join().expect("open-loop sender thread")
    });
    result.spans = tracer.spans;
    result.sent = late_ms.len() as u64;
    for (i, late) in late_ms.into_iter().enumerate() {
        if let Some(w) = windows.index(schedule.due(i)) {
            result.tallies[w].late_ms.push(late);
        }
    }
    result
}

/// Depth-1 load through a ring-routing [`ClusterClient`]: every 4th
/// operation enrolls a fresh account, the rest log in to this thread's
/// earlier accounts with near-miss clicks.
pub fn cluster_loop(
    members: &[(String, SocketAddr)],
    thread: usize,
    windows: &Windows,
    gen: &Generator,
    mut rng: Rng,
    mut fresh_account: impl FnMut(&mut Rng) -> Account,
) -> ThreadResult {
    let mut result = ThreadResult::new(windows);
    let mut tracer = Tracer::new(thread);
    let mut client = ClusterClient::new(members);
    let mut enrolled: Vec<Account> = Vec::new();
    let mut turn = 0u64;
    while Instant::now() < windows.end() {
        let enroll = enrolled.is_empty() || turn.is_multiple_of(4);
        turn += 1;
        let started = Instant::now();
        let window = windows.index(started);
        let (req, response, span) = if enroll {
            let account = fresh_account(&mut rng);
            let req = Req::enroll(&account);
            let response = client
                .enroll(&account.name, &account.clicks)
                .map(|()| ServerMessage::EnrollOk);
            enrolled.push(account);
            (req, response, "cluster.enroll")
        } else {
            let account = &enrolled[rng.below(enrolled.len())];
            let clicks = gen.near_miss(&mut rng, account);
            assert!(
                gen.check(account, &clicks, Expect::Accept),
                "generator disagrees with the oracle"
            );
            let req = Req::login(clicks.clone(), &account.name, Expect::Accept);
            let response = client
                .login(&account.name, &clicks)
                .map(|(decision, failures)| ServerMessage::LoginResult { decision, failures });
            (req, response, "cluster.login")
        };
        let done = Instant::now();
        let outcome = response.as_ref().map_err(|e| match e {
            NetAuthError::Malformed { .. } => "server_error",
            other => transport_kind(other),
        });
        if response.is_err() && req.enrolls.is_some() {
            // Never log in to an account whose enrollment was not acked.
            enrolled.pop();
        }
        result.sent += 1;
        result.settle(windows, window, &req, outcome, started, done);
        if windows.traced_at(window) {
            tracer.record(0, span, started, done);
        }
    }
    result.failovers = (members.len() - client.live_nodes().len()) as u64;
    result.spans = tracer.spans;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open-loop latency counts from the due time: a request due at 0.5 ms
    /// whose send stalled until 10 ms and whose response came at 11 ms
    /// waited 10.5 ms, not the 1 ms a send-time clock would show.
    #[test]
    fn open_loop_latency_is_timed_from_due_time() {
        let windows = Windows::new(Duration::ZERO, &[(Duration::from_secs(60), false)]);
        let schedule = Schedule {
            start: windows.warmup_start,
            period: Duration::from_micros(500),
        };
        let mut result = ThreadResult::new(&windows);
        let ok = ServerMessage::LoginResult {
            decision: LoginDecision::Accepted,
            failures: 0,
        };
        let req = Req::login(Vec::new(), "u0000", Expect::Accept);
        let due = schedule.due(1);
        let received = schedule.start + Duration::from_millis(11);
        result.settle(&windows, windows.index(due), &req, Ok(&ok), due, received);
        let latency = result.tallies[0].login_ms()[0];
        assert!((latency - 10.5).abs() < 1e-9, "latency {latency}");
        assert_eq!(
            schedule.count_until(schedule.start + Duration::from_millis(10)),
            20
        );
    }

    /// End to end against a stub server that stalls before answering its
    /// first request: every response behind the stall carries the stall.
    #[test]
    fn open_loop_charges_a_stall_to_every_request_behind_it() {
        use gp_netauth::FrameReader;
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stall = Duration::from_millis(60);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
            let mut writer = FrameWriter::new(BufWriter::new(stream));
            std::thread::sleep(stall);
            let ok = ServerMessage::LoginResult {
                decision: LoginDecision::Accepted,
                failures: 0,
            };
            while reader.read_frame().is_ok() {
                if writer.write_frame(&ok.encode()).is_err() {
                    break;
                }
            }
        });
        let period = Duration::from_millis(5);
        let windows = Windows::new(Duration::ZERO, &[(Duration::from_millis(50), false)]);
        let schedule = Schedule {
            start: windows.warmup_start,
            period,
        };
        let req = Req::login(Vec::new(), "u0000", Expect::Accept);
        let result = open_loop(addr, &windows, schedule, &vec![req; 10]);
        server.join().expect("stub server");
        let tally = &result.tallies[0];
        assert_eq!(tally.failed, 0);
        let login_ms = tally.login_ms();
        assert_eq!(login_ms.len(), 10);
        // Request i was due at 5·i ms and answered after the 60 ms stall.
        for (i, latency) in login_ms.iter().enumerate() {
            let floor = 60.0 - 5.0 * i as f64;
            assert!(
                *latency >= floor - 1.0,
                "request {i}: {latency} ms < {floor} ms"
            );
        }
    }

    /// A wrong answer outside every measured window (the warm-up) still
    /// counts as a failed attempt of the run.
    #[test]
    fn warmup_failures_count_for_the_run() {
        let windows = Windows::new(Duration::from_secs(60), &[(Duration::from_secs(1), false)]);
        let mut result = ThreadResult::new(&windows);
        let accepted = ServerMessage::LoginResult {
            decision: LoginDecision::Accepted,
            failures: 0,
        };
        let req = Req::login(Vec::new(), "u0000", Expect::RejectFirst);
        let now = Instant::now();
        result.settle(&windows, windows.index(now), &req, Ok(&accepted), now, now);
        assert_eq!((result.whole.attempted, result.whole.failed), (1, 1));
        assert_eq!(result.whole.failures.get("false_accept"), Some(&1));
        assert_eq!(result.tallies[0].attempted, 0);
    }

    /// A server that refuses every connection yields failed attempts, not
    /// an empty, clean run.
    #[test]
    fn refused_connections_are_failures() {
        let addr = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            listener.local_addr().expect("addr")
        };
        let windows = Windows::new(Duration::ZERO, &[(Duration::from_millis(50), false)]);
        let req = Req::login(Vec::new(), "u0000", Expect::Accept);
        let result = closed_loop(addr, 0, &windows, || vec![req.clone()]);
        assert!(result.whole.attempted > 0);
        assert_eq!(result.whole.failed, result.whole.attempted);
        assert_eq!(result.sent, 0);
    }

    #[test]
    fn judge_names_each_failure_kind() {
        let result = |decision, failures| ServerMessage::LoginResult { decision, failures };
        assert_eq!(
            judge(Expect::Accept, &result(LoginDecision::Accepted, 0)),
            Ok(())
        );
        assert_eq!(
            judge(Expect::RejectFirst, &result(LoginDecision::Rejected, 1)),
            Ok(())
        );
        assert_eq!(judge(Expect::EnrollOk, &ServerMessage::EnrollOk), Ok(()));
        assert_eq!(
            judge(Expect::Accept, &result(LoginDecision::Rejected, 1)),
            Err("false_reject")
        );
        assert_eq!(
            judge(Expect::RejectFirst, &result(LoginDecision::Accepted, 0)),
            Err("false_accept")
        );
        assert_eq!(
            judge(Expect::RejectFirst, &result(LoginDecision::Rejected, 2)),
            Err("wrong_failure_count")
        );
        assert_eq!(
            judge(Expect::Accept, &result(LoginDecision::LockedOut, 3)),
            Err("locked_out")
        );
        assert_eq!(
            judge(Expect::EnrollOk, &ServerMessage::Goodbye),
            Err("unexpected_response")
        );
    }
}
