//! A deterministic explorer of cluster schedules: three real nodes on an
//! in-memory network, with a chosen fate for every node action and every
//! frame.
//!
//! Each node is a durable [`ShardedPasswordStore`] in its own temp dir
//! and a real [`Replicator`] whose links ([`FrameLink`]) are in-memory
//! connections.  Flushing a connection hands each queued frame to the
//! receiving node's replica service synchronously ([`serve_frame`]: the
//! event loop's handshake and turn cut, then the compute side's answer),
//! so one thread runs the whole cluster and every run is a pure function
//! of its choices:
//!
//! * at every step, one node action: enroll a fresh account at its
//!   primary or at its backup, run an anti-entropy round, crash a node
//!   (reopen its store from its WAL) then restart and catch it up, or
//!   partition or heal a pair of nodes;
//! * at every frame, in either direction: deliver it, or lose the
//!   connection there (the frame and everything after it on that
//!   connection are lost, as when TCP breaks or a node crashes mid-stream).
//!
//! After the last step the run heals every partition, restarts every node
//! (each restart is a catch-up round) on a reliable network, and checks
//! that the copies converged.  [`exhaustive`] enumerates every schedule up
//! to a bound on steps and lost connections, skipping a state already
//! explored with the same budget left; [`random_walks`] samples deeper
//! schedules from a seed.  A failure panics with a choice string that
//! [`replay`] re-runs exactly.
//!
//! What it does not cover: thread interleavings inside a node (gp-sched's
//! models do), timing, and the TCP code itself ([`crate::framing::TcpLink`]
//! and the event loop's sockets and queues, which the socket tests drive).

use crate::error::NetAuthError;
use crate::framing::{FrameLink, FrameReader};
use crate::replication::{Dial, Replica, ReplicaMessage, Replicator, ReplicatorConfig};
use crate::server::{Cut, Reply, Service, WorkerMetrics};
use crate::ReplicationSink;
use bytes::Bytes;
use gp_geometry::Point;
use gp_passwords::prelude::*;
use gp_passwords::{DurabilityOptions, HashRing, ShardedPasswordStore, WalEntry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 3;
const SHARDS: usize = 2;

fn node_id(i: usize) -> String {
    format!("node-{i}")
}

/// A placeholder address: the in-memory dialer routes by node ID.
fn node_addr(i: usize) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 1 + i as u16))
}

fn lost(what: &str) -> NetAuthError {
    NetAuthError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, what))
}

/// What a replica's event loop and compute threads send back for one
/// `frame` arriving on a connection whose handshake state is `greeted`:
/// the loop's [`Replica::cut`], then, for a request, the compute side's
/// [`Service::answer`].
pub(crate) fn serve_frame(replica: &Replica, greeted: &mut bool, frame: Bytes) -> Reply {
    let mut frames = VecDeque::from([Some(frame)]);
    match replica.cut(&mut frames, greeted, &WorkerMetrics::default()) {
        Cut::Now(reply) => reply,
        Cut::Later(turn, close) => {
            let mut reply = replica.answer(vec![turn]).remove(0);
            reply.close |= close;
            reply
        }
        Cut::Park(_) => unreachable!("a replica never parks a turn"),
    }
}

/// The payloads of a reply's frames.
pub(crate) fn reply_payloads(reply: &Reply) -> Vec<Bytes> {
    let mut reader = FrameReader::new(reply.bytes.as_slice());
    std::iter::from_fn(|| reader.read_frame().ok()).collect()
}

// ---------------------------------------------------------------------------
// Choices
// ---------------------------------------------------------------------------

/// SplitMix64, for the random walks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Where each choice comes from: a scripted prefix first (a replay, or
/// the DFS's current branch), then the first option, or a random one.
struct Chooser {
    script: Vec<usize>,
    /// Every choice point with more than one option: `(chosen, options)`.
    taken: Vec<(usize, usize)>,
    random: Option<Rng>,
    cuts_left: usize,
    /// False once the final phase runs on a reliable network.
    faults: bool,
}

/// Random walks lose a connection at one frame in this many.
const CUT_ODDS: usize = 12;

impl Chooser {
    fn pick(&mut self, options: usize, random: impl FnOnce(&mut Rng) -> usize) -> usize {
        if options < 2 {
            return 0;
        }
        let at = self.taken.len();
        let chosen = match (self.script.get(at), &mut self.random) {
            (Some(&scripted), _) => {
                assert!(
                    scripted < options,
                    "choice {at} is {scripted} of {options}: the schedule does not replay"
                );
                scripted
            }
            (None, Some(rng)) => random(rng),
            (None, None) => 0,
        };
        self.taken.push((chosen, options));
        chosen
    }

    fn choose(&mut self, options: usize) -> usize {
        self.pick(options, |rng| rng.below(options))
    }

    /// Whether the connection is lost at this frame.
    fn cut(&mut self) -> bool {
        if !self.faults || self.cuts_left == 0 {
            return false;
        }
        let cut = self.pick(2, |rng| usize::from(rng.below(CUT_ODDS) == 0)) == 1;
        self.cuts_left -= usize::from(cut);
        cut
    }
}

// ---------------------------------------------------------------------------
// The in-memory network
// ---------------------------------------------------------------------------

struct Node {
    store: Arc<ShardedPasswordStore>,
    /// Bumped by every crash: connections to an earlier incarnation fail.
    epoch: u64,
}

/// One connection: the requester's end is a [`MemLink`]; the replica's
/// end is the handshake flag its event loop keeps.
struct Conn {
    from: usize,
    to: usize,
    to_epoch: u64,
    /// The requester still holds the link.
    open: bool,
    broken: bool,
    greeted: bool,
    outbox: Vec<Bytes>,
    inbox: VecDeque<Bytes>,
    /// Names of the records delivered on this connection, by `seq`.
    records: BTreeMap<u64, String>,
}

struct Net {
    nodes: Vec<Node>,
    /// Partitioned pairs, lower index first.
    partitions: BTreeSet<(usize, usize)>,
    conns: Vec<Conn>,
    chooser: Chooser,
    /// `(account, node)`: the node acked a record of the account.
    acks: BTreeSet<(String, usize)>,
    log: Vec<String>,
}

impl Net {
    fn reachable(&self, a: usize, b: usize) -> bool {
        !self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Hand `id`'s queued frames to the replica, and its replies back,
    /// each frame delivered or the connection lost there.
    fn deliver(&mut self, id: usize) {
        let frames = std::mem::take(&mut self.conns[id].outbox);
        for frame in frames {
            let (from, to) = (self.conns[id].from, self.conns[id].to);
            let up = self.conns[id].to_epoch == self.nodes[to].epoch && self.reachable(from, to);
            if self.conns[id].broken || !up || self.chooser.cut() {
                self.lose(id, "request");
                return;
            }
            if let Ok(ReplicaMessage::Record { seq, payload }) =
                ReplicaMessage::decode(frame.clone())
            {
                let name = WalEntry::from_payload(&payload).map(|e| e.username().to_string());
                self.conns[id].records.insert(seq, name.unwrap_or_default());
            }
            let replica = Replica {
                node_id: node_id(to),
                store: Arc::clone(&self.nodes[to].store),
            };
            let reply = serve_frame(&replica, &mut self.conns[id].greeted, frame);
            for payload in reply_payloads(&reply) {
                if self.chooser.cut() {
                    self.lose(id, "reply");
                    return;
                }
                if let Ok(ReplicaMessage::Ack { seq }) = ReplicaMessage::decode(payload.clone()) {
                    let acked: Vec<String> = self.conns[id]
                        .records
                        .range(..=seq)
                        .map(|(_, name)| name.clone())
                        .collect();
                    self.acks.extend(acked.into_iter().map(|name| (name, to)));
                }
                self.conns[id].inbox.push_back(payload);
            }
            if reply.close {
                self.lose(id, "protocol error");
                return;
            }
        }
    }

    fn lose(&mut self, id: usize, what: &str) {
        let conn = &mut self.conns[id];
        if !conn.broken {
            conn.broken = true;
            conn.outbox.clear();
            let line = format!("  lost node-{}→node-{} at a {what}", conn.from, conn.to);
            self.log.push(line);
        }
    }
}

/// The requester's end of an in-memory connection.
#[derive(Debug)]
struct MemLink {
    net: Arc<Mutex<Net>>,
    id: usize,
}

impl FrameLink for MemLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), NetAuthError> {
        let mut net = self.net.lock();
        net.conns[self.id]
            .outbox
            .push(Bytes::from(payload.to_vec()));
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetAuthError> {
        self.net.lock().deliver(self.id);
        Ok(())
    }

    /// Every reply a flush can produce is already in the inbox, so an
    /// empty inbox means nothing will arrive: time out at once.
    fn recv_by(&mut self, _deadline: Instant) -> Result<Bytes, NetAuthError> {
        let mut net = self.net.lock();
        net.conns[self.id]
            .inbox
            .pop_front()
            .ok_or_else(|| lost("no reply on the in-memory link"))
    }
}

impl Drop for MemLink {
    fn drop(&mut self) {
        self.net.lock().conns[self.id].open = false;
    }
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net").finish_non_exhaustive()
    }
}

/// Node `from`'s dialer.
#[derive(Debug)]
struct MemDial {
    net: Arc<Mutex<Net>>,
    from: usize,
}

impl Dial for MemDial {
    fn dial(
        &self,
        peer: &str,
        _addr: SocketAddr,
        _timeout: Duration,
    ) -> Result<Box<dyn FrameLink>, NetAuthError> {
        let to = (0..NODES)
            .find(|&i| node_id(i) == peer)
            .ok_or_else(|| lost("unknown peer"))?;
        let mut net = self.net.lock();
        if !net.reachable(self.from, to) {
            return Err(lost("partitioned"));
        }
        let to_epoch = net.nodes[to].epoch;
        net.conns.push(Conn {
            from: self.from,
            to,
            to_epoch,
            open: true,
            broken: false,
            greeted: false,
            outbox: Vec::new(),
            inbox: VecDeque::new(),
            records: BTreeMap::new(),
        });
        let id = net.conns.len() - 1;
        Ok(Box::new(MemLink {
            net: Arc::clone(&self.net),
            id,
        }))
    }
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Enroll a fresh account at the node that is its primary.
    EnrollAtPrimary(usize),
    /// ... or at its backup, as a client failing over does.
    EnrollAtBackup(usize),
    AntiEntropy(usize),
    Restart(usize),
    Toggle(usize, usize),
}

const ACTIONS: [Action; 15] = [
    Action::EnrollAtPrimary(0),
    Action::EnrollAtPrimary(1),
    Action::EnrollAtPrimary(2),
    Action::EnrollAtBackup(0),
    Action::EnrollAtBackup(1),
    Action::EnrollAtBackup(2),
    Action::AntiEntropy(0),
    Action::AntiEntropy(1),
    Action::AntiEntropy(2),
    Action::Restart(0),
    Action::Restart(1),
    Action::Restart(2),
    Action::Toggle(0, 1),
    Action::Toggle(0, 2),
    Action::Toggle(1, 2),
];

/// The bounds of one exploration; part of every choice string, since
/// they decide where the choice points are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Bounds {
    steps: usize,
    cuts: usize,
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

fn open_store(dir: &Path) -> Arc<ShardedPasswordStore> {
    Arc::new(
        ShardedPasswordStore::open_durable(dir, SHARDS, DurabilityOptions::default())
            .expect("open a node's store"),
    )
}

/// The cluster under test.
struct World {
    net: Arc<Mutex<Net>>,
    dirs: Vec<PathBuf>,
    replicators: Vec<Replicator>,
    ring: HashRing,
    sys: GraphicalPasswordSystem,
    /// Candidate account names are `acct{n}` from here up.
    next_name: u32,
    /// Names of the enrollments acknowledged to the client.
    enrolled: Vec<String>,
}

impl World {
    fn new(root: &Path, chooser: Chooser) -> Self {
        let dirs: Vec<PathBuf> = (0..NODES).map(|i| root.join(node_id(i))).collect();
        let nodes = dirs
            .iter()
            .map(|dir| Node {
                store: open_store(dir),
                epoch: 0,
            })
            .collect();
        let net = Arc::new(Mutex::new(Net {
            nodes,
            partitions: BTreeSet::new(),
            conns: Vec::new(),
            chooser,
            acks: BTreeSet::new(),
            log: Vec::new(),
        }));
        let replicators = (0..NODES).map(|i| replicator(&net, i)).collect();
        Self {
            net,
            dirs,
            replicators,
            ring: HashRing::with_nodes((0..NODES).map(node_id)),
            sys: system(),
            next_name: 0,
            enrolled: Vec::new(),
        }
    }

    fn store(&self, i: usize) -> Arc<ShardedPasswordStore> {
        Arc::clone(&self.net.lock().nodes[i].store)
    }

    fn note(&self, line: String) {
        self.net.lock().log.push(line);
    }

    fn act(&mut self, action: Action) -> Result<(), String> {
        self.note(format!("{action:?}"));
        match action {
            Action::EnrollAtPrimary(at) => self.enroll(at, true),
            Action::EnrollAtBackup(at) => self.enroll(at, false),
            Action::AntiEntropy(i) => {
                let round = self.replicators[i].anti_entropy_round(&self.store(i));
                self.note(format!("  {round:?}"));
                Ok(())
            }
            Action::Restart(i) => self.restart(i),
            Action::Toggle(a, b) => {
                let mut net = self.net.lock();
                if !net.partitions.remove(&(a, b)) {
                    net.partitions.insert((a, b));
                }
                Ok(())
            }
        }
    }

    /// Enroll a fresh account at node `at`, which is the account's primary
    /// or (a client failing over) its backup: durable locally, then
    /// replicated, as the server's commit path does.
    fn enroll(&mut self, at: usize, as_primary: bool) -> Result<(), String> {
        let (name, seed) = loop {
            let seed = self.next_name;
            self.next_name += 1;
            let name = format!("acct{seed}");
            let (primary, backup) = match self.ring.replica_pair(&name) {
                Some((primary, Some(backup))) => (primary, backup),
                _ => continue,
            };
            if (if as_primary { primary } else { backup }) == node_id(at) {
                break (name, seed);
            }
        };
        let record = self
            .sys
            .enroll(&name, &clicks(seed))
            .map_err(|e| e.to_string())?;
        self.store(at)
            .insert_new(record.clone())
            .map_err(|e| format!("enroll {name} at node-{at}: {e}"))?;
        self.replicators[at]
            .replicate_group(&[WalEntry::Enroll(record)])
            .map_err(|e| format!("replicate {name} from node-{at}: {e}"))?;
        self.note(format!("  {name} acknowledged"));
        self.enrolled.push(name);
        Ok(())
    }

    /// Crash node `i` (no shutdown: its store is dropped and reopened from
    /// its WAL), then run the recovery runbook: every other node re-admits
    /// it, and it catches up before serving.
    fn restart(&mut self, i: usize) -> Result<(), String> {
        {
            // Drop the crashed store before reopening its files.
            let mut net = self.net.lock();
            net.nodes[i].epoch += 1;
            net.nodes[i].store = Arc::new(ShardedPasswordStore::new(1));
        }
        self.replicators[i] = replicator(&self.net, i);
        let store = open_store(&self.dirs[i]);
        self.net.lock().nodes[i].store = Arc::clone(&store);
        self.check_acked()?;
        for (j, other) in self.replicators.iter().enumerate() {
            if j != i {
                other.update_peer(&node_id(i), node_addr(i));
            }
        }
        let round = self.replicators[i].catch_up(&store);
        self.note(format!("  catch-up {round:?}"));
        Ok(())
    }

    /// Every record a node acked is in that node's store.
    fn check_acked(&self) -> Result<(), String> {
        let net = self.net.lock();
        for (name, node) in &net.acks {
            if net.nodes[*node].store.get(name).is_none() {
                return Err(format!("node-{node} acked {name} but does not hold it"));
            }
        }
        Ok(())
    }

    /// Heal every partition and, on a reliable network from here on:
    ///
    /// 1. run one anti-entropy round on each node, and check that every
    ///    `(primary → backup)` range agrees across its pair (one round
    ///    re-admits a backup its primary evicted during a partition, and
    ///    repairs the range);
    /// 2. restart every node (each restart ends in a catch-up round), and
    ///    check that every range agrees across its pair and that every
    ///    acknowledged enrollment is on both nodes of its pair.
    fn settle_and_check(&mut self) -> Result<(), String> {
        {
            let mut net = self.net.lock();
            net.partitions.clear();
            net.chooser.faults = false;
            net.log
                .push("final: heal, one anti-entropy round on each node".into());
        }
        for i in 0..NODES {
            let round = self.replicators[i].anti_entropy_round(&self.store(i));
            self.note(format!("  node-{i} {round:?}"));
        }
        self.check_ranges()?;
        self.note("final: restart every node".into());
        for i in 0..NODES {
            self.restart(i)?;
        }
        self.check_ranges()?;
        for name in &self.enrolled {
            if let Some((primary, Some(backup))) = self.ring.replica_pair(name) {
                for (i, node) in [primary, backup].into_iter().enumerate() {
                    let holder = (0..NODES).find(|&n| node_id(n) == node);
                    if holder.is_none_or(|n| self.store(n).get(name).is_none()) {
                        let role = ["primary", "backup"][i];
                        return Err(format!(
                            "acknowledged {name} is missing on its {role} {node}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Every `(primary → backup)` range holds the same records on both
    /// nodes of its pair.
    fn check_ranges(&self) -> Result<(), String> {
        for p in 0..NODES {
            for b in (0..NODES).filter(|&b| b != p) {
                let (primary, backup) = (node_id(p), node_id(b));
                let in_range = |key: &str| {
                    self.ring.replica_pair(key) == Some((primary.as_str(), Some(backup.as_str())))
                };
                let at_p = self.store(p).range_digest(in_range);
                let at_b = self.store(b).range_digest(in_range);
                if at_p != at_b {
                    return Err(format!(
                        "range ({primary} → {backup}) differs: {at_p:?} vs {at_b:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The state that decides every later step: each store's records and
    /// log length, each node's ring, the open connections, partitions,
    /// names used, and what the invariants remember.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let net = self.net.lock();
        for node in &net.nodes {
            let digest = node.store.range_digest(|_| true);
            (digest.count, digest.sum, digest.xor).hash(&mut h);
            node.store
                .durability_stats()
                .map(|d| d.wal_bytes)
                .hash(&mut h);
        }
        for r in &self.replicators {
            (0..NODES)
                .map(|j| r.is_live(&node_id(j)))
                .for_each(|live| live.hash(&mut h));
        }
        for conn in net.conns.iter().filter(|c| c.open) {
            let alive = !conn.broken && conn.to_epoch == net.nodes[conn.to].epoch;
            (conn.from, conn.to, alive).hash(&mut h);
        }
        net.partitions.hash(&mut h);
        net.acks.hash(&mut h);
        (self.next_name, &self.enrolled).hash(&mut h);
        h.finish()
    }
}

fn replicator(net: &Arc<Mutex<Net>>, i: usize) -> Replicator {
    let peers = (0..NODES)
        .filter(|&j| j != i)
        .map(|j| (node_id(j), node_addr(j)))
        .collect();
    let dial = MemDial {
        net: Arc::clone(net),
        from: i,
    };
    Replicator::with_dial(
        &node_id(i),
        peers,
        ReplicatorConfig::default(),
        Box::new(dial),
    )
}

struct Outcome {
    taken: Vec<(usize, usize)>,
    /// The run stopped at a state explored before.
    pruned: bool,
    failure: Option<String>,
    /// What happened, step by step.
    log: Vec<String>,
}

/// Run one schedule in a fresh cluster under `root`.  With `seen`, a run
/// that, past its scripted prefix (the states an earlier run of the same
/// branch already reached), reaches a state already explored with the
/// same budget left stops there.
fn run(root: &Path, bounds: Bounds, chooser: Chooser, seen: Option<&mut HashSet<u64>>) -> Outcome {
    let _ = std::fs::remove_dir_all(root);
    let mut world = World::new(root, chooser);
    let mut seen = seen;
    let mut pruned = false;
    let mut result = Ok(());
    for step in 0..bounds.steps {
        let (replaying, cuts_left) = {
            let chooser = &world.net.lock().chooser;
            (
                chooser.taken.len() < chooser.script.len(),
                chooser.cuts_left,
            )
        };
        if let Some(seen) = seen.as_deref_mut().filter(|_| !replaying) {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (world.fingerprint(), bounds.steps - step, cuts_left).hash(&mut h);
            if !seen.insert(h.finish()) {
                pruned = true;
                break;
            }
        }
        let pick = world.net.lock().chooser.choose(ACTIONS.len());
        result = world.act(ACTIONS[pick]).and_then(|()| world.check_acked());
        if result.is_err() {
            break;
        }
    }
    if result.is_ok() && !pruned {
        result = world.settle_and_check();
    }
    let (taken, log) = {
        let mut net = world.net.lock();
        (
            std::mem::take(&mut net.chooser.taken),
            std::mem::take(&mut net.log),
        )
    };
    drop(world);
    let _ = std::fs::remove_dir_all(root);
    Outcome {
        taken,
        pruned,
        failure: result.err(),
        log,
    }
}

fn chooser(bounds: Bounds, script: Vec<usize>, random: Option<Rng>) -> Chooser {
    Chooser {
        script,
        taken: Vec::new(),
        random,
        cuts_left: bounds.cuts,
        faults: true,
    }
}

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gp-cluster-explorer-{tag}-{}", std::process::id()))
}

/// The replayable form of a run: its bounds, then every choice.
fn choice_string(bounds: Bounds, taken: &[(usize, usize)]) -> String {
    let choices: Vec<String> = taken.iter().map(|(c, _)| c.to_string()).collect();
    format!("{}/{}:{}", bounds.steps, bounds.cuts, choices.join(","))
}

/// Panic with the failing run's choice string and event log.  Under
/// `GP_CLUSTER_LOG_DIR` (the cluster harness's post-mortem directory) the
/// choice string is also written to `cluster-explorer-failure.txt`.
fn fail(bounds: Bounds, outcome: &Outcome, context: &str) -> ! {
    let failure = outcome.failure.as_deref().unwrap_or("no failure");
    let log = &outcome.log;
    let schedule = choice_string(bounds, &outcome.taken);
    if let Some(dir) = std::env::var_os("GP_CLUSTER_LOG_DIR") {
        let dir = PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        let report = format!("{schedule}\n{failure}\n{}\n", log.join("\n"));
        let _ = std::fs::write(dir.join("cluster-explorer-failure.txt"), report);
    }
    panic!(
        "cluster explorer: {failure} ({context})\n  schedule: {schedule}\n  \
         replay with: cluster_explorer::replay(\"{schedule}\")\n{}",
        log.join("\n")
    );
}

/// Counts of one exploration.
#[derive(Debug, Default)]
struct Explored {
    schedules: usize,
    pruned: usize,
}

/// Every schedule of `bounds.steps` actions with at most `bounds.cuts`
/// lost connections, depth first; a run that reaches a state already
/// explored with the same budget left is pruned there.
fn exhaustive(bounds: Bounds) -> Explored {
    let root = temp_root("dfs");
    let mut seen = HashSet::new();
    let mut counts = Explored::default();
    let mut script = Vec::new();
    loop {
        let outcome = run(
            &root,
            bounds,
            chooser(bounds, script, None),
            Some(&mut seen),
        );
        if outcome.failure.is_some() {
            fail(bounds, &outcome, "exhaustive search");
        }
        counts.schedules += 1;
        counts.pruned += usize::from(outcome.pruned);
        // The next branch: bump the deepest choice that has options left.
        let mut taken = outcome.taken;
        while let Some((chosen, options)) = taken.pop() {
            if chosen + 1 < options {
                taken.push((chosen + 1, options));
                break;
            }
        }
        if taken.is_empty() {
            return counts;
        }
        script = taken.into_iter().map(|(chosen, _)| chosen).collect();
    }
}

/// `walks` random schedules seeded from `seed`.
fn random_walks(bounds: Bounds, seed: u64, walks: usize) -> Explored {
    let root = temp_root("walk");
    for walk in 0..walks {
        let rng = Rng(seed ^ (walk as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let outcome = run(&root, bounds, chooser(bounds, Vec::new(), Some(rng)), None);
        if outcome.failure.is_some() {
            fail(
                bounds,
                &outcome,
                &format!("random walk {walk} of seed {seed}"),
            );
        }
    }
    Explored {
        schedules: walks,
        pruned: 0,
    }
}

/// The bounds and choices of a choice string.
fn parse(schedule: &str) -> (Bounds, Vec<usize>) {
    let parsed = schedule.split_once(':').and_then(|(bounds, choices)| {
        let (steps, cuts) = bounds.split_once('/')?;
        let bounds = Bounds {
            steps: steps.parse().ok()?,
            cuts: cuts.parse().ok()?,
        };
        let choices: Result<Vec<usize>, _> = choices
            .split(',')
            .filter(|c| !c.is_empty())
            .map(str::parse)
            .collect();
        Some((bounds, choices.ok()?))
    });
    parsed.unwrap_or_else(|| panic!("{schedule:?} is not a choice string (steps/cuts:c,c,...)"))
}

/// Re-run the schedule a failure printed, and panic the same way if it
/// still fails.
pub(crate) fn replay(schedule: &str) {
    let (bounds, script) = parse(schedule);
    let outcome = run(
        &temp_root("replay"),
        bounds,
        chooser(bounds, script, None),
        None,
    );
    if outcome.failure.is_some() {
        fail(bounds, &outcome, "replay");
    }
}

/// Every schedule of two steps with at most one lost connection.
#[test]
fn exhaustive_two_steps_one_lost_connection() {
    let bounds = Bounds { steps: 2, cuts: 1 };
    let counts = exhaustive(bounds);
    println!(
        "cluster explorer: exhaustive {bounds:?}: {} schedules explored, {} pruned",
        counts.schedules, counts.pruned
    );
    assert!(counts.schedules >= ACTIONS.len());
}

/// Deeper schedules, sampled.
#[test]
fn random_walks_of_ten_steps() {
    let bounds = Bounds { steps: 10, cuts: 3 };
    let counts = random_walks(bounds, 0x6770_636c_7573_7465, 400);
    println!(
        "cluster explorer: random walks {bounds:?}: {} schedules explored, {} pruned",
        counts.schedules, counts.pruned
    );
}

/// A run is a pure function of its choices: replaying a random walk's
/// choice string repeats the walk event for event.
#[test]
fn a_random_walk_replays_exactly() {
    let bounds = Bounds { steps: 6, cuts: 2 };
    let root = temp_root("determinism");
    let walk = run(
        &root,
        bounds,
        chooser(bounds, Vec::new(), Some(Rng(27))),
        None,
    );
    let schedule = choice_string(bounds, &walk.taken);
    let (parsed, script) = parse(&schedule);
    assert_eq!(parsed, bounds);
    let again = run(&root, bounds, chooser(bounds, script, None), None);
    assert_eq!(again.taken, walk.taken, "{schedule}");
    assert_eq!(again.log, walk.log, "{schedule}");
    assert_eq!(again.failure, walk.failure, "{schedule}");
    replay(&schedule);
}
