//! A loopback cluster of replicated auth nodes, plus the client-side
//! routing layer — the deployment shape the failover harness drives.
//!
//! [`Cluster::spawn`] starts N nodes, each with its own durable store
//! (under `data_root/node-i/`), its own auth listener, a replication
//! listener ([`crate::replication`]), and a [`Replicator`] whose ring
//! spans the full membership.  Every node both serves as primary for its
//! ring ranges and stores replicas for its neighbours', so any single
//! kill leaves every account's data on a surviving node.
//!
//! Fault-injection hooks are crash-only, matching the recovery story:
//!
//! * [`Cluster::kill`] — [`ServerHandle::abort`] the auth listener and
//!   stop the replication listener, mid-load, with no flushing;
//! * [`Cluster::sever_replication`] — stop *only* the replication
//!   listener (an asymmetric partition: clients still reach the node,
//!   peers cannot);
//! * [`Cluster::restart`] — crash-recover the node from its own
//!   snapshots + WAL tails, re-admit it to every survivor's ring, *catch
//!   it up* ([`crate::replication::catch_up_from_peers`]) and only then
//!   start its auth listener (the operator runbook in the README is
//!   exactly this call, by hand).
//!
//! Restart ordering is load-bearing for rejoin completeness: survivors'
//! rings re-admit the node **before** catch-up starts, so every record
//! enrolled concurrently either streams live to the joiner or is already
//! in the snapshot a peer scans — and the auth listener (the only address
//! clients route to) starts **after** catch-up, so the node takes no
//! traffic for ranges it does not yet hold.  Each node also runs a
//! background anti-entropy thread ([`crate::replication::spawn_anti_entropy`])
//! that digest-compares its primary ranges against their backups and
//! repairs divergence.
//!
//! [`ClusterClient`] mirrors the placement logic with its own
//! [`HashRing`] (deterministic placement needs no coordination): each
//! request goes to the account's current primary; a transport failure
//! marks the node dead and re-resolves — which, by the ring's failover
//! property, lands on the node already holding the account's replica.
//!
//! Events are appended to `data_root/cluster.log` so a failed harness
//! run leaves a timeline next to the node stores.

use crate::client::AuthClient;
use crate::error::NetAuthError;
use crate::protocol::LoginDecision;
use crate::replication::{
    catch_up_from_peers, spawn_anti_entropy, spawn_replication_listener, AntiEntropyHandle,
    AntiEntropyRound, CatchupOptions, CatchupReport, ReplicationHandle, ReplicationSink,
    Replicator, ReplicatorConfig,
};
use crate::server::{AuthServer, DurabilityConfig, ServerConfig, ServerHandle};
use gp_geometry::Point;
use gp_passwords::{HashRing, ShardedPasswordStore};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The running pieces of one node (absent once killed).
#[derive(Debug)]
struct RunningNode {
    auth: ServerHandle,
    /// `None` after [`Cluster::sever_replication`].
    repl: Option<ReplicationHandle>,
    replicator: Arc<Replicator>,
    /// `None` when [`ReplicatorConfig::anti_entropy_interval`] is zero.
    anti_entropy: Option<AntiEntropyHandle>,
}

/// One cluster slot: identity and storage outlive kills.
#[derive(Debug)]
struct NodeSlot {
    node_id: String,
    data_dir: PathBuf,
    running: Option<RunningNode>,
}

/// N replicated auth nodes on loopback.
#[derive(Debug)]
pub struct Cluster {
    slots: Vec<NodeSlot>,
    server_template: ServerConfig,
    repl_config: ReplicatorConfig,
    log: Mutex<std::fs::File>,
    started: Instant,
}

impl Cluster {
    /// Spawn `nodes` replicated nodes.  `config` is the per-node serving
    /// template; its `durability` field is overridden with a per-node
    /// directory under `data_root`.
    pub fn spawn(
        nodes: usize,
        config: ServerConfig,
        repl_config: ReplicatorConfig,
        data_root: &Path,
    ) -> Result<Self, NetAuthError> {
        assert!(nodes >= 1, "a cluster needs at least one node");
        std::fs::create_dir_all(data_root).map_err(NetAuthError::Io)?;
        let log = std::fs::File::create(data_root.join("cluster.log")).map_err(NetAuthError::Io)?;
        let mut cluster = Self {
            slots: Vec::with_capacity(nodes),
            server_template: config,
            repl_config,
            log: Mutex::new(log),
            started: Instant::now(),
        };

        // Phase 1: open every node's durable store and replication
        // listener first, so phase 2 can hand each node the full peer
        // address map.
        let mut opened: Vec<(AuthServer, ReplicationHandle)> = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let node_id = format!("node-{i}");
            let data_dir = data_root.join(&node_id);
            let server = cluster.open_node(&data_dir)?;
            let repl = spawn_replication_listener(&node_id, server.store())?;
            cluster.slots.push(NodeSlot {
                node_id,
                data_dir,
                running: None,
            });
            opened.push((server, repl));
        }
        let repl_addrs: Vec<SocketAddr> = opened.iter().map(|(_, r)| r.addr()).collect();

        // Phase 2: attach a replicator (ring = full membership) to every
        // node and start serving.
        for (i, (server, repl)) in opened.into_iter().enumerate() {
            let peers: BTreeMap<String, SocketAddr> = cluster
                .slots
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, slot)| (slot.node_id.clone(), repl_addrs[j]))
                .collect();
            let replicator = Arc::new(Replicator::new(
                &cluster.slots[i].node_id,
                peers,
                cluster.repl_config,
            ));
            let store = server.store();
            let sink: Arc<dyn ReplicationSink> = Arc::clone(&replicator) as _;
            let auth = server.with_replication(sink).spawn()?;
            cluster.log_event(&format!(
                "spawn {} auth={} repl={}",
                cluster.slots[i].node_id,
                auth.addr(),
                repl.addr()
            ));
            let anti_entropy = cluster.spawn_node_anti_entropy(&replicator, &store);
            cluster.slots[i].running = Some(RunningNode {
                auth,
                repl: Some(repl),
                replicator,
                anti_entropy,
            });
        }
        Ok(cluster)
    }

    /// Start a node's background anti-entropy thread, unless disabled by
    /// a zero [`ReplicatorConfig::anti_entropy_interval`].
    fn spawn_node_anti_entropy(
        &self,
        replicator: &Arc<Replicator>,
        store: &Arc<ShardedPasswordStore>,
    ) -> Option<AntiEntropyHandle> {
        let interval = self.repl_config.anti_entropy_interval;
        if interval.is_zero() {
            return None;
        }
        Some(spawn_anti_entropy(
            Arc::clone(replicator),
            Arc::clone(store),
            interval,
        ))
    }

    fn open_node(&self, data_dir: &Path) -> Result<AuthServer, NetAuthError> {
        std::fs::create_dir_all(data_dir).map_err(NetAuthError::Io)?;
        let config = ServerConfig {
            durability: Some(DurabilityConfig::at(data_dir)),
            ..self.server_template.clone()
        };
        AuthServer::open(config)
    }

    /// Append a timestamped line to `cluster.log`.
    pub fn log_event(&self, message: &str) {
        let mut log = self.log.lock();
        let _ = writeln!(
            log,
            "[{:>9.3}s] {message}",
            self.started.elapsed().as_secs_f64()
        );
        let _ = log.flush();
    }

    /// Number of configured slots (live or dead).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cluster has no slots (never true after `spawn`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Node ID of slot `i`.
    pub fn node_id(&self, i: usize) -> &str {
        &self.slots[i].node_id
    }

    /// Live members as `(node_id, auth address)` — what a
    /// [`ClusterClient`] needs to route.
    pub fn members(&self) -> Vec<(String, SocketAddr)> {
        self.slots
            .iter()
            .filter_map(|slot| {
                slot.running
                    .as_ref()
                    .map(|r| (slot.node_id.clone(), r.auth.addr()))
            })
            .collect()
    }

    /// The replicator of a live node (fault-injection hook:
    /// [`Replicator::drop_connections`] and friends).
    pub fn replicator(&self, i: usize) -> Option<Arc<Replicator>> {
        self.slots[i]
            .running
            .as_ref()
            .map(|r| Arc::clone(&r.replicator))
    }

    /// Crash node `i` mid-flight: abort the auth listener (no final
    /// flush/compaction — the durability directory is left exactly as the
    /// last acked mutation left it) and stop its replication listener.
    /// No-op on an already-dead node.
    pub fn kill(&mut self, i: usize) {
        if let Some(mut running) = self.slots[i].running.take() {
            self.log_event(&format!("kill {}", self.slots[i].node_id));
            if let Some(mut anti_entropy) = running.anti_entropy.take() {
                anti_entropy.shutdown();
            }
            running.auth.abort();
            if let Some(mut repl) = running.repl {
                repl.shutdown();
            }
        }
    }

    /// Partition node `i`'s *inbound* replication only: peers streaming
    /// records to it start failing (and evict it from their rings) while
    /// clients can still reach its auth listener.
    pub fn sever_replication(&mut self, i: usize) {
        if let Some(running) = self.slots[i].running.as_mut() {
            if let Some(mut repl) = running.repl.take() {
                self.log_event(&format!("sever-replication {}", self.slots[i].node_id));
                repl.shutdown();
            }
        }
    }

    /// Recover a dead node from its own durable directory and re-admit it
    /// everywhere: crash-recover the store (snapshots + WAL tails), start
    /// a fresh replication listener, re-admit the node to every
    /// survivor's ring, catch it up from its peers, and only then start
    /// the auth listener.  This is the operator runbook, as a method.
    pub fn restart(&mut self, i: usize) -> Result<CatchupReport, NetAuthError> {
        self.restart_with_catchup(i, CatchupOptions::default())
    }

    /// [`Cluster::restart`] with explicit [`CatchupOptions`] — the fault
    /// harness sets [`CatchupOptions::abort_after_records`] to interrupt
    /// the state transfer mid-stream and observe the gated, partially
    /// caught-up node.
    pub fn restart_with_catchup(
        &mut self,
        i: usize,
        options: CatchupOptions,
    ) -> Result<CatchupReport, NetAuthError> {
        assert!(
            self.slots[i].running.is_none(),
            "restart targets a dead node"
        );
        let node_id = self.slots[i].node_id.clone();
        let data_dir = self.slots[i].data_dir.clone();
        let server = self.open_node(&data_dir)?;
        let store = server.store();
        let repl = spawn_replication_listener(&node_id, Arc::clone(&store))?;

        // The restarted node replicates to the peers as they are *now*
        // (their replication addresses never changed while they lived).
        let peers: BTreeMap<String, SocketAddr> = self
            .slots
            .iter()
            .filter(|slot| slot.node_id != node_id)
            .filter_map(|slot| {
                let running = slot.running.as_ref()?;
                let addr = running.repl.as_ref()?.addr();
                Some((slot.node_id.clone(), addr))
            })
            .collect();
        let replicator = Arc::new(Replicator::new(&node_id, peers.clone(), self.repl_config));

        // Re-admit the node to every survivor's ring *before* catch-up:
        // from this instant new writes for its ranges stream to it live,
        // so per peer everything is either in the live stream or in the
        // snapshot that peer scans next (overlap is harmless — applying
        // is idempotent).  Clients cannot route here yet: the auth
        // listener — the traffic gate — is still down.
        let new_repl_addr = repl.addr();
        for slot in &self.slots {
            if let Some(running) = slot.running.as_ref() {
                running.replicator.update_peer(&node_id, new_repl_addr);
            }
        }

        self.log_event(&format!("catchup-begin {node_id}"));
        let members: Vec<String> = self
            .slots
            .iter()
            .filter(|slot| slot.node_id == node_id || slot.running.is_some())
            .map(|slot| slot.node_id.clone())
            .collect();
        let report = catch_up_from_peers(&node_id, &members, &peers, &store, &options);
        if report.completed() {
            self.log_event(&format!(
                "admitted-after-catchup {node_id} records={}",
                report.records_applied()
            ));
        } else {
            // Availability over completeness: the node serves anyway (its
            // own recovered WAL plus whatever streamed), anti-entropy and
            // a manual [`Cluster::catch_up`] close the gap.
            self.log_event(&format!(
                "catchup-incomplete {node_id} records={}",
                report.records_applied()
            ));
        }

        // Traffic gate: only now does the node take client traffic.
        let sink: Arc<dyn ReplicationSink> = Arc::clone(&replicator) as _;
        let auth = server.with_replication(sink).spawn()?;
        self.log_event(&format!(
            "restart {node_id} auth={} repl={}",
            auth.addr(),
            repl.addr()
        ));
        let anti_entropy = self.spawn_node_anti_entropy(&replicator, &store);
        self.slots[i].running = Some(RunningNode {
            auth,
            repl: Some(repl),
            replicator,
            anti_entropy,
        });
        Ok(report)
    }

    /// Re-run catch-up on a *live* node (e.g. after a restart whose
    /// transfer was interrupted): stream every record the node backs from
    /// its live peers and apply idempotently.
    pub fn catch_up(&self, i: usize, options: CatchupOptions) -> CatchupReport {
        let node_id = self.slots[i].node_id.clone();
        let store = {
            let running = self.slots[i]
                .running
                .as_ref()
                // gp-lint: allow(L4, fault-harness precondition; callers restart the node first)
                .expect("catch_up targets a live node");
            running.auth.server().store()
        };
        let peers: BTreeMap<String, SocketAddr> = self
            .slots
            .iter()
            .filter(|slot| slot.node_id != node_id)
            .filter_map(|slot| {
                let running = slot.running.as_ref()?;
                let addr = running.repl.as_ref()?.addr();
                Some((slot.node_id.clone(), addr))
            })
            .collect();
        let members: Vec<String> = self
            .slots
            .iter()
            .filter(|slot| slot.node_id == node_id || slot.running.is_some())
            .map(|slot| slot.node_id.clone())
            .collect();
        self.log_event(&format!("catchup-begin {node_id}"));
        let report = catch_up_from_peers(&node_id, &members, &peers, &store, &options);
        self.log_event(&format!(
            "{} {node_id} records={}",
            if report.completed() {
                "admitted-after-catchup"
            } else {
                "catchup-incomplete"
            },
            report.records_applied()
        ));
        report
    }

    /// Run one synchronous anti-entropy round on node `i` (in addition to
    /// whatever the background thread does).  `None` on a dead node.
    pub fn anti_entropy_round(&self, i: usize) -> Option<AntiEntropyRound> {
        let running = self.slots[i].running.as_ref()?;
        let store = running.auth.server().store();
        Some(running.replicator.anti_entropy_round(&store))
    }

    /// A live node's account store (the harness inspects *local* replica
    /// completeness with it).  `None` on a dead node.
    pub fn store(&self, i: usize) -> Option<Arc<ShardedPasswordStore>> {
        self.slots[i]
            .running
            .as_ref()
            .map(|r| r.auth.server().store())
    }

    /// Gracefully stop every live node.
    pub fn shutdown(mut self) {
        for slot in &mut self.slots {
            if let Some(mut running) = slot.running.take() {
                if let Some(mut anti_entropy) = running.anti_entropy.take() {
                    anti_entropy.shutdown();
                }
                running.auth.shutdown();
                if let Some(mut repl) = running.repl {
                    repl.shutdown();
                }
            }
        }
    }
}

/// Client-side routing over a replicated cluster.
///
/// Owns an independent [`HashRing`] over the membership — placement is a
/// pure function of the member set, so the client's owner computation
/// agrees with every node's backup choice with no coordination.  One
/// lazily-opened [`AuthClient`] per node; a transport failure closes the
/// connection, marks the node dead (ring leave) and re-resolves, which by
/// the ring's failover property promotes exactly the node holding the
/// account's replica.
#[derive(Debug)]
pub struct ClusterClient {
    ring: HashRing,
    nodes: BTreeMap<String, NodeEntry>,
}

#[derive(Debug)]
struct NodeEntry {
    addr: SocketAddr,
    conn: Option<AuthClient>,
}

fn no_live_nodes() -> NetAuthError {
    NetAuthError::Io(std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "no live cluster nodes",
    ))
}

impl ClusterClient {
    /// A client routing over `members` (`(node_id, auth address)` pairs,
    /// e.g. from [`Cluster::members`]).
    pub fn new(members: &[(String, SocketAddr)]) -> Self {
        Self {
            ring: HashRing::with_nodes(members.iter().map(|(id, _)| id)),
            nodes: members
                .iter()
                .map(|(id, addr)| {
                    (
                        id.clone(),
                        NodeEntry {
                            addr: *addr,
                            conn: None,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Nodes this client still considers live.
    pub fn live_nodes(&self) -> Vec<String> {
        self.ring.nodes().map(String::from).collect()
    }

    /// The node this client would currently route `username` to.
    pub fn route(&self, username: &str) -> Option<&str> {
        self.ring.owner(username)
    }

    /// Declare `node` dead: close its connection and re-resolve its key
    /// ranges onto the survivors.
    pub fn mark_dead(&mut self, node: &str) {
        if let Some(entry) = self.nodes.get_mut(node) {
            entry.conn = None;
        }
        self.ring.leave(node);
    }

    fn request_on<T>(
        &mut self,
        node: &str,
        run: impl FnOnce(&mut AuthClient) -> Result<T, NetAuthError>,
    ) -> Result<T, NetAuthError> {
        let Some(entry) = self.nodes.get_mut(node) else {
            // Routing handed back a node this client was never told about;
            // surface it as unreachable so the caller fails over.
            return Err(NetAuthError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("no client entry for ring member {node}"),
            )));
        };
        if entry.conn.is_none() {
            entry.conn = Some(AuthClient::connect(entry.addr)?);
        }
        let Some(conn) = entry.conn.as_mut() else {
            return Err(NetAuthError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection missing after connect",
            )));
        };
        let result = run(conn);
        if result.is_err() {
            // Whatever happened, the stream state is suspect; reconnect
            // next time rather than risking a desynced pipeline.
            entry.conn = None;
        }
        result
    }

    /// Whether an error is a transport failure (node unreachable or died
    /// mid-request) rather than a server-side rejection.
    fn is_transport_error(err: &NetAuthError) -> bool {
        matches!(
            err,
            NetAuthError::Io(_) | NetAuthError::UnexpectedEof | NetAuthError::IntegrityFailure
        )
    }

    /// Enroll `username` on its current primary, failing over to the next
    /// successor when the primary's transport fails.  A duplicate-account
    /// rejection after a failover counts as success: it means the first
    /// attempt was applied (and replicated) before the connection died.
    pub fn enroll(&mut self, username: &str, clicks: &[Point]) -> Result<(), NetAuthError> {
        loop {
            let Some(target) = self.ring.owner(username).map(String::from) else {
                return Err(no_live_nodes());
            };
            match self.request_on(&target, |c| c.enroll(username, clicks)) {
                Ok(()) => return Ok(()),
                Err(NetAuthError::Malformed { reason }) if reason.contains("already exists") => {
                    return Ok(());
                }
                Err(e) if Self::is_transport_error(&e) => {
                    self.mark_dead(&target);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Log `username` in, walking its successor list: transport failures
    /// mark nodes dead and re-resolve; an `unknown account` rejection
    /// falls through to the next replica *without* declaring the node
    /// dead (it is alive — it just doesn't hold this account, e.g. while
    /// a freshly restarted node catches up).
    pub fn login(
        &mut self,
        username: &str,
        clicks: &[Point],
    ) -> Result<(LoginDecision, u32), NetAuthError> {
        'resolve: loop {
            let candidates: Vec<String> = {
                let n = self.ring.node_count();
                self.ring
                    .successors(username, n)
                    .into_iter()
                    .map(String::from)
                    .collect()
            };
            if candidates.is_empty() {
                return Err(no_live_nodes());
            }
            let mut last_reject = None;
            for target in candidates {
                match self.request_on(&target, |c| c.login(username, clicks)) {
                    Ok(result) => return Ok(result),
                    Err(NetAuthError::Malformed { reason })
                        if reason.contains("unknown account") =>
                    {
                        last_reject = Some(NetAuthError::Malformed { reason });
                    }
                    Err(e) if Self::is_transport_error(&e) => {
                        self.mark_dead(&target);
                        continue 'resolve;
                    }
                    Err(e) => return Err(e),
                }
            }
            return Err(last_reject.unwrap_or_else(no_live_nodes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_passwords::ShardedPasswordStore;

    fn clicks(seed: u32) -> Vec<Point> {
        (0..5)
            .map(|i| {
                let x = 30.0 + f64::from(seed % 50) + 70.0 * f64::from(i);
                let y = 20.0 + f64::from(seed / 50 % 40) + 55.0 * f64::from(i);
                Point::new(x, y)
            })
            .collect()
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gp-cluster-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawn, enroll across the ring, log in through the routing client,
    /// shut down gracefully, and verify every node directory holds a
    /// recoverable store with both primary and replica copies: the total
    /// across nodes is 2× the accounts (one primary + one backup each).
    #[test]
    fn cluster_replicates_every_enrollment_to_a_backup() {
        let root = temp_root("basic");
        let cluster = Cluster::spawn(
            3,
            ServerConfig::fast_for_tests(),
            ReplicatorConfig::default(),
            &root,
        )
        .unwrap();
        let mut client = ClusterClient::new(&cluster.members());
        let users = 24u32;
        for i in 0..users {
            client.enroll(&format!("user{i}"), &clicks(i)).unwrap();
        }
        for i in 0..users {
            let (decision, _) = client.login(&format!("user{i}"), &clicks(i)).unwrap();
            assert_eq!(decision, LoginDecision::Accepted, "user{i}");
        }
        let dirs: Vec<PathBuf> = (0..cluster.len())
            .map(|i| root.join(cluster.node_id(i)))
            .collect();
        cluster.shutdown();

        let shards = ServerConfig::fast_for_tests().shards;
        let mut total = 0;
        for dir in dirs {
            let store = ShardedPasswordStore::open_durable(
                &dir,
                shards,
                gp_passwords::DurabilityOptions::default(),
            )
            .unwrap();
            total += store.len();
        }
        assert_eq!(
            total as u32,
            2 * users,
            "each account must exist on exactly its primary and its backup"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The client's ring agrees with the server side: enrolling via a
    /// client routed at the *wrong* node still succeeds (servers accept
    /// any enrollment), but routing resolves deterministically.
    #[test]
    fn client_routing_is_deterministic_and_survives_reconstruction() {
        let members = vec![
            ("node-0".to_string(), "127.0.0.1:1".parse().unwrap()),
            ("node-1".to_string(), "127.0.0.1:2".parse().unwrap()),
            ("node-2".to_string(), "127.0.0.1:3".parse().unwrap()),
        ];
        let a = ClusterClient::new(&members);
        let mut reversed = members.clone();
        reversed.reverse();
        let b = ClusterClient::new(&reversed);
        for i in 0..64 {
            let user = format!("user{i}");
            assert_eq!(a.route(&user), b.route(&user));
        }
    }
}
