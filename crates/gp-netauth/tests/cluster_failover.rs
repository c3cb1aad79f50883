//! Kill-under-load fault harness for the replicated cluster.
//!
//! Each scenario spawns a real N-node loopback cluster (per-node durable
//! stores, WAL-streaming sync replication, ring routing) and injects a
//! fault while multi-threaded enrollment traffic is running:
//!
//! * **kill** — [`Cluster::kill`] aborts a primary mid-burst (no flush,
//!   no farewell: `ServerHandle::abort` plus a dead replication
//!   listener).  The invariant under test is the headline one: **no
//!   enrollment that was acknowledged to a client is ever lost** — after
//!   the kill every acked account still logs in on the survivors.
//! * **connection drops** — every replicator's outbound connections are
//!   torn down mid-stream; the next record must reconnect transparently.
//! * **partition** — a node's replication listener is severed while its
//!   auth listener stays up; peers evict it and re-route replicas, and a
//!   subsequent primary kill still loses nothing.
//! * **restart** — the operator runbook: a killed node crash-recovers
//!   from its own WAL + snapshots, rejoins every survivor's ring, and
//!   the cluster serves all accounts, including those enrolled while it
//!   was dead.
//! * **rejoin completeness** (`rejoin_*` scenarios, run as their own CI
//!   leg) — the stronger, *local* invariant: after a kill + rejoin under
//!   load, the restarted node's own store holds **every** acked record
//!   it backs under the full-membership ring (not merely "some replica
//!   answers").  Variants delete records from a rejoined node for a
//!   repeated catch-up to restore exactly, and inject record-level
//!   divergence for anti-entropy to repair.
//!
//! Set `GP_CLUSTER_LOG_DIR` to keep per-node stores and the cluster
//! event log under that directory for post-mortem (CI uploads it as an
//! artifact when a scenario fails).

use gp_geometry::Point;
use gp_netauth::cluster::{Cluster, ClusterClient};
use gp_netauth::replication::ReplicatorConfig;
use gp_netauth::server::ServerConfig;
use gp_netauth::LoginDecision;
use gp_passwords::HashRing;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Deterministic per-account clicks, derived from the username so any
/// thread (or a later verification pass) can recompute them.
fn clicks_for(name: &str) -> Vec<Point> {
    let seed = fnv(name);
    (0..5)
        .map(|i| {
            let x = 40.0 + ((seed >> (i * 7)) % 360) as f64;
            let y = 30.0 + ((seed >> (i * 9 + 3)) % 260) as f64;
            Point::new(x, y)
        })
        .collect()
}

/// Scenario root: under `GP_CLUSTER_LOG_DIR` when set (so CI can pick the
/// node stores + event log up as artifacts on failure), else the temp dir.
fn data_root(tag: &str) -> PathBuf {
    let base = std::env::var_os("GP_CLUSTER_LOG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("gp-cluster-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cluster_of(nodes: usize, tag: &str) -> (Cluster, PathBuf) {
    let root = data_root(tag);
    let cluster = Cluster::spawn(
        nodes,
        ServerConfig::fast_for_tests(),
        ReplicatorConfig::default(),
        &root,
    )
    .expect("spawn cluster");
    (cluster, root)
}

/// Names acked so far, shared between enroller threads and the harness.
type AckLog = Arc<Mutex<Vec<String>>>;

/// Spawn `threads` enrollment workers, each with its own routing client,
/// pushing every acknowledged username into the shared log until `stop`.
fn spawn_load(
    members: &[(String, std::net::SocketAddr)],
    threads: usize,
    acked: &AckLog,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..threads)
        .map(|t| {
            let members = members.to_vec();
            let acked = Arc::clone(acked);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut client = ClusterClient::new(&members);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let name = format!("t{t}-user{i}");
                    client
                        .enroll(&name, &clicks_for(&name))
                        .unwrap_or_else(|e| panic!("enroll {name} must survive faults: {e}"));
                    // Only names the cluster acknowledged enter the log —
                    // these are the ones that must never be lost.
                    acked.lock().unwrap().push(name);
                    i += 1;
                }
            })
        })
        .collect()
}

fn acked_count(acked: &AckLog) -> usize {
    acked.lock().unwrap().len()
}

fn wait_for_acks(acked: &AckLog, at_least: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while acked_count(acked) < at_least {
        assert!(
            Instant::now() < deadline,
            "load generator stalled below {at_least} acks"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Log in as every acked account through a fresh routing client over the
/// current membership; every one must be Accepted.
fn verify_every_acked_account(cluster: &Cluster, acked: &AckLog) {
    let mut client = ClusterClient::new(&cluster.members());
    let names = acked.lock().unwrap().clone();
    assert!(!names.is_empty(), "the scenario must have acked something");
    for name in &names {
        let (decision, _) = client
            .login(name, &clicks_for(name))
            .unwrap_or_else(|e| panic!("acked account {name} lost: {e}"));
        assert_eq!(
            decision,
            LoginDecision::Accepted,
            "acked account {name} must log in"
        );
    }
}

/// Assert the *local* replica-completeness invariant on node `i`: its
/// own store holds every acked account the full-membership ring says it
/// backs (as owner or backup).  This is stronger than "every account
/// still logs in somewhere" — it proves the rejoin actually transferred
/// the node's ranges, not that the other replicas are covering for it.
fn assert_local_replica_complete(cluster: &Cluster, i: usize, acked: &[String]) {
    let ids: Vec<String> = (0..cluster.len())
        .map(|j| cluster.node_id(j).to_string())
        .collect();
    let ring = HashRing::with_nodes(&ids);
    let node = cluster.node_id(i).to_string();
    let store = cluster.store(i).expect("inspected node must be live");
    let mut backed = 0usize;
    for name in acked {
        if ring.holds(name, &node) {
            backed += 1;
            assert!(
                store.get(name).is_some(),
                "{node} backs acked account {name} but its local store lacks it"
            );
        }
    }
    assert!(
        backed > 0,
        "the scenario must have acked accounts in {node}'s ranges"
    );
    cluster.log_event(&format!(
        "harness: {node} locally holds all {backed} acked accounts it backs"
    ));
}

/// The acceptance scenario: kill a primary mid-burst under concurrent
/// multi-client load; the backup promotes (ring re-resolution on both the
/// clients and the surviving replicators) and zero acked data is lost.
#[test]
fn killing_a_primary_under_load_loses_no_acked_enrollment() {
    let (mut cluster, root) = cluster_of(3, "kill");
    let members = cluster.members();
    let acked: AckLog = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(&members, 3, &acked, &stop);

    // Let a healthy prefix land, then pull the trigger mid-burst.
    wait_for_acks(&acked, 30);
    let before_kill = acked_count(&acked);
    cluster.kill(0);
    cluster.log_event(&format!("harness: killed node-0 after {before_kill} acks"));

    // The survivors must keep acking enrollments after the kill.
    wait_for_acks(&acked, before_kill + 30);
    stop.store(true, Ordering::Relaxed);
    for join in load {
        join.join().expect("enroller must survive the kill");
    }

    assert_eq!(cluster.members().len(), 2, "one node down, two serving");
    verify_every_acked_account(&cluster, &acked);
    cluster.log_event(&format!(
        "harness: verified all {} acked accounts after the kill",
        acked_count(&acked)
    ));
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Outbound replication connections are dropped on every node mid-burst
/// (a network blip, not a death): the next record reconnects
/// transparently, no node is evicted, and nothing acked is lost.
#[test]
fn replication_connection_drops_are_survived_without_evictions() {
    let (cluster, root) = cluster_of(3, "drops");
    let members = cluster.members();
    let acked: AckLog = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(&members, 2, &acked, &stop);

    for round in 0..3 {
        wait_for_acks(&acked, (round + 1) * 15);
        cluster.log_event(&format!(
            "harness: dropping all replication conns ({round})"
        ));
        for i in 0..cluster.len() {
            if let Some(replicator) = cluster.replicator(i) {
                replicator.drop_connections();
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for join in load {
        join.join().expect("enroller must survive connection drops");
    }

    // A blip is not a death: every node still considers every peer live.
    for i in 0..cluster.len() {
        let replicator = cluster.replicator(i).expect("all nodes alive");
        for j in 0..cluster.len() {
            assert!(
                replicator.is_live(cluster.node_id(j)),
                "node-{i} must not have evicted node-{j} over a reconnectable drop"
            );
        }
    }
    verify_every_acked_account(&cluster, &acked);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Asymmetric partition: node-1's replication listener is severed while
/// its auth listener keeps serving.  Peers evict it and re-route replicas
/// to the next successor, so even a follow-up kill of node-0 loses
/// nothing: every acked account is durable on two *reachable* stores.
#[test]
fn severed_replication_reroutes_backups_so_a_later_kill_loses_nothing() {
    let (mut cluster, root) = cluster_of(3, "sever");
    let members = cluster.members();
    let acked: AckLog = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(&members, 2, &acked, &stop);

    wait_for_acks(&acked, 20);
    cluster.sever_replication(1);
    // Keep enrolling through the partition, then kill a primary.
    let at_sever = acked_count(&acked);
    wait_for_acks(&acked, at_sever + 20);
    cluster.kill(0);
    let at_kill = acked_count(&acked);
    wait_for_acks(&acked, at_kill + 20);
    stop.store(true, Ordering::Relaxed);
    for join in load {
        join.join().expect("enroller must survive sever + kill");
    }

    verify_every_acked_account(&cluster, &acked);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The operator runbook, end to end: kill a node under load, let the
/// cluster absorb the failover, then restart the node from its own
/// durable directory.  It rejoins every survivor's ring and the whole
/// account population — including accounts enrolled while it was dead —
/// keeps logging in.
#[test]
fn a_restarted_node_rejoins_and_every_account_still_logs_in() {
    let (mut cluster, root) = cluster_of(3, "restart");
    let members = cluster.members();
    let acked: AckLog = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(&members, 2, &acked, &stop);

    wait_for_acks(&acked, 20);
    cluster.kill(2);
    let at_kill = acked_count(&acked);
    // Traffic enrolled while node-2 is dead lands entirely on the others.
    wait_for_acks(&acked, at_kill + 20);
    cluster.restart(2).expect("restart from own durable dir");
    let at_restart = acked_count(&acked);
    // And traffic after the restart may pick node-2 as primary again.
    wait_for_acks(&acked, at_restart + 20);
    stop.store(true, Ordering::Relaxed);
    for join in load {
        join.join().expect("enroller must survive kill + restart");
    }

    assert_eq!(cluster.members().len(), 3, "full strength after restart");
    for i in 0..cluster.len() {
        let replicator = cluster.replicator(i).expect("all nodes alive");
        assert!(
            replicator.is_live(cluster.node_id(2)) || i == 2,
            "node-{i} must have re-admitted node-2"
        );
    }
    verify_every_acked_account(&cluster, &acked);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Rejoin completeness under load: enroll concurrently, kill a node, keep
/// enrolling (the dead node's ranges shift to survivors), restart it —
/// catch-up must complete before the node takes traffic — and then prove
/// the restarted node's *local* store holds every acked record it backs
/// under the full ring, including records enrolled while it was dead and
/// records enrolled concurrently with the catch-up itself.
#[test]
fn rejoin_completeness_after_catchup_under_load() {
    let (mut cluster, root) = cluster_of(3, "rejoin-complete");
    let members = cluster.members();
    let acked: AckLog = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let load = spawn_load(&members, 3, &acked, &stop);

    wait_for_acks(&acked, 30);
    cluster.kill(1);
    let at_kill = acked_count(&acked);
    // A solid chunk of traffic lands while node-1 is dead: these are the
    // records catch-up must transfer back.
    wait_for_acks(&acked, at_kill + 40);
    let report = cluster.restart(1).expect("restart from own durable dir");
    assert!(
        report.failed_peers.is_empty(),
        "catch-up must complete against both live peers: {report:?}"
    );
    let at_restart = acked_count(&acked);
    wait_for_acks(&acked, at_restart + 20);
    stop.store(true, Ordering::Relaxed);
    for join in load {
        join.join().expect("enroller must survive kill + rejoin");
    }

    verify_every_acked_account(&cluster, &acked);
    let names = acked.lock().unwrap().clone();
    assert_local_replica_complete(&cluster, 1, &names);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A rejoined node that lost records it holds (an interrupted transfer,
/// a damaged WAL tail) gets exactly those back from a repeated catch-up:
/// the round compares every range the node holds and moves only the
/// difference.
#[test]
fn rejoin_catch_up_restores_exactly_the_missing_records() {
    let root = data_root("rejoin-missing");
    // Manual rounds only: no background round may repair the deletions
    // before the catch-up under test counts them.
    let repl_config = ReplicatorConfig {
        anti_entropy_interval: Duration::ZERO,
        ..ReplicatorConfig::default()
    };
    let mut cluster = Cluster::spawn(3, ServerConfig::fast_for_tests(), repl_config, &root)
        .expect("spawn cluster");

    // A settled population, no concurrent load: the record counts below
    // must be exact.
    let mut client = ClusterClient::new(&cluster.members());
    let mut names = Vec::new();
    for i in 0..40u32 {
        let name = format!("steady-user{i}");
        client.enroll(&name, &clicks_for(&name)).unwrap();
        names.push(name);
    }
    cluster.kill(2);
    // Enroll more while node-2 is dead — the records catch-up must carry.
    let mut client = ClusterClient::new(&cluster.members());
    for i in 0..40u32 {
        let name = format!("while-dead-user{i}");
        client.enroll(&name, &clicks_for(&name)).unwrap();
        names.push(name);
    }
    let report = cluster.restart(2).expect("restart from own durable dir");
    assert!(report.failed_peers.is_empty(), "{report:?}");
    assert!(
        report.records_pulled > 0,
        "the while-dead records: {report:?}"
    );

    // Take k records node-2 holds out of its own store.
    let ids: Vec<String> = (0..cluster.len())
        .map(|j| cluster.node_id(j).to_string())
        .collect();
    let ring = HashRing::with_nodes(&ids);
    let store = cluster.store(2).expect("node-2 is live");
    let removed: Vec<&String> = names
        .iter()
        .filter(|name| ring.holds(name, "node-2"))
        .step_by(3)
        .collect();
    assert!(
        removed.len() >= 4,
        "80 accounts must put at least 4 removals in node-2's ranges"
    );
    for name in &removed {
        assert!(store.remove(name).expect("remove on node-2"));
    }
    cluster.log_event(&format!(
        "harness: removed {} records node-2 holds",
        removed.len()
    ));

    let retried = cluster.catch_up(2).expect("node-2 is live");
    assert!(retried.failed_peers.is_empty(), "{retried:?}");
    assert_eq!(
        retried.records_pulled,
        removed.len() as u64,
        "catch-up must move exactly the missing records: {retried:?}"
    );
    assert_eq!(retried.records_pushed, 0, "{retried:?}");

    verify_every_acked_account(&cluster, &Arc::new(Mutex::new(names.clone())));
    assert_local_replica_complete(&cluster, 2, &names);
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// Anti-entropy repairs injected record-level divergence in one round,
/// in both directions: a backup that lost a record gets it pushed back,
/// and a primary that lost a record pulls it from the backup.
#[test]
fn rejoin_anti_entropy_repairs_injected_divergence() {
    let root = data_root("rejoin-entropy");
    // Manual rounds only: a zero interval disables the background thread
    // so the injected divergence stays until *we* repair it.
    let repl_config = ReplicatorConfig {
        anti_entropy_interval: Duration::ZERO,
        ..ReplicatorConfig::default()
    };
    let cluster = Cluster::spawn(3, ServerConfig::fast_for_tests(), repl_config, &root)
        .expect("spawn cluster");
    let mut client = ClusterClient::new(&cluster.members());
    let names: Vec<String> = (0..60u32).map(|i| format!("user{i}")).collect();
    for name in &names {
        client.enroll(name, &clicks_for(name)).unwrap();
    }

    // Two accounts in the (node-0 → node-1) range: one to lose on the
    // backup (push repair), one to lose on the primary (pull repair).
    let ids: Vec<String> = (0..cluster.len())
        .map(|j| cluster.node_id(j).to_string())
        .collect();
    let ring = HashRing::with_nodes(&ids);
    let in_range: Vec<&String> = names
        .iter()
        .filter(|name| ring.replica_pair(name) == Some(("node-0", Some("node-1"))))
        .collect();
    assert!(
        in_range.len() >= 2,
        "60 accounts must land at least twice in the (node-0, node-1) range"
    );
    let (lost_on_backup, lost_on_primary) = (in_range[0].clone(), in_range[1].clone());
    assert!(cluster
        .store(1)
        .unwrap()
        .remove(&lost_on_backup)
        .expect("remove on backup"));
    assert!(cluster
        .store(0)
        .unwrap()
        .remove(&lost_on_primary)
        .expect("remove on primary"));
    cluster.log_event(&format!(
        "harness: injected divergence — {lost_on_backup} off node-1, {lost_on_primary} off node-0"
    ));

    // One round on the range's primary repairs both directions.
    let round = cluster
        .anti_entropy_round(0)
        .expect("node-0 is live")
        .clone();
    assert!(round.failed_peers.is_empty(), "{round:?}");
    assert!(round.ranges_divergent >= 1, "{round:?}");
    assert!(round.records_pushed >= 1, "push repair ran: {round:?}");
    assert!(round.records_pulled >= 1, "pull repair ran: {round:?}");
    assert!(
        cluster.store(1).unwrap().get(&lost_on_backup).is_some(),
        "push repair must restore the backup's copy"
    );
    assert!(
        cluster.store(0).unwrap().get(&lost_on_primary).is_some(),
        "pull repair must restore the primary's copy"
    );

    // A second round finds nothing left to repair in that range.
    let quiet = cluster.anti_entropy_round(0).expect("node-0 is live");
    assert_eq!(quiet.ranges_divergent, 0, "{quiet:?}");

    verify_every_acked_account(&cluster, &Arc::new(Mutex::new(names)));
    cluster.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
