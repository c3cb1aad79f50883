//! `authload` — load generator for the netauth serving layer.
//!
//! Drives client threads × pipelined login requests against a real TCP
//! server (the epoll reactor, the only serving path) in several
//! configurations and reports logins/sec:
//!
//! * **reactor** — the epoll reactor with a fixed small thread count
//!   (1 event loop + 3 hash-compute threads), same active load.
//! * **reactor_idle** — the reactor carrying `GP_AUTHLOAD_IDLE`
//!   (default 256) additional *mostly-idle* connections while serving the
//!   same active load: the scenario thread-per-connection serving cannot
//!   survive.
//! * **reactor_highconc** — connection scaling: `GP_AUTHLOAD_CONNS`
//!   (default 32) concurrently active connections with shallow (4-deep)
//!   pipelines.  The reactor serves them all and the cross-connection
//!   turn queue keeps the hash lanes full — reported as the
//!   `reactor_highconc_mean_batch` occupancy metric.
//! * **reactor_durable** — the reactor serving the same login load with
//!   the crash-safe store enabled (`fsync: Always` by default, overridable
//!   via `GP_AUTHLOAD_FSYNC` = `always` / `batch:N` / `never`): every
//!   burst carries one enrollment of a fresh account, whose WAL record is
//!   group-committed (fsynced) before the `EnrollOk` ack, while the
//!   background thread compacts per-shard logs.  The metric counts all
//!   acked operations (15 logins + 1 durable enrollment per 16-deep
//!   burst), so it prices the durability tax the README's fsync-policy
//!   table quotes.
//! * **reactor_groupcommit** — the durable reactor under *enroll-heavy*
//!   load: `GP_AUTHLOAD_GROUP_ENROLLS` (default 4) fresh enrollments per
//!   16-deep burst, all sharing one group-commit fsync per shard per
//!   coalesced compute batch.  Tracks how well the barrier amortizes as
//!   the write fraction grows.
//! * **cluster_sync** — a 3-node replicated cluster
//!   ([`gp_netauth::Cluster`], per-node durable stores, synchronous
//!   WAL-streaming replication) driven through the ring-routing
//!   [`gp_netauth::ClusterClient`]: each thread interleaves fresh
//!   enrollments (acked only after the backup's durable apply) with
//!   logins of its own earlier accounts.  This prices the full
//!   replication tax — ring routing, the extra loopback round trip, and
//!   the backup's WAL append — on top of the single-node durable number.
//! * **cluster_rejoin** — the same replicated load, but one node is
//!   killed a quarter into the measured window and restarted (crash
//!   recovery + ring re-admission + catch-up transfer, gated behind the
//!   auth listener) at the halfway mark.  The metric counts acked
//!   operations over the *whole* window, so it prices what a failover
//!   plus a catch-up-gated rejoin costs the serving path.
//!
//! Results merge into `BENCH_results.json` (or `GP_BENCH_OUT`) alongside
//! the `bench_report` micro-benchmarks: per-login medians under
//! `results/authload/...`, logins/sec and batch occupancy under
//! `throughput/authload/...`, and scaling ratios under `speedups/...`.
//! CI's bench-regression gate (`bench_check`) then holds every serving
//! metric to the committed numbers.
//!
//! Environment knobs: `GP_AUTHLOAD_SECS` (measured seconds per trial,
//! default 1.2), `GP_AUTHLOAD_TRIALS` (trials per scenario, best taken,
//! default 5), `GP_AUTHLOAD_THREADS` (client threads, default scales with
//! the host), `GP_AUTHLOAD_PIPELINE` (requests per burst, default 16),
//! `GP_AUTHLOAD_ITERATIONS` (hash iterations, default 3000),
//! `GP_AUTHLOAD_USERS` (enrolled accounts, default 64),
//! `GP_AUTHLOAD_IDLE` (idle connections in the reactor_idle scenario,
//! default 256), `GP_AUTHLOAD_CONNS` (active connections in the
//! reactor_highconc scenario, default 32), `GP_AUTHLOAD_ONLY`
//! (comma-separated substrings; only scenarios whose label matches run,
//! and ratios whose inputs were skipped are simply not emitted — e.g.
//! `GP_AUTHLOAD_ONLY=cluster` re-measures just the cluster scenario and
//! merges its metrics into the existing report).

use gp_bench::report::BenchReport;
use gp_geometry::Point;
use gp_netauth::replication::ReplicatorConfig;
use gp_netauth::{
    AuthClient, AuthServer, ClientMessage, Cluster, ClusterClient, DurabilityConfig, FsyncPolicy,
    LoginDecision, ServerConfig, ServerMessage,
};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `GP_AUTHLOAD_FSYNC`: `always`, `never`, or `batch:N`.
fn env_fsync(default: FsyncPolicy) -> FsyncPolicy {
    let Ok(raw) = std::env::var("GP_AUTHLOAD_FSYNC") else {
        return default;
    };
    match raw.as_str() {
        "always" => FsyncPolicy::Always,
        "never" => FsyncPolicy::Never,
        other => other
            .strip_prefix("batch:")
            .and_then(|n| n.parse().ok())
            .map(FsyncPolicy::Batch)
            .unwrap_or(default),
    }
}

/// Unique account names for durable-enrollment bursts, across threads
/// and trials (each trial's server starts from a fresh directory, but
/// uniqueness keeps the stream duplicate-free within a trial too).
static ENROLL_SEQ: AtomicU64 = AtomicU64::new(0);

/// RAII guard for a per-trial scratch state directory: created unique,
/// removed on drop.  Durable trials unwind through a panic when an ack
/// check fails — without the guard every such failure leaked the trial's
/// WAL/snapshot directory into the runner's tempdir (and into CI's
/// post-mortem artifacts), and repeated bench runs accreted stale state.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn create(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "gp-authload-{tag}-{}-{}",
            std::process::id(),
            // gp-lint: allow(L6, unique-id claim: only atomicity of the increment matters)
            ENROLL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The enrolled click sequence for one synthetic user (deterministic,
/// spread over the study image, all well inside the borders).
fn user_clicks(user: usize) -> Vec<Point> {
    (0..5)
        .map(|i| {
            let x = 40.0 + ((user * 37 + i * 83) % 360) as f64;
            let y = 30.0 + ((user * 53 + i * 61) % 260) as f64;
            Point::new(x, y)
        })
        .collect()
}

/// Shape of one load scenario.
#[derive(Clone)]
struct Scenario {
    config: ServerConfig,
    threads: usize,
    pipeline: usize,
    /// Connections opened before the load that never send a byte (held
    /// open across the measurement window).
    idle_connections: usize,
    /// Leading messages of each burst that enroll a fresh unique account
    /// instead of logging in (exercises the durable-ack path; the rest of
    /// the burst stays logins).
    enrolls_per_burst: usize,
    /// Serve with the crash-safe store (WAL + snapshots in a scratch
    /// directory, removed after the trial) under this fsync policy.
    durable_fsync: Option<FsyncPolicy>,
}

struct LoadResult {
    logins: u64,
    elapsed: Duration,
    mean_batch: f64,
    full_run_fraction: f64,
    worker_connections: Vec<u64>,
    shard_accounts: Vec<usize>,
}

impl LoadResult {
    fn logins_per_sec(&self) -> f64 {
        self.logins as f64 / self.elapsed.as_secs_f64()
    }

    fn ns_per_login(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.logins.max(1) as f64
    }
}

/// Spawn a server under `scenario.config`, enroll `users` accounts, open
/// the scenario's idle connections, then hammer it with `threads` ×
/// `pipeline`-deep bursts of correct-password logins for `secs` (after a
/// fixed warmup).  Every response is checked: a rejected or errored login
/// fails the bench loudly rather than producing a fast wrong number.
fn run_scenario(label: &str, scenario: &Scenario, users: usize, secs: f64) -> LoadResult {
    let mut config = scenario.config.clone();
    // Durable trials serve from a fresh scratch directory so recovery
    // replay never pollutes the measurement.  The guard removes it even
    // when the trial panics (declared first, so it drops after the
    // server handle on every exit path).
    let _scratch = scenario.durable_fsync.map(|fsync| {
        let guard = ScratchDir::create("durable");
        config.durability = Some(DurabilityConfig {
            fsync,
            ..DurabilityConfig::at(guard.path())
        });
        guard
    });
    let server = AuthServer::open(config).expect("open server store");
    let store = server.store();
    let system = server.system().clone();
    for user in 0..users {
        store
            .enroll(&system, &format!("user{user}"), &user_clicks(user))
            .expect("enroll synthetic user");
    }
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    // Mostly-idle population: connected, registered, never speaking.
    let idle_conns: Vec<TcpStream> = (0..scenario.idle_connections)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    let counted = Arc::new(AtomicU64::new(0));
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let warmup = Duration::from_millis(300);
    let measure = Duration::from_secs_f64(secs);
    let (threads, pipeline) = (scenario.threads, scenario.pipeline);
    let enrolls_per_burst = scenario.enrolls_per_burst.min(pipeline);

    let mut clients = Vec::new();
    for thread in 0..threads {
        let counted = Arc::clone(&counted);
        let measuring = Arc::clone(&measuring);
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut client = AuthClient::connect(addr).expect("connect");
            // Each thread walks its own slice of the user space so bursts
            // spread across store shards.
            let mut next_user = thread;
            // gp-lint: allow(L6, monotone stop flag: eventual visibility suffices; no data is published through it)
            while !stop.load(Ordering::Relaxed) {
                let burst: Vec<ClientMessage> = (0..pipeline)
                    .map(|i| {
                        if i < enrolls_per_burst {
                            // A fresh unique account: the durable-ack
                            // path (WAL append + policy fsync before
                            // EnrollOk), also a pipeline write barrier.
                            // gp-lint: allow(L6, unique-id claim: only atomicity of the increment matters)
                            let id = ENROLL_SEQ.fetch_add(1, Ordering::Relaxed);
                            return ClientMessage::Enroll {
                                username: format!("durable-{id}"),
                                clicks: user_clicks(id as usize),
                            };
                        }
                        let user = (next_user + i * threads) % users;
                        ClientMessage::Login {
                            username: format!("user{user}"),
                            clicks: user_clicks(user),
                        }
                    })
                    .collect();
                next_user = (next_user + pipeline * threads) % users;
                let responses = client.request_pipelined(&burst).expect("pipelined burst");
                for response in &responses {
                    match response {
                        ServerMessage::LoginResult {
                            decision: LoginDecision::Accepted,
                            ..
                        }
                        | ServerMessage::EnrollOk => {}
                        other => panic!("acked operation expected, got: {other:?}"),
                    }
                }
                // gp-lint: allow(L6, measurement-window flag gates only a stat counter; edge skew is tolerable)
                if measuring.load(Ordering::Relaxed) {
                    counted.fetch_add(responses.len() as u64, Ordering::Relaxed);
                }
            }
            let _ = client.quit();
        }));
    }

    std::thread::sleep(warmup);
    let started = Instant::now();
    measuring.store(true, Ordering::Relaxed);
    std::thread::sleep(measure);
    measuring.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().expect("client thread");
    }
    drop(idle_conns);

    let stats = handle.stats();
    let result = LoadResult {
        logins: counted.load(Ordering::Relaxed),
        elapsed,
        mean_batch: stats.batch.mean_batch(),
        full_run_fraction: stats.batch.full_run_fraction(),
        worker_connections: stats.workers.iter().map(|w| w.connections).collect(),
        shard_accounts: stats.shards.iter().map(|s| s.accounts).collect(),
    };
    handle.shutdown();

    eprintln!(
        "[authload] {label:<18} {:>9.0} logins/s  ({} logins / {:.2}s, mean batch {:.1}, \
         full runs {:.0}%, shards {:?}, worker conns {:?})",
        result.logins_per_sec(),
        result.logins,
        result.elapsed.as_secs_f64(),
        result.mean_batch,
        result.full_run_fraction * 100.0,
        result.shard_accounts,
        result.worker_connections,
    );
    result
}

/// Best of `trials` runs: throughput benches take the least-interfered
/// trial, because scheduler noise on a shared host only ever *subtracts*
/// throughput — the max is the closest observation of what the server can
/// actually do, and it is what keeps the CI regression gate stable.
fn run_scenario_best_of(
    label: &str,
    scenario: &Scenario,
    users: usize,
    secs: f64,
    trials: usize,
) -> LoadResult {
    let mut best: Option<LoadResult> = None;
    for _ in 0..trials.max(1) {
        let result = run_scenario(label, scenario, users, secs);
        if best
            .as_ref()
            .is_none_or(|b| result.logins_per_sec() > b.logins_per_sec())
        {
            best = Some(result);
        }
    }
    best.expect("at least one trial")
}

/// What the cluster scenario measures: acked operations through the
/// routing client (enrollments replicated synchronously + logins).
struct ClusterLoadResult {
    ops: u64,
    elapsed: Duration,
}

impl ClusterLoadResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    fn ns_per_op(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

/// Spawn the per-thread routing clients driving a cluster scenario: every
/// 4th operation per thread enrolls a fresh account (acked only after its
/// backup's durable apply), the rest log in as that thread's earlier
/// accounts.  Every ack is verified; operations count toward `counted`
/// only while `measuring` is set.  The clients absorb failovers the way
/// the fault harness proves they do: transport failures mark the node
/// dead and re-resolve onto the replica holder.
fn spawn_cluster_workers(
    members: &[(String, std::net::SocketAddr)],
    threads: usize,
    counted: &Arc<AtomicU64>,
    measuring: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..threads)
        .map(|_| {
            let members = members.to_vec();
            let counted = Arc::clone(counted);
            let measuring = Arc::clone(measuring);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut client = ClusterClient::new(&members);
                // This thread's enrolled population: (name, click seed).
                let mut enrolled: Vec<(String, u64)> = Vec::new();
                let mut turn = 0usize;
                // gp-lint: allow(L6, monotone stop flag: eventual visibility suffices; no data is published through it)
                while !stop.load(Ordering::Relaxed) {
                    if enrolled.is_empty() || turn.is_multiple_of(4) {
                        // gp-lint: allow(L6, unique-id claim: only atomicity of the increment matters)
                        let id = ENROLL_SEQ.fetch_add(1, Ordering::Relaxed);
                        let name = format!("cluster-{id}");
                        client
                            .enroll(&name, &user_clicks(id as usize))
                            .expect("replicated enroll must ack");
                        enrolled.push((name, id));
                    } else {
                        let (name, id) = &enrolled[turn % enrolled.len()];
                        let (decision, _) = client
                            .login(name, &user_clicks(*id as usize))
                            .expect("routed login must complete");
                        assert_eq!(
                            decision,
                            LoginDecision::Accepted,
                            "enrolled account must log in"
                        );
                    }
                    turn += 1;
                    // gp-lint: allow(L6, measurement-window flag gates only a stat counter; edge skew is tolerable)
                    if measuring.load(Ordering::Relaxed) {
                        counted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect()
}

/// Spawn a `nodes`-node replicated loopback cluster (per-node durable
/// stores, sync WAL-streaming replication) and drive it through
/// [`ClusterClient`]s (see [`spawn_cluster_workers`] for the load shape).
/// The count is acked operations in the measurement window.
fn run_cluster_scenario(
    label: &str,
    template: &ServerConfig,
    nodes: usize,
    threads: usize,
    secs: f64,
) -> ClusterLoadResult {
    // Guard declared before the cluster so a panicking ack assertion
    // still removes the per-trial node state dirs on unwind.
    let root = ScratchDir::create("cluster");
    let cluster = Cluster::spawn(
        nodes,
        template.clone(),
        ReplicatorConfig::default(),
        root.path(),
    )
    .expect("spawn cluster");
    let members = cluster.members();

    let counted = Arc::new(AtomicU64::new(0));
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_cluster_workers(&members, threads, &counted, &measuring, &stop);

    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    measuring.store(true, Ordering::Relaxed);
    std::thread::sleep(Duration::from_secs_f64(secs));
    measuring.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("cluster load thread");
    }
    cluster.shutdown();

    let result = ClusterLoadResult {
        ops: counted.load(Ordering::Relaxed),
        elapsed,
    };
    eprintln!(
        "[authload] {label:<18} {:>9.0} ops/s  ({} acked ops / {:.2}s, {nodes} nodes, \
         sync replication, 1-in-4 enrolls)",
        result.ops_per_sec(),
        result.ops,
        result.elapsed.as_secs_f64(),
    );
    result
}

/// Best-of wrapper for the cluster scenario (same reasoning as
/// [`run_scenario_best_of`]: noise only subtracts throughput).
fn run_cluster_best_of(
    label: &str,
    template: &ServerConfig,
    nodes: usize,
    threads: usize,
    secs: f64,
    trials: usize,
) -> ClusterLoadResult {
    let mut best: Option<ClusterLoadResult> = None;
    for _ in 0..trials.max(1) {
        let result = run_cluster_scenario(label, template, nodes, threads, secs);
        if best
            .as_ref()
            .is_none_or(|b| result.ops_per_sec() > b.ops_per_sec())
        {
            best = Some(result);
        }
    }
    best.expect("at least one trial")
}

/// The rejoin scenario: the same replicated load as
/// [`run_cluster_scenario`], but the last node is killed a quarter into
/// the measured window and restarted — crash recovery, ring re-admission,
/// catch-up transfer, traffic gate — at the halfway mark.  The count is
/// acked operations over the *whole* window, pricing a failover plus a
/// catch-up-gated rejoin end to end.
fn run_cluster_rejoin_scenario(
    label: &str,
    template: &ServerConfig,
    nodes: usize,
    threads: usize,
    secs: f64,
) -> ClusterLoadResult {
    let root = ScratchDir::create("cluster-rejoin");
    let mut cluster = Cluster::spawn(
        nodes,
        template.clone(),
        ReplicatorConfig::default(),
        root.path(),
    )
    .expect("spawn cluster");
    let members = cluster.members();

    let counted = Arc::new(AtomicU64::new(0));
    let measuring = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_cluster_workers(&members, threads, &counted, &measuring, &stop);

    std::thread::sleep(Duration::from_millis(300));
    let quarter = Duration::from_secs_f64(secs / 4.0);
    let started = Instant::now();
    measuring.store(true, Ordering::Relaxed);
    std::thread::sleep(quarter);
    cluster.kill(nodes - 1);
    std::thread::sleep(quarter);
    // The restart call blocks through catch-up — that wall-clock is part
    // of the measured window, exactly as an operator would experience it.
    let report = cluster.restart(nodes - 1).expect("rejoin restart");
    assert!(
        report.completed(),
        "catch-up must complete against live peers: {report:?}"
    );
    // Run out the window (the catch-up may have eaten into it; ops/s is
    // computed over the true elapsed time either way).
    let deadline = started + quarter * 4;
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
    measuring.store(false, Ordering::Relaxed);
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("cluster rejoin load thread");
    }
    cluster.shutdown();

    let result = ClusterLoadResult {
        ops: counted.load(Ordering::Relaxed),
        elapsed,
    };
    eprintln!(
        "[authload] {label:<18} {:>9.0} ops/s  ({} acked ops / {:.2}s, {nodes} nodes, \
         kill@25% + catch-up rejoin@50%, {} records caught up)",
        result.ops_per_sec(),
        result.ops,
        result.elapsed.as_secs_f64(),
        report.records_applied(),
    );
    result
}

/// Best-of wrapper for the rejoin scenario.
fn run_cluster_rejoin_best_of(
    label: &str,
    template: &ServerConfig,
    nodes: usize,
    threads: usize,
    secs: f64,
    trials: usize,
) -> ClusterLoadResult {
    let mut best: Option<ClusterLoadResult> = None;
    for _ in 0..trials.max(1) {
        let result = run_cluster_rejoin_scenario(label, template, nodes, threads, secs);
        if best
            .as_ref()
            .is_none_or(|b| result.ops_per_sec() > b.ops_per_sec())
        {
            best = Some(result);
        }
    }
    best.expect("at least one trial")
}

fn main() {
    let secs: f64 = env_or("GP_AUTHLOAD_SECS", 1.2);
    let trials: usize = env_or("GP_AUTHLOAD_TRIALS", 5).max(1);
    // Client threads scale with the host: enough to keep the pipeline fed
    // without thrashing a small core count (client threads compete with
    // server workers for the same CPUs on loopback).
    let default_threads = std::thread::available_parallelism()
        .map(|p| p.get().clamp(2, 8))
        .unwrap_or(2);
    let threads: usize = env_or("GP_AUTHLOAD_THREADS", default_threads).max(1);
    let pipeline: usize = env_or("GP_AUTHLOAD_PIPELINE", 16).max(1);
    // The paper's example is h^1000 "or more"; serving benches default to
    // a hardened 3000-iteration deployment so the measured contrast is
    // dominated by hashing (the part the batch verifier accelerates), not
    // framing.
    let iterations: u32 = env_or("GP_AUTHLOAD_ITERATIONS", 3000).max(1);
    let users: usize = env_or("GP_AUTHLOAD_USERS", 64).max(1);
    let idle: usize = env_or("GP_AUTHLOAD_IDLE", 256);
    let conns: usize = env_or("GP_AUTHLOAD_CONNS", 32).max(1);

    // The reactor runs with a *fixed small* thread budget on every host:
    // 1 event-loop thread + 3 hash-compute threads.  The point of the
    // scenarios below is that connection count no longer dictates thread
    // count.
    let reactor_config = ServerConfig {
        hash_iterations: iterations,
        workers: 3,
        ..ServerConfig::study_default()
    };
    let reactor = Scenario {
        config: reactor_config.clone(),
        threads,
        pipeline,
        idle_connections: 0,
        enrolls_per_burst: 0,
        durable_fsync: None,
    };
    let reactor_idle = Scenario {
        config: reactor_config.clone(),
        threads,
        pipeline,
        idle_connections: idle,
        enrolls_per_burst: 0,
        durable_fsync: None,
    };
    let reactor_highconc = Scenario {
        config: reactor_config.clone(),
        threads: conns,
        pipeline: 4,
        idle_connections: 0,
        enrolls_per_burst: 0,
        durable_fsync: None,
    };
    // The durable scenario: same reactor shape, crash-safe store, one
    // fresh-account enrollment leading every burst so the WAL-append-
    // before-ack path (and its fsync policy) is priced into the number.
    let reactor_durable = Scenario {
        config: reactor_config.clone(),
        threads,
        pipeline,
        idle_connections: 0,
        enrolls_per_burst: 1,
        durable_fsync: Some(env_fsync(FsyncPolicy::Always)),
    };
    // The group-commit stress: a durable reactor under *enroll-heavy*
    // load (4 of every 16 requests enroll a fresh account, default
    // `GP_AUTHLOAD_GROUP_ENROLLS=4`).  Before group commit each enroll
    // was its own append+fsync and a pipeline-wide barrier; now all the
    // batch's enrolls share one fsync per shard, so this number tracks
    // how well the barrier amortizes.
    let group_enrolls: usize = env_or("GP_AUTHLOAD_GROUP_ENROLLS", 4).max(1);
    let reactor_groupcommit = Scenario {
        config: reactor_config.clone(),
        threads,
        pipeline,
        idle_connections: 0,
        enrolls_per_burst: group_enrolls,
        durable_fsync: Some(env_fsync(FsyncPolicy::Always)),
    };

    // `GP_AUTHLOAD_ONLY` filter: a scenario runs when its label contains
    // any of the comma-separated patterns; unset/empty runs everything.
    let only = std::env::var("GP_AUTHLOAD_ONLY")
        .ok()
        .filter(|f| !f.trim().is_empty());
    let enabled = |label: &str| {
        only.as_deref().is_none_or(|filter| {
            filter
                .split(',')
                .map(str::trim)
                .any(|pattern| !pattern.is_empty() && label.contains(pattern))
        })
    };

    eprintln!(
        "[authload] {threads} threads × {pipeline}-deep pipeline, h^{iterations}, \
         {users} users, best of {trials} × {secs:.1}s per scenario \
         (idle={idle}, highconc={conns}×4)"
    );
    if let Some(filter) = &only {
        eprintln!("[authload] GP_AUTHLOAD_ONLY={filter} — non-matching scenarios skipped");
    }
    let path = std::env::var("GP_BENCH_OUT").unwrap_or_else(|_| "BENCH_results.json".into());
    let path = std::path::PathBuf::from(path);
    let mut out = BenchReport::load(&path).unwrap_or_default();
    let mut fresh = BenchReport::new();

    // Every scenario serves through the epoll reactor, which only exists
    // on Linux: elsewhere `AuthServer::spawn` returns `Unsupported`.
    if cfg!(target_os = "linux") {
        let reactive = enabled("reactor")
            .then(|| run_scenario_best_of("reactor", &reactor, users, secs, trials));
        let idle_result = enabled("reactor_idle")
            .then(|| run_scenario_best_of("reactor_idle", &reactor_idle, users, secs, trials));
        let highconc = enabled("reactor_highconc").then(|| {
            run_scenario_best_of("reactor_highconc", &reactor_highconc, users, secs, trials)
        });
        let durable = enabled("reactor_durable").then(|| {
            run_scenario_best_of("reactor_durable", &reactor_durable, users, secs, trials)
        });
        let groupcommit = enabled("reactor_groupcommit").then(|| {
            run_scenario_best_of(
                "reactor_groupcommit",
                &reactor_groupcommit,
                users,
                secs,
                trials,
            )
        });
        let cluster = enabled("cluster_sync").then(|| {
            run_cluster_best_of("cluster_sync", &reactor_config, 3, threads, secs, trials)
        });
        let cluster_rejoin = enabled("cluster_rejoin").then(|| {
            run_cluster_rejoin_best_of("cluster_rejoin", &reactor_config, 3, threads, secs, trials)
        });

        if let Some(reactive) = &reactive {
            fresh.set_result("authload/reactor_ns_per_login", reactive.ns_per_login());
            fresh.set_throughput("authload/reactor_logins_per_sec", reactive.logins_per_sec());
        }
        if let Some(idle_result) = &idle_result {
            fresh.set_result(
                "authload/reactor_idle_ns_per_login",
                idle_result.ns_per_login(),
            );
            fresh.set_throughput(
                "authload/reactor_idle_logins_per_sec",
                idle_result.logins_per_sec(),
            );
        }
        if let Some(highconc) = &highconc {
            fresh.set_result(
                "authload/reactor_highconc_ns_per_login",
                highconc.ns_per_login(),
            );
            fresh.set_throughput(
                "authload/reactor_highconc_logins_per_sec",
                highconc.logins_per_sec(),
            );
            // Batch occupancy under connection scaling: mean attempts per
            // multi-lane run (higher = fuller lanes), gated like any
            // throughput.
            fresh.set_throughput("authload/reactor_highconc_mean_batch", highconc.mean_batch);
        }
        if let Some(durable) = &durable {
            // Durable serving: acked operations/sec (one group-committed
            // enrollment leading every 16-deep burst, the rest logins).
            fresh.set_result("authload/reactor_durable_ns_per_op", durable.ns_per_login());
            fresh.set_throughput(
                "authload/reactor_durable_ops_per_sec",
                durable.logins_per_sec(),
            );
        }
        if let Some(groupcommit) = &groupcommit {
            // Enroll-heavy durable serving: acked operations/sec with
            // `group_enrolls` fresh enrollments per burst all riding one
            // group-commit barrier per coalesced compute batch.
            fresh.set_result(
                "authload/reactor_groupcommit_ns_per_op",
                groupcommit.ns_per_login(),
            );
            fresh.set_throughput(
                "authload/reactor_groupcommit_ops_per_sec",
                groupcommit.logins_per_sec(),
            );
        }
        if let Some(cluster) = &cluster {
            // Replicated serving: acked operations/sec through the ring-
            // routing client against a 3-node sync-replicated cluster.
            fresh.set_result("authload/cluster_sync_ns_per_op", cluster.ns_per_op());
            fresh.set_throughput("authload/cluster_sync_ops_per_sec", cluster.ops_per_sec());
        }
        if let Some(rejoin) = &cluster_rejoin {
            // Replicated serving across a kill + catch-up-gated rejoin:
            // acked ops/s over the whole window, failover included.
            fresh.set_result("authload/cluster_rejoin_ns_per_op", rejoin.ns_per_op());
            fresh.set_throughput("authload/cluster_rejoin_ops_per_sec", rejoin.ops_per_sec());
        }
        if let (Some(durable), Some(reactive)) = (&durable, &reactive) {
            let ratio = durable.logins_per_sec() / reactive.logins_per_sec();
            eprintln!("[authload] durable/reactor {ratio:.2}x");
            fresh.set_speedup("authload_reactor_durable_vs_reactor", ratio);
        }
        if let (Some(groupcommit), Some(reactive)) = (&groupcommit, &reactive) {
            let ratio = groupcommit.logins_per_sec() / reactive.logins_per_sec();
            eprintln!("[authload] groupcommit({group_enrolls}-in-{pipeline})/reactor {ratio:.2}x");
            fresh.set_speedup("authload_reactor_groupcommit_vs_reactor", ratio);
        }
        if let (Some(cluster), Some(durable)) = (&cluster, &durable) {
            let ratio = cluster.ops_per_sec() / durable.logins_per_sec();
            eprintln!("[authload] cluster/single-durable {ratio:.2}x");
            fresh.set_speedup("authload_cluster_sync_vs_single_durable", ratio);
        }
        if let (Some(rejoin), Some(cluster)) = (&cluster_rejoin, &cluster) {
            let ratio = rejoin.ops_per_sec() / cluster.ops_per_sec();
            eprintln!("[authload] rejoin-window/steady cluster {ratio:.2}x");
            fresh.set_speedup("authload_cluster_rejoin_vs_steady", ratio);
        }
    } else {
        eprintln!(
            "[authload] all scenarios skipped \
             (the epoll reactor, the only serving path, is Linux-only)"
        );
    }

    out.merge_from(&fresh);
    out.save(&path).expect("write benchmark report");
    eprintln!("[authload] wrote {}", path.display());
}
