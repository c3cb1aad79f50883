//! The four workloads: set-up, load, counters, probes and the durability
//! check, each against a real in-process server or 3-node cluster over
//! loopback TCP.

use crate::gen::{seed_name, Account, Expect, Generator, Rng};
use crate::load::{self, Req, Schedule, ThreadResult, Windows};
use crate::probes::{self, Fixture};
use crate::trace::Span;
use gp_crypto::{iterated_hash_many_salted, SaltedHasher, LANES};
use gp_netauth::{
    AuthServer, Cluster, DurabilityConfig, ReplicatorConfig, ServerConfig, ServerHandle,
    ServingMode,
};
use gp_passwords::shard::{DurabilityOptions, DurabilityStats};
use gp_passwords::{GraphicalPasswordSystem, PasswordPolicy, ShardedPasswordStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accounts enrolled before the load starts.
pub const SEED_ACCOUNTS: usize = 1_024;
/// Requests per closed-loop burst.
const BURST: usize = 16;
/// Fresh enrollments per `enroll_durable` burst (at positions 0, 4, 8, 12).
const ENROLLS_PER_BURST: usize = 4;
/// Near-miss variants pre-generated per seed account.
const VARIANTS: usize = 4;
/// `login_open` arrival rate.
const OPEN_RATE_PER_S: u32 = 2_000;
/// Load before each sub-run's measured window: connections open, lanes warm.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Sub-runs per run, each on a fresh set-up, each measuring `--seconds /
/// SUBRUNS`.  The server settles into one of a few batching rhythms per
/// instance (e.g. whether two connections' bursts share lanes), so a run
/// samples several instances; `setup_s` is the median of their set-ups.
pub const SUBRUNS: usize = 5;
/// Hash iterations of the served deployment (h^3000).
const ITERATIONS: u32 = 3_000;
/// Nodes in the `cluster_sync` cluster.
const CLUSTER_NODES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoginBurst,
    LoginOpen,
    EnrollDurable,
    ClusterSync,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LoginBurst,
        Workload::LoginOpen,
        Workload::EnrollDurable,
        Workload::ClusterSync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoginBurst => "login_burst",
            Workload::LoginOpen => "login_open",
            Workload::EnrollDurable => "enroll_durable",
            Workload::ClusterSync => "cluster_sync",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn durable(self) -> bool {
        matches!(self, Workload::EnrollDurable | Workload::ClusterSync)
    }

    /// Set-ups timed per sub-run for `setup_s`; the last one serves.  A
    /// seeded server sets up in about 0.3 s and a cluster in about 10 ms,
    /// so a cluster's median needs more of them to be as steady.
    fn setups_per_subrun(self) -> usize {
        match self {
            Workload::ClusterSync => 5,
            _ => 2,
        }
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch space for durable stores; removed by the run.
    pub scratch: PathBuf,
}

/// The served deployment: `ServerConfig::study_default()` (Centered r = 9,
/// 5 clicks, 4 shards, 3 strikes) on the reactor with 3 compute workers
/// and h^3000.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        hash_iterations: ITERATIONS,
        workers: 3,
        serving: ServingMode::Reactor,
        ..ServerConfig::study_default()
    }
}

pub fn password_system() -> GraphicalPasswordSystem {
    let config = server_config();
    GraphicalPasswordSystem::new(
        PasswordPolicy::new(config.image, config.clicks),
        config.discretization,
        config.hash_iterations,
    )
}

/// The generated inputs shared by every workload.
pub struct Inputs {
    pub gen: Generator,
    pub accounts: Vec<Account>,
    /// `near[i][v]`: near-miss login `v` for seed account `i`.
    near: Vec<Vec<Req>>,
    /// `wrong[i]`: a wrong guess for seed account `i`.
    wrong: Vec<Req>,
}

impl Inputs {
    /// Generate from `seed` and check every attempt against the scheme
    /// oracle.  `Err` names the first attempt the oracle disagrees with.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let gen = Generator::default();
        let mut rng = Rng::new(seed);
        let accounts: Vec<Account> = (0..SEED_ACCOUNTS)
            .map(|i| gen.account(&mut rng, seed_name(i)))
            .collect();
        let mut near = Vec::with_capacity(accounts.len());
        let mut wrong = Vec::with_capacity(accounts.len());
        for account in &accounts {
            let mut variants = Vec::with_capacity(VARIANTS);
            for _ in 0..VARIANTS {
                let clicks = gen.near_miss(&mut rng, account);
                if !gen.check(account, &clicks, Expect::Accept) {
                    return Err(format!(
                        "near miss {clicks:?} for {account:?} fails the oracle"
                    ));
                }
                variants.push(Req::login(clicks, &account.name, Expect::Accept));
            }
            near.push(variants);
            let clicks = gen.wrong_guess(&mut rng, account);
            if !gen.check(account, &clicks, Expect::RejectFirst) {
                return Err(format!(
                    "wrong guess {clicks:?} for {account:?} passes the oracle"
                ));
            }
            wrong.push(Req::login(clicks, &account.name, Expect::RejectFirst));
        }
        Ok(Self {
            gen,
            accounts,
            near,
            wrong,
        })
    }

    fn random_login(&self, rng: &mut Rng) -> Req {
        self.near[rng.below(self.near.len())][rng.below(VARIANTS)].clone()
    }

    /// Fresh account `n` of `thread` in sub-run `sub`, unique within the run.
    fn fresh(&self, rng: &mut Rng, seed: u64, sub: usize, thread: usize, n: u64) -> Account {
        self.gen
            .account(rng, format!("fresh-s{seed}-r{sub}-t{thread}-n{n}"))
    }
}

/// Enroll the seed accounts the way the server's split-phase path does:
/// prepare, hash in 16-lane batches, insert deferred, one group commit.
/// The records are built on the calling thread and only the hashing runs
/// off it (see [`crate::host::off_main_thread`]), so the records stay in
/// the calling thread's allocator arena and `peak_rss_mb` stays steady.
fn seed_store(server: &AuthServer, accounts: &[Account]) {
    let system = server.system();
    let store = server.store();
    let prepared: Vec<_> = accounts
        .iter()
        .map(|a| {
            system
                .prepare_enroll(&a.name, &a.clicks)
                .expect("seed account is valid")
        })
        .collect();
    let digests = crate::host::off_main_thread(|| {
        let mut digests = Vec::with_capacity(prepared.len());
        for chunk in prepared.chunks(LANES) {
            let hashers: Vec<SaltedHasher> = chunk
                .iter()
                .map(|(r, _)| SaltedHasher::new(&r.hash.salt))
                .collect();
            let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
            let messages: Vec<&[u8]> = chunk.iter().map(|(_, m)| m.as_slice()).collect();
            digests.extend(iterated_hash_many_salted(
                &hasher_refs,
                &messages,
                system.iterations(),
            ));
        }
        digests
    });
    let shards: Vec<usize> = prepared
        .into_iter()
        .zip(digests)
        .map(|((record, _), digest)| {
            let record = GraphicalPasswordSystem::finish_enroll(record, digest);
            store
                .insert_new_deferred(record)
                .expect("seed accounts are distinct")
        })
        .collect();
    store.commit_shards(shards).expect("commit seed accounts");
}

/// Counter deltas over a window, summed across sub-runs (and nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub batch_runs: u64,
    pub batch_attempts: u64,
    pub batch_full_runs: u64,
    pub wal_syncs: u64,
    pub wal_appends: u64,
    pub group_commits: u64,
    pub snapshots: u64,
    /// Host CPU ticks, all and stolen by the hypervisor (`/proc/stat`).
    pub host_ticks: u64,
    pub steal_ticks: u64,
}

impl Counters {
    fn with_host_ticks(mut self) -> Self {
        (self.host_ticks, self.steal_ticks) = crate::host::cpu_ticks();
        self
    }

    fn add_durability(&mut self, d: &DurabilityStats) {
        self.wal_syncs += d.wal_syncs;
        self.wal_appends += d.wal_appends;
        self.group_commits += d.group_commits;
        self.snapshots += d.snapshots;
    }

    fn zip(self, other: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            batch_runs: f(self.batch_runs, other.batch_runs),
            batch_attempts: f(self.batch_attempts, other.batch_attempts),
            batch_full_runs: f(self.batch_full_runs, other.batch_full_runs),
            wal_syncs: f(self.wal_syncs, other.wal_syncs),
            wal_appends: f(self.wal_appends, other.wal_appends),
            group_commits: f(self.group_commits, other.group_commits),
            snapshots: f(self.snapshots, other.snapshots),
            host_ticks: f(self.host_ticks, other.host_ticks),
            steal_ticks: f(self.steal_ticks, other.steal_ticks),
        }
    }
}

/// CPU time and counters read at a window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    cpu_ms: f64,
    counters: Counters,
}

/// One measured window, merged across load threads and then sub-runs.
#[derive(Debug, Clone)]
pub struct WindowResult {
    pub traced: bool,
    pub secs: f64,
    pub tally: load::Tally,
    /// Length of each slice (the last slice of a window may be short).
    pub slice_secs: Vec<f64>,
    /// Process CPU ms spent in each slice.
    pub cpu_by_slice: Vec<f64>,
    pub counters: Counters,
}

impl WindowResult {
    /// Follow on with the same window of a later sub-run.
    fn append(&mut self, later: WindowResult) {
        self.secs += later.secs;
        self.tally.append(later.tally);
        self.slice_secs.extend(later.slice_secs);
        self.cpu_by_slice.extend(later.cpu_by_slice);
        self.counters = self.counters.zip(later.counters, |a, b| a + b);
    }
}

/// Whole-run counts behind the validity checks, summed across sub-runs.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    sent: u64,
    served: u64,
    protocol_errors: u64,
    failovers: u64,
    replicated: u64,
    acked_enrolls: u64,
    missing: u64,
}

impl Totals {
    fn add(&mut self, o: Totals) {
        self.sent += o.sent;
        self.served += o.served;
        self.protocol_errors += o.protocol_errors;
        self.failovers += o.failovers;
        self.replicated += o.replicated;
        self.acked_enrolls += o.acked_enrolls;
        self.missing += o.missing;
    }

    fn records_per_enroll(&self) -> f64 {
        self.replicated as f64 / self.acked_enrolls.max(1) as f64
    }

    fn checks(&self, workload: Workload) -> Vec<(&'static str, f64, bool)> {
        let mut checks = if workload == Workload::ClusterSync {
            vec![
                (
                    "cluster.failovers",
                    self.failovers as f64,
                    self.failovers == 0,
                ),
                (
                    "replication.records_per_enroll",
                    self.records_per_enroll(),
                    self.replicated == self.acked_enrolls,
                ),
            ]
        } else {
            vec![
                (
                    "server.protocol_errors",
                    self.protocol_errors as f64,
                    self.protocol_errors == 0,
                ),
                (
                    "server.requests_minus_sent",
                    self.served as f64 - self.sent as f64,
                    self.served == self.sent,
                ),
            ]
        };
        if workload.durable() {
            checks.push((
                "durability.acked_enrolls_checked",
                self.acked_enrolls as f64,
                true,
            ));
        }
        checks.push(("durability.missing", self.missing as f64, self.missing == 0));
        checks
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The measured windows merged across sub-runs: untraced first, then
    /// (traced run) traced.
    pub windows: Vec<WindowResult>,
    /// Each sub-run's own windows, in the same order.
    pub subrun_windows: Vec<Vec<WindowResult>>,
    /// Every attempt of the run, warm-up included.
    pub whole: load::Tally,
    /// Per-layer metrics of the traced run, in report order.
    pub layers: Vec<(&'static str, f64)>,
    /// Validity checks: name, measured value, whether it holds.
    pub checks: Vec<(&'static str, f64, bool)>,
    /// Acked enrollments missing (or under-replicated) after recovery.
    pub durable_missing: u64,
    pub spans: Vec<Span>,
    pub epoch: Instant,
    /// Start of the first measured window.
    pub first_measured: Instant,
    pub shape: String,
}

/// What one sub-run measured.
struct SubRun {
    setup_s: Vec<f64>,
    first_measured: Instant,
    /// Untraced first, then traced.
    windows: Vec<WindowResult>,
    whole: load::Tally,
    spans: Vec<Span>,
    totals: Totals,
    /// Probes of the live, idle server (traced run, last sub-run only).
    live_probes: Vec<(&'static str, f64)>,
}

/// A single-node server, seeded and listening.
struct Node {
    handle: ServerHandle,
    dir: Option<PathBuf>,
}

impl Node {
    fn start(run: &RunConfig, name: &str, accounts: &[Account]) -> Self {
        let dir = run.workload.durable().then(|| run.scratch.join(name));
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let config = ServerConfig {
            durability: dir.as_ref().map(DurabilityConfig::at),
            ..server_config()
        };
        let server = AuthServer::open(config).expect("open server store");
        seed_store(&server, accounts);
        let handle = server.spawn().expect("spawn server");
        Self { handle, dir }
    }

    fn sample(&self) -> Sample {
        let batch = self.handle.stats().batch;
        let mut counters = Counters {
            batch_runs: batch.runs,
            batch_attempts: batch.attempts,
            batch_full_runs: batch.full_runs,
            ..Counters::default()
        };
        if let Some(d) = self.handle.server().store().durability_stats() {
            counters.add_durability(&d);
        }
        Sample {
            cpu_ms: crate::host::cpu_time_ms(),
            counters: counters.with_host_ticks(),
        }
    }
}

/// Sub-run `sub`'s measured windows.  A traced run measures half untraced
/// and half traced, alternating which half comes first from one sub-run to
/// the next so that drift within a sub-run does not count as overhead.
fn window_lengths(run: &RunConfig, sub: usize) -> Vec<(Duration, bool)> {
    let per_subrun = Duration::from_secs_f64(run.seconds) / SUBRUNS as u32;
    if run.trace {
        let traced_first = sub % 2 == 1;
        vec![
            (per_subrun / 2, traced_first),
            (per_subrun / 2, !traced_first),
        ]
    } else {
        vec![(per_subrun, false)]
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Counters at every window boundary, and process CPU time at every slice
/// boundary, sampled while the load runs.
struct Samples {
    at_bounds: Vec<Sample>,
    /// Per window: (time, CPU ms) at the window start and each slice end.
    cpu_marks: Vec<Vec<(Instant, f64)>>,
}

fn sample_boundaries(windows: &Windows, mut take: impl FnMut() -> Sample) -> Samples {
    let mut at_bounds = Vec::with_capacity(windows.bounds.len() + 1);
    let mut cpu_marks = Vec::with_capacity(windows.bounds.len());
    for (i, (start, end)) in windows.bounds.iter().enumerate() {
        if i == 0 {
            sleep_until(*start);
            at_bounds.push(take());
        }
        let mut marks = vec![(*start, at_bounds[i].cpu_ms)];
        let mut slice_end = *start + load::SLICE;
        while slice_end < *end {
            sleep_until(slice_end);
            marks.push((slice_end, crate::host::cpu_time_ms()));
            slice_end += load::SLICE;
        }
        sleep_until(*end);
        let sample = take();
        marks.push((*end, sample.cpu_ms));
        at_bounds.push(sample);
        cpu_marks.push(marks);
    }
    Samples {
        at_bounds,
        cpu_marks,
    }
}

/// The windows of one sub-run, untraced first, and its whole-run tally.
fn merge_windows(
    windows: &Windows,
    samples: &Samples,
    results: &mut [ThreadResult],
) -> (Vec<WindowResult>, load::Tally) {
    let mut whole = load::Tally::default();
    for r in results.iter_mut() {
        whole.merge(std::mem::take(&mut r.whole));
    }
    let mut merged: Vec<WindowResult> = windows
        .bounds
        .iter()
        .enumerate()
        .map(|(w, (start, end))| {
            let marks = &samples.cpu_marks[w];
            let mut tally = load::Tally::default();
            for r in results.iter_mut() {
                tally.merge(std::mem::take(&mut r.tallies[w]));
            }
            tally.pad_slices(marks.len() - 1);
            let (c0, c1) = (
                samples.at_bounds[w].counters,
                samples.at_bounds[w + 1].counters,
            );
            WindowResult {
                traced: windows.traced[w],
                secs: end.duration_since(*start).as_secs_f64(),
                tally,
                slice_secs: marks
                    .windows(2)
                    .map(|m| m[1].0.duration_since(m[0].0).as_secs_f64())
                    .collect(),
                cpu_by_slice: marks.windows(2).map(|m| m[1].1 - m[0].1).collect(),
                counters: c1.zip(c0, u64::saturating_sub),
            }
        })
        .collect();
    merged.sort_by_key(|w| w.traced);
    (merged, whole)
}

/// The burst source for one closed-loop thread.
fn burst_source<'a>(
    run: &'a RunConfig,
    inputs: &'a Inputs,
    sub: usize,
    thread: usize,
) -> impl FnMut() -> Vec<Req> + 'a {
    let mut rng = Rng::new(run.seed).fork(((sub as u64) << 16) + 1 + thread as u64);
    let mut fresh = 0u64;
    let workload = run.workload;
    move || {
        if workload == Workload::LoginBurst {
            return (0..BURST).map(|_| inputs.random_login(&mut rng)).collect();
        }
        // enroll_durable: enrollments at 0, 4, 8, 12; one later login
        // targets an account enrolled earlier in the same burst, so it
        // parks behind that enrollment's group-commit barrier.
        let stride = BURST / ENROLLS_PER_BURST;
        let target = 1 + rng.below(BURST - 1);
        let target = if target.is_multiple_of(stride) {
            target + 1
        } else {
            target
        };
        let mut burst = Vec::with_capacity(BURST);
        let mut enrolled: Vec<Account> = Vec::new();
        for pos in 0..BURST {
            if pos % stride == 0 {
                let account = inputs.fresh(&mut rng, run.seed, sub, thread, fresh);
                fresh += 1;
                burst.push(Req::enroll(&account));
                enrolled.push(account);
            } else if pos == target {
                let account = &enrolled[rng.below(enrolled.len())];
                let clicks = inputs.gen.near_miss(&mut rng, account);
                assert!(
                    inputs.gen.check(account, &clicks, Expect::Accept),
                    "generator disagrees with the oracle"
                );
                burst.push(Req::login(clicks, &account.name, Expect::Accept));
            } else {
                burst.push(inputs.random_login(&mut rng));
            }
        }
        burst
    }
}

/// `login_open`'s request sequence for one sub-run: every 8th login is a
/// wrong guess, immediately followed by a correct login for the same
/// account.
fn open_requests(run: &RunConfig, inputs: &Inputs, sub: usize) -> Vec<Req> {
    let total = (WARMUP.as_secs_f64() + run.seconds / SUBRUNS as f64) * f64::from(OPEN_RATE_PER_S);
    let mut rng = Rng::new(run.seed).fork(0x0BE7 + ((sub as u64) << 16));
    let mut requests = Vec::with_capacity(total as usize + 1);
    let mut wrong_account = 0;
    for i in 0..=total as usize {
        requests.push(match i % 8 {
            6 => {
                wrong_account = rng.below(inputs.accounts.len());
                inputs.wrong[wrong_account].clone()
            }
            7 => inputs.near[wrong_account][rng.below(VARIANTS)].clone(),
            _ => inputs.random_login(&mut rng),
        });
    }
    requests
}

pub fn run(run: &RunConfig, inputs: &Inputs) -> Outcome {
    let epoch = Instant::now();
    let _ = std::fs::remove_dir_all(&run.scratch);
    std::fs::create_dir_all(&run.scratch).expect("create scratch directory");
    let mut setup_s = Vec::with_capacity(SUBRUNS);
    let mut windows: Vec<WindowResult> = Vec::new();
    let mut subrun_windows = Vec::with_capacity(SUBRUNS);
    let mut whole = load::Tally::default();
    let mut spans = Vec::new();
    let mut totals = Totals::default();
    let mut live_probes = Vec::new();
    let mut first_measured = None;
    for sub in 0..SUBRUNS {
        let probe = run.trace && sub + 1 == SUBRUNS;
        let part = match run.workload {
            Workload::ClusterSync => cluster_subrun(run, inputs, sub, probe),
            _ => single_subrun(run, inputs, sub, probe),
        };
        setup_s.extend(part.setup_s);
        first_measured.get_or_insert(part.first_measured);
        if windows.is_empty() {
            windows = part.windows.clone();
        } else {
            for (w, later) in windows.iter_mut().zip(part.windows.clone()) {
                w.append(later);
            }
        }
        subrun_windows.push(part.windows);
        whole.merge(part.whole);
        spans.extend(part.spans);
        totals.add(part.totals);
        live_probes.extend(part.live_probes);
    }
    spans.sort_by_key(|s| s.start);
    let mut layers = Vec::new();
    if run.trace {
        let traced = windows.last().expect("traced window");
        layers = window_layers(run.workload, traced, &spans);
        if run.workload == Workload::ClusterSync {
            layers.push((
                "replication.records_per_enroll",
                totals.records_per_enroll(),
            ));
            layers.push(("cluster.failovers", totals.failovers as f64));
        } else {
            layers.push(("server.requests", totals.served as f64));
            layers.push(("server.protocol_errors", totals.protocol_errors as f64));
        }
        layers.extend(live_probes);
        layers.extend(standalone_probes(run, inputs));
    }
    let _ = std::fs::remove_dir_all(&run.scratch);
    Outcome {
        setup_s,
        windows,
        subrun_windows,
        whole,
        layers,
        checks: totals.checks(run.workload),
        durable_missing: totals.missing,
        spans,
        epoch,
        first_measured: first_measured.expect("at least one sub-run"),
        shape: format!(
            "{}; {SUBRUNS} sub-runs of {:.1} s, each on a fresh set-up",
            shape(run),
            run.seconds / SUBRUNS as f64
        ),
    }
}

fn shape(run: &RunConfig) -> String {
    match run.workload {
        Workload::LoginOpen => format!(
            "open loop, {OPEN_RATE_PER_S} logins/s on 1 connection, 1 in 8 a wrong guess; \
             {SEED_ACCOUNTS} accounts, in-memory store"
        ),
        Workload::LoginBurst => format!(
            "closed loop, {} connections x {BURST}-deep bursts of near-miss logins; \
             {SEED_ACCOUNTS} accounts, in-memory store",
            run.nproc
        ),
        Workload::EnrollDurable => format!(
            "closed loop, {} connections x {BURST}-deep bursts ({ENROLLS_PER_BURST} fresh enrolls + \
             {} logins, one behind its own enroll); durable store, fsync always",
            run.nproc,
            BURST - ENROLLS_PER_BURST
        ),
        Workload::ClusterSync => format!(
            "{CLUSTER_NODES}-node cluster, sync replication, {} ClusterClient threads at depth 1, \
             every 4th op a fresh enroll",
            run.nproc
        ),
    }
}

/// Set up `n` times, timing each; tear all but the last down again and
/// return the last, which serves the sub-run.
fn timed_setups<T>(
    n: usize,
    mut start: impl FnMut(usize) -> T,
    mut stop: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(n);
    let mut timed = |k| {
        let started = Instant::now();
        let served = start(k);
        setup_s.push(started.elapsed().as_secs_f64());
        served
    };
    for k in 1..n {
        stop(timed(k));
    }
    let served = timed(0);
    (served, setup_s)
}

fn single_subrun(run: &RunConfig, inputs: &Inputs, sub: usize, probe: bool) -> SubRun {
    let (node, setup_s) = timed_setups(
        run.workload.setups_per_subrun(),
        |k| Node::start(run, &format!("node-{sub}-{k}"), &inputs.accounts),
        |spare| {
            spare.handle.shutdown();
            if let Some(dir) = spare.dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        },
    );
    let addr = node.handle.addr();
    let open = run.workload == Workload::LoginOpen;
    let requests = if open {
        open_requests(run, inputs, sub)
    } else {
        Vec::new()
    };
    let windows = Windows::new(WARMUP, &window_lengths(run, sub));
    let (samples, mut results) = std::thread::scope(|scope| {
        let threads: Vec<_> = if open {
            let schedule = Schedule {
                start: windows.warmup_start,
                period: Duration::from_secs(1) / OPEN_RATE_PER_S,
            };
            let (windows, requests) = (&windows, &requests);
            vec![scope.spawn(move || load::open_loop(addr, windows, schedule, requests))]
        } else {
            (0..run.nproc)
                .map(|t| {
                    let windows = &windows;
                    let source = burst_source(run, inputs, sub, t);
                    scope.spawn(move || load::closed_loop(addr, t, windows, source))
                })
                .collect()
        };
        let samples = sample_boundaries(&windows, || node.sample());
        let results: Vec<ThreadResult> = threads
            .into_iter()
            .map(|t| t.join().expect("load thread"))
            .collect();
        (samples, results)
    });
    let (merged, whole) = merge_windows(&windows, &samples, &mut results);

    let stats = node.handle.stats();
    let mut totals = Totals {
        sent: results.iter().map(|r| r.sent).sum(),
        served: stats.workers.iter().map(|w| w.requests).sum(),
        protocol_errors: stats.workers.iter().map(|w| w.protocol_errors).sum(),
        ..Totals::default()
    };
    let mut live_probes = Vec::new();
    if probe {
        live_probes.push(("reactor.rtt_idle_us", probes::rtt_idle_us(addr)));
        let store = node.handle.server().store();
        let snapshot = if store.is_durable() {
            probes::snapshot_ms(&store)
        } else {
            let system = password_system();
            let fixture = Fixture::new(&system, &inputs.gen, &inputs.accounts, run.seed);
            probes::snapshot_scratch_ms(&fixture.records, &run.scratch.join("snapshot-probe"))
        };
        live_probes.push(("store.snapshot_ms", snapshot));
    }

    match node.dir {
        Some(dir) => {
            // Crash-stop (no final compaction), then recover and look up
            // every enrollment a client saw acked.
            node.handle.abort();
            let store = ShardedPasswordStore::open_durable(&dir, 4, DurabilityOptions::default())
                .expect("recover the durable store");
            for r in &results {
                totals.acked_enrolls += r.acked_enrolls.len() as u64;
                totals.missing += r
                    .acked_enrolls
                    .iter()
                    .filter(|name| store.get(name).is_none())
                    .count() as u64;
            }
            drop(store);
            let _ = std::fs::remove_dir_all(dir);
        }
        None => node.handle.shutdown(),
    }
    SubRun {
        setup_s,
        first_measured: windows.bounds[0].0,
        windows: merged,
        whole,
        spans: results
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.spans))
            .collect(),
        totals,
        live_probes,
    }
}

/// Per-layer metrics read from a window's counter deltas and spans.
fn window_layers(workload: Workload, w: &WindowResult, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let c = &w.counters;
    if workload != Workload::ClusterSync {
        let runs = c.batch_runs.max(1) as f64;
        out.push(("batch.mean_batch", c.batch_attempts as f64 / runs));
        out.push(("batch.full_run_fraction", c.batch_full_runs as f64 / runs));
        out.push(("batch.runs_per_s", c.batch_runs as f64 / w.secs));
    }
    if workload.durable() {
        let enrolls = w.tally.enrolls_acked.max(1) as f64;
        out.push(("wal.fsyncs_per_enroll", c.wal_syncs as f64 / enrolls));
        out.push((
            "wal.enrolls_per_commit",
            c.wal_appends as f64 / c.group_commits.max(1) as f64,
        ));
        out.push(("store.snapshots", c.snapshots as f64));
    }
    for (metric, span) in [
        ("client.write_us", "client.write"),
        ("client.first_response_ms", "client.first_response"),
        ("client.drain_us", "client.drain"),
    ] {
        if let Some(us) = crate::trace::median_micros(spans, span) {
            let value = if metric.ends_with("_ms") {
                us / 1e3
            } else {
                us
            };
            out.push((metric, value));
        }
    }
    out.push(("lockout.rejected", w.tally.rejected as f64));
    out.push(("lockout.locked", w.tally.locked as f64));
    out
}

/// The probes that need no running server, run once it has stopped so
/// that nothing else competes for the cores.
fn standalone_probes(run: &RunConfig, inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let system = password_system();
    let fixture = Fixture::new(&system, &inputs.gen, &inputs.accounts, run.seed);
    probes::run_all(&fixture, &run.scratch)
}

fn cluster_subrun(run: &RunConfig, inputs: &Inputs, sub: usize, probe: bool) -> SubRun {
    let root_of = |k: usize| run.scratch.join(format!("cluster-{sub}-{k}"));
    let (mut cluster, setup_s) = timed_setups(
        run.workload.setups_per_subrun(),
        |k| {
            Cluster::spawn(
                CLUSTER_NODES,
                server_config(),
                ReplicatorConfig::default(),
                &root_of(k),
            )
            .expect("spawn cluster")
        },
        |spare| spare.shutdown(),
    );
    for k in 1..run.workload.setups_per_subrun() {
        let _ = std::fs::remove_dir_all(root_of(k));
    }
    let root = root_of(0);
    let members = cluster.members();
    let windows = Windows::new(WARMUP, &window_lengths(run, sub));
    let replicated = |cluster: &Cluster| -> u64 {
        (0..CLUSTER_NODES)
            .filter_map(|i| cluster.replicator(i))
            .map(|r| r.replication_stats().records_replicated)
            .sum()
    };
    let take_sample = |cluster: &Cluster| {
        let mut counters = Counters::default();
        for i in 0..CLUSTER_NODES {
            if let Some(d) = cluster.store(i).and_then(|s| s.durability_stats()) {
                counters.add_durability(&d);
            }
        }
        Sample {
            cpu_ms: crate::host::cpu_time_ms(),
            counters: counters.with_host_ticks(),
        }
    };
    let (samples, mut results) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..run.nproc)
            .map(|t| {
                let (windows, members, gen) = (&windows, &members, &inputs.gen);
                let rng = Rng::new(run.seed).fork(0xC1 + ((sub as u64) << 16) + t as u64);
                let seed = run.seed;
                let mut fresh = 0u64;
                scope.spawn(move || {
                    load::cluster_loop(members, t, windows, gen, rng, |rng| {
                        fresh += 1;
                        inputs.fresh(rng, seed, sub, t, fresh)
                    })
                })
            })
            .collect();
        let samples = sample_boundaries(&windows, || take_sample(&cluster));
        let results: Vec<ThreadResult> = threads
            .into_iter()
            .map(|t| t.join().expect("cluster load thread"))
            .collect();
        (samples, results)
    });
    let (merged, whole) = merge_windows(&windows, &samples, &mut results);

    let acked: Vec<Arc<str>> = results
        .iter()
        .flat_map(|r| r.acked_enrolls.iter().cloned())
        .collect();
    let mut totals = Totals {
        failovers: results.iter().map(|r| r.failovers).sum(),
        replicated: replicated(&cluster),
        acked_enrolls: acked.len() as u64,
        ..Totals::default()
    };
    let mut live_probes = Vec::new();
    if probe {
        live_probes.push(("reactor.rtt_idle_us", probes::rtt_idle_us(members[0].1)));
        let store = cluster.store(0).expect("node 0 is live");
        live_probes.push(("store.snapshot_ms", probes::snapshot_ms(&store)));
    }

    // Crash-stop every node, recover each from its own directory, and
    // require every acked enrollment on its primary and its backup.
    for i in 0..CLUSTER_NODES {
        cluster.kill(i);
    }
    cluster.shutdown();
    let stores: Vec<ShardedPasswordStore> = (0..CLUSTER_NODES)
        .map(|i| {
            ShardedPasswordStore::open_durable(
                &root.join(format!("node-{i}")),
                4,
                DurabilityOptions::default(),
            )
            .expect("recover a node store")
        })
        .collect();
    totals.missing = acked
        .iter()
        .filter(|name| stores.iter().filter(|s| s.get(name).is_some()).count() < 2)
        .count() as u64;
    drop(stores);
    let _ = std::fs::remove_dir_all(&root);
    SubRun {
        setup_s,
        first_measured: windows.bounds[0].0,
        windows: merged,
        whole,
        spans: results
            .iter_mut()
            .flat_map(|r| std::mem::take(&mut r.spans))
            .collect(),
        totals,
        live_probes,
    }
}
