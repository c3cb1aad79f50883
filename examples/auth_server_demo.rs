//! End-to-end networked deployment: spawn the sharded, pipelined TCP
//! authentication server with the crash-safe durable store, enroll users,
//! push a pipelined login burst through the batched hash step, demonstrate
//! the online-attack lockout, *crash* the server and recover every
//! acknowledged account from the write-ahead logs, and print the shard /
//! serving-thread / batching / durability statistics.
//!
//! Run with: `cargo run --example auth_server_demo`

use graphical_passwords::geometry::Point;
use graphical_passwords::netauth::{
    AuthClient, AuthServer, ClientMessage, DurabilityConfig, LoginDecision, ServerConfig,
};

fn main() {
    // A durable deployment: per-shard write-ahead logs under `state_dir`,
    // fsynced on every enrollment, compacted into atomic snapshots by a
    // background thread once a shard's log passes the threshold.
    let state_dir = std::env::temp_dir().join(format!("gp-auth-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServerConfig {
        hash_iterations: 1000,
        durability: Some(DurabilityConfig::at(&state_dir)),
        ..ServerConfig::study_default()
    };
    println!(
        "deployment: {} shards, {} hash-compute threads, queued turns coalesced until \
         their hash jobs fill {} lanes",
        config.shards,
        config.workers,
        graphical_passwords::crypto::LANES
    );
    println!(
        "durability: WAL per shard under {}, fsync on every enrollment",
        state_dir.display()
    );
    let server = AuthServer::open(config.clone()).expect("open durable store");
    let handle = server.spawn().expect("spawn server");
    println!("authentication server listening on {}", handle.addr());

    let clicks = graphical_passwords::example_clicks();

    let mut client = AuthClient::connect(handle.addr()).expect("connect");
    let (scheme, n_clicks) = client.get_config().expect("get config");
    println!("server scheme: {scheme}, clicks per password: {n_clicks}");

    // Enroll a small population so the shards have something to hold.
    for user in ["alice", "bob", "carol", "dave", "erin", "frank"] {
        let shifted: Vec<Point> = clicks
            .iter()
            .map(|p| p.offset(user.len() as f64 * 3.0, -(user.len() as f64)))
            .collect();
        client.enroll(user, &shifted).expect("enroll");
    }
    println!("enrolled 6 accounts across the store shards");

    // A human-like imperfect re-entry: every click is a few pixels off.
    let alice: Vec<Point> = clicks.iter().map(|p| p.offset(15.0, -5.0)).collect();
    let wobbly: Vec<Point> = alice.iter().map(|p| p.offset(5.0, -4.0)).collect();
    let (decision, _) = client.login("alice", &wobbly).expect("login");
    println!("imperfect re-entry (5 px off): {decision:?}");

    // A pipelined burst: eight logins in flight at once, answered in
    // order, hashed together in one multi-lane batch run.
    let burst: Vec<ClientMessage> = (0..8)
        .map(|_| ClientMessage::Login {
            username: "alice".into(),
            clicks: alice.clone(),
        })
        .collect();
    let responses = client.request_pipelined(&burst).expect("pipelined burst");
    println!(
        "pipelined burst: {} logins answered in order",
        responses.len()
    );

    // An online guessing attacker: far-off guesses until lockout.
    let wrong: Vec<Point> = alice.iter().map(|p| p.offset(-35.0, -35.0)).collect();
    for attempt in 1..=4 {
        let (decision, failures) = client.login("alice", &wrong).expect("login");
        println!("guess #{attempt}: {decision:?} (consecutive failures: {failures})");
        if decision == LoginDecision::LockedOut {
            break;
        }
    }

    // Even the correct password is now refused.
    let (decision, _) = client.login("alice", &alice).expect("login");
    println!("correct password after lockout: {decision:?}");

    client.quit().expect("quit");

    // The serving-layer statistics: shard occupancy, per-thread counters
    // (entry 0 is the reactor's event loop, then one per hash-compute
    // thread) and how well the turn queue coalesced the pipelined logins.
    let stats = handle.stats();
    println!("--- serving stats ---");
    for shard in &stats.shards {
        println!(
            "shard {}: {} accounts, {} lookups, {} verifications",
            shard.shard, shard.accounts, shard.lookups, shard.verifies
        );
    }
    for worker in &stats.workers {
        println!(
            "thread {}: {} connections, {} requests ({} logins)",
            worker.worker, worker.connections, worker.requests, worker.logins
        );
    }
    println!(
        "hash step: {} hash runs for {} attempts (mean batch {:.1}, largest {})",
        stats.batch.runs,
        stats.batch.attempts,
        stats.batch.mean_batch(),
        stats.batch.max_run
    );
    if let Some(durability) = handle.server().store().durability_stats() {
        println!(
            "durability: {} WAL appends, {} fsyncs, {} snapshot compactions, {} WAL bytes pending",
            durability.wal_appends,
            durability.wal_syncs,
            durability.snapshots,
            durability.wal_bytes
        );
    }

    // Crash the server: threads stop with *no* orderly save.  Everything
    // in memory — accounts and lockout state alike — is gone; only the
    // WAL-backed state directory survives.
    handle.abort();
    println!("--- server crashed (no final snapshot) ---");

    // Recovery: reopening the same directory replays snapshots + WAL
    // tails.  Every acknowledged enrollment is back, but failure counts
    // are not: the lockout table lives only in the server's memory, so a
    // restart resets every count and the locked account is usable again.
    let recovered = AuthServer::open(config).expect("recover durable store");
    let durability = recovered.store().durability_stats().expect("durable");
    println!(
        "recovered {} accounts ({} WAL records replayed)",
        recovered.store().len(),
        durability.replayed_records
    );
    let handle = recovered.spawn().expect("respawn server");
    let mut client = AuthClient::connect(handle.addr()).expect("reconnect");
    let (decision, _) = client.login("alice", &alice).expect("login after recovery");
    println!("alice's correct password after crash recovery: {decision:?}");
    client.quit().expect("quit");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
    println!("server shut down cleanly");
}
