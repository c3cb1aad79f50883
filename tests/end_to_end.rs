//! Cross-crate integration tests: the full pipeline from synthetic study
//! data through enrollment, verification, analysis and attack, exercised
//! exactly the way the examples and benches use it.

use graphical_passwords::analysis::{
    crack_percentages, figure8, table1, table2, table3, Experiment, ExperimentScale,
};
use graphical_passwords::attacks::{ClickPointPool, OfflineKnownGridAttack};
use graphical_passwords::geometry::{ImageDims, Point};
use graphical_passwords::netauth::{
    AuthClient, AuthServer, ClientMessage, LoginDecision, ServerConfig, ServerMessage,
};
use graphical_passwords::passwords::prelude::*;
use graphical_passwords::study::{FieldStudyConfig, LabStudyConfig};

/// The complete usability replay: generate the field study, run the Table 1
/// and Table 2 analyses, and check the qualitative claims of the paper.
#[test]
fn usability_pipeline_reproduces_paper_shape() {
    let dataset = FieldStudyConfig::test_scale().generate();

    let t1 = table1(&dataset);
    let t2 = table2(&dataset);

    // Centered Discretization never false-accepts or false-rejects.
    for row in t1.iter().chain(t2.iter()) {
        assert_eq!(row.centered_false_accept_pct, 0.0);
        assert_eq!(row.centered_false_reject_pct, 0.0);
    }
    // Robust Discretization shows false rejects at equal grid size …
    assert!(t1.iter().any(|row| row.false_reject_pct > 1.0));
    // … and false accepts at equal r, with (essentially) no false rejects.
    assert!(t2.iter().any(|row| row.false_accept_pct > 1.0));
    for row in &t2 {
        assert!(row.false_reject_pct < 1.0);
    }
}

/// The complete security replay: lab-seeded dictionary against field
/// passwords enrolled under each scheme at equal r (Figure 8's comparison).
#[test]
fn security_pipeline_shows_centered_advantage_at_equal_r() {
    let field = FieldStudyConfig::test_scale().generate();
    let lab = LabStudyConfig::paper_scale().generate();
    let points = figure8(&field, &lab, 2);
    for image in field.images() {
        let (robust, centered) = crack_percentages(&points, &image, "r=9").expect("curve point");
        assert!(
            robust >= centered,
            "{image}: robust ({robust:.1}%) should be cracked at least as much as centered ({centered:.1}%)"
        );
    }
}

/// Table 3 is pure math and must match the paper exactly.
#[test]
fn password_space_matches_paper_exactly() {
    let rows = table3();
    let get = |image: ImageDims, grid: f64| {
        rows.iter()
            .find(|r| r.image == image && r.grid_size == grid)
            .unwrap()
    };
    assert_eq!(get(ImageDims::STUDY, 9.0).squares_per_grid, 1887);
    assert_eq!(get(ImageDims::VGA, 36.0).squares_per_grid, 252);
    let bits = get(ImageDims::VGA, 9.0).password_space_bits;
    assert!((bits - 59.6).abs() < 0.05);
    let bits = get(ImageDims::VGA, 24.0).password_space_bits;
    assert!((bits - 45.4).abs() < 0.05);
}

/// A stored password file written by the password layer can be reloaded and
/// attacked by the attack layer, and the attack result is consistent with
/// direct verification.
#[test]
fn password_file_round_trip_feeds_the_attack_layer() {
    let system = GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::robust(9.0),
        2,
    );
    let store = ShardedPasswordStore::new(1);
    let originals: Vec<(String, Vec<Point>)> = (0..10)
        .map(|i| {
            let clicks: Vec<Point> = (0..5)
                .map(|j| {
                    Point::new(
                        30.0 + i as f64 * 40.0 % 380.0 + j as f64,
                        20.0 + j as f64 * 60.0,
                    )
                })
                .collect();
            (format!("user{i}"), clicks)
        })
        .collect();
    for (name, clicks) in &originals {
        store.enroll(&system, name, clicks).unwrap();
    }

    // Save and reload the password file — the attacker's input.
    let dir = std::env::temp_dir().join(format!("gp-e2e-password-file-{}", std::process::id()));
    store.save_to_dir(&dir).unwrap();
    let reloaded = ShardedPasswordStore::load_from_dir(&dir, 1).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(reloaded.len(), 10);

    // Dictionary containing the first five users' exact points.
    let pool_points: Vec<Point> = originals
        .iter()
        .take(5)
        .flat_map(|(_, clicks)| clicks.iter().copied())
        .collect();
    let attack = OfflineKnownGridAttack::new(ClickPointPool::new(pool_points, 5));

    let mut cracked = 0;
    for (name, clicks) in &originals {
        let stored = reloaded.get(name).unwrap();
        if attack.cracks(&stored, clicks) {
            cracked += 1;
            // Anything the attack cracks, the system must also accept when
            // the guessed points are submitted as a login.
            assert!(system.verify(&stored, clicks).unwrap());
        }
    }
    assert!(
        cracked >= 5,
        "the five seeded users must be cracked, got {cracked}"
    );
}

/// The experiment registry runs end to end at quick scale and mentions the
/// key schemes in its reports.
#[test]
fn experiment_registry_runs_every_experiment() {
    let scale = ExperimentScale::quick();
    for experiment in Experiment::all() {
        let report = experiment.run(&scale);
        assert!(
            !report.trim().is_empty(),
            "{} produced an empty report",
            experiment.id()
        );
    }
}

/// The sharded, pipelined serving layer under real concurrency: enroll a
/// population, then drive concurrent logins from ≥8 client threads against
/// one server — correct passwords are accepted from every thread, requests
/// spread across shards and the reactor's threads, and the per-account
/// lockout still triggers exactly at the threshold while an innocent
/// account on the same server stays usable.
#[test]
fn concurrent_clients_against_sharded_server_preserve_lockout() {
    let server = AuthServer::new(ServerConfig::fast_for_tests());
    let store = server.store();
    let system = server.system().clone();
    let user_clicks = |user: usize| -> Vec<Point> {
        (0..5)
            .map(|i| {
                Point::new(
                    40.0 + ((user * 37 + i * 83) % 360) as f64,
                    30.0 + ((user * 53 + i * 61) % 260) as f64,
                )
            })
            .collect()
    };
    for user in 0..16 {
        store
            .enroll(&system, &format!("user{user}"), &user_clicks(user))
            .unwrap();
    }
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr();

    // 8 honest threads (pipelined correct logins) + 2 attacker threads
    // hammering one victim account with wrong clicks.
    let mut threads = Vec::new();
    for t in 0..8usize {
        threads.push(std::thread::spawn(move || {
            let mut client = AuthClient::connect(addr).expect("connect");
            for round in 0..4 {
                let burst: Vec<ClientMessage> = (0..4)
                    .map(|i| {
                        let user = (t + round + i * 2) % 15 + 1; // never user0 (the victim)
                        ClientMessage::Login {
                            username: format!("user{user}"),
                            clicks: user_clicks(user),
                        }
                    })
                    .collect();
                for response in client.request_pipelined(&burst).expect("burst") {
                    match response {
                        ServerMessage::LoginResult {
                            decision: LoginDecision::Accepted,
                            failures: 0,
                        } => {}
                        other => panic!("honest login mishandled: {other:?}"),
                    }
                }
            }
            client.quit().expect("quit");
        }));
    }
    for _ in 0..2 {
        threads.push(std::thread::spawn(move || {
            let mut client = AuthClient::connect(addr).expect("connect");
            let wrong: Vec<Point> = user_clicks(0)
                .iter()
                .map(|p| p.offset(25.0, 25.0))
                .collect();
            for _ in 0..6 {
                let (decision, failures) = client.login("user0", &wrong).expect("login");
                assert_ne!(
                    decision,
                    LoginDecision::Accepted,
                    "wrong clicks must never be accepted"
                );
                assert!(failures <= 3, "failure count is capped at the threshold");
            }
            client.quit().expect("quit");
        }));
    }
    for thread in threads {
        thread.join().expect("client thread");
    }

    // The victim is locked (12 wrong attempts across two attackers against
    // a 3-strike threshold) — even with the correct password.
    let mut client = AuthClient::connect(addr).expect("connect");
    let (decision, failures) = client.login("user0", &user_clicks(0)).expect("login");
    assert_eq!(decision, LoginDecision::LockedOut);
    assert_eq!(failures, 3);
    // Every other account still works: lockout is strictly per-account.
    let (decision, _) = client.login("user5", &user_clicks(5)).expect("login");
    assert_eq!(decision, LoginDecision::Accepted);
    client.quit().expect("quit");

    let stats = handle.stats();
    assert!(
        stats.shards.iter().filter(|s| s.accounts > 0).count() >= 2,
        "16 accounts must spread over ≥2 of the 4 shards: {:?}",
        stats.shards
    );
    assert_eq!(
        stats.workers.iter().map(|w| w.connections).sum::<u64>(),
        11,
        "10 load connections + 1 verdict connection through the reactor"
    );
    assert!(
        stats.workers.iter().map(|w| w.logins).sum::<u64>() >= 142,
        "8×16 honest + 12 attack + 2 verdict logins served: {:?}",
        stats.workers
    );
    handle.shutdown();
}

/// Discretization invariants hold through the full password layer: a
/// re-entry accepted by the password system is always within the scheme's
/// maximum accepted distance, and anything within the guaranteed tolerance
/// is always accepted.
#[test]
fn password_layer_respects_discretization_contracts() {
    let clicks = graphical_passwords::example_clicks();
    for config in [
        DiscretizationConfig::centered(6),
        DiscretizationConfig::centered(9),
        DiscretizationConfig::robust(6.0),
        DiscretizationConfig::robust(9.0),
    ] {
        let system = GraphicalPasswordSystem::new(PasswordPolicy::study_default(), config, 2);
        let stored = system.enroll("probe", &clicks).unwrap();
        let scheme = config.build();
        for offset in [1.0f64, 3.0, 5.0, 7.0, 11.0, 17.0, 25.0, 33.0, 47.0] {
            let attempt: Vec<Point> = clicks
                .iter()
                .map(|p| ImageDims::STUDY.clamp_point(&p.offset(offset, -offset)))
                .collect();
            let accepted = system.verify(&stored, &attempt).unwrap();
            if offset < scheme.guaranteed_tolerance() {
                assert!(accepted, "{config:?}: offset {offset} must be accepted");
            }
            if offset > scheme.maximum_accepted_distance() {
                assert!(!accepted, "{config:?}: offset {offset} must be rejected");
            }
        }
    }
}
