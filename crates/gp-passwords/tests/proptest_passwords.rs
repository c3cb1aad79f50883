//! Property-based tests for enrollment / verification invariants.

use gp_geometry::Point;
use gp_passwords::prelude::*;
use gp_passwords::WalEntry;
use proptest::prelude::*;

/// Five clicks strictly inside the study image with a margin so that small
/// perturbations stay inside too.
fn arb_clicks() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((30.0..420.0f64, 30.0..300.0f64), 5)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn arb_config() -> impl Strategy<Value = DiscretizationConfig> {
    prop_oneof![
        (1u32..15).prop_map(DiscretizationConfig::centered),
        (1.0..15.0f64).prop_map(DiscretizationConfig::robust),
        (3.0..40.0f64).prop_map(DiscretizationConfig::static_grid),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact original clicks always verify, for every scheme and
    /// tolerance.
    #[test]
    fn exact_reentry_always_verifies(clicks in arb_clicks(), config in arb_config()) {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            config,
            2,
        );
        let stored = system.enroll("prop-user", &clicks).unwrap();
        prop_assert!(system.verify(&stored, &clicks).unwrap());
    }

    /// Any re-entry within the guaranteed tolerance verifies (for Centered
    /// and Robust; the static grid guarantees nothing).
    #[test]
    fn within_guaranteed_tolerance_verifies(
        clicks in arb_clicks(),
        centered in any::<bool>(),
        tol in 1u32..12,
        frac in 0.0..0.99f64,
        angle_seed in 0u8..4,
    ) {
        let config = if centered {
            DiscretizationConfig::centered(tol)
        } else {
            DiscretizationConfig::robust(tol as f64)
        };
        let system = GraphicalPasswordSystem::new(PasswordPolicy::study_default(), config, 2);
        let stored = system.enroll("prop-user", &clicks).unwrap();
        let r = config.guaranteed_tolerance();
        let delta = r * frac;
        let (dx, dy) = match angle_seed {
            0 => (delta, 0.0),
            1 => (-delta, delta),
            2 => (0.0, -delta),
            _ => (-delta, -delta),
        };
        let attempt: Vec<Point> = clicks.iter().map(|p| p.offset(dx, dy)).collect();
        prop_assert!(system.verify(&stored, &attempt).unwrap(),
            "re-entry {delta:.2}px off rejected with guaranteed tolerance {r}");
    }

    /// A re-entry beyond the scheme's maximum accepted distance on some
    /// click never verifies.
    #[test]
    fn beyond_maximum_distance_never_verifies(
        clicks in arb_clicks(),
        config in arb_config(),
        which in 0usize..5,
    ) {
        let system = GraphicalPasswordSystem::new(PasswordPolicy::study_default(), config, 2);
        let stored = system.enroll("prop-user", &clicks).unwrap();
        let max = config.build().maximum_accepted_distance();
        let mut attempt = clicks.clone();
        // Push one click beyond the maximum accepted distance, wrapping to
        // stay inside the image.
        let shift = max + 2.0;
        let p = attempt[which];
        let new_x = if p.x + shift < 450.0 { p.x + shift } else { p.x - shift };
        attempt[which] = Point::new(new_x.clamp(0.0, 450.0), p.y);
        prop_assert!(!system.verify(&stored, &attempt).unwrap());
    }

    /// Stored records survive the record payload round trip and still
    /// verify / reject identically.
    #[test]
    fn record_serialization_preserves_behaviour(clicks in arb_clicks(), config in arb_config()) {
        let system = GraphicalPasswordSystem::new(PasswordPolicy::study_default(), config, 2);
        let stored = system.enroll("prop-user", &clicks).unwrap();
        let payload = WalEntry::Enroll(stored.clone()).to_payload();
        let reloaded = match WalEntry::from_payload(&payload).unwrap() {
            WalEntry::Enroll(reloaded) => reloaded,
            other => panic!("decoded {other:?}"),
        };
        prop_assert_eq!(&reloaded, &stored);
        prop_assert!(system.verify(&reloaded, &clicks).unwrap());
    }

    /// Click order matters: a permuted (non-identical) click sequence never
    /// verifies when the clicks are far enough apart to land in different
    /// grid squares.
    #[test]
    fn permuted_clicks_rejected(config in arb_config()) {
        // Fixed, well-separated clicks (more than 2 * max grid square apart).
        let clicks = vec![
            Point::new(40.0, 40.0),
            Point::new(200.0, 60.0),
            Point::new(350.0, 120.0),
            Point::new(120.0, 250.0),
            Point::new(400.0, 300.0),
        ];
        let system = GraphicalPasswordSystem::new(PasswordPolicy::study_default(), config, 2);
        let stored = system.enroll("prop-user", &clicks).unwrap();
        let mut swapped = clicks.clone();
        swapped.swap(0, 4);
        prop_assert!(!system.verify(&stored, &swapped).unwrap());
    }

    /// The password store accepts each enrolled user and rejects logins
    /// against the wrong account's clicks.
    #[test]
    fn store_isolates_accounts(clicks_a in arb_clicks(), clicks_b in arb_clicks()) {
        // Ensure the two passwords differ meaningfully in at least one click.
        prop_assume!(clicks_a.iter().zip(&clicks_b).any(|(a, b)| a.chebyshev(b) > 50.0));
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(9),
            2,
        );
        let store = ShardedPasswordStore::new(1);
        store.enroll(&system, "alice", &clicks_a).unwrap();
        store.enroll(&system, "bob", &clicks_b).unwrap();
        prop_assert!(store.verify(&system, "alice", &clicks_a).unwrap());
        prop_assert!(store.verify(&system, "bob", &clicks_b).unwrap());
        prop_assert!(!store.verify(&system, "alice", &clicks_b).unwrap());
    }
}
