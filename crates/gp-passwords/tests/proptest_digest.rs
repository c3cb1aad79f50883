//! Property tests for the anti-entropy range digests and the record-level
//! repair they drive.
//!
//! Two obligations, mirroring what the replication layer leans on:
//!
//! 1. **Digest soundness** — two stores' [`RangeDigest`]s over the same
//!    range are equal iff the underlying account-record sets are equal.
//!    The digest folds records commutatively, so the property must hold
//!    for any insertion order, any shard count, and any perturbation
//!    (a missing record, an extra record, or the same account with
//!    different record bytes).
//! 2. **Repair convergence** — for *arbitrary* divergent store pairs, one
//!    anti-entropy round (compare digests → exchange sorted entry lists →
//!    [`diff_range_entries`] → copy `push` primary→backup and `pull`
//!    backup→primary via `apply_replicated`) makes the digests equal.

use gp_geometry::Point;
use gp_passwords::wal::WalEntry;
use gp_passwords::{
    diff_range_entries, record_digest, DiscretizationConfig, GraphicalPasswordSystem,
    PasswordPolicy, ShardedPasswordStore, StoredPassword,
};
use proptest::prelude::*;

fn system() -> GraphicalPasswordSystem {
    GraphicalPasswordSystem::new(
        PasswordPolicy::study_default(),
        DiscretizationConfig::centered(6),
        1,
    )
}

fn clicks(seed: u32) -> Vec<Point> {
    (0..5)
        .map(|i| {
            let x = 35.0 + f64::from(seed % 47) + 68.0 * f64::from(i);
            let y = 25.0 + f64::from(seed / 47 % 37) + 52.0 * f64::from(i);
            Point::new(x, y)
        })
        .collect()
}

/// Enroll a record for `name`.  Each call draws a fresh random salt, so
/// two records for the same name have different bytes — which is exactly
/// the "same account, diverged contents" case repair must handle.
fn record(sys: &GraphicalPasswordSystem, name: &str, seed: u32) -> StoredPassword {
    sys.enroll(name, &clicks(seed)).expect("enroll")
}

/// Dedup a generated name pool, preserving first occurrence.
fn distinct(names: &[String]) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    names
        .iter()
        .filter(|n| seen.insert(n.as_str().to_string()))
        .cloned()
        .collect()
}

fn store_of(records: &[StoredPassword], shards: usize) -> ShardedPasswordStore {
    let store = ShardedPasswordStore::new(shards);
    for r in records {
        store
            .apply_replicated(&WalEntry::Update(r.clone()).to_payload())
            .expect("insert");
    }
    store
}

/// How store B's copy of one of A's records diverges.
#[derive(Debug, Clone)]
enum Perturbation {
    /// B holds the identical record set.
    None,
    /// B is missing record `i`.
    Missing(usize),
    /// B holds a different record (fresh salt) for account `i`'s name.
    Diverged(usize),
    /// B holds one extra account A doesn't have.
    Extra,
}

fn arb_perturbation() -> impl Strategy<Value = Perturbation> {
    prop_oneof![
        Just(Perturbation::None),
        (0usize..64).prop_map(Perturbation::Missing),
        (0usize..64).prop_map(Perturbation::Diverged),
        Just(Perturbation::Extra),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Digest equality ⇔ record-set equality, for every perturbation
    /// shape and independent shard counts on the two sides.
    #[test]
    fn digests_equal_iff_account_sets_equal(
        raw_names in proptest::collection::vec("[a-z0-9]{1,10}", 1..10),
        perturbation in arb_perturbation(),
        shards_a in 1usize..6,
        shards_b in 1usize..6,
    ) {
        let sys = system();
        let names: Vec<String> = distinct(&raw_names);
        let records: Vec<StoredPassword> = names
            .iter()
            .enumerate()
            .map(|(i, name)| record(&sys, name, i as u32))
            .collect();
        let store_a = store_of(&records, shards_a);

        let mut b_records = records.clone();
        let expect_equal = match &perturbation {
            Perturbation::None => true,
            Perturbation::Missing(i) => {
                b_records.remove(i % records.len());
                false
            }
            Perturbation::Diverged(i) => {
                let i = i % records.len();
                b_records[i] = record(&sys, &names[i], 999);
                false
            }
            Perturbation::Extra => {
                b_records.push(record(&sys, "zz-extra-account", 1000));
                false
            }
        };
        let store_b = store_of(&b_records, shards_b);

        // The in-place range scans hash exactly what `record_digest` does.
        for (name, hash) in store_a.range_entries(|_| true) {
            prop_assert_eq!(hash, record_digest(&store_a.get(&name).unwrap()));
        }

        let digest_a = store_a.range_digest(|_| true);
        let digest_b = store_b.range_digest(|_| true);
        prop_assert_eq!(
            digest_a == digest_b,
            expect_equal,
            "digests {:?} vs {:?} for {:?}",
            digest_a,
            digest_b,
            perturbation
        );
    }

    /// One anti-entropy round converges arbitrary divergent pairs: after
    /// applying the diff (push primary→backup, pull backup→primary, both
    /// via the idempotent replicated-apply path), digests are equal and
    /// the primary's copy won every conflict.
    #[test]
    fn repair_converges_in_one_round(
        raw_names in proptest::collection::vec("[a-z0-9]{1,10}", 1..12),
        placements in proptest::collection::vec(0u8..4, 12),
        shards_a in 1usize..6,
        shards_b in 1usize..6,
    ) {
        let sys = system();
        let names = distinct(&raw_names);
        let primary = ShardedPasswordStore::new(shards_a);
        let backup = ShardedPasswordStore::new(shards_b);
        for (i, name) in names.iter().enumerate() {
            let r = record(&sys, name, i as u32);
            // 0: both agree, 1: primary-only, 2: backup-only, 3: conflict.
            match placements[i % placements.len()] {
                0 => {
                    primary.apply_replicated(&WalEntry::Update(r.clone()).to_payload()).unwrap();
                    backup.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap();
                }
                1 => primary.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap(),
                2 => backup.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap(),
                _ => {
                    primary.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap();
                    backup.apply_replicated(&WalEntry::Update(record(&sys, name, 500 + i as u32)).to_payload()).unwrap();
                }
            }
        }

        // The anti-entropy round, with the library primitives the
        // replication layer composes: digest check → entry exchange →
        // merge diff → replicated apply in both directions.
        if primary.range_digest(|_| true) != backup.range_digest(|_| true) {
            let diff = diff_range_entries(
                &primary.range_entries(|_| true),
                &backup.range_entries(|_| true),
            );
            for name in &diff.push {
                let r = primary.get(name).expect("push source present");
                backup.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap();
            }
            for name in &diff.pull {
                let r = backup.get(name).expect("pull source present");
                primary.apply_replicated(&WalEntry::Update(r).to_payload()).unwrap();
            }
        }

        prop_assert_eq!(
            primary.range_digest(|_| true),
            backup.range_digest(|_| true),
            "one round must converge"
        );
        // Converged means converged on *records*, not just digests.
        prop_assert_eq!(primary.records(), backup.records());
    }
}
