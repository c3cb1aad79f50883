//! Enrollment and verification: the core graphical password system.

use crate::config::DiscretizationConfig;
use crate::error::PasswordError;
use crate::policy::PasswordPolicy;
use crate::stored::{ClickRecord, StoredPassword};
use gp_crypto::{ct_eq, PasswordHasher, SaltedHasher};
use gp_discretization::{DiscretizationScheme, DiscretizedClick};
use gp_geometry::{ImageDims, Point};

/// Reusable workspace for the allocation-free verify path.
///
/// [`GraphicalPasswordSystem::verify`] needs, per attempt: the discretized
/// login clicks, the encoded hash pre-image, the built discretization
/// scheme and the per-user salted hash state.  A `VerifyScratch` owns all
/// four and caches the last two keyed by configuration/salt, so a loop
/// verifying many attempts against one stored record (a login server under
/// load, or the brute-force attacks in `gp-attacks`) performs **zero heap
/// allocations per guess** after warm-up.
#[derive(Default)]
pub struct VerifyScratch {
    discretized: Vec<DiscretizedClick>,
    pre_image: Vec<u8>,
    scheme: Option<(
        DiscretizationConfig,
        Box<dyn DiscretizationScheme + Send + Sync>,
    )>,
    salted: Option<(Vec<u8>, SaltedHasher)>,
}

impl core::fmt::Debug for VerifyScratch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The pre-image is a candidate password: never print it.
        f.debug_struct("VerifyScratch").finish_non_exhaustive()
    }
}

impl VerifyScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build (or keep) the cached scheme for `config`.
    fn ensure_scheme(&mut self, config: &DiscretizationConfig) {
        let hit = matches!(&self.scheme, Some((cached, _)) if cached == config);
        if !hit {
            self.scheme = Some((*config, config.build()));
        }
    }

    /// Build (or keep) the cached salted hash state for `salt`.
    fn ensure_salted(&mut self, salt: &[u8]) {
        let hit = matches!(&self.salted, Some((cached, _)) if cached == salt);
        if !hit {
            self.salted = Some((salt.to_vec(), SaltedHasher::new(salt)));
        }
    }
}

/// A click-based graphical password system: a password policy, a
/// discretization configuration and a password hasher.
///
/// This is the generic machinery; [`crate::schemes`] wraps it into the
/// concrete schemes the literature names (PassPoints, Cued Click-Points,
/// Persuasive Cued Click-Points).
#[derive(Debug, Clone)]
pub struct GraphicalPasswordSystem {
    policy: PasswordPolicy,
    config: DiscretizationConfig,
    hasher: PasswordHasher,
}

impl GraphicalPasswordSystem {
    /// Domain-separation label mixed into every password hash.
    pub const HASH_DOMAIN: &'static str = "gp-passwords/v2";

    /// Create a system with an explicit policy, discretization configuration
    /// and hash iteration count.
    pub fn new(policy: PasswordPolicy, config: DiscretizationConfig, iterations: u32) -> Self {
        Self {
            policy,
            config,
            hasher: PasswordHasher::new(Self::HASH_DOMAIN, iterations),
        }
    }

    /// A PassPoints-style system: five ordered clicks on a single image,
    /// hashed with the paper's example iteration count (1000).
    pub fn passpoints(image: ImageDims, config: DiscretizationConfig) -> Self {
        Self::new(
            PasswordPolicy::new(image, 5),
            config,
            PasswordHasher::DEFAULT_ITERATIONS,
        )
    }

    /// A system with a single click per password (used by Cued Click-Points,
    /// which hashes one click per image).
    pub fn single_click(image: ImageDims, config: DiscretizationConfig, iterations: u32) -> Self {
        Self::new(PasswordPolicy::new(image, 1), config, iterations)
    }

    /// The password policy.
    pub fn policy(&self) -> &PasswordPolicy {
        &self.policy
    }

    /// The discretization configuration.
    pub fn config(&self) -> &DiscretizationConfig {
        &self.config
    }

    /// The hash iteration count.
    pub fn iterations(&self) -> u32 {
        self.hasher.iterations
    }

    /// The password hasher (domain + iteration policy).  Exposed so attack
    /// simulations can precompute per-target salted state and batch their
    /// guesses through the multi-lane pipeline.
    pub fn hasher(&self) -> &PasswordHasher {
        &self.hasher
    }

    /// Discretize a click sequence at enrollment time.
    fn discretize_enrollment(&self, clicks: &[Point]) -> Vec<DiscretizedClick> {
        let scheme = self.config.build();
        clicks.iter().map(|p| scheme.enroll(p)).collect()
    }

    /// Enroll a new password for `username` from its original click-points.
    pub fn enroll(
        &self,
        username: &str,
        clicks: &[Point],
    ) -> Result<StoredPassword, PasswordError> {
        let (record, pre_image) = self.prepare_enroll(username, clicks)?;
        let salted = SaltedHasher::new(&record.hash.salt);
        let digest = salted.iterated(&pre_image, record.hash.iterations);
        Ok(Self::finish_enroll(record, digest))
    }

    /// Phase 1 of a split enrollment: validate the policy, discretize the
    /// clicks and build the full stored record *except* its digest (left
    /// zeroed), returning the record together with the hash pre-image.
    ///
    /// The serving layer uses this to keep the expensive iterated hash off
    /// its event-loop thread: the pre-image is hashed under
    /// `record.hash.salt` / `record.hash.iterations` wherever convenient
    /// (e.g. batched with concurrent logins) and the digest installed with
    /// [`GraphicalPasswordSystem::finish_enroll`].
    pub fn prepare_enroll(
        &self,
        username: &str,
        clicks: &[Point],
    ) -> Result<(StoredPassword, Vec<u8>), PasswordError> {
        self.policy.validate_enrollment(clicks)?;
        let discretized = self.discretize_enrollment(clicks);
        let pre_image = StoredPassword::encode_clicks(&discretized);
        let record = StoredPassword {
            username: username.to_string(),
            config: self.config,
            policy: self.policy,
            clicks: discretized
                .iter()
                .map(|d| ClickRecord { grid_id: d.grid_id })
                .collect(),
            hash: gp_crypto::PasswordHash {
                salt: self.hasher.salt_for(username.as_bytes()),
                iterations: self.hasher.iterations,
                digest: gp_crypto::Digest::default(),
            },
        };
        Ok((record, pre_image))
    }

    /// Phase 2 of a split enrollment: install the digest computed from the
    /// [`GraphicalPasswordSystem::prepare_enroll`] pre-image.
    ///
    /// The finished record is what a durable deployment logs: the serving
    /// layer passes it to
    /// [`ShardedPasswordStore::insert_new`](crate::shard::ShardedPasswordStore::insert_new),
    /// which appends it to the owning shard's write-ahead log *before*
    /// the enrollment is acknowledged on the wire — so an acked account
    /// survives a crash at any instant.
    pub fn finish_enroll(mut record: StoredPassword, digest: gp_crypto::Digest) -> StoredPassword {
        record.hash.digest = digest;
        record
    }

    /// Recompute the hash pre-image for a login attempt against a stored
    /// record, using only the record's clear data — exactly what a server
    /// that never saw the original coordinates can do.
    pub fn login_pre_image(
        &self,
        stored: &StoredPassword,
        clicks: &[Point],
    ) -> Result<Vec<u8>, PasswordError> {
        if clicks.len() != stored.clicks.len() {
            return Err(PasswordError::WrongClickCount {
                expected: stored.clicks.len(),
                got: clicks.len(),
            });
        }
        let scheme = stored.config.build();
        let mut discretized = Vec::with_capacity(clicks.len());
        for (record, login) in stored.clicks.iter().zip(clicks.iter()) {
            let cell = scheme.try_locate(&record.grid_id, login)?;
            discretized.push(DiscretizedClick {
                grid_id: record.grid_id,
                cell,
            });
        }
        Ok(StoredPassword::encode_clicks(&discretized))
    }

    /// Verify a login attempt against a stored record.
    ///
    /// Returns `Ok(true)` / `Ok(false)` for well-formed attempts and an
    /// error only for structurally invalid input (wrong click count, clicks
    /// outside the image, corrupt record).
    ///
    /// One-shot wrapper over [`GraphicalPasswordSystem::verify_with_scratch`];
    /// callers verifying in a loop should hold a [`VerifyScratch`] and call
    /// that directly to stay allocation-free.
    pub fn verify(&self, stored: &StoredPassword, clicks: &[Point]) -> Result<bool, PasswordError> {
        self.verify_with_scratch(stored, clicks, &mut VerifyScratch::new())
    }

    /// [`GraphicalPasswordSystem::verify`] using caller-owned scratch
    /// space: after the first call for a given record, subsequent attempts
    /// allocate nothing (discretization buffer, pre-image buffer, built
    /// scheme and salted hash state are all reused).
    pub fn verify_with_scratch(
        &self,
        stored: &StoredPassword,
        clicks: &[Point],
        scratch: &mut VerifyScratch,
    ) -> Result<bool, PasswordError> {
        self.discretize_attempt(stored, clicks, scratch)?;
        if !self.provenance_matches(stored) {
            return Ok(false);
        }
        scratch.ensure_salted(&stored.hash.salt);
        let salted = &scratch.salted.as_ref().expect("just ensured").1;
        let candidate = salted.iterated(&scratch.pre_image, stored.hash.iterations);
        Ok(self.finish_verify(stored, &candidate))
    }

    /// Discretize a login attempt into `scratch` and encode the hash
    /// pre-image into `scratch.pre_image` (no hashing, no allocation after
    /// warm-up).
    ///
    /// This runs before any salt/iteration provenance checks so that
    /// structurally corrupt records surface as `Err` exactly as the
    /// original `login_pre_image`-based path reported them, even when the
    /// record also fails provenance.
    fn discretize_attempt(
        &self,
        stored: &StoredPassword,
        clicks: &[Point],
        scratch: &mut VerifyScratch,
    ) -> Result<(), PasswordError> {
        stored.policy.validate_login(clicks)?;
        if clicks.len() != stored.clicks.len() {
            return Err(PasswordError::WrongClickCount {
                expected: stored.clicks.len(),
                got: clicks.len(),
            });
        }
        // Field accesses are kept direct so the cached-scheme borrow and
        // the buffer pushes split cleanly.
        scratch.ensure_scheme(&stored.config);
        scratch.discretized.clear();
        let scheme = scratch.scheme.as_ref().expect("just ensured").1.as_ref();
        for (record, login) in stored.clicks.iter().zip(clicks.iter()) {
            let cell = scheme.try_locate(&record.grid_id, login)?;
            scratch.discretized.push(DiscretizedClick {
                grid_id: record.grid_id,
                cell,
            });
        }
        StoredPassword::encode_clicks_into(&scratch.discretized, &mut scratch.pre_image);
        Ok(())
    }

    /// Whether `stored` was hashed with this system's parameters: same
    /// iteration count and the salt this system's hasher derives for the
    /// user.  A mismatch means the record can never verify under this
    /// system (`Ok(false)` from the verify paths), but is not a structural
    /// error.
    pub fn provenance_matches(&self, stored: &StoredPassword) -> bool {
        stored.hash.iterations == self.hasher.iterations
            && stored.hash.salt == self.hasher.salt_for(stored.username.as_bytes())
    }

    /// Phase 1 of a split verification: validate and discretize the
    /// attempt, returning the owned hash pre-image — or `None` when the
    /// record's salt/iteration provenance cannot match this system (the
    /// attempt is a definite non-match, no hashing needed).
    ///
    /// The serving layer uses this to separate the cheap per-attempt work
    /// (discretization, encoding, provenance) from the expensive iterated
    /// hash, so many concurrent attempts can be coalesced into one
    /// multi-lane hashing call and then settled with
    /// [`GraphicalPasswordSystem::finish_verify`].  Structural errors
    /// (wrong click count, clicks outside the image, corrupt record) are
    /// reported exactly as [`GraphicalPasswordSystem::verify`] reports
    /// them.
    pub fn prepare_verify(
        &self,
        stored: &StoredPassword,
        clicks: &[Point],
        scratch: &mut VerifyScratch,
    ) -> Result<Option<Vec<u8>>, PasswordError> {
        self.discretize_attempt(stored, clicks, scratch)?;
        if !self.provenance_matches(stored) {
            return Ok(None);
        }
        Ok(Some(scratch.pre_image.clone()))
    }

    /// Phase 2 of a split verification: compare a candidate digest (the
    /// iterated hash of a [`GraphicalPasswordSystem::prepare_verify`]
    /// pre-image under the record's salt) against the stored digest in
    /// constant time.
    pub fn finish_verify(&self, stored: &StoredPassword, candidate: &gp_crypto::Digest) -> bool {
        ct_eq(candidate, &stored.hash.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalEntry;
    use gp_discretization::GridId;

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(50.0, 60.0),
            Point::new(120.0, 200.0),
            Point::new(301.0, 75.0),
            Point::new(400.0, 310.0),
            Point::new(222.0, 111.0),
        ]
    }

    fn system_centered() -> GraphicalPasswordSystem {
        // Small iteration count keeps tests fast; the hashing math is the
        // same as with 1000 iterations.
        GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(9),
            5,
        )
    }

    #[test]
    fn enroll_then_exact_login_succeeds() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        assert!(system.verify(&stored, &clicks()).unwrap());
    }

    #[test]
    fn login_within_tolerance_succeeds() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let wobbly: Vec<Point> = clicks().iter().map(|p| p.offset(9.0, -9.0)).collect();
        assert!(system.verify(&stored, &wobbly).unwrap());
    }

    #[test]
    fn login_outside_tolerance_fails() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let off: Vec<Point> = clicks().iter().map(|p| p.offset(10.0, 0.0)).collect();
        assert!(!system.verify(&stored, &off).unwrap());
    }

    #[test]
    fn single_wrong_click_fails_whole_password() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut attempt = clicks();
        attempt[4] = Point::new(10.0, 10.0);
        assert!(!system.verify(&stored, &attempt).unwrap());
    }

    #[test]
    fn click_order_matters() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut swapped = clicks();
        swapped.swap(0, 1);
        assert!(!system.verify(&stored, &swapped).unwrap());
    }

    #[test]
    fn robust_configuration_round_trips() {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::robust(6.0),
            5,
        );
        let stored = system.enroll("bob", &clicks()).unwrap();
        assert!(system.verify(&stored, &clicks()).unwrap());
        // All stored identifiers are robust grid indices.
        for c in &stored.clicks {
            assert!(matches!(c.grid_id, GridId::Robust { .. }));
        }
        // Within the guaranteed tolerance r = 6.
        let wobbly: Vec<Point> = clicks().iter().map(|p| p.offset(5.0, 5.0)).collect();
        assert!(system.verify(&stored, &wobbly).unwrap());
    }

    #[test]
    fn different_users_get_different_hashes_for_same_clicks() {
        let system = system_centered();
        let a = system.enroll("alice", &clicks()).unwrap();
        let b = system.enroll("bob", &clicks()).unwrap();
        assert_ne!(
            a.hash.digest, b.hash.digest,
            "user salt must differentiate hashes"
        );
    }

    #[test]
    fn verify_requires_correct_click_count() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut four = clicks();
        four.pop();
        assert!(matches!(
            system.verify(&stored, &four),
            Err(PasswordError::WrongClickCount {
                expected: 5,
                got: 4
            })
        ));
    }

    #[test]
    fn verify_rejects_clicks_outside_image() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut attempt = clicks();
        attempt[0] = Point::new(9999.0, 2.0);
        assert!(matches!(
            system.verify(&stored, &attempt),
            Err(PasswordError::ClickOutsideImage { index: 0 })
        ));
    }

    #[test]
    fn stored_record_survives_serialization_and_still_verifies() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let payload = WalEntry::Update(stored.clone()).to_payload();
        let parsed = match WalEntry::from_payload(&payload).unwrap() {
            WalEntry::Update(parsed) => parsed,
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(parsed, stored);
        assert!(system.verify(&parsed, &clicks()).unwrap());
        let off: Vec<Point> = clicks().iter().map(|p| p.offset(15.0, 0.0)).collect();
        assert!(!system.verify(&parsed, &off).unwrap());
    }

    #[test]
    fn scratch_verify_matches_plain_verify() {
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut scratch = VerifyScratch::new();
        let attempts: Vec<Vec<Point>> = vec![
            clicks(),
            clicks().iter().map(|p| p.offset(5.0, -5.0)).collect(),
            clicks().iter().map(|p| p.offset(30.0, 0.0)).collect(),
            clicks().iter().map(|p| p.offset(-2.0, 8.0)).collect(),
        ];
        for attempt in &attempts {
            assert_eq!(
                system
                    .verify_with_scratch(&stored, attempt, &mut scratch)
                    .unwrap(),
                system.verify(&stored, attempt).unwrap(),
            );
        }
    }

    #[test]
    fn scratch_survives_switching_records_and_configs() {
        // Cache keys (config, salt) must invalidate correctly when the same
        // scratch is reused across different users and schemes.
        let centered = system_centered();
        let robust = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::robust(6.0),
            5,
        );
        let a = centered.enroll("alice", &clicks()).unwrap();
        let b = centered.enroll("bob", &clicks()).unwrap();
        let c = robust.enroll("carol", &clicks()).unwrap();
        let mut scratch = VerifyScratch::new();
        for _ in 0..3 {
            assert!(centered
                .verify_with_scratch(&a, &clicks(), &mut scratch)
                .unwrap());
            assert!(centered
                .verify_with_scratch(&b, &clicks(), &mut scratch)
                .unwrap());
            assert!(robust
                .verify_with_scratch(&c, &clicks(), &mut scratch)
                .unwrap());
            // Cross-record attempts still fail.
            let off: Vec<Point> = clicks().iter().map(|p| p.offset(20.0, -20.0)).collect();
            assert!(!centered
                .verify_with_scratch(&a, &off, &mut scratch)
                .unwrap());
        }
    }

    #[test]
    fn scratch_verify_rejects_foreign_salt_and_iterations() {
        let system = system_centered();
        let other_iterations = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(9),
            7,
        );
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut scratch = VerifyScratch::new();
        // Wrong iteration count: structurally valid, must simply not verify.
        assert!(!other_iterations
            .verify_with_scratch(&stored, &clicks(), &mut scratch)
            .unwrap());
        // Tampered salt (as if the record were grafted onto another user).
        let mut grafted = stored.clone();
        grafted.username = "mallory".into();
        assert!(!system
            .verify_with_scratch(&grafted, &clicks(), &mut scratch)
            .unwrap());
    }

    #[test]
    fn split_phase_verify_agrees_with_one_shot_verify() {
        use gp_crypto::SaltedHasher;
        let system = system_centered();
        let stored = system.enroll("alice", &clicks()).unwrap();
        let mut scratch = VerifyScratch::new();
        let attempts: Vec<Vec<Point>> = vec![
            clicks(),
            clicks().iter().map(|p| p.offset(5.0, -5.0)).collect(),
            clicks().iter().map(|p| p.offset(30.0, 0.0)).collect(),
        ];
        for attempt in &attempts {
            let pre_image = system
                .prepare_verify(&stored, attempt, &mut scratch)
                .unwrap()
                .expect("provenance matches");
            let candidate =
                SaltedHasher::new(&stored.hash.salt).iterated(&pre_image, stored.hash.iterations);
            assert_eq!(
                system.finish_verify(&stored, &candidate),
                system.verify(&stored, attempt).unwrap(),
            );
        }
        // Foreign iteration count: prepare reports a definite non-match.
        let other = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::centered(9),
            7,
        );
        assert!(other
            .prepare_verify(&stored, &clicks(), &mut scratch)
            .unwrap()
            .is_none());
        // Structural errors still surface as errors.
        assert!(system
            .prepare_verify(&stored, &clicks()[..3], &mut scratch)
            .is_err());
    }

    #[test]
    fn split_phase_enroll_agrees_with_one_shot_enroll() {
        use gp_crypto::SaltedHasher;
        let system = system_centered();
        let one_shot = system.enroll("alice", &clicks()).unwrap();
        let (record, pre_image) = system.prepare_enroll("alice", &clicks()).unwrap();
        assert_eq!(record.hash.salt, one_shot.hash.salt);
        assert_eq!(record.hash.iterations, one_shot.hash.iterations);
        let digest =
            SaltedHasher::new(&record.hash.salt).iterated(&pre_image, record.hash.iterations);
        let finished = GraphicalPasswordSystem::finish_enroll(record, digest);
        assert_eq!(
            finished, one_shot,
            "split-phase enrollment is bit-identical"
        );
        assert!(system.verify(&finished, &clicks()).unwrap());
        // Policy violations surface at prepare time.
        assert!(system.prepare_enroll("bob", &clicks()[..2]).is_err());
    }

    #[test]
    fn enrollment_validates_policy() {
        let system = system_centered();
        assert!(matches!(
            system.enroll("alice", &clicks()[..3]),
            Err(PasswordError::WrongClickCount { .. })
        ));
    }

    #[test]
    fn static_grid_configuration_also_works_end_to_end() {
        let system = GraphicalPasswordSystem::new(
            PasswordPolicy::study_default(),
            DiscretizationConfig::static_grid(19.0),
            3,
        );
        let stored = system.enroll("carol", &clicks()).unwrap();
        assert!(system.verify(&stored, &clicks()).unwrap());
    }
}
