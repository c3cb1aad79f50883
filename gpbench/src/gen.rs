//! Seeded workload inputs: accounts, near-miss logins and wrong guesses.
//!
//! Only this module sees the `--seed`; the server receives nothing but the
//! generated click sequences.  Every attempt carries the outcome it must
//! produce, and [`Generator::check`] holds the generator to the
//! discretization scheme's own `accepts` oracle.

use gp_discretization::DiscretizationScheme;
use gp_geometry::{ImageDims, Point};
use gp_passwords::DiscretizationConfig;

/// Centered Discretization tolerance of the served deployment
/// (`ServerConfig::study_default`).
pub const TOLERANCE: u32 = 9;
/// Clicks per password in the served deployment.
pub const CLICKS: usize = 5;
/// Distance an enrolled click keeps from the image border: room for a
/// `2r` wrong-guess move towards the centre plus a near-miss offset.
const MARGIN: f64 = 3.0 * TOLERANCE as f64;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one consumer (a load thread, a phase).
    pub fn fork(&self, stream: u64) -> Self {
        let mut forked = Self(self.0 ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        forked.next_u64();
        forked
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// What the server must answer to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A near-miss login: `Accepted` with 0 failures.
    Accept,
    /// A wrong guess on an account with no pending failures: `Rejected`
    /// with 1 failure.
    RejectFirst,
    /// A fresh enrollment: `EnrollOk`.
    EnrollOk,
}

/// One account's enrolled click sequence.
#[derive(Debug, Clone)]
pub struct Account {
    pub name: String,
    pub clicks: Vec<Point>,
}

/// Input generator for one deployment shape (image, scheme, tolerance).
pub struct Generator {
    image: ImageDims,
    scheme: Box<dyn DiscretizationScheme + Send + Sync>,
}

impl Default for Generator {
    fn default() -> Self {
        Self {
            image: ImageDims::STUDY,
            scheme: DiscretizationConfig::centered(TOLERANCE).build(),
        }
    }
}

impl Generator {
    /// A fresh account: `CLICKS` clicks uniformly inside the margin.
    pub fn account(&self, rng: &mut Rng, name: String) -> Account {
        let (w, h) = (f64::from(self.image.width), f64::from(self.image.height));
        let clicks = (0..CLICKS)
            .map(|_| Point::new(rng.range(MARGIN, w - MARGIN), rng.range(MARGIN, h - MARGIN)))
            .collect();
        Account { name, clicks }
    }

    /// A correct login: every click offset by at most `r - 1` px per axis.
    pub fn near_miss(&self, rng: &mut Rng, account: &Account) -> Vec<Point> {
        let max = f64::from(TOLERANCE - 1);
        account
            .clicks
            .iter()
            .map(|c| Point::new(c.x + rng.range(-max, max), c.y + rng.range(-max, max)))
            .collect()
    }

    /// A wrong guess: one click moved `2r` px towards the image centre.
    pub fn wrong_guess(&self, rng: &mut Rng, account: &Account) -> Vec<Point> {
        let mut clicks = account.clicks.clone();
        let moved = &mut clicks[rng.below(CLICKS)];
        let shift = 2.0 * f64::from(TOLERANCE);
        let centre_x = f64::from(self.image.width) / 2.0;
        moved.x += if moved.x < centre_x { shift } else { -shift };
        clicks
    }

    /// Whether `attempt` gets the outcome `expect` claims, by the scheme's
    /// own per-click `accepts` oracle.
    pub fn check(&self, account: &Account, attempt: &[Point], expect: Expect) -> bool {
        let all_accepted = attempt.len() == account.clicks.len()
            && account
                .clicks
                .iter()
                .zip(attempt)
                .all(|(original, login)| self.scheme.accepts(original, login));
        match expect {
            Expect::Accept => all_accepted,
            Expect::RejectFirst => !all_accepted,
            Expect::EnrollOk => true,
        }
    }

    /// The scheme the oracle consults (probes time its `try_locate`).
    pub fn scheme(&self) -> &(dyn DiscretizationScheme + Send + Sync) {
        self.scheme.as_ref()
    }
}

/// Name of seed account `i` (short: a one-block salt, like most logins).
pub fn seed_name(i: usize) -> String {
    format!("u{i:04}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let gen = Generator::default();
        let a = gen.account(&mut Rng::new(7), seed_name(1));
        let b = gen.account(&mut Rng::new(7), seed_name(1));
        assert_eq!(a.clicks, b.clicks);
        let c = gen.account(&mut Rng::new(8), seed_name(1));
        assert_ne!(a.clicks, c.clicks);
    }

    /// The click generator agrees with the scheme oracle: near misses are
    /// accepted, wrong guesses rejected, for many seeded accounts.
    #[test]
    fn generator_agrees_with_scheme_oracle() {
        let gen = Generator::default();
        let mut rng = Rng::new(42);
        for i in 0..2_000 {
            let account = gen.account(&mut rng, seed_name(i));
            let near = gen.near_miss(&mut rng, &account);
            assert!(
                gen.check(&account, &near, Expect::Accept),
                "{account:?} {near:?}"
            );
            let wrong = gen.wrong_guess(&mut rng, &account);
            assert!(
                gen.check(&account, &wrong, Expect::RejectFirst),
                "{account:?} {wrong:?}"
            );
            for p in near.iter().chain(&wrong) {
                assert!(p.x >= 0.0 && p.y >= 0.0, "click left the image: {p:?}");
                assert!(p.x < 451.0 && p.y < 331.0, "click left the image: {p:?}");
            }
        }
    }

    /// The oracle check is not vacuous: a near miss labelled as a wrong
    /// guess (and vice versa) fails it.
    #[test]
    fn oracle_check_detects_mislabelled_attempts() {
        let gen = Generator::default();
        let mut rng = Rng::new(3);
        let account = gen.account(&mut rng, seed_name(0));
        let near = gen.near_miss(&mut rng, &account);
        let wrong = gen.wrong_guess(&mut rng, &account);
        assert!(!gen.check(&account, &near, Expect::RejectFirst));
        assert!(!gen.check(&account, &wrong, Expect::Accept));
    }
}
