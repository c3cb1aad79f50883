//! # graphical-passwords
//!
//! A from-scratch Rust reproduction of *Centered Discretization with
//! Application to Graphical Passwords* (Chiasson, Srinivasan, Biddle,
//! van Oorschot — USENIX UPSEC 2008), packaged as a workspace of focused
//! crates and re-exported here for convenience.
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`crypto`] | `gp-crypto` | SHA-256, iterated/salted password hashing |
//! | [`geometry`] | `gp-geometry` | points, rectangles, grids, tolerance squares |
//! | [`discretization`] | `gp-discretization` | Centered, Robust and static-grid discretization; password-space math |
//! | [`passwords`] | `gp-passwords` | PassPoints / Cued Click-Points / Persuasive CCP, hashed storage, account store |
//! | [`study`] | `gp-study` | synthetic field & lab study generator (images, hotspots, user model) |
//! | [`attacks`] | `gp-attacks` | human-seeded dictionaries, offline/online attacks, cost models |
//! | [`analysis`] | `gp-analysis` | experiment harness regenerating the paper's tables and figures |
//! | [`netauth`] | `gp-netauth` | framed TCP authentication server and client |
//!
//! ## Quickstart
//!
//! ```
//! use graphical_passwords::passwords::prelude::*;
//! use graphical_passwords::geometry::{ImageDims, Point};
//!
//! // A PassPoints deployment with Centered Discretization, 9-pixel tolerance.
//! let system = GraphicalPasswordSystem::passpoints(
//!     ImageDims::STUDY,
//!     DiscretizationConfig::centered(9),
//! );
//! let clicks = vec![
//!     Point::new(50.0, 60.0),
//!     Point::new(120.0, 200.0),
//!     Point::new(301.0, 75.0),
//!     Point::new(400.0, 310.0),
//!     Point::new(222.0, 111.0),
//! ];
//! let stored = system.enroll("alice", &clicks).unwrap();
//! assert!(system.verify(&stored, &clicks).unwrap());
//! ```
//!
//! See `examples/` for runnable programs covering the full evaluation
//! (Tables 1–3, Figures 7–8) and the networked deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gp_analysis as analysis;
pub use gp_attacks as attacks;
pub use gp_crypto as crypto;
pub use gp_discretization as discretization;
pub use gp_geometry as geometry;
pub use gp_netauth as netauth;
pub use gp_passwords as passwords;
pub use gp_study as study;

/// The five click-points used in examples and documentation, chosen to be
/// well inside the 451×331 study image and far apart from each other.
pub fn example_clicks() -> Vec<gp_geometry::Point> {
    vec![
        gp_geometry::Point::new(50.0, 60.0),
        gp_geometry::Point::new(120.0, 200.0),
        gp_geometry::Point::new(301.0, 75.0),
        gp_geometry::Point::new(400.0, 310.0),
        gp_geometry::Point::new(222.0, 111.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_clicks_are_valid_for_the_study_policy() {
        let policy = passwords::PasswordPolicy::study_default();
        assert!(policy.validate_enrollment(&example_clicks()).is_ok());
    }

    #[test]
    fn re_exports_are_wired_up() {
        assert_eq!(geometry::ImageDims::STUDY.width, 451);
        assert_eq!(crypto::PasswordHasher::DEFAULT_ITERATIONS, 1000);
        let scheme = discretization::CenteredDiscretization::from_pixel_tolerance(9);
        assert_eq!(
            discretization::DiscretizationScheme::grid_square_size(&scheme),
            19.0
        );
    }
}
