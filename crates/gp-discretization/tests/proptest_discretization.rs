//! Property-based tests for the central claims of the paper.
//!
//! These encode, as machine-checked invariants, the statements the paper
//! makes about the two schemes:
//!
//! * Centered Discretization accepts exactly the centered-tolerance region
//!   (zero false accepts, zero false rejects).
//! * Robust Discretization always accepts within `r` and never accepts
//!   beyond `5r`; outside the centered-tolerance region it *can* accept
//!   (false accepts) and inside the user-expected `3r` region it *can*
//!   reject (false rejects).
//! * Every point of the plane is r-safe in at least one of the three
//!   Robust grids.

use gp_discretization::prelude::*;
use gp_geometry::Point;
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    0.0..5_000.0f64
}

fn arb_point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn pixel_point() -> impl Strategy<Value = Point> {
    (0u32..2_000, 0u32..2_000).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

proptest! {
    /// Centered: a login is accepted iff it lies within the centered
    /// tolerance (half-open at +r, closed at −r on each axis).
    #[test]
    fn centered_accepts_exactly_centered_tolerance(
        original in arb_point(),
        dx in -60.0..60.0f64,
        dy in -60.0..60.0f64,
        r in 1.0..25.0f64,
    ) {
        let scheme = CenteredDiscretization::new(r).unwrap();
        let login = original.offset(dx, dy);
        let inside = (-r..r).contains(&dx) && (-r..r).contains(&dy);
        prop_assert_eq!(scheme.accepts(&original, &login), inside,
            "r={} dx={} dy={}", r, dx, dy);
    }

    /// Centered, pixel convention: with `from_pixel_tolerance(t)` every
    /// integer offset within ±t pixels is accepted and every offset with a
    /// component beyond t is rejected — perfectly symmetric behaviour.
    #[test]
    fn centered_pixel_tolerance_is_symmetric(
        original in pixel_point(),
        t in 1u32..20,
        dx in -40i64..40,
        dy in -40i64..40,
    ) {
        let scheme = CenteredDiscretization::from_pixel_tolerance(t);
        let login = Point::new(original.x + dx as f64, original.y + dy as f64);
        let inside = dx.unsigned_abs() <= t as u64 && dy.unsigned_abs() <= t as u64;
        prop_assert_eq!(scheme.accepts(&original, &login), inside);
    }

    /// Centered: the enrolled offsets always lie in `[0, 2r)` and the
    /// original point is the exact center of its acceptance region.
    #[test]
    fn centered_offsets_valid_and_region_centered(original in arb_point(), r in 0.5..30.0f64) {
        let scheme = CenteredDiscretization::new(r).unwrap();
        let enrolled = scheme.enroll(&original);
        match enrolled.grid_id {
            GridId::Centered { dx, dy } => {
                prop_assert!((0.0..2.0 * r).contains(&dx));
                prop_assert!((0.0..2.0 * r).contains(&dy));
            }
            other => prop_assert!(false, "unexpected grid id {:?}", other),
        }
        let region = scheme.acceptance_region(&original);
        prop_assert!((region.center().x - original.x).abs() < 1e-6);
        prop_assert!((region.center().y - original.y).abs() < 1e-6);
    }

    /// Robust: every point is r-safe in at least one grid (Birget et al.'s
    /// theorem), so enrollment always selects a grid with safety ≥ r.
    #[test]
    fn robust_every_point_has_a_safe_grid(p in arb_point(), r in 0.5..25.0f64) {
        let scheme = RobustDiscretization::new(r).unwrap();
        let (_, safety) = scheme.select_grid(&p);
        prop_assert!(safety >= r - 1e-6, "selected safety {} < r {}", safety, r);
    }

    /// Robust: guaranteed acceptance within r, guaranteed rejection beyond
    /// 5r (r_max), for both grid-selection policies.
    #[test]
    fn robust_tolerance_bounds(
        original in arb_point(),
        dx in -160.0..160.0f64,
        dy in -160.0..160.0f64,
        r in 1.0..25.0f64,
        most_centered in any::<bool>(),
    ) {
        let policy = if most_centered {
            GridSelectionPolicy::MostCentered
        } else {
            GridSelectionPolicy::FirstSafe
        };
        let scheme = RobustDiscretization::with_policy(r, policy).unwrap();
        let login = original.offset(dx, dy);
        let cheb = original.chebyshev(&login);
        let accepted = scheme.accepts(&original, &login);
        if cheb < r - 1e-9 {
            prop_assert!(accepted, "rejected at distance {} < r = {}", cheb, r);
        }
        if cheb > 5.0 * r + 1e-9 {
            prop_assert!(!accepted, "accepted at distance {} > 5r = {}", cheb, 5.0 * r);
        }
    }

    /// Robust with MostCentered never behaves worse than FirstSafe in the
    /// sense that its acceptance region always contains the centered
    /// tolerance (both do) — and both schemes agree with a direct
    /// region-containment check.
    #[test]
    fn robust_acceptance_equals_region_containment(
        original in arb_point(),
        dx in -160.0..160.0f64,
        dy in -160.0..160.0f64,
        r in 1.0..25.0f64,
    ) {
        let scheme = RobustDiscretization::new(r).unwrap();
        let login = original.offset(dx, dy);
        let region = scheme.acceptance_region(&original);
        prop_assert_eq!(scheme.accepts(&original, &login), region.contains(&login));
    }

    /// Cross-scheme comparison at equal r: anything Centered accepts,
    /// Robust also accepts (Robust's region is a superset), which is why
    /// Robust has false accepts but Centered cannot have false rejects
    /// relative to it.
    #[test]
    fn robust_region_superset_of_centered_at_equal_r(
        original in arb_point(),
        dx in -30.0..30.0f64,
        dy in -30.0..30.0f64,
        r in 1.0..20.0f64,
    ) {
        let centered = CenteredDiscretization::new(r).unwrap();
        let robust = RobustDiscretization::new(r).unwrap();
        let login = original.offset(dx, dy);
        if centered.accepts(&original, &login) {
            prop_assert!(robust.accepts(&original, &login));
        }
    }

    /// Static grid: accepts iff the two points share the anchored square.
    #[test]
    fn static_grid_matches_shared_square(
        original in arb_point(),
        login in arb_point(),
        cell in 2.0..60.0f64,
    ) {
        let scheme = StaticGridDiscretization::new(cell).unwrap();
        let same_square = (original.x / cell).floor() == (login.x / cell).floor()
            && (original.y / cell).floor() == (login.y / cell).floor();
        prop_assert_eq!(scheme.accepts(&original, &login), same_square);
    }

    /// Every scheme's grid identifier encodes as its scheme's tag followed
    /// by exactly `encoded_len` bytes in all.
    #[test]
    fn grid_id_bytes_carry_the_scheme_tag(p in arb_point(), r in 1.0..20.0f64, which in 0u8..3) {
        let enrolled = match which {
            0 => CenteredDiscretization::new(r).unwrap().enroll(&p),
            1 => RobustDiscretization::new(r).unwrap().enroll(&p),
            _ => StaticGridDiscretization::new(r * 2.0).unwrap().enroll(&p),
        };
        let bytes = enrolled.grid_id.to_bytes();
        prop_assert_eq!(bytes.len(), enrolled.grid_id.encoded_len());
        prop_assert_eq!(bytes[0], which + 1);
    }

    /// Password space monotonicity: more clicks or smaller squares never
    /// shrink the space; Centered always beats Robust at equal r.
    #[test]
    fn password_space_monotonicity(
        w in 100u32..2000, h in 100u32..2000,
        grid in 4.0..100.0f64, clicks in 1u32..8, r in 1.0..20.0f64,
    ) {
        use gp_geometry::ImageDims;
        let img = ImageDims::new(w, h);
        let a = PasswordSpace::new(img, grid, clicks).bits();
        let b = PasswordSpace::new(img, grid, clicks + 1).bits();
        prop_assert!(b >= a);
        let small = PasswordSpace::new(img, grid, clicks).bits();
        let large = PasswordSpace::new(img, grid * 2.0, clicks).bits();
        prop_assert!(small >= large);

        let centered_bits = PasswordSpace::new(img, SchemeKind::Centered.grid_size_for_r(r), 5).bits();
        let robust_bits = PasswordSpace::new(img, SchemeKind::Robust.grid_size_for_r(r), 5).bits();
        prop_assert!(centered_bits >= robust_bits);
    }
}
