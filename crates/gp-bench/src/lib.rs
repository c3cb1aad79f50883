//! Shared fixtures for the Criterion benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper (plus
//! micro-benchmarks and ablations).  The datasets used by the heavier
//! benches are generated once per process and cached here; the *bench-scale*
//! dataset keeps per-iteration work bounded while preserving the structure
//! (two images, hotspot-biased passwords, imperfect re-entries) of the
//! paper-scale dataset, which the examples can regenerate in full.

use gp_study::{Dataset, FieldStudyConfig, LabStudyConfig};
use std::sync::OnceLock;

/// Field-study dataset used by the bench harness (reduced scale: same
/// structure as the 481-password study at ~10% volume).
pub fn bench_field_dataset() -> &'static Dataset {
    static FIELD: OnceLock<Dataset> = OnceLock::new();
    FIELD.get_or_init(|| FieldStudyConfig::test_scale().generate())
}

/// Paper-scale lab study (30 passwords per image) — the dictionary source.
pub fn bench_lab_dataset() -> &'static Dataset {
    static LAB: OnceLock<Dataset> = OnceLock::new();
    LAB.get_or_init(|| LabStudyConfig::paper_scale().generate())
}

/// The five example click-points shared with the documentation examples.
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
    fn fixtures_are_cached_and_well_formed() {
        let a = bench_field_dataset();
        let b = bench_field_dataset();
        assert!(std::ptr::eq(a, b));
        assert!(a.password_count() > 0);
        assert!(a.login_count() > 0);
        assert_eq!(bench_lab_dataset().password_count(), 60);
        assert_eq!(example_clicks().len(), 5);
    }
}
