//! Discretization configuration shared by all graphical password schemes.

use gp_discretization::{
    CenteredDiscretization, DiscretizationScheme, GridSelectionPolicy, RobustDiscretization,
    StaticGridDiscretization,
};
use serde::{Deserialize, Serialize};

/// Which discretization scheme a password system uses and with what
/// parameters.  This is the deployment-time choice the paper argues about:
/// Centered Discretization at a given pixel tolerance versus Robust
/// Discretization at either the same tolerance or the same grid size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiscretizationConfig {
    /// Centered Discretization guaranteeing a whole-pixel tolerance.
    Centered {
        /// Guaranteed tolerance in whole pixels (the scheme uses `r = t + 0.5`).
        tolerance_px: u32,
    },
    /// Robust Discretization with minimum tolerance `r` (pixels).
    Robust {
        /// Minimum guaranteed tolerance in pixels.
        r: f64,
        /// Grid-selection policy used at enrollment.
        policy: GridSelectionPolicy,
    },
    /// A single static grid of the given square size (baseline only).
    Static {
        /// Side length of the grid squares in pixels.
        square_size: f64,
    },
}

impl DiscretizationConfig {
    /// Centered Discretization with a whole-pixel tolerance.
    pub fn centered(tolerance_px: u32) -> Self {
        DiscretizationConfig::Centered { tolerance_px }
    }

    /// Robust Discretization with the paper's "optimal" (most-centered)
    /// grid-selection policy.
    pub fn robust(r: f64) -> Self {
        DiscretizationConfig::Robust {
            r,
            policy: GridSelectionPolicy::MostCentered,
        }
    }

    /// A static grid baseline.
    pub fn static_grid(square_size: f64) -> Self {
        DiscretizationConfig::Static { square_size }
    }

    /// Short name used in stored records ("centered", "robust", "static-grid").
    pub fn scheme_name(&self) -> &'static str {
        match self {
            DiscretizationConfig::Centered { .. } => "centered",
            DiscretizationConfig::Robust { .. } => "robust",
            DiscretizationConfig::Static { .. } => "static-grid",
        }
    }

    /// Build the concrete discretization scheme.
    pub fn build(&self) -> Box<dyn DiscretizationScheme + Send + Sync> {
        match *self {
            DiscretizationConfig::Centered { tolerance_px } => {
                Box::new(CenteredDiscretization::from_pixel_tolerance(tolerance_px))
            }
            DiscretizationConfig::Robust { r, policy } => Box::new(
                RobustDiscretization::with_policy(r, policy)
                    .expect("robust tolerance must be positive"),
            ),
            DiscretizationConfig::Static { square_size } => Box::new(
                StaticGridDiscretization::new(square_size)
                    .expect("static grid square size must be positive"),
            ),
        }
    }

    /// The guaranteed tolerance of the configured scheme, in pixels.
    pub fn guaranteed_tolerance(&self) -> f64 {
        self.build().guaranteed_tolerance()
    }

    /// The grid-square size of the configured scheme, in pixels.
    pub fn grid_square_size(&self) -> f64 {
        self.build().grid_square_size()
    }

    /// A compact human-readable label, e.g. `centered:9`,
    /// `robust:6:most-centered`, `static:13` — the scheme field the
    /// serving layer's login challenge carries.
    pub fn to_header(&self) -> String {
        match self {
            DiscretizationConfig::Centered { tolerance_px } => format!("centered:{tolerance_px}"),
            DiscretizationConfig::Robust { r, policy } => {
                let p = match policy {
                    GridSelectionPolicy::FirstSafe => "first-safe",
                    GridSelectionPolicy::MostCentered => "most-centered",
                };
                format!("robust:{r}:{p}")
            }
            DiscretizationConfig::Static { square_size } => format!("static:{square_size}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_names() {
        assert_eq!(DiscretizationConfig::centered(9).scheme_name(), "centered");
        assert_eq!(DiscretizationConfig::robust(6.0).scheme_name(), "robust");
        assert_eq!(
            DiscretizationConfig::static_grid(13.0).scheme_name(),
            "static-grid"
        );
    }

    #[test]
    fn built_schemes_have_expected_parameters() {
        let c = DiscretizationConfig::centered(9);
        assert_eq!(c.guaranteed_tolerance(), 9.5);
        assert_eq!(c.grid_square_size(), 19.0);
        let r = DiscretizationConfig::robust(6.0);
        assert_eq!(r.guaranteed_tolerance(), 6.0);
        assert_eq!(r.grid_square_size(), 36.0);
        let s = DiscretizationConfig::static_grid(13.0);
        assert_eq!(s.grid_square_size(), 13.0);
    }
}
