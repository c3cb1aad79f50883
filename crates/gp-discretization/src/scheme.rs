//! The common interface implemented by every discretization scheme.
//!
//! A scheme answers two questions:
//!
//! 1. **Enrollment** — given an original click-point, which grid square does
//!    it map to, and what *clear* grid identifier must be stored alongside
//!    the hash so that future logins can be discretized consistently?
//! 2. **Location** — given that clear identifier and a login click-point,
//!    which grid square does the login map to?  The login is accepted iff
//!    the hashed square identifiers match.
//!
//! Keeping the two halves separate mirrors the deployment model of the
//! paper: the server stores `(grid identifier, H(grid square ‖ …))` and
//! never the original coordinates.

use crate::error::DiscretizationError;
use gp_geometry::{GridCell, Point};
use serde::{Deserialize, Serialize};

/// The clear (unhashed) per-click data stored by a scheme.
///
/// * Centered Discretization stores the two segment offsets `(dx, dy)`,
///   each in `[0, 2r)` — `log2((2r)²)` bits of information (§5.2).
/// * Robust Discretization stores which of its three grids was selected —
///   2 bits of information.
/// * The static grid stores nothing (there is only one grid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GridId {
    /// Centered Discretization offsets for the x and y axes.
    Centered {
        /// Offset of the x-axis segmentation from the origin, `0 ≤ dx < 2r`.
        dx: f64,
        /// Offset of the y-axis segmentation from the origin, `0 ≤ dy < 2r`.
        dy: f64,
    },
    /// Robust Discretization grid index (0, 1 or 2).
    Robust {
        /// Index of the selected grid.
        grid_index: u8,
    },
    /// The static grid needs no per-click information.
    Static,
}

impl GridId {
    /// Canonical byte encoding of the identifier, used when it is mixed
    /// into the password hash (the paper hashes `h(dx, dy, ix, iy, …)`).
    ///
    /// Offsets are encoded as IEEE-754 bit patterns, which is deterministic
    /// because enrollment and every subsequent login recompute the same
    /// double-precision value from the stored identifier.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut v);
        v
    }

    /// Exact length of the [`GridId::to_bytes`] encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            GridId::Centered { .. } => 17,
            GridId::Robust { .. } => 2,
            GridId::Static => 1,
        }
    }

    /// Append the canonical encoding to `out` without allocating — the
    /// building block of the zero-allocation verify/guess pipeline.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        match self {
            GridId::Centered { dx, dy } => {
                out.push(0x01);
                out.extend_from_slice(&dx.to_bits().to_be_bytes());
                out.extend_from_slice(&dy.to_bits().to_be_bytes());
            }
            GridId::Robust { grid_index } => out.extend_from_slice(&[0x02, *grid_index]),
            GridId::Static => out.push(0x03),
        }
    }
}

/// The result of discretizing one original click-point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiscretizedClick {
    /// Clear data stored alongside the hash.
    pub grid_id: GridId,
    /// The grid-square index that will be hashed.
    pub cell: GridCell,
}

impl DiscretizedClick {
    /// Canonical byte encoding of `(grid_id, cell)` for hashing, matching
    /// the paper's `h(dx, dy, ix, iy)` per-click contribution.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut v);
        v
    }

    /// Exact length of the [`DiscretizedClick::to_bytes`] encoding.
    pub fn encoded_len(&self) -> usize {
        self.grid_id.encoded_len() + 16
    }

    /// Append the canonical encoding to `out` without allocating.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        self.grid_id.write_into(out);
        out.extend_from_slice(&self.cell.ix.to_be_bytes());
        out.extend_from_slice(&self.cell.iy.to_be_bytes());
    }
}

/// Interface shared by Centered, Robust and static-grid discretization.
pub trait DiscretizationScheme {
    /// Human-readable scheme name (used in reports and password files).
    fn name(&self) -> &'static str;

    /// The minimum tolerance guaranteed around every original click-point:
    /// any login within this Chebyshev distance is accepted.
    fn guaranteed_tolerance(&self) -> f64;

    /// The maximum distance at which a login can still be accepted
    /// (`r` for Centered, `5r` for Robust in the worst case).
    fn maximum_accepted_distance(&self) -> f64;

    /// Side length of the grid squares the scheme hashes.
    fn grid_square_size(&self) -> f64;

    /// Number of distinct clear grid identifiers the scheme can emit
    /// (3 for Robust, `(2r)²` for Centered, 1 for static).
    fn num_grid_identifiers(&self) -> u64;

    /// Discretize an original click-point at enrollment time.
    fn enroll(&self, original: &Point) -> DiscretizedClick;

    /// Map a login click-point to a grid square using the clear identifier
    /// stored at enrollment.  Fails if the identifier belongs to a different
    /// scheme or is corrupt.
    fn try_locate(&self, grid_id: &GridId, login: &Point) -> Result<GridCell, DiscretizationError>;

    /// Infallible variant of [`try_locate`](Self::try_locate).
    ///
    /// # Panics
    /// Panics if the identifier does not belong to this scheme; use
    /// `try_locate` when handling untrusted password files.
    fn locate(&self, grid_id: &GridId, login: &Point) -> GridCell {
        self.try_locate(grid_id, login)
            .expect("grid identifier does not belong to this discretization scheme")
    }

    /// Whether a login click-point would be accepted for the given original
    /// click-point (enroll + locate + compare).
    fn accepts(&self, original: &Point, login: &Point) -> bool {
        let enrolled = self.enroll(original);
        match self.try_locate(&enrolled.grid_id, login) {
            Ok(cell) => cell == enrolled.cell,
            Err(_) => false,
        }
    }

    /// Bits of clear information revealed by the stored grid identifier
    /// (§5.2: 2 bits for Robust, `log2((2r)²)` for Centered).
    fn identifier_bits(&self) -> f64 {
        (self.num_grid_identifiers() as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_id_encoding_is_a_tag_then_the_identifier() {
        let centered = GridId::Centered { dx: 7.5, dy: 12.25 };
        let mut expected = vec![0x01];
        expected.extend_from_slice(&7.5f64.to_bits().to_be_bytes());
        expected.extend_from_slice(&12.25f64.to_bits().to_be_bytes());
        assert_eq!(centered.to_bytes(), expected);
        for idx in 0..3u8 {
            assert_eq!(
                GridId::Robust { grid_index: idx }.to_bytes(),
                vec![0x02, idx]
            );
        }
        assert_eq!(GridId::Static.to_bytes(), vec![0x03]);
        for id in [centered, GridId::Robust { grid_index: 1 }, GridId::Static] {
            assert_eq!(id.to_bytes().len(), id.encoded_len());
        }
    }

    #[test]
    fn discretized_click_encoding_contains_cell_indices() {
        let click = DiscretizedClick {
            grid_id: GridId::Robust { grid_index: 2 },
            cell: GridCell::new(-3, 42),
        };
        let bytes = click.to_bytes();
        // 2 bytes of grid id + 8 + 8 of cell indices.
        assert_eq!(bytes.len(), 2 + 16);
        let other = DiscretizedClick {
            grid_id: GridId::Robust { grid_index: 2 },
            cell: GridCell::new(-3, 43),
        };
        assert_ne!(bytes, other.to_bytes());
    }
}
