//! The stored form of a graphical password: clear grid identifiers plus one
//! salted, iterated hash.
//!
//! Mirroring §2.2 and §3.2 of the paper, the password file keeps, per
//! account:
//!
//! * the per-click *clear* grid identifiers (Robust: grid index; Centered:
//!   the `(dx, dy)` offsets) — needed to discretize future login attempts
//!   consistently;
//! * a single hash over the concatenation of every click's identifier and
//!   grid-square index, salted with the user identifier and iterated —
//!   matching `h(dx₁, dy₁, ix₁, iy₁, …, dx₅, dy₅, ix₅, iy₅)`;
//! * the configuration needed to interpret the above (scheme, tolerance,
//!   image, click count).

use crate::config::DiscretizationConfig;
use crate::policy::PasswordPolicy;
use gp_crypto::PasswordHash;
use gp_discretization::{DiscretizedClick, GridId};
use serde::{Deserialize, Serialize};

/// The clear per-click data stored in the password file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClickRecord {
    /// The clear grid identifier for this click.
    pub grid_id: GridId,
}

/// A complete stored graphical password record for one account.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPassword {
    /// Account name (also used as the hash salt, per §3.2).
    pub username: String,
    /// Discretization configuration the password was enrolled under.
    pub config: DiscretizationConfig,
    /// Click-count / image policy the password was enrolled under.
    pub policy: PasswordPolicy,
    /// Clear grid identifiers, one per click, in click order.
    pub clicks: Vec<ClickRecord>,
    /// Salted, iterated hash over all discretized clicks.
    pub hash: PasswordHash,
}

impl StoredPassword {
    /// Canonical byte encoding of a full sequence of discretized clicks —
    /// the pre-image of the stored hash.
    ///
    /// The length prefix and per-click framing make the encoding injective:
    /// two different click sequences can never serialize to the same bytes.
    pub fn encode_clicks(discretized: &[DiscretizedClick]) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 + discretized
                .iter()
                .map(|c| 4 + c.encoded_len())
                .sum::<usize>(),
        );
        Self::encode_clicks_into(discretized, &mut out);
        out
    }

    /// [`StoredPassword::encode_clicks`] into a caller-provided buffer.
    ///
    /// Clears and refills `out`, so a guess loop that reuses one buffer
    /// performs no allocation after the first call — the per-guess wire
    /// encoding used by the batched offline attacks and the scratch-based
    /// verify path.
    pub fn encode_clicks_into(discretized: &[DiscretizedClick], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&(discretized.len() as u32).to_be_bytes());
        for click in discretized {
            out.extend_from_slice(&(click.encoded_len() as u32).to_be_bytes());
            click.write_into(out);
        }
    }

    /// Number of click-points in the stored password.
    pub fn click_count(&self) -> usize {
        self.clicks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_geometry::GridCell;

    #[test]
    fn encode_clicks_is_injective_in_count_and_content() {
        let a = DiscretizedClick {
            grid_id: GridId::Robust { grid_index: 0 },
            cell: GridCell::new(1, 2),
        };
        let b = DiscretizedClick {
            grid_id: GridId::Robust { grid_index: 1 },
            cell: GridCell::new(1, 2),
        };
        assert_ne!(
            StoredPassword::encode_clicks(&[a, b]),
            StoredPassword::encode_clicks(&[b, a])
        );
        assert_ne!(
            StoredPassword::encode_clicks(&[a]),
            StoredPassword::encode_clicks(&[a, a])
        );
        assert_ne!(
            StoredPassword::encode_clicks(&[]),
            StoredPassword::encode_clicks(&[a])
        );
    }
}
