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
use crate::error::PasswordError;
use crate::policy::PasswordPolicy;
use gp_crypto::{hex, PasswordHash};
use gp_discretization::{DiscretizedClick, GridId};
use gp_geometry::ImageDims;
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

    /// Serialize to a single text line for the password file.
    ///
    /// Format (tab-separated):
    /// `username  scheme-header  clicks  WxH  grid-id-hex;…  hash-record`
    pub fn to_record(&self) -> String {
        let mut line = String::new();
        self.write_record(&mut line);
        line
    }

    /// [`StoredPassword::to_record`] appended to `out`, so a caller
    /// rendering many records (a shard snapshot) reuses one buffer.
    pub fn write_record(&self, out: &mut String) {
        use std::fmt::Write;
        let mut grid_id = Vec::new();
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}x{}\t",
            self.username,
            self.config.to_header(),
            self.policy.clicks,
            self.policy.image.width,
            self.policy.image.height,
        );
        for (i, click) in self.clicks.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            grid_id.clear();
            click.grid_id.write_into(&mut grid_id);
            out.push_str(&hex::encode(&grid_id));
        }
        out.push('\t');
        out.push_str(&self.hash.to_record());
    }

    /// Parse a record produced by [`to_record`](Self::to_record).
    pub fn from_record(line: &str) -> Result<Self, PasswordError> {
        let corrupt = |reason: &str| PasswordError::CorruptRecord {
            reason: reason.to_string(),
        };
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(corrupt(&format!("expected 6 fields, got {}", fields.len())));
        }
        let username = fields[0].to_string();
        if username.is_empty() {
            return Err(corrupt("empty username"));
        }
        let config = DiscretizationConfig::from_header(fields[1])
            .ok_or_else(|| corrupt("unrecognised scheme header"))?;
        let clicks: usize = fields[2].parse().map_err(|_| corrupt("bad click count"))?;
        let (w, h) = fields[3]
            .split_once('x')
            .ok_or_else(|| corrupt("bad image dimensions"))?;
        let width: u32 = w.parse().map_err(|_| corrupt("bad image width"))?;
        let height: u32 = h.parse().map_err(|_| corrupt("bad image height"))?;
        if width == 0 || height == 0 || clicks == 0 {
            return Err(corrupt("zero image dimension or click count"));
        }
        let policy = PasswordPolicy::new(ImageDims::new(width, height), clicks);
        let mut click_records = Vec::with_capacity(clicks);
        for part in fields[4].split(';') {
            let bytes = hex::decode(part).map_err(|_| corrupt("bad grid identifier hex"))?;
            let grid_id =
                GridId::from_bytes(&bytes).map_err(|e| corrupt(&format!("bad grid id: {e}")))?;
            click_records.push(ClickRecord { grid_id });
        }
        if click_records.len() != clicks {
            return Err(corrupt(&format!(
                "click count {} does not match {} stored grid identifiers",
                clicks,
                click_records.len()
            )));
        }
        let hash =
            PasswordHash::from_record(fields[5]).ok_or_else(|| corrupt("bad hash record"))?;
        Ok(Self {
            username,
            config,
            policy,
            clicks: click_records,
            hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_crypto::PasswordHasher;
    use gp_geometry::GridCell;

    fn sample() -> StoredPassword {
        let hasher = PasswordHasher::new("passpoints", 10);
        StoredPassword {
            username: "alice".into(),
            config: DiscretizationConfig::centered(9),
            policy: PasswordPolicy::study_default(),
            clicks: vec![
                ClickRecord {
                    grid_id: GridId::Centered { dx: 7.5, dy: 2.0 },
                },
                ClickRecord {
                    grid_id: GridId::Centered { dx: 0.5, dy: 18.5 },
                },
                ClickRecord {
                    grid_id: GridId::Centered { dx: 1.0, dy: 1.0 },
                },
                ClickRecord {
                    grid_id: GridId::Centered { dx: 2.0, dy: 3.0 },
                },
                ClickRecord {
                    grid_id: GridId::Centered { dx: 4.0, dy: 5.0 },
                },
            ],
            hash: hasher.hash(b"alice", b"pre-image"),
        }
    }

    #[test]
    fn record_round_trip() {
        let stored = sample();
        let line = stored.to_record();
        let parsed = StoredPassword::from_record(&line).expect("parse");
        assert_eq!(parsed, stored);
    }

    #[test]
    fn record_round_trip_robust() {
        let mut stored = sample();
        stored.config = DiscretizationConfig::robust(6.0);
        stored.clicks = (0..5)
            .map(|i| ClickRecord {
                grid_id: GridId::Robust { grid_index: i % 3 },
            })
            .collect();
        let parsed = StoredPassword::from_record(&stored.to_record()).expect("parse");
        assert_eq!(parsed, stored);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(StoredPassword::from_record("").is_err());
        assert!(StoredPassword::from_record("onlyonefield").is_err());
        let stored = sample();
        let line = stored.to_record();
        // Corrupt each field in turn.
        let fields: Vec<&str> = line.split('\t').collect();
        for i in 1..fields.len() {
            let mut bad = fields.clone();
            bad[i] = "zzz";
            assert!(
                StoredPassword::from_record(&bad.join("\t")).is_err(),
                "field {i} should fail to parse"
            );
        }
    }

    #[test]
    fn parse_rejects_click_count_mismatch() {
        let stored = sample();
        let mut line = stored.to_record();
        // Claim 4 clicks while 5 grid ids are present.
        line = line.replacen("\t5\t", "\t4\t", 1);
        assert!(StoredPassword::from_record(&line).is_err());
    }

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
