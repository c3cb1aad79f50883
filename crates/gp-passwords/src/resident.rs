//! The resident form of an account: one packed allocation per record.
//!
//! [`crate::shard::ShardedPasswordStore`] keeps every account in memory.
//! A [`StoredPassword`] spreads one record over four heap allocations (the
//! username, the click list, the salt and the struct around them), each
//! with its own allocator overhead.  [`PackedAccount`] serializes the
//! whole record into one boxed byte slice and decodes it again on read,
//! so a resident account costs its bytes plus one allocation header.  The
//! packed form is in-memory only: snapshots, WAL records and the wire keep
//! the [`StoredPassword::to_record`] line format.
//!
//! # Layout
//!
//! ```text
//! packed  := name config policy clicks iterations salt digest
//! name    := len:varint  utf8-bytes                (first, so ordering reads only it)
//! config  := 0 tolerance_px:varint
//!          | 1 r:f64  (0 first-safe | 1 most-centered)
//!          | 2 square_size:f64
//! policy  := width:varint height:varint clicks:varint (0 | 1 min_separation:f64)
//! clicks  := count:varint  GridId::write_into bytes*  (each self-delimiting)
//! salt    := len:varint bytes
//! digest  := 32 bytes
//! ```
//!
//! Varints are LEB128; `f64`s are their little-endian bit patterns, so
//! every value, including a non-integer Robust `r`, round-trips exactly.
//! Decoding is total over what [`PackedAccount::pack`] writes: every tag
//! byte has a catch-all arm instead of a panic.

use crate::config::DiscretizationConfig;
use crate::policy::PasswordPolicy;
use crate::stored::{ClickRecord, StoredPassword};
use gp_crypto::{Digest, PasswordHash, DIGEST_LEN};
use gp_discretization::{GridId, GridSelectionPolicy};
use gp_geometry::ImageDims;
use std::borrow::Borrow;
use std::cmp::Ordering;

/// One account record packed into a single allocation, ordered by (and
/// borrowable as) its username, so a `BTreeSet<PackedAccount>` is the
/// name-keyed account map.
pub(crate) struct PackedAccount(Box<[u8]>);

impl PackedAccount {
    /// Serialize `record` into its packed form.
    pub(crate) fn pack(record: &StoredPassword) -> Self {
        let mut out = Vec::with_capacity(
            64 + record.username.len()
                + record.hash.salt.len()
                + record
                    .clicks
                    .iter()
                    .map(|c| c.grid_id.encoded_len())
                    .sum::<usize>(),
        );
        put_bytes(&mut out, record.username.as_bytes());
        match record.config {
            DiscretizationConfig::Centered { tolerance_px } => {
                out.push(0);
                put_varint(&mut out, u64::from(tolerance_px));
            }
            DiscretizationConfig::Robust { r, policy } => {
                out.push(1);
                out.extend_from_slice(&r.to_bits().to_le_bytes());
                out.push(match policy {
                    GridSelectionPolicy::FirstSafe => 0,
                    GridSelectionPolicy::MostCentered => 1,
                });
            }
            DiscretizationConfig::Static { square_size } => {
                out.push(2);
                out.extend_from_slice(&square_size.to_bits().to_le_bytes());
            }
        }
        let policy = &record.policy;
        put_varint(&mut out, u64::from(policy.image.width));
        put_varint(&mut out, u64::from(policy.image.height));
        put_varint(&mut out, policy.clicks as u64);
        match policy.min_click_separation {
            None => out.push(0),
            Some(separation) => {
                out.push(1);
                out.extend_from_slice(&separation.to_bits().to_le_bytes());
            }
        }
        put_varint(&mut out, record.clicks.len() as u64);
        for click in &record.clicks {
            click.grid_id.write_into(&mut out);
        }
        put_varint(&mut out, u64::from(record.hash.iterations));
        put_bytes(&mut out, &record.hash.salt);
        out.extend_from_slice(&record.hash.digest);
        Self(out.into_boxed_slice())
    }

    /// The account name, read straight from the packed bytes.
    pub(crate) fn name(&self) -> &str {
        Reader(&self.0).str()
    }

    /// Decode the full record.
    pub(crate) fn unpack(&self) -> StoredPassword {
        let mut r = Reader(&self.0);
        let username = r.str().to_owned();
        let config = match r.byte() {
            0 => DiscretizationConfig::Centered {
                tolerance_px: r.varint() as u32,
            },
            1 => DiscretizationConfig::Robust {
                r: r.f64(),
                policy: match r.byte() {
                    0 => GridSelectionPolicy::FirstSafe,
                    _ => GridSelectionPolicy::MostCentered,
                },
            },
            _ => DiscretizationConfig::Static {
                square_size: r.f64(),
            },
        };
        let image = ImageDims {
            width: r.varint() as u32,
            height: r.varint() as u32,
        };
        let policy = PasswordPolicy {
            image,
            clicks: r.varint() as usize,
            min_click_separation: match r.byte() {
                0 => None,
                _ => Some(r.f64()),
            },
        };
        let count = r.varint() as usize;
        let clicks = (0..count)
            .map(|_| ClickRecord {
                grid_id: r.grid_id(),
            })
            .collect();
        let iterations = r.varint() as u32;
        let salt = r.bytes().to_vec();
        let mut digest: Digest = [0; DIGEST_LEN];
        digest.copy_from_slice(r.take(DIGEST_LEN));
        StoredPassword {
            username,
            config,
            policy,
            clicks,
            hash: PasswordHash {
                salt,
                iterations,
                digest,
            },
        }
    }

    /// Bytes in the packed allocation.
    #[cfg(test)]
    pub(crate) fn packed_len(&self) -> usize {
        self.0.len()
    }
}

impl std::fmt::Debug for PackedAccount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedAccount")
            .field("name", &self.name())
            .finish_non_exhaustive()
    }
}

impl Borrow<str> for PackedAccount {
    fn borrow(&self) -> &str {
        self.name()
    }
}

impl PartialEq for PackedAccount {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for PackedAccount {}

impl PartialOrd for PackedAccount {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PackedAccount {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name().cmp(other.name())
    }
}

/// LEB128: seven bits per byte, high bit set on all but the last.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Forward cursor over packed bytes written by [`PackedAccount::pack`].
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn varint(&mut self) -> u64 {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }

    fn bytes(&mut self) -> &'a [u8] {
        let len = self.varint() as usize;
        self.take(len)
    }

    /// A length-prefixed string; packed from a `String`, so the bytes are
    /// UTF-8.
    fn str(&mut self) -> &'a str {
        std::str::from_utf8(self.bytes()).unwrap_or_default()
    }

    fn f64(&mut self) -> f64 {
        let mut bits = [0; 8];
        bits.copy_from_slice(self.take(8));
        f64::from_bits(u64::from_le_bytes(bits))
    }

    /// The inverse of [`GridId::write_into`] (tags 0x01/0x02/0x03), exact
    /// for every offset including non-finite ones.
    fn grid_id(&mut self) -> GridId {
        let be_f64 = |r: &mut Self| {
            let mut bits = [0; 8];
            bits.copy_from_slice(r.take(8));
            f64::from_bits(u64::from_be_bytes(bits))
        };
        match self.byte() {
            0x01 => GridId::Centered {
                dx: be_f64(self),
                dy: be_f64(self),
            },
            0x02 => GridId::Robust {
                grid_index: self.byte(),
            },
            _ => GridId::Static,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_crypto::PasswordHasher;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The longest account name the wire protocol carries
    /// (`gp_netauth::protocol::MAX_USERNAME_LEN`).
    const MAX_USERNAME_LEN: usize = 256;

    /// One- to four-byte UTF-8 characters.
    const NAME_CHARS: &[char] = &[
        'a', 'Z', '0', '-', 'é', 'ß', 'ж', 'ユ', 'ー', '名', '𝄞', '😀',
    ];

    fn name_from(indices: &[usize]) -> String {
        let mut name = String::new();
        for &i in indices {
            let c = NAME_CHARS[i % NAME_CHARS.len()];
            if name.len() + c.len_utf8() > MAX_USERNAME_LEN {
                break;
            }
            name.push(c);
        }
        name
    }

    fn config_from(variant: u8, a: f64, first_safe: bool, tolerance: u32) -> DiscretizationConfig {
        match variant % 3 {
            0 => DiscretizationConfig::Centered {
                tolerance_px: tolerance,
            },
            1 => DiscretizationConfig::Robust {
                r: a,
                policy: if first_safe {
                    GridSelectionPolicy::FirstSafe
                } else {
                    GridSelectionPolicy::MostCentered
                },
            },
            _ => DiscretizationConfig::Static { square_size: a },
        }
    }

    fn grid_id_from(variant: u8, dx: f64, dy: f64) -> GridId {
        match variant % 3 {
            0 => GridId::Centered { dx, dy },
            1 => GridId::Robust {
                grid_index: variant,
            },
            _ => GridId::Static,
        }
    }

    fn study_account(name: &str) -> StoredPassword {
        StoredPassword {
            username: name.to_string(),
            config: DiscretizationConfig::centered(9),
            policy: PasswordPolicy::study_default(),
            clicks: (0..5)
                .map(|i| ClickRecord {
                    grid_id: GridId::Centered {
                        dx: 3.5 + i as f64,
                        dy: 11.0 - i as f64,
                    },
                })
                .collect(),
            hash: PasswordHasher::new(crate::system::GraphicalPasswordSystem::HASH_DOMAIN, 3000)
                .hash(name.as_bytes(), b"pre-image"),
        }
    }

    proptest! {
        /// `unpack(pack(r)) == r` exactly, across every configuration
        /// variant, both separation settings, salts of 0–300 bytes and
        /// multi-byte names up to the protocol's length cap.
        #[test]
        fn pack_round_trips_exactly(
            name in proptest::collection::vec(0usize..64, 1..300),
            config in (any::<u8>(), 0.01f64..64.0, any::<bool>(), any::<u32>()),
            width in 1u32..5000,
            height in 1u32..5000,
            policy_clicks in 1usize..12,
            separation in (any::<bool>(), 0.0f64..50.0),
            grid_ids in proptest::collection::vec((any::<u8>(), any::<f64>(), any::<f64>()), 0..12),
            iterations in any::<u32>(),
            salt in proptest::collection::vec(any::<u8>(), 0..=300),
            digest in proptest::collection::vec(any::<u8>(), 32),
        ) {
            let record = StoredPassword {
                username: name_from(&name),
                config: config_from(config.0, config.1, config.2, config.3),
                policy: PasswordPolicy {
                    image: ImageDims { width, height },
                    clicks: policy_clicks,
                    min_click_separation: separation.0.then_some(separation.1),
                },
                clicks: grid_ids
                    .iter()
                    .map(|&(v, dx, dy)| ClickRecord { grid_id: grid_id_from(v, dx, dy) })
                    .collect(),
                hash: PasswordHash {
                    salt,
                    iterations,
                    digest: digest.try_into().unwrap(),
                },
            };
            let packed = PackedAccount::pack(&record);
            prop_assert_eq!(packed.name(), record.username.as_str());
            prop_assert_eq!(packed.unpack(), record);
        }

        /// A set of packed accounts iterates in `String` order, and an
        /// insert over an existing name replaces its record.
        #[test]
        fn set_order_is_string_order_and_insert_replaces(
            names in proptest::collection::vec(proptest::collection::vec(0usize..64, 1..12), 1..40),
        ) {
            let names: Vec<String> = names.iter().map(|n| name_from(n)).collect();
            let mut set = BTreeSet::new();
            for name in &names {
                set.replace(PackedAccount::pack(&study_account(name)));
            }
            let expected: BTreeSet<&str> = names.iter().map(String::as_str).collect();
            let got: Vec<&str> = set.iter().map(PackedAccount::name).collect();
            prop_assert_eq!(got, expected.into_iter().collect::<Vec<_>>());

            let mut updated = study_account(&names[0]);
            updated.hash.iterations = 7;
            set.replace(PackedAccount::pack(&updated));
            prop_assert_eq!(set.len(), names.iter().collect::<BTreeSet<_>>().len());
            let stored = set.get(names[0].as_str()).map(PackedAccount::unpack);
            prop_assert_eq!(stored, Some(updated));
        }
    }

    #[test]
    fn study_shaped_account_packs_small() {
        // Five Centered clicks, the study policy, a 21-byte salt and h^3000:
        // the shape of the serving benchmark's seed accounts.  The line
        // format spends 314 bytes on it; packed, it is 156 (the 85 bytes of
        // clear grid identifiers and the 32-byte digest are most of that),
        // and must stay under 160.
        let record = study_account("u0042");
        assert_eq!(record.hash.salt.len(), 21);
        assert_eq!(record.to_record().len(), 314);
        let packed = PackedAccount::pack(&record);
        assert!(
            packed.packed_len() < 160,
            "packed study account is {} bytes",
            packed.packed_len()
        );
        assert_eq!(packed.unpack(), record);
    }
}
