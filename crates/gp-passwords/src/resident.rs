//! The one serialized form of an account: its packed record bytes.
//!
//! [`crate::shard::ShardedPasswordStore`] keeps every account in memory.
//! A [`StoredPassword`] spreads one record over four heap allocations (the
//! username, the click list, the salt and the struct around them), each
//! with its own allocator overhead.  [`PackedAccount`] serializes the
//! whole record into one boxed byte slice and decodes it again on read,
//! so a resident account costs its bytes plus one allocation header.  The
//! salt is not stored but derived from the name again ([`account_salt`]).
//!
//! The same bytes are the account's only serialized form.  A WAL
//! `Enroll`/`Update` payload and a snapshot record are an op byte followed
//! by them ([`crate::wal`]), the replication stream carries those payloads
//! verbatim, and [`crate::shard::record_digest`] hashes them.  No other
//! module knows the layout.
//!
//! # Layout
//!
//! ```text
//! packed  := name config policy clicks iterations digest
//! name    := len:varint  utf8-bytes                (first, so ordering reads only it)
//! config  := 0 tolerance_px:varint
//!          | 1 r:f64  (0 first-safe | 1 most-centered)
//!          | 2 square_size:f64
//! policy  := width:varint height:varint clicks:varint (0 | 1 min_separation:f64)
//! clicks  := count:varint  GridId::write_into bytes*  (each self-delimiting)
//! digest  := 32 bytes
//! ```
//!
//! Varints are minimal LEB128; `f64`s are their little-endian bit
//! patterns, so every value, including a non-integer Robust `r`,
//! round-trips exactly.
//!
//! # Decoding
//!
//! [`PackedAccount::unpack`] trusts its bytes: [`PackedAccount::pack`]
//! wrote them, or [`PackedAccount::decode`] accepted them.  It still never
//! panics: a read past the end yields zeros and an unknown tag takes a
//! catch-all arm.  [`PackedAccount::decode`] takes bytes from outside the
//! process (disk, peers).  It accepts exactly the bytes `pack` writes for
//! a valid record: re-packing what it read must reproduce the input, so a
//! truncated, over-long or non-canonical encoding is refused, and equal
//! records have equal bytes, and equal digests, on every node.

use crate::config::DiscretizationConfig;
use crate::policy::PasswordPolicy;
use crate::stored::{ClickRecord, StoredPassword};
use crate::system::GraphicalPasswordSystem;
use crate::wal::fnv1a64;
use gp_crypto::{Digest, PasswordHash, PasswordHasher, DIGEST_LEN};
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
        let mut out = Vec::new();
        Self::pack_into(record, &mut out);
        Self(out.into_boxed_slice())
    }

    /// Append `record`'s packed bytes to `out`.
    pub(crate) fn pack_into(record: &StoredPassword, out: &mut Vec<u8>) {
        out.reserve(
            64 + record.username.len()
                + record
                    .clicks
                    .iter()
                    .map(|c| c.grid_id.encoded_len())
                    .sum::<usize>(),
        );
        put_bytes(out, record.username.as_bytes());
        match record.config {
            DiscretizationConfig::Centered { tolerance_px } => {
                out.push(0);
                put_varint(out, u64::from(tolerance_px));
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
        put_varint(out, u64::from(policy.image.width));
        put_varint(out, u64::from(policy.image.height));
        put_varint(out, policy.clicks as u64);
        match policy.min_click_separation {
            None => out.push(0),
            Some(separation) => {
                out.push(1);
                out.extend_from_slice(&separation.to_bits().to_le_bytes());
            }
        }
        put_varint(out, record.clicks.len() as u64);
        for click in &record.clicks {
            click.grid_id.write_into(out);
        }
        put_varint(out, u64::from(record.hash.iterations));
        out.extend_from_slice(&record.hash.digest);
    }

    /// A resident account holding `bytes`, which
    /// [`PackedAccount::pack_into`] wrote.
    pub(crate) fn from_packed(bytes: &[u8]) -> Self {
        Self(bytes.into())
    }

    /// The packed bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The account name, read straight from the packed bytes.
    pub(crate) fn name(&self) -> &str {
        Reader(&self.0).str()
    }

    /// The record's content hash: FNV-1a over the packed bytes, finalized
    /// with the ring's splitmix mixer so it diffuses into all 64 bits.
    pub(crate) fn digest(&self) -> u64 {
        crate::ring::mix64(fnv1a64(&self.0))
    }

    /// Decode the full record.
    pub(crate) fn unpack(&self) -> StoredPassword {
        salted(read(&self.0))
    }

    /// Decode packed bytes that come from outside the process.  Errors are
    /// `InvalidData`: bytes that re-pack differently (truncated, trailing
    /// bytes, an unknown tag, a non-UTF-8 name, a non-minimal varint), or
    /// a record no enrollment produces (an empty name, a zero image
    /// dimension or click count, a click list of the wrong length, a
    /// discretization parameter the scheme would refuse, a non-finite
    /// Centered offset).
    pub(crate) fn decode(bytes: &[u8]) -> std::io::Result<StoredPassword> {
        Self::check(bytes).map(salted)
    }

    /// [`PackedAccount::decode`]'s checks, without deriving the salt (one
    /// SHA-256): the record comes back with an empty salt.  For callers
    /// that keep only the checked bytes and the name, as WAL replay and a
    /// backup's apply do.
    pub(crate) fn check(bytes: &[u8]) -> std::io::Result<StoredPassword> {
        let record = read(bytes);
        let mut repacked = Vec::with_capacity(bytes.len());
        Self::pack_into(&record, &mut repacked);
        let fault = if repacked != bytes {
            Some("truncated, trailing bytes or non-canonical encoding".to_string())
        } else {
            semantic_fault(&record)
        };
        match fault {
            None => Ok(record),
            Some(reason) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed account record: {reason}"),
            )),
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

/// Why a well-formed `record` is still one no enrollment produces, if it
/// is.
fn semantic_fault(record: &StoredPassword) -> Option<String> {
    let policy = &record.policy;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    let parameter_ok = match record.config {
        DiscretizationConfig::Centered { .. } => true,
        DiscretizationConfig::Robust { r, .. } => positive(r),
        DiscretizationConfig::Static { square_size } => positive(square_size),
    };
    let offsets_finite = record.clicks.iter().all(|c| match c.grid_id {
        GridId::Centered { dx, dy } => dx.is_finite() && dy.is_finite(),
        _ => true,
    });
    if record.username.is_empty() {
        Some("empty account name".into())
    } else if policy.image.width == 0 || policy.image.height == 0 || policy.clicks == 0 {
        Some("zero image dimension or click count".into())
    } else if record.clicks.len() != policy.clicks {
        Some(format!(
            "click count {} does not match {} stored grid identifiers",
            policy.clicks,
            record.clicks.len()
        ))
    } else if !parameter_ok {
        Some("non-positive or non-finite discretization parameter".into())
    } else if !offsets_finite {
        Some("non-finite centered offsets".into())
    } else {
        None
    }
}

/// The record in `bytes`, read field by field, with an empty salt
/// ([`salted`] derives it).  Exact for what [`PackedAccount::pack_into`]
/// writes, and total (no panic, work bounded by `bytes.len()`) over
/// anything else.
fn read(bytes: &[u8]) -> StoredPassword {
    let mut r = Reader(bytes);
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
    // Every grid identifier takes at least one byte.
    let count = r.varint().min(r.0.len() as u64);
    let clicks = (0..count)
        .map(|_| ClickRecord {
            grid_id: r.grid_id(),
        })
        .collect();
    let iterations = r.varint() as u32;
    let mut digest: Digest = [0; DIGEST_LEN];
    let stored = r.take(DIGEST_LEN);
    digest[..stored.len()].copy_from_slice(stored);
    StoredPassword {
        config,
        policy,
        clicks,
        hash: PasswordHash {
            salt: Vec::new(),
            iterations,
            digest,
        },
        username,
    }
}

/// `record` with its salt, derived from its name.
fn salted(mut record: StoredPassword) -> StoredPassword {
    record.hash.salt = account_salt(&record.username);
    record
}

/// The salt of a store account: [`GraphicalPasswordSystem`]'s, by name.
pub(crate) fn account_salt(username: &str) -> Vec<u8> {
    PasswordHasher::salt_in(GraphicalPasswordSystem::HASH_DOMAIN, username.as_bytes())
}

/// Forward cursor over packed bytes.  Past the end it yields empty slices
/// and zero bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.0.split_at(n.min(self.0.len()));
        self.0 = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1).first().copied().unwrap_or(0)
    }

    fn varint(&mut self) -> u64 {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
        }
        value
    }

    fn bytes(&mut self) -> &'a [u8] {
        let len = self.varint();
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// A length-prefixed string; empty if the bytes are not UTF-8.
    fn str(&mut self) -> &'a str {
        std::str::from_utf8(self.bytes()).unwrap_or_default()
    }

    fn f64(&mut self) -> f64 {
        self.f64_bits(u64::from_le_bytes)
    }

    fn f64_bits(&mut self, from_bytes: fn([u8; 8]) -> u64) -> f64 {
        let mut bits = [0; 8];
        let stored = self.take(8);
        bits[..stored.len()].copy_from_slice(stored);
        f64::from_bits(from_bytes(bits))
    }

    /// The inverse of [`GridId::write_into`] (tags 0x01/0x02/0x03), exact
    /// for every offset including non-finite ones.
    fn grid_id(&mut self) -> GridId {
        match self.byte() {
            0x01 => GridId::Centered {
                dx: self.f64_bits(u64::from_be_bytes),
                dy: self.f64_bits(u64::from_be_bytes),
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
    use crate::wal::WalEntry;
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

    /// A record an enrollment could have produced: a non-empty name,
    /// positive discretization parameters, a non-zero image and click
    /// count, and one finite grid identifier per click.
    fn valid_record() -> impl Strategy<Value = StoredPassword> {
        (
            proptest::collection::vec(0usize..64, 1..40),
            (any::<u8>(), 0.01f64..64.0, any::<bool>(), any::<u32>()),
            (1u32..5000, 1u32..5000),
            (any::<bool>(), 0.0f64..50.0),
            proptest::collection::vec((any::<u8>(), -1e6f64..1e6, -1e6f64..1e6), 1..12),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 32),
        )
            .prop_map(
                |(name, config, (width, height), separation, grid_ids, iterations, digest)| {
                    let username = name_from(&name);
                    StoredPassword {
                        hash: PasswordHash {
                            salt: account_salt(&username),
                            iterations,
                            digest: digest.try_into().unwrap(),
                        },
                        username,
                        config: config_from(config.0, config.1, config.2, config.3),
                        policy: PasswordPolicy {
                            image: ImageDims { width, height },
                            clicks: grid_ids.len(),
                            min_click_separation: separation.0.then_some(separation.1),
                        },
                        clicks: grid_ids
                            .iter()
                            .map(|&(v, dx, dy)| ClickRecord {
                                grid_id: grid_id_from(v, dx, dy),
                            })
                            .collect(),
                    }
                },
            )
    }

    proptest! {
        /// Every valid enroll/update payload decodes and re-encodes to
        /// identical bytes, and every strict prefix of it, or it with one
        /// byte appended, is refused.  (A remove payload is only a name,
        /// delimited by its record frame, so its prefixes are names too.)
        #[test]
        fn checked_decode_accepts_exactly_the_packed_bytes(
            record in valid_record(),
            update in any::<bool>(),
            extra in any::<u8>(),
        ) {
            let entry = if update { WalEntry::Update(record) } else { WalEntry::Enroll(record) };
            let payload = entry.to_payload();
            let decoded = WalEntry::from_payload(&payload).unwrap();
            prop_assert_eq!(&decoded, &entry);
            prop_assert_eq!(decoded.to_payload(), payload.clone());
            for len in 0..payload.len() {
                prop_assert!(WalEntry::from_payload(&payload[..len]).is_err(), "prefix of {} bytes", len);
            }
            let mut longer = payload;
            longer.push(extra);
            prop_assert!(WalEntry::from_payload(&longer).is_err());
        }

        /// Decoding never panics, on arbitrary bytes or on a valid payload
        /// with one byte changed, inserted or deleted, and whatever it
        /// accepts re-encodes to exactly the bytes it was given.
        #[test]
        fn checked_decode_is_total_and_canonical(
            noise in proptest::collection::vec(any::<u8>(), 0..300),
            tag in 0u8..4,
            record in valid_record(),
            edit in (0u8..3, any::<usize>(), any::<u8>()),
        ) {
            let tagged = [&[tag][..], &noise].concat();
            let mut mutated = WalEntry::Update(record).to_payload();
            let at = edit.1 % mutated.len();
            match edit.0 {
                0 => mutated[at] = edit.2,
                1 => mutated.insert(at, edit.2),
                _ => {
                    mutated.remove(at);
                }
            }
            for bytes in [&noise, &tagged, &mutated] {
                if let Ok(entry) = WalEntry::from_payload(bytes) {
                    prop_assert_eq!(&entry.to_payload(), bytes);
                }
            }
        }

        /// `unpack(pack(r)) == r` exactly, across every configuration
        /// variant, both separation settings and multi-byte names up to the
        /// protocol's length cap, the salt derived from the name.
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
            digest in proptest::collection::vec(any::<u8>(), 32),
        ) {
            let username = name_from(&name);
            let record = StoredPassword {
                hash: PasswordHash {
                    salt: account_salt(&username),
                    iterations,
                    digest: digest.try_into().unwrap(),
                },
                username,
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
    fn checked_decode_rejects_each_invalid_record() {
        let valid = study_account("alice");
        let decode =
            |record: &StoredPassword| PackedAccount::decode(PackedAccount::pack(record).as_bytes());
        assert_eq!(decode(&valid).unwrap(), valid);
        type Edit = fn(&mut StoredPassword);
        let edits: [(&str, Edit); 8] = [
            ("empty name", |r| r.username.clear()),
            ("zero width", |r| r.policy.image.width = 0),
            ("zero height", |r| r.policy.image.height = 0),
            ("zero click count", |r| r.policy.clicks = 0),
            ("click-count mismatch", |r| r.policy.clicks = 4),
            ("non-finite offset", |r| {
                r.clicks[0].grid_id = GridId::Centered {
                    dx: f64::NAN,
                    dy: 1.0,
                }
            }),
            ("negative Robust r", |r| {
                r.config = DiscretizationConfig::robust(-1.0)
            }),
            ("zero static square", |r| {
                r.config = DiscretizationConfig::static_grid(0.0)
            }),
        ];
        for (what, edit) in edits {
            let mut record = valid.clone();
            edit(&mut record);
            let err = decode(&record).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(PackedAccount::check(PackedAccount::pack(&record).as_bytes()).is_err());
        }
        // The check alone accepts the same record and skips only the salt.
        let unsalted = PackedAccount::check(PackedAccount::pack(&valid).as_bytes()).unwrap();
        assert!(unsalted.hash.salt.is_empty());
        assert_eq!(salted(unsalted), valid);

        // Byte-level damage to the valid record's packed bytes.
        let bytes = PackedAccount::pack(&valid).as_bytes().to_vec();
        let config_tag = 1 + "alice".len();
        assert_eq!(bytes[config_tag..config_tag + 2], [0, 9], "centered, t = 9");
        let mut unknown_config = bytes.clone();
        unknown_config[config_tag] = 7;
        let mut non_utf8 = bytes.clone();
        non_utf8[1] = 0xff;
        let mut overlong_varint = bytes.clone();
        overlong_varint.splice(config_tag + 1..config_tag + 2, [0x89, 0x00]);
        let truncated = &bytes[..bytes.len() - 1];
        let trailing = [&bytes[..], &[0]].concat();
        for (what, damaged) in [
            ("unknown config tag", &unknown_config[..]),
            ("non-UTF-8 name", &non_utf8),
            ("overlong varint", &overlong_varint),
            ("truncated", truncated),
            ("trailing byte", &trailing),
        ] {
            assert!(PackedAccount::decode(damaged).is_err(), "{what}");
            assert!(PackedAccount::check(damaged).is_err(), "{what}");
        }

        // The payload around the record: its op byte and remove names.
        for (what, payload) in [
            ("empty payload", &[][..]),
            ("unknown op", &[9, b'x']),
            ("empty remove name", &[3]),
            ("non-UTF-8 remove name", &[3, 0xff]),
        ] {
            assert!(WalEntry::from_payload(payload).is_err(), "{what}");
        }
    }

    #[test]
    fn study_shaped_account_packs_small() {
        // Five Centered clicks, the study policy and h^3000: the shape of
        // the serving benchmark's seed accounts.  Packed, it is 134 bytes
        // (the 85 bytes of clear grid identifiers and the 32-byte digest
        // are most of that; the 64-byte salt is derived, not stored), and
        // must stay under 140.
        let record = study_account("u0042");
        assert_eq!(record.hash.salt.len(), 64);
        let packed = PackedAccount::pack(&record);
        assert!(
            packed.packed_len() < 140,
            "packed study account is {} bytes",
            packed.packed_len()
        );
        assert_eq!(packed.unpack(), record);
    }
}
