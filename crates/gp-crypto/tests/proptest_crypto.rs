//! Property-based tests for the crypto substrate.
//!
//! The iterated-hash equivalence properties live beside the code in
//! `src/iterated.rs`, where they run against both compression kernels.

use gp_crypto::{ct_eq, hex, iterated_hash, Midstate, PasswordHasher, Sha256};
use proptest::prelude::*;

proptest! {
    /// A midstate split at any point of a message reproduces the one-shot
    /// digest.
    #[test]
    fn midstate_split_is_transparent(data in proptest::collection::vec(any::<u8>(), 0..400),
                                     split in 0usize..400) {
        let split = split.min(data.len());
        let midstate = Midstate::new(&data[..split]);
        prop_assert_eq!(midstate.digest_suffix(&data[split..]), Sha256::digest(&data));
    }
    /// Incremental hashing over arbitrary chunk boundaries must equal the
    /// one-shot digest.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                          split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Hex encoding renders every byte as two lower-case digits.
    #[test]
    fn hex_encodes_each_byte_as_two_digits(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(encoded.len(), data.len() * 2);
        for (pair, byte) in encoded.as_bytes().chunks(2).zip(&data) {
            let pair = std::str::from_utf8(pair).unwrap();
            prop_assert_eq!(u8::from_str_radix(pair, 16).unwrap(), *byte);
            prop_assert_eq!(pair, pair.to_ascii_lowercase());
        }
    }

    /// Constant-time equality agrees with `==`.
    #[test]
    fn ct_eq_matches_slice_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                              b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// ct_eq is reflexive.
    #[test]
    fn ct_eq_reflexive(a in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert!(ct_eq(&a, &a));
    }

    /// The password hasher verifies exactly the message it hashed.
    #[test]
    fn password_hash_round_trip(user in proptest::collection::vec(any::<u8>(), 0..32),
                                msg in proptest::collection::vec(any::<u8>(), 0..128),
                                iterations in 1u32..64) {
        let hasher = PasswordHasher::new("prop", iterations);
        let stored = hasher.hash(&user, &msg);
        prop_assert!(stored.verify(&msg));
        prop_assert!(stored.verify_with(&hasher, &user, &msg));
        // A different message of the same length must not verify.
        if !msg.is_empty() {
            let mut other = msg.clone();
            other[0] = other[0].wrapping_add(1);
            prop_assert!(!stored.verify(&other));
        }
    }

    /// Hashing is a pure function of (hasher, user, message): the same
    /// inputs give an equal record, with the iteration count stored.
    #[test]
    fn password_hash_is_deterministic(user in proptest::collection::vec(any::<u8>(), 0..16),
                                      msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let hasher = PasswordHasher::new("prop", 3);
        let stored = hasher.hash(&user, &msg);
        prop_assert_eq!(hasher.hash(&user, &msg), stored.clone());
        prop_assert_eq!(stored.iterations, 3);
        prop_assert!(stored.verify_with(&hasher, &user, &msg));
    }

    /// Iterated hashing with distinct iteration counts never collides on the
    /// same (salt, message) pair — a regression guard against accidentally
    /// ignoring the iteration parameter.
    #[test]
    fn iterations_matter(salt in proptest::collection::vec(any::<u8>(), 0..16),
                         msg in proptest::collection::vec(any::<u8>(), 0..64),
                         k in 2u32..32) {
        prop_assert_ne!(iterated_hash(&salt, &msg, 1), iterated_hash(&salt, &msg, k));
    }
}
