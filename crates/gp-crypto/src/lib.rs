//! From-scratch cryptographic primitives used by the graphical password
//! system described in *Centered Discretization with Application to
//! Graphical Passwords* (Chiasson et al., UPSEC 2008).
//!
//! The paper requires that discretized click-points (grid-square
//! identifiers) be stored only in cryptographically hashed form, optionally
//! salted with a user identifier and strengthened with iterated hashing
//! ("using h^1000 effectively adds 10 bits of security").  This crate
//! provides everything needed for that storage layer, implemented from
//! scratch so that the reproduction has no external cryptographic
//! dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 with an incremental [`Sha256`] hasher,
//!   a single-compression fast path for one-block messages, and a reusable
//!   [`Midstate`] for fixed prefixes (salts).
//! * [`iterated`] — iterated ("stretched") hashing `h^k`: the scalar
//!   one-shot/midstate path ([`SaltedHasher`]), the batched paths
//!   ([`SaltedHasher::iterated_many_into`], [`iterated_hash_many_salted`])
//!   that advance independent chains side by side, and a convenience
//!   [`PasswordHasher`] combining salt, personalization and iteration
//!   count.
//! * [`hex`] — lower-case hexadecimal encoding for printing digests.
//! * [`ct`] — constant-time equality for hash comparison during login.
//!
//! # Kernels
//!
//! Every iterated-hash entry point runs on the compression kernels the
//! CPU has, chosen by CPUID and group size alone — no option, environment
//! variable or cargo feature selects them ([`iterated::Kernel`]):
//!
//! The SIMD kernels run one layout: a salt of whole 64-byte blocks, which
//! is every salt [`PasswordHasher::salt_for`] derives, so that every round
//! is one compression with the digest at offset 0:
//!
//! * every full group of [`LANES`] such chains runs through one
//!   hand-written AVX-512F/VL pass, on CPUs that have it: one chain per
//!   32-bit lane, the chaining state, which is also each round's first
//!   eight message words, held in zmm registers for every round (1.0–1.3
//!   ms for 16 h^3000 chains on a 2-vCPU Sapphire Rapids Xeon).  A pass
//!   costs the same with idle lanes, so a remainder of at least
//!   [`AVX512_MIN_CHAINS`] chains (any remainder, on a CPU without
//!   SHA-NI) runs as one more pass, padded;
//! * a smaller remainder runs on x86-64 CPUs with the SHA extensions and
//!   AVX through one SHA-NI round loop that interleaves up to four chains
//!   and keeps each chain's state in its SHA-NI registers for every round
//!   (0.17 ms for one h^3000 chain, ~1.0 ms for 8, same host).  AVX is
//!   needed only for the `vzeroupper` that keeps the legacy-SSE `sha256*`
//!   instructions clear of the ~100× SSE/AVX transition penalty;
//! * elsewhere, and for salts of any other length on every CPU, the
//!   portable loop over [`LANES`] lanes that LLVM auto-vectorizes (1.2–1.3
//!   ms for one chain, ~0.28 ms per chain in a full batch, same host,
//!   `x86-64-v3` build).
//!
//! The one `unsafe` block in the crate holds the calls into the AVX-512
//! and SHA-NI target-feature code, each reachable only under the token
//! its CPUID check made; the tests run every path on every kernel the CPU
//! has, and release-only tests fail if the SHA-NI kernel stops beating
//! the portable one, alone or right after an AVX-512 pass, or if the
//! AVX-512 pass stops beating SHA-NI on 16 chains, or, padded, on 12.
//!
//! # Example
//!
//! ```
//! use gp_crypto::{sha256::Sha256, hex};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod hex;
pub mod iterated;
pub mod sha256;

pub use ct::ct_eq;
pub use iterated::{
    iterated_hash, iterated_hash_many_salted, iterated_hash_many_salted_into,
    iterated_hash_reference, PasswordHash, PasswordHasher, SaltedHasher, AVX512_MIN_CHAINS, LANES,
};
pub use sha256::{Digest, Midstate, Sha256, DIGEST_LEN};
