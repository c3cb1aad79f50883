//! SHA-256 as specified by FIPS 180-4, implemented from scratch.
//!
//! The implementation is a straightforward, allocation-free translation of
//! the specification: a 64-byte block buffer, the 64-round compression
//! function, and Merkle–Damgård length padding.  It is intended for the
//! password-hashing workload of this repository (short messages hashed many
//! times), not as a general-purpose optimized hash library, but it passes
//! the full set of NIST short-message test vectors (see the unit tests).

/// Length in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Length in bytes of a SHA-256 message block.
pub const BLOCK_LEN: usize = 64;

/// A SHA-256 digest (32 bytes).
pub type Digest = [u8; DIGEST_LEN];

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Largest message that fits a single padded block (block minus the 0x80
/// terminator and the 8-byte length field).
pub(crate) const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

/// The SHA-256 compression function: absorb one 64-byte block into `state`.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    // Message schedule.
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for t in 0..64 {
        let big_sigma1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(big_sigma1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_sigma0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_sigma0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Multi-lane compression: advance `L` independent hash states over one
/// block each, with the round loops interleaved across lanes.
///
/// SHA-256 is a long serial dependency chain — each round needs the
/// previous round's working variables — so a single hash cannot use a
/// superscalar core's parallel ALU ports.  `L` *independent* chains
/// interleaved in one loop body give the scheduler `L` dependency chains to
/// overlap (the hashcat approach), which is where the multi-lane speedup in
/// the batched iterated-hash paths comes from.
///
/// Always inlined: left to the compiler it stays out of line, and the
/// portable iterated-hash lane pass measured 5-20% slower.
// Index-based lane loops are load-bearing here: `w[t][l]` with `l` as the
// innermost index is the exact adjacent-memory shape LLVM auto-vectorizes;
// iterator rewrites break the pattern.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
pub(crate) fn compress_lanes<const L: usize>(
    states: &mut [[u32; 8]; L],
    blocks: [&[u8; BLOCK_LEN]; L],
) {
    // Message schedule, *lane-transposed*: `w[t]` holds round `t`'s word
    // for every lane contiguously, so each schedule step and each round is
    // `L` independent element-wise u32 operations on adjacent memory —
    // the exact shape LLVM's auto-vectorizer turns into SIMD.
    let mut w = [[0u32; L]; 64];
    for l in 0..L {
        for (i, chunk) in blocks[l].chunks_exact(4).enumerate() {
            w[i][l] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
    for t in 16..64 {
        for l in 0..L {
            let w15 = w[t - 15][l];
            let w2 = w[t - 2][l];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[t][l] = w[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][l])
                .wrapping_add(s1);
        }
    }

    let mut a = [0u32; L];
    let mut b = [0u32; L];
    let mut c = [0u32; L];
    let mut d = [0u32; L];
    let mut e = [0u32; L];
    let mut f = [0u32; L];
    let mut g = [0u32; L];
    let mut h = [0u32; L];
    for l in 0..L {
        [a[l], b[l], c[l], d[l], e[l], f[l], g[l], h[l]] = states[l];
    }

    for t in 0..64 {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for l in 0..L {
            let big_sigma1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ ((!e[l]) & g[l]);
            t1[l] = h[l]
                .wrapping_add(big_sigma1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t][l]);
            let big_sigma0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = big_sigma0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..L {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..L {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }

    for l in 0..L {
        states[l][0] = states[l][0].wrapping_add(a[l]);
        states[l][1] = states[l][1].wrapping_add(b[l]);
        states[l][2] = states[l][2].wrapping_add(c[l]);
        states[l][3] = states[l][3].wrapping_add(d[l]);
        states[l][4] = states[l][4].wrapping_add(e[l]);
        states[l][5] = states[l][5].wrapping_add(f[l]);
        states[l][6] = states[l][6].wrapping_add(g[l]);
        states[l][7] = states[l][7].wrapping_add(h[l]);
    }
}

/// Proof that this CPU has the SHA extensions (and AVX, for the
/// `vzeroupper` that guards them): only [`ShaNi::detect`] makes one, so
/// holding it licenses a call into the SHA-NI round loop's target features.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShaNi(());

#[cfg(target_arch = "x86_64")]
impl ShaNi {
    /// `Some` when the CPU reports every feature the SHA-NI round loop
    /// enables.  std caches the CPUID probe, so this is a load and a test.
    pub(crate) fn detect() -> Option<Self> {
        let detected = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && std::arch::is_x86_feature_detected!("avx");
        detected.then_some(ShaNi(()))
    }
}

/// Proof that this CPU runs AVX-512F and AVX-512VL and that the OS saves
/// the zmm registers (std's detection checks XSAVE too): only
/// [`Avx512::detect`] makes one, so holding it licenses a call into the
/// AVX-512 lane kernel.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx512(());

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// `Some` when the CPU reports both features the AVX-512 lane kernel
    /// enables.  std caches the CPUID probe, so this is a load and a test.
    pub(crate) fn detect() -> Option<Self> {
        let detected = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl");
        detected.then_some(Avx512(()))
    }
}

/// Serialize a chaining state as a big-endian digest.
pub(crate) fn state_to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Hash a message that fits a single padded block (`len <= 55`) with one
/// compression call and no buffer machinery.
fn digest_one_block(data: &[u8]) -> Digest {
    debug_assert!(data.len() <= ONE_BLOCK_MAX);
    let mut block = [0u8; BLOCK_LEN];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    block[BLOCK_LEN - 8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &block);
    state_to_digest(&state)
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use gp_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    /// Current chaining state (H_0..H_7).
    state: [u32; 8],
    /// Partially filled message block.
    buffer: [u8; BLOCK_LEN],
    /// Number of valid bytes in `buffer`.
    buffer_len: usize,
    /// Total message length processed so far, in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print internal state: a partially hashed password is secret.
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Create a fresh hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return its digest.
    ///
    /// Messages that fit a single padded block (≤ 55 bytes — every salted
    /// digest on the password hot path) skip the incremental buffer
    /// machinery entirely and cost exactly one compression call.
    pub fn digest(data: &[u8]) -> Digest {
        if data.len() <= ONE_BLOCK_MAX {
            return digest_one_block(data);
        }
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 message longer than 2^64 bits is unsupported");

        let mut input = data;

        // Fill a partially full buffer first.
        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Process whole blocks directly from the input.
        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finish the hash computation and return the digest, consuming the
    /// hasher state.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self
            .total_len
            .checked_mul(8)
            .expect("SHA-256 message longer than 2^64 bits is unsupported");

        // Padding: 0x80, then zeros, then the 64-bit big-endian bit length.
        self.pad_byte(0x80);
        while self.buffer_len != 56 {
            self.pad_byte(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        for b in len_bytes {
            self.pad_byte(b);
        }
        debug_assert_eq!(self.buffer_len, 0, "padding must end on a block boundary");

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn pad_byte(&mut self, byte: u8) {
        self.buffer[self.buffer_len] = byte;
        self.buffer_len += 1;
        if self.buffer_len == BLOCK_LEN {
            let block = self.buffer;
            self.compress(&block);
            self.buffer_len = 0;
        }
    }

    /// The SHA-256 compression function applied to one 64-byte block.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        compress(&mut self.state, block);
    }
}

/// A reusable snapshot of the hash state after absorbing a fixed prefix
/// (typically a per-user salt).
///
/// Hashing `prefix || suffix` through [`Midstate::digest_suffix`] is
/// bit-identical to the straightforward computation but re-absorbs only the
/// prefix bytes past the last full block: for prefixes of 64 bytes or more
/// the leading compressions are paid once at construction instead of once
/// per call — the classic midstate optimization for iterated salted
/// hashing.
#[derive(Clone)]
pub struct Midstate {
    /// State after absorbing all full blocks of the prefix.
    state: [u32; 8],
    /// Bytes absorbed into `state` (a multiple of [`BLOCK_LEN`]).
    block_bytes: u64,
    /// Prefix remainder not yet absorbed (`tail_len < BLOCK_LEN`).
    tail: [u8; BLOCK_LEN],
    /// Valid bytes in `tail`.
    tail_len: usize,
}

impl core::fmt::Debug for Midstate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print internal state: the prefix may be secret.
        f.debug_struct("Midstate")
            .field("prefix_len", &self.prefix_len())
            .finish_non_exhaustive()
    }
}

impl Midstate {
    /// Precompute the state for `prefix`.
    pub fn new(prefix: &[u8]) -> Self {
        let full = prefix.len() / BLOCK_LEN * BLOCK_LEN;
        let mut state = H0;
        for chunk in prefix[..full].chunks_exact(BLOCK_LEN) {
            let block: &[u8; BLOCK_LEN] = chunk.try_into().expect("exact chunk");
            compress(&mut state, block);
        }
        let mut tail = [0u8; BLOCK_LEN];
        tail[..prefix.len() - full].copy_from_slice(&prefix[full..]);
        Self {
            state,
            block_bytes: full as u64,
            tail,
            tail_len: prefix.len() - full,
        }
    }

    /// Length of the prefix this midstate encodes.
    pub fn prefix_len(&self) -> u64 {
        self.block_bytes + self.tail_len as u64
    }

    /// Chaining state after the prefix's full blocks (for same-crate reuse
    /// when deriving further per-salt structures without re-absorbing).
    pub(crate) fn state(&self) -> &[u32; 8] {
        &self.state
    }

    /// Prefix bytes not yet absorbed into [`Midstate::state`].
    pub(crate) fn tail(&self) -> &[u8] {
        &self.tail[..self.tail_len]
    }

    /// Digest of `prefix || suffix`.
    pub fn digest_suffix(&self, suffix: &[u8]) -> Digest {
        let mut h = Sha256 {
            state: self.state,
            buffer: self.tail,
            buffer_len: self.tail_len,
            total_len: self.prefix_len(),
        };
        h.update(suffix);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&Sha256::digest(data))
    }

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex_digest(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_digest(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expected = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn incremental_many_small_updates() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i * 7 % 256) as u8).collect();
        let expected = Sha256::digest(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), expected);
    }

    #[test]
    fn digests_differ_for_different_inputs() {
        assert_ne!(Sha256::digest(b"segment:0"), Sha256::digest(b"segment:1"));
    }

    #[test]
    fn block_boundary_lengths() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Just ensure it is internally consistent with a two-step update.
            let mut h2 = Sha256::new();
            let mid = len / 2;
            h2.update(&data[..mid]);
            h2.update(&data[mid..]);
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }

    #[test]
    fn one_block_fast_path_matches_incremental_at_every_length() {
        // 0..=55 take the single-compression path; 56..=70 the general one.
        for len in 0..=70usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(Sha256::digest(&data), h.finalize(), "len {len}");
        }
    }

    #[test]
    fn midstate_matches_direct_hash_for_all_prefix_splits() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let expected = Sha256::digest(&data);
        for split in [0, 1, 23, 24, 55, 56, 63, 64, 65, 127, 128, 129, 300] {
            let midstate = Midstate::new(&data[..split]);
            assert_eq!(midstate.prefix_len(), split as u64);
            assert_eq!(
                midstate.digest_suffix(&data[split..]),
                expected,
                "split {split}"
            );
        }
    }

    #[test]
    fn midstate_is_reusable_across_suffixes() {
        let midstate = Midstate::new(b"per-user salt bytes");
        let d1 = midstate.digest_suffix(b"guess one");
        let d2 = midstate.digest_suffix(b"guess two");
        assert_eq!(d1, Sha256::digest(b"per-user salt bytesguess one"));
        assert_eq!(d2, Sha256::digest(b"per-user salt bytesguess two"));
    }

    #[test]
    fn compress_lanes_agrees_with_scalar_compress() {
        let mut blocks = [[0u8; BLOCK_LEN]; 4];
        for (l, block) in blocks.iter_mut().enumerate() {
            for (i, byte) in block.iter_mut().enumerate() {
                *byte = (l * 67 + i * 31 % 251) as u8;
            }
        }
        let mut lane_states = [H0; 4];
        compress_lanes(
            &mut lane_states,
            [&blocks[0], &blocks[1], &blocks[2], &blocks[3]],
        );
        for l in 0..4 {
            let mut scalar = H0;
            compress(&mut scalar, &blocks[l]);
            assert_eq!(lane_states[l], scalar, "lane {l}");
        }
    }

    #[test]
    fn midstate_debug_does_not_leak_prefix() {
        let midstate = Midstate::new(b"secret salt");
        let dbg = format!("{midstate:?}");
        assert!(dbg.contains("prefix_len"));
        assert!(!dbg.contains("secret"));
    }

    #[test]
    fn debug_does_not_leak_state() {
        let mut h = Sha256::new();
        h.update(b"super secret click points");
        let dbg = format!("{h:?}");
        assert!(dbg.contains("total_len"));
        assert!(!dbg.contains("secret"));
    }
}
