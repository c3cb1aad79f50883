//! Iterated ("stretched") password hashing.
//!
//! Section 3.2 of the paper recommends two hardening measures for the stored
//! hash of the discretized password:
//!
//! 1. a per-user salt ("a user identifier could be added to the hash ... and
//!    also stored in clear-text"), preventing pre-computed dictionaries from
//!    being reused across accounts; and
//! 2. iterated hashing ("using h^1000 effectively adds 10 bits of
//!    security"), multiplying the attacker's per-guess cost.
//!
//! [`PasswordHasher`] packages both together with a domain-separation label
//! so that hashes computed for different purposes (PassPoints vs the
//! networked protocol's proof messages) can never collide.

use crate::ct::ct_eq;
use crate::sha256::{
    compress, compress_lanes, state_to_digest, Digest, Midstate, Sha256, BLOCK_LEN, DIGEST_LEN,
};
#[cfg(target_arch = "x86_64")]
use crate::sha256::{Avx512, ShaNi, K};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_extracti32x4_epi32, _mm512_ror_epi32,
    _mm512_set1_epi32, _mm512_setr_epi32, _mm512_srli_epi32, _mm512_ternarylogic_epi32,
    _mm_extract_epi32, _mm_set_epi32,
};

/// Number of interleaved hash lanes in the lane kernel, and the batch size
/// the batched entry points ([`iterated_hash_many_salted`],
/// [`SaltedHasher::iterated_many_into`]) and the serving layer coalesce to.
///
/// Independent SHA-256 chains interleaved in one compression loop sidestep
/// the serial round-to-round dependency of a single hash: the lane loop
/// bodies are element-wise u32 operations over adjacent memory, which LLVM
/// auto-vectorizes.  16 lanes (one cache line of u32s per schedule round,
/// one zmm register per state word) is the sweet spot of the
/// `micro_primitives` lane sweep.  The portable 16-lane pass costs about
/// 4× one scalar chain, so it is worth padding to.
///
/// Which kernel runs is [`Kernel`]'s rule, by CPUID and group size: every
/// full group of `LANES` chains whose salt fills whole blocks runs as one
/// hand-written AVX-512 pass, one chain per 32-bit lane of a zmm register,
/// where the CPU has it, and the rest runs on SHA-NI where the CPU has
/// that ([`Kernel`] gives the measured times).
pub const LANES: usize = 16;

/// Apply SHA-256 `iterations` times to `salt || message`:
/// `h(salt || h(salt || … h(salt || message)))`.
///
/// `iterations = 1` is a plain salted hash; the paper's example uses 1000.
/// `iterations = 0` is treated as 1 (hashing zero times would store the
/// message in the clear, which is never acceptable) — see
/// [`SaltedHasher::iterated`] for the normative statement of both edge
/// cases.
///
/// One-off convenience for [`SaltedHasher`]; when hashing more than one
/// message under the same salt (verification servers, offline attacks),
/// build the hasher once and reuse it.
///
/// ```
/// use gp_crypto::iterated_hash;
/// let once = iterated_hash(b"salt", b"msg", 1);
/// let thousand = iterated_hash(b"salt", b"msg", 1000);
/// assert_ne!(once, thousand);
/// ```
pub fn iterated_hash(salt: &[u8], message: &[u8], iterations: u32) -> Digest {
    SaltedHasher::new(salt).iterated(message, iterations)
}

/// Batched iterated hashing where every message carries its *own* salt —
/// the authentication-server shape, where concurrent login attempts from
/// different accounts (hence different per-user salts) are coalesced into
/// one multi-lane run.
///
/// Bit-identical to calling [`SaltedHasher::iterated`] per entry (there is
/// an equivalence test), but the rounds of up to [`LANES`] entries are
/// interleaved through the same compression kernels that power
/// [`SaltedHasher::iterated_many_into`].  Every salt [`PasswordHasher`]
/// derives is one 64-byte block, so a batch of them is one group whatever
/// its names' lengths: one compression per round per entry, the digest at
/// offset 0 of the round message.  Entries under any other salt are
/// correct too, but run the portable lane loop.
///
/// `hashers` and `messages` must have equal length.
pub fn iterated_hash_many_salted(
    hashers: &[&SaltedHasher],
    messages: &[&[u8]],
    iterations: u32,
) -> Vec<Digest> {
    let mut out = Vec::new();
    iterated_hash_many_salted_into(hashers, messages, iterations, &mut out);
    out
}

/// [`iterated_hash_many_salted`] writing into a caller-provided buffer, so
/// a steady-state serving loop performs no per-batch output allocation.
pub fn iterated_hash_many_salted_into(
    hashers: &[&SaltedHasher],
    messages: &[&[u8]],
    iterations: u32,
    out: &mut Vec<Digest>,
) {
    Kernel::detect().many_salted_into(hashers, messages, iterations, out);
}

/// Number of chains one SHA-NI pass interleaves.  A lone chain leaves the
/// SHA unit idle between its serially dependent `sha256rnds2`s, and more
/// chains fill those slots until the 16 XMM registers spill.  Measured at
/// h^3000 on a 2-vCPU Xeon (medians of 7 alternating runs), 16 one-block
/// login chains took 2.3 ms at 2 chains per pass, 2.2 ms at 4 and 2.5 ms at
/// 8.  On a CPU with AVX-512 the SHA-NI kernel sees only what is left of a
/// group after its full [`LANES`]-wide passes, so at most 15 chains: 0 to 3
/// passes of four and one narrower pass.
#[cfg(target_arch = "x86_64")]
const SHANI_CHAINS: usize = 4;

/// The compression kernels iterated hashing runs on: which of the CPU's
/// `Avx512` and `ShaNi` detection tokens it holds.  Production entry
/// points hold every token the CPU grants, so only the CPU picks; the
/// other kernels in [`Kernel::available`] exist for the equivalence tests
/// and the `micro_primitives` per-kernel rows.
///
/// The SIMD kernels run one layout only: a salt that fills whole 64-byte
/// blocks (every salt [`PasswordHasher::salt_for`] derives), so that a
/// round is one compression of `digest || padding` from the salt's
/// midstate, the digest at offset 0.  The rule, by CPUID and group size
/// only: every full [`LANES`]-wide group of such chains runs through the
/// register-resident AVX-512 pass when the CPU has AVX-512F and
/// AVX-512VL; the rest of the group runs on SHA-NI, four chains at a time,
/// when the CPU has it, and otherwise on the portable loop (padded to full
/// width, or scalar for 1–3 chains).  Chains under any other salt run the
/// portable loop on every kernel.  Measured at h^3000 on a 2-vCPU Sapphire
/// Rapids Xeon (`micro_primitives` medians), 16 chains take 1.1–1.3 ms on
/// AVX-512 against 2.5–2.9 ms on SHA-NI, whatever their names' lengths,
/// and a lone chain stays on SHA-NI (0.17 ms).  A release-only timing
/// guard asserts the 16-chain side of that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel {
    /// Run full `LANES`-wide groups through `avx512_rounds`.
    #[cfg(target_arch = "x86_64")]
    avx512: Option<Avx512>,
    /// Run the rest through `advance_shani` instead of `advance_lanes`.
    #[cfg(target_arch = "x86_64")]
    shani: Option<ShaNi>,
}

impl Kernel {
    /// The fastest kernel this CPU supports: every token it grants.
    fn detect() -> Self {
        Kernel {
            #[cfg(target_arch = "x86_64")]
            avx512: Avx512::detect(),
            #[cfg(target_arch = "x86_64")]
            shani: ShaNi::detect(),
        }
    }

    /// Every kernel this CPU can run, portable first and the one
    /// production uses last: each subset of the granted tokens.  In
    /// test builds the first call prints which kernels run, so a test log
    /// shows what a CPU without SHA-NI or AVX-512 skipped.
    pub fn available() -> Vec<Self> {
        let detected = Kernel::detect();
        let mut kernels = Vec::new();
        #[cfg(not(target_arch = "x86_64"))]
        kernels.push(detected);
        #[cfg(target_arch = "x86_64")]
        for shani in [None, detected.shani] {
            for avx512 in [None, detected.avx512] {
                let kernel = Kernel { avx512, shani };
                if !kernels.contains(&kernel) {
                    kernels.push(kernel);
                }
            }
        }
        #[cfg(test)]
        {
            static NOTICE: std::sync::Once = std::sync::Once::new();
            NOTICE.call_once(|| {
                let names: Vec<&str> = kernels.iter().map(Kernel::name).collect();
                println!(
                    "notice: testing kernels {}; detected {}",
                    names.join(", "),
                    detected.name()
                );
            });
        }
        kernels
    }

    /// `portable`, `avx512`, `sha-ni` or `sha-ni+avx512`.
    pub fn name(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        match (self.shani.is_some(), self.avx512.is_some()) {
            (false, false) => "portable",
            (false, true) => "avx512",
            (true, false) => "sha-ni",
            (true, true) => "sha-ni+avx512",
        }
        #[cfg(not(target_arch = "x86_64"))]
        "portable"
    }

    /// [`iterated_hash_many_salted_into`] on this kernel.
    pub fn many_salted_into(
        self,
        hashers: &[&SaltedHasher],
        messages: &[&[u8]],
        iterations: u32,
        out: &mut Vec<Digest>,
    ) {
        assert_eq!(
            hashers.len(),
            messages.len(),
            "one salted hasher per message"
        );
        let rounds = iterations.max(1);
        out.clear();
        out.extend(
            hashers
                .iter()
                .zip(messages)
                .map(|(h, m)| h.first.digest_suffix(m)),
        );
        if rounds == 1 {
            return;
        }
        let (aligned, other): (Vec<usize>, Vec<usize>) =
            (0..hashers.len()).partition(|&i| hashers[i].template.aligned());
        for group in [aligned, other] {
            advance_group(self, |i| &hashers[i].template, &group, rounds, out);
        }
    }
}

/// Advance `out[i]` by `rounds - 1` salted rounds under `template(i)` for
/// every `i` in `group`; either every entry of `group` is
/// [`RoundTemplate::aligned`] or none is.  Every iterated-hash entry point
/// funnels through here, and here alone [`Kernel`]'s dispatch rule is
/// applied: an aligned group's full [`LANES`]-wide chunks go to
/// [`avx512_rounds`] under an `Avx512` token and the rest to
/// [`advance_shani`] under a `ShaNi` token; everything else goes to
/// [`advance_lanes`].
#[allow(unsafe_code)]
fn advance_group<'t>(
    kernel: Kernel,
    template: impl Fn(usize) -> &'t RoundTemplate,
    group: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    #[cfg(target_arch = "x86_64")]
    if group.first().is_some_and(|&i| template(i).aligned()) {
        let (full, rest) = match kernel.avx512 {
            Some(Avx512 { .. }) => group.split_at(group.len() / LANES * LANES),
            None => group.split_at(0),
        };
        // SAFETY: `full` is non-empty only under an `Avx512` token, which
        // exists only if `Avx512::detect` saw avx512f and avx512vl, and
        // `advance_shani` runs only under a `ShaNi` token, which exists only
        // if `ShaNi::detect` saw sha, sse2, ssse3, sse4.1 and avx: the
        // features the two callees enable.
        // gp-lint: allow(L3, the target-feature calls; their Avx512 and ShaNi tokens prove the CPUID checks passed)
        unsafe {
            for lanes in full.chunks_exact(LANES) {
                avx512_rounds(&template, lanes, rounds, out);
            }
            match kernel.shani {
                Some(ShaNi { .. }) => advance_shani(&template, rest, rounds, out),
                None => advance_lanes(&template, rest, rounds, out),
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let Kernel {} = kernel;
    advance_lanes(&template, group, rounds, out);
}

/// The SHA-NI half of [`advance_group`]: aligned chains in interleaved
/// groups of [`SHANI_CHAINS`], the remainder as one narrower group.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1,avx")]
fn advance_shani<'t>(
    template: &impl Fn(usize) -> &'t RoundTemplate,
    group: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    let mut chunks = group.chunks_exact(SHANI_CHAINS);
    for chains in chunks.by_ref() {
        shani_rounds::<SHANI_CHAINS>(template, chains, rounds, out);
    }
    let tail = chunks.remainder();
    match tail.len() {
        0 => {}
        1 => shani_rounds::<1>(template, tail, rounds, out),
        2 => shani_rounds::<2>(template, tail, rounds, out),
        _ => shani_rounds::<3>(template, tail, rounds, out),
    }
}

/// Where the SHA-NI state registers keep the state words `a..h`: register
/// (0 = ABEF, 1 = CDGH) and 32-bit lane.
#[cfg(target_arch = "x86_64")]
const SHANI_LANES: [(usize, usize); 8] = [
    (0, 3),
    (0, 2),
    (1, 3),
    (1, 2),
    (0, 1),
    (0, 0),
    (1, 1),
    (1, 0),
];

/// A chaining state as its SHA-NI (ABEF, CDGH) register pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn shani_state(state: &[u32; 8]) -> [__m128i; 2] {
    let mut lanes = [[0i32; 4]; 2];
    for (&word, &(register, lane)) in state.iter().zip(&SHANI_LANES) {
        lanes[register][lane] = word as i32;
    }
    lanes.map(|[l0, l1, l2, l3]| _mm_set_epi32(l3, l2, l1, l0))
}

/// The chaining state held in a SHA-NI (ABEF, CDGH) register pair.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
fn shani_words(registers: [__m128i; 2]) -> [u32; 8] {
    let lanes = registers.map(|r| {
        [
            _mm_extract_epi32::<0>(r),
            _mm_extract_epi32::<1>(r),
            _mm_extract_epi32::<2>(r),
            _mm_extract_epi32::<3>(r),
        ]
    });
    SHANI_LANES.map(|(register, lane)| lanes[register][lane] as u32)
}

/// `N` aligned chains advanced `rounds - 1` rounds together with the x86
/// SHA extensions, the round loops interleaved across chains.
///
/// Each chain's state stays in its ABEF/CDGH registers for every round.
/// A round's message words 0–7 are the previous round's fed-forward state
/// `a..h`, lifted out of the pair by one fixed permutation
/// (`pshufd(punpck{h,l}qdq(abef, cdgh))`), and words 8–15 are the chain's
/// constant padding and length words, so digests touch memory only on
/// entry and exit, built with `_mm_set_epi32` and read back with
/// `_mm_extract_epi32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1,avx")]
fn shani_rounds<'t, const N: usize>(
    template: &impl Fn(usize) -> &'t RoundTemplate,
    chains: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    use core::arch::x86_64::{
        _mm256_zeroupper, _mm_add_epi32, _mm_alignr_epi8, _mm_setzero_si128, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi64,
    };
    debug_assert_eq!(chains.len(), N);
    let midstates: [[__m128i; 2]; N] =
        core::array::from_fn(|l| shani_state(&template(chains[l]).initial_state));
    let padding: [[__m128i; 2]; N] = core::array::from_fn(|l| {
        let [w8, w9, w10, w11, w12, w13, w14, w15] =
            template(chains[l]).padding_words().map(|w| w as i32);
        [
            _mm_set_epi32(w11, w10, w9, w8),
            _mm_set_epi32(w15, w14, w13, w12),
        ]
    });
    let digests: [[__m128i; 2]; N] = core::array::from_fn(|l| {
        let d = &out[chains[l]];
        shani_state(&core::array::from_fn(|w| {
            u32::from_be_bytes([d[4 * w], d[4 * w + 1], d[4 * w + 2], d[4 * w + 3]])
        }))
    });

    // The sha256* instructions exist only in legacy-SSE encoding, which
    // runs ~100x slower while a 256-bit op has left the upper register
    // halves dirty.  LLVM builds the entry registers with 256-bit ops and
    // sinks them past a bare `vzeroupper`; `black_box` pins them before
    // it.  The loop is plain loops over register arrays, without closures,
    // so it compiles to xmm registers only (no ymm/zmm between the
    // `vzeroupper` and the loop's end in the disassembly).
    let mut digests = core::hint::black_box(digests);
    _mm256_zeroupper();
    for _ in 1..rounds {
        // Message registers, oldest first: `w[l][0]` feeds the next two
        // `sha256rnds2`, then the four rotate down by one.  The digest's
        // words `a, b, c, d` sit in lanes 3, 2 of ABEF and CDGH, and
        // `e, f, g, h` in lanes 1, 0: the unpacks pair them up and the
        // shuffle swaps each pair.
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for l in 0..N {
            let [abef, cdgh] = digests[l];
            w[l] = [
                _mm_shuffle_epi32::<0xB1>(_mm_unpackhi_epi64(abef, cdgh)),
                _mm_shuffle_epi32::<0xB1>(_mm_unpacklo_epi64(abef, cdgh)),
                padding[l][0],
                padding[l][1],
            ];
        }
        let mut states = midstates;
        for quad in 0..16 {
            let k = _mm_set_epi32(
                K[4 * quad + 3] as i32,
                K[4 * quad + 2] as i32,
                K[4 * quad + 1] as i32,
                K[4 * quad] as i32,
            );
            for l in 0..N {
                let [w0, w1, w2, w3] = w[l];
                // From quad 4 on, W[t..t+4] replaces W[t-16..t-12].
                let next = if quad < 4 {
                    w0
                } else {
                    _mm_sha256msg2_epu32(
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
                        w3,
                    )
                };
                let wk = _mm_add_epi32(next, k);
                let [abef, cdgh] = &mut states[l];
                *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
                *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                w[l] = [w1, w2, w3, next];
            }
        }
        for l in 0..N {
            digests[l] = [
                _mm_add_epi32(states[l][0], midstates[l][0]),
                _mm_add_epi32(states[l][1], midstates[l][1]),
            ];
        }
    }

    for (&digest, &i) in digests.iter().zip(chains) {
        out[i] = state_to_digest(&shani_words(digest));
    }
}

/// The portable half of [`advance_group`]: full [`LANES`]-wide passes of
/// the lane loop as the build compiled it, then the remainder, padded to
/// full width or scalar.  It runs every chain under a salt that does not
/// fill whole blocks, and the aligned chains a CPU without SHA-NI leaves
/// after its AVX-512 passes.
fn advance_lanes<'t>(
    template: &impl Fn(usize) -> &'t RoundTemplate,
    group: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    let mut chunks = group.chunks_exact(LANES);
    for lane_indices in chunks.by_ref() {
        run_salted_lanes::<LANES>(template, lane_indices, rounds, out);
    }
    // Run the tail through a *padded* lane pass instead of falling back
    // to one scalar chain per entry.  Measured at h^3000 on a 2-vCPU Xeon
    // (x86-64-v3 build), a scalar chain costs ~0.3x of a full-width pass,
    // so tails of 1-3 stay scalar and anything larger pads to full width.
    // A narrower 4-lane pass is no cheaper: it measured 1.3-1.5x of the
    // padded full-width pass.
    let tail = chunks.remainder();
    match tail.len() {
        0 => {}
        1..=3 => {
            for &i in tail {
                let mut round = *template(i);
                let mut digest = out[i];
                for _ in 1..rounds {
                    digest = round.advance(&digest);
                }
                out[i] = digest;
            }
        }
        _ => run_salted_lanes::<LANES>(template, tail, rounds, out),
    }
}

/// Sixteen `u32`s as the lanes of one register, lane 0 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_vector(words: [u32; LANES]) -> __m512i {
    let [w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15] =
        words.map(|w| w as i32);
    _mm512_setr_epi32(
        w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15,
    )
}

/// The sixteen `u32` lanes of one register, lane 0 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn vector_lanes(v: __m512i) -> [u32; LANES] {
    let quarters = [
        _mm512_extracti32x4_epi32::<0>(v),
        _mm512_extracti32x4_epi32::<1>(v),
        _mm512_extracti32x4_epi32::<2>(v),
        _mm512_extracti32x4_epi32::<3>(v),
    ];
    let mut words = [0; LANES];
    for (four, quarter) in words.chunks_exact_mut(4).zip(quarters) {
        four[0] = _mm_extract_epi32::<0>(quarter) as u32;
        four[1] = _mm_extract_epi32::<1>(quarter) as u32;
        four[2] = _mm_extract_epi32::<2>(quarter) as u32;
        four[3] = _mm_extract_epi32::<3>(quarter) as u32;
    }
    words
}

/// `$body` once for each `$i` in `0..16`, every copy with its own
/// constant.  The AVX-512 kernel indexes register arrays by `$i`, and a
/// loop the compiler left rolled would move those arrays to the stack.
#[cfg(target_arch = "x86_64")]
macro_rules! unroll16 {
    ($i:ident => $body:block) => {
        unroll16!(@ $i $body [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15])
    };
    (@ $i:ident $body:block [$($n:literal)*]) => {
        $({
            let $i: usize = $n;
            $body
        })*
    };
}

/// One SHA-256 compression of sixteen lanes, feed-forward included:
/// `$start` is the chaining state and `$w` the block's sixteen message
/// words, which the schedule then overwrites as a rolling window.  A macro,
/// not a function: a target-feature function cannot be `#[inline(always)]`,
/// and the compiler kept a function version out of line, passing state and
/// words through the stack every block (about 10% slower at h^3000).
#[cfg(target_arch = "x86_64")]
macro_rules! compress_avx512 {
    ($start:expr, $w:expr) => {{
        let start: [__m512i; 8] = $start;
        let mut w: [__m512i; 16] = $w;
        let mut state = start;
        for i in 0..4 {
            unroll16!(j => {
                if i > 0 {
                    let (w15, w2) = (w[(j + 1) % 16], w[(j + 14) % 16]);
                    let s0 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<7>(w15),
                        _mm512_ror_epi32::<18>(w15),
                        _mm512_srli_epi32::<3>(w15),
                    );
                    let s1 = _mm512_ternarylogic_epi32::<0x96>(
                        _mm512_ror_epi32::<17>(w2),
                        _mm512_ror_epi32::<19>(w2),
                        _mm512_srli_epi32::<10>(w2),
                    );
                    w[j] = _mm512_add_epi32(
                        _mm512_add_epi32(w[j], s0),
                        _mm512_add_epi32(w[(j + 9) % 16], s1),
                    );
                }
                let wk = _mm512_add_epi32(w[j], _mm512_set1_epi32(K[16 * i + j] as i32));
                state = sha256_round(state, wk);
            });
        }
        let out: [__m512i; 8] = core::array::from_fn(|i| _mm512_add_epi32(start[i], state[i]));
        out
    }};
}

/// One full [`LANES`]-wide group of aligned chains advanced `rounds - 1`
/// rounds with AVX-512, one chain per 32-bit lane.
///
/// The eight chaining-state words of the sixteen chains stay in eight zmm
/// registers for every round, and they are the round's message words 0–7
/// as they stand; words 8–15 are the per-lane padding and length words,
/// and the feed-forward adds the per-lane midstates.  The rotates are
/// `vprold`, and σ, Σ, Ch and Maj one `vpternlogd` each.  Digests touch
/// memory only on entry and exit, built with `_mm512_setr_epi32` and read
/// back with extracts.
///
/// The compiler ends the function with a `vzeroupper`, and the SHA-NI loop
/// that may run next issues its own before its rounds; the release-only
/// cliff test times a SHA-NI chain right after this pass, so upper
/// register state that slipped past both would show.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn avx512_rounds<'t>(
    template: &impl Fn(usize) -> &'t RoundTemplate,
    lanes: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    let lanes: &[usize; LANES] = lanes.try_into().expect("one full lane group");
    let templates = lanes.map(template);
    let midstate: [__m512i; 8] =
        core::array::from_fn(|w| lane_vector(templates.map(|t| t.initial_state[w])));
    let padding = templates.map(RoundTemplate::padding_words);
    let [k8, k9, k10, k11, k12, k13, k14, k15] =
        core::array::from_fn(|j| lane_vector(padding.map(|p| p[j])));
    let mut digest: [__m512i; 8] = core::array::from_fn(|w| {
        lane_vector(lanes.map(|i| {
            let d = &out[i];
            u32::from_be_bytes([d[4 * w], d[4 * w + 1], d[4 * w + 2], d[4 * w + 3]])
        }))
    });
    for _ in 1..rounds {
        let [d0, d1, d2, d3, d4, d5, d6, d7] = digest;
        digest = compress_avx512!(
            midstate,
            [d0, d1, d2, d3, d4, d5, d6, d7, k8, k9, k10, k11, k12, k13, k14, k15]
        );
    }
    let words = digest.map(|v| vector_lanes(v));
    for (l, &i) in lanes.iter().enumerate() {
        out[i] = state_to_digest(&words.map(|w| w[l]));
    }
}

/// One SHA-256 round of sixteen lanes; `wk` is the round's message word
/// plus its constant.  The `vpternlogd` truth tables: `0x96` is
/// `a ^ b ^ c` (Σ0, Σ1), `0xCA` is `a ? b : c` (Ch) and `0xE8` the
/// majority (Maj).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn sha256_round(state: [__m512i; 8], wk: __m512i) -> [__m512i; 8] {
    let [a, b, c, d, e, f, g, h] = state;
    let big_sigma1 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    );
    let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
    let t1 = _mm512_add_epi32(_mm512_add_epi32(h, big_sigma1), _mm512_add_epi32(ch, wk));
    let big_sigma0 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    );
    let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
    let t2 = _mm512_add_epi32(big_sigma0, maj);
    let (new_a, new_e) = (_mm512_add_epi32(t1, t2), _mm512_add_epi32(d, t1));
    [new_a, a, b, c, new_e, e, f, g]
}

/// One interleaved pass of up to `L` entries through the lane compressor.
/// Unlike the shared-salt kernel, each lane carries its own salt tail,
/// digest offset, initial state and block count: every lane compresses as
/// many blocks as the longest, and a lane whose round is shorter takes its
/// digest after its own last block.
///
/// `lane_indices` may hold fewer than `L` entries: spare lanes are padded
/// with copies of the first entry's template and digest chain, so they
/// redundantly recompute entry 0 and their results are discarded.  Padding
/// keeps the pass at one lane-kernel run regardless of fill — the whole
/// point, since `L` scalar chains cost far more than one mostly-idle
/// vectorized pass.  Always inlined, like the lane loop inside it: left to
/// the compiler, both stay out of line, and the portable 16-chain rows of
/// `micro_primitives` at h^3000 ran 5-20% slower (medians of six runs).
#[inline(always)]
fn run_salted_lanes<'t, const L: usize>(
    template: &impl Fn(usize) -> &'t RoundTemplate,
    lane_indices: &[usize],
    rounds: u32,
    out: &mut [Digest],
) {
    debug_assert!(!lane_indices.is_empty() && lane_indices.len() <= L);
    // Pad lanes mirror entry 0: they read its digest slot each round
    // (before any lane writes back) and never write their own.
    let entry = |l: usize| lane_indices[if l < lane_indices.len() { l } else { 0 }];
    let mut templates: [RoundTemplate; L] = core::array::from_fn(|l| *template(entry(l)));
    let blocks = templates.iter().map(|t| t.blocks).max().unwrap_or(1);
    for _ in 1..rounds {
        for (l, t) in templates.iter_mut().enumerate() {
            t.set_digest(&out[entry(l)]);
        }
        let mut states: [[u32; 8]; L] = core::array::from_fn(|l| templates[l].initial_state);
        for b in 0..blocks {
            compress_lanes(&mut states, core::array::from_fn(|l| templates[l].block(b)));
            for (l, &i) in lane_indices.iter().enumerate() {
                if templates[l].blocks == b + 1 {
                    out[i] = state_to_digest(&states[l]);
                }
            }
        }
    }
}

/// Reference implementation of [`iterated_hash`]: a fresh incremental
/// hasher per round, exactly as the seed version of this crate computed it.
///
/// Kept (and exercised by the equivalence proptests) as the specification
/// the optimized one-shot/midstate/multi-lane paths must match, and as the
/// baseline the `micro_primitives` benches measure speedups against.
pub fn iterated_hash_reference(salt: &[u8], message: &[u8], iterations: u32) -> Digest {
    let rounds = iterations.max(1);
    let mut h = Sha256::new();
    h.update(salt);
    h.update(message);
    let mut digest = h.finalize();
    for _ in 1..rounds {
        let mut h = Sha256::new();
        h.update(salt);
        h.update(&digest);
        digest = h.finalize();
    }
    digest
}

/// Upper bound on a round's padded message: the salt tail is at most 63
/// bytes, so `tail || digest || 0x80 || zeros || length` is at most
/// `63 + 32 + 9 = 104` bytes, padded to two blocks.
const ROUND_BUF_LEN: usize = 2 * BLOCK_LEN;

/// Precomputed per-round layout for iterated hashing under a fixed salt.
///
/// Every round after the first hashes `salt || digest` where only the
/// 32-byte digest changes, so the whole padded message — salt remainder,
/// digest slot, 0x80 terminator, zeros, bit length — is laid out once.
/// Advancing a round is then: overwrite the digest slot, reset the state to
/// the precomputed midstate, and run one compression per remaining block:
/// exactly one for a salt that fills whole blocks (the digest at offset 0)
/// or whose tail is at most 23 bytes, two otherwise.
#[derive(Clone, Copy)]
struct RoundTemplate {
    /// `H0` advanced over the salt's full 64-byte blocks (paid once).
    initial_state: [u32; 8],
    /// The remaining padded blocks: `salt_tail || digest slot || padding`.
    /// Fixed-size so templates are plain stack values — copying one per
    /// guess loop costs no heap allocation.
    buffer: [u8; ROUND_BUF_LEN],
    /// Valid 64-byte blocks in `buffer` (1 for salts ≤ 23 bytes mod 64,
    /// else 2).
    blocks: usize,
    /// Offset of the 32-byte digest slot in `buffer` (= `salt.len() % 64`).
    digest_offset: usize,
}

impl RoundTemplate {
    /// Build from an already-computed salt [`Midstate`], so the salt's full
    /// blocks are absorbed exactly once per [`SaltedHasher`].
    fn from_midstate(midstate: &Midstate) -> Self {
        let initial_state = *midstate.state();
        let tail = midstate.tail();
        let content_len = tail.len() + DIGEST_LEN;
        // Merkle–Damgård padding: 0x80, zeros, 8-byte big-endian bit length
        // of the *whole* message (salt || digest).
        let padded_len = (content_len + 1 + 8).div_ceil(BLOCK_LEN) * BLOCK_LEN;
        let mut buffer = [0u8; ROUND_BUF_LEN];
        buffer[..tail.len()].copy_from_slice(tail);
        buffer[content_len] = 0x80;
        let total_bits = (midstate.prefix_len() + DIGEST_LEN as u64) * 8;
        buffer[padded_len - 8..padded_len].copy_from_slice(&total_bits.to_be_bytes());
        Self {
            initial_state,
            buffer,
            blocks: padded_len / BLOCK_LEN,
            digest_offset: tail.len(),
        }
    }

    /// Whether the salt fills whole blocks, so a round is one compression
    /// of `digest || padding` from the midstate: the one layout the SIMD
    /// kernels run.
    fn aligned(&self) -> bool {
        self.digest_offset == 0
    }

    /// Message words 8–15 of an aligned round: the 0x80 terminator, zeros
    /// and the bit length.
    fn padding_words(&self) -> [u32; 8] {
        core::array::from_fn(|j| {
            let at = DIGEST_LEN + 4 * j;
            u32::from_be_bytes(self.buffer[at..at + 4].try_into().expect("one word"))
        })
    }

    /// Write the previous round's digest into the digest slot.
    fn set_digest(&mut self, digest: &Digest) {
        self.buffer[self.digest_offset..self.digest_offset + DIGEST_LEN].copy_from_slice(digest);
    }

    /// Padded block `b` of the round message.
    fn block(&self, b: usize) -> &[u8; BLOCK_LEN] {
        self.buffer[b * BLOCK_LEN..(b + 1) * BLOCK_LEN]
            .try_into()
            .expect("exact block")
    }

    /// One round: `h(salt || digest)`.
    fn advance(&mut self, digest: &Digest) -> Digest {
        self.set_digest(digest);
        let mut state = self.initial_state;
        for b in 0..self.blocks {
            compress(&mut state, self.block(b));
        }
        state_to_digest(&state)
    }
}

/// Iterated salted hashing with the per-salt work hoisted out of the loop.
///
/// Construction precomputes a [`Midstate`] for the first absorption of
/// `salt || message` and a `RoundTemplate` for the `salt || digest`
/// rounds.  The hasher is cheap to clone and immutable in use, so a
/// verification server can build one per account and reuse it across login
/// attempts, and an attacker (our simulated one, anyway) builds one per
/// target.
#[derive(Clone)]
pub struct SaltedHasher {
    first: Midstate,
    template: RoundTemplate,
}

impl core::fmt::Debug for SaltedHasher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SaltedHasher")
            .field("salt_len", &self.first.prefix_len())
            .finish_non_exhaustive()
    }
}

impl SaltedHasher {
    /// Precompute the salt-dependent state (the salt's full blocks are
    /// absorbed once and shared by the first-round midstate and the
    /// per-round template).
    pub fn new(salt: &[u8]) -> Self {
        let first = Midstate::new(salt);
        let template = RoundTemplate::from_midstate(&first);
        Self { first, template }
    }

    /// Apply SHA-256 `iterations` times to `salt || message`.
    ///
    /// Edge semantics (normative, tested):
    ///
    /// * `iterations == 0` clamps to 1 — a zero-round hash would store the
    ///   message in the clear, which is never acceptable;
    /// * an empty salt is a valid (if inadvisable) configuration: rounds
    ///   hash the bare 32-byte digest, which still fits the one-block fast
    ///   path.
    pub fn iterated(&self, message: &[u8], iterations: u32) -> Digest {
        self.iterated_on(Kernel::detect(), message, iterations)
    }

    /// The body of [`SaltedHasher::iterated`] on a given kernel.
    fn iterated_on(&self, kernel: Kernel, message: &[u8], iterations: u32) -> Digest {
        let mut digest = [self.first.digest_suffix(message)];
        advance_group(
            kernel,
            |_| &self.template,
            &[0],
            iterations.max(1),
            &mut digest,
        );
        digest[0]
    }

    /// Batched [`SaltedHasher::iterated`] over independent messages,
    /// writing into a caller-provided buffer, so a steady-state guess loop
    /// performs no allocation.
    pub fn iterated_many_into(&self, messages: &[&[u8]], iterations: u32, out: &mut Vec<Digest>) {
        self.iterated_many_into_on(Kernel::detect(), messages, iterations, out);
    }

    /// The body of [`SaltedHasher::iterated_many_into`] on a given kernel:
    /// [`LANES`] messages at a time, so the index list lives on the stack.
    fn iterated_many_into_on(
        &self,
        kernel: Kernel,
        messages: &[&[u8]],
        iterations: u32,
        out: &mut Vec<Digest>,
    ) {
        let rounds = iterations.max(1);
        out.clear();
        out.extend(messages.iter().map(|m| self.first.digest_suffix(m)));
        let indices: [usize; LANES] = core::array::from_fn(|i| i);
        for chunk in out.chunks_mut(LANES) {
            let group = &indices[..chunk.len()];
            advance_group(kernel, |_| &self.template, group, rounds, chunk);
        }
    }

    /// The portable kernel at a chosen lane count `L` — the lane sweep
    /// the `micro_primitives` bench runs (2/4/8/16).  Production callers
    /// use [`SaltedHasher::iterated_many_into`], which picks the kernel by
    /// CPU.
    pub fn iterated_many_lanes_into<const L: usize>(
        &self,
        messages: &[&[u8]],
        iterations: u32,
        out: &mut Vec<Digest>,
    ) {
        assert!(L > 0, "at least one lane");
        let rounds = iterations.max(1);
        out.clear();
        out.extend(messages.iter().map(|m| self.first.digest_suffix(m)));
        if rounds == 1 {
            return;
        }

        // Each lane mutates only the digest slot of its own template copy;
        // templates are stack values allocated once for the whole batch.
        let mut templates = [self.template; L];
        let mut chunks = out.chunks_exact_mut(L);
        for lane_digests in chunks.by_ref() {
            for _ in 1..rounds {
                let mut states = [self.template.initial_state; L];
                for (t, digest) in templates.iter_mut().zip(lane_digests.iter()) {
                    t.set_digest(digest);
                }
                for b in 0..self.template.blocks {
                    compress_lanes(&mut states, core::array::from_fn(|l| templates[l].block(b)));
                }
                for (digest, state) in lane_digests.iter_mut().zip(&states) {
                    *digest = state_to_digest(state);
                }
            }
        }
        // Remainder lanes (fewer than L messages left) run the scalar path.
        for digest in chunks.into_remainder() {
            let mut template = self.template;
            let mut d = *digest;
            for _ in 1..rounds {
                d = template.advance(&d);
            }
            *digest = d;
        }
    }
}

/// A finished password hash together with the parameters needed to verify
/// it.  The salt and iteration count are public; only the pre-image (the
/// discretized password) is secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordHash {
    /// Per-user salt stored in the clear.
    pub salt: Vec<u8>,
    /// Number of hash iterations applied.
    pub iterations: u32,
    /// The resulting digest.
    pub digest: Digest,
}

impl PasswordHash {
    /// Verify `message` against this hash in constant time.
    pub fn verify(&self, message: &[u8]) -> bool {
        let candidate = iterated_hash(&self.salt, message, self.iterations);
        ct_eq(&candidate, &self.digest)
    }
}

/// Policy object describing how passwords are hashed: domain label, salt
/// construction and iteration count.
///
/// ```
/// use gp_crypto::PasswordHasher;
///
/// let hasher = PasswordHasher::new("passpoints", 1000);
/// let stored = hasher.hash(b"alice", b"discretized password bytes");
/// assert!(stored.verify_with(&hasher, b"alice", b"discretized password bytes"));
/// assert!(!stored.verify_with(&hasher, b"alice", b"wrong guess"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordHasher {
    /// Domain-separation label mixed into every salt.
    pub domain: String,
    /// Iteration count (the paper's example: 1000).
    pub iterations: u32,
}

impl PasswordHasher {
    /// Default iteration count used throughout the repository, matching the
    /// paper's `h^1000` example.
    pub const DEFAULT_ITERATIONS: u32 = 1000;

    /// Create a hasher with an explicit iteration count.
    pub fn new(domain: impl Into<String>, iterations: u32) -> Self {
        Self {
            domain: domain.into(),
            iterations: iterations.max(1),
        }
    }

    /// Create a hasher with [`Self::DEFAULT_ITERATIONS`].
    pub fn with_default_iterations(domain: impl Into<String>) -> Self {
        Self::new(domain, Self::DEFAULT_ITERATIONS)
    }

    /// Build the salt for a given user identifier.
    ///
    /// The salt is one 64-byte block, `SHA-256(domain || 0x1f || user_id)
    /// || 0^32`: the paper's user-identifier salt, personalized by the
    /// domain and stored in the clear alongside the hash.  A salt of one
    /// whole block is absorbed into a midstate once per account, so every
    /// round after the first hashes `digest || padding` in one compression,
    /// the digest at offset 0, whatever the length of the name.
    pub fn salt_for(&self, user_id: &[u8]) -> Vec<u8> {
        Self::salt_in(&self.domain, user_id)
    }

    /// [`PasswordHasher::salt_for`] under `domain`, for callers that know
    /// the domain but hold no hasher (a store deriving the salts it does
    /// not keep).
    pub fn salt_in(domain: &str, user_id: &[u8]) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(domain.as_bytes());
        h.update(&[0x1f]);
        h.update(user_id);
        let mut salt = vec![0; BLOCK_LEN];
        salt[..DIGEST_LEN].copy_from_slice(&h.finalize());
        salt
    }

    /// Hash `message` for user `user_id`.
    pub fn hash(&self, user_id: &[u8], message: &[u8]) -> PasswordHash {
        let salt = self.salt_for(user_id);
        let digest = iterated_hash(&salt, message, self.iterations);
        PasswordHash {
            salt,
            iterations: self.iterations,
            digest,
        }
    }
}

impl PasswordHash {
    /// Verify that this hash was produced by `hasher` for `user_id` and
    /// `message`.  Checks the salt and iteration count as well as the digest.
    pub fn verify_with(&self, hasher: &PasswordHasher, user_id: &[u8], message: &[u8]) -> bool {
        self.iterations == hasher.iterations
            && self.salt == hasher.salt_for(user_id)
            && self.verify(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_iterations_treated_as_one() {
        assert_eq!(iterated_hash(b"s", b"m", 0), iterated_hash(b"s", b"m", 1));
        // The clamp holds on every code path: reference, scalar fast path,
        // and the batched lanes.
        assert_eq!(
            iterated_hash_reference(b"s", b"m", 0),
            iterated_hash(b"s", b"m", 0)
        );
        let mut out = Vec::new();
        SaltedHasher::new(b"s").iterated_many_into(&[b"m"], 0, &mut out);
        assert_eq!(out, vec![iterated_hash(b"s", b"m", 1)]);
        assert_eq!(
            iterated_hash_many_salted(&[&SaltedHasher::new(b"s")], &[b"m"], 0),
            out
        );
    }

    #[test]
    fn empty_salt_takes_the_one_block_path_and_matches_reference() {
        let hasher = SaltedHasher::new(b"");
        assert!(
            hasher.template.aligned() && hasher.template.blocks == 1,
            "empty salt must be one-shot"
        );
        for iterations in [0u32, 1, 2, 7, 100] {
            assert_eq!(
                hasher.iterated(b"message", iterations),
                iterated_hash_reference(b"", b"message", iterations),
                "iterations {iterations}"
            );
        }
        // And the first round with an empty message too.
        assert_eq!(
            iterated_hash(b"", b"", 3),
            iterated_hash_reference(b"", b"", 3)
        );
    }

    #[test]
    fn optimized_matches_reference_across_salt_length_regimes() {
        // 23 is the one-block boundary, 64 the full-block boundary, 87 the
        // two-block boundary; probe each side of all three.
        let message = b"a discretized password pre-image that spans multiple blocks....";
        for salt_len in [0usize, 1, 22, 23, 24, 55, 63, 64, 65, 87, 88, 128, 200] {
            let salt: Vec<u8> = (0..salt_len).map(|i| (i * 7 % 251) as u8).collect();
            let hasher = SaltedHasher::new(&salt);
            let expected_blocks = (salt_len % 64 + DIGEST_LEN + 9).div_ceil(64);
            assert_eq!(hasher.template.blocks, expected_blocks, "salt {salt_len}");
            for iterations in [1u32, 2, 3, 50] {
                assert_eq!(
                    hasher.iterated(message, iterations),
                    iterated_hash_reference(&salt, message, iterations),
                    "salt {salt_len}, iterations {iterations}"
                );
            }
        }
    }

    /// Deterministic test bytes (splitmix64).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn kernels_match_scalar_round_at_every_width() {
        // One round from random states over random round messages: each
        // kernel must equal the scalar `RoundTemplate::advance`.  Aligned
        // groups of 1-17 chains reach every SHA-NI width the build
        // instantiates (1-4), one full AVX-512 pass (16) and a pass with a
        // one-chain remainder (17).  Groups at digest offsets 1-63, one-
        // and two-block rounds side by side, run the portable lanes on
        // every kernel.  The random bytes under the digest slot must not
        // leak into the round.
        for kernel in Kernel::available() {
            for n in 1..=LANES + 1 {
                for first in [0usize, 1, 23, 24, 40, 63] {
                    let seed = (first * 100 + n) as u64;
                    let templates: Vec<RoundTemplate> = (0..n)
                        .map(|i| {
                            let digest_offset = match first {
                                0 => 0,
                                _ => (first + 7 * i) % 63 + 1,
                            };
                            let bytes = noise(seed * 100 + i as u64, 32 + ROUND_BUF_LEN);
                            RoundTemplate {
                                initial_state: core::array::from_fn(|w| {
                                    u32::from_be_bytes(bytes[4 * w..4 * w + 4].try_into().unwrap())
                                }),
                                buffer: bytes[32..].try_into().unwrap(),
                                blocks: (digest_offset + DIGEST_LEN + 9).div_ceil(BLOCK_LEN),
                                digest_offset,
                            }
                        })
                        .collect();
                    let mut digests: Vec<Digest> = (0..n)
                        .map(|i| {
                            noise(seed * 1000 + i as u64, DIGEST_LEN)
                                .try_into()
                                .unwrap()
                        })
                        .collect();
                    let expected: Vec<Digest> = templates
                        .iter()
                        .zip(&digests)
                        .map(|(t, d)| t.clone().advance(d))
                        .collect();
                    let group: Vec<usize> = (0..n).collect();
                    advance_group(kernel, |i| &templates[i], &group, 2, &mut digests);
                    assert_eq!(
                        digests, expected,
                        "{kernel:?}, {n} chains, first offset {first}"
                    );
                }
            }
        }
    }

    #[test]
    fn many_matches_scalar_for_every_batch_size() {
        let salt = &PasswordHasher::new("gp-passwords/v2", 1).salt_for(b"alice");
        let hasher = SaltedHasher::new(salt);
        let messages: Vec<Vec<u8>> = (0..35)
            .map(|i| (0..40 + i).map(|j| ((i * 91 + j) % 251) as u8).collect())
            .collect();
        let mut batched = Vec::new();
        for kernel in Kernel::available() {
            for count in 0..=messages.len() {
                let refs: Vec<&[u8]> = messages[..count].iter().map(Vec::as_slice).collect();
                hasher.iterated_many_into_on(kernel, &refs, 37, &mut batched);
                let scalar: Vec<_> = refs
                    .iter()
                    .map(|m| iterated_hash_reference(salt, m, 37))
                    .collect();
                assert_eq!(batched, scalar, "{kernel:?}, batch of {count}");
            }
        }
    }

    #[test]
    fn lane_sweep_is_bit_identical() {
        let salt = b"bench-salt";
        let messages: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; 30]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let hasher = SaltedHasher::new(salt);
        for kernel in Kernel::available() {
            let mut expected = Vec::new();
            hasher.iterated_many_into_on(kernel, &refs, 25, &mut expected);
            for_each_lane_count(&hasher, &refs, 25, &expected);
        }
    }

    fn for_each_lane_count(
        hasher: &SaltedHasher,
        messages: &[&[u8]],
        iterations: u32,
        expected: &[Digest],
    ) {
        let mut out = Vec::new();
        hasher.iterated_many_lanes_into::<1>(messages, iterations, &mut out);
        assert_eq!(out, expected, "1 lane");
        hasher.iterated_many_lanes_into::<2>(messages, iterations, &mut out);
        assert_eq!(out, expected, "2 lanes");
        hasher.iterated_many_lanes_into::<8>(messages, iterations, &mut out);
        assert_eq!(out, expected, "8 lanes");
    }

    #[test]
    fn many_salted_matches_scalar_across_batch_sizes_and_salt_lengths() {
        // Salt lengths 0..=130 put the digest at every offset 0-63 of the
        // round message: inside one block up to 23 bytes, straddling into
        // a second block from 24, and behind a full salt block (midstate
        // plus tail) from 64; lengths 0, 64 and 128 are aligned.  Windows
        // of 1-5 consecutive lengths mix one- and two-block rounds in one
        // portable pass and cross the aligned/unaligned split; larger
        // batches straddle both kernels' group remainders.
        let salts: Vec<Vec<u8>> = (0..=130)
            .map(|len| (0..len).map(|j| ((len * 31 + j) % 251) as u8).collect())
            .collect();
        let messages: Vec<Vec<u8>> = (0..salts.len())
            .map(|i| {
                (0..30 + i % 40)
                    .map(|j| ((i * 17 + j) % 251) as u8)
                    .collect()
            })
            .collect();
        let hashers: Vec<SaltedHasher> = salts.iter().map(|s| SaltedHasher::new(s)).collect();
        let all_iterations = [0u32, 1, 2, 29];
        let expected: Vec<[Digest; 4]> = (0..salts.len())
            .map(|i| all_iterations.map(|n| iterated_hash_reference(&salts[i], &messages[i], n)))
            .collect();
        let mut batched = Vec::new();
        let mut check = |kernel: Kernel, batch: &[usize], iterations: usize| {
            let hasher_refs: Vec<&SaltedHasher> = batch.iter().map(|&i| &hashers[i]).collect();
            let msg_refs: Vec<&[u8]> = batch.iter().map(|&i| messages[i].as_slice()).collect();
            let n = all_iterations[iterations];
            kernel.many_salted_into(&hasher_refs, &msg_refs, n, &mut batched);
            let scalar: Vec<Digest> = batch.iter().map(|&i| expected[i][iterations]).collect();
            assert_eq!(
                batched, scalar,
                "{kernel:?}, salt lengths {batch:?}, {n} iterations"
            );
        };
        for kernel in Kernel::available() {
            for width in 1..=5 {
                for first in 0..salts.len() {
                    let batch: Vec<usize> =
                        (first..first + width).map(|i| i % salts.len()).collect();
                    check(kernel, &batch, 2);
                    check(kernel, &batch, 3);
                }
            }
            // A stride coprime to 131 mixes the lengths in each batch.
            for count in [0usize, 7, 15, 16, 17, 33, 40, 131] {
                let batch: Vec<usize> = (0..count).map(|i| i * 37 % salts.len()).collect();
                for iterations in 0..all_iterations.len() {
                    check(kernel, &batch, iterations);
                }
            }
        }

        // Full 16-chain groups of aligned salts, one AVX-512 lane pass
        // each, through h^3000: the salts `PasswordHasher` derives for
        // names of 1-196 bytes, and 128-byte salts (two blocks in the
        // midstate); then 16 + 16 + 5 derived salts interleaved with
        // unaligned ones, so full groups and remainders fall on both
        // sides of the split.
        let derived = |i: usize| {
            PasswordHasher::new("gp-passwords/v2", 1)
                .salt_for(&noise(i as u64, 1 + 13 * (i % LANES)))
        };
        let groups: Vec<Vec<Vec<u8>>> = vec![
            (0..LANES).map(derived).collect(),
            (0..LANES).map(|i| noise(128 + i as u64, 128)).collect(),
            (0..37)
                .map(|i| match i < 32 && i % 2 == 1 {
                    true => noise(i as u64, 20 + i),
                    false => derived(i),
                })
                .collect(),
        ];
        for salts in &groups {
            let hashers: Vec<SaltedHasher> = salts.iter().map(|s| SaltedHasher::new(s)).collect();
            let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
            let messages: Vec<Vec<u8>> = (0..salts.len()).map(|i| noise(i as u64, 40)).collect();
            let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            let lens: Vec<usize> = salts.iter().map(Vec::len).collect();
            for n in [1u32, 2, 3, 17, 3000] {
                let expected: Vec<Digest> = salts
                    .iter()
                    .zip(&messages)
                    .map(|(salt, message)| iterated_hash_reference(salt, message, n))
                    .collect();
                for kernel in Kernel::available() {
                    kernel.many_salted_into(&hasher_refs, &msg_refs, n, &mut batched);
                    assert_eq!(
                        batched, expected,
                        "{kernel:?}, salt lengths {lens:?}, {n} iterations"
                    );
                }
            }
        }
    }

    #[test]
    fn every_name_length_costs_one_compression_per_round() {
        // Names on both sides of every block boundary a raw
        // `domain || 0x1f || name` salt would cross: each derived salt is
        // one aligned block, so every round is one compression with the
        // digest at offset 0, and the batch, twice over so that it fills a
        // full lane group, hashes as the reference does on every kernel.
        let names: Vec<Vec<u8>> = [1usize, 7, 8, 23, 47, 48, 71, 72, 200]
            .iter()
            .map(|&len| noise(len as u64, len))
            .collect();
        for domain in ["gp-passwords/v2", "gp-passwords/ccp/v2"] {
            let salts: Vec<Vec<u8>> = (0..2 * names.len())
                .map(|i| PasswordHasher::new(domain, 1).salt_for(&names[i % names.len()]))
                .collect();
            let hashers: Vec<SaltedHasher> = salts.iter().map(|s| SaltedHasher::new(s)).collect();
            for (hasher, name) in hashers.iter().zip(&names) {
                assert!(
                    hasher.template.aligned() && hasher.template.blocks == 1,
                    "{domain}, {}-byte name",
                    name.len()
                );
            }
            let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
            let messages: Vec<Vec<u8>> = (0..salts.len()).map(|i| noise(i as u64, 85)).collect();
            let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            for n in [2u32, 3000] {
                let expected: Vec<Digest> = salts
                    .iter()
                    .zip(&messages)
                    .map(|(salt, message)| iterated_hash_reference(salt, message, n))
                    .collect();
                let mut batched = Vec::new();
                for kernel in Kernel::available() {
                    kernel.many_salted_into(&hasher_refs, &msg_refs, n, &mut batched);
                    assert_eq!(batched, expected, "{kernel:?}, {domain}, {n} iterations");
                }
            }
        }
    }

    /// The portable lane loop alone, as the build compiled it.
    #[cfg(all(not(debug_assertions), target_arch = "x86_64"))]
    const PORTABLE: Kernel = Kernel {
        avx512: None,
        shani: None,
    };

    /// Deterministic chains for the timing guards: `count` salts of
    /// `salt_len` bytes (whole blocks, so the SIMD kernels run them) and
    /// 40-byte messages.
    #[cfg(all(not(debug_assertions), target_arch = "x86_64"))]
    fn timing_chains(count: usize, salt_len: usize) -> (Vec<SaltedHasher>, Vec<Vec<u8>>) {
        let hashers = (0..count)
            .map(|i| SaltedHasher::new(&vec![i as u8 + 1; salt_len]))
            .collect();
        let messages = (0..count).map(|i| vec![i as u8; 40]).collect();
        (hashers, messages)
    }

    /// The fastest of five timed h^3000 runs of `kernel` over `hashers`
    /// and `messages`, each run preceded by `before`.
    #[cfg(all(not(debug_assertions), target_arch = "x86_64"))]
    fn fastest_h3000(
        kernel: Kernel,
        hashers: &[SaltedHasher],
        messages: &[Vec<u8>],
        mut before: impl FnMut(),
    ) -> std::time::Duration {
        let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
        let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        (0..5)
            .map(|_| {
                before();
                let start = std::time::Instant::now();
                kernel.many_salted_into(&hasher_refs, &msg_refs, 3000, &mut out);
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    /// A lone chain on the SHA-NI kernel must beat one on the portable
    /// kernel (normally 0.17 vs 1.2-1.3 ms at h^3000), and four chains one
    /// padded portable pass.  The sha256* instructions are legacy-SSE only:
    /// a 256-bit op left live into their loop makes it ~100x slower with
    /// the digests still right, which no equivalence test can see.  Timing
    /// a debug build says nothing, so this runs in release builds only.
    #[cfg(all(not(debug_assertions), target_arch = "x86_64"))]
    #[test]
    fn shani_chains_beat_the_portable_kernel() {
        let Some(shani) = ShaNi::detect() else {
            println!("notice: this CPU lacks SHA-NI; the SHA-NI timing guard is skipped");
            return;
        };
        let shani = Kernel {
            avx512: None,
            shani: Some(shani),
        };
        for salt_len in [64usize, 128] {
            for width in [1usize, 4] {
                let (hashers, messages) = timing_chains(width, salt_len);
                let shani_time = fastest_h3000(shani, &hashers, &messages, || {});
                let portable_time = fastest_h3000(PORTABLE, &hashers, &messages, || {});
                println!(
                    "SHA-NI {shani_time:?} vs portable {portable_time:?}: \
                     {width} chain(s), {salt_len}-byte salt, h^3000"
                );
                assert!(
                    shani_time < portable_time,
                    "SHA-NI took {shani_time:?} against the portable kernel's \
                     {portable_time:?} for {width} chain(s) with {salt_len}-byte salts"
                );
            }
        }
    }

    /// The cliff guard for the AVX-512 lane pass: run right after a full
    /// 16-chain AVX-512 pass on the same thread, a lone SHA-NI chain must
    /// still beat a lone portable chain.  The pass must leave no dirty
    /// upper register state behind, or the legacy-SSE sha256* loop after
    /// it runs ~100x slower with every digest still right.  It also guards
    /// [`Kernel`]'s premise: 16 chains must run faster as one AVX-512 pass
    /// than on SHA-NI (normally 1.0-1.3 vs 2.6-3.1 ms at h^3000), or full
    /// groups belong on SHA-NI.
    #[cfg(all(not(debug_assertions), target_arch = "x86_64"))]
    #[test]
    fn shani_chain_after_an_avx512_pass_beats_the_portable_kernel() {
        let (Some(avx512), Some(shani)) = (Avx512::detect(), ShaNi::detect()) else {
            println!(
                "notice: this CPU lacks AVX-512 or SHA-NI; the AVX-512 cliff guard is skipped"
            );
            return;
        };
        let avx512 = Kernel {
            avx512: Some(avx512),
            shani: None,
        };
        let shani = Kernel {
            avx512: None,
            shani: Some(shani),
        };
        for salt_len in [64usize, 128] {
            let (wide, wide_messages) = timing_chains(LANES, salt_len);
            let (lone, lone_messages) = timing_chains(1, salt_len);
            let mut wide_out = Vec::new();
            let avx512_pass = || {
                let hasher_refs: Vec<&SaltedHasher> = wide.iter().collect();
                let msg_refs: Vec<&[u8]> = wide_messages.iter().map(Vec::as_slice).collect();
                avx512.many_salted_into(&hasher_refs, &msg_refs, 3000, &mut wide_out);
            };
            let shani_time = fastest_h3000(shani, &lone, &lone_messages, avx512_pass);
            let portable_time = fastest_h3000(PORTABLE, &lone, &lone_messages, || {});
            println!(
                "SHA-NI after an AVX-512 pass {shani_time:?} vs portable {portable_time:?}: \
                 1 chain, {salt_len}-byte salt, h^3000"
            );
            assert!(
                shani_time < portable_time,
                "after an AVX-512 pass, SHA-NI took {shani_time:?} against the portable \
                 kernel's {portable_time:?} for 1 chain with {salt_len}-byte salts"
            );
            let avx512_time = fastest_h3000(avx512, &wide, &wide_messages, || {});
            let shani_wide_time = fastest_h3000(shani, &wide, &wide_messages, || {});
            println!(
                "AVX-512 {avx512_time:?} vs SHA-NI {shani_wide_time:?}: \
                 {LANES} chains, {salt_len}-byte salt, h^3000"
            );
            assert!(
                avx512_time < shani_wide_time,
                "the AVX-512 pass took {avx512_time:?} against SHA-NI's \
                 {shani_wide_time:?} for {LANES} chains with {salt_len}-byte salts"
            );
        }
    }

    proptest::proptest! {
        /// The scalar path on every kernel is bit-identical to the
        /// reference implementation for arbitrary salt/message/iterations.
        #[test]
        fn iterated_hash_equals_reference(
            salt in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..100),
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            iterations in 0u32..40,
        ) {
            let hasher = SaltedHasher::new(&salt);
            let expected = iterated_hash_reference(&salt, &msg, iterations);
            for kernel in Kernel::available() {
                proptest::prop_assert_eq!(hasher.iterated_on(kernel, &msg, iterations), expected);
            }
        }

        /// The batched path on every kernel is bit-identical to the
        /// reference for arbitrary salts, message batches and iteration
        /// counts — the equivalence proof for the whole batched guess
        /// pipeline.
        #[test]
        fn iterated_hash_many_equals_scalar(
            salt in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            messages in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..120), 0..40),
            iterations in 0u32..24,
        ) {
            let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            let hasher = SaltedHasher::new(&salt);
            let scalar: Vec<_> = refs
                .iter()
                .map(|m| iterated_hash_reference(&salt, m, iterations))
                .collect();
            let mut batched = Vec::new();
            for kernel in Kernel::available() {
                hasher.iterated_many_into_on(kernel, &refs, iterations, &mut batched);
                proptest::prop_assert_eq!(&batched, &scalar);
            }
        }

        /// The portable lane-width sweep agrees with every kernel.
        #[test]
        fn lane_widths_agree(
            salt in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            messages in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64), 1..20),
            iterations in 1u32..12,
        ) {
            let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
            let hasher = SaltedHasher::new(&salt);
            let mut out = Vec::new();
            for kernel in Kernel::available() {
                let mut expected = Vec::new();
                hasher.iterated_many_into_on(kernel, &refs, iterations, &mut expected);
                hasher.iterated_many_lanes_into::<2>(&refs, iterations, &mut out);
                proptest::prop_assert_eq!(&out, &expected);
                hasher.iterated_many_lanes_into::<8>(&refs, iterations, &mut out);
                proptest::prop_assert_eq!(&out, &expected);
            }
        }
    }

    #[test]
    fn many_salted_into_reuses_the_output_buffer() {
        let a = SaltedHasher::new(b"salt-a");
        let b = SaltedHasher::new(b"salt-b-that-is-much-longer-than-one-block-boundary");
        let mut out = Vec::with_capacity(8);
        iterated_hash_many_salted_into(&[&a, &b], &[b"m1", b"m2"], 5, &mut out);
        assert_eq!(out.len(), 2);
        let capacity = out.capacity();
        iterated_hash_many_salted_into(&[&b], &[b"m3"], 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
        assert_eq!(
            out[0],
            iterated_hash(
                b"salt-b-that-is-much-longer-than-one-block-boundary",
                b"m3",
                5
            )
        );
    }

    #[test]
    #[should_panic(expected = "one salted hasher per message")]
    fn many_salted_rejects_mismatched_lengths() {
        let h = SaltedHasher::new(b"s");
        iterated_hash_many_salted(&[&h], &[], 3);
    }

    #[test]
    fn iterated_many_into_reuses_the_output_buffer() {
        let hasher = SaltedHasher::new(b"s");
        let mut out = Vec::with_capacity(8);
        hasher.iterated_many_into(&[b"a", b"b", b"c"], 5, &mut out);
        assert_eq!(out.len(), 3);
        let capacity = out.capacity();
        hasher.iterated_many_into(&[b"d", b"e"], 5, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out.capacity(), capacity, "no reallocation on reuse");
        assert_eq!(out[0], iterated_hash(b"s", b"d", 5));
    }

    #[test]
    fn password_hasher_agrees_with_its_salted_hasher() {
        let hasher = PasswordHasher::new("test", 40);
        let salted = SaltedHasher::new(&hasher.salt_for(b"carol"));
        assert_eq!(
            salted.iterated(b"pre-image", 40),
            hasher.hash(b"carol", b"pre-image").digest
        );
        let guesses: [&[u8]; 5] = [b"g1", b"g2", b"g3", b"g4", b"g5"];
        let mut out = Vec::new();
        salted.iterated_many_into(&guesses, 40, &mut out);
        let expected: Vec<Digest> = guesses
            .iter()
            .map(|g| hasher.hash(b"carol", g).digest)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn iteration_counts_give_distinct_digests() {
        let d1 = iterated_hash(b"s", b"m", 1);
        let d2 = iterated_hash(b"s", b"m", 2);
        let d1000 = iterated_hash(b"s", b"m", 1000);
        assert_ne!(d1, d2);
        assert_ne!(d2, d1000);
        assert_ne!(d1, d1000);
    }

    #[test]
    fn salt_changes_digest() {
        assert_ne!(
            iterated_hash(b"salt-a", b"m", 10),
            iterated_hash(b"salt-b", b"m", 10)
        );
    }

    #[test]
    fn iterated_is_composition_of_single_rounds() {
        // h^3(m) must equal manually chaining three salted rounds.
        let salt = b"salty";
        let msg = b"message";
        let step1 = iterated_hash(salt, msg, 1);
        let step2 = {
            let mut h = Sha256::new();
            h.update(salt);
            h.update(&step1);
            h.finalize()
        };
        let step3 = {
            let mut h = Sha256::new();
            h.update(salt);
            h.update(&step2);
            h.finalize()
        };
        assert_eq!(iterated_hash(salt, msg, 3), step3);
    }

    #[test]
    fn password_hash_verify() {
        let hasher = PasswordHasher::new("test", 50);
        let stored = hasher.hash(b"user-7", b"the password bytes");
        assert!(stored.verify(b"the password bytes"));
        assert!(!stored.verify(b"not the password"));
        assert!(stored.verify_with(&hasher, b"user-7", b"the password bytes"));
        assert!(!stored.verify_with(&hasher, b"user-8", b"the password bytes"));
    }

    #[test]
    fn verify_with_rejects_wrong_iteration_count() {
        let hasher = PasswordHasher::new("test", 50);
        let other = PasswordHasher::new("test", 51);
        let stored = hasher.hash(b"u", b"m");
        assert!(!stored.verify_with(&other, b"u", b"m"));
    }

    #[test]
    fn domain_separation() {
        let a = PasswordHasher::new("passpoints", 10);
        let b = PasswordHasher::new("netauth", 10);
        assert_ne!(a.hash(b"user", b"m").digest, b.hash(b"user", b"m").digest);
    }

    #[test]
    fn default_iterations_match_paper_example() {
        assert_eq!(PasswordHasher::DEFAULT_ITERATIONS, 1000);
        let h = PasswordHasher::with_default_iterations("x");
        assert_eq!(h.iterations, 1000);
    }
}
