//! Micro-benchmarks of the primitives on the login hot path: SHA-256,
//! iterated hashing, per-click discretization and full password
//! verification under both schemes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gp_bench::example_clicks;
use gp_crypto::iterated::Kernel;
use gp_crypto::{
    iterated_hash, iterated_hash_reference, PasswordHasher, SaltedHasher, Sha256, LANES,
};
use gp_discretization::prelude::*;
use gp_geometry::{ImageDims, Point};
use gp_passwords::prelude::*;
use gp_passwords::VerifyScratch;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    let small = vec![0xabu8; 64];
    let large = vec![0xcdu8; 4096];
    group.bench_function("64B", |b| b.iter(|| Sha256::digest(black_box(&small))));
    group.bench_function("4KiB", |b| b.iter(|| Sha256::digest(black_box(&large))));
    // One-shot single-block fast path vs the incremental buffer machinery
    // on a hot-path-sized message (salt + digest < one block).
    let block_sized = vec![0x42u8; 40];
    group.bench_function("40B_one_shot", |b| {
        b.iter(|| Sha256::digest(black_box(&block_sized)))
    });
    group.bench_function("40B_incremental", |b| {
        b.iter(|| {
            let mut h = Sha256::new();
            h.update(black_box(&block_sized));
            h.finalize()
        })
    });
    group.finish();
}

fn bench_iterated_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterated_hash");
    for iterations in [1u32, 100, 1000] {
        group.bench_function(format!("h^{iterations}"), |b| {
            b.iter(|| {
                iterated_hash(
                    black_box(b"salt"),
                    black_box(b"discretized password"),
                    iterations,
                )
            })
        });
    }
    group.finish();
}

/// The ablation the optimization work is judged by: the seed's
/// per-round incremental implementation vs the one-shot/midstate scalar
/// path vs the multi-lane batched path, at the paper's `h^1000`.
fn bench_iterated_hash_fast_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterated_hash_fast_paths");
    group.sample_size(12);
    let pre_image = vec![0x5au8; 180];

    // Short salt (one block per round): the win is overhead elimination.
    let salt = b"gp-passwords/v1\x1falice";
    group.bench_function("h1000_short_salt_reference", |b| {
        b.iter(|| iterated_hash_reference(black_box(salt), black_box(&pre_image), 1000))
    });
    group.bench_function("h1000_short_salt_one_shot", |b| {
        b.iter(|| iterated_hash(black_box(salt), black_box(&pre_image), 1000))
    });

    // 64-byte salt: the reference pays two compressions per round, the
    // midstate path one.  A 128-byte salt (domain + image hash + username
    // scale) pays three versus one.
    let long_salt = [0x77u8; 64];
    group.bench_function("h1000_64B_salt_reference", |b| {
        b.iter(|| iterated_hash_reference(black_box(&long_salt), black_box(&pre_image), 1000))
    });
    group.bench_function("h1000_64B_salt_midstate", |b| {
        b.iter(|| iterated_hash(black_box(&long_salt), black_box(&pre_image), 1000))
    });
    let longer_salt = [0x33u8; 128];
    group.bench_function("h1000_128B_salt_reference", |b| {
        b.iter(|| iterated_hash_reference(black_box(&longer_salt), black_box(&pre_image), 1000))
    });
    group.bench_function("h1000_128B_salt_midstate", |b| {
        b.iter(|| iterated_hash(black_box(&longer_salt), black_box(&pre_image), 1000))
    });

    // One full serving batch (16 accounts, one salt each) at h^3000 on
    // every kernel this CPU runs: the kernel ratio behind gpbench's
    // `crypto.hash16_ms`.  Every salt `PasswordHasher` derives is one
    // 64-byte block, so the `uniform` row (names of 5 bytes) and the
    // `mixed` row (names of 1-200 bytes) run the one offset-0 layout.  The
    // `portable` row gives every account a 21-byte salt, which the SIMD
    // kernels do not take: it runs the portable lane loop on every kernel.
    let password_hasher = PasswordHasher::new(GraphicalPasswordSystem::HASH_DOMAIN, 3000);
    let name = |i: usize, len: usize| -> Vec<u8> {
        (0..len).map(|j| b'a' + ((i + j) % 26) as u8).collect()
    };
    for (shape, salts) in [
        (
            "uniform",
            (0..LANES)
                .map(|i| password_hasher.salt_for(&name(i, 5)))
                .collect::<Vec<_>>(),
        ),
        (
            "mixed",
            (0..LANES)
                .map(|i| password_hasher.salt_for(&name(i, 1 + i * 199 / (LANES - 1))))
                .collect(),
        ),
        (
            "portable_21B_salt",
            (0..LANES).map(|i| name(i, 21)).collect(),
        ),
    ] {
        let hashers: Vec<SaltedHasher> = salts.iter().map(|s| SaltedHasher::new(s)).collect();
        let hasher_refs: Vec<&SaltedHasher> = hashers.iter().collect();
        let messages: Vec<Vec<u8>> = (0..LANES).map(|i| vec![i as u8; 40]).collect();
        let msg_refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        for kernel in Kernel::available() {
            let case = format!("h3000_16_chains_{shape}_{}", kernel.name());
            group.bench_function(case, |b| {
                b.iter(|| {
                    kernel.many_salted_into(black_box(&hasher_refs), &msg_refs, 3000, &mut out);
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

/// Lane-count sweep for the batched path (per 32-message batch).
fn bench_iterated_hash_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("iterated_hash_lanes");
    group.sample_size(12);
    let messages: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 180]).collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let hasher = SaltedHasher::new(
        &PasswordHasher::new(GraphicalPasswordSystem::HASH_DOMAIN, 1000).salt_for(b"alice"),
    );
    let mut out = Vec::new();
    macro_rules! lanes {
        ($($l:literal),*) => {$(
            group.bench_function(concat!("h1000_batch32_lanes_", stringify!($l)), |b| {
                b.iter(|| {
                    hasher.iterated_many_lanes_into::<$l>(black_box(&refs), 1000, &mut out);
                    black_box(&out);
                })
            });
        )*};
    }
    lanes!(1, 2, 4, 8, 16);
    group.finish();
}

fn bench_discretization(c: &mut Criterion) {
    let mut group = c.benchmark_group("discretize_click");
    let centered = CenteredDiscretization::from_pixel_tolerance(9);
    let robust = RobustDiscretization::new(9.0).unwrap();
    let p = Point::new(233.0, 187.0);
    group.bench_function("centered_enroll", |b| {
        b.iter(|| centered.enroll(black_box(&p)))
    });
    group.bench_function("robust_enroll", |b| b.iter(|| robust.enroll(black_box(&p))));
    let centered_enrolled = centered.enroll(&p);
    let robust_enrolled = robust.enroll(&p);
    let login = Point::new(238.0, 181.0);
    group.bench_function("centered_locate", |b| {
        b.iter(|| centered.locate(black_box(&centered_enrolled.grid_id), black_box(&login)))
    });
    group.bench_function("robust_locate", |b| {
        b.iter(|| robust.locate(black_box(&robust_enrolled.grid_id), black_box(&login)))
    });
    group.finish();
}

fn bench_password_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("password_verify_5_clicks");
    group.sample_size(30);
    let clicks = example_clicks();
    let attempt: Vec<Point> = clicks.iter().map(|p| p.offset(4.0, -4.0)).collect();
    for (label, config) in [
        ("centered_r9", DiscretizationConfig::centered(9)),
        ("robust_r9", DiscretizationConfig::robust(9.0)),
    ] {
        let system =
            GraphicalPasswordSystem::new(PasswordPolicy::new(ImageDims::STUDY, 5), config, 1000);
        let stored = system.enroll("bench-user", &clicks).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                system
                    .verify(black_box(&stored), black_box(&attempt))
                    .unwrap()
            })
        });
        // The allocation-free path a login server under load runs.
        let mut scratch = VerifyScratch::new();
        group.bench_function(format!("{label}_scratch"), |b| {
            b.iter(|| {
                system
                    .verify_with_scratch(black_box(&stored), black_box(&attempt), &mut scratch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_iterated_hash,
    bench_iterated_hash_fast_paths,
    bench_iterated_hash_lanes,
    bench_discretization,
    bench_password_verification
);
criterion_main!(benches);
