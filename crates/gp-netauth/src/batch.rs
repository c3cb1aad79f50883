//! Batch verifier: hashes an already-coalesced batch of login and
//! enrollment attempts as multi-lane iterated-hash runs.
//!
//! The PR 1 crypto work made *batched* hashing ~5× cheaper per message
//! than scalar hashing ([`gp_crypto::iterated_hash_many`]), but a serving
//! loop that verifies one attempt at a time can never use it.  The
//! reactor's turn queue coalesces hash jobs across connections; each
//! compute worker hands its batch to [`BatchVerifier::run_direct`], which
//! runs one [`gp_crypto::iterated_hash_many_salted`] call per
//! iteration-count group (at most `max_batch` jobs each) on the calling
//! thread and records occupancy counters.

use gp_crypto::{iterated_hash_many_salted_into, Digest, SaltedHasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// One hash job: iterate `salt || pre_image` under the job's own salt.
#[derive(Debug)]
pub struct HashJob {
    /// Precomputed per-salt hashing state for the account under attempt.
    pub hasher: SaltedHasher,
    /// The encoded attempt (output of `prepare_verify`).
    pub pre_image: Vec<u8>,
    /// Iteration count recorded in the stored hash.
    pub iterations: u32,
}

/// Aggregate hash-run occupancy counters for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Multi-lane hash runs executed.
    pub runs: u64,
    /// Individual attempts hashed through those runs.
    pub attempts: u64,
    /// Largest single run.
    pub max_run: u64,
    /// Runs that filled every allowed lane (`max_batch` attempts) — the
    /// direct measure of how often the verifier reaches full occupancy.
    pub full_runs: u64,
}

impl BatchStats {
    /// Mean attempts coalesced per hash run (1.0 = no coalescing happened).
    pub fn mean_batch(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.attempts as f64 / self.runs as f64
        }
    }
}

/// Hashes coalesced batches as multi-lane runs and counts their occupancy.
#[derive(Debug)]
pub struct BatchVerifier {
    max_batch: usize,
    runs: AtomicU64,
    attempts: AtomicU64,
    max_run: AtomicU64,
    full_runs: AtomicU64,
}

impl BatchVerifier {
    /// A verifier that runs at most `max_batch` attempts per hash call.
    /// `max_batch` is clamped to ≥ 1; `max_batch == 1` hashes every
    /// attempt on its own — the scalar baseline.
    pub fn new(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            runs: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
            max_run: AtomicU64::new(0),
            full_runs: AtomicU64::new(0),
        }
    }

    /// Largest batch a single run may coalesce.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Counters since construction.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            runs: self.runs.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            max_run: self.max_run.load(Ordering::Relaxed),
            full_runs: self.full_runs.load(Ordering::Relaxed),
        }
    }

    /// Hash an already-coalesced batch on the calling thread.  Callers
    /// never wait on each other, so distinct compute workers hash distinct
    /// batches **in parallel on separate cores**.
    ///
    /// Jobs sharing an iteration count go through one multi-salt
    /// multi-lane call; mixed iteration counts split into one call per
    /// group, and groups larger than `max_batch` split further.  Each call
    /// counts as one run in [`BatchStats`].
    ///
    /// Returns one digest per job, in input order.
    pub fn run_direct(&self, jobs: &[HashJob]) -> Vec<Digest> {
        self.attempts
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);

        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| jobs[i].iterations);
        let mut digests: Vec<Digest> = vec![Digest::default(); jobs.len()];
        let mut out = Vec::new();
        let mut start = 0;
        while start < order.len() {
            let iterations = jobs[order[start]].iterations;
            let len = order[start..]
                .iter()
                .take_while(|&&i| jobs[i].iterations == iterations)
                .count()
                .min(self.max_batch);
            let group = &order[start..start + len];
            let hashers: Vec<&SaltedHasher> = group.iter().map(|&i| &jobs[i].hasher).collect();
            let pre_images: Vec<&[u8]> = group
                .iter()
                .map(|&i| jobs[i].pre_image.as_slice())
                .collect();
            iterated_hash_many_salted_into(&hashers, &pre_images, iterations, &mut out);
            // One "run" per actual hash call: a mixed-iteration batch that
            // splits into several groups must not report phantom
            // coalescing.
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.max_run.fetch_max(len as u64, Ordering::Relaxed);
            if len >= self.max_batch && self.max_batch > 1 {
                self.full_runs.fetch_add(1, Ordering::Relaxed);
            }
            for (&i, digest) in group.iter().zip(out.iter()) {
                digests[i] = *digest;
            }
            start += len;
        }
        digests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_crypto::iterated_hash;
    use std::sync::Arc;

    fn job(salt: &[u8], pre_image: &[u8], iterations: u32) -> HashJob {
        HashJob {
            hasher: SaltedHasher::new(salt),
            pre_image: pre_image.to_vec(),
            iterations,
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let v = BatchVerifier::new(16);
        assert!(v.run_direct(&[]).is_empty());
        assert_eq!(v.stats(), BatchStats::default());
    }

    #[test]
    fn run_direct_matches_scalar_hashing_and_splits_by_iteration_group() {
        let v = BatchVerifier::new(16);
        let digests = v.run_direct(&[
            job(b"salt-a", b"attempt-1", 10),
            job(b"salt-c", b"attempt-3", 25),
            job(b"salt-b", b"attempt-2", 10),
        ]);
        assert_eq!(digests[0], iterated_hash(b"salt-a", b"attempt-1", 10));
        assert_eq!(digests[1], iterated_hash(b"salt-c", b"attempt-3", 25));
        assert_eq!(digests[2], iterated_hash(b"salt-b", b"attempt-2", 10));
        let stats = v.stats();
        assert_eq!(stats.attempts, 3);
        // Mixed iteration counts split into one hash call per group, and
        // the counters report the calls, not the batch.
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.max_run, 2);
    }

    #[test]
    fn scalar_mode_max_batch_one_still_correct() {
        let v = BatchVerifier::new(1);
        let digests = v.run_direct(&[job(b"s", b"a", 5), job(b"s", b"b", 5)]);
        assert_eq!(digests[0], iterated_hash(b"s", b"a", 5));
        assert_eq!(digests[1], iterated_hash(b"s", b"b", 5));
        let stats = v.stats();
        assert_eq!(stats.max_run, 1, "no coalescing in scalar mode");
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.full_runs, 0, "a 1-lane run is never 'full'");
    }

    #[test]
    fn run_direct_from_many_threads_in_parallel_is_correct() {
        let v = Arc::new(BatchVerifier::new(16));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                let salt = format!("salt-{t}");
                let jobs: Vec<HashJob> = (0..4)
                    .map(|i| job(salt.as_bytes(), format!("a{i}").as_bytes(), 40))
                    .collect();
                let digests = v.run_direct(&jobs);
                for (i, d) in digests.iter().enumerate() {
                    assert_eq!(
                        *d,
                        iterated_hash(salt.as_bytes(), format!("a{i}").as_bytes(), 40)
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = v.stats();
        assert_eq!(stats.attempts, 32);
        assert_eq!(stats.runs, 8, "each thread's batch is one run");
        assert_eq!(stats.max_run, 4);
    }

    #[test]
    fn full_runs_counts_filled_lanes() {
        let v = BatchVerifier::new(4);
        let jobs: Vec<HashJob> = (0..8)
            .map(|i| job(format!("s{i}").as_bytes(), b"p", 3))
            .collect();
        v.run_direct(&jobs);
        let stats = v.stats();
        assert_eq!(stats.full_runs, 2, "8 jobs at max_batch 4 = 2 full runs");
        assert_eq!(stats.runs, 2);
    }

    #[test]
    fn oversized_batch_splits_into_multiple_runs() {
        let v = BatchVerifier::new(4);
        let jobs: Vec<HashJob> = (0..10)
            .map(|i| job(format!("salt-{i}").as_bytes(), b"pre", 7))
            .collect();
        let digests = v.run_direct(&jobs);
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(*d, iterated_hash(format!("salt-{i}").as_bytes(), b"pre", 7));
        }
        let stats = v.stats();
        assert_eq!(stats.attempts, 10);
        assert_eq!(stats.runs, 3, "10 jobs at max_batch 4 run as 4 + 4 + 2");
        assert_eq!(stats.max_run, 4);
        assert_eq!(stats.full_runs, 2);
    }
}
