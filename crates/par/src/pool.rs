//! A minimal scoped worker pool and deterministic work partitioning.
//!
//! This crate never hands work out dynamically: every parallel region
//! partitions its items with [`chunk_range`], a pure function of
//! `(len, threads, worker)`. Determinism then needs no further machinery —
//! each worker always sees the same items in the same order, at every thread
//! count, on every run.
//!
//! [`Pool::broadcast`] is deliberately thin: it runs one closure per worker
//! index on scoped threads (the calling thread doubles as worker 0) and
//! joins them all. With one thread it is a plain function call — no spawn,
//! no synchronization, no allocation — which is what keeps the
//! single-threaded path of [`ParLeast`](crate::ParLeast) allocation-free
//! and overhead-free.

/// Number of logical CPUs the host reports, or 1 if unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The half-open item range `[start, end)` worker `w` of `threads` owns when
/// `len` items are split into contiguous, near-equal chunks.
///
/// The first `len % threads` workers get one extra item, so concatenating
/// the ranges for `w = 0..threads` reproduces `0..len` exactly — the
/// property every deterministic commit in this crate relies on.
pub fn chunk_range(len: usize, threads: usize, w: usize) -> (usize, usize) {
    let base = len / threads;
    let rem = len % threads;
    let start = w * base + w.min(rem);
    let end = start + base + usize::from(w < rem);
    (start, end)
}

/// A fixed-width scoped worker pool.
///
/// Threads are not kept alive between broadcasts; [`broadcast`](Pool::broadcast)
/// spawns scoped threads and joins them before returning. Callers that need
/// per-level synchronization tighter than one broadcast (the level loop in
/// [`ParLeast`](crate::ParLeast)) issue a single broadcast and coordinate
/// inside it with a [`Barrier`](std::sync::Barrier).
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// Number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(w)` once for every worker index `w` in `0..threads` and
    /// waits for all of them.
    ///
    /// Worker 0 runs on the calling thread; with a single-worker pool this
    /// is an inline call with zero synchronization.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.threads == 1 {
            f(0);
            return;
        }
        std::thread::scope(|s| {
            for w in 1..self.threads {
                let f = &f;
                s.spawn(move || f(w));
            }
            f(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunk_ranges_partition_exactly() {
        for len in 0..40 {
            for threads in 1..9 {
                let mut next = 0;
                for w in 0..threads {
                    let (s, e) = chunk_range(len, threads, w);
                    assert_eq!(s, next, "len {len} threads {threads} worker {w}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let sizes: Vec<usize> = (0..4).map(|w| {
            let (s, e) = chunk_range(10, 4, w);
            e - s
        }).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn broadcast_runs_every_worker_once() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.threads(), threads);
            let hits = AtomicU64::new(0);
            pool.broadcast(|w| {
                assert!(w < threads);
                hits.fetch_add(1 << (8 * w), Ordering::Relaxed);
            });
            let want = (0..threads).map(|w| 1u64 << (8 * w)).sum::<u64>();
            assert_eq!(hits.load(Ordering::Relaxed), want);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(available_threads() >= 1);
    }
}
