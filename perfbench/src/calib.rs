//! Machine-speed calibration.
//!
//! The host this benchmark was tuned on changes speed by 10–50% over
//! minutes, and every timing of a run moves by about the same factor. So a
//! fixed reference kernel, written here and calling nothing of the
//! repository, runs between the timed steps. Its time tracks the machine's
//! speed and nothing of the program. Each reported timing sample is scaled
//! by `REF_KERNEL_MS / k`, where `k` is the median kernel time within
//! [`WINDOW_S`] of the sample. The result is the time the step would take
//! while the machine runs the kernel in [`REF_KERNEL_MS`]. A change to the
//! program moves these figures as much as it moves wall time; a change in
//! the machine's speed mostly cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bane_util::rng::SplitMix64;

/// The kernel time the reported figures are scaled to: a round figure at
/// the fast end of the kernel's per-run medians (31–44 ms) on the 2-vCPU
/// container the bounds were measured on.
pub const REF_KERNEL_MS: f64 = 30.0;
/// A sample is scaled by the kernel runs within this many seconds of it.
pub const WINDOW_S: f64 = 3.0;
/// Least wall time between two kernel runs in the timed loop.
pub const EVERY_S: f64 = 0.4;

/// Kernel runs of one process, and scaling of samples by them.
#[derive(Debug)]
pub struct Calibration {
    start: Instant,
    /// (seconds since `start` at the kernel's midpoint, kernel ms).
    runs: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            start: Instant::now(),
            runs: Vec::new(),
        }
    }

    /// Seconds since the calibration started; the time stamp of a sample.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the kernel once and records it.
    pub fn run(&mut self) {
        let at = self.now();
        let ms = kernel_ms();
        self.runs.push((at + ms / 2e3, ms));
    }

    /// Runs the kernel if [`EVERY_S`] has passed since its last run.
    pub fn run_if_due(&mut self) {
        if self
            .runs
            .last()
            .is_none_or(|&(t, _)| self.now() - t >= EVERY_S)
        {
            self.run();
        }
    }

    /// `REF_KERNEL_MS` over the median kernel time within [`WINDOW_S`] of
    /// `at` (the nearest run if none is that close); 1 before any run.
    pub fn factor(&self, at: f64) -> f64 {
        let mut near: Vec<f64> = self
            .runs
            .iter()
            .filter(|(t, _)| (t - at).abs() <= WINDOW_S)
            .map(|&(_, ms)| ms)
            .collect();
        if near.is_empty() {
            let nearest = self
                .runs
                .iter()
                .min_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()));
            near.extend(nearest.map(|&(_, ms)| ms));
        }
        if near.is_empty() {
            return 1.0;
        }
        REF_KERNEL_MS / crate::stats::median(&near)
    }

    /// `value`, measured at `at`, scaled to the reference speed.
    pub fn scale(&self, at: f64, value: f64) -> f64 {
        value * self.factor(at)
    }

    /// The kernel's median time over the whole run, in ms, and its count.
    pub fn summary(&self) -> (f64, usize) {
        let ms: Vec<f64> = self.runs.iter().map(|&(_, ms)| ms).collect();
        (crate::stats::median(&ms), ms.len())
    }
}

/// One run of the reference kernel; returns its wall time in ms.
///
/// It mixes the kinds of work the solver and the snapshot code spend their
/// time in, each a few ms: building and walking a random graph of small
/// heap vectors, counting into a hash map, sorting, a worklist closure
/// over sorted-vector sets, pointer chasing within the L2 cache, and plain
/// arithmetic. One kind alone tracks the machine's drift poorly: on the
/// tuning host arithmetic slowed less than the workloads, and the graph
/// walk more.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut rng = SplitMix64::new(0x6b65_726e_656c);
    black_box(graph_walk(&mut rng, 1 << 14, 4));
    black_box(hash_count(&mut rng, 1 << 17));
    black_box(sort(&mut rng, 1 << 18));
    black_box(closure(&mut rng, 360));
    black_box(chase(&mut rng, 1 << 16, 1 << 20));
    black_box(arith(3_000_000));
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds a random graph of `nodes` heap vectors and walks it from a few
/// roots; returns the nodes reached.
fn graph_walk(rng: &mut SplitMix64, nodes: usize, degree: usize) -> u64 {
    let adj: Vec<Vec<u32>> = (0..nodes)
        .map(|_| {
            (0..degree)
                .map(|_| rng.next_below(nodes as u64) as u32)
                .collect()
        })
        .collect();
    let mut seen = vec![0u32; nodes];
    let mut stack = Vec::new();
    let mut reached = 0u64;
    for root in 1..=4u32 {
        stack.push(rng.next_below(nodes as u64) as u32);
        while let Some(v) = stack.pop() {
            if seen[v as usize] == root {
                continue;
            }
            seen[v as usize] = root;
            reached += 1;
            stack.extend_from_slice(&adj[v as usize]);
        }
    }
    reached
}

/// Counts `n` random keys into a hash map; returns the distinct keys.
fn hash_count(rng: &mut SplitMix64, n: usize) -> usize {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..n {
        *counts.entry(rng.next_u64() % (n as u64 / 2)).or_insert(0) += 1;
    }
    counts.len()
}

/// Sorts `n` random words; returns the middle one.
fn sort(rng: &mut SplitMix64, n: usize) -> u64 {
    let mut keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    keys[n / 2]
}

/// Worklist closure over a random DAG of `n` nodes with local edges,
/// propagating sorted-vector sets along them; returns the total set size.
fn closure(rng: &mut SplitMix64, n: usize) -> usize {
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, out) in succ.iter_mut().enumerate().take(n - 1) {
        for _ in 0..2 {
            let span = 48.min(n - 1 - u) as u64;
            out.push((u + 1 + rng.next_below(span) as usize) as u32);
        }
    }
    let mut sets: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            if rng.next_bool(0.3) {
                vec![v as u32]
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut work: Vec<u32> = (0..n as u32).collect();
    let mut queued = vec![true; n];
    let mut merged = Vec::new();
    while let Some(u) = work.pop() {
        queued[u as usize] = false;
        let src = std::mem::take(&mut sets[u as usize]);
        for &v in &succ[u as usize] {
            let dst = &sets[v as usize];
            merged.clear();
            let (mut i, mut j) = (0, 0);
            while i < src.len() && j < dst.len() {
                let (a, b) = (src[i], dst[j]);
                merged.push(a.min(b));
                i += (a <= b) as usize;
                j += (b <= a) as usize;
            }
            merged.extend_from_slice(&src[i..]);
            merged.extend_from_slice(&dst[j..]);
            if merged.len() > dst.len() {
                sets[v as usize] = merged.clone();
                if !queued[v as usize] {
                    queued[v as usize] = true;
                    work.push(v);
                }
            }
        }
        sets[u as usize] = src;
    }
    sets.iter().map(Vec::len).sum()
}

/// Follows `steps` links of a random cycle over `n` slots; returns where it
/// ends.
fn chase(rng: &mut SplitMix64, n: usize, steps: usize) -> u32 {
    let mut order: Vec<u32> = (0..n as u32).collect();
    bane_util::rng::shuffle(&mut order, rng);
    let mut next = vec![0u32; n];
    for i in 0..n {
        next[order[i] as usize] = order[(i + 1) % n];
    }
    let mut p = 0u32;
    for _ in 0..steps {
        p = next[p as usize];
    }
    p
}

/// A chain of `n` dependent multiply-adds.
fn arith(n: u64) -> u64 {
    let mut x = 0x1234_5678u64;
    for i in 0..n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 17);
    }
    x
}
