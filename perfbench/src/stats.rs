//! Sample statistics, process memory and answer fingerprints.

use bane_core::{TermId, Var};
use bane_util::idx::Idx;
use bane_util::rng::SplitMix64;

use crate::calib::Calibration;
use crate::Outcome;

/// The tail percentile every `.tail` metric reports. Each workload keeps
/// running until every tailed series has at least [`MIN_TAIL_SAMPLES`]
/// samples, so at least ten samples lie beyond it.
pub const TAIL_P: f64 = 0.90;

/// Smallest sample count for which [`TAIL_P`] leaves ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// The `p`-quantile of `samples` (linear interpolation between ranks).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Describes the tail of a series: which percentile, and how many samples
/// the series had and how many lie beyond that percentile.
pub fn tail_note(name: &str, samples: &[f64]) -> String {
    let beyond = samples.len() - (TAIL_P * samples.len() as f64).ceil() as usize;
    format!(
        "{name}.tail = p{:.0} of {} samples ({} beyond)",
        TAIL_P * 100.0,
        samples.len(),
        beyond
    )
}

/// A timing sample: when it was taken (seconds on the run's
/// [`Calibration`] clock) and its wall-clock value.
pub type Timed = (f64, f64);

/// The untraced samples of one run, from which every end-to-end metric
/// comes.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<Timed>,
    pub pass_s: Vec<Timed>,
    pub commit_ms: Vec<Timed>,
    pub fresh_ms: Vec<Timed>,
    pub read_us: Vec<Timed>,
    pub snapshot_mb: Vec<f64>,
    /// Resident memory at a fixed point after the warm-up.
    pub rss_mb: f64,
}

impl Samples {
    /// Puts every end-to-end metric into `out`: medians, plus the
    /// [`TAIL_P`] tail of each latency series with a note on its count.
    /// Each timing sample is scaled to the reference machine speed by
    /// `cal`; the notes give the unscaled wall-clock medians.
    pub fn emit(&self, out: &mut Outcome, cal: &Calibration) {
        let scaled = |series: &[Timed]| -> Vec<f64> {
            series.iter().map(|&(at, v)| cal.scale(at, v)).collect()
        };
        let wall = |series: &[Timed]| -> Vec<f64> { series.iter().map(|&(_, v)| v).collect() };
        out.put("setup_s", median(&scaled(&self.setup_s)), "s");
        out.put("pass_s", median(&scaled(&self.pass_s)), "s");
        let mut raw = vec![
            format!("setup_s {:.4}", median(&wall(&self.setup_s))),
            format!("pass_s {:.4}", median(&wall(&self.pass_s))),
        ];
        for (name, unit, series) in [
            ("commit_ms", "ms", &self.commit_ms),
            ("fresh_ms", "ms", &self.fresh_ms),
            ("read_us", "us", &self.read_us),
        ] {
            let v = scaled(series);
            out.put(format!("{name}.p50"), median(&v), unit);
            out.put(format!("{name}.tail"), quantile(&v, TAIL_P), unit);
            out.notes.push(tail_note(name, &v));
            let w = wall(series);
            raw.push(format!(
                "{name}.p50 {:.4} .tail {:.4}",
                median(&w),
                quantile(&w, TAIL_P)
            ));
        }
        out.put("snapshot_mb", median(&self.snapshot_mb), "MB");
        out.put("rss_mb", self.rss_mb, "MB");
        out.notes.push(format!(
            "setup_s = median of {} set-ups, spread through the run",
            self.setup_s.len()
        ));
        let (kernel_ms, kernels) = cal.summary();
        out.notes.push(format!(
            "timings scaled to a {} ms reference kernel; this run's kernel median {kernel_ms:.2} ms over {kernels} runs",
            crate::calib::REF_KERNEL_MS
        ));
        out.notes
            .push(format!("unscaled wall-clock medians: {}", raw.join(", ")));
    }
}

/// Resident set size of this process in MB (10^6 bytes), from
/// `/proc/self/status` (`VmRSS`); 0 where that file does not exist.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// FNV-1a over a sequence of words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a points-to answer, independent of element order.
pub fn set_fp(set: &[TermId]) -> u64 {
    ids_fp(set.iter().map(|t| t.index() as u64).collect())
}

/// Fingerprint of a points-to answer given as raw term ids.
pub fn ids_fp(mut ids: Vec<u64>) -> u64 {
    ids.sort_unstable();
    ids.dedup();
    fnv(std::iter::once(1).chain(ids))
}

/// One read's answer, borrowed from whatever served it.
pub enum Answer<'a> {
    Set(&'a [TermId]),
    Alias(bool),
}

impl Answer<'_> {
    pub fn fp(&self) -> u64 {
        match self {
            Answer::Set(s) => set_fp(s),
            Answer::Alias(b) => bool_fp(*b),
        }
    }
}

/// Fingerprint of an alias answer.
pub fn bool_fp(b: bool) -> u64 {
    fnv([2, b as u64])
}

/// Whether two sorted, distinct slices intersect.
pub fn intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// A seed for item `k` of stream `stream` under the run seed.
pub fn derive(seed: u64, stream: u64, k: u64) -> u64 {
    fnv([seed, stream, k])
}

/// One seeded read over `n` variables: `(a, None)` is `points-to a`,
/// `(a, Some(b))` is `alias a b`, half of each.
pub fn query(rng: &mut SplitMix64, n: usize) -> (Var, Option<Var>) {
    let a = Var::new(rng.next_below(n as u64) as usize);
    if rng.next_bool(0.5) {
        (a, None)
    } else {
        (a, Some(Var::new(rng.next_below(n as u64) as usize)))
    }
}
