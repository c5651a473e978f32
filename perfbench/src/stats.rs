//! Small measurement helpers: order statistics, host facts, a seeded
//! generator and input fingerprints.

use std::time::Duration;

use sailing::model::{fx_mix, Delta, SnapshotView};

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative (steal, total) CPU time of this machine in clock ticks, from
/// `/proc/stat`; steal is time the hypervisor ran something else while
/// this machine wanted to run.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// SplitMix64: a tiny seeded generator for workload streams, so inputs
/// depend only on the `--seed` argument.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives the seed of the `index`-th generated input from the run seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    fx_mix(fx_mix(0x7065_7266, seed), index)
}

/// Order-sensitive digest of every generated input of a run. Two runs
/// may be compared only when their fingerprints are equal.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    pub hash: u64,
    pub inputs: usize,
}

impl Fingerprint {
    pub fn new(workload: &str) -> Self {
        let hash = workload
            .bytes()
            .fold(0x696e_7075_7473, |h, b| fx_mix(h, u64::from(b)));
        Self { hash, inputs: 0 }
    }

    pub fn snapshot(&mut self, snapshot: &SnapshotView) {
        self.word(snapshot.content_hash());
    }

    pub fn delta(&mut self, delta: &Delta) {
        let mut h = fx_mix(0x64_656c_7461, delta.len() as u64);
        for &(s, o, v) in delta.ops() {
            h = fx_mix(h, u64::from(s.0));
            h = fx_mix(h, u64::from(o.0));
            h = fx_mix(h, v.map_or(u64::MAX, |v| u64::from(v.0)));
        }
        self.word(h);
    }

    pub fn word(&mut self, word: u64) {
        self.hash = fx_mix(self.hash, word);
        self.inputs += 1;
    }
}
