//! Robust summaries of host timings, output digests, and process memory.

/// Median of `xs` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the `k` smallest of `xs` (of all of them when there are
/// fewer): perfgate's min-of-best. Host noise only ever adds time, so
/// the fastest samples are the ones it touched least. 0 for an empty
/// slice.
pub fn min_of_best(xs: &[f64], k: usize) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(k);
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A nearest-rank percentile together with how much evidence lies
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile in per-mille (999 = p99.9).
    pub per_mille: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly past the rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

impl Tail {
    /// Label such as `p99.9` or `p95`.
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}.{}", self.per_mille / 10, self.per_mille % 10)
        }
    }
}

/// Percentiles tried by [`tail`], highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [999, 990, 950];

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; fewer would make it a reading of one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `xs` at `per_mille`: the sample at 1-based
/// rank `ceil(n · per_mille / 1000)`, computed in integers so p99.9 of
/// 20 000 samples is exactly rank 19 980.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], per_mille: u32) -> Tail {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (n * per_mille as usize).div_ceil(1000).max(1);
    Tail {
        per_mille,
        value: v[rank - 1],
        beyond: n - rank,
        n,
    }
}

/// The highest of p99.9 / p99 / p95 with at least [`MIN_BEYOND`]
/// samples beyond it; the median when even p95 lacks them (fewer than
/// 200 samples).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    TAIL_CANDIDATES
        .iter()
        .map(|&pm| percentile(xs, pm))
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| percentile(xs, 500))
}

/// Streaming 64-bit FNV-1a: a cheap, stable fingerprint of an output so
/// two commits can show byte-identical results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
