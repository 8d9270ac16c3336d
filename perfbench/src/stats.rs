//! Order statistics over timing samples: median, nearest-rank percentiles, the
//! tail-percentile rule, and normalization against an in-run ceiling.

/// Percentiles the tail is picked from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail needs at least this many samples strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile used (e.g. 99.0).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// Apply the tail rule. With fewer than `2 * TAIL_MIN_BEYOND` samples no ladder
/// step qualifies and the median is returned, with its (short) `beyond` count, so
/// the output shows the tail is not resolved. `None` when empty.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let pick = |p: f64| {
        let rank = nearest_rank(n, p)?;
        Some(Tail { percentile: p, value: sorted[rank - 1], beyond: n - rank, samples: n })
    };
    TAIL_LADDER
        .iter()
        .filter_map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .or_else(|| pick(50.0))
}

/// Median op time over median ceiling time: how many ceilings one op costs.
/// `None` when either side is empty or the ceiling is not positive.
pub fn ratio_to_ceiling(op_samples: &[f64], ceiling_samples: &[f64]) -> Option<f64> {
    let op = median(op_samples)?;
    let ceiling = median(ceiling_samples)?;
    (ceiling > 0.0).then(|| op / ceiling)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank: the smallest rank whose share of samples reaches `p`.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Round the product first so e.g. 99% of 1000 is rank 990, not 991 from an
    // inexact 989.9999.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    Some((exact.ceil() as usize).clamp(1, n))
}
