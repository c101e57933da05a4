//! Order statistics shared by the benchmark and the comparison tool.
//!
//! Every function sorts with `f64::total_cmp`, so a NaN sample can never
//! panic a report; it sorts after every number and shows up as NaN in the
//! statistic it lands in.

/// Percentiles the tail ladder tries, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Minimum number of samples a reported tail percentile must have beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// Median and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// The highest percentile of the ladder 99.9, 99, 95, 90, 75 with at
    /// least [`TAIL_SUPPORT`] samples beyond it, as `(percentile, value)`;
    /// `None` when even the 75th percentile has fewer than that beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Percentiles {
    /// Summarise a sample; `None` when it is empty.
    ///
    /// The tail uses the nearest-rank definition: the `q`-th percentile is
    /// the sample at rank `⌈q·n/100⌉` (1-based), and the samples beyond it
    /// are the `n − rank` larger ranks.
    pub fn from_samples(samples: &[f64]) -> Option<Percentiles> {
        Self::from_samples_up_to(samples, 100.0)
    }

    /// Same as [`Percentiles::from_samples`], with the tail capped at the
    /// `cap`-th percentile: a metric named after p99 reports p99 whenever the
    /// sample supports it, and a lower percentile only when it does not.
    pub fn from_samples_up_to(samples: &[f64], cap: f64) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        let n = sorted.len();
        let tail = TAIL_LADDER.iter().filter(|&&q| q <= cap).find_map(|&q| {
            let rank = nearest_rank(q, n);
            (n - rank >= TAIL_SUPPORT).then(|| (q, sorted[rank - 1]))
        });
        Some(Percentiles {
            n,
            p50: median_of_sorted(&sorted),
            tail,
        })
    }

    /// The tail value, or the median when no tail percentile is supported.
    pub fn tail_or_median(&self) -> f64 {
        self.tail.map_or(self.p50, |(_, v)| v)
    }
}

/// 1-based nearest rank `⌈q·n/100⌉` of percentile `q` in a sample of `n`,
/// in integer tenths of a percent so that `0.999 · 20000` is exactly 19980.
fn nearest_rank(q: f64, n: usize) -> usize {
    let tenths = (q * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The median of a sample; `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| median_of_sorted(&sorted(values)))
}

/// The three quartiles `(q1, q2, q3)` of a sample with the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`; `None` below
/// two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a regression bound must exceed.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Robust length of a pass repeated several times over identical work.
///
/// Each pass reports checkpoints: nanoseconds since its start at the same
/// deterministic work boundaries (the last one is the pass end).  The
/// segments between consecutive checkpoints are grouped into at most
/// `groups` runs of consecutive segments, and the result is the sum over
/// groups of the shortest duration of that group across passes.
///
/// Interference from other tenants of the machine only ever slows the
/// program down, and comes in episodes of one to ten seconds that cover a
/// large share of the time; a median across a handful of passes is often
/// itself disturbed, while the fastest pass over each stretch of work is
/// disturbed only when every pass was.  Returns `None` unless every pass has
/// the same number of checkpoints.
pub fn segment_min_total(passes: &[Vec<u64>], groups: usize) -> Option<f64> {
    let first = passes.first()?;
    let count = first.len();
    if count == 0 || groups == 0 || passes.iter().any(|p| p.len() != count) {
        return None;
    }
    let groups = groups.min(count);
    let mut total = 0.0;
    for group in 0..groups {
        // Checkpoint indices [lo, hi) of this group; the group spans from
        // the checkpoint before `lo` (or the pass start) to `hi - 1`.
        let lo = group * count / groups;
        let hi = (group + 1) * count / groups;
        total += passes
            .iter()
            .map(|pass| {
                let start = if lo == 0 { 0 } else { pass[lo - 1] };
                pass[hi - 1].saturating_sub(start)
            })
            .min()? as f64;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 6.0, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
        // (8.25 - 2.75) / 5.5 == 1.0
        assert_eq!(relative_iqr(&values), Some(1.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // n = 240: p99 has rank 238 (2 beyond), p95 rank 228 (12 beyond).
        let values: Vec<f64> = (1..=240).map(f64::from).collect();
        let p = Percentiles::from_samples(&values).unwrap();
        assert_eq!(p.n, 240);
        assert_eq!(p.p50, 120.5);
        assert_eq!(p.tail, Some((95.0, 228.0)));
        // n = 2000: p99.9 has rank 1998 (2 beyond), p99 rank 1980 (20 beyond).
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(
            Percentiles::from_samples(&values).unwrap().tail,
            Some((99.0, 1980.0))
        );
        // n = 20000 supports p99.9, but a cap of 99 keeps p99.
        let values: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(
            Percentiles::from_samples(&values).unwrap().tail,
            Some((99.9, 19980.0))
        );
        assert_eq!(
            Percentiles::from_samples_up_to(&values, 99.0).unwrap().tail,
            Some((99.0, 19800.0))
        );
        // n = 30: p75 has rank 23 and only 7 beyond it; the median stands in.
        let values: Vec<f64> = (1..=30).map(f64::from).collect();
        let p = Percentiles::from_samples(&values).unwrap();
        assert_eq!((p.p50, p.tail, p.tail_or_median()), (15.5, None, 15.5));
        assert_eq!(Percentiles::from_samples(&[]), None);
    }

    #[test]
    fn nan_samples_sort_last_instead_of_panicking() {
        let p = Percentiles::from_samples(&[2.0, f64::NAN, 1.0]).unwrap();
        assert_eq!(p.p50, 2.0);
        assert!(median(&[f64::NAN, f64::NAN]).unwrap().is_nan());
    }

    #[test]
    fn segment_minima_discard_disturbed_stretches() {
        // Three passes over two segments of 10 ns each; pass 1 was slowed in
        // its first segment, pass 2 in its second and pass 0 in neither...
        let passes = vec![vec![10, 20], vec![50, 60], vec![10, 50]];
        assert_eq!(segment_min_total(&passes, 2), Some(20.0));
        // ... and with pass 0 slowed in its second segment, the fastest
        // stretches still come from different passes.
        let passes = vec![vec![10, 40], vec![50, 60], vec![12, 22]];
        assert_eq!(segment_min_total(&passes, 2), Some(20.0));
        // One group: the fastest pass total.
        assert_eq!(segment_min_total(&passes, 1), Some(22.0));
        // Checkpoints that disagree across passes are rejected.
        assert_eq!(segment_min_total(&[vec![1, 2], vec![1]], 2), None);
        assert_eq!(segment_min_total(&[], 2), None);
    }
}
