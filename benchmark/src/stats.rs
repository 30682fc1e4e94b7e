//! The harness's own arithmetic: medians, the percentile rule, quartile
//! spread as the builder's driver computes it, interpolated percentiles
//! over the overlay's power-of-two hop buckets, and census × ns/op
//! shares.

/// Percentiles the harness is willing to report, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `(value, weight)` pairs: the smallest value at which at
/// least half of the total weight lies at or below it. With equal
/// weights it is the lower median. 0 when empty or weightless.
pub fn weighted_median(pairs: &[(f64, f64)]) -> f64 {
    let mut v = pairs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|p| p.1).sum();
    let mut seen = 0.0;
    for (value, weight) in v {
        seen += weight;
        if seen * 2.0 >= total && total > 0.0 {
            return value;
        }
    }
    0.0
}

/// The tail the harness reports under a `*_p99` name: p99 when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest
/// percentile of the ladder that has them, otherwise the median. Returns
/// the percentile used and its value; `sorted` is ascending.
pub fn tail_up_to_p99(sorted: &[f64]) -> (f64, f64) {
    let p = highest_supported_percentile(sorted.len()).map_or(50.0, |p| p.min(99.0));
    (p, percentile_sorted(sorted, p))
}

/// Mean of the fastest tenth of `values` (the smallest ones; at least
/// one). The hosts this benchmark runs on are shared virtual machines
/// whose speed sags by up to a half for seconds at a time (README.md has
/// the measurement). Interference only ever adds time, so of many equal
/// pieces of work the fastest ones are those that measured the program
/// and not the neighbours; a median over the pieces still moves by 20 %
/// with the host's mood, the fastest tenth by a few.
pub fn fastest_tenth(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() / 10).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product such as 99.9 % of 10,000, which floating point
/// renders as 9990.000000000002, from rounding up a whole rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// The rule every reported tail follows: the highest percentile of the
/// ladder with at least [`TAIL_SAMPLES`] samples beyond it, or `None`
/// when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The three quartile cut points of `values`, exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Percentile over power-of-two buckets (`buckets[i]` counts samples in
/// `[2^i, 2^(i+1))`), interpolated linearly inside the bucket the rank
/// falls in, so the figure moves with the counts instead of jumping
/// between bucket edges. 0 when the histogram is empty.
pub fn bucket_percentile(buckets: &[u64], p: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p / 100.0) * total as f64;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let count = count as f64;
        if count > 0.0 && seen + count >= target {
            let lo = (1u64 << i) as f64;
            return lo + lo * ((target - seen) / count).clamp(0.0, 1.0);
        }
        seen += count;
    }
    (1u64 << buckets.len()) as f64
}

/// Estimated share of `wall_s` a layer accounts for: `count` operations
/// at `ns_per_op` each.
pub fn est_share(count: u64, ns_per_op: f64, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    count as f64 * ns_per_op / 1e9 / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn weighted_median_weighs_values_by_their_units() {
        // 10 two-cell spans at 9 ns a cell, 2 hundred-cell spans at 3 ns.
        let mut pairs = vec![(9.0, 2.0); 10];
        pairs.extend([(3.0, 100.0), (3.5, 100.0)]);
        assert_eq!(weighted_median(&pairs), 3.5);
        assert_eq!(weighted_median(&[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]), 2.0);
        assert_eq!(weighted_median(&[(1.0, 1.0), (2.0, 1.0)]), 1.0);
        assert_eq!(weighted_median(&[]), 0.0);
    }

    #[test]
    fn a_p99_row_falls_back_to_the_tail_the_sample_supports() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_up_to_p99(&v(10_000)), (99.0, 9_900.0));
        assert_eq!(tail_up_to_p99(&v(1_000)), (99.0, 990.0));
        assert_eq!(tail_up_to_p99(&v(200)), (95.0, 190.0));
        assert_eq!(tail_up_to_p99(&v(4)), (50.0, 2.0));
        assert_eq!(tail_up_to_p99(&[]), (50.0, 0.0));
    }

    #[test]
    fn fastest_tenth_is_the_mean_of_the_smallest_values() {
        let v: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(fastest_tenth(&v), 2.0);
        assert_eq!(fastest_tenth(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(fastest_tenth(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]), Some([3.0, 4.0, 7.0]));
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn bucket_percentile_interpolates_inside_the_bucket() {
        // 100 samples in [4, 8), 100 in [8, 16).
        let mut b = [0u64; 16];
        b[2] = 100;
        b[3] = 100;
        assert_eq!(bucket_percentile(&b, 25.0), 6.0);
        assert_eq!(bucket_percentile(&b, 50.0), 8.0);
        assert_eq!(bucket_percentile(&b, 75.0), 12.0);
        assert_eq!(bucket_percentile(&[0; 16], 50.0), 0.0);
    }

    #[test]
    fn share_is_count_times_cost_over_wall() {
        // 2 M operations at 500 ns each are one second of a four-second run.
        assert_eq!(est_share(2_000_000, 500.0, 4.0), 0.25);
        assert_eq!(est_share(5, 100.0, 0.0), 0.0);
    }
}
