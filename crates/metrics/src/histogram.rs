//! Sample-recording histogram with exact quantiles.

use std::sync::Arc;

/// A distribution of `f64` samples with exact quantile queries.
///
/// Samples are stored; quantiles are computed by sorting on demand with the
/// sorted order cached until the next insertion. This is appropriate for the
/// simulation workloads in this workspace (up to a few million samples) and
/// keeps quantiles exact, which matters when asserting paper figures in
/// tests.
///
/// While every sample is an integer in `0..=u32::MAX` (whole nanoseconds)
/// it is kept as a `u32`; the storage widens to `f64`, exactly, on the first
/// that is not. Clones share the storage until one side writes.
///
/// # Examples
///
/// ```
/// let mut h = pandora_metrics::Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.percentile(50.0), 2.0);
/// assert_eq!(h.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Arc<Samples>,
    sorted: bool,
    sum: f64,
}

/// The samples in recording order, or ascending once sorted: `narrow`
/// while every one is an integer in `0..=u32::MAX`, then all in `wide`.
#[derive(Debug, Clone, Default)]
struct Samples {
    narrow: Vec<u32>,
    wide: Option<Vec<f64>>,
}

impl Samples {
    fn len(&self) -> usize {
        self.wide.as_ref().map_or(self.narrow.len(), Vec::len)
    }

    fn get(&self, i: usize) -> f64 {
        self.wide
            .as_ref()
            .map_or_else(|| f64::from(self.narrow[i]), |w| w[i])
    }

    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let narrow = self.narrow.iter().map(|&v| f64::from(v));
        narrow.chain(self.wide.iter().flatten().copied())
    }

    fn push(&mut self, v: f64) {
        // `u32 -> f64` is exact, so the round trip keeps exactly the
        // integers in range: not fractions, negatives, -0.0 or 2^32.
        let narrow = v as u32;
        if self.wide.is_none() && f64::from(narrow).to_bits() == v.to_bits() {
            self.narrow.push(narrow);
        } else {
            self.widen().push(v);
        }
    }

    fn extend(&mut self, other: &Samples) {
        if self.wide.is_none() && other.wide.is_none() {
            self.narrow.extend_from_slice(&other.narrow);
        } else {
            self.widen().extend(other.iter());
        }
    }

    fn widen(&mut self) -> &mut Vec<f64> {
        let narrow = std::mem::take(&mut self.narrow);
        self.wide
            .get_or_insert_with(|| narrow.into_iter().map(f64::from).collect())
    }

    /// Ascending `u32` order is `total_cmp` order of the same values as
    /// `f64`, and samples equal under either are the same bits, so both
    /// forms sort to the sequence a stable `total_cmp` sort gives.
    fn sort(&mut self) {
        match &mut self.wide {
            Some(wide) => wide.sort_unstable_by(f64::total_cmp),
            None => self.narrow.sort_unstable(),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        Arc::make_mut(&mut self.samples).push(v);
        self.sorted = false;
        self.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    /// Population standard deviation, or 0.0 when empty.
    pub fn stddev(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.count() as f64;
        var.sqrt()
    }

    /// Smallest sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.samples
            .iter()
            .fold(f64::INFINITY, f64::min)
            .min_finite()
    }

    /// Largest sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_finite()
    }

    /// Exact percentile by nearest-rank (`p` in 0..=100), or 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            Arc::make_mut(&mut self.samples).sort();
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count() as f64).ceil() as usize;
        self.samples.get(rank.saturating_sub(1))
    }

    /// Merges all samples of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        Arc::make_mut(&mut self.samples).extend(&other.samples);
        self.sum += other.sum;
        self.sorted = false;
    }

    /// One-line summary: `n=.. mean=.. p50=.. p99=.. max=..`.
    pub fn summary(&mut self) -> String {
        format!(
            "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

trait Finite {
    fn min_finite(self) -> f64;
    fn max_finite(self) -> f64;
}

impl Finite for f64 {
    fn min_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
    fn max_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.stddev(), 0.0);
    }

    #[test]
    fn mean_min_max() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(1.0), 1.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn record_after_percentile_resorts() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.percentile(50.0), 10.0);
        h.record(1.0);
        assert_eq!(h.percentile(50.0), 1.0);
    }

    #[test]
    fn non_finite_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(4.0);
        }
        assert_eq!(h.stddev(), 0.0);
    }

    /// Bytes the stored samples take, by their element type.
    fn sample_bytes(h: &Histogram) -> usize {
        let wide = h.samples.wide.as_deref().map_or(0, std::mem::size_of_val);
        std::mem::size_of_val(&h.samples.narrow[..]) + wide
    }

    #[test]
    fn nanosecond_samples_take_four_bytes_until_one_is_not_an_integer() {
        let mut h = Histogram::new();
        for ns in [0.0, 2_000_000.0, 9_610_212.0, f64::from(u32::MAX)] {
            h.record(ns);
        }
        assert_eq!(sample_bytes(&h), 4 * h.count());
        let twin = h.clone();
        h.record(0.5);
        assert_eq!(sample_bytes(&h), 8 * h.count());
        assert_eq!(sample_bytes(&twin), 4 * twin.count());
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), f64::from(u32::MAX));
    }

    #[test]
    fn summary_contains_count() {
        let mut h = Histogram::new();
        h.record(1.0);
        assert!(h.summary().contains("n=1"));
    }
}
