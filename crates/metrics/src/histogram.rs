//! Sample-recording histogram with exact quantiles.

use std::sync::Arc;

/// A distribution of `f64` samples with exact quantile queries.
///
/// Samples are stored; a quantile selects its sample in place, digit by
/// digit over keys that order as [`f64::total_cmp`] does, without moving
/// or copying one. This is appropriate for the simulation workloads in
/// this workspace (up to a few million samples) and keeps quantiles exact,
/// which matters when asserting paper figures in tests.
///
/// While every sample is an integer in `0..=u32::MAX` (whole nanoseconds)
/// it is kept as a `u32`; the storage widens to `f64`, exactly, on the first
/// that is not. Clones share the storage until one side writes, and a
/// merge shares the other side's storage instead of copying it.
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
    /// What `record` wrote here.
    samples: Arc<Samples>,
    /// The non-empty storage of every histogram merged in, shared.
    parts: Vec<Arc<Samples>>,
    sum: f64,
}

/// Samples in recording order: `narrow` while every one is an integer in
/// `0..=u32::MAX`, then all in `wide`.
#[derive(Debug, Clone, Default)]
struct Samples {
    narrow: Vec<u32>,
    wide: Option<Vec<f64>>,
}

impl Samples {
    fn len(&self) -> usize {
        self.wide.as_ref().map_or(self.narrow.len(), Vec::len)
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
            let narrow = std::mem::take(&mut self.narrow);
            self.wide
                .get_or_insert_with(|| narrow.into_iter().map(f64::from).collect())
                .push(v);
        }
    }
}

/// The `u64` whose unsigned order is `total_cmp` order: a negative has
/// every bit flipped, anything else only its sign. Samples with one key
/// have the same bits.
fn key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn from_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
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
        self.sum += v;
    }

    fn storage(&self) -> impl Iterator<Item = &Samples> {
        std::iter::once(&*self.samples).chain(self.parts.iter().map(|p| &**p))
    }

    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.storage().flat_map(Samples::iter).map(key)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.storage().map(Samples::len).sum()
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

    /// Smallest sample in `total_cmp` order (so `-0.0` before `0.0`), or
    /// 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.keys().min().map_or(0.0, from_key)
    }

    /// Largest sample in `total_cmp` order, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.keys().max().map_or(0.0, from_key)
    }

    /// Exact percentile by nearest-rank (`p` in 0..=100), or 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.select(rank.saturating_sub(1))
    }

    /// The sample `rank` places from the smallest in `total_cmp` order.
    /// Each pass counts, by its next byte, the keys that share the bytes
    /// above it with the answer, and keeps the byte where `rank` falls.
    fn select(&self, mut rank: usize) -> f64 {
        let mut found = 0u64;
        for shift in (0..64).step_by(8).rev() {
            let above = shift + 8;
            let mut counts = [0usize; 256];
            for k in self.keys() {
                if k.checked_shr(above) == found.checked_shr(above) {
                    counts[usize::from((k >> shift) as u8)] += 1;
                }
            }
            let mut digit = 0;
            while rank >= counts[digit] {
                rank -= counts[digit];
                digit += 1;
            }
            found |= (digit as u64) << shift;
        }
        from_key(found)
    }

    /// Merges all samples of `other` into `self`, sharing its storage.
    pub fn merge(&mut self, other: &Histogram) {
        let theirs = std::iter::once(&other.samples).chain(&other.parts);
        self.parts
            .extend(theirs.filter(|s| s.len() > 0).map(Arc::clone));
        self.sum += other.sum;
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
    fn a_record_after_a_percentile_is_counted() {
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
    fn min_and_max_follow_total_order_whatever_the_recording_order() {
        for order in [[0.0, -0.0], [-0.0, 0.0]] {
            let mut h = Histogram::new();
            order.into_iter().for_each(|v| h.record(v));
            assert_eq!(h.min().to_bits(), (-0.0f64).to_bits());
            assert_eq!(h.max().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn a_merge_shares_its_parts_and_copies_nothing() {
        let mut a = Histogram::new();
        a.record(7.0);
        let (mut b, mut c) = (Histogram::new(), Histogram::new());
        b.record(1.0);
        c.record(2.5);
        b.merge(&c);
        a.merge(&b);
        a.merge(&Histogram::new());
        // `b`'s own storage and its part, by reference; nothing empty.
        assert_eq!(a.parts.len(), 2);
        assert!(Arc::ptr_eq(&a.parts[0], &b.samples));
        assert!(Arc::ptr_eq(&a.parts[1], &c.samples));
        assert_eq!(a.samples.len(), 1);
        assert_eq!((a.count(), a.percentile(50.0), a.max()), (3, 2.5, 7.0));
        // A record on either side copies only that side's own storage.
        b.record(9.0);
        a.record(0.0);
        assert_eq!((a.count(), a.max(), b.count()), (4, 7.0, 3));
        assert!(Arc::ptr_eq(&a.parts[1], &c.samples));
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
