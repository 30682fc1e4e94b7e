//! Time-series traces for figure-style output.

use std::sync::Arc;

/// An append-only `(time, value)` trace.
///
/// Used to regenerate figure-shaped results (the muting function of figure
/// 4.1, clawback delay decay curves, ...). Times must be non-decreasing.
/// Clones share the points until one side pushes.
///
/// # Examples
///
/// ```
/// let mut s = pandora_metrics::TimeSeries::new("mute_factor");
/// s.push(0, 1.0);
/// s.push(2_000_000, 0.2);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.value_at(1_000_000), Some(1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    points: Arc<Vec<(u64, f64)>>,
}

impl TimeSeries {
    /// Creates an empty series called `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            points: Arc::default(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point. Out-of-order times are clamped to the last time so
    /// the series stays monotonic (callers in the simulator always append in
    /// virtual-time order).
    pub fn push(&mut self, t: u64, v: f64) {
        let t = match self.points.last() {
            Some(&(last, _)) if t < last => last,
            _ => t,
        };
        Arc::make_mut(&mut self.points).push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All points in order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Step-interpolated value at time `t`: the value of the latest point at
    /// or before `t`, or `None` if `t` precedes the first point.
    pub fn value_at(&self, t: u64) -> Option<f64> {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }

    /// Last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Downsamples to at most `n` evenly spaced points (keeping endpoints);
    /// used when printing long traces as figure data.
    pub fn downsample(&self, n: usize) -> Vec<(u64, f64)> {
        if n == 0 || self.points.len() <= n {
            return self.points.to_vec();
        }
        let mut out = Vec::with_capacity(n);
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        for i in 0..n {
            out.push(self.points[(i as f64 * step).round() as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("x");
        assert!(s.is_empty());
        s.push(10, 1.0);
        s.push(20, 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(5), None);
        assert_eq!(s.value_at(10), Some(1.0));
        assert_eq!(s.value_at(15), Some(1.0));
        assert_eq!(s.value_at(25), Some(2.0));
        assert_eq!(s.last_value(), Some(2.0));
    }

    #[test]
    fn out_of_order_clamped() {
        let mut s = TimeSeries::new("x");
        s.push(10, 1.0);
        s.push(5, 2.0);
        assert_eq!(s.points(), &[(10, 1.0), (10, 2.0)]);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new("x");
        for i in 0..100u64 {
            s.push(i, i as f64);
        }
        let d = s.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], (0, 0.0));
        assert_eq!(d[4], (99, 99.0));
    }

    #[test]
    fn downsample_noop_when_short() {
        let mut s = TimeSeries::new("x");
        s.push(1, 1.0);
        assert_eq!(s.downsample(5).len(), 1);
    }
}
