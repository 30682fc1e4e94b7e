//! Time-series traces for figure-style output.

use std::sync::Arc;

/// The code that opens a literal point: its step and value bits follow.
const ESCAPE: u8 = u8::MAX;

/// An append-only `(time, value)` trace.
///
/// Used to regenerate figure-shaped results (the muting function of figure
/// 4.1, clawback delay decay curves, ...). Times must be non-decreasing.
/// Each point is stored as its step from the previous time and its value's
/// bits: one byte when that pair is among the first 255 distinct ones the
/// series saw, else an escape byte and the 16-byte pair. Clones share the
/// points until one side pushes.
///
/// # Examples
///
/// ```
/// let mut s = pandora_metrics::TimeSeries::new("mute_factor");
/// s.push(0, 1.0);
/// s.push(2_000_000, 0.2);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.last_value(), Some(0.2));
/// let points: Vec<(u64, f64)> = s.points().iter().collect();
/// assert_eq!(points, [(0, 1.0), (2_000_000, 0.2)]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    trace: Arc<Trace>,
}

#[derive(Debug, Clone, Default)]
struct Trace {
    /// Per point, an index into `table` or [`ESCAPE`] and a literal pair.
    codes: Vec<u8>,
    /// Distinct `(step, value bits)` pairs in order of first sight.
    table: Vec<(u64, u64)>,
    len: usize,
    last: Option<(u64, f64)>,
}

impl Trace {
    fn push(&mut self, t: u64, v: f64) {
        let last = self.last.map_or(0, |(last, _)| last);
        let t = t.max(last);
        let pair = (t - last, v.to_bits());
        match self.table.iter().position(|&p| p == pair) {
            Some(code) => self.codes.push(code as u8),
            None if self.table.len() < usize::from(ESCAPE) => {
                self.codes.push(self.table.len() as u8);
                self.table.push(pair);
            }
            None => {
                self.codes.push(ESCAPE);
                self.codes.extend(pair.0.to_le_bytes());
                self.codes.extend(pair.1.to_le_bytes());
            }
        }
        self.len += 1;
        self.last = Some((t, v));
    }
}

/// The points of a [`TimeSeries`], decoded as they are read.
#[derive(Debug, Clone, Copy)]
pub struct Points<'a> {
    trace: &'a Trace,
}

impl<'a> Points<'a> {
    /// Every point in order.
    pub fn iter(&self) -> PointsIter<'a> {
        PointsIter {
            codes: &self.trace.codes,
            table: &self.trace.table,
            t: 0,
        }
    }
}

impl<'a> IntoIterator for Points<'a> {
    type Item = (u64, f64);
    type IntoIter = PointsIter<'a>;

    fn into_iter(self) -> PointsIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`TimeSeries`]' points, by value.
#[derive(Debug, Clone)]
pub struct PointsIter<'a> {
    codes: &'a [u8],
    table: &'a [(u64, u64)],
    t: u64,
}

impl Iterator for PointsIter<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        let (&code, mut rest) = self.codes.split_first()?;
        let (step, bits) = if code == ESCAPE {
            let (step, after) = rest.split_first_chunk()?;
            let (bits, after) = after.split_first_chunk()?;
            rest = after;
            (u64::from_le_bytes(*step), u64::from_le_bytes(*bits))
        } else {
            *self.table.get(usize::from(code))?
        };
        self.codes = rest;
        self.t += step;
        Some((self.t, f64::from_bits(bits)))
    }
}

impl TimeSeries {
    /// Creates an empty series called `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            trace: Arc::default(),
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
        Arc::make_mut(&mut self.trace).push(t, v);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.trace.len
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All points in order.
    pub fn points(&self) -> Points<'_> {
        Points { trace: &self.trace }
    }

    /// Last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.trace.last.map(|(_, v)| v)
    }

    /// Downsamples to at most `n` evenly spaced points (keeping endpoints);
    /// used when printing long traces as figure data.
    pub fn downsample(&self, n: usize) -> Vec<(u64, f64)> {
        let len = self.len();
        if n == 0 || len <= n {
            return self.points().iter().collect();
        }
        let step = (len - 1) as f64 / (n - 1) as f64;
        let mut points = self.points().iter();
        // `points` next yields the point at index `at`.
        let mut at = 0;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let want = (i as f64 * step).round() as usize;
            out.extend(points.nth(want - at));
            at = want + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(s: &TimeSeries) -> Vec<(u64, f64)> {
        s.points().iter().collect()
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.last_value(), None);
        s.push(10, 1.0);
        s.push(20, 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(points(&s), [(10, 1.0), (20, 2.0)]);
        assert_eq!(s.last_value(), Some(2.0));
    }

    #[test]
    fn out_of_order_clamped() {
        let mut s = TimeSeries::new("x");
        s.push(10, 1.0);
        s.push(5, 2.0);
        assert_eq!(points(&s), [(10, 1.0), (10, 2.0)]);
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

    #[test]
    fn a_repeating_trace_takes_one_byte_a_point() {
        let mut s = TimeSeries::new("delay");
        let mut t = 0;
        for i in 0..10_000u64 {
            t += [2_000_000, 4_000_000, 1 << 40][(i % 3) as usize];
            s.push(t, [2e6, 4e6, 6e6, 8e6][(i % 4) as usize]);
        }
        assert_eq!((s.trace.codes.len(), s.trace.table.len()), (10_000, 12));
        assert_eq!(s.points().iter().last(), Some((t, 8e6)));

        // Past 255 distinct pairs every new one is a 17-byte literal,
        // read back exactly; a pair the table has still takes one byte.
        let mut s = TimeSeries::new("ramp");
        for i in 0..300u64 {
            s.push(i, i as f64);
        }
        s.push(300, 1.0);
        assert_eq!(s.trace.table.len(), 255);
        assert_eq!(s.trace.codes.len(), 255 + 45 * 17 + 1);
        let expected: Vec<(u64, f64)> = (0..300).map(|i| (i, i as f64)).collect();
        assert_eq!(points(&s)[..300], expected);
        assert_eq!(points(&s)[300], (300, 1.0));
    }
}
