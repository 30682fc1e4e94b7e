//! Inter-arrival jitter measurement.

/// Tracks the jitter of a nominally periodic arrival process.
///
/// The paper (§3.7.2, §4.2) quotes jitter as the deviation of audio block
/// arrival times from their nominal cadence: "the jitter is usually around
/// 2ms, sometimes rising to 20ms if there are large blocks of video being
/// transmitted through the same network interface". This tracker reproduces
/// that notion: each arrival is compared against an ideal arrival clock that
/// starts at the first observation and advances by the nominal period, and
/// the *deviation* (actual − ideal, in the caller's time unit) is measured;
/// the tracker keeps the smallest and the largest.
///
/// It also keeps the classic RFC 3550 smoothed inter-arrival jitter
/// estimate, which is useful for comparing against modern systems.
///
/// # Examples
///
/// ```
/// // A 2ms (2_000_000ns) cadence with one late block.
/// let mut j = pandora_metrics::JitterTracker::new(2_000_000);
/// j.arrival(0);
/// j.arrival(2_000_000);
/// j.arrival(4_500_000); // 500us late
/// assert_eq!(j.peak_to_peak(), 500_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct JitterTracker {
    period: u64,
    first: Option<u64>,
    count: u64,
    last_arrival: Option<u64>,
    last_transit: f64,
    rfc3550: f64,
    /// Smallest and largest deviation; ±∞ before the first arrival.
    min_deviation: f64,
    max_deviation: f64,
}

impl JitterTracker {
    /// Creates a tracker for arrivals nominally `period` time units apart.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "jitter period must be non-zero");
        Self {
            period,
            first: None,
            count: 0,
            last_arrival: None,
            last_transit: 0.0,
            rfc3550: 0.0,
            min_deviation: f64::INFINITY,
            max_deviation: f64::NEG_INFINITY,
        }
    }

    /// Records an arrival at absolute time `t`.
    pub fn arrival(&mut self, t: u64) {
        let first = *self.first.get_or_insert(t);
        let ideal = first as f64 + self.count as f64 * self.period as f64;
        let deviation = t as f64 - ideal;
        self.min_deviation = self.min_deviation.min(deviation);
        self.max_deviation = self.max_deviation.max(deviation);
        if let Some(last) = self.last_arrival {
            // RFC 3550: J += (|D| - J) / 16 where D is the difference of
            // consecutive transit-time deltas; with a fixed send cadence the
            // transit delta is (gap - period). The gap is taken in `f64`, so
            // an arrival earlier than the last gives a negative gap.
            let transit = (t as f64 - last as f64) - self.period as f64;
            let d = (transit - self.last_transit).abs();
            self.rfc3550 += (d - self.rfc3550) / 16.0;
            self.last_transit = transit;
        }
        self.last_arrival = Some(t);
        self.count += 1;
    }

    /// Number of arrivals recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Peak-to-peak deviation (max − min), the "jitter" of §3.7.2.
    pub fn peak_to_peak(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max_deviation - self.min_deviation
        }
    }

    /// RFC 3550 smoothed inter-arrival jitter estimate.
    pub fn rfc3550(&self) -> f64 {
        self.rfc3550
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_cadence_has_zero_jitter() {
        let mut j = JitterTracker::new(2_000);
        for i in 0..100u64 {
            j.arrival(1_000 + i * 2_000);
        }
        assert_eq!(j.count(), 100);
        assert_eq!(j.max_deviation, 0.0);
        assert_eq!(j.peak_to_peak(), 0.0);
        assert_eq!(j.rfc3550(), 0.0);
    }

    #[test]
    fn single_late_arrival_measured() {
        let mut j = JitterTracker::new(2_000);
        j.arrival(0);
        j.arrival(2_500);
        assert_eq!(j.max_deviation, 500.0);
        assert_eq!(j.peak_to_peak(), 500.0);
    }

    #[test]
    fn early_and_late_peak_to_peak() {
        let mut j = JitterTracker::new(1_000);
        j.arrival(0);
        j.arrival(900); // 100 early
        j.arrival(2_300); // 300 late
        assert_eq!(j.peak_to_peak(), 400.0);
    }

    #[test]
    fn rfc3550_converges_toward_constant_jitter() {
        let mut j = JitterTracker::new(1_000);
        // Alternate 200 early / 200 late: |D| is 400 every step.
        let mut t = 0u64;
        for i in 0..2_000u64 {
            j.arrival(t + if i % 2 == 0 { 0 } else { 200 });
            t += 1_000;
        }
        assert!((j.rfc3550() - 400.0).abs() < 40.0, "got {}", j.rfc3550());
    }

    #[test]
    fn an_earlier_arrival_gives_a_negative_gap() {
        let mut j = JitterTracker::new(1_000);
        for t in [5_000, 4_000, 7_000] {
            j.arrival(t);
        }
        // Deviations 0, -2000 and 0; transits -2000 and +2000.
        assert_eq!(j.peak_to_peak(), 2_000.0);
        assert_eq!(j.max_deviation, 0.0);
        assert!(j.rfc3550().is_finite());
        assert_eq!(j.rfc3550(), 125.0 + (4_000.0 - 125.0) / 16.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let _ = JitterTracker::new(0);
    }
}
