//! Virtual time for the simulation.
//!
//! All simulation time is kept in nanoseconds as a `u64`. Nanosecond
//! resolution comfortably covers the paper's time scales (1 µs transputer
//! timer, 64 µs timestamp resolution, 125 µs samples, 2 ms blocks) while
//! still allowing byte-accurate modelling of link transfer times
//! (1 byte at 20 Mbit/s = 400 ns).

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero.
    pub const fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds in this duration (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the duration by an integer factor, saturating.
    pub const fn mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Divides the duration by an integer divisor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub const fn div(self, k: u64) -> Self {
        SimDuration(self.0 / k)
    }
}

impl std::ops::Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_micros(125).as_nanos(), 125_000);
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(3)).as_millis(), 12);
        assert_eq!(t.since(SimTime::from_millis(20)), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_millis(2).mul(12).as_millis(), 24);
        assert_eq!(SimDuration::from_millis(24).div(12).as_millis(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(400)), "400ns");
        assert_eq!(format!("{}", SimDuration::from_micros(125)), "125.0us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(8)), "8.000s");
    }

    #[test]
    fn saturating_behaviour() {
        let t = SimTime(u64::MAX);
        assert_eq!((t + SimDuration::from_secs(1)).0, u64::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
    }
}
