//! Stream numbers, sequence numbers and timestamps.

/// A stream number, "allocated by the interface code" (§3.4).
///
/// Streams within a box pass the stream number in an extra field preceding
/// the segment header; streams arriving from the network carry it in their
/// VCI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A 32-bit wrapping segment sequence number.
///
/// "As all pandora segments carry sequence numbers, the destination can
/// detect that segments are missing as soon as a later one arrives" (§3.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SequenceNumber(pub u32);

impl SequenceNumber {
    /// The next sequence number, wrapping at 2^32.
    pub fn next(self) -> SequenceNumber {
        SequenceNumber(self.0.wrapping_add(1))
    }

    /// Signed distance from `self` to `other` with wrap-around, positive if
    /// `other` is ahead.
    pub(crate) fn distance_to(self, other: SequenceNumber) -> i32 {
        other.0.wrapping_sub(self.0) as i32
    }
}

/// Result of feeding an arrival into a [`SeqTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqEvent {
    /// The expected next segment.
    InOrder,
    /// `missing` segments were skipped before this one.
    Gap {
        /// How many sequence numbers were never seen.
        missing: u32,
    },
    /// A duplicate or stale segment (at or before the last seen).
    Stale,
}

/// Tracks per-stream sequence numbers and detects losses (§3.8).
#[derive(Debug, Clone, Default)]
pub struct SeqTracker {
    next: Option<SequenceNumber>,
    lost: u64,
    received: u64,
    stale: u64,
}

impl SeqTracker {
    /// Creates a tracker that accepts any first sequence number.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes an arriving sequence number.
    pub fn observe(&mut self, seq: SequenceNumber) -> SeqEvent {
        let event = match self.next {
            None => SeqEvent::InOrder,
            Some(expected) => {
                let d = expected.distance_to(seq);
                if d == 0 {
                    SeqEvent::InOrder
                } else if d > 0 {
                    self.lost += d as u64;
                    SeqEvent::Gap { missing: d as u32 }
                } else {
                    self.stale += 1;
                    return SeqEvent::Stale;
                }
            }
        };
        self.received += 1;
        self.next = Some(seq.next());
        event
    }

    /// Total segments counted as lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total segments accepted (in-order plus after-gap).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Total stale/duplicate segments discarded.
    pub fn stale(&self) -> u64 {
        self.stale
    }
}

/// A segment timestamp with 64 µs resolution (§3.2).
///
/// "Carries a timestamp with 64µs resolution derived from the Transputer
/// clock as close as possible to the data source. The timestamps are
/// relative to the last time the Pandora's Box was booted, and are not
/// drift corrected."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u32);

impl Timestamp {
    /// Resolution of one timestamp unit in nanoseconds.
    const RESOLUTION_NANOS: u64 = 64_000;

    /// Quantises a boot-relative time in nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        Timestamp((ns / Self::RESOLUTION_NANOS) as u32)
    }

    /// The boot-relative time in nanoseconds (lower bound of the unit).
    pub fn as_nanos(self) -> u64 {
        self.0 as u64 * Self::RESOLUTION_NANOS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_wraps() {
        let s = SequenceNumber(u32::MAX);
        assert_eq!(s.next(), SequenceNumber(0));
        assert_eq!(s.distance_to(SequenceNumber(0)), 1);
        assert_eq!(SequenceNumber(0).distance_to(s), -1);
    }

    #[test]
    fn tracker_in_order() {
        let mut t = SeqTracker::new();
        assert_eq!(t.observe(SequenceNumber(5)), SeqEvent::InOrder);
        assert_eq!(t.observe(SequenceNumber(6)), SeqEvent::InOrder);
        assert_eq!(t.lost(), 0);
        assert_eq!(t.received(), 2);
    }

    #[test]
    fn tracker_detects_gap() {
        let mut t = SeqTracker::new();
        t.observe(SequenceNumber(0));
        assert_eq!(t.observe(SequenceNumber(3)), SeqEvent::Gap { missing: 2 });
        assert_eq!(t.lost(), 2);
    }

    #[test]
    fn tracker_rejects_stale() {
        let mut t = SeqTracker::new();
        t.observe(SequenceNumber(10));
        assert_eq!(t.observe(SequenceNumber(10)), SeqEvent::Stale);
        assert_eq!(t.observe(SequenceNumber(9)), SeqEvent::Stale);
        assert_eq!(t.stale(), 2);
        // The expectation is unchanged: 11 is still in order.
        assert_eq!(t.observe(SequenceNumber(11)), SeqEvent::InOrder);
    }

    #[test]
    fn tracker_gap_across_wrap() {
        let mut t = SeqTracker::new();
        t.observe(SequenceNumber(u32::MAX));
        assert_eq!(t.observe(SequenceNumber(1)), SeqEvent::Gap { missing: 1 });
    }

    #[test]
    fn timestamp_resolution() {
        assert_eq!(Timestamp::from_nanos(0).0, 0);
        assert_eq!(Timestamp::from_nanos(63_999).0, 0);
        assert_eq!(Timestamp::from_nanos(64_000).0, 1);
        assert_eq!(Timestamp::from_nanos(2_000_000).as_nanos(), 1_984_000);
    }
}
