//! Event counters.

use std::collections::BTreeMap;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// let mut c = pandora_metrics::Counter::new();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self(0)
    }

    /// Adds `n` to the counter, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

/// A set of named counters, ordered by name for stable output.
///
/// Used by Pandora processes to keep "local counts of how many segments have
/// been thrown away" per error class (§3.8).
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    counters: BTreeMap<String, Counter>,
}

impl CounterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter called `name`, creating it if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        self.counters.entry(name.to_string()).or_default().add(n);
    }

    /// Adds one to the counter called `name`.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name`, zero if it was never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Sum over all counters.
    pub fn total(&self) -> u64 {
        self.counters.values().map(|c| c.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(2);
        assert_eq!(c.get(), 3);
        assert_eq!(c.take(), 3);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_set_accumulates_by_name() {
        let mut s = CounterSet::new();
        s.incr("drops.video");
        s.incr("drops.video");
        s.incr("drops.audio");
        assert_eq!(s.get("drops.video"), 2);
        assert_eq!(s.get("drops.audio"), 1);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.total(), 3);
        let names: Vec<_> = s.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, ["drops.audio", "drops.video"]);
    }
}
