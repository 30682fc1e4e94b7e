//! Clawback buffers (§3.7.2) — destination-side jitter removal with
//! automatic delay reduction.
//!
//! "These buffers are designed to remove the effects of drift and jitter,
//! and should be placed downstream of any components that introduce
//! variable delays … as close to the destination as possible." One buffer
//! per arriving audio stream; the mixer reads a 2 ms block from each every
//! 2 ms. An empty buffer at mix time inserts silence and lets the buffer
//! refill one block deeper; persistent excess depth is *clawed back* at a
//! fixed slow rate (2 ms per 8 s by default — the Clawback Rate of 1 in
//! 4000), which also absorbs clock drift up to that rate.
//!
//! The [`MultiRateClawback`] implements the paper's proposed extension for
//! high-jitter environments: removal frequency proportional to the running
//! minimum buffer contents, giving an exponential decay of the jitter
//! correction delay with time constant ≈ the configured block-seconds
//! level.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use pandora_segment::StreamId;

/// Nanoseconds per 2 ms audio block.
const BLOCK_NANOS: u64 = 2_000_000;

/// Configuration of a single-rate clawback buffer (defaults from §3.7.2).
#[derive(Debug, Clone, Copy)]
pub struct ClawbackConfig {
    /// The lower target in blocks ("our default is 4ms" = 2 blocks).
    pub lower_target_blocks: usize,
    /// Above-target arrivals before one block is clawed back
    /// ("4096 in our implementation, representing 8 seconds").
    pub count_threshold: u64,
    /// Hard per-stream cap in blocks ("no point in buffering more than
    /// about 120ms of audio for a single stream" = 60 blocks).
    pub per_stream_limit_blocks: usize,
}

impl Default for ClawbackConfig {
    fn default() -> Self {
        ClawbackConfig {
            lower_target_blocks: 2,
            count_threshold: 4096,
            per_stream_limit_blocks: 60,
        }
    }
}

impl ClawbackConfig {
    /// The clawback rate: fraction of blocks removed while above target
    /// (1/4096 by default; the paper rounds to "1 in 4000").
    pub fn clawback_rate(&self) -> f64 {
        1.0 / self.count_threshold as f64
    }
}

/// Outcome of offering an arriving block to a clawback buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Queued normally.
    Accepted,
    /// Dropped to claw back accumulated delay (the adaptive mechanism).
    ClawedBack,
    /// Dropped because the stream hit its hard buffering cap; the paper
    /// treats this as a reportable fault ("the process reports this
    /// condition so that the cause can be investigated").
    OverLimit,
    /// Dropped because the shared pool is exhausted.
    PoolFull,
}

/// Statistics kept by each clawback buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClawbackStats {
    // Fields are summed by `merge` below.
    /// Blocks offered.
    pub arrivals: u64,
    /// Blocks queued.
    pub accepted: u64,
    /// Blocks dropped by the clawback mechanism.
    pub clawed_back: u64,
    /// Blocks dropped at the per-stream cap.
    pub over_limit: u64,
    /// Blocks dropped because the shared pool was full.
    pub pool_full: u64,
    /// Mix ticks that found the buffer empty (silence insertions).
    pub empty_ticks: u64,
    /// Blocks delivered to the mixer.
    pub served: u64,
}

impl ClawbackStats {
    /// Field-wise sum of two snapshots.
    pub fn merge(&self, other: &ClawbackStats) -> ClawbackStats {
        ClawbackStats {
            arrivals: self.arrivals + other.arrivals,
            accepted: self.accepted + other.accepted,
            clawed_back: self.clawed_back + other.clawed_back,
            over_limit: self.over_limit + other.over_limit,
            pool_full: self.pool_full + other.pool_full,
            empty_ticks: self.empty_ticks + other.empty_ticks,
            served: self.served + other.served,
        }
    }
}

/// The shared memory pool: "we have a total of four seconds of clawback
/// buffering shared between all active streams". Buffers are linked lists
/// precisely so they can share this pool dynamically.
#[derive(Debug, Clone)]
pub struct ClawbackPool {
    capacity: usize,
    used: Rc<Cell<usize>>,
}

impl ClawbackPool {
    /// A pool of `capacity` blocks (2000 blocks = 4 s by default).
    pub fn new(capacity: usize) -> Self {
        ClawbackPool {
            capacity,
            used: Rc::new(Cell::new(0)),
        }
    }

    /// The standard 4-second pool.
    pub fn standard() -> Self {
        ClawbackPool::new(2_000)
    }

    fn try_take(&self) -> bool {
        if self.used.get() < self.capacity {
            self.used.set(self.used.get() + 1);
            true
        } else {
            false
        }
    }

    fn give_back(&self) {
        debug_assert!(self.used.get() > 0, "pool release without take");
        self.used.set(self.used.get().saturating_sub(1));
    }

    /// Blocks currently held across all streams.
    pub fn used(&self) -> usize {
        self.used.get()
    }

    /// Total blocks in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A single-rate clawback buffer for one stream.
#[derive(Debug)]
pub struct Clawback<T> {
    queue: VecDeque<T>,
    config: ClawbackConfig,
    above_target_count: u64,
    stats: ClawbackStats,
    pool: Option<ClawbackPool>,
}

impl<T> Clawback<T> {
    /// Creates a buffer with its own unshared memory.
    pub fn new(config: ClawbackConfig) -> Self {
        Clawback {
            queue: VecDeque::new(),
            config,
            above_target_count: 0,
            stats: ClawbackStats::default(),
            pool: None,
        }
    }

    /// Creates a buffer drawing blocks from a shared pool.
    pub fn with_pool(config: ClawbackConfig, pool: ClawbackPool) -> Self {
        let mut b = Clawback::new(config);
        b.pool = Some(pool);
        b
    }

    /// Offers an arriving block.
    pub fn arrival(&mut self, item: T) -> Arrival {
        self.stats.arrivals += 1;
        // Hard cap first: "we throw away samples if the buffer is above its
        // limit when they arrive."
        if self.queue.len() >= self.config.per_stream_limit_blocks {
            self.stats.over_limit += 1;
            return Arrival::OverLimit;
        }
        // The clawback check: "every time a block is added, the clawback
        // mechanism checks the count of blocks in the buffer against a
        // lower target … If it is above this target level, a count is
        // incremented. When this count exceeds some value, the current
        // incoming block is dropped to reduce the delay."
        if self.queue.len() > self.config.lower_target_blocks {
            self.above_target_count += 1;
            if self.above_target_count >= self.config.count_threshold {
                self.above_target_count = 0;
                self.stats.clawed_back += 1;
                return Arrival::ClawedBack;
            }
        }
        if let Some(pool) = &self.pool {
            if !pool.try_take() {
                self.stats.pool_full += 1;
                return Arrival::PoolFull;
            }
        }
        self.queue.push_back(item);
        self.stats.accepted += 1;
        Arrival::Accepted
    }

    /// The mixer's 2 ms read: a block, or `None` when empty (the caller
    /// mixes silence for this stream and the buffer refills one deeper).
    pub fn tick(&mut self) -> Option<T> {
        match self.queue.pop_front() {
            Some(item) => {
                if let Some(pool) = &self.pool {
                    pool.give_back();
                }
                self.stats.served += 1;
                Some(item)
            }
            None => {
                self.stats.empty_ticks += 1;
                None
            }
        }
    }

    /// Blocks currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The jitter-correction delay this buffer currently adds, in ns.
    pub fn delay_nanos(&self) -> u64 {
        self.queue.len() as u64 * BLOCK_NANOS
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClawbackStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> ClawbackConfig {
        self.config
    }
}

impl<T> Drop for Clawback<T> {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            for _ in 0..self.queue.len() {
                pool.give_back();
            }
        }
    }
}

/// The multi-rate clawback's product level in block·seconds (§3.7.2: "20
/// block seconds would be suitable for our environment").
const MULTI_RATE_LEVEL_BLOCK_SECONDS: f64 = 20.0;

/// The multi-rate clawback's hard per-stream cap in blocks.
const MULTI_RATE_LIMIT_BLOCKS: usize = 512;

/// The multi-rate clawback buffer: "keeping a running minimum of the
/// buffer contents, and removing blocks at a frequency proportional to
/// that minimum … remove a block and reset the counts whenever the product
/// (minimum contents) × (blocks since last reset) exceeds some level."
///
/// The running minimum is sampled at mix reads (after each pop), which is
/// where the true standing excess shows; the measurement window resets on
/// every removal *and* on every underrun — a buffer that just ran dry
/// carries no excess delay, so measurement starts afresh.
#[derive(Debug)]
pub struct MultiRateClawback<T> {
    queue: VecDeque<T>,
    /// Minimum post-pop contents this window; `usize::MAX` = no sample yet.
    running_min: usize,
    arrivals_since_reset: u64,
    stats: ClawbackStats,
}

impl<T> Default for MultiRateClawback<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MultiRateClawback<T> {
    /// Creates a multi-rate buffer.
    pub fn new() -> Self {
        MultiRateClawback {
            queue: VecDeque::new(),
            running_min: usize::MAX,
            arrivals_since_reset: 0,
            stats: ClawbackStats::default(),
        }
    }

    fn reset_window(&mut self) {
        self.arrivals_since_reset = 0;
        self.running_min = usize::MAX;
    }

    /// Offers an arriving block.
    pub fn arrival(&mut self, item: T) -> Arrival {
        self.stats.arrivals += 1;
        if self.queue.len() >= MULTI_RATE_LIMIT_BLOCKS {
            self.stats.over_limit += 1;
            return Arrival::OverLimit;
        }
        self.arrivals_since_reset += 1;
        let seconds = self.arrivals_since_reset as f64 * (BLOCK_NANOS as f64 / 1e9);
        if self.running_min != usize::MAX && self.running_min > 0 {
            let product = self.running_min as f64 * seconds;
            if product > MULTI_RATE_LEVEL_BLOCK_SECONDS {
                // Remove a block and reset the counts.
                self.reset_window();
                self.stats.clawed_back += 1;
                return Arrival::ClawedBack;
            }
        }
        self.queue.push_back(item);
        self.stats.accepted += 1;
        Arrival::Accepted
    }

    /// The mixer's 2 ms read.
    pub fn tick(&mut self) -> Option<T> {
        match self.queue.pop_front() {
            Some(item) => {
                self.running_min = self.running_min.min(self.queue.len());
                self.stats.served += 1;
                Some(item)
            }
            None => {
                self.stats.empty_ticks += 1;
                self.reset_window();
                None
            }
        }
    }

    /// Blocks currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClawbackStats {
        self.stats
    }

    /// The current jitter-correction delay in nanoseconds.
    pub fn delay_nanos(&self) -> u64 {
        self.queue.len() as u64 * BLOCK_NANOS
    }
}

/// A bank of per-stream clawback buffers with the paper's automatic
/// lifecycle: "the time saved when a clawback buffer is found to be empty
/// is used to deactivate the stream, removing the clawback buffer
/// altogether. If a block arrives for a stream that does not have a
/// buffer, a new clawback buffer will be inserted, and mixing will
/// resume."
pub struct ClawbackBank<T> {
    streams: BTreeMap<StreamId, Clawback<T>>,
    config: ClawbackConfig,
    pool: ClawbackPool,
    retired: ClawbackStats,
}

impl<T> ClawbackBank<T> {
    /// Creates a bank sharing `pool` across all streams.
    pub fn new(config: ClawbackConfig, pool: ClawbackPool) -> Self {
        ClawbackBank {
            streams: BTreeMap::new(),
            config,
            pool,
            retired: ClawbackStats::default(),
        }
    }

    /// Routes an arriving block to its stream's buffer, creating one if
    /// the stream is new or was deactivated.
    pub fn arrival(&mut self, stream: StreamId, item: T) -> Arrival {
        let config = self.config;
        let pool = &self.pool;
        self.streams
            .entry(stream)
            .or_insert_with(|| Clawback::with_pool(config, pool.clone()))
            .arrival(item)
    }

    /// The mixer's 2 ms tick: pops one block per active stream. Streams
    /// whose buffer is empty are deactivated and removed.
    pub fn mix_tick(&mut self) -> Vec<(StreamId, T)> {
        let mut out = Vec::with_capacity(self.streams.len());
        let mut dead = Vec::new();
        for (&id, buf) in self.streams.iter_mut() {
            match buf.tick() {
                Some(item) => out.push((id, item)),
                None => dead.push(id),
            }
        }
        for id in dead {
            if let Some(buf) = self.streams.remove(&id) {
                self.retired = self.retired.merge(&buf.stats());
            }
        }
        out
    }

    /// Number of active (buffered) streams.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Current delay of one stream, if active.
    pub fn delay_nanos(&self, stream: StreamId) -> Option<u64> {
        self.streams.get(&stream).map(|b| b.delay_nanos())
    }

    /// Stats of one stream, if active.
    pub fn stats(&self, stream: StreamId) -> Option<ClawbackStats> {
        self.streams.get(&stream).map(|b| b.stats())
    }

    /// The shared pool.
    pub fn pool(&self) -> &ClawbackPool {
        &self.pool
    }

    /// Aggregate statistics over all streams, including retired buffers.
    pub fn total_stats(&self) -> ClawbackStats {
        self.streams
            .values()
            .fold(self.retired, |acc, b| acc.merge(&b.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClawbackConfig {
        ClawbackConfig::default()
    }

    #[test]
    fn fills_and_serves_fifo() {
        let mut b = Clawback::new(cfg());
        assert_eq!(b.arrival(1), Arrival::Accepted);
        assert_eq!(b.arrival(2), Arrival::Accepted);
        assert_eq!(b.tick(), Some(1));
        assert_eq!(b.tick(), Some(2));
        assert_eq!(b.tick(), None);
        assert_eq!(b.stats().empty_ticks, 1);
        assert_eq!(b.stats().served, 2);
    }

    #[test]
    fn empty_tick_counts_silence() {
        let mut b = Clawback::<u32>::new(cfg());
        assert!(b.tick().is_none());
        assert_eq!(b.stats().empty_ticks, 1);
    }

    #[test]
    fn clawback_rate_is_one_in_threshold() {
        // Keep the buffer permanently above target and count drops.
        let mut b = Clawback::new(ClawbackConfig {
            count_threshold: 100,
            ..cfg()
        });
        for _ in 0..5 {
            b.arrival(0u32);
        }
        let mut dropped = 0;
        for _ in 0..1_000 {
            // One in, one out: length stays above target (5 > 2).
            if b.arrival(0) == Arrival::ClawedBack {
                dropped += 1;
            } else {
                b.tick();
            }
        }
        assert_eq!(dropped, 10, "1000 above-target arrivals at 1/100");
    }

    #[test]
    fn default_rate_matches_paper() {
        let c = cfg();
        assert_eq!(c.count_threshold, 4096);
        assert!((c.clawback_rate() - 1.0 / 4096.0).abs() < 1e-12);
        // 4096 blocks x 2ms = 8.192s: "representing 8 seconds".
        assert!((c.count_threshold as f64 * 0.002 - 8.192).abs() < 1e-9);
    }

    #[test]
    fn no_clawback_at_or_below_target() {
        let mut b = Clawback::new(ClawbackConfig {
            count_threshold: 10,
            ..cfg()
        });
        // Steady state at exactly the target (2 blocks): never dropped.
        b.arrival(0u32);
        b.arrival(0);
        for _ in 0..1_000 {
            assert_eq!(b.arrival(0), Arrival::Accepted);
            b.tick();
        }
        assert_eq!(b.stats().clawed_back, 0);
    }

    #[test]
    fn hard_cap_drops_and_counts() {
        let mut b = Clawback::new(ClawbackConfig {
            per_stream_limit_blocks: 3,
            ..cfg()
        });
        for _ in 0..3 {
            assert_eq!(b.arrival(0u32), Arrival::Accepted);
        }
        assert_eq!(b.arrival(0), Arrival::OverLimit);
        assert_eq!(b.stats().over_limit, 1);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn pool_shared_between_buffers() {
        let pool = ClawbackPool::new(4);
        let mut a = Clawback::with_pool(cfg(), pool.clone());
        let mut b = Clawback::with_pool(cfg(), pool.clone());
        assert_eq!(a.arrival(0u32), Arrival::Accepted);
        assert_eq!(a.arrival(0), Arrival::Accepted);
        assert_eq!(b.arrival(0), Arrival::Accepted);
        assert_eq!(b.arrival(0), Arrival::Accepted);
        assert_eq!(pool.used(), 4);
        assert_eq!(b.arrival(0), Arrival::PoolFull);
        // Draining one frees pool space for the other.
        a.tick();
        assert_eq!(b.arrival(0), Arrival::Accepted);
    }

    #[test]
    fn dropping_buffer_returns_pool_blocks() {
        let pool = ClawbackPool::new(4);
        {
            let mut a = Clawback::with_pool(cfg(), pool.clone());
            a.arrival(0u32);
            a.arrival(0);
            assert_eq!(pool.used(), 2);
        }
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn drift_absorbed_when_slower_than_clawback_rate() {
        // Source 1 in 1000 faster than sink; clawback rate 1 in 100.
        // The buffer must not grow without bound.
        let mut b = Clawback::new(ClawbackConfig {
            count_threshold: 100,
            per_stream_limit_blocks: 1_000,
            ..cfg()
        });
        let mut max_len = 0;
        for i in 0u64..1_000_000 {
            b.arrival(0u32);
            if i % 1000 == 999 {
                b.arrival(0); // The drift surplus block.
            }
            b.tick();
            max_len = max_len.max(b.len());
        }
        assert!(max_len < 20, "buffer grew to {max_len}");
    }

    #[test]
    fn drift_overruns_buffer_when_faster_than_clawback_rate() {
        // Drift 1 in 50 against clawback rate 1 in 100: growth wins and
        // the hard cap engages — the condition the paper's rate argument
        // (drift < clawback rate) is about.
        let mut b = Clawback::new(ClawbackConfig {
            count_threshold: 100,
            per_stream_limit_blocks: 60,
            ..cfg()
        });
        for i in 0u64..100_000 {
            b.arrival(0u32);
            if i % 50 == 49 {
                b.arrival(0);
            }
            b.tick();
        }
        assert!(b.stats().over_limit > 0, "cap never engaged");
        // The queue sits at (or one below, right after a tick) the cap.
        assert!(b.len() >= 59, "len = {}", b.len());
    }

    #[test]
    fn multirate_removal_interval_tracks_min_contents() {
        // E6: at a steady 5-block (10ms) occupancy with level 20
        // block-seconds, removals come every ~2000 arrivals (4s); at 25
        // blocks (50ms), every ~400 arrivals (0.8s).
        for (occupancy, expected) in [(5usize, 2_000u64), (25, 400)] {
            let mut b = MultiRateClawback::new();
            for _ in 0..occupancy {
                b.arrival(0u32);
            }
            // Warm up one removal cycle, then measure the second.
            let mut intervals = Vec::new();
            let mut since = 0u64;
            for _ in 0..10_000 {
                since += 1;
                if b.arrival(0) == Arrival::ClawedBack {
                    intervals.push(since);
                    since = 0;
                    // Top the buffer back up to the target occupancy.
                    while b.len() < occupancy {
                        b.arrival(0);
                    }
                } else {
                    b.tick();
                }
            }
            assert!(intervals.len() >= 2, "no removals at occupancy {occupancy}");
            let measured = intervals[1];
            let err = (measured as f64 - expected as f64).abs() / expected as f64;
            assert!(
                err < 0.05,
                "occupancy {occupancy}: interval {measured} vs {expected}"
            );
        }
    }

    #[test]
    fn multirate_idle_buffer_never_removes() {
        let mut b = MultiRateClawback::new();
        // Running min 0 (buffer empties every tick): no clawback ever.
        for _ in 0..100_000 {
            assert_eq!(b.arrival(0u32), Arrival::Accepted);
            b.tick();
            b.tick(); // Force emptiness.
        }
        assert_eq!(b.stats().clawed_back, 0);
    }

    #[test]
    fn bank_creates_and_deactivates_streams() {
        let mut bank = ClawbackBank::new(cfg(), ClawbackPool::standard());
        let s1 = StreamId(1);
        let s2 = StreamId(2);
        bank.arrival(s1, 10u32);
        bank.arrival(s2, 20);
        bank.arrival(s2, 21);
        assert_eq!(bank.active_streams(), 2);
        let mixed = bank.mix_tick();
        assert_eq!(mixed, vec![(s1, 10), (s2, 20)]);
        // s1 is now empty: next tick deactivates it.
        let mixed = bank.mix_tick();
        assert_eq!(mixed, vec![(s2, 21)]);
        assert_eq!(bank.active_streams(), 1);
        // An arrival re-creates the buffer: "mixing will resume".
        bank.arrival(s1, 11);
        assert_eq!(bank.active_streams(), 2);
    }

    #[test]
    fn bank_reports_delay() {
        let mut bank = ClawbackBank::new(cfg(), ClawbackPool::standard());
        let s = StreamId(9);
        for _ in 0..5 {
            bank.arrival(s, 0u32);
        }
        assert_eq!(bank.delay_nanos(s), Some(10_000_000));
        assert_eq!(bank.delay_nanos(StreamId(99)), None);
    }
}
