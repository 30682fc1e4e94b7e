//! The four workloads, their sizing, and the inputs a seed generates.

use pandora_sim::SimDuration;

/// One whole scenario the benchmark runs to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Videophone,
    Conference16,
    Broadcast1024,
    Broadcast1024Sh2,
}

impl Workload {
    /// Every workload the harness runs.
    pub const ALL: [Workload; 4] = [
        Workload::Videophone,
        Workload::Conference16,
        Workload::Broadcast1024,
        Workload::Broadcast1024Sh2,
    ];

    /// The workloads `BENCHMARK.json` declares to the builder's driver,
    /// which admits a workload only while the spread of each end-to-end
    /// metric over ten seeds stays inside the metric's bound (at most a
    /// quarter), and rejects a later change whose median is worse than
    /// its parent's by more. On the shared two-core host the two-shard
    /// broadcast does not meet that: its shards hand over to each other
    /// every 200 simulated µs through a mutex and a condition variable,
    /// each hand-over wakes a virtual CPU, and what that costs follows
    /// the host's mood — the same commit read 0.33 to 0.51 simulated s per
    /// wall s over twenty runs, and the medians of two consecutive sets
    /// of ten lay 21 % apart (README.md). It stays in the whole-benchmark
    /// command, in the correctness gate and as a single run; its cost is
    /// also in the `shard.*` rows of `broadcast1024`'s traced run.
    pub const DECLARED: [Workload; 3] = [
        Workload::Videophone,
        Workload::Conference16,
        Workload::Broadcast1024,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Videophone => "videophone",
            Workload::Conference16 => "conference16",
            Workload::Broadcast1024 => "broadcast1024",
            Workload::Broadcast1024Sh2 => "broadcast1024_sh2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the broadcast workloads run on; the star workloads use the
    /// ordinary single-thread executor.
    pub fn shards(self) -> usize {
        match self {
            Workload::Broadcast1024Sh2 => 2,
            _ => 1,
        }
    }

    pub fn is_broadcast(self) -> bool {
        matches!(self, Workload::Broadcast1024 | Workload::Broadcast1024Sh2)
    }
}

/// How much simulated work one run does. Every workload is a fixed
/// amount of work run to completion, sized so that at seed state on the
/// sizing host (2 cores) the measured window takes about `--seconds` of
/// wall time; the amount depends on `--seconds` alone, never on how fast
/// the host turns out to be, so two commits always do the same work.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Simulated length of the videophone call after set-up.
    pub videophone: SimDuration,
    /// Control operations of the conference churn, one per 10 simulated
    /// ms; a one-second tail follows the last.
    pub conference_ops: u64,
    /// Segments per broadcast repetition (one every 4 simulated ms).
    pub broadcast_segments: u32,
}

/// Spacing of the conference's control operations.
pub const CONFERENCE_STEP: SimDuration = SimDuration::from_millis(10);
/// Quiet tail after the last conference operation.
pub const CONFERENCE_TAIL: SimDuration = SimDuration::from_secs(1);
/// Repetitions inside one broadcast run.
pub const BROADCAST_REPS: usize = 4;
/// The traced run covers this fraction of the timed run's length.
pub const TRACE_DIVISOR: u64 = 4;

impl Sizing {
    /// Sizing for a run meant to measure for `seconds`. The per-second
    /// amounts come from the seed-state sizing runs (README.md):
    /// videophone ≈ 5.6 simulated s per wall s, conference16 ≈ 0.9, a
    /// broadcast ≈ 0.6 simulated s per wall s over its four repetitions.
    pub fn for_seconds(seconds: u64) -> Sizing {
        let seconds = seconds.max(1);
        Sizing {
            videophone: SimDuration::from_millis(5_000 * seconds),
            conference_ops: 80 * seconds,
            broadcast_segments: (24 * seconds) as u32,
        }
    }

    /// The traced run's share of the same work.
    pub fn traced(self) -> Sizing {
        Sizing {
            videophone: SimDuration(self.videophone.as_nanos() / TRACE_DIVISOR),
            conference_ops: (self.conference_ops / TRACE_DIVISOR).max(1),
            // A traced repetition must still outlast the relay crash and
            // its repair, which ends by 260 simulated ms.
            broadcast_segments: (self.broadcast_segments / TRACE_DIVISOR as u32).max(80),
        }
    }
}

/// Everything a run derives from `--seed`. The crates under test receive
/// only these generated values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// `StarConfig::seed`: jitter processes of every attachment.
    pub star_seed: u64,
    /// Base of the `Speech` generator seeds (one per microphone).
    pub speech_seed: u64,
    /// State of the conference churn schedule's generator.
    pub churn_seed: u64,
    /// `OverlayConfig::seed`: planner tie-breaks.
    pub overlay_seed: u64,
    /// Instant of the broadcast's relay crash, 150–199 simulated ms.
    pub crash_at: SimDuration,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn derive(seed: u64) -> Inputs {
        let mut s = seed;
        Inputs {
            star_seed: splitmix64(&mut s),
            speech_seed: splitmix64(&mut s) >> 1,
            churn_seed: splitmix64(&mut s) | 1,
            overlay_seed: splitmix64(&mut s),
            crash_at: SimDuration::from_micros(150_000 + splitmix64(&mut s) % 50_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(Inputs::derive(1993), Inputs::derive(1993));
        assert_ne!(Inputs::derive(1993), Inputs::derive(2026));
        let crash = Inputs::derive(7).crash_at.as_nanos();
        assert!((150_000_000..200_000_000).contains(&crash));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn traced_run_is_a_quarter_of_the_timed_one() {
        let s = Sizing::for_seconds(10);
        let t = s.traced();
        assert_eq!(t.videophone.as_nanos() * 4, s.videophone.as_nanos());
        assert_eq!(t.conference_ops * 4, s.conference_ops);
        // 60 segments would end before the crash is repaired.
        assert_eq!(t.broadcast_segments, 80);
        assert_eq!(Sizing::for_seconds(20).traced().broadcast_segments, 120);
    }
}
