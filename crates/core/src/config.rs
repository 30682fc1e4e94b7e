//! Box-wide configuration and the calibrated cost model.
//!
//! Absolute CPU costs on the authors' T425s are unpublished; DESIGN.md §2
//! explains the calibration: we pin the capacities the paper states
//! (5 plain / 3 full audio streams per audio transputer, §4.2) via
//! [`pandora_audio::CpuProfile`], pick link rates straight from figure 1.2
//! (20 Mbit/s links, 100 Mbit/s FIFOs), and let every other behaviour
//! emerge.

use pandora_audio::CpuProfile;
use pandora_buffers::ClawbackConfig;
use pandora_sim::SimDuration;

/// Byte slabs in a box's payload arena: a little above the standard
/// [`BoxConfig::pool_buffers`] (256), because reassembly writers hold
/// regions before a descriptor exists. Medusa's units and the session
/// controller size their receive arenas by it too.
pub const SLAB_BUFFERS: usize = 288;

/// Fixed capacity of one payload slab, in bytes. It holds the largest
/// whole received frame (headers + payload).
pub const SLAB_BYTES: usize = 64 * 1024;

/// How the network output process schedules cells from different segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxMode {
    /// The paper's implementation: one segment's cells go out back-to-back;
    /// "video segments can hold up following audio segments, introducing
    /// up to 20ms of jitter in a stream" (§4.2).
    NonInterleaved,
    /// Cell-level round-robin between pending segments — the fix the paper
    /// implies; reproduced as an ablation (E4).
    Interleaved,
}

/// Per-board CPU costs beyond the audio profile.
#[derive(Debug, Clone, Copy)]
pub struct VideoCosts {
    /// Capture-side cost per video line (read + compress + slice).
    pub capture_per_line_ns: u64,
    /// Mixer-side cost per video line (decompress + interpolate + copy).
    pub display_per_line_ns: u64,
    /// Server-side cost per segment switched (one copy in, one per copy out).
    pub switch_per_segment_ns: u64,
}

impl Default for VideoCosts {
    fn default() -> Self {
        VideoCosts {
            capture_per_line_ns: 12_000,
            display_per_line_ns: 10_000,
            switch_per_segment_ns: 20_000,
        }
    }
}

/// Complete configuration of one Pandora's Box.
#[derive(Debug, Clone)]
pub struct BoxConfig {
    /// Box name (used in process and report names).
    pub name: &'static str,
    /// Audio-board cost calibration.
    pub audio_costs: CpuProfile,
    /// Video/server cost calibration.
    pub video_costs: VideoCosts,
    /// Context-switch cost charged per CPU claim (§3.1: "less than 1µs").
    pub switch_cost: SimDuration,
    /// Blocks per outgoing audio segment (2 by default, §3.2).
    pub blocks_per_segment: usize,
    /// Clawback configuration (targets, rate, caps).
    pub clawback: ClawbackConfig,
    /// Whether hands-free muting (figure 4.1's default parameters) is
    /// enabled on this box.
    pub muting_enabled: bool,
    /// Audio-board link rate to the server (20 Mbit/s, figure 1.2).
    pub audio_link_bps: u64,
    /// Video FIFO rate to/from the server (100 Mbit/s, figure 1.2).
    pub video_fifo_bps: u64,
    /// Capacity of the audio-specific network decoupling buffer
    /// (kept small so "video delays do not become aggravating", fig 3.7).
    pub audio_net_buffer: usize,
    /// Video backlog cap (segments) in the network scheduler before the
    /// oldest-stream drop policy (Principle 3) engages.
    pub video_backlog_cap: usize,
    /// Network transmit scheduling mode.
    pub tx_mode: TxMode,
    /// Segment buffer pool size on the server board.
    pub pool_buffers: usize,
    /// Relative crystal drift of this box's clocks (e.g. `1e-5`).
    pub clock_drift: f64,
    /// Principle 1: output processes claim the CPU at
    /// [`pandora_sim::PRIO_OUTPUT`]. Disabled, the audio mix competes at
    /// normal priority — a conformance-suite ablation, not a mode the
    /// paper supports.
    pub output_priority: bool,
    /// Principle 2: the network scheduler drains audio ahead of video.
    /// Disabled, video is served first and audio waits behind the backlog.
    pub audio_priority: bool,
    /// Principle 3: when the video backlog overflows, drop from the
    /// longest-open stream. Disabled, the newest stream is the victim.
    pub p3_oldest_first: bool,
    /// Principle 4: the switch takes commands ahead of data (PRI ALT).
    /// Disabled, data is polled first and commands starve under load.
    pub command_priority: bool,
    /// Principle 5: switch outputs go through *ready-mode* decoupling
    /// buffers, so a slow output loses its own traffic only. Disabled, the
    /// gates block on a full buffer and stall the whole switch.
    pub ready_mode: bool,
    /// Principle 8: spawn the box's stream-health monitor (local
    /// adaptation: audio mute, video rate divisor). Disabled, the box
    /// does not adapt locally at all.
    pub health: bool,
}

impl BoxConfig {
    /// The standard configuration, calibrated per DESIGN.md §2.
    pub fn standard(name: &'static str) -> Self {
        BoxConfig {
            name,
            audio_costs: CpuProfile::default(),
            video_costs: VideoCosts::default(),
            switch_cost: SimDuration::from_nanos(700),
            blocks_per_segment: 2,
            clawback: ClawbackConfig::default(),
            muting_enabled: true,
            audio_link_bps: 20_000_000,
            video_fifo_bps: 100_000_000,
            audio_net_buffer: 8,
            video_backlog_cap: 24,
            tx_mode: TxMode::NonInterleaved,
            pool_buffers: 256,
            clock_drift: 0.0,
            output_priority: true,
            audio_priority: true,
            p3_oldest_first: true,
            command_priority: true,
            ready_mode: true,
            health: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_paper_figures() {
        let c = BoxConfig::standard("test");
        assert_eq!(c.audio_link_bps, 20_000_000);
        assert_eq!(c.video_fifo_bps, 100_000_000);
        assert_eq!(c.blocks_per_segment, 2);
        assert_eq!(c.clawback.count_threshold, 4096);
        // The shared playback pool every box plays through: 4 s (§3.7.2).
        assert_eq!(pandora_buffers::ClawbackPool::standard().capacity(), 2_000);
        assert!(c.switch_cost < SimDuration::from_micros(1));
        assert_eq!(c.tx_mode, TxMode::NonInterleaved);
    }
}
