//! The two-stage muting function of §4.3 and figure 4.1.
//!
//! "The data stream to the loudspeaker is monitored for samples exceeding
//! a threshold level. When the level is exceeded, the data stream from the
//! microphone is muted in two stages, and returned to full volume after a
//! sufficient time for any room reverberations to die away. ... The
//! threshold, muting factors and delay times are all dynamically
//! alterable, but our default values are shown in figure 4.1." The default
//! schedule is 100 % → 20 % while the threshold is exceeded (and for 22 ms
//! after), then 50 % for a further 22 ms, then back to 100 %. Here the
//! parameters are fixed when a [`Muting`] is built. Muting is applied by
//! lookup tables that scale µ-law bytes directly.

use crate::block::Block;
use crate::mulaw;
use crate::q15::Q15;
use pandora_segment::BLOCK_DURATION_NANOS;

/// Muting parameters (defaults from figure 4.1).
#[derive(Debug, Clone, Copy)]
pub struct MutingConfig {
    /// Linear magnitude on the speaker stream that triggers muting.
    pub threshold: i32,
    /// Gain while in the deep-mute stage (default 20 %).
    pub deep_factor: f64,
    /// Gain while in the recovery stage (default 50 %).
    pub half_factor: f64,
    /// Time spent in the deep stage after the speaker goes quiet (22 ms).
    pub deep_hold_ns: u64,
    /// Time spent in the recovery stage before full volume (22 ms).
    pub half_hold_ns: u64,
}

impl Default for MutingConfig {
    fn default() -> Self {
        MutingConfig {
            threshold: 8_000,
            deep_factor: 0.2,
            half_factor: 0.5,
            deep_hold_ns: 22_000_000,
            half_hold_ns: 22_000_000,
        }
    }
}

/// The gain stage the microphone stream is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuteStage {
    /// Full volume (factor 1.0).
    Full,
    /// Deep mute (default 20 %).
    Deep,
    /// Recovery (default 50 %).
    Half,
}

/// Two-stage echo-suppression state machine operating at 2 ms block
/// granularity ("the 2ms granularity was chosen for convenience as this is
/// the smallest unit of data that we move around in the audio code").
///
/// Call [`Muting::observe_speaker`] with each outgoing speaker block
/// *before* it reaches the codec, then [`Muting::apply_mic`] on the
/// corresponding microphone block — the paper notes this ordering gives at
/// least 4 ms of reaction headroom.
#[derive(Debug)]
pub struct Muting {
    config: MutingConfig,
    stage: MuteStage,
    /// Time remaining in the current hold, in nanoseconds.
    hold_remaining_ns: u64,
    deep_table: [u8; 256],
    half_table: [u8; 256],
}

impl Muting {
    /// Creates the state machine with the given parameters.
    ///
    /// The scaling tables are built through Q15 fixed-point gains (the
    /// nearest Q15 value to each configured factor), so the µ-law-domain
    /// muting is pure integer arithmetic and bit-identical on every host.
    pub fn new(config: MutingConfig) -> Self {
        Muting {
            config,
            stage: MuteStage::Full,
            hold_remaining_ns: 0,
            deep_table: mulaw::scaling_table_q15(Q15::from_f64(config.deep_factor)),
            half_table: mulaw::scaling_table_q15(Q15::from_f64(config.half_factor)),
        }
    }

    /// Current stage.
    pub fn stage(&self) -> MuteStage {
        self.stage
    }

    /// Current gain factor.
    pub fn factor(&self) -> f64 {
        match self.stage {
            MuteStage::Full => 1.0,
            MuteStage::Deep => self.config.deep_factor,
            MuteStage::Half => self.config.half_factor,
        }
    }

    /// Observes one 2 ms speaker block about to be played and advances the
    /// state machine by one block period.
    pub fn observe_speaker(&mut self, block: &Block) {
        let loud = block.peak() > self.config.threshold;
        if loud {
            // Threshold exceeded: (re-)enter deep mute and rearm the hold.
            self.stage = MuteStage::Deep;
            self.hold_remaining_ns = self.config.deep_hold_ns;
            return;
        }
        match self.stage {
            MuteStage::Full => {}
            MuteStage::Deep => {
                if self.hold_remaining_ns > BLOCK_DURATION_NANOS {
                    self.hold_remaining_ns -= BLOCK_DURATION_NANOS;
                } else {
                    self.stage = MuteStage::Half;
                    self.hold_remaining_ns = self.config.half_hold_ns;
                }
            }
            MuteStage::Half => {
                if self.hold_remaining_ns > BLOCK_DURATION_NANOS {
                    self.hold_remaining_ns -= BLOCK_DURATION_NANOS;
                } else {
                    self.stage = MuteStage::Full;
                    self.hold_remaining_ns = 0;
                }
            }
        }
    }

    /// Scales one microphone block according to the current stage, using
    /// the µ-law lookup tables.
    pub fn apply_mic(&self, block: &Block) -> Block {
        match self.stage {
            MuteStage::Full => *block,
            MuteStage::Deep => apply_table(block, &self.deep_table),
            MuteStage::Half => apply_table(block, &self.half_table),
        }
    }
}

fn apply_table(block: &Block, table: &[u8; 256]) -> Block {
    let mut out = [0u8; pandora_segment::BLOCK_BYTES];
    for (o, &b) in out.iter_mut().zip(block.0.iter()) {
        *o = table[b as usize];
    }
    Block(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mulaw::{decode, encode};
    use pandora_segment::BLOCK_BYTES;

    fn block_of(pcm: i16) -> Block {
        Block([encode(pcm); BLOCK_BYTES])
    }

    fn quiet() -> Block {
        Block::SILENCE
    }

    #[test]
    fn starts_at_full_volume() {
        let m = Muting::new(MutingConfig::default());
        assert_eq!(m.stage(), MuteStage::Full);
        assert_eq!(m.factor(), 1.0);
        let b = block_of(1_000);
        assert_eq!(m.apply_mic(&b), b);
    }

    #[test]
    fn loud_speaker_triggers_deep_mute() {
        let mut m = Muting::new(MutingConfig::default());
        m.observe_speaker(&block_of(20_000));
        assert_eq!(m.stage(), MuteStage::Deep);
        let out = m.apply_mic(&block_of(10_000));
        let got = decode(out.0[0]);
        let want = (decode(encode(10_000)) as f64 * 0.2) as i32;
        assert!((got - want).abs() < want / 4 + 32, "got {got} want {want}");
    }

    #[test]
    fn quiet_speaker_never_mutes() {
        let mut m = Muting::new(MutingConfig::default());
        for _ in 0..100 {
            m.observe_speaker(&block_of(1_000));
        }
        assert_eq!(m.stage(), MuteStage::Full);
    }

    #[test]
    fn figure_4_1_schedule() {
        // One loud block, then silence: deep for 22ms, half for 22ms, full.
        let mut m = Muting::new(MutingConfig::default());
        m.observe_speaker(&block_of(20_000));
        let mut stages = Vec::new();
        for _ in 0..25 {
            stages.push(m.stage());
            m.observe_speaker(&quiet());
        }
        // 11 blocks deep (22ms), 11 blocks half (22ms), then full.
        let deep = stages.iter().filter(|&&s| s == MuteStage::Deep).count();
        let half = stages.iter().filter(|&&s| s == MuteStage::Half).count();
        assert_eq!(deep, 11, "stages = {stages:?}");
        assert_eq!(half, 11);
        assert_eq!(m.stage(), MuteStage::Full);
    }

    #[test]
    fn retrigger_during_hold_rearms() {
        let mut m = Muting::new(MutingConfig::default());
        m.observe_speaker(&block_of(20_000));
        for _ in 0..5 {
            m.observe_speaker(&quiet());
        }
        // Still in deep hold; new loud block restarts the full 22ms.
        m.observe_speaker(&block_of(20_000));
        let mut blocks_until_half = 0;
        while m.stage() == MuteStage::Deep {
            m.observe_speaker(&quiet());
            blocks_until_half += 1;
        }
        assert_eq!(blocks_until_half, 11);
    }

    #[test]
    fn half_stage_scales_by_50_percent() {
        let mut m = Muting::new(MutingConfig::default());
        m.observe_speaker(&block_of(20_000));
        for _ in 0..12 {
            m.observe_speaker(&quiet());
        }
        assert_eq!(m.stage(), MuteStage::Half);
        let out = m.apply_mic(&block_of(10_000));
        let got = decode(out.0[0]);
        let want = decode(encode(10_000)) / 2;
        assert!((got - want).abs() < want / 4 + 32, "got {got} want {want}");
    }

    #[test]
    fn a_lower_threshold_mutes_quieter_speech() {
        let mut m = Muting::new(MutingConfig {
            threshold: 100,
            ..MutingConfig::default()
        });
        m.observe_speaker(&block_of(500));
        assert_eq!(m.stage(), MuteStage::Deep);
    }

    #[test]
    fn q15_tables_track_old_float_tables_within_one_code() {
        // The figure-4.1 factors applied through Q15 stay within one
        // µ-law code of the old float-built tables on every byte.
        let cfg = MutingConfig::default();
        for factor in [cfg.deep_factor, cfg.half_factor] {
            let float_table = mulaw::scaling_table(factor);
            let q15_table = mulaw::scaling_table_q15(Q15::from_f64(factor));
            for b in 0u16..=255 {
                let d = (float_table[b as usize] as i32 - q15_table[b as usize] as i32).abs();
                assert!(d <= 1, "factor={factor} b={b}");
            }
        }
    }

    #[test]
    fn reaction_within_one_block() {
        // The paper: "we have at least 4ms in which to react". In this
        // model the mute takes effect on the very block that trips the
        // threshold (0ms lag), comfortably within the 4ms budget.
        let mut m = Muting::new(MutingConfig::default());
        m.observe_speaker(&block_of(30_000));
        let out = m.apply_mic(&block_of(10_000));
        assert!(decode(out.0[0]) < decode(encode(10_000)) / 2);
    }
}
