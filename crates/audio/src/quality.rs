//! Audio quality metrics for the loss-concealment experiments (E9).
//!
//! The paper ranks degradations perceptually (§3.8): occasional dropped
//! samples < occasional dropped blocks < frequent drops ("gravelly").
//! These metrics give the same ordering objectively: signal-to-distortion
//! ratio against the lossless reference, plus counts of 2 ms energy holes
//! that zero-fill cuts into the sound.

use crate::block::Block;
use crate::mulaw;

/// Signal-to-distortion ratio in dB between a reference and a degraded
/// µ-law block stream of equal length.
///
/// Returns `f64::INFINITY` for identical streams.
///
/// # Panics
///
/// Panics if the streams differ in length.
pub fn snr_db(reference: &[Block], degraded: &[Block]) -> f64 {
    assert_eq!(
        reference.len(),
        degraded.len(),
        "streams must be the same length"
    );
    let mut signal = 0f64;
    let mut noise = 0f64;
    for (r, d) in reference.iter().zip(degraded.iter()) {
        for (&rb, &db) in r.0.iter().zip(d.0.iter()) {
            let rs = mulaw::decode(rb) as f64;
            let ds = mulaw::decode(db) as f64;
            signal += rs * rs;
            noise += (rs - ds) * (rs - ds);
        }
    }
    if noise == 0.0 {
        f64::INFINITY
    } else if signal == 0.0 {
        0.0
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Counts 2 ms energy holes: blocks where the degraded stream's RMS
/// collapses below a tenth of the reference's (and the reference block was
/// audible at all). This is the objective face of the paper's complaint
/// about zero-fill — "inserting 2ms of zero amplitude samples" cuts a
/// hole in the sound, where replaying the last block preserves the energy
/// envelope.
///
/// # Panics
///
/// Panics if the streams differ in length.
pub fn energy_holes(reference: &[Block], degraded: &[Block]) -> usize {
    assert_eq!(
        reference.len(),
        degraded.len(),
        "streams must be the same length"
    );
    let rms = |b: &Block| {
        let sum: f64 =
            b.0.iter()
                .map(|&s| {
                    let v = mulaw::decode(s) as f64;
                    v * v
                })
                .sum();
        (sum / b.0.len() as f64).sqrt()
    };
    reference
        .iter()
        .zip(degraded.iter())
        .filter(|(r, d)| {
            let rr = rms(r);
            rr > 500.0 && rms(d) < rr * 0.1
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Signal, Tone};
    use crate::recovery::{drop_and_conceal, Concealment};

    fn tone_blocks(n: usize) -> Vec<Block> {
        let mut t = Tone::new(440.0, 10_000.0);
        (0..n).map(|_| t.next_block()).collect()
    }

    #[test]
    fn identical_streams_have_infinite_snr() {
        let b = tone_blocks(10);
        assert_eq!(snr_db(&b, &b), f64::INFINITY);
    }

    #[test]
    fn silence_reference_gives_zero() {
        let b = vec![Block::SILENCE; 4];
        let d = tone_blocks(4);
        assert_eq!(snr_db(&b, &d), 0.0);
    }

    #[test]
    fn snr_decreases_with_loss_rate() {
        let reference = tone_blocks(500);
        let (light, _) = drop_and_conceal(&reference, 50, Concealment::RepeatLast);
        let (heavy, _) = drop_and_conceal(&reference, 5, Concealment::RepeatLast);
        let snr_light = snr_db(&reference, &light);
        let snr_heavy = snr_db(&reference, &heavy);
        assert!(
            snr_light > snr_heavy + 3.0,
            "light {snr_light:.1}dB should beat heavy {snr_heavy:.1}dB"
        );
    }

    #[test]
    fn repeat_beats_zero_fill_on_tone() {
        // Replaying the last block keeps the waveform shape; silence tears
        // a hole. The paper prefers replay for exactly this reason.
        let reference = tone_blocks(500);
        let (repeat, _) = drop_and_conceal(&reference, 10, Concealment::RepeatLast);
        let (zero, _) = drop_and_conceal(&reference, 10, Concealment::Zero);
        assert!(snr_db(&reference, &repeat) > snr_db(&reference, &zero));
    }

    #[test]
    fn energy_holes_distinguish_zero_from_replay() {
        let reference = tone_blocks(200);
        let (zero, _) = drop_and_conceal(&reference, 10, Concealment::Zero);
        let (repeat, _) = drop_and_conceal(&reference, 10, Concealment::RepeatLast);
        let zero_holes = energy_holes(&reference, &zero);
        let repeat_holes = energy_holes(&reference, &repeat);
        assert_eq!(zero_holes, 20, "every dropped loud block is a hole");
        assert_eq!(repeat_holes, 0, "replay preserves the energy envelope");
    }

    #[test]
    fn empty_streams() {
        assert_eq!(snr_db(&[], &[]), f64::INFINITY);
    }
}
