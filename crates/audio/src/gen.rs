//! Synthetic audio sources.
//!
//! The paper's evaluation leans on perceptual observations across signal
//! classes: dropped samples were "undetectable except during solo violin
//! pieces", dropped blocks "noticeable in most music, but rarely in
//! speech" (§3.8). These generators produce deterministic signals of those
//! classes so the loss-concealment experiment (E9) can rank distortion the
//! same way.

use crate::block::Block;
use crate::mulaw;
use pandora_segment::{AUDIO_SAMPLE_RATE, BLOCK_BYTES, SAMPLES_PER_BLOCK};

/// A deterministic mono signal source at 8 kHz.
pub trait Signal {
    /// Produces the next linear PCM sample.
    fn next_sample(&mut self) -> i16;

    /// Produces the next 2 ms block in linear form.
    fn next_block_linear(&mut self) -> [i16; SAMPLES_PER_BLOCK] {
        let mut out = [0i16; SAMPLES_PER_BLOCK];
        for s in &mut out {
            *s = self.next_sample();
        }
        out
    }

    /// Produces the next 2 ms block encoded as µ-law.
    fn next_block(&mut self) -> Block {
        let linear = self.next_block_linear();
        let mut out = [0u8; BLOCK_BYTES];
        for (o, &s) in out.iter_mut().zip(linear.iter()) {
            *o = mulaw::encode(s);
        }
        Block(out)
    }
}

/// A steady sine tone (the "solo violin" stand-in: a sustained pure tone
/// on which periodic artifacts are maximally audible).
#[derive(Debug, Clone)]
pub struct Tone {
    phase: f64,
    step: f64,
    amplitude: f64,
}

impl Tone {
    /// Creates a tone at `freq` Hz with linear `amplitude`.
    pub fn new(freq: f64, amplitude: f64) -> Self {
        Tone {
            phase: 0.0,
            step: 2.0 * std::f64::consts::PI * freq / AUDIO_SAMPLE_RATE as f64,
            amplitude,
        }
    }
}

impl Signal for Tone {
    fn next_sample(&mut self) -> i16 {
        let v = self.phase.sin() * self.amplitude;
        self.phase += self.step;
        if self.phase > 2.0 * std::f64::consts::PI {
            self.phase -= 2.0 * std::f64::consts::PI;
        }
        v as i16
    }
}

/// A violin-like sustained tone with harmonics and slow vibrato.
#[derive(Debug, Clone)]
pub struct Violin {
    t: f64,
    freq: f64,
    amplitude: f64,
}

impl Violin {
    /// Creates a violin-like signal at `freq` Hz.
    pub fn new(freq: f64, amplitude: f64) -> Self {
        Violin {
            t: 0.0,
            freq,
            amplitude,
        }
    }
}

impl Signal for Violin {
    fn next_sample(&mut self) -> i16 {
        let vibrato = 1.0 + 0.004 * (2.0 * std::f64::consts::PI * 5.5 * self.t).sin();
        let f = self.freq * vibrato;
        let w = 2.0 * std::f64::consts::PI * f * self.t;
        // Sawtooth-ish harmonic stack typical of bowed strings.
        let v = w.sin() + 0.55 * (2.0 * w).sin() + 0.35 * (3.0 * w).sin() + 0.2 * (4.0 * w).sin();
        self.t += 1.0 / AUDIO_SAMPLE_RATE as f64;
        (v / 2.1 * self.amplitude) as i16
    }
}

/// A speech-like signal: voiced bursts (glottal-pulse-excited formants)
/// separated by pauses, deterministic from a seed.
#[derive(Debug, Clone)]
pub struct Speech {
    t: f64,
    rng: u64,
    /// Remaining samples in the current phase.
    remaining: u32,
    voiced: bool,
    pitch: f64,
    formant: f64,
}

impl Speech {
    /// Creates a speech-like source from a seed.
    pub fn new(seed: u64) -> Self {
        let mut s = Speech {
            t: 0.0,
            rng: seed.wrapping_mul(0x9E3779B97F4A7C15).max(1),
            remaining: 0,
            voiced: false,
            pitch: 120.0,
            formant: 700.0,
        };
        s.next_phase();
        s
    }

    fn rand(&mut self) -> f64 {
        // xorshift64*.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_phase(&mut self) {
        self.voiced = !self.voiced;
        if self.voiced {
            // 80-300ms voiced burst with a fresh pitch and formant.
            self.remaining = (AUDIO_SAMPLE_RATE as f64 * (0.08 + 0.22 * self.rand())) as u32;
            self.pitch = 90.0 + 80.0 * self.rand();
            self.formant = 400.0 + 1800.0 * self.rand();
        } else {
            // 40-200ms pause.
            self.remaining = (AUDIO_SAMPLE_RATE as f64 * (0.04 + 0.16 * self.rand())) as u32;
        }
    }
}

impl Signal for Speech {
    fn next_sample(&mut self) -> i16 {
        if self.remaining == 0 {
            self.next_phase();
        }
        self.remaining -= 1;
        let out = if self.voiced {
            let w = 2.0 * std::f64::consts::PI * self.t;
            // Pitch pulse train shaped by a formant resonance, with an
            // envelope to avoid clicks at burst edges.
            let pulse = (w * self.pitch).sin().powi(5);
            let res = (w * self.formant).sin();
            let env = 0.6 + 0.4 * (w * 3.0).sin();
            8_000.0 * pulse * (0.5 + 0.5 * res) * env
        } else {
            0.0
        };
        self.t += 1.0 / AUDIO_SAMPLE_RATE as f64;
        out as i16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tone_has_expected_period() {
        // A 1kHz tone at 8kHz sampling has period 8: sample 0 and 8 match.
        let mut t = Tone::new(1_000.0, 10_000.0);
        let samples: Vec<i16> = (0..16).map(|_| t.next_sample()).collect();
        assert!((samples[0] as i32 - samples[8] as i32).abs() < 100);
        assert!(samples.iter().any(|&s| s > 5_000));
    }

    #[test]
    fn tone_amplitude_bounded() {
        let mut t = Tone::new(440.0, 12_000.0);
        for _ in 0..8_000 {
            let s = t.next_sample();
            assert!(s.abs() <= 12_000);
        }
    }

    #[test]
    fn violin_is_loud_and_periodicish() {
        let mut v = Violin::new(440.0, 10_000.0);
        let mut peak = 0i16;
        for _ in 0..8_000 {
            peak = peak.max(v.next_sample().abs());
        }
        assert!(peak > 6_000, "peak = {peak}");
    }

    #[test]
    fn speech_alternates_bursts_and_pauses() {
        let mut s = Speech::new(42);
        let mut active_blocks = 0;
        let mut quiet_blocks = 0;
        for _ in 0..1_000 {
            let b = s.next_block();
            if b.peak() > 500 {
                active_blocks += 1;
            } else {
                quiet_blocks += 1;
            }
        }
        assert!(active_blocks > 200, "active = {active_blocks}");
        assert!(quiet_blocks > 100, "quiet = {quiet_blocks}");
    }

    #[test]
    fn speech_is_deterministic_per_seed() {
        let mut a = Speech::new(7);
        let mut b = Speech::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
        let mut c = Speech::new(8);
        let differs = (0..1000).any(|_| a.next_sample() != c.next_sample());
        assert!(differs);
    }
}
