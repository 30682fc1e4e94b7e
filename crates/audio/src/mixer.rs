//! Software audio mixing.
//!
//! §2.0: "accompanying audio streams are mixed by software in real-time on
//! the destination transputer. No limit is placed on the number of
//! incoming streams that can be mixed, save that imposed by system
//! bandwidths and CPU resources." Mixing decodes each µ-law block to
//! linear, sums with saturation, and re-encodes.

use crate::block::Block;
use crate::mulaw;
use crate::q15::{round_q15, Q15};
use pandora_segment::BLOCK_BYTES;

/// Mixes any number of µ-law blocks into one (linear-domain saturating sum).
///
/// An empty input yields silence — "if the clawback buffer is empty at
/// this time, then it is not included in the mixing" (§3.7.2), and when no
/// stream contributes the codec still needs a block.
///
/// The whole 16-sample block is accumulated through the flat decode LUT
/// and the branch-free encoder, fixed-size loops the autovectorizer can
/// unroll; `mix_blocks_scalar` keeps the original per-sample code as
/// the conformance oracle and the two are byte-identical on every input.
pub fn mix_blocks<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> Block {
    let mut acc = [0i32; BLOCK_BYTES];
    for block in blocks {
        for (a, &b) in acc.iter_mut().zip(block.0.iter()) {
            *a += mulaw::decode(b);
        }
    }
    let mut out = [0u8; BLOCK_BYTES];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = mulaw::encode(a.clamp(i16::MIN as i32, i16::MAX as i32) as i16);
    }
    Block(out)
}

/// The conformance oracle for [`mix_blocks`]: same accumulate/saturate
/// semantics expressed through the reference (formula/loop) codec.
#[cfg(test)]
pub fn mix_blocks_scalar<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> Block {
    let mut acc = [0i32; BLOCK_BYTES];
    for block in blocks {
        for (a, &b) in acc.iter_mut().zip(block.0.iter()) {
            *a += mulaw::decode_reference(b);
        }
    }
    let mut out = [0u8; BLOCK_BYTES];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = mulaw::encode_reference(a.clamp(i16::MIN as i32, i16::MAX as i32) as i16);
    }
    Block(out)
}

/// Per-stream gain applied during mixing (e.g. muting factors).
///
/// Gains are Q15 fixed point: each sample contributes its exact
/// `decode(b) * gain.raw()` product to an `i64` accumulator and one
/// explicit rounding step (half away from zero, like `f64::round`) runs
/// per output sample — mirroring the single-rounding shape of the old
/// float path while being bit-identical on every host. With gains
/// exactly representable in Q15, output matches the old `f64` path.
pub fn mix_blocks_scaled<'a>(blocks: impl IntoIterator<Item = (&'a Block, Q15)>) -> Block {
    let mut acc = [0i64; BLOCK_BYTES];
    for (block, gain) in blocks {
        let g = gain.raw() as i64;
        for (a, &b) in acc.iter_mut().zip(block.0.iter()) {
            *a += mulaw::decode(b) as i64 * g;
        }
    }
    let mut out = [0u8; BLOCK_BYTES];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        let rounded = round_q15(a);
        *o = mulaw::encode(rounded.clamp(i16::MIN as i64, i16::MAX as i64) as i16);
    }
    Block(out)
}

/// The nominal per-block CPU cost model of the audio transputer, used by
/// the capacity experiments (E1) — see DESIGN.md §2 for the calibration
/// rationale.
///
/// The paper's T425 "can mix five audio streams in the straightforward
/// case, but only three if we have jitter correction, muting, an outgoing
/// stream and the interface code running at the same time" (§4.2). With a
/// 2 ms block tick, the budget is 2 ms of CPU per tick. The costs below
/// are chosen so those two capacities fall exactly where the paper says:
///
/// * plain mixing: 5 × (mix + clawback-lite) < 2 ms < 6 × …
/// * full path: 3 × (mix + clawback + muting share) + outgoing + interface
///   < 2 ms < 4 × …
#[derive(Debug, Clone, Copy)]
pub struct CpuProfile {
    /// Cost to decode+sum+encode one stream's 2 ms block during mixing.
    pub mix_per_stream_ns: u64,
    /// Cost of clawback buffer bookkeeping per stream per block.
    pub clawback_per_stream_ns: u64,
    /// Cost of the muting scan/scaling per block (whole mix, not per stream).
    pub muting_per_block_ns: u64,
    /// Cost to assemble and hand an outgoing block to the server writer.
    pub outgoing_per_block_ns: u64,
    /// Interface code overhead per 2 ms tick.
    pub interface_per_tick_ns: u64,
}

impl Default for CpuProfile {
    fn default() -> Self {
        // Calibrated to §4.2 (see the type-level docs): with these values
        // plain mixing supports exactly 5 streams per 2 ms tick and the
        // full path exactly 3.
        CpuProfile {
            mix_per_stream_ns: 360_000,
            clawback_per_stream_ns: 100_000,
            muting_per_block_ns: 150_000,
            outgoing_per_block_ns: 250_000,
            interface_per_tick_ns: 200_000,
        }
    }
}

#[cfg(test)]
impl CpuProfile {
    /// CPU time to mix `streams` per 2 ms tick on the plain path
    /// (no jitter correction, no muting, no outgoing stream).
    pub fn plain_tick_cost_ns(&self, streams: usize) -> u64 {
        streams as u64 * self.mix_per_stream_ns
    }

    /// CPU time per 2 ms tick on the full path of §4.2: jitter correction
    /// (clawback) and muting enabled, one outgoing stream, interface code
    /// running.
    pub fn full_tick_cost_ns(&self, streams: usize) -> u64 {
        streams as u64 * (self.mix_per_stream_ns + self.clawback_per_stream_ns)
            + self.muting_per_block_ns
            + self.outgoing_per_block_ns
            + self.interface_per_tick_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mulaw::{decode, encode};
    use pandora_prop::{check, Rng, Tape};

    fn block_of(pcm: i16) -> Block {
        Block([encode(pcm); BLOCK_BYTES])
    }

    /// `count` blocks of noise.
    fn blocks(t: &mut Tape, count: usize) -> Vec<Block> {
        (0..count)
            .map(|_| Block(std::array::from_fn(|_| t.gen_range(0..=255u8))))
            .collect()
    }

    #[test]
    fn mixing_nothing_is_silence() {
        let out = mix_blocks([]);
        assert_eq!(out, Block::SILENCE);
    }

    #[test]
    fn mixing_one_stream_is_identity() {
        let b = block_of(5_000);
        let out = mix_blocks([&b]);
        for s in out.0 {
            assert_eq!(decode(s), decode(encode(5_000)));
        }
    }

    #[test]
    fn mixing_sums_amplitudes() {
        let a = block_of(4_000);
        let b = block_of(3_000);
        let out = mix_blocks([&a, &b]);
        let got = decode(out.0[0]);
        let want = decode(encode(4_000)) + decode(encode(3_000));
        assert!((got - want).abs() < want / 10, "got {got} want {want}");
    }

    #[test]
    fn opposite_signals_cancel() {
        let a = block_of(8_000);
        let b = block_of(-8_000);
        let out = mix_blocks([&a, &b]);
        for s in out.0 {
            assert_eq!(decode(s), 0);
        }
    }

    #[test]
    fn mixing_saturates_instead_of_wrapping() {
        let a = block_of(30_000);
        let b = block_of(30_000);
        let out = mix_blocks([&a, &b]);
        let got = decode(out.0[0]);
        assert!(got > 30_000, "saturated value should stay loud, got {got}");
    }

    #[test]
    fn five_quiet_streams_mix_cleanly() {
        let blocks: Vec<Block> = (0..5).map(|_| block_of(1_000)).collect();
        let out = mix_blocks(blocks.iter());
        let got = decode(out.0[0]);
        assert!((got - 5 * decode(encode(1_000))).abs() < 600, "got {got}");
    }

    #[test]
    fn scaled_mix_applies_gain() {
        let b = block_of(10_000);
        let out = mix_blocks_scaled([(&b, Q15::from_f64(0.2))]);
        let got = decode(out.0[0]);
        let want = decode(encode(10_000)) / 5;
        assert!((got - want).abs() <= want / 8 + 16, "got {got} want {want}");
    }

    #[test]
    fn fast_mix_matches_scalar_oracle() {
        for seed in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            let mix = |t: &mut Tape| {
                let count = t.gen_range(0..=64usize);
                blocks(t, count)
            };
            check("fast_mix", seed, 20, mix, |blocks| {
                assert_eq!(mix_blocks(blocks.iter()), mix_blocks_scalar(blocks.iter()));
            });
        }
    }

    // The old f64 implementation of `mix_blocks_scaled`, kept inline as
    // the golden reference the Q15 path is pinned against.
    fn mix_blocks_scaled_f64<'a>(blocks: impl IntoIterator<Item = (&'a Block, f64)>) -> Block {
        let mut acc = [0f64; BLOCK_BYTES];
        for (block, gain) in blocks {
            for (a, &b) in acc.iter_mut().zip(block.0.iter()) {
                *a += decode(b) as f64 * gain;
            }
        }
        let mut out = [0u8; BLOCK_BYTES];
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = encode(a.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16);
        }
        Block(out)
    }

    #[test]
    fn scaled_mix_golden_vs_old_float_path() {
        check(
            "scaled_mix",
            0xC0FFEE,
            10,
            |t| blocks(t, 4),
            |blocks| {
                // Q15-exact gains: byte-identical to the old float path.
                let exact = [
                    Q15::from_raw(1 << 14),
                    Q15::ONE,
                    Q15::from_raw(3 << 13),
                    Q15::ZERO,
                ];
                let q15_mix = mix_blocks_scaled(blocks.iter().zip(exact));
                let f64_mix =
                    mix_blocks_scaled_f64(blocks.iter().zip(exact).map(|(b, g)| (b, g.to_f64())));
                assert_eq!(q15_mix, f64_mix);
                // The figure-4.1 factors are not Q15-exact; the decoded outputs
                // stay within one quantisation step of the old float path.
                let factors = [0.2f64, 0.5, 1.0, 0.2];
                let q15_mix = mix_blocks_scaled(
                    blocks
                        .iter()
                        .zip(factors)
                        .map(|(b, f)| (b, Q15::from_f64(f))),
                );
                let f64_mix = mix_blocks_scaled_f64(blocks.iter().zip(factors));
                for (q, f) in q15_mix.0.iter().zip(f64_mix.0.iter()) {
                    let (dq, df) = (decode(*q), decode(*f));
                    let tol = 16 + df.abs() / 12;
                    assert!((dq - df).abs() <= tol, "{dq} vs {df}");
                }
            },
        );
    }

    #[test]
    fn cpu_profile_matches_paper_capacities() {
        let p = CpuProfile::default();
        let tick = 2_000_000u64; // 2ms in ns.
                                 // Plain: 5 streams fit, 6 do not (§4.2).
        assert!(p.plain_tick_cost_ns(5) <= tick, "5 plain streams must fit");
        assert!(
            p.plain_tick_cost_ns(6) > tick,
            "6 plain streams must not fit"
        );
        // Full path: 3 fit, 4 do not.
        assert!(p.full_tick_cost_ns(3) <= tick, "3 full streams must fit");
        assert!(p.full_tick_cost_ns(4) > tick, "4 full streams must not fit");
    }
}
