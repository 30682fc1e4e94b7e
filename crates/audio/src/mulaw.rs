//! G.711 µ-law companding — the software equivalent of Pandora's
//! "standard 8-bit µ-law codec" sampling at 125 µs intervals (§3.2).

/// Largest linear magnitude representable before clipping.
const CLIP: i32 = 32_635;
const BIAS: i32 = 0x84;

/// Encodes one 16-bit linear PCM sample to 8-bit µ-law.
///
/// Branch-free: the data-dependent segment search of
/// `encode_reference` becomes a `leading_zeros` (one instruction on
/// every target that matters), so the encoder pipelines cleanly inside
/// the chunked mixing loops. Byte-identical to the reference for every
/// input — pinned exhaustively by `encode_matches_reference`.
///
/// # Examples
///
/// ```
/// use pandora_audio::mulaw::{encode, decode};
/// let byte = encode(1000);
/// let back = decode(byte);
/// assert!((back - 1000).abs() < 64);
/// ```
pub fn encode(pcm: i16) -> u8 {
    let sign = (((pcm as u16) >> 8) as u8) & 0x80;
    let mag = (pcm as i32).unsigned_abs().min(CLIP as u32) + BIAS as u32;
    // Exponent = index of the segment containing mag: 0 for mag <= 0xFF,
    // up to 7 for the top segment. `mag | 0xFF` pins the zero-exponent
    // case so the subtraction never underflows.
    let exponent = 24 - (mag | 0xFF).leading_zeros();
    let mantissa = ((mag >> (exponent + 3)) & 0x0F) as u8;
    !(sign | ((exponent as u8) << 4) | mantissa)
}

/// The original loop-based µ-law encoder, kept verbatim as the
/// conformance oracle for [`encode`].
#[cfg(test)]
pub fn encode_reference(pcm: i16) -> u8 {
    let mut x = pcm as i32;
    let sign: u8 = if x < 0 {
        x = -x;
        0x80
    } else {
        0
    };
    if x > CLIP {
        x = CLIP;
    }
    x += BIAS;
    // Exponent = index of the segment containing x (7 segments above 0xFF).
    let mut exponent: u8 = 7;
    let mut mask = 0x4000;
    while exponent > 0 && (x & mask) == 0 {
        exponent -= 1;
        mask >>= 1;
    }
    let mantissa = ((x >> (exponent as i32 + 3)) & 0x0F) as u8;
    !(sign | (exponent << 4) | mantissa)
}

// The expansion formula, const so the flat LUT below can be built at
// compile time.
const fn decode_formula(byte: u8) -> i32 {
    let y = !byte;
    let sign = y & 0x80;
    let exponent = (y >> 4) & 0x07;
    let mantissa = (y & 0x0F) as i32;
    let magnitude = (((mantissa << 3) + BIAS) << exponent) - BIAS;
    if sign != 0 {
        -magnitude
    } else {
        magnitude
    }
}

// Flat compile-time expansion table: decode becomes a single indexed
// load, which the autovectorizer turns into gathers inside the chunked
// mixing loops.
const DECODE_LUT: [i32; 256] = {
    let mut t = [0i32; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = decode_formula(b as u8);
        b += 1;
    }
    t
};

/// Decodes one 8-bit µ-law byte to 16-bit linear PCM (flat-LUT path).
pub fn decode(byte: u8) -> i32 {
    DECODE_LUT[byte as usize]
}

/// The formula-based µ-law decoder, kept as the conformance oracle for
/// the [`decode`] LUT.
#[cfg(test)]
pub fn decode_reference(byte: u8) -> i32 {
    decode_formula(byte)
}

/// µ-law silence: the encoding of linear zero.
pub const SILENCE: u8 = 0xFF;

/// Builds a µ-law → µ-law table that scales samples by `factor` in the
/// linear domain — exactly the paper's muting implementation: "the muting
/// is performed by lookup tables that directly scale the 8-bit µ-law
/// samples" (§4.3).
pub fn scaling_table(factor: f64) -> [u8; 256] {
    let mut t = [0u8; 256];
    for (b, slot) in t.iter_mut().enumerate() {
        let linear = decode(b as u8) as f64 * factor;
        *slot = encode(linear.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16);
    }
    t
}

/// Builds the µ-law scaling table from a Q15 fixed-point gain — the
/// integer replacement for [`scaling_table`]. All arithmetic is exact
/// integer work with one explicit rounding step, so the table is
/// bit-identical on every host; with a gain exactly representable in
/// Q15 it equals `scaling_table(gain.to_f64())`.
pub fn scaling_table_q15(gain: crate::q15::Q15) -> [u8; 256] {
    let mut t = [0u8; 256];
    for (b, slot) in t.iter_mut().enumerate() {
        let linear = gain.scale(decode(b as u8));
        *slot = encode(linear.clamp(i16::MIN as i32, i16::MAX as i32) as i16);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_silence() {
        assert_eq!(encode(0), SILENCE);
        assert_eq!(decode(SILENCE), 0);
    }

    #[test]
    fn decode_encode_is_identity_on_codewords() {
        // Every µ-law codeword decodes to a value that re-encodes to itself
        // (up to the +0/-0 pair).
        for b in 0u16..=255 {
            let b = b as u8;
            let lin = decode(b);
            let lin16 = lin.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            let b2 = encode(lin16);
            assert_eq!(decode(b2), decode(b), "codeword {b:#x}");
        }
    }

    #[test]
    fn round_trip_error_bounded() {
        // µ-law quantisation error grows with magnitude; the relative error
        // is bounded by the segment step (~3%).
        for pcm in (-32000i32..32000).step_by(37) {
            let pcm = pcm as i16;
            let out = decode(encode(pcm));
            let err = (out - pcm as i32).abs();
            let allowed = 16 + (pcm as i32).abs() / 16;
            assert!(err <= allowed, "pcm={pcm} out={out} err={err}");
        }
    }

    #[test]
    fn sign_symmetry() {
        for pcm in [1i16, 100, 1000, 10000, 32000] {
            assert_eq!(decode(encode(pcm)), -decode(encode(-pcm)));
        }
    }

    #[test]
    fn clipping_saturates() {
        assert_eq!(decode(encode(i16::MAX)), decode(encode(CLIP as i16)));
        assert_eq!(decode(encode(i16::MIN)), -decode(encode(CLIP as i16)));
    }

    #[test]
    fn monotonic_on_positives() {
        let mut last = -1;
        for pcm in (0..32767i32).step_by(11) {
            let out = decode(encode(pcm as i16));
            assert!(out >= last, "non-monotonic at {pcm}");
            last = out;
        }
    }

    #[test]
    fn scaling_table_halves_amplitude() {
        let t = scaling_table(0.5);
        for b in 0u16..=255 {
            let b = b as u8;
            let orig = decode(b);
            let scaled = decode(t[b as usize]);
            // Within one quantisation step of half amplitude.
            let target = orig / 2;
            let tol = 16 + orig.abs() / 12;
            assert!(
                (scaled - target).abs() <= tol,
                "b={b} orig={orig} scaled={scaled}"
            );
        }
    }

    #[test]
    fn scaling_table_zero_mutes_fully() {
        let t = scaling_table(0.0);
        for b in 0u16..=255 {
            assert_eq!(decode(t[b as usize]), 0);
        }
    }

    #[test]
    fn unity_table_preserves_values() {
        let t = scaling_table(1.0);
        for b in 0u16..=255 {
            assert_eq!(decode(t[b as usize]), decode(b as u8));
        }
    }

    #[test]
    fn encode_matches_reference_exhaustively() {
        // The branch-free encoder must agree with the loop-based oracle
        // on every one of the 65536 inputs.
        for pcm in i16::MIN..=i16::MAX {
            assert_eq!(encode(pcm), encode_reference(pcm), "pcm={pcm}");
        }
    }

    #[test]
    fn decode_matches_reference_exhaustively() {
        for b in 0u16..=255 {
            assert_eq!(decode(b as u8), decode_reference(b as u8), "b={b}");
        }
    }

    #[test]
    fn q15_scaling_table_matches_float_table_on_exact_gains() {
        use crate::q15::Q15;
        // Gains exactly representable in Q15 give byte-identical tables.
        for raw in [0, 1 << 14, 3 << 13, 1 << 15] {
            let q = Q15::from_raw(raw);
            assert_eq!(scaling_table_q15(q), scaling_table(q.to_f64()), "raw={raw}");
        }
    }

    #[test]
    fn q15_scaling_table_tracks_float_table_within_one_code() {
        use crate::q15::Q15;
        // The figure-4.1 factors (0.2, 0.5) are not exactly representable;
        // the nearest Q15 gain lands within one µ-law code everywhere.
        for factor in [0.2, 0.5] {
            let ft = scaling_table(factor);
            let qt = scaling_table_q15(Q15::from_f64(factor));
            for b in 0u16..=255 {
                let d = (ft[b as usize] as i32 - qt[b as usize] as i32).abs();
                assert!(
                    d <= 1,
                    "factor={factor} b={b} float={} q15={}",
                    ft[b as usize],
                    qt[b as usize]
                );
            }
        }
    }
}
