//! Per-line DPCM compression with sub-sampling (§3.6).
//!
//! "Each line of video data has a one byte compression header added, which
//! is used by the compression hardware to determine what sub-sampling and
//! DPCM coding should be applied." This module is the software stand-in
//! for that silicon: previous-pixel prediction, 4-bit non-uniform
//! quantisation of the error (two samples per byte, ≈2:1 ratio), with an
//! optional 2:1 horizontal sub-sampling mode. "Compression schemes and
//! parameters can be changed from one segment to the next."

/// Per-line compression mode, carried in the 1-byte line header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineMode {
    /// Uncompressed pixels.
    Raw,
    /// DPCM at full horizontal resolution.
    Dpcm,
    /// 2:1 horizontal sub-sampling, then DPCM.
    DpcmSub2,
}

impl LineMode {
    /// Header byte value.
    pub fn header(self) -> u8 {
        match self {
            LineMode::Raw => 0x00,
            LineMode::Dpcm => 0x01,
            LineMode::DpcmSub2 => 0x02,
        }
    }

    /// Parses a header byte.
    pub fn from_header(b: u8) -> Option<LineMode> {
        match b {
            0x00 => Some(LineMode::Raw),
            0x01 => Some(LineMode::Dpcm),
            0x02 => Some(LineMode::DpcmSub2),
            _ => None,
        }
    }
}

/// The 16-level non-uniform DPCM quantiser step table.
///
/// Small steps finely quantised, large steps coarsely — the usual DPCM
/// companding shape.
const STEPS: [i16; 8] = [0, 2, 5, 9, 16, 28, 48, 80];

// The reference quantiser: linear scan of the step table. Kept as the
// oracle the flat LUT below is pinned against, and const so the LUT can
// be built at compile time.
const fn quantise_reference(err: i32) -> u8 {
    let mag = err.unsigned_abs() as i16;
    let mut idx = 0u8;
    let mut i = 0;
    while i < STEPS.len() {
        if mag >= STEPS[i] {
            idx = i as u8;
        }
        i += 1;
    }
    if err < 0 {
        idx | 0x08
    } else {
        idx
    }
}

const fn dequantise_reference(code: u8) -> i32 {
    let mag = STEPS[(code & 0x07) as usize] as i32;
    if code & 0x08 != 0 {
        -mag
    } else {
        mag
    }
}

// Prediction errors are bounded: predictor and pixel both live in
// 0..=255, so err is in -255..=255 and the whole quantiser flattens to
// one 511-entry compile-time LUT indexed by err + 255.
#[cfg(test)]
const QLUT: [u8; 511] = {
    let mut t = [0u8; 511];
    let mut i = 0;
    while i < 511 {
        t[i] = quantise_reference(i as i32 - 255);
        i += 1;
    }
    t
};

// All 16 signed step values, so dequantisation is one indexed load.
const DEQ: [i32; 16] = {
    let mut t = [0i32; 16];
    let mut c = 0;
    while c < 16 {
        t[c] = dequantise_reference(c as u8);
        c += 1;
    }
    t
};

#[cfg(test)]
fn quantise(err: i32) -> u8 {
    QLUT[(err + 255) as usize]
}

fn dequantise(code: u8) -> i32 {
    DEQ[(code & 0x0F) as usize]
}

/// Compresses one line: returns the 1-byte header followed by the payload.
#[cfg(test)]
pub fn compress_line(pixels: &[u8], mode: LineMode) -> Vec<u8> {
    let mut out = vec![mode.header()];
    match mode {
        LineMode::Raw => out.extend_from_slice(pixels),
        LineMode::Dpcm => dpcm_encode_into(pixels, &mut out),
        LineMode::DpcmSub2 => {
            let mut sub = Vec::with_capacity(pixels.len().div_ceil(2));
            subsample2_into(pixels, &mut sub);
            dpcm_encode_into(&sub, &mut out);
        }
    }
    out
}

/// Decompresses one line to `width` pixels, or `None` on an unknown header
/// or truncated payload: the per-line oracle of [`decompress_slice`].
#[cfg(test)]
pub fn decompress_line(data: &[u8], width: usize) -> Option<Vec<u8>> {
    let (&header, payload) = data.split_first()?;
    let dpcm_decode = |data, width| {
        let mut out = Vec::with_capacity(width);
        dpcm_decode_into(data, width, &mut out).map(|()| out)
    };
    match LineMode::from_header(header)? {
        LineMode::Raw => {
            if payload.len() < width {
                return None;
            }
            Some(payload[..width].to_vec())
        }
        LineMode::Dpcm => dpcm_decode(payload, width),
        LineMode::DpcmSub2 => {
            let half = width.div_ceil(2);
            let sub = dpcm_decode(payload, half)?;
            // Horizontal interpolation back to full width.
            let mut out = Vec::with_capacity(width);
            for i in 0..width {
                if i % 2 == 0 {
                    out.push(sub[i / 2]);
                } else {
                    let a = sub[i / 2] as u16;
                    let b = *sub.get(i / 2 + 1).unwrap_or(&sub[i / 2]) as u16;
                    out.push(((a + b) / 2) as u8);
                }
            }
            Some(out)
        }
    }
}

// The per-line encode pass, the oracle of `encode_lanes`: two pixels per
// iteration, each pair packed and pushed straight into `out`. The
// predictor follows the *decoder's* reconstruction so errors do not
// accumulate.
#[cfg(test)]
fn dpcm_encode_into(pixels: &[u8], out: &mut Vec<u8>) {
    out.reserve(pixels.len().div_ceil(2));
    let mut pred = 128i32;
    let mut pairs = pixels.chunks_exact(2);
    for pair in pairs.by_ref() {
        let hi = quantise(pair[0] as i32 - pred);
        pred = (pred + dequantise(hi)).clamp(0, 255);
        let lo = quantise(pair[1] as i32 - pred);
        pred = (pred + dequantise(lo)).clamp(0, 255);
        out.push((hi << 4) | lo);
    }
    if let [p] = pairs.remainder() {
        out.push(quantise(*p as i32 - pred) << 4);
    }
}

// The chunked decode pass: one payload byte per iteration (two pixels),
// appending reconstructions straight onto `out`.
fn dpcm_decode_into(data: &[u8], width: usize, out: &mut Vec<u8>) -> Option<()> {
    if data.len() < width.div_ceil(2) {
        return None;
    }
    out.reserve(width);
    let mut pred = 128i32;
    for &byte in &data[..width / 2] {
        pred = (pred + dequantise(byte >> 4)).clamp(0, 255);
        out.push(pred as u8);
        pred = (pred + dequantise(byte & 0x0F)).clamp(0, 255);
        out.push(pred as u8);
    }
    if width % 2 == 1 {
        pred = (pred + dequantise(data[width / 2] >> 4)).clamp(0, 255);
        out.push(pred as u8);
    }
    Some(())
}

// 2:1 horizontal sub-sampling (pair averaging, odd tail kept) into a
// reusable scratch buffer.
fn subsample2_into(pixels: &[u8], out: &mut Vec<u8>) {
    out.reserve(pixels.len().div_ceil(2));
    let mut pairs = pixels.chunks_exact(2);
    for c in pairs.by_ref() {
        out.push(((c[0] as u16 + c[1] as u16) / 2) as u8);
    }
    if let [p] = pairs.remainder() {
        out.push(*p);
    }
}

// The slice encoder's `quantise` then `dequantise` as one load: the code
// for a prediction error and the signed step the decoder will add for
// it, indexed by err + 255.
const FUSED: [(u8, i16); 511] = {
    let mut t = [(0u8, 0i16); 511];
    let mut i = 0;
    while i < 511 {
        let code = quantise_reference(i as i32 - 255);
        t[i] = (code, dequantise_reference(code) as i16);
        i += 1;
    }
    t
};

// Rows the slice encoder runs in lock-step: a line's header restarts the
// predictor (§3.6), so a segment's lines are independent dependency
// chains. Past four the lanes spill registers (lane table: DESIGN.md §14).
const LANES: usize = 4;

// One encoder step: the code for `pixel`, and the predictor moved to the
// decoder's reconstruction. No clamp: the quantiser picks the largest
// step <= |err|, so `pred + step` lies between `pred` and `pixel`.
#[inline(always)]
fn encode_step(pred: &mut i32, pixel: u8) -> u8 {
    let (code, step) = FUSED[(pixel as i32 - *pred + 255) as usize];
    *pred += step as i32;
    code
}

// Encodes rows `src[l * stride..][..width]`, `l < N`, pixel pair by pixel
// pair across the rows, into the payloads of the `N` records of `out`.
fn encode_lanes<const N: usize>(src: &[u8], stride: usize, width: usize, out: &mut [u8]) {
    let rows: [&[u8]; N] = std::array::from_fn(|l| &src[l * stride..][..width]);
    let mut records = out.chunks_exact_mut(out.len() / N);
    let payloads: [&mut [u8]; N] =
        std::array::from_fn(|_| &mut records.next().expect("N records")[1..]);
    let mut pred = [128i32; N];
    for i in 0..width / 2 {
        for l in 0..N {
            let hi = encode_step(&mut pred[l], rows[l][2 * i]);
            let lo = encode_step(&mut pred[l], rows[l][2 * i + 1]);
            payloads[l][i] = (hi << 4) | lo;
        }
    }
    if width % 2 == 1 {
        for l in 0..N {
            payloads[l][width / 2] = encode_step(&mut pred[l], rows[l][width - 1]) << 4;
        }
    }
}

// DPCM-codes rows a `stride` apart into the records of `out` (`r × (1 +
// ⌈w/2⌉)` apart, headers in place): `LANES` rows at a time, the leftover
// rows one lane wide.
fn encode_rows(src: &[u8], stride: usize, width: usize, out: &mut [u8]) {
    let record = compressed_line_bytes(width, LineMode::Dpcm);
    let whole = out.len() / record / LANES * LANES;
    let mut groups = out.chunks_exact_mut(LANES * record);
    for (g, group) in groups.by_ref().enumerate() {
        encode_lanes::<LANES>(&src[g * LANES * stride..], stride, width, group);
    }
    for (r, rec) in (whole..).zip(groups.into_remainder().chunks_exact_mut(record)) {
        encode_lanes::<1>(&src[r * stride..], stride, width, rec);
    }
}

/// Compresses a whole slice (`pixels.len() / width` lines of `width`
/// pixels) in one pass; byte-identical to concatenating
/// `compress_line` over the rows.
///
/// # Panics
///
/// Panics if `width` is zero or does not divide `pixels.len()`.
pub fn compress_slice(pixels: &[u8], width: usize, mode: LineMode) -> Vec<u8> {
    assert!(
        width > 0 && pixels.len().is_multiple_of(width),
        "slice is not whole lines"
    );
    compress_rows(pixels, width, width, pixels.len() / width, mode)
}

// `compress_slice` over rows a `stride` apart (a rectangle where it lies
// in a framestore): one output sized up front, every record opening with
// the header, the DPCM payloads coded `LANES` rows in lock-step.
pub(crate) fn compress_rows(
    src: &[u8],
    stride: usize,
    width: usize,
    lines: usize,
    mode: LineMode,
) -> Vec<u8> {
    let record = compressed_line_bytes(width, mode);
    let mut out = vec![mode.header(); lines * record];
    match mode {
        LineMode::Raw => {
            for (r, rec) in out.chunks_exact_mut(record).enumerate() {
                rec[1..].copy_from_slice(&src[r * stride..][..width]);
            }
        }
        LineMode::Dpcm => encode_rows(src, stride, width, &mut out),
        LineMode::DpcmSub2 => {
            let half = width.div_ceil(2);
            let mut sub = Vec::with_capacity(lines * half);
            (0..lines).for_each(|r| subsample2_into(&src[r * stride..][..width], &mut sub));
            encode_rows(&sub, half, half, &mut out);
        }
    }
    out
}

/// Decompresses `lines` consecutive line records into one `lines × width`
/// pixel buffer, the row-chunked counterpart of decoding each record on
/// its own. Per-line modes may vary (each record carries its own header). Returns `None` on an unknown header or a
/// truncated record, like the per-line decoder — and, before anything is
/// sized from them, on a `width` and `lines` (they come off the wire)
/// that `data` could not hold even as the shortest records there are.
pub fn decompress_slice(data: &[u8], width: usize, lines: usize) -> Option<Vec<u8>> {
    let shortest = compressed_line_bytes(width, LineMode::DpcmSub2);
    if lines > data.len() / shortest {
        return None;
    }
    let mut out = Vec::with_capacity(lines * width);
    let mut sub = Vec::new();
    let mut off = 0;
    for _ in 0..lines {
        let mode = LineMode::from_header(*data.get(off)?)?;
        let record = compressed_line_bytes(width, mode);
        let payload = data.get(off + 1..off + record)?;
        match mode {
            LineMode::Raw => out.extend_from_slice(payload),
            LineMode::Dpcm => dpcm_decode_into(payload, width, &mut out)?,
            LineMode::DpcmSub2 => {
                let half = width.div_ceil(2);
                sub.clear();
                dpcm_decode_into(payload, half, &mut sub)?;
                // Horizontal interpolation back to full width.
                for i in 0..width {
                    if i % 2 == 0 {
                        out.push(sub[i / 2]);
                    } else {
                        let a = sub[i / 2] as u16;
                        let b = *sub.get(i / 2 + 1).unwrap_or(&sub[i / 2]) as u16;
                        out.push(((a + b) / 2) as u8);
                    }
                }
            }
        }
        off += record;
    }
    Some(out)
}

/// Compressed size of a line of `width` pixels under `mode`, header
/// included.
pub fn compressed_line_bytes(width: usize, mode: LineMode) -> usize {
    1 + match mode {
        LineMode::Raw => width,
        LineMode::Dpcm => width.div_ceil(2),
        LineMode::DpcmSub2 => width.div_ceil(2).div_ceil(2),
    }
}

/// Mean absolute per-pixel error between two equal-length lines.
pub fn line_error(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "line length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let sum: u64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as i32 - y as i32).unsigned_abs() as u64)
        .sum();
    sum as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_prop::{check, Rng, Tape};

    const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

    fn noise(t: &mut Tape, len: usize) -> Vec<u8> {
        (0..len).map(|_| t.gen_range(0..=255u8)).collect()
    }

    fn gradient(width: usize) -> Vec<u8> {
        (0..width).map(|i| (i * 255 / width.max(1)) as u8).collect()
    }

    fn texture(width: usize) -> Vec<u8> {
        (0..width)
            .map(|i| (128.0 + 60.0 * ((i as f64) * 0.7).sin()) as u8)
            .collect()
    }

    #[test]
    fn raw_round_trips_exactly() {
        let px = texture(64);
        let c = compress_line(&px, LineMode::Raw);
        assert_eq!(decompress_line(&c, 64).unwrap(), px);
    }

    #[test]
    fn dpcm_halves_the_size() {
        let px = texture(64);
        let c = compress_line(&px, LineMode::Dpcm);
        assert_eq!(c.len(), 1 + 32);
        assert_eq!(c.len(), compressed_line_bytes(64, LineMode::Dpcm));
    }

    #[test]
    fn dpcm_error_is_small_on_smooth_content() {
        let px = gradient(128);
        let c = compress_line(&px, LineMode::Dpcm);
        let d = decompress_line(&c, 128).unwrap();
        assert!(line_error(&px, &d) < 4.0, "error {}", line_error(&px, &d));
    }

    #[test]
    fn dpcm_tracks_texture() {
        let px = texture(128);
        let c = compress_line(&px, LineMode::Dpcm);
        let d = decompress_line(&c, 128).unwrap();
        assert!(line_error(&px, &d) < 10.0, "error {}", line_error(&px, &d));
    }

    #[test]
    fn sub2_quarter_size() {
        let px = texture(64);
        let c = compress_line(&px, LineMode::DpcmSub2);
        assert_eq!(c.len(), 1 + 16);
        let d = decompress_line(&c, 64).unwrap();
        assert_eq!(d.len(), 64);
        // Sub-sampling loses detail but stays in the ballpark.
        assert!(line_error(&px, &d) < 25.0, "error {}", line_error(&px, &d));
    }

    #[test]
    fn odd_width_handled() {
        let px = texture(63);
        for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
            let c = compress_line(&px, mode);
            let d = decompress_line(&c, 63).unwrap();
            assert_eq!(d.len(), 63, "mode {mode:?}");
        }
    }

    #[test]
    fn unknown_header_rejected() {
        assert_eq!(decompress_line(&[0x7F, 1, 2, 3], 3), None);
    }

    #[test]
    fn truncated_payload_rejected() {
        let px = texture(64);
        let c = compress_line(&px, LineMode::Dpcm);
        assert_eq!(decompress_line(&c[..10], 64), None);
    }

    #[test]
    fn mode_headers_round_trip() {
        for m in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
            assert_eq!(LineMode::from_header(m.header()), Some(m));
        }
        assert_eq!(LineMode::from_header(0x55), None);
    }

    #[test]
    fn quantise_lut_matches_reference_exhaustively() {
        for err in -255i32..=255 {
            assert_eq!(quantise(err), quantise_reference(err), "err={err}");
        }
        for code in 0u8..16 {
            assert_eq!(dequantise(code), dequantise_reference(code));
        }
    }

    #[test]
    fn fused_step_is_the_clamped_two_table_step_for_every_predictor_and_pixel() {
        for pred in 0..=255i32 {
            for pixel in 0..=255u8 {
                let code = quantise(pixel as i32 - pred);
                let sum = pred + dequantise(code);
                assert!(
                    (0..=255).contains(&sum),
                    "the oracle's clamp does something at pred {pred}, pixel {pixel}: {sum}"
                );
                let mut next = pred;
                assert_eq!(encode_step(&mut next, pixel), code, "{pred} {pixel}");
                assert_eq!(next, sum.clamp(0, 255), "pred {pred}, pixel {pixel}");
            }
        }
    }

    #[test]
    fn forged_geometry_is_refused_before_it_sizes_anything() {
        let max = u32::MAX as usize;
        assert_eq!(decompress_slice(&[1, 2, 3], max, max), None); // lines * width overflows.
        assert_eq!(decompress_slice(&[1, 2, 3], max, 1), None); // A 4 GB line.
        assert_eq!(decompress_slice(&[1, 2, 3], 1, max), None);
        assert_eq!(decompress_slice(&[1, 2, 3], max, 0), Some(vec![]));
        // The bound is the shortest record, so it refuses nothing real:
        // four sub-sampled lines of five pixels in 4 * (1 + 2) bytes.
        let wire = compress_slice(&[9; 20], 5, LineMode::DpcmSub2);
        assert_eq!(wire.len(), 12);
        assert!(decompress_slice(&wire, 5, 4).is_some());
        assert_eq!(decompress_slice(&wire, 5, 5), None);
    }

    #[test]
    fn compress_slice_matches_per_line_concat() {
        for (width, lines) in [(64usize, 8usize), (63, 5), (1, 3)] {
            let pixels: Vec<u8> = (0..width * lines)
                .map(|i| (128.0 + 90.0 * ((i as f64) * 0.13).sin()) as u8)
                .collect();
            for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
                let batched = compress_slice(&pixels, width, mode);
                let per_line: Vec<u8> = pixels
                    .chunks_exact(width)
                    .flat_map(|row| compress_line(row, mode))
                    .collect();
                assert_eq!(batched, per_line, "{width}x{lines} {mode:?}");
            }
        }
    }

    #[test]
    fn decompress_slice_matches_per_line_decode() {
        let width = 63;
        let lines = 6;
        let pixels: Vec<u8> = (0..width * lines).map(|i| (i * 7 % 256) as u8).collect();
        // Mixed per-line modes in one slice.
        let modes = [
            LineMode::Raw,
            LineMode::Dpcm,
            LineMode::DpcmSub2,
            LineMode::Dpcm,
            LineMode::Raw,
            LineMode::DpcmSub2,
        ];
        let mut wire = Vec::new();
        let mut want = Vec::new();
        for (row, &mode) in pixels.chunks_exact(width).zip(&modes) {
            let rec = compress_line(row, mode);
            want.extend(decompress_line(&rec, width).expect("per-line decode"));
            wire.extend(rec);
        }
        assert_eq!(decompress_slice(&wire, width, lines), Some(want));
        // Truncation and bad headers still fail like the per-line path.
        assert_eq!(
            decompress_slice(&wire[..wire.len() - 1], width, lines),
            None
        );
        let mut bad = wire.clone();
        bad[0] = 0x7F;
        assert_eq!(decompress_slice(&bad, width, lines), None);
    }

    #[test]
    fn encoder_decoder_predictors_agree() {
        // A hard step edge: the decoder must track the encoder's
        // reconstruction, not the original, so error stays bounded.
        let mut px = vec![0u8; 32];
        px.extend(vec![255u8; 32]);
        let c = compress_line(&px, LineMode::Dpcm);
        let d = decompress_line(&c, 64).unwrap();
        // The tail of each plateau should have converged.
        assert!((d[30] as i32) < 40, "low plateau {:?}", &d[24..32]);
        assert!((d[63] as i32) > 215, "high plateau {:?}", &d[56..64]);
    }

    #[test]
    fn dpcm_round_trip_bounds() {
        let line = |t: &mut Tape| {
            let len = t.gen_range(1..256);
            noise(t, len)
        };
        check("dpcm", 0, 256, line, |line| {
            let width = line.len();
            let raw = compress_line(line, LineMode::Raw);
            assert_eq!(decompress_line(&raw, width).unwrap(), *line);
            let d = decompress_line(&compress_line(line, LineMode::Dpcm), width).unwrap();
            assert_eq!(d.len(), width);
            let d2 = decompress_line(&compress_line(line, LineMode::DpcmSub2), width).unwrap();
            assert_eq!(d2.len(), width);
        });
    }

    #[test]
    fn dpcm_slice_codec_matches_per_line_codec() {
        let agree = |pixels: &[u8], width: usize, what: &str| {
            let lines = pixels.len() / width;
            for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
                let batched = compress_slice(pixels, width, mode);
                let per_line: Vec<u8> = pixels
                    .chunks_exact(width)
                    .flat_map(|row| compress_line(row, mode))
                    .collect();
                assert_eq!(batched, per_line, "{what} {width}x{lines} {mode:?}");

                let slice_decoded = decompress_slice(&batched, width, lines);
                let mut line_decoded = Vec::with_capacity(width * lines);
                let mut off = 0;
                let mut ok = true;
                for _ in 0..lines {
                    match decompress_line(&per_line[off..], width) {
                        Some(px) => {
                            let mode_here = LineMode::from_header(per_line[off]).expect("header");
                            off += compressed_line_bytes(width, mode_here);
                            line_decoded.extend(px);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let want = ok.then_some(line_decoded);
                assert_eq!(slice_decoded, want, "{what} {width}x{lines} {mode:?}");
            }
        };
        let slice = |t: &mut Tape| {
            let (width, lines) = (t.gen_range(1..=80usize), t.gen_range(1..=12usize));
            (width, noise(t, width * lines))
        };
        for seed in SEEDS {
            check("dpcm_slice", seed, 6, slice, |(width, pixels)| {
                agree(pixels, *width, "noise")
            });
        }
        // The slice encoder runs four rows in lock-step and the leftover rows
        // one at a time, pixel pairs then an odd tail: every line count
        // around two groups, widths either side of a pair and of a byte's
        // worth of pixels, on noise and on the rows that pin the predictor
        // to either rail or swing it between them.
        let sweep = |t: &mut Tape| noise(t, 257 * 9);
        check("dpcm_edges", SEEDS[0], 1, sweep, |noise| {
            for width in [1, 2, 3, 255, 256, 257] {
                for lines in 1..=9 {
                    agree(&noise[..width * lines], width, "noise");
                    agree(&vec![0; width * lines], width, "all 0");
                    agree(&vec![255; width * lines], width, "all 255");
                    let swing: Vec<u8> = (0..width * lines).map(|i| (i % 2 * 255) as u8).collect();
                    agree(&swing, width, "0/255 pixels");
                    let rows: Vec<u8> = (0..width * lines)
                        .map(|i| (i / width % 2 * 255) as u8)
                        .collect();
                    agree(&rows, width, "0/255 rows");
                }
            }
        });
    }
}
