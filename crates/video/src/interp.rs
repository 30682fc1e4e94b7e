//! Decompression with the per-stream last-line software cache (§3.6).
//!
//! "A problem arises when we interleave segments from different video
//! streams, as the vertical interpolation for the first line of a segment
//! needs to know what the last line of the previous segment contained."
//! Of the three options the paper lists, Pandora chose: "maintain a
//! software cache of the last line processed on each stream, and reload
//! the interpolation hardware whenever we interleave segments."
//!
//! This module models that: the decompressor applies a vertical smoothing
//! pass whose first output line depends on the previous segment's last
//! line. Decoding segments from interleaved streams *without* reloading
//! the right line produces measurable seams; with the [`LineCache`] it is
//! seamless.

use std::collections::BTreeMap;

use pandora_segment::{StreamId, VideoSegment};

use crate::dpcm::decompress_slice;

/// Runs the vertical filter down `pixels` (rows of `width`) in place:
/// each output line is `(prev_line + 3 * line) / 4`, the smoothing the
/// interpolation hardware applies between adjacent lines. `prev` is the
/// line above the first row on entry and the last *unfiltered* row on
/// return, so a stream's cached line is reloaded and refreshed where it
/// lies. A `prev` of another width seeds nothing: the first row passes
/// through (the hardware would be loaded with the line directly).
fn vertical_filter(pixels: &mut [u8], width: usize, prev: &mut Vec<u8>) {
    let mut rows = pixels.chunks_exact_mut(width.max(1));
    if prev.len() != width {
        let Some(first) = rows.next() else { return };
        prev.clear();
        prev.extend_from_slice(first);
    }
    for row in rows {
        for (p, l) in prev.iter_mut().zip(row) {
            let raw = *l;
            *l = ((*p as u16 + 3 * raw as u16) / 4) as u8;
            *p = raw;
        }
    }
}

/// The per-stream software cache of the last processed line.
#[derive(Debug, Default)]
pub struct LineCache {
    lines: BTreeMap<StreamId, Vec<u8>>,
}

impl LineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached last line for `stream`, if any.
    pub fn get(&self, stream: StreamId) -> Option<&[u8]> {
        self.lines.get(&stream).map(|v| v.as_slice())
    }

    /// Forgets a stream (stream closed).
    pub fn remove(&mut self, stream: StreamId) {
        self.lines.remove(&stream);
    }

    /// Number of streams cached.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` when no streams are cached.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Decompresses a video segment into `lines × width` raw pixels,
/// row-major, applying the vertical filter seeded from `cache` (choice 3
/// of §3.6), and updates the cache with the segment's last line.
///
/// Returns `None` if any line fails to decode.
pub fn decode_segment(
    segment: &VideoSegment,
    stream: StreamId,
    cache: &mut LineCache,
) -> Option<Vec<u8>> {
    let mut pixels = decode_rows(segment)?;
    let prev = cache.lines.entry(stream).or_default();
    vertical_filter(&mut pixels, segment.video.width as usize, prev);
    Some(pixels)
}

// One row-chunked pass decodes every line of the segment into one buffer.
fn decode_rows(segment: &VideoSegment) -> Option<Vec<u8>> {
    let (width, lines) = (segment.video.width, segment.video.lines);
    decompress_slice(&segment.data, width as usize, lines as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_rect, CaptureConfig, RateFraction};
    use crate::dpcm::{line_error, LineMode};
    use crate::framestore::{FrameStore, Rect};
    use crate::pattern::TestPattern;
    use pandora_segment::{SequenceNumber, Timestamp};

    fn make_segments(stream_seed: u64, lines_per_segment: u32) -> Vec<VideoSegment> {
        let mut fs = FrameStore::new(32, 16);
        fs.write_frame(&TestPattern::new(32, 16).frame(stream_seed));
        let cfg = CaptureConfig {
            rect: Rect::new(0, 0, 32, 16),
            rate: RateFraction::FULL,
            lines_per_segment,
            mode: LineMode::Dpcm,
        };
        capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0))
    }

    /// Decodes a segment *without* consulting the cache — the broken
    /// interleaving the paper's choice 3 exists to prevent. The first line
    /// is filtered against whatever stale line is passed in (e.g. another
    /// stream's), producing a seam.
    fn decode_segment_stale(segment: &VideoSegment, stale_prev: Option<&[u8]>) -> Option<Vec<u8>> {
        let mut pixels = decode_rows(segment)?;
        let mut prev = stale_prev.unwrap_or_default().to_vec();
        vertical_filter(&mut pixels, segment.video.width as usize, &mut prev);
        Some(pixels)
    }

    #[test]
    fn decode_produces_all_lines() {
        let segs = make_segments(1, 8);
        let mut cache = LineCache::new();
        let mut total = 0;
        for s in &segs {
            total += decode_segment(s, StreamId(1), &mut cache).unwrap().len();
        }
        assert_eq!(total, 16 * 32);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_makes_interleaving_seamless() {
        // Decode two interleaved streams with the cache; then decode the
        // second segment of stream A with a *stale* previous line (stream
        // B's last line) and show the seam the cache prevents.
        let segs_a = make_segments(1, 8);
        let segs_b = make_segments(40, 8);
        let mut cache = LineCache::new();

        // Interleaved: A0, B0, A1, B1 — the cache keeps them separate.
        let _a0 = decode_segment(&segs_a[0], StreamId(1), &mut cache).unwrap();
        let b0 = decode_segment(&segs_b[0], StreamId(2), &mut cache).unwrap();
        let a1_good = decode_segment(&segs_a[1], StreamId(1), &mut cache).unwrap();

        // Sequential decode of stream A alone = ground truth.
        let mut solo = LineCache::new();
        let _ = decode_segment(&segs_a[0], StreamId(9), &mut solo).unwrap();
        let a1_truth = decode_segment(&segs_a[1], StreamId(9), &mut solo).unwrap();
        assert_eq!(
            a1_good, a1_truth,
            "cache-reloaded decode must match solo decode"
        );

        // Without the cache: first line filtered against stream B's line.
        let a1_bad = decode_segment_stale(&segs_a[1], b0.chunks(32).last()).unwrap();
        let seam = line_error(&a1_bad[..32], &a1_truth[..32]);
        assert!(seam > 2.0, "expected a visible seam, got error {seam}");
        // Later lines are unaffected — the seam is only at the boundary.
        assert_eq!(a1_bad[32..], a1_truth[32..]);
    }

    #[test]
    fn fresh_stream_needs_no_cache() {
        let segs = make_segments(1, 16);
        let mut cache = LineCache::new();
        let pixels = decode_segment(&segs[0], StreamId(5), &mut cache).unwrap();
        assert_eq!(pixels.len(), 16 * 32);
    }

    #[test]
    fn cache_lifecycle() {
        let segs = make_segments(1, 16);
        let mut cache = LineCache::new();
        assert!(cache.is_empty());
        decode_segment(&segs[0], StreamId(1), &mut cache).unwrap();
        // The cached line is the segment's last row before filtering.
        let raw = decode_rows(&segs[0]).unwrap();
        assert_eq!(cache.get(StreamId(1)), Some(&raw[raw.len() - 32..]));
        cache.remove(StreamId(1));
        assert!(cache.get(StreamId(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn corrupt_segment_decodes_to_none() {
        let mut segs = make_segments(1, 16);
        segs[0].data[0] = 0x7F; // Unknown line mode.
        let mut cache = LineCache::new();
        assert!(decode_segment(&segs[0], StreamId(1), &mut cache).is_none());
    }
}
