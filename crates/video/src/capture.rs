//! Rectangle capture at fractional frame rates (§3.6).
//!
//! "Rectangular blocks are read from a video framestore at intervals
//! determined by the requested frame rates of the streams. Each stream can
//! be from different, possibly overlapping, sections of the store. The
//! frame rates are expressed as a fraction of full 25Hz frame rate. For
//! example, 2/5 gives an average of 10 frames per second." Large blocks
//! are split into several segments "each of which is despatched as soon as
//! the data is ready, reducing latencies and buffering requirements".

use pandora_segment::{SequenceNumber, Timestamp, VideoHeader, VideoSegment};

use crate::dpcm::{compress_rows, LineMode};
use crate::framestore::{FrameStore, Rect};

/// A frame rate expressed as a fraction of the full 25 Hz rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateFraction {
    /// Numerator.
    pub num: u32,
    /// Denominator.
    pub den: u32,
}

impl RateFraction {
    /// Builds `num/den` of 25 Hz.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or `num > den`.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(den > 0, "denominator must be non-zero");
        assert!(num <= den, "rate fraction must be <= 1");
        RateFraction { num, den }
    }

    /// Full rate (25/25).
    pub const FULL: RateFraction = RateFraction { num: 1, den: 1 };

    /// Whether full-rate frame number `n` should be captured: the standard
    /// rational pacing floor((n+1)·p/q) > floor(n·p/q).
    pub fn captures_frame(&self, n: u64) -> bool {
        let p = self.num as u64;
        let q = self.den as u64;
        (n + 1) * p / q > n * p / q
    }

    /// Average frames per second.
    pub fn fps(&self) -> f64 {
        25.0 * self.num as f64 / self.den as f64
    }
}

/// Configuration of one capture stream.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// The rectangle to capture (may overlap other streams' rectangles).
    pub rect: Rect,
    /// Frame rate as a fraction of 25 Hz.
    pub rate: RateFraction,
    /// Maximum lines per video segment ("a frame can be broken up into a
    /// number of rectangular segments").
    pub lines_per_segment: u32,
    /// Per-line compression mode.
    pub mode: LineMode,
}

/// Splits one captured rectangle into compressed video segments.
///
/// Returns the segments in top-to-bottom order; each is self-describing
/// via its [`VideoHeader`] (placement, lines, compression arguments).
pub fn capture_rect(
    store: &FrameStore,
    config: &CaptureConfig,
    frame_number: u32,
    first_seq: SequenceNumber,
    timestamp: Timestamp,
) -> Vec<VideoSegment> {
    let rect = config.rect;
    let width = rect.width as usize;
    // The rectangle is coded where it lies in the store, a stored line
    // apart; an unwritten store is one line of zeroes read `height` times.
    let zeroes;
    let (pixels, stride) = match store.rect_lines(rect) {
        Some(lines) => lines,
        None => {
            zeroes = vec![0; width];
            (&zeroes[..], 0)
        }
    };
    let lines_per_segment = config.lines_per_segment.max(1);
    let segment_count = rect.height.div_ceil(lines_per_segment);
    let mut out = Vec::with_capacity(segment_count as usize);
    let mut seq = first_seq;
    for s in 0..segment_count {
        let start_line = s * lines_per_segment;
        let lines = lines_per_segment.min(rect.height - start_line);
        let rows = &pixels[start_line as usize * stride..];
        let data = compress_rows(rows, stride, width, lines as usize, config.mode);
        let header = VideoHeader {
            frame_number,
            segments_in_frame: segment_count,
            segment_number: s,
            x_offset: rect.x,
            y_offset: rect.y,
            compression_args: vec![config.mode.header() as u32],
            width: rect.width,
            start_line,
            lines,
            data_length: 0,
        };
        out.push(VideoSegment::new(seq, timestamp, header, data));
        seq = seq.next();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpcm::compress_line;
    use crate::pattern::TestPattern;

    fn store_with_pattern() -> FrameStore {
        let mut fs = FrameStore::new(64, 48);
        let frame = TestPattern::new(64, 48).frame(3);
        fs.write_frame(&frame);
        fs
    }

    #[test]
    fn rate_two_fifths_gives_10fps() {
        let r = RateFraction::new(2, 5);
        assert_eq!(r.fps(), 10.0);
        let captured: Vec<u64> = (0..25).filter(|&n| r.captures_frame(n)).collect();
        assert_eq!(captured.len(), 10, "10 of 25 frames captured: {captured:?}");
    }

    #[test]
    fn full_rate_captures_everything() {
        let r = RateFraction::FULL;
        assert!((0..100).all(|n| r.captures_frame(n)));
    }

    #[test]
    fn zero_rate_numerator_captures_nothing() {
        let r = RateFraction::new(0, 5);
        assert!(!(0..100).any(|n| r.captures_frame(n)));
    }

    #[test]
    fn capture_splits_into_segments() {
        let fs = store_with_pattern();
        let cfg = CaptureConfig {
            rect: Rect::new(8, 8, 32, 20),
            rate: RateFraction::FULL,
            lines_per_segment: 8,
            mode: LineMode::Dpcm,
        };
        let segs = capture_rect(&fs, &cfg, 7, SequenceNumber(100), Timestamp(5));
        assert_eq!(segs.len(), 3); // 8 + 8 + 4 lines.
        assert_eq!(segs[0].video.segments_in_frame, 3);
        assert_eq!(segs[2].video.lines, 4);
        assert_eq!(segs[1].video.start_line, 8);
        assert_eq!(segs[0].common.sequence, SequenceNumber(100));
        assert_eq!(segs[2].common.sequence, SequenceNumber(102));
        for s in &segs {
            assert_eq!(s.video.frame_number, 7);
            assert_eq!(s.video.x_offset, 8);
            assert_eq!(s.video.width, 32);
        }
    }

    /// What the per-line oracle makes of `read_rect`'s copy of the
    /// rectangle, segment by segment.
    fn per_line_oracle(fs: &FrameStore, cfg: &CaptureConfig) -> Vec<Vec<u8>> {
        let width = cfg.rect.width as usize;
        fs.read_rect(cfg.rect)
            .chunks(cfg.lines_per_segment as usize * width)
            .map(|seg| {
                seg.chunks(width)
                    .flat_map(|row| compress_line(row, cfg.mode))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn strided_capture_matches_the_per_line_codec_over_a_copy() {
        // A rectangle narrower than the store and off its left edge, so
        // rows are a stride apart; 23 lines in sevens leave 7, 7, 7, 2:
        // whole groups of four and leftovers of three and two.
        let fs = store_with_pattern();
        for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
            for rect in [Rect::new(5, 3, 31, 23), Rect::new(63, 47, 1, 1)] {
                let cfg = CaptureConfig {
                    rect,
                    rate: RateFraction::FULL,
                    lines_per_segment: 7,
                    mode,
                };
                let segs = capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
                let data: Vec<Vec<u8>> = segs.into_iter().map(|s| s.data).collect();
                assert_eq!(data, per_line_oracle(&fs, &cfg), "{rect:?} {mode:?}");
            }
            // No lines, below the last one: nothing to read, nothing read.
            // No columns, right of the last one: five headers.
            let empty = |rect| CaptureConfig {
                rect,
                rate: RateFraction::FULL,
                lines_per_segment: 7,
                mode,
            };
            let capture = |cfg| capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
            assert!(capture(empty(Rect::new(64, 48, 0, 0))).is_empty());
            let narrow = capture(empty(Rect::new(64, 43, 0, 5)));
            assert_eq!(narrow[0].data, [mode.header(); 5]);
        }
    }

    #[test]
    fn an_unwritten_store_captures_as_zeroes_and_stays_unbacked() {
        let fs = FrameStore::new(64, 48);
        let mut written = FrameStore::new(64, 48);
        written.write_frame(&[0; 64 * 48]);
        for mode in [LineMode::Raw, LineMode::Dpcm, LineMode::DpcmSub2] {
            let cfg = CaptureConfig {
                rect: Rect::new(8, 8, 33, 10),
                rate: RateFraction::FULL,
                lines_per_segment: 6,
                mode,
            };
            let capture = |fs| capture_rect(fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
            assert_eq!(capture(&fs), capture(&written), "{mode:?}");
            assert_eq!(capture(&fs)[1].data, per_line_oracle(&written, &cfg)[1]);
        }
        assert!(fs.rect_lines(Rect::new(0, 0, 64, 48)).is_none());
    }

    #[test]
    fn compressed_data_is_smaller_than_raw() {
        let fs = store_with_pattern();
        let cfg = CaptureConfig {
            rect: Rect::new(0, 0, 64, 48),
            rate: RateFraction::FULL,
            lines_per_segment: 48,
            mode: LineMode::Dpcm,
        };
        let segs = capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
        let raw = 64 * 48;
        let compressed: usize = segs.iter().map(|s| s.data.len()).sum();
        assert!(
            compressed < raw * 6 / 10,
            "compressed {compressed} vs raw {raw}"
        );
    }

    #[test]
    fn overlapping_rects_both_capture() {
        let fs = store_with_pattern();
        for rect in [Rect::new(0, 0, 32, 32), Rect::new(16, 16, 32, 32)] {
            let cfg = CaptureConfig {
                rect,
                rate: RateFraction::FULL,
                lines_per_segment: 32,
                mode: LineMode::Raw,
            };
            let segs = capture_rect(&fs, &cfg, 0, SequenceNumber(0), Timestamp(0));
            assert_eq!(segs.len(), 1);
            assert_eq!(segs[0].data.len(), 32 * (32 + 1)); // 1 header byte/line.
        }
    }
}
