//! Segment structures — figures 3.1 and 3.2 of the paper.
//!
//! "Stream implementation is based on self-contained segments of data
//! containing information for delivery, synchronisation and error
//! recovery." Every field in the headers is 32 bits; the first five fields
//! are common to audio and video segments.

use crate::ids::{SequenceNumber, Timestamp};

/// The version identifier carried by every segment ("PAN1").
pub const VERSION_ID: u32 = 0x50414E31;

/// Samples per 2 ms audio block (§3.2: "blocks of 16 samples").
pub const SAMPLES_PER_BLOCK: usize = 16;
/// Bytes per audio block (8-bit µ-law).
pub const BLOCK_BYTES: usize = 16;
/// Duration of one audio block in nanoseconds (2 ms).
pub const BLOCK_DURATION_NANOS: u64 = 2_000_000;
/// Audio sampling rate in Hz (125 µs intervals).
pub const AUDIO_SAMPLE_RATE: u32 = 8_000;
/// Default blocks per live segment ("we usually run with 2 blocks").
pub const DEFAULT_BLOCKS_PER_SEGMENT: usize = 2;
/// Blocks per repository segment (40 ms, §3.2).
pub const REPOSITORY_BLOCKS_PER_SEGMENT: usize = 20;

/// Size in bytes of the common segment header (5 × 32-bit fields).
pub const COMMON_HEADER_BYTES: usize = 20;
/// Size in bytes of the audio-specific header (4 × 32-bit fields).
pub const AUDIO_HEADER_BYTES: usize = 16;
/// Size in bytes of the full audio segment header (36 bytes, §3.2:
/// repository segments carry "320 bytes of data plus a new 36 byte header").
pub const AUDIO_FULL_HEADER_BYTES: usize = COMMON_HEADER_BYTES + AUDIO_HEADER_BYTES;
/// Size in bytes of the fixed part of the video-specific header
/// (12 × 32-bit fields, excluding variable compression arguments).
pub const VIDEO_FIXED_HEADER_BYTES: usize = 48;

/// The segment type discriminator in the common header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentType {
    /// Audio samples (figure 3.1).
    Audio,
    /// Video pixel data (figure 3.2).
    Video,
    /// Opaque test traffic, produced/consumed by the test device handlers
    /// shown in figure 3.3.
    Test,
}

impl SegmentType {
    /// Wire encoding of the type field.
    pub fn code(self) -> u32 {
        match self {
            SegmentType::Audio => 1,
            SegmentType::Video => 2,
            SegmentType::Test => 3,
        }
    }

    /// Decodes the type field.
    pub fn from_code(code: u32) -> Option<SegmentType> {
        match code {
            1 => Some(SegmentType::Audio),
            2 => Some(SegmentType::Video),
            3 => Some(SegmentType::Test),
            _ => None,
        }
    }
}

/// The five 32-bit fields common to all segment formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonHeader {
    /// Format version ("Version ID").
    pub version: u32,
    /// Per-stream sequence number.
    pub sequence: SequenceNumber,
    /// 64 µs-resolution timestamp taken as close to the source as possible.
    pub timestamp: Timestamp,
    /// Segment type (audio/video/test).
    pub segment_type: SegmentType,
    /// Total segment length in bytes including all headers.
    pub length: u32,
}

/// The audio-specific header (figure 3.1).
///
/// Its sampling-rate, format and compression words each hold one value on
/// the wire: 8 kHz, 8-bit µ-law, uncompressed, the only audio a box plays.
/// The codec writes them and refuses any other, so only the length is
/// carried here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AudioHeader {
    /// Length of the sample data in bytes.
    pub data_length: u32,
}

/// A complete audio segment: header plus µ-law sample blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioSegment {
    /// Common header fields.
    pub common: CommonHeader,
    /// Audio-specific header fields.
    pub audio: AudioHeader,
    /// Sample bytes; a whole number of 16-byte blocks for µ-law.
    pub data: Vec<u8>,
}

impl AudioSegment {
    /// Builds a µ-law audio segment from whole 2 ms blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of blocks.
    pub fn from_blocks(sequence: SequenceNumber, timestamp: Timestamp, data: Vec<u8>) -> Self {
        assert!(
            data.len().is_multiple_of(BLOCK_BYTES),
            "audio data must be whole 16-byte blocks, got {} bytes",
            data.len()
        );
        let length = (AUDIO_FULL_HEADER_BYTES + data.len()) as u32;
        AudioSegment {
            common: CommonHeader {
                version: VERSION_ID,
                sequence,
                timestamp,
                segment_type: SegmentType::Audio,
                length,
            },
            audio: AudioHeader {
                data_length: data.len() as u32,
            },
            data,
        }
    }

    /// Number of whole 2 ms blocks in this segment.
    pub fn block_count(&self) -> usize {
        self.data.len() / BLOCK_BYTES
    }

    /// Iterates over the 16-byte blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(BLOCK_BYTES)
    }

    /// Audio duration covered by this segment, in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.block_count() as u64 * BLOCK_DURATION_NANOS
    }

    /// Total size on the wire.
    pub fn wire_bytes(&self) -> usize {
        AUDIO_FULL_HEADER_BYTES + self.data.len()
    }

    /// Fraction of the wire bytes spent on headers.
    pub fn header_overhead(&self) -> f64 {
        AUDIO_FULL_HEADER_BYTES as f64 / self.wire_bytes() as f64
    }
}

/// The video-specific header (figure 3.2).
///
/// "Video segments do not have to contain a whole frame. A frame can be
/// broken up into a number of rectangular segments, so the segment header
/// contains a count of the number of segments in the frame, the number of
/// this segment within the frame, and enough information to place this
/// segment in the correct position."
///
/// The pixel-format and compression-type words each hold one value on the
/// wire: 8-bit greyscale under per-line DPCM with optional horizontal
/// sub-sampling, the only video a box displays. The codec writes them and
/// refuses any other; the compression arguments still vary per segment
/// ("compression schemes and parameters can be changed from one segment to
/// the next", §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoHeader {
    /// Frame this segment belongs to.
    pub frame_number: u32,
    /// Total segments making up the frame.
    pub segments_in_frame: u32,
    /// This segment's index within the frame (0-based).
    pub segment_number: u32,
    /// Horizontal placement of the rectangle.
    pub x_offset: u32,
    /// Vertical placement of the rectangle.
    pub y_offset: u32,
    /// Variable compression arguments (count is the "Argument length" field).
    pub compression_args: Vec<u32>,
    /// Width of the rectangle in pixels ("x Width").
    pub width: u32,
    /// First line of this segment within the rectangle ("Start Line y").
    pub start_line: u32,
    /// Number of lines in this segment ("# Lines y").
    pub lines: u32,
    /// Length of the (possibly compressed) pixel data in bytes.
    pub data_length: u32,
}

/// A complete video segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoSegment {
    /// Common header fields.
    pub common: CommonHeader,
    /// Video-specific header fields.
    pub video: VideoHeader,
    /// DPCM-compressed pixel data.
    pub data: Vec<u8>,
}

impl VideoSegment {
    /// Builds a video segment, computing the length fields.
    pub fn new(
        sequence: SequenceNumber,
        timestamp: Timestamp,
        mut video: VideoHeader,
        data: Vec<u8>,
    ) -> Self {
        video.data_length = data.len() as u32;
        let length = (COMMON_HEADER_BYTES
            + VIDEO_FIXED_HEADER_BYTES
            + 4 * video.compression_args.len()
            + data.len()) as u32;
        VideoSegment {
            common: CommonHeader {
                version: VERSION_ID,
                sequence,
                timestamp,
                segment_type: SegmentType::Video,
                length,
            },
            video,
            data,
        }
    }

    /// Total size on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.common.length as usize
    }
}

/// An opaque test segment (the `test in`/`test out` handlers of fig. 3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSegment {
    /// Common header fields.
    pub common: CommonHeader,
    /// Arbitrary payload.
    pub data: Vec<u8>,
}

impl TestSegment {
    /// Builds a test segment.
    pub fn new(sequence: SequenceNumber, timestamp: Timestamp, data: Vec<u8>) -> Self {
        TestSegment {
            common: CommonHeader {
                version: VERSION_ID,
                sequence,
                timestamp,
                segment_type: SegmentType::Test,
                length: (COMMON_HEADER_BYTES + data.len()) as u32,
            },
            data,
        }
    }
}

/// Any Pandora segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// An audio segment.
    Audio(AudioSegment),
    /// A video segment.
    Video(VideoSegment),
    /// A test segment.
    Test(TestSegment),
}

impl Segment {
    /// The common header shared by every format.
    pub fn common(&self) -> &CommonHeader {
        match self {
            Segment::Audio(s) => &s.common,
            Segment::Video(s) => &s.common,
            Segment::Test(s) => &s.common,
        }
    }

    /// Mutable access to the common header.
    pub fn common_mut(&mut self) -> &mut CommonHeader {
        match self {
            Segment::Audio(s) => &mut s.common,
            Segment::Video(s) => &mut s.common,
            Segment::Test(s) => &mut s.common,
        }
    }

    /// The segment type.
    pub fn segment_type(&self) -> SegmentType {
        self.common().segment_type
    }

    /// Total size on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Segment::Audio(s) => s.wire_bytes(),
            Segment::Video(s) => s.wire_bytes(),
            Segment::Test(s) => s.common.length as usize,
        }
    }

    /// The payload bytes (sample data, pixel data or opaque test data).
    pub fn payload(&self) -> &[u8] {
        match self {
            Segment::Audio(s) => &s.data,
            Segment::Video(s) => &s.data,
            Segment::Test(s) => &s.data,
        }
    }

    /// Returns the audio segment, if this is one.
    pub fn as_audio(&self) -> Option<&AudioSegment> {
        match self {
            Segment::Audio(s) => Some(s),
            _ => None,
        }
    }
}

/// The headers of a segment, split from its payload bytes.
///
/// This is the unit the zero-copy transport moves around: headers are
/// small and owned, while the payload stays behind a refcounted
/// `SlabRef` (see [`crate::SlabSegment`]). All length bookkeeping
/// (`common.length`, per-format `data_length`) is carried through
/// verbatim, so converting a [`Segment`] to a header and back is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentHeader {
    /// Headers of an audio segment.
    Audio {
        /// Common header fields.
        common: CommonHeader,
        /// Audio-specific header fields.
        audio: AudioHeader,
    },
    /// Headers of a video segment.
    Video {
        /// Common header fields.
        common: CommonHeader,
        /// Video-specific header fields (including compression args).
        video: VideoHeader,
    },
    /// Header of a test segment (common fields only).
    Test {
        /// Common header fields.
        common: CommonHeader,
    },
}

impl SegmentHeader {
    /// Extracts (clones) the headers of a segment.
    pub fn of_segment(segment: &Segment) -> SegmentHeader {
        match segment {
            Segment::Audio(s) => SegmentHeader::Audio {
                common: s.common,
                audio: s.audio,
            },
            Segment::Video(s) => SegmentHeader::Video {
                common: s.common,
                video: s.video.clone(),
            },
            Segment::Test(s) => SegmentHeader::Test { common: s.common },
        }
    }

    /// The common header fields.
    pub fn common(&self) -> &CommonHeader {
        match self {
            SegmentHeader::Audio { common, .. } => common,
            SegmentHeader::Video { common, .. } => common,
            SegmentHeader::Test { common } => common,
        }
    }

    /// Bytes these headers occupy on the wire (before the payload).
    pub fn header_wire_bytes(&self) -> usize {
        match self {
            SegmentHeader::Audio { .. } => AUDIO_FULL_HEADER_BYTES,
            SegmentHeader::Video { video, .. } => {
                COMMON_HEADER_BYTES + VIDEO_FIXED_HEADER_BYTES + 4 * video.compression_args.len()
            }
            SegmentHeader::Test { .. } => COMMON_HEADER_BYTES,
        }
    }

    /// Payload bytes that follow the headers on the wire.
    pub fn payload_wire_bytes(&self) -> usize {
        self.common().length as usize - self.header_wire_bytes()
    }

    /// Total size on the wire, headers plus payload.
    pub fn wire_bytes(&self) -> usize {
        self.common().length as usize
    }

    /// Reattaches a payload, rebuilding the owned [`Segment`].
    ///
    /// All header fields are preserved verbatim; `data` must be the
    /// payload the headers describe (`payload_wire_bytes` long).
    pub fn into_segment(self, data: Vec<u8>) -> Segment {
        match self {
            SegmentHeader::Audio { common, audio } => Segment::Audio(AudioSegment {
                common,
                audio,
                data,
            }),
            SegmentHeader::Video { common, video } => Segment::Video(VideoSegment {
                common,
                video,
                data,
            }),
            SegmentHeader::Test { common } => Segment::Test(TestSegment { common, data }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audio_segment_sizes() {
        let seg =
            AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), vec![0u8; 2 * BLOCK_BYTES]);
        assert_eq!(seg.block_count(), 2);
        assert_eq!(seg.duration_nanos(), 4_000_000);
        // 36-byte header + 32 bytes of data.
        assert_eq!(seg.wire_bytes(), 68);
        assert_eq!(seg.common.length, 68);
    }

    #[test]
    fn repository_segment_is_356_bytes() {
        // §3.2: 40ms segments contain 320 bytes of data plus a 36-byte header.
        let seg = AudioSegment::from_blocks(
            SequenceNumber(0),
            Timestamp(0),
            vec![0u8; REPOSITORY_BLOCKS_PER_SEGMENT * BLOCK_BYTES],
        );
        assert_eq!(seg.data.len(), 320);
        assert_eq!(seg.wire_bytes(), 356);
        assert_eq!(seg.duration_nanos(), 40_000_000);
    }

    #[test]
    #[should_panic(expected = "whole 16-byte blocks")]
    fn partial_block_rejected() {
        let _ = AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), vec![0u8; 17]);
    }

    #[test]
    fn block_iteration() {
        let mut data = vec![0u8; 32];
        data[16] = 7;
        let seg = AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), data);
        let blocks: Vec<&[u8]> = seg.blocks().collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1][0], 7);
    }

    #[test]
    fn header_overhead_shrinks_with_batching() {
        let live = AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), vec![0u8; 32]);
        let repo = AudioSegment::from_blocks(SequenceNumber(0), Timestamp(0), vec![0u8; 320]);
        assert!(live.header_overhead() > 0.5);
        assert!(repo.header_overhead() < 0.11);
    }

    #[test]
    fn video_segment_length_includes_args() {
        let header = VideoHeader {
            frame_number: 1,
            segments_in_frame: 4,
            segment_number: 2,
            x_offset: 10,
            y_offset: 20,
            compression_args: vec![2, 1],
            width: 64,
            start_line: 0,
            lines: 8,
            data_length: 0,
        };
        let seg = VideoSegment::new(SequenceNumber(5), Timestamp(9), header, vec![0u8; 100]);
        assert_eq!(seg.video.data_length, 100);
        assert_eq!(seg.wire_bytes(), 20 + 48 + 8 + 100);
        assert_eq!(seg.common.segment_type, SegmentType::Video);
    }

    #[test]
    fn segment_enum_accessors() {
        let a = Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(1),
            Timestamp(2),
            vec![0u8; 16],
        ));
        assert_eq!(a.segment_type(), SegmentType::Audio);
        assert!(a.as_audio().is_some());
        assert_eq!(a.common().sequence, SequenceNumber(1));
    }

    #[test]
    fn header_split_and_rejoin_is_exact() {
        let header = VideoHeader {
            frame_number: 1,
            segments_in_frame: 4,
            segment_number: 2,
            x_offset: 10,
            y_offset: 20,
            compression_args: vec![2, 1],
            width: 64,
            start_line: 0,
            lines: 8,
            data_length: 0,
        };
        let video = Segment::Video(VideoSegment::new(
            SequenceNumber(5),
            Timestamp(9),
            header,
            vec![7u8; 100],
        ));
        let audio = Segment::Audio(AudioSegment::from_blocks(
            SequenceNumber(1),
            Timestamp(2),
            vec![3u8; 32],
        ));
        let test = Segment::Test(TestSegment::new(
            SequenceNumber(8),
            Timestamp(4),
            vec![1, 2],
        ));
        for seg in [video, audio, test] {
            let split = SegmentHeader::of_segment(&seg);
            assert_eq!(split.wire_bytes(), seg.wire_bytes());
            assert_eq!(
                split.header_wire_bytes() + split.payload_wire_bytes(),
                seg.wire_bytes()
            );
            assert_eq!(split.payload_wire_bytes(), seg.payload().len());
            assert_eq!(split.into_segment(seg.payload().to_vec()), seg);
        }
    }

    #[test]
    fn type_codes_round_trip() {
        for t in [SegmentType::Audio, SegmentType::Video, SegmentType::Test] {
            assert_eq!(SegmentType::from_code(t.code()), Some(t));
        }
        assert_eq!(SegmentType::from_code(99), None);
    }
}
