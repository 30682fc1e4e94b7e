//! # pandora-segment — Pandora segment formats
//!
//! "Stream implementation is based on self-contained segments of data
//! containing information for delivery, synchronisation and error
//! recovery" (paper abstract). This crate implements the exact segment
//! layouts of figures 3.1 (audio) and 3.2 (video):
//!
//! * [`CommonHeader`] — the five 32-bit fields shared by all segments
//!   (version, sequence number, 64 µs timestamp, type, length);
//! * [`AudioSegment`] — 16-sample / 2 ms µ-law blocks grouped per segment
//!   (2 by default, 1 for low latency, 12 for slow receivers, 20 for the
//!   repository format);
//! * [`VideoSegment`] — rectangular frame pieces with placement geometry
//!   and variable-length compression arguments;
//! * [`wire`] — big-endian wire codec, with the in-box stream-number tag;
//! * [`SlabSegment`] — the zero-copy form: owned headers plus a
//!   refcounted slab slice for the payload (§3.4's two-copy discipline);
//! * [`SeqTracker`] — sequence-number loss detection (§3.8);
//! * [`reseg`] — the repository's 2 ms-block → 40 ms-segment rewriter.

#![deny(missing_docs)]

mod format;
mod ids;
pub mod reseg;
mod slabseg;
pub mod wire;

pub use format::{
    AudioHeader, AudioSegment, CommonHeader, Segment, SegmentHeader, SegmentType, TestSegment,
    VideoHeader, VideoSegment, AUDIO_FULL_HEADER_BYTES, AUDIO_HEADER_BYTES, AUDIO_SAMPLE_RATE,
    BLOCK_BYTES, BLOCK_DURATION_NANOS, COMMON_HEADER_BYTES, DEFAULT_BLOCKS_PER_SEGMENT,
    REPOSITORY_BLOCKS_PER_SEGMENT, SAMPLES_PER_BLOCK, VERSION_ID, VIDEO_FIXED_HEADER_BYTES,
};
pub use ids::{SeqEvent, SeqTracker, SequenceNumber, StreamId, Timestamp};
pub use slabseg::SlabSegment;
pub use wire::{SegmentView, WireError};
