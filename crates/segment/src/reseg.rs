//! Repository re-segmentation (§3.2).
//!
//! "A major use of this facility is when streams are stored on a
//! repository. As they are no longer live, there is no requirement for low
//! latency, and we would like to reduce the disk space taken up by
//! headers. This is done as a separate operation after the stream has been
//! recorded, by splitting out the 2ms blocks, and merging them to form
//! 40ms long segments containing 320 bytes of data plus a new 36 byte
//! header. These can be played back directly to any Pandora box."

use crate::format::{
    AudioSegment, BLOCK_BYTES, BLOCK_DURATION_NANOS, REPOSITORY_BLOCKS_PER_SEGMENT,
};
use crate::ids::{SequenceNumber, Timestamp};

/// A 2 ms audio block with the timestamp of its first sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedBlock {
    /// Timestamp of the first sample in the block.
    pub timestamp: Timestamp,
    /// The 16 µ-law sample bytes.
    pub data: [u8; BLOCK_BYTES],
}

/// Splits recorded segments into their constituent 2 ms blocks.
///
/// Block timestamps are reconstructed from each segment's timestamp plus
/// the block offset, so merging preserves per-block timing even when the
/// original segments had mixed sizes ("incoming segments of any mixture of
/// sizes are accepted", §3.2).
pub(crate) fn split_blocks<'a>(
    segments: impl IntoIterator<Item = &'a AudioSegment>,
) -> Vec<TimedBlock> {
    let mut out = Vec::new();
    for seg in segments {
        let base = seg.common.timestamp.as_nanos();
        for (i, chunk) in seg.blocks().enumerate() {
            let mut data = [0u8; BLOCK_BYTES];
            data.copy_from_slice(chunk);
            out.push(TimedBlock {
                timestamp: Timestamp::from_nanos(base + i as u64 * BLOCK_DURATION_NANOS),
                data,
            });
        }
    }
    out
}

/// Merges 2 ms blocks into repository-format segments of `blocks_per_segment`
/// blocks (20 = 40 ms for the standard repository format).
///
/// The final segment may be shorter if the block count is not a multiple.
/// Sequence numbers are freshly assigned from `first_seq`; each segment
/// takes the timestamp of its first block.
///
/// # Panics
///
/// Panics if `blocks_per_segment` is zero.
pub(crate) fn merge_blocks(
    blocks: &[TimedBlock],
    blocks_per_segment: usize,
    first_seq: SequenceNumber,
) -> Vec<AudioSegment> {
    assert!(
        blocks_per_segment > 0,
        "blocks_per_segment must be non-zero"
    );
    let mut out = Vec::new();
    let mut seq = first_seq;
    for group in blocks.chunks(blocks_per_segment) {
        let mut data = Vec::with_capacity(group.len() * BLOCK_BYTES);
        for b in group {
            data.extend_from_slice(&b.data);
        }
        out.push(AudioSegment::from_blocks(seq, group[0].timestamp, data));
        seq = seq.next();
    }
    out
}

/// Re-segments live-format recordings into the 40 ms repository format.
pub fn to_repository_format(segments: &[AudioSegment]) -> Vec<AudioSegment> {
    let blocks = split_blocks(segments);
    merge_blocks(&blocks, REPOSITORY_BLOCKS_PER_SEGMENT, SequenceNumber(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_stream(blocks: usize, blocks_per_segment: usize) -> Vec<AudioSegment> {
        // Build a stream whose sample bytes encode their global block index.
        let mut segments = Vec::new();
        let mut block_index = 0u64;
        let mut seq = SequenceNumber(0);
        while block_index < blocks as u64 {
            let n = blocks_per_segment.min(blocks - block_index as usize);
            let mut data = Vec::new();
            for b in 0..n {
                data.extend(std::iter::repeat_n(
                    (block_index as usize + b) as u8,
                    BLOCK_BYTES,
                ));
            }
            segments.push(AudioSegment::from_blocks(
                seq,
                Timestamp::from_nanos(block_index * BLOCK_DURATION_NANOS),
                data,
            ));
            block_index += n as u64;
            seq = seq.next();
        }
        segments
    }

    #[test]
    fn split_preserves_order_and_timestamps() {
        let segs = live_stream(6, 2);
        let blocks = split_blocks(&segs);
        assert_eq!(blocks.len(), 6);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.data[0] as usize, i);
            // Timestamps are quantised to the 64us resolution of the format.
            assert_eq!(
                b.timestamp,
                Timestamp::from_nanos(i as u64 * BLOCK_DURATION_NANOS)
            );
        }
    }

    #[test]
    fn merge_produces_40ms_segments() {
        let segs = live_stream(40, 2);
        let repo = to_repository_format(&segs);
        assert_eq!(repo.len(), 2);
        for seg in &repo {
            assert_eq!(seg.block_count(), 20);
            assert_eq!(seg.wire_bytes(), 356);
        }
        assert_eq!(
            repo[1].common.timestamp.as_nanos(),
            20 * BLOCK_DURATION_NANOS
        );
    }

    #[test]
    fn resegmentation_preserves_every_sample() {
        let segs = live_stream(45, 2); // Not a multiple of 20.
        let repo = to_repository_format(&segs);
        let original: Vec<u8> = segs.iter().flat_map(|s| s.data.clone()).collect();
        let resegmented: Vec<u8> = repo.iter().flat_map(|s| s.data.clone()).collect();
        assert_eq!(original, resegmented);
        assert_eq!(repo.last().unwrap().block_count(), 5);
    }

    #[test]
    fn mixed_segment_sizes_accepted() {
        let mut segs = live_stream(4, 1);
        segs.extend(live_stream(12, 12).into_iter().map(|mut s| {
            // Shift timestamps after the first 4 blocks.
            s.common.timestamp =
                Timestamp::from_nanos(4 * BLOCK_DURATION_NANOS + s.common.timestamp.as_nanos());
            s
        }));
        let blocks = split_blocks(&segs);
        assert_eq!(blocks.len(), 16);
        // Timestamps increase by 2ms up to the 64us quantisation (31 or 32
        // timestamp units).
        for w in blocks.windows(2) {
            let d = w[1].timestamp.0 - w[0].timestamp.0;
            assert!((31..=32).contains(&d), "delta {d} units");
        }
    }

    #[test]
    fn header_overhead_reduction() {
        // E14: live 2-block format has 36/68 = 53% overhead; repository
        // format has 36/356 = 10%.
        let live = live_stream(40, 2);
        let repo = to_repository_format(&live);
        let wire_bytes = |segs: &[AudioSegment]| segs.iter().map(|s| s.wire_bytes()).sum::<usize>();
        let (live_bytes, repo_bytes) = (wire_bytes(&live), wire_bytes(&repo));
        assert_eq!(live_bytes, 20 * 68);
        assert_eq!(repo_bytes, 2 * 356);
        let saving = 1.0 - repo_bytes as f64 / live_bytes as f64;
        assert!(saving > 0.45, "saving = {saving}");
    }

    #[test]
    fn merged_sequence_numbers_are_fresh_and_contiguous() {
        let repo = to_repository_format(&live_stream(60, 2));
        let seqs: Vec<u32> = repo.iter().map(|s| s.common.sequence.0).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_blocks_per_segment_panics() {
        let _ = merge_blocks(&[], 0, SequenceNumber(0));
    }
}
