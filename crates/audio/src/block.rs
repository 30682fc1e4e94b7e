//! 2 ms audio blocks and their grouping into segments.
//!
//! §3.2: audio "is handled in blocks of 16 samples, representing 2ms of
//! audio. For the purposes of transmission outside the audio board, a
//! number of these blocks are grouped together with a header to form a
//! pandora segment. ... The number of blocks in each outgoing segment can
//! be varied. We usually run with 2 blocks per segment (principle 7), but
//! can alter this dynamically if the recipient cannot handle the arrival
//! rate (perhaps using 12 blocks = 24ms) or if we want a particularly low
//! latency (1 block = 2ms)."

use pandora_segment::{AudioSegment, SequenceNumber, Timestamp, BLOCK_BYTES};

/// One 2 ms block of 16 µ-law samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block(pub [u8; BLOCK_BYTES]);

impl Block {
    /// A block of µ-law silence.
    pub const SILENCE: Block = Block([crate::mulaw::SILENCE; BLOCK_BYTES]);

    /// Builds a block from a 16-byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly 16 bytes.
    pub fn from_slice(bytes: &[u8]) -> Block {
        let mut b = [0u8; BLOCK_BYTES];
        b.copy_from_slice(bytes);
        Block(b)
    }

    /// Peak linear magnitude of the samples in this block.
    pub fn peak(&self) -> i32 {
        self.0
            .iter()
            .map(|&b| crate::mulaw::decode(b).abs())
            .max()
            .unwrap_or(0)
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::SILENCE
    }
}

/// Groups blocks into outgoing segments with sequence numbers and source
/// timestamps — the block handler's "server writer" feed (§3.5).
///
/// "When sufficient 2ms blocks have accumulated to justify the overhead of
/// a Pandora segment header, the server writer process is ordered by the
/// block handler to transmit them."
#[derive(Debug)]
pub struct SegmentAssembler {
    blocks_per_segment: usize,
    pending: Vec<u8>,
    pending_timestamp: Timestamp,
    next_seq: SequenceNumber,
}

impl SegmentAssembler {
    /// Creates an assembler emitting `blocks_per_segment` blocks per segment.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_segment` is zero.
    pub fn new(blocks_per_segment: usize) -> Self {
        assert!(
            blocks_per_segment > 0,
            "blocks_per_segment must be non-zero"
        );
        SegmentAssembler {
            blocks_per_segment,
            pending: Vec::new(),
            pending_timestamp: Timestamp(0),
            next_seq: SequenceNumber(0),
        }
    }

    /// Current grouping factor.
    pub fn blocks_per_segment(&self) -> usize {
        self.blocks_per_segment
    }

    /// Number of blocks accumulated toward the next segment.
    pub fn pending_blocks(&self) -> usize {
        self.pending.len() / BLOCK_BYTES
    }

    /// Adds one block captured at `timestamp` (the time of its first
    /// sample); returns a segment when the group is complete.
    pub fn push(&mut self, block: Block, timestamp: Timestamp) -> Option<AudioSegment> {
        if self.pending.is_empty() {
            self.pending_timestamp = timestamp;
        }
        self.pending.extend_from_slice(&block.0);
        if self.pending_blocks() >= self.blocks_per_segment {
            Some(self.flush().expect("pending is non-empty"))
        } else {
            None
        }
    }

    /// Emits a segment from whatever blocks are pending, if any.
    pub fn flush(&mut self) -> Option<AudioSegment> {
        if self.pending.is_empty() {
            return None;
        }
        let data = std::mem::take(&mut self.pending);
        let seg = AudioSegment::from_blocks(self.next_seq, self.pending_timestamp, data);
        self.next_seq = self.next_seq.next();
        Some(seg)
    }
}

/// Splits an incoming segment into blocks for the clawback/mixing path.
///
/// "Incoming segments of any mixture of sizes are accepted" (§3.2).
pub fn segment_blocks(segment: &AudioSegment) -> Vec<Block> {
    segment.blocks().map(Block::from_slice).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_segment::BLOCK_DURATION_NANOS;

    fn ts(block_index: u64) -> Timestamp {
        Timestamp::from_nanos(block_index * BLOCK_DURATION_NANOS)
    }

    #[test]
    fn default_two_block_grouping() {
        let mut asm = SegmentAssembler::new(2);
        assert!(asm.push(Block::SILENCE, ts(0)).is_none());
        let seg = asm
            .push(Block::SILENCE, ts(1))
            .expect("second block completes segment");
        assert_eq!(seg.block_count(), 2);
        assert_eq!(seg.common.sequence, SequenceNumber(0));
        assert_eq!(seg.common.timestamp, ts(0));
        assert_eq!(seg.wire_bytes(), 68);
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut asm = SegmentAssembler::new(1);
        let a = asm.push(Block::SILENCE, ts(0)).unwrap();
        let b = asm.push(Block::SILENCE, ts(1)).unwrap();
        assert_eq!(a.common.sequence, SequenceNumber(0));
        assert_eq!(b.common.sequence, SequenceNumber(1));
    }

    #[test]
    fn twelve_block_grouping_is_24ms() {
        let mut asm = SegmentAssembler::new(12);
        for i in 0..11 {
            assert!(asm.push(Block::SILENCE, ts(i)).is_none());
        }
        let seg = asm.push(Block::SILENCE, ts(11)).unwrap();
        assert_eq!(seg.duration_nanos(), 24_000_000);
    }

    #[test]
    fn flush_emits_partial() {
        let mut asm = SegmentAssembler::new(12);
        asm.push(Block::SILENCE, ts(0));
        asm.push(Block::SILENCE, ts(1));
        let seg = asm.flush().unwrap();
        assert_eq!(seg.block_count(), 2);
        assert!(asm.flush().is_none());
    }

    #[test]
    fn timestamp_is_first_block_of_group() {
        let mut asm = SegmentAssembler::new(2);
        asm.push(Block::SILENCE, ts(4));
        let seg = asm.push(Block::SILENCE, ts(5)).unwrap();
        assert_eq!(seg.common.timestamp, ts(4));
    }

    #[test]
    fn segment_blocks_round_trip() {
        let mut asm = SegmentAssembler::new(3);
        let mut blocks = Vec::new();
        let mut seg = None;
        for i in 0..3u8 {
            let b = Block([i; BLOCK_BYTES]);
            blocks.push(b);
            seg = asm.push(b, ts(i as u64));
        }
        let seg = seg.expect("third push completes the segment");
        assert_eq!(segment_blocks(&seg), blocks);
    }

    #[test]
    fn block_peak() {
        assert_eq!(Block::SILENCE.peak(), 0);
        let loud = Block([crate::mulaw::encode(20_000); BLOCK_BYTES]);
        assert!(loud.peak() > 18_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_group_rejected() {
        let _ = SegmentAssembler::new(0);
    }
}
