//! Loss concealment (§3.8).
//!
//! "When audio samples have to be inserted, occasionally repeating the
//! last byte sample is again virtually undetectable. Replaying the last
//! 2ms block occasionally is perfectly acceptable for speech, and
//! replaying 2ms blocks frequently gives a garbled effect. We replay the
//! last 2ms block, and try to ensure that it does not happen frequently."

use crate::block::Block;

/// Policy for filling a missing 2 ms block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Concealment {
    /// Insert µ-law silence ("equivalent to inserting 2ms of zero
    /// amplitude samples", §3.7.2).
    Zero,
    /// Replay the last delivered block (Pandora's choice, §3.8).
    RepeatLast,
}

/// Per-stream concealment state.
#[derive(Debug, Clone)]
pub struct Concealer {
    policy: Concealment,
    last: Block,
    delivered: u64,
    concealed: u64,
}

impl Concealer {
    /// Creates a concealer with the given policy.
    pub fn new(policy: Concealment) -> Self {
        Concealer {
            policy,
            last: Block::SILENCE,
            delivered: 0,
            concealed: 0,
        }
    }

    /// Passes a real block through, remembering it for future gaps.
    pub fn deliver(&mut self, block: Block) -> Block {
        self.last = block;
        self.delivered += 1;
        block
    }

    /// Produces a substitute for a missing block.
    pub fn conceal(&mut self) -> Block {
        self.concealed += 1;
        match self.policy {
            Concealment::Zero => Block::SILENCE,
            Concealment::RepeatLast => self.last,
        }
    }

    /// Blocks delivered unmodified.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Blocks synthesised to cover gaps.
    pub fn concealed(&self) -> u64 {
        self.concealed
    }
}

/// Applies a deterministic periodic drop pattern to a block stream and
/// conceals the gaps — the workload of experiment E9.
///
/// Every `period`-th block (1-based) is treated as lost. Returns the
/// reconstructed stream, the concealer statistics, and keeps lengths equal
/// to the input.
pub fn drop_and_conceal(
    blocks: &[Block],
    period: usize,
    policy: Concealment,
) -> (Vec<Block>, Concealer) {
    assert!(period > 0, "drop period must be non-zero");
    let mut c = Concealer::new(policy);
    let mut out = Vec::with_capacity(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        if (i + 1) % period == 0 {
            out.push(c.conceal());
        } else {
            out.push(c.deliver(*b));
        }
    }
    (out, c)
}

/// Drops individual *samples* (not whole blocks) with the given 1-based
/// period, repairing each by repeating the previous sample — the paper's
/// "single byte samples dropped occasionally" case.
pub fn drop_samples_repeat_last(samples: &[u8], period: usize) -> Vec<u8> {
    assert!(period > 0, "drop period must be non-zero");
    let mut out = Vec::with_capacity(samples.len());
    let mut last = crate::mulaw::SILENCE;
    for (i, &s) in samples.iter().enumerate() {
        if (i + 1) % period == 0 {
            out.push(last);
        } else {
            out.push(s);
            last = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_segment::BLOCK_BYTES;

    fn marked(i: u8) -> Block {
        Block([i; BLOCK_BYTES])
    }

    #[test]
    fn zero_policy_inserts_silence() {
        let mut c = Concealer::new(Concealment::Zero);
        c.deliver(marked(1));
        assert_eq!(c.conceal(), Block::SILENCE);
    }

    #[test]
    fn repeat_policy_replays_last_block() {
        let mut c = Concealer::new(Concealment::RepeatLast);
        c.deliver(marked(1));
        c.deliver(marked(2));
        assert_eq!(c.conceal(), marked(2));
        // A later delivery updates the replay source.
        c.deliver(marked(3));
        assert_eq!(c.conceal(), marked(3));
    }

    #[test]
    fn repeat_before_any_delivery_is_silence() {
        let mut c = Concealer::new(Concealment::RepeatLast);
        assert_eq!(c.conceal(), Block::SILENCE);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Concealer::new(Concealment::RepeatLast);
        for i in 0..9 {
            c.deliver(marked(i));
        }
        c.conceal();
        assert_eq!(c.delivered(), 9);
        assert_eq!(c.concealed(), 1);
    }

    #[test]
    fn drop_and_conceal_preserves_length() {
        let blocks: Vec<Block> = (0..100).map(|i| marked(i as u8)).collect();
        let (out, c) = drop_and_conceal(&blocks, 10, Concealment::RepeatLast);
        assert_eq!(out.len(), 100);
        assert_eq!(c.concealed(), 10);
        // Block 9 (index) was dropped and replaced by block 8's contents.
        assert_eq!(out[9], marked(8));
        assert_eq!(out[10], marked(10));
    }

    #[test]
    fn sample_drop_repeats_previous() {
        let samples: Vec<u8> = (0..10).collect();
        let out = drop_samples_repeat_last(&samples, 5);
        // Samples at 1-based positions 5 and 10 replaced by predecessors.
        assert_eq!(out, vec![0, 1, 2, 3, 3, 5, 6, 7, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let _ = drop_and_conceal(&[], 0, Concealment::Zero);
    }
}
