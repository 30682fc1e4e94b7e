//! The slice protocol through the compression pipeline (§3.6).
//!
//! "Each segment of video data is reduced further into several slices of a
//! few lines each for transmission through the compression subsystem.
//! After each slice has been written to the fifo, a small description …
//! is sent over a link to the server transputer. … The slice descriptions
//! on the link can be considered to be a model of the data that is in
//! transit through the fifo's and compression hardware."
//!
//! Because the compression silicon "is pipelined and does not drain
//! automatically", dummy lines are appended after each segment to flush
//! it, and one link buffer is special: it "always holds back one slice
//! description at all times, with any tail or head descriptions that
//! follow, until another slice description is read" — so the description
//! stream never runs ahead of the data that is still stuck in the
//! pipeline.

/// A description travelling on the link alongside the FIFO data (§3.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceDesc<H> {
    /// "A header slice description precedes the first slice of a segment
    /// to describe what compression algorithm has been selected, what
    /// stream number the segment is for, and contains the full segment
    /// header."
    Head(H),
    /// An ordinary slice: `lines` lines whose compressed length is
    /// `bytes` ("the number of lines and their length after compression").
    Slice {
        /// Lines in this slice.
        lines: u32,
        /// Compressed byte count of the slice in the FIFO.
        bytes: u32,
    },
    /// "When the last slice has been sent, a tail marker is sent over the
    /// link."
    Tail,
}

/// The special link buffer: holds back the most recent slice description
/// (plus any tail/head descriptions behind it) until the next slice
/// description arrives.
#[derive(Debug)]
pub struct HoldbackBuffer<H> {
    held: Vec<SliceDesc<H>>,
}

impl<H> Default for HoldbackBuffer<H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<H> HoldbackBuffer<H> {
    /// Creates an empty hold-back buffer.
    pub fn new() -> Self {
        HoldbackBuffer { held: Vec::new() }
    }

    /// Pushes a description; returns whatever is released downstream.
    ///
    /// A new `Slice` releases everything currently held (its data has
    /// pushed the held slice's data out of the pipeline) and is itself
    /// held. `Head`/`Tail` descriptions queue behind the held slice.
    pub fn push(&mut self, desc: SliceDesc<H>) -> Vec<SliceDesc<H>> {
        match desc {
            SliceDesc::Slice { .. } => {
                let released = std::mem::take(&mut self.held);
                self.held.push(desc);
                released
            }
            other => {
                if self.held.is_empty() {
                    // Nothing in the pipeline: pass straight through.
                    vec![other]
                } else {
                    self.held.push(other);
                    Vec::new()
                }
            }
        }
    }

    /// Descriptions currently held back.
    pub fn held(&self) -> &[SliceDesc<H>] {
        &self.held
    }
}

/// The pipelined compression engine model: always retains the last slice
/// of data written until more data pushes it through.
#[derive(Debug)]
pub struct CompressionPipeline {
    resident: Option<Vec<u8>>,
    /// Total bytes that have passed completely through.
    emitted: u64,
}

impl Default for CompressionPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionPipeline {
    /// Creates an empty (drained) pipeline.
    pub fn new() -> Self {
        CompressionPipeline {
            resident: None,
            emitted: 0,
        }
    }

    /// Writes a slice of data; returns the slice that this write pushed
    /// out of the pipeline, if any.
    pub fn write(&mut self, data: Vec<u8>) -> Option<Vec<u8>> {
        let out = self.resident.replace(data);
        if let Some(o) = &out {
            self.emitted += o.len() as u64;
        }
        out
    }

    /// Bytes fully emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Number of dummy flush lines appended after each video segment ("we send
/// a few dummy lines after each video segment" to flush the last slice).
pub const DUMMY_FLUSH_LINES: u32 = 2;

/// Splits a compressed segment payload (a sequence of per-line records)
/// into slices of at most `lines_per_slice` lines, returning
/// `(lines, data)` pairs. The per-line record length is discovered from
/// the 1-byte header via `line_len`.
pub fn slice_segment(
    payload: &[u8],
    total_lines: u32,
    lines_per_slice: u32,
    line_len: impl Fn(&[u8]) -> Option<usize>,
) -> Option<Vec<(u32, Vec<u8>)>> {
    assert!(lines_per_slice > 0, "lines_per_slice must be non-zero");
    let mut slices = Vec::new();
    let mut off = 0usize;
    let mut lines_left = total_lines;
    while lines_left > 0 {
        let lines = lines_per_slice.min(lines_left);
        let start = off;
        for _ in 0..lines {
            let len = line_len(&payload[off..])?;
            off += len;
            if off > payload.len() {
                return None;
            }
        }
        slices.push((lines, payload[start..off].to_vec()));
        lines_left -= lines;
    }
    if off != payload.len() {
        return None;
    }
    Some(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Desc = SliceDesc<&'static str>;

    fn slice(lines: u32, bytes: u32) -> Desc {
        SliceDesc::Slice { lines, bytes }
    }

    #[test]
    fn head_passes_through_empty_buffer() {
        let mut hb = HoldbackBuffer::new();
        assert_eq!(
            hb.push(SliceDesc::Head("seg1")),
            vec![SliceDesc::Head("seg1")]
        );
    }

    #[test]
    fn first_slice_is_held() {
        let mut hb = HoldbackBuffer::<&'static str>::new();
        assert!(hb.push(slice(4, 100)).is_empty());
        assert_eq!(hb.held().len(), 1);
    }

    #[test]
    fn next_slice_releases_previous() {
        let mut hb = HoldbackBuffer::<&'static str>::new();
        hb.push(slice(4, 100));
        let released = hb.push(slice(4, 90));
        assert_eq!(released, vec![slice(4, 100)]);
        assert_eq!(hb.held(), &[slice(4, 90)]);
    }

    #[test]
    fn tail_queues_behind_held_slice() {
        // End of segment: the last slice is in the pipeline, its tail (and
        // the next segment's head) must not overtake it.
        let mut hb = HoldbackBuffer::new();
        hb.push(slice(4, 100));
        assert!(hb.push(Desc::Tail).is_empty());
        assert!(hb.push(SliceDesc::Head("seg2")).is_empty());
        assert_eq!(hb.held().len(), 3);
        // The dummy-flush slice of the next segment releases all three in
        // order.
        let released = hb.push(slice(2, 40));
        assert_eq!(
            released,
            vec![slice(4, 100), Desc::Tail, SliceDesc::Head("seg2")]
        );
    }

    #[test]
    fn pipeline_retains_last_slice() {
        let mut p = CompressionPipeline::new();
        assert_eq!(p.write(vec![1, 2, 3]), None);
        assert_eq!(p.resident, Some(vec![1, 2, 3]));
        assert_eq!(p.write(vec![4, 5]), Some(vec![1, 2, 3]));
        assert_eq!(p.resident, Some(vec![4, 5]));
        assert_eq!(p.emitted(), 3);
    }

    #[test]
    fn dummy_lines_flush_pipeline() {
        let mut p = CompressionPipeline::new();
        p.write(vec![9; 100]); // Real final slice.
        let flushed = p.write(vec![0; 10]); // Dummy flush lines.
        assert_eq!(flushed, Some(vec![9; 100]));
        // The dummies are now resident — harmless until the next segment.
        assert_eq!(p.resident, Some(vec![0; 10]));
    }

    #[test]
    fn slice_segment_partitions_lines() {
        // 3 lines of raw mode: header 0x00 + 4 pixels each.
        let line_len = |d: &[u8]| {
            crate::dpcm::LineMode::from_header(*d.first()?)?;
            Some(1 + 4)
        };
        let mut payload = Vec::new();
        for i in 0..3u8 {
            payload.push(0x00);
            payload.extend([i; 4]);
        }
        let slices = slice_segment(&payload, 3, 2, line_len).unwrap();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].0, 2);
        assert_eq!(slices[0].1.len(), 10);
        assert_eq!(slices[1].0, 1);
        assert_eq!(slices[1].1.len(), 5);
    }

    #[test]
    fn slice_segment_rejects_corrupt_payload() {
        let line_len = |_: &[u8]| Some(100usize); // Overruns immediately.
        assert_eq!(slice_segment(&[0u8; 10], 2, 1, line_len), None);
    }

    #[test]
    fn several_slices_in_transit() {
        // The buffer chain allows concurrency: only the *last* slice is
        // held, earlier ones flow on immediately.
        let mut hb = HoldbackBuffer::<&'static str>::new();
        let mut delivered = 0;
        for i in 0..10u32 {
            delivered += hb.push(slice(4, 100 + i)).len();
        }
        assert_eq!(delivered, 9);
        assert_eq!(hb.held().len(), 1);
    }
}
