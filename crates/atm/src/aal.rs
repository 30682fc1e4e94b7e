//! Segmentation and reassembly of Pandora segments into cells.
//!
//! Pandora used the protocols of [McAuley90] over its ATM network; the
//! behavioural essentials reproduced here are: frames travel as cell
//! bursts on a VCI, the final cell is marked, and a lost cell discards the
//! whole frame at reassembly (detected by the per-VCI cell counter) —
//! Pandora's §3.8 rule "if an error occurs … the general rule is that the
//! current segment is thrown away" then applies, with recovery by segment
//! sequence number.

use std::collections::BTreeMap;

use pandora_slab::{ByteSlab, SlabRef, SlabWriter};

use crate::cell::{Cell, Vci, CELL_PAYLOAD};

/// Splits a frame (an encoded Pandora segment) into cells on `vci`,
/// continuing the per-VCI counter from `first_seq`.
pub fn segment_to_cells(vci: Vci, frame: &[u8], first_seq: u32) -> Vec<Cell> {
    cells_gather(vci, frame, &[], first_seq)
}

/// Splits a logically contiguous frame given as `header ++ payload` into
/// cells on `vci` — the scatter-gather TX path.
///
/// The two regions never need to be joined in memory: each cell is
/// filled from whichever region(s) its 48-byte window covers, so a
/// segment goes from its slab straight into cells with no intermediate
/// wire image. `segment_to_cells(vci, frame, s)` is exactly
/// `cells_gather(vci, frame, &[], s)`, and the produced cell sequence is
/// byte-identical either way.
pub fn cells_gather(vci: Vci, header: &[u8], payload: &[u8], first_seq: u32) -> Vec<Cell> {
    let total = header.len() + payload.len();
    if total == 0 {
        return vec![Cell::new(vci, first_seq, true, &[])];
    }
    let n = total.div_ceil(CELL_PAYLOAD);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let start = i * CELL_PAYLOAD;
        let take = CELL_PAYLOAD.min(total - start);
        let mut buf = [0u8; CELL_PAYLOAD];
        let mut filled = 0;
        if start < header.len() {
            let h = &header[start..header.len().min(start + take)];
            buf[..h.len()].copy_from_slice(h);
            filled = h.len();
        }
        if filled < take {
            let poff = (start + filled) - header.len();
            buf[filled..take].copy_from_slice(&payload[poff..poff + (take - filled)]);
        }
        out.push(Cell {
            vci,
            seq: first_seq.wrapping_add(i as u32),
            last: i == n - 1,
            payload: buf,
            payload_len: take as u8,
        });
    }
    out
}

/// Per-VCI reassembly state.
#[derive(Debug, Default)]
struct VciState {
    buf: Vec<u8>,
    next_seq: Option<u32>,
    corrupt: bool,
}

/// Largest frame a [`Reassembler`] buffers: a box's default slab region
/// (`BoxConfig::standard().slab_bytes`), so it refuses the frames a box's
/// [`SlabReassembler`] refuses.
const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Reassembles cell streams back into frames, discarding whole any frame
/// with a missing cell or more than 64 KiB of payload.
#[derive(Debug, Default)]
pub struct Reassembler {
    circuits: BTreeMap<Vci, VciState>,
    frames_ok: u64,
    frames_discarded: u64,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one arriving cell; returns a completed frame when the marked
    /// last cell of an intact frame arrives.
    pub fn push(&mut self, cell: Cell) -> Option<(Vci, Vec<u8>)> {
        let st = self.circuits.entry(cell.vci).or_default();
        if let Some(expected) = st.next_seq {
            if cell.seq != expected {
                // A cell went missing: poison the in-progress frame.
                st.corrupt = true;
            }
        }
        st.next_seq = Some(cell.seq.wrapping_add(1));
        if st.buf.len() + cell.data().len() > MAX_FRAME_BYTES {
            st.corrupt = true;
        }
        if st.corrupt {
            // A poisoned frame is never delivered: stop buffering it, or a
            // stream whose last-marked cell never comes grows without bound.
            st.buf.clear();
        } else {
            st.buf.extend_from_slice(cell.data());
        }
        if cell.last {
            let frame = std::mem::take(&mut st.buf);
            let corrupt = std::mem::take(&mut st.corrupt);
            if corrupt {
                self.frames_discarded += 1;
                None
            } else {
                self.frames_ok += 1;
                Some((cell.vci, frame))
            }
        } else {
            None
        }
    }

    /// Frames delivered intact.
    pub fn frames_ok(&self) -> u64 {
        self.frames_ok
    }

    /// Frames discarded due to cell loss.
    pub fn frames_discarded(&self) -> u64 {
        self.frames_discarded
    }

    /// Circuits currently known.
    pub fn circuits(&self) -> usize {
        self.circuits.len()
    }
}

/// Per-VCI slab reassembly state.
#[derive(Debug, Default)]
struct SlabVciState {
    writer: Option<SlabWriter>,
    next_seq: Option<u32>,
    corrupt: bool,
}

/// Reassembles cell streams directly into slab regions — the zero-copy
/// RX path.
///
/// Where [`Reassembler`] accumulates into a per-VCI `Vec<u8>` that the
/// caller then copies again, this variant appends each arriving cell
/// straight into a [`SlabWriter`] region (the frame's *one* input copy)
/// and hands the completed frame back as a refcounted [`SlabRef`].
/// Frames with a missing cell, frames larger than one slab region, and
/// frames that arrive while the slab is exhausted are discarded whole,
/// per the §3.8 rule.
#[derive(Debug)]
pub struct SlabReassembler {
    slab: ByteSlab,
    circuits: BTreeMap<Vci, SlabVciState>,
    frames_ok: u64,
    frames_discarded: u64,
    alloc_failures: u64,
}

impl SlabReassembler {
    /// Creates a reassembler that allocates frame regions from `slab`.
    pub fn new(slab: ByteSlab) -> Self {
        SlabReassembler {
            slab,
            circuits: BTreeMap::new(),
            frames_ok: 0,
            frames_discarded: 0,
            alloc_failures: 0,
        }
    }

    /// Feeds one arriving cell; returns the completed frame, in place in
    /// its slab region, when the marked last cell of an intact frame
    /// arrives.
    pub fn push(&mut self, cell: Cell) -> Option<(Vci, SlabRef)> {
        let st = self.circuits.entry(cell.vci).or_default();
        if let Some(expected) = st.next_seq {
            if cell.seq != expected {
                // A cell went missing: poison the in-progress frame and
                // free its half-built region immediately.
                st.corrupt = true;
                st.writer = None;
            }
        }
        st.next_seq = Some(cell.seq.wrapping_add(1));
        if !st.corrupt {
            if st.writer.is_none() {
                match self.slab.try_writer() {
                    Ok(w) => st.writer = Some(w),
                    Err(_) => {
                        self.alloc_failures += 1;
                        st.corrupt = true;
                    }
                }
            }
            if let Some(w) = st.writer.as_mut() {
                if w.append(cell.data()).is_err() {
                    // Frame larger than one slab region: discard whole.
                    st.corrupt = true;
                    st.writer = None;
                }
            }
        }
        if cell.last {
            let writer = st.writer.take();
            let corrupt = std::mem::take(&mut st.corrupt);
            match (corrupt, writer) {
                (false, Some(w)) => {
                    self.frames_ok += 1;
                    Some((cell.vci, w.freeze()))
                }
                _ => {
                    self.frames_discarded += 1;
                    None
                }
            }
        } else {
            None
        }
    }

    /// Frames delivered intact.
    pub fn frames_ok(&self) -> u64 {
        self.frames_ok
    }

    /// Frames discarded due to cell loss or slab pressure.
    pub fn frames_discarded(&self) -> u64 {
        self.frames_discarded
    }

    /// Frames lost because no slab region was free (or one overflowed).
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Circuits currently known.
    pub fn circuits(&self) -> usize {
        self.circuits.len()
    }

    /// The slab frames are reassembled into.
    pub fn slab(&self) -> &ByteSlab {
        &self.slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_frame() {
        let cells = segment_to_cells(Vci(1), &[1, 2, 3], 0);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].last);
        let mut r = Reassembler::new();
        assert_eq!(r.push(cells[0].clone()), Some((Vci(1), vec![1, 2, 3])));
    }

    #[test]
    fn multi_cell_round_trip() {
        let frame: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let cells = segment_to_cells(Vci(9), &frame, 100);
        assert_eq!(cells.len(), 5); // ceil(200/48).
        assert!(cells[4].last);
        assert!(!cells[3].last);
        let mut r = Reassembler::new();
        let mut out = None;
        for c in cells {
            out = out.or(r.push(c));
        }
        assert_eq!(out, Some((Vci(9), frame)));
        assert_eq!(r.frames_ok(), 1);
    }

    #[test]
    fn empty_frame_is_one_empty_cell() {
        let cells = segment_to_cells(Vci(2), &[], 0);
        assert_eq!(cells.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(r.push(cells[0].clone()), Some((Vci(2), vec![])));
    }

    #[test]
    fn lost_cell_discards_frame() {
        let frame = vec![7u8; 150];
        let mut cells = segment_to_cells(Vci(3), &frame, 0);
        cells.remove(1); // Lose the middle cell.
        let mut r = Reassembler::new();
        let mut out = None;
        for c in cells {
            out = out.or(r.push(c));
        }
        assert_eq!(out, None);
        assert_eq!(r.frames_discarded(), 1);
        // The next intact frame still gets through (the counter resumed).
        let next = segment_to_cells(Vci(3), &[1, 2], 4);
        let mut got = None;
        for c in next {
            got = got.or(r.push(c));
        }
        assert_eq!(got, Some((Vci(3), vec![1, 2])));
    }

    #[test]
    fn poisoned_frame_buffers_nothing_more() {
        let mut r = Reassembler::new();
        r.push(Cell::new(Vci(1), 0, false, &[1u8; 48]));
        // A gap, then a long unmarked run: none of it is kept.
        for seq in 2..1_000 {
            r.push(Cell::new(Vci(1), seq, false, &[2u8; 48]));
            assert!(r.circuits[&Vci(1)].buf.is_empty());
        }
    }

    #[test]
    fn interleaved_vcis_reassemble_independently() {
        let fa = vec![1u8; 100];
        let fb = vec![2u8; 100];
        let ca = segment_to_cells(Vci(1), &fa, 0);
        let cb = segment_to_cells(Vci(2), &fb, 0);
        let mut r = Reassembler::new();
        let mut done = Vec::new();
        // Interleave cell by cell.
        for (a, b) in ca.into_iter().zip(cb) {
            if let Some(f) = r.push(a) {
                done.push(f);
            }
            if let Some(f) = r.push(b) {
                done.push(f);
            }
        }
        assert_eq!(done, vec![(Vci(1), fa), (Vci(2), fb)]);
        assert_eq!(r.circuits(), 2);
    }

    #[test]
    fn gather_matches_contiguous_split() {
        let header: Vec<u8> = (0u8..36).collect();
        let payload: Vec<u8> = (0u8..200).map(|i| i.wrapping_mul(3)).collect();
        let mut joined = header.clone();
        joined.extend_from_slice(&payload);
        for split in [0, 1, 36, 47, 48, 49, joined.len()] {
            let gathered = cells_gather(Vci(5), &joined[..split], &joined[split..], 7);
            assert_eq!(
                gathered,
                segment_to_cells(Vci(5), &joined, 7),
                "split {split}"
            );
        }
    }

    #[test]
    fn gather_of_empty_frame_is_one_empty_cell() {
        let cells = cells_gather(Vci(1), &[], &[], 3);
        assert_eq!(cells, segment_to_cells(Vci(1), &[], 3));
    }

    #[test]
    fn slab_reassembler_round_trip() {
        let frame: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let cells = segment_to_cells(Vci(9), &frame, 100);
        let mut r = SlabReassembler::new(ByteSlab::new(2, 1024));
        let mut out = None;
        for c in cells {
            out = out.or(r.push(c));
        }
        let (vci, got) = out.unwrap();
        assert_eq!(vci, Vci(9));
        got.with(|b| assert_eq!(b, &frame[..]));
        assert_eq!(r.frames_ok(), 1);
        // Exactly one input copy: the frame's bytes, once.
        assert_eq!(r.slab().copied_in_bytes(), frame.len() as u64);
        assert_eq!(r.slab().copied_out_bytes(), 0);
        drop(got);
        assert_eq!(r.slab().free_count(), 2);
    }

    #[test]
    fn slab_reassembler_discards_on_lost_cell_and_frees_region() {
        let mut cells = segment_to_cells(Vci(3), &[7u8; 150], 0);
        cells.remove(1);
        let mut r = SlabReassembler::new(ByteSlab::new(1, 1024));
        let mut out = None;
        for c in cells {
            out = out.or(r.push(c));
        }
        assert_eq!(out, None);
        assert_eq!(r.frames_discarded(), 1);
        // The poisoned frame's region was freed, so the single slab is
        // available for the next intact frame.
        let next = segment_to_cells(Vci(3), &[1, 2], 4);
        let mut got = None;
        for c in next {
            got = got.or(r.push(c));
        }
        let (_, frame) = got.unwrap();
        frame.with(|b| assert_eq!(b, &[1, 2]));
    }

    #[test]
    fn slab_reassembler_exhaustion_discards_whole_frame() {
        let slab = ByteSlab::new(1, 1024);
        let held = slab.try_alloc_copy(&[0]).unwrap();
        let mut r = SlabReassembler::new(slab);
        let mut out = None;
        for c in segment_to_cells(Vci(1), &[9u8; 100], 0) {
            out = out.or(r.push(c));
        }
        assert_eq!(out, None);
        assert_eq!(r.alloc_failures(), 1);
        assert_eq!(r.frames_discarded(), 1);
        drop(held);
        // With a region free again, the circuit recovers.
        let mut got = None;
        for c in segment_to_cells(Vci(1), &[5u8; 100], 3) {
            got = got.or(r.push(c));
        }
        assert!(got.is_some());
    }

    #[test]
    fn slab_reassembler_discards_oversized_frame() {
        let mut r = SlabReassembler::new(ByteSlab::new(2, 64));
        let mut out = None;
        for c in segment_to_cells(Vci(1), &[9u8; 100], 0) {
            out = out.or(r.push(c));
        }
        assert_eq!(out, None);
        assert_eq!(r.frames_discarded(), 1);
        assert_eq!(r.slab().free_count(), 2);
    }

    #[test]
    fn seq_wraps_across_frames() {
        let mut r = Reassembler::new();
        let c1 = segment_to_cells(Vci(1), &[1u8; 96], u32::MAX - 1);
        for c in c1 {
            r.push(c);
        }
        // Continues at 0 after wrap; next frame must still be accepted.
        let c2 = segment_to_cells(Vci(1), &[2u8; 48], 0);
        let mut got = None;
        for c in c2 {
            got = got.or(r.push(c));
        }
        assert!(got.is_some());
        assert_eq!(r.frames_ok(), 2);
    }
}
