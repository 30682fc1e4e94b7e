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

/// Per-VCI slab reassembly state.
#[derive(Debug, Default)]
struct SlabVciState {
    writer: Option<SlabWriter>,
    next_seq: Option<u32>,
    corrupt: bool,
}

/// Reassembles cell streams directly into slab regions — the one RX
/// path, for boxes, Medusa units and the session controller alike.
///
/// Each arriving cell is appended straight into a [`SlabWriter`] region
/// (the frame's *one* input copy) and the completed frame is handed back
/// as a refcounted [`SlabRef`]. A frame holds its region from its first
/// cell to its last, so at most `slab.capacity()` frames are in progress
/// at once. Frames with a missing cell, frames larger than one slab
/// region, and frames that start while every region is taken are
/// discarded whole, per the §3.8 rule.
#[derive(Debug)]
pub struct SlabReassembler {
    // Declared before `slab`, so in-progress writers hand their regions
    // back before the arena's last handle can go: the slab's leak audit
    // then sees only the regions someone else still holds.
    circuits: BTreeMap<Vci, SlabVciState>,
    slab: ByteSlab,
    frames_ok: u64,
    frames_discarded: u64,
    alloc_failures: u64,
}

impl SlabReassembler {
    /// Creates a reassembler that allocates frame regions from `slab`.
    pub fn new(slab: ByteSlab) -> Self {
        SlabReassembler {
            circuits: BTreeMap::new(),
            slab,
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

    /// Frames lost because no slab region was free when they started.
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Circuits currently known.
    pub fn circuits(&self) -> usize {
        self.circuits.len()
    }

    /// The slab frames are reassembled into.
    #[cfg(test)]
    fn slab(&self) -> &ByteSlab {
        &self.slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_slab::take_slab_leak_report;

    fn feed(r: &mut SlabReassembler, cells: Vec<Cell>) -> Vec<(Vci, Vec<u8>)> {
        let done = cells.into_iter().filter_map(|c| r.push(c));
        done.map(|(vci, frame)| (vci, frame.with(|b| b.to_vec())))
            .collect()
    }

    #[test]
    fn single_cell_frame() {
        let cells = segment_to_cells(Vci(1), &[1, 2, 3], 0);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].last);
        let mut r = SlabReassembler::new(ByteSlab::new(1, 64));
        assert_eq!(feed(&mut r, cells), vec![(Vci(1), vec![1, 2, 3])]);
    }

    #[test]
    fn empty_frame_is_one_empty_cell() {
        let cells = segment_to_cells(Vci(2), &[], 0);
        assert_eq!(cells.len(), 1);
        let mut r = SlabReassembler::new(ByteSlab::new(1, 64));
        assert_eq!(feed(&mut r, cells), vec![(Vci(2), vec![])]);
    }

    #[test]
    fn poisoned_frame_buffers_nothing_more() {
        let mut r = SlabReassembler::new(ByteSlab::new(1, 64 * 1024));
        r.push(Cell::new(Vci(1), 0, false, &[1u8; 48]));
        // A gap, then a long unmarked run: none of it holds a region.
        for seq in 2..1_000 {
            r.push(Cell::new(Vci(1), seq, false, &[2u8; 48]));
            assert_eq!(r.slab().free_count(), 1);
        }
    }

    #[test]
    fn interleaved_vcis_reassemble_independently() {
        let fa = vec![1u8; 100];
        let fb = vec![2u8; 100];
        let ca = segment_to_cells(Vci(1), &fa, 0);
        let cb = segment_to_cells(Vci(2), &fb, 0);
        // Interleave cell by cell.
        let cells = ca.into_iter().zip(cb).flat_map(|(a, b)| [a, b]);
        let mut r = SlabReassembler::new(ByteSlab::new(2, 1024));
        let done = feed(&mut r, cells.collect());
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
        assert_eq!(cells.len(), 5); // ceil(200/48).
        assert!(cells[4].last);
        assert!(!cells[3].last);
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
        cells.remove(1); // Lose the middle cell.
        let mut r = SlabReassembler::new(ByteSlab::new(1, 1024));
        assert_eq!(feed(&mut r, cells), vec![]);
        assert_eq!(r.frames_discarded(), 1);
        // The poisoned frame's region was freed and the counter resumed,
        // so the single slab takes the next intact frame.
        let next = segment_to_cells(Vci(3), &[1, 2], 4);
        assert_eq!(feed(&mut r, next), vec![(Vci(3), vec![1, 2])]);
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
        let mut r = SlabReassembler::new(ByteSlab::new(1, 1024));
        let c1 = segment_to_cells(Vci(1), &[1u8; 96], u32::MAX - 1);
        assert_eq!(feed(&mut r, c1).len(), 1);
        // Continues at 0 after wrap; next frame must still be accepted.
        let c2 = segment_to_cells(Vci(1), &[2u8; 48], 0);
        assert_eq!(feed(&mut r, c2).len(), 1);
        assert_eq!(r.frames_ok(), 2);
    }

    #[test]
    fn a_reassembler_that_owns_its_arena_reports_no_leak() {
        let _ = take_slab_leak_report();
        let mut r = SlabReassembler::new(ByteSlab::new(2, 1024));
        assert_eq!(r.push(Cell::new(Vci(1), 0, false, &[1u8; 48])), None);
        assert_eq!(r.slab().free_count(), 1, "the frame holds a region");
        drop(r);
        assert!(take_slab_leak_report().is_none());
    }

    /// ROADMAP item 20's probe: a region is freed only when a later cell
    /// arrives on its VCI, so frames whose streams fall silent mid-frame
    /// pin every region of a box-sized slab and starve a live circuit.
    #[test]
    #[ignore = "a silent VCI pins its region: ROADMAP item 20"]
    fn silent_vcis_do_not_starve_a_live_circuit() {
        let mut r = SlabReassembler::new(ByteSlab::new(288, 64 * 1024));
        for vci in 1_000..1_288 {
            assert_eq!(r.push(Cell::new(Vci(vci), 0, false, &[0u8; 48])), None);
        }
        let mut seq = 0;
        let mut delivered = 0;
        for i in 0..100u8 {
            let cells = segment_to_cells(Vci(1), &[i; 100], seq);
            seq = seq.wrapping_add(cells.len() as u32);
            delivered += feed(&mut r, cells).len();
        }
        assert_eq!((delivered, r.alloc_failures()), (100, 0));
    }
}
