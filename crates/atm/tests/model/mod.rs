//! A plain model of `SlabReassembler`, written for the tests that hold
//! the one reassembler to it: per circuit, the bytes of the frame in
//! progress, the next cell sequence number and whether the frame is
//! poisoned; across circuits, a count of frames in progress checked
//! against the slab's region count. A frame holds a region from its
//! first cell to its last, and the model assumes the caller drops every
//! delivered frame before the next cell, as [`feed_both`] does.

use std::collections::BTreeMap;

use pandora_atm::{Cell, SlabReassembler, Vci};

#[derive(Default)]
struct Circuit {
    /// The frame in progress; `Some` holds a region.
    bytes: Option<Vec<u8>>,
    next_seq: Option<u32>,
    poisoned: bool,
}

/// The model of a reassembler over `regions` slab regions of
/// `region_bytes` each.
pub struct Model {
    regions: usize,
    region_bytes: usize,
    circuits: BTreeMap<Vci, Circuit>,
    frames_ok: u64,
    frames_discarded: u64,
    alloc_failures: u64,
}

impl Model {
    pub fn new(regions: usize, region_bytes: usize) -> Model {
        Model {
            regions,
            region_bytes,
            circuits: BTreeMap::new(),
            frames_ok: 0,
            frames_discarded: 0,
            alloc_failures: 0,
        }
    }

    /// One cell in; the completed intact frame out on its marked last cell.
    fn push(&mut self, cell: &Cell) -> Option<(Vci, Vec<u8>)> {
        let in_progress = self.circuits.values().filter(|c| c.bytes.is_some());
        let full = in_progress.count() == self.regions;
        let c = self.circuits.entry(cell.vci).or_default();
        if c.next_seq.is_some_and(|seq| seq != cell.seq) {
            c.poisoned = true;
            c.bytes = None;
        }
        c.next_seq = Some(cell.seq.wrapping_add(1));
        if !c.poisoned {
            if c.bytes.is_none() && full {
                self.alloc_failures += 1;
                c.poisoned = true;
            } else {
                let bytes = c.bytes.get_or_insert_with(Vec::new);
                bytes.extend_from_slice(cell.data());
                if bytes.len() > self.region_bytes {
                    c.poisoned = true;
                    c.bytes = None;
                }
            }
        }
        if !cell.last {
            return None;
        }
        let bytes = c.bytes.take();
        match (std::mem::take(&mut c.poisoned), bytes) {
            (false, Some(bytes)) => {
                self.frames_ok += 1;
                Some((cell.vci, bytes))
            }
            _ => {
                self.frames_discarded += 1;
                None
            }
        }
    }
}

/// Feeds `cells` to `r` and to `model` alike, asserting after every cell
/// that they deliver the same frame or none, and at the end that they
/// count the same; returns the frames delivered.
pub fn feed_both(
    r: &mut SlabReassembler,
    model: &mut Model,
    cells: &[Cell],
) -> Vec<(Vci, Vec<u8>)> {
    let mut done = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let got = r.push(cell.clone());
        let got = got.map(|(vci, frame)| (vci, frame.with(|b| b.to_vec())));
        assert_eq!(got, model.push(cell), "cell {i}: {cell:?}");
        done.extend(got);
    }
    let counts = (r.frames_ok(), r.frames_discarded(), r.alloc_failures());
    let expected = (
        model.frames_ok,
        model.frames_discarded,
        model.alloc_failures,
    );
    assert_eq!(counts, expected, "(ok, discarded, alloc failures)");
    done
}
