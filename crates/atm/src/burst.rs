//! [`CellBurst`]: the size of one frame's cell run.
//!
//! The overlay source charges each slice the cells its frame would fill
//! ([`burst_gather`]) and every relay then forwards the same count behind
//! an `Arc` (`pandora_overlay::Slice`). No overlay member reassembles
//! anything, so a burst holds no cells: it is its cell count, and links
//! charge it that many cells ([`WireSize`]), exactly what
//! [`crate::cells_gather`] would build for the same frame.
//!
//! Between two boxes every cell travels singly — `cells_gather`, the
//! switch's `dispatch_cell`, a reassembler's `push` — because the box TX
//! scheduler's audio-over-video interleave (Principle 2, §3.5) and the
//! jitter models are per-cell by meaning. There is deliberately no
//! per-burst switch or reassembly path beside that one: the whole `atm`
//! layer measures under 0.6 % of wall time on every benchmark workload
//! (`benchmark/README.md`, "Where the time goes"), so a second
//! implementation of it could not move an end-to-end number.

use pandora_sim::WireSize;

use crate::cell::{Vci, CELL_BYTES, CELL_PAYLOAD};

/// The cell count of one frame on one VCI: what a link charges for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBurst {
    cells: usize,
}

impl WireSize for CellBurst {
    fn wire_bytes(&self) -> usize {
        self.cells * CELL_BYTES
    }
}

/// The burst a logically contiguous `header ++ payload` frame fills: one
/// cell per started [`CELL_PAYLOAD`] bytes, and one for an empty frame,
/// as [`crate::cells_gather`] segments it. The VCI and first sequence
/// number name the cells a box would send; a count does not need them.
pub fn burst_gather(_vci: Vci, header: &[u8], payload: &[u8], _first_seq: u32) -> CellBurst {
    CellBurst {
        cells: (header.len() + payload.len()).div_ceil(CELL_PAYLOAD).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aal::cells_gather;

    /// The count is the length of the cell run `cells_gather` builds, for
    /// every frame of up to 3,000 bytes and header splits of none, a
    /// sequence number and a full segment header.
    #[test]
    fn a_burst_is_as_long_as_the_cells_gather_builds() {
        let frame: Vec<u8> = (0..3_000u32).map(|i| i as u8).collect();
        for split in [0, 4, 36] {
            for len in 0..=frame.len() {
                let (header, payload) = frame[..len].split_at(split.min(len));
                let cells = cells_gather(Vci(3), header, payload, 5);
                assert_eq!(
                    burst_gather(Vci(3), header, payload, 5).wire_bytes(),
                    cells.len() * CELL_BYTES,
                    "frame of {len} bytes, header {split}"
                );
            }
        }
    }
}
