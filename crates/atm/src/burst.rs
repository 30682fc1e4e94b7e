//! [`CellBurst`]: the cells of one frame, built once and shared.
//!
//! The overlay source segments a slice into cells once
//! ([`burst_gather`]) and every relay then forwards the same run behind
//! an `Arc` (`pandora_overlay::Slice`), so a slice's payload is copied
//! into cells once however many members it reaches. Links charge a burst
//! its full cell count ([`WireSize`]).
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

use crate::aal::cells_gather;
use crate::cell::{Cell, Vci, CELL_BYTES};

/// The cells of one frame on one VCI, in sequence order; immutable once
/// built, so it can be shared behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellBurst {
    cells: Vec<Cell>,
}

impl WireSize for CellBurst {
    fn wire_bytes(&self) -> usize {
        self.cells.len() * CELL_BYTES
    }
}

/// Splits a logically contiguous `header ++ payload` frame into one burst
/// on `vci`; the contained cells are exactly [`crate::cells_gather`]'s.
pub fn burst_gather(vci: Vci, header: &[u8], payload: &[u8], first_seq: u32) -> CellBurst {
    CellBurst {
        cells: cells_gather(vci, header, payload, first_seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_gather_matches_cells_gather() {
        let header: Vec<u8> = (0u8..36).collect();
        let payload: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(7)).collect();
        let burst = burst_gather(Vci(3), &header, &payload, 5);
        assert_eq!(burst.cells, cells_gather(Vci(3), &header, &payload, 5));
        assert_eq!(burst.wire_bytes(), burst.cells.len() * CELL_BYTES);
    }
}
