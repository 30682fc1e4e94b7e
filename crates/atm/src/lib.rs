//! # pandora-atm — the simulated ATM network
//!
//! The substrate substitution for Pandora's dedicated ATM ring network
//! (§1.0; \[Hopper88\], \[McAuley90\] — see DESIGN.md §2):
//!
//! * [`Cell`] / [`Vci`] — 53-byte cells on virtual circuits; Pandora
//!   carries the destination's stream number in the VCI;
//! * [`segment_to_cells`] / [`cells_gather`] — frame segmentation, from
//!   one buffer or scatter-gather straight from a header region plus a
//!   slab payload;
//! * [`SlabReassembler`] — the one reassembler: cells go straight into
//!   regions of a [`ByteSlab`] the caller sizes, and a frame with a
//!   missing cell, one larger than a region, or one that starts while
//!   every region is taken is discarded whole;
//! * [`build_path_controlled`] / [`build_duplex_path`] / [`HopConfig`] —
//!   multi-hop paths, two tasks a hop: a wire (bandwidth, latency, a
//!   `LinkControl`) and a release stage (a seeded [`JitterModel`] — including the paper's
//!   "2 ms usually, 20 ms under video load" bursty shape — Bernoulli
//!   loss, and on the last hop the runtime fault controls of
//!   [`PathControl`]); an ill-formed hop is refused at build time;
//! * [`Switch`] — a VCI-routed switch whose full output ports drop rather
//!   than stall other ports (Principle 5 at the fabric level): a
//!   [`SwitchCore`] (route table, counters, `dispatch_cell`) plus the task
//!   that feeds it;
//! * [`CellBurst`] — the cells of one frame built once ([`burst_gather`])
//!   and shared behind an `Arc` by the overlay's relays. Cells cross the
//!   fabric one at a time; there is no per-burst switch or reassembly
//!   path.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod aal;
mod burst;
mod cell;
mod network;

pub use aal::{cells_gather, segment_to_cells, SlabReassembler};
pub use burst::{burst_gather, CellBurst};
pub use cell::{Cell, Vci, CELL_BYTES, CELL_PAYLOAD};
pub use network::{
    build_duplex_path, build_path_controlled, DuplexPath, FabricCounters, HopConfig, JitterModel,
    PathControl, Switch, SwitchCore,
};
pub use pandora_slab::ByteSlab;
