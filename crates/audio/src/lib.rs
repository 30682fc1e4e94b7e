//! # pandora-audio — the Pandora audio path primitives
//!
//! Implements §3.2, §3.5, §3.8 and §4.3 of the paper:
//!
//! * [`mulaw`] — the 8-bit µ-law codec (software stand-in for the codec
//!   chip), including the µ-law-domain scaling tables used for muting;
//! * [`Block`] / [`SegmentAssembler`] — 16-sample 2 ms blocks and their
//!   grouping into segments (1 / 2 / 12 blocks per segment);
//! * [`mix_blocks`] — linear-domain software mixing of any number of
//!   streams, plus the [`CpuProfile`] cost model calibrated to the paper's
//!   published capacities (5 plain / 3 full streams on the T425);
//! * [`Muting`] — the two-stage echo-suppression state machine of
//!   figure 4.1;
//! * [`gen`] — deterministic tone / violin / speech / noise sources used
//!   by the experiments;
//! * [`recovery`] — loss concealment (zero-fill vs replay-last-block);
//! * [`quality`] — SNR and discontinuity metrics that reproduce the
//!   paper's perceptual ranking of degradations.

pub mod gen;
pub mod mulaw;
pub mod q15;
pub mod quality;
pub mod recovery;

mod block;
mod mixer;
mod muting;

pub use block::{segment_blocks, Block, SegmentAssembler};
pub use mixer::{mix_blocks, mix_blocks_scaled, CpuProfile};
pub use muting::{MuteStage, Muting, MutingConfig};
pub use q15::Q15;
pub use recovery::{Concealer, Concealment};
