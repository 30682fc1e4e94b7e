//! # pandora-bench — the experiment harness
//!
//! One function per paper result (see DESIGN.md §4 and EXPERIMENTS.md).
//! Every function runs a deterministic virtual-time simulation and returns
//! both a printable [`pandora_metrics::Table`] and the key numbers, which
//! the unit tests here pin against the paper's reported values.
//!
//! `cargo run --release -p pandora-bench --bin repro` regenerates all
//! tables. Host-side cost is measured elsewhere, by the repository's one
//! benchmark (`benchmark/run.sh`).

pub mod ablations;
pub mod audio_exps;
pub mod clawback_exps;
pub mod media_exps;
pub mod policy_exps;
