//! # pandora — the Pandora multimedia box
//!
//! The core crate of this reproduction of *Jones & Hopper, "Handling
//! Audio and Video Streams in a Distributed Environment" (SOSP 1993)*.
//! It assembles the substrate crates into the complete Pandora's Box and
//! implements the paper's eight design principles where they live:
//!
//! * **P1 outgoing-before-incoming** — output-side CPU claims run at
//!   higher priority ([`pandora_sim::PRIO_OUTPUT`]), so overload
//!   back-pressures the incoming side first;
//! * **P2 audio-over-video** — the figure 3.7 split: separate audio/video
//!   decoupling buffers toward the network, audio drained first
//!   ([`network_board`]);
//! * **P3 newest-stream priority** — the network scheduler drops from the
//!   longest-open stream when the video backlog exceeds its cap;
//! * **P4 command priority** — every process PRI-ALTs its command channel
//!   ahead of data ([`server_board`]);
//! * **P5 upstream independence** — ready-mode decoupling buffers and the
//!   drop-don't-block switch ([`pandora_buffers::ReadyGate`]);
//! * **P6 continuity during reconfiguration** — switch tables update
//!   between segments, never during one;
//! * **P7 minimise delay** — 2-block segments, clawback buffers at the
//!   destination, whole-path latency instrumentation;
//! * **P8 local adaptation** — clawback and muting adapt to locally
//!   observed conditions with no end-to-end cooperation.
//!
//! Start with [`connect_pair`] and [`open_audio_shout`] /
//! [`open_video_stream`], or the examples in the repository root.

// A catch-all arm over `StreamKind` would route a newly added class
// without a priority decision: every match over this crate's enums names
// each variant.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod audio_board;
pub mod config;
pub mod health;
pub mod hostlog;
pub mod msg;
pub mod network_board;
pub mod pandora_box;
pub mod server_board;
pub mod video_boards;

pub use audio_board::{PlaybackConfig, SpeakerSink};
pub use config::{BoxConfig, TxMode, VideoCosts, SLAB_BUFFERS, SLAB_BYTES};
pub use health::HealthBoard;
pub use hostlog::ReportLog;
pub use msg::{OutputId, SegMsg, StreamKind, SwitchCommand, SwitchEntry};
pub use network_board::{NetInStats, NetOutConfig, NetOutStats};
pub use pandora_box::{connect_pair, open_audio_shout, open_video_stream, BoxPair, PandoraBox};
pub use server_board::{NetMsg, SwitchOutputs, SwitchStats};
pub use video_boards::{Camera, DisplaySink, VideoCaptureHandle};
