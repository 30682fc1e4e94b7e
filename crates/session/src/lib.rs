//! pandora-session: the control plane for Pandora conferences.
//!
//! The data plane (boxes, links, switches) runs streams "continuously
//! until stopped"; this crate supplies the part of the system that
//! decides *which* streams run and *where* — call setup, admission
//! control and glitch-free reconfiguration:
//!
//! - a [`Directory`] of endpoints: fabric attachment, well-known
//!   control circuits and a capability descriptor per box;
//! - a signalling protocol ([`SessionMsg`]) carried as ordinary
//!   segments on a control [`pandora::StreamKind`], so commands ride
//!   the audio-priority queue and the box switch's PRI-ALT command
//!   path (Principle 4) — signalling stays live exactly when the data
//!   plane does;
//! - an [`AdmissionController`] per endpoint charging sink-count and
//!   cell-bandwidth budgets, degrading video (never audio, Principle
//!   2) and rejecting instead of oversubscribing;
//! - a [`Controller`] that grows and shrinks live conferences by
//!   issuing switch-table updates and fabric VCI routes in
//!   downstream-first order, so ongoing streams never glitch
//!   (Principle 6) and splits stay upstream-independent (Principle 5);
//! - one star topology ([`Star`]; [`point_to_point`] is its two-box
//!   case) assembling the fabric the controller manages;
//! - failure recovery (opt-in via [`ControllerConfig::lease`]):
//!   heartbeat probes renew per-box leases from `pandora-recover`, and
//!   a dead lease triggers crash reconvergence — surviving streams
//!   never glitch, budgets are refunded, and a restarted box settles
//!   its stale state before re-admission.

#![deny(missing_docs)]

pub mod admission;
pub mod control;
pub mod directory;
pub mod proto;
pub mod topology;

pub use admission::{AdmissionController, Decision, MIN_VIDEO_RATE_PERMILLE};
pub use control::{spawn_agent, Admitted, AgentStats, Controller, ControllerConfig, SessionError};
pub use directory::{Capabilities, Directory, EndpointId, EndpointRecord};
pub use pandora_recover::{LeaseConfig, LeaseState};
pub use proto::{RejectReason, SessionMsg, StreamClass, CONTROL_BYTES, CONTROL_MAGIC};
pub use topology::{point_to_point, Star, StarConfig, StarNode};
