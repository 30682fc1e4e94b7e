//! pandora-recover: the failure-recovery state machines.
//!
//! The paper's principles assume endpoints and the command path can fail
//! while the surviving streams stay alive: P6 promises continuity through
//! reconfiguration, and P8 makes quality decisions *locally*, at the box
//! that observes the trouble. This crate supplies the two deterministic
//! state machines those promises rest on — pure data types with no I/O,
//! no clock access and no randomness, so every transition is replayable:
//!
//! * [`Lease`] — the lease a heartbeat renews. Missed renewals walk the
//!   lease `Live → Suspect → Dead` after a configurable number of misses,
//!   with exponential backoff on the probe side; a successful renewal of
//!   a dead lease is a *revival*, the signal to re-admit a restarted box.
//! * [`LeaseBook`] — the one book of leases, a `Vec` indexed by dense id
//!   and visited in id order. The session controller renews each lease
//!   from its own Ping/Pong probe on the P4 command path; the overlay
//!   broadcast hub feeds the same book passively — peers volunteer hellos
//!   and one sweep per interval renews or misses every lease at once — to
//!   watch a thousand relays without per-peer probe tasks.
//! * [`AdaptMachine`] — the P8 local-adaptation policy over windows of
//!   sequence-gap and late-segment rates per stream ([`WindowSample`]):
//!   sustained video loss steps the rate divisor down (degrade-to-fit,
//!   the P2/P3 ordering — video gives way first), sustained audio loss
//!   engages muting rather than degrading
//!   (audio is never sent at reduced quality, P2), and recovery
//!   hysteresis restores full quality only after the trouble has
//!   demonstrably cleared.
//!
//! The session controller (`pandora-session`) owns the leases and runs
//! crash reconvergence on expiry; the box (`pandora` core) owns the
//! health monitors and applies the adaptation actions. Both sides are
//! exercised by `pandora-faults` crash/pause/flap plans in the
//! conformance suite.

#![deny(missing_docs)]

pub mod health;
pub mod lease;

pub use health::{AdaptAction, AdaptMachine, AdaptState, MediaClass, WindowSample};
pub use lease::{Lease, LeaseBook, LeaseConfig, LeaseEvent, LeaseState};
