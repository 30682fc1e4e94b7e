//! # pandora-overlay — striped multi-tree broadcast
//!
//! One-to-thousands fan-out over viewer uplinks, after the paper's
//! observation that a continuous-media server's scarce resource is the
//! sender's outbound link: a single box cannot serialize a thousand
//! copies, but a thousand boxes each forwarding a few can.
//!
//! The crate splits the problem into four parts:
//!
//! * [`plan`] — the deterministic planner. Given the membership and
//!   per-box uplink budgets it computes `k` striped trees where every
//!   relay-capable member is interior in **exactly one** tree (a crash
//!   interrupts only `1/k` of the stream for its subtree), depth stays
//!   within `⌈log_d N⌉`, and equal seeds replay byte-identically.
//! * [`stripe`] — the data plane's bookkeeping: slices (an
//!   [`Arc`](std::sync::Arc)'d cell burst plus stripe/stamp metadata,
//!   so relaying never copies payload), the clawback [`RepairRing`],
//!   and the per-viewer [`StripeReceiver`] with its gap, lateness,
//!   per-hop histogram and per-stripe repair-gap statistics.
//! * `repair` — the hub engine: `pandora-recover` leases over member
//!   heartbeats, and graft orders that move a dead relay's orphans to
//!   their precomputed backup parents with a replay resume point.
//! * [`broadcast`] — the topology builder
//!   ([`build_overlay_broadcast`]): bandwidth-limited uplinks with P3
//!   drop-oldest queues and P8 local divisors, the session admission
//!   charge for every relay's fan-out, and the merged-report parser
//!   ([`OverlaySummary`]). Its messages travel on `lanes`: three
//!   latency-stamped lanes — tree edges, grafts, hellos — each in send
//!   order, and the one dispatcher task that delivers them in `(due,
//!   lane)` order.

#![deny(missing_docs)]

pub mod broadcast;
mod lanes;
pub mod plan;
mod repair;
pub mod stripe;

pub use broadcast::{
    build_overlay_broadcast, cells_per_segment, plan_for, BuildError, CrashPlan, OverlayBuild,
    OverlayConfig, OverlaySummary, UplinkCapPlan, OVERLAY_VCI_BASE,
};
pub use plan::{PlanError, TreePlan};
pub use stripe::{Accept, RepairRing, Slice, StripeReceiver};
