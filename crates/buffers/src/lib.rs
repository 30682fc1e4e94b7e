//! # pandora-buffers — decoupling buffers, clawback buffers, allocator
//!
//! The buffering machinery at the heart of the paper (§3.4, §3.7):
//!
//! * [`decoupling`] — bounded queues "inserted to allow some concurrency
//!   between processes or independent hardware units": upstream offers
//!   through a [`ReadyGate`] that drops instead of blocking on a full
//!   buffer (figure 3.6, Principle 5), and a [`DecouplingHandle`] resizes
//!   without loss and reports;
//! * [`Clawback`] / [`ClawbackBank`] — per-stream destination jitter
//!   buffers with silence insertion on underrun, a slow fixed clawback
//!   rate (2 ms per 8 s) that also covers 1e-5 clock drift, the 120 ms
//!   per-stream cap inside a shared 4 s [`ClawbackPool`], and automatic
//!   stream activation/deactivation;
//! * [`MultiRateClawback`] — the paper's proposed extension for
//!   high-jitter paths: removal frequency proportional to the running
//!   minimum contents (level in block·seconds, default 20);
//! * [`Pool`] — the reference-counting buffer allocator of §3.4, whose
//!   descriptors are what actually flow through the server switch;
//! * [`ByteSlab`] / [`SlabRef`] (re-exported from `pandora-slab`) — the
//!   byte-level half of the same allocator: refcounted slab regions that
//!   own payload bytes end to end, making the paper's two-copy invariant
//!   checkable via copy counters;
//! * [`Report`] — the report messages all of these emit, each made by a
//!   process's [`Reporter`], which holds §3.8's minimum period per key.

#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used)]

mod clawback;
mod decoupling;
mod pool;
mod report;

pub use clawback::{
    Arrival, Clawback, ClawbackBank, ClawbackConfig, ClawbackPool, ClawbackStats, MultiRateClawback,
};
pub use decoupling::{decoupling, DecouplingHandle, ReadyGate};
pub use pool::{take_leak_report, Alloc, Descriptor, LeakReport, Pool};
pub use report::{Report, ReportClass, Reporter};

pub use pandora_slab::{
    take_slab_leak_report, ByteSlab, SlabError, SlabLeakReport, SlabRef, SlabWriter,
};
