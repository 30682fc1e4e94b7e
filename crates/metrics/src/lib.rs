//! Measurement utilities for the Pandora reproduction.
//!
//! Every experiment in the paper reports latency, jitter, loss or rate
//! figures. This crate provides the small, dependency-free instruments the
//! rest of the workspace uses to collect them:
//!
//! * [`Histogram`] — sample-recording distribution with quantiles.
//! * [`JitterTracker`] — inter-arrival jitter relative to a nominal period.
//! * [`Counter`] and [`CounterSet`] — named event counters.
//! * [`TimeSeries`] — (time, value) traces for figure-style output.
//! * [`StateTimeline`] — (time, entity, state) transition traces for
//!   failure-recovery assertions.
//! * [`Table`] — aligned ASCII table output for the `repro` binary.
//!
//! All values are plain `f64`/`u64`; time units are whatever the caller
//! uses consistently (the simulator uses nanoseconds).

#![deny(missing_docs)]

mod counter;
mod histogram;
mod jitter;
#[cfg(test)]
mod model;
mod series;
mod table;
mod timeline;

pub use counter::{Counter, CounterSet};
pub use histogram::Histogram;
pub use jitter::JitterTracker;
pub use series::{Points, PointsIter, TimeSeries};
pub use table::Table;
pub use timeline::StateTimeline;
