//! Reports — the observability channel of every Pandora process.
//!
//! "Reports are collected from all main processes, and multiplexed
//! together. They are usually in the form of text messages generated when
//! Pandora is overloaded, when some error has been detected, when a
//! command has requested some information, or on occasion just to say that
//! everything is all right" (§1.1). §3.8 adds rate limiting: "a minimum
//! period between reports for any particular sort of error". A process
//! reports through its [`Reporter`], the one place that rule lives.

use std::collections::BTreeMap;
use std::fmt::Display;

use pandora_sim::{Sender, SimDuration, SimTime};

/// Severity/kind of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportClass {
    /// Routine information (e.g. a reply to a query command).
    Info,
    /// Degradation under overload (drops, full buffers).
    Overload,
    /// Detected error (corruption, sequence gaps).
    Error,
    /// Serious fault (allocator exhaustion, clawback limit hit).
    Fault,
}

impl std::fmt::Display for ReportClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReportClass::Info => "info",
            ReportClass::Overload => "overload",
            ReportClass::Error => "error",
            ReportClass::Fault => "fault",
        };
        f.write_str(s)
    }
}

/// A report message from a Pandora process.
#[derive(Debug, Clone)]
pub struct Report {
    /// Virtual time the report was generated.
    pub time: SimTime,
    /// Name of the originating process.
    pub source: String,
    /// Report class.
    pub class: ReportClass,
    /// Human-readable message, as on the paper's host log.
    pub message: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.time, self.source, self.class, self.message
        )
    }
}

/// One process's voice on the host log: the log's sender, the name the
/// process reports under, and §3.8's minimum period per sort of error.
///
/// A report is a call, not a wait. The log is unbounded, so a send never
/// blocks, and a report the period holds back costs a map lookup: its
/// message is never formatted.
pub struct Reporter {
    log: Sender<Report>,
    source: String,
    min_period: SimDuration,
    /// When the last report under each key was made.
    last: BTreeMap<String, SimTime>,
}

impl Reporter {
    /// A reporter for the process `source`, allowing one report per
    /// `min_period` under each key.
    ///
    /// # Panics
    ///
    /// Panics if `log` is bounded: a process must never wait on its
    /// report channel.
    pub fn new(log: Sender<Report>, source: impl Into<String>, min_period: SimDuration) -> Self {
        assert_eq!(log.capacity(), usize::MAX, "the host log must be unbounded");
        Reporter {
            log,
            source: source.into(),
            min_period,
            last: BTreeMap::new(),
        }
    }

    /// A reporter for another process on the same log and period, with
    /// no report made yet.
    pub fn named(&self, source: impl Into<String>) -> Reporter {
        Reporter::new(self.log.clone(), source, self.min_period)
    }

    /// Reports `message` now, unless a report under `key` was made less
    /// than the minimum period ago (§3.8). The first report under a key
    /// always goes.
    pub fn report(&mut self, key: &str, class: ReportClass, message: impl Display) {
        let now = pandora_sim::now();
        if self
            .last
            .get(key)
            .is_some_and(|&last| now.since(last) < self.min_period)
        {
            return;
        }
        self.last.insert(key.to_string(), now);
        self.send(now, class, message);
    }

    /// Reports `message` now as information, with no period: the reply to
    /// a query, which the asker is waiting for.
    pub fn reply(&self, message: impl Display) {
        self.send(pandora_sim::now(), ReportClass::Info, message);
    }

    fn send(&self, time: SimTime, class: ReportClass, message: impl Display) {
        // Only a closed log refuses, and then nobody is listening.
        let _ = self.log.try_send(Report {
            time,
            source: self.source.clone(),
            class,
            message: message.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{buffered, unbounded, Receiver, Simulation};

    /// A simulation, a 100 ms reporter named "switch", and its log.
    fn rig() -> (Simulation, Reporter, Receiver<Report>) {
        let (tx, rx) = unbounded();
        let reporter = Reporter::new(tx, "switch", SimDuration::from_millis(100));
        (Simulation::new(), reporter, rx)
    }

    fn drain(log: &Receiver<Report>) -> Vec<Report> {
        std::iter::from_fn(|| log.try_recv()).collect()
    }

    #[test]
    fn display_contains_fields() {
        let (mut sim, mut r, log) = rig();
        sim.spawn("proc", async move {
            r.report("drop", ReportClass::Overload, "dropped 3");
        });
        sim.run_until_idle();
        let s = drain(&log)[0].to_string();
        assert_eq!(s, "[0.000000s switch overload] dropped 3");
    }

    #[test]
    fn class_names() {
        assert_eq!(ReportClass::Info.to_string(), "info");
        assert_eq!(ReportClass::Fault.to_string(), "fault");
    }

    #[test]
    fn one_report_per_key_per_period_and_replies_unlimited() {
        let (mut sim, mut r, log) = rig();
        sim.spawn("proc", async move {
            for ms in [0, 50, 99, 100, 150, 230] {
                pandora_sim::delay_until(SimTime::from_millis(ms)).await;
                r.report("a", ReportClass::Error, format_args!("a at {ms}"));
                r.report(&format!("b{}", ms % 2), ReportClass::Error, "b");
                r.reply("query");
            }
        });
        sim.run_until_idle();
        let (replies, reports): (Vec<Report>, Vec<Report>) = drain(&log)
            .into_iter()
            .partition(|r| r.class == ReportClass::Info);
        let reports: Vec<String> = reports
            .iter()
            .map(|r| format!("{} {}", r.time.as_millis(), r.message))
            .collect();
        // `b1` (the odd instants) opens at 99 ms; `a` reopens a full
        // period after its last report, not after its last attempt.
        assert_eq!(
            reports,
            [
                "0 a at 0",
                "0 b",
                "99 b",
                "100 a at 100",
                "100 b",
                "230 a at 230",
                "230 b"
            ]
        );
        assert_eq!(replies.len(), 6);
    }

    #[test]
    fn a_named_reporter_keeps_the_log_and_period_but_not_the_history() {
        let (mut sim, mut r, log) = rig();
        sim.spawn("proc", async move {
            r.report("pool", ReportClass::Fault, "first");
            let mut other = r.named("net-in:boxa");
            other.report("pool", ReportClass::Fault, "other");
            other.report("pool", ReportClass::Fault, "held back");
            r.report("pool", ReportClass::Fault, "held back");
        });
        sim.run_until_idle();
        let got: Vec<(String, String)> = drain(&log)
            .into_iter()
            .map(|r| (r.source, r.message))
            .collect();
        assert_eq!(
            got,
            [
                ("switch".into(), "first".into()),
                ("net-in:boxa".into(), "other".into())
            ]
        );
    }

    #[test]
    #[should_panic(expected = "the host log must be unbounded")]
    fn a_bounded_log_is_refused() {
        let (tx, _rx) = buffered::<Report>(64);
        let _ = Reporter::new(tx, "switch", SimDuration::from_millis(100));
    }
}
