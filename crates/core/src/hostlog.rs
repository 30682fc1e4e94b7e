//! The host-side report log.
//!
//! "Reports are sent to the host computer for display or logging" (§1.1);
//! "these messages are brought together on the host computer, and written
//! to a log file. If a stream is corrupted because of data loss, it is
//! possible to look in the log file to find out whether the data is being
//! lost within Pandora, and if so, which process is losing it and why"
//! (§3.8).

use std::cell::RefCell;
use std::rc::Rc;

use pandora_buffers::{Report, ReportClass, Reporter};
use pandora_sim::{unbounded, SimDuration, Spawner};

/// The minimum period between two reports of one sort of error from one
/// process: "a minimum period between reports for any particular sort of
/// error" (§3.8).
pub(crate) const REPORT_MIN_PERIOD: SimDuration = SimDuration::from_millis(500);

/// A handle onto the collected host log.
pub struct ReportLog {
    entries: Rc<RefCell<Vec<Report>>>,
    reports: Reporter,
}

impl ReportLog {
    /// Spawns the multiplexing collector of box `name` and returns the log
    /// handle.
    ///
    /// Every process reports through a [`ReportLog::reporter`] of its own,
    /// allowing one report per 500 ms for each sort of error (§3.8);
    /// reports never block (the host link is modelled as an unbounded
    /// sink, report volume being tiny next to stream traffic).
    pub fn spawn(spawner: &Spawner, name: &str) -> ReportLog {
        let (tx, rx) = unbounded::<Report>();
        let entries = Rc::new(RefCell::new(Vec::new()));
        let log = ReportLog {
            entries: entries.clone(),
            reports: Reporter::new(tx, name, REPORT_MIN_PERIOD),
        };
        spawner.spawn(&format!("hostlog:{name}"), async move {
            while let Ok(r) = rx.recv().await {
                entries.borrow_mut().push(r);
            }
        });
        log
    }

    /// A reporter onto this log for the process `source`.
    pub fn reporter(&self, source: &str) -> Reporter {
        self.reports.named(source)
    }

    /// All reports collected so far.
    pub fn entries(&self) -> Vec<Report> {
        self.entries.borrow().clone()
    }

    /// Number of reports collected.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Returns `true` when no report has arrived.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Reports from sources whose name contains `needle`.
    pub fn from_source(&self, needle: &str) -> Vec<Report> {
        self.entries
            .borrow()
            .iter()
            .filter(|r| r.source.contains(needle))
            .cloned()
            .collect()
    }

    /// Reports of a given class.
    pub fn of_class(&self, class: ReportClass) -> Vec<Report> {
        self.entries
            .borrow()
            .iter()
            .filter(|r| r.class == class)
            .cloned()
            .collect()
    }

    /// Renders the log as the paper's host log file would look.
    pub fn render(&self) -> String {
        self.entries
            .borrow()
            .iter()
            .map(|r| format!("{r}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::Simulation;

    #[test]
    fn collects_and_filters() {
        let mut sim = Simulation::new();
        let log = ReportLog::spawn(&sim.spawner(), "boxa");
        let (mut switch, mut clawback) = (log.reporter("switch"), log.reporter("clawback"));
        sim.spawn("proc", async move {
            switch.report("drop", ReportClass::Overload, "dropped 3");
            clawback.report("drop", ReportClass::Fault, "limit");
        });
        sim.run_until_idle();
        assert_eq!(log.len(), 2);
        assert_eq!(log.from_source("switch").len(), 1);
        assert_eq!(log.of_class(ReportClass::Fault).len(), 1);
        assert!(log.render().contains("dropped 3"));
        assert!(!log.is_empty());
    }
}
