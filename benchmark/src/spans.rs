//! Spans recorded by the harness around its own calls into each layer.
//!
//! No crate under `crates/` is edited by the change that defines this
//! benchmark, so every span opens and closes in this package, around a
//! call the harness itself makes. Spans stay in memory and are written
//! as JSON lines when the traced run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};

/// One closed span. `parent` is the index of the span that was open when
/// this one started; `trace` groups the spans of one walked segment (or
/// of one sliced run).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the identifier the following spans share.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(s.name.to_string())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("trace", Value::Num(s.trace as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn nested_children_are_charged_to_their_own_parent_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 50, Some(1)),
        ];
        // root loses only a's 50; a loses its inner 30.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", 10, 100, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 130, Some(0)),
            span("early", 0, 15, Some(0)),
        ];
        // Covered: [10,15) + [20,80) + [90,100) = 75 of 90.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        t.set_trace(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].trace), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times_ns(s);
        assert_eq!(selfs[0] + selfs[1], s[0].duration_ns());
    }
}
