//! The traced run's span recorder.
//!
//! Spans are taken by the benchmark itself around each call it makes into
//! a layer (`SweepEngine::run`, `figures::reproduce`, one request on the
//! socket, one `sweepctl` process...). Each carries a name, start, end and
//! parent, and every span of one request or run shares the trace id of
//! its root. Spans stay in memory and are written once, at exit. With
//! tracing off, opening a span reads no clock and records nothing.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; recorded when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    trace: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn open(&self, name: &'static str, trace: Option<u64>, parent: Option<u64>) -> Span<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            tracer: self,
            id,
            trace: trace.unwrap_or(id),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens the root span of a new trace (one request, wave or pass).
    pub fn root(&self, name: &'static str) -> Span<'_> {
        self.open(name, None, None)
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON line, in completion order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.records() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Span<'_> {
    /// Opens a child span in the same trace.
    pub fn child(&self, name: &'static str) -> Span<'_> {
        self.tracer.open(name, Some(self.trace), Some(self.id))
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            trace: self.trace,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

/// Per-name totals: activations, total and self nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut cursor) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            sum += e - s;
            cursor = e;
        }
    }
    sum
}

/// Self time of every span name: each span's duration minus the part of
/// its interval that its children cover (overlapping children, e.g. two
/// client threads under one root, count once).
pub fn self_times(records: &[SpanRecord]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if let Some(p) = r.parent {
            children.entry(p).or_default().push((r.start_ns, r.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for r in records {
        let total = r.end_ns.saturating_sub(r.start_ns);
        let mut kids = children.remove(&r.id).unwrap_or_default();
        let busy = covered(r.start_ns, r.end_ns, &mut kids);
        let entry = out.entry(r.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - busy.min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            trace: 1,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_child_interval() {
        let spans = [
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 10, 40),
            // Overlaps `a`: only 40..60 is new coverage.
            rec(3, Some(1), "b", 30, 60),
            // Runs past the parent's end: clipped to 90..100.
            rec(4, Some(1), "c", 90, 130),
            rec(5, Some(2), "leaf", 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 100 - (50 + 10));
        assert_eq!(t["a"].self_ns, 30 - 5);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 40);
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn recorder_links_children_to_their_root() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.root("request");
            let _child = root.child("connect");
        }
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        let child = records.iter().find(|r| r.name == "connect").unwrap();
        let root = records.iter().find(|r| r.name == "request").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, root.trace);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.root("request").child("connect"));
        assert!(tracer.records().is_empty());
    }
}
