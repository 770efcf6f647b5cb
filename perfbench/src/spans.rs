//! Spans around the benchmark's calls into each layer.
//!
//! The same [`Tracer`] times every call in both modes. Disabled, it only
//! reads the clock, so the untraced run pays for one `Instant` pair per
//! call. Enabled, it also keeps a [`Span`] per call in memory; the spans
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// What was called (`run`, `stream_feed`, `shrink_case`, ...).
    pub name: &'static str,
    /// What it was called on (a scheme slug), or empty.
    pub label: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// An open span: what [`Tracer::open`] hands back for
/// [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    label: &'static str,
    start: Instant,
}

impl Open {
    /// Id to pass as `parent` to nested spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Span recorder, shareable across worker threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that keeps spans when `enabled`, and only times calls
    /// otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// Start timing a call.
    pub fn open(&self, name: &'static str, label: &'static str, parent: u64) -> Open {
        let id = if self.enabled { self.next.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Open { id, parent, name, label, start: Instant::now() }
    }

    /// Stop timing a call; returns its duration in ns.
    pub fn close(&self, open: Open) -> u64 {
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                label: open.label,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("a thread panicked while recording a span").push(span);
        }
        dur
    }

    /// Time `f` as one span; `f` gets the span id for its children.
    pub fn time<R>(
        &self,
        name: &'static str,
        label: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, u64) {
        let open = self.open(name, label, parent);
        let out = f(open.id());
        (out, self.close(open))
    }

    /// Every span kept so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("a thread panicked while recording a span").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (workers
/// running cases side by side), so the covered part is the length of the
/// union of their intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per span name: `(calls, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += selfs[&s.id];
    }
    out
}

/// Write spans as JSON lines, self time included.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","label":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id, s.parent, s.name, s.label, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", label: "", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two workers side by side: [10, 50) and [30, 70) cover 60 ns.
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            // Nested inside child 3 only: charged to 3, not to 1.
            span(4, 3, 40, 60),
            // Sticks out past the parent: only [90, 100) is covered.
            span(5, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60 - 10);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 40 - 20);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&5], 30);
    }

    #[test]
    fn self_time_of_nested_and_disjoint_children() {
        let spans = [span(1, 0, 0, 50), span(2, 1, 0, 10), span(3, 1, 20, 30), span(4, 1, 25, 28)];
        assert_eq!(self_times(&spans)[&1], 30);
        let summary = summarize(&spans);
        assert_eq!(summary["s"], (4, 50 + 10 + 10 + 3, 30 + 10 + 10 + 3));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tracer = Tracer::new(false);
        let (v, _) = tracer.time("call", "", 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true);
        tracer.time("outer", "", 0, |outer| {
            tracer.time("inner", "x", outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
