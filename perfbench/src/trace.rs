//! In-memory span recording for the traced run.
//!
//! A span has a name, a start and an end (ns since the tracer was made),
//! the span that caused it and a request id shared by the spans of one
//! request. Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written out when the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op when disabled, so
/// the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; finish it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span id, to pass as the parent of child spans (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn begin(&self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                request,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and records it.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f(open.id);
        self.end(open);
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }

    /// Per-span-name self-time summary over every recorded span.
    pub fn summary(&self) -> Summary {
        Summary::from_spans(&self.spans())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self times per span name.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self time of every span, in ns, grouped by name.
    pub self_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Summary {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut self_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            self_ns
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() - covered);
        }
        Self { self_ns }
    }

    /// Self times of spans named `name`, in the unit `scale` ns.
    pub fn values(&self, name: &str, scale: f64) -> Vec<f64> {
        self.self_ns
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 / scale).collect())
            .unwrap_or_default()
    }

    /// Total self time of spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| v.iter().map(|&ns| ns as f64).sum())
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.self_ns.get(name).map_or(0, Vec::len)
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        };
        // Two overlapping children (parallel work) and one disjoint.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            span(4, 1, 80, 90),
        ];
        let summary = Summary::from_spans(&spans);
        assert_eq!(summary.self_ns["root"], vec![100 - 40 - 10]);
        assert_eq!(summary.count("child"), 3);
    }
}
