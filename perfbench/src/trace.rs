//! In-memory span recorder for traced runs, and the self-time arithmetic
//! that turns spans into per-layer seconds.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the library's public functions; nothing inside the program is traced.
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine.run`.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or job identifier shared by the spans of one operation.
    pub req: u64,
}

/// A span recorder shared by the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its index (0 when disabled).
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name: name.to_string(),
            start: at(start),
            end: at(end),
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Opens a span whose children are recorded before it closes: returns
    /// the index to pass as `parent`, filled in by [`close`](Self::close).
    pub fn open(&self, name: &str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes a span returned by [`open`](Self::open) at the current time.
    pub fn close(&self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.t0.elapsed().as_secs_f64();
        self.spans.lock().expect("span list lock poisoned")[id].end = end;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(&self, name: &str, parent: Option<usize>, req: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, req, start, Instant::now());
        r
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"req\":{}}}{}\n",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            req: 0,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 5.0, 6.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 7.0) && close(t[1], 2.0) && close(t[2], 1.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children overlap on [3, 4]; a third nests inside
        // the first. The parent loses only the union [2, 6].
        let spans = [
            span("job", 0.0, 10.0, None),
            span("w1", 2.0, 4.0, Some(0)),
            span("w2", 3.0, 6.0, Some(0)),
            span("inner", 2.5, 3.5, Some(1)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 6.0), "{t:?}");
        assert!(close(t[1], 1.0), "{t:?}");
        assert!(close(t[2], 3.0), "{t:?}");
        assert!(close(t[3], 1.0), "{t:?}");
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span("p", 1.0, 2.0, None), span("c", 0.0, 1.5, Some(0))];
        let t = self_times(&spans);
        assert!(close(t[0], 0.5) && close(t[1], 1.5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let root = t.open("root", None, 1);
        t.span("child", Some(root), 1, || ());
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].end >= spans[1].end);
    }
}
