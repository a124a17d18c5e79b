//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and for a
//! serve job the job's id. Spans stay in memory until the run ends; then
//! they are written out and reduced to per-name totals and self times. A
//! disabled recorder runs the spanned code and records nothing, so the
//! untraced runs that give the end-to-end metrics pay for no tracing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.borrow().last().copied());
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name: name.to_owned(),
            job: None,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        out
    }

    /// Records a span from timestamps taken elsewhere (the frames of a
    /// serve job arrive on a client thread) and returns its id, or `None`
    /// when tracing is off.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_owned(),
            job,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        Some(id)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock is never poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock is never poisoned").clone()
    }
}

/// Per-name totals: summed duration and summed self time, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub total_s: f64,
    pub self_s: f64,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (they can run on
/// different threads), so the covered part is the union of their
/// intervals, clipped to the parent's.
#[must_use]
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Reduces spans to per-name [`Totals`].
#[must_use]
pub fn reduce(spans: &[Span]) -> BTreeMap<String, Totals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for span in spans {
        let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let totals = out.entry(span.name.clone()).or_default();
        totals.total_s += span.duration_ns() as f64 / 1e9;
        totals.self_s += self_time_ns(span, kids) as f64 / 1e9;
    }
    out
}

/// The spans as JSON lines, one object per span.
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |n| n.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.job),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.to_owned(), job: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, "root", 0, 100);
        let a = span(2, Some(1), "a", 10, 30);
        let b = span(3, Some(1), "b", 50, 60);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 70);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers' spans overlap on 20..30; the union covers 10..40.
        let root = span(1, None, "root", 0, 100);
        let a = span(2, Some(1), "a", 10, 30);
        let b = span(3, Some(1), "b", 20, 40);
        let nested = span(4, Some(1), "c", 12, 18);
        assert_eq!(self_time_ns(&root, &[&a, &b, &nested]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(1, None, "root", 10, 20);
        let late = span(2, Some(1), "late", 15, 40);
        let early = span(3, Some(1), "early", 0, 12);
        assert_eq!(self_time_ns(&root, &[&late, &early]), 3);
        assert_eq!(self_time_ns(&root, &[]), 10);
    }

    #[test]
    fn reduce_sums_by_name_and_only_direct_children_count() {
        let spans = vec![
            span(1, None, "exp", 0, 100),
            span(2, Some(1), "render", 60, 80),
            span(3, Some(2), "inner", 65, 70),
            span(4, None, "exp", 200, 250),
            span(5, Some(4), "render", 240, 250),
        ];
        let totals = reduce(&spans);
        let exp = totals["exp"];
        assert!((exp.total_s - 150e-9).abs() < 1e-15);
        assert!((exp.self_s - 120e-9).abs() < 1e-15);
        let render = totals["render"];
        assert!((render.total_s - 30e-9).abs() < 1e-15);
        assert!((render.self_s - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_calls_record_their_parent_and_disabled_records_nothing() {
        let tracer = Tracer::new(true);
        let value = tracer.span("outer", || tracer.span("inner", || 7));
        assert_eq!(value, 7);
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 3), 3);
        assert!(off.record("y", None, Some(1), Instant::now(), Instant::now()).is_none());
        assert!(off.spans().is_empty());
    }
}
