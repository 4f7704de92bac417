//! In-memory spans recorded around the benchmark's calls into each
//! layer's public API.
//!
//! A span holds a name, start, end, parent and request id. Spans stay in
//! memory while the workload runs and are written out once it ends, so
//! recording costs one uncontended lock and no I/O. A disabled tracer
//! records nothing; untraced runs use one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when the tracer is disabled.
pub type SpanId = usize;

/// Returned by a disabled tracer and used as "no parent".
pub const NO_SPAN: SpanId = usize::MAX;

/// One timed call, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span with explicit bounds (open-loop requests
    /// start at their intended send time, not when the call began).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: (parent != NO_SPAN).then_some(parent),
            request,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicked thread");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent spans of its own.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(NO_SPAN);
        }
        let start = Instant::now();
        let id = self.record(name, parent, request, start, start);
        let out = f(id);
        let end = self.ns(Instant::now());
        self.spans
            .lock()
            .expect("span log poisoned by a panicked thread")[id]
            .end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicked thread")
            .clone()
    }
}

/// Runs `f` in a top-level span; returns its value and milliseconds.
pub fn timed<T, E>(
    tracer: &Tracer,
    name: &'static str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let started = Instant::now();
    let value = tracer.span(name, NO_SPAN, 0, |_| f())?;
    Ok((value, started.elapsed().as_secs_f64() * 1e3))
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Overlapping children (parallel work) are
/// merged first, so covered time is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self times grouped by span name, in recording order within a name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

/// Writes spans as JSON lines, one object per span with its self time.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{self_ns}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            // Two parallel children overlapping on 20..30, plus a
            // disjoint one: covered = [10, 40) ∪ [60, 70) = 40.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild is covered by its own parent, not the op.
            span("a.inner", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 10, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("op", 100, 200, None), span("late", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn nested_child_contained_in_sibling_is_not_double_counted() {
        let spans = vec![
            span("op", 0, 100, None),
            span("outer", 10, 90, Some(0)),
            span("inner", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", NO_SPAN, 0, |id| {
            assert_eq!(id, NO_SPAN);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_through_the_closure_id() {
        let t = Tracer::new(true);
        t.span("op", NO_SPAN, 3, |op| {
            t.span("child", op, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["op"].len(), 1);
    }
}
