//! In-memory span recording for the traced run.
//!
//! A span is one call across a layer boundary: a name, a start and end,
//! the span that caused it, and the trace id of the request or cell it
//! belongs to. Spans are kept in memory and written once, at exit, as
//! Chrome-trace JSON (Perfetto loads it). A layer's *self time* is its
//! span's duration minus the part of that interval covered by its child
//! spans — children may run on other threads, overlap one another, or
//! outlive their parent, so coverage is the union of the children's
//! intervals clipped to the parent's.
//!
//! A disabled tracer records nothing: the untraced run pays one branch
//! per boundary.

use rmt_stats::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name, `layer.call`.
    pub name: &'static str,
    /// Request or cell this span belongs to (0: none).
    pub trace: u64,
    /// Small integer id of the recording thread.
    pub thread: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    trace: u64,
    start: Instant,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.tracer.push(
            self.id,
            self.parent,
            self.name,
            self.trace,
            self.start,
            Instant::now(),
        );
    }
}

thread_local! {
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_index() -> u64 {
    THREAD_INDEX.with(|c| {
        if c.get() == 0 {
            c.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent` in request
    /// `trace`; `f` receives the span id for its children, which may run
    /// on other threads.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            trace,
            start: Instant::now(),
        };
        f(open.id)
    }

    /// Records a span that was timed elsewhere — a job inside a library
    /// call, known only by the instants it started and ended — on the
    /// calling thread.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, trace, start, end);
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            trace,
            thread: thread_index(),
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        };
        // A poisoned store only loses spans; never panic in drop.
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time (ns) of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
            (s.id, (s.end_ns - s.start_ns) - kids)
        })
        .collect()
}

/// Self time (ns) summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += own[&s.id];
    }
    out
}

/// The spans as a Chrome-trace document (complete `X` events, times in
/// microseconds), loadable by Perfetto and `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = Json::obj()
                .with("id", Json::U64(s.id))
                .with("trace", Json::U64(s.trace));
            if let Some(p) = s.parent {
                args.set("parent", Json::U64(p));
            }
            Json::obj()
                .with("name", Json::Str(s.name.to_string()))
                .with("cat", Json::Str(layer_of(s.name).to_string()))
                .with("ph", Json::Str("X".into()))
                .with("ts", Json::F64(s.start_ns as f64 / 1e3))
                .with("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3))
                .with("pid", Json::U64(1))
                .with("tid", Json::U64(s.thread))
                .with("args", args)
        })
        .collect();
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::Str("ms".into()))
}

/// The layer part of a `layer.call` span name.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "test.span",
            trace: 7,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span(1, None, 1, 0, 100),
            span(2, Some(1), 1, 10, 30),
            span(3, Some(2), 1, 15, 20),
            span(4, Some(1), 1, 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 10);
        assert_eq!(own[&2], 20 - 5);
        assert_eq!(own[&3], 5);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn overlapping_children_on_other_threads_count_as_their_union() {
        let spans = [
            span(1, None, 1, 0, 100),
            span(2, Some(1), 2, 10, 60),
            span(3, Some(1), 3, 40, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 80, "union of [10,60) and [40,90) is 80");
        assert_eq!(own[&2], 50);
        assert_eq!(own[&3], 50);
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped() {
        let spans = [span(1, None, 1, 0, 100), span(2, Some(1), 2, 50, 150)];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 100, "the child keeps its whole duration");
    }

    #[test]
    fn recorded_spans_nest_and_sum_by_name() {
        let t = Tracer::new(true);
        t.span("outer.call", None, 1, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("inner.call", Some(outer), 1, |_| ()));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner.call").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer.call").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_ne!(inner.thread, outer.thread);
        let by_name = self_time_by_name(&spans);
        assert_eq!(
            by_name["outer.call"] + by_name["inner.call"],
            outer.end_ns - outer.start_ns
        );
    }

    #[test]
    fn a_span_timed_elsewhere_nests_under_its_parent() {
        let t = Tracer::new(true);
        t.span("outer.call", None, 3, |outer| {
            let start = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.record("inner.job", Some(outer), 3, start, Instant::now());
        });
        let spans = t.spans();
        let job = spans.iter().find(|s| s.name == "inner.job").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer.call").unwrap();
        assert_eq!((job.parent, job.trace), (Some(outer.id), 3));
        assert_ne!(job.id, outer.id);
        assert!(job.end_ns - job.start_ns >= 2_000_000);
        let own = self_times(&spans);
        assert_eq!(
            own[&outer.id],
            (outer.end_ns - outer.start_ns) - (job.end_ns - job.start_ns)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("a.b", None, 0, |_| ());
        t.record("a.c", None, 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_back_with_the_repository_codec() {
        let spans = [span(1, None, 1, 0, 2_500), span(2, Some(1), 2, 500, 1_000)];
        let text = chrome_trace(&spans).encode();
        let doc = rmt_stats::json::parse(&text).expect("chrome trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(0.5));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(args.get("trace").and_then(Json::as_u64), Some(7));
    }
}
