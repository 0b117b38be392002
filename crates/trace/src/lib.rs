//! Zero-dependency structured tracing for the planning stack.
//!
//! A [`Tracer`] is a cheap clonable handle onto a shared span collector.
//! Spans are opened with an explicit parent (no thread-local ambient
//! context), carry typed key/value attributes, and close on drop — so a
//! single trace can stitch together work that hops threads: the HTTP
//! connection worker, the service worker pool and the planner's scoped
//! search threads all record into the same collector with monotonic
//! timestamps from one shared origin.
//!
//! Cost model: a disabled tracer ([`Tracer::off`], the default everywhere)
//! carries no collector at all — every API call is a `None` check. An
//! allocated collector can additionally be switched off at runtime via an
//! atomic flag ([`Tracer::set_enabled`]), which reduces every span site to
//! one relaxed atomic load. The benchmark reports what tracing costs as
//! `trace.overhead_frac`.
//!
//! Exporters: [`Trace::to_chrome_json`] emits Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`), [`Trace::render_tree`] a
//! human-readable span tree.

mod chrome;
mod tree;

use dpipe_sync::LockRecoverTagged;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span, used to parent children onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Str(String),
    UInt(u64),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One finished span as stored in the collector.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Collector-unique id (dense, starting at 1).
    pub id: u64,
    /// Parent span id, or `None` for a root.
    pub parent: Option<u64>,
    pub name: String,
    /// Start offset from the collector origin, microseconds.
    pub start_us: u64,
    /// End offset from the collector origin, microseconds.
    pub end_us: u64,
    /// Dense per-thread label (first thread to record is 1, ...).
    pub thread: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Names [`Collector::finished`] in the lock witness's panic.
const COLLECTOR_FINISHED_TAG: &str = "trace::Collector::finished";

struct Collector {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    finished: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    fn micros_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }
}

/// Dense thread labels so exporters get small stable `tid`s instead of
/// opaque OS thread ids.
fn thread_label() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LABEL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LABEL.with(|label| *label)
}

/// Cheap clonable handle onto a shared span collector; see the crate docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Collector>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer with a live collector whose time origin is "now".
    pub fn new() -> Self {
        Self::starting_at(Instant::now())
    }

    /// A tracer whose time origin is `origin` — lets spans cover work that
    /// happened before the tracer existed (e.g. time spent in the accept
    /// queue before the request was sampled).
    pub fn starting_at(origin: Instant) -> Self {
        Tracer {
            inner: Some(Arc::new(Collector {
                enabled: AtomicBool::new(true),
                origin,
                next_id: AtomicU64::new(1),
                finished: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer: no collector, every call is a `None` check.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|c| c.enabled.load(Ordering::Relaxed))
    }

    /// Toggles recording at runtime. No-op without a collector.
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(collector) = &self.inner {
            collector.enabled.store(enabled, Ordering::Relaxed);
        }
    }

    fn active(&self) -> Option<&Arc<Collector>> {
        self.inner
            .as_ref()
            .filter(|c| c.enabled.load(Ordering::Relaxed))
    }

    /// Opens a root span starting now.
    pub fn span(&self, name: &str) -> Span {
        self.span_full(name, None, Instant::now())
    }

    /// Opens a root span whose start time is backdated to `start`.
    pub fn span_at(&self, name: &str, start: Instant) -> Span {
        self.span_full(name, None, start)
    }

    /// Opens a span under `parent` (pass `None` for a root) starting now.
    pub fn child_span(&self, name: &str, parent: Option<SpanId>) -> Span {
        self.span_full(name, parent, Instant::now())
    }

    fn span_full(&self, name: &str, parent: Option<SpanId>, start: Instant) -> Span {
        let Some(collector) = self.active() else {
            return Span { active: None };
        };
        let id = collector.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            active: Some(ActiveSpan {
                collector: Arc::clone(collector),
                id,
                parent: parent.map(|p| p.0),
                name: name.to_owned(),
                start,
                attrs: Vec::new(),
            }),
        }
    }

    /// Records an already-elapsed interval as a finished span — for phases
    /// whose boundaries were observed before/without an open guard (e.g.
    /// the single-flight wait measured by the cache).
    pub fn record_between(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let collector = self.active()?;
        let id = collector.next_id.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent: parent.map(|p| p.0),
            name: name.to_owned(),
            start_us: collector.micros_since_origin(start),
            end_us: collector.micros_since_origin(end),
            thread: thread_label(),
            attrs: Vec::new(),
        };
        collector
            .finished
            .lock_recover_tagged(COLLECTOR_FINISHED_TAG)
            .push(record);
        Some(SpanId(id))
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        let spans = match &self.inner {
            Some(collector) => collector
                .finished
                .lock_recover_tagged(COLLECTOR_FINISHED_TAG)
                .clone(),
            None => Vec::new(),
        };
        Trace::from_spans(spans)
    }

    /// Drains the collector, leaving it empty (and still enabled).
    pub fn take(&self) -> Trace {
        let spans = match &self.inner {
            Some(collector) => std::mem::take(
                &mut *collector
                    .finished
                    .lock_recover_tagged(COLLECTOR_FINISHED_TAG),
            ),
            None => Vec::new(),
        };
        Trace::from_spans(spans)
    }
}

struct ActiveSpan {
    collector: Arc<Collector>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    attrs: Vec<(String, AttrValue)>,
}

/// RAII guard for an open span; records into the collector on drop (or
/// [`Span::finish`]). A no-op span (from a disabled tracer) does nothing.
#[derive(Default)]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// A no-op span, equivalent to one opened on a disabled tracer.
    pub fn none() -> Self {
        Span { active: None }
    }

    /// This span's id, or `None` when not recording.
    pub fn id(&self) -> Option<SpanId> {
        self.active.as_ref().map(|a| SpanId(a.id))
    }

    /// Attaches (or appends) a typed attribute.
    pub fn set(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key.to_owned(), value.into()));
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_us: active.collector.micros_since_origin(active.start),
            end_us: active.collector.micros_since_origin(end),
            thread: thread_label(),
            attrs: active.attrs,
        };
        active
            .collector
            .finished
            .lock_recover_tagged(COLLECTOR_FINISHED_TAG)
            .push(record);
    }
}

/// An immutable snapshot of recorded spans, sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    fn from_spans(mut spans: Vec<SpanRecord>) -> Self {
        spans.sort_by_key(|s| (s.start_us, s.id));
        Trace { spans }
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The first span (by start time) with this name.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with this name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `id`, in start order.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Fraction (0.0–1.0) of the span's duration covered by the union of
    /// its direct children's intervals (clipped to the parent). A span
    /// with zero duration counts as fully covered.
    pub fn child_coverage(&self, id: u64) -> f64 {
        let Some(parent) = self.spans.iter().find(|s| s.id == id) else {
            return 0.0;
        };
        let duration = parent.duration_us();
        if duration == 0 {
            return 1.0;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_us.clamp(parent.start_us, parent.end_us),
                    s.end_us.clamp(parent.start_us, parent.end_us),
                )
            })
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = parent.start_us;
        for (start, end) in intervals {
            let from = start.max(cursor);
            if end > from {
                covered += end - from;
                cursor = end;
            }
        }
        covered as f64 / duration as f64
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, timestamps in
    /// microseconds) — loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// A human-readable span tree with durations and attributes.
    pub fn render_tree(&self) -> String {
        tree::render_tree(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        let mut span = tracer.span("root");
        assert_eq!(span.id(), None);
        span.set("k", 1u64);
        drop(span);
        tracer.record_between("x", None, Instant::now(), Instant::now());
        assert!(tracer.snapshot().is_empty());
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn runtime_flag_stops_recording() {
        let tracer = Tracer::new();
        drop(tracer.span("before"));
        tracer.set_enabled(false);
        assert!(!tracer.is_enabled());
        drop(tracer.span("while_off"));
        tracer.set_enabled(true);
        drop(tracer.span("after"));
        let trace = tracer.snapshot();
        assert_eq!(trace.len(), 2);
        assert!(trace.find("while_off").is_none());
    }

    #[test]
    fn nesting_attributes_and_timing() {
        let tracer = Tracer::new();
        let mut root = tracer.span("root");
        root.set("model", "sd");
        root.set("batch", 256u32);
        let root_id = root.id();
        {
            let mut child = tracer.child_span("child", root_id);
            child.set("ok", true);
            std::thread::sleep(Duration::from_millis(2));
        }
        root.finish();
        let trace = tracer.take();
        assert_eq!(trace.len(), 2);
        let root = trace.find("root").unwrap();
        let child = trace.find("child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start_us >= root.start_us);
        assert!(child.end_us <= root.end_us);
        assert!(child.duration_us() >= 1_000, "slept 2ms: {child:?}");
        assert_eq!(root.attr("model"), Some(&AttrValue::Str("sd".into())));
        assert_eq!(root.attr("batch"), Some(&AttrValue::UInt(256)));
        assert_eq!(child.attr("ok"), Some(&AttrValue::Bool(true)));
        // take() drained the collector.
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn spans_from_other_threads_share_the_collector() {
        let tracer = Tracer::new();
        let root_id = {
            let root = tracer.span("root");
            let id = root.id();
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let tracer = tracer.clone();
                    std::thread::spawn(move || {
                        let mut span = tracer.child_span("work", id);
                        span.set("worker", i as u64);
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            id
        };
        let trace = tracer.snapshot();
        assert_eq!(trace.len(), 5);
        let children = trace.children_of(root_id.unwrap().0);
        assert_eq!(children.len(), 4);
        let threads: std::collections::HashSet<u64> = children.iter().map(|c| c.thread).collect();
        assert!(
            threads.len() > 1,
            "workers should get distinct thread labels"
        );
    }

    #[test]
    fn backdated_and_recorded_spans() {
        let origin = Instant::now() - Duration::from_millis(10);
        let tracer = Tracer::starting_at(origin);
        let root = tracer.span_at("request", origin);
        let root_id = root.id();
        let waited = tracer.record_between(
            "queue_wait",
            root_id,
            origin,
            origin + Duration::from_millis(3),
        );
        assert!(waited.is_some());
        drop(root);
        let trace = tracer.take();
        let request = trace.find("request").unwrap();
        let wait = trace.find("queue_wait").unwrap();
        assert_eq!(request.start_us, 0);
        assert_eq!(wait.start_us, 0);
        assert!((2_500..=3_500).contains(&wait.end_us), "{wait:?}");
        assert!(request.duration_us() >= 10_000);
    }

    #[test]
    fn child_coverage_unions_overlap_and_clips() {
        let mk = |id, parent, start_us, end_us| SpanRecord {
            id,
            parent,
            name: format!("s{id}"),
            start_us,
            end_us,
            thread: 1,
            attrs: Vec::new(),
        };
        // Parent [0, 100]; children [0,40], [30,60] (overlap), [90,150]
        // (clipped to 100): union covers 0..60 + 90..100 = 70%.
        let trace = Trace::from_spans(vec![
            mk(1, None, 0, 100),
            mk(2, Some(1), 0, 40),
            mk(3, Some(1), 30, 60),
            mk(4, Some(1), 90, 150),
        ]);
        let coverage = trace.child_coverage(1);
        assert!((coverage - 0.70).abs() < 1e-9, "{coverage}");
        assert_eq!(trace.child_coverage(2), 0.0);
        assert_eq!(trace.child_coverage(999), 0.0);
    }
}
