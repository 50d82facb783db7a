//! In-memory spans recorded around calls into each layer.
//!
//! Each thread records into its own [`SpanLog`]; the logs merge into one
//! [`Trace`] when the run ends, which is then written out and reduced to
//! per-layer metrics. A span's *self time* is its duration minus the part
//! of its interval covered by its children (children on several threads
//! may overlap; their union is subtracted once).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `kernel.apply`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The shared clock and id source of one trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    next_id: Arc<AtomicU64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), next_id: Arc::new(AtomicU64::new(1)) }
    }
}

impl Tracer {
    /// A fresh log for one thread.
    pub fn log(&self) -> SpanLog {
        SpanLog { tracer: self.clone(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    tracer: Tracer,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Start a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>) -> Open {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start_ns: self.tracer.now_ns() }
    }

    /// End a span; returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end_ns = self.tracer.now_ns().max(open.start_ns);
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        let d = Duration::from_nanos(span.duration_ns());
        self.spans.push(span);
        d
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }
}

/// All spans of a run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Merge per-thread logs.
    pub fn merge(logs: impl IntoIterator<Item = SpanLog>) -> Trace {
        let mut spans: Vec<Span> = logs.into_iter().flat_map(|l| l.spans).collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace { spans }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Memory the spans occupy: what tracing adds to the run's footprint.
    pub fn memory_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<Span>()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration_ns() as f64).sum::<f64>() / 1e9
    }

    /// Durations of spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Self times of spans named `name`, in milliseconds.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.named(name)
            .map(|s| {
                let covered =
                    children.get_mut(&s.id).map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
                (s.duration_ns() - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Write one tab-separated line per span: id, parent (0 = none), name,
    /// start and end in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.unwrap_or(0);
            writeln!(out, "{}\t{parent}\t{}\t{}\t{}", s.id, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = Trace {
            spans: vec![
                span(1, None, "query", 0, 100),
                // Two overlapping children on different threads cover
                // [10, 50); a third covers [80, 90).
                span(2, Some(1), "stream", 10, 40),
                span(3, Some(1), "stream", 20, 50),
                span(4, Some(1), "stream", 80, 90),
                // A grandchild is not subtracted from the query.
                span(5, Some(2), "read", 10, 30),
            ],
        };
        assert_eq!(trace.self_times_ms("query"), vec![50.0 / 1e6]);
        assert_eq!(trace.self_times_ms("stream"), vec![10.0 / 1e6, 30.0 / 1e6, 10.0 / 1e6]);
        assert_eq!(trace.named("stream").count(), 3);
        assert!((trace.total_s("stream") - 70.0 / 1e9).abs() < 1e-18);
    }

    #[test]
    fn logs_merge_across_threads() {
        let tracer = Tracer::default();
        let mut a = tracer.log();
        let root = a.begin("root", None);
        let root_id = root.id();
        let b = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut b = tracer.log();
                    b.time("child", Some(root_id), || std::hint::black_box(1 + 1));
                    b
                })
                .join()
                .expect("child thread")
        });
        a.end(root);
        let trace = Trace::merge([a, b]);
        assert_eq!(trace.named("root").count(), 1);
        assert_eq!(trace.named("child").next().and_then(|s| s.parent), Some(root_id));
        assert!(trace.self_times_ms("root")[0] <= trace.durations_ms("root")[0]);
    }
}
