//! The benchmark's own spans: name, start, end, parent and request id,
//! kept in memory and written out once when the run ends.
//!
//! Spans are recorded around calls into the program's public functions
//! (one per layer boundary the benchmark can see from outside).  A
//! disabled recorder (untraced runs) stores nothing.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one request, 0 outside requests.
    pub request: u64,
    /// Layer-qualified name, e.g. `kernels.bc`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store, shared by reference across load threads.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Does this recorder keep spans?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserve a span id (for a parent whose children finish first).
    pub fn open(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Record span `name` over `[start, end]` with id `id` (from
    /// [`open`](Self::open); 0 assigns a fresh one).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.open() } else { id };
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Time `f` as span `name` under `parent`; returns `f`'s value and the
    /// elapsed seconds (measured whether or not the recorder is enabled).
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.record(0, name, parent, 0, start, end);
        (value, end.duration_since(start).as_secs_f64())
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line to `path`.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Share of `root`'s duration that none of its direct children cover
/// (children are assumed not to overlap, as sequential calls do).
pub fn unattributed_share(spans: &[Span], root: u64) -> f64 {
    let Some(r) = spans.iter().find(|s| s.id == root) else {
        return f64::NAN;
    };
    let total = (r.end_ns - r.start_ns) as f64;
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == root)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if total <= 0.0 {
        return f64::NAN;
    }
    1.0 - covered as f64 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let (v, secs) = rec.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn children_reconcile_against_their_root() {
        let rec = Recorder::new(true);
        let t0 = Instant::now();
        let root = rec.open();
        let ms = |n| t0 + Duration::from_millis(n);
        rec.record(0, "a", root, 0, ms(0), ms(60));
        rec.record(0, "b", root, 0, ms(60), ms(90));
        rec.record(0, "grandchild", 99, 0, ms(0), ms(90));
        rec.record(root, "root", 0, 0, ms(0), ms(100));
        let share = unattributed_share(&rec.spans(), root);
        assert!((share - 0.1).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn flush_writes_one_json_object_per_span() {
        let rec = Recorder::new(true);
        let t = Instant::now();
        rec.record(0, "loadgen.request", 0, 42, t, t);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        rec.flush(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let line = graphct_trace::json::parse(text.trim()).unwrap();
        assert_eq!(line.get("request").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            line.get("name").and_then(|v| v.as_str()),
            Some("loadgen.request")
        );
    }
}
