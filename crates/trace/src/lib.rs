//! graphct-trace: structured kernel telemetry for GraphCT-rs.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero disabled overhead.**  Every instrumentation point —
//!    `span!`, `event!`, `Counter::add` — starts with one relaxed load of
//!    a process-global [`AtomicBool`]; when no session is active nothing
//!    else runs (the `span!`/`event!` macros do not even evaluate their
//!    field expressions).  `repro overhead` proves the compiled-in cost
//!    against faithful pre-instrumentation kernel copies
//!    (`BENCH_OVERHEAD.json`).
//! 2. **Zero dependencies.**  std only, so the crate can sit under every
//!    other workspace crate without cycles or registry access.
//! 3. **Pluggable output.**  A [`Session`] binds one [`Sink`]:
//!    [`NullSink`] (counters only), [`JsonLinesSink`] (machine-readable
//!    stream), [`SummarySink`] (human-readable hierarchy at exit), or
//!    [`PrometheusSink`] (text exposition format).
//!
//! # Usage
//!
//! ```
//! use std::sync::Arc;
//! let (sink, buffer) = graphct_trace::JsonLinesSink::to_buffer();
//! let session = graphct_trace::Session::start(Arc::new(sink));
//! {
//!     let _span = graphct_trace::span!("bfs", src = 0u64);
//!     graphct_trace::event!("bfs_level", level = 0u64, frontier = 1u64);
//! }
//! session.finish();
//! let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
//! assert_eq!(graphct_trace::schema::validate_jsonl(&text), Ok(3));
//! ```
//!
//! Event schema and span naming conventions are documented in DESIGN.md
//! § Observability.

pub mod alloc;
pub mod analyze;
pub mod counter;
pub mod event;
pub mod histogram;
pub mod json;
pub mod live;
pub mod profile;
pub mod schema;
pub mod sink;
pub mod span;
pub mod value;

pub use alloc::CountingAllocator;
pub use counter::{snapshot_metrics, thread_ordinal, Counter, Gauge, GaugeF64, MetricSnapshot};
pub use event::{Event, EventKind};
pub use histogram::{Histogram, HistogramSnapshot};
pub use live::{render_prometheus, Registry, Snapshot, SpanTotal};
pub use profile::{profiler, register_current_thread, Profiler};
pub use sink::{JsonLinesSink, NullSink, PrometheusSink, SharedBuffer, Sink, SummarySink};
pub use span::{span_enter, SpanGuard};
pub use value::Value;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The one branch every instrumentation point takes.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes sessions: process-global state (metrics, the sink slot)
/// belongs to one session at a time, so concurrent `Session::start` calls
/// (e.g. parallel tests in one binary) queue here.
static SESSION_SERIAL: Mutex<()> = Mutex::new(());

/// The active sink, present between `Session::start` and finish.
static ACTIVE_SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

/// Start of the most recent session; kept after finish so late records
/// (end-of-session counter lines) still get sensible timestamps.
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Peak live heap during the session (needs [`CountingAllocator`]
/// installed in the binary; stays 0 otherwise).
static PEAK_LIVE_BYTES: Gauge = Gauge::new(
    "peak_live_bytes",
    "Peak live heap bytes during the session (requires CountingAllocator)",
);

/// Is a trace session active?  Relaxed load; the entire disabled-path
/// cost of the telemetry layer.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the current (or last) session started.
pub(crate) fn now_us() -> u64 {
    EPOCH
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .map(|epoch| epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Route one record to the active sink (no-op when none).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit(
    kind: EventKind,
    name: &str,
    span: u64,
    parent: u64,
    thread: u64,
    elapsed_ns: Option<u64>,
    fields: &[(&str, Value)],
) {
    let sink = {
        let slot = ACTIVE_SINK.lock().unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            Some(sink) => Arc::clone(sink),
            None => return,
        }
        // Lock released here: serialization/aggregation happens outside it
        // so emitting threads only contend on the sink's own locks.
    };
    sink.record(&Event {
        ts_us: now_us(),
        kind,
        name,
        span,
        parent,
        thread,
        elapsed_ns,
        fields,
    });
}

/// Emit a point event inside the current span.  Prefer the
/// [`event!`](crate::event!) macro, which skips field evaluation when
/// tracing is disabled.
pub fn point(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    emit(
        EventKind::Point,
        name,
        span::current_span(),
        span::current_parent(),
        thread_ordinal() as u64,
        None,
        fields,
    );
}

/// Emit a pre-binned histogram (`edges[i]` is the inclusive lower bound
/// of bin `i`; `edges` and `counts` must be the same length).
pub fn histogram(name: &str, edges: &[u64], counts: &[u64]) {
    if !enabled() {
        return;
    }
    debug_assert_eq!(edges.len(), counts.len());
    let fields = [
        ("edges", Value::U64s(edges.to_vec())),
        ("counts", Value::U64s(counts.to_vec())),
    ];
    emit(
        EventKind::Histogram,
        name,
        span::current_span(),
        span::current_parent(),
        thread_ordinal() as u64,
        None,
        &fields,
    );
}

/// An active trace session: installs a sink, enables collection, and on
/// [`finish`](Session::finish) (or drop) disables collection, reports
/// final metric totals, and lets the sink render.
///
/// Sessions serialize process-wide; starting one blocks until any other
/// session (on any thread) has finished.
pub struct Session {
    _serial: MutexGuard<'static, ()>,
    finished: bool,
}

impl Session {
    /// Begin tracing into `sink`.  Metrics reset to zero so the session
    /// reports its own totals; the allocator peak restarts from the
    /// current live figure.
    pub fn start(sink: Arc<dyn Sink>) -> Session {
        let serial = SESSION_SERIAL
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        counter::reset_metrics();
        alloc::reset_peak();
        *EPOCH.lock().unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
        *ACTIVE_SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
        ENABLED.store(true, Ordering::Relaxed);
        Session {
            _serial: serial,
            finished: false,
        }
    }

    /// End the session: disable collection, snapshot metrics, and hand
    /// them to the sink's `finish`.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        // Record the allocator high-water mark while still enabled so the
        // gauge registers itself.
        if alloc::peak_bytes() > 0 {
            PEAK_LIVE_BYTES.set(alloc::peak_bytes());
        }
        ENABLED.store(false, Ordering::Relaxed);
        let sink = ACTIVE_SINK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(sink) = sink {
            sink.finish(&snapshot_metrics());
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// Open a named span; returns a [`SpanGuard`] that closes it on drop.
///
/// ```
/// # use std::sync::Arc;
/// # let session = graphct_trace::Session::start(Arc::new(graphct_trace::NullSink));
/// let _span = graphct_trace::span!("bc_forward", src = 17u64);
/// # session.finish();
/// ```
///
/// Field expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_enter($name, &[$((stringify!($key), $crate::Value::from($val))),*])
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Emit a point event with structured fields inside the current span.
/// Field expressions are not evaluated when tracing is disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::point($name, &[$((stringify!($key), $crate::Value::from($val))),*]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("trace_lib_test_counter", "test counter");

    #[test]
    fn disabled_by_default_and_counters_noop() {
        // No session on this thread: adds are dropped (another test's
        // session could race in this binary, so only assert when idle).
        let _serial = SESSION_SERIAL
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert!(!enabled());
        let before = TEST_COUNTER.value();
        TEST_COUNTER.add(5);
        assert_eq!(TEST_COUNTER.value(), before);
    }

    #[test]
    fn session_collects_spans_events_and_counters() {
        let (sink, buffer) = JsonLinesSink::to_buffer();
        let session = Session::start(Arc::new(sink));
        {
            let outer = span!("outer", src = 3u64);
            let outer_id = outer.id();
            assert!(outer_id > 0);
            {
                let inner = span!("inner");
                assert!(inner.id() > outer_id);
                event!("tick", n = 1u64);
            }
            TEST_COUNTER.add(7);
        }
        histogram("h", &[1, 2], &[10, 20]);
        session.finish();

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let records = schema::validate_jsonl(&text).unwrap();
        // 2 enters + 2 exits + 1 point + 1 histogram + >=1 counter line.
        assert!(records >= 7, "{text}");

        let lines: Vec<json::Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        let point = lines
            .iter()
            .find(|v| v.get("kind").and_then(json::Json::as_str) == Some("point"))
            .unwrap();
        // The point was emitted inside "inner": its span is the inner id
        // and its parent is the outer id.
        let inner_enter = lines
            .iter()
            .find(|v| v.get("name").and_then(json::Json::as_str) == Some("inner"))
            .unwrap();
        assert_eq!(point.get("span"), inner_enter.get("span"));
        assert_eq!(point.get("parent"), inner_enter.get("parent"));
        let counter_line = lines
            .iter()
            .find(|v| v.get("name").and_then(json::Json::as_str) == Some("trace_lib_test_counter"))
            .unwrap();
        assert_eq!(
            counter_line
                .get("fields")
                .and_then(|f| f.get("value"))
                .and_then(json::Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn sessions_reset_metrics_between_runs() {
        {
            let session = Session::start(Arc::new(NullSink));
            TEST_COUNTER.add(100);
            assert_eq!(TEST_COUNTER.value(), 100);
            session.finish();
        }
        {
            let session = Session::start(Arc::new(NullSink));
            assert_eq!(TEST_COUNTER.value(), 0, "metrics must reset per session");
            session.finish();
        }
    }

    #[test]
    fn drop_finishes_session() {
        let (sink, buffer) = JsonLinesSink::to_buffer();
        {
            let _session = Session::start(Arc::new(sink));
            TEST_COUNTER.add(1);
        } // dropped, not finish()ed
        assert!(!enabled());
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert!(text.contains("trace_lib_test_counter"), "{text}");
    }
}
