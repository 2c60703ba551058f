//! The process's peak live heap, from the counting allocator.
//!
//! `graphct_trace::Session::start` restarts the allocator's high-water
//! mark, and every server and traced pass starts a session.  So the
//! benchmark folds the allocator's peak into its own maximum just before
//! each session starts ([`note`]) and reads the total at the end
//! ([`peak_mib`]).

use std::sync::atomic::{AtomicU64, Ordering};

static PEAK: AtomicU64 = AtomicU64::new(0);

/// Fold the allocator's high-water mark into the process peak.  Call
/// before anything that starts a telemetry session.
pub fn note() {
    PEAK.fetch_max(graphct_trace::alloc::peak_bytes(), Ordering::Relaxed);
}

/// Run `f` without letting its allocations count towards the peak:
/// for the benchmark's own checks, which the program does not run.
pub fn excluded<T>(f: impl FnOnce() -> T) -> T {
    note();
    let out = f();
    graphct_trace::alloc::reset_peak();
    out
}

/// Peak live heap of the process so far, in MiB (0 unless the binary
/// installed `graphct_trace::CountingAllocator`).
pub fn peak_mib() -> f64 {
    note();
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
