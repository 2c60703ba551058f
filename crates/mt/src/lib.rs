//! # graphct-mt — multithreaded substrate for GraphCT-rs
//!
//! The original GraphCT targets the Cray XMT, whose programming model rests
//! on three pillars (paper §II-B): a globally addressable shared memory,
//! light-weight hardware threads, and cheap word-level synchronization —
//! chiefly the atomic *fetch-and-add* and the more exotic *full/empty bit*
//! primitives.
//!
//! This crate is the commodity-multicore analog of that substrate.  It
//! provides:
//!
//! * [`AtomicF64Array`], [`AtomicUsizeArray`], [`AtomicU32Array`] — shared
//!   arrays with fetch-and-add / fetch-min, the only synchronization the
//!   paper's kernels require (§II-B: "The only synchronization operation
//!   required ... is an atomic fetch-and-add").
//! * [`AtomicBitmap`] — a concurrent bit set used for BFS `visited` flags.
//! * [`AtomicBitMatrix`] — one atomic `u64` lane word per vertex, the
//!   visited/frontier state of a 64-wide multi-source BFS batch.
//! * [`Frontier`] — sparse/dense BFS frontier with degree-weighted size
//!   tracking and queue↔bitmap repacking for direction-optimizing
//!   traversal.
//! * [`prefix`] — parallel prefix sums used when packing frontiers and
//!   building CSR offsets.
//! * [`histogram`] — parallel counting/histogram reductions.
//! * [`rng`] — deterministic splittable seeding so that parallel runs are
//!   reproducible regardless of thread schedule.
//! * [`reduce`] — small parallel reduction helpers (sum/max/argmax).
//!
//! Everything here is independent of the graph data structures; the kernels
//! crate composes these primitives with rayon parallel loops, mirroring how
//! GraphCT composes XMT compiler pragmas with fetch-and-add.

pub mod atomic_array;
pub mod bitmap;
pub mod bitmat;
pub mod frontier;
pub mod histogram;
pub mod prefix;
pub mod reduce;
pub mod rng;

pub use atomic_array::{AtomicF64Array, AtomicU32Array, AtomicUsizeArray};
pub use bitmap::AtomicBitmap;
pub use bitmat::AtomicBitMatrix;
pub use frontier::Frontier;

/// Register the calling thread and every rayon worker with the
/// continuous profiler's thread registry
/// ([`graphct_trace::register_current_thread`]), so wall-clock samples
/// taken while kernels run attribute to named kernel spans instead of
/// an unregistered (never-sampled) thread.  Idempotent and cheap — a
/// thread-local no-op after the first call per thread — so kernels call
/// it at entry.
pub fn register_profiling_threads() {
    use rayon::prelude::*;
    graphct_trace::register_current_thread();
    // Touch each pool worker.  Under the vendored sequential rayon this
    // runs on the calling thread (already registered); under a real
    // work-stealing pool the per-item closures land on pool threads.
    (0..rayon::current_num_threads().max(1))
        .into_par_iter()
        .for_each(|_| graphct_trace::register_current_thread());
}
