//! End-to-end and per-layer benchmark of GraphCT-rs.
//!
//! Two workloads — the paper's analyze-then-rank path at 1 Sep 2009
//! size, and the live `/v1` query plane under a dashboard mix, each with
//! a flat-out ingest phase — run as one process each, check the
//! program's answers, and print one JSON result line.  See `README.md` in this
//! directory for what each metric means and which layer should move it.

pub mod analyze;
pub mod heap;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workloads;
