//! # GraphCT-rs — massive social network analysis in Rust
//!
//! A reproduction of *"Massive Social Network Analysis: Mining Twitter
//! for Social Good"* (Ediger, Jiang, Riedy, Bader, Corley, Farber,
//! Reynolds — ICPP 2010): the **GraphCT** graph characterization toolkit,
//! re-built on commodity multicore (rayon + atomics) in place of the
//! Cray XMT, together with a synthetic Twitter-crisis corpus generator
//! standing in for the paper's proprietary Spinn3r feed.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`](graphct_core) — static CSR graphs, builders, subgraphs,
//!   DIMACS/binary/edge-list I/O, vertex labels, and the locality engine
//!   (vertex permutations + cache-friendly reordering passes).
//! * [`mt`](graphct_mt) — the multithreaded substrate: atomic arrays
//!   with fetch-and-add, bitmaps, prefix sums.
//! * [`kernels`](graphct_kernels) — BFS, connected components,
//!   betweenness centrality (exact / sampled), k-betweenness, k-cores,
//!   clustering coefficients, degree statistics, diameter estimation.
//! * [`gen`](graphct_gen) — R-MAT, Erdős–Rényi, preferential
//!   attachment, broadcast forests, planted communities, classics.
//! * [`twitter`](graphct_twitter) — tweet parsing, the synthetic crisis
//!   stream generator, the tweet-to-graph pipeline, conversation
//!   filtering, dataset profiles (`h1n1`, `atlflood`, `sep1`).
//! * [`metrics`](graphct_metrics) — top-k set overlap / normalized set
//!   Hamming distance, Kendall tau, power-law fitting.
//! * [`script`](graphct_script) — the GraphCT analysis-script
//!   interpreter with its stack-based graph memory.
//! * [`trace`](graphct_trace) — structured telemetry: spans, sharded
//!   counters, JSON-lines / summary / Prometheus sinks, live registry
//!   snapshots, the offline trace-analysis toolkit (flame / critical-path
//!   / imbalance / diff), and the record-schema + Prometheus-exposition
//!   validators (see DESIGN.md § Observability).
//! * [`obs`](graphct_obs) — the live monitoring plane: std-only HTTP
//!   exporter serving `/metrics`, `/healthz`, and `/progress` while
//!   `graphct serve` drives the synthetic tweet stream through a
//!   sliding-window streaming graph (see DESIGN.md § Live monitoring
//!   plane).
//!
//! ## Quickstart
//!
//! ```
//! use graphct::prelude::*;
//!
//! // Build a small mention graph and rank actors by betweenness.
//! let edges = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3), (1, 3)]);
//! let graph = build_undirected_simple(&edges).unwrap();
//! let bc = betweenness_centrality(&graph, &BetweennessConfig::exact()).unwrap();
//! let top = top_k_indices(&bc.scores, 2);
//! assert_eq!(top.len(), 2);
//! ```

pub use graphct_core as core;
pub use graphct_gen as gen;
pub use graphct_kernels as kernels;
pub use graphct_metrics as metrics;
pub use graphct_mt as mt;
pub use graphct_obs as obs;
pub use graphct_script as script;
pub use graphct_stream as stream;
pub use graphct_trace as trace;
pub use graphct_twitter as twitter;

/// The most common imports in one line.
pub mod prelude {
    pub use graphct_core::builder::{build_directed_simple, build_undirected_simple};
    pub use graphct_core::{
        CompressedCsr, CsrGraph, DuplicatePolicy, EdgeList, GraphBuilder, GraphError, GraphView,
        MmapCsr, Permutation, ReorderKind, ReorderedView, SelfLoopPolicy, VertexId, VertexLabels,
    };
    pub use graphct_kernels::{
        betweenness_centrality, bfs_levels, clustering_coefficients, connected_components,
        core_numbers, degree_statistics, estimate_diameter, k_betweenness_centrality,
        kcore_subgraph, parallel_bfs_levels, parallel_bfs_with, sequential_bfs_levels,
        BetweennessConfig, BfsConfig, ComponentSummary, FrontierKind, HybridBfs,
        KBetweennessConfig, SamplingSpec, SamplingStrategy, SourceSelection,
    };
    pub use graphct_metrics::{fit_power_law, kendall_tau, top_k_indices, top_k_overlap};
    pub use graphct_script::Engine;
    pub use graphct_stream::{
        EdgeUpdate, IncrementalClustering, IncrementalComponents, StreamingGraph,
    };
    pub use graphct_twitter::{
        build_tweet_graph, generate_stream, mutual_mention_filter, DatasetProfile, StreamConfig,
        Tweet,
    };
}
