//! Uninstrumented seed-kernel copies for overhead measurement.
//!
//! `repro overhead` must show that the telemetry hooks threaded through
//! the kernels cost nothing measurable while tracing is *disabled*
//! (budget: ≤ 2 %).  The honest control is the kernel exactly as it
//! shipped before instrumentation, so this module carries faithful
//! copies of the pre-telemetry direction-optimizing BFS and betweenness
//! drivers: no spans, no counters, no per-level records.  Apart from
//! renames they are the seed kernels verbatim — do not "improve" them,
//! or the A/B comparison stops being an instrumentation ablation.
//!
//! The hot bodies (`push_level`, `pull_level`, `accumulate_source`) are
//! imported from the kernels crate rather than copied: both arms must
//! execute the *same compiled* hot loops, otherwise the measurement
//! picks up duplicate-codegen and code-layout luck instead of the
//! instrumentation cost (observed at several percent — larger than the
//! effect under test).  Each is non-generic, so it is compiled once, in
//! the kernels crate, and both drivers call that one symbol; the BFS
//! level bodies are also `#[inline(never)]`: a generic body gets inlined
//! into each driver separately, which put the BFS arms 2–4 % apart.
//! Only the driver loops, where every telemetry hook lives, are
//! duplicated here in their seed form.

use graphct_core::{CsrGraph, VertexId};
use graphct_kernels::betweenness::{
    accumulate_source, select_sources, BetweennessConfig, BetweennessResult, Workspace,
};
use graphct_kernels::bfs::{pull_level, push_level, refresh_unvisited};
use graphct_kernels::{decide_direction, BfsConfig, Direction, FrontierKind, UNREACHED};
use graphct_mt::{AtomicU32Array, Frontier};
use rayon::prelude::*;

/// Seed-era BFS result: levels plus aggregate work statistics (the seed
/// had no per-level records).
pub struct SeedBfsRun {
    /// Level of each vertex (`UNREACHED` where not reachable).
    pub levels: Vec<u32>,
    /// Direction chosen for each executed level.
    pub directions: Vec<Direction>,
    /// Edge inspections performed across the whole traversal.
    pub edges_inspected: usize,
}

/// The seed `HybridBfs`, minus telemetry.
pub struct SeedHybridBfs<'g> {
    graph: &'g CsrGraph,
    transpose: Option<CsrGraph>,
    degrees: Vec<usize>,
    config: BfsConfig,
}

impl<'g> SeedHybridBfs<'g> {
    /// Engine with an explicit config (mirrors
    /// `HybridBfs::with_config`).
    pub fn with_config(graph: &'g CsrGraph, config: BfsConfig) -> Self {
        let transpose = (graph.is_directed() && config.may_pull()).then(|| graph.transpose());
        Self {
            graph,
            transpose,
            degrees: graph.degrees(),
            config,
        }
    }

    /// BFS levels from `source` (the timed entry point).
    pub fn levels(&self, source: VertexId) -> Vec<u32> {
        self.run(source).levels
    }

    /// The seed `HybridBfs::run` loop, line for line.
    pub fn run(&self, source: VertexId) -> SeedBfsRun {
        let n = self.graph.num_vertices();
        assert!((source as usize) < n, "source vertex out of range");
        assert!(
            self.config.frontier != FrontierKind::Bitmap,
            "bitmap sweep is not part of the overhead ablation"
        );
        let levels = AtomicU32Array::filled(n, UNREACHED);
        levels.store(source as usize, 0);
        let mut frontier = Frontier::sparse(vec![source]);
        let mut depth = 0u32;
        let mut frontier_edges = self.degrees[source as usize];
        let mut unexplored_edges = self.graph.num_arcs().saturating_sub(frontier_edges);
        let mut direction = Direction::Push;
        let mut directions = Vec::new();
        let mut edges_inspected = 0usize;
        let mut unvisited: Vec<VertexId> = Vec::new();
        let mut unvisited_built = false;
        while !frontier.is_empty() {
            direction = decide_direction(
                &self.config,
                direction,
                frontier.len(),
                frontier_edges,
                unexplored_edges,
                n,
            );
            directions.push(direction);
            let next = match direction {
                Direction::Push => {
                    edges_inspected += frontier_edges;
                    push_level(self.graph, &frontier.into_sparse(), &levels, depth + 1)
                }
                Direction::Pull => {
                    refresh_unvisited(&levels, n, &mut unvisited, &mut unvisited_built);
                    let (next, inspected) = pull_level(
                        self.transpose.as_ref().unwrap_or(self.graph),
                        &levels,
                        depth,
                        &unvisited,
                    );
                    edges_inspected += inspected;
                    next
                }
            };
            frontier_edges = next.edge_weight(&self.degrees);
            unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
            frontier = next;
            depth += 1;
        }
        SeedBfsRun {
            levels: levels.into_vec(),
            directions,
            edges_inspected,
        }
    }
}

/// The seed `betweenness_centrality` driver, minus telemetry: identical
/// source selection, chunking, accumulation order and rescaling, with
/// the Brandes accumulation itself (`accumulate_source`) imported from
/// the kernels crate so both arms of the overhead ablation execute the
/// same compiled hot loops.  Only the driver — where the bc span and the
/// per-source progress events live — is duplicated in its seed form.
pub fn seed_betweenness(graph: &CsrGraph, config: &BetweennessConfig) -> BetweennessResult {
    let n = graph.num_vertices();
    let sources = select_sources(graph, &config.sampling);
    if n == 0 || sources.is_empty() {
        return BetweennessResult {
            scores: vec![0.0; n],
            sources,
        };
    }

    let transpose;
    let predecessors: &CsrGraph = if graph.is_directed() {
        transpose = graph.transpose();
        &transpose
    } else {
        graph
    };

    let degrees = graph.degrees();
    let chunk = (sources.len() / (rayon::current_num_threads() * 4).max(1)).max(1);
    let mut scores = sources
        .par_chunks(chunk)
        .map(|chunk_sources| {
            let mut ws = Workspace::new(n);
            let mut local = vec![0.0f64; n];
            for &s in chunk_sources {
                accumulate_source(
                    graph,
                    predecessors,
                    s,
                    &config.bfs,
                    &degrees,
                    &mut ws,
                    &mut local,
                );
            }
            local
        })
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                a
            },
        );

    let mut scale = 1.0;
    if config.rescale && sources.len() < n {
        scale *= n as f64 / sources.len() as f64;
    }
    if config.halve_undirected && !graph.is_directed() {
        scale *= 0.5;
    }
    if scale != 1.0 {
        scores.par_iter_mut().for_each(|s| *s *= scale);
    }

    BetweennessResult { scores, sources }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_kernels::HybridBfs;

    #[test]
    fn seed_copy_matches_instrumented_kernel() {
        let edges = graphct_gen::rmat_edges(&graphct_gen::RmatConfig::paper(9, 8), 7);
        let g = build_undirected_simple(&edges).unwrap();
        for kind in [
            FrontierKind::Queue,
            FrontierKind::Push,
            FrontierKind::Hybrid,
        ] {
            let config = BfsConfig::from_kind(kind);
            let seed = SeedHybridBfs::with_config(&g, config);
            let current = HybridBfs::with_config(&g, config);
            for src in [0u32, 3, 17] {
                let a = seed.run(src);
                let b = current.run(src);
                assert_eq!(a.levels, b.levels, "{kind:?} levels diverge");
                assert_eq!(a.directions, b.directions, "{kind:?} directions diverge");
                assert_eq!(
                    a.edges_inspected, b.edges_inspected,
                    "{kind:?} work metric diverges"
                );
            }
        }
    }

    #[test]
    fn seed_betweenness_matches_instrumented_kernel() {
        use graphct_kernels::betweenness::{betweenness_centrality, SamplingSpec};

        let edges = graphct_gen::rmat_edges(&graphct_gen::RmatConfig::paper(9, 8), 7);
        let g = build_undirected_simple(&edges).unwrap();
        let config = BetweennessConfig {
            sampling: SamplingSpec::count(24, 5),
            bfs: BfsConfig::hybrid(),
            ..BetweennessConfig::exact()
        };
        let seed = seed_betweenness(&g, &config);
        let current = betweenness_centrality(&g, &config).unwrap();
        assert_eq!(seed.sources, current.sources, "source selection diverges");
        // Identical operations in identical order: bitwise equality, not
        // epsilon tolerance.
        assert_eq!(seed.scores, current.scores, "scores diverge");
    }
}
