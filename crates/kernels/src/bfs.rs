//! Breadth-first search.
//!
//! The workhorse traversal: every path-based kernel (betweenness,
//! diameter estimation, component extraction by script) is built on a
//! level-synchronous BFS.  The engine is *direction-optimizing* (Beamer
//! et al., SC'12): sparse frontiers expand top-down ("push"), dense
//! frontiers are absorbed bottom-up ("pull"), and [`HybridBfs`] switches
//! per level based on how many edges each step would inspect.  The
//! legacy push-only queue and bitmap sweeps remain available as forced
//! modes for ablation (the bench crate measures all three).
//!
//! [`HybridBfs`] is **the** BFS engine: construct it once per graph
//! (caching the degree table and, when needed, the transpose) and call
//! [`HybridBfs::levels`] or [`HybridBfs::run`] per source.  The free
//! functions [`bfs_levels`], [`parallel_bfs_levels`] and
//! [`parallel_bfs_with`] survive as thin convenience wrappers that
//! construct a throwaway engine — fine for one-off searches, wasteful
//! in loops; new code should hold a `HybridBfs`.
//! [`sequential_bfs_levels`] is deliberately *not* a wrapper: it is the
//! textbook queue implementation kept as the independent verification
//! oracle and ablation control.

use graphct_core::{CsrGraph, GraphView, VertexId};
use graphct_mt::{AtomicBitmap, AtomicU32Array, Frontier};
use rayon::prelude::*;

/// Level value for vertices not reached by the search.
pub const UNREACHED: u32 = u32::MAX;

/// Default push→pull threshold: switch to bottom-up when the frontier's
/// incident edges exceed `1/alpha` of the edges incident to unexplored
/// vertices.
pub const DEFAULT_ALPHA: f64 = 15.0;

/// Default pull→push threshold: switch back to top-down when the
/// frontier shrinks below `1/beta` of all vertices.
pub const DEFAULT_BETA: f64 = 18.0;

/// Frontier / direction policy for [`parallel_bfs_levels`].
///
/// A level-synchronous BFS can expand a level two ways:
///
/// * **push** (top-down): scan the out-edges of every frontier vertex and
///   claim unvisited targets — work proportional to the edges incident to
///   the frontier, ideal while the frontier is sparse;
/// * **pull** (bottom-up): scan the in-edges of every *unvisited* vertex
///   and stop at the first neighbor on the frontier — cheaper once the
///   frontier is dense, because most unvisited vertices find a frontier
///   parent within a few probes and claimed vertices need no atomics.
///
/// [`FrontierKind::Hybrid`] switches per level using the
/// edges-in-frontier vs. unexplored-edges heuristic documented on
/// [`BfsConfig`]; the other variants force a single strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierKind {
    /// Push-only with a packed vertex queue (work proportional to the
    /// frontier; best for the persistently sparse frontiers of
    /// high-diameter graphs, and the classic GraphCT formulation).
    Queue,
    /// Push-only driven by a full-vertex bitmap sweep: each level scans
    /// all vertices and expands members of the frontier bitmap (legacy
    /// mode kept for ablation; superseded by `Pull` on dense frontiers).
    Bitmap,
    /// Force top-down expansion on every level (alias of `Queue`
    /// semantics inside the hybrid engine).
    Push,
    /// Force bottom-up expansion on every level.  Requires in-neighbors:
    /// on directed graphs [`HybridBfs`] materializes the transpose.
    Pull,
    /// Direction-optimizing: start pushing, switch to pull when the
    /// frontier becomes edge-dense, switch back when it thins out.
    #[default]
    Hybrid,
}

impl std::str::FromStr for FrontierKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "queue" => Ok(FrontierKind::Queue),
            "bitmap" => Ok(FrontierKind::Bitmap),
            "push" => Ok(FrontierKind::Push),
            "pull" => Ok(FrontierKind::Pull),
            "hybrid" => Ok(FrontierKind::Hybrid),
            other => Err(format!(
                "unknown frontier kind `{other}` (expected queue|bitmap|push|pull|hybrid)"
            )),
        }
    }
}

/// Tuning for the direction-optimizing BFS.
///
/// With `m_f` = edges incident to the current frontier, `m_u` = edges
/// incident to still-unexplored vertices, `n_f` = frontier vertex count
/// and `n` = total vertices, the per-level switch criterion is:
///
/// * push → pull when `m_f > m_u / alpha` — the frontier is about to
///   inspect a large share of the remaining edges, so probing unvisited
///   vertices bottom-up (with early exit at the first frontier parent)
///   inspects fewer;
/// * pull → push when `n_f < n / beta` — the frontier has thinned to the
///   point that sweeping every unvisited vertex costs more than pushing
///   the few frontier edges directly.
///
/// `alpha`/`beta` default to [`DEFAULT_ALPHA`]/[`DEFAULT_BETA`] (the
/// values from Beamer's GAP reference implementation).  Larger `alpha`
/// lowers the edge threshold and switches to pull *sooner*; larger
/// `beta` lowers the vertex threshold and keeps pulling *longer*.  A
/// level with no unexplored edges left always pushes (the remaining
/// frontier edges are cheaper than any bottom-up sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsConfig {
    /// Direction policy (forced push/pull/legacy, or per-level hybrid).
    pub frontier: FrontierKind,
    /// Push→pull threshold on the edge ratio `m_f / m_u`.
    pub alpha: f64,
    /// Pull→push threshold on the vertex ratio `n / n_f`.
    pub beta: f64,
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self {
            frontier: FrontierKind::default(),
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
        }
    }
}

impl BfsConfig {
    /// Direction-optimizing config with default thresholds.
    pub fn hybrid() -> Self {
        Self::default()
    }

    /// Force top-down (push) expansion on every level.
    pub fn push_only() -> Self {
        Self {
            frontier: FrontierKind::Push,
            ..Self::default()
        }
    }

    /// Force bottom-up (pull) expansion on every level.
    pub fn pull_only() -> Self {
        Self {
            frontier: FrontierKind::Pull,
            ..Self::default()
        }
    }

    /// Config equivalent to a bare [`FrontierKind`] with default
    /// thresholds.
    pub fn from_kind(kind: FrontierKind) -> Self {
        Self {
            frontier: kind,
            ..Self::default()
        }
    }

    /// Replace the push→pull threshold.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Replace the pull→push threshold.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        self.beta = beta;
        self
    }

    /// `true` when this config can ever take a bottom-up step (and thus
    /// needs in-neighbor access).
    pub fn may_pull(&self) -> bool {
        matches!(self.frontier, FrontierKind::Pull | FrontierKind::Hybrid)
    }
}

/// Expansion direction a level was (or will be) processed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Top-down: frontier vertices push to unvisited out-neighbors.
    Push,
    /// Bottom-up: unvisited vertices pull from frontier in-neighbors.
    Pull,
}

impl Direction {
    /// Stable name used in telemetry records ("push" / "pull").
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        }
    }
}

/// Decision inputs and outcome for one executed BFS level.
///
/// Holds exactly the arguments [`decide_direction`] saw before the level
/// ran, so a recorded traversal is *replayable*: feeding the previous
/// level's direction and this record's inputs back through
/// [`decide_direction`] must reproduce `direction`.  The `--trace` CLI
/// path emits these as `bfs_level` events, and a test replays the
/// heuristic from the emitted telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelRecord {
    /// Depth of the frontier being expanded (source is depth 0).
    pub level: u32,
    /// Direction the heuristic chose for this level.
    pub direction: Direction,
    /// Vertices on the frontier before expansion (`n_f`).
    pub frontier_vertices: usize,
    /// Edges incident to the frontier before expansion (`m_f`).
    pub frontier_edges: usize,
    /// Edges incident to still-unexplored vertices (`m_u`).
    pub unexplored_edges: usize,
    /// Edges actually inspected while expanding this level.
    pub edges_inspected: usize,
}

/// Result of [`HybridBfs::run`]: levels plus per-level traversal stats.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Level of each vertex (`UNREACHED` where not reachable).
    pub levels: Vec<u32>,
    /// Direction chosen for each executed level.
    pub directions: Vec<Direction>,
    /// Edge inspections performed across the whole traversal — the work
    /// metric the direction switch optimizes (push levels inspect every
    /// frontier edge; pull levels stop early at the first frontier
    /// parent).
    pub edges_inspected: usize,
    /// Per-level decision inputs and work (same length as `directions`).
    pub level_records: Vec<LevelRecord>,
}

/// Sequential textbook BFS levels from `source` (`UNREACHED` where not
/// reachable).
///
/// This is deliberately *not* routed through [`HybridBfs`]: a plain
/// `VecDeque` traversal with no direction heuristic, no atomics and no
/// telemetry, kept as the independent verification oracle the test
/// suites compare every other traversal against, and as the ablation
/// control the bench crate times.
pub fn sequential_bfs_levels<G: GraphView>(graph: &G, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut levels = vec![UNREACHED; n];
    levels[source as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        for v in graph.neighbors_iter(u) {
            if levels[v as usize] == UNREACHED {
                levels[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// BFS levels from `source`.
///
/// **Deprecated-by-convention** (kept attribute-free to avoid churn in
/// downstream `#[deny(warnings)]` builds): new code should construct a
/// [`HybridBfs`] and call [`HybridBfs::levels`] — this wrapper builds a
/// throwaway engine per call.  For the sequential oracle semantics this
/// function used to implement directly, see [`sequential_bfs_levels`].
pub fn bfs_levels(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    HybridBfs::new(graph).levels(source)
}

/// Reusable direction-optimizing BFS engine, generic over any
/// [`GraphView`] backend (heap CSR, reordered, memory-mapped,
/// compressed).  `G` defaults to [`CsrGraph`], so existing call sites
/// read unchanged.
///
/// Construction caches the degree table and, for directed graphs under a
/// pull-capable config, the transpose (in-neighbor CSR) — so callers
/// that run many searches over one graph (diameter sampling, betweenness
/// source loops) pay those costs once.  On undirected graphs the
/// symmetric adjacency serves both directions and no transpose is built.
pub struct HybridBfs<'g, G: GraphView = CsrGraph> {
    graph: &'g G,
    /// In-neighbor view for directed graphs; `None` when `graph` is its
    /// own transpose (undirected) or the config never pulls.  Always a
    /// heap CSR regardless of backend: it is derived data this engine
    /// owns, not a view of the caller's storage.
    transpose: Option<CsrGraph>,
    degrees: Vec<usize>,
    config: BfsConfig,
}

impl<'g, G: GraphView> HybridBfs<'g, G> {
    /// Engine with the default (hybrid) config.
    pub fn new(graph: &'g G) -> Self {
        Self::with_config(graph, BfsConfig::default())
    }

    /// Engine with an explicit config.
    pub fn with_config(graph: &'g G, config: BfsConfig) -> Self {
        let transpose = (graph.is_directed() && config.may_pull()).then(|| graph.transpose_csr());
        Self {
            graph,
            transpose,
            degrees: graph.degrees(),
            config,
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &BfsConfig {
        &self.config
    }

    /// The graph the engine traverses.
    pub fn graph(&self) -> &'g G {
        self.graph
    }

    /// The cached transpose, when the config and directedness required
    /// one.  [`crate::msbfs::MsBfs`] pulls through this so batched
    /// traversals reuse the transpose this engine already built.
    pub fn cached_transpose(&self) -> Option<&CsrGraph> {
        self.transpose.as_ref()
    }

    /// The cached degree table (degrees paid once).
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// BFS levels from `source`; identical output to
    /// [`sequential_bfs_levels`] for every config.
    pub fn levels(&self, source: VertexId) -> Vec<u32> {
        self.run(source).levels
    }

    /// BFS from `source` with per-level direction and work statistics.
    pub fn run(&self, source: VertexId) -> BfsRun {
        let n = self.graph.num_vertices();
        assert!((source as usize) < n, "source vertex out of range");
        if self.config.frontier == FrontierKind::Bitmap {
            return self.run_bitmap_sweep(source);
        }
        let _bfs_span = if graphct_trace::enabled() {
            self.open_bfs_span(source, n)
        } else {
            graphct_trace::SpanGuard::disabled()
        };
        let levels = AtomicU32Array::filled(n, UNREACHED);
        levels.store(source as usize, 0);
        let mut frontier = Frontier::sparse(vec![source]);
        let mut depth = 0u32;
        // Beamer bookkeeping: edges incident to the frontier vs. edges
        // incident to unexplored vertices.
        let mut frontier_edges = self.degrees[source as usize];
        let mut unexplored_edges = self.graph.num_arcs().saturating_sub(frontier_edges);
        let mut direction = Direction::Push;
        let mut directions = Vec::new();
        let mut level_records = Vec::new();
        let mut edges_inspected = 0usize;
        let mut push_edges = 0usize;
        let mut pull_edges = 0usize;
        // Unvisited-vertex list for pull levels, built lazily at the
        // first bottom-up step and shrunk before each later one (claims
        // made by intervening push levels are filtered out by the same
        // retain, so the list never goes stale).
        let mut unvisited: Vec<VertexId> = Vec::new();
        let mut unvisited_built = false;
        while !frontier.is_empty() {
            let frontier_vertices = frontier.len();
            direction = self.choose_direction(
                direction,
                frontier_vertices,
                frontier_edges,
                unexplored_edges,
                n,
            );
            directions.push(direction);
            let wave_start = graphct_trace::enabled().then(std::time::Instant::now);
            let level_inspected;
            let next = match direction {
                Direction::Push => {
                    level_inspected = frontier_edges;
                    push_edges += frontier_edges;
                    self.push_level(&frontier.into_sparse(), &levels, depth + 1)
                }
                Direction::Pull => {
                    refresh_unvisited(&levels, n, &mut unvisited, &mut unvisited_built);
                    let (next, inspected) = self.pull_level(&levels, depth, &unvisited);
                    level_inspected = inspected;
                    pull_edges += inspected;
                    next
                }
            };
            if let Some(t) = wave_start {
                crate::telemetry::BFS_WAVE_NS.record_duration(t.elapsed());
            }
            edges_inspected += level_inspected;
            let record = LevelRecord {
                level: depth,
                direction,
                frontier_vertices,
                frontier_edges,
                unexplored_edges,
                edges_inspected: level_inspected,
            };
            if graphct_trace::enabled() {
                emit_level_event(&record);
            }
            level_records.push(record);
            frontier_edges = next.edge_weight(&self.degrees);
            unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
            frontier = next;
            depth += 1;
        }
        let run = BfsRun {
            levels: levels.into_vec(),
            directions,
            edges_inspected,
            level_records,
        };
        if graphct_trace::enabled() {
            self.report_run_telemetry(&run, push_edges, pull_edges);
        }
        run
    }

    /// The traced-run span open, kept out of line so the untraced hot
    /// path carries none of the field-formatting code.
    #[cold]
    #[inline(never)]
    fn open_bfs_span(&self, source: VertexId, n: usize) -> graphct_trace::SpanGuard {
        graphct_mt::register_profiling_threads();
        graphct_trace::span!(
            "bfs",
            src = source,
            vertices = n,
            mode = format!("{:?}", self.config.frontier),
        )
    }

    /// End-of-run counters and the frontier-size histogram.  Everything
    /// here is behind one `enabled()` check, so untraced runs skip it.
    #[cold]
    #[inline(never)]
    fn report_run_telemetry(&self, run: &BfsRun, push_edges: usize, pull_edges: usize) {
        if !graphct_trace::enabled() {
            return;
        }
        crate::telemetry::BFS_EDGES_SCANNED_PUSH.add(push_edges as u64);
        crate::telemetry::BFS_EDGES_SCANNED_PULL.add(pull_edges as u64);
        let pushes = run
            .directions
            .iter()
            .filter(|&&d| d == Direction::Push)
            .count();
        crate::telemetry::BFS_LEVELS_PUSH.add(pushes as u64);
        crate::telemetry::BFS_LEVELS_PULL.add((run.directions.len() - pushes) as u64);
        let visited = run.levels.iter().filter(|&&l| l != UNREACHED).count();
        crate::telemetry::BFS_VERTICES_VISITED.add(visited as u64);
        let frontier_sizes: Vec<usize> = run
            .level_records
            .iter()
            .map(|r| r.frontier_vertices)
            .collect();
        if !frontier_sizes.is_empty() {
            let (edges, counts) = graphct_mt::histogram::log_binned_counts(&frontier_sizes, 2.0);
            let edges: Vec<u64> = edges.iter().map(|&e| e as u64).collect();
            let counts: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
            graphct_trace::histogram("bfs_frontier_size", &edges, &counts);
        }
    }

    /// Per-level direction decision (see [`BfsConfig`] for the
    /// criterion).
    fn choose_direction(
        &self,
        current: Direction,
        frontier_vertices: usize,
        frontier_edges: usize,
        unexplored_edges: usize,
        num_vertices: usize,
    ) -> Direction {
        decide_direction(
            &self.config,
            current,
            frontier_vertices,
            frontier_edges,
            unexplored_edges,
            num_vertices,
        )
    }

    /// Top-down step.  A CSR-backed graph runs the one out-of-line
    /// [`push_level`] body the seed baseline also calls; other backends
    /// get their own instance of the same loop.
    fn push_level(&self, frontier: &[VertexId], levels: &AtomicU32Array, depth: u32) -> Frontier {
        match self.graph.as_csr() {
            Some(csr) => push_level(csr, frontier, levels, depth),
            None => push_level_in(self.graph, frontier, levels, depth),
        }
    }

    /// Bottom-up step over the cached transpose, or the graph itself
    /// when it is its own transpose; routed like [`Self::push_level`].
    fn pull_level(
        &self,
        levels: &AtomicU32Array,
        depth: u32,
        unvisited: &[VertexId],
    ) -> (Frontier, usize) {
        match self.transpose.as_ref().or(self.graph.as_csr()) {
            Some(csr) => pull_level(csr, levels, depth, unvisited),
            None => pull_level_in(self.graph, levels, depth, unvisited),
        }
    }

    /// Legacy full-vertex bitmap sweep (push work discovered by scanning
    /// all vertices each level), kept for ablation comparisons.
    fn run_bitmap_sweep(&self, source: VertexId) -> BfsRun {
        let n = self.graph.num_vertices();
        let levels = AtomicU32Array::filled(n, UNREACHED);
        levels.store(source as usize, 0);
        let mut current = AtomicBitmap::new(n);
        current.set(source as usize);
        let mut depth = 0u32;
        let mut frontier_size = 1usize;
        let mut directions = Vec::new();
        let mut level_records = Vec::new();
        let mut unexplored_edges = self
            .graph
            .num_arcs()
            .saturating_sub(self.degrees[source as usize]);
        let mut edges_inspected = 0usize;
        while frontier_size > 0 {
            directions.push(Direction::Push);
            let next = AtomicBitmap::new(n);
            let next_depth = depth + 1;
            let (claimed, inspected) = (0..n)
                .into_par_iter()
                .map(|u| {
                    if !current.get(u) {
                        return (0usize, 0usize);
                    }
                    let mut count = 0;
                    for v in self.graph.neighbors_iter(u as VertexId) {
                        if levels
                            .compare_exchange(v as usize, UNREACHED, next_depth)
                            .is_ok()
                        {
                            next.set(v as usize);
                            count += 1;
                        }
                    }
                    (count, self.degrees[u])
                })
                .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            level_records.push(LevelRecord {
                level: depth,
                direction: Direction::Push,
                frontier_vertices: frontier_size,
                frontier_edges: inspected,
                unexplored_edges,
                edges_inspected: inspected,
            });
            current = next;
            frontier_size = claimed;
            depth = next_depth;
            edges_inspected += inspected;
            unexplored_edges = unexplored_edges.saturating_sub(inspected);
        }
        let run = BfsRun {
            levels: levels.into_vec(),
            directions,
            edges_inspected,
            level_records,
        };
        self.report_run_telemetry(&run, edges_inspected, 0);
        run
    }
}

impl HybridBfs<'_, CsrGraph> {
    /// The in-neighbor CSR pull levels scan: the cached transpose on
    /// directed graphs, the (symmetric) graph itself otherwise.  Only
    /// the plain-CSR engine can lend the graph itself as a CSR; other
    /// backends expose the transpose via
    /// [`HybridBfs::cached_transpose`].
    pub fn in_csr(&self) -> &CsrGraph {
        self.transpose.as_ref().unwrap_or(self.graph)
    }
}

/// The per-level direction decision shared by [`HybridBfs`] and the
/// level-synchronous forward passes of the betweenness kernels (see
/// [`BfsConfig`] for the criterion).
///
/// Public so recorded traversals are replayable offline: feeding a
/// [`LevelRecord`]'s inputs (and the previous level's direction) back
/// through this function must reproduce the recorded direction — the
/// property the telemetry replay test asserts from emitted `bfs_level`
/// events.
pub fn decide_direction(
    config: &BfsConfig,
    current: Direction,
    frontier_vertices: usize,
    frontier_edges: usize,
    unexplored_edges: usize,
    num_vertices: usize,
) -> Direction {
    match config.frontier {
        FrontierKind::Queue | FrontierKind::Bitmap | FrontierKind::Push => Direction::Push,
        FrontierKind::Pull => Direction::Pull,
        FrontierKind::Hybrid => match current {
            Direction::Push
                if unexplored_edges > 0
                    && frontier_edges as f64 > unexplored_edges as f64 / config.alpha =>
            {
                Direction::Pull
            }
            Direction::Pull if (frontier_vertices as f64) < num_vertices as f64 / config.beta => {
                Direction::Push
            }
            unchanged => unchanged,
        },
    }
}

/// Per-level telemetry record, kept out of line so the untraced hot
/// path carries none of the field-formatting code.
#[cold]
#[inline(never)]
fn emit_level_event(record: &LevelRecord) {
    graphct_trace::event!(
        "bfs_level",
        level = record.level,
        dir = record.direction.as_str(),
        frontier_vertices = record.frontier_vertices,
        frontier_edges = record.frontier_edges,
        unexplored_edges = record.unexplored_edges,
        edges_inspected = record.edges_inspected,
    );
}

/// Maintain the unvisited-vertex list for pull levels: built at the
/// first bottom-up step, shrunk (dropping vertices claimed by
/// intervening push levels) before each later one, so the list never
/// goes stale.
///
/// Exposed (hidden) for the bench seed baseline — see [`pull_level`].
#[doc(hidden)]
pub fn refresh_unvisited(
    levels: &AtomicU32Array,
    n: usize,
    unvisited: &mut Vec<VertexId>,
    built: &mut bool,
) {
    if *built {
        unvisited.retain(|&v| levels.load(v as usize) == UNREACHED);
    } else {
        *unvisited = (0..n as VertexId)
            .filter(|&v| levels.load(v as usize) == UNREACHED)
            .collect();
        *built = true;
    }
}

/// Bottom-up step: every vertex in `unvisited` probes its in-neighbors
/// (`in_csr` is the transpose, or the graph itself when undirected) for
/// a parent on the `depth` frontier, stopping at the first hit.  Only
/// the probing task writes a given vertex's level, so a plain store
/// suffices (no claim contention, unlike push).  The caller guarantees
/// `unvisited` holds exactly the vertices with no level yet.
///
/// Non-generic and never inlined, so it is compiled exactly once, here.
/// Exposed (hidden) so the bench crate's uninstrumented seed baseline
/// calls the same compiled body as [`HybridBfs`] — the overhead
/// ablation must differ only in the instrumentation, not in duplicate
/// codegen or code layout of the hot loops.
#[doc(hidden)]
#[inline(never)]
pub fn pull_level(
    in_csr: &CsrGraph,
    levels: &AtomicU32Array,
    depth: u32,
    unvisited: &[VertexId],
) -> (Frontier, usize) {
    pull_level_in(in_csr, levels, depth, unvisited)
}

/// [`pull_level`] over any backend.
#[inline]
fn pull_level_in<G: GraphView>(
    in_csr: &G,
    levels: &AtomicU32Array,
    depth: u32,
    unvisited: &[VertexId],
) -> (Frontier, usize) {
    let n = in_csr.num_vertices();
    let next = AtomicBitmap::new(n);
    let (claimed, inspected) = unvisited
        .par_iter()
        .map(|&v| {
            let mut probes = 0usize;
            for u in in_csr.neighbors_iter(v) {
                probes += 1;
                if levels.load(u as usize) == depth {
                    levels.store(v as usize, depth + 1);
                    next.set(v as usize);
                    return (1usize, probes);
                }
            }
            (0, probes)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (Frontier::dense(next, claimed), inspected)
}

/// Top-down step: frontier vertices claim unvisited out-neighbors via
/// compare-exchange on the level array (the atomic-claim idiom standing
/// in for the XMT's synchronized memory words).
///
/// Compiled once and exposed for the bench seed baseline, like
/// [`pull_level`].
#[doc(hidden)]
#[inline(never)]
pub fn push_level(
    graph: &CsrGraph,
    frontier: &[VertexId],
    levels: &AtomicU32Array,
    next_depth: u32,
) -> Frontier {
    push_level_in(graph, frontier, levels, next_depth)
}

/// [`push_level`] over any backend.
#[inline]
fn push_level_in<G: GraphView>(
    graph: &G,
    frontier: &[VertexId],
    levels: &AtomicU32Array,
    next_depth: u32,
) -> Frontier {
    let next: Vec<VertexId> = frontier
        .par_iter()
        .flat_map_iter(|&u| graph.neighbors_iter(u))
        .filter(|&v| {
            levels
                .compare_exchange(v as usize, UNREACHED, next_depth)
                .is_ok()
        })
        .collect();
    Frontier::sparse(next)
}

/// Parallel level-synchronous BFS from `source`.
///
/// **Deprecated-by-convention** (kept attribute-free to avoid churn in
/// downstream `#[deny(warnings)]` builds): a thin wrapper over
/// [`HybridBfs`], which new code should construct directly.  Output is
/// identical to [`sequential_bfs_levels`] for every [`FrontierKind`];
/// the kind only changes how each level is expanded.  This convenience
/// rebuilds the degree table — and, for directed graphs under
/// pull-capable kinds, the transpose — per call.
pub fn parallel_bfs_levels<G: GraphView>(
    graph: &G,
    source: VertexId,
    frontier: FrontierKind,
) -> Vec<u32> {
    HybridBfs::with_config(graph, BfsConfig::from_kind(frontier)).levels(source)
}

/// Parallel BFS with explicit direction-optimization tuning.
///
/// **Deprecated-by-convention**: thin wrapper over [`HybridBfs`]; see
/// [`parallel_bfs_levels`].
pub fn parallel_bfs_with<G: GraphView>(
    graph: &G,
    source: VertexId,
    config: &BfsConfig,
) -> Vec<u32> {
    HybridBfs::with_config(graph, *config).levels(source)
}

/// BFS limited to `max_depth` levels — GraphCT's "marking a breadth-first
/// search from a given vertex of a given length" kernel (paper §IV-A).
/// Vertices further than `max_depth` stay `UNREACHED`.
pub fn bfs_levels_bounded<G: GraphView>(graph: &G, source: VertexId, max_depth: u32) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let levels = AtomicU32Array::filled(n, UNREACHED);
    levels.store(source as usize, 0);
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() && depth < max_depth {
        let next_depth = depth + 1;
        frontier = frontier
            .par_iter()
            .flat_map_iter(|&u| graph.neighbors_iter(u))
            .filter(|&v| {
                levels
                    .compare_exchange(v as usize, UNREACHED, next_depth)
                    .is_ok()
            })
            .collect();
        depth = next_depth;
    }
    levels.into_vec()
}

/// The eccentricity observed by a BFS: the maximum finite level.
/// Returns 0 for an isolated source.
pub fn max_level(levels: &[u32]) -> u32 {
    levels
        .par_iter()
        .copied()
        .filter(|&l| l != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::{build_directed_simple, build_undirected_simple};
    use graphct_core::EdgeList;

    const ALL_KINDS: [FrontierKind; 5] = [
        FrontierKind::Queue,
        FrontierKind::Bitmap,
        FrontierKind::Push,
        FrontierKind::Pull,
        FrontierKind::Hybrid,
    ];

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    #[test]
    fn path_levels() {
        let g = graph(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_levels(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn disconnected_stays_unreached() {
        let g = graph(&[(0, 1), (2, 3)]);
        let l = bfs_levels(&g, 0);
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], UNREACHED);
        assert_eq!(l[3], UNREACHED);
    }

    #[test]
    fn parallel_variants_match_sequential() {
        // A graph with branching, a cycle, and a pendant.
        let g = graph(&[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (4, 6),
            (7, 8),
        ]);
        for src in 0..g.num_vertices() as u32 {
            let seq = sequential_bfs_levels(&g, src);
            for kind in ALL_KINDS {
                assert_eq!(parallel_bfs_levels(&g, src, kind), seq, "{kind:?}");
            }
        }
    }

    #[test]
    fn larger_random_graph_agreement() {
        // Deterministic LCG edges over 2000 vertices.
        let mut edges = Vec::new();
        let mut x = 99u64;
        for _ in 0..6000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((x >> 32) % 2000) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = ((x >> 32) % 2000) as u32;
            edges.push((s, t));
        }
        let g = graph(&edges);
        for src in [0u32, 7, 1234] {
            let seq = sequential_bfs_levels(&g, src);
            for kind in ALL_KINDS {
                assert_eq!(parallel_bfs_levels(&g, src, kind), seq, "{kind:?}");
            }
        }
    }

    #[test]
    fn directed_pull_uses_transpose() {
        // Directed chain plus a shortcut; in-neighbors differ from
        // out-neighbors, so pull correctness depends on the transpose.
        let g = build_directed_simple(&EdgeList::from_pairs(vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (3, 4),
        ]))
        .unwrap();
        let seq = sequential_bfs_levels(&g, 0);
        for kind in ALL_KINDS {
            assert_eq!(parallel_bfs_levels(&g, 0, kind), seq, "{kind:?}");
        }
    }

    #[test]
    fn hybrid_switches_directions_on_a_hub() {
        // A broadcast hub: level 1 holds nearly every vertex, so the
        // default thresholds must trigger at least one pull level.
        let n = 4000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let engine = HybridBfs::new(&g);
        let run = engine.run(0);
        assert_eq!(run.levels, sequential_bfs_levels(&g, 0));
        assert!(
            run.directions.contains(&Direction::Pull),
            "expected a pull level, got {:?}",
            run.directions
        );
        // Forced push never pulls.
        let push = HybridBfs::with_config(&g, BfsConfig::push_only()).run(0);
        assert!(push.directions.iter().all(|&d| d == Direction::Push));
        // Forced pull never pushes.
        let pull = HybridBfs::with_config(&g, BfsConfig::pull_only()).run(0);
        assert!(pull.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn hybrid_inspects_fewer_edges_on_dense_frontiers() {
        // On the hub graph the single dense level dominates: pull stops
        // at the first frontier parent while push scans every edge twice
        // (the undirected hub has all arcs incident to the frontier).
        let n = 4000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let hybrid = HybridBfs::new(&g).run(0);
        let push = HybridBfs::with_config(&g, BfsConfig::push_only()).run(0);
        assert!(
            hybrid.edges_inspected < push.edges_inspected,
            "hybrid {} vs push {}",
            hybrid.edges_inspected,
            push.edges_inspected
        );
    }

    #[test]
    fn extreme_thresholds_force_each_direction() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        // Tiny alpha (huge edge threshold): pulling is never profitable.
        let cfg = BfsConfig::hybrid().with_alpha(1e-12);
        let run = HybridBfs::with_config(&g, cfg).run(0);
        assert!(run.directions.iter().all(|&d| d == Direction::Push));
        // Huge alpha + huge beta: switch to pull immediately and stay.
        let cfg = BfsConfig::hybrid().with_alpha(1e12).with_beta(1e12);
        let run = HybridBfs::with_config(&g, cfg).run(0);
        assert_eq!(run.levels, sequential_bfs_levels(&g, 0));
        assert!(run.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn frontier_kind_parses() {
        for (text, kind) in [
            ("queue", FrontierKind::Queue),
            ("Bitmap", FrontierKind::Bitmap),
            ("PUSH", FrontierKind::Push),
            ("pull", FrontierKind::Pull),
            ("hybrid", FrontierKind::Hybrid),
        ] {
            assert_eq!(text.parse::<FrontierKind>().unwrap(), kind);
        }
        assert!("dfs".parse::<FrontierKind>().is_err());
    }

    #[test]
    fn bounded_bfs_stops_at_depth() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let l = bfs_levels_bounded(&g, 0, 2);
        assert_eq!(l, vec![0, 1, 2, UNREACHED, UNREACHED]);
        let l = bfs_levels_bounded(&g, 0, 0);
        assert_eq!(l, vec![0, UNREACHED, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn max_level_of_path() {
        let g = graph(&[(0, 1), (1, 2)]);
        assert_eq!(max_level(&sequential_bfs_levels(&g, 0)), 2);
        let isolated = graph(&[(0, 1)]);
        // Vertex 1 exists; bfs from 0 reaches level 1.
        assert_eq!(max_level(&sequential_bfs_levels(&isolated, 0)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = graph(&[(0, 1)]);
        bfs_levels(&g, 9);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::empty(1, false);
        assert_eq!(bfs_levels(&g, 0), vec![0]);
        for kind in ALL_KINDS {
            assert_eq!(parallel_bfs_levels(&g, 0, kind), vec![0], "{kind:?}");
        }
    }
}
