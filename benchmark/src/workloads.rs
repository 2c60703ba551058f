//! The workloads.  Each runs as one process and reports every end-to-end
//! metric: one phase dominates (the paper-size analysis, or the query
//! load) and the other runs at a smaller size, so each workload sees
//! every user of the system.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphct_obs::{HttpServer, Response};
use graphct_trace::{NullSink, Session};
use graphct_twitter::{generate_stream, DatasetProfile, Tweet};

use crate::analyze::{self, StepTimes};
use crate::heap;
use crate::loadgen::{self, closed_loop, mix, open_loop, Endpoint, Sample};
use crate::report::{RunReport, WorkloadDef};
use crate::serve::{self, ingest_rate, Scrape, ServePlan, Server, Watermark};
use crate::spans::Recorder;
use crate::stats;

/// Offered rate of the dashboard open loop, requests per second.
pub const DASHBOARD_RATE: f64 = 80.0;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, as listed in `BENCHMARK.json`.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "analyze-sep1",
        why: "Paper Table III/IV path at 1 Sep 2009 size (1.02M tweets): parse, CSR, LWCC, 256-source BC, top-15; kernels dominate. Default seed 1",
    },
    WorkloadDef {
        name: "serve-read",
        why: "Live /v1 query mix (1 topk in 8) on a paced H1N1 stream: Poisson open loop at 80 q/s, 2 closed-loop clients, and a flat-out 2048-batch ingest flood",
    },
];

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-size analysis.
    AnalyzeSep1,
    /// Query load on a paced stream.
    ServeRead,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "analyze-sep1" => Some(Workload::AnalyzeSep1),
            "serve-read" => Some(Workload::ServeRead),
            _ => None,
        }
    }

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeSep1 => "analyze-sep1",
            Workload::ServeRead => "serve-read",
        }
    }
}

/// Input sizes.  [`Sizes::full`] is the benchmark; [`Sizes::smoke`] runs
/// every phase in seconds for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the 1 Sep 2009 corpus.
    pub sep1_scale: f64,
    /// Scale of the H1N1 corpus (analysis and stream).
    pub h1n1_scale: f64,
    /// Corpus generations timed for `setup_s` on analyze-sep1, and server
    /// starts timed on serve-read.
    pub setup_reps: usize,
    /// Analysis passes on the workloads where analysis is secondary.
    pub analysis_reps: usize,
    /// Least open-loop requests per run (1 000 gives p99 ten samples
    /// beyond it).
    pub min_open_requests: usize,
    /// Closed-loop seconds where the closed loop is secondary.
    pub closed_secs: f64,
    /// Vertices probed by the stable-epoch gate.
    pub gate_probes: usize,
    /// Requests timed by the no-op transport probe (traced runs).
    pub noop_requests: usize,
    /// Batch budget of the flat-out ingest phase.
    pub flood_batches: u64,
    /// Flood batches before the rate is timed (the window fills up).
    pub flood_warmup: u64,
    /// Flood batches per timed segment; the rate is the segments' median.
    pub flood_segment: u64,
    /// Tests only: accept fewer samples than p99 needs.
    pub smoke: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            sep1_scale: 1.0,
            h1n1_scale: 1.0,
            setup_reps: 3,
            analysis_reps: 7,
            min_open_requests: 1_000,
            closed_secs: 2.0,
            gate_probes: 8,
            noop_requests: 400,
            flood_batches: 2_048,
            flood_warmup: 256,
            flood_segment: 128,
            smoke: false,
        }
    }

    /// Tiny sizes that exercise every phase in seconds.
    pub fn smoke() -> Self {
        Self {
            sep1_scale: 0.004,
            h1n1_scale: 0.05,
            setup_reps: 2,
            analysis_reps: 1,
            min_open_requests: 40,
            closed_secs: 0.2,
            gate_probes: 2,
            noop_requests: 20,
            flood_batches: 48,
            flood_warmup: 8,
            flood_segment: 8,
            smoke: true,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds a run measures, split between its phases.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn vmhwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload.
pub fn run(opts: &Options) -> RunReport {
    let spans = Recorder::new(opts.trace);
    let mut report = RunReport::default();
    match opts.workload {
        Workload::AnalyzeSep1 => analyze_sep1(opts, &spans, &mut report),
        Workload::ServeRead => serve_read(opts, &spans, &mut report),
    }
    if opts.trace {
        let path = opts.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = spans.flush(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    report
}

// ------------------------------------------------------------ analysis

fn corpus(profile: &DatasetProfile, seed: u64) -> Vec<Tweet> {
    generate_stream(&profile.config, seed).0
}

/// The analysis phase's inputs, timings and last answer (kept for the
/// gates, which run after every timed phase).
struct AnalysisPhase {
    tweets: Vec<Tweet>,
    last: analyze::Analysis,
    /// Times of the untraced passes.
    passes: Vec<StepTimes>,
}

fn median_by(passes: &[StepTimes], f: impl Fn(&StepTimes) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

impl AnalysisPhase {
    fn median(&self, f: impl Fn(&StepTimes) -> f64) -> f64 {
        median_by(&self.passes, f)
    }
}

/// Run the analyst's path: at least `min_passes` untraced passes, and
/// more while another would still end before `deadline`.  In a traced
/// run every untraced pass is followed by a traced pass under a
/// telemetry session, so the tracing overhead compares the medians of
/// alternating passes (one pair on analyze-sep1, where a pass takes
/// 15 s).
fn analysis_phase(
    tweets: Vec<Tweet>,
    min_passes: usize,
    deadline: Instant,
    opts: &Options,
    spans: &Recorder,
    report: &mut RunReport,
) -> Option<AnalysisPhase> {
    let seed = opts.seed;
    let untraced = Recorder::new(false);
    let mut passes: Vec<StepTimes> = Vec::new();
    let mut traced: Vec<StepTimes> = Vec::new();
    let mut counters = Vec::new();
    let mut last = None;
    if opts.trace {
        // The first pass in a process runs slower (its memory is new to
        // the allocator), so a traced run starts with a warm-up pass
        // that is left out of the comparison.
        let warm_up = analyze::run(&tweets, seed, &untraced);
        report.check(warm_up.is_ok(), || "warm-up analysis failed".into());
        warm_up.ok()?;
    }
    loop {
        let round = passes.last().map_or(0.0, |t| t.total) + traced.last().map_or(0.0, |t| t.total);
        if passes.len() >= min_passes.max(1)
            && Instant::now() + Duration::from_secs_f64(round) > deadline
        {
            break;
        }
        // Free the previous answer first, so passes do not stack up.
        drop(last.take());
        match analyze::run(&tweets, seed, &untraced) {
            Ok((a, t)) => {
                report.check(true, String::new);
                passes.push(t);
                last = Some(a);
            }
            Err(e) => {
                report.check(false, || format!("analysis: {e}"));
                return None;
            }
        }
        if opts.trace {
            drop(last.take());
            heap::note();
            let session = Session::start(Arc::new(NullSink));
            let result = analyze::run(&tweets, seed, spans);
            counters = graphct_trace::snapshot_metrics();
            session.finish();
            match result {
                Ok((a, t)) => {
                    report.check(true, String::new);
                    traced.push(t);
                    last = Some(a);
                }
                Err(e) => {
                    report.check(false, || format!("traced analysis: {e}"));
                    return None;
                }
            }
        }
    }
    let last = last?;
    if opts.trace {
        let counter = |name: &str| {
            counters
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value as f64)
        };
        // The Brandes forward pass expands its levels itself, so the
        // program's bfs_edges_scanned counters never see it.  Count its
        // work Graph500-style instead: every sampled source lies in the
        // (connected) LWCC and traverses all of its arcs.
        let lwcc = &last.lwcc.graph;
        let sources = analyze::BC_SAMPLES.min(lwcc.num_vertices()) as f64;
        let traversed = sources * lwcc.num_arcs() as f64;
        // One dependency update per source per reached vertex.
        let updates = sources * lwcc.num_vertices() as f64;
        let step = |f: fn(&StepTimes) -> f64| median_by(&traced, f);
        let bc_s = step(|t| t.bc);
        report.set("twitter.build_tweet_graph_s", step(|t| t.build));
        report.set("kernels.lwcc_s", step(|t| t.lwcc));
        report.set(
            "kernels.components_iterations",
            counter("components_iterations"),
        );
        report.set("kernels.bc_s", bc_s);
        report.set("kernels.bc_edges_scanned", traversed);
        report.set("kernels.bc_edges_per_s", traversed / bc_s);
        report.set(
            "mt.cas_retries_per_update",
            counter("atomic_f64_cas_retries") / updates.max(1.0),
        );
        report.set("metrics.topk_s", step(|t| t.topk));
        report.set("kernels.triangles_s", step(|t| t.triangles));
        report.set("twitter.mutual_filter_s", step(|t| t.mutual));
        report.set("analyze.unattributed_share", step(|t| t.unattributed));
        report.set(
            "trace.overhead_share",
            step(|t| t.total) / median_by(&passes, |t| t.total) - 1.0,
        );
        let (arcs, n) = analyze::mention_arcs(&tweets);
        report.set("twitter.mentions", arcs.len() as f64);
        match analyze::time_csr_build(&arcs, n) {
            Ok(secs) => report.set("core.csr_build_s", secs),
            Err(e) => report.check(false, || e),
        }
    }
    Some(AnalysisPhase {
        tweets,
        last,
        passes,
    })
}

/// The analysis gates: Table III recount, LWCC against sequential
/// components, top-15 against the batched betweenness engine.  They run
/// right after the analysis, outside the memory peak, and free its
/// inputs and answer before the serving phases.
fn analysis_gates(phase: AnalysisPhase, seed: u64, report: &mut RunReport) {
    heap::excluded(|| check_analysis(&phase, seed, report));
}

fn check_analysis(phase: &AnalysisPhase, seed: u64, report: &mut RunReport) {
    let a = &phase.last;
    report.gate(
        "table3",
        analyze::check_table3(&analyze::table3(a), &analyze::recount(&phase.tweets)),
    );
    report.gate(
        "lwcc",
        analyze::check_lwcc(&a.graph.undirected, &a.lwcc.graph),
    );
    let top = analyze::bc_oracle(&a.lwcc.graph, seed)
        .and_then(|oracle| analyze::check_top(&a.top, &a.scores, &oracle));
    report.gate("top15", top);
}

/// The H1N1 analysis serve-read runs before serving; sets `analyze_s`.
fn secondary_analysis(
    opts: &Options,
    spans: &Recorder,
    report: &mut RunReport,
) -> Option<AnalysisPhase> {
    let profile = DatasetProfile::h1n1().scaled(opts.sizes.h1n1_scale);
    let tweets = corpus(&profile, opts.seed);
    let phase = analysis_phase(
        tweets,
        opts.sizes.analysis_reps,
        Instant::now(),
        opts,
        spans,
        report,
    )?;
    report.set("analyze_s", phase.median(|t| t.total));
    Some(phase)
}

// ------------------------------------------------------------ serving

fn count_samples(samples: &[Sample], report: &mut RunReport) {
    for s in samples {
        report.check(s.error.is_none(), || s.error.clone().unwrap_or_default());
    }
}

fn check_open_loop(summary: &loadgen::OpenLoopSummary, sizes: &Sizes, report: &mut RunReport) {
    let n = summary.latencies_ms.len();
    report.gate(
        "loadgen.backlog",
        if summary.backlog_grew {
            Err(format!(
                "the open loop fell behind schedule (late p99 {:.1} ms): latency not valid at this rate",
                stats::percentile(&summary.late_ms, 9_900)
            ))
        } else {
            Ok(())
        },
    );
    if !sizes.smoke {
        report.gate(
            "loadgen.samples",
            match stats::highest_supported_ppm(n) {
                Some(ppm) if ppm >= 9_900 => Ok(()),
                _ => Err(format!("{n} samples do not support p99")),
            },
        );
    }
}

fn set_query_e2e(summary: &loadgen::OpenLoopSummary, report: &mut RunReport) {
    if summary.latencies_ms.is_empty() {
        return;
    }
    report.set(
        "query_p50_ms",
        stats::percentile(&summary.latencies_ms, 5_000),
    );
    report.set(
        "loadgen.query_p99_ms",
        stats::percentile(&summary.latencies_ms, 9_900),
    );
}

/// Per-layer numbers from the query plane, between two scrapes.
fn set_query_layers(
    open_samples: &[Sample],
    before: &Scrape,
    after: &Scrape,
    topk_requests: usize,
    report: &mut RunReport,
) {
    let handler_p50 =
        |e: Endpoint| after.quantile_since(before, &format!("query_{}_ns", e.name()), 0.5) / 1e6;
    report.set("obs.handler_topk_p50_ms", handler_p50(Endpoint::Topk));
    report.set(
        "obs.handler_topk_p90_ms",
        after.quantile_since(before, "query_topk_ns", 0.9) / 1e6,
    );
    report.set(
        "obs.handler_component_p50_ms",
        handler_p50(Endpoint::Component),
    );
    report.set("obs.handler_degree_p50_ms", handler_p50(Endpoint::Degree));
    report.set("obs.handler_ego_p50_ms", handler_p50(Endpoint::Ego));
    // Transport share per endpoint: the part of the client's round trip
    // (send to answer) the handler histogram does not cover.
    let shares: Vec<f64> = [
        Endpoint::Topk,
        Endpoint::Component,
        Endpoint::Degree,
        Endpoint::Ego,
    ]
    .into_iter()
    .filter_map(|e| {
        let mut rtt: Vec<f64> = open_samples
            .iter()
            .filter(|s| s.endpoint == e && s.error.is_none())
            .map(|s| s.timing.service_ms())
            .collect();
        if rtt.is_empty() {
            return None;
        }
        stats::sort(&mut rtt);
        let handler = handler_p50(e);
        handler
            .is_finite()
            .then(|| 1.0 - handler / stats::percentile(&rtt, 5_000))
    })
    .collect();
    report.set(
        "obs.transport_share",
        shares.iter().sum::<f64>() / shares.len() as f64,
    );
    let sources = after.value("bc_sources_processed") - before.value("bc_sources_processed");
    report.set(
        "obs.bc_sources_per_topk",
        sources / topk_requests.max(1) as f64,
    );
}

fn set_loadgen_layers(summary: &loadgen::OpenLoopSummary, report: &mut RunReport) {
    report.set(
        "loadgen.late_p99_ms",
        stats::percentile(&summary.late_ms, 9_900),
    );
    report.set(
        "loadgen.open_loop_samples",
        summary.latencies_ms.len() as f64,
    );
}

/// Per-layer numbers from the flood's ingest loop: the final scrape's
/// exact counters (checked against the replay) and batch histograms,
/// over the server's whole session.
fn set_stream_layers(
    after: &Scrape,
    replay: &serve::Replay,
    wall_per_batch_ms: f64,
    report: &mut RunReport,
) {
    let before = &Scrape::default();
    let batch_p50 = after.quantile_since(before, "ingest_batch_ns", 0.5) / 1e6;
    report.set("stream.ingest_batch_p50_ms", batch_p50);
    report.set(
        "stream.ingest_batch_p99_ms",
        after.quantile_since(before, "ingest_batch_ns", 0.99) / 1e6,
    );
    report.set(
        "stream.snapshot_refresh_p50_ms",
        after.quantile_since(before, "snapshot_refresh_ns", 0.5) / 1e6,
    );
    let inserted = after.value("ingest_edges_inserted_total");
    let expired = after.value("ingest_edges_expired_total");
    let duplicates = after.value("ingest_duplicate_mentions_total");
    report.set("stream.edges_inserted", inserted);
    report.set("stream.edges_expired", expired);
    report.set("stream.duplicates", duplicates);
    let want = (
        replay.inserted as f64,
        replay.expired as f64,
        replay.duplicates as f64,
    );
    report.gate(
        "stream.counters",
        if (inserted, expired, duplicates) == want {
            Ok(())
        } else {
            Err(format!(
                "exported (inserted, expired, duplicates) = {:?}, replay {want:?}",
                (inserted, expired, duplicates)
            ))
        },
    );
    let replay_ms_per_batch = replay.secs * 1e3 / replay.batches.max(1) as f64;
    report.set(
        "stream.replay_ns_per_mention",
        replay.secs * 1e9 / replay.mentions.max(1) as f64,
    );
    report.set("stream.batch_overhead_ms", batch_p50 - replay_ms_per_batch);
    let count = after.count_since(before, "ingest_batch_ns");
    let mean_ms = after.sum_since(before, "ingest_batch_ns") / count.max(1) as f64 / 1e6;
    report.set("stream.outside_batch_ms", wall_per_batch_ms - mean_ms);
}

/// Round trip through the program's HTTP transport with a constant
/// handler: the floor every query pays.
fn noop_rtt_p50_ms(requests: usize) -> Result<f64, String> {
    let handler: Arc<graphct_obs::http::Handler> =
        Arc::new(|_: &str, _: &str, _: &str| Response::text(200, "ok\n"));
    let server = HttpServer::bind_pooled("127.0.0.1:0", handler, 2).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut rtt = Vec::with_capacity(requests);
    for _ in 0..requests {
        let start = Instant::now();
        match loadgen::get(addr, "/") {
            Ok((200, _)) => rtt.push(start.elapsed().as_secs_f64() * 1e3),
            Ok((status, _)) => return Err(format!("noop -> {status}")),
            Err(e) => return Err(format!("noop -> {e}")),
        }
    }
    server.stop();
    stats::sort(&mut rtt);
    Ok(stats::percentile(&rtt, 5_000))
}

/// Time `setup_reps - 1` extra starts of `plan` (each stopped as soon
/// as it serves an epoch), so `setup_s` is a median.
fn extra_setups(plan: &ServePlan, opts: &Options, report: &mut RunReport) -> Vec<f64> {
    let mut setup = Vec::new();
    for _ in 1..opts.sizes.setup_reps.max(1) {
        match Server::start(plan) {
            Ok((server, secs)) => {
                setup.push(secs);
                report.check(true, String::new);
                server.stop();
            }
            Err(e) => report.check(false, || e),
        }
    }
    setup
}

fn wall_per_batch_ms(w0: Watermark, w1: Watermark) -> f64 {
    w1.at.saturating_duration_since(w0.at).as_secs_f64() * 1e3
        / w1.batch.saturating_sub(w0.batch).max(1) as f64
}

/// What the dashboard phase measured.
struct Dashboard {
    plan: ServePlan,
    setup_s: f64,
    open_samples: Vec<Sample>,
    open: loadgen::OpenLoopSummary,
    closed: Vec<Sample>,
    qps: f64,
    before: Scrape,
    after: Scrape,
    stats: graphct_obs::IngestStats,
}

/// A paced server under the dashboard mix: stable-epoch gate, an open
/// loop of `open_requests` at [`DASHBOARD_RATE`], then `closed_secs` of
/// two closed-loop clients.
fn dashboard(
    opts: &Options,
    open_requests: usize,
    closed_secs: f64,
    spans: &Recorder,
    report: &mut RunReport,
) -> Option<Dashboard> {
    let plan = ServePlan::paced(
        DatasetProfile::h1n1().scaled(opts.sizes.h1n1_scale),
        opts.seed,
    );
    let (server, setup_s) = match Server::start(&plan) {
        Ok(v) => v,
        Err(e) => {
            report.check(false, || e);
            return None;
        }
    };
    if let Err(e) = server.oracle_gate(opts.seed, opts.sizes.gate_probes) {
        report.gate("serve.oracle", Err(e));
        server.stop();
        return None;
    }
    report.gate("serve.oracle", Ok(()));
    let before = if opts.trace {
        Scrape::fetch(server.addr).unwrap_or_default()
    } else {
        Scrape::default()
    };

    let vertices = || server.vertices();
    let requests = mix(open_requests, opts.seed);
    let schedule = loadgen::poisson_schedule(requests.len(), DASHBOARD_RATE, opts.seed);
    let open_samples = open_loop(
        server.addr,
        &requests,
        &schedule,
        loadgen::MAX_CONNECTIONS,
        &vertices,
        spans,
    );
    count_samples(&open_samples, report);
    let open = loadgen::summarize(&open_samples);
    check_open_loop(&open, &opts.sizes, report);

    let closed_requests = mix(4_096, opts.seed.wrapping_add(1));
    let (closed, wall) = closed_loop(
        server.addr,
        &closed_requests,
        loadgen::MAX_CONNECTIONS,
        Duration::from_secs_f64(closed_secs),
        &vertices,
    );
    count_samples(&closed, report);
    let qps = closed.iter().filter(|s| s.error.is_none()).count() as f64 / wall;

    let after = if opts.trace {
        // Park ingest between batches so the scrape's totals are final.
        server.pause();
        Scrape::fetch(server.addr).unwrap_or_default()
    } else {
        Scrape::default()
    };
    let stats = server.stop();
    Some(Dashboard {
        plan,
        setup_s,
        open_samples,
        open,
        closed,
        qps,
        before,
        after,
        stats,
    })
}

impl Dashboard {
    fn set_e2e(&self, report: &mut RunReport) {
        set_query_e2e(&self.open, report);
        report.set("query_qps", self.qps);
    }

    /// Replay gate, and in a traced run the query layers.
    fn finish(&self, trace: bool, report: &mut RunReport) {
        let replay = serve::replay(&self.plan, self.stats.batches);
        report.gate("serve.ingest", serve::check_ingest(&self.stats, &replay));
        if trace {
            let topk = self
                .open_samples
                .iter()
                .chain(&self.closed)
                .filter(|s| s.endpoint == Endpoint::Topk)
                .count();
            set_query_layers(&self.open_samples, &self.before, &self.after, topk, report);
            set_loadgen_layers(&self.open, report);
        }
    }
}

/// What the flood phase measured.
struct Flood {
    plan: ServePlan,
    /// Mentions per second of each segment from the end of warm-up to
    /// the budget.
    rates: Vec<f64>,
    w0: Watermark,
    w1: Watermark,
    after: Scrape,
    stats: graphct_obs::IngestStats,
}

/// A server ingesting a fixed batch budget flat out, with no reader.
/// After warm-up (the window is full) the rest of the budget is cut into
/// segments at snapshot watermarks, and the reported rate is the
/// median segment's, so a short stall of the host moves one segment, not
/// the result.  Watermarks carry their freeze instants, so how often this
/// thread looks does not matter.
fn flood(opts: &Options, report: &mut RunReport) -> Option<Flood> {
    let sizes = &opts.sizes;
    let plan = ServePlan::flood(
        DatasetProfile::h1n1().scaled(sizes.h1n1_scale),
        opts.seed,
        sizes.flood_batches,
    );
    let (server, _) = match Server::start(&plan) {
        Ok(v) => v,
        Err(e) => {
            report.check(false, || e);
            return None;
        }
    };
    let mut marks: Vec<Watermark> = Vec::new();
    let mut next = sizes.flood_warmup;
    loop {
        let finished = server.ingest_finished();
        let w = server.watermark();
        if finished {
            // The budget closes the last segment; a short remainder joins
            // the segment before it.
            if marks.len() > 1 && w.batch < next - sizes.flood_segment / 2 {
                marks.pop();
            }
            marks.push(w);
            break;
        }
        if w.batch >= next {
            marks.push(w);
            next = w.batch + sizes.flood_segment;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = if opts.trace {
        Scrape::fetch(server.addr).unwrap_or_default()
    } else {
        Scrape::default()
    };
    let stats = server.stop();
    let (w0, w1) = (marks[0], marks[marks.len() - 1]);
    let timed = marks.len() > 1 && w0.batch >= sizes.flood_warmup && w1.batch == plan.batches;
    report.gate(
        "flood.budget",
        if timed {
            Ok(())
        } else {
            Err(format!(
                "timed from batch {} to {} of a {}-batch budget",
                w0.batch, w1.batch, plan.batches
            ))
        },
    );
    let rates: Vec<f64> = marks
        .windows(2)
        .map(|m| ingest_rate(m[0], m[1], plan.batch_size))
        .collect();
    Some(Flood {
        rates,
        plan,
        w0,
        w1,
        after,
        stats,
    })
}

impl Flood {
    /// Replay gate (exact totals, no ingest errors), and in a traced run
    /// the stream layers.
    fn finish(&self, trace: bool, report: &mut RunReport) {
        let replay = serve::replay(&self.plan, self.stats.batches);
        report.gate("flood.ingest", serve::check_ingest(&self.stats, &replay));
        if trace {
            report.set("stream.flood_mentions_per_s", stats::median(&self.rates));
            set_stream_layers(
                &self.after,
                &replay,
                wall_per_batch_ms(self.w0, self.w1),
                report,
            );
        }
    }
}

fn set_noop_layer(opts: &Options, report: &mut RunReport) {
    if opts.trace {
        match noop_rtt_p50_ms(opts.sizes.noop_requests) {
            Ok(ms) => report.set("obs.noop_rtt_p50_ms", ms),
            Err(e) => report.check(false, || e),
        }
    }
}

/// Memory, read after every timed phase and before the gates.
fn set_memory(report: &mut RunReport) {
    report.set("peak_heap_mb", heap::peak_mib());
    report.set("process.vmhwm_mb", vmhwm_mib());
}

// ------------------------------------------------------------ workloads

fn analyze_sep1(opts: &Options, spans: &Recorder, report: &mut RunReport) {
    let profile = DatasetProfile::sep1().scaled(opts.sizes.sep1_scale);
    let mut setup = Vec::new();
    let mut tweets = Vec::new();
    for _ in 0..opts.sizes.setup_reps.max(1) {
        drop(std::mem::take(&mut tweets));
        let (t, secs) = spans.time("setup.corpus", 0, || corpus(&profile, opts.seed));
        tweets = t;
        setup.push(secs);
    }
    report.set("setup_s", stats::median(&setup));

    // Half the run for analysis passes, the rest for the flood and the
    // dashboard.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds / 2.0);
    let Some(phase) = analysis_phase(tweets, 1, deadline, opts, spans, report) else {
        return;
    };
    report.set("analyze_s", phase.median(|t| t.total));
    analysis_gates(phase, opts.seed, report);
    let f = flood(opts, report);

    let open_requests =
        ((DASHBOARD_RATE * opts.seconds * 0.35) as usize).max(opts.sizes.min_open_requests);
    let d = dashboard(opts, open_requests, opts.sizes.closed_secs, spans, report);
    if let Some(d) = &d {
        d.set_e2e(report);
    }
    set_noop_layer(opts, report);
    set_memory(report);
    if let Some(d) = &d {
        d.finish(opts.trace, report);
    }
    if let Some(f) = &f {
        f.finish(opts.trace, report);
    }
}

fn serve_read(opts: &Options, spans: &Recorder, report: &mut RunReport) {
    if let Some(phase) = secondary_analysis(opts, spans, report) {
        analysis_gates(phase, opts.seed, report);
    }
    let plan = ServePlan::paced(
        DatasetProfile::h1n1().scaled(opts.sizes.h1n1_scale),
        opts.seed,
    );
    let mut setup = extra_setups(&plan, opts, report);
    let f = flood(opts, report);
    let open_requests =
        ((DASHBOARD_RATE * opts.seconds * 0.65) as usize).max(opts.sizes.min_open_requests);
    let closed_secs = (opts.seconds * 0.15).max(opts.sizes.closed_secs);
    let d = dashboard(opts, open_requests, closed_secs, spans, report);
    if let Some(d) = &d {
        setup.push(d.setup_s);
        d.set_e2e(report);
    }
    report.set("setup_s", stats::median(&setup));
    set_noop_layer(opts, report);
    set_memory(report);
    if let Some(d) = &d {
        d.finish(opts.trace, report);
    }
    if let Some(f) = &f {
        f.finish(opts.trace, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_manifest;

    #[test]
    fn committed_manifest_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            render_manifest(WORKLOADS),
            "regenerate with --manifest"
        );
        graphct_trace::json::parse(&committed).expect("manifest is JSON");
    }

    #[test]
    fn workload_lines_state_their_settings() {
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        for w in WORKLOADS {
            assert!(Workload::parse(w.name).is_some_and(|p| p.name() == w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let why = |name: &str| WORKLOADS.iter().find(|w| w.name == name).unwrap().why;
        assert!(why("analyze-sep1").contains(&format!("Default seed {DEFAULT_SEED}")));
        assert!(why("serve-read").contains(&format!("{DASHBOARD_RATE} q/s")));
    }

    #[test]
    fn full_sizes_support_p99() {
        let full = Sizes::full();
        assert!(crate::stats::highest_supported_ppm(full.min_open_requests) >= Some(9_900));
    }
}
