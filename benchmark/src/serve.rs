//! The live plane from outside: start `graphct_obs::start`, time how long
//! until it serves a real epoch, gate its answers against the offline
//! kernels, scrape its exported histograms and counters, and replay its
//! ingest through `StreamingGraph` to check the totals exactly.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use graphct_core::{VertexId, VertexLabels};
use graphct_kernels::{connected_components, top_k_betweenness};
use graphct_obs::{bc_seed, query_bc_config, IngestStats, ServeConfig, ServeHandle};
use graphct_stream::StreamingGraph;
use graphct_trace::json::Json;
use graphct_twitter::parse::mentions;
use graphct_twitter::{generate_stream, DatasetProfile};

use crate::loadgen::{envelope, get, SplitMix};

/// `/v1/query/topk` default `samples` (the program's
/// `DEFAULT_TOPK_SAMPLES`), used by the offline recompute.
pub const TOPK_SAMPLES: usize = graphct_obs::query::DEFAULT_TOPK_SAMPLES;
/// `graphct serve --topk` default.
pub const TOPK_K: usize = 10;

/// How one server instance ingests.
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Corpus profile streamed.
    pub profile: DatasetProfile,
    /// Generator and serve seed.
    pub seed: u64,
    /// Mentions per batch.
    pub batch_size: usize,
    /// Pacing between batch starts (0 = flat out).
    pub interval_ms: u64,
    /// Freeze a snapshot every this many batches.
    pub snapshot_every: u64,
    /// Sliding window, in batches.
    pub window_batches: usize,
    /// Batch budget (0 = until stopped).
    pub batches: u64,
}

impl ServePlan {
    /// `graphct serve` defaults: batch 64 every 50 ms, a snapshot every 8
    /// batches, a 256-batch window, until stopped.
    pub fn paced(profile: DatasetProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            batch_size: 64,
            interval_ms: 50,
            snapshot_every: 8,
            window_batches: 256,
            batches: 0,
        }
    }

    /// Flat-out ingest of a fixed budget of `batches`: batch 256 with no
    /// pacing, a snapshot every 4 batches, a 256-batch window.
    pub fn flood(profile: DatasetProfile, seed: u64, batches: u64) -> Self {
        Self {
            profile,
            seed,
            batch_size: 256,
            interval_ms: 0,
            snapshot_every: 4,
            window_batches: 256,
            batches,
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            profile: self.profile.clone(),
            seed: self.seed,
            batch_size: self.batch_size,
            batches: self.batches,
            interval_ms: self.interval_ms,
            window_batches: self.window_batches,
            trace_out: None,
            stall_timeout_ms: 10_000,
            profile_hz: 0,
            snapshot_every: self.snapshot_every,
            query_threads: 2,
            topk: TOPK_K,
        }
    }
}

/// A running server.
pub struct Server {
    handle: ServeHandle,
    /// Where it listens.
    pub addr: SocketAddr,
}

/// A point on the ingest timeline: a snapshot's watermark and when it
/// was frozen.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    /// Batches ingested before the freeze.
    pub batch: u64,
    /// When the freeze happened.
    pub at: Instant,
}

/// Mentions per second between two watermarks.
pub fn ingest_rate(from: Watermark, to: Watermark, batch_size: usize) -> f64 {
    let secs = to.at.saturating_duration_since(from.at).as_secs_f64();
    (to.batch.saturating_sub(from.batch) * batch_size as u64) as f64 / secs
}

impl Server {
    /// Start serving `plan` and wait until `/v1/snapshot` reports an
    /// epoch above 0.  Returns the server and the seconds that took.
    pub fn start(plan: &ServePlan) -> Result<(Server, f64), String> {
        crate::heap::note();
        let start = Instant::now();
        let handle = graphct_obs::start(plan.config()).map_err(|e| format!("serve: {e}"))?;
        let server = Server {
            addr: handle.local_addr(),
            handle,
        };
        loop {
            if server.epoch()? > 0 {
                break;
            }
            if start.elapsed() > Duration::from_secs(60) {
                server.stop();
                return Err("no snapshot within 60 s".into());
            }
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// The epoch `/v1/snapshot` serves.
    fn epoch(&self) -> Result<u64, String> {
        match get(self.addr, "/v1/snapshot") {
            Ok((200, body)) => envelope(&body).map(|e| e.epoch),
            Ok((status, body)) => Err(format!("/v1/snapshot -> {status}: {body:.120}")),
            Err(e) => Err(format!("/v1/snapshot -> {e}")),
        }
    }

    /// The current snapshot's watermark (read in process).
    pub fn watermark(&self) -> Watermark {
        let snap = self.handle.snapshot();
        Watermark {
            batch: snap.watermark_batch,
            at: Instant::now() - snap.staleness(),
        }
    }

    /// Has the ingest loop used up its batch budget?
    pub fn ingest_finished(&self) -> bool {
        self.handle.ingest_finished()
    }

    /// Vertices in the current snapshot (read in process).
    pub fn vertices(&self) -> usize {
        self.handle.snapshot().graph.num_vertices()
    }

    /// Hold ingest between batches and wait until it is parked.
    pub fn pause(&self) {
        self.handle.pause();
        // A batch in flight finishes within a few milliseconds; a paced
        // loop may also be sleeping out its interval.
        std::thread::sleep(Duration::from_millis(100));
    }

    /// Release a paused ingest loop.
    pub fn resume(&self) {
        self.handle.resume();
    }

    /// Stop ingest and the HTTP server; final ingest totals.
    pub fn stop(self) -> IngestStats {
        self.handle.wait()
    }

    /// Pause ingest, then demand that the served top-k and the
    /// component/degree answers for `probes` seeded vertices are
    /// bit-identical to the offline kernels on the paused epoch.
    pub fn oracle_gate(&self, seed: u64, probes: usize) -> Result<(), String> {
        self.pause();
        let result = self.oracle_gate_paused(seed, probes);
        self.resume();
        result
    }

    fn oracle_gate_paused(&self, seed: u64, probes: usize) -> Result<(), String> {
        let snap = self.handle.snapshot();
        let (status, body) = get(self.addr, "/v1/query/topk").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("topk -> {status}: {body:.120}"));
        }
        let env = envelope(&body)?;
        if env.epoch != snap.epoch {
            return Err(format!(
                "epoch moved while paused: served {} vs in-process {}",
                env.epoch, snap.epoch
            ));
        }
        let n = snap.graph.num_vertices();
        let config = query_bc_config(TOPK_SAMPLES.min(n), bc_seed(seed, snap.epoch));
        let want = top_k_betweenness(&snap.graph, &config, TOPK_K)
            .map_err(|e| format!("offline top-k: {e}"))?;
        check_topk(&env.data, &want)?;

        let colors = connected_components(&*snap.graph);
        let mut sizes = vec![0u64; n];
        for &c in &colors {
            sizes[c as usize] += 1;
        }
        let mut rng = SplitMix::new(seed ^ 0x6761_7465);
        for _ in 0..probes {
            let v = rng.below(n as u64) as usize;
            let data = self.query_data(&format!("/v1/query/component?vertex={v}"), snap.epoch)?;
            let c = colors[v];
            check_field(&data, "component", u64::from(c))?;
            check_field(&data, "size", sizes[c as usize])?;
            let data = self.query_data(&format!("/v1/query/degree?vertex={v}"), snap.epoch)?;
            check_field(&data, "degree", snap.graph.degree(v as VertexId) as u64)?;
            check_field(&data, "reach", sizes[c as usize] - 1)?;
        }
        Ok(())
    }

    fn query_data(&self, path: &str, epoch: u64) -> Result<Json, String> {
        let (status, body) = get(self.addr, path).map_err(|e| format!("{path}: {e}"))?;
        if status != 200 {
            return Err(format!("{path} -> {status}: {body:.120}"));
        }
        let env = envelope(&body)?;
        if env.epoch != epoch {
            return Err(format!(
                "{path}: epoch {} while paused at {epoch}",
                env.epoch
            ));
        }
        Ok(env.data)
    }
}

/// Gate: a served top-k payload equals the offline ranking bit for bit.
pub fn check_topk(data: &Json, want: &[(VertexId, f64)]) -> Result<(), String> {
    let top = data
        .get("top")
        .and_then(Json::as_arr)
        .ok_or("topk payload has no top array")?;
    if top.len() != want.len() {
        return Err(format!(
            "served {} entries, offline {}",
            top.len(),
            want.len()
        ));
    }
    for (rank, (entry, &(v, score))) in top.iter().zip(want).enumerate() {
        let got_v = entry.get("vertex").and_then(Json::as_u64);
        let got_s = entry.get("score").and_then(Json::as_f64);
        if got_v != Some(u64::from(v)) || got_s.map(f64::to_bits) != Some(score.to_bits()) {
            return Err(format!(
                "rank {}: served {got_v:?}/{got_s:?}, offline {v}/{score}",
                rank + 1
            ));
        }
    }
    Ok(())
}

fn check_field(data: &Json, key: &str, want: u64) -> Result<(), String> {
    match data.get(key).and_then(Json::as_u64) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{key}: served {got:?}, offline {want}")),
    }
}

// ------------------------------------------------------------ scrape

/// One `/metrics` scrape: plain samples and histogram buckets.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    values: HashMap<String, f64>,
    buckets: HashMap<String, Vec<(f64, u64)>>,
}

/// Parse Prometheus text exposition (unlabelled samples and
/// `_bucket{le=...}` lines; other labelled samples are skipped).
pub fn parse_scrape(text: &str) -> Scrape {
    let mut scrape = Scrape::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        if let Some((family, rest)) = key.split_once("_bucket{le=\"") {
            let le = rest.trim_end_matches("\"}");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            scrape
                .buckets
                .entry(family.to_owned())
                .or_default()
                .push((le, value as u64));
        } else if !key.contains('{') {
            scrape.values.insert(key.to_owned(), value);
        }
    }
    scrape
}

impl Scrape {
    /// Scrape `/metrics`.
    pub fn fetch(addr: SocketAddr) -> Result<Scrape, String> {
        match get(addr, "/metrics") {
            Ok((200, body)) => Ok(parse_scrape(&body)),
            Ok((status, _)) => Err(format!("/metrics -> {status}")),
            Err(e) => Err(format!("/metrics -> {e}")),
        }
    }

    /// Sample `graphct_<name>` (0 when the metric is not registered yet).
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(&format!("graphct_{name}"))
            .copied()
            .unwrap_or(0.0)
    }

    /// Quantile `q` of histogram `graphct_<name>` over the observations
    /// made between `earlier` and `self`, via the program's own
    /// bin interpolation.  NaN when nothing was observed.
    pub fn quantile_since(&self, earlier: &Scrape, name: &str, q: f64) -> f64 {
        let family = format!("graphct_{name}");
        let Some(now) = self.buckets.get(&family) else {
            return f64::NAN;
        };
        let before = earlier.buckets.get(&family);
        let mut edges = Vec::with_capacity(now.len());
        let mut counts = Vec::with_capacity(now.len());
        let (mut lower, mut prev_now, mut prev_before) = (0u64, 0u64, 0u64);
        for (i, &(le, cum)) in now.iter().enumerate() {
            let cum_before = before.and_then(|b| b.get(i)).map_or(0, |&(_, c)| c);
            edges.push(lower);
            counts.push((cum - prev_now).saturating_sub(cum_before - prev_before));
            prev_now = cum;
            prev_before = cum_before;
            if le.is_finite() {
                lower = le as u64 + 1;
            }
        }
        if counts.iter().all(|&c| c == 0) {
            return f64::NAN;
        }
        graphct_trace::histogram::quantile_from_bins(&edges, &counts, q)
    }

    /// Observations of histogram `graphct_<name>` since `earlier`.
    pub fn count_since(&self, earlier: &Scrape, name: &str) -> u64 {
        let key = format!("graphct_{name}_count");
        let now = self.values.get(&key).copied().unwrap_or(0.0);
        let before = earlier.values.get(&key).copied().unwrap_or(0.0);
        (now - before).max(0.0) as u64
    }

    /// Sum of histogram `graphct_<name>` since `earlier`.
    pub fn sum_since(&self, earlier: &Scrape, name: &str) -> f64 {
        let key = format!("graphct_{name}_sum");
        let now = self.values.get(&key).copied().unwrap_or(0.0);
        let before = earlier.values.get(&key).copied().unwrap_or(0.0);
        now - before
    }
}

// ------------------------------------------------------------ replay

/// The serve loop's ingest totals recomputed from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Batches replayed.
    pub batches: u64,
    /// Mentions processed (self mentions included).
    pub mentions: u64,
    /// Fresh edges inserted.
    pub inserted: u64,
    /// Mentions of an edge already live.
    pub duplicates: u64,
    /// Edges aged out of the window.
    pub expired: u64,
    /// Mentions the streaming graph rejected.
    pub errors: u64,
    /// Seconds spent interning, inserting and expiring (corpus
    /// generation excluded).
    pub secs: f64,
}

fn corpus_pass(profile: &DatasetProfile, seed: u64) -> Vec<(String, String)> {
    let (tweets, _pool) = generate_stream(&profile.config, seed);
    let mut pairs = Vec::new();
    for t in &tweets {
        for m in mentions(&t.text) {
            pairs.push((t.author.clone(), m.to_owned()));
        }
    }
    pairs
}

/// Replay `batches` batches of `plan`'s mention stream through
/// `StreamingGraph::insert_edge` / `delete_edge` with the same
/// last-mention sliding window the serve loop keeps.
pub fn replay(plan: &ServePlan, batches: u64) -> Replay {
    let mut out = Replay::default();
    let mut busy = Duration::ZERO;
    let mut labels = VertexLabels::new();
    let mut graph = StreamingGraph::new(0);
    let mut last_seen: HashMap<(VertexId, VertexId), u64> = HashMap::new();
    let mut window: VecDeque<(u64, Vec<(VertexId, VertexId)>)> = VecDeque::new();
    // One corpus pass in memory at a time; generating a pass is not timed.
    let mut pass = 0u64;
    let mut corpus = corpus_pass(&plan.profile, plan.seed);
    let mut cursor = 0usize;
    'batches: for batch in 0..batches {
        let mut start = Instant::now();
        let mut edges = Vec::with_capacity(plan.batch_size);
        for _ in 0..plan.batch_size {
            if cursor >= corpus.len() {
                busy += start.elapsed();
                pass += 1;
                cursor = 0;
                corpus = corpus_pass(&plan.profile, plan.seed.wrapping_add(pass));
                start = Instant::now();
                if corpus.is_empty() {
                    break 'batches;
                }
            }
            let (author, mention) = &corpus[cursor];
            cursor += 1;
            out.mentions += 1;
            let (u, v) = (labels.intern(author), labels.intern(mention));
            if u == v {
                continue;
            }
            graph.ensure_vertices(labels.len());
            match graph.insert_edge(u, v) {
                Ok(true) => out.inserted += 1,
                Ok(false) => out.duplicates += 1,
                Err(_) => {
                    out.errors += 1;
                    continue;
                }
            }
            let key = (u.min(v), u.max(v));
            last_seen.insert(key, batch);
            edges.push(key);
        }
        window.push_back((batch, edges));
        while window.len() > plan.window_batches.max(1) {
            let (aged, edges) = window.pop_front().expect("window is non-empty");
            for key in edges {
                if last_seen.get(&key) == Some(&aged) {
                    if graph.delete_edge(key.0, key.1).unwrap_or(false) {
                        out.expired += 1;
                    }
                    last_seen.remove(&key);
                }
            }
        }
        busy += start.elapsed();
        out.batches += 1;
    }
    out.secs = busy.as_secs_f64();
    std::hint::black_box(&graph);
    out
}

/// Gate: the server's final totals equal the replay exactly, with no
/// ingest errors.
pub fn check_ingest(stats: &IngestStats, replay: &Replay) -> Result<(), String> {
    let got = (
        stats.batches,
        stats.mentions,
        stats.edges_inserted,
        stats.edges_expired,
        stats.ingest_errors,
    );
    let want = (
        replay.batches,
        replay.mentions,
        replay.inserted,
        replay.expired,
        0,
    );
    if got == want && replay.errors == 0 {
        Ok(())
    } else {
        Err(format!(
            "server (batches, mentions, inserted, expired, errors) = {got:?}, replay {want:?} with {} replay errors",
            replay.errors
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_counters_and_histogram_deltas() {
        let before = parse_scrape(
            "# TYPE graphct_x_ns histogram\n\
             graphct_x_ns_bucket{le=\"0\"} 0\n\
             graphct_x_ns_bucket{le=\"1\"} 0\n\
             graphct_x_ns_bucket{le=\"3\"} 0\n\
             graphct_x_ns_bucket{le=\"7\"} 4\n\
             graphct_x_ns_bucket{le=\"+Inf\"} 4\n\
             graphct_x_ns_sum 20\n\
             graphct_x_ns_count 4\n\
             graphct_hits_total 5\n",
        );
        let after = parse_scrape(
            "graphct_x_ns_bucket{le=\"0\"} 0\n\
             graphct_x_ns_bucket{le=\"1\"} 0\n\
             graphct_x_ns_bucket{le=\"3\"} 10\n\
             graphct_x_ns_bucket{le=\"7\"} 14\n\
             graphct_x_ns_bucket{le=\"+Inf\"} 14\n\
             graphct_x_ns_sum 45\n\
             graphct_x_ns_count 14\n\
             graphct_hits_total 9\n\
             graphct_span_count{span=\"a\"} 3\n",
        );
        assert_eq!(after.value("hits_total"), 9.0);
        assert_eq!(after.value("absent"), 0.0);
        assert_eq!(after.count_since(&before, "x_ns"), 10);
        assert_eq!(after.sum_since(&before, "x_ns"), 25.0);
        // All ten new observations sit in the [2, 3] bin.
        let p50 = after.quantile_since(&before, "x_ns", 0.5);
        assert!((2.0..=4.0).contains(&p50), "p50 {p50}");
        assert!(after.quantile_since(&after, "x_ns", 0.5).is_nan());
    }

    #[test]
    fn ingest_gate_catches_a_corrupted_total() {
        let mut plan = ServePlan::paced(DatasetProfile::h1n1().scaled(0.02), 5);
        plan.window_batches = 8;
        let r = replay(&plan, 40);
        assert_eq!(r.batches, 40);
        assert_eq!(r.mentions, 40 * 64);
        assert!(r.expired > 0 && r.inserted > 0 && r.duplicates > 0);
        let stats = IngestStats {
            batches: r.batches,
            mentions: r.mentions,
            edges_inserted: r.inserted,
            edges_expired: r.expired,
            ingest_errors: 0,
        };
        check_ingest(&stats, &r).unwrap();
        let bad = IngestStats {
            edges_inserted: r.inserted - 1,
            ..stats
        };
        assert!(check_ingest(&bad, &r).is_err());
    }

    #[test]
    fn topk_gate_is_bitwise() {
        let data = graphct_trace::json::parse(
            "{\"top\":[{\"vertex\":3,\"score\":2.5},{\"vertex\":1,\"score\":1.25}]}",
        )
        .unwrap();
        check_topk(&data, &[(3, 2.5), (1, 1.25)]).unwrap();
        assert!(check_topk(&data, &[(3, 2.5), (1, 1.250_000_000_000_1)]).is_err());
        assert!(check_topk(&data, &[(1, 2.5), (3, 1.25)]).is_err());
        assert!(check_topk(&data, &[(3, 2.5)]).is_err());
    }

    #[test]
    fn rate_between_watermarks() {
        let t = Instant::now();
        let a = Watermark { batch: 4, at: t };
        let b = Watermark {
            batch: 12,
            at: t + Duration::from_millis(16),
        };
        assert!((ingest_rate(a, b, 256) - 8.0 * 256.0 / 0.016).abs() < 1e-6);
    }
}
