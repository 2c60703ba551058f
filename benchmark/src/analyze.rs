//! The analyst's path (paper §III–IV, Tables III and IV): tweets in
//! memory → mention graph → largest weakly connected component →
//! sampled betweenness → top-k report, plus the clustering summary and
//! the mutual-mention conversation filter — and the gates that check it.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use graphct_core::builder::GraphBuilder;
use graphct_core::subgraph::Subgraph;
use graphct_core::{CsrGraph, EdgeList, VertexLabels};
use graphct_kernels::components::{largest_component, sequential_components};
use graphct_kernels::{
    betweenness_centrality, clustering_summary, BetweennessConfig, ClusteringSummary,
};
use graphct_metrics::top_k_indices;
use graphct_twitter::conversations::ConversationSubgraph;
use graphct_twitter::parse::mentions;
use graphct_twitter::{build_tweet_graph, mutual_mention_filter, Tweet, TweetGraph};

use crate::spans::Recorder;

/// Sampled sources, as `graphct bc` defaults.
pub const BC_SAMPLES: usize = 256;
/// Report length, as `graphct bc --top` defaults.
pub const TOP_K: usize = 15;
/// Batch width of the second betweenness engine the gate trusts (the
/// MS-BFS batched forward pass).
pub const ORACLE_BATCH: usize = 64;

/// Everything one pass of the path produced.
pub struct Analysis {
    /// Mention graphs and Table III counts.
    pub graph: TweetGraph,
    /// The largest weakly connected component.
    pub lwcc: Subgraph,
    /// Betweenness scores over the LWCC.
    pub scores: Vec<f64>,
    /// Top-k LWCC vertices by score.
    pub top: Vec<usize>,
    /// Triangles, clustering coefficients and transitivity of the LWCC.
    pub clustering: ClusteringSummary,
    /// The mutual-mention conversation subgraph.
    pub conversations: ConversationSubgraph,
}

/// Wall time of each step of one pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// The whole pass: tweets in memory → report.
    pub total: f64,
    /// `build_tweet_graph`.
    pub build: f64,
    /// `largest_component`.
    pub lwcc: f64,
    /// `betweenness_centrality`.
    pub bc: f64,
    /// `top_k_indices`.
    pub topk: f64,
    /// `clustering_summary`.
    pub triangles: f64,
    /// `mutual_mention_filter`.
    pub mutual: f64,
    /// Share of `total` no step accounts for (NaN when not traced).
    pub unattributed: f64,
}

/// One pass of the analyst's path over `tweets`, with spans under a
/// fresh `analyze` root.
pub fn run(tweets: &[Tweet], seed: u64, spans: &Recorder) -> Result<(Analysis, StepTimes), String> {
    let root = spans.open();
    let start = Instant::now();
    let (graph, build) = spans.time("twitter.build_tweet_graph", root, || {
        build_tweet_graph(black_box(tweets))
    });
    let graph = graph.map_err(|e| format!("build_tweet_graph: {e}"))?;
    let (lwcc, lwcc_s) = spans.time("kernels.lwcc", root, || {
        largest_component(&graph.undirected)
    });
    let config = BetweennessConfig::sampled(BC_SAMPLES, seed);
    let (bc, bc_s) = spans.time("kernels.bc", root, || {
        betweenness_centrality(&lwcc.graph, &config)
    });
    let scores = bc
        .map_err(|e| format!("betweenness_centrality: {e}"))?
        .scores;
    let (top, topk) = spans.time("metrics.topk", root, || top_k_indices(&scores, TOP_K));
    let (clustering, triangles) = spans.time("kernels.triangles", root, || {
        clustering_summary(&lwcc.graph)
    });
    let clustering = clustering.map_err(|e| format!("clustering_summary: {e}"))?;
    let (conversations, mutual) = spans.time("twitter.mutual_filter", root, || {
        mutual_mention_filter(&graph.directed)
    });
    let conversations = conversations.map_err(|e| format!("mutual_mention_filter: {e}"))?;
    let end = Instant::now();
    spans.record(root, "analyze", 0, 0, start, end);
    let unattributed = if spans.enabled() {
        crate::spans::unattributed_share(&spans.spans(), root)
    } else {
        f64::NAN
    };
    let times = StepTimes {
        total: end.duration_since(start).as_secs_f64(),
        build,
        lwcc: lwcc_s,
        bc: bc_s,
        topk,
        triangles,
        mutual,
        unattributed,
    };
    let analysis = Analysis {
        graph,
        lwcc,
        scores,
        top,
        clustering,
        conversations,
    };
    Ok((black_box(analysis), times))
}

/// The arcs `build_tweet_graph` parses (author → each mention, self
/// mentions included, interned in the same order), for timing the CSR
/// build on its own.
pub fn mention_arcs(tweets: &[Tweet]) -> (EdgeList, usize) {
    let mut labels = VertexLabels::new();
    let mut arcs = EdgeList::new();
    for t in tweets {
        let author = labels.intern(&t.author);
        for m in mentions(&t.text) {
            let target = labels.intern(m);
            arcs.push(author, target);
        }
    }
    (arcs, labels.len())
}

/// Time the undirected CSR build over `arcs` alone.
pub fn time_csr_build(arcs: &EdgeList, n: usize) -> Result<f64, String> {
    let start = Instant::now();
    let g = GraphBuilder::undirected()
        .num_vertices(n)
        .build(black_box(arcs))
        .map_err(|e| format!("csr build: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    black_box(g);
    Ok(secs)
}

// ------------------------------------------------------------ gates

fn is_handle_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// An independent reading of the mention rule (paper Table I): `@`
/// not glued to a preceding word character, then 1–15 ASCII letters,
/// digits or underscores.
pub fn handles(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut after_word = false;
    let mut chars = text.char_indices().peekable();
    while let Some((pos, c)) = chars.next() {
        if c == '@' && !after_word {
            let start = pos + 1;
            let mut end = start;
            while end - start < 15 {
                match chars.peek() {
                    Some(&(p, next)) if is_handle_char(next) => {
                        end = p + 1;
                        chars.next();
                    }
                    _ => break,
                }
            }
            if end > start {
                out.push(&text[start..end]);
                after_word = true;
                continue;
            }
        }
        after_word = is_handle_char(c);
    }
    out
}

/// Table III quantities recounted with hash sets over screen names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recount {
    /// Tweets read.
    pub tweets: usize,
    /// Distinct authors and mentioned users.
    pub users: usize,
    /// Distinct author → mentioned pairs (self mentions excluded).
    pub arcs: usize,
    /// Distinct unordered user pairs with a mention either way.
    pub interactions: usize,
    /// Unordered pairs that mention each other both ways.
    pub mutual: usize,
    /// Tweets with at least one non-self mention.
    pub tweets_with_mentions: usize,
    /// Tweets with a mention that is answered somewhere in the corpus.
    pub tweets_with_responses: usize,
    /// Tweets whose author mentions themselves.
    pub self_reference_tweets: usize,
}

/// Recount Table III from the raw tweets.
pub fn recount(tweets: &[Tweet]) -> Recount {
    let mut users: HashSet<&str> = HashSet::new();
    let mut arcs: HashSet<(&str, &str)> = HashSet::new();
    let mut per_tweet: Vec<Vec<(&str, &str)>> = Vec::with_capacity(tweets.len());
    let (mut with_mentions, mut self_refs) = (0, 0);
    for t in tweets {
        let author = t.author.as_str();
        users.insert(author);
        let mut pairs = Vec::new();
        let mut self_ref = false;
        for m in handles(&t.text) {
            users.insert(m);
            if m == author {
                self_ref = true;
            } else {
                arcs.insert((author, m));
                pairs.push((author, m));
            }
        }
        with_mentions += usize::from(!pairs.is_empty());
        self_refs += usize::from(self_ref);
        per_tweet.push(pairs);
    }
    let interactions: HashSet<(&str, &str)> =
        arcs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    let mutual = arcs
        .iter()
        .filter(|&&(a, b)| a < b && arcs.contains(&(b, a)))
        .count();
    let responses = per_tweet
        .iter()
        .filter(|pairs| pairs.iter().any(|&(a, m)| arcs.contains(&(m, a))))
        .count();
    Recount {
        tweets: tweets.len(),
        users: users.len(),
        arcs: arcs.len(),
        interactions: interactions.len(),
        mutual,
        tweets_with_mentions: with_mentions,
        tweets_with_responses: responses,
        self_reference_tweets: self_refs,
    }
}

/// The program's Table III answer in [`Recount`] form.
pub fn table3(a: &Analysis) -> Recount {
    let g = &a.graph;
    Recount {
        tweets: g.num_tweets,
        users: g.undirected.num_vertices(),
        arcs: g.directed.num_arcs(),
        interactions: g.undirected.num_edges(),
        mutual: a.conversations.stats.mutual_edges,
        tweets_with_mentions: g.tweets_with_mentions,
        tweets_with_responses: g.tweets_with_responses,
        self_reference_tweets: g.self_reference_tweets,
    }
}

/// Gate: Table III counts equal the independent recount.
pub fn check_table3(got: &Recount, want: &Recount) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("program {got:?} != recount {want:?}"))
    }
}

/// Gate: the LWCC has the size (vertices, edges) of the largest
/// component `sequential_components` finds.
pub fn check_lwcc(full: &CsrGraph, lwcc: &CsrGraph) -> Result<(), String> {
    let colors = sequential_components(full);
    let n = colors.len();
    let mut sizes = vec![0usize; n];
    let mut degree_sums = vec![0usize; n];
    for (v, &c) in colors.iter().enumerate() {
        sizes[c as usize] += 1;
        degree_sums[c as usize] += full.degree(v as u32);
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let matches = (0..n).any(|c| {
        sizes[c] == largest
            && sizes[c] == lwcc.num_vertices()
            && degree_sums[c] / 2 == lwcc.num_edges()
    });
    if matches {
        Ok(())
    } else {
        Err(format!(
            "LWCC has {} vertices / {} edges; sequential components' largest has {largest} vertices",
            lwcc.num_vertices(),
            lwcc.num_edges()
        ))
    }
}

/// Betweenness from the second engine: the same sampled sources through
/// the MS-BFS batched forward pass.
pub fn bc_oracle(lwcc: &CsrGraph, seed: u64) -> Result<Vec<f64>, String> {
    let mut config = BetweennessConfig::sampled(BC_SAMPLES, seed);
    config.batch = ORACLE_BATCH;
    betweenness_centrality(lwcc, &config)
        .map(|r| r.scores)
        .map_err(|e| format!("batched betweenness: {e}"))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Gate: the reported top-k agrees with the oracle's scores.  Rank by
/// rank, the oracle's k-th best score must equal the program's, and each
/// reported vertex must carry that score in the oracle too (so a swap of
/// near-tied vertices passes but a wrong vertex does not).
pub fn check_top(top: &[usize], scores: &[f64], oracle: &[f64]) -> Result<(), String> {
    if scores.len() != oracle.len() {
        return Err(format!(
            "{} scores vs {} oracle scores",
            scores.len(),
            oracle.len()
        ));
    }
    let want = top_k_indices(oracle, top.len());
    if want.len() != top.len() {
        return Err(format!("top-{} has {} entries", want.len(), top.len()));
    }
    for (rank, (&v, &w)) in top.iter().zip(&want).enumerate() {
        let (got_score, want_score) = (scores[v], oracle[w]);
        if !close(got_score, want_score) || !close(oracle[v], want_score) {
            return Err(format!(
                "rank {}: program vertex {v} score {got_score} (oracle {}), oracle vertex {w} score {want_score}",
                rank + 1,
                oracle[v]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Tweet> {
        let profile = graphct_twitter::DatasetProfile::h1n1().scaled(0.05);
        graphct_twitter::generate_stream(&profile.config, 3).0
    }

    #[test]
    fn handle_rule_matches_the_parser() {
        for text in [
            "RT @jaketapper @Slate: flu",
            "mail me@host.com @@double @a@b",
            "@abcdefghijklmnopqrstu long",
            "@_x_ é@y @z1 trailing@",
            "",
        ] {
            assert_eq!(handles(text), mentions(text), "{text:?}");
        }
        for t in corpus() {
            assert_eq!(handles(&t.text), mentions(&t.text));
        }
    }

    #[test]
    fn table3_gate_passes_and_catches_a_corrupted_count() {
        let tweets = corpus();
        let (a, _) = run(&tweets, 1, &Recorder::new(false)).unwrap();
        let want = recount(&tweets);
        check_table3(&table3(&a), &want).unwrap();
        let mut bad = table3(&a);
        bad.interactions += 1;
        assert!(check_table3(&bad, &want).is_err());
    }

    #[test]
    fn lwcc_gate_passes_and_catches_a_wrong_component() {
        let tweets = corpus();
        let (a, _) = run(&tweets, 1, &Recorder::new(false)).unwrap();
        check_lwcc(&a.graph.undirected, &a.lwcc.graph).unwrap();
        // The second-largest component is not the LWCC.
        let wrong = graphct_kernels::components::nth_largest_component(&a.graph.undirected, 1)
            .expect("the corpus has several components");
        assert!(check_lwcc(&a.graph.undirected, &wrong.graph).is_err());
    }

    #[test]
    fn top_gate_passes_and_catches_corrupted_rankings() {
        let tweets = corpus();
        let (a, _) = run(&tweets, 1, &Recorder::new(false)).unwrap();
        let oracle = bc_oracle(&a.lwcc.graph, 1).unwrap();
        check_top(&a.top, &a.scores, &oracle).unwrap();

        let mut swapped = a.top.clone();
        swapped.swap(0, TOP_K - 1);
        assert!(check_top(&swapped, &a.scores, &oracle).is_err());

        let mut inflated = a.scores.clone();
        inflated[a.top[3]] *= 1.001;
        assert!(check_top(&a.top, &inflated, &oracle).is_err());

        let mut wrong_vertex = a.top.clone();
        wrong_vertex[TOP_K - 1] = (0..a.scores.len()).find(|v| !a.top.contains(v)).unwrap();
        assert!(check_top(&wrong_vertex, &a.scores, &oracle).is_err());
    }

    #[test]
    fn csr_build_is_timed_over_the_parsed_arcs() {
        let tweets = corpus();
        let (arcs, n) = mention_arcs(&tweets);
        let (a, _) = run(&tweets, 1, &Recorder::new(false)).unwrap();
        assert_eq!(n, a.graph.labels.len());
        assert!(arcs.len() >= a.graph.directed.num_arcs());
        assert!(time_csr_build(&arcs, n).unwrap() > 0.0);
    }
}
