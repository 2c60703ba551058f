//! The load generator: a minimal HTTP client, the `/v1` query mix, an
//! open-loop generator that times each request from when it was due,
//! and a closed-loop capacity probe.
//!
//! Every request opens its own connection (the server answers with
//! `Connection: close`), and at most two requests are in flight at once.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use graphct_trace::json::{self, Json};

use crate::spans::Recorder;
use crate::stats;

/// Most connections the generator keeps open at once (the container's
/// core count).
pub const MAX_CONNECTIONS: usize = 2;

/// Median lateness over the last tenth of an open-loop schedule above
/// which the backlog counts as grown: a sustained server keeps the
/// generator within about one request's service time of its schedule.
pub const BACKLOG_LATE_MS: f64 = 50.0;

/// One HTTP `GET`: status and body.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no status line in {text:?}")))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// A parsed `/v1` success envelope: `{"v":1,"epoch":E,"staleness_s":S,"data":D}`.
#[derive(Debug)]
pub struct Envelope {
    /// Snapshot epoch the answer came from.
    pub epoch: u64,
    /// The `data` payload.
    pub data: Json,
}

/// Parse and validate a `/v1` success envelope.
pub fn envelope(body: &str) -> Result<Envelope, String> {
    let doc = json::parse(body).map_err(|e| format!("not JSON ({e}): {body:.120}"))?;
    if doc.get("v").and_then(Json::as_u64) != Some(1) {
        return Err(format!("missing \"v\":1: {body:.120}"));
    }
    let epoch = doc
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing epoch: {body:.120}"))?;
    if doc.get("staleness_s").and_then(Json::as_f64).is_none() {
        return Err(format!("missing staleness_s: {body:.120}"));
    }
    let data = doc
        .get("data")
        .cloned()
        .ok_or_else(|| format!("missing data: {body:.120}"))?;
    Ok(Envelope { epoch, data })
}

/// Query endpoints of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/query/topk` with the default `k` and `samples`.
    Topk,
    /// `/v1/query/component?vertex=V`.
    Component,
    /// `/v1/query/degree?vertex=V`.
    Degree,
    /// `/v1/query/ego?vertex=V`.
    Ego,
    /// `/v1/snapshot`.
    Snapshot,
}

impl Endpoint {
    /// Short name (matches the program's `query_<name>_ns` histograms).
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Topk => "topk",
            Endpoint::Component => "component",
            Endpoint::Degree => "degree",
            Endpoint::Ego => "ego",
            Endpoint::Snapshot => "snapshot",
        }
    }
}

/// One request of a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Endpoint hit.
    pub endpoint: Endpoint,
    /// Where the queried vertex lies in the id range, in `[0, 1)`: the
    /// id is resolved against the snapshot current when the request is
    /// sent, so queries spread over the graph as it grows.
    pub at: f64,
}

impl Request {
    /// Path and query string against a snapshot of `vertices` vertices.
    pub fn path(&self, vertices: usize) -> String {
        let v = (self.at * vertices as f64) as usize;
        match self.endpoint {
            Endpoint::Topk => "/v1/query/topk".to_owned(),
            Endpoint::Component => format!("/v1/query/component?vertex={v}"),
            Endpoint::Degree => format!("/v1/query/degree?vertex={v}"),
            Endpoint::Ego => format!("/v1/query/ego?vertex={v}"),
            Endpoint::Snapshot => "/v1/snapshot".to_owned(),
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs do
/// not depend on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Due times of `count` requests arriving as a Poisson process at `rate`
/// per second: independent users, and no fixed period that could beat
/// against the server's 5 ms accept poll (a fixed 12.5 ms period per
/// connection made p99 swing threefold between runs).
pub fn poisson_schedule(count: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed ^ 0x7363_6865_6475_6c65);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let due = Duration::from_secs_f64(t);
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            due
        })
        .collect()
}

/// `count` requests of the dashboard mix: one top-k in eight, the rest
/// spread over component, degree, ego (two sevenths each) and snapshot.
pub fn mix(count: usize, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x6D69_7820_7365_6564);
    (0..count)
        .map(|i| {
            let endpoint = if i % 8 == 0 {
                Endpoint::Topk
            } else {
                match rng.below(7) {
                    0 | 1 => Endpoint::Component,
                    2 | 3 => Endpoint::Degree,
                    4 | 5 => Endpoint::Ego,
                    _ => Endpoint::Snapshot,
                }
            };
            let at = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Request { endpoint, at }
        })
        .collect()
}

/// Timing of one open-loop request, relative to the schedule start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When the response was complete.
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also charges the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How far behind schedule the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Service time: from send to completion.
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// The outcome of one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Endpoint hit.
    pub endpoint: Endpoint,
    /// Schedule timing.
    pub timing: Timing,
    /// `None` when the response was a 200 with a valid v1 envelope,
    /// otherwise why it failed.
    pub error: Option<String>,
}

/// The vertex count of the snapshot being served, read when a request is
/// sent.
pub type Vertices<'a> = &'a (dyn Fn() -> usize + Sync);

/// Send `req` and validate the answer: a 200 carrying a v1 envelope.
fn send(addr: SocketAddr, req: &Request, vertices: Vertices<'_>) -> Option<String> {
    let path = req.path(vertices());
    match get(addr, &path) {
        Ok((200, body)) => envelope(&body).err(),
        Ok((status, body)) => Some(format!("{path} -> {status}: {body:.120}")),
        Err(e) => Some(format!("{path} -> {e}")),
    }
}

/// Run `requests` open loop over `connections` (≤ [`MAX_CONNECTIONS`])
/// sender threads.  Request `i` is due at `schedule[i]`; sender `c` owns
/// the requests with `i % connections == c`, sleeps until each is due,
/// and sends it as soon as its previous request completed.  Samples come
/// back in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    schedule: &[Duration],
    connections: usize,
    vertices: Vertices<'_>,
    spans: &Recorder,
) -> Vec<Sample> {
    let connections = connections.clamp(1, MAX_CONNECTIONS);
    let start = Instant::now();
    let mut samples: Vec<Option<Sample>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, (req, &due)) in requests
                        .iter()
                        .zip(schedule)
                        .enumerate()
                        .skip(c)
                        .step_by(connections)
                    {
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = Instant::now();
                        let error = send(addr, req, vertices);
                        let done_at = Instant::now();
                        spans.record(0, "loadgen.request", 0, i as u64 + 1, sent_at, done_at);
                        let timing = Timing {
                            due,
                            sent: sent_at.duration_since(start),
                            done: done_at.duration_since(start),
                        };
                        out.push((
                            i,
                            Sample {
                                endpoint: req.endpoint,
                                timing,
                                error,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            for (i, s) in w.join().expect("open-loop sender panicked") {
                samples[i] = Some(s);
            }
        }
    });
    samples
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect()
}

/// Summary of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopSummary {
    /// Latency samples from successful requests, sorted ascending (ms).
    pub latencies_ms: Vec<f64>,
    /// Generator lateness, sorted ascending (ms).
    pub late_ms: Vec<f64>,
    /// Did the generator fall steadily behind (a growing backlog)?
    pub backlog_grew: bool,
}

/// Summarise open-loop samples (in schedule order).
pub fn summarize(samples: &[Sample]) -> OpenLoopSummary {
    let mut latencies_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| s.timing.latency_ms())
        .collect();
    stats::sort(&mut latencies_ms);
    let mut late_ms: Vec<f64> = samples.iter().map(|s| s.timing.late_ms()).collect();
    let tail = &late_ms[late_ms.len() - late_ms.len().div_ceil(10).min(late_ms.len())..];
    let backlog_grew = !tail.is_empty() && stats::median(tail) > BACKLOG_LATE_MS;
    stats::sort(&mut late_ms);
    OpenLoopSummary {
        latencies_ms,
        late_ms,
        backlog_grew,
    }
}

/// Closed-loop capacity: `connections` clients each send their next
/// request as soon as the previous one completes, cycling through
/// `requests`, for `duration`.  Returns the samples (timed from send)
/// and the wall time they took.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    connections: usize,
    duration: Duration,
    vertices: Vertices<'_>,
) -> (Vec<Sample>, f64) {
    let connections = connections.clamp(1, MAX_CONNECTIONS);
    let start = Instant::now();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = c;
                    while start.elapsed() < duration {
                        let req = &requests[i % requests.len()];
                        i += connections;
                        let sent = start.elapsed();
                        let error = send(addr, req, vertices);
                        let done = start.elapsed();
                        out.push(Sample {
                            endpoint: req.endpoint,
                            timing: Timing {
                                due: sent,
                                sent,
                                done,
                            },
                            error,
                        });
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            samples.extend(w.join().expect("closed-loop client panicked"));
        }
    });
    (samples, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(due: u64, sent: u64, done: u64) -> Timing {
        let ms = Duration::from_millis;
        Timing {
            due: ms(due),
            sent: ms(sent),
            done: ms(done),
        }
    }

    fn sample(t: Timing) -> Sample {
        Sample {
            endpoint: Endpoint::Degree,
            timing: t,
            error: None,
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_time() {
        // Due at 10 ms, sent late at 25 ms (the previous request on this
        // connection stalled), answered at 30 ms: the user waited 20 ms,
        // not the 5 ms of service time.
        let t = timing(10, 25, 30);
        assert_eq!(t.latency_ms(), 20.0);
        assert_eq!(t.late_ms(), 15.0);
        assert_eq!(t.service_ms(), 5.0);
    }

    #[test]
    fn a_steady_schedule_has_no_backlog() {
        let samples: Vec<Sample> = (0..100)
            .map(|i| sample(timing(i * 10, i * 10 + 1, i * 10 + 6)))
            .collect();
        let s = summarize(&samples);
        assert!(!s.backlog_grew);
        assert_eq!(s.latencies_ms.len(), 100);
        assert_eq!(stats::percentile(&s.latencies_ms, 5_000), 6.0);
    }

    #[test]
    fn a_growing_backlog_is_flagged() {
        // Service takes 15 ms but requests are due every 10 ms: each
        // send slips 5 ms further behind.
        let samples: Vec<Sample> = (0..100)
            .map(|i| sample(timing(i * 10, i * 15, i * 15 + 15)))
            .collect();
        let s = summarize(&samples);
        assert!(s.backlog_grew);
        assert!(s.late_ms.last().copied().unwrap() > BACKLOG_LATE_MS);
    }

    #[test]
    fn failed_requests_carry_no_latency() {
        let mut bad = sample(timing(0, 0, 1));
        bad.error = Some("500".into());
        let s = summarize(&[bad, sample(timing(0, 0, 2))]);
        assert_eq!(s.latencies_ms, vec![2.0]);
    }

    #[test]
    fn dashboard_mix_is_one_topk_in_eight_and_seeded() {
        let a = mix(800, 7);
        assert_eq!(a, mix(800, 7));
        assert_ne!(a, mix(800, 8));
        let topk = a.iter().filter(|r| r.endpoint == Endpoint::Topk).count();
        assert_eq!(topk, 100);
        for e in [Endpoint::Component, Endpoint::Degree, Endpoint::Ego] {
            assert!(a.iter().filter(|r| r.endpoint == e).count() > 150);
        }
        // Vertices spread over whatever the snapshot holds when sent.
        let ego = a.iter().find(|r| r.endpoint == Endpoint::Ego).unwrap();
        let v = |n: usize| -> usize { ego.path(n).rsplit('=').next().unwrap().parse().unwrap() };
        assert!(v(10) < 10 && v(1_000_000) < 1_000_000);
        assert!(a.iter().all(|r| (0.0..1.0).contains(&r.at)));
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let due = poisson_schedule(10_000, 200.0, 3);
        assert_eq!(due[0], Duration::ZERO);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let span = due[due.len() - 1].as_secs_f64();
        assert!(
            (span - 50.0).abs() < 2.5,
            "10 000 arrivals at 200/s took {span} s"
        );
        assert_eq!(due, poisson_schedule(10_000, 200.0, 3));
    }

    #[test]
    fn envelopes_are_validated() {
        let ok =
            envelope("{\"v\":1,\"epoch\":3,\"staleness_s\":0.002,\"data\":{\"x\":1}}").unwrap();
        assert_eq!(ok.epoch, 3);
        assert!(envelope("{\"v\":2,\"epoch\":3,\"staleness_s\":0,\"data\":{}}").is_err());
        assert!(envelope("{\"v\":1,\"epoch\":3,\"staleness_s\":0,\"error\":\"x\"}").is_err());
        assert!(envelope("not json").is_err());
    }
}
