//! Query-plane integration tests: concurrent `/v1/query/*` clients over
//! real HTTP against a live ingest, oracle-checked against offline
//! kernel recomputes on the same frozen snapshot, plus the legacy
//! wire-format compatibility contract for the pre-router endpoints.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use graphct_kernels::{connected_components, top_k_betweenness};
use graphct_obs::{bc_seed, query_bc_config, start, ServeConfig};
use graphct_trace::json::{parse, Json};
use graphct_twitter::DatasetProfile;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status_line = text.lines().next().expect("status line");
    let mut fields = status_line.splitn(3, ' ');
    let status: u16 = fields
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    assert!(
        fields.next().is_some_and(|reason| !reason.is_empty()),
        "status line without a reason phrase: {status_line:?}"
    );
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_default()
        .to_owned();
    (status, content_type, body.to_owned())
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::atlflood().scaled(0.05),
        seed,
        batch_size: 32,
        batches: 0, // endless; the tests drive shutdown
        interval_ms: 2,
        window_batches: 256,
        trace_out: None,
        stall_timeout_ms: 0,
        profile_hz: 0,
        snapshot_every: 2,
        query_threads: 4,
        topk: 10,
    }
}

/// Parse a `/v1/*` envelope, asserting the versioned shape.
fn envelope(body: &str) -> (u64, f64, Json) {
    let v = parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert_eq!(v.get("v").and_then(Json::as_u64), Some(1), "{body}");
    let epoch = v.get("epoch").and_then(Json::as_u64).expect("epoch");
    let staleness = v
        .get("staleness_s")
        .and_then(Json::as_f64)
        .expect("staleness_s");
    assert!(staleness >= 0.0);
    let data = v.get("data").cloned().expect("data member");
    (epoch, staleness, data)
}

/// Poll `/v1/snapshot` until at least one real freeze is published.
fn wait_for_first_snapshot(addr: SocketAddr) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = http_get(addr, "/v1/snapshot");
        assert_eq!(status, 200, "{body}");
        let (epoch, _, _) = envelope(&body);
        if epoch > 0 {
            return epoch;
        }
        assert!(Instant::now() < deadline, "no snapshot within 30s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    exposition
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn concurrent_queries_mid_ingest_with_offline_oracle() {
    let handle = start(serve_config(7)).expect("serve starts");
    let addr = handle.local_addr();
    wait_for_first_snapshot(addr);

    let (_, _, before) = http_get(addr, "/metrics");
    let batches_before = metric_value(&before, "graphct_ingest_batches_total").unwrap();

    // --- 4 client threads hammer topk + component mid-ingest ---
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut epochs = Vec::new();
                for i in 0..12 {
                    let path = if i % 2 == 0 {
                        "/v1/query/topk?k=5&samples=8"
                    } else {
                        "/v1/query/component?vertex=0"
                    };
                    let (status, content_type, body) = http_get(addr, path);
                    assert_eq!(status, 200, "client {c}: {body}");
                    assert_eq!(content_type, "application/json");
                    let (epoch, _, data) = envelope(&body);
                    epochs.push(epoch);
                    if i % 2 == 0 {
                        assert!(data.get("top").and_then(Json::as_arr).is_some(), "{body}");
                    } else {
                        assert!(data.get("size").and_then(Json::as_u64).unwrap() >= 1);
                    }
                }
                epochs
            })
        })
        .collect();
    for client in clients {
        let epochs = client.join().expect("client thread");
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epochs must be monotone per client: {epochs:?}"
        );
    }

    // --- ingest kept flowing underneath the query load ---
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, after) = http_get(addr, "/metrics");
        if metric_value(&after, "graphct_ingest_batches_total").unwrap() > batches_before {
            assert!(
                metric_value(&after, "graphct_snapshot_epoch").unwrap() >= 1.0,
                "{after}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ingest stopped advancing under query load"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // --- oracle: freeze the world, recompute offline, demand identity ---
    let (status, _, body) = http_get(addr, "/pause");
    assert_eq!((status, body.trim()), (200, "paused"));
    // A batch may have been mid-flight when pause landed; wait until the
    // epoch is stable across two reads.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, a) = http_get(addr, "/v1/snapshot");
        std::thread::sleep(Duration::from_millis(50));
        let (_, _, b) = http_get(addr, "/v1/snapshot");
        if envelope(&a).0 == envelope(&b).0 {
            break;
        }
        assert!(Instant::now() < deadline, "epoch never stabilized");
    }

    let snap = handle.snapshot();
    let n = snap.graph.num_vertices();
    assert!(n > 0, "paused snapshot must be non-empty");

    // topk: the served ranking and scores must be bit-identical to the
    // same kernel run offline on the frozen graph with the same
    // epoch-derived seed.
    let (k, samples) = (5usize, 8usize);
    let (status, _, body) = http_get(addr, "/v1/query/topk?k=5&samples=8");
    assert_eq!(status, 200, "{body}");
    let (epoch, _, data) = envelope(&body);
    assert_eq!(epoch, snap.epoch, "handle and HTTP must agree on epoch");
    let config = query_bc_config(samples.min(n), bc_seed(7, epoch));
    let expect = top_k_betweenness(&snap.graph, &config, k).expect("offline recompute");
    let served: Vec<(u64, f64)> = data
        .get("top")
        .and_then(Json::as_arr)
        .expect("top array")
        .iter()
        .map(|entry| {
            (
                entry.get("vertex").and_then(Json::as_u64).unwrap(),
                entry.get("score").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    assert_eq!(served.len(), expect.len());
    for (got, want) in served.iter().zip(&expect) {
        assert_eq!(got.0, u64::from(want.0), "ranking mismatch: {body}");
        assert_eq!(
            got.1.to_bits(),
            want.1.to_bits(),
            "score must be bit-identical: served {} vs offline {}",
            got.1,
            want.1
        );
    }

    // component + degree: identical to offline components on the freeze.
    let colors = connected_components(&*snap.graph);
    let mut sizes = vec![0u64; n];
    for &c in &colors {
        sizes[c as usize] += 1;
    }
    for v in [0usize, n / 2, n - 1] {
        let (status, _, body) = http_get(addr, &format!("/v1/query/component?vertex={v}"));
        assert_eq!(status, 200, "{body}");
        let (epoch, _, data) = envelope(&body);
        assert_eq!(epoch, snap.epoch);
        assert_eq!(
            data.get("component").and_then(Json::as_u64).unwrap(),
            u64::from(colors[v]),
            "{body}"
        );
        assert_eq!(
            data.get("size").and_then(Json::as_u64).unwrap(),
            sizes[colors[v] as usize],
            "{body}"
        );

        let (status, _, body) = http_get(addr, &format!("/v1/query/degree?vertex={v}"));
        assert_eq!(status, 200, "{body}");
        let (_, _, data) = envelope(&body);
        assert_eq!(
            data.get("degree").and_then(Json::as_u64).unwrap(),
            snap.graph.neighbors(v as u32).len() as u64
        );
        assert_eq!(
            data.get("reach").and_then(Json::as_u64).unwrap(),
            sizes[colors[v] as usize] - 1
        );
    }

    // ego: members are the center plus its frozen neighbors.
    let (status, _, body) = http_get(addr, "/v1/query/ego?vertex=0");
    assert_eq!(status, 200, "{body}");
    let (_, _, data) = envelope(&body);
    let members: Vec<u64> = data
        .get("members")
        .and_then(Json::as_arr)
        .expect("members")
        .iter()
        .map(|m| m.get("vertex").and_then(Json::as_u64).unwrap())
        .collect();
    let mut want: Vec<u64> = snap
        .graph
        .neighbors(0)
        .iter()
        .map(|&v| u64::from(v))
        .collect();
    want.push(0);
    want.sort_unstable();
    assert_eq!(members, want, "{body}");

    // on-demand refresh: resume ingest and the requested freeze lands.
    let (status, _, body) = http_get(addr, "/v1/snapshot/refresh");
    assert_eq!(status, 200, "{body}");
    http_get(addr, "/resume");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = http_get(addr, "/v1/snapshot");
        if envelope(&body).0 > snap.epoch {
            break;
        }
        assert!(Instant::now() < deadline, "refresh never produced an epoch");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = handle.wait();
    assert!(stats.batches > 0);
}

#[test]
fn legacy_wire_formats_are_unchanged() {
    let handle = start(serve_config(11)).expect("serve starts");
    let addr = handle.local_addr();
    wait_for_first_snapshot(addr);

    // /healthz: exact 200 body.
    let (status, content_type, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert_eq!(content_type, "text/plain; charset=utf-8");

    // /metrics: Prometheus exposition content type and schema.
    let (status, content_type, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(content_type, "text/plain; version=0.0.4; charset=utf-8");
    graphct_trace::schema::validate_exposition(&body)
        .unwrap_or_else(|(line, e)| panic!("line {line}: {e}\n{body}"));

    // /progress: JSON with the health member.
    let (status, content_type, body) = http_get(addr, "/progress");
    assert_eq!(status, 200);
    assert_eq!(content_type, "application/json");
    let v = parse(&body).expect("progress is JSON");
    assert_eq!(v.get("health").and_then(Json::as_str), Some("ok"));

    // /pause + /resume: exact bodies.
    let (status, _, body) = http_get(addr, "/pause");
    assert_eq!((status, body.as_str()), (200, "paused\n"));
    let (status, _, body) = http_get(addr, "/resume");
    assert_eq!((status, body.as_str()), (200, "resumed\n"));

    // Unknown path: exact 404 body.
    let (status, _, body) = http_get(addr, "/nope");
    assert_eq!((status, body.as_str()), (404, "not found\n"));

    // Malformed query parameter: 400 with the versioned error envelope.
    let (status, _, body) = http_get(addr, "/v1/query/degree?vertex=bogus");
    assert_eq!(status, 400, "{body}");
    assert!(parse(&body).expect("JSON").get("error").is_some(), "{body}");

    // Non-GET: exact 405 body, on known and unknown paths alike.
    for target in ["/metrics", "/definitely/not/a/route"] {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 405 Method Not Allowed"),
            "{text}"
        );
        assert!(text.ends_with("method not allowed\n"), "{text}");
    }

    // Draining still flips healthz exactly as before.
    handle.begin_shutdown();
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (503, "draining\n"));
    handle.wait();
}
