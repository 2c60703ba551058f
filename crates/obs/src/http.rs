//! A minimal std-only HTTP/1.1 server.
//!
//! The shims-only policy rules out hyper/axum; the serve plane needs
//! exactly one thing — answering small `GET` requests with small text
//! bodies — so a nonblocking accept loop on [`TcpListener`] plus
//! per-request blocking I/O with short timeouts covers it.
//!
//! The accept thread never runs handlers: accepted connections are
//! handed to a small worker pool over a channel, so a slow query (a
//! sampled betweenness run can take tens of milliseconds) cannot block
//! the next `/metrics` scrape or `/healthz` probe.  Prometheus scrapes
//! and `curl`ing humans shared one thread fine; concurrent `/v1/query/*`
//! clients are the reason the pool exists.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// An HTTP response the route handler produces.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A plaintext response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// The Prometheus text exposition content type.
    pub fn metrics(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> Self {
        Self::text(404, "not found\n")
    }
}

/// The route handler: request method, path, and raw query string
/// (without the `?`, empty when absent) in, [`Response`] out.  Method
/// handling (405s) lives here — in practice in the
/// [`Router`](crate::router::Router) — not in the transport.
pub type Handler = dyn Fn(&str, &str, &str) -> Response + Send + Sync;

/// A background HTTP server; dropping (or [`stop`](HttpServer::stop)ping)
/// it shuts the accept loop down and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` with a single worker (plenty for pure metrics
    /// exporting; `graphct serve` uses [`bind_pooled`](Self::bind_pooled)).
    pub fn bind(addr: &str, handler: Arc<Handler>) -> std::io::Result<HttpServer> {
        Self::bind_pooled(addr, handler, 1)
    }

    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// requests through `handler` on a pool of `workers` threads fed by
    /// a dedicated accept thread.
    pub fn bind_pooled(
        addr: &str,
        handler: Arc<Handler>,
        workers: usize,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = std::sync::mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("graphct-obs-http-{i}"))
                    .spawn(move || {
                        // Register with the continuous profiler so query
                        // time shows up under a named thread.
                        graphct_trace::register_current_thread();
                        loop {
                            // Hold the receiver lock only for the take;
                            // handling runs unlocked so workers overlap.
                            let next = rx.lock().expect("http receiver poisoned").recv();
                            match next {
                                Ok(stream) => {
                                    let _ = handle_connection(stream, &handler);
                                }
                                Err(_) => break, // accept thread gone: drain done
                            }
                        }
                    })?,
            );
        }

        let stop_flag = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("graphct-obs-http".into())
            .spawn(move || {
                graphct_trace::register_current_thread();
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if tx.send(stream).is_err() {
                                break; // no workers left
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if stop_flag.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => {
                            if stop_flag.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                // Dropping `tx` here closes the channel: workers finish
                // whatever was already accepted, then exit.
            })?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept: Some(accept),
            workers: pool,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections, and join all
    /// threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Arc<Handler>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read until the end of the request head (or a small cap — the
    // exporter serves GETs with no body).
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    // Split the query string off the path (`/profile?format=json`).
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };

    let response = handler(method, path, query);
    write_response(&mut stream, &response)
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    };
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Shutdown};
    use std::sync::{mpsc, Barrier};

    /// Send `raw` as the whole request, half-close, and return the
    /// response's status line and body.  The read timeout turns a
    /// server hang into a test failure.
    fn send(addr: SocketAddr, raw: &[u8]) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("response head");
        (head.lines().next().unwrap().to_owned(), body.to_owned())
    }

    fn status(line: &str) -> u16 {
        line.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap()
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        let (line, body) = send(addr, request.as_bytes());
        (status(&line), body)
    }

    fn test_handler() -> Arc<Handler> {
        Arc::new(
            |method: &str, path: &str, query: &str| match (method, path) {
                ("GET", "/hello") if query.is_empty() => Response::text(200, "hi\n"),
                ("GET", "/hello") => Response::text(200, format!("hi query={query}\n")),
                ("GET", _) => Response::not_found(),
                _ => Response::text(405, "method not allowed\n"),
            },
        )
    }

    /// Run `f` on a thread and fail, instead of hanging the suite, if
    /// it does not finish within ten seconds.
    fn within_deadline(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("did not finish within 10 s");
        thread.join().unwrap();
    }

    #[test]
    fn serves_routes_and_404s() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        assert_eq!(get(addr, "/hello"), (200, "hi\n".to_owned()));
        assert_eq!(
            get(addr, "/hello?x=1"),
            (200, "hi query=x=1\n".to_owned()),
            "query string reaches the handler"
        );
        assert_eq!(get(addr, "/missing").0, 404);
        server.stop();
        // Port is released after stop.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn pooled_workers_answer_concurrent_requests() {
        let server = HttpServer::bind_pooled("127.0.0.1:0", test_handler(), 4).unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || get(addr, "/hello")))
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), (200, "hi\n".to_owned()));
        }
        server.stop();
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn stop_on_an_unspecified_address_releases_the_port() {
        let server = HttpServer::bind_pooled("0.0.0.0:0", test_handler(), 2).unwrap();
        let port = server.local_addr().port();
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
        assert_eq!(get(loopback, "/hello").0, 200);
        within_deadline(move || server.stop());
        assert!(TcpStream::connect(loopback).is_err(), "port released");
    }

    #[test]
    fn stop_lets_an_in_flight_request_finish() {
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let handler: Arc<Handler> = {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            Arc::new(move |_: &str, _: &str, _: &str| {
                entered.wait();
                release.wait();
                Response::text(200, "slow\n")
            })
        };
        let server = HttpServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        let stopping = Arc::clone(&server.stop);
        let client = std::thread::spawn(move || get(addr, "/slow"));
        entered.wait();
        let stopper = std::thread::spawn(move || within_deadline(move || server.stop()));
        // Release the handler only once `stop()` has begun.
        while !stopping.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        release.wait();
        assert_eq!(client.join().unwrap(), (200, "slow\n".to_owned()));
        stopper.join().unwrap();
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn corrupt_heads_get_a_status_and_leave_the_worker_serving() {
        let server = HttpServer::bind("127.0.0.1:0", test_handler()).unwrap();
        let addr = server.local_addr();
        // Exactly one byte past the 8 KB cap, so the reader stops with
        // nothing left unread (unread bytes would make close send RST).
        let mut oversized = b"GET /".to_vec();
        oversized.resize(8193, b'x');
        let cases: [(&str, &[u8], u16); 4] = [
            ("8 KB cap, no CRLFCRLF", &oversized, 404),
            (
                "non-UTF-8 request line",
                b"\xff\xfe /hello HTTP/1.1\r\n\r\n",
                405,
            ),
            ("no target", b"GET\r\n\r\n", 404),
            (
                "half-closed before the blank line",
                b"GET /missing HTTP/1.1\r\nHost: test\r\n",
                404,
            ),
        ];
        for (name, raw, expected) in cases {
            assert_eq!(status(&send(addr, raw).0), expected, "{name}");
        }
        assert_eq!(get(addr, "/hello"), (200, "hi\n".to_owned()));
        server.stop();
    }

    #[test]
    fn every_emitted_status_has_a_reason_phrase() {
        let handler: Arc<Handler> =
            Arc::new(|_: &str, path: &str, _: &str| Response::text(path[1..].parse().unwrap(), ""));
        let server = HttpServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        for code in [200, 400, 404, 405, 500, 503] {
            let (line, _) = send(addr, format!("GET /{code} HTTP/1.1\r\n\r\n").as_bytes());
            let reason = line.strip_prefix(&format!("HTTP/1.1 {code} ")).unwrap();
            assert!(!reason.trim().is_empty(), "{line:?}");
        }
        server.stop();
    }
}
