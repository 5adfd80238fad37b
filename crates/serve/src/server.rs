//! The server: acceptor + connection threads + a bounded worker pool.
//!
//! Thread layout (all `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──spawns──▶ connection threads (1 per socket, I/O only)
//!                          │  parse HTTP → parse Request
//!                          │  try_push ──▶ JobQueue (bounded) ──▶ workers (N)
//!                          │                  503 when full         │ execute()
//!                          ◀──────────── mpsc reply channel ────────┘
//! ```
//!
//! Connection threads do I/O and protocol work only; every simulation
//! runs on one of the `workers` compute threads, so a slow tenant can
//! occupy at most the queue, never the listener. `/healthz` and
//! `/metrics` are answered inline by the connection thread — they must
//! keep working while the compute pool is saturated, that being the
//! whole point of a health probe.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, close the
//! queue (rejecting new pushes), let the workers drain every accepted
//! job, then wait for connection threads to flush their responses. An
//! accepted request always gets a complete response; a request that
//! arrives during drain gets a clean 503.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plateau_obs::json::Json;

use crate::cache::CircuitCache;
use crate::handlers::{execute, ExecOutcome, Limits};
use crate::http::{self, HttpResponse, ParseStatus};
use crate::protocol::{ProtocolError, Request};
use crate::queue::{JobQueue, PushError};

/// Server configuration. Every knob has a `PLATEAU_SERVE_*` environment
/// override (see [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Compute worker threads.
    pub workers: usize,
    /// Job-queue bound (backpressure point).
    pub queue_capacity: usize,
    /// Compiled-circuit LRU capacity.
    pub cache_capacity: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Per-request execution limits.
    pub limits: Limits,
    /// How long an idle keep-alive connection is held open.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            max_body: http::DEFAULT_MAX_BODY_BYTES,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// The default configuration with `PLATEAU_SERVE_WORKERS`,
    /// `PLATEAU_SERVE_QUEUE`, `PLATEAU_SERVE_CACHE`,
    /// `PLATEAU_SERVE_MAX_BODY`, and `PLATEAU_SERVE_MAX_QUBITS` applied.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        let read = |name: &str| -> Option<usize> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        };
        if let Some(w) = read("PLATEAU_SERVE_WORKERS") {
            cfg.workers = w.max(1);
        }
        if let Some(q) = read("PLATEAU_SERVE_QUEUE") {
            cfg.queue_capacity = q.max(1);
        }
        if let Some(c) = read("PLATEAU_SERVE_CACHE") {
            cfg.cache_capacity = c.max(1);
        }
        if let Some(b) = read("PLATEAU_SERVE_MAX_BODY") {
            cfg.max_body = b.max(1024);
        }
        if let Some(m) = read("PLATEAU_SERVE_MAX_QUBITS") {
            cfg.limits.max_qubits = m.clamp(1, plateau_sim::MAX_QUBITS);
        }
        cfg
    }
}

/// What a worker runs for each job: [`execute`] in production.
type Executor = dyn Fn(&Request, &CircuitCache, Limits) -> ExecOutcome + Send + Sync;

/// One unit of compute work: the parsed request and where to send the
/// outcome.
struct Job {
    request: Request,
    reply: mpsc::Sender<ExecOutcome>,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the threads until process exit; tests and the CLI always
/// shut down explicitly.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue<Job>>,
    cache: Arc<CircuitCache>,
    active_connections: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Metrics are switched on — a service
    /// without its `/metrics` endpoint reporting would be lying.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        Server::start_with(cfg, Arc::new(execute))
    }

    fn start_with(cfg: ServeConfig, exec: Arc<Executor>) -> std::io::Result<Server> {
        plateau_obs::set_metrics_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue: Arc<JobQueue<Job>> = Arc::new(JobQueue::new(cfg.queue_capacity));
        // Every cached circuit carries its compilation: a cached circuit is
        // one that runs many times.
        let cache = Arc::new(CircuitCache::with_capacity(cfg.cache_capacity));
        let active_connections = Arc::new(AtomicUsize::new(0));

        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let exec = Arc::clone(&exec);
                let limits = cfg.limits;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || work(&queue, &cache, limits, &*exec))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let active = Arc::clone(&active_connections);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || loop {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            plateau_obs::counter!("serve.connections").inc();
                            let queue = Arc::clone(&queue);
                            let shutdown = Arc::clone(&shutdown);
                            let cfg = cfg.clone();
                            spawn_counted(
                                &active,
                                |conn| {
                                    std::thread::Builder::new()
                                        .name("serve-conn".to_string())
                                        .spawn(conn)
                                        .map(drop)
                                },
                                move || serve_connection(stream, &queue, &shutdown, &cfg),
                            );
                        }
                        // Poll fine-grained: this sleep bounds the accept
                        // latency floor every fresh connection pays.
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            local_addr,
            shutdown,
            queue,
            cache,
            active_connections,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared parsed-circuit cache (the load generator clears it
    /// to re-measure the cold path).
    pub fn cache(&self) -> &CircuitCache {
        &self.cache
    }

    /// Current job-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Graceful shutdown: drain accepted work, then stop. Returns once
    /// the workers have exited and connection threads have flushed (or a
    /// 5-second drain deadline passes).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// A worker: runs jobs until the queue closes. A panicking job is
/// answered with a structured 500 and counted in `serve.panics`, and the
/// worker lives on, so a panic can neither shrink the pool nor leave a
/// queued request waiting forever.
fn work(queue: &JobQueue<Job>, cache: &CircuitCache, limits: Limits, exec: &Executor) {
    while let Some(job) = queue.pop() {
        let run = std::panic::AssertUnwindSafe(|| exec(&job.request, cache, limits));
        let outcome = std::panic::catch_unwind(run).unwrap_or_else(|_| {
            plateau_obs::counter!("serve.panics").inc();
            ExecOutcome {
                status: 500,
                body: error_body("internal", "the request handler panicked"),
                cache: None,
            }
        });
        // A dead reply channel means the connection vanished mid-flight;
        // the work is discarded.
        let _ = job.reply.send(outcome);
    }
}

/// A connection body, boxed for the thread spawner.
type ConnFn = Box<dyn FnOnce() + Send + 'static>;

/// Runs `conn` on a thread started by `spawn`, counted in `active` for
/// as long as it runs — the count [`Server::shutdown`] waits to reach
/// zero. When `spawn` fails the connection is dropped unserved, the count
/// is given back and `serve.connection_spawn_failures` is bumped, so a
/// failed spawn never holds a later shutdown to its deadline.
fn spawn_counted(
    active: &Arc<AtomicUsize>,
    spawn: impl FnOnce(ConnFn) -> std::io::Result<()>,
    conn: impl FnOnce() + Send + 'static,
) {
    active.fetch_add(1, Ordering::SeqCst);
    let done = Arc::clone(active);
    let body: ConnFn = Box::new(move || {
        conn();
        done.fetch_sub(1, Ordering::SeqCst);
    });
    if spawn(body).is_err() {
        active.fetch_sub(1, Ordering::SeqCst);
        plateau_obs::counter!("serve.connection_spawn_failures").inc();
    }
}

/// Reads requests off one socket until close, idle timeout, or
/// shutdown. Keep-alive and pipelining come from the buffer-and-consume
/// loop: leftover bytes after one request seed the parse of the next.
fn serve_connection(
    stream: TcpStream,
    queue: &JobQueue<Job>,
    shutdown: &AtomicBool,
    cfg: &ServeConfig,
) {
    let mut stream = stream;
    // Short poll interval so shutdown and the idle deadline are checked
    // even when the peer sends nothing.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut idle_since = Instant::now();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Drain every complete request already buffered before reading.
        loop {
            match http::try_parse(&buf, cfg.max_body) {
                Ok(ParseStatus::NeedMore) => break,
                Ok(ParseStatus::Complete(req, consumed)) => {
                    buf.drain(..consumed);
                    idle_since = Instant::now();
                    let close = req.wants_close();
                    let keep_alive = !close && !shutdown.load(Ordering::SeqCst);
                    let response = handle_request(&req, queue, shutdown);
                    if response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
                        return;
                    }
                }
                Err(e) => {
                    // Protocol-fatal: answer once and close.
                    let body = Json::obj([(
                        "error",
                        Json::obj([
                            ("code", Json::str("bad_request")),
                            ("message", Json::str(e.to_string())),
                        ]),
                    )]);
                    plateau_obs::counter!("serve.responses.4xx").inc();
                    let _ = HttpResponse::json(e.status(), &body).write_to(&mut stream, false);
                    return;
                }
            }
        }
        if shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return;
        }
        if idle_since.elapsed() > cfg.idle_timeout {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn error_body(code: &str, message: &str) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::str(code.to_string())),
            ("message", Json::str(message.to_string())),
        ]),
    )])
}

fn count_status(status: u16) {
    // Three distinct call sites so the interning macro sees literals.
    match status {
        200..=299 => plateau_obs::counter!("serve.responses.2xx").inc(),
        400..=499 => plateau_obs::counter!("serve.responses.4xx").inc(),
        _ => plateau_obs::counter!("serve.responses.5xx").inc(),
    }
}

/// Routes one parsed HTTP request and produces the response.
fn handle_request(
    req: &http::HttpRequest,
    queue: &JobQueue<Job>,
    shutdown: &AtomicBool,
) -> HttpResponse {
    let started = Instant::now();
    let response = route(req, queue, shutdown, started);
    count_status(response.status);
    response
}

fn route(
    req: &http::HttpRequest,
    queue: &JobQueue<Job>,
    shutdown: &AtomicBool,
    started: Instant,
) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            plateau_obs::counter!("serve.requests.healthz").inc();
            let body = Json::obj([
                ("status", Json::str("ok")),
                (
                    "draining",
                    Json::Bool(shutdown.load(Ordering::SeqCst)),
                ),
                ("queue_depth", Json::from(queue.depth())),
            ]);
            HttpResponse::json(200, &body)
        }
        ("GET", "/metrics") => {
            plateau_obs::counter!("serve.requests.metrics").inc();
            HttpResponse::json(200, &plateau_obs::snapshot().to_json())
        }
        ("POST", path @ ("/simulate" | "/gradient" | "/variance-scan" | "/train")) => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(s) => s,
                Err(_) => {
                    return HttpResponse::json(
                        400,
                        &error_body("bad_json", "body is not valid UTF-8"),
                    )
                }
            };
            let parsed = match Request::parse(path, body) {
                Ok(r) => r,
                Err(e) => {
                    let status = if e.code == "not_found" { 404 } else { 400 };
                    return HttpResponse::json(status, &e.to_json());
                }
            };
            let endpoint = parsed.endpoint();
            // Dynamic name: go through the registry, not the per-call-site
            // interning macro (which would pin the first endpoint seen).
            plateau_obs::metrics::counter(&format!("serve.requests.{endpoint}")).inc();
            dispatch(parsed, queue, started)
        }
        ("POST", _) => HttpResponse::json(
            404,
            &ProtocolError {
                code: "not_found",
                message: format!("no such endpoint {:?}", req.path),
            }
            .to_json(),
        ),
        (_, "/healthz" | "/metrics" | "/simulate" | "/gradient" | "/variance-scan" | "/train") => {
            HttpResponse::json(
                405,
                &error_body("method_not_allowed", "use GET for reads, POST for compute"),
            )
        }
        _ => HttpResponse::json(
            404,
            &error_body("not_found", &format!("no such endpoint {:?}", req.path)),
        ),
    }
}

/// Enqueues a compute request and waits for its outcome.
fn dispatch(request: Request, queue: &JobQueue<Job>, started: Instant) -> HttpResponse {
    let endpoint = request.endpoint();
    let (tx, rx) = mpsc::channel();
    match queue.try_push(Job {
        request,
        reply: tx,
    }) {
        Ok(()) => {}
        Err(PushError::Full) => {
            return HttpResponse::json(
                503,
                &error_body("overloaded", "job queue is full; retry shortly"),
            )
            .with_header("Retry-After", "1");
        }
        Err(PushError::Closed) => {
            return HttpResponse::json(
                503,
                &error_body("shutting_down", "server is draining; retry against a peer"),
            )
            .with_header("Retry-After", "1");
        }
    }
    match rx.recv() {
        Ok(outcome) => {
            let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            plateau_obs::metrics::histogram(&format!("serve.latency_us.{endpoint}")).record(micros);
            let mut response = HttpResponse::json(outcome.status, &outcome.body);
            if let Some(hit) = outcome.cache {
                response =
                    response.with_header("X-Plateau-Cache", if hit { "hit" } else { "miss" });
            }
            response
        }
        // The job was dropped unanswered; workers catch handler panics, so
        // this is a defensive fallback.
        Err(_) => HttpResponse::json(
            500,
            &error_body("internal", "worker failed to produce a response"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn config_from_env_clamps() {
        // No env set: defaults.
        let cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.cache_capacity, 32);
        assert_eq!(cfg.limits.max_qubits, 16);
    }

    #[test]
    fn failed_connection_spawn_gives_its_count_back() {
        let _guard = plateau_obs::test_lock();
        plateau_obs::set_metrics_enabled(true);
        let failures = || {
            plateau_obs::snapshot()
                .counter("serve.connection_spawn_failures")
                .unwrap_or(0)
        };
        let before = failures();
        let active = Arc::new(AtomicUsize::new(0));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        spawn_counted(
            &active,
            |_conn| Err(std::io::Error::new(ErrorKind::Other, "no thread for you")),
            move || flag.store(true, Ordering::SeqCst),
        );
        assert_eq!(active.load(Ordering::SeqCst), 0, "a failed spawn leaked its count");
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(failures(), before + 1);

        // A spawn that succeeds holds the count until its body returns.
        let (tx, rx) = mpsc::channel::<()>();
        let mut handle = None;
        spawn_counted(
            &active,
            |conn| {
                handle = Some(std::thread::spawn(conn));
                Ok(())
            },
            move || rx.recv().unwrap(),
        );
        assert_eq!(active.load(Ordering::SeqCst), 1);
        tx.send(()).unwrap();
        handle.unwrap().join().unwrap();
        assert_eq!(active.load(Ordering::SeqCst), 0);
        assert_eq!(failures(), before + 1);
    }

    /// One request over a fresh connection; returns the raw response.
    fn roundtrip(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_worker_lives_on() {
        let _guard = plateau_obs::test_lock();
        let panics = || plateau_obs::snapshot().counter("serve.panics").unwrap_or(0);
        let armed = AtomicBool::new(true);
        let exec = move |req: &Request, cache: &CircuitCache, limits: Limits| {
            if armed.swap(false, Ordering::SeqCst) {
                panic!("injected handler panic");
            }
            execute(req, cache, limits)
        };
        let server = Server::start_with(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Arc::new(exec),
        )
        .unwrap();
        let before = panics();
        let body = r#"{"circuit":{"qubits":1,"ops":[]},"observable":"global"}"#;
        let first = roundtrip(server.addr(), "/simulate", body);
        assert!(first.starts_with("HTTP/1.1 500 "), "{first}");
        assert!(first.contains("\"code\":\"internal\""), "{first}");
        assert_eq!(panics(), before + 1);
        // The one worker survived: the next request is served normally.
        let second = roundtrip(server.addr(), "/simulate", body);
        assert!(second.starts_with("HTTP/1.1 200 OK\r\n"), "{second}");
        server.shutdown();
    }

    #[test]
    fn server_starts_serves_healthz_and_shuts_down() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        server.shutdown();
        // The port is released: connecting now fails (or is refused).
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
