//! The server: an acceptor, one thread per connection, and an admission
//! gate in front of the compute.
//!
//! Thread layout (all `std::thread`, no async runtime):
//!
//! ```text
//! acceptor ──spawns──▶ connection threads (1 per socket)
//!                          │  parse HTTP → parse Request
//!                          │  Gate::enter ── at most `workers` running,
//!                          │       │         at most `queue_capacity` waiting
//!                          │       │         (FIFO), 503 when full
//!                          │  execute() on this thread → write the reply
//! ```
//!
//! The connection thread that parsed a request runs it once the gate
//! admits it, so a slow tenant holds at most a permit or a place in the
//! wait line, never the listener. `/healthz` and `/metrics` are answered
//! without a permit — they must keep working while every permit is held,
//! that being the whole point of a health probe.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, close the
//! gate (new requests get 503 `shutting_down`), wait until every admitted
//! job — running or waiting — has finished, then wait for connection
//! threads to flush their responses. An admitted request always gets a
//! complete response.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plateau_obs::json::Json;

use crate::cache::CircuitCache;
use crate::handlers::{execute, ExecOutcome, Limits};
use crate::http::{self, HttpResponse, ParseStatus};
use crate::protocol::{ProtocolError, Request};

/// Server configuration. The `plateau serve` command fills it from its
/// flags and `PLATEAU_SERVE_*` environment variables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Most compute requests running at once.
    pub workers: usize,
    /// Most compute requests waiting for a run slot (backpressure point).
    pub queue_capacity: usize,
    /// Parsed-circuit LRU capacity.
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

/// What runs each admitted job: [`execute`] in production.
type Executor = dyn Fn(&Request, &CircuitCache, Limits) -> ExecOutcome + Send + Sync;

/// The admission gate: at most `workers` jobs run at once and at most
/// `capacity` wait, admitted in arrival order.
struct Gate {
    /// Every lock recovers a poisoned mutex: no code panics while holding
    /// it, so one panicking request cannot fail every later one.
    state: Mutex<GateState>,
    changed: Condvar,
    workers: usize,
    capacity: usize,
}

#[derive(Default)]
struct GateState {
    running: usize,
    /// Waiters take tickets in arrival order and run when `now_serving`
    /// reaches theirs; a bare condvar race would not keep that order.
    next_ticket: u64,
    now_serving: u64,
    closed: bool,
}

impl GateState {
    fn waiting(&self) -> usize {
        (self.next_ticket - self.now_serving) as usize
    }
}

/// Why the gate turned a job away.
enum Refused {
    Full,
    Closed,
}

/// A run slot; dropping it frees the slot for the next waiter.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            changed: Condvar::new(),
            workers: workers.max(1),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job at once when a slot is free and nobody waits, queues
    /// it behind the earlier waiters when the line has room, and refuses
    /// it otherwise.
    fn enter(&self) -> Result<Permit<'_>, Refused> {
        let mut s = self.lock();
        if s.closed {
            return Err(Refused::Closed);
        }
        if s.waiting() == 0 && s.running < self.workers {
            s.running += 1;
            return Ok(Permit(self));
        }
        if s.waiting() >= self.capacity {
            plateau_obs::counter!("serve.queue.rejected").inc();
            return Err(Refused::Full);
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        plateau_obs::gauge!("serve.queue_depth").set(s.waiting() as f64);
        while ticket != s.now_serving || s.running >= self.workers {
            s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.now_serving += 1;
        s.running += 1;
        plateau_obs::gauge!("serve.queue_depth").set(s.waiting() as f64);
        if s.waiting() > 0 && s.running < self.workers {
            // Another slot is free: the next ticket may go too.
            self.changed.notify_all();
        }
        Ok(Permit(self))
    }

    /// Refuses every later [`Gate::enter`]; admitted waiters still run.
    fn close(&self) {
        self.lock().closed = true;
    }

    /// Blocks until no job runs or waits.
    fn wait_idle(&self) {
        let mut s = self.lock();
        while s.running > 0 || s.waiting() > 0 {
            s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.running -= 1;
        if s.waiting() > 0 || s.closed {
            self.0.changed.notify_all();
        }
    }
}

/// What the acceptor and every connection thread share.
struct Shared {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    gate: Gate,
    cache: CircuitCache,
    exec: Arc<Executor>,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the threads until process exit; tests and the CLI always
/// shut down explicitly.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    active_connections: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
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

        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.workers, cfg.queue_capacity),
            cache: CircuitCache::with_capacity(cfg.cache_capacity),
            cfg,
            shutdown: AtomicBool::new(false),
            exec,
        });
        let active_connections = Arc::new(AtomicUsize::new(0));

        let acceptor = {
            let shared = Arc::clone(&shared);
            let active = Arc::clone(&active_connections);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || loop {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            plateau_obs::counter!("serve.connections").inc();
                            let shared = Arc::clone(&shared);
                            spawn_counted(
                                &active,
                                |conn| {
                                    std::thread::Builder::new()
                                        .name("serve-conn".to_string())
                                        .spawn(conn)
                                        .map(drop)
                                },
                                move || serve_connection(stream, &shared),
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
            shared,
            active_connections,
            acceptor: Some(acceptor),
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
        &self.shared.cache
    }

    /// Compute requests waiting for a run slot.
    pub fn queue_depth(&self) -> usize {
        self.shared.gate.lock().waiting()
    }

    /// Graceful shutdown: finish admitted work, then stop. Returns once
    /// no admitted job runs or waits and connection threads have flushed
    /// (or a 5-second deadline for the connection threads passes).
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.gate.close();
        self.shared.gate.wait_idle();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
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
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    let cfg = &shared.cfg;
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
                    let keep_alive = !close && !shared.shutdown.load(Ordering::SeqCst);
                    let response = handle_request(&req, shared);
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
        if shared.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
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
fn handle_request(req: &http::HttpRequest, shared: &Shared) -> HttpResponse {
    let started = Instant::now();
    let response = route(req, shared, started);
    count_status(response.status);
    response
}

fn route(req: &http::HttpRequest, shared: &Shared, started: Instant) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            plateau_obs::counter!("serve.requests.healthz").inc();
            let body = Json::obj([
                ("status", Json::str("ok")),
                (
                    "draining",
                    Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
                ),
                ("queue_depth", Json::from(shared.gate.lock().waiting())),
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
            dispatch(&parsed, shared, started)
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

/// Runs a compute request on this connection thread once the gate admits
/// it. A panicking job is answered with a structured 500 and counted in
/// `serve.panics`; its permit is freed and the connection keeps serving.
fn dispatch(request: &Request, shared: &Shared, started: Instant) -> HttpResponse {
    let permit = match shared.gate.enter() {
        Ok(permit) => permit,
        Err(Refused::Full) => {
            return HttpResponse::json(
                503,
                &error_body("overloaded", "too many jobs waiting; retry shortly"),
            )
            .with_header("Retry-After", "1");
        }
        Err(Refused::Closed) => {
            return HttpResponse::json(
                503,
                &error_body("shutting_down", "server is draining; retry against a peer"),
            )
            .with_header("Retry-After", "1");
        }
    };
    let run =
        std::panic::AssertUnwindSafe(|| (shared.exec)(request, &shared.cache, shared.cfg.limits));
    let outcome = std::panic::catch_unwind(run).unwrap_or_else(|_| {
        plateau_obs::counter!("serve.panics").inc();
        ExecOutcome {
            status: 500,
            body: error_body("internal", "the request handler panicked"),
            cache: None,
        }
    });
    drop(permit);
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    let endpoint = request.endpoint();
    plateau_obs::metrics::histogram(&format!("serve.latency_us.{endpoint}")).record(micros);
    let mut response = HttpResponse::json(outcome.status, &outcome.body);
    if let Some(hit) = outcome.cache {
        response = response.with_header("X-Plateau-Cache", if hit { "hit" } else { "miss" });
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::mpsc;

    #[test]
    fn config_defaults() {
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

    /// A server whose executor reports each job's seed on `started`, then
    /// blocks until the test sends one token on `release`. It records the
    /// most jobs it saw running at once in `max_running`.
    struct Blocking {
        server: Server,
        started: mpsc::Receiver<u64>,
        release: mpsc::Sender<()>,
        max_running: Arc<AtomicUsize>,
    }

    fn blocking_server(workers: usize, queue_capacity: usize) -> Blocking {
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let running = AtomicUsize::new(0);
        let max_running = Arc::new(AtomicUsize::new(0));
        let max = Arc::clone(&max_running);
        let exec = move |req: &Request, _: &CircuitCache, _: Limits| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            max.fetch_max(now, Ordering::SeqCst);
            let Request::Simulate(r) = req else {
                panic!("the blocking executor takes /simulate only")
            };
            started_tx.send(r.seed).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            running.fetch_sub(1, Ordering::SeqCst);
            ExecOutcome {
                status: 200,
                body: Json::obj([("seed", Json::Num(r.seed as f64))]),
                cache: None,
            }
        };
        let server = Server::start_with(
            ServeConfig {
                workers,
                queue_capacity,
                ..ServeConfig::default()
            },
            Arc::new(exec),
        )
        .unwrap();
        Blocking {
            server,
            started,
            release,
            max_running,
        }
    }

    fn simulate_body(seed: u64) -> String {
        format!(r#"{{"circuit":{{"qubits":1,"ops":[]}},"observable":"global","seed":{seed}}}"#)
    }

    /// Sends one `/simulate` with `seed` from a client thread.
    fn client(addr: SocketAddr, seed: u64) -> std::thread::JoinHandle<String> {
        std::thread::spawn(move || roundtrip(addr, "/simulate", &simulate_body(seed)))
    }

    /// Polls until `depth` jobs wait at the gate. Liveness only: the
    /// result never depends on how long this takes.
    fn await_depth(server: &Server, depth: usize) {
        while server.queue_depth() != depth {
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_runs_at_most_workers_and_queues_at_most_capacity() {
        let rejected = || {
            plateau_obs::snapshot()
                .counter("serve.queue.rejected")
                .unwrap_or(0)
        };
        let b = blocking_server(2, 1);
        let addr = b.server.addr();
        let before = rejected();
        let running: Vec<_> = (0..2).map(|seed| client(addr, seed)).collect();
        let mut seen = [b.started.recv().unwrap(), b.started.recv().unwrap()];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        let waiter = client(addr, 2);
        await_depth(&b.server, 1);

        // Both permits are held and the line is full: health still answers.
        let mut probe = TcpStream::connect(addr).unwrap();
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut health = String::new();
        probe.read_to_string(&mut health).unwrap();
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"queue_depth\":1"), "{health}");

        for seed in 3..5 {
            let out = client(addr, seed).join().unwrap();
            assert!(out.starts_with("HTTP/1.1 503 "), "{out}");
            assert!(out.contains("\r\nRetry-After: 1\r\n"), "{out}");
            assert!(out.contains("\"code\":\"overloaded\""), "{out}");
        }
        assert!(rejected() >= before + 2);

        for _ in 0..3 {
            b.release.send(()).unwrap();
        }
        for c in running.into_iter().chain([waiter]) {
            let out = c.join().unwrap();
            assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        }
        assert_eq!(b.started.recv().unwrap(), 2);
        assert_eq!(b.max_running.load(Ordering::SeqCst), 2);
        assert_eq!(b.server.queue_depth(), 0);
        b.server.shutdown();
    }

    #[test]
    fn waiters_run_in_arrival_order() {
        const WAITERS: u64 = 5;
        let b = blocking_server(1, 64);
        let addr = b.server.addr();
        let mut clients = vec![client(addr, 0)];
        assert_eq!(b.started.recv().unwrap(), 0);
        for seed in 1..=WAITERS {
            clients.push(client(addr, seed));
            await_depth(&b.server, seed as usize);
        }
        // Each release finishes the running job; the next one admitted
        // must be the earliest waiter.
        for (seed, done) in (0..).zip(clients) {
            b.release.send(()).unwrap();
            assert!(done.join().unwrap().starts_with("HTTP/1.1 200 OK\r\n"));
            if seed < WAITERS {
                assert_eq!(b.started.recv().unwrap(), seed + 1);
            }
        }
        assert_eq!(b.max_running.load(Ordering::SeqCst), 1);
        b.server.shutdown();
    }

    #[test]
    fn shutdown_finishes_running_and_waiting_jobs_and_refuses_later_ones() {
        let b = blocking_server(1, 64);
        let addr = b.server.addr();
        let running = client(addr, 0);
        assert_eq!(b.started.recv().unwrap(), 0);
        // One connection: a job that waits at the gate, then a pipelined
        // one that reaches the gate only after that job has run.
        let mut pipelined = TcpStream::connect(addr).unwrap();
        let body = simulate_body(1);
        let head = format!(
            "POST /simulate HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        pipelined
            .write_all(format!("{head}{head}").as_bytes())
            .unwrap();
        await_depth(&b.server, 1);

        let shared = Arc::clone(&b.server.shared);
        let server = b.server;
        let shutdown = std::thread::spawn(move || server.shutdown());
        while !shared.gate.lock().closed {
            std::thread::yield_now();
        }
        b.release.send(()).unwrap();
        assert!(running.join().unwrap().starts_with("HTTP/1.1 200 OK\r\n"));
        assert_eq!(b.started.recv().unwrap(), 1);
        b.release.send(()).unwrap();

        let mut out = String::new();
        pipelined.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        let (_, second) = out[1..].split_once("HTTP/1.1 ").expect("two responses");
        assert!(second.starts_with("503 "), "{out}");
        assert!(second.contains("\"code\":\"shutting_down\""), "{out}");
        shutdown.join().unwrap();
    }
}
