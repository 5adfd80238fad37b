//! `serve_mixed`: an in-process `plateau-serve` at its default
//! `ServeConfig`, driven over two keep-alive connections.
//!
//! Requests are `/simulate` and `/gradient` (mostly adjoint, some
//! parameter-shift on small circuits) on 4–10-qubit hardware-efficient
//! circuits built with the paper's ansatz builders, as op-list JSON and as
//! QASM. 80% repeat a circuit from a pool of 16 (the LRU holds 32); 20%
//! carry a circuit never sent before, so parse, build, fusion compile and
//! eviction run beside cache hits. Requests are dealt from a shuffled
//! deck, so every seed sends the same mix in a different order.
//!
//! Each server instance runs three phases: open loop at [`LOW_RPS`] (main
//! op) and [`HIGH_RPS`] (alt op), each request timed from its scheduled
//! send time; then closed loop with [`DEPTH`] requests in flight on
//! [`CAPACITY_CONNECTIONS`] connection, for capacity. After each instance
//! every response body is compared byte for byte with `handlers::execute`
//! on the same request.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use plateau_core::init::{FanMode, InitStrategy};
use plateau_core::{training_ansatz, variance_ansatz, Ansatz};
use plateau_grad::{GradientEngine, ParameterShift};
use plateau_rng::{derive_seed, rngs::StdRng, Rng, SeedableRng};
use plateau_serve::{
    execute, http, CircuitCache, CircuitSpec, EngineSpec, GradientRequest, HttpResponse, Limits,
    ObservableSpec, ParseStatus, Request, ServeConfig, Server, SimulateRequest,
};

use plateau_obs::MetricsSnapshot;

use crate::calib::{Echo, Paired};
use crate::layers::{self, Counters};
use crate::trace::Tracer;
use crate::{stats, Ctx, Report};

/// Offered rates (requests/s) of the two latency phases: about one third
/// and two thirds of the highest rate whose p99 stayed within 10 ms on the
/// commit that introduced them (1,800–2,000 requests/s, 2-core Xeon host).
pub const LOW_RPS: f64 = 600.0;
pub const HIGH_RPS: f64 = 1200.0;
/// Upper bound on capacity, for sizing the capacity phase's request list.
const MAX_CAPACITY_RPS: f64 = 8000.0;
const POOL: usize = 16;
const PARAM_SETS: usize = 8;
/// New circuits per deck: one for every four pool requests (20%).
const FRESH_PER_DECK: usize = POOL * PARAM_SETS / 4;

/// One distinct request: path, body, and the bytes put on the wire.
struct Body {
    path: &'static str,
    text: String,
    wire: Vec<u8>,
}

impl Body {
    fn new(req: &Request) -> Body {
        let text = req.serialize();
        let wire = format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            req.path(),
            text.len(),
            text
        )
        .into_bytes();
        Body {
            path: req.path(),
            text,
            wire,
        }
    }
}

/// The request mix: every distinct body, plus the pool's body indices.
struct Mix {
    bodies: Vec<Body>,
    /// `pool[j][k]`: body index of pool circuit `j` with parameter set `k`.
    pool: Vec<Vec<usize>>,
    rng: StdRng,
    /// New circuits made so far (picks each one's shape and form).
    fresh: usize,
    /// The rest of the current deck: a pool body, or `None` for a new
    /// circuit. Each deck holds every pool body once and
    /// [`FRESH_PER_DECK`] new circuits, shuffled.
    deck: Vec<Option<usize>>,
}

/// Circuit shapes `(qubits, layers, Eq. 3 training ansatz)`, taken in turn
/// by the pool and by new circuits, so the mix costs the same whatever the
/// seed; the seed picks gates, parameters and the request order.
const SHAPES: [(usize, usize, bool); 8] = [
    (4, 2, false),
    (6, 5, true),
    (8, 2, false),
    (10, 5, false),
    (4, 5, true),
    (6, 2, false),
    (8, 5, false),
    (10, 2, true),
];

/// Request kinds of a pool circuit's parameter sets, in order.
#[derive(Clone, Copy)]
enum Kind {
    Simulate,
    Adjoint,
    /// Parameter-shift on circuits of at most [`SHIFT_MAX_PARAMS`]
    /// parameters, adjoint otherwise.
    Shift,
}
const KINDS: [Kind; PARAM_SETS] = [
    Kind::Simulate,
    Kind::Adjoint,
    Kind::Adjoint,
    Kind::Simulate,
    Kind::Adjoint,
    Kind::Adjoint,
    Kind::Shift,
    Kind::Adjoint,
];
const SHIFT_MAX_PARAMS: usize = 24;

fn hea(shape: usize, rng: &mut StdRng, tr: &Tracer, op: u64) -> Ansatz {
    let (q, layers, training) = SHAPES[shape % SHAPES.len()];
    tr.span("core.ansatz_build", None, op, |_| {
        if training {
            training_ansatz(q, layers).expect("training ansatz")
        } else {
            variance_ansatz(q, layers, rng).expect("variance ansatz")
        }
    })
}

fn draw_params(a: &Ansatz, rng: &mut StdRng, tr: &Tracer, op: u64) -> Vec<f64> {
    let strategy = InitStrategy::PAPER_SET[rng.gen_range(0..6usize)];
    tr.span("core.init.sample_params", None, op, |_| {
        strategy
            .sample_params(&a.shape, FanMode::TensorShape, rng)
            .expect("request parameters")
    })
}

/// A request on `a`. A QASM circuit is simulated at bound angles; an
/// op-list circuit is simulated or differentiated as `kind` says.
fn request(a: &Ansatz, qasm: bool, params: Vec<f64>, kind: Kind, local: bool) -> Request {
    let observable = if local {
        ObservableSpec::Local
    } else {
        ObservableSpec::Global
    };
    if qasm {
        let text = plateau_sim::qasm::to_qasm(&a.circuit, &params).expect("qasm export");
        return Request::Simulate(SimulateRequest {
            circuit: CircuitSpec::Qasm(text),
            params: Vec::new(),
            observable,
            seed: 0,
            shots: 0,
        });
    }
    let circuit = CircuitSpec::from_circuit(&a.circuit);
    let engine = match kind {
        Kind::Simulate => {
            return Request::Simulate(SimulateRequest {
                circuit,
                params,
                observable,
                seed: 0,
                shots: 0,
            })
        }
        Kind::Shift if a.circuit.n_params() <= SHIFT_MAX_PARAMS => EngineSpec::ParameterShift,
        _ => EngineSpec::Adjoint,
    };
    Request::Gradient(GradientRequest {
        circuit,
        params,
        observable,
        engine,
        seed: 0,
    })
}

impl Mix {
    /// The pool comes from `seed`; `instance` varies the request order.
    fn new(seed: u64, instance: u64, tr: &Tracer) -> Mix {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5E12E, 0, 0));
        let mut bodies = Vec::new();
        let mut pool = Vec::with_capacity(POOL);
        for j in 0..POOL {
            let a = hea(j, &mut rng, tr, j as u64);
            let qasm = j % 5 == 2;
            let fixed = draw_params(&a, &mut rng, tr, j as u64);
            let mut entry = Vec::with_capacity(PARAM_SETS);
            for (k, &kind) in KINDS.iter().enumerate() {
                // A QASM entry is one bound circuit: every set repeats it.
                let params = if qasm {
                    fixed.clone()
                } else {
                    draw_params(&a, &mut rng, tr, j as u64)
                };
                entry.push(bodies.len());
                bodies.push(Body::new(&request(&a, qasm, params, kind, k % 4 == 1)));
            }
            pool.push(entry);
        }
        let rng = StdRng::seed_from_u64(derive_seed(seed, 0x5E12E, 1, instance));
        Mix {
            bodies,
            pool,
            rng,
            fresh: 0,
            deck: Vec::new(),
        }
    }

    /// The body indices of the next `n` requests.
    fn sequence(&mut self, n: f64, tr: &Tracer, op0: u64) -> Vec<usize> {
        (0..n.round().max(2.0) as u64)
            .map(|i| self.next(tr, op0 + i))
            .collect()
    }

    /// The next request: a pool body (80%) or a new circuit (20%), dealt
    /// from the deck.
    fn next(&mut self, tr: &Tracer, op: u64) -> usize {
        if self.deck.is_empty() {
            self.deck = self.pool.iter().flatten().map(|&b| Some(b)).collect();
            self.deck.extend(std::iter::repeat_n(None, FRESH_PER_DECK));
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.deck.swap(i, j);
            }
        }
        if let Some(b) = self.deck.pop().expect("deck refilled") {
            return b;
        }
        let u = self.fresh;
        self.fresh += 1;
        let a = hea(u, &mut self.rng, tr, op);
        let params = draw_params(&a, &mut self.rng, tr, op);
        let kind = if u.is_multiple_of(3) {
            Kind::Simulate
        } else {
            Kind::Adjoint
        };
        let req = request(&a, u % 4 == 1, params, kind, u.is_multiple_of(5));
        self.bodies.push(Body::new(&req));
        self.bodies.len() - 1
    }
}

/// One response as the load thread saw it.
#[derive(Clone, Copy)]
struct Seen {
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    status: u16,
    hash: u64,
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Parses one response off the front of `buf`: `(status, body hash, consumed)`.
fn parse_response(buf: &[u8]) -> Option<(u16, u64, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let end = head_end + 4 + len;
    (buf.len() >= end).then(|| (status, fnv64(&buf[head_end + 4..end]), end))
}

/// Reads responses off one connection until the writer has hung up and
/// every request it posted is answered, or `deadline` passes. Responses
/// arrive in request order, so each is matched to the oldest posted
/// request: `(request, send time)` pairs come over `posted`.
fn collect(
    mut stream: TcpStream,
    posted: mpsc::Receiver<(usize, Instant)>,
    deadline: Instant,
) -> Vec<(usize, Seen)> {
    let mut out = Vec::new();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    // The timeout only bounds how late a hang-up or the deadline is noticed;
    // a response wakes the read at once.
    if stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .is_err()
    {
        return out;
    }
    let mut writer_done = false;
    while Instant::now() < deadline {
        loop {
            match posted.try_recv() {
                Ok(p) => pending.push_back(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    writer_done = true;
                    break;
                }
            }
        }
        if writer_done && pending.is_empty() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        let done = Instant::now();
        let mut offset = 0;
        while let Some((status, hash, used)) = parse_response(&buf[offset..]) {
            offset += used;
            // The writer posts right after its write returns; wait for it.
            let Some((i, sent)) = pending.pop_front().or_else(|| posted.recv().ok()) else {
                break;
            };
            out.push((
                i,
                Seen {
                    due: sent,
                    sent,
                    done: Some(done),
                    status,
                    hash,
                },
            ));
        }
        buf.drain(..offset);
    }
    out
}

/// Sends one body and waits for its response (closed loop, for warm-up).
fn roundtrip(stream: &mut TcpStream, body: &Body) -> Option<u16> {
    stream.write_all(&body.wire).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1 << 14];
    loop {
        if let Some((status, _, _)) = parse_response(&buf) {
            return Some(status);
        }
        let n = stream.read(&mut chunk).ok().filter(|&n| n > 0)?;
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The server plus its two client connections. Dropping it closes the
/// connections and shuts the server down (draining, then joining).
struct Live {
    server: Option<Server>,
    conns: Vec<TcpStream>,
}

impl Live {
    fn start() -> Live {
        let server = Server::start(ServeConfig::default()).expect("server start");
        let conns = (0..2)
            .map(|_| {
                let s = TcpStream::connect(server.addr()).expect("connect");
                s.set_nodelay(true).expect("nodelay");
                s
            })
            .collect();
        Live {
            server: Some(server),
            conns,
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// What one phase produced, one entry per request in request order.
struct Phase {
    rate: f64,
    bodies: Vec<usize>,
    seen: Vec<Seen>,
    queue_depth_max: usize,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.seen
            .iter()
            .filter_map(|s| s.done.map(|d| d.duration_since(s.due).as_secs_f64() * 1e3))
            .collect()
    }

    fn lag_ms(&self) -> Vec<f64> {
        self.seen
            .iter()
            .map(|s| s.sent.duration_since(s.due).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Sends `bodies` open-loop at `rate`: this thread is the generator (it
/// sleeps until each request is due and writes it, request `i` on
/// connection `i % 2`, sampling the queue depth after each send), and one
/// reader thread per connection collects the responses.
fn phase(live: &mut Live, all: &[Body], bodies: Vec<usize>, rate: f64) -> Phase {
    let n = bodies.len();
    let seconds = n as f64 / rate;
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + Duration::from_secs_f64(seconds + 3.0);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let server = live.server.as_ref().expect("server running");
    let mut depth_max = 0;
    let mut seen: Vec<Seen> = (0..n)
        .map(|i| Seen {
            due: due(i),
            sent: due(i),
            done: None,
            status: 0,
            hash: 0,
        })
        .collect();
    std::thread::scope(|scope| {
        let mut posts = Vec::new();
        let mut readers = Vec::new();
        for conn in &live.conns {
            let (tx, rx) = mpsc::channel();
            let stream = conn.try_clone().expect("clone connection");
            readers.push(scope.spawn(move || collect(stream, rx, deadline)));
            posts.push(tx);
        }
        for (i, &b) in bodies.iter().enumerate() {
            let now = Instant::now();
            if due(i) > now {
                std::thread::sleep(due(i) - now);
            }
            if Instant::now() >= deadline {
                break;
            }
            let c = i % 2;
            if (&live.conns[c]).write_all(&all[b].wire).is_err() {
                break;
            }
            let sent = Instant::now();
            seen[i].sent = sent;
            if posts[c].send((i, sent)).is_err() {
                break;
            }
            depth_max = depth_max.max(server.queue_depth());
        }
        drop(posts);
        for r in readers {
            for (i, s) in r.join().expect("reader thread panicked") {
                seen[i] = Seen {
                    due: seen[i].due,
                    ..s
                };
            }
        }
    });
    Phase {
        rate,
        bodies,
        seen,
        queue_depth_max: depth_max,
    }
}

/// The expected response body hash of each distinct body, from
/// `handlers::execute` on a private cache (the determinism contract says
/// the body may not depend on cache state).
fn expected_hashes(all: &[Body], used: &[usize]) -> HashMap<usize, (u16, u64)> {
    let cache = CircuitCache::new(ServeConfig::default().cache_capacity, true);
    let mut out = HashMap::new();
    for &b in used {
        out.entry(b).or_insert_with(|| {
            let body = &all[b];
            let req = Request::parse(body.path, &body.text).expect("benchmark bodies parse");
            let outcome = execute(&req, &cache, Limits::default());
            let wire = HttpResponse::json(outcome.status, &outcome.body);
            (outcome.status, fnv64(&wire.body))
        });
    }
    out
}

/// Counts every request of `phases` (attempted), and fails the unanswered,
/// the non-200 and those whose body differs from `execute`.
fn check(all: &[Body], phases: &[&Phase], report: &mut Report) {
    let used: Vec<usize> = phases
        .iter()
        .flat_map(|p| p.bodies.iter().copied())
        .collect();
    let expected = expected_hashes(all, &used);
    for p in phases {
        let mut bad = 0;
        for (s, b) in p.seen.iter().zip(&p.bodies) {
            let (status, hash) = expected[b];
            if s.done.is_none() || s.status != 200 || status != 200 || s.hash != hash {
                bad += 1;
            }
        }
        report.ops(p.bodies.len() as u64, bad);
        if bad > 0 {
            eprintln!(
                "paperbench: serve phase at {} rps: {bad} failed or mismatched responses",
                p.rate
            );
        }
    }
}

fn set_up(ctx: &Ctx, instance: u64, tr: &Tracer) -> (Live, Mix) {
    let mut mix = Mix::new(ctx.seed, instance, tr);
    let mut live = Live::start();
    // Warm-up: every pool body once, closed-loop, so the pool is cached;
    // then the mix open-loop, so the first timed chunk meets warm threads.
    for &b in mix.pool.iter().flatten() {
        roundtrip(&mut live.conns[0], &mix.bodies[b]).expect("warm-up request");
    }
    let seq = mix.sequence(LOW_RPS * WARM_UP_SECONDS, tr, 0);
    phase(&mut live, &mix.bodies, seq, LOW_RPS);
    (live, mix)
}

/// Length of the untimed open-loop warm-up of every instance.
const WARM_UP_SECONDS: f64 = 0.5;
/// Share of `--seconds` spent in each of the three phases.
const PHASE_SHARE: f64 = 0.25;
/// Each phase runs as this many chunks, each between two reference runs.
const CHUNKS: usize = 3;
/// Requests each connection keeps in flight in the capacity phase.
const DEPTH: usize = 1;
/// Connections the capacity phase uses. With one request in flight on one
/// connection, the client and the server's threads take turns instead of
/// contending for the two cores.
const CAPACITY_CONNECTIONS: usize = 1;

/// Closed-loop capacity: each of [`CAPACITY_CONNECTIONS`] connections
/// keeps [`DEPTH`] requests in flight for `seconds` (one thread per
/// connection, writing and reading); returns the phase and the responses
/// completed per second.
fn capacity(live: &mut Live, all: &[Body], bodies: Vec<usize>, seconds: f64) -> (Phase, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Vec<(usize, Seen)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .take(CAPACITY_CONNECTIONS)
            .enumerate()
            .map(|(c, conn)| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut out: Vec<(usize, Seen)> = Vec::new();
                    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
                    let mut next = c;
                    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
                    let mut chunk = vec![0u8; 1 << 16];
                    let _ = conn.set_read_timeout(Some(Duration::from_millis(20)));
                    let deadline = end + Duration::from_secs(3);
                    loop {
                        while inflight.len() < DEPTH && next < bodies.len() && Instant::now() < end
                        {
                            if conn.write_all(&all[bodies[next]].wire).is_err() {
                                return out;
                            }
                            inflight.push_back((next, Instant::now()));
                            next += CAPACITY_CONNECTIONS;
                        }
                        if inflight.is_empty() || Instant::now() >= deadline {
                            return out;
                        }
                        match conn.read(&mut chunk) {
                            Ok(0) => return out,
                            Ok(k) => buf.extend_from_slice(&chunk[..k]),
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock
                                        | ErrorKind::TimedOut
                                        | ErrorKind::Interrupted
                                ) =>
                            {
                                continue
                            }
                            Err(_) => return out,
                        }
                        let done = Instant::now();
                        let mut offset = 0;
                        while let Some((status, hash, used)) = parse_response(&buf[offset..]) {
                            offset += used;
                            if let Some((i, sent)) = inflight.pop_front() {
                                out.push((
                                    i,
                                    Seen {
                                        due: sent,
                                        sent,
                                        done: Some(done),
                                        status,
                                        hash,
                                    },
                                ));
                            }
                        }
                        buf.drain(..offset);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity thread panicked"))
            .collect()
    });
    let mut sent: Vec<(usize, Seen)> = per_conn.into_iter().flatten().collect();
    sent.sort_by_key(|(i, _)| *i);
    let in_window = sent
        .iter()
        .filter(|(_, s)| s.done.is_some_and(|d| d <= end))
        .count();
    let phase = Phase {
        rate: 0.0,
        bodies: sent.iter().map(|(i, _)| bodies[*i]).collect(),
        seen: sent.into_iter().map(|(_, s)| s).collect(),
        queue_depth_max: 0,
    };
    (phase, in_window as f64 / seconds)
}

/// The three phases of one instance, chunk by chunk.
struct Measured {
    low: Vec<Phase>,
    high: Vec<Phase>,
    saturated: Vec<Phase>,
}

/// Messages per echo reference run.
const ECHO_MESSAGES: usize = 100;

/// Each phase's requests between two reference runs: latencies at the two
/// rates, against echo round trips paced at the same rate, and the time
/// per response at capacity, against back-to-back round trips.
struct Timed {
    low: Paired,
    high: Paired,
    capacity: Paired,
}

impl Timed {
    fn new() -> Timed {
        let echo = Rc::new(RefCell::new(Echo::start().expect("loopback echo")));
        let paced = |rate: f64| {
            let echo = Rc::clone(&echo);
            let gap = Duration::from_secs_f64(1.0 / rate);
            Paired::with(move || echo.borrow_mut().round_trip_ms(ECHO_MESSAGES, gap))
        };
        Timed {
            low: paced(LOW_RPS),
            high: paced(HIGH_RPS),
            capacity: Paired::with(move || {
                echo.borrow_mut()
                    .round_trip_ms(3 * ECHO_MESSAGES, Duration::ZERO)
            }),
        }
    }
}

fn measure(live: &mut Live, mix: &mut Mix, seconds: f64, t: &mut Timed) -> Measured {
    let quiet = Tracer::new(false);
    let secs = seconds * PHASE_SHARE / CHUNKS as f64;
    let mut open_loop = |paired: &mut Paired, mix: &mut Mix, rate: f64| {
        let seq = mix.sequence(rate * secs, &quiet, 0);
        paired.group(|| {
            let p = phase(live, &mix.bodies, seq, rate);
            let ms = p.latencies_ms();
            (p, ms)
        })
    };
    let low = (0..CHUNKS)
        .map(|_| open_loop(&mut t.low, mix, LOW_RPS))
        .collect();
    let high = (0..CHUNKS)
        .map(|_| open_loop(&mut t.high, mix, HIGH_RPS))
        .collect();
    let saturated = (0..CHUNKS)
        .map(|_| {
            let seq = mix.sequence(MAX_CAPACITY_RPS * secs, &quiet, 0);
            t.capacity.group(|| {
                let (p, rps) = capacity(live, &mix.bodies, seq, secs);
                (p, vec![1e3 / rps])
            })
        })
        .collect();
    Measured {
        low,
        high,
        saturated,
    }
}

/// Server instances per run. Each is set up (mix, `Server::start`,
/// warm-up), measured through the three phases and shut down; latency
/// medians pool all instances' requests, capacity is the instances'
/// median. Thread placement differs per instance, so no one placement
/// decides a run's figures.
const INSTANCES: u64 = 3;

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let quiet = Tracer::new(false);

    if !ctx.traced() {
        let mut t = Timed::new();
        let (mut setups, mut lags) = (vec![], vec![]);
        for instance in 0..INSTANCES {
            let t0 = Instant::now();
            let (mut live, mut mix) = set_up(ctx, instance, &quiet);
            setups.push(t0.elapsed().as_secs_f64());
            let m = measure(&mut live, &mut mix, ctx.seconds / INSTANCES as f64, &mut t);
            drop(live);
            let phases: Vec<&Phase> = m.low.iter().chain(&m.high).chain(&m.saturated).collect();
            lags.extend(m.low.iter().chain(&m.high).flat_map(Phase::lag_ms));
            check(&mix.bodies, &phases, &mut report);
        }
        report.set("setup_s", stats::median(&setups));
        report.set_rel(
            "main_rel",
            &format!("serve latency at {LOW_RPS} rps"),
            &t.low,
        );
        report.set_rel(
            "alt_rel",
            &format!("serve latency at {HIGH_RPS} rps"),
            &t.high,
        );
        let per_response = report.show_rel("serve time per response", &t.capacity);
        report.set("throughput_rel", 1.0 / stats::median(&per_response));
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        report.show(
            "serve.capacity_rps",
            1e3 / stats::median(&t.capacity.ms()),
            "1/s",
        );
        report.show(
            "serve.generator_lag_ms p99",
            stats::quantile(&lags, 0.99),
            "ms",
        );
        return report;
    }

    let (mut live, mut mix) = set_up(ctx, 0, &quiet);
    // Traced run: a plain low-rate phase for the overhead baseline, then
    // the same rate with counters, allocation profiling and spans on.
    let tr = &ctx.tracer;
    let secs = ctx.seconds * PHASE_SHARE;
    let seq = mix.sequence(LOW_RPS * secs, &quiet, 0);
    let plain = phase(&mut live, &mix.bodies, seq, LOW_RPS);
    let seq = mix.sequence(LOW_RPS * secs, tr, 0);
    let counters = Counters::start();
    let before = plateau_obs::snapshot();
    let low = phase(&mut live, &mix.bodies, seq, LOW_RPS);
    let after = plateau_obs::snapshot();
    counters.finish(&mut report, low.bodies.len() as f64, &[]);
    drop(live);
    let p50 = stats::median(&low.latencies_ms());
    report.set(
        "obs.trace_overhead_frac",
        p50 / stats::median(&plain.latencies_ms()) - 1.0,
    );
    live_metrics(&mut report, tr, &low, &before, &after);
    replay(tr, &mix.bodies, &low.bodies);
    stage_metrics(&mut report, tr, p50);
    layers::set_median_us(&mut report, tr, "core.ansatz_build_us", "core.ansatz_build");
    layers::set_median_us(&mut report, tr, "core.init_us", "core.init.sample_params");
    report.set("core.train_overhead_frac", 0.0);

    // Circuit probes on the op-list pool circuits, through the service's
    // default (fused) executor.
    let mut probes = layers::Probes::default();
    for (j, entry) in mix.pool.iter().enumerate() {
        for &b in entry {
            let body = &mix.bodies[b];
            let Ok(Request::Gradient(r)) = Request::parse(body.path, &body.text) else {
                continue;
            };
            let op = PROBE_OP + j as u64;
            let circuit = r.circuit.build().expect("pool circuit");
            let obs = r.observable.build(circuit.n_qubits()).expect("observable");
            probes.circuit(tr, None, op, &circuit, &r.params, layers::Path::Compiled);
            let compiled = plateau_sim::compile(&circuit);
            match r.engine {
                EngineSpec::Adjoint => probes.alloc_of(|| {
                    tr.span("grad.adjoint.compiled", None, op, |_| {
                        plateau_grad::adjoint_gradient_compiled(&compiled, &r.params, &obs)
                            .expect("adjoint")
                    })
                }),
                EngineSpec::ParameterShift => tr.span("grad.shift.gradient", None, op, |_| {
                    ParameterShift
                        .gradient(&circuit, &r.params, &obs)
                        .expect("shift")
                }),
            };
        }
    }
    probes.finish(&mut report);
    layers::set_median_us(&mut report, tr, "grad.adjoint_us", "grad.adjoint.compiled");
    layers::set_median_us(&mut report, tr, "grad.shift_us", "grad.shift.gradient");
    check(&mix.bodies, &[&plain, &low], &mut report);
    report
}

/// First op id of probe spans (request spans use the request's index).
const PROBE_OP: u64 = 1 << 40;
const REPLAY_OP: u64 = 1 << 41;

/// Serve-layer metrics read during a live phase: the program's cache and
/// queue counters, the sampled queue depth, how late the generator ran,
/// and one span per request (scheduled send to response) with its lag
/// and its wait for the response as children.
fn live_metrics(
    report: &mut Report,
    tr: &Tracer,
    p: &Phase,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let d =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    let (hits, misses) = (d("serve.cache.hits"), d("serve.cache.misses"));
    report.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.set(
        "serve.rejected_ratio",
        d("serve.queue.rejected") / p.bodies.len() as f64,
    );
    report.set("serve.queue_depth_max", p.queue_depth_max as f64);
    report.set("serve.generator_lag_ms", stats::quantile(&p.lag_ms(), 0.99));
    for (i, s) in p.seen.iter().enumerate() {
        let Some(done) = s.done else { continue };
        let op = i as u64;
        let root = tr.record("serve.request", None, op, s.due, done);
        tr.record("serve.client.lag", Some(root), op, s.due, s.sent);
        tr.record("serve.client.wait", Some(root), op, s.sent, done);
    }
}

/// Replays requests through the service's stages, called one by one on a
/// private cache of the default size: HTTP framing (`http::try_parse`),
/// body decoding (`Request::parse`), the circuit cache
/// (`CircuitCache::get_or_build`), `handlers::execute` (which looks the
/// circuit up again, now a hit) and response encoding
/// (`HttpResponse::json` + `write_to`). Spans of one request share its op.
fn replay(tr: &Tracer, all: &[Body], seq: &[usize]) {
    let cache = CircuitCache::new(ServeConfig::default().cache_capacity, true);
    for (k, &b) in seq.iter().enumerate() {
        let op = REPLAY_OP + k as u64;
        let root = tr.open("serve.replay", None, op);
        let parsed = tr.span("serve.http.try_parse", root.as_ref(), op, |_| {
            http::try_parse(&all[b].wire, http::DEFAULT_MAX_BODY_BYTES)
        });
        let Ok(ParseStatus::Complete(req, _)) = parsed else {
            panic!("benchmark request {b} does not frame");
        };
        let body = std::str::from_utf8(&req.body).expect("utf-8 body");
        let request = tr.span("serve.protocol.parse", root.as_ref(), op, |_| {
            Request::parse(&req.path, body)
        });
        let request = request.expect("benchmark bodies parse");
        let spec = match &request {
            Request::Simulate(r) => &r.circuit,
            Request::Gradient(r) => &r.circuit,
            _ => unreachable!("the mix sends /simulate and /gradient only"),
        };
        let t0 = Instant::now();
        let (_, hit) = cache.get_or_build(spec).expect("benchmark circuits build");
        let parent = root.as_ref().map(|r| r.key());
        tr.record(
            if hit {
                "serve.cache.hit"
            } else {
                "serve.cache.miss"
            },
            parent,
            op,
            t0,
            Instant::now(),
        );
        let outcome = tr.span("serve.handlers.execute", root.as_ref(), op, |_| {
            execute(&request, &cache, Limits::default())
        });
        tr.span("serve.http.encode", root.as_ref(), op, |_| {
            let mut response = HttpResponse::json(outcome.status, &outcome.body);
            if let Some(hit) = outcome.cache {
                response =
                    response.with_header("X-Plateau-Cache", if hit { "hit" } else { "miss" });
            }
            let mut out = Vec::with_capacity(response.body.len() + 256);
            response.write_to(&mut out, true).expect("write to memory");
            out
        });
        tr.close(root);
    }
}

/// Stage medians from [`replay`]'s spans, and what the end-to-end median
/// `p50_ms` leaves unattributed: queue wait, thread hand-offs and socket
/// time. `execute` includes its own (hit) cache lookup, so the sum is
/// parse + decode + execute + encode.
fn stage_metrics(report: &mut Report, tr: &Tracer, p50_ms: f64) {
    let stages = [
        ("serve.http_parse_us", "serve.http.try_parse"),
        ("serve.decode_us", "serve.protocol.parse"),
        ("serve.execute_us", "serve.handlers.execute"),
        ("serve.encode_us", "serve.http.encode"),
    ];
    let mut sum = 0.0;
    for (metric, span) in stages {
        layers::set_median_us(report, tr, metric, span);
        sum += report.get(metric).unwrap_or(0.0);
    }
    layers::set_median_us(report, tr, "serve.cache_hit_us", "serve.cache.hit");
    layers::set_median_us(report, tr, "serve.cache_miss_us", "serve.cache.miss");
    report.set("serve.unattributed_us", p50_ms * 1e3 - sum);
}

/// Serve-layer metrics for a workload that does not touch the service:
/// its own operations, sent as adjoint `/gradient` requests to an
/// in-process server at a low open-loop rate, then the same sequence
/// replayed stage by stage (the first pass over the distinct requests
/// misses the replay's cache, the rest hit).
pub fn probe(ctx: &Ctx, workload: &str, report: &mut Report) {
    let tr = &ctx.tracer;
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 0x9B0BE, 0, 0));
    // (ansatz, engine) of each distinct request, and the offered rate.
    let (requests, rate): (Vec<(Ansatz, EngineSpec)>, f64) = match workload {
        "fig5a_cell" => (
            (0..24)
                .map(|_| {
                    (
                        variance_ansatz(crate::fig5a::QUBITS, crate::fig5a::LAYERS, &mut rng)
                            .expect("ansatz"),
                        EngineSpec::Adjoint,
                    )
                })
                .collect(),
            100.0,
        ),
        "train_ivd" => (
            (0..24)
                .map(|_| {
                    (
                        training_ansatz(crate::train::QUBITS, crate::train::LAYERS)
                            .expect("ansatz"),
                        EngineSpec::Adjoint,
                    )
                })
                .collect(),
            100.0,
        ),
        // The service caps registers at 16 qubits: the widest it accepts.
        _ => (
            (0..8)
                .map(|_| {
                    (
                        training_ansatz(Limits::default().max_qubits, crate::wide::LAYERS)
                            .expect("ansatz"),
                        EngineSpec::Adjoint,
                    )
                })
                .collect(),
            4.0,
        ),
    };
    let bodies: Vec<Body> = requests
        .iter()
        .map(|(a, engine)| {
            let params = draw_params(a, &mut rng, &Tracer::new(false), 0);
            Body::new(&Request::Gradient(GradientRequest {
                circuit: CircuitSpec::from_circuit(&a.circuit),
                params,
                observable: ObservableSpec::Global,
                engine: *engine,
                seed: 0,
            }))
        })
        .collect();
    let mut live = Live::start();
    for b in &bodies {
        roundtrip(&mut live.conns[0], b).expect("warm-up request");
    }
    let n = (rate * 3.0) as usize;
    let seq: Vec<usize> = (0..n).map(|i| i % bodies.len()).collect();
    let before = plateau_obs::snapshot();
    let p = phase(&mut live, &bodies, seq, rate);
    let after = plateau_obs::snapshot();
    drop(live);
    live_metrics(report, tr, &p, &before, &after);
    replay(tr, &bodies, &p.bodies);
    stage_metrics(report, tr, stats::median(&p.latencies_ms()));
    check(&bodies, &[&p], report);
}
