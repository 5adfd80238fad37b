//! Open-loop traffic generator and CI gate for `plateau-serve`.
//!
//! Boots an in-process [`Server`] on an ephemeral port and drives it over
//! raw sockets — the same independent client the integration suites use,
//! so a codec bug symmetric in the server cannot hide. Three phases:
//!
//! 1. **Fixed-seed burst**: a deterministic request mix (simulate /
//!    gradient / variance-scan / train, seeds derived from the request
//!    index) fired from a small pool of generator threads. Every response
//!    must be 200, and the subsequent `/metrics` scrape must report the
//!    **exact** per-endpoint request counts — this binary is the sole
//!    tenant of its process-global registry, so equality (not the
//!    floor-matching the integration tests settle for) is enforceable.
//!    Latencies are reported as p50/p90/p99 and recorded in the bench
//!    JSON.
//! 2. **Backpressure probe**: a second 1-worker/1-slot server is flooded;
//!    every outcome must be a complete 200 or a clean `503 + Retry-After`
//!    — nothing else, and never a torn response.
//! 3. **Cache gate**: the same QASM `/simulate` request measured cold
//!    (cache cleared every iteration) vs LRU-warm. The warm path skips
//!    QASM parse and circuit build (there is no compile step), so the
//!    cold median must exceed `warm × PLATEAU_SERVE_CACHE_TOL` (default
//!    1.2) or the gate fails (exit 1).
//!
//! Run with `--record` to also write `benchmarks/BENCH_serve.json` (the
//! committed baseline); `PLATEAU_PERF` flows the medians into the perf
//! ledger as usual.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plateau_bench::harness::{black_box, Harness};
use plateau_bench::json::Json;
use plateau_serve::{ServeConfig, Server};

/// Total burst size and its fixed endpoint mix (must sum to the wave).
const WAVES: usize = 25;
const MIX: [(&str, usize); 4] = [
    ("/simulate", 4),
    ("/gradient", 2),
    ("/variance-scan", 1),
    ("/train", 1),
];
const GENERATORS: usize = 4;

/// Minimal raw-socket client: one request per `Connection: close` socket.
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: load\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read");
    parse_response(&buf)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!("GET {path} HTTP/1.1\r\nHost: load\r\nConnection: close\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read");
    parse_response(&buf)
}

/// Parses status + body, panicking on a torn or malformed response — the
/// exact failure the backpressure probe is hunting.
fn parse_response(bytes: &[u8]) -> (u16, String) {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&bytes[..head_end]).expect("ASCII head");
    let status: u16 = head[9..12].parse().expect("numeric status");
    let len: usize = head
        .split("\r\n")
        .find(|l| l.to_ascii_lowercase().starts_with("content-length"))
        .and_then(|l| l.split(':').nth(1))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric length");
    let body_start = head_end + 4;
    assert!(
        bytes.len() == body_start + len,
        "torn response: promised {len} body bytes, got {}",
        bytes.len() - body_start
    );
    let body = String::from_utf8(bytes[body_start..].to_vec()).expect("UTF-8 body");
    (status, body)
}

/// A persistent keep-alive connection for the cache bench: keeps TCP
/// connect + accept out of the measured path so the cold-vs-warm delta
/// isolates the work the LRU cache elides.
struct KeepAlive {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).ok();
        KeepAlive {
            stream,
            buf: Vec::new(),
        }
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: load\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes()).expect("send");
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end]).expect("ASCII head");
                let len: usize = head
                    .split("\r\n")
                    .find(|l| l.to_ascii_lowercase().starts_with("content-length"))
                    .and_then(|l| l.split(':').nth(1))
                    .expect("Content-Length header")
                    .trim()
                    .parse()
                    .expect("numeric length");
                if self.buf.len() >= head_end + 4 + len {
                    let status: u16 = head[9..12].parse().expect("numeric status");
                    let body = String::from_utf8(self.buf[head_end + 4..head_end + 4 + len].to_vec())
                        .expect("UTF-8 body");
                    self.buf.drain(..head_end + 4 + len);
                    return (status, body);
                }
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "peer closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Deterministic body for burst request `i` on `path` — the seed is a
/// pure function of the index, so reruns replay the identical campaign.
fn burst_body(path: &str, i: usize) -> String {
    let seed = 0xfeedu64 + i as u64;
    match path {
        "/simulate" => format!(
            "{{\"circuit\":{{\"qubits\":4,\"ops\":[\
             {{\"gate\":\"ry\",\"qubits\":[0]}},{{\"gate\":\"ry\",\"qubits\":[1]}},\
             {{\"gate\":\"ry\",\"qubits\":[2]}},{{\"gate\":\"ry\",\"qubits\":[3]}},\
             {{\"gate\":\"cz\",\"qubits\":[0,1]}},{{\"gate\":\"cz\",\"qubits\":[2,3]}}]}},\
             \"params\":[0.1,0.2,0.3,0.{}],\"observable\":\"global\",\"seed\":{seed},\"shots\":64}}",
            1 + i % 9
        ),
        "/gradient" => format!(
            "{{\"circuit\":{{\"qubits\":3,\"ops\":[\
             {{\"gate\":\"ry\",\"qubits\":[0]}},{{\"gate\":\"rx\",\"qubits\":[1]}},\
             {{\"gate\":\"ry\",\"qubits\":[2]}},{{\"gate\":\"cz\",\"qubits\":[0,1]}}]}},\
             \"params\":[0.{},0.5,-0.2],\"observable\":\"local\",\"engine\":\"adjoint\",\"seed\":{seed}}}",
            1 + i % 9
        ),
        "/variance-scan" => format!(
            "{{\"qubits\":[2],\"layers\":2,\"circuits\":4,\"strategies\":[\"random\"],\
             \"cost\":\"global\",\"ansatz\":\"random\",\"seed\":{seed}}}"
        ),
        "/train" => format!(
            "{{\"qubits\":2,\"layers\":1,\"iterations\":2,\"strategy\":\"xavier_normal\",\
             \"optimizer\":\"adam\",\"lr\":0.1,\"fan\":\"tensor\",\"seed\":{seed}}}"
        ),
        other => panic!("no body template for {other}"),
    }
}

/// A parse-heavy QASM simulate request: 6 qubits × 30 layers of
/// baked-angle rotations. The run itself touches only 64 amplitudes, so
/// the cold-vs-warm gap is dominated by the work the LRU cache elides
/// (QASM parse + circuit build).
fn cache_gate_body() -> String {
    let n = 6usize;
    let layers: usize = std::env::var("PLATEAU_SERVE_GATE_LAYERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let mut c = plateau_sim::Circuit::new(n).expect("circuit");
    for _ in 0..layers {
        for q in 0..n {
            c.ry(q).expect("ry");
            c.rx(q).expect("rx");
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1).expect("cz");
        }
    }
    let params: Vec<f64> = (0..c.n_params()).map(|p| 0.01 * p as f64).collect();
    let qasm = plateau_sim::qasm::to_qasm(&c, &params).expect("qasm");
    plateau_obs::json::Json::obj([
        (
            "circuit",
            plateau_obs::json::Json::obj([("qasm", plateau_obs::json::Json::str(qasm))]),
        ),
        ("observable", plateau_obs::json::Json::str("global")),
    ])
    .to_string()
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn counter_value(metrics_body: &str, name: &str) -> f64 {
    let snap = plateau_obs::json::Json::parse(metrics_body).expect("metrics JSON");
    snap.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == "counters"))
        .and_then(|(_, v)| v.as_obj())
        .and_then(|c| c.iter().find(|(k, _)| k == name))
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(0.0)
}

fn main() {
    if std::env::args().any(|a| a == "--record") {
        std::env::set_var("PLATEAU_BENCH_JSON", "benchmarks/BENCH_serve.json");
    }

    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Phase 1: fixed-seed burst. The schedule is a flat, deterministic
    // list; generator threads race down it via an atomic cursor (open
    // loop: nothing waits on anything but its own socket).
    let schedule: Vec<(&'static str, usize)> = (0..WAVES)
        .flat_map(|w| {
            MIX.iter().flat_map(move |&(path, count)| {
                (0..count).map(move |k| (path, w * 8 + k))
            })
        })
        .collect();
    let total = schedule.len();
    let schedule = Arc::new(schedule);
    let cursor = Arc::new(AtomicUsize::new(0));

    println!(
        "# load_gate: {total}-request burst ({} waves of {:?}) from {GENERATORS} generators",
        WAVES,
        MIX.iter().map(|&(p, c)| format!("{c}x{p}")).collect::<Vec<_>>()
    );
    let burst_started = Instant::now();
    let generators: Vec<_> = (0..GENERATORS)
        .map(|_| {
            let schedule = Arc::clone(&schedule);
            let cursor = Arc::clone(&cursor);
            std::thread::spawn(move || {
                let mut latencies_us = Vec::new();
                let mut failures = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(path, body_idx)) = schedule.get(i) else {
                        break;
                    };
                    let body = burst_body(path, body_idx);
                    let started = Instant::now();
                    let (status, resp) = post(addr, path, &body);
                    latencies_us.push(started.elapsed().as_micros() as u64);
                    if status != 200 {
                        failures.push(format!("{path} -> {status}: {resp}"));
                    }
                }
                (latencies_us, failures)
            })
        })
        .collect();
    let mut latencies_us = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for g in generators {
        let (lat, fail) = g.join().expect("generator thread");
        latencies_us.extend(lat);
        failures.extend(fail);
    }
    let burst_elapsed = burst_started.elapsed();
    if !failures.is_empty() {
        eprintln!("load gate FAILED: {} unexpected non-2xx responses:", failures.len());
        for f in failures.iter().take(5) {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    latencies_us.sort_unstable();
    let (p50, p90, p99) = (
        percentile_us(&latencies_us, 0.50),
        percentile_us(&latencies_us, 0.90),
        percentile_us(&latencies_us, 0.99),
    );
    println!(
        "# burst: {total}/{total} ok in {:.1} ms ({:.0} req/s) — latency p50 {p50} us, \
         p90 {p90} us, p99 {p99} us",
        burst_elapsed.as_secs_f64() * 1e3,
        total as f64 / burst_elapsed.as_secs_f64()
    );

    // Exact-count metrics scrape: sole tenant of the registry, so the
    // counters must equal the schedule — not merely bound it.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200, "metrics scrape failed");
    for &(path, per_wave) in &MIX {
        let endpoint = path.trim_start_matches('/').replace('-', "_");
        let name = format!("serve.requests.{endpoint}");
        let got = counter_value(&metrics, &name);
        let want = (per_wave * WAVES) as f64;
        if got != want {
            eprintln!("load gate FAILED: {name} = {got}, expected exactly {want}");
            std::process::exit(1);
        }
    }
    for (name, want) in [
        ("serve.responses.2xx", total as f64),
        ("serve.responses.4xx", 0.0),
        ("serve.responses.5xx", 0.0),
    ] {
        let got = counter_value(&metrics, name);
        if got != want {
            eprintln!("load gate FAILED: {name} = {got}, expected exactly {want}");
            std::process::exit(1);
        }
    }
    println!("# metrics scrape: per-endpoint request counts exact, 0 non-2xx");

    // Phase 2: backpressure probe on a deliberately starved server.
    let tiny = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .expect("bind probe server");
    let tiny_addr = tiny.addr();
    let slow = "{\"qubits\":[5],\"layers\":16,\"circuits\":16,\"strategies\":[\"random\"],\
                \"cost\":\"global\",\"ansatz\":\"training\",\"seed\":3}";
    let probes: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || post(tiny_addr, "/variance-scan", slow).0))
        .collect();
    let statuses: Vec<u16> = probes.into_iter().map(|p| p.join().expect("probe")).collect();
    let rejected = statuses.iter().filter(|&&s| s == 503).count();
    if statuses.iter().any(|&s| s != 200 && s != 503) {
        eprintln!("load gate FAILED: backpressure probe saw statuses {statuses:?}");
        std::process::exit(1);
    }
    println!(
        "# backpressure probe: {} served, {rejected} cleanly rejected (all 200/503)",
        statuses.len() - rejected
    );
    tiny.shutdown();

    // Phase 3: cold vs LRU-warm /simulate through the harness.
    let body = cache_gate_body();
    let mut h = Harness::new("load_gate");
    h.config("burst_requests", Json::from(total));
    h.config("burst_p50_us", Json::from(p50 as usize));
    h.config("burst_p90_us", Json::from(p90 as usize));
    h.config("burst_p99_us", Json::from(p99 as usize));
    h.config("probe_rejected", Json::from(rejected));
    h.note(
        "simulate_cold clears the parsed-circuit LRU every iteration, so each \
         request repays QASM parse + build; simulate_warm hits the cache and \
         goes straight to execution",
    );
    let mut conn = KeepAlive::connect(addr);
    let mut group = h.group("simulate");
    group.sample_size(30);
    group.bench("cold", || {
        server.cache().clear();
        let (status, _) = conn.post("/simulate", black_box(&body));
        assert_eq!(status, 200);
    });
    // Prime once, then measure pure hits.
    let (status, _) = conn.post("/simulate", &body);
    assert_eq!(status, 200);
    group.bench("warm", || {
        let (status, _) = conn.post("/simulate", black_box(&body));
        assert_eq!(status, 200);
    });
    drop(conn);
    let reports = h.finish();
    server.shutdown();

    let median_of = |id: &str| {
        reports
            .iter()
            .find(|r| r.name == format!("simulate/{id}"))
            .unwrap_or_else(|| panic!("missing report {id}"))
            .median_ns
    };
    let (cold, warm) = (median_of("cold"), median_of("warm"));
    let tol: f64 = std::env::var("PLATEAU_SERVE_CACHE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.2);
    println!(
        "# cold {:.0} us vs warm {:.0} us per request: x{:.2} (required >= x{tol})",
        cold / 1e3,
        warm / 1e3,
        cold / warm
    );
    if cold < warm * tol {
        eprintln!(
            "load gate FAILED: cold median {cold:.0} ns is not {tol}x the warm \
             median {warm:.0} ns — the LRU warm path is not paying for itself"
        );
        std::process::exit(1);
    }
    println!("# serve cache gate passed");
}
