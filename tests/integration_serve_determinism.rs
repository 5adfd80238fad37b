//! Determinism property: the same request body (same seed) returns a
//! bit-identical response body across thread counts 1, 2 and 4 and
//! across cold vs LRU-warm circuit-cache hits.
//!
//! The socket check runs at the process's default thread count. The
//! thread-count sweep calls `plateau_serve::execute` in-process inside
//! `plateau_par::with_threads` scopes, so nothing here touches the
//! environment.

#[path = "serve_common.rs"]
mod serve_common;

use plateau_serve::{execute, CircuitCache, Request, ServeConfig, Server};
use serve_common::post;

fn bodies() -> Vec<(&'static str, String)> {
    let ring = {
        let mut c = plateau_sim::Circuit::new(4).unwrap();
        for q in 0..4 {
            c.ry(q).unwrap();
            c.rx(q).unwrap();
        }
        for q in 0..3 {
            c.cz(q, q + 1).unwrap();
        }
        plateau_serve::CircuitSpec::from_circuit(&c).to_json().to_string()
    };
    vec![
        (
            "/simulate",
            format!(
                "{{\"circuit\":{ring},\"params\":[0.3,-0.7,1.1,0.2,0.9,-0.4,0.5,0.8],\
                 \"observable\":\"global\",\"seed\":1234,\"shots\":500}}"
            ),
        ),
        (
            "/gradient",
            format!(
                "{{\"circuit\":{ring},\"params\":[0.3,-0.7,1.1,0.2,0.9,-0.4,0.5,0.8],\
                 \"observable\":\"local\",\"engine\":\"adjoint\",\"seed\":7}}"
            ),
        ),
        (
            "/variance-scan",
            r#"{"qubits":[2,4],"layers":5,"circuits":16,"strategies":["random","xavier_uniform"],"cost":"global","ansatz":"training","seed":42}"#.to_string(),
        ),
        (
            "/train",
            r#"{"qubits":3,"layers":2,"iterations":5,"strategy":"he","optimizer":"adam","lr":0.1,"fan":"tensor","seed":11}"#.to_string(),
        ),
    ]
}

#[test]
fn responses_are_bit_identical_across_threads_and_cache_state() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let limits = ServeConfig::default().limits;

    for (path, body) in bodies() {
        // Reference response: cold cache, over the socket.
        server.cache().clear();
        let reference = post(addr, path, &body);
        assert_eq!(reference.status, 200, "{path}: {}", reference.body);
        if path == "/simulate" || path == "/gradient" {
            assert_eq!(
                reference.header("X-Plateau-Cache"),
                Some("miss"),
                "{path} after a cache clear must be cold"
            );
        }

        // Warm hit over the socket: identical body, hit header.
        let warm = post(addr, path, &body);
        assert_eq!(
            warm.body, reference.body,
            "{path}: warm cache changed the body"
        );
        if path == "/simulate" || path == "/gradient" {
            assert_eq!(warm.header("X-Plateau-Cache"), Some("hit"));
        }

        // Thread-count sweep in-process, on a cold and then a warm cache
        // each time.
        let request = Request::parse(path, &body).expect("valid request");
        for threads in [1, 2, 4] {
            let cache = CircuitCache::with_capacity(8);
            for (state, hit) in [("cold", false), ("warm", true)] {
                let out = plateau_par::with_threads(threads, || execute(&request, &cache, limits));
                assert_eq!(out.status, 200, "{path}: threads={threads} {state}");
                if path == "/simulate" || path == "/gradient" {
                    assert_eq!(out.cache, Some(hit), "{path}: threads={threads} {state}");
                }
                assert_eq!(
                    out.body.to_string(),
                    reference.body,
                    "{path}: threads={threads} {state} body diverged from the socket reference"
                );
            }
        }
    }
    server.shutdown();
}
