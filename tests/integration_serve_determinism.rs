//! Determinism property: the same request body (same seed) returns a
//! bit-identical response body across `PLATEAU_THREADS` ∈ {1, 2, 4} and
//! across cold vs LRU-warm circuit-cache hits.
//!
//! Everything runs inside ONE `#[test]` — the thread-count sweep mutates
//! the process-wide `PLATEAU_THREADS` variable, which must not race
//! other tests in this binary.

#[path = "serve_common.rs"]
mod serve_common;

use plateau_serve::{ServeConfig, Server};
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
    let prior_threads = std::env::var("PLATEAU_THREADS").ok();

    for (path, body) in bodies() {
        // Reference response: cold cache, 1 thread.
        std::env::set_var("PLATEAU_THREADS", "1");
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

        // Warm hit, same thread count: identical body, hit header.
        let warm = post(addr, path, &body);
        assert_eq!(
            warm.body, reference.body,
            "{path}: warm cache changed the body"
        );
        if path == "/simulate" || path == "/gradient" {
            assert_eq!(warm.header("X-Plateau-Cache"), Some("hit"));
        }

        // Thread-count sweep, cold and warm each time.
        for threads in ["2", "4"] {
            std::env::set_var("PLATEAU_THREADS", threads);
            server.cache().clear();
            let cold = post(addr, path, &body);
            assert_eq!(
                cold.body, reference.body,
                "{path}: PLATEAU_THREADS={threads} cold body diverged"
            );
            let warm = post(addr, path, &body);
            assert_eq!(
                warm.body, reference.body,
                "{path}: PLATEAU_THREADS={threads} warm body diverged"
            );
        }
    }

    match prior_threads {
        Some(v) => std::env::set_var("PLATEAU_THREADS", v),
        None => std::env::remove_var("PLATEAU_THREADS"),
    }
    server.shutdown();
}
