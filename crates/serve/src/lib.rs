//! `plateau-serve` — the multi-tenant HTTP front-end over the plateau
//! simulation/gradient stack.
//!
//! This crate turns the batch library into a traffic-serving system
//! (DESIGN.md §15): a zero-dependency HTTP/1.1 server exposing
//!
//! | endpoint          | verb | work                                      |
//! |-------------------|------|-------------------------------------------|
//! | `/simulate`       | POST | expectation (+ optional shot counts)      |
//! | `/gradient`       | POST | full gradient, adjoint or parameter-shift |
//! | `/variance-scan`  | POST | small Fig-5a-style variance scan          |
//! | `/train`          | POST | training run on the paper's ansatz        |
//! | `/metrics`        | GET  | `plateau-obs` registry snapshot           |
//! | `/healthz`        | GET  | liveness + drain state + queue depth      |
//!
//! Circuits arrive as OpenQASM 2.0 or canonical op-list JSON
//! ([`protocol`]); parsed circuits are cached in an LRU keyed on the raw
//! wire form ([`cache`]) so repeat tenants skip parse + build; each
//! connection thread runs its own compute once an admission gate lets it
//! ([`server`]: at most `workers` run, at most `queue_capacity` wait, 503 +
//! `Retry-After` when full); and every response body is a deterministic
//! function of the request body — cache state travels in the
//! `X-Plateau-Cache` header, never the body ([`handlers`]).
//!
//! ```no_run
//! use plateau_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default())?;
//! println!("listening on {}", server.addr());
//! // ... drive traffic ...
//! server.shutdown(); // finishes admitted jobs, then stops
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod handlers;
pub mod http;
pub mod protocol;
pub mod server;

pub use cache::{CachedCircuit, CircuitCache};
pub use handlers::{execute, ExecOutcome, Limits};
pub use http::{HttpParseError, HttpRequest, HttpResponse, ParseStatus};
pub use protocol::{
    CircuitSpec, EngineSpec, GradientRequest, ObservableSpec, ProtocolError, Request,
    SimulateRequest, TrainRequest, VarianceRequest,
};
pub use server::{ServeConfig, Server};
