//! Endpoint execution: a parsed [`Request`] in, a status + canonical
//! JSON body out.
//!
//! Handlers are pure with respect to the connection: they know nothing
//! about sockets or HTTP framing, which is what lets the determinism
//! tests call them straight through the public server as well as the
//! fuzz harness exercise the codec without a listener.
//!
//! **Determinism contract:** for a fixed request body (including its
//! seed) the response *body* is a pure function of the request — cache
//! state and worker threading must not leak into it. That is why the
//! cache disposition travels in the `X-Plateau-Cache` response *header*
//! (see `server.rs`) and never in the body, and why shot sampling uses a
//! per-request `StdRng` seeded only from the request.

use std::sync::Arc;

use plateau_grad::GradientEngine;
use plateau_obs::json::Json;
use plateau_rng::SeedableRng;
use plateau_sim::{sample_counts, Observable, State};

use crate::cache::{CachedCircuit, CircuitCache};
use crate::protocol::{
    parse_fan, parse_strategy, EngineSpec, GradientRequest, ProtocolError, Request,
    SimulateRequest, TrainRequest, VarianceRequest,
};

/// Execution limits the server imposes on top of protocol validation.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest register a request may simulate (a 2^n statevector is
    /// real memory — multi-tenant servers cap it well below
    /// [`plateau_sim::MAX_QUBITS`]).
    pub max_qubits: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_qubits: 16 }
    }
}

/// The result of executing one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// HTTP status (200, or 4xx with an error body).
    pub status: u16,
    /// Response body.
    pub body: Json,
    /// `Some(true)` = compiled-cache hit, `Some(false)` = miss, `None`
    /// for endpoints that don't touch the cache.
    pub cache: Option<bool>,
}

impl ExecOutcome {
    fn ok(body: Json, cache: Option<bool>) -> ExecOutcome {
        ExecOutcome {
            status: 200,
            body,
            cache,
        }
    }

    fn err(e: &ProtocolError) -> ExecOutcome {
        let status = if e.code == "not_found" { 404 } else { 400 };
        ExecOutcome {
            status,
            body: e.to_json(),
            cache: None,
        }
    }
}

/// Executes `req` against the shared circuit cache.
pub fn execute(req: &Request, cache: &CircuitCache, limits: Limits) -> ExecOutcome {
    let result = match req {
        Request::Simulate(r) => simulate(r, cache, limits),
        Request::Gradient(r) => gradient(r, cache, limits),
        Request::VarianceScan(r) => variance_scan(r, limits),
        Request::Train(r) => train(r, limits),
    };
    match result {
        Ok(outcome) => outcome,
        Err(e) => ExecOutcome::err(&e),
    }
}

fn check_width(n_qubits: usize, limits: Limits) -> Result<(), ProtocolError> {
    if n_qubits > limits.max_qubits {
        return Err(ProtocolError::invalid(format!(
            "{n_qubits} qubits exceeds this server's limit of {}",
            limits.max_qubits
        )));
    }
    Ok(())
}

/// Fetches (or builds) the cached structure and runs the width check.
fn cached(
    spec: &crate::protocol::CircuitSpec,
    cache: &CircuitCache,
    limits: Limits,
) -> Result<(Arc<CachedCircuit>, bool), ProtocolError> {
    let (entry, hit) = cache.get_or_build(spec)?;
    check_width(entry.circuit.n_qubits(), limits)?;
    Ok((entry, hit))
}

/// Runs the circuit to its final state, preferring the compiled form.
fn run_state(entry: &CachedCircuit, params: &[f64]) -> Result<State, ProtocolError> {
    match &entry.compiled {
        Some(compiled) => Ok(compiled.run(params)?),
        None => Ok(entry.circuit.run(params)?),
    }
}

fn expectation(
    entry: &CachedCircuit,
    params: &[f64],
    obs: &Observable,
) -> Result<f64, ProtocolError> {
    Ok(obs.expectation(&run_state(entry, params)?)?)
}

fn simulate(
    r: &SimulateRequest,
    cache: &CircuitCache,
    limits: Limits,
) -> Result<ExecOutcome, ProtocolError> {
    let (entry, hit) = cached(&r.circuit, cache, limits)?;
    let n = entry.circuit.n_qubits();
    let obs = r.observable.build(n)?;
    let state = run_state(&entry, &r.params)?;
    let expectation = obs.expectation(&state)?;
    let mut pairs = vec![
        ("expectation".to_string(), Json::Num(expectation)),
        ("n_qubits".to_string(), Json::from(n)),
        ("n_params".to_string(), Json::from(entry.circuit.n_params())),
    ];
    if r.shots > 0 {
        if r.shots > 10_000_000 {
            return Err(ProtocolError::invalid("shots limit is 10000000"));
        }
        let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(r.seed);
        let counts = sample_counts(&state, r.shots as usize, &mut rng);
        // BTreeMap iteration is ascending by basis index, so the counts
        // object has a deterministic key order.
        let counts_json: Vec<(String, Json)> = counts
            .into_iter()
            .map(|(basis, count)| {
                let bits: String = (0..n).rev().map(|q| if basis >> q & 1 == 1 { '1' } else { '0' }).collect();
                (bits, Json::from(count))
            })
            .collect();
        pairs.push(("counts".to_string(), Json::Obj(counts_json)));
    }
    Ok(ExecOutcome::ok(Json::Obj(pairs), Some(hit)))
}

fn gradient(
    r: &GradientRequest,
    cache: &CircuitCache,
    limits: Limits,
) -> Result<ExecOutcome, ProtocolError> {
    let (entry, hit) = cached(&r.circuit, cache, limits)?;
    let n = entry.circuit.n_qubits();
    let obs = r.observable.build(n)?;
    let (expectation, grad) = match (r.engine, &entry.compiled) {
        // The warm adjoint path: differentiate the cached compilation
        // directly, skipping the per-call compile, and read the value off
        // the sweep's own forward state.
        (EngineSpec::Adjoint, Some(compiled)) => {
            plateau_grad::adjoint_value_and_gradient_compiled(compiled, &r.params, &obs)?
        }
        (EngineSpec::Adjoint, None) => {
            let grad = plateau_grad::Adjoint.gradient(&entry.circuit, &r.params, &obs)?;
            (expectation(&entry, &r.params, &obs)?, grad)
        }
        (EngineSpec::ParameterShift, _) => {
            let grad = plateau_grad::ParameterShift.gradient(&entry.circuit, &r.params, &obs)?;
            (expectation(&entry, &r.params, &obs)?, grad)
        }
    };
    let body = Json::obj([
        ("expectation", Json::Num(expectation)),
        ("gradient", Json::Arr(grad.into_iter().map(Json::Num).collect())),
    ]);
    Ok(ExecOutcome::ok(body, Some(hit)))
}

fn variance_scan(r: &VarianceRequest, limits: Limits) -> Result<ExecOutcome, ProtocolError> {
    use plateau_core::{AnsatzKind, CostKind, VarianceConfig};
    for &q in &r.qubits {
        check_width(q, limits)?;
    }
    let strategies: Vec<_> = r
        .strategies
        .iter()
        .map(|s| parse_strategy(s))
        .collect::<Result<_, _>>()?;
    let config = VarianceConfig {
        qubit_counts: r.qubits.clone(),
        layers: r.layers,
        n_circuits: r.circuits,
        cost: if r.cost == "local" {
            CostKind::Local
        } else {
            CostKind::Global
        },
        fan_mode: plateau_core::FanMode::TensorShape,
        ansatz: if r.ansatz == "training" {
            AnsatzKind::Training
        } else {
            AnsatzKind::RandomRotations
        },
        engine: plateau_core::GradEngineKind::Adjoint,
        seed: r.seed,
    };
    let scan = plateau_core::variance_scan(&config, &strategies)
        .map_err(|e| ProtocolError::invalid(e.to_string()))?;
    let curves: Vec<Json> = scan
        .curves
        .iter()
        .map(|curve| {
            Json::obj([
                ("strategy", Json::str(curve.strategy.name())),
                (
                    "points",
                    Json::Arr(
                        curve
                            .points
                            .iter()
                            .map(|p| {
                                Json::obj([
                                    ("qubits", Json::from(p.n_qubits)),
                                    ("variance", Json::Num(p.variance)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Ok(ExecOutcome::ok(
        Json::obj([("strategies", Json::Arr(curves))]),
        None,
    ))
}

fn train(r: &TrainRequest, limits: Limits) -> Result<ExecOutcome, ProtocolError> {
    use plateau_core::{Adam, AdaGrad, CostKind, GradientDescent, Momentum, Optimizer, RmsProp};
    check_width(r.qubits, limits)?;
    let strategy = parse_strategy(&r.strategy)?;
    let fan = parse_fan(&r.fan)?;
    let ansatz = plateau_core::training_ansatz(r.qubits, r.layers)
        .map_err(|e| ProtocolError::invalid(e.to_string()))?;
    let obs: Observable = CostKind::Global.observable(r.qubits);
    let mut rng = plateau_rng::rngs::StdRng::seed_from_u64(r.seed);
    let theta0 = strategy
        .sample_params(&ansatz.shape, fan, &mut rng)
        .map_err(|e| ProtocolError::invalid(e.to_string()))?;
    let mut optimizer: Box<dyn Optimizer> = match r.optimizer.as_str() {
        "gd" => Box::new(GradientDescent::new(r.lr).map_err(|e| ProtocolError::invalid(e.to_string()))?),
        "momentum" => Box::new(Momentum::new(r.lr, 0.9).map_err(|e| ProtocolError::invalid(e.to_string()))?),
        "rmsprop" => Box::new(RmsProp::new(r.lr).map_err(|e| ProtocolError::invalid(e.to_string()))?),
        "adagrad" => Box::new(AdaGrad::new(r.lr).map_err(|e| ProtocolError::invalid(e.to_string()))?),
        _ => Box::new(Adam::new(r.lr).map_err(|e| ProtocolError::invalid(e.to_string()))?),
    };
    let hist = plateau_core::train(
        &ansatz.circuit,
        &obs,
        theta0,
        optimizer.as_mut(),
        r.iterations,
    )
    .map_err(|e| ProtocolError::invalid(e.to_string()))?;
    let body = Json::obj([
        ("initial_loss", Json::Num(hist.initial_loss())),
        ("final_loss", Json::Num(hist.final_loss())),
        (
            "losses",
            Json::Arr(hist.losses().iter().map(|&l| Json::Num(l)).collect()),
        ),
        (
            "grad_norms",
            Json::Arr(hist.grad_norms().iter().map(|&g| Json::Num(g)).collect()),
        ),
    ]);
    Ok(ExecOutcome::ok(body, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CircuitSpec, ObservableSpec};
    use plateau_sim::Circuit;

    fn cache() -> CircuitCache {
        CircuitCache::new(8, true)
    }

    fn ring_spec(n: usize) -> CircuitSpec {
        let mut c = Circuit::new(n).unwrap();
        for q in 0..n {
            c.ry(q).unwrap();
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1).unwrap();
        }
        CircuitSpec::from_circuit(&c)
    }

    #[test]
    fn simulate_is_body_identical_cold_and_warm() {
        let cache = cache();
        let req = Request::Simulate(SimulateRequest {
            circuit: ring_spec(3),
            params: vec![0.4, -1.1, 0.9],
            observable: ObservableSpec::Global,
            seed: 5,
            shots: 200,
        });
        let cold = execute(&req, &cache, Limits::default());
        let warm = execute(&req, &cache, Limits::default());
        assert_eq!(cold.status, 200);
        assert_eq!(cold.cache, Some(false));
        assert_eq!(warm.cache, Some(true));
        assert_eq!(cold.body.to_string(), warm.body.to_string());
    }

    #[test]
    fn gradient_warm_adjoint_matches_engine_gradient() {
        let cache = cache();
        let spec = ring_spec(3);
        let params = vec![0.2, 0.7, -0.3];
        let req = Request::Gradient(GradientRequest {
            circuit: spec.clone(),
            params: params.clone(),
            observable: ObservableSpec::Local,
            engine: EngineSpec::Adjoint,
            seed: 0,
        });
        let cold = execute(&req, &cache, Limits::default());
        let warm = execute(&req, &cache, Limits::default());
        assert_eq!(cold.status, 200);
        assert_eq!(cold.body.to_string(), warm.body.to_string());
        // Cross-check against the raw engine.
        let circuit = spec.build().unwrap();
        let obs = ObservableSpec::Local.build(3).unwrap();
        let expect = plateau_grad::Adjoint.gradient(&circuit, &params, &obs).unwrap();
        let got = warm.body.as_obj().unwrap()[1].1.as_arr().unwrap();
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g.as_f64().unwrap() - e).abs() < 1e-10);
        }
    }

    #[test]
    fn adjoint_gradient_body_is_byte_identical_to_the_two_run_computation() {
        use plateau_core::{training_ansatz, variance_ansatz};
        use plateau_rng::{rngs::StdRng, Rng};
        let mut rng = StdRng::seed_from_u64(18);
        for n in [2usize, 4, 6, 10] {
            let ansatze = [
                training_ansatz(n, 5).unwrap(),
                variance_ansatz(n, 10, &mut rng).unwrap(),
            ];
            for ansatz in ansatze {
                let circuit = ansatz.circuit;
                let params: Vec<f64> = (0..circuit.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                for observable in [ObservableSpec::Global, ObservableSpec::Local] {
                    let obs = observable.build(n).unwrap();
                    // The old handler: the gradient, then a second run
                    // of the circuit for the value.
                    let compiled = plateau_sim::compile(&circuit);
                    let grad =
                        plateau_grad::adjoint_gradient_compiled(&compiled, &params, &obs).unwrap();
                    let value = obs.expectation(&compiled.run(&params).unwrap()).unwrap();
                    let want = Json::obj([
                        ("expectation", Json::Num(value)),
                        ("gradient", Json::Arr(grad.into_iter().map(Json::Num).collect())),
                    ]);
                    let req = Request::Gradient(GradientRequest {
                        circuit: CircuitSpec::from_circuit(&circuit),
                        params: params.clone(),
                        observable,
                        engine: EngineSpec::Adjoint,
                        seed: 0,
                    });
                    let got = execute(&req, &cache(), Limits::default());
                    assert_eq!(got.status, 200);
                    assert_eq!(got.body.to_string(), want.to_string(), "{n} qubits");
                }
            }
        }
    }

    #[test]
    fn parameter_shift_and_adjoint_agree_on_the_wire() {
        let cache = cache();
        let base = GradientRequest {
            circuit: ring_spec(2),
            params: vec![0.3, 1.2],
            observable: ObservableSpec::Global,
            engine: EngineSpec::Adjoint,
            seed: 0,
        };
        let adj = execute(&Request::Gradient(base.clone()), &cache, Limits::default());
        let mut shifted = base;
        shifted.engine = EngineSpec::ParameterShift;
        let ps = execute(&Request::Gradient(shifted), &cache, Limits::default());
        let ga = adj.body.as_obj().unwrap()[1].1.as_arr().unwrap();
        let gs = ps.body.as_obj().unwrap()[1].1.as_arr().unwrap();
        for (a, s) in ga.iter().zip(gs.iter()) {
            assert!((a.as_f64().unwrap() - s.as_f64().unwrap()).abs() < 1e-8);
        }
    }

    #[test]
    fn width_limit_is_enforced() {
        let cache = cache();
        let req = Request::Simulate(SimulateRequest {
            circuit: ring_spec(5),
            params: vec![0.0; 5],
            observable: ObservableSpec::Global,
            seed: 0,
            shots: 0,
        });
        let out = execute(&req, &cache, Limits { max_qubits: 4 });
        assert_eq!(out.status, 400);
        assert!(out.body.to_string().contains("limit"));
    }

    #[test]
    fn wrong_param_count_is_a_structured_400() {
        let cache = cache();
        let req = Request::Simulate(SimulateRequest {
            circuit: ring_spec(3),
            params: vec![0.1],
            observable: ObservableSpec::Global,
            seed: 0,
            shots: 0,
        });
        let out = execute(&req, &cache, Limits::default());
        assert_eq!(out.status, 400);
        let s = out.body.to_string();
        assert!(s.contains("\"error\""), "{s}");
        assert!(s.contains("invalid_request"), "{s}");
    }

    #[test]
    fn variance_scan_returns_one_curve_per_strategy() {
        let req = Request::VarianceScan(VarianceRequest {
            qubits: vec![2, 3],
            layers: 4,
            circuits: 8,
            strategies: vec!["random".into(), "zero".into()],
            cost: "global".into(),
            ansatz: "random".into(),
            seed: 11,
        });
        let out = execute(&req, &cache(), Limits::default());
        assert_eq!(out.status, 200, "{}", out.body);
        let strategies = out.body.as_obj().unwrap()[0].1.as_arr().unwrap();
        assert_eq!(strategies.len(), 2);
        let points = strategies[0].as_obj().unwrap()[1].1.as_arr().unwrap();
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn train_returns_a_monotone_length_history() {
        let req = Request::Train(TrainRequest {
            qubits: 2,
            layers: 1,
            iterations: 4,
            strategy: "xavier_normal".into(),
            optimizer: "adam".into(),
            lr: 0.1,
            fan: "tensor".into(),
            seed: 3,
        });
        let out = execute(&req, &cache(), Limits::default());
        assert_eq!(out.status, 200, "{}", out.body);
        let obj = out.body.as_obj().unwrap();
        let losses = obj[2].1.as_arr().unwrap();
        let norms = obj[3].1.as_arr().unwrap();
        assert_eq!(losses.len(), 5);
        assert_eq!(norms.len(), 4);
    }
}
