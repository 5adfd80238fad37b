//! The service's wire protocol: typed requests, their JSON codec, and
//! structured errors.
//!
//! Every compute endpoint takes a JSON body and returns a JSON body. The
//! codec is **canonical and closed under round-trip**: for any valid
//! request `r`, `parse(path, serialize(r))` yields a request equal to
//! `r`, and `serialize(parse(path, s))` is byte-identical to `s` once
//! `s` itself is in canonical form (fields in the documented order,
//! compact separators). The fuzz harness pins both fixed points and
//! additionally requires that arbitrary byte mutations of a valid body
//! produce a structured [`ProtocolError`] — never a panic.
//!
//! # Circuit input
//!
//! Circuits arrive either as OpenQASM 2.0 text (`{"qasm": "..."}`, the
//! same dialect `plateau-sim`'s importer speaks) or as an explicit op
//! list:
//!
//! ```json
//! {"qubits": 2, "ops": [
//!   {"gate": "h",  "qubits": [0]},
//!   {"gate": "ry", "qubits": [1]},
//!   {"gate": "rz", "qubits": [1], "angle": 0.25},
//!   {"gate": "cz", "qubits": [0, 1]}
//! ]}
//! ```
//!
//! A rotation **without** an `"angle"` is a free (trainable) parameter;
//! free parameters are numbered in op order, exactly like
//! [`plateau_sim::Circuit`]'s builder allocates them, and are fed from
//! the request's `"params"` array. A rotation **with** an `"angle"` is a
//! baked-in constant.
//!
//! The spec deliberately stays *unbuilt* after parsing — the raw QASM
//! text or op-list JSON is what the circuit cache hashes, so a cache hit
//! skips parsing and circuit construction entirely (see `cache.rs`).

use plateau_obs::json::Json;
use plateau_sim::{
    Circuit, FixedGate, Observable, Op, Param, PauliString, RotationGate, SimError,
    TwoQubitRotationGate,
};

/// Protocol-level cap on request parameter vectors.
pub const MAX_PARAMS: usize = 4096;
/// Protocol-level cap on op-list length.
pub const MAX_OPS: usize = 65_536;
/// Largest integer the codec accepts where an exact `u64`/`usize` is
/// required (JSON numbers are `f64`; above 2^53 they lose integrality).
pub const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A structured request failure, serialized as
/// `{"error": {"code": ..., "message": ...}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable error class.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// A malformed-body error (`bad_json`).
    pub fn bad_json(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code: "bad_json",
            message: message.into(),
        }
    }

    /// A structurally valid but semantically invalid request
    /// (`invalid_request`).
    pub fn invalid(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code: "invalid_request",
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<SimError> for ProtocolError {
    fn from(e: SimError) -> ProtocolError {
        ProtocolError::invalid(e.to_string())
    }
}

/// A circuit as it appears on the wire: QASM text or an op list, kept
/// raw so the cache can hash it without building anything.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// OpenQASM 2.0 source text.
    Qasm(String),
    /// Explicit op list (validated at parse time, built on demand).
    Ops {
        /// Register width.
        n_qubits: usize,
        /// The validated `Json::Arr` of op objects, kept verbatim for
        /// hashing and canonical re-serialization.
        ops: Json,
    },
}

impl CircuitSpec {
    /// The string the circuit cache keys on. Distinct specs map
    /// to distinct tokens (the leading tag keeps QASM text from
    /// colliding with op-list JSON).
    pub fn cache_token(&self) -> String {
        match self {
            CircuitSpec::Qasm(text) => format!("q:{text}"),
            CircuitSpec::Ops { n_qubits, ops } => format!("o:{n_qubits}:{ops}"),
        }
    }

    /// The canonical JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            CircuitSpec::Qasm(text) => Json::obj([("qasm", Json::str(text.clone()))]),
            CircuitSpec::Ops { n_qubits, ops } => Json::obj([
                ("qubits", Json::from(*n_qubits)),
                ("ops", ops.clone()),
            ]),
        }
    }

    /// Parses and validates a circuit spec object.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on unknown fields, bad shapes, unknown
    /// gate names, or non-finite angles.
    pub fn from_json(v: &Json) -> Result<CircuitSpec, ProtocolError> {
        let pairs = v
            .as_obj()
            .ok_or_else(|| ProtocolError::invalid("\"circuit\" must be an object"))?;
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        if keys == ["qasm"] {
            let text = pairs[0]
                .1
                .as_str()
                .ok_or_else(|| ProtocolError::invalid("\"qasm\" must be a string"))?;
            return Ok(CircuitSpec::Qasm(text.to_string()));
        }
        if keys == ["qubits", "ops"] {
            let n_qubits = json_usize(&pairs[0].1, "circuit.qubits", plateau_sim::MAX_QUBITS)?;
            if n_qubits == 0 {
                return Err(ProtocolError::invalid("circuit.qubits must be at least 1"));
            }
            let ops = &pairs[1].1;
            let items = ops
                .as_arr()
                .ok_or_else(|| ProtocolError::invalid("circuit.ops must be an array"))?;
            if items.len() > MAX_OPS {
                return Err(ProtocolError::invalid(format!(
                    "circuit.ops has {} entries (limit {MAX_OPS})",
                    items.len()
                )));
            }
            for (i, op) in items.iter().enumerate() {
                validate_op(op, n_qubits)
                    .map_err(|e| ProtocolError::invalid(format!("circuit.ops[{i}]: {}", e.message)))?;
            }
            return Ok(CircuitSpec::Ops {
                n_qubits,
                ops: ops.clone(),
            });
        }
        Err(ProtocolError::invalid(
            "\"circuit\" must be {\"qasm\": ...} or {\"qubits\": ..., \"ops\": [...]}",
        ))
    }

    /// Builds the simulator circuit this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the QASM fails to parse or an op is
    /// invalid for the register.
    pub fn build(&self) -> Result<Circuit, ProtocolError> {
        match self {
            CircuitSpec::Qasm(text) => plateau_sim::qasm::from_qasm(text)
                .map_err(|e| ProtocolError::invalid(format!("qasm: {e}"))),
            CircuitSpec::Ops { n_qubits, ops } => {
                let mut circuit = Circuit::new(*n_qubits)?;
                for op in ops.as_arr().unwrap_or(&[]) {
                    push_op(&mut circuit, op)?;
                }
                Ok(circuit)
            }
        }
    }

    /// Renders an existing circuit as an op-list spec — the inverse of
    /// [`CircuitSpec::build`] for circuits whose free parameters were
    /// allocated in op order (every circuit the builder API can produce).
    pub fn from_circuit(circuit: &Circuit) -> CircuitSpec {
        let ops: Vec<Json> = circuit.ops().iter().map(op_to_json).collect();
        CircuitSpec::Ops {
            n_qubits: circuit.n_qubits(),
            ops: Json::Arr(ops),
        }
    }
}

fn rotation_name(gate: RotationGate) -> &'static str {
    match gate {
        RotationGate::Rx => "rx",
        RotationGate::Ry => "ry",
        RotationGate::Rz => "rz",
        RotationGate::Phase => "phase",
    }
}

fn parse_rotation(name: &str) -> Option<RotationGate> {
    Some(match name {
        "rx" => RotationGate::Rx,
        "ry" => RotationGate::Ry,
        "rz" => RotationGate::Rz,
        "phase" => RotationGate::Phase,
        _ => return None,
    })
}

fn controlled_name(gate: RotationGate) -> &'static str {
    match gate {
        RotationGate::Rx => "crx",
        RotationGate::Ry => "cry",
        RotationGate::Rz => "crz",
        RotationGate::Phase => "cphase",
    }
}

fn parse_controlled(name: &str) -> Option<RotationGate> {
    Some(match name {
        "crx" => RotationGate::Rx,
        "cry" => RotationGate::Ry,
        "crz" => RotationGate::Rz,
        "cphase" => RotationGate::Phase,
        _ => return None,
    })
}

fn two_qubit_name(gate: TwoQubitRotationGate) -> &'static str {
    match gate {
        TwoQubitRotationGate::Rxx => "rxx",
        TwoQubitRotationGate::Ryy => "ryy",
        TwoQubitRotationGate::Rzz => "rzz",
    }
}

fn parse_two_qubit(name: &str) -> Option<TwoQubitRotationGate> {
    Some(match name {
        "rxx" => TwoQubitRotationGate::Rxx,
        "ryy" => TwoQubitRotationGate::Ryy,
        "rzz" => TwoQubitRotationGate::Rzz,
        _ => return None,
    })
}

fn op_to_json(op: &Op) -> Json {
    let (name, qubits, param): (&str, Vec<usize>, Option<&Param>) = match op {
        Op::Fixed { gate, qubits } => (gate.name(), qubits.clone(), None),
        Op::Rotation { gate, qubit, param } => (rotation_name(*gate), vec![*qubit], Some(param)),
        Op::ControlledRotation {
            gate,
            control,
            target,
            param,
        } => (controlled_name(*gate), vec![*control, *target], Some(param)),
        Op::TwoQubitRotation {
            gate,
            first,
            second,
            param,
        } => (two_qubit_name(*gate), vec![*first, *second], Some(param)),
    };
    let mut pairs = vec![
        ("gate".to_string(), Json::str(name)),
        (
            "qubits".to_string(),
            Json::Arr(qubits.into_iter().map(Json::from).collect()),
        ),
    ];
    if let Some(Param::Bound(angle)) = param {
        pairs.push(("angle".to_string(), Json::Num(*angle)));
    }
    Json::Obj(pairs)
}

/// Shape-checks one op object: known gate, correctly-arity'd in-range
/// qubit list, finite angle when present, `angle` only on rotations.
fn validate_op(v: &Json, n_qubits: usize) -> Result<(), ProtocolError> {
    let pairs = v
        .as_obj()
        .ok_or_else(|| ProtocolError::invalid("op must be an object"))?;
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["gate", "qubits"] && keys != ["gate", "qubits", "angle"] {
        return Err(ProtocolError::invalid(
            "op must be {\"gate\", \"qubits\"[, \"angle\"]} in that order",
        ));
    }
    let name = pairs[0]
        .1
        .as_str()
        .ok_or_else(|| ProtocolError::invalid("gate must be a string"))?;
    let qubits = pairs[1]
        .1
        .as_arr()
        .ok_or_else(|| ProtocolError::invalid("qubits must be an array"))?;
    let mut qs = Vec::with_capacity(qubits.len());
    for q in qubits {
        qs.push(json_usize(q, "qubit index", n_qubits.saturating_sub(1))?);
    }
    let has_angle = keys.len() == 3;
    if has_angle {
        let angle = pairs[2]
            .1
            .as_f64()
            .ok_or_else(|| ProtocolError::invalid("angle must be a number"))?;
        if !angle.is_finite() {
            return Err(ProtocolError::invalid("angle must be finite"));
        }
    }
    let arity_of = |expected: usize| -> Result<(), ProtocolError> {
        if qs.len() != expected {
            return Err(ProtocolError::invalid(format!(
                "gate {name:?} takes {expected} qubit(s), got {}",
                qs.len()
            )));
        }
        if expected == 2 && qs[0] == qs[1] {
            return Err(ProtocolError::invalid(format!(
                "gate {name:?} operands must be distinct"
            )));
        }
        Ok(())
    };
    if let Some(gate) = FixedGate::from_name(name) {
        if has_angle {
            return Err(ProtocolError::invalid(format!(
                "gate {name:?} takes no angle"
            )));
        }
        return arity_of(gate.arity());
    }
    if parse_rotation(name).is_some() {
        return arity_of(1);
    }
    if parse_controlled(name).is_some() || parse_two_qubit(name).is_some() {
        return arity_of(2);
    }
    Err(ProtocolError::invalid(format!("unknown gate {name:?}")))
}

/// Appends one validated op object to the circuit under construction.
fn push_op(circuit: &mut Circuit, v: &Json) -> Result<(), ProtocolError> {
    let pairs = v.as_obj().ok_or_else(|| ProtocolError::invalid("op must be an object"))?;
    let name = pairs
        .first()
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| ProtocolError::invalid("gate must be a string"))?;
    let qubits: Vec<usize> = pairs
        .get(1)
        .and_then(|(_, v)| v.as_arr())
        .map(|items| items.iter().filter_map(|q| q.as_f64()).map(|q| q as usize).collect())
        .unwrap_or_default();
    let angle = pairs.get(2).and_then(|(_, v)| v.as_f64());
    if let Some(gate) = FixedGate::from_name(name) {
        circuit.push_fixed(gate, &qubits)?;
    } else if let Some(gate) = parse_rotation(name) {
        match angle {
            Some(a) => circuit.push_rotation_const(gate, qubits[0], a)?,
            None => circuit.push_rotation(gate, qubits[0])?,
        };
    } else if let Some(gate) = parse_controlled(name) {
        circuit.push_controlled_rotation(gate, qubits[0], qubits[1])?;
        if let Some(a) = angle {
            circuit.bind_last_param(a)?;
        }
    } else if let Some(gate) = parse_two_qubit(name) {
        circuit.push_two_qubit_rotation(gate, qubits[0], qubits[1])?;
        if let Some(a) = angle {
            circuit.bind_last_param(a)?;
        }
    } else {
        return Err(ProtocolError::invalid(format!("unknown gate {name:?}")));
    }
    Ok(())
}

/// The cost operator a simulate/gradient request differentiates.
#[derive(Debug, Clone, PartialEq)]
pub enum ObservableSpec {
    /// `|0…0⟩⟨0…0|` — the paper's global cost.
    Global,
    /// The qubit-averaged local cost.
    Local,
    /// A single Pauli string, e.g. `"ZZI"` (length = register width).
    Pauli(String),
    /// A weighted Pauli sum: `[[coefficient, string], ...]`.
    PauliSum(Vec<(f64, String)>),
}

impl ObservableSpec {
    /// The canonical JSON form.
    pub fn to_json(&self) -> Json {
        match self {
            ObservableSpec::Global => Json::str("global"),
            ObservableSpec::Local => Json::str("local"),
            ObservableSpec::Pauli(s) => Json::obj([("pauli", Json::str(s.clone()))]),
            ObservableSpec::PauliSum(terms) => Json::obj([(
                "pauli_sum",
                Json::Arr(
                    terms
                        .iter()
                        .map(|(c, s)| Json::Arr(vec![Json::Num(*c), Json::str(s.clone())]))
                        .collect(),
                ),
            )]),
        }
    }

    /// Parses an observable spec.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for unknown names or malformed terms.
    pub fn from_json(v: &Json) -> Result<ObservableSpec, ProtocolError> {
        match v {
            Json::Str(s) if s == "global" => Ok(ObservableSpec::Global),
            Json::Str(s) if s == "local" => Ok(ObservableSpec::Local),
            Json::Str(s) => Err(ProtocolError::invalid(format!(
                "unknown observable {s:?} (global|local|{{\"pauli\"}}|{{\"pauli_sum\"}})"
            ))),
            Json::Obj(pairs) if pairs.len() == 1 && pairs[0].0 == "pauli" => {
                let s = pairs[0]
                    .1
                    .as_str()
                    .ok_or_else(|| ProtocolError::invalid("pauli must be a string"))?;
                Ok(ObservableSpec::Pauli(s.to_string()))
            }
            Json::Obj(pairs) if pairs.len() == 1 && pairs[0].0 == "pauli_sum" => {
                let items = pairs[0]
                    .1
                    .as_arr()
                    .ok_or_else(|| ProtocolError::invalid("pauli_sum must be an array"))?;
                if items.is_empty() || items.len() > 256 {
                    return Err(ProtocolError::invalid(
                        "pauli_sum needs 1..=256 [coefficient, string] terms",
                    ));
                }
                let mut terms = Vec::with_capacity(items.len());
                for item in items {
                    let pair = item
                        .as_arr()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| {
                            ProtocolError::invalid("each pauli_sum term is [coefficient, string]")
                        })?;
                    let c = pair[0]
                        .as_f64()
                        .filter(|c| c.is_finite())
                        .ok_or_else(|| ProtocolError::invalid("coefficient must be finite"))?;
                    let s = pair[1]
                        .as_str()
                        .ok_or_else(|| ProtocolError::invalid("pauli string must be a string"))?;
                    terms.push((c, s.to_string()));
                }
                Ok(ObservableSpec::PauliSum(terms))
            }
            _ => Err(ProtocolError::invalid(
                "observable must be \"global\", \"local\", {\"pauli\"} or {\"pauli_sum\"}",
            )),
        }
    }

    /// Builds the observable for an `n_qubits`-wide register.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when a Pauli string's width disagrees
    /// with the circuit.
    pub fn build(&self, n_qubits: usize) -> Result<Observable, ProtocolError> {
        let check_width = |s: &PauliString| -> Result<(), ProtocolError> {
            if s.n_qubits() != n_qubits {
                return Err(ProtocolError::invalid(format!(
                    "pauli string is {} qubits wide but the circuit has {n_qubits}",
                    s.n_qubits()
                )));
            }
            Ok(())
        };
        match self {
            ObservableSpec::Global => Ok(Observable::global_cost(n_qubits)),
            ObservableSpec::Local => Ok(Observable::local_cost(n_qubits)),
            ObservableSpec::Pauli(s) => {
                let p = PauliString::parse(s)?;
                check_width(&p)?;
                Ok(Observable::pauli(p)?)
            }
            ObservableSpec::PauliSum(terms) => {
                let mut built = Vec::with_capacity(terms.len());
                for (c, s) in terms {
                    let p = PauliString::parse(s)?;
                    check_width(&p)?;
                    built.push((*c, p));
                }
                Ok(Observable::pauli_sum(built)?)
            }
        }
    }
}

/// Gradient engine selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSpec {
    /// Adjoint differentiation (the fast default).
    #[default]
    Adjoint,
    /// The parameter-shift rule.
    ParameterShift,
}

impl EngineSpec {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            EngineSpec::Adjoint => "adjoint",
            EngineSpec::ParameterShift => "parameter-shift",
        }
    }

    /// Inverse of [`EngineSpec::name`].
    pub fn parse(s: &str) -> Result<EngineSpec, ProtocolError> {
        match s {
            "adjoint" => Ok(EngineSpec::Adjoint),
            "parameter-shift" => Ok(EngineSpec::ParameterShift),
            other => Err(ProtocolError::invalid(format!(
                "unknown engine {other:?} (adjoint|parameter-shift)"
            ))),
        }
    }
}

/// `POST /simulate` — one expectation evaluation, optionally with
/// shot-sampled measurement counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// The circuit.
    pub circuit: CircuitSpec,
    /// Free-parameter values (length must match the built circuit).
    pub params: Vec<f64>,
    /// Cost operator.
    pub observable: ObservableSpec,
    /// Seed for shot sampling (ignored when `shots == 0`).
    pub seed: u64,
    /// Measurement shots; `0` means exact expectation only.
    pub shots: u64,
}

/// `POST /gradient` — the full gradient of the cost.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientRequest {
    /// The circuit.
    pub circuit: CircuitSpec,
    /// Free-parameter values.
    pub params: Vec<f64>,
    /// Cost operator.
    pub observable: ObservableSpec,
    /// Differentiation engine.
    pub engine: EngineSpec,
    /// Reserved for stochastic engines; echoed into nothing today but
    /// part of the canonical form so clients can always send it.
    pub seed: u64,
}

/// `POST /variance-scan` — a (small) Fig-5a-style variance scan.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRequest {
    /// Qubit counts to sweep.
    pub qubits: Vec<usize>,
    /// Layers per circuit.
    pub layers: usize,
    /// Ensemble size per cell.
    pub circuits: usize,
    /// Initialization strategies (wire names, e.g. `"xavier_uniform"`).
    pub strategies: Vec<String>,
    /// `"global"` or `"local"` cost.
    pub cost: String,
    /// `"random"` (Eq. 2) or `"training"` (Eq. 3) ansatz family.
    pub ansatz: String,
    /// Master seed.
    pub seed: u64,
}

/// `POST /train` — a training run on the paper's ansatz.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRequest {
    /// Register width.
    pub qubits: usize,
    /// Ansatz layers.
    pub layers: usize,
    /// Optimization steps.
    pub iterations: usize,
    /// Initialization strategy (wire name).
    pub strategy: String,
    /// Optimizer (`adam|gd|momentum|rmsprop|adagrad`).
    pub optimizer: String,
    /// Learning rate.
    pub lr: f64,
    /// Fan convention (`qubits|params|tensor`).
    pub fan: String,
    /// Parameter-draw seed.
    pub seed: u64,
}

/// A parsed request to any compute endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `POST /simulate`.
    Simulate(SimulateRequest),
    /// `POST /gradient`.
    Gradient(GradientRequest),
    /// `POST /variance-scan`.
    VarianceScan(VarianceRequest),
    /// `POST /train`.
    Train(TrainRequest),
}

impl Request {
    /// The endpoint path this request targets.
    pub fn path(&self) -> &'static str {
        match self {
            Request::Simulate(_) => "/simulate",
            Request::Gradient(_) => "/gradient",
            Request::VarianceScan(_) => "/variance-scan",
            Request::Train(_) => "/train",
        }
    }

    /// Short metric-label name of the endpoint.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Simulate(_) => "simulate",
            Request::Gradient(_) => "gradient",
            Request::VarianceScan(_) => "variance_scan",
            Request::Train(_) => "train",
        }
    }

    /// The canonical JSON body.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Simulate(r) => Json::obj([
                ("circuit", r.circuit.to_json()),
                ("params", Json::Arr(r.params.iter().map(|&p| Json::Num(p)).collect())),
                ("observable", r.observable.to_json()),
                ("seed", Json::Num(r.seed as f64)),
                ("shots", Json::Num(r.shots as f64)),
            ]),
            Request::Gradient(r) => Json::obj([
                ("circuit", r.circuit.to_json()),
                ("params", Json::Arr(r.params.iter().map(|&p| Json::Num(p)).collect())),
                ("observable", r.observable.to_json()),
                ("engine", Json::str(r.engine.name())),
                ("seed", Json::Num(r.seed as f64)),
            ]),
            Request::VarianceScan(r) => Json::obj([
                ("qubits", Json::Arr(r.qubits.iter().map(|&q| Json::from(q)).collect())),
                ("layers", Json::from(r.layers)),
                ("circuits", Json::from(r.circuits)),
                (
                    "strategies",
                    Json::Arr(r.strategies.iter().map(|s| Json::str(s.clone())).collect()),
                ),
                ("cost", Json::str(r.cost.clone())),
                ("ansatz", Json::str(r.ansatz.clone())),
                ("seed", Json::Num(r.seed as f64)),
            ]),
            Request::Train(r) => Json::obj([
                ("qubits", Json::from(r.qubits)),
                ("layers", Json::from(r.layers)),
                ("iterations", Json::from(r.iterations)),
                ("strategy", Json::str(r.strategy.clone())),
                ("optimizer", Json::str(r.optimizer.clone())),
                ("lr", Json::Num(r.lr)),
                ("fan", Json::str(r.fan.clone())),
                ("seed", Json::Num(r.seed as f64)),
            ]),
        }
    }

    /// Canonical (compact) body text.
    pub fn serialize(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a body for `path`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::bad_json`] when the body is not JSON,
    /// `invalid_request` for schema violations, and `not_found` when the
    /// path names no compute endpoint.
    pub fn parse(path: &str, body: &str) -> Result<Request, ProtocolError> {
        let v = Json::parse(body).map_err(|e| ProtocolError::bad_json(e.to_string()))?;
        Request::from_json(path, &v)
    }

    /// [`Request::parse`] over an already-parsed JSON tree.
    ///
    /// # Errors
    ///
    /// As for [`Request::parse`].
    pub fn from_json(path: &str, v: &Json) -> Result<Request, ProtocolError> {
        let fields = Fields::new(v)?;
        match path {
            "/simulate" => {
                let r = SimulateRequest {
                    circuit: CircuitSpec::from_json(fields.require("circuit")?)?,
                    params: fields.params()?,
                    observable: ObservableSpec::from_json(fields.require("observable")?)?,
                    seed: fields.u64_or("seed", 0)?,
                    shots: fields.u64_or("shots", 0)?,
                };
                fields.finish(&["circuit", "params", "observable", "seed", "shots"])?;
                Ok(Request::Simulate(r))
            }
            "/gradient" => {
                let engine = match fields.get("engine") {
                    None => EngineSpec::default(),
                    Some(v) => EngineSpec::parse(
                        v.as_str()
                            .ok_or_else(|| ProtocolError::invalid("engine must be a string"))?,
                    )?,
                };
                let r = GradientRequest {
                    circuit: CircuitSpec::from_json(fields.require("circuit")?)?,
                    params: fields.params()?,
                    observable: ObservableSpec::from_json(fields.require("observable")?)?,
                    engine,
                    seed: fields.u64_or("seed", 0)?,
                };
                fields.finish(&["circuit", "params", "observable", "engine", "seed"])?;
                Ok(Request::Gradient(r))
            }
            "/variance-scan" => {
                let qubits_json = fields.require("qubits")?;
                let items = qubits_json
                    .as_arr()
                    .ok_or_else(|| ProtocolError::invalid("qubits must be an array"))?;
                if items.is_empty() || items.len() > 16 {
                    return Err(ProtocolError::invalid("qubits needs 1..=16 entries"));
                }
                let mut qubits = Vec::with_capacity(items.len());
                for q in items {
                    let q = json_usize(q, "qubit count", plateau_sim::MAX_QUBITS)?;
                    if q == 0 {
                        return Err(ProtocolError::invalid("qubit counts must be nonzero"));
                    }
                    qubits.push(q);
                }
                let strategies_json = fields.require("strategies")?;
                let raw = strategies_json
                    .as_arr()
                    .ok_or_else(|| ProtocolError::invalid("strategies must be an array"))?;
                if raw.is_empty() || raw.len() > 16 {
                    return Err(ProtocolError::invalid("strategies needs 1..=16 entries"));
                }
                let mut strategies = Vec::with_capacity(raw.len());
                for s in raw {
                    let s = s
                        .as_str()
                        .ok_or_else(|| ProtocolError::invalid("strategies must be strings"))?;
                    parse_strategy(s)?; // validate eagerly; keep the wire name
                    strategies.push(s.to_string());
                }
                let cost = fields.str_or("cost", "global")?;
                if cost != "global" && cost != "local" {
                    return Err(ProtocolError::invalid("cost must be \"global\" or \"local\""));
                }
                let ansatz = fields.str_or("ansatz", "random")?;
                if ansatz != "random" && ansatz != "training" {
                    return Err(ProtocolError::invalid(
                        "ansatz must be \"random\" or \"training\"",
                    ));
                }
                let r = VarianceRequest {
                    qubits,
                    layers: fields.usize_in("layers", 1, 10_000)?,
                    circuits: fields.usize_in("circuits", 2, 100_000)?,
                    strategies,
                    cost,
                    ansatz,
                    seed: fields.u64_or("seed", 0)?,
                };
                fields.finish(&[
                    "qubits", "layers", "circuits", "strategies", "cost", "ansatz", "seed",
                ])?;
                Ok(Request::VarianceScan(r))
            }
            "/train" => {
                let strategy = fields.str_or("strategy", "xavier_normal")?;
                parse_strategy(&strategy)?;
                let optimizer = fields.str_or("optimizer", "adam")?;
                if !["adam", "gd", "momentum", "rmsprop", "adagrad"]
                    .contains(&optimizer.as_str())
                {
                    return Err(ProtocolError::invalid(format!(
                        "unknown optimizer {optimizer:?} (adam|gd|momentum|rmsprop|adagrad)"
                    )));
                }
                let fan = fields.str_or("fan", "tensor")?;
                parse_fan(&fan)?;
                let lr = match fields.get("lr") {
                    None => 0.1,
                    Some(v) => v
                        .as_f64()
                        .filter(|l| l.is_finite() && *l > 0.0)
                        .ok_or_else(|| ProtocolError::invalid("lr must be a positive number"))?,
                };
                let r = TrainRequest {
                    qubits: fields.usize_in("qubits", 1, plateau_sim::MAX_QUBITS)?,
                    layers: fields.usize_in("layers", 1, 10_000)?,
                    iterations: fields.usize_in("iterations", 1, 100_000)?,
                    strategy,
                    optimizer,
                    lr,
                    fan,
                    seed: fields.u64_or("seed", 7)?,
                };
                fields.finish(&[
                    "qubits", "layers", "iterations", "strategy", "optimizer", "lr", "fan", "seed",
                ])?;
                Ok(Request::Train(r))
            }
            other => Err(ProtocolError {
                code: "not_found",
                message: format!("no such endpoint {other:?}"),
            }),
        }
    }
}

/// Maps a wire strategy name to an [`plateau_core::init::InitStrategy`].
///
/// # Errors
///
/// Returns [`ProtocolError`] for names outside the paper set + the
/// `beta`/`zero` baselines.
pub fn parse_strategy(name: &str) -> Result<plateau_core::init::InitStrategy, ProtocolError> {
    use plateau_core::init::InitStrategy;
    match name {
        "zero" => return Ok(InitStrategy::Zero),
        // The Beta(2, 2) baseline the ablations use.
        "beta" => {
            return Ok(InitStrategy::BetaInit {
                alpha: 2.0,
                beta: 2.0,
            })
        }
        _ => {}
    }
    InitStrategy::PAPER_SET
        .iter()
        .copied()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = InitStrategy::PAPER_SET.iter().map(|s| s.name()).collect();
            ProtocolError::invalid(format!(
                "unknown strategy {name:?} (one of {}|beta|zero)",
                names.join("|")
            ))
        })
}

/// Maps a wire fan name to a [`plateau_core::init::FanMode`].
///
/// # Errors
///
/// Returns [`ProtocolError`] for unknown names.
pub fn parse_fan(name: &str) -> Result<plateau_core::init::FanMode, ProtocolError> {
    use plateau_core::init::FanMode;
    match name {
        "qubits" => Ok(FanMode::Qubits),
        "params" => Ok(FanMode::ParamsPerLayer),
        "tensor" => Ok(FanMode::TensorShape),
        other => Err(ProtocolError::invalid(format!(
            "unknown fan mode {other:?} (qubits|params|tensor)"
        ))),
    }
}

/// Field accessor over a request object that tracks which keys are legal
/// so typos fail loudly instead of being silently ignored.
struct Fields<'a> {
    pairs: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json) -> Result<Fields<'a>, ProtocolError> {
        v.as_obj()
            .map(|pairs| Fields { pairs })
            .ok_or_else(|| ProtocolError::invalid("request body must be a JSON object"))
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn require(&self, key: &str) -> Result<&'a Json, ProtocolError> {
        self.get(key)
            .ok_or_else(|| ProtocolError::invalid(format!("missing required field {key:?}")))
    }

    fn params(&self) -> Result<Vec<f64>, ProtocolError> {
        let items = match self.get("params") {
            None => return Ok(Vec::new()),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ProtocolError::invalid("params must be an array of numbers"))?,
        };
        if items.len() > MAX_PARAMS {
            return Err(ProtocolError::invalid(format!(
                "params has {} entries (limit {MAX_PARAMS})",
                items.len()
            )));
        }
        items
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|p| p.is_finite())
                    .ok_or_else(|| ProtocolError::invalid("params must be finite numbers"))
            })
            .collect()
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, ProtocolError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let x = v
                    .as_f64()
                    .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT)
                    .ok_or_else(|| {
                        ProtocolError::invalid(format!("{key} must be an integer in [0, 2^53]"))
                    })?;
                Ok(x as u64)
            }
        }
    }

    fn usize_in(&self, key: &str, min: usize, max: usize) -> Result<usize, ProtocolError> {
        let v = self.require(key)?;
        let x = json_usize(v, key, max)?;
        if x < min {
            return Err(ProtocolError::invalid(format!("{key} must be at least {min}")));
        }
        Ok(x)
    }

    fn str_or(&self, key: &str, default: &str) -> Result<String, ProtocolError> {
        match self.get(key) {
            None => Ok(default.to_string()),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtocolError::invalid(format!("{key} must be a string"))),
        }
    }

    /// Rejects any field outside `allowed`.
    fn finish(&self, allowed: &[&str]) -> Result<(), ProtocolError> {
        for (k, _) in self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(ProtocolError::invalid(format!("unknown field {k:?}")));
            }
        }
        Ok(())
    }
}

/// A JSON number as an exact `usize` in `[0, max]`.
fn json_usize(v: &Json, what: &str, max: usize) -> Result<usize, ProtocolError> {
    let x = v
        .as_f64()
        .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0 && *x <= max as f64)
        .ok_or_else(|| {
            ProtocolError::invalid(format!("{what} must be an integer in [0, {max}]"))
        })?;
    Ok(x as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_circuit() -> Circuit {
        let mut c = Circuit::new(3).unwrap();
        c.h(0)
            .unwrap()
            .ry(1)
            .unwrap()
            .push_rotation_const(RotationGate::Rz, 2, 0.25)
            .unwrap()
            .cz(0, 1)
            .unwrap()
            .rxx(1, 2)
            .unwrap()
            .push_controlled_rotation(RotationGate::Rx, 0, 2)
            .unwrap();
        c
    }

    #[test]
    fn circuit_spec_round_trips_through_json_and_build() {
        let circuit = demo_circuit();
        let spec = CircuitSpec::from_circuit(&circuit);
        let parsed = CircuitSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        let rebuilt = parsed.build().unwrap();
        assert_eq!(rebuilt, circuit, "ops round-trip must preserve the op list exactly");
    }

    #[test]
    fn request_codec_is_a_fixed_point() {
        let circuit = demo_circuit();
        let req = Request::Gradient(GradientRequest {
            circuit: CircuitSpec::from_circuit(&circuit),
            params: vec![0.1, -0.2],
            observable: ObservableSpec::PauliSum(vec![(0.5, "ZII".into()), (-1.0, "IXZ".into())]),
            engine: EngineSpec::ParameterShift,
            seed: 42,
        });
        let s1 = req.serialize();
        let parsed = Request::parse("/gradient", &s1).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.serialize(), s1, "canonical form must be stable");
    }

    #[test]
    fn all_four_endpoints_parse_their_canonical_bodies() {
        let reqs = vec![
            Request::Simulate(SimulateRequest {
                circuit: CircuitSpec::Qasm("OPENQASM 2.0;".into()),
                params: vec![],
                observable: ObservableSpec::Global,
                seed: 7,
                shots: 100,
            }),
            Request::VarianceScan(VarianceRequest {
                qubits: vec![2, 4],
                layers: 10,
                circuits: 20,
                strategies: vec!["random".into(), "xavier_uniform".into()],
                cost: "global".into(),
                ansatz: "random".into(),
                seed: 3,
            }),
            Request::Train(TrainRequest {
                qubits: 3,
                layers: 2,
                iterations: 5,
                strategy: "random".into(),
                optimizer: "gd".into(),
                lr: 0.05,
                fan: "qubits".into(),
                seed: 1,
            }),
        ];
        for req in reqs {
            let s = req.serialize();
            let parsed = Request::parse(req.path(), &s).unwrap();
            assert_eq!(parsed, req);
            assert_eq!(parsed.serialize(), s);
        }
    }

    #[test]
    fn defaults_are_filled_in() {
        let r = Request::parse(
            "/simulate",
            r#"{"circuit":{"qubits":1,"ops":[{"gate":"rx","qubits":[0]}]},"params":[0.5],"observable":"local"}"#,
        )
        .unwrap();
        match r {
            Request::Simulate(s) => {
                assert_eq!(s.seed, 0);
                assert_eq!(s.shots, 0);
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse(
            "/train",
            r#"{"qubits":2,"layers":1,"iterations":3}"#,
        )
        .unwrap();
        match r {
            Request::Train(t) => {
                assert_eq!(t.strategy, "xavier_normal");
                assert_eq!(t.optimizer, "adam");
                assert_eq!(t.fan, "tensor");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schema_violations_error_with_stable_codes() {
        let cases = [
            ("/simulate", "not json at all"),
            ("/simulate", r#"{"params":[1]}"#),
            ("/simulate", r#"{"circuit":{"qubits":1,"ops":[]},"observable":"global","bogus":1}"#),
            ("/simulate", r#"{"circuit":{"qubits":1,"ops":[{"gate":"warp","qubits":[0]}]},"observable":"global"}"#),
            ("/simulate", r#"{"circuit":{"qubits":1,"ops":[{"gate":"cz","qubits":[0,0]}]},"observable":"global"}"#),
            ("/simulate", r#"{"circuit":{"qubits":2,"ops":[{"gate":"h","qubits":[5]}]},"observable":"global"}"#),
            ("/simulate", r#"{"circuit":{"qubits":1,"ops":[]},"observable":"global","seed":-3}"#),
            ("/gradient", r#"{"circuit":{"qubits":1,"ops":[]},"observable":"global","engine":"magic"}"#),
            ("/variance-scan", r#"{"qubits":[],"layers":1,"circuits":2,"strategies":["random"]}"#),
            ("/variance-scan", r#"{"qubits":[2],"layers":1,"circuits":2,"strategies":["sorcery"]}"#),
            ("/train", r#"{"qubits":2,"layers":1,"iterations":0}"#),
            ("/train", r#"{"qubits":2,"layers":1,"iterations":3,"lr":-1}"#),
        ];
        for (path, body) in cases {
            let err = Request::parse(path, body)
                .expect_err(&format!("{path} {body} should fail"));
            assert!(
                err.code == "bad_json" || err.code == "invalid_request",
                "{path} {body}: {err:?}"
            );
        }
        assert_eq!(Request::parse("/nope", "{}").unwrap_err().code, "not_found");
    }

    #[test]
    fn qasm_specs_build_through_the_importer() {
        let circuit = demo_circuit();
        let qasm = plateau_sim::qasm::to_qasm(&circuit, &vec![0.0; circuit.n_params()]).unwrap();
        let spec = CircuitSpec::Qasm(qasm);
        let built = spec.build().unwrap();
        assert_eq!(built.n_qubits(), 3);
        assert_eq!(built.gate_count(), circuit.gate_count());
    }

    #[test]
    fn cache_tokens_distinguish_forms_and_contents() {
        let a = CircuitSpec::Qasm("OPENQASM 2.0;".into());
        let b = CircuitSpec::Qasm("OPENQASM 2.0; ".into());
        assert_ne!(a.cache_token(), b.cache_token());
        let c = CircuitSpec::from_circuit(&demo_circuit());
        assert_ne!(a.cache_token(), c.cache_token());
    }

    #[test]
    fn observable_width_mismatch_is_rejected_at_build() {
        let spec = ObservableSpec::Pauli("ZZ".into());
        assert!(spec.build(2).is_ok());
        assert!(spec.build(3).is_err());
    }
}
