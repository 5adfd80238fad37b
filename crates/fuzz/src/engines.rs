//! The engine matrix: every redundant way the workspace can execute a
//! case, paired up into cross-checks with per-pair tolerances.
//!
//! Each pair compares two implementations that share as little code as
//! possible:
//!
//! | pair | oracle principle | tolerance |
//! |------|------------------|-----------|
//! | `serial-vs-parallel` | chunked threaded kernels are spec'd bitwise-identical to the serial loops | exact (`0`) |
//! | `state-vs-unitary` | dense `unitary.rs` matrix product, no shared kernel code | `1e-10` |
//! | `state-vs-density` | `tr(ρO)` from `mixed.rs` vs `⟨ψ\|O\|ψ⟩` | `1e-9` |
//! | `raw-vs-optimized` | `passes::simplify` must preserve semantics (states always, full unitary at small n) | `1e-9` |
//! | `qasm-roundtrip` | emit→parse→re-simulate, plus emit fixed-point | `1e-12` |
//! | `adjoint-vs-shift` | two exact gradient algorithms | `1e-8` |
//! | `adjoint-vs-finite-diff` | exact vs `O(ε²)` central differences | `5e-6` |
//! | `adjoint-partial-vs-gradient` | the adjoint's shortened single-parameter sweep vs its full-gradient entry | exact (`0`, bitwise) |
//! | `shift-vs-per-job` | the prefix-sharing parameter-shift gradient vs `Σ coeff · E(θ with θ_i += s)`, one full run of the compiled circuit per shifted job | exact (`0`, bitwise) |
//! | `fused-vs-raw` | compiled circuit (prologue, raw ops, diagonal superkernels) vs the gate-by-gate run | `1e-10` |
//! | `batched-vs-per-circuit` | `expectation_many` through the batched executor's scratch pool vs one run of the compiled circuit per set | exact (`0`) |
//! | `mutated-vs-serial` | deliberately broken kernel (self-test only) | `1e-9` |
//! | `fused-mutated-vs-serial` | product-state prologue folding each wire's ops in reversed order (self-test only) | `1e-9` |
//!
//! An engine error (`Err` from any simulator/gradient call) on a
//! generator-valid case is itself a divergence: it is reported as a
//! mismatch with infinite delta rather than swallowed.

use crate::gen::{FuzzCase, SMALL_ORACLE_QUBITS};
use plateau_grad::{Adjoint, FiniteDifference, GradientEngine, ParameterShift};
use plateau_sim::passes::simplify;
use plateau_sim::qasm::{from_qasm, to_qasm};
use plateau_sim::{
    circuit_unitary, par_threshold, set_par_threshold, Circuit, DensityMatrix, Op, Param, State,
};
use std::sync::Mutex;

/// One cross-check of the engine matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePair {
    /// Serial amplitude kernels vs the chunked multi-threaded variants
    /// (par threshold forced to 0).
    SerialVsParallel,
    /// Statevector run vs the dense full-circuit unitary applied to
    /// `|0…0⟩` (small registers only).
    StateVsUnitary,
    /// `⟨ψ|O|ψ⟩` vs `tr(ρO)` from the density-matrix engine on the same
    /// noiseless circuit (small registers only).
    StateVsDensity,
    /// The raw circuit vs its `passes::simplify` form.
    RawVsOptimized,
    /// QASM emit→parse→re-simulate, plus the emit fixed-point check.
    QasmRoundTrip,
    /// Adjoint vs two/four-term parameter-shift gradients.
    AdjointVsShift,
    /// Adjoint vs central finite-difference gradients.
    AdjointVsFiniteDiff,
    /// Every adjoint single-parameter partial (a backward sweep that ends
    /// at the parameter's gate) vs the matching entry of the full adjoint
    /// gradient.
    AdjointPartialVsGradient,
    /// The parameter-shift gradient, whose shifted runs resume from a
    /// shared unshifted prefix, vs the per-job oracle: every shifted
    /// evaluation as one full `expectation` from `|0…0⟩`, folded with the
    /// textbook shift-rule coefficients.
    ShiftVsPerJob,
    /// The compiler's segment execution (product-state prologue, raw ops,
    /// diagonal superkernels) vs the gate-by-gate run of the same circuit.
    FusedVsRaw,
    /// A parameter-set sweep through the batched executor (reused scratch
    /// statevectors, single compile) vs one fresh `expectation` call per
    /// set.
    BatchedVsPerCircuit,
    /// The serve wire codec: serialize→parse→re-serialize must be a
    /// fixed point, the parsed circuit must execute identically to the
    /// original, and byte-mutated request bodies must produce structured
    /// errors — never a panic.
    ServeCodec,
    /// The deliberately broken off-by-one kernel vs the serial engine —
    /// only scheduled by the mutation self-test, never in normal runs.
    MutatedVsSerial,
    /// A product-state prologue that folds each wire's leading ops in the
    /// **wrong** order vs the serial engine — only scheduled by the
    /// mutation self-test, never in normal runs.
    FusedMutatedVsSerial,
}

impl EnginePair {
    /// The pairs a normal fuzz run schedules (everything except the
    /// self-test mutant).
    pub const ALL: [EnginePair; 12] = [
        EnginePair::SerialVsParallel,
        EnginePair::StateVsUnitary,
        EnginePair::StateVsDensity,
        EnginePair::RawVsOptimized,
        EnginePair::QasmRoundTrip,
        EnginePair::AdjointVsShift,
        EnginePair::AdjointVsFiniteDiff,
        EnginePair::AdjointPartialVsGradient,
        EnginePair::ShiftVsPerJob,
        EnginePair::FusedVsRaw,
        EnginePair::BatchedVsPerCircuit,
        EnginePair::ServeCodec,
    ];

    /// Stable name used in reports and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            EnginePair::SerialVsParallel => "serial-vs-parallel",
            EnginePair::StateVsUnitary => "state-vs-unitary",
            EnginePair::StateVsDensity => "state-vs-density",
            EnginePair::RawVsOptimized => "raw-vs-optimized",
            EnginePair::QasmRoundTrip => "qasm-roundtrip",
            EnginePair::AdjointVsShift => "adjoint-vs-shift",
            EnginePair::AdjointVsFiniteDiff => "adjoint-vs-finite-diff",
            EnginePair::AdjointPartialVsGradient => "adjoint-partial-vs-gradient",
            EnginePair::ShiftVsPerJob => "shift-vs-per-job",
            EnginePair::FusedVsRaw => "fused-vs-raw",
            EnginePair::BatchedVsPerCircuit => "batched-vs-per-circuit",
            EnginePair::ServeCodec => "serve-codec",
            EnginePair::MutatedVsSerial => "mutated-vs-serial",
            EnginePair::FusedMutatedVsSerial => "fused-mutated-vs-serial",
        }
    }

    /// Inverse of [`EnginePair::name`].
    pub fn parse(s: &str) -> Option<EnginePair> {
        [
            EnginePair::SerialVsParallel,
            EnginePair::StateVsUnitary,
            EnginePair::StateVsDensity,
            EnginePair::RawVsOptimized,
            EnginePair::QasmRoundTrip,
            EnginePair::AdjointVsShift,
            EnginePair::AdjointVsFiniteDiff,
            EnginePair::AdjointPartialVsGradient,
            EnginePair::ShiftVsPerJob,
            EnginePair::FusedVsRaw,
            EnginePair::BatchedVsPerCircuit,
            EnginePair::ServeCodec,
            EnginePair::MutatedVsSerial,
            EnginePair::FusedMutatedVsSerial,
        ]
        .into_iter()
        .find(|p| p.name() == s)
    }

    /// Largest acceptable delta for this pair.
    ///
    /// Rationale: the threaded kernels are *specified* bitwise-identical,
    /// so their budget is zero. Exact-vs-exact comparisons (unitary
    /// oracle, density matrix, optimizer passes, the two analytic
    /// gradient engines) only accumulate `f64` rounding across at most a
    /// few dozen gates, so `1e-8`…`1e-10` is generous. Central
    /// differences at `ε = 1e-6` carry `O(ε²)` truncation plus `O(u/ε)`
    /// cancellation noise (~1e-10 each); `5e-6` leaves three orders of
    /// margin while still catching any real sign/index bug, which shows
    /// up at `O(1)`. QASM round-trips re-execute the identical op
    /// sequence, so they must agree to the last bit of the printed
    /// angles. Compiled execution folds the leading single-qubit ops into
    /// a product state and multiplies diagonal runs together before
    /// touching the state, which reassociates the floating-point work —
    /// mathematically identical but not bitwise, so unlike
    /// serial-vs-parallel its budget is `1e-10` rather than zero. The
    /// batched executor runs the *same* evaluator arithmetic per set as
    /// the one-at-a-time path (only the statevector's home differs), so
    /// its contract is bitwise and its budget zero. So is an adjoint
    /// partial's: it replays the full gradient's recurrence over the same
    /// ops in the same order, only ending earlier. And so is a shifted
    /// run's: resuming from a copied prefix repeats the full run's
    /// arithmetic from the same bits.
    pub fn tolerance(self) -> f64 {
        match self {
            EnginePair::SerialVsParallel => 0.0,
            EnginePair::BatchedVsPerCircuit => 0.0,
            EnginePair::AdjointPartialVsGradient => 0.0,
            EnginePair::ShiftVsPerJob => 0.0,
            // The wire codec transports the op list verbatim, so the
            // rebuilt circuit replays byte-identical arithmetic; and the
            // canonical-form fixed point is a string equality, so there
            // is no rounding to budget for.
            EnginePair::ServeCodec => 0.0,
            EnginePair::StateVsUnitary => 1e-10,
            EnginePair::StateVsDensity => 1e-9,
            EnginePair::RawVsOptimized => 1e-9,
            EnginePair::QasmRoundTrip => 1e-12,
            EnginePair::AdjointVsShift => 1e-8,
            EnginePair::AdjointVsFiniteDiff => 5e-6,
            EnginePair::FusedVsRaw => 1e-10,
            EnginePair::MutatedVsSerial => 1e-9,
            EnginePair::FusedMutatedVsSerial => 1e-9,
        }
    }

    /// Whether this pair can run on `case` (oracle cost gates on the
    /// register size; gradient pairs need at least one trainable
    /// parameter).
    pub fn applies(self, case: &FuzzCase) -> bool {
        match self {
            EnginePair::SerialVsParallel
            | EnginePair::RawVsOptimized
            | EnginePair::QasmRoundTrip
            | EnginePair::FusedVsRaw
            | EnginePair::BatchedVsPerCircuit
            | EnginePair::ServeCodec
            | EnginePair::MutatedVsSerial
            | EnginePair::FusedMutatedVsSerial => true,
            EnginePair::StateVsUnitary | EnginePair::StateVsDensity => {
                case.n_qubits <= SMALL_ORACLE_QUBITS
            }
            EnginePair::AdjointVsShift
            | EnginePair::AdjointVsFiniteDiff
            | EnginePair::AdjointPartialVsGradient
            | EnginePair::ShiftVsPerJob => case.free_param_count() > 0,
        }
    }
}

impl std::fmt::Display for EnginePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A divergence between the two sides of a pair.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The pair that diverged.
    pub pair: EnginePair,
    /// Observed delta (infinite when one side errored out).
    pub delta: f64,
    /// Human-readable description of what differed.
    pub detail: String,
}

/// Guards the process-global parallel threshold while the
/// serial-vs-parallel pair toggles it, so concurrent harness invocations
/// in one test binary each get a genuine serial-vs-parallel comparison.
static THRESHOLD_LOCK: Mutex<()> = Mutex::new(());

/// Largest `|aᵢ − bᵢ|` over the amplitude vectors, or `∞` on dimension
/// mismatch.
fn state_delta(a: &State, b: &State) -> f64 {
    if a.n_qubits() != b.n_qubits() {
        return f64::INFINITY;
    }
    (0..a.dim())
        .map(|i| (a.amplitude(i) - b.amplitude(i)).norm())
        .fold(0.0, f64::max)
}

/// The textbook `(shift, coeff)` terms for `∂E/∂θ_i`: the two-term rule
/// for Pauli and Pauli-product generators, PennyLane's four-term rule
/// (`c± = (√2 ± 1) / (4√2)`, shifts `π/2` and `3π/2`) for controlled
/// rotations — in the order the engine evaluates them.
fn shift_rule(circuit: &Circuit, i: usize) -> Vec<(f64, f64)> {
    use std::f64::consts::{FRAC_PI_2, SQRT_2};
    match circuit.op_of_param(i).map(|k| &circuit.ops()[k]) {
        Some(Op::ControlledRotation { .. }) => {
            let c1 = (SQRT_2 + 1.0) / (4.0 * SQRT_2);
            let c2 = (SQRT_2 - 1.0) / (4.0 * SQRT_2);
            vec![
                (FRAC_PI_2, c1),
                (-FRAC_PI_2, -c1),
                (3.0 * FRAC_PI_2, -c2),
                (-3.0 * FRAC_PI_2, c2),
            ]
        }
        _ => vec![(FRAC_PI_2, 0.5), (-FRAC_PI_2, -0.5)],
    }
}

/// Largest `|gᵢ − hᵢ|` over two gradient vectors, or `∞` on length
/// mismatch.
fn grad_delta(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn verdict(pair: EnginePair, delta: f64, detail: String) -> Result<f64, Mismatch> {
    if delta > pair.tolerance() {
        Err(Mismatch {
            pair,
            delta,
            detail,
        })
    } else {
        Ok(delta)
    }
}

/// Converts an engine error into a reported divergence: the generator
/// only emits valid cases, so a refusal is a bug on par with a wrong
/// number.
macro_rules! engine_try {
    ($pair:expr, $side:literal, $expr:expr) => {
        match $expr {
            Ok(v) => v,
            Err(e) => {
                return Err(Mismatch {
                    pair: $pair,
                    delta: f64::INFINITY,
                    detail: format!(concat!($side, " errored: {}"), e),
                })
            }
        }
    };
}

/// Runs one pair of the engine matrix on `case`: `Ok(delta)` when the
/// two sides agreed within tolerance (the delta shows the headroom),
/// `Err` on divergence.
///
/// # Errors
///
/// Returns the [`Mismatch`] describing the divergence.
pub fn check_pair(pair: EnginePair, case: &FuzzCase) -> Result<f64, Mismatch> {
    plateau_obs::counter!("fuzz.comparisons").inc();
    let (circuit, params) = engine_try!(pair, "case build", case.build());
    match pair {
        EnginePair::SerialVsParallel => {
            let _guard = THRESHOLD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let saved = par_threshold();
            set_par_threshold(usize::MAX);
            let serial = circuit.run(&params);
            set_par_threshold(0);
            let parallel = circuit.run(&params);
            set_par_threshold(saved);
            let serial = engine_try!(pair, "serial kernels", serial);
            let parallel = engine_try!(pair, "parallel kernels", parallel);
            let delta = state_delta(&serial, &parallel);
            verdict(
                pair,
                delta,
                format!("parallel kernels diverged from serial (max amplitude delta {delta:e})"),
            )
        }
        EnginePair::StateVsUnitary => {
            let state = engine_try!(pair, "statevector", circuit.run(&params));
            let u = engine_try!(pair, "unitary oracle", circuit_unitary(&circuit, &params));
            let mut oracle = State::zero(case.n_qubits);
            engine_try!(pair, "unitary apply", oracle.apply_matrix(&u));
            let delta = state_delta(&state, &oracle);
            verdict(
                pair,
                delta,
                format!("kernel state diverged from full-unitary oracle (max amplitude delta {delta:e})"),
            )
        }
        EnginePair::StateVsDensity => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let state = engine_try!(pair, "statevector", circuit.run(&params));
            let pure = engine_try!(pair, "pure expectation", obs.expectation(&state));
            let mut rho = DensityMatrix::zero(case.n_qubits);
            engine_try!(pair, "density evolution", rho.apply_circuit(&circuit, &params));
            let mixed = engine_try!(pair, "density expectation", rho.expectation(&obs));
            let delta = (pure - mixed).abs();
            let trace_err = (rho.trace() - 1.0).abs().max((rho.purity() - 1.0).abs());
            let delta = delta.max(trace_err);
            verdict(
                pair,
                delta,
                format!(
                    "tr(ρO) = {mixed} vs ⟨ψ|O|ψ⟩ = {pure} (delta {delta:e}, trace/purity err {trace_err:e})"
                ),
            )
        }
        EnginePair::RawVsOptimized => {
            let optimized = simplify(&circuit);
            let raw_state = engine_try!(pair, "raw circuit", circuit.run(&params));
            let opt_state = engine_try!(pair, "optimized circuit", optimized.run(&params));
            let mut delta = state_delta(&raw_state, &opt_state);
            if case.n_qubits <= SMALL_ORACLE_QUBITS {
                let u_raw = engine_try!(pair, "raw unitary", circuit_unitary(&circuit, &params));
                let u_opt =
                    engine_try!(pair, "optimized unitary", circuit_unitary(&optimized, &params));
                delta = delta.max(u_raw.max_abs_diff(&u_opt));
            }
            verdict(
                pair,
                delta,
                format!(
                    "passes::simplify changed semantics ({} -> {} ops, max delta {delta:e})",
                    circuit.ops().len(),
                    optimized.ops().len()
                ),
            )
        }
        EnginePair::QasmRoundTrip => {
            let text = engine_try!(pair, "qasm emit", to_qasm(&circuit, &params));
            let parsed = engine_try!(pair, "qasm parse", from_qasm(&text));
            let re_emitted = engine_try!(pair, "qasm re-emit", to_qasm(&parsed, &[]));
            if re_emitted != text {
                return Err(Mismatch {
                    pair,
                    delta: f64::INFINITY,
                    detail: "parse→emit is not a fixed point".into(),
                });
            }
            let original = engine_try!(pair, "original circuit", circuit.run(&params));
            let replayed = engine_try!(pair, "parsed circuit", parsed.run(&[]));
            let delta = state_delta(&original, &replayed);
            verdict(
                pair,
                delta,
                format!("re-simulated QASM diverged (max amplitude delta {delta:e})"),
            )
        }
        EnginePair::AdjointVsShift => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g_adj = engine_try!(pair, "adjoint", Adjoint.gradient(&circuit, &params, &obs));
            let g_shift = engine_try!(
                pair,
                "parameter shift",
                ParameterShift.gradient(&circuit, &params, &obs)
            );
            let delta = grad_delta(&g_adj, &g_shift);
            verdict(
                pair,
                delta,
                format!("adjoint and parameter-shift gradients diverged (max delta {delta:e})"),
            )
        }
        EnginePair::AdjointVsFiniteDiff => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g_adj = engine_try!(pair, "adjoint", Adjoint.gradient(&circuit, &params, &obs));
            let g_fd = engine_try!(
                pair,
                "finite differences",
                FiniteDifference::default().gradient(&circuit, &params, &obs)
            );
            let delta = grad_delta(&g_adj, &g_fd);
            verdict(
                pair,
                delta,
                format!("adjoint and finite-difference gradients diverged (max delta {delta:e})"),
            )
        }
        EnginePair::AdjointPartialVsGradient => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g = engine_try!(pair, "adjoint gradient", Adjoint.gradient(&circuit, &params, &obs));
            let mut delta = 0.0f64;
            for (i, gi) in g.iter().enumerate() {
                let p = engine_try!(
                    pair,
                    "adjoint partial",
                    Adjoint.partial(&circuit, &params, &obs, i)
                );
                if p.to_bits() != gi.to_bits() {
                    // Bitwise contract: even −0 vs +0 is a divergence.
                    delta = delta.max((p - gi).abs().max(f64::MIN_POSITIVE));
                }
            }
            verdict(
                pair,
                delta,
                format!("adjoint partials diverged from their gradient entries (max delta {delta:e})"),
            )
        }
        EnginePair::ShiftVsPerJob => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g = engine_try!(
                pair,
                "parameter shift",
                ParameterShift.gradient(&circuit, &params, &obs)
            );
            // The gradient runs the compiled form (it evaluates the
            // circuit 2k times), so the oracle runs it too.
            let compiled = plateau_sim::compile(&circuit);
            let mut delta = 0.0f64;
            for (i, gi) in g.iter().enumerate() {
                // Folded in the engine's job order, from +0.0.
                let mut oracle = 0.0;
                for (shift, coeff) in shift_rule(&circuit, i) {
                    let mut theta = params.clone();
                    theta[i] += shift;
                    let state = engine_try!(pair, "per-job run", compiled.run(&theta));
                    let e = engine_try!(pair, "per-job expectation", obs.expectation(&state));
                    oracle += coeff * e;
                }
                if oracle.to_bits() != gi.to_bits() {
                    delta = delta.max((oracle - gi).abs().max(f64::MIN_POSITIVE));
                }
            }
            verdict(
                pair,
                delta,
                format!("parameter-shift gradient diverged from the per-job oracle (max delta {delta:e})"),
            )
        }
        EnginePair::FusedVsRaw => {
            let raw = engine_try!(pair, "gate-by-gate run", circuit.run(&params));
            let compiled = plateau_sim::compile(&circuit);
            let fused = engine_try!(pair, "fused kernels", compiled.run(&params));
            let delta = state_delta(&raw, &fused);
            verdict(
                pair,
                delta,
                format!(
                    "fused kernels diverged from gate-by-gate run ({} -> {} segments, max amplitude delta {delta:e})",
                    compiled.gates_in(),
                    compiled.gates_out()
                ),
            )
        }
        EnginePair::BatchedVsPerCircuit => {
            let obs = engine_try!(pair, "observable build", case.observable());
            // Nine deterministic perturbations of the case's parameters:
            // one more than the batched engine's parallel threshold, so
            // the sweep exercises the fan-out path on multi-core hosts
            // (and the serial scratch path elsewhere) against the same
            // oracle.
            let sets: Vec<Vec<f64>> = (0..9)
                .map(|j| {
                    params
                        .iter()
                        .map(|p| p + 0.05 * (j as f64 - 4.0))
                        .collect()
                })
                .collect();
            let batched = engine_try!(
                pair,
                "batched executor",
                plateau_grad::expectation_many(&circuit, &sets, &obs)
            );
            // The executor compiles once; the oracle runs the same
            // compiled form once per set.
            let compiled = plateau_sim::compile(&circuit);
            let mut delta = 0.0f64;
            for (set, b) in sets.iter().zip(&batched) {
                let state = engine_try!(pair, "per-circuit run", compiled.run(set));
                let one = engine_try!(pair, "per-circuit expectation", obs.expectation(&state));
                delta = delta.max((one - b).abs());
            }
            verdict(
                pair,
                delta,
                format!("batched sweep diverged from per-circuit loop (max delta {delta:e})"),
            )
        }
        EnginePair::ServeCodec => {
            let spec = plateau_serve::CircuitSpec::from_circuit(&circuit);
            let request = plateau_serve::Request::Simulate(plateau_serve::SimulateRequest {
                circuit: spec,
                params: params.clone(),
                observable: plateau_serve::ObservableSpec::Global,
                seed: 0xfeed,
                shots: 0,
            });
            let body = request.serialize();
            // Fixed point 1: parse(serialize(r)) == r.
            let parsed = engine_try!(
                pair,
                "request parse",
                plateau_serve::Request::parse("/simulate", &body)
            );
            if parsed != request {
                return Err(Mismatch {
                    pair,
                    delta: f64::INFINITY,
                    detail: "parsed request is not equal to the original".to_string(),
                });
            }
            // Fixed point 2: serialize(parse(s)) == s on canonical form.
            let body2 = parsed.serialize();
            if body2 != body {
                return Err(Mismatch {
                    pair,
                    delta: f64::INFINITY,
                    detail: format!(
                        "re-serialization is not a fixed point:\n  {body}\nvs\n  {body2}"
                    ),
                });
            }
            // Semantic: the circuit rebuilt from the wire form replays
            // the identical op list — bitwise-equal final state.
            let rebuilt_spec = match &parsed {
                plateau_serve::Request::Simulate(s) => &s.circuit,
                _ => unreachable!("parsed from /simulate"),
            };
            let rebuilt = engine_try!(pair, "circuit rebuild", rebuilt_spec.build());
            let original_state = engine_try!(pair, "original run", circuit.run(&params));
            let rebuilt_state = engine_try!(pair, "rebuilt run", rebuilt.run(&params));
            let delta = state_delta(&original_state, &rebuilt_state);

            // Adversarial side: deterministic byte mutations of the valid
            // body must yield structured errors or valid re-parses —
            // never a panic (and any accidental re-parse must itself be
            // canonical-form stable).
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in body.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            for round in 0..24u64 {
                // xorshift64* walk seeded by the body hash.
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                let mut mutated = body.clone().into_bytes();
                let pos = (h.wrapping_add(round) % mutated.len() as u64) as usize;
                match (h >> 24) % 4 {
                    0 => mutated[pos] ^= 1 << ((h >> 32) % 8), // bit flip
                    1 => mutated.truncate(pos),                // truncation
                    2 => mutated.insert(pos, (h >> 40) as u8), // junk insert
                    _ => {
                        mutated.remove(pos); // deletion
                    }
                }
                let text = String::from_utf8_lossy(&mutated).into_owned();
                let outcome = std::panic::catch_unwind(|| {
                    plateau_serve::Request::parse("/simulate", &text)
                        .map(|r| r.serialize())
                });
                match outcome {
                    Err(_) => {
                        return Err(Mismatch {
                            pair,
                            delta: f64::INFINITY,
                            detail: format!(
                                "codec panicked on mutated body (round {round}): {text:?}"
                            ),
                        });
                    }
                    // A mutation that survives as a valid request is fine
                    // (flipping a digit yields another valid body), but
                    // the result must still round-trip canonically.
                    Ok(Ok(reserialized)) => {
                        let again = std::panic::catch_unwind(|| {
                            plateau_serve::Request::parse("/simulate", &reserialized)
                                .map(|r| r.serialize())
                        });
                        match again {
                            Ok(Ok(s)) if s == reserialized => {}
                            Ok(Ok(s)) => {
                                return Err(Mismatch {
                                    pair,
                                    delta: f64::INFINITY,
                                    detail: format!(
                                        "mutated-but-valid body lost the fixed point:\n  {reserialized}\nvs\n  {s}"
                                    ),
                                });
                            }
                            Ok(Err(e)) => {
                                return Err(Mismatch {
                                    pair,
                                    delta: f64::INFINITY,
                                    detail: format!(
                                        "serializer emitted an unparseable body: {e} from {reserialized:?}"
                                    ),
                                });
                            }
                            Err(_) => {
                                return Err(Mismatch {
                                    pair,
                                    delta: f64::INFINITY,
                                    detail: "codec panicked re-parsing its own output".to_string(),
                                });
                            }
                        }
                    }
                    Ok(Err(_structured_error)) => {}
                }
            }
            verdict(
                pair,
                delta,
                format!("wire round-trip changed the circuit (max amplitude delta {delta:e})"),
            )
        }
        EnginePair::MutatedVsSerial => {
            let reference = engine_try!(pair, "serial kernels", circuit.run(&params));
            let mutated = engine_try!(pair, "mutated kernel", mutated_run(&circuit, &params));
            let delta = state_delta(&reference, &mutated);
            verdict(
                pair,
                delta,
                format!("injected off-by-one kernel detected (max amplitude delta {delta:e})"),
            )
        }
        EnginePair::FusedMutatedVsSerial => {
            let reference = engine_try!(pair, "serial kernels", circuit.run(&params));
            let mutated =
                engine_try!(pair, "mutated prologue", fused_mutated_run(&circuit, &params));
            let delta = state_delta(&reference, &mutated);
            verdict(
                pair,
                delta,
                format!("injected prologue fold-order bug detected (max amplitude delta {delta:e})"),
            )
        }
    }
}

/// A deliberately broken statevector engine for the mutation self-test:
/// single-qubit rotations go through a hand-rolled kernel whose loop
/// bound is off by one, silently skipping the **last amplitude pair** of
/// the register. Every other op kind delegates to the real kernels. A
/// harness that cannot catch and shrink this bug cannot be trusted to
/// catch a real one.
pub fn mutated_run(circuit: &Circuit, params: &[f64]) -> Result<State, plateau_sim::SimError> {
    let mut state = State::zero(circuit.n_qubits());
    for op in circuit.ops() {
        match op {
            Op::Rotation { gate, qubit, param } => {
                let theta = match param {
                    Param::Free(i) => params[*i],
                    Param::Bound(v) => *v,
                };
                let [m00, m01, m10, m11] = gate.entries(theta);
                let mut amps = state.to_amplitudes();
                let dim = amps.len();
                let stride = 1usize << qubit;
                let last_pair = dim / 2 - 1; // the pair the bug drops
                let mut pair = 0;
                let mut base = 0;
                while base < dim {
                    for off in base..base + stride {
                        if pair < last_pair {
                            let a = amps[off];
                            let b = amps[off + stride];
                            amps[off] = m00 * a + m01 * b;
                            amps[off + stride] = m10 * a + m11 * b;
                        }
                        pair += 1;
                    }
                    base += stride << 1;
                }
                state = State::from_amplitudes_unnormalized(amps)?;
            }
            other => other.apply(&mut state, params)?,
        }
    }
    Ok(state)
}

/// A deliberately broken product-state prologue for the mutation
/// self-test. Like [`plateau_sim::CompiledCircuit::run`] it builds the
/// state left by the circuit's leading single-qubit ops directly, folding
/// each wire's ops into its `|0⟩` column — but in **reversed** order
/// (the last op first), the classic gate-fusion mistake. The rest of the
/// circuit runs through the real kernels. The fold is correct whenever a
/// wire's leading ops commute (one op, or repeated same-axis rotations),
/// so the harness must find two non-commuting leading ops on one wire to
/// expose it — and the shrinker should reduce any such witness to a
/// two-gate circuit.
pub fn fused_mutated_run(circuit: &Circuit, params: &[f64]) -> Result<State, plateau_sim::SimError> {
    use plateau_linalg::C64;
    let single = |op: &Op| match op {
        Op::Fixed { gate, qubits } if gate.arity() == 1 => Some((qubits[0], gate.entries())),
        Op::Rotation { gate, qubit, param } => Some((*qubit, gate.entries(param.angle(params)))),
        _ => None,
    };
    let ops = circuit.ops();
    let prologue = ops.iter().take_while(|op| single(op).is_some()).count();
    let mut amps = vec![C64::ZERO; 1usize << circuit.n_qubits()];
    amps[0] = C64::ONE;
    let mut len = 1usize;
    for wire in 0..circuit.n_qubits() {
        let (mut v0, mut v1) = (C64::ONE, C64::ZERO);
        // BUG: a wire's later op must act after its earlier ones; this
        // folds them last-first.
        for (q, e) in ops[..prologue].iter().rev().filter_map(single) {
            if q == wire {
                (v0, v1) = (e[0] * v0 + e[1] * v1, e[2] * v0 + e[3] * v1);
            }
        }
        for i in 0..len {
            let a = amps[i];
            amps[i] = a * v0;
            amps[i + len] = a * v1;
        }
        len <<= 1;
    }
    let mut state = State::from_amplitudes_unnormalized(amps)?;
    for op in &ops[prologue..] {
        op.apply(&mut state, params)?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_case;
    use plateau_rng::{SeedableRng, StdRng};

    #[test]
    fn pair_names_round_trip() {
        for pair in EnginePair::ALL
            .into_iter()
            .chain([EnginePair::MutatedVsSerial, EnginePair::FusedMutatedVsSerial])
        {
            assert_eq!(EnginePair::parse(pair.name()), Some(pair));
        }
        assert_eq!(EnginePair::parse("nonsense"), None);
    }

    #[test]
    fn matrix_is_clean_on_random_cases() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..60 {
            let case = random_case(&mut rng, 6);
            for pair in EnginePair::ALL {
                if !pair.applies(&case) {
                    continue;
                }
                if let Err(m) = check_pair(pair, &case) {
                    panic!("{}: {} on case {case:#?}", m.pair, m.detail);
                }
            }
        }
    }

    #[test]
    fn mutated_kernel_is_caught() {
        // A single RX on the top pair of a 1-qubit register is the
        // smallest trigger: the broken kernel skips its only pair.
        let case = FuzzCase {
            n_qubits: 1,
            ops: vec![crate::gen::GenOp::Rotation {
                gate: plateau_sim::RotationGate::Rx,
                qubit: 0,
                angle: 1.0,
                free: false,
            }],
            obs: crate::gen::ObsSpec::GlobalCost,
        };
        let m = check_pair(EnginePair::MutatedVsSerial, &case).expect_err("bug must be detected");
        assert!(m.delta > 0.1, "delta was {}", m.delta);
    }

    #[test]
    fn fused_merge_order_bug_is_caught() {
        // RX then RY on one wire: non-commuting, so folding them into the
        // prologue column in reversed order produces a visibly different
        // state. This is also the shape the shrinker should reduce any
        // larger witness to.
        let case = FuzzCase {
            n_qubits: 1,
            ops: vec![
                crate::gen::GenOp::Rotation {
                    gate: plateau_sim::RotationGate::Rx,
                    qubit: 0,
                    angle: 1.0,
                    free: false,
                },
                crate::gen::GenOp::Rotation {
                    gate: plateau_sim::RotationGate::Ry,
                    qubit: 0,
                    angle: 0.7,
                    free: false,
                },
            ],
            obs: crate::gen::ObsSpec::GlobalCost,
        };
        let m = check_pair(EnginePair::FusedMutatedVsSerial, &case)
            .expect_err("fold-order bug must be detected");
        assert!(m.delta > 0.01, "delta was {}", m.delta);

        // Commuting runs hide the bug: same-axis rotations fold
        // identically in either order.
        let commuting = FuzzCase {
            n_qubits: 1,
            ops: vec![
                crate::gen::GenOp::Rotation {
                    gate: plateau_sim::RotationGate::Rz,
                    qubit: 0,
                    angle: 1.0,
                    free: false,
                },
                crate::gen::GenOp::Rotation {
                    gate: plateau_sim::RotationGate::Rz,
                    qubit: 0,
                    angle: 0.7,
                    free: false,
                },
            ],
            obs: crate::gen::ObsSpec::GlobalCost,
        };
        check_pair(EnginePair::FusedMutatedVsSerial, &commuting)
            .expect("commuting run must not trigger the mutant");
    }

    #[test]
    fn gradient_pairs_skip_parameterless_cases() {
        let case = FuzzCase {
            n_qubits: 2,
            ops: vec![crate::gen::GenOp::Fixed {
                gate: plateau_sim::FixedGate::H,
                qubits: vec![0],
            }],
            obs: crate::gen::ObsSpec::GlobalCost,
        };
        assert!(!EnginePair::AdjointVsShift.applies(&case));
        assert!(!EnginePair::AdjointVsFiniteDiff.applies(&case));
        assert!(!EnginePair::AdjointPartialVsGradient.applies(&case));
        assert!(!EnginePair::ShiftVsPerJob.applies(&case));
        assert!(EnginePair::SerialVsParallel.applies(&case));
    }
}
