//! The engine matrix: every redundant way the workspace can execute a
//! case, paired up into cross-checks with per-pair tolerances.
//!
//! Each pair compares two implementations that share as little code as
//! possible:
//!
//! | pair | oracle principle | tolerance |
//! |------|------------------|-----------|
//! | `serial-vs-parallel` | chunked threaded kernels are spec'd bitwise-identical to the serial loops: the run, every op's apply/inverse/derivative, a CZ layer, the inverse sweep and projections | exact (bits) |
//! | `state-vs-unitary` | dense `unitary.rs` matrix product, no shared kernel code | `1e-10` |
//! | `state-vs-density` | `tr(ρO)` from `mixed.rs` vs `⟨ψ\|O\|ψ⟩` | `1e-9` |
//! | `raw-vs-optimized` | `passes::simplify` must preserve semantics (states always, full unitary at small n) | `1e-9` |
//! | `qasm-roundtrip` | emit→parse→re-simulate, plus emit fixed-point | `1e-12` |
//! | `adjoint-vs-shift` | two exact gradient algorithms | `1e-8` |
//! | `adjoint-vs-finite-diff` | exact vs `O(ε²)` central differences | `5e-6` |
//! | `adjoint-partial-vs-gradient` | the adjoint's shortened single-parameter sweep vs its full-gradient entry | exact (`0`, bitwise) |
//! | `shift-vs-per-job` | the prefix-sharing parameter-shift gradient vs `Σ coeff · E(θ with θ_i += s)`, one full `Circuit::run` per shifted job (local cost and Pauli sums) | exact (`0`, bitwise) |
//! | `overlap-shift-vs-per-job` | the parameter-shift gradient on a rank-one cost (global cost, zero projector), every shifted evaluation an overlap with one backward walk's bra, vs the same per-job oracle | `1e-12` |
//! | `prologue-vs-gate-by-gate` | `Circuit::run` (product-state prologue, then the op list) vs `run_on` from `\|0…0⟩` | `1e-10` |
//! | `batched-vs-per-circuit` | `expectation_many` through the batched executor's scratch pool vs one `Circuit::run` per set | exact (`0`) |
//! | `mutated-vs-serial` | deliberately broken kernel (self-test only) | `1e-9` |
//! | `prologue-mutated-vs-serial` | the op list's prologue folding each wire's ops in reversed order (self-test only) | `1e-9` |
//! | `overlap-mutated-vs-per-job` | a rank-one walk whose bra skips the circuit's last sweep vs the per-job oracle (self-test only) | `1e-9` |
//!
//! An engine error (`Err` from any simulator/gradient call) on a
//! generator-valid case is itself a divergence: it is reported as a
//! mismatch with infinite delta rather than swallowed.

use crate::gen::{FuzzCase, SMALL_ORACLE_QUBITS};
use plateau_grad::{Adjoint, FiniteDifference, GradientEngine, ParameterShift};
use plateau_sim::passes::simplify;
use plateau_sim::qasm::{from_qasm, to_qasm};
use plateau_sim::{
    circuit_unitary, Circuit, CzLayer, DensityMatrix, Op, Param, SimError, State,
};

/// One cross-check of the engine matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePair {
    /// Serial amplitude kernels vs the chunked multi-threaded variants,
    /// on states whose kernel path is forced each way.
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
    /// textbook shift-rule coefficients. Local cost and Pauli sums only.
    ShiftVsPerJob,
    /// The parameter-shift gradient on a rank-one cost (the global cost or
    /// the zero projector), whose shifted evaluations are overlaps with
    /// the bra of one backward walk, vs the same per-job oracle.
    OverlapShiftVsPerJob,
    /// `Circuit::run`, whose leading single-qubit ops are one
    /// product-state prologue, vs `run_on` from `|0…0⟩`, which applies
    /// them gate by gate.
    PrologueVsGateByGate,
    /// A parameter-set sweep through the batched executor (reused scratch
    /// statevectors) vs one fresh run per set.
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
    /// **wrong** order vs the gate-by-gate run — only scheduled by the
    /// mutation self-test, never in normal runs.
    PrologueMutatedVsSerial,
    /// A rank-one parameter-shift walk whose bra **skips** the circuit's
    /// last sweep vs the per-job oracle — only scheduled by the mutation
    /// self-test, never in normal runs.
    OverlapMutatedVsPerJob,
}

impl EnginePair {
    /// The pairs a normal fuzz run schedules (everything except the
    /// self-test mutants).
    pub const ALL: [EnginePair; 13] = [
        EnginePair::SerialVsParallel,
        EnginePair::StateVsUnitary,
        EnginePair::StateVsDensity,
        EnginePair::RawVsOptimized,
        EnginePair::QasmRoundTrip,
        EnginePair::AdjointVsShift,
        EnginePair::AdjointVsFiniteDiff,
        EnginePair::AdjointPartialVsGradient,
        EnginePair::ShiftVsPerJob,
        EnginePair::OverlapShiftVsPerJob,
        EnginePair::PrologueVsGateByGate,
        EnginePair::BatchedVsPerCircuit,
        EnginePair::ServeCodec,
    ];

    /// The deliberately broken engines the mutation self-test schedules,
    /// each of which it must catch.
    pub const MUTANTS: [EnginePair; 3] = [
        EnginePair::MutatedVsSerial,
        EnginePair::PrologueMutatedVsSerial,
        EnginePair::OverlapMutatedVsPerJob,
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
            EnginePair::OverlapShiftVsPerJob => "overlap-shift-vs-per-job",
            EnginePair::PrologueVsGateByGate => "prologue-vs-gate-by-gate",
            EnginePair::BatchedVsPerCircuit => "batched-vs-per-circuit",
            EnginePair::ServeCodec => "serve-codec",
            EnginePair::MutatedVsSerial => "mutated-vs-serial",
            EnginePair::PrologueMutatedVsSerial => "prologue-mutated-vs-serial",
            EnginePair::OverlapMutatedVsPerJob => "overlap-mutated-vs-per-job",
        }
    }

    /// Inverse of [`EnginePair::name`].
    pub fn parse(s: &str) -> Option<EnginePair> {
        EnginePair::ALL
            .into_iter()
            .chain(EnginePair::MUTANTS)
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
    /// angles. The prologue folds the leading single-qubit ops into a
    /// product state before touching the state, which reassociates the
    /// floating-point work — mathematically identical but not bitwise, so
    /// unlike serial-vs-parallel its budget is `1e-10` rather than zero.
    /// The batched executor runs the *same* arithmetic per set as
    /// the one-at-a-time path (only the statevector's home differs), so
    /// its contract is bitwise and its budget zero. So is an adjoint
    /// partial's: it replays the full gradient's recurrence over the same
    /// ops in the same order, only ending earlier. And so is a shifted
    /// run's: resuming from a copied prefix repeats the full run's
    /// arithmetic from the same bits. A rank-one overlap does not: its
    /// ket is stepped back through inverse gates and its bra through the
    /// suffix's, so it agrees with the forward run only to rounding —
    /// `1e-12` on a cost in `[0, 1]`, four orders above the observed
    /// `~1e-16` and far below any real bug.
    pub fn tolerance(self) -> f64 {
        match self {
            EnginePair::SerialVsParallel => 0.0,
            EnginePair::BatchedVsPerCircuit => 0.0,
            EnginePair::AdjointPartialVsGradient => 0.0,
            EnginePair::ShiftVsPerJob => 0.0,
            EnginePair::OverlapShiftVsPerJob => 1e-12,
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
            EnginePair::PrologueVsGateByGate => 1e-10,
            EnginePair::MutatedVsSerial => 1e-9,
            EnginePair::PrologueMutatedVsSerial => 1e-9,
            EnginePair::OverlapMutatedVsPerJob => 1e-9,
        }
    }

    /// Whether this pair can run on `case` (oracle cost gates on the
    /// register size; gradient pairs need at least one trainable
    /// parameter; the two parameter-shift paths split the observables
    /// between them).
    pub fn applies(self, case: &FuzzCase) -> bool {
        let rank_one = || case.observable().is_ok_and(|obs| obs.rank_one().is_some());
        match self {
            EnginePair::SerialVsParallel
            | EnginePair::RawVsOptimized
            | EnginePair::QasmRoundTrip
            | EnginePair::PrologueVsGateByGate
            | EnginePair::BatchedVsPerCircuit
            | EnginePair::ServeCodec
            | EnginePair::MutatedVsSerial
            | EnginePair::PrologueMutatedVsSerial => true,
            EnginePair::StateVsUnitary | EnginePair::StateVsDensity => {
                case.n_qubits <= SMALL_ORACLE_QUBITS
            }
            EnginePair::AdjointVsShift
            | EnginePair::AdjointVsFiniteDiff
            | EnginePair::AdjointPartialVsGradient => case.free_param_count() > 0,
            EnginePair::ShiftVsPerJob => case.free_param_count() > 0 && !rank_one(),
            EnginePair::OverlapShiftVsPerJob | EnginePair::OverlapMutatedVsPerJob => {
                case.free_param_count() > 0 && rank_one()
            }
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

/// The amplitudes after every kernel of the op list, on a state whose
/// kernel path is forced: the run from `|0…0⟩` (prologue and CZ layers
/// included); then, each on a copy of that state, every op's `apply`,
/// `apply_inverse` and (for rotations) `apply_derivative`, a CZ layer over
/// the nearest-neighbour chain, a projection of each qubit and the inverse
/// sweep.
fn kernel_trail(circuit: &Circuit, params: &[f64], chunked: bool) -> Result<Vec<f64>, SimError> {
    let n = circuit.n_qubits();
    let mut psi = State::zero(n);
    psi.set_chunked(chunked);
    circuit.run_into(&mut psi, params, 0..circuit.gate_count())?;
    let mut trail = Vec::new();
    let mut step = |kernel: &dyn Fn(&mut State) -> Result<(), SimError>| {
        let mut s = psi.clone();
        kernel(&mut s)?;
        trail.extend(s.re().iter().chain(s.im()));
        Ok::<(), SimError>(())
    };
    step(&|_| Ok(()))?;
    for op in circuit.ops() {
        step(&|s| op.apply(s, params))?;
        step(&|s| op.apply_inverse(s, params))?;
        if !matches!(op, Op::Fixed { .. }) {
            step(&|s| op.apply_derivative(s, params))?;
        }
    }
    if n >= 2 {
        let layer = CzLayer::new(n, &(1..n).map(|q| (q - 1, q)).collect::<Vec<_>>())?;
        step(&|s| s.apply_cz_layer(&layer))?;
    }
    for q in 0..n {
        step(&|s| s.project_qubit(q, q % 2 == 1))?;
    }
    step(&|s| circuit.run_inverse_on(s, params))?;
    Ok(trail)
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

/// How far gradient `g` lies from the per-job oracle: each `∂E/∂θ_i` as
/// `Σ coeff · E(θ with θ_i += s)`, one full `Circuit::run` per shifted
/// job, folded in the engine's job order from `+0.0`. Bitwise: any
/// differing bit counts, even a zero's sign.
fn per_job_delta(
    circuit: &Circuit,
    params: &[f64],
    obs: &plateau_sim::Observable,
    g: &[f64],
) -> Result<f64, SimError> {
    let mut delta = 0.0f64;
    for (i, gi) in g.iter().enumerate() {
        let mut oracle = 0.0;
        for (shift, coeff) in shift_rule(circuit, i) {
            let mut theta = params.to_vec();
            theta[i] += shift;
            oracle += coeff * obs.expectation(&circuit.run(&theta)?)?;
        }
        if oracle.to_bits() != gi.to_bits() {
            delta = delta.max((oracle - gi).abs().max(f64::MIN_POSITIVE));
        }
    }
    Ok(delta)
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
            let serial = engine_try!(pair, "serial kernels", kernel_trail(&circuit, &params, false));
            let parallel =
                engine_try!(pair, "parallel kernels", kernel_trail(&circuit, &params, true));
            let delta = grad_delta(&serial, &parallel);
            let same = serial.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
            verdict(
                pair,
                // Bits that differ only in the sign of a zero still fail.
                if same { 0.0 } else { delta.max(f64::MIN_POSITIVE) },
                format!("parallel kernels diverged from serial in the bits (max amplitude delta {delta:e})"),
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
        EnginePair::ShiftVsPerJob | EnginePair::OverlapShiftVsPerJob => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g = engine_try!(
                pair,
                "parameter shift",
                ParameterShift.gradient(&circuit, &params, &obs)
            );
            let delta = engine_try!(pair, "per-job oracle", per_job_delta(&circuit, &params, &obs, &g));
            verdict(
                pair,
                delta,
                format!("parameter-shift gradient diverged from the per-job oracle (max delta {delta:e})"),
            )
        }
        EnginePair::PrologueVsGateByGate => {
            let fused = engine_try!(pair, "prologue run", circuit.run(&params));
            let raw = engine_try!(pair, "gate-by-gate run", gate_by_gate(&circuit, &params));
            let delta = state_delta(&raw, &fused);
            verdict(
                pair,
                delta,
                format!(
                    "the {}-op prologue run diverged from the gate-by-gate run (max amplitude delta {delta:e})",
                    circuit.prologue_len()
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
            let mut delta = 0.0f64;
            for (set, b) in sets.iter().zip(&batched) {
                let state = engine_try!(pair, "per-circuit run", circuit.run(set));
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
        EnginePair::OverlapMutatedVsPerJob => {
            let obs = engine_try!(pair, "observable build", case.observable());
            let g = engine_try!(
                pair,
                "mutated walk",
                overlap_mutated_gradient(&circuit, &params, &obs)
            );
            let delta = engine_try!(pair, "per-job oracle", per_job_delta(&circuit, &params, &obs, &g));
            verdict(
                pair,
                delta,
                format!("injected bra-walk skip detected (max delta {delta:e})"),
            )
        }
        EnginePair::PrologueMutatedVsSerial => {
            let reference = engine_try!(pair, "gate-by-gate run", gate_by_gate(&circuit, &params));
            let mutated =
                engine_try!(pair, "mutated prologue", prologue_mutated_run(&circuit, &params));
            let delta = state_delta(&reference, &mutated);
            verdict(
                pair,
                delta,
                format!("injected prologue fold-order bug detected (max amplitude delta {delta:e})"),
            )
        }
    }
}

/// `circuit` run from `|0…0⟩` by [`Circuit::run_on`], which applies the
/// leading single-qubit ops gate by gate instead of as a prologue.
fn gate_by_gate(circuit: &Circuit, params: &[f64]) -> Result<State, plateau_sim::SimError> {
    let mut state = State::zero(circuit.n_qubits());
    circuit.run_on(&mut state, params)?;
    Ok(state)
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

/// A deliberately broken rank-one parameter-shift gradient for the
/// mutation self-test. Like the engine it evaluates each shifted circuit
/// as `c0 + c1·|⟨w_k| R_k(θ_i + s) |φ_{k−1}⟩|²`, stepping `φ` back from
/// the final state and the bra `w` back from `|0…0⟩` — but the bra
/// **skips** the circuit's last sweep, so every overlap misses it. A
/// diagonal last op (RZ, a CZ) leaves `|0…0⟩` alone up to a phase and
/// hides the bug, so the harness must find a case whose last sweep moves
/// `|0…0⟩` below a parameter's op — two gates suffice (RY(θ), then H).
///
/// # Errors
///
/// Returns [`SimError`] from the kernels, or
/// [`SimError::ObservableMismatch`] for an observable that is not
/// rank-one.
pub fn overlap_mutated_gradient(
    circuit: &Circuit,
    params: &[f64],
    obs: &plateau_sim::Observable,
) -> Result<Vec<f64>, SimError> {
    let (c0, c1) = obs.rank_one().ok_or(SimError::ObservableMismatch {
        observable_qubits: obs.n_qubits(),
        state_qubits: circuit.n_qubits(),
    })?;
    let mut phi = circuit.run(params)?;
    let mut bra = State::zero(circuit.n_qubits());
    let mut grad = vec![0.0; circuit.n_params()];
    let mut theta = params.to_vec();
    let sweeps = circuit.sweeps(0..circuit.gate_count()).rev();
    for (walked, (k, sweep)) in sweeps.enumerate() {
        sweep.apply_inverse(&mut phi, params)?;
        let op = &circuit.ops()[k];
        if let Some(i) = op.free_param() {
            for (shift, coeff) in shift_rule(circuit, i) {
                let mut mu = phi.clone();
                theta[i] = params[i] + shift;
                op.apply(&mut mu, &theta)?;
                theta[i] = params[i];
                grad[i] += coeff * (c0 + c1 * bra.inner(&mu)?.norm_sqr());
            }
        }
        // BUG: the bra must step back through every sweep; this skips
        // the first one walked, the circuit's last.
        if walked > 0 {
            sweep.apply_inverse(&mut bra, params)?;
        }
    }
    Ok(grad)
}

/// A deliberately broken product-state prologue for the mutation
/// self-test. Like [`Circuit::run`] it builds the state left by the
/// circuit's leading single-qubit ops (`prologue_len()` of them)
/// directly, folding each wire's ops into its `|0⟩` column — but in
/// **reversed** order (the last op first), the classic gate-fusion
/// mistake. The rest of the circuit runs through the op list's sweeps. The fold is correct whenever a
/// wire's leading ops commute (one op, or repeated same-axis rotations),
/// so the harness must find two non-commuting leading ops on one wire to
/// expose it — and the shrinker should reduce any such witness to a
/// two-gate circuit.
pub fn prologue_mutated_run(
    circuit: &Circuit,
    params: &[f64],
) -> Result<State, plateau_sim::SimError> {
    use plateau_linalg::C64;
    let single = |op: &Op| match op {
        Op::Fixed { gate, qubits } if gate.arity() == 1 => Some((qubits[0], gate.entries())),
        Op::Rotation { gate, qubit, param } => Some((*qubit, gate.entries(param.angle(params)))),
        _ => None,
    };
    let ops = circuit.ops();
    let prologue = circuit.prologue_len();
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
    for (_, sweep) in circuit.sweeps(prologue..ops.len()) {
        sweep.apply(&mut state, params)?;
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
        for pair in EnginePair::ALL.into_iter().chain(EnginePair::MUTANTS) {
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
        let m = check_pair(EnginePair::PrologueMutatedVsSerial, &case)
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
        check_pair(EnginePair::PrologueMutatedVsSerial, &commuting)
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
        assert!(!EnginePair::OverlapShiftVsPerJob.applies(&case));
        assert!(EnginePair::SerialVsParallel.applies(&case));
    }

    #[test]
    fn shift_pairs_split_the_observables() {
        let ry = crate::gen::GenOp::Rotation {
            gate: plateau_sim::RotationGate::Ry,
            qubit: 0,
            angle: 0.4,
            free: true,
        };
        let case = |obs| FuzzCase { n_qubits: 1, ops: vec![ry.clone()], obs };
        for obs in [crate::gen::ObsSpec::GlobalCost, crate::gen::ObsSpec::ZeroProjector] {
            assert!(!EnginePair::ShiftVsPerJob.applies(&case(obs.clone())));
            assert!(EnginePair::OverlapShiftVsPerJob.applies(&case(obs.clone())));
            assert!(EnginePair::OverlapMutatedVsPerJob.applies(&case(obs)));
        }
        let local = case(crate::gen::ObsSpec::LocalCost);
        assert!(EnginePair::ShiftVsPerJob.applies(&local));
        assert!(!EnginePair::OverlapShiftVsPerJob.applies(&local));
    }

    #[test]
    fn bra_walk_skip_is_caught() {
        // RY(θ) then H: the skipped last sweep moves |0⟩, so every
        // overlap with the unwalked bra is wrong.
        let case = FuzzCase {
            n_qubits: 1,
            ops: vec![
                crate::gen::GenOp::Rotation {
                    gate: plateau_sim::RotationGate::Ry,
                    qubit: 0,
                    angle: 0.4,
                    free: true,
                },
                crate::gen::GenOp::Fixed {
                    gate: plateau_sim::FixedGate::H,
                    qubits: vec![0],
                },
            ],
            obs: crate::gen::ObsSpec::GlobalCost,
        };
        check_pair(EnginePair::OverlapShiftVsPerJob, &case).expect("the engine agrees");
        let m = check_pair(EnginePair::OverlapMutatedVsPerJob, &case)
            .expect_err("bra-walk skip must be detected");
        assert!(m.delta > 0.1, "delta was {}", m.delta);
    }
}
