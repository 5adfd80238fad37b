//! Adjoint differentiation (Jones & Gacon 2020): exact gradients of *all*
//! parameters from one forward pass, one observable application, and one
//! backward sweep — `O(P + G)` state operations instead of the parameter
//! shift's `O(P · G)`.
//!
//! With `E = ⟨ψ|H|ψ⟩`, `ψ = U_N ⋯ U_1 |0⟩`:
//!
//! ```text
//! ∂E/∂θ_k = 2 · Re ⟨λ_k | (∂U_k/∂θ_k) | φ_{k-1}⟩
//! ```
//!
//! where `φ_{k-1} = U_{k-1} ⋯ U_1 |0⟩` and
//! `λ_k = (U_{k+1} ⋯ U_N)† H |ψ⟩`, both maintained incrementally while
//! walking the op list backwards.
//!
//! The backward sweep ends at the earliest op it differentiates: nothing
//! before that op reaches a tangent. A single partial `∂E/∂θ_i` whose
//! earliest owning op is `k` of `N` therefore costs one forward pass plus
//! `N − k` backward steps — for the paper's `θ_last`, only the tail of the
//! last layer. [`Adjoint`]'s `gradient` and `partial`, the compiled entry
//! point and the batched sweeps share one recurrence (`sweep`), generic
//! over the op list and a compiled circuit's segments — each step owns at
//! most one parameter either way — so a partial is bit-identical to the
//! matching entry of the full gradient.
//!
//! This engine powers the paper's variance analysis at scale
//! (200 circuits × 6 initializations × 5 qubit counts × deep circuits).

use crate::engine::{check_index, Evaluator, GradientEngine, Step};
use plateau_linalg::C64;
use plateau_sim::{Circuit, Observable, SimError, State};

/// The adjoint-differentiation gradient engine.
///
/// # Examples
///
/// ```
/// use plateau_grad::{Adjoint, GradientEngine};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(1)?;
/// c.ry(0)?;
/// let obs = Observable::global_cost(1);
/// let theta = 0.8f64;
/// let g = Adjoint.gradient(&c, &[theta], &obs)?;
/// assert!((g[0] - theta.sin() / 2.0).abs() < 1e-12);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Adjoint;

/// The parameters one backward sweep differentiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wrt {
    /// Every parameter: the sweep returns the full gradient.
    All,
    /// Only `θ_i`: the sweep returns `[∂E/∂θ_i]`.
    One(usize),
}

impl Wrt {
    /// Length of the sweep's output for a circuit with `n_params`
    /// parameters.
    fn len(self, n_params: usize) -> usize {
        match self {
            Wrt::All => n_params,
            Wrt::One(_) => 1,
        }
    }

    /// The output slot parameter `index` accumulates into, or `None` when
    /// this sweep does not differentiate it.
    fn slot(self, index: usize) -> Option<usize> {
        match self {
            Wrt::All => Some(index),
            Wrt::One(i) => (i == index).then_some(0),
        }
    }
}

fn inner_re(a: &State, b: &State) -> f64 {
    let mut acc = C64::ZERO;
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes().iter()) {
        acc += x.conj() * *y;
    }
    acc.re
}

/// The sweep's one tangent buffer `μ`, refilled in place from `φ` (and
/// cloned from it on first use) — one allocation per sweep however many
/// parameters it differentiates.
fn refill<'a>(spare: &'a mut Option<State>, phi: &State) -> &'a mut State {
    match spare {
        Some(mu) => mu.copy_from(phi),
        None => *spare = Some(phi.clone()),
    }
    spare.as_mut().expect("filled above")
}

/// Validation and counter/gauge accounting shared by every adjoint entry
/// point ([`Adjoint::gradient`], [`Adjoint`]'s `partial`, the compiled
/// and batched paths), so the routes stay indistinguishable in the
/// metrics. Callers have checked the parameter count.
pub(crate) fn begin_gradient(n_qubits: usize, obs: &Observable) -> Result<(), SimError> {
    if obs.n_qubits() != n_qubits {
        return Err(SimError::ObservableMismatch {
            observable_qubits: obs.n_qubits(),
            state_qubits: n_qubits,
        });
    }
    plateau_obs::counter!("grad.gradients.adjoint").inc();
    // One forward run plus one backward sweep, regardless of the
    // parameter count — the whole point of the adjoint method.
    plateau_obs::counter!("grad.executions.adjoint").add(2);
    // Working set: φ, λ, and the reused tangent μ — at most three
    // statevectors of 2^n complex amplitudes.
    plateau_obs::gauge!("grad.scratch.bytes").set((3usize << n_qubits) as f64 * 16.0);
    Ok(())
}

/// The adjoint recurrence over `steps` — the op list or a compiled
/// circuit's segments, each owning at most one parameter — ending at the
/// earliest step that owns a parameter in `wrt`. `forward` runs the
/// whole circuit from `|0…0⟩`; it is skipped when `wrt` owns no step.
/// Callers have validated the parameter vector and the observable width
/// and emitted the counters.
pub(crate) fn sweep<S: Step>(
    steps: &[S],
    n_params: usize,
    forward: impl FnOnce() -> Result<State, SimError>,
    params: &[f64],
    obs: &Observable,
    wrt: Wrt,
) -> Result<Vec<f64>, SimError> {
    let mut grad = vec![0.0; wrt.len(n_params)];
    let slot_of = |step: &S| step.free_param().and_then(|i| wrt.slot(i));
    let Some(stop) = steps.iter().position(|step| slot_of(step).is_some()) else {
        return Ok(grad);
    };
    // Forward pass: φ = U|0⟩.
    let mut phi = forward()?;
    // λ = H|ψ⟩ (generally unnormalized).
    let mut lambda = State::from_amplitudes_unnormalized(obs.apply_raw(&phi)?)?;

    let mut spare = None;
    for (k, step) in steps.iter().enumerate().skip(stop).rev() {
        // φ ← U_k† φ (now the state before step k).
        step.apply_inverse(&mut phi, params)?;
        if let Some(slot) = slot_of(step) {
            // μ = (∂U_k/∂θ) φ, built in φ itself at the stop step
            // (nothing reads φ after it).
            let mu = if k == stop { &mut phi } else { refill(&mut spare, &phi) };
            step.apply_derivative(mu, params)?;
            grad[slot] += 2.0 * inner_re(&lambda, mu);
        }
        if k > stop {
            // λ ← U_k† λ.
            step.apply_inverse(&mut lambda, params)?;
        }
    }
    Ok(grad)
}

/// Adjoint gradient over an already-compiled circuit — the warm path for
/// callers (the serve front-end's LRU, long-lived training loops) that
/// compile once and differentiate many times. The same validation and
/// metrics as [`Adjoint::gradient`], which walks the op list instead;
/// the two agree to rounding, and this one is bit-identical to a
/// [`crate::BatchExecutor`]'s adjoint sweeps over the same circuit.
///
/// # Errors
///
/// Returns [`SimError`] for a parameter-count mismatch or an observable
/// whose width disagrees with the circuit.
///
/// # Examples
///
/// ```
/// use plateau_sim::{compile, Circuit, Observable};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0)?.ry(1)?.cz(0, 1)?;
/// let compiled = compile(&c);
/// let obs = Observable::global_cost(2);
/// let g = plateau_grad::adjoint_gradient_compiled(&compiled, &[0.3, -0.7], &obs)?;
/// assert_eq!(g.len(), 2);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub fn adjoint_gradient_compiled(
    compiled: &plateau_sim::CompiledCircuit,
    params: &[f64],
    obs: &Observable,
) -> Result<Vec<f64>, SimError> {
    compiled_sweep(compiled, params, obs, Wrt::All)
}

/// [`sweep`] over a compiled circuit's segments, with the validation and
/// accounting of every adjoint entry point.
pub(crate) fn compiled_sweep(
    compiled: &plateau_sim::CompiledCircuit,
    params: &[f64],
    obs: &Observable,
    wrt: Wrt,
) -> Result<Vec<f64>, SimError> {
    compiled.check_params(params)?;
    begin_gradient(compiled.n_qubits(), obs)?;
    let forward = || compiled.run(params);
    sweep(compiled.segments(), compiled.n_params(), forward, params, obs, wrt)
}

impl GradientEngine for Adjoint {
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        // One gradient runs the circuit O(1) times: walk the op list.
        // Callers that differentiate one circuit many times compile once
        // and use `adjoint_gradient_compiled` or a `BatchExecutor`.
        Evaluator::Raw(circuit).adjoint(params, obs, Wrt::All)
    }

    /// One forward pass plus the backward sweep from the last op down to
    /// the earliest op owning `θ_index` — bit-identical to
    /// `gradient(..)[index]`, and the same counter accounting as one
    /// gradient.
    fn partial(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
        index: usize,
    ) -> Result<f64, SimError> {
        check_index(circuit, index)?;
        Ok(Evaluator::Raw(circuit).adjoint(params, obs, Wrt::One(index))?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::ParameterShift;
    use crate::testkit::{random_case, RandomCase};
    use plateau_sim::{PauliString, RotationGate};

    fn pseudo_angles(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + 1.0) * seed * 7.9).sin() * 2.0)
            .collect()
    }

    fn hea_circuit(n_qubits: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n_qubits).unwrap();
        for l in 0..layers {
            for q in 0..n_qubits {
                match (l + q) % 3 {
                    0 => c.rx(q).unwrap(),
                    1 => c.ry(q).unwrap(),
                    _ => c.rz(q).unwrap(),
                };
            }
            for q in 0..n_qubits.saturating_sub(1) {
                c.cz(q, q + 1).unwrap();
            }
        }
        c
    }

    #[test]
    fn single_ry_analytic() {
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let obs = Observable::global_cost(1);
        for theta in [-1.7f64, 0.0, 0.4, 2.9] {
            let g = Adjoint.gradient(&c, &[theta], &obs).unwrap();
            assert!((g[0] - theta.sin() / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_parameter_shift_on_hea() {
        for (n, layers, seed) in [(2, 2, 0.3), (3, 3, 0.7), (4, 2, 1.1)] {
            let c = hea_circuit(n, layers);
            let params = pseudo_angles(c.n_params(), seed);
            let obs = Observable::global_cost(n);
            let adj = Adjoint.gradient(&c, &params, &obs).unwrap();
            let shift = ParameterShift.gradient(&c, &params, &obs).unwrap();
            for (a, s) in adj.iter().zip(shift.iter()) {
                assert!((a - s).abs() < 1e-10, "adjoint {a} vs shift {s}");
            }
        }
    }

    #[test]
    fn matches_parameter_shift_local_cost_and_pauli() {
        let c = hea_circuit(3, 2);
        let params = pseudo_angles(c.n_params(), 0.9);
        for obs in [
            Observable::local_cost(3),
            Observable::zero_projector(3),
            Observable::pauli(PauliString::parse("ZZI").unwrap()).unwrap(),
            Observable::pauli(PauliString::parse("XIY").unwrap()).unwrap(),
        ] {
            let adj = Adjoint.gradient(&c, &params, &obs).unwrap();
            let shift = ParameterShift.gradient(&c, &params, &obs).unwrap();
            for (a, s) in adj.iter().zip(shift.iter()) {
                assert!((a - s).abs() < 1e-10, "{obs}: {a} vs {s}");
            }
        }
    }

    #[test]
    fn handles_fixed_gates_interleaved() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.rx(1).unwrap();
        c.cz(0, 1).unwrap();
        c.push_fixed(plateau_sim::FixedGate::T, &[0]).unwrap();
        c.ry(0).unwrap();
        let params = [0.5, -0.8];
        let obs = Observable::global_cost(2);
        let adj = Adjoint.gradient(&c, &params, &obs).unwrap();
        let shift = ParameterShift.gradient(&c, &params, &obs).unwrap();
        for (a, s) in adj.iter().zip(shift.iter()) {
            assert!((a - s).abs() < 1e-10);
        }
    }

    #[test]
    fn handles_controlled_rotations() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap().h(1).unwrap();
        c.push_controlled_rotation(RotationGate::Rz, 0, 1).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 1, 0).unwrap();
        let params = [1.3, -0.4];
        let obs = Observable::global_cost(2);
        let adj = Adjoint.gradient(&c, &params, &obs).unwrap();
        let shift = ParameterShift.gradient(&c, &params, &obs).unwrap();
        for (a, s) in adj.iter().zip(shift.iter()) {
            assert!((a - s).abs() < 1e-10, "{a} vs {s}");
        }
    }

    #[test]
    fn handles_two_qubit_rotations() {
        // RXX/RYY/RZZ ansatz: parameterized entanglers instead of CZ.
        let mut c = Circuit::new(3).unwrap();
        c.ry(0).unwrap().ry(1).unwrap().ry(2).unwrap();
        c.rxx(0, 1).unwrap();
        c.ryy(1, 2).unwrap();
        c.rzz(0, 2).unwrap();
        c.rx(1).unwrap();
        let params = pseudo_angles(c.n_params(), 0.57);
        for obs in [Observable::global_cost(3), Observable::local_cost(3)] {
            let adj = Adjoint.gradient(&c, &params, &obs).unwrap();
            let shift = ParameterShift.gradient(&c, &params, &obs).unwrap();
            for (a, s) in adj.iter().zip(shift.iter()) {
                assert!((a - s).abs() < 1e-10, "{obs}: {a} vs {s}");
            }
        }
    }

    #[test]
    fn fused_sweep_matches_the_raw_op_walk() {
        // Dozens of state allocations: hold the obs lock so the
        // counter-pinning tests in this binary never see them.
        let _guard = plateau_obs::test_lock();
        // Six qubits: each five-CZ chain becomes a superkernel, and the
        // first rotation layer the product-state prologue.
        let c = hea_circuit(6, 3);
        let params = pseudo_angles(c.n_params(), 0.63);
        let compiled = plateau_sim::compile(&c);
        assert_eq!(compiled.superkernels(), 3);
        assert_eq!(compiled.prologue_len(), 6);
        for obs in [Observable::global_cost(6), Observable::local_cost(6)] {
            let raw = Adjoint.gradient(&c, &params, &obs).unwrap();
            let fused = adjoint_gradient_compiled(&compiled, &params, &obs).unwrap();
            for (r, f) in raw.iter().zip(fused.iter()) {
                assert!((r - f).abs() < 1e-12, "{obs}: {r} vs {f}");
            }
        }
    }

    #[test]
    fn fused_sweep_handles_controlled_and_two_qubit_rotations() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap().h(1).unwrap().h(2).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 1).unwrap();
        c.rxx(1, 2).unwrap();
        c.rzz(0, 1).unwrap();
        c.ry(2).unwrap();
        let params = pseudo_angles(c.n_params(), 0.41);
        let obs = Observable::global_cost(3);
        let raw = Adjoint.gradient(&c, &params, &obs).unwrap();
        let fused = adjoint_gradient_compiled(&plateau_sim::compile(&c), &params, &obs).unwrap();
        for (r, f) in raw.iter().zip(fused.iter()) {
            assert!((r - f).abs() < 1e-10, "{r} vs {f}");
        }
    }

    #[test]
    fn gradient_at_zero_params_of_identity_learner_is_zero() {
        // At θ = 0 the circuit is the identity, the cost sits at its global
        // minimum (C = 0), so the gradient must vanish.
        let n = 3;
        let mut c = Circuit::new(n).unwrap();
        for q in 0..n {
            c.rx(q).unwrap();
            c.ry(q).unwrap();
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1).unwrap();
        }
        let obs = Observable::global_cost(n);
        let g = Adjoint.gradient(&c, &vec![0.0; c.n_params()], &obs).unwrap();
        for gi in g {
            assert!(gi.abs() < 1e-12);
        }
    }

    #[test]
    fn error_paths() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap();
        assert!(Adjoint.gradient(&c, &[], &Observable::global_cost(2)).is_err());
        assert!(Adjoint
            .gradient(&c, &[0.1], &Observable::global_cost(3))
            .is_err());
    }

    #[test]
    fn compiled_entry_point_matches_raw_adjoint() {
        let c = hea_circuit(4, 3);
        let params = pseudo_angles(c.n_params(), 0.57);
        let obs = Observable::pauli(PauliString::parse("ZXZY").unwrap()).unwrap();
        let raw = Adjoint.gradient(&c, &params, &obs).unwrap();
        let compiled = plateau_sim::compile(&c);
        let warm = super::adjoint_gradient_compiled(&compiled, &params, &obs).unwrap();
        assert_eq!(raw.len(), warm.len());
        for (r, w) in raw.iter().zip(warm.iter()) {
            assert!((r - w).abs() < 1e-10, "{r} vs {w}");
        }
        // Same validation surface as the engine entry point.
        assert!(super::adjoint_gradient_compiled(&compiled, &[], &obs).is_err());
        assert!(super::adjoint_gradient_compiled(
            &compiled,
            &params,
            &Observable::global_cost(5)
        )
        .is_err());
    }

    /// `Wrt::One(i)`'s sweep must reproduce entry `i` of `Wrt::All`'s to
    /// the bit.
    fn check_partials(
        what: &str,
        n_params: usize,
        sweep: impl Fn(Wrt) -> Result<Vec<f64>, SimError>,
    ) -> Result<(), String> {
        let full = sweep(Wrt::All).map_err(|e| format!("{what} gradient: {e}"))?;
        if full.len() != n_params {
            return Err(format!("{what}: gradient has {} entries, not {n_params}", full.len()));
        }
        for (i, g) in full.iter().enumerate() {
            let one = sweep(Wrt::One(i)).map_err(|e| format!("{what} partial {i}: {e}"))?;
            if one.len() != 1 || one[0].to_bits() != g.to_bits() {
                return Err(format!("{what}: partial {i} = {one:?}, gradient entry {g}"));
            }
        }
        Ok(())
    }

    #[test]
    fn partial_is_bit_identical_to_the_gradient_entry() {
        // Thousands of state allocations: hold the obs lock so the
        // counter-pinning tests in this binary never see them.
        let _guard = plateau_obs::test_lock();
        let cases = plateau_rng::check::cases(64);
        plateau_rng::check::forall(0xad70_1a57, cases, random_case, |case| {
            let RandomCase { circuit, params, obs } = case;
            let p = circuit.n_params();
            // The recurrence over both forms.
            check_partials("raw", p, |wrt| Evaluator::Raw(circuit).adjoint(params, obs, wrt))?;
            let compiled = Evaluator::Fused(plateau_sim::compile(circuit));
            check_partials("fused", p, |wrt| compiled.adjoint(params, obs, wrt))?;
            // And the public engine entry points.
            let full = Adjoint.gradient(circuit, params, obs).map_err(|e| e.to_string())?;
            for (i, g) in full.iter().enumerate() {
                let one = Adjoint.partial(circuit, params, obs, i).map_err(|e| e.to_string())?;
                if one.to_bits() != g.to_bits() {
                    return Err(format!("Adjoint.partial({i}) = {one}, gradient entry {g}"));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn partial_errors_match_the_gradient_projection() {
        /// The trait's default `partial`: project the full gradient.
        struct Projected;
        impl GradientEngine for Projected {
            fn gradient(
                &self,
                circuit: &Circuit,
                params: &[f64],
                obs: &Observable,
            ) -> Result<Vec<f64>, SimError> {
                Adjoint.gradient(circuit, params, obs)
            }
        }
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().cz(0, 1).unwrap().ry(1).unwrap();
        let obs = Observable::global_cost(2);
        let wide = Observable::global_cost(3);
        for (params, obs, index) in [
            (&[0.3, -0.2][..], &obs, 2), // index out of range
            (&[0.3][..], &obs, 0),       // wrong parameter count
            (&[0.3, -0.2][..], &wide, 1), // observable width mismatch
            (&[0.3, -0.2][..], &obs, 1), // valid
        ] {
            assert_eq!(
                Adjoint.partial(&c, params, obs, index),
                Projected.partial(&c, params, obs, index)
            );
        }
        assert_eq!(
            Adjoint.partial(&c, &[0.3, -0.2], &obs, 2),
            Err(SimError::ParamOutOfRange { index: 2, n_params: 2 })
        );
        let bare = Circuit::new(1).unwrap();
        let obs1 = Observable::global_cost(1);
        assert_eq!(
            Adjoint.partial_last(&bare, &[], &obs1),
            Err(SimError::ParamOutOfRange { index: 0, n_params: 0 })
        );
        assert_eq!(
            Adjoint.partial_last(&bare, &[], &obs1),
            Projected.partial_last(&bare, &[], &obs1)
        );
    }
}
