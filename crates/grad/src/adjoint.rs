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
//! last layer. [`Adjoint`]'s `gradient` and `partial`,
//! [`adjoint_value_and_gradient`] and the batched sweeps share one
//! recurrence over the circuit's sweeps — a CZ layer steps back as one
//! sweep, being its own inverse, and owns no parameter — so a partial is
//! bit-identical to the matching entry of the full gradient. That walk
//! (`walk_back`) is also the parameter shift's on a rank-one cost, whose
//! bra starts at `|0…0⟩` instead of `H|ψ⟩` (see [`crate::BatchExecutor`]).
//!
//! This engine powers the paper's variance analysis at scale
//! (200 circuits × 6 initializations × 5 qubit counts × deep circuits).

use crate::engine::{check_index, GradientEngine};
use plateau_sim::{Circuit, Observable, Op, SimError, State};

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

/// `Re⟨a|b⟩` read from the planes. `Re(conj(x)·y)` is
/// `x.re·y.re − (−x.im)·y.im`, and `u − (−v)` is `u + v` exactly, so this
/// is bit for bit the real part of the complex sum `Σ conj(x)·y`.
fn inner_re(a: &State, b: &State) -> f64 {
    let n = a.dim();
    let (ar, ai) = (&a.re()[..n], &a.im()[..n]);
    let (br, bi) = (&b.re()[..n], &b.im()[..n]);
    let mut acc = 0.0;
    for i in 0..n {
        acc += ar[i] * br[i] + ai[i] * bi[i];
    }
    acc
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
/// point ([`Adjoint::gradient`], [`Adjoint`]'s `partial`,
/// [`adjoint_value_and_gradient`] and the batched paths), so the routes
/// stay indistinguishable in the metrics.
fn begin_gradient(circuit: &Circuit, params: &[f64], obs: &Observable) -> Result<(), SimError> {
    circuit.check_params(params)?;
    let n_qubits = circuit.n_qubits();
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

/// The adjoint recurrence over `circuit`'s sweeps, ending at the
/// earliest op that owns a parameter in `wrt`, with the validation and
/// accounting of every entry point. `value`, when given, receives the
/// cost `⟨ψ|H|ψ⟩` of the forward state; without it the forward run is
/// skipped when `wrt` owns no op.
pub(crate) fn adjoint(
    circuit: &Circuit,
    params: &[f64],
    obs: &Observable,
    wrt: Wrt,
    value: Option<&mut f64>,
) -> Result<Vec<f64>, SimError> {
    begin_gradient(circuit, params, obs)?;
    let mut grad = vec![0.0; wrt.len(circuit.n_params())];
    let ops = circuit.ops();
    let slot_of = |op: &Op| op.free_param().and_then(|i| wrt.slot(i));
    let stop = ops.iter().position(|op| slot_of(op).is_some());
    if stop.is_none() && value.is_none() {
        return Ok(grad);
    }
    // Forward pass: φ = U|0⟩.
    let mut phi = circuit.run(params)?;
    if let Some(v) = value {
        *v = obs.expectation(&phi)?;
    }
    let Some(stop) = stop else { return Ok(grad) };
    // λ = H|ψ⟩ (generally unnormalized).
    let mut lambda = obs.apply_raw(&phi)?;

    let mut spare = None;
    walk_back(circuit, params, stop, ops.len(), &mut phi, &mut lambda, |k, phi, lambda| {
        if let Some(slot) = slot_of(&ops[k]) {
            // μ = (∂U_k/∂θ) φ, built in φ itself at the stop op (nothing
            // reads φ after it).
            let mu = if k == stop { phi } else { refill(&mut spare, phi) };
            ops[k].apply_derivative(mu, params)?;
            grad[slot] += 2.0 * inner_re(lambda, mu);
        }
        Ok(())
    })?;
    Ok(grad)
}

/// The backward walk every reverse-mode read-out shares: over `circuit`'s
/// sweeps from the last down to the one at op `stop`, carrying a ket `φ`
/// and a bra. `φ` holds the state after ops `[0, phi_end)`, where
/// `phi_end` is the op count or the start of a sweep; sweeps at or past
/// `phi_end` leave it alone, and each earlier one steps it back
/// (`φ ← U_k† φ`) to the state before sweep `k`. Then `read(k, φ, bra)`
/// runs, with the bra holding `(U_{k+1} ⋯ U_N)†` applied to its start;
/// then, above `stop`, the bra steps back through sweep `k` too.
///
/// A parameter's op is a sweep of its own, so `read` sees every op that
/// can own one; a CZ layer's first op owns none.
pub(crate) fn walk_back(
    circuit: &Circuit,
    params: &[f64],
    stop: usize,
    phi_end: usize,
    phi: &mut State,
    bra: &mut State,
    mut read: impl FnMut(usize, &mut State, &State) -> Result<(), SimError>,
) -> Result<(), SimError> {
    for (k, step) in circuit.sweeps(stop..circuit.gate_count()).rev() {
        if k < phi_end {
            step.apply_inverse(phi, params)?;
        }
        read(k, phi, bra)?;
        if k > stop {
            step.apply_inverse(bra, params)?;
        }
    }
    Ok(())
}

/// The adjoint gradient together with the cost `⟨ψ|H|ψ⟩` of the forward
/// state, read before `λ = H|ψ⟩` is built: one run of the circuit serves
/// both, where [`Adjoint::gradient`] followed by a separate run runs it
/// twice. Both values are bit-identical to that two-run computation.
///
/// # Errors
///
/// Returns [`SimError`] for a parameter-count mismatch or an observable
/// whose width disagrees with the circuit.
///
/// # Examples
///
/// ```
/// use plateau_grad::{adjoint_value_and_gradient, Adjoint, GradientEngine};
/// use plateau_sim::{Circuit, Observable};
///
/// let mut c = Circuit::new(2)?;
/// c.ry(0)?.ry(1)?.cz(0, 1)?;
/// let obs = Observable::global_cost(2);
/// let (value, grad) = adjoint_value_and_gradient(&c, &[0.3, -0.7], &obs)?;
/// assert_eq!(grad, Adjoint.gradient(&c, &[0.3, -0.7], &obs)?);
/// assert_eq!(value, obs.expectation(&c.run(&[0.3, -0.7])?)?);
/// # Ok::<(), plateau_sim::SimError>(())
/// ```
pub fn adjoint_value_and_gradient(
    circuit: &Circuit,
    params: &[f64],
    obs: &Observable,
) -> Result<(f64, Vec<f64>), SimError> {
    let mut value = 0.0;
    let grad = adjoint(circuit, params, obs, Wrt::All, Some(&mut value))?;
    Ok((value, grad))
}

impl GradientEngine for Adjoint {
    fn gradient(
        &self,
        circuit: &Circuit,
        params: &[f64],
        obs: &Observable,
    ) -> Result<Vec<f64>, SimError> {
        adjoint(circuit, params, obs, Wrt::All, None)
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
        Ok(adjoint(circuit, params, obs, Wrt::One(index), None)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::ParameterShift;
    use crate::testkit::{random_case, RandomCase};
    use plateau_sim::{PauliString, RotationGate, Sweep};

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

    /// The adjoint recurrence written out op by op — a gate-by-gate
    /// forward run, every CZ stepped back on its own — as the oracle for
    /// the sweeps' prologue and CZ layers.
    fn gate_by_gate_adjoint(c: &Circuit, params: &[f64], obs: &Observable) -> Vec<f64> {
        let mut phi = State::zero(c.n_qubits());
        for op in c.ops() {
            op.apply(&mut phi, params).unwrap();
        }
        let mut lambda = obs.apply_raw(&phi).unwrap();
        let mut grad = vec![0.0; c.n_params()];
        for op in c.ops().iter().rev() {
            op.apply_inverse(&mut phi, params).unwrap();
            if let Some(i) = op.free_param() {
                let mut mu = phi.clone();
                op.apply_derivative(&mut mu, params).unwrap();
                grad[i] += 2.0 * inner_re(&lambda, &mu);
            }
            op.apply_inverse(&mut lambda, params).unwrap();
        }
        grad
    }

    #[test]
    fn fused_sweep_matches_the_raw_op_walk() {
        // Dozens of state allocations: hold the obs lock so the
        // counter-pinning tests in this binary never see them.
        // Six qubits: each five-CZ chain is one CZ layer, and the first
        // rotation layer the product-state prologue.
        let c = hea_circuit(6, 3);
        let params = pseudo_angles(c.n_params(), 0.63);
        assert_eq!(c.prologue_len(), 6);
        let layers = c.sweeps(0..c.gate_count());
        assert_eq!(layers.filter(|(_, s)| matches!(s, Sweep::CzLayer(_))).count(), 3);
        for obs in [Observable::global_cost(6), Observable::local_cost(6)] {
            let fused = Adjoint.gradient(&c, &params, &obs).unwrap();
            let raw = gate_by_gate_adjoint(&c, &params, &obs);
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
        c.cz(0, 2).unwrap().cz(1, 2).unwrap();
        c.rxx(1, 2).unwrap();
        c.rzz(0, 1).unwrap();
        c.ry(2).unwrap();
        let params = pseudo_angles(c.n_params(), 0.41);
        let obs = Observable::global_cost(3);
        let fused = Adjoint.gradient(&c, &params, &obs).unwrap();
        let raw = gate_by_gate_adjoint(&c, &params, &obs);
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
        let warm = crate::adjoint_gradient_compiled(&compiled, &params, &obs).unwrap();
        assert_eq!(raw, warm);
        // Same validation surface as the engine entry point.
        assert!(crate::adjoint_gradient_compiled(&compiled, &[], &obs).is_err());
        assert!(crate::adjoint_gradient_compiled(
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
        let cases = plateau_rng::check::cases(64);
        plateau_rng::check::forall(0xad70_1a57, cases, random_case, |case| {
            let RandomCase { circuit, params, obs } = case;
            let p = circuit.n_params();
            // The recurrence itself.
            check_partials("sweep", p, |wrt| adjoint(circuit, params, obs, wrt, None))?;
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
