//! Fubini–Study metric tensor — the geometric object behind the quantum
//! natural gradient (Stokes et al.; discussed as a barren-plateau
//! mitigation in the paper's related work §II-b).
//!
//! For a variational state `|ψ(θ)⟩`,
//!
//! ```text
//! G_ij = Re[ ⟨∂_i ψ | ∂_j ψ⟩ − ⟨∂_i ψ | ψ⟩ ⟨ψ | ∂_j ψ⟩ ]
//! ```
//!
//! The QNG step preconditions the gradient with `G⁻¹`, following the
//! steepest descent direction in state space rather than parameter space.
//!
//! # Examples
//!
//! ```
//! use plateau_grad::metric_tensor;
//! use plateau_sim::Circuit;
//!
//! // A single RY rotation: the Bloch-sphere line element gives G = [1/4].
//! let mut c = Circuit::new(1)?;
//! c.ry(0)?;
//! let g = metric_tensor(&c, &[0.7])?;
//! assert!((g[(0, 0)] - 0.25).abs() < 1e-12);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use plateau_linalg::{RMatrix, C64};
use plateau_sim::{Circuit, SimError, State};

/// Computes the (generally unnormalized) tangent vector
/// `|∂ψ/∂θ_index⟩ = Σ_k U_N ⋯ (∂U_k/∂θ) ⋯ U_1 |0⟩`, summing over every op
/// that references the parameter.
///
/// # Errors
///
/// Returns [`SimError::ParamOutOfRange`] for a bad index and propagates
/// execution errors.
pub fn tangent_state(
    circuit: &Circuit,
    params: &[f64],
    index: usize,
) -> Result<State, SimError> {
    circuit.check_params(params)?;
    if index >= circuit.n_params() {
        return Err(SimError::ParamOutOfRange {
            index,
            n_params: circuit.n_params(),
        });
    }

    let dim = 1usize << circuit.n_qubits();
    let mut total = vec![C64::ZERO; dim];
    for (k, op) in circuit.ops().iter().enumerate() {
        if op.free_param() != Some(index) {
            continue;
        }
        // One derivative insertion at position k.
        let mut state = State::zero(circuit.n_qubits());
        for (j, other) in circuit.ops().iter().enumerate() {
            if j == k {
                other.apply_derivative(&mut state, params)?;
            } else {
                other.apply(&mut state, params)?;
            }
        }
        for (i, t) in total.iter_mut().enumerate() {
            *t += state.amplitude(i);
        }
    }
    State::from_amplitudes_unnormalized(total)
}

/// Computes the full `P × P` Fubini–Study metric tensor at `params`.
///
/// Cost: `P` tangent-state constructions of `O(G)` gate applications each,
/// plus `O(P² · 2^n)` inner products.
///
/// # Errors
///
/// Propagates parameter-count and execution errors.
pub fn metric_tensor(circuit: &Circuit, params: &[f64]) -> Result<RMatrix, SimError> {
    circuit.check_params(params)?;
    let p = circuit.n_params();
    let psi = circuit.run(params)?;
    let tangents: Vec<State> = (0..p)
        .map(|i| tangent_state(circuit, params, i))
        .collect::<Result<_, _>>()?;

    let inner = |a: &State, b: &State| a.inner(b).expect("states of one circuit");

    let berry: Vec<C64> = tangents.iter().map(|t| inner(t, &psi)).collect();
    let mut g = RMatrix::zeros(p.max(1), p.max(1));
    for i in 0..p {
        for j in i..p {
            let overlap = inner(&tangents[i], &tangents[j]);
            let correction = berry[i] * berry[j].conj();
            let val = (overlap - correction).re;
            g[(i, j)] = val;
            g[(j, i)] = val;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_sim::Observable;

    fn finite_diff_tangent(circuit: &Circuit, params: &[f64], i: usize, eps: f64) -> Vec<C64> {
        let mut plus = params.to_vec();
        plus[i] += eps;
        let mut minus = params.to_vec();
        minus[i] -= eps;
        let sp = circuit.run(&plus).unwrap();
        let sm = circuit.run(&minus).unwrap();
        sp.to_amplitudes()
            .iter()
            .zip(&sm.to_amplitudes())
            .map(|(a, b)| (*a - *b) / (2.0 * eps))
            .collect()
    }

    #[test]
    fn single_ry_metric_is_quarter() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        for theta in [0.0, 0.9, -2.0] {
            let g = metric_tensor(&c, &[theta]).unwrap();
            assert!((g[(0, 0)] - 0.25).abs() < 1e-12, "θ={theta}");
        }
    }

    #[test]
    fn rx_then_ry_block_metric() {
        let _guard = plateau_obs::test_lock();
        // Known PennyLane example: ψ = RY(b) RX(a) |0⟩ has
        // G = diag(1/4, cos²(a)/4).
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap().ry(0).unwrap();
        let a = 0.63;
        let g = metric_tensor(&c, &[a, -1.1]).unwrap();
        assert!((g[(0, 0)] - 0.25).abs() < 1e-10);
        assert!((g[(1, 1)] - a.cos().powi(2) / 4.0).abs() < 1e-10);
        assert!(g[(0, 1)].abs() < 1e-10);
    }

    #[test]
    fn tangent_matches_finite_difference() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rz(0).unwrap();
        let params = [0.4, -0.8, 1.3];
        for i in 0..3 {
            let analytic = tangent_state(&c, &params, i).unwrap();
            let fd = finite_diff_tangent(&c, &params, i, 1e-6);
            for (a, b) in analytic.to_amplitudes().iter().zip(fd.iter()) {
                assert!(a.approx_eq(*b, 1e-7), "param {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn metric_matches_finite_difference_construction() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rx(0).unwrap().rx(1).unwrap();
        let params = [0.3, 0.7, -0.4, 1.2];
        let g = metric_tensor(&c, &params).unwrap();

        let psi = c.run(&params).unwrap();
        let eps = 1e-5;
        let tangents: Vec<Vec<C64>> =
            (0..4).map(|i| finite_diff_tangent(&c, &params, i, eps)).collect();
        let inner = |a: &[C64], b: &[C64]| -> C64 {
            a.iter().zip(b.iter()).map(|(x, y)| x.conj() * *y).sum()
        };
        for i in 0..4 {
            for j in 0..4 {
                let overlap = inner(&tangents[i], &tangents[j]);
                let bi = inner(&tangents[i], &psi.to_amplitudes());
                let bj = inner(&psi.to_amplitudes(), &tangents[j]);
                let expected = (overlap - bi * bj).re;
                assert!(
                    (g[(i, j)] - expected).abs() < 1e-6,
                    "G[{i}][{j}]: {} vs {expected}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn metric_is_symmetric_psd_diagonal_bounded() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(3).unwrap();
        for q in 0..3 {
            c.rx(q).unwrap();
            c.ry(q).unwrap();
        }
        c.cz(0, 1).unwrap();
        c.cz(1, 2).unwrap();
        let params: Vec<f64> = (0..6).map(|i| (i as f64) * 0.43 - 1.0).collect();
        let g = metric_tensor(&c, &params).unwrap();
        for i in 0..6 {
            // Pauli-rotation diagonal entries are Var(G)/4 ≤ 1/4.
            assert!(g[(i, i)] >= -1e-12 && g[(i, i)] <= 0.25 + 1e-12);
            for j in 0..6 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gradient_relates_to_tangent_state() {
        let _guard = plateau_obs::test_lock();
        // dC/dθ = 2 Re⟨ψ|H|∂ψ⟩ — cross-check tangent against adjoint.
        use crate::{Adjoint, GradientEngine};
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().cz(0, 1).unwrap().rx(1).unwrap();
        let params = [0.9, -0.6];
        let obs = Observable::global_cost(2);
        let psi = c.run(&params).unwrap();
        let h_psi = obs.apply_raw(&psi).unwrap();
        let grad = Adjoint.gradient(&c, &params, &obs).unwrap();
        for i in 0..2 {
            let t = tangent_state(&c, &params, i).unwrap();
            let ip = h_psi.inner(&t).unwrap();
            assert!((2.0 * ip.re - grad[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn error_paths() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        assert!(tangent_state(&c, &[0.1], 5).is_err());
        assert!(tangent_state(&c, &[], 0).is_err());
        assert!(metric_tensor(&c, &[]).is_err());
    }
}
