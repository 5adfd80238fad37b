//! Exact Hessians via the double parameter-shift rule.
//!
//! For parameters whose gates obey the two-term shift rule (all Pauli and
//! Pauli-product rotations), second derivatives are exact trigonometric
//! identities:
//!
//! ```text
//! ∂²E/∂θ_i∂θ_j = [ E(+s_i,+s_j) − E(+s_i,−s_j) − E(−s_i,+s_j) + E(−s_i,−s_j) ] / 4
//! ```
//!
//! with `s = π/2` on both axes (the `i = j` case degenerates to shifts of
//! `±π` and the identity `∂²E/∂θ² = (E(θ+π) + E(θ−π) − 2E(θ))·…` handled
//! by the same four-point formula).
//!
//! Cerezo & Coles (2021) showed barren plateaus flatten second derivatives
//! at the same exponential rate as gradients — the `hessian_decay`
//! ablation uses this module to verify that on our substrate.

use crate::engine::expectation;
use plateau_linalg::{eigh, c64, CMatrix, RMatrix};
use plateau_sim::{Circuit, Observable, Op, SimError};
use std::f64::consts::FRAC_PI_2;

/// Verifies every free parameter obeys the two-term rule (no controlled
/// rotations), which the double-shift Hessian formula requires.
fn check_two_term(circuit: &Circuit) -> Result<(), SimError> {
    for op in circuit.ops() {
        if op.free_param().is_some() {
            if let Op::ControlledRotation { gate, .. } = op {
                return Err(SimError::WrongArity {
                    gate: format!("hessian of controlled {gate}"),
                    expected: 2,
                    found: 4,
                });
            }
        }
    }
    Ok(())
}

/// Computes the full `P × P` Hessian of the cost at `params` by the double
/// parameter-shift rule (`O(P²)` circuit evaluations).
///
/// # Errors
///
/// Returns [`SimError::WrongArity`] if the circuit contains trainable
/// controlled rotations (four-term parameters), plus the usual
/// parameter/observable mismatches.
pub fn hessian(
    circuit: &Circuit,
    params: &[f64],
    obs: &Observable,
) -> Result<RMatrix, SimError> {
    circuit.check_params(params)?;
    check_two_term(circuit)?;
    let p = params.len();
    let mut h = RMatrix::zeros(p.max(1), p.max(1));
    let mut work = params.to_vec();
    for i in 0..p {
        for j in i..p {
            let mut value = 0.0;
            for (si, sj, sign) in [
                (FRAC_PI_2, FRAC_PI_2, 1.0),
                (FRAC_PI_2, -FRAC_PI_2, -1.0),
                (-FRAC_PI_2, FRAC_PI_2, -1.0),
                (-FRAC_PI_2, -FRAC_PI_2, 1.0),
            ] {
                work.copy_from_slice(params);
                work[i] += si;
                work[j] += sj;
                value += sign * expectation(circuit, &work, obs)?;
            }
            let entry = value / 4.0;
            h[(i, j)] = entry;
            h[(j, i)] = entry;
        }
    }
    Ok(h)
}

/// Largest absolute eigenvalue (spectral norm) of a symmetric Hessian.
///
/// # Errors
///
/// Returns [`SimError::DimensionMismatch`] when the eigendecomposition
/// fails.
pub fn spectral_norm(h: &RMatrix) -> Result<f64, SimError> {
    let n = h.rows();
    let complex = CMatrix::from_fn(n, n, |i, j| c64(h[(i, j)], 0.0));
    let eig = eigh(&complex, 1e-10, 300).map_err(|_| SimError::DimensionMismatch {
        expected: n,
        found: h.cols(),
    })?;
    Ok(eig
        .values
        .iter()
        .fold(0.0f64, |acc, v| acc.max(v.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_sim::RotationGate;

    #[test]
    fn single_ry_hessian_analytic() {
        // C(θ) = sin²(θ/2) → C''(θ) = cos(θ)/2.
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let obs = Observable::global_cost(1);
        for theta in [-1.3f64, 0.0, 0.8, 2.5] {
            let h = hessian(&c, &[theta], &obs).unwrap();
            assert!(
                (h[(0, 0)] - theta.cos() / 2.0).abs() < 1e-12,
                "θ={theta}: {} vs {}",
                h[(0, 0)],
                theta.cos() / 2.0
            );
        }
    }

    #[test]
    fn hessian_matches_finite_differences() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().ry(0).unwrap();
        let obs = Observable::global_cost(2);
        let params = [0.4, -0.9, 1.3];
        let h = hessian(&c, &params, &obs).unwrap();

        let eps = 1e-4;
        for i in 0..3 {
            for j in 0..3 {
                let mut fd = 0.0;
                for (si, sj, sign) in [
                    (eps, eps, 1.0),
                    (eps, -eps, -1.0),
                    (-eps, eps, -1.0),
                    (-eps, -eps, 1.0),
                ] {
                    let mut w = params;
                    w[i] += si;
                    w[j] += sj;
                    fd += sign * expectation(&c, &w, &obs).unwrap();
                }
                fd /= 4.0 * eps * eps;
                assert!(
                    (h[(i, j)] - fd).abs() < 1e-5,
                    "H[{i}][{j}]: {} vs fd {fd}",
                    h[(i, j)]
                );
            }
        }
    }

    #[test]
    fn hessian_is_symmetric() {
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().rxx(0, 1).unwrap().rz(1).unwrap();
        let obs = Observable::local_cost(2);
        let h = hessian(&c, &[0.3, 0.7, -0.2], &obs).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(h[(i, j)], h[(j, i)]);
            }
        }
    }

    #[test]
    fn hessian_vanishes_at_global_minimum_off_diagonal_structure() {
        // At θ = 0 the identity circuit sits at C = 0; the Hessian there
        // is PSD (it's a minimum).
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap();
        let obs = Observable::global_cost(2);
        let h = hessian(&c, &[0.0, 0.0], &obs).unwrap();
        let norm = spectral_norm(&h).unwrap();
        assert!(norm > 0.0);
        // PSD check via eigen decomposition through spectral helper:
        let n = h.rows();
        let complex = CMatrix::from_fn(n, n, |i, j| c64(h[(i, j)], 0.0));
        let eig = eigh(&complex, 1e-10, 200).unwrap();
        for v in eig.values {
            assert!(v > -1e-10, "minimum must have PSD hessian, got {v}");
        }
    }

    #[test]
    fn rejects_controlled_rotation_parameters() {
        let mut c = Circuit::new(2).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 1).unwrap();
        let obs = Observable::global_cost(2);
        assert!(hessian(&c, &[0.3], &obs).is_err());
    }

    #[test]
    fn spectral_norm_of_known_matrix() {
        let m = RMatrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, -5.0]);
        assert!((spectral_norm(&m).unwrap() - 5.0).abs() < 1e-10);
    }
}
