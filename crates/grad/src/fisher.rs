//! Fisher information of parameterized circuits.
//!
//! Two related objects:
//!
//! - [`quantum_fisher_information`]: `F_Q = 4·G` with `G` the Fubini–Study
//!   metric — the geometry of the *state* family.
//! - [`classical_fisher_information`]: the Fisher matrix of the
//!   computational-basis outcome distribution `p_x(θ) = |⟨x|ψ(θ)⟩|²`,
//!   `F_C = Σ_x (∇p_x)(∇p_x)ᵀ / p_x` — the quantity whose spectrum
//!   collapses toward zero in a barren plateau (Abbas et al. 2021, *The
//!   power of quantum neural networks*): flat measurement statistics mean
//!   no parameter direction is informationally visible.
//!
//! # Examples
//!
//! ```
//! use plateau_grad::classical_fisher_information;
//! use plateau_sim::Circuit;
//!
//! // A single RY on |0⟩ is a one-parameter binomial model with F ≡ 1.
//! let mut c = Circuit::new(1)?;
//! c.ry(0)?;
//! let f = classical_fisher_information(&c, &[0.73])?;
//! assert!((f[(0, 0)] - 1.0).abs() < 1e-9);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::metric::{metric_tensor, tangent_state};
use plateau_linalg::RMatrix;
use plateau_sim::{Circuit, SimError};

/// The quantum Fisher information matrix `F_Q = 4·G` (pure states).
///
/// # Errors
///
/// Propagates parameter-count and execution errors.
pub fn quantum_fisher_information(
    circuit: &Circuit,
    params: &[f64],
) -> Result<RMatrix, SimError> {
    let g = metric_tensor(circuit, params)?;
    let p = g.rows();
    Ok(RMatrix::from_fn(p, p, |i, j| 4.0 * g[(i, j)]))
}

/// The classical Fisher information matrix of the computational-basis
/// measurement, `F_C[i][j] = Σ_x ∂_i p_x · ∂_j p_x / p_x` (outcomes with
/// `p_x` below machine tolerance are skipped — they carry no information
/// and would otherwise blow up numerically).
///
/// Cost: `P` tangent states of `O(G)` gate work plus `O(P²·2^n)`
/// accumulation.
///
/// # Errors
///
/// Propagates parameter-count and execution errors.
pub fn classical_fisher_information(
    circuit: &Circuit,
    params: &[f64],
) -> Result<RMatrix, SimError> {
    circuit.check_params(params)?;
    let p = circuit.n_params();
    let psi = circuit.run(params)?;
    let dim = psi.dim();

    // Jacobian of outcome probabilities: ∂_i p_x = 2·Re(ψ_x* · ∂_i ψ_x).
    let mut jac = vec![vec![0.0; dim]; p];
    for (i, row) in jac.iter_mut().enumerate() {
        let tangent = tangent_state(circuit, params, i)?;
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = 2.0 * (psi.amplitude(x).conj() * tangent.amplitude(x)).re;
        }
    }

    let probs = psi.probabilities();
    let mut f = RMatrix::zeros(p.max(1), p.max(1));
    for x in 0..dim {
        if probs[x] < 1e-14 {
            continue;
        }
        let inv = 1.0 / probs[x];
        for i in 0..p {
            let ji = jac[i][x];
            if ji == 0.0 {
                continue;
            }
            for j in i..p {
                let val = ji * jac[j][x] * inv;
                f[(i, j)] += val;
                if i != j {
                    f[(j, i)] += val;
                }
            }
        }
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_linalg::{c64, eigh, CMatrix};

    #[test]
    fn qfi_of_single_ry_is_one() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        for theta in [0.0, 0.8, -2.1] {
            let f = quantum_fisher_information(&c, &[theta]).unwrap();
            assert!((f[(0, 0)] - 1.0).abs() < 1e-10, "θ={theta}");
        }
    }

    #[test]
    fn classical_fisher_of_single_ry_is_one() {
        let _guard = plateau_obs::test_lock();
        // p0 = cos²(θ/2): the classical binomial Fisher is identically 1.
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        for theta in [0.4, 1.1, 2.6] {
            let f = classical_fisher_information(&c, &[theta]).unwrap();
            assert!((f[(0, 0)] - 1.0).abs() < 1e-9, "θ={theta}: {}", f[(0, 0)]);
        }
    }

    #[test]
    fn classical_fisher_of_rz_is_zero() {
        let _guard = plateau_obs::test_lock();
        // RZ is invisible to the computational-basis measurement.
        let mut c = Circuit::new(1).unwrap();
        c.h(0).unwrap();
        c.rz(0).unwrap();
        let f = classical_fisher_information(&c, &[0.9]).unwrap();
        assert!(f[(0, 0)].abs() < 1e-10);
        // …while the quantum Fisher information sees it: H|0⟩ maximizes
        // the variance of Z/2 → QFI = 1.
        let q = quantum_fisher_information(&c, &[0.9]).unwrap();
        assert!((q[(0, 0)] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn classical_bounded_by_quantum() {
        let _guard = plateau_obs::test_lock();
        // F_C ⪯ F_Q entrywise on the diagonal (Cramér–Rao chain).
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().rx(1).unwrap().cz(0, 1).unwrap().ry(1).unwrap();
        let params = [0.7, -0.3, 1.2];
        let fc = classical_fisher_information(&c, &params).unwrap();
        let fq = quantum_fisher_information(&c, &params).unwrap();
        for i in 0..3 {
            assert!(
                fc[(i, i)] <= fq[(i, i)] + 1e-9,
                "param {i}: classical {} > quantum {}",
                fc[(i, i)],
                fq[(i, i)]
            );
        }
    }

    #[test]
    fn fisher_matrices_are_symmetric_psd() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(2).unwrap();
        c.ry(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rx(0).unwrap();
        let params = [0.4, 0.9, -0.6];
        for f in [
            classical_fisher_information(&c, &params).unwrap(),
            quantum_fisher_information(&c, &params).unwrap(),
        ] {
            let n = f.rows();
            for i in 0..n {
                for j in 0..n {
                    assert!((f[(i, j)] - f[(j, i)]).abs() < 1e-10);
                }
            }
            let complex = CMatrix::from_fn(n, n, |i, j| c64(f[(i, j)], 0.0));
            let eig = eigh(&complex, 1e-10, 200).unwrap();
            for v in eig.values {
                assert!(v > -1e-9, "negative fisher eigenvalue {v}");
            }
        }
    }

    #[test]
    fn errors_propagate() {
        let _guard = plateau_obs::test_lock();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        assert!(classical_fisher_information(&c, &[]).is_err());
        assert!(quantum_fisher_information(&c, &[]).is_err());
    }
}
