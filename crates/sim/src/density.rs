//! Reduced density matrices and entanglement measures.
//!
//! Barren plateaus are intimately tied to how entangled the circuit makes
//! the register (random deep circuits approach maximal bipartite
//! entanglement, which is exactly the 2-design regime where gradients
//! vanish). This module provides the partial trace, purity, von Neumann
//! entropy, and the Meyer–Wallach global-entanglement measure `Q` used by
//! the entanglement ablation in `plateau-core`.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{meyer_wallach, FixedGate, State};
//!
//! // Product states have Q = 0; a Bell pair has Q = 1.
//! let product = State::zero(2);
//! assert!(meyer_wallach(&product)?.abs() < 1e-12);
//!
//! let mut bell = State::zero(2);
//! bell.apply_fixed(FixedGate::H, &[0])?;
//! bell.apply_fixed(FixedGate::Cx, &[0, 1])?;
//! assert!((meyer_wallach(&bell)? - 1.0).abs() < 1e-12);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::error::SimError;
use crate::state::State;
use plateau_linalg::{eigh, CMatrix, C64};

/// Computes the reduced density matrix over `keep` (ascending, distinct
/// qubit indices), tracing out every other qubit.
///
/// The returned matrix has dimension `2^keep.len()`, with `keep[0]` as the
/// **lowest** bit of the reduced index (preserving the little-endian
/// convention).
///
/// # Errors
///
/// Returns [`SimError::QubitOutOfRange`] for invalid indices and
/// [`SimError::DuplicateQubits`] for repeats or an empty/unsorted list.
pub fn reduced_density_matrix(state: &State, keep: &[usize]) -> Result<CMatrix, SimError> {
    let n = state.n_qubits();
    if keep.is_empty() || keep.len() > n {
        return Err(SimError::DuplicateQubits { qubit: 0 });
    }
    for w in keep.windows(2) {
        if w[1] <= w[0] {
            return Err(SimError::DuplicateQubits { qubit: w[1] });
        }
    }
    for &q in keep {
        if q >= n {
            return Err(SimError::QubitOutOfRange { qubit: q, n_qubits: n });
        }
    }

    let k = keep.len();
    let kept_dim = 1usize << k;
    let rest: Vec<usize> = (0..n).filter(|q| !keep.contains(q)).collect();
    let rest_dim = 1usize << rest.len();

    // Scatter a compact index over the chosen qubit positions.
    let scatter = |compact: usize, positions: &[usize]| -> usize {
        let mut out = 0usize;
        for (bit, &pos) in positions.iter().enumerate() {
            if compact & (1 << bit) != 0 {
                out |= 1 << pos;
            }
        }
        out
    };

    let amps = state.to_amplitudes();
    let mut rho = CMatrix::zeros(kept_dim, kept_dim);
    for a in 0..kept_dim {
        let a_bits = scatter(a, keep);
        for b in 0..kept_dim {
            let b_bits = scatter(b, keep);
            let mut acc = C64::ZERO;
            for e in 0..rest_dim {
                let e_bits = scatter(e, &rest);
                acc += amps[a_bits | e_bits] * amps[b_bits | e_bits].conj();
            }
            rho[(a, b)] = acc;
        }
    }
    Ok(rho)
}

/// Purity `Tr(ρ²)` of a density matrix. 1 for pure states, `1/d` for the
/// maximally mixed state of dimension `d`.
///
/// # Panics
///
/// Panics if `rho` is not square.
pub fn purity(rho: &CMatrix) -> f64 {
    assert!(rho.is_square(), "density matrix must be square");
    let sq = rho * rho;
    sq.trace().re
}

/// Von Neumann entropy `S(ρ) = −Tr(ρ ln ρ)` in nats, computed through the
/// eigenvalues of `ρ`.
///
/// # Errors
///
/// Returns [`SimError::DimensionMismatch`] when the eigendecomposition
/// fails (non-Hermitian input).
pub fn von_neumann_entropy(rho: &CMatrix) -> Result<f64, SimError> {
    let eig = eigh(rho, 1e-9, 200).map_err(|_| SimError::DimensionMismatch {
        expected: rho.rows(),
        found: rho.cols(),
    })?;
    let mut s = 0.0;
    for lam in eig.values {
        if lam > 1e-12 {
            s -= lam * lam.ln();
        }
    }
    Ok(s)
}

/// Meyer–Wallach global entanglement `Q ∈ [0, 1]`:
/// `Q = 2 (1 − (1/n) Σ_q Tr ρ_q²)` where `ρ_q` is each single-qubit
/// reduced state. 0 for product states, 1 when every qubit is maximally
/// mixed (e.g. GHZ states).
///
/// # Errors
///
/// Propagates partial-trace errors (none occur for valid states).
pub fn meyer_wallach(state: &State) -> Result<f64, SimError> {
    let n = state.n_qubits();
    let mut purity_sum = 0.0;
    for q in 0..n {
        let rho = reduced_density_matrix(state, &[q])?;
        purity_sum += purity(&rho);
    }
    Ok(2.0 * (1.0 - purity_sum / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{FixedGate, RotationGate};

    const TOL: f64 = 1e-10;

    fn bell() -> State {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
        s
    }

    fn ghz(n: usize) -> State {
        let mut s = State::zero(n);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        for q in 1..n {
            s.apply_fixed(FixedGate::Cx, &[0, q]).unwrap();
        }
        s
    }

    #[test]
    fn reduced_state_of_product_is_pure() {
        let mut s = State::zero(2);
        s.apply_rotation(RotationGate::Ry, 0, 0.7).unwrap();
        let rho = reduced_density_matrix(&s, &[0]).unwrap();
        assert!((purity(&rho) - 1.0).abs() < TOL);
        assert!((rho.trace().re - 1.0).abs() < TOL);
        assert!(rho.is_hermitian(TOL));
    }

    #[test]
    fn reduced_state_of_bell_is_maximally_mixed() {
        let rho = reduced_density_matrix(&bell(), &[0]).unwrap();
        assert!((rho[(0, 0)].re - 0.5).abs() < TOL);
        assert!((rho[(1, 1)].re - 0.5).abs() < TOL);
        assert!(rho[(0, 1)].norm() < TOL);
        assert!((purity(&rho) - 0.5).abs() < TOL);
    }

    #[test]
    fn keeping_all_qubits_gives_projector() {
        let s = bell();
        let rho = reduced_density_matrix(&s, &[0, 1]).unwrap();
        assert!((purity(&rho) - 1.0).abs() < TOL);
        // ρ = |ψ⟩⟨ψ| → Tr ρ = 1.
        assert!((rho.trace().re - 1.0).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_ghz_middle_qubit() {
        let s = ghz(3);
        let rho = reduced_density_matrix(&s, &[1]).unwrap();
        assert!((purity(&rho) - 0.5).abs() < TOL);
        // Two-qubit marginal of GHZ is a classical mixture of |00⟩,|11⟩.
        let rho2 = reduced_density_matrix(&s, &[0, 2]).unwrap();
        assert!((rho2[(0, 0)].re - 0.5).abs() < TOL);
        assert!((rho2[(3, 3)].re - 0.5).abs() < TOL);
        assert!(rho2[(0, 3)].norm() < TOL, "GHZ marginal has no coherence");
    }

    #[test]
    fn entropy_values() {
        // Pure: S = 0. Maximally mixed 1-qubit: S = ln 2.
        let pure = reduced_density_matrix(&State::zero(2), &[0]).unwrap();
        assert!(von_neumann_entropy(&pure).unwrap().abs() < 1e-8);
        let mixed = reduced_density_matrix(&bell(), &[0]).unwrap();
        assert!((von_neumann_entropy(&mixed).unwrap() - 2f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn meyer_wallach_landmarks() {
        assert!(meyer_wallach(&State::zero(4)).unwrap().abs() < TOL);
        assert!((meyer_wallach(&bell()).unwrap() - 1.0).abs() < TOL);
        assert!((meyer_wallach(&ghz(4)).unwrap() - 1.0).abs() < TOL);
        // A partially-rotated two-qubit state sits strictly between.
        let mut s = State::zero(2);
        s.apply_rotation(RotationGate::Ry, 0, 0.8).unwrap();
        s.apply_cz(0, 1).unwrap();
        let q = meyer_wallach(&s).unwrap();
        assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn w_state_meyer_wallach() {
        // |W⟩ = (|001⟩+|010⟩+|100⟩)/√3 has Q = 8/9.
        let inv = 1.0 / 3f64.sqrt();
        let mut amps = vec![C64::ZERO; 8];
        amps[1] = C64::real(inv);
        amps[2] = C64::real(inv);
        amps[4] = C64::real(inv);
        let w = State::from_amplitudes(amps).unwrap();
        assert!((meyer_wallach(&w).unwrap() - 8.0 / 9.0).abs() < 1e-10);
    }

    #[test]
    fn error_paths() {
        let s = State::zero(3);
        assert!(reduced_density_matrix(&s, &[]).is_err());
        assert!(reduced_density_matrix(&s, &[5]).is_err());
        assert!(reduced_density_matrix(&s, &[1, 1]).is_err());
        assert!(reduced_density_matrix(&s, &[2, 0]).is_err()); // unsorted
    }

    #[test]
    #[should_panic(expected = "square")]
    fn purity_rejects_rectangular() {
        let _ = purity(&CMatrix::zeros(2, 3));
    }
}
