//! Exact mixed-state (density-matrix) simulation.
//!
//! The trajectory sampler in [`crate::noise`] converges to the channel
//! result only statistically; this module evolves the density matrix
//! `ρ` exactly: `ρ ← U ρ U†` for gates and `ρ ← Σ_k K_k ρ K_k†` for Kraus
//! channels. Cost is `O(4^n)` memory and `O(4^n)` work per single-qubit
//! operation, so it is meant for validation and small-register noise
//! studies (≤ ~10 qubits) — exactly the regime of the paper.
//!
//! It also provides amplitude damping, a non-unital channel that Pauli
//! trajectories cannot express.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{mixed::DensityMatrix, Circuit, Observable};
//!
//! let mut c = Circuit::new(2)?;
//! c.h(0)?.cx(0, 1)?;
//! let mut rho = DensityMatrix::zero(2);
//! rho.apply_circuit(&c, &[])?;
//! // A Bell state is pure and maximally correlated.
//! assert!((rho.purity() - 1.0).abs() < 1e-12);
//! let cost = Observable::global_cost(2);
//! assert!((rho.expectation(&cost)? - 0.5).abs() < 1e-12);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::circuit::Circuit;
use crate::error::SimError;
use crate::observable::Observable;
use crate::state::{State, MAX_QUBITS};
use plateau_linalg::{CMatrix, C64};

/// Mixed-state density-matrix cap: 2·MAX_QUBITS of amplitude indices would
/// be absurd; 13 qubits is already a 64M-entry matrix.
const MAX_MIXED_QUBITS: usize = 13;

/// A density matrix `ρ` over `n` qubits (dimension `2^n × 2^n`).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    /// Row-major dense storage.
    mat: CMatrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics for a zero or oversized register.
    pub fn zero(n_qubits: usize) -> DensityMatrix {
        assert!(
            n_qubits >= 1 && n_qubits <= MAX_MIXED_QUBITS.min(MAX_QUBITS),
            "qubit count out of range for density-matrix simulation"
        );
        let dim = 1usize << n_qubits;
        let mut mat = CMatrix::zeros(dim, dim);
        mat[(0, 0)] = C64::ONE;
        DensityMatrix { n_qubits, mat }
    }

    /// The projector `|ψ⟩⟨ψ|` of a pure state.
    pub fn from_pure(state: &State) -> DensityMatrix {
        let amps = state.to_amplitudes();
        let dim = amps.len();
        let mut mat = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                mat[(i, j)] = amps[i] * amps[j].conj();
            }
        }
        DensityMatrix {
            n_qubits: state.n_qubits(),
            mat,
        }
    }

    /// The maximally mixed state `I / 2^n`.
    ///
    /// # Panics
    ///
    /// Panics for a zero or oversized register.
    pub fn maximally_mixed(n_qubits: usize) -> DensityMatrix {
        let mut dm = DensityMatrix::zero(n_qubits);
        let dim = dm.dim();
        let p = C64::real(1.0 / dim as f64);
        dm.mat = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            dm.mat[(i, i)] = p;
        }
        dm
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Read-only view of the matrix.
    #[inline]
    pub fn matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// Trace (1 for physical states).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// Purity `Tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        crate::density::purity(&self.mat)
    }

    /// Probability of computational-basis outcome `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the dimension.
    pub fn probability(&self, index: usize) -> f64 {
        self.mat[(index, index)].re
    }

    fn check_qubit(&self, q: usize) -> Result<(), SimError> {
        if q >= self.n_qubits {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a single-qubit operator `M` from the left (rows):
    /// `ρ ← M ρ`. Building block for unitaries and Kraus terms.
    fn apply_left(&mut self, qubit: usize, m: &[C64; 4]) {
        let dim = self.dim();
        let stride = 1usize << qubit;
        for col in 0..dim {
            let mut base = 0;
            while base < dim {
                for offset in base..base + stride {
                    let i0 = offset;
                    let i1 = offset + stride;
                    let a0 = self.mat[(i0, col)];
                    let a1 = self.mat[(i1, col)];
                    self.mat[(i0, col)] = m[0] * a0 + m[1] * a1;
                    self.mat[(i1, col)] = m[2] * a0 + m[3] * a1;
                }
                base += stride << 1;
            }
        }
    }

    /// Applies `M†` from the right (columns): `ρ ← ρ M†`.
    fn apply_right_dagger(&mut self, qubit: usize, m: &[C64; 4]) {
        let dim = self.dim();
        let stride = 1usize << qubit;
        // (ρ M†)[r, c] pairs columns (c0, c1):
        // new[r, c0] = ρ[r,c0]·conj(m00) + ρ[r,c1]·conj(m01)
        // new[r, c1] = ρ[r,c0]·conj(m10) + ρ[r,c1]·conj(m11)
        for row in 0..dim {
            let mut base = 0;
            while base < dim {
                for offset in base..base + stride {
                    let c0 = offset;
                    let c1 = offset + stride;
                    let a0 = self.mat[(row, c0)];
                    let a1 = self.mat[(row, c1)];
                    self.mat[(row, c0)] = a0 * m[0].conj() + a1 * m[1].conj();
                    self.mat[(row, c1)] = a0 * m[2].conj() + a1 * m[3].conj();
                }
                base += stride << 1;
            }
        }
    }

    /// Conjugates by a single-qubit unitary: `ρ ← U ρ U†`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn apply_single_unitary(&mut self, qubit: usize, u: &[C64; 4]) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        self.apply_left(qubit, u);
        self.apply_right_dagger(qubit, u);
        Ok(())
    }

    /// Runs a whole circuit on the density matrix (unitary evolution; use
    /// [`DensityMatrix::apply_channel`] for noise).
    ///
    /// For generality this conjugates by each op's embedded matrix via the
    /// pure-state kernels applied to every column and row, which keeps the
    /// op semantics in one place.
    ///
    /// # Errors
    ///
    /// Propagates parameter and operand validity errors.
    pub fn apply_circuit(&mut self, circuit: &Circuit, params: &[f64]) -> Result<(), SimError> {
        circuit.check_params(params)?;
        if circuit.n_qubits() != self.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: self.dim(),
                found: 1 << circuit.n_qubits(),
            });
        }
        let dim = self.dim();
        // ρ ← U ρ: apply U to each column as a statevector.
        let mut columns: Vec<Vec<C64>> = (0..dim)
            .map(|c| (0..dim).map(|r| self.mat[(r, c)]).collect())
            .collect();
        for col in columns.iter_mut() {
            let mut s = State::from_amplitudes_unnormalized(std::mem::take(col))?;
            for op in circuit.ops() {
                op.apply(&mut s, params)?;
            }
            *col = s.to_amplitudes();
        }
        // ρ ← (U (U ρ)†)† = U ρ U†: conjugate-transpose trick — apply U to
        // each column of (Uρ)†, i.e. to the conjugated rows.
        let mut rows: Vec<Vec<C64>> = (0..dim)
            .map(|r| (0..dim).map(|c| columns[c][r].conj()).collect())
            .collect();
        for row in rows.iter_mut() {
            let mut s = State::from_amplitudes_unnormalized(std::mem::take(row))?;
            for op in circuit.ops() {
                op.apply(&mut s, params)?;
            }
            *row = s.to_amplitudes();
        }
        for r in 0..dim {
            for c in 0..dim {
                // ρ' = C† with C[i, r] = rows[r][i]: ρ'[r, c] = conj(C[c, r]).
                self.mat[(r, c)] = rows[r][c].conj();
            }
        }
        Ok(())
    }

    /// Applies a single-qubit Kraus channel `ρ ← Σ_k K_k ρ K_k†`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit and
    /// [`SimError::NotNormalized`] if the Kraus set is not
    /// trace-preserving (`Σ K†K ≠ I`).
    pub fn apply_channel(&mut self, qubit: usize, kraus: &[[C64; 4]]) -> Result<(), SimError> {
        self.check_qubit(qubit)?;
        // Completeness check Σ K†K = I.
        let mut sum = [[C64::ZERO; 2]; 2];
        for k in kraus {
            // K†K entries.
            let kd = [k[0].conj(), k[2].conj(), k[1].conj(), k[3].conj()];
            sum[0][0] += kd[0] * k[0] + kd[1] * k[2];
            sum[0][1] += kd[0] * k[1] + kd[1] * k[3];
            sum[1][0] += kd[2] * k[0] + kd[3] * k[2];
            sum[1][1] += kd[2] * k[1] + kd[3] * k[3];
        }
        let id_err = (sum[0][0] - C64::ONE).norm()
            + sum[0][1].norm()
            + sum[1][0].norm()
            + (sum[1][1] - C64::ONE).norm();
        if id_err > 1e-9 {
            return Err(SimError::NotNormalized { norm: id_err });
        }

        let mut acc = CMatrix::zeros(self.dim(), self.dim());
        for k in kraus {
            let mut term = self.clone();
            term.apply_left(qubit, k);
            term.apply_right_dagger(qubit, k);
            acc = &acc + &term.mat;
        }
        self.mat = acc;
        Ok(())
    }

    /// Expectation value `Tr(H ρ)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableMismatch`] for a size mismatch.
    pub fn expectation(&self, obs: &Observable) -> Result<f64, SimError> {
        if obs.n_qubits() != self.n_qubits {
            return Err(SimError::ObservableMismatch {
                observable_qubits: obs.n_qubits(),
                state_qubits: self.n_qubits,
            });
        }
        // Tr(Hρ) = Σ_c (H ρ_c)[c] where ρ_c is column c.
        let dim = self.dim();
        let mut total = C64::ZERO;
        for c in 0..dim {
            let col: Vec<C64> = (0..dim).map(|r| self.mat[(r, c)]).collect();
            let state = State::from_amplitudes_unnormalized(col)?;
            let h_col = obs.apply_raw(&state)?;
            total += h_col.amplitude(c);
        }
        Ok(total.re)
    }
}

/// Kraus operators of the single-qubit depolarizing channel of strength
/// `p` (each Pauli error with probability `p/3`).
///
/// # Panics
///
/// Panics unless `p ∈ [0, 1]`.
pub fn depolarizing_kraus(p: f64) -> Vec<[C64; 4]> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let s0 = (1.0 - p).sqrt();
    let sp = (p / 3.0).sqrt();
    vec![
        [C64::real(s0), C64::ZERO, C64::ZERO, C64::real(s0)],
        [C64::ZERO, C64::real(sp), C64::real(sp), C64::ZERO], // X
        [C64::ZERO, C64::imag(-sp), C64::imag(sp), C64::ZERO], // Y
        [C64::real(sp), C64::ZERO, C64::ZERO, C64::real(-sp)], // Z
    ]
}

/// Kraus operators of amplitude damping with decay probability `gamma`
/// (`|1⟩ → |0⟩` with probability `γ`) — the non-unital `T₁` channel.
///
/// # Panics
///
/// Panics unless `gamma ∈ [0, 1]`.
pub fn amplitude_damping_kraus(gamma: f64) -> Vec<[C64; 4]> {
    assert!((0.0..=1.0).contains(&gamma), "probability out of range");
    vec![
        [
            C64::ONE,
            C64::ZERO,
            C64::ZERO,
            C64::real((1.0 - gamma).sqrt()),
        ],
        [C64::ZERO, C64::real(gamma.sqrt()), C64::ZERO, C64::ZERO],
    ]
}

/// Kraus operators of the phase-flip (dephasing) channel of strength `p`.
///
/// # Panics
///
/// Panics unless `p ∈ [0, 1]`.
pub fn phase_flip_kraus(p: f64) -> Vec<[C64; 4]> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let s0 = (1.0 - p).sqrt();
    let s1 = p.sqrt();
    vec![
        [C64::real(s0), C64::ZERO, C64::ZERO, C64::real(s0)],
        [C64::real(s1), C64::ZERO, C64::ZERO, C64::real(-s1)],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::RotationGate;
    use crate::noise::NoiseModel;
    use plateau_rng::rngs::StdRng;
    use plateau_rng::SeedableRng;

    const TOL: f64 = 1e-10;

    #[test]
    fn pauli_sum_expectation_on_sparse_density_matrix() {
        // Regression (found by the differential fuzzer, shrunk to the
        // empty circuit): ρ = |0⟩⟨0| has zero columns, which the
        // PauliSum expectation path used to reject as "not normalized"
        // — `PauliString::apply` must stay linear, not physical.
        let rho = DensityMatrix::zero(1);
        let obs = Observable::pauli(crate::observable::PauliString::parse("Z").unwrap()).unwrap();
        let e = rho.expectation(&obs).expect("tr(Zρ) must evaluate");
        assert!((e - 1.0).abs() < TOL, "tr(Z|0⟩⟨0|) = {e}, want 1");
        // Mixed state with every column unnormalized: ½|00⟩⟨00| + ½|11⟩⟨11|.
        let mut rho = DensityMatrix::from_pure(&{
            let mut c = Circuit::new(2).unwrap();
            c.h(0).unwrap().cx(0, 1).unwrap();
            let s = c.run(&[]).unwrap();
            s
        });
        rho.apply_channel(0, &phase_flip_kraus(0.5)).unwrap();
        let obs = Observable::pauli_sum(vec![
            (0.7, crate::observable::PauliString::parse("ZZ").unwrap()),
            (-0.3, crate::observable::PauliString::parse("XX").unwrap()),
        ])
        .unwrap();
        let e = rho.expectation(&obs).expect("pauli sum on mixed state");
        // Full dephasing leaves ZZ = 1 intact and kills the XX coherence.
        assert!((e - 0.7).abs() < TOL, "got {e}");
    }

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap().cx(0, 1).unwrap();
        c
    }

    #[test]
    fn zero_state_properties() {
        let dm = DensityMatrix::zero(3);
        assert_eq!(dm.n_qubits(), 3);
        assert_eq!(dm.dim(), 8);
        assert!((dm.trace() - 1.0).abs() < TOL);
        assert!((dm.purity() - 1.0).abs() < TOL);
        assert!((dm.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn maximally_mixed_properties() {
        let dm = DensityMatrix::maximally_mixed(2);
        assert!((dm.trace() - 1.0).abs() < TOL);
        assert!((dm.purity() - 0.25).abs() < TOL);
        for i in 0..4 {
            assert!((dm.probability(i) - 0.25).abs() < TOL);
        }
    }

    #[test]
    fn from_pure_matches_outer_product() {
        let mut s = State::zero(2);
        s.apply_fixed(crate::gate::FixedGate::H, &[0]).unwrap();
        let dm = DensityMatrix::from_pure(&s);
        assert!((dm.purity() - 1.0).abs() < TOL);
        assert!((dm.matrix()[(0, 1)].re - 0.5).abs() < TOL);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(3).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap().rz(2).unwrap().cx(1, 2).unwrap();
        let params = [0.7, -0.4, 1.9];

        let pure = c.run(&params).unwrap();
        let expected = DensityMatrix::from_pure(&pure);

        let mut dm = DensityMatrix::zero(3);
        dm.apply_circuit(&c, &params).unwrap();
        assert!(
            dm.matrix().max_abs_diff(expected.matrix()) < 1e-10,
            "density evolution diverges from pure evolution"
        );
    }

    #[test]
    fn single_unitary_conjugation_matches_circuit_path() {
        let theta = 0.9;
        let mut dm1 = DensityMatrix::zero(1);
        dm1.apply_single_unitary(0, &RotationGate::Ry.entries(theta)).unwrap();
        let mut c = Circuit::new(1).unwrap();
        c.ry(0).unwrap();
        let mut dm2 = DensityMatrix::zero(1);
        dm2.apply_circuit(&c, &[theta]).unwrap();
        assert!(dm1.matrix().max_abs_diff(dm2.matrix()) < TOL);
    }

    #[test]
    fn expectation_matches_pure_state() {
        let c = bell_circuit();
        let mut dm = DensityMatrix::zero(2);
        dm.apply_circuit(&c, &[]).unwrap();
        let pure = c.run(&[]).unwrap();
        for obs in [
            Observable::global_cost(2),
            Observable::local_cost(2),
            Observable::zero_projector(2),
        ] {
            let from_dm = dm.expectation(&obs).unwrap();
            let from_pure = obs.expectation(&pure).unwrap();
            assert!((from_dm - from_pure).abs() < TOL, "{obs}");
        }
        assert!(dm.expectation(&Observable::global_cost(3)).is_err());
    }

    #[test]
    fn full_depolarizing_reaches_maximally_mixed() {
        let mut dm = DensityMatrix::zero(1);
        dm.apply_channel(0, &depolarizing_kraus(0.75)).unwrap();
        // p = 3/4 depolarizing is the fully mixing channel.
        assert!(dm.matrix().max_abs_diff(DensityMatrix::maximally_mixed(1).matrix()) < TOL);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // ρ = |1⟩⟨1| under damping γ: p(|1⟩) = 1 − γ.
        let gamma = 0.3;
        let s = State::basis(1, 1);
        let mut dm = DensityMatrix::from_pure(&s);
        dm.apply_channel(0, &amplitude_damping_kraus(gamma)).unwrap();
        assert!((dm.probability(1) - (1.0 - gamma)).abs() < TOL);
        assert!((dm.probability(0) - gamma).abs() < TOL);
        assert!((dm.trace() - 1.0).abs() < TOL);
    }

    #[test]
    fn phase_flip_kills_coherence_not_populations() {
        let mut s = State::zero(1);
        s.apply_fixed(crate::gate::FixedGate::H, &[0]).unwrap();
        let mut dm = DensityMatrix::from_pure(&s);
        dm.apply_channel(0, &phase_flip_kraus(0.5)).unwrap();
        // p = 1/2 phase flip fully decoheres: off-diagonals vanish.
        assert!(dm.matrix()[(0, 1)].norm() < TOL);
        assert!((dm.probability(0) - 0.5).abs() < TOL);
        assert!((dm.probability(1) - 0.5).abs() < TOL);
    }

    #[test]
    fn channel_rejects_incomplete_kraus_set() {
        let mut dm = DensityMatrix::zero(1);
        // A lone damping operator is not trace preserving.
        let bad = vec![amplitude_damping_kraus(0.5)[1]];
        assert!(matches!(
            dm.apply_channel(0, &bad),
            Err(SimError::NotNormalized { .. })
        ));
        assert!(dm.apply_channel(5, &depolarizing_kraus(0.1)).is_err());
    }

    #[test]
    fn exact_channel_matches_trajectory_average() {
        // The key validation: trajectory sampling converges to the exact
        // density-matrix result for the same per-gate depolarizing noise.
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap();
        let params = [0.8, -0.5];
        let p = 0.05;
        let obs = Observable::global_cost(2);

        // Exact: gate-by-gate evolution with a channel after each gate on
        // each operand qubit (mirroring NoiseModel's trajectory protocol).
        let mut dm = DensityMatrix::zero(2);
        for op in c.ops() {
            let mut sub = Circuit::new(2).unwrap();
            // Re-apply single op by running a one-op circuit with bound params.
            match op {
                crate::circuit::Op::Rotation { gate, qubit, param } => {
                    sub.push_rotation_const(*gate, *qubit, param.angle(&params)).unwrap();
                }
                crate::circuit::Op::Fixed { gate, qubits } => {
                    sub.push_fixed(*gate, qubits).unwrap();
                }
                _ => unreachable!("test circuit has no other op kinds"),
            }
            dm.apply_circuit(&sub, &[]).unwrap();
            for q in op.qubits() {
                dm.apply_channel(q, &depolarizing_kraus(p)).unwrap();
            }
        }
        let exact = dm.expectation(&obs).unwrap();

        let noise = NoiseModel::depolarizing(p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let sampled = noise.expectation(&c, &params, &obs, 30_000, &mut rng).unwrap();
        assert!(
            (exact - sampled).abs() < 0.01,
            "exact {exact} vs trajectory {sampled}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_register_panics() {
        let _ = DensityMatrix::zero(20);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_kraus_probability_panics() {
        let _ = depolarizing_kraus(1.5);
    }
}
