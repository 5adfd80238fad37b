//! Hermitian observables: Pauli strings, weighted Pauli sums, and the
//! projector-based cost operators of the paper.
//!
//! The paper's training objective (Eq. 4) is the **global cost**
//! `C = ⟨ψ| (I − |0…0⟩⟨0…0|) |ψ⟩ = 1 − p(|0…0⟩)`, and its related-work
//! discussion (§II-d, Cerezo et al.) contrasts it with the **local cost**
//! `C = ⟨ψ| (I − (1/n) Σ_j |0⟩⟨0|_j ⊗ I) |ψ⟩`. Both are first-class here,
//! alongside general Pauli-sum observables used for cross-validation.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{Observable, State};
//!
//! let cost = Observable::global_cost(3);
//! let zero = State::zero(3);
//! assert!(cost.expectation(&zero)?.abs() < 1e-12); // already solved
//!
//! let one = State::basis(3, 7);
//! assert!((cost.expectation(&one)? - 1.0).abs() < 1e-12); // orthogonal
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::error::SimError;
use crate::state::{PlanesMut, State};
use plateau_linalg::{CMatrix, C64};
use std::fmt;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pauli::I => "I",
            Pauli::X => "X",
            Pauli::Y => "Y",
            Pauli::Z => "Z",
        })
    }
}

/// A tensor product of single-qubit Paulis over an `n`-qubit register.
///
/// Index `k` of the inner vector is the Pauli on qubit `k` (little-endian,
/// matching [`State`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// Builds a Pauli string from per-qubit operators.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] when `paulis` is empty.
    pub fn new(paulis: Vec<Pauli>) -> Result<PauliString, SimError> {
        if paulis.is_empty() {
            return Err(SimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        Ok(PauliString { paulis })
    }

    /// The identity string over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> PauliString {
        assert!(n > 0, "qubit count must be nonzero");
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// A single Pauli `p` on `qubit`, identity elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] when `qubit >= n`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Result<PauliString, SimError> {
        if qubit >= n {
            return Err(SimError::QubitOutOfRange { qubit, n_qubits: n });
        }
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = p;
        PauliString::new(paulis)
    }

    /// Parses a string like `"ZZI"` or `"IXY"`.
    ///
    /// The **leftmost** character is the **highest** qubit, mirroring ket
    /// notation `|q_{n-1} … q_0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] for an empty string and
    /// [`SimError::WrongArity`] for an unknown character.
    pub fn parse(s: &str) -> Result<PauliString, SimError> {
        let mut paulis = Vec::with_capacity(s.len());
        for ch in s.chars().rev() {
            paulis.push(match ch {
                'I' | 'i' => Pauli::I,
                'X' | 'x' => Pauli::X,
                'Y' | 'y' => Pauli::Y,
                'Z' | 'z' => Pauli::Z,
                other => {
                    return Err(SimError::WrongArity {
                        gate: format!("pauli '{other}'"),
                        expected: 0,
                        found: 0,
                    })
                }
            });
        }
        PauliString::new(paulis)
    }

    /// Number of qubits the string covers.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// The Pauli on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[inline]
    pub fn pauli(&self, qubit: usize) -> Pauli {
        self.paulis[qubit]
    }

    /// Number of non-identity factors (the string's *weight* / locality).
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|p| **p != Pauli::I).count()
    }

    /// Applies the string to a state, producing `P|ψ⟩`.
    ///
    /// Pauli strings are signed permutations of the computational basis:
    /// X/Y factors toggle bits, Y and Z contribute phases.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableMismatch`] when the qubit counts
    /// differ.
    pub fn apply(&self, state: &State) -> Result<State, SimError> {
        if state.n_qubits() != self.n_qubits() {
            return Err(SimError::ObservableMismatch {
                observable_qubits: self.n_qubits(),
                state_qubits: state.n_qubits(),
            });
        }
        let mut flip_mask = 0usize;
        let mut z_mask = 0usize; // qubits contributing (-1)^bit
        let mut y_mask = 0usize;
        for (q, p) in self.paulis.iter().enumerate() {
            match p {
                Pauli::I => {}
                Pauli::X => flip_mask |= 1 << q,
                Pauli::Y => {
                    flip_mask |= 1 << q;
                    y_mask |= 1 << q;
                }
                Pauli::Z => z_mask |= 1 << q,
            }
        }
        let n_y = y_mask.count_ones() as usize;
        // Global factor from Y = i·X·Z decomposition: each Y contributes a
        // factor i together with an X flip and a Z phase; acting on basis
        // state |b⟩: Y|0⟩ = i|1⟩, Y|1⟩ = -i|0⟩ →
        // P|b⟩ = i^{n_y} · (-1)^{popcount(b & (z_mask|y_mask))} |b ^ flip_mask⟩.
        let i_pow = match n_y % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        };
        let phase_mask = z_mask | y_mask;
        let dim = state.dim();
        let mut out = State::from_planes(vec![0.0; 2 * dim]);
        let mut planes = out.planes_mut();
        for b in 0..dim {
            let sign = if (b & phase_mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            planes.set(b ^ flip_mask, state.amplitude(b) * i_pow * sign);
        }
        // P is a signed permutation, so it preserves the input's norm
        // exactly — but the input need not be normalized: the density-
        // matrix engine applies Pauli strings to raw matrix columns and
        // the adjoint engine to tangent vectors. No normalization check.
        Ok(out)
    }

    /// Expectation value `⟨ψ|P|ψ⟩` (real because P is Hermitian).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableMismatch`] when the qubit counts
    /// differ.
    pub fn expectation(&self, state: &State) -> Result<f64, SimError> {
        let applied = self.apply(state)?;
        Ok(state.inner(&applied)?.re)
    }

    /// Dense matrix of the string (oracle path, `2^n × 2^n`).
    pub fn matrix(&self) -> CMatrix {
        let single = |p: Pauli| -> CMatrix {
            let o = C64::ZERO;
            let l = C64::ONE;
            let i = C64::I;
            match p {
                Pauli::I => CMatrix::identity(2),
                Pauli::X => CMatrix::from_rows(&[&[o, l], &[l, o]]),
                Pauli::Y => CMatrix::from_rows(&[&[o, -i], &[i, o]]),
                Pauli::Z => CMatrix::from_rows(&[&[l, o], &[o, -l]]),
            }
        };
        // Highest qubit is the leftmost kron factor.
        let mut m = single(self.paulis[self.paulis.len() - 1]);
        for q in (0..self.paulis.len() - 1).rev() {
            m = m.kron(&single(self.paulis[q]));
        }
        m
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.paulis.iter().rev() {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A Hermitian observable usable as a cost operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Observable {
    /// A real-weighted sum of Pauli strings `Σ_k c_k P_k`.
    PauliSum {
        /// Number of qubits all strings cover.
        n_qubits: usize,
        /// `(coefficient, string)` pairs.
        terms: Vec<(f64, PauliString)>,
    },
    /// The projector `|0…0⟩⟨0…0|`.
    ZeroProjector {
        /// Register size.
        n_qubits: usize,
    },
    /// The paper's global cost operator `I − |0…0⟩⟨0…0|` (Eq. 4):
    /// expectation `1 − p(|0…0⟩)`.
    GlobalCost {
        /// Register size.
        n_qubits: usize,
    },
    /// The local cost operator `I − (1/n) Σ_j |0⟩⟨0|_j`:
    /// expectation `1 − (1/n) Σ_j p(qubit j = 0)`.
    LocalCost {
        /// Register size.
        n_qubits: usize,
    },
}

impl Observable {
    /// Builds a Pauli-sum observable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] for an empty term list and
    /// [`SimError::ObservableMismatch`] when term sizes disagree.
    pub fn pauli_sum(terms: Vec<(f64, PauliString)>) -> Result<Observable, SimError> {
        let n_qubits = terms
            .first()
            .map(|(_, p)| p.n_qubits())
            .ok_or(SimError::DimensionMismatch {
                expected: 1,
                found: 0,
            })?;
        for (_, p) in &terms {
            if p.n_qubits() != n_qubits {
                return Err(SimError::ObservableMismatch {
                    observable_qubits: p.n_qubits(),
                    state_qubits: n_qubits,
                });
            }
        }
        Ok(Observable::PauliSum { n_qubits, terms })
    }

    /// A single Pauli string with unit coefficient.
    ///
    /// # Errors
    ///
    /// Never fails for a valid [`PauliString`]; result type kept for
    /// signature consistency.
    pub fn pauli(p: PauliString) -> Result<Observable, SimError> {
        Observable::pauli_sum(vec![(1.0, p)])
    }

    /// The projector `|0…0⟩⟨0…0|` over `n` qubits.
    pub fn zero_projector(n_qubits: usize) -> Observable {
        Observable::ZeroProjector { n_qubits }
    }

    /// The paper's global cost operator (Eq. 4).
    pub fn global_cost(n_qubits: usize) -> Observable {
        Observable::GlobalCost { n_qubits }
    }

    /// The local cost operator of Cerezo et al. (paper §II-d).
    pub fn local_cost(n_qubits: usize) -> Observable {
        Observable::LocalCost { n_qubits }
    }

    /// Number of qubits the observable covers.
    pub fn n_qubits(&self) -> usize {
        match self {
            Observable::PauliSum { n_qubits, .. }
            | Observable::ZeroProjector { n_qubits }
            | Observable::GlobalCost { n_qubits }
            | Observable::LocalCost { n_qubits } => *n_qubits,
        }
    }

    fn check_state(&self, state: &State) -> Result<(), SimError> {
        if state.n_qubits() != self.n_qubits() {
            Err(SimError::ObservableMismatch {
                observable_qubits: self.n_qubits(),
                state_qubits: state.n_qubits(),
            })
        } else {
            Ok(())
        }
    }

    /// Expectation value `⟨ψ|H|ψ⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableMismatch`] when the qubit counts
    /// differ.
    pub fn expectation(&self, state: &State) -> Result<f64, SimError> {
        self.check_state(state)?;
        match self {
            Observable::PauliSum { terms, .. } => {
                let mut total = 0.0;
                for (c, p) in terms {
                    total += c * p.expectation(state)?;
                }
                Ok(total)
            }
            Observable::ZeroProjector { .. } => Ok(state.probability_all_zeros()),
            Observable::GlobalCost { .. } => Ok(1.0 - state.probability_all_zeros()),
            Observable::LocalCost { n_qubits } => {
                let mut acc = 0.0;
                for q in 0..*n_qubits {
                    acc += state.probability_qubit_zero(q)?;
                }
                Ok(1.0 - acc / *n_qubits as f64)
            }
        }
    }

    /// Applies the observable to a state: returns the (generally
    /// unnormalized) vector `H|ψ⟩` in state form. Used by the adjoint
    /// differentiation engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ObservableMismatch`] when the qubit counts
    /// differ.
    pub fn apply_raw(&self, state: &State) -> Result<State, SimError> {
        self.check_state(state)?;
        let mut out = State::from_planes(match self {
            Observable::PauliSum { .. } | Observable::ZeroProjector { .. } => {
                vec![0.0; 2 * state.dim()]
            }
            _ => state.planes().to_vec(),
        });
        let PlanesMut { re, im } = out.planes_mut();
        match self {
            Observable::PauliSum { terms, .. } => {
                for (c, p) in terms {
                    let applied = p.apply(state)?;
                    for (a, b) in re.iter_mut().zip(applied.re()) {
                        *a += *b * *c;
                    }
                    for (a, b) in im.iter_mut().zip(applied.im()) {
                        *a += *b * *c;
                    }
                }
            }
            Observable::ZeroProjector { .. } => {
                re[0] = state.re()[0];
                im[0] = state.im()[0];
            }
            Observable::GlobalCost { .. } => {
                re[0] = 0.0;
                im[0] = 0.0;
            }
            Observable::LocalCost { n_qubits } => {
                let n = *n_qubits as f64;
                for i in 0..re.len() {
                    // (I - (1/n) Σ_j |0><0|_j)|b⟩ = (1 - z(b)/n)|b⟩ where
                    // z(b) = number of zero bits of b among the n qubits.
                    let zeros = *n_qubits - (i.count_ones() as usize);
                    let f = 1.0 - zeros as f64 / n;
                    re[i] *= f;
                    im[i] *= f;
                }
            }
        }
        Ok(out)
    }

    /// Dense matrix of the observable (oracle path).
    pub fn matrix(&self) -> CMatrix {
        let n = self.n_qubits();
        let dim = 1usize << n;
        match self {
            Observable::PauliSum { terms, .. } => {
                let mut acc = CMatrix::zeros(dim, dim);
                for (c, p) in terms {
                    acc = &acc + &p.matrix().scale(C64::real(*c));
                }
                acc
            }
            Observable::ZeroProjector { .. } => {
                let mut m = CMatrix::zeros(dim, dim);
                m[(0, 0)] = C64::ONE;
                m
            }
            Observable::GlobalCost { .. } => {
                let mut m = CMatrix::identity(dim);
                m[(0, 0)] = C64::ZERO;
                m
            }
            Observable::LocalCost { n_qubits } => {
                let mut m = CMatrix::zeros(dim, dim);
                for b in 0..dim {
                    let zeros = *n_qubits - (b.count_ones() as usize);
                    m[(b, b)] = C64::real(1.0 - zeros as f64 / *n_qubits as f64);
                }
                m
            }
        }
    }
}

impl fmt::Display for Observable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observable::PauliSum { terms, .. } => {
                for (k, (c, p)) in terms.iter().enumerate() {
                    if k > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{c}·{p}")?;
                }
                Ok(())
            }
            Observable::ZeroProjector { n_qubits } => write!(f, "|0^{n_qubits}⟩⟨0^{n_qubits}|"),
            Observable::GlobalCost { n_qubits } => {
                write!(f, "I − |0^{n_qubits}⟩⟨0^{n_qubits}|")
            }
            Observable::LocalCost { n_qubits } => {
                write!(f, "I − (1/{n_qubits})Σ|0⟩⟨0|_j")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::FixedGate;

    const TOL: f64 = 1e-12;

    #[test]
    fn pauli_string_construction() {
        let p = PauliString::parse("ZIX").unwrap();
        assert_eq!(p.n_qubits(), 3);
        // Leftmost char = highest qubit.
        assert_eq!(p.pauli(2), Pauli::Z);
        assert_eq!(p.pauli(1), Pauli::I);
        assert_eq!(p.pauli(0), Pauli::X);
        assert_eq!(p.weight(), 2);
        assert_eq!(p.to_string(), "ZIX");
        assert!(PauliString::parse("").is_err());
        assert!(PauliString::parse("ZQ").is_err());
    }

    #[test]
    fn single_and_identity_constructors() {
        let id = PauliString::identity(4);
        assert_eq!(id.weight(), 0);
        let z1 = PauliString::single(4, 1, Pauli::Z).unwrap();
        assert_eq!(z1.pauli(1), Pauli::Z);
        assert_eq!(z1.weight(), 1);
        assert!(PauliString::single(4, 9, Pauli::Z).is_err());
    }

    #[test]
    fn z_expectation_on_basis_states() {
        let z0 = PauliString::single(2, 0, Pauli::Z).unwrap();
        assert!((z0.expectation(&State::zero(2)).unwrap() - 1.0).abs() < TOL);
        assert!((z0.expectation(&State::basis(2, 1)).unwrap() + 1.0).abs() < TOL);
        assert!((z0.expectation(&State::basis(2, 2)).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn x_expectation_on_plus_state() {
        let mut s = State::zero(1);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        let x = PauliString::single(1, 0, Pauli::X).unwrap();
        assert!((x.expectation(&s).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn y_apply_on_basis_states() {
        // Y|0> = i|1>, Y|1> = -i|0>
        let y = PauliString::single(1, 0, Pauli::Y).unwrap();
        let applied = y.apply(&State::zero(1)).unwrap();
        assert!(applied.amplitude(1).approx_eq(C64::I, TOL));
        let applied = y.apply(&State::basis(1, 1)).unwrap();
        assert!(applied.amplitude(0).approx_eq(-C64::I, TOL));
    }

    #[test]
    fn pauli_apply_matches_matrix_oracle() {
        for s in ["XYZ", "ZZI", "YYX", "IZY", "XIX"] {
            let p = PauliString::parse(s).unwrap();
            let mut state = State::zero(3);
            // Entangle a bit for a nontrivial state.
            state.apply_fixed(FixedGate::H, &[0]).unwrap();
            state.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
            state
                .apply_rotation(crate::gate::RotationGate::Ry, 2, 0.9)
                .unwrap();

            let via_kernel = p.apply(&state).unwrap();
            let mut via_matrix = state.clone();
            via_matrix.apply_matrix(&p.matrix()).unwrap();
            for (a, b) in via_kernel
                .to_amplitudes()
                .iter()
                .zip(&via_matrix.to_amplitudes())
            {
                assert!(a.approx_eq(*b, 1e-10), "{s}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn pauli_strings_are_involutions() {
        let p = PauliString::parse("XYZY").unwrap();
        let mut s = State::zero(4);
        s.apply_fixed(FixedGate::H, &[2]).unwrap();
        let twice = p.apply(&p.apply(&s).unwrap()).unwrap();
        assert!((twice.fidelity(&s).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn global_cost_on_known_states() {
        let cost = Observable::global_cost(2);
        assert!(cost.expectation(&State::zero(2)).unwrap().abs() < TOL);
        assert!((cost.expectation(&State::basis(2, 3)).unwrap() - 1.0).abs() < TOL);
        // Uniform superposition: p0 = 1/4 → cost 3/4.
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::H, &[1]).unwrap();
        assert!((cost.expectation(&s).unwrap() - 0.75).abs() < TOL);
    }

    #[test]
    fn local_cost_on_known_states() {
        let cost = Observable::local_cost(2);
        assert!(cost.expectation(&State::zero(2)).unwrap().abs() < TOL);
        assert!((cost.expectation(&State::basis(2, 3)).unwrap() - 1.0).abs() < TOL);
        // |01⟩: one qubit correct → cost 1/2.
        assert!((cost.expectation(&State::basis(2, 1)).unwrap() - 0.5).abs() < TOL);
    }

    #[test]
    fn local_cost_is_bounded_by_global() {
        // For any state, local ≤ global (projector dominance).
        let mut s = State::zero(3);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cx, &[0, 1]).unwrap();
        let local = Observable::local_cost(3).expectation(&s).unwrap();
        let global = Observable::global_cost(3).expectation(&s).unwrap();
        assert!(local <= global + TOL);
    }

    #[test]
    fn zero_projector_is_complement_of_global_cost() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        let proj = Observable::zero_projector(2).expectation(&s).unwrap();
        let cost = Observable::global_cost(2).expectation(&s).unwrap();
        assert!((proj + cost - 1.0).abs() < TOL);
    }

    #[test]
    fn apply_raw_matches_matrix_for_cost_operators() {
        let mut s = State::zero(3);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cx, &[0, 2]).unwrap();
        for obs in [
            Observable::global_cost(3),
            Observable::local_cost(3),
            Observable::zero_projector(3),
            Observable::pauli(PauliString::parse("ZIZ").unwrap()).unwrap(),
        ] {
            let raw = obs.apply_raw(&s).unwrap();
            let expected = obs.matrix().matvec(&s.to_amplitudes());
            for (a, b) in raw.to_amplitudes().iter().zip(expected.iter()) {
                assert!(a.approx_eq(*b, 1e-10), "{obs}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn expectation_via_apply_raw_is_consistent() {
        let mut s = State::zero(2);
        s.apply_fixed(FixedGate::H, &[0]).unwrap();
        s.apply_fixed(FixedGate::Cz, &[0, 1]).unwrap();
        for obs in [
            Observable::global_cost(2),
            Observable::local_cost(2),
            Observable::zero_projector(2),
        ] {
            let raw = obs.apply_raw(&s).unwrap();
            let ip = s.inner(&raw).unwrap();
            assert!((ip.re - obs.expectation(&s).unwrap()).abs() < 1e-10);
            assert!(ip.im.abs() < 1e-10, "Hermitian expectation must be real");
        }
    }

    #[test]
    fn pauli_sum_combines_terms() {
        // H = 0.5·ZI + 0.5·IZ on |00⟩ → 1.0
        let obs = Observable::pauli_sum(vec![
            (0.5, PauliString::parse("ZI").unwrap()),
            (0.5, PauliString::parse("IZ").unwrap()),
        ])
        .unwrap();
        assert!((obs.expectation(&State::zero(2)).unwrap() - 1.0).abs() < TOL);
        assert!((obs.expectation(&State::basis(2, 3)).unwrap() + 1.0).abs() < TOL);
        assert!(obs.expectation(&State::basis(2, 1)).unwrap().abs() < TOL);
    }

    #[test]
    fn pauli_sum_validation() {
        assert!(Observable::pauli_sum(vec![]).is_err());
        let bad = Observable::pauli_sum(vec![
            (1.0, PauliString::identity(2)),
            (1.0, PauliString::identity(3)),
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn observable_rejects_wrong_state_size() {
        let obs = Observable::global_cost(3);
        assert!(obs.expectation(&State::zero(2)).is_err());
        assert!(obs.apply_raw(&State::zero(2)).is_err());
    }

    #[test]
    fn display_renders() {
        assert_eq!(Pauli::X.to_string(), "X");
        assert!(Observable::global_cost(2).to_string().contains('I'));
        assert!(!Observable::local_cost(2).to_string().is_empty());
        let obs = Observable::pauli(PauliString::parse("XY").unwrap()).unwrap();
        assert!(obs.to_string().contains("XY"));
    }
}
