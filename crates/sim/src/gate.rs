//! Gate definitions and their matrices.
//!
//! Two families:
//!
//! - [`FixedGate`]: parameter-free gates (Paulis, Clifford generators,
//!   two-qubit entanglers — notably the CZ gate the paper's ansatz uses).
//! - [`RotationGate`]: one-parameter gates of the form `exp(-i θ G / 2)`
//!   (RX, RY, RZ — the paper's parameterized set — plus Phase, which equals
//!   RZ up to a global phase and therefore shares its shift rule).
//!
//! Every gate can report its dense matrix, which the full-unitary test
//! oracle uses; the statevector kernels in [`crate::state`] apply gates
//! without materializing matrices.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{FixedGate, RotationGate};
//!
//! // RZ(π) = diag(e^{-iπ/2}, e^{iπ/2}) = -i·Z
//! let rz = RotationGate::Rz.matrix(std::f64::consts::PI);
//! let z = FixedGate::Z.matrix();
//! assert!(rz.approx_eq_up_to_phase(&z, 1e-12));
//! ```

use plateau_linalg::{c64, CMatrix, C64};
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// Parameter-free gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixedGate {
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, −i).
    Sdg,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X.
    Sx,
    /// Controlled-Z (symmetric in its qubits).
    Cz,
    /// Controlled-X (CNOT).
    Cx,
    /// Controlled-Y.
    Cy,
    /// Swap.
    Swap,
}

impl FixedGate {
    /// Every fixed gate, in declaration order; [`FixedGate::from_name`]
    /// finds only the gates listed here.
    pub const ALL: [FixedGate; 13] = [
        FixedGate::X,
        FixedGate::Y,
        FixedGate::Z,
        FixedGate::H,
        FixedGate::S,
        FixedGate::Sdg,
        FixedGate::T,
        FixedGate::Tdg,
        FixedGate::Sx,
        FixedGate::Cz,
        FixedGate::Cx,
        FixedGate::Cy,
        FixedGate::Swap,
    ];

    /// The gate's lower-case name, the same in OpenQASM 2.0 and the
    /// service's op-list JSON.
    pub fn name(self) -> &'static str {
        match self {
            FixedGate::X => "x",
            FixedGate::Y => "y",
            FixedGate::Z => "z",
            FixedGate::H => "h",
            FixedGate::S => "s",
            FixedGate::Sdg => "sdg",
            FixedGate::T => "t",
            FixedGate::Tdg => "tdg",
            FixedGate::Sx => "sx",
            FixedGate::Cz => "cz",
            FixedGate::Cx => "cx",
            FixedGate::Cy => "cy",
            FixedGate::Swap => "swap",
        }
    }

    /// The gate [`FixedGate::name`] calls `name`, if any.
    pub fn from_name(name: &str) -> Option<FixedGate> {
        FixedGate::ALL.into_iter().find(|g| g.name() == name)
    }

    /// Number of qubits the gate acts on.
    pub fn arity(self) -> usize {
        match self {
            FixedGate::X
            | FixedGate::Y
            | FixedGate::Z
            | FixedGate::H
            | FixedGate::S
            | FixedGate::Sdg
            | FixedGate::T
            | FixedGate::Tdg
            | FixedGate::Sx => 1,
            FixedGate::Cz | FixedGate::Cx | FixedGate::Cy | FixedGate::Swap => 2,
        }
    }

    /// The gate's inverse as another [`FixedGate`], when one exists in this
    /// set (√X's inverse is not in the set; use [`FixedGate::inverse_matrix`]
    /// for it).
    pub fn inverse(self) -> Option<FixedGate> {
        match self {
            FixedGate::S => Some(FixedGate::Sdg),
            FixedGate::Sdg => Some(FixedGate::S),
            FixedGate::T => Some(FixedGate::Tdg),
            FixedGate::Tdg => Some(FixedGate::T),
            FixedGate::Sx => None,
            g => Some(g),
        }
    }

    /// `true` when the gate is its own inverse.
    pub fn is_self_inverse(self) -> bool {
        !matches!(
            self,
            FixedGate::S | FixedGate::Sdg | FixedGate::T | FixedGate::Tdg | FixedGate::Sx
        )
    }

    /// Dense matrix of the gate (`2×2` or `4×4`).
    ///
    /// Two-qubit matrices use the composite index `(high_qubit, low_qubit)`
    /// with the *first* operand as the high bit, matching
    /// [`CMatrix::kron`]'s convention.
    pub fn matrix(self) -> CMatrix {
        let o = C64::ZERO;
        let l = C64::ONE;
        let i = C64::I;
        match self {
            FixedGate::X
            | FixedGate::Y
            | FixedGate::Z
            | FixedGate::H
            | FixedGate::S
            | FixedGate::Sdg
            | FixedGate::T
            | FixedGate::Tdg
            | FixedGate::Sx => CMatrix::from_vec(2, 2, self.entries().to_vec()),
            FixedGate::Cz => CMatrix::from_rows(&[
                &[l, o, o, o],
                &[o, l, o, o],
                &[o, o, l, o],
                &[o, o, o, -l],
            ]),
            // Control = first operand = high bit of the composite index.
            FixedGate::Cx => CMatrix::from_rows(&[
                &[l, o, o, o],
                &[o, l, o, o],
                &[o, o, o, l],
                &[o, o, l, o],
            ]),
            FixedGate::Cy => CMatrix::from_rows(&[
                &[l, o, o, o],
                &[o, l, o, o],
                &[o, o, o, -i],
                &[o, o, i, o],
            ]),
            FixedGate::Swap => CMatrix::from_rows(&[
                &[l, o, o, o],
                &[o, o, l, o],
                &[o, l, o, o],
                &[o, o, o, l],
            ]),
        }
    }

    /// Matrix of the gate's inverse.
    pub fn inverse_matrix(self) -> CMatrix {
        self.matrix().dagger()
    }

    /// The 2×2 entries `[m00, m01, m10, m11]` the statevector kernel
    /// applies, without a `CMatrix` allocation: the matrix of a one-qubit
    /// gate, or the block a controlled gate applies to its target when
    /// the control is `|1⟩` (X for CX, Y for CY, Z for CZ).
    ///
    /// # Panics
    ///
    /// Panics for SWAP, which has no such block.
    #[inline]
    pub fn entries(self) -> [C64; 4] {
        let o = C64::ZERO;
        let l = C64::ONE;
        let i = C64::I;
        let h = c64(FRAC_1_SQRT_2, 0.0);
        match self {
            FixedGate::X | FixedGate::Cx => [o, l, l, o],
            FixedGate::Y | FixedGate::Cy => [o, -i, i, o],
            FixedGate::Z | FixedGate::Cz => [l, o, o, -l],
            FixedGate::H => [h, h, h, -h],
            FixedGate::S => [l, o, o, i],
            FixedGate::Sdg => [l, o, o, -i],
            FixedGate::T => [l, o, o, C64::cis(std::f64::consts::FRAC_PI_4)],
            FixedGate::Tdg => [l, o, o, C64::cis(-std::f64::consts::FRAC_PI_4)],
            FixedGate::Sx => {
                let p = c64(0.5, 0.5);
                let m = c64(0.5, -0.5);
                [p, m, m, p]
            }
            FixedGate::Swap => panic!("SWAP has no 2×2 block"),
        }
    }

    /// [`FixedGate::entries`] of the gate's inverse: their conjugate
    /// transpose.
    ///
    /// # Panics
    ///
    /// Panics for SWAP, like [`FixedGate::entries`].
    #[inline]
    pub fn inverse_entries(self) -> [C64; 4] {
        let [m00, m01, m10, m11] = self.entries();
        [m00.conj(), m10.conj(), m01.conj(), m11.conj()]
    }
}

impl fmt::Display for FixedGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FixedGate::X => "X",
            FixedGate::Y => "Y",
            FixedGate::Z => "Z",
            FixedGate::H => "H",
            FixedGate::S => "S",
            FixedGate::Sdg => "S†",
            FixedGate::T => "T",
            FixedGate::Tdg => "T†",
            FixedGate::Sx => "√X",
            FixedGate::Cz => "CZ",
            FixedGate::Cx => "CX",
            FixedGate::Cy => "CY",
            FixedGate::Swap => "SWAP",
        };
        f.write_str(s)
    }
}

/// One-parameter rotation gates `R(θ)`.
///
/// All satisfy the two-term parameter-shift rule with shift `π/2`:
/// `∂⟨E⟩/∂θ = (⟨E⟩(θ+π/2) − ⟨E⟩(θ−π/2)) / 2`, because their generators
/// have a spectral gap of 1 ([`RotationGate::Phase`] equals RZ up to a
/// global phase, which cancels in expectation values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotationGate {
    /// `RX(θ) = exp(-i θ X / 2)`.
    Rx,
    /// `RY(θ) = exp(-i θ Y / 2)`.
    Ry,
    /// `RZ(θ) = exp(-i θ Z / 2)`.
    Rz,
    /// `Phase(θ) = diag(1, e^{iθ})`.
    Phase,
}

impl RotationGate {
    /// All three Pauli rotations, in the paper's order — the variance
    /// analysis draws one of these uniformly per qubit per layer.
    pub const PAULI_ROTATIONS: [RotationGate; 3] =
        [RotationGate::Rx, RotationGate::Ry, RotationGate::Rz];

    /// Dense 2×2 matrix at angle `theta`.
    pub fn matrix(self, theta: f64) -> CMatrix {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let o = C64::ZERO;
        match self {
            RotationGate::Rx => CMatrix::from_rows(&[
                &[c64(c, 0.0), c64(0.0, -s)],
                &[c64(0.0, -s), c64(c, 0.0)],
            ]),
            RotationGate::Ry => CMatrix::from_rows(&[
                &[c64(c, 0.0), c64(-s, 0.0)],
                &[c64(s, 0.0), c64(c, 0.0)],
            ]),
            RotationGate::Rz => CMatrix::from_rows(&[
                &[C64::cis(-theta / 2.0), o],
                &[o, C64::cis(theta / 2.0)],
            ]),
            RotationGate::Phase => {
                CMatrix::from_rows(&[&[C64::ONE, o], &[o, C64::cis(theta)]])
            }
        }
    }

    /// Matrix of the inverse rotation `R(−θ)`.
    pub fn inverse_matrix(self, theta: f64) -> CMatrix {
        self.matrix(-theta)
    }

    /// The four matrix entries `[m00, m01, m10, m11]` at angle `theta`,
    /// ready for the statevector kernel (avoids a `CMatrix` allocation on
    /// the hot path).
    #[inline]
    pub fn entries(self, theta: f64) -> [C64; 4] {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        match self {
            RotationGate::Rx => [
                c64(c, 0.0),
                c64(0.0, -s),
                c64(0.0, -s),
                c64(c, 0.0),
            ],
            RotationGate::Ry => [c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0)],
            RotationGate::Rz => [
                C64::cis(-theta / 2.0),
                C64::ZERO,
                C64::ZERO,
                C64::cis(theta / 2.0),
            ],
            RotationGate::Phase => [C64::ONE, C64::ZERO, C64::ZERO, C64::cis(theta)],
        }
    }

    /// Entries of `dR/dθ` at angle `theta`.
    ///
    /// For the Pauli rotations this is `(−i G / 2) · R(θ)`; for Phase it is
    /// `diag(0, i e^{iθ})`. Used by the adjoint differentiation engine.
    #[inline]
    pub fn derivative_entries(self, theta: f64) -> [C64; 4] {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        match self {
            // d/dθ RX = [[-s/2, -ic/2], [-ic/2, -s/2]]
            RotationGate::Rx => [
                c64(-s / 2.0, 0.0),
                c64(0.0, -c / 2.0),
                c64(0.0, -c / 2.0),
                c64(-s / 2.0, 0.0),
            ],
            RotationGate::Ry => [
                c64(-s / 2.0, 0.0),
                c64(-c / 2.0, 0.0),
                c64(c / 2.0, 0.0),
                c64(-s / 2.0, 0.0),
            ],
            RotationGate::Rz => [
                C64::cis(-theta / 2.0) * c64(0.0, -0.5),
                C64::ZERO,
                C64::ZERO,
                C64::cis(theta / 2.0) * c64(0.0, 0.5),
            ],
            RotationGate::Phase => [
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::cis(theta) * C64::I,
            ],
        }
    }

    /// The parameter-shift half-gap `r` such that
    /// `∂E/∂θ = r·(E(θ + π/(4r)) − E(θ − π/(4r)))`. All gates here have
    /// `r = 1/2` (shift `π/2`).
    pub fn shift_coefficient(self) -> f64 {
        0.5
    }
}

impl fmt::Display for RotationGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RotationGate::Rx => "RX",
            RotationGate::Ry => "RY",
            RotationGate::Rz => "RZ",
            RotationGate::Phase => "P",
        };
        f.write_str(s)
    }
}

/// Two-qubit Pauli-product rotations `exp(-i θ P⊗P / 2)` — the
/// parameterized entanglers used by many hardware gate sets (e.g. the
/// Mølmer–Sørensen-style RXX). Their generators square to the identity,
/// so the two-term parameter-shift rule applies unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwoQubitRotationGate {
    /// `RXX(θ) = exp(-i θ X⊗X / 2)`.
    Rxx,
    /// `RYY(θ) = exp(-i θ Y⊗Y / 2)`.
    Ryy,
    /// `RZZ(θ) = exp(-i θ Z⊗Z / 2)`.
    Rzz,
}

impl TwoQubitRotationGate {
    /// The 16 row-major entries of the 4×4 matrix at angle `theta`, in the
    /// composite basis `|first, second⟩` with the first operand as the
    /// high bit.
    #[inline]
    pub fn entries(self, theta: f64) -> [C64; 16] {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let o = C64::ZERO;
        let cc = c64(c, 0.0);
        let mis = c64(0.0, -s); // -i sin
        let pis = c64(0.0, s); // +i sin
        match self {
            // cos·I − i sin·(X⊗X); X⊗X is the anti-diagonal permutation.
            TwoQubitRotationGate::Rxx => [
                cc, o, o, mis, //
                o, cc, mis, o, //
                o, mis, cc, o, //
                mis, o, o, cc,
            ],
            // Y⊗Y = antidiag(-1, 1, 1, -1).
            TwoQubitRotationGate::Ryy => [
                cc, o, o, pis, //
                o, cc, mis, o, //
                o, mis, cc, o, //
                pis, o, o, cc,
            ],
            // Z⊗Z = diag(1, -1, -1, 1).
            TwoQubitRotationGate::Rzz => [
                C64::cis(-theta / 2.0),
                o,
                o,
                o,
                o,
                C64::cis(theta / 2.0),
                o,
                o,
                o,
                o,
                C64::cis(theta / 2.0),
                o,
                o,
                o,
                o,
                C64::cis(-theta / 2.0),
            ],
        }
    }

    /// Entries of `dR/dθ = (−i G/2)·R(θ)` at angle `theta`.
    #[inline]
    pub fn derivative_entries(self, theta: f64) -> [C64; 16] {
        let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
        let o = C64::ZERO;
        let ds = c64(-s / 2.0, 0.0); // d/dθ cos(θ/2)
        let mic = c64(0.0, -c / 2.0); // d/dθ (-i sin(θ/2))
        let pic = c64(0.0, c / 2.0);
        match self {
            TwoQubitRotationGate::Rxx => [
                ds, o, o, mic, //
                o, ds, mic, o, //
                o, mic, ds, o, //
                mic, o, o, ds,
            ],
            TwoQubitRotationGate::Ryy => [
                ds, o, o, pic, //
                o, ds, mic, o, //
                o, mic, ds, o, //
                pic, o, o, ds,
            ],
            TwoQubitRotationGate::Rzz => [
                C64::cis(-theta / 2.0) * c64(0.0, -0.5),
                o,
                o,
                o,
                o,
                C64::cis(theta / 2.0) * c64(0.0, 0.5),
                o,
                o,
                o,
                o,
                C64::cis(theta / 2.0) * c64(0.0, 0.5),
                o,
                o,
                o,
                o,
                C64::cis(-theta / 2.0) * c64(0.0, -0.5),
            ],
        }
    }

    /// Dense 4×4 matrix at angle `theta`.
    pub fn matrix(self, theta: f64) -> CMatrix {
        let e = self.entries(theta);
        CMatrix::from_vec(4, 4, e.to_vec())
    }

    /// Matrix of the inverse rotation `R(−θ)`.
    pub fn inverse_matrix(self, theta: f64) -> CMatrix {
        self.matrix(-theta)
    }
}

impl fmt::Display for TwoQubitRotationGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TwoQubitRotationGate::Rxx => "RXX",
            TwoQubitRotationGate::Ryy => "RYY",
            TwoQubitRotationGate::Rzz => "RZZ",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_linalg::CMatrix;
    use std::f64::consts::{FRAC_PI_2, PI};

    const TOL: f64 = 1e-12;

    #[test]
    fn fixed_gate_names_round_trip() {
        let mut names: Vec<&str> = FixedGate::ALL.iter().map(|g| g.name()).collect();
        for g in FixedGate::ALL {
            assert_eq!(FixedGate::from_name(g.name()), Some(g), "{g}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FixedGate::ALL.len(), "two gates share a name");
        assert_eq!(FixedGate::from_name("CX"), None);
        assert_eq!(FixedGate::from_name("rx"), None);
    }

    #[test]
    fn all_fixed_gates_are_unitary() {
        for g in FixedGate::ALL {
            assert!(g.matrix().is_unitary(TOL), "{g} not unitary");
            assert_eq!(g.matrix().rows(), 1 << g.arity());
        }
    }

    #[test]
    fn rotations_are_unitary_at_many_angles() {
        for g in [
            RotationGate::Rx,
            RotationGate::Ry,
            RotationGate::Rz,
            RotationGate::Phase,
        ] {
            for k in -4..=4 {
                let theta = k as f64 * 0.7;
                assert!(g.matrix(theta).is_unitary(TOL), "{g}({theta}) not unitary");
            }
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        for g in [
            RotationGate::Rx,
            RotationGate::Ry,
            RotationGate::Rz,
            RotationGate::Phase,
        ] {
            assert!(g.matrix(0.0).approx_eq(&CMatrix::identity(2), TOL));
        }
    }

    #[test]
    fn rotation_composition_adds_angles() {
        for g in RotationGate::PAULI_ROTATIONS {
            let a = g.matrix(0.3);
            let b = g.matrix(0.9);
            let ab = &a * &b;
            assert!(ab.approx_eq(&g.matrix(1.2), TOL), "{g} angles don't add");
        }
    }

    #[test]
    fn rotation_pi_recovers_pauli_up_to_phase() {
        assert!(RotationGate::Rx
            .matrix(PI)
            .approx_eq_up_to_phase(&FixedGate::X.matrix(), TOL));
        assert!(RotationGate::Ry
            .matrix(PI)
            .approx_eq_up_to_phase(&FixedGate::Y.matrix(), TOL));
        assert!(RotationGate::Rz
            .matrix(PI)
            .approx_eq_up_to_phase(&FixedGate::Z.matrix(), TOL));
    }

    #[test]
    fn phase_equals_rz_up_to_global_phase() {
        for theta in [0.1, 1.0, -2.5] {
            let p = RotationGate::Phase.matrix(theta);
            let rz = RotationGate::Rz.matrix(theta);
            assert!(p.approx_eq_up_to_phase(&rz, TOL));
        }
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s2 = &FixedGate::S.matrix() * &FixedGate::S.matrix();
        assert!(s2.approx_eq(&FixedGate::Z.matrix(), TOL));
        let t2 = &FixedGate::T.matrix() * &FixedGate::T.matrix();
        assert!(t2.approx_eq(&FixedGate::S.matrix(), TOL));
    }

    #[test]
    fn sx_squared_is_x() {
        let sx2 = &FixedGate::Sx.matrix() * &FixedGate::Sx.matrix();
        assert!(sx2.approx_eq(&FixedGate::X.matrix(), TOL));
    }

    #[test]
    fn hadamard_conjugates_z_to_x() {
        let h = FixedGate::H.matrix();
        let hzh = &(&h * &FixedGate::Z.matrix()) * &h;
        assert!(hzh.approx_eq(&FixedGate::X.matrix(), TOL));
    }

    #[test]
    fn fixed_inverse_matrices() {
        for g in [
            FixedGate::S,
            FixedGate::Sdg,
            FixedGate::T,
            FixedGate::Tdg,
            FixedGate::Sx,
            FixedGate::X,
            FixedGate::Cz,
            FixedGate::Swap,
        ] {
            let prod = &g.matrix() * &g.inverse_matrix();
            assert!(
                prod.approx_eq(&CMatrix::identity(g.matrix().rows()), TOL),
                "{g} inverse wrong"
            );
        }
    }

    #[test]
    fn fixed_entries_equal_the_matrices_exactly() {
        let bits = |e: [C64; 4]| e.map(|z| (z.re.to_bits(), z.im.to_bits()));
        for g in [
            FixedGate::X,
            FixedGate::Y,
            FixedGate::Z,
            FixedGate::H,
            FixedGate::S,
            FixedGate::Sdg,
            FixedGate::T,
            FixedGate::Tdg,
            FixedGate::Sx,
            FixedGate::Cz,
            FixedGate::Cx,
            FixedGate::Cy,
        ] {
            // One-qubit gates: the whole matrix; controlled gates: the
            // control-|1⟩ block in the lower right.
            let o = if g.arity() == 1 { 0 } else { 2 };
            let block = |m: CMatrix| [m[(o, o)], m[(o, o + 1)], m[(o + 1, o)], m[(o + 1, o + 1)]];
            assert_eq!(bits(g.entries()), bits(block(g.matrix())), "{g}");
            assert_eq!(
                bits(g.inverse_entries()),
                bits(block(g.inverse_matrix())),
                "{g}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "SWAP")]
    fn swap_has_no_entries() {
        let _ = FixedGate::Swap.entries();
    }

    #[test]
    fn named_inverses_match_dagger() {
        for g in [FixedGate::S, FixedGate::Sdg, FixedGate::T, FixedGate::Tdg] {
            let inv = g.inverse().expect("named inverse exists");
            assert!(inv.matrix().approx_eq(&g.matrix().dagger(), TOL));
        }
        assert_eq!(FixedGate::Sx.inverse(), None);
    }

    #[test]
    fn self_inverse_classification() {
        assert!(FixedGate::X.is_self_inverse());
        assert!(FixedGate::Cz.is_self_inverse());
        assert!(FixedGate::Swap.is_self_inverse());
        assert!(!FixedGate::S.is_self_inverse());
        assert!(!FixedGate::Sx.is_self_inverse());
    }

    #[test]
    fn entries_match_matrix() {
        for g in [
            RotationGate::Rx,
            RotationGate::Ry,
            RotationGate::Rz,
            RotationGate::Phase,
        ] {
            let m = g.matrix(0.83);
            let e = g.entries(0.83);
            assert!(m[(0, 0)].approx_eq(e[0], TOL));
            assert!(m[(0, 1)].approx_eq(e[1], TOL));
            assert!(m[(1, 0)].approx_eq(e[2], TOL));
            assert!(m[(1, 1)].approx_eq(e[3], TOL));
        }
    }

    #[test]
    fn derivative_entries_match_finite_difference() {
        let eps = 1e-6;
        for g in [
            RotationGate::Rx,
            RotationGate::Ry,
            RotationGate::Rz,
            RotationGate::Phase,
        ] {
            let theta = 0.62;
            let plus = g.entries(theta + eps);
            let minus = g.entries(theta - eps);
            let deriv = g.derivative_entries(theta);
            for k in 0..4 {
                let fd = (plus[k] - minus[k]) / (2.0 * eps);
                assert!(
                    fd.approx_eq(deriv[k], 1e-8),
                    "{g} entry {k}: fd {fd} vs analytic {}",
                    deriv[k]
                );
            }
        }
    }

    #[test]
    fn cx_matrix_control_is_high_bit() {
        // Composite basis |control, target>: CX|10> = |11>.
        let cx = FixedGate::Cx.matrix();
        let v = cx.matvec(&[C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO]);
        assert!(v[3].approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn rotation_shift_coefficient() {
        assert_eq!(RotationGate::Rx.shift_coefficient(), 0.5);
        assert_eq!(RotationGate::Phase.shift_coefficient(), 0.5);
    }

    #[test]
    fn display_names() {
        assert_eq!(FixedGate::Cz.to_string(), "CZ");
        assert_eq!(RotationGate::Rx.to_string(), "RX");
        assert_eq!(TwoQubitRotationGate::Rxx.to_string(), "RXX");
        assert_eq!(FRAC_PI_2, std::f64::consts::FRAC_PI_2); // keep import used
    }

    #[test]
    fn two_qubit_rotations_are_unitary_and_compose() {
        for g in [
            TwoQubitRotationGate::Rxx,
            TwoQubitRotationGate::Ryy,
            TwoQubitRotationGate::Rzz,
        ] {
            for theta in [-2.2, 0.0, 0.7, 3.1] {
                assert!(g.matrix(theta).is_unitary(TOL), "{g}({theta})");
            }
            assert!(g.matrix(0.0).approx_eq(&CMatrix::identity(4), TOL));
            let ab = &g.matrix(0.4) * &g.matrix(0.8);
            assert!(ab.approx_eq(&g.matrix(1.2), TOL), "{g} angles don't add");
            let inv = &g.matrix(0.9) * &g.inverse_matrix(0.9);
            assert!(inv.approx_eq(&CMatrix::identity(4), TOL));
        }
    }

    #[test]
    fn two_qubit_rotation_matches_exponential_of_generator() {
        // RXX(θ) = cos(θ/2) I − i sin(θ/2) (X⊗X).
        let theta: f64 = 1.3;
        let xx = FixedGate::X.matrix().kron(&FixedGate::X.matrix());
        let expected = &CMatrix::identity(4).scale(c64((theta / 2.0).cos(), 0.0))
            + &xx.scale(c64(0.0, -(theta / 2.0).sin()));
        assert!(TwoQubitRotationGate::Rxx.matrix(theta).approx_eq(&expected, TOL));

        let yy = FixedGate::Y.matrix().kron(&FixedGate::Y.matrix());
        let expected = &CMatrix::identity(4).scale(c64((theta / 2.0).cos(), 0.0))
            + &yy.scale(c64(0.0, -(theta / 2.0).sin()));
        assert!(TwoQubitRotationGate::Ryy.matrix(theta).approx_eq(&expected, TOL));

        let zz = FixedGate::Z.matrix().kron(&FixedGate::Z.matrix());
        let expected = &CMatrix::identity(4).scale(c64((theta / 2.0).cos(), 0.0))
            + &zz.scale(c64(0.0, -(theta / 2.0).sin()));
        assert!(TwoQubitRotationGate::Rzz.matrix(theta).approx_eq(&expected, TOL));
    }

    #[test]
    fn two_qubit_derivative_matches_finite_difference() {
        let eps = 1e-6;
        for g in [
            TwoQubitRotationGate::Rxx,
            TwoQubitRotationGate::Ryy,
            TwoQubitRotationGate::Rzz,
        ] {
            let theta = -0.47;
            let plus = g.entries(theta + eps);
            let minus = g.entries(theta - eps);
            let deriv = g.derivative_entries(theta);
            for k in 0..16 {
                let fd = (plus[k] - minus[k]) / (2.0 * eps);
                assert!(
                    fd.approx_eq(deriv[k], 1e-8),
                    "{g} entry {k}: fd {fd} vs analytic {}",
                    deriv[k]
                );
            }
        }
    }
}
